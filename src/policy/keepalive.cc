#include "policy/keepalive.h"

#include <algorithm>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

namespace {
constexpr SimDuration kMinKeepAlive = 5 * kSecond;
constexpr double kEwmaAlpha = 0.3;  // Weight of the newest inter-arrival time.
constexpr int kMinObservations = 3;
}  // namespace

void DynamicKeepAlivePolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  History& h = history_.Touch(spec.id);
  if (h.last_arrival >= 0) {
    const double iat = static_cast<double>(now - h.last_arrival);
    h.iat_ewma = h.observations == 0
                     ? iat
                     : kEwmaAlpha * iat + (1 - kEwmaAlpha) * h.iat_ewma;
    ++h.observations;
  }
  h.last_arrival = now;
}

SimDuration DynamicKeepAlivePolicy::KeepAliveFor(const workload::FunctionSpec& spec,
                                                 SimTime) {
  const History* h = history_.Find(spec.id);
  if (h == nullptr || h->observations < kMinObservations) {
    return kDefaultKeepAlive;
  }
  const auto scaled = static_cast<SimDuration>(options_.headroom * h->iat_ewma);
  return std::clamp(scaled, kMinKeepAlive, options_.max_keep_alive);
}

template <class Ar, class Self>
void DynamicKeepAlivePolicy::Layout(Ar& a, Self& self) {
  FunctionTable<History>::Layout(a, self.history_, self.platform_, [&a](auto& h) {
    a.I64(h.last_arrival);
    a.F64(h.iat_ewma);
    a.I64(h.observations);
  });
}

bool DynamicKeepAlivePolicy::SavePolicyState(std::string* out) const {
  *out = SaveLayout(*this);
  return true;
}

bool DynamicKeepAlivePolicy::RestorePolicyState(std::string_view blob) {
  RestoreLayout(blob, *this);
  return true;
}

}  // namespace coldstart::policy
