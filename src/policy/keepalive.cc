#include "policy/keepalive.h"

#include <algorithm>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

DynamicKeepAlivePolicy::DynamicKeepAlivePolicy() : DynamicKeepAlivePolicy(Options{}) {}
DynamicKeepAlivePolicy::DynamicKeepAlivePolicy(Options options) : options_(options) {}

void DynamicKeepAlivePolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  History& h = history_.Touch(spec.id);
  if (h.last_arrival >= 0) {
    const double iat = static_cast<double>(now - h.last_arrival);
    h.iat_ewma = h.observations == 0
                     ? iat
                     : options_.ewma_alpha * iat + (1 - options_.ewma_alpha) * h.iat_ewma;
    ++h.observations;
  }
  h.last_arrival = now;
}

SimDuration DynamicKeepAlivePolicy::KeepAliveFor(const workload::FunctionSpec& spec,
                                                 SimTime) {
  const History* h = history_.Find(spec.id);
  if (h == nullptr || h->observations < options_.min_observations) {
    return options_.default_keep_alive;
  }
  const auto scaled = static_cast<SimDuration>(options_.headroom * h->iat_ewma);
  return std::clamp(scaled, options_.min_keep_alive, options_.max_keep_alive);
}

bool DynamicKeepAlivePolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  history_.SaveEntries(w, [&w](const History& h) {
    w.I64(h.last_arrival);
    w.F64(h.iat_ewma);
    w.I64(h.observations);
  });
  *out = w.Take();
  return true;
}

bool DynamicKeepAlivePolicy::RestorePolicyState(std::string_view blob) {
  ByteReader r(blob);
  history_.RestoreEntries(r, [&r](History& h) {
    h.last_arrival = r.I64();
    h.iat_ewma = r.F64();
    h.observations = static_cast<int>(r.I64());
  });
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
