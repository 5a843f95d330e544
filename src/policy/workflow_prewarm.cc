#include "policy/workflow_prewarm.h"

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

namespace {
constexpr double kMinEdgeProbability = 0.15;        // Ignore unlikely edges.
constexpr SimDuration kPerChildCooldown = 30 * kSecond;  // One prewarm per window.
}  // namespace

void WorkflowPrewarmPolicy::OnParentRequestStart(const workload::FunctionSpec& parent,
                                                 SimTime now) {
  COLDSTART_CHECK(platform_ != nullptr);
  for (const auto& edge : parent.children) {
    if (edge.probability < kMinEdgeProbability) {
      continue;
    }
    const SimTime* last = last_prewarm_.Find(edge.child);
    if (last != nullptr && now - *last < kPerChildCooldown) {
      continue;
    }
    if (platform_->HasAvailablePod(edge.child)) {
      continue;
    }
    platform_->SpawnPrewarmedPod(edge.child, platform_->spec(edge.child).region,
                                 platform_->default_keep_alive());
    last_prewarm_.Touch(edge.child) = now;
    ++prewarms_issued_;
  }
}

template <class Ar, class Self>
void WorkflowPrewarmPolicy::Layout(Ar& a, Self& self) {
  a.I64(self.prewarms_issued_);
  FunctionTable<SimTime>::Layout(a, self.last_prewarm_, self.platform_,
                                 [&a](auto& last) { a.I64(last); });
}

bool WorkflowPrewarmPolicy::SavePolicyState(std::string* out) const {
  *out = SaveLayout(*this);
  return true;
}

bool WorkflowPrewarmPolicy::RestorePolicyState(std::string_view blob) {
  RestoreLayout(blob, *this);
  return true;
}

}  // namespace coldstart::policy
