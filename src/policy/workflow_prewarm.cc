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

bool WorkflowPrewarmPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(prewarms_issued_);
  last_prewarm_.SaveEntries(w, [&w](SimTime t) { w.I64(t); });
  *out = w.Take();
  return true;
}

bool WorkflowPrewarmPolicy::RestorePolicyState(std::string_view blob) {
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  last_prewarm_.RestoreEntries(r, [&r](SimTime& t) { t = r.I64(); });
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
