#include "policy/workflow_prewarm.h"

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

WorkflowPrewarmPolicy::WorkflowPrewarmPolicy() : WorkflowPrewarmPolicy(Options{}) {}
WorkflowPrewarmPolicy::WorkflowPrewarmPolicy(Options options) : options_(options) {}

void WorkflowPrewarmPolicy::OnParentRequestStart(const workload::FunctionSpec& parent,
                                                 SimTime now) {
  if (platform_ == nullptr) {
    return;
  }
  for (const auto& edge : parent.children) {
    if (edge.probability < options_.min_edge_probability) {
      continue;
    }
    const SimTime* last = last_prewarm_.Find(edge.child);
    if (last != nullptr && now - *last < options_.per_child_cooldown) {
      continue;
    }
    if (platform_->HasAvailablePod(edge.child)) {
      continue;
    }
    const workload::FunctionSpec& child = platform_->spec(edge.child);
    platform_->SpawnPrewarmedPod(edge.child, child.region, options_.prewarm_keep_alive);
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
