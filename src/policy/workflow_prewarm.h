// Workflow call-chain prewarming (§5 "Workflow function calls can be predicted").
//
// When a request of a function with workflow children starts, the children are likely
// to be invoked within the parent's execution time. This policy prewarms pods for
// children with an edge probability of at least 0.15 that have no available pod,
// at most one per child per 30 s, hiding the child's cold start behind the parent's
// execution. A prewarmed child pod idles for the platform's default keep-alive.
#ifndef COLDSTART_POLICY_WORKFLOW_PREWARM_H_
#define COLDSTART_POLICY_WORKFLOW_PREWARM_H_

#include <memory>

#include "platform/platform.h"
#include "policy/function_table.h"

namespace coldstart::policy {

class WorkflowPrewarmPolicy : public platform::PlatformPolicy {
 public:
  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnParentRequestStart(const workload::FunctionSpec& parent, SimTime now) override;

  // Workflow edges are wired within a region, so per-child cooldown state shards
  // cleanly.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<WorkflowPrewarmPolicy>();
  }
  // Reads only the parent's edges and the children's pod availability; workflow
  // components never span capacity cells (workload/function_cells.h), so every
  // observation stays inside the shard.
  bool is_function_local() const override { return true; }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override {
    prewarms_issued_ +=
        static_cast<const WorkflowPrewarmPolicy&>(shard).prewarms_issued_;
  }

  int64_t prewarms_issued() const { return prewarms_issued_; }

  // Checkpointable: the cooldown table and the prewarm counter; platform_ is re-wired by OnAttach on the resumed platform.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

 private:
  platform::Platform* platform_ = nullptr;
  FunctionTable<SimTime> last_prewarm_;  // Per child.
  int64_t prewarms_issued_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_WORKFLOW_PREWARM_H_
