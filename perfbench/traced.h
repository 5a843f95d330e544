// The benchmark's traced runner: the same simulation core::Experiment runs,
// driven from outside the library so every call into a layer can be timed.
//
// RunShards() builds one sim::Simulator + platform::Platform per shard with the
// planner Experiment::Run uses (serial when threads == 1), attaches each
// shard's arrival stream through Platform::AttachArrivalStream, and runs it
// split at day boundaries. With tracing on, the shard's arrival stream, trace
// sink and policy are wrapped in forwarding decorators that time every call
// (spans nest: a layer's self time excludes the spans it calls into). With
// tracing off the same runner runs undecorated, which is the baseline the
// tracing overhead is measured against. Outputs are the run's
// core::ExperimentResult, so the benchmark checks a traced run against the
// untraced one by digest.
#ifndef COLDSTART_PERFBENCH_TRACED_H_
#define COLDSTART_PERFBENCH_TRACED_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "platform/policy_hooks.h"
#include "trace/trace_sink.h"
#include "workload/arrival_stream.h"

namespace coldbench {

enum Layer : int {
  kArrivals = 0,  // ArrivalStream::NextChunk.
  kPlatform,      // Simulator::RunUntil: wheel, request path, cold-start model.
  kFinalize,      // Platform::Finalize.
  kSink,          // TraceSink callbacks.
  kPolicyHook,    // PlatformPolicy per-event hooks.
  kPolicyTick,    // PlatformPolicy::OnMinuteTick.
  kNumLayers
};

// Span bookkeeping for one shard. Not thread-safe: each shard (one thread at a
// time) owns its own Tracer, and the runner sums them after the join.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint32_t shard = 0;
    double begin_s = 0;  // Steady-clock seconds (NowSeconds()).
    double end_s = 0;
  };

  explicit Tracer(uint32_t shard = 0) : shard_(shard) {}

  void Begin();
  void End(Layer layer);
  // Keeps one coarse span (a day of RunUntil, a chunk pull, a merge) in memory.
  void Keep(std::string name, double begin_s, double end_s);

  double self_s(Layer layer) const { return static_cast<double>(self_ns_[layer]) * 1e-9; }
  uint64_t calls(Layer layer) const { return calls_[layer]; }
  const std::vector<Span>& spans() const { return spans_; }

  uint64_t arrivals = 0;  // Events in every chunk pulled.

 private:
  struct Frame {
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };
  static constexpr int kMaxDepth = 32;

  uint32_t shard_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  std::array<int64_t, kNumLayers> self_ns_{};
  std::array<uint64_t, kNumLayers> calls_{};
  std::vector<Span> spans_;
};

// Wall-clock profile of one RunShards call.
struct RunProfile {
  double wall_s = 0;
  double population_s = 0;
  double merge_s = 0;
  double seal_s = 0;
  double sweep_wall_s = 0;
  int workers = 1;
  std::vector<double> shard_wall_s;
  // Serial runs: seconds since the call at which each day boundary
  // (day * kDay - 1, day = 1 .. days - 1) was reached, then the end of the run.
  std::vector<double> day_end_s;
  double sink_mb = 0;
  // One per shard when traced; empty otherwise.
  std::vector<Tracer> tracers;
};

coldstart::core::ExperimentResult RunShards(const coldstart::core::ScenarioConfig& config,
                                            int threads,
                                            coldstart::platform::PlatformPolicy* policy,
                                            bool traced, RunProfile* profile);

}  // namespace coldbench

#endif  // COLDSTART_PERFBENCH_TRACED_H_
