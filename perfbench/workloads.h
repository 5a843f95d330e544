// The benchmark's four workloads, their scenarios, and the output checks every
// repetition runs. Each workload is one batch job driven through the public
// core::Experiment / core::RunFrontier API; see README.md for why each exists
// and which layer it stresses.
#ifndef COLDSTART_PERFBENCH_WORKLOADS_H_
#define COLDSTART_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/frontier.h"
#include "core/scenario.h"

namespace coldbench {

enum class Workload { kMonthSerial, kMonthSharded, kPolicySweep, kFullTraceResume };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

// The scenario a workload simulates for `seed`. month_serial and month_sharded
// share one scenario; policy_sweep is the scenario each candidate runs.
coldstart::core::ScenarioConfig ScenarioFor(Workload w, uint64_t seed);

// Worker threads the workload runs on: 1, or min(4, nproc) for month_sharded.
int ThreadsFor(Workload w);

// pareto_frontier's candidate set minus the candidates built on
// TimerAwarePrewarmPolicy (prewarm-timer, composite-classic).
std::vector<coldstart::core::FrontierCandidate> SweepCandidates();

// --- Output digests (64-bit FNV-1a over the run's deterministic outputs). ---
// kStreaming: StreamingAggregates::SaveState bytes, the cost ledger and the
// per-region platform counters. kFull: trace::Digest of the sealed store, the
// ledger and the counters.
uint64_t RunDigest(const coldstart::core::ExperimentResult& result);
// Every field of a frontier point, doubles by bit pattern, plus its flag.
uint64_t PointDigest(const coldstart::core::FrontierPoint& point);

// Conservation identities the public counters allow; returns the names of the
// ones that do not hold (empty = all hold).
std::vector<std::string> ConservationFailures(
    const coldstart::core::ExperimentResult& result);

// The frontier the sweep reports is cost-ascending and strictly p99-descending,
// and every point flagged on_frontier is listed in it.
bool FrontierIsMonotone(const coldstart::core::FrontierResult& result);

// The (cost, p99) points and frontier flags RunFrontier derives from one run.
coldstart::core::FrontierPoint PointFromRun(
    const std::string& name, const coldstart::core::ExperimentResult& run);
void MarkFrontier(coldstart::core::FrontierResult* result);

// --- full_trace_resume: a daily-checkpointed run stopped at MidDay() through
// CheckpointPolicy::stop, then completed by Experiment::ResumeFrom. ---
int MidDay(const coldstart::core::ScenarioConfig& config);

// One entry per committed checkpoint: its day and when it committed (seconds
// since RunCheckpointedResume was called), plus the bytes of every file.
struct CommitLog {
  std::vector<int64_t> days;
  std::vector<double> at_s;
  uint64_t bytes = 0;
  double resume_called_s = 0;  // When ResumeFrom was called.
};

// `dir` is wiped first. Returns the completed (resumed) result.
coldstart::core::ExperimentResult RunCheckpointedResume(
    const coldstart::core::ScenarioConfig& config, const std::string& dir,
    CommitLog* log);

// Seconds on the steady clock.
double NowSeconds();

}  // namespace coldbench

#endif  // COLDSTART_PERFBENCH_WORKLOADS_H_
