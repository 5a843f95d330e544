// Year-scale run: the streaming trace sink's reason to exist.
//
// Simulates N months (default 12 — ~12x the paper's dataset span) and reports the
// cold-start picture from StreamingAggregates: per-region counters and
// histogram-quantile tables produced in O(1) memory, where a full-trace run of the
// same scenario materializes hundreds of MB of record tables and blows the RSS
// budget (the CI smoke test runs this binary under a ulimit that only the
// streaming mode fits; pass --full to watch the other mode exceed it).
//
// With --checkpoint DIR the run is crash-safe: state snapshots into DIR at
// every day boundary, SIGINT/SIGTERM trigger a final checkpoint instead of
// losing the run, and re-invoking with the same DIR resumes where it stopped
// (final results bit-identical to an uninterrupted run). A DIR that holds a
// checkpoint of another run or format version is refused with one line naming
// it (exit 4), as checkpointed_run refuses it.
//
// Usage: year_scale [months] [scale] [--full] [--checkpoint DIR]
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/env.h"
#include "common/rusage.h"
#include "core/coldstart_lab.h"
#include "trace/streaming_aggregates.h"

using namespace coldstart;

namespace {

// Signal handlers may only touch lock-free state; the simulation loop polls
// this at day boundaries and shuts down through the normal checkpoint path.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void PrintReport(const trace::StreamingAggregates& agg) {
  TextTable overview({"region", "functions", "requests", "cold starts", "pods",
                      "pod-hours"});
  for (size_t r = 0; r < agg.num_regions(); ++r) {
    const auto region = static_cast<trace::RegionId>(r);
    const trace::StreamCounters& c = agg.region(region);
    overview.Row()
        .Cell(trace::RegionName(region))
        .Cell(agg.functions_in_region(region))
        .Cell(c.requests)
        .Cell(c.cold_starts)
        .Cell(c.pods)
        .Cell(static_cast<double>(c.pod_lifetime_sum_us) / 3.6e9, 1);
  }
  std::printf("%s\n", overview.Render().c_str());

  TextTable cs(analysis::QuantileHeaders("cold start time (s)"));
  for (size_t r = 0; r < agg.num_regions(); ++r) {
    const auto region = static_cast<trace::RegionId>(r);
    analysis::AddQuantileRow(cs, trace::RegionName(region),
                             agg.cold_start_hist(region));
  }
  analysis::AddQuantileRow(cs, "all", agg.MergedColdStartHist());
  std::printf("%s\n", cs.Render().c_str());

  TextTable groups(analysis::QuantileHeaders("trigger group, cold starts (s)"));
  for (int g = 0; g < trace::kNumTriggerGroups; ++g) {
    const auto group = static_cast<trace::TriggerGroup>(g);
    analysis::AddQuantileRow(groups, trace::TriggerGroupName(group),
                             agg.GroupColdStartHist(group));
  }
  std::printf("%s\n", groups.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int months = 12;
  double scale = 0.05;
  bool full = false;
  std::string checkpoint_dir;
  int positional = 0;
  // Strict parsing: this binary backs the ulimit-enforced memory-contract test,
  // where a typo'd argument degrading to a 0-day no-op run would pass vacuously.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "year_scale: --checkpoint needs a directory\n");
        return 2;
      }
      checkpoint_dir = argv[++i];
    } else if (positional == 0) {
      const std::optional<int64_t> parsed = ParseInt(argv[i]);
      if (!parsed.has_value() || *parsed < 1 || *parsed > 1200) {
        std::fprintf(stderr, "year_scale: bad months \"%s\" (want 1..1200)\n", argv[i]);
        return 2;
      }
      months = static_cast<int>(*parsed);
      ++positional;
    } else {
      const std::optional<double> parsed = ParseDouble(argv[i]);
      if (!parsed.has_value() || !(*parsed > 0.0)) {
        std::fprintf(stderr, "year_scale: bad scale \"%s\" (want > 0)\n", argv[i]);
        return 2;
      }
      scale = *parsed;
      ++positional;
    }
  }

  core::ScenarioConfig config;
  config.days = (months * 365) / 12;
  config.scale = scale;
  config.trace_mode = full ? core::TraceMode::kFull : core::TraceMode::kStreaming;

  std::printf("Simulating %d months (%d days) at %.2fx scale, %s trace mode...\n",
              months, config.days, scale, full ? "FULL" : "STREAMING");
  core::Experiment experiment(config);

  core::CheckpointPolicy ckpt;
  core::ExperimentResult result;
  if (!checkpoint_dir.empty()) {
    ckpt.every_n_days = 1;
    ckpt.dir = checkpoint_dir;
    ckpt.stop = &g_stop;
    // SIGINT/SIGTERM now mean "checkpoint and stop at the next day boundary",
    // not "lose the run"; one simulated day completes in well under a second
    // at any sane scale, so the shutdown is prompt.
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    bool resuming = false;
    const std::string refusal = experiment.CheckResumable(checkpoint_dir, &resuming);
    if (!refusal.empty()) {
      std::fprintf(stderr, "year_scale: %s\n", refusal.c_str());
      return 4;
    }
    if (resuming) {
      std::printf("Resuming from checkpoints in %s...\n", checkpoint_dir.c_str());
      result = experiment.ResumeFrom(checkpoint_dir, nullptr, 0, &ckpt);
    } else {
      result = experiment.Run(nullptr, 0, &ckpt);
    }
  } else {
    result = experiment.Run();
  }

  if (result.interrupted_at_day >= 0) {
    std::printf("Interrupted: checkpointed through day %lld in %s. "
                "Re-run with the same --checkpoint dir to resume.\n",
                static_cast<long long>(result.interrupted_at_day),
                checkpoint_dir.c_str());
    return 130;
  }

  std::printf("Done: %llu events in %.2fs wall (%.1f Mevents/s), peak RSS %.1f MB, "
              "peak VM %.1f MB.\n\n",
              static_cast<unsigned long long>(result.events_processed),
              result.sim_wall_seconds,
              static_cast<double>(result.events_processed) / 1e6 /
                  (result.sim_wall_seconds > 0 ? result.sim_wall_seconds : 1.0),
              PeakRssMb(), PeakVmMb());

  // Both modes render the identical report: a full-trace run folds its store
  // through the same sink the streaming run filled on the fly.
  const trace::StreamingAggregates derived =
      full ? trace::AggregatesFromStore(result.store) : trace::StreamingAggregates();
  const trace::StreamingAggregates& agg = full ? derived : result.streaming;
  PrintReport(agg);

  std::printf("streaming sink footprint: %.1f KB%s\n",
              static_cast<double>(agg.ApproxBytes()) / 1024.0,
              full ? " (derived post-hoc from the full store)" : "");
  return 0;
}
