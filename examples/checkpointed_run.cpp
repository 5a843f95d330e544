// Checkpointed runner: the smallest complete driver for the crash-safe path,
// and the knob the kill-and-resume smoke tests drive from the outside.
//
// Runs the synthetic scenario with day-boundary checkpoints in DIR. If DIR
// already holds a manifest, the run resumes from it instead of starting over;
// repeating the same command line until it prints "completed" therefore
// finishes the run no matter how many times it is killed in between.
//
//   checkpointed_run DIR [days] [scale] [--every N] [--halt D] [--streaming]
//                    [--cells C]
//
// --every N   checkpoint every N days (default 1).
// --halt D    arm the stop flag once day D's checkpoint commits; the run then
//             stops (with a final committed checkpoint) at the next day
//             boundary — deterministic fault injection: the run ends exactly
//             as if it had been killed there, so a driver can script
//             kill/resume cycles without racing a real signal against the
//             simulator.
// --streaming use the O(1)-memory streaming trace sink instead of kFull.
// --cells C   capacity cells per region (default 1); a sharded run splits each
//             region into C shards, whatever the thread count.
//
// A DIR whose manifest was written for another run (another scenario
// fingerprint, which covers days, scale, cells and the build's fingerprint
// salt; another trace mode; another region count) is refused with one line
// naming DIR and the mismatch: it cannot be resumed, and starting over would
// mix two runs' files in one directory. So is a DIR whose manifest or
// checkpoint files another format version wrote (an older build, say).
//
// Exit status: 0 completed, 3 halted at a checkpoint (resume to continue),
// 2 usage error, 4 DIR holds a checkpoint of another run or format version.
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/env.h"
#include "core/coldstart_lab.h"

using namespace coldstart;

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: checkpointed_run DIR [days] [scale] [--every N] "
                 "[--halt D] [--streaming] [--cells C]\n");
    return 2;
  }
  const std::string dir = argv[1];
  int days = 30;
  double scale = 0.05;
  int every = 1;
  int64_t halt_day = -1;
  bool streaming = false;
  uint32_t cells = 1;
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--streaming") == 0) {
      streaming = true;
    } else if (std::strcmp(argv[i], "--every") == 0 && i + 1 < argc) {
      const std::optional<int64_t> parsed = ParseInt(argv[++i]);
      if (!parsed.has_value() || *parsed < 1) {
        std::fprintf(stderr, "checkpointed_run: bad --every \"%s\"\n", argv[i]);
        return 2;
      }
      every = static_cast<int>(*parsed);
    } else if (std::strcmp(argv[i], "--halt") == 0 && i + 1 < argc) {
      const std::optional<int64_t> parsed = ParseInt(argv[++i]);
      if (!parsed.has_value() || *parsed < 0) {
        std::fprintf(stderr, "checkpointed_run: bad --halt \"%s\"\n", argv[i]);
        return 2;
      }
      halt_day = *parsed;
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      const std::optional<int64_t> parsed = ParseInt(argv[++i]);
      if (!parsed.has_value() || *parsed < 1 || *parsed > 64) {
        std::fprintf(stderr, "checkpointed_run: bad --cells \"%s\"\n", argv[i]);
        return 2;
      }
      cells = static_cast<uint32_t>(*parsed);
    } else if (positional == 0) {
      const std::optional<int64_t> parsed = ParseInt(argv[i]);
      if (!parsed.has_value() || *parsed < 1 || *parsed > 36500) {
        std::fprintf(stderr, "checkpointed_run: bad days \"%s\"\n", argv[i]);
        return 2;
      }
      days = static_cast<int>(*parsed);
      ++positional;
    } else {
      const std::optional<double> parsed = ParseDouble(argv[i]);
      if (!parsed.has_value() || !(*parsed > 0.0)) {
        std::fprintf(stderr, "checkpointed_run: bad scale \"%s\"\n", argv[i]);
        return 2;
      }
      scale = *parsed;
      ++positional;
    }
  }

  core::ScenarioConfig config;
  config.days = days;
  config.scale = scale;
  config.cells_per_region = cells;
  config.trace_mode =
      streaming ? core::TraceMode::kStreaming : core::TraceMode::kFull;

  core::CheckpointPolicy ckpt;
  ckpt.every_n_days = every;
  ckpt.dir = dir;
  ckpt.stop = &g_stop;
  if (halt_day >= 0) {
    // Deterministic kill: arm the stop flag the moment the target day's
    // checkpoint commits, so the run ends at that exact boundary.
    ckpt.on_checkpoint = [halt_day](int64_t day, uint32_t) {
      if (day >= halt_day) {
        g_stop.store(true, std::memory_order_relaxed);
      }
    };
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  core::Experiment experiment(config);
  // Experiment::ResumeFrom CHECKs its directory as its contract; a stale one
  // is outside input, so it is refused here first.
  bool resuming = false;
  const std::string refusal = experiment.CheckResumable(dir, &resuming);
  if (!refusal.empty()) {
    std::fprintf(stderr, "checkpointed_run: %s\n", refusal.c_str());
    return 4;
  }
  if (resuming) {
    std::printf("resuming from %s\n", dir.c_str());
  }
  const core::ExperimentResult result =
      resuming ? experiment.ResumeFrom(dir, nullptr, 0, &ckpt)
               : experiment.Run(nullptr, 0, &ckpt);

  if (result.interrupted_at_day >= 0) {
    std::printf("halted at day %" PRId64 " (checkpoint committed); rerun to resume\n",
                result.interrupted_at_day);
    return 3;
  }
  if (streaming) {
    const trace::StreamCounters& c =
        result.streaming.region(static_cast<trace::RegionId>(0));
    std::printf("completed: %d days, region0 requests=%" PRIu64
                " cold_starts=%" PRIu64 "\n",
                days, c.requests, c.cold_starts);
  } else {
    std::printf("completed: %d days, %zu requests, %zu cold starts, digest %016" PRIx64
                "\n",
                days, result.store.requests().size(),
                result.store.cold_starts().size(), trace::Digest(result.store));
  }
  return 0;
}
