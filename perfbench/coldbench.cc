// coldbench: one repetition of one benchmark workload, as one process.
//
// run.py starts a fresh coldbench process per repetition (so peak RSS is that
// repetition's own high-water mark) and folds the JSON line each prints into
// medians. Modes:
//
//   coldbench info
//       Build type, compiler and hardware concurrency of this binary.
//   coldbench reference --workload W --seed N --scratch DIR
//       The untimed, uninterrupted serial run of the workload's scenario:
//       what month_sharded and full_trace_resume repetitions must reproduce.
//   coldbench rep --workload W --seed N --scratch DIR [--trace] [--spans FILE]
//       One repetition. Untraced: times the scenario set-up
//       (core::OpenWorkloadStream) and then the workload's operation, and checks
//       its outputs. Traced: runs the benchmark's own shard runner undecorated
//       and then with layer decorators, and reports per-layer metrics; --spans
//       writes the traced run's coarse spans as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rusage.h"
#include "core/experiment.h"
#include "core/frontier.h"
#include "traced.h"
#include "workloads.h"

using namespace coldstart;
using coldbench::Workload;

namespace {

constexpr int kSetupRepeats = 5;

// A flat JSON object, written in insertion order.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) { return Raw(key, std::to_string(v)); }
  Json& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// One checked output: its digest and the checks it failed.
struct Op {
  uint64_t digest = 0;
  std::vector<std::string> failures;
};

std::string OpsJson(const std::vector<Op>& ops) {
  std::string out = "[";
  for (size_t i = 0; i < ops.size(); ++i) {
    Json o;
    o.Str("digest", Hex(ops[i].digest));
    std::string fails = "[";
    for (size_t j = 0; j < ops[i].failures.size(); ++j) {
      fails += (j ? ", \"" : "\"") + ops[i].failures[j] + "\"";
    }
    o.Raw("failures", fails + "]");
    out += (i ? ", " : "") + o.str();
  }
  return out + "]";
}

std::vector<Op> SweepOps(const core::FrontierResult& frontier) {
  const bool monotone = coldbench::FrontierIsMonotone(frontier);
  std::vector<Op> ops;
  for (const core::FrontierPoint& p : frontier.points) {
    Op op{coldbench::PointDigest(p), {}};
    if (!monotone) {
      op.failures.emplace_back("frontier_not_monotone");
    }
    if (p.requests == 0) {
      op.failures.emplace_back("requests>0");
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Op RunOp(const core::ExperimentResult& result) {
  return {coldbench::RunDigest(result), coldbench::ConservationFailures(result)};
}

uint64_t Requests(const core::ExperimentResult& result) {
  return result.mode == core::TraceMode::kStreaming ? result.streaming.Totals().requests
                                                    : result.store.requests().size();
}

// Peak resident set of this process image (VmHWM). Not ru_maxrss: Linux
// carries the parent's high-water mark across fork + exec, so a child of a
// large launcher would report the launcher's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return coldstart::PeakRssMb();
  }
  double mb = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb > 0 ? mb : coldstart::PeakRssMb();
}

double CpuSeconds() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

// --- Per-layer metrics, summed over the RunShards calls of one repetition. ---
struct LayerSums {
  double population_s = 0, next_chunk_s = 0, platform_self_s = 0, finalize_s = 0;
  double sink_s = 0, seal_s = 0, sink_mb = 0, hook_s = 0, tick_s = 0;
  double merge_s = 0, shard_wall_max_s = 0, imbalance = 0, idle_worker_s = 0;
  uint64_t arrivals = 0, events = 0, requests = 0, cold_starts = 0, prewarm = 0;
  uint64_t scratch = 0, records = 0, hook_calls = 0, shards = 0, visible = 0;

  void Add(const coldbench::RunProfile& p, const core::ExperimentResult& r) {
    population_s += p.population_s;
    for (const coldbench::Tracer& t : p.tracers) {
      next_chunk_s += t.self_s(coldbench::kArrivals);
      platform_self_s += t.self_s(coldbench::kPlatform);
      finalize_s += t.self_s(coldbench::kFinalize);
      sink_s += t.self_s(coldbench::kSink);
      hook_s += t.self_s(coldbench::kPolicyHook);
      tick_s += t.self_s(coldbench::kPolicyTick);
      records += t.calls(coldbench::kSink);
      hook_calls += t.calls(coldbench::kPolicyHook) + t.calls(coldbench::kPolicyTick);
      arrivals += t.arrivals;
    }
    events += r.events_processed;
    requests += Requests(r);
    for (size_t i = 0; i < r.visible_cold_starts.size(); ++i) {
      cold_starts += static_cast<uint64_t>(r.visible_cold_starts[i] + r.prewarm_spawns[i]);
      prewarm += static_cast<uint64_t>(r.prewarm_spawns[i]);
      scratch += static_cast<uint64_t>(r.scratch_allocations[i]);
    }
    visible += static_cast<uint64_t>(
        std::accumulate(r.visible_cold_starts.begin(), r.visible_cold_starts.end(), int64_t{0}));
    seal_s += r.mode == core::TraceMode::kFull ? p.seal_s : 0.0;
    sink_mb = std::max(sink_mb, p.sink_mb);
    merge_s += p.merge_s;
    double total = 0, longest = 0;
    for (const double w : p.shard_wall_s) {
      total += w;
      longest = std::max(longest, w);
    }
    shards = std::max<uint64_t>(shards, p.shard_wall_s.size());
    shard_wall_max_s = std::max(shard_wall_max_s, longest);
    const double mean = total / static_cast<double>(p.shard_wall_s.size());
    imbalance = std::max(imbalance, mean > 0 ? longest / mean : 1.0);
    idle_worker_s += p.workers * p.sweep_wall_s - total;
  }

  static double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

  void Emit(Json& j) const {
    j.Num("workload.population_s", population_s)
        .Num("workload.next_chunk_s", next_chunk_s)
        .Int("workload.arrivals", arrivals)
        .Num("workload.ns_per_arrival", Ratio(next_chunk_s * 1e9, arrivals))
        .Num("platform.self_s", platform_self_s)
        .Num("platform.finalize_s", finalize_s)
        .Int("sim.events", events)
        .Num("sim.events_per_request", Ratio(events, requests))
        .Num("sim.ns_per_event", Ratio(platform_self_s * 1e9, events))
        .Num("platform.cold_starts_per_request", Ratio(visible, requests))
        .Num("platform.scratch_per_cold_start", Ratio(scratch, cold_starts))
        .Num("trace.sink_s", sink_s)
        .Int("trace.records", records)
        .Num("trace.ns_per_record", Ratio(sink_s * 1e9, records))
        .Num("trace.seal_s", seal_s)
        .Num("trace.sink_mb", sink_mb)
        .Num("policy.hook_s", hook_s)
        .Num("policy.tick_s", tick_s)
        .Int("policy.hook_calls", hook_calls)
        .Int("policy.prewarm_spawns", prewarm)
        .Int("core.shards", shards)
        .Num("core.shard_wall_max_s", shard_wall_max_s)
        .Num("core.shard_imbalance", imbalance)
        .Num("core.merge_s", merge_s)
        .Num("core.idle_worker_s", idle_worker_s);
  }
};

// Save and restore time of the checkpointed run, by difference against the
// un-checkpointed run split at the same day boundaries. Day d's excess is the
// checkpointed run's interval ending at commit d minus the plain run's interval
// ending at boundary d; it is that commit's save time, plus the restore for
// the first commit after ResumeFrom. That commit's own save is estimated by
// the nearest other commit's.
void CheckpointMetrics(const coldbench::CommitLog& log, const std::vector<double>& plain,
                       int mid, Json& j) {
  std::map<int64_t, double> excess;
  for (size_t i = 0; i < log.days.size(); ++i) {
    const int64_t d = log.days[i];
    const double ck_begin = d == mid + 1 ? log.resume_called_s : (i ? log.at_s[i - 1] : 0.0);
    const double plain_begin = d >= 2 ? plain[static_cast<size_t>(d - 2)] : 0.0;
    excess[d] = (log.at_s[i] - ck_begin) - (plain[static_cast<size_t>(d - 1)] - plain_begin);
  }
  double restore = 0;
  if (excess.count(mid + 1) != 0) {
    const double neighbour = excess.count(mid + 2) != 0 ? excess[mid + 2] : excess[mid];
    restore = excess[mid + 1] - neighbour;
  }
  double save = -restore;
  for (const auto& [day, e] : excess) {
    save += e;
  }
  j.Int("checkpoint.bytes", log.bytes).Num("checkpoint.save_s", save).Num(
      "checkpoint.restore_s", restore);
}

void WriteSpans(const std::string& path, const std::vector<coldbench::Tracer::Span>& spans,
                double origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "coldbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f, "%s{\"name\": \"%s\", \"shard\": %u, \"begin_s\": %.9f, \"end_s\": %.9f}\n",
                 i ? "," : "", s.name.c_str(), s.shard, s.begin_s - origin, s.end_s - origin);
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

struct Args {
  std::string mode;
  Workload workload = Workload::kMonthSerial;
  uint64_t seed = 42;
  std::string scratch;
  std::string spans;
  bool trace = false;
};

bool Parse(int argc, char** argv, Args* a) {
  if (argc < 2) {
    return false;
  }
  a->mode = argv[1];
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace") {
      a->trace = true;
    } else if (flag == "--workload" && has_value) {
      const auto w = coldbench::ParseWorkload(argv[++i]);
      if (!w) {
        return false;
      }
      a->workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      a->seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        return false;
      }
    } else if (flag == "--scratch" && has_value) {
      a->scratch = argv[++i];
    } else if (flag == "--spans" && has_value) {
      a->spans = argv[++i];
    } else {
      return false;
    }
  }
  return a->mode == "info" || (have_workload && !a->scratch.empty());
}

int Info() {
  std::printf("%s\n", Json()
                          .Str("build_type", COLDBENCH_BUILD_TYPE)
                          .Str("compiler", COLDBENCH_COMPILER)
                          .Int("hardware_concurrency", std::thread::hardware_concurrency())
                          .str()
                          .c_str());
  return 0;
}

int Reference(const Args& a) {
  const core::ScenarioConfig config = coldbench::ScenarioFor(a.workload, a.seed);
  const Op op = RunOp(core::Experiment(config).Run(nullptr, 1));
  std::printf("%s\n", Json().Raw("ops", OpsJson({op})).str().c_str());
  return 0;
}

int UntracedRep(const Args& a) {
  const core::ScenarioConfig config = coldbench::ScenarioFor(a.workload, a.seed);
  const int threads = coldbench::ThreadsFor(a.workload);
  // The median of several set-ups: the first also pays one-time static
  // initialization, which no later run in the process repeats.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double begin = coldbench::NowSeconds();
    const core::WorkloadStream stream = core::OpenWorkloadStream(config);
    setups.push_back(coldbench::NowSeconds() - begin);
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 2];

  const double cpu_begin = CpuSeconds();
  const double wall_begin = coldbench::NowSeconds();
  core::ExperimentResult result;
  core::FrontierResult frontier;
  coldbench::CommitLog log;
  const std::string ckpt_dir = a.scratch + "/checkpoints";
  switch (a.workload) {
    case Workload::kMonthSerial:
    case Workload::kMonthSharded:
      result = core::Experiment(config).Run(nullptr, threads);
      break;
    case Workload::kPolicySweep:
      frontier = core::RunFrontier(config, coldbench::SweepCandidates(), 1, "");
      break;
    case Workload::kFullTraceResume:
      result = coldbench::RunCheckpointedResume(config, ckpt_dir, &log);
      break;
  }
  const double wall_s = coldbench::NowSeconds() - wall_begin;
  const double cpu_s = CpuSeconds() - cpu_begin;

  std::vector<Op> ops;
  uint64_t requests = 0;
  uint64_t events = 0;
  if (a.workload == Workload::kPolicySweep) {
    ops = SweepOps(frontier);
    for (const core::FrontierPoint& p : frontier.points) {
      requests += p.requests;
    }
  } else {
    ops.push_back(RunOp(result));
    requests = Requests(result);
    events = result.events_processed;
  }
  if (a.workload == Workload::kFullTraceResume) {
    // One commit per day boundary, each exactly once, across halt and resume.
    bool daily = log.days.size() == static_cast<size_t>(config.days - 1);
    for (size_t i = 0; daily && i < log.days.size(); ++i) {
      daily = log.days[i] == static_cast<int64_t>(i + 1);
    }
    if (!daily || log.bytes == 0) {
      ops[0].failures.emplace_back("daily_checkpoints");
    }
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }
  std::printf("%s\n", Json()
                          .Num("setup_s", setup_s)
                          .Num("wall_s", wall_s)
                          .Num("cpu_s", cpu_s)
                          .Int("requests", requests)
                          .Int("events", events)
                          .Int("threads", static_cast<uint64_t>(threads))
                          .Num("peak_rss_mb", PeakRssMb())
                          .Raw("ops", OpsJson(ops))
                          .str()
                          .c_str());
  return 0;
}

// The outputs of one workload pass through RunShards.
struct ShardPass {
  std::vector<Op> ops;
  LayerSums sums;
  std::vector<coldbench::Tracer::Span> spans;  // Traced passes only.
  std::vector<double> day_end_s;               // Of the last run.
  double wall_s = 0;
};

// Runs the workload's simulation(s) through RunShards; a policy sweep runs
// every candidate and derives the frontier as RunFrontier does.
ShardPass ShardRuns(const core::ScenarioConfig& config, Workload w, bool traced) {
  ShardPass pass;
  const int threads = coldbench::ThreadsFor(w);
  const double begin = coldbench::NowSeconds();
  auto run = [&](platform::PlatformPolicy* policy, const std::string& tag) {
    coldbench::RunProfile profile;
    core::ExperimentResult result = coldbench::RunShards(config, threads, policy, traced,
                                                         &profile);
    pass.sums.Add(profile, result);
    for (const coldbench::Tracer& t : profile.tracers) {
      for (coldbench::Tracer::Span s : t.spans()) {
        s.name = tag + s.name;
        pass.spans.push_back(std::move(s));
      }
    }
    pass.day_end_s = profile.day_end_s;
    return result;
  };
  if (w == Workload::kPolicySweep) {
    core::FrontierResult frontier;
    for (const core::FrontierCandidate& c : coldbench::SweepCandidates()) {
      std::unique_ptr<platform::PlatformPolicy> policy = c.make_policy ? c.make_policy()
                                                                       : nullptr;
      frontier.points.push_back(
          coldbench::PointFromRun(c.name, run(policy.get(), c.name + ": ")));
    }
    coldbench::MarkFrontier(&frontier);
    pass.ops = SweepOps(frontier);
  } else {
    pass.ops.push_back(RunOp(run(nullptr, "")));
  }
  pass.wall_s = coldbench::NowSeconds() - begin;
  return pass;
}

int TracedRep(const Args& a) {
  const core::ScenarioConfig config = coldbench::ScenarioFor(a.workload, a.seed);
  const double origin = coldbench::NowSeconds();
  // Undecorated passes bracket the traced one, so drift and first-run costs
  // (page faults on a fresh heap, thread start-up) do not bias the overhead.
  const ShardPass before = ShardRuns(config, a.workload, false);
  Json layers;
  std::vector<Op> ops;
  if (a.workload == Workload::kFullTraceResume) {
    coldbench::CommitLog log;
    const std::string dir = a.scratch + "/checkpoints";
    ops.push_back(RunOp(coldbench::RunCheckpointedResume(config, dir, &log)));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    CheckpointMetrics(log, before.day_end_s, coldbench::MidDay(config), layers);
  } else {
    layers.Int("checkpoint.bytes", 0).Num("checkpoint.save_s", 0).Num("checkpoint.restore_s",
                                                                        0);
  }
  const ShardPass traced = ShardRuns(config, a.workload, true);
  const ShardPass after = ShardRuns(config, a.workload, false);
  ops.insert(ops.end(), traced.ops.begin(), traced.ops.end());
  std::vector<Op> plain_ops = before.ops;
  plain_ops.insert(plain_ops.end(), after.ops.begin(), after.ops.end());
  traced.sums.Emit(layers);
  if (!a.spans.empty()) {
    WriteSpans(a.spans, traced.spans, origin);
  }
  std::printf("%s\n", Json()
                          .Int("threads", static_cast<uint64_t>(coldbench::ThreadsFor(a.workload)))
                          .Num("plain_wall_s", (before.wall_s + after.wall_s) / 2)
                          .Num("traced_wall_s", traced.wall_s)
                          .Raw("layers", layers.str())
                          .Raw("plain_ops", OpsJson(plain_ops))
                          .Raw("ops", OpsJson(ops))
                          .str()
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Thread counts are passed explicitly and nothing is cached: the ambient
  // overrides must not leak into a measurement.
  unsetenv("COLDSTART_THREADS");
  unsetenv("COLDSTART_CACHE_DIR");
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: coldbench info\n"
                 "       coldbench reference --workload W --seed N --scratch DIR\n"
                 "       coldbench rep --workload W --seed N --scratch DIR [--trace] "
                 "[--spans FILE]\n");
    return 2;
  }
  if (args.mode == "info") {
    return Info();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (args.mode == "reference") {
    return Reference(args);
  }
  if (args.mode == "rep") {
    return args.trace ? TracedRep(args) : UntracedRep(args);
  }
  std::fprintf(stderr, "coldbench: unknown mode '%s'\n", args.mode.c_str());
  return 2;
}
