#!/usr/bin/env python3
"""End-to-end benchmark of the coldstart simulator.

Builds the benchmark's own Release tree (perfbench/CMakeLists.txt, which pulls
in the repository's library), then runs one workload as a closed loop of one
for --seconds seconds: each repetition is a fresh `coldbench rep` process that
starts when the previous one has finished. Every repetition's outputs are
checked; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from traced repetitions (medians).

Usage:
    python3 perfbench/run.py --workload month_serial --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

See perfbench/README.md for the workloads, metrics and the layer map.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "coldbench"
RUNS = ROOT / ".bench_build" / "runs"

WORKLOADS = ["month_serial", "month_sharded", "policy_sweep", "full_trace_resume"]
# Workloads whose repetitions are checked against an untimed reference run
# instead of against the invocation's first repetition.
REFERENCED = {"month_sharded", "full_trace_resume"}
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# (name, unit, statistic over the run's repetitions). The simulation is
# deterministic, and other tenants of a shared host only ever slow a
# repetition down, in bursts of seconds to a minute; so time metrics report the
# run's best repetition, its unperturbed cost. Over ten seeds on a 4-vCPU VM
# that spread 2-4x less than the run's median did. Memory is not slowed by
# neighbours and reports the median.
END_TO_END = [
    ("sim_requests_per_s", "1/s", "max"),
    ("cpu_s", "s", "min"),
    ("peak_rss_mb", "MB", "median"),
    ("setup_s", "s", "min"),
]
PER_LAYER = [
    ("workload.population_s", "s"),
    ("workload.next_chunk_s", "s"),
    ("workload.arrivals", "count"),
    ("workload.ns_per_arrival", "ns"),
    ("platform.self_s", "s"),
    ("platform.finalize_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_request", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("platform.cold_starts_per_request", "ratio"),
    ("platform.scratch_per_cold_start", "ratio"),
    ("trace.sink_s", "s"),
    ("trace.records", "count"),
    ("trace.ns_per_record", "ns"),
    ("trace.seal_s", "s"),
    ("trace.sink_mb", "MB"),
    ("policy.hook_s", "s"),
    ("policy.tick_s", "s"),
    ("policy.hook_calls", "count"),
    ("policy.prewarm_spawns", "count"),
    ("core.shards", "count"),
    ("core.shard_wall_max_s", "s"),
    ("core.shard_imbalance", "ratio"),
    ("core.merge_s", "s"),
    ("core.idle_worker_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("COLDSTART_THREADS", None)
    env.pop("COLDSTART_CACHE_DIR", None)
    return env


def build():
    """Configures and builds the Release tree; returns the binary's info."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no coldstart sources in {ROOT} (CMakeLists.txt and src/ are required)")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=child_env())
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    info = run_json([str(BINARY), "info"])
    if info is None or info.get("build_type") != "Release":
        fail(f"refusing to measure a {info and info.get('build_type')!r} build; need Release")
    return info


def run_json(cmd):
    """Runs one child to completion; returns its last stdout line as JSON, or None."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        log(f"exit {done.returncode}: " + " ".join(cmd))
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no JSON result from: " + " ".join(cmd))
        return None


def provenance(info, seed):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        governor = Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor").read_text().strip()
    except OSError:
        governor = "unreadable"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "governor": governor,
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "git_commit": commit,
        "seed": seed,
        "python": platform.python_version(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Checker:
    """Counts operations and the ones whose outputs failed a check."""

    def __init__(self, expected):
        self.expected = expected  # Digest per op index, or None until known.
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ops, what):
        """`ops` is one or more whole passes of the workload, back to back."""
        if ops is None:
            self.attempted += 1
            self.failed += 1
            self.reasons.append(f"{what}: no result")
            return
        if self.expected is None:
            self.expected = [op["digest"] for op in ops]
        for i, op in enumerate(ops):
            self.attempted += 1
            bad = list(op["failures"])
            if (len(ops) % len(self.expected) != 0
                    or op["digest"] != self.expected[i % len(self.expected)]):
                bad.append("digest differs from reference")
            if bad:
                self.failed += 1
                self.reasons.append(f"{what} op {i}: " + ", ".join(bad))


def rep_cmd(workload, seed, scratch, traced, spans=None):
    cmd = [str(BINARY), "rep", "--workload", workload, "--seed", str(seed),
           "--scratch", str(scratch)]
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    return cmd


def run_workload(workload, seed, seconds, traced):
    """Runs one workload; returns (checker, metrics, threads, raw repetitions)."""
    scratch = RUNS / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        expected = None
        if workload in REFERENCED:
            ref = run_json([str(BINARY), "reference", "--workload", workload,
                            "--seed", str(seed), "--scratch", str(scratch)])
            if ref is None:
                fail(f"{workload}: reference run failed")
            expected = [op["digest"] for op in ref["ops"]]
        checker = Checker(expected)
        if traced:
            if checker.expected is None:
                first = run_json(rep_cmd(workload, seed, scratch, False))
                checker.check(first and first["ops"], "untraced rep")
            reps = loop(seconds, lambda: run_json(rep_cmd(
                workload, seed, scratch, True, spans=scratch / "spans.json")))
            for i, rep in enumerate(reps):
                checker.check(rep and rep["plain_ops"], f"rep {i} (undecorated runner)")
                checker.check(rep and rep["ops"], f"rep {i} (traced)")
            metrics = layer_metrics([r for r in reps if r is not None])
            keep_spans(scratch / "spans.json", workload, seed)
        else:
            reps = loop(seconds, lambda: run_json(rep_cmd(workload, seed, scratch, False)))
            for i, rep in enumerate(reps):
                checker.check(rep and rep["ops"], f"rep {i}")
            metrics = end_to_end_metrics([r for r in reps if r is not None])
        threads = next((r.get("threads") for r in reps if r and "threads" in r), None)
        return checker, metrics, threads, reps
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def loop(seconds, one_rep):
    """Closed loop of one: repetitions back to back until `seconds` elapse."""
    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        reps.append(one_rep())
    return reps


def end_to_end_metrics(reps):
    series = {
        "sim_requests_per_s": [r["requests"] / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    return summarize(series, END_TO_END)


def layer_metrics(reps):
    spec = [(name, unit, "median") for name, unit in PER_LAYER]
    if not reps:
        return summarize({}, spec)
    series = {name: [r["layers"][name] for r in reps]
              for name, _ in PER_LAYER if name != "tracing.overhead_ratio"}
    traced = statistics.median(r["traced_wall_s"] for r in reps)
    plain = statistics.median(r["plain_wall_s"] for r in reps)
    series["tracing.overhead_ratio"] = [traced / plain - 1.0]
    return summarize(series, spec)


def summarize(series, spec):
    out = {}
    for name, unit, stat in spec:
        values = series.get(name) or [0.0]
        q1, med, q3 = quartiles(values)
        value = {"min": min(values), "median": med, "max": max(values)}[stat]
        out[name] = {"value": value, "unit": unit,
                     "statistic": stat, "median": med, "q1": q1, "q3": q3, "n": len(values)}
    return out


def keep_spans(path, workload, seed):
    if path.is_file():
        dest = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}.json"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, dest)


def report(workload, checker, metrics, prov, threads, traced):
    ratio = checker.failed / checker.attempted if checker.attempted else 0.0
    print(f"== {workload} (seed {prov['seed']}, threads {threads}, "
          f"{'traced' if traced else 'untraced'}) ==")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']} ({m['statistic']})  "
              f"[median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    print(f"  {'failed_ops_ratio':34s} {ratio:.6g} ratio  "
          f"[{checker.failed} of {checker.attempted} operations]")
    for reason in checker.reasons[:10]:
        print(f"  FAILED {reason}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        fail("--seed must be non-negative")

    info = build()
    prov = provenance(info, args.seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics_out = {}
    results = []
    for workload in workloads:
        checker, metrics, threads, reps = run_workload(workload, args.seed, args.seconds,
                                                 bool(args.trace))
        report(workload, checker, metrics, prov, threads, bool(args.trace))
        attempted += checker.attempted
        failed += checker.failed
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, m in metrics.items():
            metrics_out[prefix + name] = {"value": m["value"], "unit": m["unit"]}
        results.append({"workload": workload, "threads": threads, "metrics": metrics,
                        "attempted": checker.attempted, "failed": checker.failed,
                        "failures": checker.reasons, "reps": reps})
    record = {"provenance": prov, "trace": args.trace, "seconds": args.seconds,
              "results": results}
    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))


if __name__ == "__main__":
    main()
