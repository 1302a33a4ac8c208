#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the altroute simulator.

    $ python3 bench/perf/run.py [--workload all|fig6_nsfnet|nsfnet_failover|mesh_overload]
          [--seed S] [--seconds N] [--trace 0|1] [--altroute-build DIR]

Run it from anywhere; it works on the checkout it lives in.  It builds the
simulator libraries (or reuses --altroute-build, a configured top-level
tree) and the altroute_perf program under .bench_build/, then:

 1. runs one discarded warm-up process per workload, which also counts the
    sweep's call replays and checks the paper's Table 1;
 2. unless --trace 1: repeats the untraced sweep, every repetition in a
    fresh process, round-robin across the workloads, as many rounds as fit
    in N seconds per workload (at least 3), and reports medians;
 3. unless --trace 0: runs three traced passes per workload (alternating
    with untraced runs under --trace 1), the same sweep at nproc threads,
    and the host-calibration spin kernel, and reports the per-layer
    metrics, each the median over the passes.

All load comes from one process at a time running the sweep to completion
(a closed loop with one client).  The script prints one
`workload metric value unit` line per metric, writes the raw samples, the
provenance and the Chrome trace of each traced pass under
.bench_build/perf-results/, and ends with one JSON line holding
"correct", "attempted", "failed" and "metrics".  It exits non-zero when a
correctness check failed.  Needs only the standard library.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
RESULTS = BUILD / "perf-results"

WORKLOADS = ("fig6_nsfnet", "nsfnet_failover", "mesh_overload")
MIN_REPS = 3
TRACED_PASSES = 3
CHILD_TIMEOUT_S = 120
RECONCILE_RANGE = (0.9, 1.1)

END_TO_END = {
    "wall_s": "s",
    "calls_per_s": "1/s",
    "cpu_ns_per_call": "ns",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.trace_gen.ns_per_call": "ns",
    "sim.trace_gen.share": "ratio",
    "sim.calendar_queue.ns_per_op": "ns",
    "loss.engine.ns_per_call": "ns",
    "loss.engine.share": "ratio",
    "loss.engine.ns_per_call.single": "ns",
    "loss.engine.ns_per_call.uncontrolled": "ns",
    "loss.engine.ns_per_call.controlled": "ns",
    "loss.events_per_call": "count",
    "loss.probe.ns_per_hop": "ns",
    "routing.build_ms": "ms",
    "routing.alternates_per_pair": "count",
    "erlang.eq15.ns_per_solve": "ns",
    "erlang.memo_hit_rate": "ratio",
    "core.retarget_us": "us",
    "scenario.route_rebuilds": "count",
    "scenario.protection_resolves": "count",
    "scenario.calls_killed": "count",
    "scenario.preemptions": "count",
    "scenario.rebuild_share": "ratio",
    "control.epochs": "count",
    "control.retargets": "count",
    "control.estimator_updates": "count",
    "study.reconcile_ratio": "ratio",
    "study.task_ms.p50": "ms",
    "study.fanout.efficiency": "ratio",
    "host.parallelism": "ratio",
    "bench.trace_overhead": "ratio",
}

# Deterministic counters that must repeat exactly across every process of
# one workload and seed, with the layer a mismatch points at.
STABLE_COUNTERS = {
    "events_popped": "loss",
    "route_rebuilds": "scenario",
    "protection_resolves": "scenario",
    "control_epochs": "control",
}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- build ------------------------------------------------------------------


def read_cmake_cache(build_dir: Path) -> dict[str, str]:
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(("#", "//")) or "=" not in line:
            continue
        key_type, value = line.split("=", 1)
        cache[key_type.split(":", 1)[0]] = value
    return cache


def check_provenance(build_dir: Path, cache: dict[str, str]) -> None:
    """Refuses a library tree that would not measure the shipped code."""
    problems = []
    if cache.get("CMAKE_BUILD_TYPE", "").lower() == "debug":
        problems.append("CMAKE_BUILD_TYPE is Debug")
    if cache.get("STUDY_SANITIZE", ""):
        problems.append(f"STUDY_SANITIZE={cache['STUDY_SANITIZE']}")
    for option in ("ALTROUTE_OBS", "ALTROUTE_PROF"):
        if cache.get(option, "ON").upper() in ("OFF", "0", "FALSE", "NO", "N"):
            problems.append(f"{option} is OFF")
    if problems:
        raise BenchError(f"refusing the build tree {build_dir}: " + "; ".join(problems))


def cmake(args: list[str], log) -> None:
    log.write(f"$ cmake {' '.join(args)}\n")
    log.flush()
    proc = subprocess.run(["cmake", *args], stdout=log, stderr=subprocess.STDOUT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"cmake {' '.join(args)} failed; see {log.name}")


def build(lib_dir: Path) -> tuple[Path, dict[str, str]]:
    """Builds the simulator libraries and altroute_perf; returns its
    binary and the library tree's CMake cache."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, nproc()))
    perf_dir = BUILD / "perf"
    with open(BUILD / "perf-build.log", "w") as log:
        if not (lib_dir / "CMakeCache.txt").exists():
            cmake(["-S", str(ROOT), "-B", str(lib_dir), "-DCMAKE_BUILD_TYPE=Release"], log)
        cache = read_cmake_cache(lib_dir)
        check_provenance(lib_dir, cache)
        cmake(["--build", str(lib_dir), "--target", "altroute_study", "-j", jobs], log)
        cmake(["-S", str(HERE), "-B", str(perf_dir), f"-DALTROUTE_BUILD_DIR={lib_dir}",
               "-DCMAKE_BUILD_TYPE=Release"], log)
        cmake(["--build", str(perf_dir), "-j", jobs], log)
    return perf_dir / "altroute_perf", cache


def provenance(cache: dict[str, str]) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    proc = subprocess.run([compiler, "--version"], capture_output=True, text=True, check=False)
    build_type = cache.get("CMAKE_BUILD_TYPE") or "Release"
    flags = [cache.get("CMAKE_CXX_FLAGS", ""),
             cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]
    return {
        "git_sha": sha,
        "compiler": compiler,
        "compiler_version": proc.stdout.splitlines()[0] if proc.stdout else "unknown",
        "build_type": build_type,
        "cxx_flags": " ".join(f for f in flags if f),
        "nproc": nproc(),
    }


# --- measuring --------------------------------------------------------------


def invoke(binary: Path, mode: str, **options) -> dict:
    cmd = [str(binary), mode]
    for key, value in options.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(cmd)} took more than {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(binary: Path, workloads: list[str], args) -> tuple[dict, dict | None]:
    """Runs every process of the benchmark; returns the raw samples per
    workload and the host-calibration sample."""
    timed = args.trace != 1
    traced = args.trace != 0
    seed = args.seed
    records = {w: {"runs": []} for w in workloads}
    for w in workloads:
        records[w]["warmup"] = invoke(binary, "count", workload=w, seed=seed)
    if timed:
        # Start another round only if it should end inside the budget, so
        # that a run lasts about --seconds whatever one repetition costs.
        deadline = time.monotonic() + args.seconds * len(workloads)
        reps = 0
        while True:
            round_start = time.monotonic()
            for w in workloads:
                records[w]["runs"].append(invoke(binary, "run", workload=w, seed=seed, threads=1))
            reps += 1
            now = time.monotonic()
            if reps >= MIN_REPS and now + (now - round_start) > deadline:
                break
    spin = None
    if traced:
        RESULTS.mkdir(parents=True, exist_ok=True)
        for w in workloads:
            rec = records[w]
            rec["traces"] = []
            # Without timed repetitions, alternate untraced runs with the
            # traced passes, so that the untraced median they are compared
            # with comes from the same stretch of time.
            for i in range(TRACED_PASSES):
                if not timed:
                    rec["runs"].append(invoke(binary, "run", workload=w, seed=seed, threads=1))
                trace_file = RESULTS / f"{w}-seed{seed}-pass{i}.trace.json"
                rec["traces"].append(invoke(binary, "trace", workload=w, seed=seed,
                                            trace_out=trace_file))
                rec["traces"][-1]["trace_file"] = str(trace_file)
            if not timed:
                rec["runs"].append(invoke(binary, "run", workload=w, seed=seed, threads=1))
            rec["fanout"] = invoke(binary, "run", workload=w, seed=seed, threads=nproc())
        spin = invoke(binary, "spin", threads=nproc())
    return records, spin


# --- checks and metrics -----------------------------------------------------


def run_checks(records: dict, seed: int) -> list[dict]:
    pinned = json.loads((HERE / "digests.json").read_text())
    checks = []

    def check(workload, name, ok, detail=""):
        checks.append({"workload": workload, "check": name, "ok": bool(ok), "detail": detail})

    for w, rec in records.items():
        bad_rows = rec["warmup"]["table1_mismatches"]
        check(w, "paper Table 1 r at H=11", bad_rows == 0, f"{bad_rows:g} of 30 rows differ")
        # Seed 1 has pinned digests; any other seed checks self-consistency
        # against its first untraced repetition.
        if seed == pinned["seed"]:
            want, source = pinned["digests"][w], "pinned seed-1 digest"
        else:
            want, source = rec["runs"][0]["digest"], "first repetition"
        for i, run in enumerate(rec["runs"]):
            check(w, f"repetition {i} digest", run["digest"] == want,
                  f"{run['digest']} vs {source} {want}")
        for i, trace in enumerate(rec.get("traces", [])):
            got = trace["digest"]
            check(w, f"traced pass {i} reproduces the harness", got == want,
                  f"{got} vs {source} {want}")
        if "fanout" in rec:
            got = rec["fanout"]["digest"]
            check(w, f"threads={nproc()} digest equals threads=1", got == want,
                  f"{got} vs {source} {want}")
    return checks


def reconcile(records: dict) -> list[str]:
    warnings = []
    for w, rec in records.items():
        samples = rec["runs"] + rec.get("traces", [])
        if "fanout" in rec:
            samples.append(rec["fanout"])
        for counter, layer in STABLE_COUNTERS.items():
            values = sorted({s["counters"][counter] for s in samples})
            if len(values) > 1:
                warnings.append(f"WARN {layer} {w}: {counter} differs across processes: {values}")
        ratio = rec.get("layers", {}).get("study.reconcile_ratio")
        if ratio is not None and not RECONCILE_RANGE[0] <= ratio <= RECONCILE_RANGE[1]:
            warnings.append(f"WARN study {w}: reconcile_ratio {ratio:.3f} is outside "
                            f"[{RECONCILE_RANGE[0]}, {RECONCILE_RANGE[1]}]: the spans do not "
                            f"account for the untraced wall time")
    return warnings


def end_to_end(rec: dict) -> dict[str, list[float]]:
    replays = rec["warmup"]["replays"]
    runs = rec["runs"]
    return {
        "wall_s": [r["wall_s"] for r in runs],
        "calls_per_s": [replays / r["wall_s"] for r in runs],
        "cpu_ns_per_call": [r["cpu_s"] * 1e9 / replays for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(rec: dict, parallelism: float) -> dict[str, float]:
    """Each metric is the median over the traced passes."""
    traces = rec["traces"]

    def median(key):
        return statistics.median(t[key] for t in traces)

    untraced_s = statistics.median(r["wall_s"] for r in rec["runs"])
    layers = {name: statistics.median(t["layers"][name] for t in traces)
              for name in traces[0]["layers"]}
    layers["scenario.rebuild_share"] = (traces[0]["counters"]["route_rebuilds"]
                                        * median("degraded_route_build_ms") * 1e-3 / untraced_s)
    layers["study.reconcile_ratio"] = median("span_self_s") / untraced_s
    layers["study.fanout.efficiency"] = untraced_s / rec["fanout"]["wall_s"] / parallelism
    layers["host.parallelism"] = parallelism
    layers["bench.trace_overhead"] = median("traced_wall_s") / untraced_s - 1.0
    return {name: layers[name] for name in PER_LAYER}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="base seed of every sweep (default 1)")
    p.add_argument("--seconds", type=int, default=30,
                   help="measuring time per workload for the timed repetitions (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: timed repetitions only; 1: traced pass only; default both")
    p.add_argument("--altroute-build", type=Path, default=BUILD / "altroute",
                   help="top-level build tree to link against (default .bench_build/altroute)")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main() -> int:
    args = parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: {ROOT} holds no altroute sources (CMakeLists.txt, src/)", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lib_dir = args.altroute_build
    if not lib_dir.is_absolute():
        lib_dir = ROOT / lib_dir
    try:
        binary, cache = build(lib_dir)
        info = provenance(cache)
        info["loadavg_before"] = os.getloadavg()
        records, spin = measure(binary, workloads, args)
        info["loadavg_after"] = os.getloadavg()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    parallelism = spin["one_s"] * nproc() / spin["all_s"] if spin else None
    metrics = {}
    lines = []
    for w, rec in records.items():
        if args.trace != 1:
            rec["end_to_end"] = {}
            for name, values in end_to_end(rec).items():
                median = statistics.median(values)
                rec["end_to_end"][name] = {"median": median, "n": len(values),
                                           "min": min(values), "max": max(values)}
                metrics[(w, name)] = (median, END_TO_END[name])
                lines.append(f"{w} {name} {median:.6g} {END_TO_END[name]} "
                             f"n={len(values)} min={min(values):.6g} max={max(values):.6g}")
        if args.trace != 0:
            rec["layers"] = per_layer(rec, parallelism)
            for name, value in rec["layers"].items():
                metrics[(w, name)] = (value, PER_LAYER[name])
                shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"
                lines.append(f"{w} {name} {shown} {PER_LAYER[name]}")

    checks = run_checks(records, args.seed)
    warnings = reconcile(records)
    for w in workloads:
        mine = [c for c in checks if c["workload"] == w]
        failed = sum(not c["ok"] for c in mine)
        lines.append(f"{w} failed_frac {failed / len(mine):.6g} ratio n={len(mine)}")
    lines += [f"FAIL {c['workload']}: {c['check']} ({c['detail']})" for c in checks if not c["ok"]]
    lines += warnings

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                               "provenance": info, "host_spin": spin, "workloads": records,
                               "checks": checks, "warnings": warnings}, indent=1) + "\n")
    print("\n".join(lines))
    print(f"raw samples: {out}")

    failed = sum(not c["ok"] for c in checks)
    single = len(workloads) == 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {(name if single else f"{w}/{name}"): {"value": value, "unit": unit}
                    for (w, name), (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
