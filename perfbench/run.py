#!/usr/bin/env python3
"""DeepStore benchmark: one run of one workload.

    python3 perfbench/run.py --workload scan|qc_zipf|ingest --seed N \
        --seconds S --trace 0|1

Builds perfbench_driver (the engine compiled from src/) into
.bench_build/perfbench/, then runs driver passes -- each a fresh
process that sets the engine up, runs the workload's fixed measured
phase and reports raw numbers -- until the measured phases add up to
--seconds (at least MIN_PASSES of each kind). Host times are wall
times normalised by the driver's speed probe to a reference machine
speed, median over passes; peak RSS is the median over passes;
simulated metrics come from event-queue ticks and must be identical
in every pass, as must the result digest.

The last stdout line is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). The line before it carries the details
(digest, tail percentile, oracle results, workload-only metrics).
NOTES.md describes the workloads and every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("scan", "qc_zipf", "ingest")

MIN_PASSES = 3
# Stop adding passes after this much wall time, whatever --seconds
# asks, so a run on a slow machine still ends well inside 180 s.
WALL_CAP_S = 110.0
PASS_TIMEOUT_S = 60.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "core" / "deepstore.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_pass(workload, seed, traced, oracle):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        spans = BUILD.parent / "spans" / f"{workload}-seed{seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--spans", str(spans)]
    if oracle:
        cmd.append("--oracle")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {done.returncode})")
    out = json.loads(lines[-1])
    out["status"] = done.returncode
    return out


def per_query_us(p, key="measured_norm_s"):
    return p[key] / p["completed"] * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()

    untraced, traced = [], []
    started = time.monotonic()
    while True:
        # With --trace 1, untraced and traced passes alternate.
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        p = run_pass(args.workload, args.seed, want_traced,
                     oracle=not untraced and not want_traced)
        (traced if want_traced else untraced).append(p)
        if p["status"] not in (0, 3):
            fail(f"driver exited with status {p['status']}")
        measured = sum(q["measured_host_s"] for q in untraced + traced)
        enough = (len(untraced) >= MIN_PASSES and
                  (not args.trace or len(traced) >= MIN_PASSES))
        if enough and measured >= args.seconds:
            break
        if time.monotonic() - started > WALL_CAP_S and \
                (not args.trace or traced):
            break

    passes = untraced + traced
    first = untraced[0]
    # Every pass simulates the same seed: the simulated results must
    # repeat exactly, traced or not.
    deterministic = all(q["digest"] == first["digest"] and
                        q["sim"] == first["sim"] and
                        q["counters"] == first["counters"]
                        for q in passes)
    oracle = first["oracle"]
    exact = oracle["scans_checked"] > 0 and \
        oracle["scans_exact"] == oracle["scans_checked"]
    correct = deterministic and exact and first["status"] == 0
    attempted = int(sum(q["submitted"] for q in untraced))
    failed = int(sum(q["failed"] for q in untraced))
    sim = first["sim"]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": first["digest"],
        "deterministic": deterministic,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "measured_queries": first["completed"],
        "sim_lat_tail_pct": sim["tail_pct"],
        "sim_lat_tail_samples_beyond": sim["tail_beyond"],
        "failed_frac": failed / attempted,
        "topk_exact_frac": (oracle["scans_exact"] /
                            oracle["scans_checked"]
                            if oracle["scans_checked"] else 0.0),
        "topk_checked": oracle["scans_checked"],
        "host_us_per_query_passes": [per_query_us(q) for q in untraced],
        "raw_host_us_per_query_passes": [
            per_query_us(q, "measured_host_s") for q in untraced],
        "probe_us_passes": [q["probe_s"] * 1e6 for q in untraced],
        "setup_s_passes": [q["setup_norm_s"] for q in untraced],
        "raw_setup_s_passes": [q["setup_s"] for q in untraced],
        "setup_reps_passes": [q["setup_reps"] for q in untraced],
        "sim": sim,
    }
    if args.workload == "qc_zipf":
        detail["qc_hit_recall"] = oracle["hit_recall"]
        detail["qc_hits_checked"] = oracle["hits_checked"]
    if args.workload == "scan":
        detail["sim_parity_err_pct"] = sim["parity_err_pct"]
    if args.workload == "ingest":
        detail["ingest_mb_per_sim_s"] = sim["ingest_mb_per_sim_s"]

    med = statistics.median
    if not args.trace:
        values = {
            "host_us_per_query": med(per_query_us(q) for q in untraced),
            "setup_s": med(q["setup_norm_s"] for q in untraced),
            "peak_rss_mb": med(q["peak_rss_kb"] for q in untraced) *
            1024 / 1e6,
            "sim_qps": sim["qps"],
            "sim_lat_p50_ms": sim["lat_p50_ms"],
            "sim_lat_tail_ms": sim["lat_tail_ms"],
        }
    else:
        values = dict(first["counters"])
        for key in traced[0]["trace"]:
            values[key] = med(q["trace"][key] for q in traced)
        values["mem.rss_growth_kb_per_query"] = med(
            q["rss_growth_kb_per_query"] for q in untraced)
        # Traced passes run no speed probe: compare raw wall times.
        values["trace.overhead_pct"] = (
            med(q["measured_host_s"] for q in traced) /
            med(q["measured_host_s"] for q in untraced) - 1.0) * 100.0
    # BENCHMARK.json names the reported metrics and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    if not exact:
        sys.exit(3)


if __name__ == "__main__":
    main()
