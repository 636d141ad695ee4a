#!/usr/bin/env python3
"""Steadiness check for the DeepStore benchmark.

    python3 perfbench/steady.py

Runs perfbench/run.py on every workload of BENCHMARK.json, each run
measuring BENCHMARK.json's run_seconds: once for each of the seeds
1..10, and REPEATS - 1 more times on seed 1. For every end-to-end
metric it reports the median and quartiles (statistics.quantiles,
n=4) over the ten seeds, and two spreads as a share of the median:
across the ten seeds, and across the REPEATS runs of seed 1 (what a
comparison of two builds on one seed depends on). Both must stay
below a third of the metric's bound. It flags any simulated metric or
result digest that differs between runs of seed 1, and reports
whether different seeds gave different digests. Exits 1 when a check
fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
REPEATS = 5


def run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        sys.exit(f"run.py failed on {workload} seed {seed} "
                 f"(exit {done.returncode})")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, seconds) for s in SEEDS]
        same = [runs[0]] + [run(workload, SEEDS[0], seconds)
                            for _ in range(REPEATS - 1)]

        print(f"\n== {workload}: seeds {SEEDS[0]}..{SEEDS[-1]}, "
              f"{REPEATS} runs of seed {SEEDS[0]}, {seconds} s runs")
        print(f"{'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'seeds':>9}{'repeat':>9}{'bound/3':>9}")
        for name, bound in bounds.items():
            q1, q2, q3, across = spread(
                [r[1]["metrics"][name]["value"] for r in runs])
            repeat = spread([r[1]["metrics"][name]["value"]
                             for r in same])[3]
            steady = max(across, repeat) < bound / 3
            ok &= steady
            print(f"{name:<20}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{across:>9.2%}{repeat:>9.2%}{bound / 3:>9.2%}"
                  f"{'' if steady else '  NOT STEADY'}")

        first_detail, first_result = same[0]
        same_sim = all(
            d["sim"] == first_detail["sim"] and all(
                r["metrics"][k] == first_result["metrics"][k]
                for k in r["metrics"] if k.startswith("sim_"))
            for d, r in same)
        same_digest = all(d["digest"] == first_detail["digest"]
                          for d, _ in same)
        digests = {d["digest"] for d, _ in runs}
        correct = all(r["correct"] and r["failed"] == 0
                      for _, r in runs + same)
        ok &= same_sim and same_digest and correct and len(digests) > 1
        print(f"seed {SEEDS[0]} x{REPEATS}: simulated metrics "
              f"{'identical' if same_sim else 'DIFFER'}, digest "
              f"{'identical' if same_digest else 'DIFFERS'}")
        print(f"{len(digests)} distinct digests over {len(runs)} seeds "
              f"({'seed changes the digest' if len(digests) > 1 else 'SEED DOES NOT CHANGE THE DIGEST'})")
        print(f"all runs correct with no failed query: {correct}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
