"""Steadiness check: repeated sets of runs of one workload.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 1]
                                [--first-seed 0] [--trace]

Runs ``run.py`` once per seed (a fresh process each, one after another) with
the run length of BENCHMARK.json, and prints, per end-to-end metric, the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound. The spread of ``setup_s`` is shown but not gated. With
``--sets 2`` it also prints how much the second set's median is worse than
the first's. It checks that every run fails the same share of operations.
With ``--trace`` it adds one traced run, prints its per-layer metrics and
the tracing overhead: the traced ops_per_s against the untraced median.
Every run's result line is saved under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    ok = True
    medians, results = [], []
    for s in range(args.sets):
        seeds = [args.first_seed + s * args.runs + k for k in range(args.runs)]
        runs = []
        for seed in seeds:
            r = run_once(args.workload, seed, seconds, 0)
            runs.append(r)
            values = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"set {s} seed {seed}: attempted={r['attempted']} failed={r['failed']} "
                  f"correct={r['correct']} {values}", flush=True)
            ok &= r["correct"]
        results.append({"seeds": seeds, "runs": runs})
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
        print(f"set {s}: failed shares {sorted(shares)}")
        set_medians = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, q1, q3, spread = quartile_spread(values)
            set_medians[m["name"]] = median
            gated = m["name"] != "setup_s"
            verdict = "" if not gated else ("ok" if spread < m["bound"] / 3 else
                                            "within bound" if spread < m["bound"] else "TOO WIDE")
            ok &= not gated or spread < m["bound"]
            print(f"  {m['name']:14s} median {median:.5g} {m['unit']}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.4f}  bound {m['bound']}  {verdict}")
        medians.append(set_medians)
    for s in range(1, len(medians)):
        for m in metrics:
            first, later = medians[0][m["name"]], medians[s][m["name"]]
            worse = (later - first) / first if m["better"] == "lower" else (first - later) / first
            ok &= worse <= m["bound"]
            print(f"set {s} vs set 0: {m['name']:14s} worse by {worse:+.4f} (bound {m['bound']})")
    if args.trace:
        traced = run_once(args.workload, args.first_seed, seconds, 1)
        results.append({"traced": traced})
        for name, v in traced["metrics"].items():
            if v["value"]:
                print(f"  {name:44s} {v['value']:.6g} {v['unit']}")
        untraced = medians[0]["ops_per_s"]
        overhead = 1.0 - traced["metrics"]["trace.ops_per_s"]["value"] / untraced
        print(f"tracing overhead: {overhead:+.4f} of the untraced median ops_per_s {untraced:.5g}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", f"steady-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
