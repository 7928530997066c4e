"""Steadiness report: does the benchmark agree with itself?

Runs each workload ``--runs`` times in each of two sets, every run with
its own seed, one run at a time, and prints per end-to-end metric: each
set's median and quartiles, the quartile spread as a share of the
median, and the signed gap between the two sets' medians (positive when
the second set is worse).  A metric passes when every spread and the
size of the gap, in either direction, stay within the metric's bound in
``BENCHMARK.json``; ``steady`` additionally asks each spread to stay
below a third of the bound.  ``setup_s`` is held to its gap only, as the
benchmark contract holds it: one run's set-ups all fall in the same
host phase, so its spread is printed but not gated.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads collect --runs 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
#: Seed of the first run; run ``i`` of set ``s`` uses ``FIRST_SEED + s * runs + i``.
FIRST_SEED = 1000


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect answers\n{out.stdout[-2000:]}")
    context = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    return {"seed": seed, "wall_s": time.monotonic() - start,
            "host.ref_ms": context["host.ref_ms"], "host.steal_share": context["host.steal_share"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "steadiness.json"))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    report = {"runs": args.runs, "sets": SETS, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        sets = []
        for set_index in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + set_index * args.runs + i
                runs.append(one_run(workload, seed, args.seconds))
                print(f"# {workload} set {set_index} seed {seed}: {runs[-1]['wall_s']:.1f}s wall, "
                      f"host.ref_ms {runs[-1]['host.ref_ms']:.2f}, steal {runs[-1]['host.steal_share']:.3f}", flush=True)
            sets.append(runs)
        rows = {}
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'gap':>7} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [summary([r["metrics"][name] for r in runs]) for runs in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            gap = (last - first) / first if metric["better"] == "lower" else (first - last) / first
            steady = all(s["spread"] <= bound / 3 for s in per_set)
            spread_ok = name == "setup_s" or all(s["spread"] <= bound for s in per_set)
            passed = spread_ok and abs(gap) <= bound
            ok = ok and passed
            verdict = ("steady" if steady else "within bound") if passed else "FAILS"
            for index, s in enumerate(per_set):
                shown_gap = f"{gap:+7.3f}" if index == len(per_set) - 1 else " " * 7
                print(f"  {name:<18} {index:>3} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                      f"{s['spread']:7.3f} {shown_gap} {bound:6.2f}  {verdict if index == len(per_set) - 1 else ''}")
            rows[name] = {"sets": per_set, "gap": gap, "bound": bound, "passed": passed, "steady": steady}
        refs = [r["host.ref_ms"] for runs in sets for r in runs]
        print(f"  host.ref_ms over all runs: median {statistics.median(refs):.2f}, "
              f"min {min(refs):.2f}, max {max(refs):.2f}; host.steal_share median per set: "
              + ", ".join(f"{statistics.median(r['host.steal_share'] for r in runs):.3f}" for runs in sets))
        report["workloads"][workload] = {"metrics": rows, "runs": sets}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\n{'all metrics within their bounds' if ok else 'SOME METRICS FAIL THEIR BOUNDS'}; report in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
