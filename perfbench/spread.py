"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload phases-b03 --seeds 1-10 [--seconds 25]

Runs run.py once per seed (from the repository root, --trace 0) and prints,
per metric, the median, the quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median next to the metric's bound in
BENCHMARK.json.  A benchmark is steady when every share except setup_s is
below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or str(spec["run_seconds"])
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  f"invocations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        print(f"{args.workload} {m['name']:<12} median {statistics.median(v):.6g} "
              f"{m['unit']}  quartiles {q1:.6g} .. {q3:.6g}  spread {share:.4f} "
              f"(bound {m['bound']}, a third is {m['bound'] / 3:.4f})  "
              f"n={len(v)}  values {' '.join(f'{x:.4g}' for x in v)}")


if __name__ == "__main__":
    main()
