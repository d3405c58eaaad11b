#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and print, for
each metric, its median and the spread (interquartile distance as a
share of the median) next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py local [--seeds 10] [--trace 0]
"""

import json
import statistics
import subprocess
import sys


def main(argv):
    workload = argv[0]
    seeds = int(argv[argv.index("--seeds") + 1]) if "--seeds" in argv else 10
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else "0"
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(1, seeds + 1):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{workload:7s} {name:34s} median {med:14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")
        if "-v" in argv:
            print("        " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main(sys.argv[1:])
