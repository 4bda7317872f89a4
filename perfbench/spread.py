"""Run-to-run spread of the benchmark, as the bounds are judged.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload daemon-popcount --runs 10 [--trace 1] [--out FILE]

Runs ``run.py`` once per seed (1..runs) and prints, for each metric, the
median and the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``.  ``--out`` also keeps every
run's output line as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results, seconds = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        seconds.append(time.perf_counter() - started)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        results.append([json.loads(line) for line in lines[1:]])
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"seed": seed, "lines": results[-1]}) + "\n")
    finals = [lines[-1] for lines in results]
    shares = {(f["failed"], f["attempted"]) for f in finals}
    print(f"{args.workload}: {len(finals)} runs of {statistics.median(seconds):.1f} s "
          f"(median wall time), failed/attempted {sorted(shares)}")
    for name in finals[0]["metrics"]:
        values = [f["metrics"][name]["value"] for f in finals]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  OVER" if spread > bound else
                                         ("  >1/3" if spread > bound / 3 else ""))
        print(f"  {name:32s} median {median:14.6g}  spread {spread:7.3f}"
              f"  bound {bound if bound is not None else '-'}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
