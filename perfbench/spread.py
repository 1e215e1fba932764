"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cw_esr --runs 10 [--first-seed 1] [--series 2]

Runs are sequential.  For every end-to-end metric and every series of runs
this prints the median over the runs and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(values,
n=4)``), next to the metric's bound from BENCHMARK.json.  A spread below a
third of its bound is marked steady.  Each later series runs the same seeds
again; its median is compared with the first series' median, as the share
by which it is worse.

The exit status is 0 when the runs pass the benchmark's acceptance rule:
every spread within its bound, and no later median worse than the first by
more than the bound.  ``setup_s`` is held to the median comparison only: it
is the median of a few interpreter start-ups, and its bound is there to catch
work moved into set-up, which shifts the median, not to gate their scatter.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def run_series(bench: dict, workload: str, seeds: range) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {wall:.1f} s " + " ".join(
            f"{name}={v[-1]:.4g}" for name, v in values.items()), flush=True)
    return values


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--series", type=int, default=2)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.first_seed, args.first_seed + args.runs)
    series = []
    for k in range(args.series):
        print(f"series {k + 1}", flush=True)
        series.append(run_series(bench, args.workload, seeds))

    passed = True
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        first = statistics.median(series[0][name])
        print(f"{args.workload} {name} (bound {bound}, better {m['better']})")
        for k, runs in enumerate(series):
            values = runs[name]
            median = statistics.median(values)
            s = spread(values) if len(values) > 1 else 0.0
            passed &= s <= bound or name == "setup_s"
            line = (f"  series {k + 1}: median {median:.6g}  spread {s:.4f} "
                    f"{'steady' if s < bound / 3 else 'wide' if s <= bound else 'OVER'}")
            if k:
                w = worse_by(first, median, m["better"])
                passed &= w <= bound
                line += f"  worse than series 1 by {w:+.4f}{' OVER' if w > bound else ''}"
            print(line)
    print(f"{args.workload}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
