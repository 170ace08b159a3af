"""Run workloads over several seeds and print every metric with its spread.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/sweep.py --workloads serve-open --seeds 1 2 3 4 5

For each workload and end-to-end metric this prints the median over the
seeds and the quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to a third of the metric's
bound in BENCHMARK.json. Every run's output checks must pass; the exit
code is non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402
import stats  # noqa: E402


def main(argv=None) -> int:
    bench = report.BENCHMARK
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            completed = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if completed.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {completed.returncode})")
                print(completed.stdout[-2000:], completed.stderr[-2000:])
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds),
                  flush=True)
        print(f"\n{workload}: {len(values['setup_s'])} runs")
        print(f"  {'metric':<18} {'median':>12} {'unit':<6} {'spread':>8} {'bound/3':>8}")
        for name, series in values.items():
            if not series:
                continue
            spread = stats.quartile_spread(series)
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<18} {stats.median(series):>12.4f} {units[name]:<6} "
                  f"{spread:>8.4f} {bounds[name] / 3:>8.4f}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
