"""Wall-clock benchmark of Rafiki's query, train and SQL journeys.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Runs the workload ``REPETITIONS`` times, each in a fresh interpreter
(``child.py``) that builds the system, sets the workload up, measures
for its share of ``seconds`` and checks every output. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (where every other repetition runs untraced,
as the baseline for the tracing overhead). Lines before it describe the
run for a reader. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

#: fresh interpreters per run; the run's seconds are split between them.
#: A train repetition is one fixed-size journey, so three suffice; three
#: sql-analytics repetitions each time over 100 statements, enough for
#: a tail of their own.
REPETITIONS = {"serve-open": 4, "serve-hot": 4, "train": 3, "sql-analytics": 3}
#: wall-clock budget for a whole run, every repetition's set-up and
#: checks included; a repetition still running at the deadline is killed.
RUN_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A repetition crashed, timed out or broke the output protocol."""


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              repetition: int, timeout: float) -> tuple[float, dict]:
    """Run one repetition, killed after ``timeout`` seconds.

    Returns (set-up seconds as the parent saw it, the child's result).
    """
    command = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--repetition", str(repetition)]
    started = time.perf_counter()
    # A fixed hash seed keeps dict and set layouts, and so timings,
    # comparable between repetitions and commits. One BLAS thread: with
    # two on two cores, any other load on the machine made OpenBLAS's
    # waiting threads slow small matrix products by up to 7x. No bytecode
    # cache: every repetition compiles the sources it imports, so set-up
    # time does not depend on which run came first.
    env = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    # The kill also ends a child that hangs without printing a line.
    killer = threading.Timer(max(0.0, timeout), process.kill)
    killer.start()
    setup_s, result = None, None
    try:
        for line in process.stdout:
            if line.startswith("PERFBENCH READY"):
                setup_s = time.perf_counter() - started
            elif line.startswith("PERFBENCH RESULT "):
                result = json.loads(line[len("PERFBENCH RESULT "):])
        code = process.wait()
    finally:
        killer.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise ChildFailed(f"{workload} repetition {repetition} exited {code}")
    return setup_s, result


def cpu_times() -> list[int]:
    """The machine's aggregate CPU counters from ``/proc/stat`` ([] elsewhere)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    if len(before) < 8 or len(after) < 8:
        return None
    # user, nice, system, idle, iowait, irq, softirq, steal; the guest
    # fields after them are already counted in user and nice.
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def source_identity() -> dict:
    """The git commit when the checkout has one, else a digest of ``src/``."""
    import hashlib

    identity = {"git_sha": "unknown"}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    identity["git_sha"] = f.read().strip()
        else:
            identity["git_sha"] = ref
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    identity["src_sha256"] = digest.hexdigest()[:16]
    return identity


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(REPETITIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no Rafiki sources under {ROOT}/src", file=sys.stderr)
        return 2

    repetitions = REPETITIONS[args.workload]
    per_child = args.seconds / repetitions
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    cpu_before = cpu_times()
    children, setups = [], []
    try:
        for index in range(repetitions):
            # Traced and untraced repetitions alternate, so that a slow
            # drift of the machine falls on both sides of the overhead.
            traced = bool(args.trace) and index % 2 == 1
            setup_s, result = run_child(args.workload, args.seed, per_child, traced, index,
                                        deadline - time.perf_counter())
            setups.append(setup_s)
            children.append(result)
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    fingerprints = {child["journey"]["fingerprint"] for child in children}
    problems = []
    if len(fingerprints) != 1:
        # The same seed must train the same models to the same result.
        problems.append(f"journeys diverged under one seed: {sorted(fingerprints)}")
        failed += attempted
    if failed:
        problems.append(f"{failed} of {attempted} operations failed or were wrong")

    untraced = [child for child in children if not child["traced"]]
    values, details = report.end_to_end(args.workload, untraced,
                                        [s for s, c in zip(setups, children) if not c["traced"]])
    if args.trace:
        traced = [child for child in children if child["traced"]]
        metrics = report.per_layer(args.workload, traced, untraced)
        problem = report.self_time_problem(metrics["harness.self_time_error"])
        if problem:
            problems.append(problem)
    else:
        metrics = values
    units = {metric["name"]: metric["unit"]
             for metric in report.BENCHMARK["per_layer" if args.trace else "end_to_end"]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} repetitions {repetitions}")
    environment = {**children[0]["env"], **source_identity(),
                   "cpu_steal_share": steal_share(cpu_before, cpu_times())}
    print(f"environment {json.dumps(environment)}")
    print(f"operations attempted {attempted} failed {failed} "
          f"fail_ratio {failed / max(1, attempted):.4f}")
    for metric in report.BENCHMARK["end_to_end"]:
        print(f"  {metric['name']:<22} {values[metric['name']]:>12.4f} {metric['unit']}")
    tail, uncapped = details["latency_tail_ms"], details["latency_tail_ms.uncapped"]
    print(f"  latency_tail_ms is p{tail['percentile']} of {tail['samples']} samples "
          f"({tail['over']}); uncapped, pooled: p{uncapped['percentile']} "
          f"{uncapped['value']:.4f} ms")
    if args.workload == "serve-hot":
        print("  on serve-hot the gated p95 is the median latency of a cache miss; "
              "the uncapped tail shows stalls")
    if args.workload == "serve-open":
        print("  throughput_ops is capacity: requests served per second of event-loop busy time "
              "at the top rate")
    journey = details["journey"]
    print(f"  journey: train_s {journey['train_s']:.4f} s, epochs_per_s "
          f"{journey['epochs_per_s']:.4f} 1/s, deploy_ms {journey['deploy_ms']:.4f} ms")
    if args.workload == "serve-open":
        print(f"  slo_rate_rps {details['slo_rate_rps']:g} 1/s (p99 <= 2*tau, <1% failed, "
              f"no backlog growth)")
        for name in ("latency_tail_ms.lo", "latency_tail_ms.hi"):
            tail = details[name]
            print(f"  {name} {tail['value']:.4f} ms (p{tail['percentile']} of "
                  f"{tail['samples']} samples)")
        for rate in details["rates"]:
            print(f"  rate {rate['rate_rps']:>6g} rps: attempted {rate['attempted']} "
                  f"failed {rate['failed']} p50 {rate['p50_ms']:.2f} ms "
                  f"p99 {rate['p99_ms']:.2f} ms tail p{rate['tail']['percentile']} "
                  f"{rate['tail']['value']:.2f} ms gen_lag_p99 {rate['gen_lag_p99_ms']:.2f} ms "
                  f"backlog_growth {rate['backlog_growth']:.1f} busy {rate['busy_share']:.3f} "
                  f"slo {'ok' if rate['meets_slo'] else 'missed'}")
    if args.trace:
        for name, unit in units.items():
            print(f"  {name:<42} {metrics[name]:>12.4f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"environment": environment, "values": values, "details": details,
                   "metrics": metrics,
                   "setup_s": setups, "problems": problems}, f, indent=1, default=str)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
