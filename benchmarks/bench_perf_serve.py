"""Serving front end under load: sustained QPS, tail latency, shedding.

Drives the admission-controlled front end (`repro.core.serve.frontend`)
with the open/closed-loop load harness (`repro.core.serve.loadgen`) on
the discrete-event simulator, using inception_v3's profiled ``c(b)``
latency model — so the numbers are hardware-independent and two
same-seed runs are **bit-identical** (the portable determinism gate).

The headline matrix is an open-loop sweep at increasing concurrency:
sine-arrival target rates at multiples of the replica pool's peak
capacity (``replicas * b_max / c(b_max)``). Below capacity the front
end should serve everything inside the SLO; past capacity it must
*shed* (deadline/queue_full) rather than let the tail blow up — the
p99 of what it does serve stays bounded. A closed-loop run (think-time
clients) rides along as the self-limiting contrast.

Results go three places: a human table under ``benchmarks/results/``,
the machine-readable ``BENCH_serve.json`` at the repository root (the
committed serving baseline — schema in benchmarks/README.md), and the
pytest entry's assertions.

Standalone usage (CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_perf_serve.py --smoke

exits non-zero if any same-seed re-run diverges, if fewer than three
concurrency levels were measured, or if overload fails to shed.
``--smoke`` still rewrites ``BENCH_serve.json`` (the artifact CI
uploads); the full run just sweeps longer horizons and more levels.
"""

import argparse
import os
import sys
import time

if __name__ == "__main__":  # standalone: make repro + _harness importable
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
    sys.path.insert(0, _HERE)

import json

from repro.chaos.scenarios import same_seed
from repro.core.serve import (
    FrontendConfig,
    LoadGenConfig,
    ReplicaPool,
    ServeFrontend,
    capacity_qps,
    run_load,
)
from repro.zoo import get_profile

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_serve.json")

MODEL = "inception_v3"
TAU = 0.56
REPLICAS = 2
MAX_QUEUE = 1024
SEED = 11

#: open-loop sine targets, as multiples of pool capacity. The paper's
#: sine (Equations 8/9) peaks at 1.1x its target and *averages* ~0.58x
#: of it over a full cycle, so the realised offered/capacity ratio per
#: level — recorded as ``offered_capacity_ratio`` — is what the
#: acceptance checks gate on, not the nominal multiple.
FULL_MULTIPLES = (0.6, 1.2, 1.8, 2.4, 3.0)
SMOKE_MULTIPLES = (0.8, 1.8, 3.0)
SUMMARY_KEYS = (
    "offered", "served", "shed", "shed_by_reason", "offered_qps",
    "sustained_qps", "p50_s", "p95_s", "p99_s", "slo_miss_rate", "shed_rate",
)


def run_level(mode: str, duration: float, seed: int, *, target_rate: float = 0.0,
              clients: int = 0, think_time: float = 0.05) -> tuple[dict, str]:
    """One load run; returns (summary, trace fingerprint)."""
    latency = get_profile(MODEL).inference_time
    config = FrontendConfig(latency=latency, tau=TAU, max_queue=MAX_QUEUE)
    frontend = ServeFrontend(config)
    pool = ReplicaPool(latency, replicas=REPLICAS)
    load = LoadGenConfig(
        mode=mode, target_rate=target_rate, period=duration,
        clients=clients or 8, think_time=think_time, duration=duration,
        seed=seed,
    )
    trace = run_load(frontend, pool, load)
    return trace.summary(), trace.fingerprint()


def measure(mode: str, duration: float, **load) -> dict:
    """One load level, run twice with ``SEED``: summary + rerun gate."""
    (summary, fingerprint), identical = same_seed(
        lambda: run_level(mode, duration, SEED, **load), key=lambda run: run[1]
    )
    return {
        "fingerprint": fingerprint,
        "rerun_identical": identical,
        **{k: summary[k] for k in SUMMARY_KEYS},
    }


def run_matrix(multiples=FULL_MULTIPLES, duration: float = 30.0,
               closed_clients: int = 256) -> dict:
    """Sweep the concurrency levels; returns the BENCH_serve.json payload."""
    latency = get_profile(MODEL).inference_time
    capacity = capacity_qps(latency, 64, REPLICAS)
    started = time.perf_counter()
    payload = {
        "model": MODEL,
        "tau_s": TAU,
        "replicas": REPLICAS,
        "max_queue": MAX_QUEUE,
        "capacity_qps": capacity,
        "duration_s": duration,
        "seed": SEED,
        "levels": [],
        "deterministic": True,
    }
    for multiple in multiples:
        rate = multiple * capacity
        measured = measure("open", duration, target_rate=rate)
        level = {
            "mode": "open",
            "capacity_multiple": multiple,
            "target_qps": rate,
            "offered_capacity_ratio": measured["offered_qps"] / capacity,
            # Equations 8/9: the sine's peak is 1.1x its nominal target.
            "peak_capacity_ratio": 1.1 * multiple,
            **measured,
        }
        payload["levels"].append(level)
        payload["deterministic"] &= level["rerun_identical"]
    payload["closed_loop"] = {
        "mode": "closed",
        "clients": closed_clients,
        "think_time_s": 0.05,
        **measure("closed", duration, clients=closed_clients, think_time=0.05),
    }
    payload["deterministic"] &= payload["closed_loop"]["rerun_identical"]
    payload["bench_wall_s"] = time.perf_counter() - started
    return payload


def format_table(payload: dict) -> str:
    lines = [
        f"{MODEL} x{payload['replicas']} replicas, tau={payload['tau_s']}s, "
        f"capacity {payload['capacity_qps']:.0f} qps, "
        f"{payload['duration_s']:.0f}s per level",
        f"{'level':<14} {'target':>7} {'offered':>8} {'served':>8} "
        f"{'p50(ms)':>8} {'p95(ms)':>8} {'p99(ms)':>8} {'shed%':>6} "
        f"{'miss%':>6} {'same':>5}",
    ]
    rows = payload["levels"] + [payload["closed_loop"]]
    for level in rows:
        if level["mode"] == "open":
            label = f"open {level['capacity_multiple']:.1f}x"
            target = f"{level['target_qps']:.0f}"
        else:
            label = f"closed {level['clients']}c"
            target = "-"
        lines.append(
            f"{label:<14} {target:>7} {level['offered_qps']:>8.1f} "
            f"{level['sustained_qps']:>8.1f} {1000 * level['p50_s']:>8.1f} "
            f"{1000 * level['p95_s']:>8.1f} {1000 * level['p99_s']:>8.1f} "
            f"{100 * level['shed_rate']:>6.1f} "
            f"{100 * level['slo_miss_rate']:>6.2f} "
            f"{'yes' if level['rerun_identical'] else 'NO':>5}"
        )
    return "\n".join(lines)


def write_bench_json(payload: dict) -> None:
    """Write the committed serving baseline at the repository root."""
    with open(BENCH_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def check_payload(payload: dict) -> list[str]:
    """The portable acceptance bars; returns failure messages."""
    failures = []
    if not payload["deterministic"]:
        failures.append("a same-seed re-run diverged (fingerprint mismatch)")
    if len(payload["levels"]) < 3:
        failures.append(f"only {len(payload['levels'])} concurrency levels")
    # A sine level's stress is set by its *peak* (1.1x the nominal
    # multiple), not its cycle average: a 1.2x level spends 20% of the
    # cycle above capacity and legitimately sheds there while averaging
    # well under capacity.
    over = [l for l in payload["levels"] if l["peak_capacity_ratio"] > 1.3]
    under = [l for l in payload["levels"] if l["peak_capacity_ratio"] < 0.95]
    if not over:
        failures.append("no level peaked above 1.3x capacity — "
                        "the sweep never exercised overload")
    for level in over:
        ratio = level["peak_capacity_ratio"]
        if level["shed_rate"] <= 0.0:
            failures.append(
                f"peak {ratio:.2f}x capacity shed nothing — "
                "admission control is not engaging under overload"
            )
        if level["p99_s"] > 2.0 * TAU:
            failures.append(
                f"peak {ratio:.2f}x capacity served p99 "
                f"{level['p99_s']:.3f}s > 2*tau — shedding is not bounding the tail"
            )
    for level in under:
        if level["shed_rate"] > 0.05:
            failures.append(
                f"peak {level['peak_capacity_ratio']:.2f}x capacity shed "
                f"{100 * level['shed_rate']:.1f}% — admission too aggressive"
            )
    return failures


def test_perf_serve(benchmark):
    from _harness import emit

    payload = benchmark.pedantic(
        lambda: run_matrix(multiples=SMOKE_MULTIPLES, duration=8.0,
                           closed_clients=128),
        rounds=1, iterations=1,
    )
    emit("perf_serve", format_table(payload))
    write_bench_json(payload)
    failures = check_payload(payload)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast determinism gate: 3 open-loop levels at short horizons "
             "(still rewrites BENCH_serve.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_matrix(multiples=SMOKE_MULTIPLES, duration=8.0,
                             closed_clients=128)
    else:
        payload = run_matrix()
    print(format_table(payload))
    write_bench_json(payload)
    print(f"BENCH_serve.json updated ({len(payload['levels'])} open-loop "
          f"levels + closed loop, wall {payload['bench_wall_s']:.2f}s)")
    failures = check_payload(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("smoke OK" if args.smoke else "OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
