"""Tenant isolation under a noisy neighbour: with vs without limits.

Two tenants share one admission-controlled front end
(`repro.core.serve.frontend`) on the discrete-event simulator: tenant A
floods at ~3x the replica pool's capacity while tenant B offers a
modest fraction of it. The matrix runs the same two-tenant load twice:

* **unprotected** — no tenant-scoped limits: A's flood fills the
  shared accept queue, so B's requests queue behind it and are shed or
  served late (the noisy-neighbour baseline);
* **isolated** — A is clamped by a tenant token bucket at half of
  capacity and a 50% queue-share cap: B must see **zero** sheds and a
  served p99 within ``2 * tau``.

Both runs use inception_v3's profiled ``c(b)`` latency model, so the
numbers are hardware-independent and two same-seed runs are
**bit-identical** (the portable determinism gate — each run is executed
twice and its trace fingerprints must match).

Results go three places: a human table under ``benchmarks/results/``,
the machine-readable ``BENCH_tenancy.json`` at the repository root (the
committed isolation baseline — schema in benchmarks/README.md), and
the pytest entry's assertions.

Standalone usage (CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_perf_tenancy.py --smoke

exits non-zero if any same-seed re-run diverges, if the unprotected
run fails to show noisy-neighbour impact on B, or if the isolated run
violates the isolation gate (any B shed, or B p99 > 2*tau).
``--smoke`` still rewrites ``BENCH_tenancy.json`` (the artifact CI
uploads); the full run just uses a longer horizon.
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
    run_multi_load,
)
from repro.zoo import get_profile

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_tenancy.json")

MODEL = "inception_v3"
TAU = 0.56
REPLICAS = 2
MAX_QUEUE = 256
SEED = 13

#: tenant A's flood, as a multiple of pool capacity; B's modest rate.
FLOOD_MULTIPLE = 3.0
QUIET_MULTIPLE = 0.15
#: isolated run: A's tenant token-bucket rate as a capacity multiple,
#: and its cap on the shared accept queue.
TENANT_A_RATE_MULTIPLE = 0.5
TENANT_A_QUEUE_SHARE = 0.5

SUMMARY_KEYS = (
    "offered", "served", "shed", "shed_by_reason", "offered_qps",
    "sustained_qps", "p50_s", "p95_s", "p99_s", "slo_miss_rate", "shed_rate",
)


def run_pair(isolated: bool, duration: float, seed: int) -> tuple[dict, dict, str]:
    """One two-tenant run; returns (A summary, B summary, fingerprint)."""
    latency = get_profile(MODEL).inference_time
    capacity = capacity_qps(latency, 64, REPLICAS)
    config = FrontendConfig(
        latency=latency,
        tau=TAU,
        max_queue=MAX_QUEUE,
        tenant_rate_limits=(
            {"tenant-a": TENANT_A_RATE_MULTIPLE * capacity} if isolated else None
        ),
        tenant_max_queue_share=TENANT_A_QUEUE_SHARE if isolated else None,
    )
    frontend = ServeFrontend(config)
    pool = ReplicaPool(latency, replicas=REPLICAS)
    loads = [
        LoadGenConfig(
            mode="open", target_rate=FLOOD_MULTIPLE * capacity,
            period=duration, duration=duration, seed=seed, tenant="tenant-a",
        ),
        LoadGenConfig(
            mode="open", target_rate=QUIET_MULTIPLE * capacity,
            period=duration, duration=duration, seed=seed + 1, tenant="tenant-b",
        ),
    ]
    trace = run_multi_load(frontend, pool, loads)
    return trace.summary("tenant-a"), trace.summary("tenant-b"), trace.fingerprint()


def run_matrix(duration: float = 30.0) -> dict:
    """Unprotected vs isolated runs; returns the BENCH_tenancy.json payload."""
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
        "flood_multiple": FLOOD_MULTIPLE,
        "quiet_multiple": QUIET_MULTIPLE,
        "tenant_a_rate_multiple": TENANT_A_RATE_MULTIPLE,
        "tenant_a_queue_share": TENANT_A_QUEUE_SHARE,
        "runs": {},
        "deterministic": True,
    }
    for name, isolated in (("unprotected", False), ("isolated", True)):
        (a_summary, b_summary, fingerprint), identical = same_seed(
            lambda: run_pair(isolated, duration, SEED), key=lambda run: run[2]
        )
        run = {
            "isolated": isolated,
            "fingerprint": fingerprint,
            "rerun_identical": identical,
            "tenant_a": {k: a_summary[k] for k in SUMMARY_KEYS},
            "tenant_b": {k: b_summary[k] for k in SUMMARY_KEYS},
        }
        payload["runs"][name] = run
        payload["deterministic"] &= run["rerun_identical"]
    isolated_b = payload["runs"]["isolated"]["tenant_b"]
    unprotected_b = payload["runs"]["unprotected"]["tenant_b"]
    payload["isolation"] = {
        "b_shed_isolated": isolated_b["shed"],
        "b_p99_isolated_s": isolated_b["p99_s"],
        "b_shed_unprotected": unprotected_b["shed"],
        "b_p99_unprotected_s": unprotected_b["p99_s"],
        "zero_b_sheds": isolated_b["shed"] == 0,
        "b_p99_within_2tau": isolated_b["p99_s"] <= 2.0 * TAU,
        "neighbour_was_noisy": (
            unprotected_b["shed"] > 0 or unprotected_b["p99_s"] > 2.0 * TAU
        ),
    }
    payload["bench_wall_s"] = time.perf_counter() - started
    return payload


def format_table(payload: dict) -> str:
    lines = [
        f"{MODEL} x{payload['replicas']} replicas, tau={payload['tau_s']}s, "
        f"capacity {payload['capacity_qps']:.0f} qps; tenant-a floods "
        f"{payload['flood_multiple']:.1f}x, tenant-b offers "
        f"{payload['quiet_multiple']:.2f}x, {payload['duration_s']:.0f}s",
        f"{'run':<12} {'tenant':<9} {'offered':>8} {'served':>8} "
        f"{'p50(ms)':>8} {'p99(ms)':>8} {'shed%':>6} {'miss%':>6} {'same':>5}",
    ]
    for name in ("unprotected", "isolated"):
        run = payload["runs"][name]
        for tenant in ("tenant_a", "tenant_b"):
            s = run[tenant]
            lines.append(
                f"{name:<12} {tenant.replace('_', '-'):<9} "
                f"{s['offered_qps']:>8.1f} {s['sustained_qps']:>8.1f} "
                f"{1000 * s['p50_s']:>8.1f} {1000 * s['p99_s']:>8.1f} "
                f"{100 * s['shed_rate']:>6.1f} {100 * s['slo_miss_rate']:>6.2f} "
                f"{'yes' if run['rerun_identical'] else 'NO':>5}"
            )
    iso = payload["isolation"]
    lines.append(
        f"isolation gate: B sheds {iso['b_shed_isolated']} "
        f"(unprotected {iso['b_shed_unprotected']}), B p99 "
        f"{1000 * iso['b_p99_isolated_s']:.0f}ms "
        f"(unprotected {1000 * iso['b_p99_unprotected_s']:.0f}ms, "
        f"2*tau {2000 * payload['tau_s']:.0f}ms)"
    )
    return "\n".join(lines)


def write_bench_json(payload: dict) -> None:
    """Write the committed isolation baseline at the repository root."""
    with open(BENCH_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def check_payload(payload: dict) -> list[str]:
    """The portable acceptance bars; returns failure messages."""
    failures = []
    if not payload["deterministic"]:
        failures.append("a same-seed re-run diverged (fingerprint mismatch)")
    iso = payload["isolation"]
    if not iso["neighbour_was_noisy"]:
        failures.append(
            "unprotected run showed no noisy-neighbour impact on tenant-b — "
            "the flood level is too low to prove the limits matter"
        )
    if not iso["zero_b_sheds"]:
        failures.append(
            f"isolated run shed {iso['b_shed_isolated']} tenant-b requests — "
            "tenant limits are not protecting the quiet tenant"
        )
    if not iso["b_p99_within_2tau"]:
        failures.append(
            f"isolated run served tenant-b p99 {iso['b_p99_isolated_s']:.3f}s "
            "> 2*tau — the flood still dominates the queue"
        )
    flood_a = payload["runs"]["isolated"]["tenant_a"]
    if flood_a["shed_rate"] <= 0.0:
        failures.append(
            "isolated run shed none of tenant-a's flood — "
            "the tenant bucket/queue cap never engaged"
        )
    return failures


def test_perf_tenancy(benchmark):
    from _harness import emit

    payload = benchmark.pedantic(
        lambda: run_matrix(duration=8.0), rounds=1, iterations=1
    )
    emit("perf_tenancy", format_table(payload))
    write_bench_json(payload)
    failures = check_payload(payload)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast determinism + isolation gate at a short horizon "
             "(still rewrites BENCH_tenancy.json)",
    )
    args = parser.parse_args(argv)

    payload = run_matrix(duration=8.0 if args.smoke else 30.0)
    print(format_table(payload))
    write_bench_json(payload)
    print(f"BENCH_tenancy.json updated (wall {payload['bench_wall_s']:.2f}s)")
    failures = check_payload(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("smoke OK" if args.smoke else "OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
