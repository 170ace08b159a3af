"""Seeded end-to-end chaos scenarios behind one registry and one runner.

Every scenario is a :class:`Scenario` in :data:`SCENARIOS`:

* ``chaos`` — distributed tuning survives node failures, trial crashes
  and dropped parameter-server pushes; serving re-queues failed batch
  dispatches; the facade's circuit breaker drops a flaky replica and
  re-admits it; the gateway absorbs injected 503/504 failures;
* ``shard-kill`` — the node hosting a parameter shard dies mid-study
  and no checkpoint is lost or served stale;
* ``store-kill`` — block-store datanodes die mid-write and mid-read
  and zero bytes are lost;
* ``tenant-isolation`` — a noisy tenant floods and crash-loops while a
  quiet tenant's jobs keep placing and its served p99 stays in SLO.

:func:`run_scenario` isolates each run the same way: it rewinds the
process-global id counters, installs a fresh metrics registry, a
:class:`~repro.telemetry.ManualClock` and the scenario's seeded
:class:`~repro.chaos.faults.FaultPlan`, and restores the previous
globals afterwards. Everything — fault decisions, retry jitter, model
training — is a pure function of the seed, so the returned *recovery
trace* (the fault log, the scenario's retry/repair counters and any
digests its body adds) is bit-identical across same-seed runs.
:func:`same_seed` is the one run-twice-and-compare gate that the
``repro scenario --verify`` CLI command, the tests and the perf
benches share; :meth:`Scenario.check` names the scenario's violated
invariants, which the CLI turns into a non-zero exit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import chaos, telemetry
from repro.chaos.faults import FaultKind, FaultPlan, FaultRule
from repro.exceptions import InjectedFault
from repro.utils.retry import RetryPolicy

__all__ = [
    "SCENARIOS",
    "Scenario",
    "build_default_plan",
    "reset_id_counters",
    "run_scenario",
    "same_seed",
]

#: counter prefixes that make up every trace's counter section — the
#: retry/recovery bookkeeping that must replay identically per seed.
TRACE_METRIC_PREFIXES = (
    "repro_chaos_",
    "repro_retry_",
    "repro_circuit_",
    "repro_tune_trial_crashes_total",
    "repro_tune_trials_reissued_total",
    "repro_serve_replica_errors_total",
    "repro_serve_dispatch_retries_total",
    "repro_cluster_recoveries_total",
    "repro_cluster_node_failures_total",
)

#: the shard-kill data plane: shards and copies of each key.
SHARDS, SHARD_REPLICAS = 3, 2
#: the store-kill block store: datanodes and copies of each chunk.
DATANODES, STORE_REPLICAS = 3, 2


@dataclass(frozen=True)
class Scenario:
    """One seeded scenario: its fault plan, body, trace and guarantees.

    ``body(seed)`` runs under the installed plan/registry/clock and
    returns ``(result, trace_extras)``; ``trace_extras`` joins the fault
    log and the counters whose names start with one of ``prefixes`` in
    the recovery trace. ``invariants`` maps a readable statement of each
    guarantee to a predicate over the full run output.
    """

    name: str
    plan: Callable[[int], FaultPlan]
    body: Callable[[int], tuple[dict[str, Any], dict[str, Any]]]
    prefixes: tuple[str, ...]
    invariants: dict[str, Callable[[dict[str, Any]], bool]]

    def check(self, out: dict[str, Any]) -> list[str]:
        """The invariants ``out`` violates (empty when all hold)."""
        return [name for name, holds in self.invariants.items() if not holds(out)]


def reset_id_counters() -> None:
    """Rewind the process-global id counters seeded objects draw from.

    Trial sessions seed their RNG from ``trial.trial_id``, and job and
    container names carry their sequence numbers into metric labels —
    so a second run in the same process (a scenario, a study on a
    reused pool, a bench repetition) would diverge unless the counters
    restart from 1. The counters stay rewound afterwards (ids remain
    unique within any single study/manager, which is all the library
    relies on).
    """
    from repro.cluster import container as container_mod
    from repro.cluster import manager as manager_mod
    from repro.cluster import message as message_mod
    from repro.core import system as system_mod
    from repro.core.tune import trial as trial_mod

    trial_mod._trial_ids = itertools.count(1)
    container_mod._container_ids = itertools.count(1)
    manager_mod._job_ids = itertools.count(1)
    message_mod._message_ids = itertools.count(1)
    system_mod._train_job_ids = itertools.count(1)
    system_mod._infer_job_ids = itertools.count(1)


def same_seed(run: Callable[[], Any], key: Callable[[Any], Any]) -> tuple[Any, bool]:
    """Call ``run`` twice; return the first result and whether ``key``
    of both results serialises to the same canonical JSON."""
    first, second = run(), run()
    return first, json.dumps(key(first), sort_keys=True) == json.dumps(
        key(second), sort_keys=True
    )


def run_scenario(name: str, seed: int = 0) -> dict[str, Any]:
    """Run the registered scenario ``name``; return results plus trace.

    Back-to-back invocations with the same seed are fully isolated (see
    the module docstring) and produce bit-identical traces.
    """
    scenario = SCENARIOS[name]
    reset_id_counters()
    plan = scenario.plan(seed)
    registry = telemetry.MetricsRegistry()
    previous_registry = telemetry.set_registry(registry)
    previous_clock = telemetry.set_clock(telemetry.ManualClock())
    previous_plan = chaos.set_plan(plan)
    try:
        result, extras = scenario.body(seed)
        return {
            "scenario": name,
            "seed": seed,
            **result,
            "points_hit": plan.points_hit(),
            "kinds_hit": plan.kinds_hit(),
            "faults_injected": plan.faults_injected(),
            "trace": {
                "faults": plan.trace(),
                "counters": _trace_counters(registry, scenario.prefixes),
                **extras,
            },
        }
    finally:
        chaos.set_plan(previous_plan)
        telemetry.set_clock(previous_clock)
        telemetry.set_registry(previous_registry)


def _trace_counters(
    registry: telemetry.MetricsRegistry, prefixes: tuple[str, ...]
) -> dict[str, Any]:
    """The retry/recovery counter values, filtered from a full snapshot."""
    full = telemetry.snapshot(registry)
    return {
        name: data["values"]
        for section in ("counters", "gauges")
        for name, data in sorted(full.get(section, {}).items())
        if any(name.startswith(prefix) for prefix in prefixes)
    }


def _state_digest(state) -> str:
    """Order-independent digest of one checkpoint's arrays."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.dtype.str.encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _push_retry(seed: int) -> RetryPolicy:
    """The parameter-server retry that outlasts the dropped-push rules."""
    return RetryPolicy(max_attempts=4, jitter=0.0, retry_on=(InjectedFault,), seed=seed)


def _cluster(tenants=None):
    """Three 8-cpu / 3-gpu / 64 GB nodes under one cluster manager."""
    from repro.cluster import ClusterManager, Node
    from repro.cluster.node import Resources

    manager = ClusterManager(tenants=tenants)
    for i in range(3):
        manager.add_node(Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64)))
    return manager


def _cluster_study(
    manager, name: str, param_server, seed: int, failure_plan: list
) -> dict[str, Any]:
    """A 16-trial surrogate study over ``manager`` under ``failure_plan``."""
    from repro.core.tune import (
        HyperConf,
        RandomSearchAdvisor,
        StudyMaster,
        SurrogateTrainer,
        section71_space,
    )
    from repro.core.tune.distributed import run_cluster_study

    conf = HyperConf(max_trials=16, max_epochs_per_trial=20)
    master = StudyMaster(
        name,
        conf,
        RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)),
        param_server,
    )
    report = run_cluster_study(
        manager,
        master,
        SurrogateTrainer(seed=seed),
        param_server,
        conf,
        num_workers=3,
        failure_plan=failure_plan,
        trial_retry=RetryPolicy(max_attempts=3, jitter=0.0, seed=seed),
    )
    best = report.best
    return {
        "trials": len(report.results),
        "total_epochs": report.total_epochs,
        "best_performance": report.best_performance,
        "best_trial_id": best.trial.trial_id if best is not None else None,
        "recoveries": manager.recoveries,
        "wall_time": report.wall_time,
    }


# -- chaos ---------------------------------------------------------------


def _flaky_model() -> str:
    """The replica the chaos plan makes fail until its breaker opens."""
    from repro.zoo import default_registry

    return default_registry().select_diverse("ImageClassification", k=2)[0].name


def build_default_plan(seed: int, flaky_model: str) -> FaultPlan:
    """The chaos scenario's fault schedule: three kinds across four subsystems."""
    rules = [
        # tune: occasional per-epoch trial crashes, capped so the study
        # always terminates; workers restart from checkpoints.
        FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.02, max_faults=4),
        # paramserver: every push is dropped with p = 0.1; the server's
        # retry policy re-sends until it lands.
        FaultRule("paramserver.push", FaultKind.DROP, probability=0.1),
        # serve: dispatches gain latency sometimes and fail outright a
        # few times; the batcher re-queues the in-flight requests.
        FaultRule("serve.dispatch", FaultKind.LATENCY, probability=0.2, latency=0.02),
        FaultRule("serve.dispatch", FaultKind.EXCEPTION, probability=0.05, max_faults=6),
        # one replica fails three times in a row, opening its breaker.
        FaultRule(f"serve.model.{flaky_model}", FaultKind.EXCEPTION, max_faults=3),
        # gateway: one backend crash (503) and one lost response (504).
        FaultRule("gateway.dispatch", FaultKind.EXCEPTION, after=2, max_faults=1),
        FaultRule("gateway.dispatch", FaultKind.DROP, after=4, max_faults=1),
    ]
    return FaultPlan(rules, seed=seed)


def _chaos_body(seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """Tune over the cluster, serve, then the facade + gateway."""
    flaky_model = _flaky_model()
    results = {
        "tune": _tune_phase(seed),
        "serve": _serve_phase(seed),
        "facade": _facade_phase(seed, flaky_model),
    }
    return {"flaky_model": flaky_model, "results": results}, {}


def _tune_phase(seed: int) -> dict[str, Any]:
    """Distributed study under node failures, trial crashes, dropped pushes."""
    from repro.paramserver import ParameterServer

    manager = _cluster()
    results = _cluster_study(
        manager, "chaos", ParameterServer(retry=_push_retry(seed)), seed,
        failure_plan=[(150.0, "n0", 900.0), (400.0, "n1", None)],
    )
    reissued = telemetry.get_registry().counter(
        "repro_tune_trials_reissued_total",
        "In-flight trials re-issued to replacement workers.",
    )
    return {**results, "reissued": int(sum(reissued.snapshot().values()))}


def _serve_phase(seed: int) -> dict[str, Any]:
    """Serving run with failed/slowed dispatches and batch resubmission."""
    from repro.core.serve import (
        DEFAULT_BATCH_SIZES,
        GreedySingleController,
        ServingEnv,
        SineArrival,
    )
    from repro.zoo import get_profile

    profile = get_profile("inception_v3")
    tau = 0.56
    env = ServingEnv(
        [profile],
        GreedySingleController(profile, DEFAULT_BATCH_SIZES, tau),
        SineArrival(80.0, period=60.0, rng=np.random.default_rng(seed)),
        tau,
        DEFAULT_BATCH_SIZES,
        dispatch_retry=RetryPolicy(
            max_attempts=4, base_delay=0.005, max_delay=0.1, jitter=0.0, seed=seed
        ),
    )
    metrics = env.run(horizon=30.0)
    served = metrics.total_served
    overdue = sum(record.overdue for record in metrics.dispatches)
    return {
        "arrived": metrics.total_arrived,
        "served": served,
        "overdue": overdue,
        "dropped": metrics.dropped,
        "requeued": env.queue.total_requeued,
        "slo_fraction": (served - overdue) / served if served else 1.0,
    }


def _facade_phase(seed: int, flaky_model: str) -> dict[str, Any]:
    """Train/deploy real models; flap one replica; hit the gateway.

    The flaky replica's circuit breaker opens after three consecutive
    injected failures (dropping it from the ensemble vote) and, once the
    manual clock advances past the recovery window, re-admits it on a
    successful half-open probe.
    """
    from repro.api.gateway import Gateway
    from repro.core.system import Rafiki
    from repro.core.tune import HyperConf
    from repro.data import make_image_classification

    dataset = make_image_classification(
        name="chaos-ds", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=12, val_per_class=6, test_per_class=6,
        difficulty=0.3, seed=seed,
    )
    system = Rafiki(seed=seed)
    # The facade's parameter server must survive the dropped-push rule.
    system.param_server.retry = _push_retry(seed)
    system.import_images(dataset)
    job_id = system.create_train_job(
        "chaos", "ImageClassification", "chaos-ds",
        hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
        num_workers=2,
    )
    specs = system.get_models(job_id)
    infer_id = system.create_inference_job(specs)
    info = system.get_inference_job(infer_id)
    gateway = Gateway(system)

    statuses: list[int] = []
    for i in range(6):
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[i].tolist()}
        )
        statuses.append(response.status)
    live_during_outage = len(info.live_replicas())
    flaky_breaker = next(
        (b for b in info.breakers if b.name.endswith(f"/{flaky_model}")), None
    )
    # Let the breaker's recovery window elapse, then probe it closed.
    telemetry.get_clock().advance(31.0)
    for i in range(2):
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[6 + i].tolist()}
        )
        statuses.append(response.status)
    return {
        "models": [spec.model_name for spec in specs],
        "statuses": statuses,
        "live_during_outage": live_during_outage,
        "live_after_recovery": len(info.live_replicas()),
        "breaker_opened": flaky_breaker.opened_count if flaky_breaker else 0,
        "breaker_state": flaky_breaker.state if flaky_breaker else "missing",
    }


# -- shard-kill ----------------------------------------------------------


def _shard_kill_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule("paramserver.push", FaultKind.DROP, probability=0.05),
            FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.02,
                      max_faults=3),
        ],
        seed=seed,
    )


def _shard_kill_body(seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """Kill a parameter shard's node mid-study; prove nothing is lost.

    A distributed surrogate study runs against a
    :class:`~repro.paramserver.sharded.ShardedParameterServer` whose
    shards are cluster containers, under dropped pushes and trial
    crashes. Mid-study, the node hosting the first shard fails — taking
    the shard (and any tune workers co-located with it) down. The
    cluster manager restarts the shard's container elsewhere, the
    coordinator re-syncs it from the surviving replicas, and the study
    completes.

    The trace adds a digest of every checkpoint read back through the
    coordinator, and every live replica's copy is compared against it
    (``stale`` lists the mismatches), so no checkpoint is lost or
    served stale.
    """
    from repro.paramserver import ShardedParameterServer

    manager = _cluster()
    param_server = ShardedParameterServer(
        shards=SHARDS, replicas=SHARD_REPLICAS, retry=_push_retry(seed)
    )
    # Register before the study so the shard placement is known and
    # the failure plan can target the node hosting the first shard.
    param_server.register_with_cluster(manager)
    # Pre-seed the data plane with prior studies' checkpoints (the
    # warm-start pool of Section 4.2) so the killed shard holds
    # real data whose survival the trace can assert.
    pool_rng = np.random.default_rng(seed)
    for i in range(12):
        param_server.put(
            f"warm/{i}",
            {"w": pool_rng.standard_normal((16, 16)),
             "b": pool_rng.standard_normal(16)},
            model=f"m{i % 3}", dataset="prior",
            performance=float(pool_rng.random()),
        )
    victim_shard = param_server.shards[0]
    victim_node = manager.containers[victim_shard.container_id].node_name
    results = _cluster_study(
        manager, "shard-kill", param_server, seed,
        failure_plan=[(150.0, victim_node, None)],
    )
    param_server.repair()
    audit = param_server.audit()
    # Read every checkpoint back through the coordinator and from
    # each live holder directly; identical digests mean no replica
    # can ever serve a stale copy.
    checkpoints: dict[str, str] = {}
    stale: list[str] = []
    for key in param_server.keys():
        digest = _state_digest(param_server.get(key))
        checkpoints[key] = digest
        version = param_server.versions(key)
        for holder_name in param_server._directory[key]:
            holder = param_server._by_name[holder_name]
            if not holder.alive:
                continue
            if _state_digest(holder.server.get(key, version)) != digest:
                stale.append(f"{key}@{holder_name}")
    return {
        "shards": SHARDS,
        "replicas": SHARD_REPLICAS,
        "victim": {"shard": victim_shard.name, "node": victim_node,
                   "deaths": victim_shard.deaths},
        "results": results,
        "audit": audit,
        "stale": stale,
    }, {"checkpoints": checkpoints}


# -- store-kill ----------------------------------------------------------


def _store_kill_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            # Some chunk uploads are dropped (bounded, so no chunk can
            # lose every target): the write skips that replica and the
            # next repair() restores the factor.
            FaultRule("data.store.put", FaultKind.DROP, probability=0.04,
                      max_faults=6),
            # Reads gain latency but never fail outright — failover in
            # this scenario comes from the node kills themselves.
            FaultRule("data.store.get", FaultKind.LATENCY, probability=0.2,
                      latency=0.01),
        ],
        seed=seed,
    )


def _store_kill_body(seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """Kill datanodes mid-write *and* mid-read; prove zero bytes lost.

    A :class:`~repro.data.blockstore.BlockStore` hosts its datanodes as
    cluster containers on a deliberately tight cluster (a replacement
    container cannot fit anywhere else, so a failed datanode stays down
    until its machine recovers — and then restarts on the *same* host,
    exercising the preserved-disk trash-reconciliation path). Under a
    seeded plan of dropped chunk writes and slowed reads:

    1. a near-duplicate checkpoint series and a unique scratch blob are
       written through a :class:`~repro.data.fs.FileNamespace`;
    2. the node hosting the first datanode fails *mid-write* (between
       two chunk uploads of a new checkpoint version) — commit's
       write-back heal re-stores any chunk that lost every copy, so the
       version still commits complete;
    3. the scratch blob is deleted while that datanode is dead,
       queueing its copies in the node's trash set;
    4. the node hosting the second datanode fails *mid-read* — the read
       fails over to the surviving replica and still returns the exact
       bytes;
    5. both machines recover; each datanode restarts on its original
       host, keeps its disk, and runs the trash pass (stale chunks
       deleted, still-needed survivors re-admitted).

    The trace adds every file version's digest.
    """
    from repro.cluster import ClusterManager, Node
    from repro.cluster.node import Resources
    from repro.data.blockstore import BlockStore
    from repro.data.fs import FileNamespace

    # Capacity math (deliberate): 4 machines x 2 cpus. The job's
    # master (1 cpu) lands on n0; each datanode worker (2 cpus)
    # fills one of n1..n3 completely. A failed worker's replacement
    # needs 2 cpus but the best free node offers 1 — so it queues,
    # and recover_node() restarts it on its original machine.
    manager = ClusterManager()
    for i in range(DATANODES + 1):
        manager.add_node(
            Node(f"n{i}", capacity=Resources(cpus=2, gpus=0, memory_gb=16))
        )
    store = BlockStore(nodes=DATANODES, replicas=STORE_REPLICAS, chunk_size=4096)
    store.register_with_cluster(
        manager, worker_request=Resources(cpus=2, gpus=0, memory_gb=8)
    )
    fs = FileNamespace(store, name="chaos")

    rng = np.random.default_rng(seed)
    ckpt = bytearray(rng.integers(0, 256, 20000, dtype=np.uint8).tobytes())
    originals: dict[str, bytes] = {}
    for version in range(1, 6):
        offset = (version * 997) % (len(ckpt) - 64)
        ckpt[offset : offset + 64] = rng.integers(
            0, 256, 64, dtype=np.uint8
        ).tobytes()
        data = bytes(ckpt)
        fs.write("model/ckpt", data, writer="study")
        originals[f"model/ckpt@{version}"] = data
    scratch = rng.integers(0, 256, 64 * 1024, dtype=np.uint8).tobytes()
    fs.write("data/scratch", scratch, writer="study")
    # The dropped-write faults leave some chunks below the factor;
    # heal them (the operator's periodic repair) so surviving the
    # coming kills depends on replication, not luck.
    repaired_initial = store.repair()

    victim_write = store.nodes[0]
    victim_read = store.nodes[1]
    write_host = manager.containers[victim_write.container_id].node_name
    read_host = manager.containers[victim_read.container_id].node_name

    # --- mid-write kill -------------------------------------------
    offset = (6 * 997) % (len(ckpt) - 64)
    ckpt[offset : offset + 64] = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    mid_write = bytes(ckpt)
    killed = False

    def kill_mid_write(index: int, digest: str) -> None:
        nonlocal killed
        if index == 2 and not killed:
            killed = True
            manager.fail_node(write_host)

    manifest = fs.write(
        "model/ckpt", mid_write, writer="study", on_chunk=kill_mid_write
    )
    originals[f"model/ckpt@{manifest.version}"] = mid_write
    mid_write_ok = fs.read("model/ckpt") == mid_write
    repaired_after_write = store.repair()

    # --- delete while the datanode is dead: populates its trash ---
    fs.delete("data/scratch")
    trash_pending = dict(store.audit()["trash_pending"])

    # --- mid-read kill --------------------------------------------
    chunks: list[bytes] = []
    for index, chunk in enumerate(fs.read_chunks("model/ckpt", version=3)):
        chunks.append(chunk)
        if index == 0:
            manager.fail_node(read_host)
    mid_read_ok = b"".join(chunks) == originals["model/ckpt@3"]

    # --- both machines come back; same-host restarts reconcile ----
    manager.recover_node(write_host)
    manager.recover_node(read_host)
    repaired_final = store.repair()
    audit = store.audit()

    corrupt = sorted(
        name
        for name, data in originals.items()
        if fs.read(name.split("@")[0], version=int(name.split("@")[1])) != data
    )
    files = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(originals.items())
    }
    return {
        "datanodes": DATANODES,
        "replicas": STORE_REPLICAS,
        "victims": {
            "mid_write": {"datanode": victim_write.name, "node": write_host,
                          "deaths": victim_write.deaths},
            "mid_read": {"datanode": victim_read.name, "node": read_host,
                         "deaths": victim_read.deaths},
        },
        "results": {
            "versions": len(fs.versions("model/ckpt")),
            "mid_write_intact": mid_write_ok,
            "mid_read_intact": mid_read_ok,
            "repaired_initial": repaired_initial,
            "repaired_after_write": repaired_after_write,
            "repaired_final": repaired_final,
            "trash_pending_during_outage": trash_pending,
            "recoveries": manager.recoveries,
        },
        "audit": audit,
        "corrupt": corrupt,
    }, {"files": files}


# -- tenant-isolation ----------------------------------------------------


def _tenant_isolation_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            # Admission faults aimed at tenant A only: the tenant-scoped
            # chaos point fires after the generic frontend.accept one,
            # so B's admissions never see these.
            FaultRule(
                "frontend.accept.tenant.tenant-a",
                FaultKind.EXCEPTION,
                probability=0.05,
                max_faults=25,
            ),
        ],
        seed=seed,
    )


def _tenant_isolation_body(seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """A noisy tenant floods and crash-loops; a quiet tenant is unharmed.

    Two tenants share one control plane and one serving front end:

    1. **cluster phase** — tenant A (quota: 8 concurrent trials) floods
       the cluster with training jobs until both its quota and the
       cluster's capacity are exhausted, then crash-loops the node its
       first job runs on (three fail/recover cycles). Tenant B's jobs
       place throughout; when A releases capacity, the pending queue
       drains **max-min fair** — B's queued job (lower dominant share)
       activates before A's earlier-queued ones.
    2. **serve phase** — both tenants drive open-loop load at one
       admission-controlled front end; A offers ~4x B's rate *and*
       suffers injected admission faults on its tenant-targeted chaos
       point (``frontend.accept.tenant.tenant-a``). A's aggregate is
       clamped by its tenant token bucket and queue-share cap, so the
       isolation gate holds: **zero** tenant-B sheds and tenant-B p99
       within ``2 * tau``.

    The trace adds the serve trace's fingerprint.
    """
    from repro.cluster.manager import JobKind, JobState
    from repro.core.serve.frontend import FrontendConfig, ServeFrontend
    from repro.core.serve.loadgen import LoadGenConfig, ReplicaPool, run_multi_load
    from repro.tenancy import TenantQuota, TenantRegistry

    # -- cluster phase: quotas, flood, crash-loop, fair drain ------
    tenants = TenantRegistry()
    tenants.register("tenant-a", quota=TenantQuota(trials=8))
    tenants.register("tenant-b")
    manager = _cluster(tenants)
    # A floods: two jobs place (6 of 8 quota trials), the third
    # trips the quota and queues.
    a1 = manager.submit_job(JobKind.TRAIN, "a1", num_workers=3, tenant="tenant-a")
    a2 = manager.submit_job(JobKind.TRAIN, "a2", num_workers=3, tenant="tenant-a")
    a3 = manager.submit_job(JobKind.TRAIN, "a3", num_workers=3, tenant="tenant-a")
    # B places immediately despite the flood (capacity remains
    # because A's quota capped it)...
    b1 = manager.submit_job(JobKind.TRAIN, "b1", num_workers=2, tenant="tenant-b")
    # ...then queues one more on capacity, as does A again.
    b2 = manager.submit_job(JobKind.TRAIN, "b2", num_workers=3, tenant="tenant-b")
    a4 = manager.submit_job(JobKind.TRAIN, "a4", num_workers=3, tenant="tenant-a")
    flood_states = {
        job.name: job.state.name for job in (a1, a2, a3, b1, b2, a4)
    }
    # A crash-loops its first job's node; B's containers live
    # elsewhere and are untouched.
    crash_host = a1.containers[0].node_name
    for _ in range(3):
        manager.fail_node(crash_host)
        manager.recover_node(crash_host)
    b1_survived = b1.state is JobState.RUNNING and all(
        c.running for c in b1.containers
    )
    # A releases capacity; the pending queue drains max-min fair:
    # B's queued job (lower dominant share) activates first even
    # though A's quota-queued job arrived earlier.
    manager.stop_job(a1.job_id)
    drain_states = {
        job.name: job.state.name for job in (a3, b2, a4)
    }
    cluster = {
        "flood_states": flood_states,
        "crash_host": crash_host,
        "crash_cycles": 3,
        "b1_survived_crash_loop": b1_survived,
        "drain_states": drain_states,
        "fair_share_winner": (
            "tenant-b" if b2.state is JobState.RUNNING else b2.state.name
        ),
        "a_pending_after_drain": sum(
            1 for job in manager.pending_jobs() if job.tenant == "tenant-a"
        ),
        "recoveries": manager.recoveries,
        "usage": tenants.ledger.snapshot(),
    }

    # -- serve phase: A floods one front end, B stays in SLO -------
    tau = 0.2
    latency = lambda b: 0.05 + 0.002 * b  # noqa: E731
    frontend = ServeFrontend(
        FrontendConfig(
            latency=latency,
            tau=tau,
            max_queue=256,
            tenant_rate_limits={"tenant-a": 80.0},
            tenant_max_queue_share=0.5,
        )
    )
    pool = ReplicaPool(latency, replicas=2)
    trace = run_multi_load(
        frontend,
        pool,
        [
            LoadGenConfig(
                mode="open", target_rate=320.0, period=20.0,
                duration=30.0, seed=seed, tenant="tenant-a",
            ),
            LoadGenConfig(
                mode="open", target_rate=40.0, period=20.0,
                duration=30.0, seed=seed + 1, tenant="tenant-b",
            ),
        ],
    )
    a_summary = trace.summary("tenant-a")
    b_summary = trace.summary("tenant-b")
    isolation = {
        "tau": tau,
        "b_shed": b_summary["shed"],
        "b_p99_s": b_summary["p99_s"],
        "zero_b_sheds": b_summary["shed"] == 0,
        "b_p99_within_2tau": b_summary["p99_s"] <= 2.0 * tau,
        "a_shed_rate": a_summary["shed_rate"],
    }
    return {
        "results": {
            "cluster": cluster,
            "serve": {"tenant-a": a_summary, "tenant-b": b_summary},
            "isolation": isolation,
        },
    }, {"serve_fingerprint": trace.fingerprint()}


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "chaos",
            plan=lambda seed: build_default_plan(seed, _flaky_model()),
            body=_chaos_body,
            prefixes=TRACE_METRIC_PREFIXES,
            invariants={
                "serve dropped == 0":
                    lambda out: out["results"]["serve"]["dropped"] == 0,
                "serve served == arrived":
                    lambda out: out["results"]["serve"]["served"]
                    == out["results"]["serve"]["arrived"],
                "last facade status is 200":
                    lambda out: out["results"]["facade"]["statuses"][-1] == 200,
                "flaky replica's breaker is closed":
                    lambda out: out["results"]["facade"]["breaker_state"] == "closed",
            },
        ),
        Scenario(
            "shard-kill",
            plan=_shard_kill_plan,
            body=_shard_kill_body,
            prefixes=TRACE_METRIC_PREFIXES + (
                "repro_paramserver_shard_deaths_total",
                "repro_paramserver_rereplications_total",
                "repro_paramserver_failovers_total",
                "repro_paramserver_keys_lost_total",
            ),
            invariants={
                "keys_lost == 0": lambda out: out["audit"]["keys_lost"] == 0,
                "no under-replicated or divergent keys":
                    lambda out: not out["audit"]["under_replicated"]
                    and not out["audit"]["divergent"],
                "no stale replica copies": lambda out: out["stale"] == [],
            },
        ),
        Scenario(
            "store-kill",
            plan=_store_kill_plan,
            body=_store_kill_body,
            prefixes=TRACE_METRIC_PREFIXES + ("repro_blockstore_", "repro_fs_"),
            invariants={
                "no corrupt file versions": lambda out: out["corrupt"] == [],
                "no lost or under-replicated chunks":
                    lambda out: out["audit"]["lost"] == []
                    and out["audit"]["under_replicated"] == [],
                "mid-write and mid-read reads intact":
                    lambda out: out["results"]["mid_write_intact"]
                    and out["results"]["mid_read_intact"],
            },
        ),
        Scenario(
            "tenant-isolation",
            plan=_tenant_isolation_plan,
            body=_tenant_isolation_body,
            prefixes=TRACE_METRIC_PREFIXES + (
                "repro_tenant_",
                "repro_cluster_jobs_queued_total",
                "repro_cluster_pending_jobs",
                "repro_serve_frontend_",
            ),
            invariants={
                "zero tenant-b sheds":
                    lambda out: out["results"]["isolation"]["zero_b_sheds"],
                "tenant-b p99 <= 2 tau":
                    lambda out: out["results"]["isolation"]["b_p99_within_2tau"],
                "fair-share winner is tenant-b":
                    lambda out: out["results"]["cluster"]["fair_share_winner"]
                    == "tenant-b",
            },
        ),
    )
}
