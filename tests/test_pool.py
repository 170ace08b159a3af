"""Persistent trial pool: lifecycle, crash recovery, shm hygiene.

The determinism contract (pool report == sequential report, bit for
bit) is covered in ``test_parallel_study.py``; this module exercises
the pool's own machinery — reuse across studies, worker-crash resubmission without duplicate
epochs, dead-worker replacement, and shared-memory segment cleanup on
every exit path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios import reset_id_counters
from repro.core.tune import (
    HyperConf,
    PoolTrialExecutor,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    TrialPool,
    make_workers,
    run_study,
    run_study_parallel,
)
from repro.core.tune.hyperspace import HyperSpace
from repro.exceptions import ConfigurationError
from repro.paramserver import ParameterServer
from repro.utils.shm import SHM_DIR, ShmArena
from repro.zoo.builders import build_mlp


def tiny_space() -> HyperSpace:
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.2, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    return space


def make_study(tiny_dataset, seed: int = 3, max_trials: int = 4, max_epochs: int = 2):
    reset_id_counters()
    conf = HyperConf(
        max_trials=max_trials, max_epochs_per_trial=max_epochs,
        early_stop_patience=2, delta=0.005,
    )
    param_server = ParameterServer()
    advisor = RandomSearchAdvisor(tiny_space(), rng=np.random.default_rng(seed))
    master = StudyMaster("pool", conf, advisor, param_server)
    backend = RealTrainer(
        tiny_dataset, build_mlp, batch_size=16, use_augmentation=False, seed=11
    )
    workers = make_workers(master, backend, param_server, conf, num_workers=2)
    return master, workers


def report_fingerprint(report):
    return [
        (e.index, round(e.performance, 10), e.epochs, e.total_epochs,
         round(e.best_so_far, 10), e.time, e.init_kind)
        for e in report.history
    ]


def leaked_segments(prefix: str) -> list[str]:
    if not os.path.isdir(SHM_DIR):
        return []
    return [e for e in os.listdir(SHM_DIR) if e.startswith(prefix)]


# ----------------------------------------------------------------------
# ShmArena
# ----------------------------------------------------------------------


class TestShmArena:
    def test_share_view_roundtrip(self, rng):
        array = rng.standard_normal((32, 7)).astype(np.float32)
        with ShmArena() as arena:
            tensor = arena.share(array)
            view = arena.view(tensor)
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable  # zero-copy views are read-only
            assert tensor.nbytes == array.nbytes
            assert tensor.exists()

    def test_release_unlinks_owned_segment(self, rng):
        arena = ShmArena()
        tensor = arena.share(rng.standard_normal(128))
        assert tensor.exists()
        arena.release(tensor)
        assert not tensor.exists()
        assert arena.live_segments == 0
        arena.close()

    def test_publish_adopt_transfers_ownership(self, rng):
        array = rng.standard_normal((8, 8))
        producer = ShmArena()
        consumer = ShmArena(prefix=producer.prefix)
        tensor = producer.publish(array)
        assert tensor.exists()  # alive with no local mapping on either side
        adopted = consumer.adopt(tensor)
        np.testing.assert_array_equal(adopted, array)
        consumer.release(tensor)
        assert not tensor.exists()  # the adopter unlinks
        producer.close()
        consumer.close()

    def test_sweep_collects_orphans(self, rng):
        arena = ShmArena()
        orphan = arena.publish(rng.standard_normal(64))  # nobody adopts
        assert orphan.exists()
        assert arena.sweep() == 1
        assert not orphan.exists()
        assert leaked_segments(arena.prefix) == []
        arena.close()

    def test_close_unlinks_everything(self, rng):
        arena = ShmArena()
        tensors = [arena.share(rng.standard_normal(16)) for _ in range(3)]
        arena.close()
        assert all(not t.exists() for t in tensors)
        assert leaked_segments(arena.prefix) == []


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------


class TestPoolLifecycle:
    def test_reuse_across_studies_matches_fresh_pools(self, tiny_dataset):
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        with TrialPool(processes=2) as pool:
            master, workers = make_study(tiny_dataset)
            first = run_study_parallel(master, workers, pool=pool)
            master, workers = make_study(tiny_dataset)
            second = run_study_parallel(master, workers, pool=pool)

        master, workers = make_study(tiny_dataset)
        fresh = run_study_parallel(master, workers, processes=2)

        assert report_fingerprint(first) == sequential
        assert report_fingerprint(second) == sequential
        assert report_fingerprint(fresh) == sequential

    def test_shutdown_is_idempotent(self, tiny_dataset):
        pool = TrialPool(processes=1)
        master, workers = make_study(tiny_dataset, max_trials=2)
        run_study_parallel(master, workers, pool=pool)
        pool.shutdown()
        pool.shutdown()
        assert not pool.running

    def test_executor_requires_real_trainer(self):
        with pytest.raises(ConfigurationError):
            PoolTrialExecutor(object(), HyperConf())


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_injected_crash_resubmits_without_duplicate_epochs(self, tiny_dataset):
        """A seeded ``tune.pool.trial`` fault kills a trial mid-flight in
        the worker; the pool re-issues it and discards the replayed
        epochs, so the report still matches the sequential run exactly."""
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        master, workers = make_study(tiny_dataset)
        with chaos.active(plan):
            report = run_study_parallel(master, workers, processes=2)

        assert report_fingerprint(report) == sequential
        errors = telemetry.get_registry().counter(
            "repro_tune_pool_trial_errors_total",
            "Worker-side trial failures, by outcome.",
        )
        assert errors.value(outcome="resubmitted") >= 1
        assert errors.value(outcome="raised") == 0

    def test_dead_worker_replaced_and_trial_reissued(self, tiny_dataset):
        """Hard-killing a pool process must not lose the study: the pool
        reaps the corpse, spawns a replacement, and the queued/claimed
        work lands on it."""
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        master, workers = make_study(tiny_dataset)
        with TrialPool(processes=1) as pool:
            victim = next(iter(pool._procs.values()))
            victim.kill()
            victim.join(timeout=10.0)
            report = run_study_parallel(master, workers, pool=pool)
            assert pool.worker_restarts >= 1
        assert report_fingerprint(report) == sequential
        restarts = telemetry.get_registry().counter(
            "repro_tune_pool_worker_restarts_total",
            "Pool workers found dead and replaced.",
        )
        assert restarts.value() >= 1

    def test_second_crash_of_same_trial_keeps_cumulative_skip(self, tiny_dataset):
        """Two crashes of the *same* trial: the replay skip count must
        cover every epoch the session has consumed since submission,
        not just those since the previous crash — including a crash
        that lands while an earlier replay is still being skipped —
        or duplicate epochs silently corrupt the study."""
        master, workers = make_study(tiny_dataset, max_epochs=5)
        sequential = report_fingerprint(run_study(master, workers))

        # fires 1-2 pass, fires 3-4 fault: the first crash interrupts
        # trial 1 mid-stream, the second kills its replay immediately.
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=2, max_faults=2)],
            seed=0,
        )
        master, workers = make_study(tiny_dataset, max_epochs=5)
        with chaos.active(plan), TrialPool(processes=1) as pool:
            report = run_study_parallel(master, workers, pool=pool)

        assert report_fingerprint(report) == sequential
        errors = telemetry.get_registry().counter(
            "repro_tune_pool_trial_errors_total",
            "Worker-side trial failures, by outcome.",
        )
        assert errors.value(outcome="resubmitted") >= 2
        assert errors.value(outcome="raised") == 0

    def test_crash_on_warm_started_trial_recovers(self, tiny_dataset):
        """A crashed warm-started trial is re-dispatched with the same
        init-state handles; materialising them in the first worker must
        not unlink the parent-owned segments, or the replacement run
        dies on attach and the whole study aborts."""
        from repro.core.tune.trial import Trial

        conf = HyperConf(max_trials=1, max_epochs_per_trial=3, delta=0.005)

        def backend():
            return RealTrainer(
                tiny_dataset, build_mlp, batch_size=16,
                use_augmentation=False, seed=11,
            )

        params = {"lr": 0.05, "momentum": 0.5}
        reset_id_counters()
        probe = backend().start(Trial(params=params), None)
        probe.run_epoch()
        init_state = probe.state_dict()
        # big enough to travel as shm handles, the case under test
        assert any(a.nbytes >= 4096 for a in init_state.values())

        reset_id_counters()
        reference = backend().start(Trial(params=params), init_state)
        expected = [reference.run_epoch() for _ in range(3)]

        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        reset_id_counters()
        pool = TrialPool(processes=1)
        prefix = pool.arena.prefix
        with chaos.active(plan), pool:
            executor = pool.executor(backend(), conf)
            session = executor.start(Trial(params=params), init_state)
            observed = [session.run_epoch() for _ in range(3)]
            executor.finish_study()
        assert observed == expected
        assert leaked_segments(prefix) == []

    def test_exhausted_retries_surface_the_failure(self, tiny_dataset):
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION)], seed=0
        )
        master, workers = make_study(tiny_dataset, max_trials=1)
        with chaos.active(plan):
            with pytest.raises(RuntimeError, match="failed in worker"):
                run_study_parallel(master, workers, processes=1)


# ----------------------------------------------------------------------
# shared-memory hygiene
# ----------------------------------------------------------------------


class TestShmHygiene:
    def test_clean_shutdown_leaves_no_segments(self, tiny_dataset):
        pool = TrialPool(processes=2)
        prefix = pool.arena.prefix
        master, workers = make_study(tiny_dataset)
        with pool:
            run_study_parallel(master, workers, pool=pool)
            assert leaked_segments(prefix)  # dataset lives in shm mid-study
        assert leaked_segments(prefix) == []

    def test_crashy_study_leaves_no_segments(self, tiny_dataset):
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        pool = TrialPool(processes=2)
        prefix = pool.arena.prefix
        master, workers = make_study(tiny_dataset)
        with pool, chaos.active(plan):
            run_study_parallel(master, workers, pool=pool)
        assert leaked_segments(prefix) == []

    def test_shutdown_sweeps_dead_worker_segments(self, tiny_dataset):
        """A segment published by a worker that died before the parent
        adopted it is collected by the shutdown sweep."""
        from multiprocessing import shared_memory

        pool = TrialPool(processes=1)
        pool.start()
        stray_name = f"{pool.arena.prefix}-dead-0"
        stray = shared_memory.SharedMemory(create=True, name=stray_name, size=64)
        stray.close()
        assert leaked_segments(pool.arena.prefix)
        pool.shutdown()
        assert leaked_segments(pool.arena.prefix) == []
