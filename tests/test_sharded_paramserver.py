"""Tests for the sharded, replicated parameter-server data plane."""

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.cluster import ClusterManager, Node
from repro.cluster.node import Resources
from repro.exceptions import (
    ConfigurationError,
    ParameterNotFoundError,
    ParameterServerError,
)
from repro.paramserver import ParameterServer, ShardedParameterServer


def state(value: float, shape=(4, 4)) -> dict:
    return {"layer/W": np.full(shape, value), "layer/b": np.full(shape[0], value)}


def seeded_states(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.standard_normal((8, 8)), "b": rng.standard_normal(8)}
        for _ in range(n)
    ]


@pytest.fixture()
def cluster():
    manager = ClusterManager()
    for i in range(3):
        manager.add_node(
            Node(f"n{i}", capacity=Resources(cpus=16, gpus=2, memory_gb=64))
        )
    return manager


class TestRingAndReplication:
    def test_replicas_clamped_to_shards(self):
        sps = ShardedParameterServer(shards=2, replicas=5)
        assert sps.replicas == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedParameterServer(shards=0)
        with pytest.raises(ConfigurationError):
            ShardedParameterServer(shards=2, replicas=0)

    def test_every_key_lands_on_replicas_distinct_shards(self):
        sps = ShardedParameterServer(shards=4, replicas=2)
        for i in range(30):
            sps.put(f"k{i}", state(float(i)))
        for i in range(30):
            holders = sps._directory[f"k{i}"]
            assert len(holders) == 2
            assert len(set(holders)) == 2

    def test_keys_spread_across_shards(self):
        sps = ShardedParameterServer(shards=4, replicas=1)
        for i in range(64):
            sps.put(f"k{i}", state(float(i)))
        loads = [len([k for k, h in sps._directory.items() if s.name in h])
                 for s in sps.shards]
        assert all(load > 0 for load in loads)

    def test_preference_order_is_stable(self):
        a = ShardedParameterServer(shards=4, replicas=2)
        b = ShardedParameterServer(shards=4, replicas=2)
        for key in ("alpha", "beta", "gamma"):
            assert [s.name for s in a._preference(key)] == [
                s.name for s in b._preference(key)
            ]

    def test_versions_consistent_across_replicas(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        for _ in range(3):
            sps.put("k", state(1.0))
        assert sps.versions("k") == 3
        for name in sps._directory["k"]:
            assert sps._by_name[name].server.versions("k") == 3


class TestEquivalenceWithSingleServer:
    def test_same_seed_bit_identical_gets(self):
        """shards=3 answers bit-for-bit what the single server answers."""
        plain = ParameterServer()
        sharded = ShardedParameterServer(shards=3, replicas=2)
        states = seeded_states(42, 12)
        for i, s in enumerate(states):
            plain.put(f"k{i}", s, performance=float(i), model="m", dataset="d")
            sharded.put(f"k{i}", s, performance=float(i), model="m", dataset="d")
        for i in range(12):
            a, b = plain.get(f"k{i}"), sharded.get(f"k{i}")
            assert sorted(a) == sorted(b)
            for name in a:
                assert a[name].tobytes() == b[name].tobytes()
            ea, eb = plain.get_entry(f"k{i}"), sharded.get_entry(f"k{i}")
            assert (ea.version, ea.performance) == (eb.version, eb.performance)

    def test_find_pretrained_matches_single_server(self):
        plain = ParameterServer()
        sharded = ShardedParameterServer(shards=3, replicas=2)
        for ps in (plain, sharded):
            ps.put("a", state(1.0), model="r", dataset="c1", performance=0.9)
            ps.put("b", state(2.0), model="r", dataset="c2", performance=0.95,
                   public=False)
            ps.put("c", state(3.0), model="r", dataset="c3", performance=0.8)
        ea = plain.find_pretrained("r", exclude_dataset="c1")
        eb = sharded.find_pretrained("r", exclude_dataset="c1")
        assert ea.dataset == eb.dataset == "c3"

    def test_keys_and_has_match(self):
        plain = ParameterServer()
        sharded = ShardedParameterServer(shards=3, replicas=2)
        for ps in (plain, sharded):
            for key in ("z", "a", "m"):
                ps.put(key, state(1.0))
        assert sharded.keys() == plain.keys()
        assert sharded.has("a") and not sharded.has("q")


class TestShardDeathAndRecovery:
    def test_kill_loses_nothing_with_replication(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        states = seeded_states(7, 15)
        for i, s in enumerate(states):
            sps.put(f"k{i}", s)
        before = {f"k{i}": sps.get(f"k{i}") for i in range(15)}
        sps.kill_shard("ps-0")
        audit = sps.audit()
        assert audit["keys_lost"] == 0
        assert not audit["under_replicated"] and not audit["divergent"]
        for key, value in before.items():
            after = sps.get(key)
            for name in value:
                assert value[name].tobytes() == after[name].tobytes()

    def test_kill_without_replication_loses_keys(self):
        sps = ShardedParameterServer(shards=3, replicas=1)
        for i in range(12):
            sps.put(f"k{i}", state(float(i)))
        held = [k for k, h in sps._directory.items() if "ps-1" in h]
        assert held  # 12 keys over 3 shards: each holds some
        sps.kill_shard("ps-1")
        assert sps.keys_lost == len(held)
        for key in held:
            assert not sps.has(key)
            with pytest.raises(ParameterNotFoundError):
                sps.get(key)

    def test_revive_resyncs_ring_range(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        for i in range(12):
            sps.put(f"k{i}", state(float(i)))
        sps.kill_shard("ps-2")
        sps.revive_shard("ps-2")
        audit = sps.audit()
        assert not audit["under_replicated"] and not audit["divergent"]
        # the revived shard holds (full histories of) its ring range again
        assert any("ps-2" in h for h in sps._directory.values())

    def test_all_shards_dead_raises(self):
        sps = ShardedParameterServer(shards=2, replicas=2)
        sps.put("k", state(1.0))
        sps.kill_shard("ps-0")
        sps.kill_shard("ps-1")
        with pytest.raises((ParameterServerError, ParameterNotFoundError)):
            sps.get("k")
        with pytest.raises(ParameterServerError):
            sps.put("j", state(2.0))

    def test_repair_heals_degraded_writes(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        victim = sps._directory["k"][0]
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{victim}.push", FaultKind.EXCEPTION)],
            seed=3,
        )
        previous = chaos.set_plan(plan)
        try:
            sps.put("k", state(2.0))
        finally:
            chaos.set_plan(previous)
        assert sps.audit()["under_replicated"] == ["k"]
        assert sps.repair() >= 1
        audit = sps.audit()
        assert not audit["under_replicated"] and not audit["divergent"]
        # the healed replica serves the latest version
        assert sps._by_name[victim].server.get_entry("k").version == 2


class TestFailoverAndBreakers:
    def test_read_fails_over_to_replica(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(5.0))
        primary = next(
            s.name for s in sps._preference("k") if s.name in sps._directory["k"]
        )
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{primary}.pull", FaultKind.EXCEPTION)],
            seed=1,
        )
        previous = chaos.set_plan(plan)
        try:
            np.testing.assert_allclose(sps.get("k")["layer/W"], 5.0)
        finally:
            chaos.set_plan(previous)
        failovers = telemetry.get_registry().counter(
            "repro_paramserver_failovers_total", "x"
        )
        assert failovers.value(shard=primary, op="pull") >= 1

    def test_breaker_opens_and_skips_failing_shard(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        primary = next(
            s.name for s in sps._preference("k") if s.name in sps._directory["k"]
        )
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{primary}.pull", FaultKind.EXCEPTION)],
            seed=1,
        )
        previous = chaos.set_plan(plan)
        try:
            for _ in range(4):
                sps.get("k")
        finally:
            chaos.set_plan(previous)
        assert sps._by_name[primary].breaker.state == "open"
        # with the breaker open the faulty shard is not even attempted
        errors = telemetry.get_registry().counter(
            "repro_paramserver_shard_requests_total", "x"
        )
        before = errors.value(shard=primary, op="pull", outcome="error")
        sps.get("k")
        assert errors.value(shard=primary, op="pull", outcome="error") == before

    def test_put_survives_one_failing_replica(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        victim = sps._directory["k"][0]
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{victim}.push", FaultKind.EXCEPTION)],
            seed=2,
        )
        previous = chaos.set_plan(plan)
        try:
            entry = sps.put("k", state(2.0))
        finally:
            chaos.set_plan(previous)
        assert entry.version == 2
        np.testing.assert_allclose(sps.get("k")["layer/W"], 2.0)


class TestClusterIntegration:
    def test_shards_placed_on_distinct_nodes(self, cluster):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.register_with_cluster(cluster)
        nodes = {
            cluster.containers[s.container_id].node_name for s in sps.shards
        }
        assert len(nodes) == 3

    def test_node_failure_rereplicates_and_recovers(self, cluster):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.register_with_cluster(cluster)
        for i in range(12):
            sps.put(f"k{i}", state(float(i)))
        victim = sps.shards[0]
        node = cluster.containers[victim.container_id].node_name
        cluster.fail_node(node)
        audit = sps.audit()
        assert audit["keys_lost"] == 0
        assert not audit["under_replicated"] and not audit["divergent"]
        assert victim.alive and victim.deaths == 1
        for i in range(12):
            np.testing.assert_allclose(sps.get(f"k{i}")["layer/W"], float(i))

    def test_detect_failures_notices_dead_shard(self, cluster, manual_clock):
        clock = manual_clock
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.register_with_cluster(cluster)
        sps.put("k", state(1.0))
        victim_node = cluster.containers[sps.shards[1].container_id].node_name
        for node in cluster.nodes.values():
            cluster.heartbeat(node.name)
        clock.advance(120.0)
        for node in cluster.nodes.values():
            if node.name != victim_node:
                cluster.heartbeat(node.name)
        failed = cluster.detect_failures(timeout=60.0)
        assert victim_node in failed
        audit = sps.audit()
        assert audit["keys_lost"] == 0 and not audit["divergent"]

    def test_double_registration_rejected(self, cluster):
        sps = ShardedParameterServer(shards=2, replicas=2)
        sps.register_with_cluster(cluster)
        with pytest.raises(ConfigurationError):
            sps.register_with_cluster(cluster)


class TestTelemetry:
    def test_per_shard_push_labels(self):
        sps = ShardedParameterServer(shards=2, replicas=1)
        for i in range(8):
            sps.put(f"k{i}", state(float(i)))
        pushes = telemetry.get_registry().counter(
            "repro_paramserver_push_total", "x"
        )
        total = sum(pushes.value(shard=s.name) for s in sps.shards)
        assert total == 8

    def test_live_shards_gauge_tracks_kills(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        gauge = telemetry.get_registry().gauge("repro_paramserver_shards_live", "x")
        assert gauge.value() == 3
        sps.kill_shard("ps-0")
        assert gauge.value() == 2
        sps.revive_shard("ps-0")
        assert gauge.value() == 3


@pytest.mark.chaos
class TestShardKillScenario:
    def test_shard_kill_mid_study_loses_nothing(self):
        from repro.chaos.scenarios import run_scenario

        result = run_scenario("shard-kill", seed=0)
        assert result["victim"]["deaths"] >= 1
        audit = result["audit"]
        assert audit["keys_lost"] == 0
        assert not audit["under_replicated"] and not audit["divergent"]
        assert audit["rereplications"] > 0
        assert result["stale"] == []
        assert result["results"]["trials"] >= 16
