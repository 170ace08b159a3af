"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests -q

The smoke runs start real child interpreters, so this file takes about
two minutes on a 2-core machine.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import report  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTimes:
    def test_synthetic_tree(self):
        # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]; d [12, 13]
        names = np.array([0, 1, 2, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0, 12.0])
        end = np.array([10.0, 4.0, 3.0, 9.0, 13.0])
        parent = np.array([-1, 0, 1, 0, -1])
        totals = tracing.self_times(names, start, end, parent, 3)
        assert totals["calls"].tolist() == [2, 2, 1]
        assert totals["duration"].tolist() == [11.0, 7.0, 1.0]
        # root self: 10 - (3 + 4) = 3, plus d's 1; a: 3 - 1 = 2, c: 4; b: 1
        assert totals["self"].tolist() == [4.0, 6.0, 1.0]
        assert totals["roots"] == 11.0
        assert totals["self"].sum() == pytest.approx(totals["roots"])

    def test_recorder_nesting_and_request_ids(self):
        clock = FakeClock()
        recorder = tracing.SpanRecorder(clock)
        with recorder.span("outer", rid=7):
            clock.now = 1.0
            with recorder.span("inner"):
                clock.now = 3.0
            clock.now = 4.0
        arrays = recorder.arrays()
        assert arrays["parent"].tolist() == [-1, 0]
        assert arrays["rid"].tolist() == [7, 7]
        summary = tracing.span_summary(recorder)
        assert summary["spans"]["outer"]["self_s"] == pytest.approx(2.0)
        assert summary["spans"]["inner"]["self_s"] == pytest.approx(2.0)
        assert recorder.rid == -1 and recorder.depth == 0

    def test_coroutine_slices_exclude_time_spent_waiting(self):
        recorder = tracing.SpanRecorder()

        async def worker(event):
            await event.wait()
            return 5

        async def main():
            event = asyncio.Event()
            task = asyncio.ensure_future(
                tracing.sliced(recorder, "request", worker(event), rid=3))
            await asyncio.sleep(0.05)
            event.set()
            return await task

        assert asyncio.run(main()) == 5
        arrays = recorder.arrays()
        assert len(arrays["name"]) == 2  # one slice before the wait, one after
        assert set(arrays["rid"].tolist()) == {3}
        assert (arrays["end"] - arrays["start"]).sum() < 0.04

    def _measured_phase(self, uncovered_s: float) -> list[dict]:
        """A traced repetition whose measured phase sleeps ``uncovered_s`` outside any span."""
        recorder = tracing.SpanRecorder()
        start = time.perf_counter()
        with recorder.span("harness.op", rid=0):
            with recorder.span("api.gateway"):
                time.sleep(0.05)
        time.sleep(uncovered_s)
        wall = time.perf_counter() - start
        return [{"layers": {**tracing.span_summary(recorder), "wall_s": wall}}]

    def test_self_time_check_passes_when_spans_cover_the_wall_time(self):
        error = report.self_time_error(self._measured_phase(0.0))
        assert error <= tracing.SELF_TIME_TOLERANCE
        assert report.self_time_problem(error) is None

    def test_self_time_check_fails_on_an_uncovered_sleep(self):
        error = report.self_time_error(self._measured_phase(0.02))
        assert error == pytest.approx(0.02 / 0.07, rel=0.2)
        assert "miss the wall time" in report.self_time_problem(error)

    def test_install_restores_every_patch(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from repro.api.gateway import Gateway
        from repro.tensor import Network

        before = (Gateway.handle, Gateway.handle_async, Network.forward)
        patches = tracing.install(tracing.SpanRecorder())
        assert Gateway.handle is not before[0]
        patches.restore()
        assert (Gateway.handle, Gateway.handle_async, Network.forward) == before


class TestStats:
    def test_tail_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))
        tail = stats.tail(values)
        assert tail["value"] == 90
        assert sum(v > tail["value"] for v in values) == 10
        assert tail["samples"] == 100

    def test_tail_stops_at_the_cap(self):
        values = list(range(1, 2001))
        tail = stats.tail(values)
        assert tail["percentile"] == stats.TAIL_CAP
        assert tail["value"] == 20 * stats.TAIL_CAP
        assert stats.tail([3.0] * 5) == {"value": 3.0, "percentile": 100.0, "samples": 5}
        # Uncapped, the tail keeps exactly ten samples beyond it.
        assert stats.tail(values, cap=100.0)["value"] == 1990

    def test_repeated_tail_takes_the_median_repetition(self):
        steady = list(range(100))
        stalled = steady[:-12] + [1000.0] * 12
        tail = stats.repeated_tail([steady, stalled, steady])
        assert tail["value"] == 89 and tail["over"].startswith("upper median")
        # Too few samples per repetition for a tail of its own: pooled.
        pooled = stats.repeated_tail([[1.0], [2.0], [3.0]])
        assert pooled["value"] == 3.0 and pooled["over"] == "pooled over the repetitions"

    def test_quartile_spread(self):
        assert stats.quartile_spread([1.0] * 5) == 0.0
        assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) > 0.0


class TestNames:
    def test_benchmark_json_lists_the_workloads_run_py_runs(self):
        assert [w["name"] for w in _benchmark_json()["workloads"]] == list(run.REPETITIONS)

    def test_a_metric_missing_from_benchmark_json_or_the_code_is_an_error(self):
        names = [m["name"] for m in _benchmark_json()["end_to_end"]]
        values = {name: 1.0 for name in names}
        assert list(report._exactly_listed(values, "end_to_end")) == names
        with pytest.raises(KeyError, match="not listed: \\['extra'\\]"):
            report._exactly_listed({**values, "extra": 1.0}, "end_to_end")
        with pytest.raises(KeyError, match="not computed: \\['setup_s'\\]"):
            report._exactly_listed({k: v for k, v in values.items() if k != "setup_s"},
                                   "end_to_end")


def _run(workload: str, seed: int, seconds: float, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["serve-open", "serve-hot", "train", "sql-analytics"])
def test_smoke_run_passes_its_checks_and_prints_the_named_metrics(workload):
    completed = _run(workload, seed=5, seconds=1.5, trace=0)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark_json()
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for metric in bench["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    completed = _run("serve-hot", seed=2, seconds=1.5, trace=1)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.self_time_error"] <= tracing.SELF_TIME_TOLERANCE
    assert metrics["api.gateway.calls"] == pytest.approx(1.0)
    assert metrics["core.serve.pred_cache.hit_ratio"] > 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    completed = _run("serve-hot", seed=1, seconds=1, trace=0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
