"""Spans around each layer's public entry points, kept in memory.

The traced run wraps the functions where one layer calls the next with
spans, from the benchmark's own files: ``src/`` is never edited. Every
span records its name, start, end, parent span and request id. A
layer's *self time* is its span's duration minus the durations of its
direct child spans (:func:`self_times`), so the self times of all spans
add up to the total duration of the root spans; the harness checks that
this total matches the measured wall time.

Coroutines (the async gateway path and the front end's dispatcher) are
traced slice by slice: each resumption of the coroutine on the event
loop is one span, so a request that waits in a queue is not charged
for the work other requests do meanwhile.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

#: tolerance on |sum of every span's self time - measured wall time| / wall.
SELF_TIME_TOLERANCE = 0.02


class SpanRecorder:
    """Append-only span log with a stack of the spans currently open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.rids = array("q")
        self._stack: list[int] = []
        #: request id stamped on spans opened now (-1: no request).
        self.rid = -1
        #: named counts recorded at span boundaries (bytes, rows, hits).
        self.counts: dict[str, float] = defaultdict(float)
        #: named samples recorded at span boundaries (queue waits, ...).
        self.samples: dict[str, list[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        """The integer id spans of ``name`` are stored under."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        """Open a span as a child of the innermost open span."""
        index = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rids.append(self.rid)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self) -> None:
        """Close the innermost open span."""
        now = self.clock()
        self.ends[self._stack.pop()] = now

    @property
    def depth(self) -> int:
        """Number of spans currently open."""
        return len(self._stack)

    def span(self, name: str, rid: int | None = None) -> "_SpanContext":
        """Context manager for a span (harness use; wrappers inline it)."""
        return _SpanContext(self, self.name_id(name), rid)

    def arrays(self) -> dict[str, np.ndarray]:
        """The span log as NumPy arrays (closed spans only)."""
        count = len(self.ends)
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32, count=count).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64, count=count).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64, count=count).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32, count=count).copy(),
            "rid": np.frombuffer(self.rids, dtype=np.int64, count=count).copy(),
        }

    def save(self, path: str) -> None:
        """Write the span log (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name_id: int, rid: int | None):
        self.recorder = recorder
        self.name_id = name_id
        self.rid = rid
        self._saved_rid = -1

    def __enter__(self):
        if self.rid is not None:
            self._saved_rid = self.recorder.rid
            self.recorder.rid = self.rid
        self.recorder.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.recorder.close()
        if self.rid is not None:
            self.recorder.rid = self._saved_rid
        return False


def self_times(name: np.ndarray, start: np.ndarray, end: np.ndarray,
               parent: np.ndarray, num_names: int) -> dict[str, np.ndarray]:
    """Per-name call count, total duration and total self time.

    A span's self time is its duration minus the summed durations of
    the spans whose parent it is. Returns arrays indexed by name id,
    plus ``roots`` (the summed duration of spans without a parent).
    """
    duration = end - start
    child = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    own = duration - child
    return {
        "calls": np.bincount(name, minlength=num_names),
        "duration": np.bincount(name, weights=duration, minlength=num_names),
        "self": np.bincount(name, weights=own, minlength=num_names),
        "roots": float(duration[~has_parent].sum()),
    }


def span_summary(recorder: SpanRecorder) -> dict:
    """JSON-ready per-name totals of a recorder's closed spans."""
    arrays = recorder.arrays()
    totals = self_times(arrays["name"], arrays["start"], arrays["end"],
                        arrays["parent"], len(recorder.names))
    spans = {
        name: {
            "calls": int(totals["calls"][i]),
            "dur_s": float(totals["duration"][i]),
            "self_s": float(totals["self"][i]),
        }
        for i, name in enumerate(recorder.names)
    }
    return {"spans": spans}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


class _Restorer:
    """Remembers every attribute a tracer replaced, to undo them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._undo: list = []

    def replace(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def on_restore(self, undo) -> None:
        """Call ``undo()`` on restore (for wrappers held outside attributes)."""
        self._undo.append(undo)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)
        while self._undo:
            self._undo.pop()()


def traced(recorder: SpanRecorder, name: str, fn, before=None):
    """``fn`` wrapped in a span; ``before(*args, **kwargs)`` runs first."""
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close()

    return wrapper


class _SlicedAwaitable:
    """Runs a coroutine with one span per slice it executes."""

    __slots__ = ("coro", "recorder", "name_id", "rid")

    def __init__(self, coro, recorder: SpanRecorder, name_id: int, rid: int | None):
        self.coro = coro
        self.recorder = recorder
        self.name_id = name_id
        self.rid = rid

    def __await__(self):
        recorder, coro = self.recorder, self.coro
        value, error = None, None
        while True:
            saved_rid = recorder.rid
            if self.rid is not None:
                recorder.rid = self.rid
            recorder.open(self.name_id)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.close()
                recorder.rid = saved_rid
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def traced_async(recorder: SpanRecorder, name: str, fn, before=None):
    """Coroutine function ``fn`` wrapped so each slice it runs is a span."""
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        return _SlicedAwaitable(fn(*args, **kwargs), recorder, name_id, None)

    return wrapper


def sliced(recorder: SpanRecorder, name: str, coro, rid: int):
    """Await ``coro`` as request ``rid`` under a sliced span ``name``."""
    return _SlicedAwaitable(coro, recorder, recorder.name_id(name), rid)


def _state_bytes(state) -> int:
    return sum(getattr(value, "nbytes", 0) for value in state.values())


def install(recorder: SpanRecorder) -> _Restorer:
    """Wrap every layer boundary the per-layer metrics read.

    Returns the restorer that undoes the patches. Functions another
    module imported by name are patched where that module looks them
    up (``majority_vote`` in ``repro.core.system``, ``build_plan`` in
    ``repro.sqlext.exec``).
    """
    import repro.api.sdk as sdk
    import repro.core.system as system_module
    import repro.sqlext.exec as sql_exec
    import repro.sqlext.optimizer as sql_optimizer
    from repro.api.gateway import Gateway
    from repro.cluster import ClusterManager
    from repro.core.serve.frontend import AsyncServeFrontend, ServeFrontend
    from repro.core.serve.pred_cache import PredictionCache
    from repro.core.system import Rafiki
    from repro.core.tune import backends
    from repro.core.tune.advisors.base import TrialAdvisor
    from repro.core.tune.advisors.bayesian import BayesianAdvisor
    from repro.data import DataStore
    from repro.paramserver import ParameterServer
    from repro.sqlext.engine import Database
    from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
    from repro.tenancy import TenantRegistry
    from repro.tensor import Network

    patches = _Restorer()
    counts, samples = recorder.counts, recorder.samples

    def wrap(owner, attribute, name, before=None):
        patches.replace(owner, attribute,
                        traced(recorder, name, getattr(owner, attribute), before))

    # api
    wrap(sdk, "query", "api.sdk")
    def size_body(self, method, path, body=None, *args, **kwargs):
        # Sample one call in eight; the sizing runs in its own harness
        # span so no layer is charged for it.
        counts["gateway.calls"] += 1
        if body is not None and counts["gateway.calls"] % 8 == 1:
            with recorder.span("harness.sizing"):
                import json

                counts["gateway.body_bytes"] += len(json.dumps(body))
                counts["gateway.body_samples"] += 1

    wrap(Gateway, "handle", "api.gateway", before=size_body)
    patches.replace(Gateway, "handle_async", traced_async(
        recorder, "api.gateway", Gateway.handle_async, before=size_body))
    wrap(TenantRegistry, "resolve", "tenancy.resolve")

    # core.serve
    wrap(ServeFrontend, "offer", "core.serve.frontend.offer")
    wrap(ServeFrontend, "poll", "core.serve.frontend.poll")
    patches.replace(AsyncServeFrontend, "submit", traced_async(
        recorder, "core.serve.frontend.submit", AsyncServeFrontend.submit))

    def on_execute(self, plan):
        now = self._loop.time()
        samples["queue_wait_ms"].extend(1000.0 * (now - r.arrival) for r in plan.requests)
        samples["batch_size"].append(len(plan.requests))

    patches.replace(AsyncServeFrontend, "_execute", traced_async(
        recorder, "core.serve.frontend.execute", AsyncServeFrontend._execute,
        before=on_execute))

    def cache_lookup(self, data):
        counts["pred_cache.lookups"] += 1

    def cache_batch(self, batch, *args, **kwargs):
        counts["pred_cache.lookups"] += len(batch)

    for attribute, before in (("query", cache_lookup), ("query_batch", cache_batch)):
        original = getattr(PredictionCache, attribute)

        def counted(self, *args, _original=original, **kwargs):
            hits = self.hits
            result = _original(self, *args, **kwargs)
            counts["pred_cache.hits"] += self.hits - hits
            return result

        patches.replace(PredictionCache, attribute, traced(
            recorder, "core.serve.pred_cache", functools.wraps(original)(counted), before))

    # core.system
    def query_rows(self, job_id, data):
        counts["system.query.rows"] += 1 if np.ndim(data) == 3 else len(data)

    wrap(Rafiki, "query", "core.system.query", before=query_rows)
    for method in ("create_train_job", "create_inference_job", "get_models",
                   "import_images", "stop_inference_job"):
        wrap(Rafiki, method, f"core.system.{method}")
    wrap(system_module, "majority_vote", "zoo.vote")

    # tensor
    forward = Network.forward
    infer_id = recorder.name_id("tensor.infer")
    train_fwd_id = recorder.name_id("tensor.train.fwd")

    @functools.wraps(forward)
    def traced_forward(self, x, training=False):
        if not training:
            counts["tensor.infer.rows"] += len(x)
        recorder.open(train_fwd_id if training else infer_id)
        try:
            return forward(self, x, training)
        finally:
            recorder.close()

    patches.replace(Network, "forward", traced_forward)
    wrap(Network, "backward", "tensor.train.bwd")

    # core.tune
    wrap(system_module, "run_study", "core.tune")
    wrap(backends._RealSession, "run_epoch", "core.tune.epoch")
    wrap(backends.RealTrainer, "start", "core.tune.start")
    wrap(TrialAdvisor, "next", "core.tune.advisor")
    for method in ("propose", "collect"):
        wrap(BayesianAdvisor, method, "core.tune.advisor")

    # paramserver
    def put_bytes(self, key, state, *args, **kwargs):
        counts["paramserver.put.bytes"] += _state_bytes(state)

    wrap(ParameterServer, "put", "paramserver.put", before=put_bytes)
    get = ParameterServer.get

    def counted_get(self, key, version=None):
        state = get(self, key, version)
        counts["paramserver.get.bytes"] += _state_bytes(state)
        return state

    patches.replace(ParameterServer, "get",
                    traced(recorder, "paramserver.get", functools.wraps(get)(counted_get)))

    # data, cluster
    def blob_bytes(self, path, blob):
        counts["data.blob.put.bytes"] += len(blob)

    wrap(DataStore, "import_images", "data.import")
    wrap(DataStore, "put_blob", "data.blob.put", before=blob_bytes)
    wrap(DataStore, "get_blob", "data.blob.get")
    wrap(ClusterManager, "submit_job", "cluster.submit")

    # sqlext
    wrap(Database, "execute", "sqlext.execute")
    wrap(sql_exec, "build_plan", "sqlext.plan")
    wrap(sql_optimizer, "optimize_plan", "sqlext.plan")

    # telemetry: registry lookups and every update
    for method in ("counter", "gauge", "histogram"):
        wrap(MetricsRegistry, method, "telemetry")
    wrap(Counter, "inc", "telemetry")
    for method in ("set", "inc", "dec"):
        wrap(Gauge, method, "telemetry")
    for method in ("observe", "observe_many"):
        wrap(Histogram, method, "telemetry")
    return patches
