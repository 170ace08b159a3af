"""The benchmark's four workloads, driven through public entry points only.

Each workload runs in a fresh interpreter (see ``child.py``): ``setup``
builds the system and everything the measured phase needs, ``measure``
runs the timed phase, and ``check`` runs the untimed output checks and
returns a JSON-ready result. Nothing under ``src/`` is modified; the traced run
wraps layer entry points from :mod:`tracing`.

* ``serve-open``: open-loop Poisson traffic at fixed rates into
  ``Gateway.handle_async`` with an attached ``AsyncServeFrontend``.
* ``serve-hot``: one closed-loop SDK caller over a Zipf-skewed hot set
  that fits the prediction cache, mixed with unseen images.
* ``train``: the SDK journey import -> Train -> get_models -> Inference.
* ``sql-analytics``: ``POST /sql`` statements whose ensemble UDF sees
  image paths repeat over a pool larger than the UDF cache.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import selectors
import time
from dataclasses import dataclass

import numpy as np

import inputs
import tracing

import repro.api.sdk as sdk
from repro.api.gateway import make_query_executor
from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig
from repro.core.system import Rafiki
from repro.core.tune import HyperConf
from repro.sqlext import Column, Database, make_batched_inference_udf, make_inference_udf
from repro.zoo import majority_vote

#: system seed: part of each workload's definition, like the class
#: templates, so the run seed varies only the inputs and the traffic.
SYSTEM_SEED = 0
TEMPLATE_SEED = 7
#: the served ensemble's training data is fixed too: the run seed draws
#: the traffic it serves, not the model.
SERVE_DATA_SEED = 5


@dataclass(frozen=True)
class JourneyConfig:
    """Data and tuning budget of one import -> train -> deploy journey."""

    classes: int
    difficulty: float
    images: int
    max_trials: int
    max_epochs: int


#: the ensemble the serving workloads deploy: an easy task, tuned briefly.
SERVE_JOURNEY = JourneyConfig(classes=4, difficulty=0.8, images=400, max_trials=2, max_epochs=4)
#: the train workload: hard enough that validation accuracy stays well
#: below 1.0 (the quickstart data saturates at 1.000).
TRAIN_JOURNEY = JourneyConfig(classes=4, difficulty=1.8, images=1000, max_trials=6, max_epochs=4)
#: extra POST /inference deploys timed after each journey's own.
EXTRA_DEPLOYS = 19

#: serve-open: fixed offered rates (requests/s), the SLO and c(b). At
#: the top rate the event loop is about two thirds busy on a 2-core
#: machine, so a slower commit misses the SLO there first.
OPEN_RATES = (250.0, 500.0, 1000.0)
OPEN_TAU = 0.05
OPEN_BATCH_SIZES = (1, 8, 16, 32, 64)
#: the batcher's per-batch latency model, fixed here rather than
#: profiled per run (profiled cards moved ~2x between runs).
OPEN_C0, OPEN_C1 = 0.002, 0.0001
#: a rate passes when p99 <= 2 * tau, under 1% fails and no backlog growth;
#: the backlog grows when mean in-flight requests rise by more than this
#: between the second and the last quarter of the rate's window.
BACKLOG_GROWTH_LIMIT = 32.0
OPEN_CLIENTS = 8

#: serve-hot: hot-set size (fits the prediction cache), Zipf skew over
#: it, the share of requests carrying an unseen image, and the served
#: job's prediction cache entries (Rafiki's default). With one unseen
#: image in ten, the tail (p95) is the median latency of a cache miss.
HOT_SET = 256
HOT_SKEW = 1.1
UNSEEN_SHARE = 0.1
PRED_CACHE = 1024

#: sql-analytics: the table is the grid of calorie values by kinds; its
#: rows' image paths repeat with Zipf skew over a pool. The rows hold
#: 1159 distinct paths, half again the UDF cache's entries, so each of
#: the distinct statements both hits and misses the cache.
SQL_CALORIES = 1000
SQL_KINDS = 4
SQL_ROWS = SQL_CALORIES * SQL_KINDS
SQL_POOL = 2000
SQL_SKEW = 1.0
SQL_STATEMENTS = 12
SQL_UDF_CACHE = 768


def c_of_b(batch: int) -> float:
    """The fixed per-batch service time model the batcher plans with."""
    return OPEN_C0 + OPEN_C1 * batch


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class TimedSelector(selectors.DefaultSelector):
    """The event loop's selector: polls while it waits and times how long the loop sat idle."""

    def __init__(self):
        super().__init__()
        self.idle_s = 0.0
        self.recorder: tracing.SpanRecorder | None = None

    def select(self, timeout=None):
        recorder = self.recorder
        if recorder is not None:
            recorder.open(recorder.name_id("harness.idle"))
        start = time.perf_counter()
        try:
            # Poll rather than sleep, so the loop's core stays awake and
            # warm between requests (see the README, serve-open).
            events = super().select(0)
            until = None if timeout is None else start + timeout
            while not events and (until is None or time.perf_counter() < until):
                events = super().select(0)
            return events
        finally:
            self.idle_s += time.perf_counter() - start
            if recorder is not None:
                recorder.close()


class Workload:
    """Shared set-up: a fresh system, the SDK bound to it, and a journey."""

    name = ""
    #: the journey whose deploy serves this workload's traffic (None: the
    #: journey itself is the measured operation).
    serve_journey: JourneyConfig | None = SERVE_JOURNEY

    def __init__(self, seed: int, seconds: float, workdir: str, repetition: int):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        # Each repetition of a run serves its own traffic, so a run's
        # accuracy rests on four times the distinct images.
        self.rng = np.random.default_rng([seed, 11, repetition])
        self.recorder: tracing.SpanRecorder | None = None
        #: what :meth:`journey` returned (set-up's journey, or train's measured one).
        self.journey_info: dict = {}
        self.system: Rafiki | None = None
        self.gateway = None
        self.job_id = ""

    # ------------------------------------------------------------------

    def setup(self) -> None:
        self.system = Rafiki(seed=SYSTEM_SEED)
        self.gateway = sdk.connect(self.system)
        if self.serve_journey is not None:
            directory = self.write_dataset(self.serve_journey, "serve", SERVE_DATA_SEED)
            self.journey_info = self.journey(self.serve_journey, "serve", directory)
            self.job_id = self.journey_info["infer_id"]
            job = self.system.get_inference_job(self.job_id)
            self.networks = job.networks
            self.accuracies = np.array([spec.performance for spec in job.specs])
            self.templates = inputs.templates(self.serve_journey.classes, TEMPLATE_SEED)
            self._reference: dict[int, int] = {}

    def write_dataset(self, config: JourneyConfig, name: str, data_seed: int) -> str:
        """Write the journey's labelled ``.npy`` directory; returns its path."""
        data_rng = np.random.default_rng([data_seed, 3])
        images, labels = inputs.draw_images(
            data_rng, inputs.templates(config.classes, TEMPLATE_SEED),
            config.images, config.difficulty,
        )
        directory = os.path.join(self.workdir, name)
        inputs.write_npy_tree(directory, images, labels)
        return directory

    def journey(self, config: JourneyConfig, name: str, directory: str) -> dict:
        """import -> Train -> get_models -> Inference through the SDK."""
        start = time.perf_counter()
        dataset = sdk.import_images(directory, name=name)
        train_start = time.perf_counter()
        job_id = sdk.Train(
            name=name, data=dataset, task="ImageClassification",
            input_shape=inputs.IMAGE_SHAPE, output_shape=(config.classes,),
            hyper=HyperConf(max_trials=config.max_trials,
                            max_epochs_per_trial=config.max_epochs),
        ).run()
        train_call_s = time.perf_counter() - train_start
        models = sdk.get_models(job_id)
        deploy_start = time.perf_counter()
        infer_id = sdk.Inference(models).run()
        deploys_ms = [1000.0 * (time.perf_counter() - deploy_start)]
        train_s = time.perf_counter() - start
        for _ in range(EXTRA_DEPLOYS):
            deploy_start = time.perf_counter()
            extra = sdk.Inference(models).run()
            deploys_ms.append(1000.0 * (time.perf_counter() - deploy_start))
            self.gateway.handle("DELETE", f"/inference/{extra}")
        status = self.gateway.handle("GET", f"/train/{job_id}").body
        info = self.system.get_train_job(job_id)
        reports = {model: info.reports[model] for model in status["models"]}
        epochs = sum(report.total_epochs for report in reports.values())
        useful = sum(
            1
            for report in reports.values()
            for before, entry in zip([0.0] + [h.best_so_far for h in report.history],
                                     report.history)
            if entry.best_so_far > before
        )
        trials = sum(len(report.results) for report in reports.values())
        return {
            "infer_id": infer_id,
            "train_s": train_s,
            "train_call_s": train_call_s,
            "epochs": epochs,
            "epochs_per_s": epochs / train_call_s,
            "deploys_ms": deploys_ms,
            "best_performance": status["best_performance"],
            "trials": trials,
            "useful_trials": useful,
            "fingerprint": _digest({
                "models": status["models"],
                "best": status["best_performance"],
                "epochs": {m: r.total_epochs for m, r in reports.items()},
            }),
        }

    # ------------------------------------------------------------------
    # output checks

    def reference_label(self, key: int, image: np.ndarray) -> int:
        """The ensemble's label for one image, computed one at a time."""
        if key not in self._reference:
            votes = np.vstack([net.predict_labels(image[None, ...]) for net in self.networks])
            self._reference[key] = int(majority_vote(votes, self.accuracies)[0])
        return self._reference[key]

    # ------------------------------------------------------------------

    def start_trace(self, recorder: tracing.SpanRecorder):
        self.recorder = recorder
        return tracing.install(recorder)

    def measure(self) -> None:
        """Run the timed phase, keeping raw outcomes for :meth:`check`."""
        raise NotImplementedError

    def check(self) -> dict:
        """Untimed output checks over the measured phase; the child's result."""
        raise NotImplementedError

    def layer_extras(self) -> dict:
        """Per-layer counts read from the system rather than from spans."""
        store = self.system.store
        physical = sum(node.stored_bytes for node in store.blocks.nodes)
        unique = physical / max(1, store.blocks.replicas)
        ps_cache = self.system.param_server.cache
        return {
            "dedup_ratio": store.fs.logical_bytes() / unique if unique else 0.0,
            "ps_cache_hits": ps_cache.hits,
            "ps_cache_lookups": ps_cache.hits + ps_cache.misses,
        }


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------


class ServeHot(Workload):
    """Closed loop of ``repro.api.sdk.query`` calls over a hot set."""

    name = "serve-hot"

    def setup(self) -> None:
        super().setup()
        difficulty = self.serve_journey.difficulty
        self.hot, self.hot_y = inputs.draw_images(self.rng, self.templates, HOT_SET, difficulty)
        # Room for 10k queries a second; -1 marks an unseen image.
        count = int(self.seconds * 10_000) + 100
        self.schedule = np.where(
            self.rng.random(count) < UNSEEN_SHARE,
            -1,
            inputs.zipf_indices(self.rng, count, HOT_SET, HOT_SKEW),
        )
        self.unseen, self.unseen_y = inputs.draw_images(
            self.rng, self.templates, int(np.sum(self.schedule < 0)), difficulty)
        # Fill the cache before timing, first with images the run never
        # sends again and then with the hot set, so every unseen image
        # of the measured phase evicts an entry, from the first one on.
        filler, _ = inputs.draw_images(self.rng, self.templates, PRED_CACHE - HOT_SET,
                                       difficulty)
        for image in (*filler, *self.hot):
            sdk.query(self.job_id, {"img": image})

    def measure(self) -> None:
        latencies, served = [], []
        next_unseen = 0
        query = self.job_id
        recorder = self.recorder
        end = time.perf_counter() + self.seconds
        start = time.perf_counter()
        for op, pick in enumerate(self.schedule):
            if time.perf_counter() >= end:
                break
            if recorder is not None:
                # The op's span covers the harness's bookkeeping too, so
                # the loop leaves next to no wall time outside a span.
                recorder.rid = op
                recorder.open(recorder.name_id("harness.op"))
            if pick < 0:
                key, image = HOT_SET + next_unseen, self.unseen[next_unseen]
                next_unseen += 1
            else:
                key, image = int(pick), self.hot[pick]
            t0 = time.perf_counter()
            result = sdk.query(query, {"img": image})
            latencies.append(1000.0 * (time.perf_counter() - t0))
            served.append((key, int(result["label"])))
            if recorder is not None:
                recorder.close()
                recorder.rid = -1
        self._raw = (latencies, served, time.perf_counter() - start)

    def _image(self, key: int):
        if key < HOT_SET:
            return self.hot[key], int(self.hot_y[key])
        return self.unseen[key - HOT_SET], int(self.unseen_y[key - HOT_SET])

    def check(self) -> dict:
        latencies, served, wall = self._raw
        wrong = 0
        labels: dict[int, int] = {}
        for key, label in served:
            image, _ = self._image(key)
            wrong += label != self.reference_label(key, image)
            labels[key] = label
        # Accuracy counts each distinct image once, so a popular image
        # does not weigh more than a rare one.
        correct = sum(label == self._image(key)[1] for key, label in labels.items())
        return {
            "ops": len(served),
            "attempted": len(served),
            "failed": wrong,
            "wrong": wrong,
            "latencies_ms": latencies,
            "wall_s": wall,
            "labelled": len(labels),
            "correct": correct,
        }


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------


class ServeOpen(Workload):
    """Open-loop Poisson arrivals at fixed rates into ``handle_async``."""

    name = "serve-open"

    def setup(self) -> None:
        super().setup()
        per_rate = self.seconds / len(OPEN_RATES)
        self.arrivals = []
        for rate in OPEN_RATES:
            gaps = self.rng.exponential(1.0 / rate, size=int(rate * per_rate * 2) + 16)
            offsets = np.cumsum(gaps)
            self.arrivals.append(offsets[offsets < per_rate])
        total = sum(len(a) for a in self.arrivals)
        self.images, self.truth = inputs.draw_images(
            self.rng, self.templates, total, self.serve_journey.difficulty)
        self.selector = TimedSelector()
        self.loop = asyncio.SelectorEventLoop(self.selector)
        self.executor = make_query_executor(self.system, self.job_id)
        self.frontend = None

    def start_trace(self, recorder):
        patches = super().start_trace(recorder)
        self.selector.recorder = recorder
        self.executor = tracing.traced(recorder, "api.executor", self.executor)
        # Each turn of the event loop: asyncio's own bookkeeping (timers,
        # task steps) is this harness span's self time, the idle wait,
        # the generator and the requests are its children.
        patches.replace(self.loop, "_run_once", tracing.traced(
            recorder, "harness.loop", self.loop._run_once))
        return patches

    def measure(self) -> None:
        config = FrontendConfig(latency=c_of_b, tau=OPEN_TAU, batch_sizes=OPEN_BATCH_SIZES)
        self.frontend = AsyncServeFrontend(config, self.executor)
        self.gateway.attach_frontend(self.job_id, self.frontend)
        ladder = self._ladder()
        if self.recorder is not None:
            # The generator's own slices on the loop, so the only wall
            # time no span covers is asyncio's bookkeeping.
            ladder = _as_coroutine(tracing.sliced(self.recorder, "harness.generator", ladder, -1))
        try:
            self._rates = self.loop.run_until_complete(ladder)
        finally:
            self.selector.recorder = None
            self.loop.close()

    async def _ladder(self) -> list[dict]:
        await self.frontend.start()
        try:
            results, base = [], 0
            for rate, arrivals in zip(OPEN_RATES, self.arrivals):
                results.append(await self._run_rate(rate, arrivals, base))
                base += len(arrivals)
        finally:
            await self.frontend.stop()
        return results

    async def _run_rate(self, rate: float, arrivals: np.ndarray, base: int) -> dict:
        loop = asyncio.get_running_loop()
        path = f"/query/{self.job_id}"
        outcomes: list[tuple] = []
        inflight_samples: list[tuple[float, int]] = []
        state = {"inflight": 0}
        recorder = self.recorder

        async def request(index: int, due: float):
            state["inflight"] += 1
            body = {"img": self.images[index].tolist()}
            response = await self.gateway.handle_async(
                "POST", path, body, client_id=f"client-{index % OPEN_CLIENTS}")
            done = loop.time()
            state["inflight"] -= 1
            outcomes.append((index, due, done, response.status, response.body.get("label")))

        lags, tasks = [], []
        idle_before = self.selector.idle_s
        phase_start = loop.time()
        start = phase_start + 0.01
        for offset_index, offset in enumerate(arrivals):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            lags.append(1000.0 * (now - due))
            inflight_samples.append((now - start, state["inflight"]))
            index = base + offset_index
            coro = request(index, due)
            if recorder is not None:
                coro = tracing.sliced(recorder, "harness.request", coro, index)
            tasks.append(loop.create_task(_as_coroutine(coro)))
        sent_wall = loop.time() - start
        await asyncio.gather(*tasks)
        # The loop's busy time over the rate's whole phase, draining
        # included: what serving these requests cost the event loop.
        phase = loop.time() - phase_start
        busy = phase - (self.selector.idle_s - idle_before)
        return {
            "rate": rate,
            "outcomes": outcomes,
            "lags_ms": lags,
            "inflight": inflight_samples,
            "window_s": sent_wall,
            "busy_s": busy,
            "busy_share": busy / phase,
        }

    def check(self) -> dict:
        rates = self._rates
        per_rate, total_wrong, total_failed, total, correct, labelled = [], 0, 0, 0, 0, 0
        for result in rates:
            latencies, wrong, failed = [], 0, 0
            for index, due, done, status, label in result["outcomes"]:
                if status != 200:
                    failed += 1
                    continue
                image = self.images[index]
                if label != self.reference_label(index, image):
                    wrong += 1
                    continue
                latencies.append(1000.0 * (done - due))
                labelled += 1
                correct += label == int(self.truth[index])
            attempted = len(result["outcomes"])
            growth = _backlog_growth(result["inflight"], result["window_s"])
            per_rate.append({
                "rate": result["rate"],
                "attempted": attempted,
                "failed": failed + wrong,
                "latencies_ms": latencies,
                "lags_ms": result["lags_ms"],
                "backlog_growth": growth,
                "busy_s": result["busy_s"],
                "busy_share": result["busy_share"],
            })
            total += attempted
            total_failed += failed + wrong
            total_wrong += wrong
        outcomes = self.frontend.core.outcomes
        return {
            "ops": total - total_failed,
            "attempted": total,
            "failed": total_failed,
            "wrong": total_wrong,
            "rates": per_rate,
            "labelled": labelled,
            "correct": correct,
            "sheds": {k: v for k, v in outcomes.items() if k != "served"},
            "slo_ms": 2000.0 * OPEN_TAU,
            "backlog_growth_limit": BACKLOG_GROWTH_LIMIT,
        }


async def _as_coroutine(awaitable):
    return await awaitable


def _backlog_growth(samples: list[tuple[float, int]], window: float) -> float:
    """Mean in-flight count in the last quarter minus the second quarter."""
    if window <= 0:
        return 0.0
    second = [n for t, n in samples if 0.25 * window <= t < 0.5 * window]
    last = [n for t, n in samples if t >= 0.75 * window]
    if not second or not last:
        return 0.0
    return float(np.mean(last) - np.mean(second))


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


class Train(Workload):
    """The SDK journey, timed end to end; set-up builds the system and writes the data."""

    name = "train"
    serve_journey = None

    def setup(self) -> None:
        super().setup()
        self.directory = self.write_dataset(TRAIN_JOURNEY, "train", self.seed)

    def measure(self) -> None:
        start = time.perf_counter()
        self.journey_info = self.journey(TRAIN_JOURNEY, "train", self.directory)
        self._wall = time.perf_counter() - start

    def check(self) -> dict:
        info, wall = self.journey_info, self._wall
        return {
            "ops": 1,
            "attempted": 1,
            "failed": 0,
            "wrong": 0,
            "wall_s": wall,
            "accuracy": info["best_performance"],
        }


# ----------------------------------------------------------------------
# sql-analytics
# ----------------------------------------------------------------------


class SqlAnalytics(Workload):
    """``POST /sql`` with an ensemble UDF over Zipf-repeated image paths."""

    name = "sql-analytics"

    def setup(self) -> None:
        super().setup()
        difficulty = self.serve_journey.difficulty
        self.pool, self.pool_y = inputs.draw_images(self.rng, self.templates, SQL_POOL, difficulty)
        store = {f"img/{i:05d}.npy": image for i, image in enumerate(self.pool)}
        paths = inputs.zipf_multiset(self.rng, SQL_ROWS, SQL_POOL, SQL_SKEW)
        self.row_image = paths
        db = Database(cache_capacity=SQL_UDF_CACHE)
        db.create_table("meals", [Column("id", "int"), Column("path", "text"),
                                  Column("calories", "int"), Column("kind", "int")])
        # The rows are the (calories, kind) grid in a seeded order, so
        # every statement's window holds the same number of rows.
        grid = self.rng.permutation(SQL_ROWS)
        calories, kinds = grid // SQL_KINDS, grid % SQL_KINDS
        for row in range(SQL_ROWS):
            db.insert("meals", id=row, path=f"img/{int(paths[row]):05d}.npy",
                      calories=int(calories[row]), kind=int(kinds[row]))
        self.udf = make_inference_udf(self.gateway, self.job_id, store)
        self.batch_udf = make_batched_inference_udf(self.gateway, self.job_id, store)
        self.db = db
        self.gateway.attach_sql_database(db)
        self.statements = [self._statement(i) for i in range(SQL_STATEMENTS)]
        # The statements repeat in one seeded order, as a dashboard's
        # would. Under LRU each one then finds the same share of its
        # paths cached every time, where a random order made the miss
        # count per statement vary fourfold between seeds.
        self.cycle = self.rng.permutation(SQL_STATEMENTS)
        self._register(self.udf, self.batch_udf)
        # Fill the UDF cache before timing, as a running database's would be.
        for pick in self.cycle:
            self.gateway.handle("POST", "/sql", {"sql": self.statements[pick][0]})

    def _register(self, udf, batch_udf) -> None:
        self.db.udfs.unregister("food")
        self.db.udfs.register("food", udf, batch_fn=batch_udf)

    def start_trace(self, recorder):
        patches = super().start_trace(recorder)
        self._register(tracing.traced(recorder, "sqlext.udf", self.udf),
                       tracing.traced(recorder, "sqlext.udf", self.batch_udf))
        patches.on_restore(lambda: self._register(self.udf, self.batch_udf))
        return patches

    def _statement(self, index: int) -> tuple[str, bool]:
        """A SELECT over the ``index``-th calorie window; bool: rows are (id, label).

        The windows tile the calorie range, so every seed's statements
        touch the same number of rows and hit the UDF cache alike.
        """
        width = SQL_CALORIES // SQL_STATEMENTS
        low = index * width + int(self.rng.integers(0, SQL_CALORIES % width))
        window = f"calories >= {low} AND calories < {low + width}"
        kind = index % 3
        if kind == 0:
            return f"SELECT id, food(path) AS label FROM meals WHERE {window}", True
        if kind == 1:
            return (f"SELECT food(path) AS label, count(*) AS n FROM meals "
                    f"WHERE {window} GROUP BY label"), False
        return (f"SELECT id, food(path) AS label FROM meals WHERE kind = "
                f"{int(self.rng.integers(0, SQL_KINDS))} AND {window} ORDER BY id"), True

    def measure(self) -> None:
        latencies, results = [], []
        recorder = self.recorder
        dispatcher = self.db.dispatcher
        before = (self.db.udfs.total_calls, dispatcher.batches_dispatched,
                  dispatcher.cache_hits, dispatcher.cache_misses)
        end = time.perf_counter() + self.seconds
        start = time.perf_counter()
        op = 0
        while time.perf_counter() < end:
            if recorder is not None:
                recorder.rid = op
                recorder.open(recorder.name_id("harness.op"))
            pick = int(self.cycle[op % SQL_STATEMENTS])
            sql = self.statements[pick][0]
            t0 = time.perf_counter()
            response = self.gateway.handle("POST", "/sql", {"sql": sql})
            latencies.append(1000.0 * (time.perf_counter() - t0))
            results.append((pick, response.status, response.body))
            op += 1
            if recorder is not None:
                recorder.close()
                recorder.rid = -1
        wall = time.perf_counter() - start
        after = (self.db.udfs.total_calls, dispatcher.batches_dispatched,
                 dispatcher.cache_hits, dispatcher.cache_misses)
        self._raw = (latencies, results, wall, [b - a for a, b in zip(before, after)])

    def check(self) -> dict:
        """Labels against the reference; each statement against ``naive``."""
        latencies, results, wall, udf = self._raw
        failed = wrong = 0
        labels: dict[int, int] = {}
        first: dict[int, str] = {}
        executions: dict[int, int] = {}
        for pick, status, body in results:
            if status != 200:
                failed += 1
                continue
            executions[pick] = executions.get(pick, 0) + 1
            digest = _digest([body["columns"], body["rows"]])
            bad = first.setdefault(pick, digest) != digest
            if self.statements[pick][1]:
                for row_id, label in body["rows"]:
                    image = int(self.row_image[row_id])
                    bad |= label != self.reference_label(image, self.pool[image])
                    labels[image] = label
            wrong += bad
        for pick, digest in first.items():
            naive = self.gateway.handle(
                "POST", "/sql", {"sql": self.statements[pick][0], "executor": "naive"})
            if naive.status != 200 or _digest([naive.body["columns"], naive.body["rows"]]) != digest:
                wrong += executions[pick]
        correct = sum(label == int(self.pool_y[image]) for image, label in labels.items())
        return {
            "ops": len(results),
            "attempted": len(results),
            "failed": failed + min(wrong, len(results) - failed),
            "wrong": wrong,
            "latencies_ms": latencies,
            "wall_s": wall,
            "labelled": len(labels),
            "correct": correct,
            "udf_rows": udf[0],
            "udf_batches": udf[1],
            "udf_cache_hits": udf[2],
            "udf_cache_lookups": udf[2] + udf[3],
        }


WORKLOADS = {cls.name: cls for cls in (ServeOpen, ServeHot, Train, SqlAnalytics)}
