"""Merge the repetitions of one run into the benchmark's metrics.

End-to-end metrics (untraced repetitions) and per-layer metrics (traced
repetitions) are computed here. Their names, units and bounds are the
ones ``BENCHMARK.json`` lists; perfbench/README.md explains each one and
which workload and end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os

import stats
import tracing

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _f:
    #: the benchmark's definition: workloads and every metric it reports.
    BENCHMARK = json.load(_f)


def _exactly_listed(values: dict, section: str) -> dict:
    """``values`` in the order ``BENCHMARK.json`` lists ``section``; every name must match."""
    names = [metric["name"] for metric in BENCHMARK[section]]
    if set(names) != set(values):
        raise KeyError(f"{section} metrics not computed: {sorted(set(names) - set(values))}, "
                       f"not listed: {sorted(set(values) - set(names))}")
    return {name: values[name] for name in names}


def serve_open_rates(children: list[dict]) -> list[dict]:
    """Per-rate latency, failures, generator lag and backlog verdicts."""
    limit, growth_limit = children[0]["slo_ms"], children[0]["backlog_growth_limit"]
    rates = []
    for position, first in enumerate(children[0]["rates"]):
        runs = [child["rates"][position] for child in children]
        latencies = [v for run in runs for v in run["latencies_ms"]]
        lags = [v for run in runs for v in run["lags_ms"]]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        growth = max(run["backlog_growth"] for run in runs)
        p99 = stats.percentile(latencies, 99)
        rates.append({
            "rate_rps": first["rate"],
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0,
            "p50_ms": stats.median(latencies),
            "p99_ms": p99,
            "tail": stats.repeated_tail([run["latencies_ms"] for run in runs]),
            "gen_lag_p99_ms": stats.percentile(lags, 99),
            "backlog_growth": growth,
            "busy_share": stats.median([run["busy_share"] for run in runs]),
            "meets_slo": (p99 <= limit
                          and failed < 0.01 * attempted and growth <= growth_limit),
        })
    return rates


def end_to_end(workload: str, children: list[dict], setup_s: list[float]) -> tuple[dict, dict]:
    """(metric values, details) from the untraced repetitions."""
    journeys = [child["journey"] for child in children]
    details: dict = {}
    if workload == "serve-open":
        rates = serve_open_rates(children)
        passing = [r["rate_rps"] for r in rates if r["meets_slo"]]
        details.update({
            "rates": rates,
            "slo_rate_rps": max(passing) if passing else 0.0,
            "latency_tail_ms.lo": rates[0]["tail"],
            "latency_tail_ms.hi": rates[-1]["tail"],
        })
        middle = len(rates) // 2
        runs = [child["rates"][middle]["latencies_ms"] for child in children]
        # Capacity: requests served per second the event loop was busy
        # at the top rate, where batches are largest and the loop's
        # fixed per-second costs weigh least. The offered rates are
        # fixed, so a slower or faster serving path moves it either way,
        # where the served rate would only echo the offered load.
        top = [child["rates"][-1] for child in children]
        throughput = (sum(len(rate["latencies_ms"]) for rate in top)
                      / sum(rate["busy_s"] for rate in top))
    elif workload == "train":
        # The operation is the whole journey, one per repetition.
        runs = [[1000.0 * j["train_s"]] for j in journeys]
        throughput = stats.median([j["epochs_per_s"] for j in journeys])
    else:
        runs = [child["latencies_ms"] for child in children]
        throughput = (sum(child["ops"] for child in children)
                      / sum(child["wall_s"] for child in children))
    if workload == "train":
        accuracy = stats.median([child["accuracy"] for child in children])
    else:
        accuracy = (sum(child["correct"] for child in children)
                    / max(1, sum(child["labelled"] for child in children)))
    tail = stats.repeated_tail(runs)
    details["latency_tail_ms"] = tail
    # The issue's definition, uncapped: stalls on a percent of ops show here.
    details["latency_tail_ms.uncapped"] = stats.tail([v for run in runs for v in run], cap=100.0)
    # The journey's own figures. On train they restate latency_p50_ms and
    # throughput_ops; on the serving workloads they time set-up, which
    # setup_s already covers. So they are printed, not gated.
    details["journey"] = {
        "train_s": stats.median([j["train_s"] for j in journeys]),
        "epochs_per_s": stats.median([j["epochs_per_s"] for j in journeys]),
        "deploy_ms": stats.median([stats.median(j["deploys_ms"]) for j in journeys]),
    }
    values = {
        "setup_s": stats.median(setup_s),
        "latency_p50_ms": stats.median([v for run in runs for v in run]),
        "latency_tail_ms": tail["value"],
        "throughput_ops": throughput,
        "accuracy": accuracy,
        "peak_rss_mb": stats.median([child["peak_rss_mb"] for child in children]),
    }
    return _exactly_listed(values, "end_to_end"), details


def _mean_latency(child: dict, workload: str) -> float:
    """The cost per operation a repetition saw, for the tracing overhead."""
    if workload == "serve-open":
        return sum(rate["busy_s"] for rate in child["rates"]) / max(1, child["ops"])
    if workload == "train":
        return child["journey"]["train_s"]
    return child["wall_s"] / max(1, child["ops"])


def self_time_error(traced: list[dict]) -> float:
    """|sum of every span's self time - the measured wall time| / wall time.

    The self times add up to the root spans' durations, so this is the
    share of the measured phase that no span covers: harness code with
    no span of its own, asyncio's bookkeeping, or a layer left unwrapped.
    """
    wall = sum(child["layers"]["wall_s"] for child in traced)
    own = sum(entry["self_s"] for child in traced for entry in child["layers"]["spans"].values())
    return abs(own - wall) / wall if wall else 0.0


def self_time_problem(error: float) -> str | None:
    """The check on ``harness.self_time_error``: a message when it fails."""
    if error <= tracing.SELF_TIME_TOLERANCE:
        return None
    return (f"layer self times miss the wall time by {error:.1%} "
            f"(tolerance {tracing.SELF_TIME_TOLERANCE:.0%})")


def per_layer(workload: str, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the traced repetitions (see README.md)."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    samples: dict[str, list] = {}
    wall = 0.0
    for child in traced:
        layers = child["layers"]
        wall += layers["wall_s"]
        for name, entry in layers["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "dur_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for key, value in layers["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        for key, values in layers["samples"].items():
            samples.setdefault(key, []).extend(values)
    ops = max(1, sum(child["ops"] for child in traced))

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def busy(*names):
        return sum(spans.get(n, {}).get("dur_s", 0.0) for n in names)

    def own(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lookups = counts.get("pred_cache.lookups", 0.0)
    sheds: dict[str, int] = {}
    for child in traced:
        for reason, count in child.get("sheds", {}).items():
            sheds[reason] = sheds.get(reason, 0) + count
    journeys = [child["journey"] for child in traced] if workload == "train" else []
    trials = sum(j["trials"] for j in journeys)
    layer_self = sum(entry["self_s"] for name, entry in spans.items()
                     if not name.startswith("harness."))
    lags = {}
    if workload == "serve-open":
        rates = [rate["lags_ms"] for rate in traced[0]["rates"]]
        for label, position in (("lo", 0), ("mid", len(rates) // 2), ("hi", -1)):
            lags[label] = stats.percentile(
                [v for child in traced for v in child["rates"][position]["lags_ms"]], 99)
    base = stats.median([_mean_latency(child, workload) for child in untraced])
    with_trace = stats.median([_mean_latency(child, workload) for child in traced])
    sql = {key: sum(child.get(key, 0) for child in traced)
           for key in ("udf_rows", "udf_batches", "udf_cache_hits", "udf_cache_lookups")}
    values = {
        "api.sdk.self_ms": 1000.0 * own("api.sdk") / ops,
        "api.gateway.calls": counts.get("gateway.calls", 0.0) / ops,
        "api.gateway.self_ms": 1000.0 * own("api.gateway") / ops,
        "api.gateway.body_kb": ratio(counts.get("gateway.body_bytes", 0.0),
                                     counts.get("gateway.body_samples", 0.0)) / 1024.0,
        "api.executor.self_ms": 1000.0 * own("api.executor") / ops,
        "tenancy.resolve.calls": calls("tenancy.resolve") / ops,
        "tenancy.resolve.busy_us": 1e6 * busy("tenancy.resolve") / ops,
        "core.serve.frontend.offer.busy_us": 1e6 * busy("core.serve.frontend.offer") / ops,
        "core.serve.frontend.poll.busy_ms": 1000.0 * busy("core.serve.frontend.poll") / ops,
        "core.serve.frontend.sheds": float(sum(sheds.values())),
        "core.serve.frontend.sheds.deadline": float(sheds.get("deadline", 0)),
        "core.serve.frontend.sheds.queue_full": float(sheds.get("queue_full", 0)),
        "core.serve.frontend.queue_wait_ms.p50": stats.median(samples.get("queue_wait_ms", [])),
        "core.serve.frontend.queue_wait_ms.p99": stats.percentile(
            samples.get("queue_wait_ms", []), 99),
        "core.serve.frontend.batch_size.mean": ratio(sum(samples.get("batch_size", [])),
                                                     len(samples.get("batch_size", []))),
        "core.serve.frontend.loop_blocked_ms.p99": stats.percentile(
            samples.get("api.executor", []), 99),
        "core.serve.pred_cache.hit_ratio": ratio(counts.get("pred_cache.hits", 0.0), lookups),
        "core.serve.pred_cache.lookup_us": 1e6 * ratio(own("core.serve.pred_cache"), lookups),
        "core.system.query.calls": calls("core.system.query") / ops,
        "core.system.query.rows_per_call": ratio(counts.get("system.query.rows", 0.0),
                                                 calls("core.system.query")),
        "core.system.query.self_ms": 1000.0 * own("core.system.query") / ops,
        "core.system.create_inference_job.ms": 1000.0 * ratio(
            busy("core.system.create_inference_job"), calls("core.system.create_inference_job")),
        "zoo.vote.busy_us": 1e6 * busy("zoo.vote") / ops,
        "tensor.infer.calls": calls("tensor.infer") / ops,
        "tensor.infer.rows_per_call": ratio(counts.get("tensor.infer.rows", 0.0),
                                            calls("tensor.infer")),
        "tensor.infer.busy_ms": 1000.0 * busy("tensor.infer") / ops,
        "tensor.train.fwd_ms": 1000.0 * busy("tensor.train.fwd") / ops,
        "tensor.train.bwd_ms": 1000.0 * busy("tensor.train.bwd") / ops,
        "tensor.share": ratio(busy("tensor.infer", "tensor.train.fwd", "tensor.train.bwd"), wall),
        "core.tune.trials": calls("core.tune.start") / ops,
        "core.tune.epochs": calls("core.tune.epoch") / ops,
        "core.tune.epoch_ms.p50": stats.median(samples.get("core.tune.epoch", [])),
        "core.tune.advisor.busy_ms": 1000.0 * own("core.tune.advisor") / ops,
        "core.tune.self_ms": 1000.0 * own("core.tune", "core.tune.epoch", "core.tune.start") / ops,
        "core.tune.useful_trial_ratio": ratio(sum(j["useful_trials"] for j in journeys), trials),
        "paramserver.put.calls": calls("paramserver.put") / ops,
        "paramserver.put.bytes": counts.get("paramserver.put.bytes", 0.0) / ops,
        "paramserver.put.busy_ms": 1000.0 * busy("paramserver.put") / ops,
        "paramserver.get.calls": calls("paramserver.get") / ops,
        "paramserver.get.bytes": counts.get("paramserver.get.bytes", 0.0) / ops,
        "paramserver.get.busy_ms": 1000.0 * busy("paramserver.get") / ops,
        "paramserver.cache.hit_ratio": ratio(
            sum(child["layers"]["ps_cache_hits"] for child in traced),
            sum(child["layers"]["ps_cache_lookups"] for child in traced)),
        "data.import.ms": 1000.0 * ratio(busy("data.import"), calls("data.import")),
        "data.blob.put.bytes": counts.get("data.blob.put.bytes", 0.0) / ops,
        "data.blob.put.busy_ms": 1000.0 * busy("data.blob.put") / ops,
        "data.blob.get.busy_ms": 1000.0 * busy("data.blob.get") / ops,
        "data.blockstore.dedup_ratio": stats.median(
            [child["layers"]["dedup_ratio"] for child in traced]),
        "cluster.submit.busy_ms": 1000.0 * busy("cluster.submit") / ops,
        "sqlext.execute.self_ms": 1000.0 * own("sqlext.execute") / ops,
        "sqlext.plan.busy_ms": 1000.0 * busy("sqlext.plan") / ops,
        "sqlext.udf.rows": sql["udf_rows"] / ops,
        "sqlext.udf.batches": sql["udf_batches"] / ops,
        "sqlext.udf.rows_per_batch": ratio(sql["udf_rows"], sql["udf_batches"]),
        "sqlext.udf.cache_hit_ratio": ratio(sql["udf_cache_hits"], sql["udf_cache_lookups"]),
        "telemetry.calls_per_op": calls("telemetry") / ops,
        "telemetry.busy_share": ratio(own("telemetry"), wall),
        "harness.gen_lag_p99_ms.lo": lags.get("lo", 0.0),
        "harness.gen_lag_p99_ms.mid": lags.get("mid", 0.0),
        "harness.gen_lag_p99_ms.hi": lags.get("hi", 0.0),
        "harness.trace_overhead": ratio(with_trace, base) - 1.0 if base else 0.0,
        # Time no layer covers; the event loop's idle wait is accounted.
        "harness.unattributed_share": 1.0 - ratio(layer_self + own("harness.idle"), wall),
        "harness.self_time_error": self_time_error(traced),
    }
    return _exactly_listed(values, "per_layer")
