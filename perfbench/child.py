"""One run of one workload in a fresh interpreter.

``run.py`` starts this script once per repetition, so process-global
counters and caches (job and trial ids, the telemetry registry) start
equal in every repetition. Protocol on stdout: a ``PERFBENCH READY``
line once set-up is done, then one ``PERFBENCH RESULT <json>`` line.

    python3 perfbench/child.py --workload serve-hot --seed 1 --seconds 4 --trace 0 --repetition 0
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: span names whose individual durations the per-layer metrics need.
DURATION_SAMPLES = ("api.executor", "core.tune.epoch")


def emit(tag: str, payload=None) -> None:
    line = f"PERFBENCH {tag}"
    if payload is not None:
        line += " " + json.dumps(payload)
    print(line, flush=True)


def layer_summary(recorder, tracing, workload, extras_before: dict, wall: float) -> dict:
    """Per-name span totals plus the counts and samples layers recorded."""
    summary = tracing.span_summary(recorder)
    arrays = recorder.arrays()
    durations = {}
    for name in DURATION_SAMPLES:
        if name in recorder.names:
            mask = arrays["name"] == recorder.names.index(name)
            durations[name] = (1000.0 * (arrays["end"] - arrays["start"])[mask]).tolist()
    extras = workload.layer_extras()
    summary.update({
        "wall_s": wall,
        "counts": dict(recorder.counts),
        "samples": {**{k: list(v) for k, v in recorder.samples.items()}, **durations},
        "ps_cache_hits": extras["ps_cache_hits"] - extras_before["ps_cache_hits"],
        "ps_cache_lookups": extras["ps_cache_lookups"] - extras_before["ps_cache_lookups"],
        "dedup_ratio": extras["dedup_ratio"],
        "spans_recorded": int(len(arrays["name"])),
        "open_spans": recorder.depth,
    })
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetition", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np

    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir,
                                                      args.repetition)
        workload.setup()
        # Set-up's objects live as long as the system does; moving them
        # out of the collector's generations keeps a full collection
        # from rescanning them at a random point of the measured phase.
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - STARTED
        emit("READY")
        recorder = patches = None
        extras_before = workload.layer_extras()
        if args.trace:
            recorder = tracing.SpanRecorder()
            patches = workload.start_trace(recorder)
        start = time.perf_counter()
        try:
            workload.measure()
        finally:
            wall = time.perf_counter() - start
            if patches is not None:
                patches.restore()
        result = workload.check()
        result.update({
            "workload": args.workload,
            "seed": args.seed,
            "traced": bool(args.trace),
            "setup_s_child": setup_s,
            "measure_wall_s": wall,
            "journey": {k: v for k, v in workload.journey_info.items() if k != "infer_id"},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        })
        if recorder is not None:
            result["layers"] = layer_summary(recorder, tracing, workload, extras_before, wall)
            recorder.save(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}-r{args.repetition}.npz"))
        emit("RESULT", result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
