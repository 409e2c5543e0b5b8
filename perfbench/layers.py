"""Trace points at the engine's layer boundaries and the per-layer metrics.

:func:`install` wraps one public entry point per layer, at class or
module level, from outside the program.  :func:`layer_metrics` turns the
spans of the timed batches, the engine's own per-batch reports and its
lifetime counters into the ``per_layer`` metrics of ``BENCHMARK.json``.
Times are per batch (mean over the traced batches) unless the name says
otherwise; a layer a workload never enters reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .harness import COUNT, END, NAME, PARENT, START, Tracer, percentile, self_times

#: Per-layer metric names and units, in BENCHMARK.json order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sensing.world.advance_ms", "ms"),
    ("sensing.world.sensor_steps_per_s", "1/s"),
    ("sensing.handler.acquire_ms", "ms"),
    ("sensing.handler.requests", "count"),
    ("sensing.handler.response_ratio", "ratio"),
    ("sensing.handler.retry_frac", "ratio"),
    ("faults.drops", "count"),
    ("faults.timeouts", "count"),
    ("core.fabricator.map_ms", "ms"),
    ("core.fabricator.keep_ratio", "ratio"),
    ("core.planner.exec_ms", "ms"),
    ("core.budget.tune_ms", "ms"),
    ("pointprocess.mle.fit_ms", "ms"),
    ("pointprocess.mle.fits", "count"),
    ("pointprocess.sgd.observe_ms", "ms"),
    ("pointprocess.sgd.events_per_s", "1/s"),
    ("plan.cache.compiles", "count"),
    ("plan.cache.reuses", "count"),
    ("plan.cache.reuse_ratio", "ratio"),
    ("storage.end_batch_ms", "ms"),
    ("views.advance_ms", "ms"),
    ("views.frames_emitted", "count"),
    ("storage.cursor_fetch_ms", "ms"),
    ("serve.fetch_overhead_ms", "ms"),
    ("serve.fanout.publish_ms", "ms"),
    ("serve.fanout.events", "count"),
    ("serve.fanout.skipped", "count"),
    ("streams.codec.encodes", "count"),
    ("recovery.capture_ms", "ms"),
    ("recovery.write_ms", "ms"),
    ("recovery.snapshot_kib", "KiB"),
    ("trace.batch_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("host.kernel_ms", "ms"),
)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry point; ``tracer.restore()`` undoes it."""
    from repro.core.budget import BudgetTuner
    from repro.core.engine import CraqrEngine
    from repro.core.fabricator import StreamFabricator
    from repro.core.planner import QueryPlanner
    from repro.core.pmat import flatten
    from repro.pointprocess.estimation import OnlineIntensityEstimator
    from repro.recovery.snapshot import EngineSnapshot
    from repro.sensing.handler import RequestResponseHandler
    from repro.sensing.world import SensingWorld
    from repro.serve import server
    from repro.serve.fanout import FrameFanout
    from repro.storage.result_buffer import QueryResultBuffer, ResultCursor
    from repro.views.view import ContinuousView

    tracer.patch(CraqrEngine, "run_batch", "engine.batch", batch=lambda args: args[0].batches_run)
    tracer.patch(SensingWorld, "advance", "sensing.world.advance")
    tracer.patch(RequestResponseHandler, "acquire_batches", "sensing.handler.acquire")
    tracer.patch(StreamFabricator, "process_batch_columnar", "core.fabricator")
    tracer.patch(QueryPlanner, "process_columnar", "core.planner")
    tracer.patch(BudgetTuner, "tune", "core.budget.tune")
    tracer.patch(flatten, "fit_linear_intensity_mle", "pointprocess.mle.fit")
    tracer.patch(
        OnlineIntensityEstimator,
        "observe_batch_fused",
        "pointprocess.sgd.observe",
        count=lambda args, result: len(args[1]),
    )
    tracer.patch(QueryResultBuffer, "end_batch", "storage.end_batch")
    tracer.patch(
        ContinuousView, "advance_to", "views.advance", count=lambda args, result: len(result or ())
    )
    tracer.patch(ResultCursor, "fetch_batch", "storage.cursor_fetch")
    tracer.patch(FrameFanout, "publish", "serve.fanout.publish", count=lambda args, result: result)
    # The fetch op's encode: the fan-out encodes through its own import.
    tracer.patch(server, "encode_tuple_batch", "serve.encode")
    tracer.patch(EngineSnapshot, "capture", "recovery.capture")
    tracer.patch(
        EngineSnapshot, "write", "recovery.write", count=lambda args, result: args[0].size_bytes
    )


def engine_counters(engine) -> Dict[str, int]:
    """Lifetime counters read at the edges of the timed window."""
    from repro.streams.codec import codec_call_counts

    cache = engine.plan_cache
    return {
        "batches": engine.batches_run,
        "compiles": cache.compiles if cache is not None else 0,
        "reuses": cache.reuses if cache is not None else 0,
        "encodes": sum(codec_call_counts().values()),
    }


def _median(values: List[float]) -> float:
    return percentile(values, 50) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    *,
    tracer: Tracer,
    engine,
    batch_ids: List[int],
    fetch_ms: List[float],
    served: bool,
    skipped: int,
    counters_start: Dict[str, int],
    counters_end: Dict[str, int],
    untraced_batch_p50: float,
    traced_batch_p50: float,
    kernel_ms: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced phase (see :data:`LAYER_METRICS`).

    ``batch_ids`` are the engine batches that ran traced and ``fetch_ms``
    the caller's fetch times during them.  Lifetime counters cover the
    whole timed window, traced or not.  The tracer holds only spans of the
    traced batches and of checkpoints taken after them.  Layer times are
    not scaled to the reference host; ``kernel_ms`` (the reference
    kernel's median time during the phase) says how fast the host ran.
    """
    batches = len(batch_ids)
    spans = tracer.spans
    selfs = self_times(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    sizes: List[float] = []
    cursor_fetch = 0.0
    for record, self_time in zip(spans, selfs):
        name = record[NAME]
        duration = record[END] - record[START]
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(duration)
        if record[COUNT] is not None:
            counts[name] = counts.get(name, 0.0) + record[COUNT]
        if name == "recovery.write":
            sizes.append(record[COUNT])
        parent = record[PARENT]
        if name == "storage.cursor_fetch" and (
            parent is None or parent[NAME] != "serve.fanout.publish"
        ):
            cursor_fetch += duration

    def per_batch_ms(seconds: float) -> float:
        return seconds * 1e3 / batches

    reports = [engine.reports[i] for i in batch_ids]
    requests = sum(r.handler.requests_sent for r in reports)
    responses = sum(r.handler.responses_received for r in reports)
    compiles = counters_end["compiles"] - counters_start["compiles"]
    reuses = counters_end["reuses"] - counters_start["reuses"]
    window = counters_end["batches"] - counters_start["batches"]
    serve_overhead = 0.0
    if served and fetch_ms:
        serve_overhead = (
            sum(fetch_ms) - (cursor_fetch + total.get("serve.encode", 0.0)) * 1e3
        ) / len(fetch_ms)
    return {
        "sensing.world.advance_ms": per_batch_ms(total.get("sensing.world.advance", 0.0)),
        "sensing.world.sensor_steps_per_s": _ratio(
            engine.world.config.sensor_count * calls.get("sensing.world.advance", 0),
            total.get("sensing.world.advance", 0.0),
        ),
        "sensing.handler.acquire_ms": per_batch_ms(total.get("sensing.handler.acquire", 0.0)),
        "sensing.handler.requests": requests / batches,
        "sensing.handler.response_ratio": _ratio(responses, requests),
        "sensing.handler.retry_frac": _ratio(
            sum(r.handler.retries_sent for r in reports), requests
        ),
        "faults.drops": sum(r.handler.drops_injected for r in reports) / batches,
        "faults.timeouts": sum(r.handler.timeouts for r in reports) / batches,
        "core.fabricator.map_ms": per_batch_ms(own.get("core.fabricator", 0.0)),
        "core.fabricator.keep_ratio": _ratio(
            sum(r.fabrication.tuples_delivered for r in reports),
            sum(r.fabrication.tuples_in for r in reports),
        ),
        "core.planner.exec_ms": per_batch_ms(own.get("core.planner", 0.0)),
        "core.budget.tune_ms": per_batch_ms(total.get("core.budget.tune", 0.0)),
        "pointprocess.mle.fit_ms": per_batch_ms(total.get("pointprocess.mle.fit", 0.0)),
        "pointprocess.mle.fits": calls.get("pointprocess.mle.fit", 0) / batches,
        "pointprocess.sgd.observe_ms": per_batch_ms(total.get("pointprocess.sgd.observe", 0.0)),
        "pointprocess.sgd.events_per_s": _ratio(
            counts.get("pointprocess.sgd.observe", 0.0),
            total.get("pointprocess.sgd.observe", 0.0),
        ),
        "plan.cache.compiles": float(compiles),
        "plan.cache.reuses": float(reuses),
        "plan.cache.reuse_ratio": _ratio(reuses, reuses + compiles),
        "storage.end_batch_ms": per_batch_ms(total.get("storage.end_batch", 0.0)),
        "views.advance_ms": per_batch_ms(total.get("views.advance", 0.0)),
        "views.frames_emitted": counts.get("views.advance", 0.0) / batches,
        "storage.cursor_fetch_ms": per_batch_ms(cursor_fetch),
        "serve.fetch_overhead_ms": serve_overhead,
        "serve.fanout.publish_ms": per_batch_ms(total.get("serve.fanout.publish", 0.0)),
        "serve.fanout.events": counts.get("serve.fanout.publish", 0.0) / batches,
        "serve.fanout.skipped": float(skipped),
        "streams.codec.encodes": (counters_end["encodes"] - counters_start["encodes"]) / window,
        "recovery.capture_ms": _median(durations.get("recovery.capture", [])) * 1e3,
        "recovery.write_ms": _median(durations.get("recovery.write", [])) * 1e3,
        "recovery.snapshot_kib": _median(sizes) / 1024.0,
        "trace.batch_ms": per_batch_ms(total.get("engine.batch", 0.0)),
        "trace.overhead_frac": traced_batch_p50 / untraced_batch_p50 - 1.0,
        "host.kernel_ms": kernel_ms,
    }
