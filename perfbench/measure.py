"""One benchmark run: set-up, the timed closed loop, output checks, metrics.

``--trace 0`` sets a workload up :data:`SETUP_REPEATS` times (``setup_s``
is the median), then times the last session for the requested seconds
and reports the end-to-end metrics.  End-to-end times are scaled to the
reference host's speed: a fixed kernel (:func:`harness.reference_kernel`)
is timed just before every timed step, and each step's times are
multiplied by its :func:`harness.host_scales` factor; set-ups are scaled
by a :class:`harness.ScaledClock`.  ``--trace 1`` runs a reference
phase without tracing (:data:`MIN_TIMED_BATCHES` timed batches) and a
phase whose every other batch is traced, and reports the per-layer
metrics; the two phases must deliver byte-identical streams.  Every run
checks its outputs and keeps the stream digest of each seed in the output
directory, so runs of one seed — traced or not — must agree.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import resource
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.storage.result_buffer import RateEstimate

from .harness import (
    ScaledClock,
    Tracer,
    highest_supported_percentile,
    host_scales,
    percentile,
    reference_kernel,
    samples_needed,
    stream_digest,
)
from .layers import LAYER_METRICS, engine_counters, install, layer_metrics
from .workloads import CHECKPOINT_EVERY, WARMUP_BATCHES, WORKLOADS, StepSample, Workload, derive_seeds

#: Timed batches every run needs: enough for p90 to have ten samples
#: beyond it.  Quality metrics and the stream digest cover exactly this
#: many timed batches, so they do not depend on machine speed.
MIN_TIMED_BATCHES = samples_needed(90.0)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


#: A timed phase stops here even if it has too few batches (then it fails).
TIME_CAP_S = 120.0

#: End-to-end metric names and units, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p90", "ms"),
    ("delivered_tuples_per_s", "1/s"),
    ("rate_error", "ratio"),
    ("requests_per_tuple", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
    ("fetch_ms_p50", "ms"),
    ("fetch_ms_p90", "ms"),
    ("push_lag_ms_p50", "ms"),
    ("push_lag_ms_p90", "ms"),
    ("checkpoint_ms_mean", "ms"),
)


@dataclass
class Phase:
    """One set-up session driven through its timed batches."""

    session: object
    first_batch: int
    samples: List[StepSample] = field(default_factory=list)
    #: the reference kernel's time just before each sample's step
    kernel_ms: List[float] = field(default_factory=list)
    #: the caller's wall time for each whole step
    step_ms: List[float] = field(default_factory=list)
    #: per sample, the factor that scales its times to the reference host
    scales: List[float] = field(default_factory=list)
    #: checkpoint times, scaled to the reference host
    checkpoint_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    counters_start: Dict[str, int] = field(default_factory=dict)
    counters_end: Dict[str, int] = field(default_factory=dict)
    digest: Optional[str] = None
    #: peak resident memory once MIN_TIMED_BATCHES timed batches ran
    rss_mb: float = 0.0
    #: per sample: did it run with the layer wrappers installed?
    traced: List[bool] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


def set_up(workload: Workload, seed: int, scratch: pathlib.Path):
    """Build a session and run its warm-up batches.

    Returns the session and the set-up seconds scaled to the reference
    host; the build and each warm-up batch are scaled as separate pieces.
    """
    clock = ScaledClock()
    with clock.piece():
        session = workload.build(derive_seeds(seed), scratch)
    try:
        for _ in range(WARMUP_BATCHES):
            with clock.piece():
                session.step()
    except BaseException:
        session.close()
        raise
    return session, sum(clock.scaled_seconds())


def drive(
    session,
    *,
    seconds: float,
    min_batches: int = MIN_TIMED_BATCHES,
    max_batches: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    spare=None,
) -> Phase:
    """Run timed batches until ``seconds`` passed and ``min_batches`` ran.

    With a ``tracer``, every other batch runs with the layer wrappers
    installed, so traced and untraced batches share the machine's
    conditions; :attr:`Phase.traced` says which were traced.

    A served session checkpoints its own engine every
    :data:`CHECKPOINT_EVERY` batches.  An in-process session never
    checkpoints its timed engine: a checkpoint slows that engine's later
    batches (city-3k: ~35%, host-scaled), while checkpointing another
    engine does not.  It checkpoints ``spare`` instead — another session
    that ran only its warm-up, so it holds the same state on every run —
    on the same batches, outside the step's time.  Either way, the
    checkpoints of the first :data:`MIN_TIMED_BATCHES` batches go to
    :attr:`Phase.checkpoint_ms`: a fixed window, because how many batches
    a run reaches depends on the host's speed and a served engine's state
    grows with every batch.

    The engine is only read between the caller's round trips: a served
    engine runs code only while answering a request, so it is quiescent
    there.  The session is closed before returning.
    """
    engine = session.engine
    phase = Phase(session=session, first_batch=engine.batches_run)
    phase.counters_start = engine_counters(engine)
    start = time.perf_counter()
    try:
        cpus = len(os.sched_getaffinity(0))
        if threading.active_count() > cpus:
            phase.attempted += 1
            phase.fail(f"{threading.active_count()} threads running on {cpus} available CPUs")
            max_batches = 0
        while True:
            elapsed = time.perf_counter() - start
            n = len(phase.samples)
            if max_batches is not None and n >= max_batches:
                break
            if n >= min_batches and elapsed >= seconds:
                break
            if elapsed >= TIME_CAP_S:
                phase.attempted += 1
                phase.fail(f"only {n} timed batches within {TIME_CAP_S:.0f} s")
                break
            # Odd batch counts: the served checkpoint steps (every tenth
            # batch) land on traced steps.
            traced = tracer is not None and engine.batches_run % 2 == 1
            kernel_ms = reference_kernel()
            if traced:
                install(tracer)
            step_start = time.perf_counter()
            try:
                sample = session.step()
                step_ms = (time.perf_counter() - step_start) * 1e3
                if spare is not None and engine.batches_run % CHECKPOINT_EVERY == 0:
                    phase.attempted += 1
                    sample.checkpoint_ms = spare.checkpoint()
            except Exception:  # the loop's boundary: record and stop
                phase.attempted += 1
                phase.fail("batch step raised:\n" + traceback.format_exc())
                break
            finally:
                if traced:
                    tracer.restore()
            phase.step_ms.append(step_ms)
            phase.kernel_ms.append(kernel_ms)
            phase.samples.append(sample)
            phase.traced.append(traced)
            phase.attempted += sample.ops
            if len(phase.samples) == MIN_TIMED_BATCHES:
                phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if phase.samples:
            phase.scales = host_scales(phase.kernel_ms).tolist()
            steps = zip(phase.samples[:MIN_TIMED_BATCHES], phase.scales)
            phase.checkpoint_ms = [
                s.checkpoint_ms * scale for s, scale in steps if s.checkpoint_ms is not None
            ]
        phase.counters_end = engine_counters(engine)
    finally:
        session.close()
        if spare is not None:
            spare.close()
    verify(phase)
    return phase


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
_COLUMNS = ("t", "x", "y", "value", "sensor_id", "tuple_id")


def _same_rows(batches: list, expected) -> bool:
    from repro.streams import TupleBatch

    got = TupleBatch.concatenate(batches) if batches else None
    if got is None:
        return len(expected) == 0
    return len(got) == len(expected) and all(
        np.array_equal(getattr(got, c), getattr(expected, c)) for c in _COLUMNS
    )


def _same_frames(got: list, expected: list) -> bool:
    return len(got) == len(expected) and all(
        a.frame_index == b.frame_index
        and a.window_start == b.window_start
        and a.window_end == b.window_end
        and a.keys.tolist() == b.keys.tolist()
        and np.array_equal(a.values, b.values)
        and np.array_equal(a.counts, b.counts)
        for a, b in zip(got, expected)
    )


def verify(phase: Phase) -> None:
    """Check a closed phase's outputs; each check is one attempted operation."""
    session = phase.session
    engine = session.engine
    handles = engine.query_handles()
    checks: List[Tuple[str, bool]] = []
    buffered = sum(h.buffer.total_tuples for h in handles)
    reported = sum(r.tuples_delivered for r in engine.reports)
    checks.append(
        (
            f"lifetime totals: buffers {buffered}, engine "
            f"{engine.total_tuples_delivered()}, reports {reported}",
            buffered == engine.total_tuples_delivered() == reported
            and all(
                sum(h.buffer.per_batch_counts) == h.buffer.total_tuples == len(h.buffer)
                for h in handles
            ),
        )
    )
    for label, batches in session.fetched.items():
        expected = engine.query(label).buffer.cursor().fetch_batch()
        checks.append(
            (f"fetched {label} concatenates to its buffer once", _same_rows(batches, expected))
        )
    expected = engine.query(session.probe).buffer.cursor().fetch_batch()
    checks.append(
        (f"pushed {session.probe} concatenates to its buffer once", _same_rows(session.pushed, expected))
    )
    for view, frames in session.pushed_frames.items():
        checks.append(
            (f"pushed frames of {view} equal its buffer", _same_frames(frames, engine.view(view).buffer.frames()))
        )
    if engine.batches_run >= phase.first_batch + MIN_TIMED_BATCHES:
        phase.digest = stream_digest(engine, phase.first_batch + MIN_TIMED_BATCHES)
    for what, ok in checks:
        phase.attempted += 1
        if not ok:
            phase.fail(f"output check failed: {what}")


def check_digest(phase: Phase, store: pathlib.Path, key: str) -> None:
    """Compare the phase's digest with the one recorded for ``key``."""
    phase.attempted += 1
    if phase.digest is None:
        phase.fail("no stream digest: too few batches")
        return
    recorded = json.loads(store.read_text()) if store.exists() else {}
    if recorded.setdefault(key, phase.digest) != phase.digest:
        phase.fail(f"stream digest {phase.digest} differs from {recorded[key]} recorded for {key}")
        return
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, store)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return float(np.median(values)) if values else float("nan")


def _p(values: List[float], p: float) -> float:
    """``percentile`` that refuses a percentile the sample cannot support."""
    if (highest_supported_percentile(len(values)) or 0.0) < p:
        raise ValueError(f"{len(values)} samples cannot support p{p:g}")
    return percentile(values, p)


def end_to_end_metrics(phase: Phase, setup_seconds: List[float]) -> Dict[str, float]:
    """Every end-to-end metric; only ``ops_ok_frac`` when too little ran.

    ``setup_seconds`` are already scaled to the reference host; the
    phase's times are scaled here, each by the factor of its step.

    A phase with failures still reports its metrics, so ``ops_ok_frac``
    shows the failed share next to ``correct: false``.
    """
    ok_frac = (phase.attempted - phase.failed) / phase.attempted
    if len(phase.samples) < MIN_TIMED_BATCHES or not phase.checkpoint_ms:
        return {"ops_ok_frac": ok_frac}
    engine = phase.session.engine
    first, n = phase.first_batch, len(phase.samples)
    window = range(first, first + MIN_TIMED_BATCHES)
    duration = engine.config.batch_duration
    errors = []
    for label in phase.session.steady_queries:
        handle = engine.query(label)
        area = handle.query.region.area
        counts = handle.buffer.per_batch_counts
        for i in window:
            errors.append(
                RateEstimate(
                    tuples=counts[i],
                    duration=duration,
                    area=area,
                    achieved_rate=counts[i] / (area * duration),
                    requested_rate=handle.buffer.requested_rate,
                ).relative_error
            )
    reports = engine.reports
    requests = sum(reports[i].handler.requests_sent for i in window)
    delivered_window = sum(reports[i].tuples_delivered for i in window)
    delivered = sum(reports[i].tuples_delivered for i in range(first, first + n))
    steps = list(zip(phase.samples, phase.scales))
    batch_ms = [s.batch_ms * k for s, k in steps]
    fetch_ms = [f * k for s, k in steps for f in s.fetch_ms]
    lag_ms = [s.push_lag_ms * k for s, k in steps if s.push_lag_ms is not None]
    seconds = sum(ms * k for ms, k in zip(phase.step_ms, phase.scales)) / 1e3
    return {
        "setup_s": float(np.median(setup_seconds)),
        "batch_ms_p50": _p(batch_ms, 50),
        "batch_ms_p90": _p(batch_ms, 90),
        "delivered_tuples_per_s": delivered / seconds,
        "rate_error": float(np.mean(errors)),
        "requests_per_tuple": requests / delivered_window,
        "peak_rss_mb": phase.rss_mb,
        "ops_ok_frac": ok_frac,
        "fetch_ms_p50": _p(fetch_ms, 50),
        "fetch_ms_p90": _p(fetch_ms, 90),
        "push_lag_ms_p50": _p(lag_ms, 50),
        "push_lag_ms_p90": _p(lag_ms, 90),
        # A mean, not a median: the served checkpoints grow with the
        # state, so the median of ten is one middle checkpoint's time.
        "checkpoint_ms_mean": float(np.mean(phase.checkpoint_ms)),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    errors: List[str]
    digest: Optional[str]
    #: median time of the reference kernel over the timed batches
    kernel_ms: float

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_untraced(workload: Workload, seed: int, seconds: float, out: pathlib.Path) -> RunResult:
    setups: List[float] = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None
            gc.collect()
        session, spent = set_up(workload, seed, out)
        setups.append(spent)
    # Built after the timed set-ups, so none of them ran beside it.
    spare = None if session.served else set_up(workload, seed, out)[0]
    phase = drive(session, seconds=seconds, spare=spare)
    check_digest(phase, out / "digests.json", f"{workload.name}:{seed}")
    values = end_to_end_metrics(phase, setups)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END if name in values}
    return RunResult(
        metrics, phase.attempted, phase.failed, phase.errors, phase.digest, _median(phase.kernel_ms)
    )


def run_traced(workload: Workload, seed: int, seconds: float, out: pathlib.Path) -> RunResult:
    reference_session, _ = set_up(workload, seed, out)
    reference = drive(reference_session, seconds=0.0, max_batches=MIN_TIMED_BATCHES)
    served = reference_session.served
    # Free the reference engine before the next one is built.
    del reference_session
    reference.session = None
    gc.collect()
    spare = None if served else set_up(workload, seed, out)[0]

    tracer = Tracer()
    session, _ = set_up(workload, seed, out)
    traced = drive(session, seconds=seconds, tracer=tracer, spare=spare)
    tracer.dump(out / f"spans-{workload.name}.jsonl")
    traced.attempted += 1
    if reference.digest is None or reference.digest != traced.digest:
        traced.fail(
            f"traced stream digest {traced.digest} differs from untraced {reference.digest}"
        )
    check_digest(traced, out / "digests.json", f"{workload.name}:{seed}")
    attempted = reference.attempted + traced.attempted
    failed = reference.failed + traced.failed
    errors = reference.errors + traced.errors
    metrics = {}
    if not failed:
        steps = list(zip(traced.samples, traced.traced))
        values = layer_metrics(
            tracer=tracer,
            engine=traced.session.engine,
            batch_ids=[traced.first_batch + i for i, (_, on) in enumerate(steps) if on],
            fetch_ms=[f for sample, on in steps if on for f in sample.fetch_ms],
            served=traced.session.served,
            skipped=traced.session.skipped,
            counters_start=traced.counters_start,
            counters_end=traced.counters_end,
            traced_batch_p50=percentile([x.batch_ms for x, on in steps if on], 50),
            untraced_batch_p50=percentile([x.batch_ms for x, on in steps if not on], 50),
            kernel_ms=_median(traced.kernel_ms),
        )
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    return RunResult(metrics, attempted, failed, errors, traced.digest, _median(traced.kernel_ms))


def run(workload_name: str, seed: int, seconds: float, trace: bool, out: pathlib.Path) -> RunResult:
    workload = WORKLOADS[workload_name]
    out.mkdir(parents=True, exist_ok=True)
    if trace:
        return run_traced(workload, seed, seconds, out)
    return run_untraced(workload, seed, seconds, out)
