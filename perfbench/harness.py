"""Measurement primitives of the repository benchmark.

Nothing here knows about a particular workload:

* :func:`highest_supported_percentile` / :func:`percentile` — the
  reporting rule for timings: a median plus the highest percentile that
  still has at least ten samples beyond it.
* :func:`reference_kernel` / :func:`host_scales` / :class:`ScaledClock` —
  a fixed kernel timed between the operations a run times, and the
  factors that scale each operation's time to the reference host's speed.
* :class:`Tracer` — spans recorded around calls into the engine's layers.
  Public methods are wrapped at class or module level (never on
  instances, so nothing traced ends up in an instance ``__dict__`` that a
  checkpoint would pickle), spans are kept in memory and written out at
  the end, and :meth:`Tracer.restore` puts every original back.
* :func:`self_times` — a span's duration minus the part of it that its
  child spans cover.
* :func:`stream_digest` — SHA-256 over every delivered column and every
  view frame of the first ``batches`` batches of an engine.
* :func:`result_line` — the final JSON line with validated metric names.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import re
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def highest_supported_percentile(
    n: int, ladder: Sequence[float] = PERCENTILE_LADDER, tail: int = TAIL_SAMPLES
) -> Optional[float]:
    """The highest ladder percentile with at least ``tail`` samples beyond it.

    ``None`` when even the lowest rung is unsupported (fewer than
    ``2 * tail`` samples for the median).
    """
    supported = [p for p in ladder if n * (100.0 - p) / 100.0 >= tail - 1e-9]
    return max(supported) if supported else None


def samples_needed(p: float, tail: int = TAIL_SAMPLES) -> int:
    """The smallest sample count that supports percentile ``p``."""
    return math.ceil(tail * 100.0 / (100.0 - p) - 1e-9)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation) of ``values``."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), p))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: What the reference kernel takes on the host whose speed the reported
#: times are scaled to: the median of 2836 samples on a 2-vCPU Intel Xeon
#: VM at 2.1 GHz with Python 3.11, whose samples ranged 0.53-1.21 ms as
#: the shared host's speed moved.
REFERENCE_KERNEL_MS = 0.70

#: Kernel samples on each side of a timed operation whose mean scales it.
HOST_WINDOW = 5

#: Kernel samples in one block of a :class:`ScaledClock`.
HOST_BLOCK = 10


def reference_kernel() -> float:
    """Run a fixed pure-Python kernel; returns its wall time in ms.

    The kernel does the interpreter work the engine's batches are made
    of (dict updates, small-object allocation, a sort of tuples), on
    fixed inputs, so its time moves only with the host's speed.
    """
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(3000):
        key = i % 97
        counts[key] = counts.get(key, 0) + len(str(i))
    sorted([(v, k) for k, v in counts.items()] * 10)
    return (time.perf_counter() - start) * 1e3


def host_scale(kernel_ms: Sequence[float]) -> float:
    """``REFERENCE_KERNEL_MS`` / the mean of ``kernel_ms``."""
    if len(kernel_ms) == 0:
        raise ValueError("no kernel samples to scale by")
    return REFERENCE_KERNEL_MS / float(np.mean(kernel_ms))


class ScaledClock:
    """Times pieces of work with a block of kernel samples on each side.

    For operations too long or too few for :func:`host_scales`'s per-step
    window (set-ups, checkpoints): a block of :data:`HOST_BLOCK` kernel
    runs goes before the first piece and after every piece, and each
    piece's time is scaled by the mean of the scales of its two blocks.
    """

    def __init__(self) -> None:
        self._blocks = [self._block()]
        self._seconds: List[float] = []

    @staticmethod
    def _block() -> float:
        return host_scale([reference_kernel() for _ in range(HOST_BLOCK)])

    @contextlib.contextmanager
    def piece(self):
        """Time the ``with`` body as one piece (not recorded if it raises)."""
        start = time.perf_counter()
        yield
        self._seconds.append(time.perf_counter() - start)
        self._blocks.append(self._block())

    def scaled_seconds(self) -> List[float]:
        """Each piece's seconds, scaled to the reference host."""
        return [
            seconds * (before + after) / 2
            for seconds, before, after in zip(self._seconds, self._blocks, self._blocks[1:])
        ]


def host_scales(kernel_ms: Sequence[float], window: int = HOST_WINDOW) -> np.ndarray:
    """Per position, ``REFERENCE_KERNEL_MS`` / the mean kernel time around it.

    ``kernel_ms[i]`` is the kernel timed just before operation ``i``; the
    mean runs over positions ``i - window .. i + window`` (clipped at the
    ends).  A time multiplied by its scale reads as on the reference host.
    """
    kernel = np.asarray(kernel_ms, dtype=float)
    if kernel.size == 0:
        raise ValueError("no kernel samples to scale by")
    sums = np.concatenate(([0.0], np.cumsum(kernel)))
    at = np.arange(kernel.size)
    lo = np.maximum(at - window, 0)
    hi = np.minimum(at + window + 1, kernel.size)
    return REFERENCE_KERNEL_MS * (hi - lo) / (sums[hi] - sums[lo])


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
#: Field positions of one span record (a list, so a wrapper can fill in
#: its end time in place).
NAME, START, END, PARENT, BATCH, THREAD, COUNT = range(7)


class Tracer:
    """In-memory span recorder with class- and module-level wrappers.

    A span is ``[name, start, end, parent, batch, thread, count]``:
    ``parent`` is the enclosing span record on the same thread (or
    ``None``), ``batch`` the engine batch current when the span opened,
    ``count`` an optional work count taken from the call (events
    observed, items published).  Spans opened on another thread — the
    serving thread — carry the batch id of the ``run`` that caused them,
    because the batch id lives on the tracer, not on the thread.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.current_batch = -1
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Open a span on the calling thread and return its record."""
        stack = self._stack()
        record = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            self.current_batch,
            threading.get_ident(),
            None,
        ]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record: list, count: Optional[float] = None) -> None:
        """Close a span opened by :meth:`open` on the same thread."""
        record[END] = time.perf_counter()
        record[COUNT] = count
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()

    # -- wrapping ------------------------------------------------------
    def traced(
        self,
        fn: Callable,
        name: str,
        *,
        count: Optional[Callable] = None,
        batch: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``count(args, result)`` returns the span's work count; ``batch(args)``
        returns the engine batch id this call opens (the tracer's current
        batch is set before the span opens).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if batch is not None:
                tracer.current_batch = batch(args)
            record = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(record, count(args, result) if count is not None else None)

        return wrapper

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` (a class or module) with a traced wrapper.

        Class-, static- and plain methods and module-level functions are
        supported; :meth:`restore` puts the original object back.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.traced(original.__func__, name, **options))
        else:
            replacement = self.traced(original, name, **options)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as JSON lines (parents as record indices)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                parent = record[PARENT]
                out.write(
                    json.dumps(
                        {
                            "name": record[NAME],
                            "start": record[START],
                            "end": record[END],
                            "parent": index.get(id(parent)) if parent is not None else None,
                            "batch": record[BATCH],
                            "thread": record[THREAD],
                            "count": record[COUNT],
                        }
                    )
                    + "\n"
                )


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each closed span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None and record[END] is not None:
            children.setdefault(id(parent), []).append((record[START], record[END]))
    out = []
    for record in spans:
        if record[END] is None:
            out.append(0.0)
            continue
        start, end = record[START], record[END]
        out.append(
            (end - start) - covered_length(children.get(id(record), ()), start, end)
        )
    return out


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def _update_array(digest, label: str, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.dtype == object:
        data = repr(array.tolist()).encode("utf-8")
    else:
        data = np.ascontiguousarray(array).tobytes()
    digest.update(f"{label}:{array.dtype.str}:{array.shape}:".encode("utf-8"))
    digest.update(data)


def stream_digest(engine, batches: int) -> str:
    """SHA-256 over what the first ``batches`` batches delivered.

    Covers the t/x/y/value columns of every query (by label) and every
    closed frame of every view (by name) whose window ended by then.
    """
    digest = hashlib.sha256()
    duration = engine.config.batch_duration
    for handle in sorted(engine.query_handles(), key=lambda h: h.query.label):
        buffer = handle.buffer
        rows = int(sum(buffer.per_batch_counts[:batches]))
        batch = buffer.cursor().fetch_batch()
        digest.update(f"query {handle.query.label} rows {rows}\n".encode("utf-8"))
        for column in ("t", "x", "y", "value"):
            _update_array(digest, column, getattr(batch, column)[:rows])
    horizon = batches * duration + 1e-9
    for view in sorted(engine.view_handles(), key=lambda v: v.name):
        frames = [f for f in view.buffer.frames() if f.window_end <= horizon]
        digest.update(f"view {view.name} frames {len(frames)}\n".encode("utf-8"))
        for frame in frames:
            digest.update(
                f"{frame.frame_index}:{frame.window_start!r}:{frame.window_end!r}\n".encode("utf-8")
            )
            _update_array(digest, "keys", frame.keys)
            _update_array(digest, "values", frame.values)
            _update_array(digest, "counts", frame.counts)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
def result_line(
    *, correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The benchmark's final stdout line, with names and units validated."""
    out = {}
    for name, (value, unit) in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not METRIC_UNIT.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for metric {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        out[name] = {"value": value, "unit": unit}
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": out,
        }
    )
