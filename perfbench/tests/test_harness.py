"""Tests of the benchmark harness itself (run with ``PYTHONPATH=src``)."""

import json
import pathlib
import pickle
import threading
from types import SimpleNamespace

import pytest
from repro.core.engine import CraqrEngine

from perfbench import harness
from perfbench.harness import (
    BATCH,
    END,
    HOST_BLOCK,
    METRIC_NAME,
    NAME,
    PARENT,
    REFERENCE_KERNEL_MS,
    START,
    THREAD,
    ScaledClock,
    Tracer,
    covered_length,
    highest_supported_percentile,
    host_scale,
    host_scales,
    result_line,
    samples_needed,
    self_times,
    stream_digest,
)
from perfbench.layers import LAYER_METRICS
from perfbench.measure import END_TO_END, MIN_TIMED_BATCHES, Phase, drive, end_to_end_metrics, set_up
from perfbench.workloads import WARMUP_BATCHES, WORKLOADS

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_samples_needed_matches_the_rule():
    for p in (50.0, 90.0, 99.0, 99.9):
        needed = samples_needed(p)
        assert highest_supported_percentile(needed) >= p
        assert highest_supported_percentile(needed - 1) is None or (
            highest_supported_percentile(needed - 1) < p
        )
    assert MIN_TIMED_BATCHES == samples_needed(90.0) == 100


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_host_scales_divide_the_reference_by_the_windowed_mean():
    ref = REFERENCE_KERNEL_MS
    kernel = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    # Window 1: position 2 averages (1 + 1 + 2) * ref / 3; the ends clip.
    assert host_scales(kernel, window=1) == pytest.approx([1.0, 1.0, 0.75, 0.6, 0.5, 0.5])
    # A window wider than the run scales every position by the run's mean.
    assert host_scales(kernel, window=10) == pytest.approx([ref / (1.5 * ref)] * 6)
    assert host_scale(kernel) == pytest.approx(1 / 1.5)
    with pytest.raises(ValueError):
        host_scales([])


def test_scaled_clock_scales_each_piece_by_the_blocks_beside_it(monkeypatch):
    ref = REFERENCE_KERNEL_MS
    kernel = iter([ref] * HOST_BLOCK + [2 * ref] * HOST_BLOCK + [ref] * HOST_BLOCK)
    monkeypatch.setattr(harness, "reference_kernel", lambda: next(kernel))
    ticks = iter([0.0, 2.0, 10.0, 14.0])
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    clock = ScaledClock()  # block scale 1
    with clock.piece():  # 2 s, then a block at scale 1/2
        pass
    with clock.piece():  # 4 s, then a block at scale 1
        pass
    assert clock.scaled_seconds() == pytest.approx([2.0 * 0.75, 4.0 * 0.75])


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None, batch=0):
    return [name, start, end, parent, batch, 0, None]


def test_self_time_subtracts_the_union_of_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)  # overlaps a: the union is [1, 6]
    grandchild = _span("g", 2.0, 3.0, a)
    leaf = _span("leaf", 7.0, 7.5, root)
    spans = [root, a, b, grandchild, leaf]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 0.5])


def test_covered_length_clips_to_the_parent():
    assert covered_length([(-1.0, 2.0), (1.5, 3.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered_length([], 0.0, 1.0) == 0.0


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls):
        return cls()


def test_tracer_patches_classes_and_restores_them():
    originals = dict(_Layer.__dict__)
    tracer = Tracer()
    tracer.patch(_Layer, "outer", "outer", batch=lambda args: args[1])
    tracer.patch(_Layer, "inner", "inner", count=lambda args, result: result)
    tracer.patch(_Layer, "build", "build")
    layer = _Layer.build()
    assert layer.outer(3) == 7
    # Nothing lands on the instance, so a checkpoint would not pickle it.
    assert vars(layer) == {}
    pickle.dumps(layer)
    by_name = {s[NAME]: s for s in tracer.spans}
    assert by_name["inner"][PARENT] is by_name["outer"]
    assert by_name["inner"][BATCH] == 3 and by_name["inner"][-1] == 6
    tracer.restore()
    assert all(_Layer.__dict__[k] is v for k, v in originals.items())


def test_spans_on_another_thread_carry_the_current_batch():
    tracer = Tracer()
    tracer.patch(_Layer, "outer", "outer", batch=lambda args: args[1])
    tracer.patch(_Layer, "inner", "inner")
    try:
        worker = threading.Thread(target=lambda: _Layer().outer(5))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        _Layer().inner(1)  # the caller's thread, after the batch
    finally:
        tracer.restore()
    assert [s[BATCH] for s in tracer.spans] == [5, 5, 5]
    assert tracer.spans[0][THREAD] != tracer.spans[2][THREAD]
    assert tracer.spans[2][PARENT] is None


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    for name, _ in END_TO_END + LAYER_METRICS:
        assert METRIC_NAME.fullmatch(name), name
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_result_line_rejects_bad_names():
    line = result_line(correct=True, attempted=1, failed=0, metrics={"a.b-c_1": (1.5, "ms")})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {"a.b-c_1": {"value": 1.5, "unit": "ms"}},
    }
    with pytest.raises(ValueError):
        result_line(correct=True, attempted=1, failed=0, metrics={"bad name": (1.0, "ms")})


def test_failed_phase_still_reports_its_ok_fraction():
    phase = Phase(session=None, first_batch=0, attempted=8)
    phase.fail("batch step raised")
    assert end_to_end_metrics(phase, [1.0]) == {"ops_ok_frac": 7 / 8}


# ----------------------------------------------------------------------
# Tracing does not perturb the program
# ----------------------------------------------------------------------
#: Timed batches of the short runs; the checkpoint comes with batch 10.
SHORT_BATCHES = 5


def _short_run(name, seed, scratch, tracer=None, spare=False):
    workload = WORKLOADS[name]
    session, _ = set_up(workload, seed, scratch)
    spare_session = set_up(workload, seed + 1, scratch)[0] if spare else None
    phase = drive(
        session,
        seconds=0.0,
        min_batches=SHORT_BATCHES,
        max_batches=SHORT_BATCHES,
        tracer=tracer,
        spare=spare_session,
    )
    assert phase.failed == 0, phase.errors
    engine = phase.session.engine
    return stream_digest(engine, engine.batches_run), phase


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_short_runs_deliver_identical_streams(name, tmp_path):
    untraced, _ = _short_run(name, 3, tmp_path)
    original = CraqrEngine.__dict__["run_batch"]
    tracer = Tracer()
    # In process, the traced run also checkpoints a spare engine.
    in_process = name != "served-flaky"
    traced, phase = _short_run(name, 3, tmp_path, tracer, spare=in_process)
    assert traced == untraced
    assert CraqrEngine.__dict__["run_batch"] is original
    assert len(phase.checkpoint_ms) == 1
    assert any(s[NAME] == "recovery.capture" for s in tracer.spans)
    batches = [s for s in tracer.spans if s[NAME] == "engine.batch"]
    # Every other timed batch runs traced: the odd engine batches.
    timed = range(WARMUP_BATCHES, WARMUP_BATCHES + SHORT_BATCHES)
    assert [s[BATCH] for s in batches] == [b for b in timed if b % 2 == 1]
    for span in tracer.spans:
        assert span[END] is not None and span[END] >= span[START]
        parent = span[PARENT]
        if parent is not None and parent[NAME] == "engine.batch":
            assert span[BATCH] == parent[BATCH]
    on_caller_thread = {s[THREAD] == threading.get_ident() for s in batches}
    assert on_caller_thread == {name != "served-flaky"}
