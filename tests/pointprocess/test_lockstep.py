"""The lockstep SGD kernel is bit-identical to the per-event recurrence.

:func:`observe_lockstep` advances many independent online estimators at
once.  Its contract is exact: every estimator ends with the same ``theta``
bytes, update count and window statistic as when it observes its batch
alone, one :meth:`OnlineIntensityEstimator.observe_event` per event in
time order.  The online-estimation stream goldens rest on this.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rectangle
from repro.pointprocess import EventBatch, OnlineIntensityEstimator
from repro.pointprocess.estimation import _RATE_FLOOR, observe_lockstep

REGIONS = (
    Rectangle(0.0, 0.0, 1.0, 1.0),
    Rectangle(2.5, 0.5, 3.0, 1.75),
    Rectangle(-10.0, 40.0, 30.0, 41.0),
)
OFFSETS = (0.0, 1.0e3, 7.25e5, 1.0e9)


def observe_reference(estimator, batch, window_start):
    """The per-event recurrence, as ``observe_batch`` ran it originally."""
    if batch.is_empty:
        return
    if window_start is None:
        window_start = float(np.min(batch.t))
    estimator._events_in_window = 0.7 * estimator._events_in_window + 0.3 * len(batch)
    ordered = batch.sorted_by_time()
    for t, x, y in zip(ordered.t, ordered.x, ordered.y):
        estimator.observe_event(float(t), float(x), float(y), window_start=window_start)


def state(estimator):
    return (estimator._theta.tobytes(), estimator.updates, estimator._events_in_window)


@st.composite
def chains(draw):
    region = draw(st.sampled_from(REGIONS))
    offset = draw(st.sampled_from(OFFSETS))
    count = draw(st.integers(min_value=0, max_value=30))
    # A small pool of times makes ties (stable order) likely.
    pool = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6))
    rows = [
        (
            offset + draw(st.sampled_from(pool) | st.floats(0.0, 2.0)),
            draw(st.floats(region.x_min, region.x_max)),
            draw(st.floats(region.y_min, region.y_max)),
        )
        for _ in range(count)
    ]
    theta = draw(
        st.tuples(
            st.floats(-50.0, 200.0),
            st.floats(-1e-3, 1e-3),
            st.floats(-20.0, 20.0),
            st.floats(-20.0, 20.0),
        )
    )
    return {
        "region": region,
        "batch": EventBatch.from_rows(rows) if rows else EventBatch.empty(),
        "theta": theta,
        "learning_rate": draw(st.sampled_from((0.01, 0.05, 0.5))),
        "expected": draw(st.sampled_from((1.0, 50.0, 300.0))),
        "warm_up": draw(st.integers(min_value=0, max_value=3)),
        "window_start": draw(st.none() | st.just(offset - 0.5)),
    }


def build(spec):
    estimator = OnlineIntensityEstimator(
        spec["region"],
        1.0,
        learning_rate=spec["learning_rate"],
        initial_theta=spec["theta"],
        expected_events_per_window=spec["expected"],
    )
    # Prior updates shift each estimator's 1/sqrt(k) schedule differently.
    for k in range(spec["warm_up"]):
        estimator.observe_event(0.1 * k, spec["region"].x_min, spec["region"].y_min)
    return estimator


class TestLockstepBitIdentity:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(chains(), min_size=0, max_size=8))
    def test_matches_per_event_reference(self, specs):
        lockstep = [build(spec) for spec in specs]
        reference = [build(spec) for spec in specs]
        batches = [spec["batch"] for spec in specs]
        starts = [spec["window_start"] for spec in specs]
        observe_lockstep(lockstep, batches, starts)
        for estimator, batch, start in zip(reference, batches, starts):
            observe_reference(estimator, batch, start)
        for fast, slow in zip(lockstep, reference):
            assert state(fast) == state(slow)

    def test_rate_floor_clamp(self):
        # A negative linear rate is clamped at the floor before dividing.
        region = REGIONS[0]
        batch = EventBatch.from_rows([(5.0, 0.2, 0.3), (5.5, 0.7, 0.1)])
        lockstep = [
            OnlineIntensityEstimator(region, 1.0, initial_theta=(-3.0, 0.0, 0.0, 0.0)),
            OnlineIntensityEstimator(region, 1.0),
        ]
        reference = [
            OnlineIntensityEstimator(region, 1.0, initial_theta=(-3.0, 0.0, 0.0, 0.0)),
            OnlineIntensityEstimator(region, 1.0),
        ]
        assert float(np.array([1.0, 5.0, 0.2, 0.3]) @ lockstep[0]._theta) < _RATE_FLOOR
        observe_lockstep(lockstep, [batch, batch[:1]])
        observe_reference(reference[0], batch, None)
        observe_reference(reference[1], batch[:1], None)
        assert [state(e) for e in lockstep] == [state(e) for e in reference]
        # The clamp made the first gradient step enormous.
        assert lockstep[0].theta[0] > 1e6

    def test_observe_batch_and_fused_name_share_the_kernel(self):
        region = REGIONS[1]
        rng = np.random.default_rng(3)
        batch = EventBatch(
            rng.uniform(100.0, 101.0, 40),
            rng.uniform(region.x_min, region.x_max, 40),
            rng.uniform(region.y_min, region.y_max, 40),
        )
        estimators = [OnlineIntensityEstimator(region, 1.0) for _ in range(3)]
        estimators[0].observe_batch(batch, window_start=99.5)
        estimators[1].observe_batch_fused(batch, window_start=99.5)
        observe_reference(estimators[2], batch, 99.5)
        assert state(estimators[0]) == state(estimators[1]) == state(estimators[2])

    def test_empty_inputs_are_noops(self):
        estimator = OnlineIntensityEstimator(REGIONS[0], 1.0)
        before = state(estimator)
        observe_lockstep([], [])
        observe_lockstep([estimator], [EventBatch.empty()])
        assert state(estimator) == before

    @pytest.mark.parametrize("lengths", [(0, 1), (1, 1, 1), (17, 0, 3, 9, 1)])
    def test_ragged_lengths(self, lengths):
        region = REGIONS[0]
        rng = np.random.default_rng(sum(lengths))
        batches = [
            EventBatch(rng.uniform(1e6, 1e6 + 1, n), rng.uniform(0, 1, n), rng.uniform(0, 1, n))
            for n in lengths
        ]
        lockstep = [OnlineIntensityEstimator(region, 1.0) for _ in lengths]
        reference = [OnlineIntensityEstimator(region, 1.0) for _ in lengths]
        observe_lockstep(lockstep, batches)
        for estimator, batch in zip(reference, batches):
            observe_reference(estimator, batch, None)
        assert [state(e) for e in lockstep] == [state(e) for e in reference]
        assert [e.updates for e in lockstep] == list(lengths)
