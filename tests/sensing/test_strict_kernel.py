"""The strict waypoint kernel is byte-identical to the scalar loop.

In strict mode ``SensingWorld.advance`` steps every
:class:`RandomWaypointMobility` group with one ``step_strict`` array call
per movement step, each row drawing from its own sensor's generator.  The
reference here is the same seeded crowd built from a subclass with the
same dynamics but no kernel of its own, which the eligibility rule sends
through the scalar ``step`` loop.  Every SoA mobility column is compared
by its bytes and every sensor's generator by its bit-generator state.
"""

import itertools

import numpy as np
import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.geometry import Rectangle, RectRegion
from repro.sensing import (
    RainField,
    RandomWalkMobility,
    RandomWaypointMobility,
    SensingWorld,
    WorldConfig,
)
from repro.sensing.mobility import MobilityState

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

MOBILITY_COLUMNS = (
    "x", "y", "vx", "vy", "target_x", "target_y", "pause_remaining",
)


class ScalarWaypoint(RandomWaypointMobility):
    """Identical dynamics, no kernel of its own: strict mode loops ``step``."""


def waypoint_world(model_cls, *, count=60, seed=17, speed=0.4, pause=0.3,
                   movement_step=0.1):
    return SensingWorld(
        WorldConfig(
            region=REGION, sensor_count=count, seed=seed,
            movement_step=movement_step,
        ),
        mobility_factory=lambda r: model_cls(r, speed=speed, pause=pause),
    )


def assert_same_world(kernel, scalar):
    for name in MOBILITY_COLUMNS:
        assert (
            getattr(kernel.state_arrays, name).tobytes()
            == getattr(scalar.state_arrays, name).tobytes()
        ), name
    for a, b in zip(kernel.sensors, scalar.sensors):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert kernel.now == scalar.now


def prepare_edge_states(world):
    """Write the same hand-picked edge states into rows 0-8.

    Speed 0.4 and a 0.1 step give ``travel = 0.4 * 0.1`` per sub-step.
    """
    soa = world.state_arrays
    travel = 0.4 * 0.1
    rows = {
        # (x, y, target_x, target_y, pause_remaining)
        0: (1.0, 1.0, np.nan, np.nan, 0.05),  # pause ends inside the step
        1: (2.0, 2.0, 3.0, 1.0, 0.25),  # paused with a target kept
        2: (1.5, 2.5, 1.51, 2.52, 0.0),  # arrives this sub-step
        3: (2.25, 0.75, 2.25, 0.75, 0.0),  # exactly at its target
        4: (3.999, 3.999, 4.6, 4.7, 0.0),  # walks out, clamped at a corner
        5: (0.001, 0.0, -0.3, -0.2, 0.0),  # clamped at the opposite corner
        6: (0.0, 2.0, travel, 2.0, 0.0),  # distance == travel: arrives
        7: (3.0, 3.0, np.nan, np.nan, 0.0),  # draws a target now
        8: (1.0, 3.0, 2.0, np.nan, 0.0),  # half a target: redraws both
    }
    for row, (x, y, tx, ty, pause) in rows.items():
        soa.x[row], soa.y[row] = x, y
        soa.target_x[row], soa.target_y[row] = tx, ty
        soa.pause_remaining[row] = pause


class TestStrictKernelEquivalence:
    def test_strict_world_never_calls_the_scalar_step(self, monkeypatch):
        def forbidden(self, state, dt, rng):
            raise AssertionError("strict waypoint world fell back to step")

        world = waypoint_world(RandomWaypointMobility)
        monkeypatch.setattr(RandomWaypointMobility, "step", forbidden)
        world.advance(1.0)
        assert not np.isnan(world.state_arrays.x).any()

    @pytest.mark.parametrize("movement_step", [0.1, 0.07])
    @pytest.mark.parametrize("duration", [0.05, 0.37, 1.05, 2.5])
    @pytest.mark.parametrize("pause", [0.0, 0.3])
    def test_advance_matches_scalar_loop(self, movement_step, duration, pause):
        kernel = waypoint_world(
            RandomWaypointMobility, pause=pause, movement_step=movement_step
        )
        scalar = waypoint_world(
            ScalarWaypoint, pause=pause, movement_step=movement_step
        )
        for _ in range(3):
            kernel.advance(duration)
            scalar.advance(duration)
            assert_same_world(kernel, scalar)

    @pytest.mark.parametrize("pause", [0.0, 0.3])
    def test_edge_states_match_scalar_loop(self, pause):
        kernel = waypoint_world(RandomWaypointMobility, pause=pause)
        scalar = waypoint_world(ScalarWaypoint, pause=pause)
        prepare_edge_states(kernel)
        prepare_edge_states(scalar)
        kernel.advance(0.1)
        scalar.advance(0.1)
        assert_same_world(kernel, scalar)
        soa = kernel.state_arrays
        # Each prepared branch really ran.
        assert soa.pause_remaining[0] == 0.0 and np.isnan(soa.target_x[0])
        assert soa.pause_remaining[1] == pytest.approx(0.15)
        assert (soa.x[1], soa.y[1], soa.target_x[1]) == (2.0, 2.0, 3.0)
        for row in (2, 3, 6):
            assert np.isnan(soa.target_x[row])
            assert soa.pause_remaining[row] == pause
        assert (soa.x[2], soa.y[2]) == (1.51, 2.52)
        assert (soa.x[4], soa.y[4]) == (4.0, 4.0)
        assert (soa.x[5], soa.y[5]) == (0.0, 0.0)
        assert not np.isnan(soa.target_x[7])
        assert soa.target_x[8] != 2.0 and not np.isnan(soa.target_y[8])
        for _ in range(4):
            kernel.advance(0.33)
            scalar.advance(0.33)
            assert_same_world(kernel, scalar)

    def test_mixed_crowd_matches_scalar_loop(self):
        # Two waypoint groups (different speeds) interleaved with random
        # walkers that always take the scalar loop.
        def factory(waypoint_cls):
            kinds = itertools.cycle([
                lambda r: waypoint_cls(r, speed=0.4, pause=0.3),
                lambda r: RandomWalkMobility(r, step_std=0.2),
                lambda r: waypoint_cls(r, speed=0.15, pause=0.0),
            ])
            return lambda r: next(kinds)(r)

        def world(waypoint_cls):
            return SensingWorld(
                WorldConfig(region=REGION, sensor_count=90, seed=8),
                mobility_factory=factory(waypoint_cls),
            )

        kernel, scalar = world(RandomWaypointMobility), world(ScalarWaypoint)
        for duration in (0.25, 1.0, 3.3):
            kernel.advance(duration)
            scalar.advance(duration)
            assert_same_world(kernel, scalar)

    def test_acquisition_rounds_between_advances_match(self):
        # Acquisition draws from the same per-sensor generators between
        # advances, so any reordering of mobility draws would show here.
        def run(waypoint_cls):
            world = waypoint_world(waypoint_cls, count=400, seed=3)
            world.register_field(RainField(REGION))
            engine = CraqrEngine(
                EngineConfig(
                    grid_cells=16, seed=5,
                    budget=BudgetConfig(initial=40, delta=5, limit=80),
                ),
                world,
            )
            handle = engine.register_query(
                AcquisitionalQuery(
                    "rain", RectRegion.from_bounds(0.0, 0.0, 4.0, 4.0), rate=40.0
                )
            )
            engine.run(4)
            rows = [(t.t, t.x, t.y, t.value) for t in handle.results()]
            return world, rows

        kernel_world, kernel_rows = run(RandomWaypointMobility)
        scalar_world, scalar_rows = run(ScalarWaypoint)
        assert kernel_world.state_arrays.requests_received.sum() > 0
        assert kernel_rows and kernel_rows == scalar_rows
        assert_same_world(kernel_world, scalar_world)

    def test_move_after_kernel_advance_reads_the_soa(self):
        # Kernel rows skip the scratch checkout, so a later per-sensor
        # move() must start from the SoA row, not a stale scratch.
        kernel = waypoint_world(RandomWaypointMobility)
        scalar = waypoint_world(ScalarWaypoint)
        kernel.advance(1.3)
        scalar.advance(1.3)
        for index in (0, 11, 42):
            assert kernel.sensors[index].move(0.1) == scalar.sensors[index].move(0.1)
        assert_same_world(kernel, scalar)


class TestStrictKernelEligibility:
    def test_only_classes_defining_the_kernel_qualify(self):
        assert RandomWaypointMobility(REGION).has_strict_kernel()
        assert not ScalarWaypoint(REGION).has_strict_kernel()
        assert not RandomWalkMobility(REGION).has_strict_kernel()

    def test_overridden_pick_target_keeps_its_dynamics(self):
        class CornerWaypoint(RandomWaypointMobility):
            def _pick_target(self, state, rng):
                state.target_x = self.region.x_min
                state.target_y = self.region.y_min

        world = waypoint_world(CornerWaypoint, count=20, speed=1.0)
        assert not world.sensors[0].mobility.has_strict_kernel()
        world.advance(8.0)  # the region's diagonal is ~5.7 units
        # The inherited kernel would have drawn random targets instead.
        assert np.all(world.sensor_positions() == 0.0)

    def test_overridden_step_keeps_its_dynamics(self):
        class EastboundWaypoint(RandomWaypointMobility):
            def step(self, state: MobilityState, dt, rng):
                state.x = min(state.x + dt, self.region.x_max)

        world = waypoint_world(EastboundWaypoint, count=20)
        before = world.sensor_positions()
        world.advance(1.0)
        after = world.sensor_positions()
        assert np.array_equal(after[:, 1], before[:, 1])
        assert np.allclose(after[:, 0], np.minimum(before[:, 0] + 1.0, REGION.x_max))
