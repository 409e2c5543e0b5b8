"""Mobility models for mobile sensors.

The paper's core motivation is that crowdsensed data has a highly skewed
spatio-temporal distribution "caused largely due to the mobility of
sensors".  These models generate that mobility:

* :class:`StationaryMobility` — a degenerate model for WSN-style baselines.
* :class:`RandomWalkMobility` — independent Gaussian steps.
* :class:`RandomWaypointMobility` — the classic pick-a-destination-and-walk
  model; produces centre-heavy spatial densities.
* :class:`GaussMarkovMobility` — velocity with temporal correlation.
* :class:`HotspotMobility` — sensors are attracted to a set of hotspots,
  producing the strong spatial skew used in the skew-mitigation experiment.

All models implement the scalar entry point, and the vectorisable ones add
array kernels:

* ``step(state, dt, rng)`` — advance one sensor's state in place, drawing
  from that sensor's private generator.  This is the reference dynamics and
  the strict-mode fallback: the world loops it once per sensor, so a seeded
  run is byte-identical whatever the storage backing ``state`` (dataclass or
  SoA view).
* ``step_strict(arrays, indices, dt, rngs)`` — the strict-mode kernel:
  advance a whole group of sensors as array operations over a
  :class:`~repro.sensing.state.SensorStateArrays` while every row still
  draws from its own generator ``rngs[row]``, in the order ``step`` would.
  Generators are independent, so only the order *within* one sensor
  matters, and the arithmetic repeats ``step``'s exactly (including
  ``math.hypot``, via :func:`_hypot_exact`): the positions and streams are
  byte-identical to the scalar loop.  :class:`RandomWaypointMobility`
  implements it.
* ``step_batch(arrays, indices, dt, rng)`` — the fast-sim kernel: the same
  array form, drawing from one shared generator.  Draw *order* across
  sensors differs from the scalar loop (statistically equivalent, not
  bit-equal), which is exactly the trade the world's ``vectorized_rng``
  mode makes.

``batch_key()`` returns a hashable grouping key for models that support the
batch kernel: sensors whose models share a key are stepped by one
``step_batch`` call (fast-sim) or one ``step_strict`` call (strict, when
:meth:`MobilityModel.has_strict_kernel`).  The base implementation returns
``None`` (no grouping) and falls back to looping ``step`` over SoA views, so
custom subclasses stay correct in either mode.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from ..errors import CraqrError
from ..geometry import Rectangle
from .state import SensorStateArrays

#: Distances below this are treated as "already at the target".
_TINY = 1e-12

#: Smallest positive normal double (C's ``DBL_MIN``).
_DBL_MIN = 2.0 ** -1022

#: Veltkamp splitting constant ``2**27 + 1`` (Dekker's exact product).
_VELTKAMP = 134217729.0

#: Before 3.12, ``math.hypot`` took a separate, divide-by-max path when the
#: larger coordinate is below ``2**-1024``; 3.12 rescales by ``DBL_MIN``.
_LEGACY_TINY_HYPOT = sys.version_info < (3, 12)


def _dl_square(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dekker's exact square: ``hi + lo == x * x`` (CPython's ``dl_mul(x, x)``).

    Both factors split identically, so the split is computed once; the
    terms are CPython's own, in its order.
    """
    t = x * _VELTKAMP
    x_hi = t - (t - x)
    x_lo = x - x_hi
    p = x_hi * x_hi
    cross = x_hi * x_lo
    q = cross + cross  # x_hi * y_lo + x_lo * y_hi with y == x
    hi = p + q
    return hi, p - hi + q + x_lo * x_lo


def _scaled_norm(ax: np.ndarray, ay: np.ndarray, largest: np.ndarray) -> np.ndarray:
    """CPython's ``vector_norm`` for two non-negative finite coordinates.

    Every sum is ``dl_fast_sum(csum, term)`` (``csum >= term``, so its
    error term is exact) and the fractional parts accumulate as in C.
    """
    _, exponent = np.frexp(largest)
    scale = np.ldexp(1.0, -exponent)
    hi, lo = _dl_square(ax * scale)  # lossless: a power-of-two scale
    csum = 1.0 + hi
    frac2 = 0.0 + ((1.0 - csum) + hi)
    frac1 = 0.0 + lo
    hi, lo = _dl_square(ay * scale)
    total = csum + hi
    frac2 = frac2 + ((csum - total) + hi)
    csum = total
    frac1 = frac1 + lo
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    # dl_mul(-h, h) is exactly the negated square (rounding is symmetric).
    hi, lo = _dl_square(h)
    total = csum - hi
    frac2 = frac2 + ((csum - total) - hi)
    csum = total
    frac1 = frac1 - lo
    residual = csum - 1.0 + (frac1 + frac2)
    h = h + residual / (2.0 * h)  # one differential correction step
    return h / scale


def _hypot_exact(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dy)``, bit for bit.

    ``np.hypot`` rounds differently from ``math.hypot`` in ~0.6% of random
    inputs, which would move a strict-mode sensor by an ulp and change its
    stream.  This is a straight array port of CPython's ``vector_norm``:
    frexp/ldexp scaling, Dekker products summed with exact error terms,
    and one differential correction, including the interpreter-specific
    path for coordinates below ``2**-1024`` and the inf/NaN/zero cases.
    """
    ax = np.abs(np.asarray(dx, dtype=np.float64))
    ay = np.abs(np.asarray(dy, dtype=np.float64))
    largest = np.maximum(ax, ay)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = _scaled_norm(ax, ay, largest)
        tiny = largest < 2.0 ** -1024
        if tiny.any():
            tx, ty, tm = ax[tiny], ay[tiny], largest[tiny]
            if _LEGACY_TINY_HYPOT:
                csum = np.ones_like(tm)
                frac = np.zeros_like(tm)
                for coordinate in (tx, ty):
                    term = coordinate / tm
                    term = term * term
                    total = csum + term
                    frac = frac + ((csum - total) + term)
                    csum = total
                out[tiny] = tm * np.sqrt(csum - 1.0 + frac)
            else:
                out[tiny] = _DBL_MIN * _scaled_norm(
                    tx / _DBL_MIN, ty / _DBL_MIN, tm / _DBL_MIN
                )
    special = ~np.isfinite(largest) | (largest == 0.0)
    if special.any():
        # np.maximum propagates NaN, so `largest` flags NaN rows too;
        # math.hypot returns inf even when the other coordinate is NaN.
        out = np.where(largest == 0.0, 0.0, out)
        out = np.where(np.isnan(ax) | np.isnan(ay), np.nan, out)
        out = np.where(np.isinf(ax) | np.isinf(ay), np.inf, out)
    return out

@dataclass
class MobilityState:
    """Mutable per-sensor mobility state (standalone dataclass form).

    World-owned sensors use the SoA-backed view
    (:class:`~repro.sensing.state.ArrayBackedMobilityState`) instead; both
    expose the same attributes and the scalar ``step`` implementations work
    identically on either.
    """

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    target_x: Optional[float] = None
    target_y: Optional[float] = None
    pause_remaining: float = 0.0


class MobilityModel(ABC):
    """Abstract mobility model."""

    def __init__(self, region: Rectangle) -> None:
        self._region = region

    @property
    def region(self) -> Rectangle:
        """The world rectangle sensors move in."""
        return self._region

    def initial_state(self, rng: np.random.Generator) -> MobilityState:
        """Place the sensor uniformly at random in the region."""
        return MobilityState(
            x=float(rng.uniform(self._region.x_min, self._region.x_max)),
            y=float(rng.uniform(self._region.y_min, self._region.y_max)),
        )

    @abstractmethod
    def step(self, state: MobilityState, dt: float, rng: np.random.Generator) -> None:
        """Advance the state in place by ``dt`` time units."""

    def batch_key(self) -> Optional[Hashable]:
        """Grouping key for the vectorised kernel, or ``None`` when unsupported.

        Two model instances with equal keys must behave identically, so the
        world may route all their sensors through one :meth:`step_batch`
        call on a representative instance.
        """
        return None

    def _kernel_key(self, *params: Hashable) -> Optional[Hashable]:
        """Build a ``batch_key`` tuple of ``(class, region, *params)``.

        A class is only grouped when it defines its *own* ``step_batch``:
        a subclass that customises the scalar dynamics in any way —
        overriding ``step`` or just a helper hook like ``_pick_target`` —
        without shipping a matching kernel would otherwise be silently
        stepped by the inherited kernel in fast-sim mode, discarding its
        dynamics.  Such models fall back to per-object stepping instead
        (and the class in the key keeps distinct subclasses from ever
        sharing a group).
        """
        cls = type(self)
        if "step_batch" not in vars(cls):
            return None
        return (cls, self._region) + params

    def has_strict_kernel(self) -> bool:
        """Whether strict mode may step this model's group with ``step_strict``.

        Same rule as :meth:`_kernel_key`: only a class that defines its
        *own* ``step_strict`` qualifies, so a subclass overriding ``step``
        or ``_pick_target`` without a matching kernel keeps its dynamics
        through the scalar loop.
        """
        return "step_strict" in vars(type(self))

    def step_batch(
        self,
        arrays: SensorStateArrays,
        indices: np.ndarray,
        dt: float,
        rng: np.random.Generator,
    ) -> None:
        """Advance the rows ``indices`` of ``arrays`` by ``dt`` at once.

        The fallback loops the scalar :meth:`step` over SoA views with the
        shared generator; vectorised models override it with masked array
        kernels.
        """
        for i in np.asarray(indices, dtype=np.int64):
            self.step(arrays.state_view(int(i)), dt, rng)

    def _clamp(self, state: MobilityState) -> None:
        """Keep the position inside the region (reflecting at the walls)."""
        state.x = min(max(state.x, self._region.x_min), self._region.x_max)
        state.y = min(max(state.y, self._region.y_min), self._region.y_max)

    def _clamp_batch(self, arrays: SensorStateArrays, idx: np.ndarray) -> None:
        """Vectorised :meth:`_clamp` over the rows ``idx``."""
        region = self._region
        arrays.x[idx] = np.clip(arrays.x[idx], region.x_min, region.x_max)
        arrays.y[idx] = np.clip(arrays.y[idx], region.y_min, region.y_max)


class StationaryMobility(MobilityModel):
    """Sensors that never move (traditional WSN baseline)."""

    def step(self, state: MobilityState, dt: float, rng: np.random.Generator) -> None:
        del dt, rng  # stationary sensors ignore both

    def batch_key(self) -> Optional[Hashable]:
        return self._kernel_key()

    def step_batch(self, arrays, indices, dt, rng) -> None:
        del arrays, indices, dt, rng  # nothing moves


class RandomWalkMobility(MobilityModel):
    """Independent Gaussian displacement at every step."""

    def __init__(self, region: Rectangle, *, step_std: float = 0.05) -> None:
        super().__init__(region)
        if step_std <= 0:
            raise CraqrError("step_std must be positive")
        self._step_std = step_std

    def step(self, state: MobilityState, dt: float, rng: np.random.Generator) -> None:
        scale = self._step_std * math.sqrt(dt)
        state.x += float(rng.normal(0.0, scale))
        state.y += float(rng.normal(0.0, scale))
        self._clamp(state)

    def batch_key(self) -> Optional[Hashable]:
        return self._kernel_key(self._step_std)

    def step_batch(self, arrays, indices, dt, rng) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        scale = self._step_std * math.sqrt(dt)
        steps = rng.normal(0.0, scale, (2, idx.size))
        arrays.x[idx] += steps[0]
        arrays.y[idx] += steps[1]
        self._clamp_batch(arrays, idx)


class RandomWaypointMobility(MobilityModel):
    """Pick a uniform destination, walk towards it at constant speed, pause, repeat."""

    def __init__(
        self,
        region: Rectangle,
        *,
        speed: float = 0.2,
        pause: float = 0.5,
    ) -> None:
        super().__init__(region)
        if speed <= 0:
            raise CraqrError("speed must be positive")
        if pause < 0:
            raise CraqrError("pause must be non-negative")
        self._speed = speed
        self._pause = pause

    def _pick_target(self, state: MobilityState, rng: np.random.Generator) -> None:
        state.target_x = float(rng.uniform(self._region.x_min, self._region.x_max))
        state.target_y = float(rng.uniform(self._region.y_min, self._region.y_max))

    def step(self, state: MobilityState, dt: float, rng: np.random.Generator) -> None:
        if state.pause_remaining > 0:
            state.pause_remaining = max(0.0, state.pause_remaining - dt)
            return
        if state.target_x is None or state.target_y is None:
            self._pick_target(state, rng)
        dx = state.target_x - state.x
        dy = state.target_y - state.y
        distance = math.hypot(dx, dy)
        travel = self._speed * dt
        if travel >= distance:
            state.x, state.y = state.target_x, state.target_y
            state.target_x = state.target_y = None
            state.pause_remaining = self._pause
        else:
            state.x += travel * dx / distance
            state.y += travel * dy / distance
        self._clamp(state)

    def batch_key(self) -> Optional[Hashable]:
        return self._kernel_key(self._speed, self._pause)

    def step_strict(
        self,
        arrays: SensorStateArrays,
        indices: np.ndarray,
        dt: float,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """Advance the rows ``indices`` by ``dt``, each on its own generator.

        Byte-identical to calling :meth:`step` on every row with
        ``rngs[row]``: only rows without a target draw (``uniform(x)`` then
        ``uniform(y)``, as :meth:`_pick_target` does), and the move
        arithmetic uses :func:`_hypot_exact`, so the positions and every
        generator's state match the scalar loop exactly.
        """
        idx = np.asarray(indices, dtype=np.int64)
        active = self._run_pause_timers(arrays, idx, dt)
        if active.size == 0:
            return
        tx = arrays.target_x[active]
        ty = arrays.target_y[active]
        region = self._region
        need = np.flatnonzero(np.isnan(tx) | np.isnan(ty))
        for k, row in zip(need, active[need]):  # craqr: ignore[CRQ402] - only the rows that draw a new target (~1% per sub-step)
            rng = rngs[row]
            tx[k] = rng.uniform(region.x_min, region.x_max)
            ty[k] = rng.uniform(region.y_min, region.y_max)
        self._walk(arrays, active, tx, ty, dt, _hypot_exact)

    def step_batch(self, arrays, indices, dt, rng) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        active = self._run_pause_timers(arrays, idx, dt)
        if active.size == 0:
            return
        tx = arrays.target_x[active]
        ty = arrays.target_y[active]
        need = np.isnan(tx)
        if need.any():
            region = self._region
            count = int(need.sum())
            tx[need] = rng.uniform(region.x_min, region.x_max, count)
            ty[need] = rng.uniform(region.y_min, region.y_max, count)
        self._walk(arrays, active, tx, ty, dt, np.hypot)

    @staticmethod
    def _run_pause_timers(
        arrays: SensorStateArrays, idx: np.ndarray, dt: float
    ) -> np.ndarray:
        """Run the pausing rows' timers down; return the rows that walk.

        Like :meth:`step`, a pausing sensor only runs its timer this step
        and starts walking again on the *next* step.
        """
        pause = arrays.pause_remaining[idx]
        paused = pause > 0.0
        if not paused.any():
            return idx
        arrays.pause_remaining[idx[paused]] = np.maximum(0.0, pause[paused] - dt)
        return idx[~paused]

    def _walk(self, arrays, active, tx, ty, dt, hypot) -> None:
        """Move the ``active`` rows towards ``(tx, ty)``; arrive, pause, clamp.

        The arithmetic repeats :meth:`step` term for term; the strict
        kernel passes :func:`_hypot_exact` so it stays bit-equal to it.
        """
        x = arrays.x[active]
        y = arrays.y[active]
        dx = tx - x
        dy = ty - y
        distance = hypot(dx, dy)
        travel = self._speed * dt
        arrive = travel >= distance
        # Walking rows have distance > travel >= 0; arriving rows never
        # read the divisor, so 1.0 only keeps them finite.
        divisor = np.where(arrive, 1.0, distance)
        region = self._region
        arrays.x[active] = np.clip(
            np.where(arrive, tx, x + travel * dx / divisor), region.x_min, region.x_max
        )
        arrays.y[active] = np.clip(
            np.where(arrive, ty, y + travel * dy / divisor), region.y_min, region.y_max
        )
        arrays.target_x[active] = np.where(arrive, np.nan, tx)
        arrays.target_y[active] = np.where(arrive, np.nan, ty)
        arrays.pause_remaining[active[arrive]] = self._pause


class GaussMarkovMobility(MobilityModel):
    """Velocity process with temporal correlation (Gauss-Markov model).

    ``v_{t+1} = alpha * v_t + (1 - alpha) * mean_speed * u_t + noise`` where
    ``u_t`` is the unit vector of the current heading: the speed reverts
    toward ``mean_speed`` along the direction the sensor is already moving,
    while the noise term (scaled by ``sqrt(1 - alpha^2)``) perturbs both
    components.  Velocity reflects off the region walls.
    """

    def __init__(
        self,
        region: Rectangle,
        *,
        mean_speed: float = 0.15,
        alpha: float = 0.75,
        speed_std: float = 0.05,
    ) -> None:
        super().__init__(region)
        if not 0 <= alpha <= 1:
            raise CraqrError("alpha must be in [0, 1]")
        if mean_speed <= 0 or speed_std <= 0:
            raise CraqrError("mean_speed and speed_std must be positive")
        self._mean_speed = mean_speed
        self._alpha = alpha
        self._speed_std = speed_std

    def initial_state(self, rng: np.random.Generator) -> MobilityState:
        state = super().initial_state(rng)
        angle = rng.uniform(0.0, 2 * math.pi)
        state.vx = self._mean_speed * math.cos(angle)
        state.vy = self._mean_speed * math.sin(angle)
        return state

    def step(self, state: MobilityState, dt: float, rng: np.random.Generator) -> None:
        a = self._alpha
        noise_scale = self._speed_std * math.sqrt(1 - a * a)
        speed = math.hypot(state.vx, state.vy)
        if speed > _TINY:
            mean_vx = self._mean_speed * state.vx / speed
            mean_vy = self._mean_speed * state.vy / speed
        else:
            mean_vx = mean_vy = 0.0
        state.vx = a * state.vx + (1 - a) * mean_vx + float(
            rng.normal(0.0, noise_scale)
        )
        state.vy = a * state.vy + (1 - a) * mean_vy + float(
            rng.normal(0.0, noise_scale)
        )
        state.x += state.vx * dt
        state.y += state.vy * dt
        # Reflect velocity when a wall is hit so sensors stay inside.
        if state.x <= self._region.x_min or state.x >= self._region.x_max:
            state.vx = -state.vx
        if state.y <= self._region.y_min or state.y >= self._region.y_max:
            state.vy = -state.vy
        self._clamp(state)

    def batch_key(self) -> Optional[Hashable]:
        return self._kernel_key(self._mean_speed, self._alpha, self._speed_std)

    def step_batch(self, arrays, indices, dt, rng) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        a = self._alpha
        noise_scale = self._speed_std * math.sqrt(1 - a * a)
        vx = arrays.vx[idx]
        vy = arrays.vy[idx]
        speed = np.hypot(vx, vy)
        safe = np.maximum(speed, _TINY)
        moving = speed > _TINY
        mean_vx = np.where(moving, self._mean_speed * vx / safe, 0.0)
        mean_vy = np.where(moving, self._mean_speed * vy / safe, 0.0)
        noise = rng.normal(0.0, noise_scale, (2, idx.size))
        vx = a * vx + (1 - a) * mean_vx + noise[0]
        vy = a * vy + (1 - a) * mean_vy + noise[1]
        region = self._region
        x = arrays.x[idx] + vx * dt
        y = arrays.y[idx] + vy * dt
        arrays.vx[idx] = np.where((x <= region.x_min) | (x >= region.x_max), -vx, vx)
        arrays.vy[idx] = np.where((y <= region.y_min) | (y >= region.y_max), -vy, vy)
        arrays.x[idx] = np.clip(x, region.x_min, region.x_max)
        arrays.y[idx] = np.clip(y, region.y_min, region.y_max)


class HotspotMobility(MobilityModel):
    """Sensors gravitate towards hotspots, producing strong spatial skew.

    Each step the sensor moves towards its currently assigned hotspot with
    some jitter; occasionally it re-samples which hotspot it is attracted to
    (weighted by hotspot popularity).
    """

    def __init__(
        self,
        region: Rectangle,
        hotspots: Sequence[Tuple[float, float, float]],
        *,
        speed: float = 0.2,
        jitter: float = 0.03,
        switch_probability: float = 0.02,
    ) -> None:
        super().__init__(region)
        if not hotspots:
            raise CraqrError("hotspot mobility needs at least one hotspot")
        for spot in hotspots:
            if len(spot) != 3 or spot[2] <= 0:
                raise CraqrError("hotspots must be (x, y, weight>0) triples")
        if speed <= 0 or jitter < 0:
            raise CraqrError("speed must be positive and jitter non-negative")
        if not 0 <= switch_probability <= 1:
            raise CraqrError("switch_probability must be in [0, 1]")
        self._hotspots = [(float(x), float(y), float(w)) for x, y, w in hotspots]
        weights = np.array([w for _, _, w in self._hotspots])
        self._weights = weights / weights.sum()
        self._hotspot_xs = np.array([x for x, _, _ in self._hotspots])
        self._hotspot_ys = np.array([y for _, y, _ in self._hotspots])
        self._speed = speed
        self._jitter = jitter
        self._switch_probability = switch_probability

    def _assign_hotspot(self, state: MobilityState, rng: np.random.Generator) -> None:
        index = int(rng.choice(len(self._hotspots), p=self._weights))
        hx, hy, _ = self._hotspots[index]
        state.target_x, state.target_y = hx, hy

    def initial_state(self, rng: np.random.Generator) -> MobilityState:
        state = super().initial_state(rng)
        self._assign_hotspot(state, rng)
        return state

    def step(self, state: MobilityState, dt: float, rng: np.random.Generator) -> None:
        if state.target_x is None or rng.random() < self._switch_probability:
            self._assign_hotspot(state, rng)
        dx = state.target_x - state.x
        dy = state.target_y - state.y
        distance = math.hypot(dx, dy)
        travel = min(self._speed * dt, distance)
        if distance > _TINY:
            state.x += travel * dx / distance
            state.y += travel * dy / distance
        state.x += float(rng.normal(0.0, self._jitter * math.sqrt(dt)))
        state.y += float(rng.normal(0.0, self._jitter * math.sqrt(dt)))
        self._clamp(state)

    def batch_key(self) -> Optional[Hashable]:
        return self._kernel_key(
            tuple(self._hotspots), self._speed, self._jitter,
            self._switch_probability,
        )

    def step_batch(self, arrays, indices, dt, rng) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        n = idx.size
        tx = arrays.target_x[idx]
        ty = arrays.target_y[idx]
        switch = np.isnan(tx) | (rng.random(n) < self._switch_probability)
        if switch.any():
            choice = rng.choice(
                len(self._hotspots), size=int(switch.sum()), p=self._weights
            )
            tx[switch] = self._hotspot_xs[choice]
            ty[switch] = self._hotspot_ys[choice]
            arrays.target_x[idx] = tx
            arrays.target_y[idx] = ty
        x = arrays.x[idx]
        y = arrays.y[idx]
        dx = tx - x
        dy = ty - y
        distance = np.hypot(dx, dy)
        travel = np.minimum(self._speed * dt, distance)
        scale = np.where(distance > _TINY, travel / np.maximum(distance, _TINY), 0.0)
        jitter = rng.normal(0.0, self._jitter * math.sqrt(dt), (2, n))
        arrays.x[idx] = x + scale * dx + jitter[0]
        arrays.y[idx] = y + scale * dy + jitter[1]
        self._clamp_batch(arrays, idx)
