"""Parameter estimation for the conditional intensity of Eq. (1).

The paper relies on two estimation modes (Section III-A and the Flatten
operator description):

* **Batch maximum likelihood** — given a batch of events observed on a
  known spatio-temporal window, fit the parameters ``theta`` of the linear
  conditional intensity by maximising the inhomogeneous-Poisson
  log-likelihood::

      l(theta) = sum_i log lambda~(t_i, x_i, y_i; theta)
                 - integral over window of lambda~(.; theta)

  We optimise with SciPy's L-BFGS-B using a softplus-free positivity guard
  (the linear rate is clamped at a small floor inside the likelihood).

* **Online stochastic gradient descent** — the paper suggests maintaining
  the estimate over sliding windows with SGD (citing Bottou 2010).
  :class:`OnlineIntensityEstimator` performs per-event gradient steps on the
  same likelihood, so a Flatten operator can track a drifting intensity.
  :func:`observe_lockstep` advances many independent estimators together,
  one vectorised step per event index, bit-identically to running each
  estimator alone.

A cheap method-of-moments / least-squares initialiser based on quadrat
counts is also provided; it is used to seed the MLE and as a fallback when
the optimiser fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..errors import EstimationError, PointProcessError
from ..geometry import Rectangle, RectRegion, Region
from .events import EventBatch
from .intensity import LinearIntensity

#: Positivity floor used inside likelihood evaluations.
_RATE_FLOOR = 1e-8


@dataclass(frozen=True)
class EstimationResult:
    """Result of fitting a linear conditional intensity.

    Attributes
    ----------
    intensity:
        The fitted :class:`LinearIntensity`.
    theta:
        The fitted parameter vector ``(theta0, theta1, theta2, theta3)``.
    log_likelihood:
        Log-likelihood of the data under the fitted model.
    converged:
        Whether the optimiser reported convergence.
    iterations:
        Number of optimiser iterations (0 for closed-form fits).
    """

    intensity: LinearIntensity
    theta: Tuple[float, float, float, float]
    log_likelihood: float
    converged: bool
    iterations: int = 0


def _window_volume(region: Region, t_start: float, t_end: float) -> float:
    return region.area * (t_end - t_start)


def _coerce_region(region) -> Region:
    if isinstance(region, Rectangle):
        return RectRegion(region)
    if isinstance(region, Region):
        return region
    raise PointProcessError(f"expected Region or Rectangle, got {type(region)!r}")


def _design_matrix(batch: EventBatch) -> np.ndarray:
    """Design matrix with columns ``(1, t, x, y)``."""
    return np.column_stack(
        [np.ones(len(batch)), batch.t, batch.x, batch.y]
    )


def _integral_of_basis(region: Region, t_start: float, t_end: float) -> np.ndarray:
    """Integral over the window of each basis function ``(1, t, x, y)``.

    For an affine basis these integrate exactly: the integral of a coordinate
    over a box equals its midpoint value times the volume.
    """
    volume = _window_volume(region, t_start, t_end)
    t_mid = 0.5 * (t_start + t_end)
    # Area-weighted centroid of the (possibly composite) region.
    total_area = region.area
    cx = sum(r.center.x * r.area for r in region.rectangles) / total_area
    cy = sum(r.center.y * r.area for r in region.rectangles) / total_area
    return np.array([volume, t_mid * volume, cx * volume, cy * volume])


def fit_linear_intensity_least_squares(
    batch: EventBatch,
    region,
    t_start: float,
    t_end: float,
    *,
    bins: int = 4,
) -> EstimationResult:
    """Quadrat-count least-squares fit of the linear intensity.

    The window is split into ``bins x bins x bins`` spatio-temporal boxes,
    the empirical rate of each box is computed, and ``theta`` is obtained by
    ordinary least squares of the box rates against the box centroids.  This
    is a method-of-moments style estimator: cheap, closed form, and a good
    initialiser for the MLE.
    """
    region = _coerce_region(region)
    if t_end <= t_start:
        raise EstimationError("time window must have positive length")
    if bins <= 0:
        raise EstimationError("bins must be positive")
    if batch.is_empty:
        raise EstimationError("cannot estimate an intensity from an empty batch")

    bbox = region.bounding_box
    t_edges = np.linspace(t_start, t_end, bins + 1)
    x_edges = np.linspace(bbox.x_min, bbox.x_max, bins + 1)
    y_edges = np.linspace(bbox.y_min, bbox.y_max, bins + 1)

    rows = []
    targets = []
    for ti in range(bins):
        for xi in range(bins):
            for yi in range(bins):
                cell = Rectangle(x_edges[xi], y_edges[yi], x_edges[xi + 1], y_edges[yi + 1])
                cell_area = region.overlap_area(RectRegion(cell))
                if cell_area <= 0:
                    continue
                duration = t_edges[ti + 1] - t_edges[ti]
                in_cell = (
                    (batch.t >= t_edges[ti])
                    & (batch.t < t_edges[ti + 1])
                    & (batch.x >= x_edges[xi])
                    & (batch.x < x_edges[xi + 1])
                    & (batch.y >= y_edges[yi])
                    & (batch.y < y_edges[yi + 1])
                )
                count = int(np.count_nonzero(in_cell))
                rate = count / (cell_area * duration)
                t_mid = 0.5 * (t_edges[ti] + t_edges[ti + 1])
                x_mid = 0.5 * (x_edges[xi] + x_edges[xi + 1])
                y_mid = 0.5 * (y_edges[yi] + y_edges[yi + 1])
                rows.append([1.0, t_mid, x_mid, y_mid])
                targets.append(rate)
    if len(rows) < 4:
        raise EstimationError("not enough occupied quadrats to fit four parameters")
    design = np.asarray(rows)
    target = np.asarray(targets)
    theta, *_ = np.linalg.lstsq(design, target, rcond=None)
    intensity = LinearIntensity.from_theta(theta)
    ll = _log_likelihood(theta, batch, region, t_start, t_end)
    return EstimationResult(
        intensity=intensity,
        theta=tuple(float(v) for v in theta),
        log_likelihood=float(ll),
        converged=True,
        iterations=0,
    )


def _log_likelihood(
    theta: Sequence[float],
    batch: EventBatch,
    region: Region,
    t_start: float,
    t_end: float,
) -> float:
    """Inhomogeneous-Poisson log-likelihood of the linear model."""
    design = _design_matrix(batch)
    rates = design @ np.asarray(theta, dtype=float)
    rates = np.maximum(rates, _RATE_FLOOR)
    basis_integrals = _integral_of_basis(region, t_start, t_end)
    compensator = float(np.dot(basis_integrals, theta))
    return float(np.sum(np.log(rates)) - compensator)


def fit_linear_intensity_mle(
    batch: EventBatch,
    region,
    t_start: float,
    t_end: float,
    *,
    initial_theta: Optional[Sequence[float]] = None,
    max_iterations: int = 200,
) -> EstimationResult:
    """Maximum-likelihood fit of the paper's linear conditional intensity.

    Parameters
    ----------
    batch:
        Observed events.
    region, t_start, t_end:
        The observation window (needed for the compensator term).
    initial_theta:
        Optional starting point; defaults to the least-squares fit, falling
        back to a flat intensity at the empirical mean rate.
    """
    region = _coerce_region(region)
    if batch.is_empty:
        raise EstimationError("cannot estimate an intensity from an empty batch")
    if t_end <= t_start:
        raise EstimationError("time window must have positive length")

    if initial_theta is None:
        try:
            initial_theta = fit_linear_intensity_least_squares(
                batch, region, t_start, t_end
            ).theta
        except EstimationError:
            mean_rate = len(batch) / _window_volume(region, t_start, t_end)
            initial_theta = (mean_rate, 0.0, 0.0, 0.0)
    theta0 = np.asarray(initial_theta, dtype=float)
    if theta0.shape != (4,):
        raise EstimationError("initial theta must have four components")

    design = _design_matrix(batch)
    basis_integrals = _integral_of_basis(region, t_start, t_end)

    def negative_log_likelihood(theta: np.ndarray) -> float:
        rates = design @ theta
        rates = np.maximum(rates, _RATE_FLOOR)
        return float(np.dot(basis_integrals, theta) - np.sum(np.log(rates)))

    def gradient(theta: np.ndarray) -> np.ndarray:
        rates = design @ theta
        rates = np.maximum(rates, _RATE_FLOOR)
        return basis_integrals - design.T @ (1.0 / rates)

    result = optimize.minimize(
        negative_log_likelihood,
        theta0,
        jac=gradient,
        method="L-BFGS-B",
        options={"maxiter": max_iterations},
    )
    theta_hat = result.x
    intensity = LinearIntensity.from_theta(theta_hat)
    return EstimationResult(
        intensity=intensity,
        theta=tuple(float(v) for v in theta_hat),
        log_likelihood=float(-result.fun),
        converged=bool(result.success),
        iterations=int(result.nit),
    )


class OnlineIntensityEstimator:
    """Online SGD estimator of the linear conditional intensity.

    The paper proposes estimating ``theta`` over sliding windows with
    stochastic gradient descent so the Flatten operator can track drift.
    Each observed event contributes a stochastic gradient of the
    log-likelihood; the compensator term is approximated by spreading the
    window integral uniformly over the events observed in that window.

    Parameters
    ----------
    region, window_duration:
        The observation window geometry; needed for the compensator.
    learning_rate:
        Base SGD step size.  The effective step decays as ``1 / sqrt(k)``
        with the update count ``k`` (Bottou's schedule).
    initial_theta:
        Starting parameters; defaults to a small flat intensity.
    expected_events_per_window:
        Rough prior for how many events arrive per window; used to scale the
        per-event compensator share before any data has been seen.
    """

    def __init__(
        self,
        region,
        window_duration: float,
        *,
        learning_rate: float = 0.05,
        initial_theta: Optional[Sequence[float]] = None,
        expected_events_per_window: float = 50.0,
    ) -> None:
        if window_duration <= 0:
            raise EstimationError("window duration must be positive")
        if learning_rate <= 0:
            raise EstimationError("learning rate must be positive")
        if expected_events_per_window <= 0:
            raise EstimationError("expected events per window must be positive")
        self._region = _coerce_region(region)
        self._window_duration = float(window_duration)
        self._learning_rate = float(learning_rate)
        self._updates = 0
        self._events_in_window = expected_events_per_window
        if initial_theta is None:
            initial_theta = (1.0, 0.0, 0.0, 0.0)
        self._theta = np.asarray(initial_theta, dtype=float)
        if self._theta.shape != (4,):
            raise EstimationError("initial theta must have four components")

    # ------------------------------------------------------------------
    @property
    def theta(self) -> Tuple[float, float, float, float]:
        """The current parameter estimate."""
        return tuple(float(v) for v in self._theta)

    @property
    def intensity(self) -> LinearIntensity:
        """The current estimate as an intensity model."""
        return LinearIntensity.from_theta(self._theta)

    @property
    def updates(self) -> int:
        """Number of SGD updates applied so far."""
        return self._updates

    # ------------------------------------------------------------------
    def _per_event_compensator(self, t_window_start: float) -> np.ndarray:
        t_end = t_window_start + self._window_duration
        basis_integrals = _integral_of_basis(self._region, t_window_start, t_end)
        return basis_integrals / max(self._events_in_window, 1.0)

    def observe_event(self, t: float, x: float, y: float, *, window_start: Optional[float] = None) -> None:
        """Apply one SGD step for a single observed event."""
        window_start = window_start if window_start is not None else max(t - self._window_duration, 0.0)
        features = np.array([1.0, t, x, y])
        rate = max(float(features @ self._theta), _RATE_FLOOR)
        gradient = features / rate - self._per_event_compensator(window_start)
        self._updates += 1
        step = self._learning_rate / np.sqrt(self._updates)
        self._theta = self._theta + step * gradient

    def observe_batch(
        self, batch: EventBatch, *, window_start: Optional[float] = None
    ) -> None:
        """Apply SGD steps for every event in a batch (in time order).

        ``window_start`` anchors the compensator's observation window; it
        defaults to the batch's own earliest event time, so that batches
        starting at large simulation times integrate the basis over the
        window they were actually observed on (a fixed ``0.0`` anchor would
        bias the time-slope gradient more and more as time advances).

        Runs :func:`observe_lockstep` with this one estimator: bit-identical
        to calling :meth:`observe_event` per event in time order.
        """
        observe_lockstep([self], [batch], [window_start])

    #: Alias of :meth:`observe_batch`; the benchmark harness's SGD trace
    #: point patches this name on the class.
    observe_batch_fused = observe_batch

    def result(self) -> EstimationResult:
        """Snapshot the current estimate as an :class:`EstimationResult`."""
        return EstimationResult(
            intensity=self.intensity,
            theta=self.theta,
            log_likelihood=float("nan"),
            converged=self._updates > 0,
            iterations=self._updates,
        )


def observe_lockstep(
    estimators: Sequence[OnlineIntensityEstimator],
    batches: Sequence[EventBatch],
    window_starts: Optional[Sequence[Optional[float]]] = None,
) -> None:
    """Advance many independent SGD estimators through their batches at once.

    Estimator ``j`` observes ``batches[j]`` with its compensator anchored at
    ``window_starts[j]`` (``None`` means the batch's earliest event time),
    exactly as :meth:`OnlineIntensityEstimator.observe_batch` would.  The
    recurrence is sequential within one estimator but independent across
    estimators, so the chains advance in lockstep: step ``i`` applies the
    ``i``-th event (in time order) of every chain that has one, as one
    ``vecdot`` over the stacked parameter vectors plus elementwise ops.
    Chains are ranked longest first, so the chains still active at step
    ``i`` are a prefix of the stack and each step reads one contiguous
    slice.

    Per chain the arithmetic is :meth:`OnlineIntensityEstimator.observe_event`'s,
    operation for operation: ``vecdot`` reduces each row like a 1-D ``@``,
    and the elementwise steps round identically whether applied to one row
    or many.  The estimators must be distinct; empty batches leave theirs
    untouched.
    """
    if window_starts is None:
        window_starts = [None] * len(estimators)
    chains = []
    for estimator, batch, start in zip(estimators, batches, window_starts):  # craqr: ignore[CRQ402] - per chain, not per event
        n = len(batch)
        if n == 0:
            continue
        if start is None:
            start = float(np.min(batch.t))
        # Track the running average of events per window for the compensator.
        estimator._events_in_window = 0.7 * estimator._events_in_window + 0.3 * n
        compensator = estimator._per_event_compensator(start)
        order = np.argsort(batch.t, kind="stable")
        chains.append((estimator, compensator, batch.t[order], batch.x[order], batch.y[order]))
    if not chains:
        return

    # Rank chains longest first (stable), so the chains still active at
    # step i are the first active[i] rows of the stack.
    chains.sort(key=lambda chain: -chain[2].shape[0])
    ranked = [chain[0] for chain in chains]
    lengths = np.array([chain[2].shape[0] for chain in chains], dtype=np.int64)
    steps_total = int(lengths[0])
    active = len(chains) - np.cumsum(np.bincount(lengths, minlength=steps_total + 1))[:steps_total]
    offsets = np.concatenate(([0], np.cumsum(active)[:-1]))
    # Flat step-major layout: event s (in time order) of the chain ranked r
    # sits in row offsets[s] + r, so step s reads one contiguous slice.
    rank = np.repeat(np.arange(len(chains)), lengths)
    step = np.arange(rank.shape[0]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    rows = offsets[step] + rank
    features = np.empty((rows.shape[0], 4))
    features[:, 0] = 1.0
    for column in (1, 2, 3):  # t, x, y
        features[rows, column] = np.concatenate([chain[column + 1] for chain in chains])
    # Bottou's 1/sqrt(k) schedule, k counting each estimator's own updates.
    updates = np.array([est._updates for est in ranked], dtype=np.int64)
    rates = np.array([est._learning_rate for est in ranked])
    step_sizes = np.empty((rows.shape[0], 1))
    step_sizes[rows, 0] = rates[rank] / np.sqrt(updates[rank] + step + 1)
    compensator = np.stack([chain[1] for chain in chains])
    theta = np.stack([est._theta for est in ranked])

    for lo, width in zip(offsets, active):  # craqr: ignore[CRQ402] - the SGD recurrence is sequential in the event index; each step is vectorised across chains
        hi = lo + width
        event_features = features[lo:hi]
        rate = np.maximum(np.vecdot(event_features, theta[:width]), _RATE_FLOOR)
        gradient = event_features / rate[:, None]
        gradient -= compensator[:width]
        gradient *= step_sizes[lo:hi]
        theta[:width] += gradient

    for row, estimator in enumerate(ranked):
        estimator._theta = theta[row].copy()
        estimator._updates += int(lengths[row])
