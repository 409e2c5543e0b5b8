"""``_hypot_exact`` is ``math.hypot``, bit for bit, on this interpreter.

The strict waypoint kernel moves sensors by ``travel * dx / distance``;
an ``np.hypot`` distance rounds differently from the scalar ``step``'s
``math.hypot`` in ~0.6% of inputs, which would shift a position by an
ulp and change every later draw of that sensor.  The port must therefore
match ``math.hypot`` exactly, and ``math.hypot`` differs between CPython
versions (3.12 rescales tiny inputs differently), so these tests pin the
port to whichever interpreter runs them.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sensing.mobility import _hypot_exact


def assert_matches_math_hypot(pairs):
    dx = np.array([a for a, _ in pairs], dtype=np.float64)
    dy = np.array([b for _, b in pairs], dtype=np.float64)
    got = _hypot_exact(dx, dy)
    for (a, b), value in zip(pairs, got):
        assert float(value).hex() == math.hypot(a, b).hex(), (a.hex(), b.hex())


signed_zeros = st.sampled_from([0.0, -0.0])
subnormals = st.floats(-(2.0 ** -1022), 2.0 ** -1022, allow_subnormal=True)
waypoint_deltas = st.floats(-4.0, 4.0)
magnitudes = st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-300.0, 300.0),
)
coordinates = st.one_of(
    st.floats(allow_subnormal=True),  # includes ±inf and NaN
    signed_zeros,
    subnormals,
    waypoint_deltas,
    magnitudes,
)


@st.composite
def near_ties(draw):
    """``(a, b)`` whose true hypot lies within a hair of a rounding midpoint.

    With ``b * b ~= a * ulp(a)``, ``sqrt(a*a + b*b) ~= a + ulp(a) / 2``:
    the correctly rounded result is decided by the last few bits, which is
    where hypot implementations disagree.
    """
    a = draw(st.one_of(st.floats(1.0, 2.0), magnitudes.map(abs)).filter(
        lambda v: 1e-140 < v < 1e140
    ))
    k = draw(st.floats(0.5, 1.5)) * draw(st.sampled_from([1.0, 2.0, 3.0]))
    b = math.sqrt(a * math.ulp(a) * k)
    return draw(st.sampled_from([(a, b), (b, a), (-a, b), (a, -b)]))


pairs = st.one_of(
    st.tuples(coordinates, coordinates),
    coordinates.map(lambda v: (v, v)),  # equal magnitudes
    coordinates.map(lambda v: (v, -v)),
    coordinates.map(lambda v: (v, 0.0)),  # one axis zero
    coordinates.map(lambda v: (-0.0, v)),
    near_ties(),
    st.tuples(subnormals, subnormals),
)


class TestHypotExact:
    @given(st.lists(pairs, min_size=1, max_size=40))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_matches_math_hypot_bit_for_bit(self, batch):
        # Whole lists go through one call, so special rows (inf, NaN, zero,
        # subnormal) share an array with ordinary ones, as in the kernel.
        assert_matches_math_hypot(batch)

    def test_seeded_bulk_sample_matches(self):
        rng = np.random.default_rng(20261018)
        n = 40_000
        blocks = [
            rng.uniform(-4.0, 4.0, (n, 2)),
            rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-300, 300, (n, 2)),
            10.0 ** rng.uniform(-12.0, 2.0, (n, 2)),
            10.0 ** rng.uniform(-323.0, -300.0, (n, 2)),
        ]
        a, b = np.concatenate(blocks).T
        got = _hypot_exact(a, b)
        expected = np.array([math.hypot(u, v) for u, v in zip(a.tolist(), b.tolist())])
        assert got.tobytes() == expected.tobytes()
        # The sample is sensitive: np.hypot itself misses on a fraction.
        assert np.hypot(a, b).tobytes() != expected.tobytes()

    def test_special_values(self):
        inf, nan = math.inf, math.nan
        assert_matches_math_hypot(
            [
                (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0),
                (inf, nan), (nan, -inf), (nan, 1.0), (1.0, nan), (nan, 0.0),
                (-inf, 2.0), (3.0, 4.0), (-5e-324, 5e-324),
                (1.7976931348623157e308, 1.7976931348623157e308),
                (2.0 ** -1024, 2.0 ** -1030), (2.0 ** -1023, 2.0 ** -1023),
            ]
        )

    def test_scalar_and_empty_inputs(self):
        assert float(_hypot_exact(3.0, 4.0)) == 5.0
        assert _hypot_exact(np.empty(0), np.empty(0)).shape == (0,)
