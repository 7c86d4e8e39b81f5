"""Symmetries of the simplex flow as properties of the period detector on
the center regime: k -> c*k (c > 0) runs the same orbits at time t/c, and
k -> -k runs them backward, so neither changes a period beyond the
integration error."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lv3.analysis import detect_periodic, sample_interior
from lv3.params import ParamVector, classify
from lv3.rng import SplitMix64

# k = s*(a, b, b*r, a*r) has k1*k3 == k2*k4 exactly: every product of these
# small dyadic numbers is exact, also after scaling by c
CENTER_K = st.builds(
    lambda a, b, r, s: ParamVector(s * a, s * b, s * b * r, s * a * r),
    st.integers(1, 6), st.integers(1, 6), st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
    st.sampled_from((1, -1)))
SCALES = st.sampled_from((0.25, 0.5, 0.75, 2.0, 3.0, 5.0))
SEEDS = st.integers(0, 2**32 - 1)
DERANDOMIZED = settings(max_examples=40, derandomize=True, database=None, deadline=None)
# Relative error control (tol_abs 1e-300): starts within 1e-3 of the
# boundary run within 1e-8 of a face, where the default tol_abs of 1e-12
# lets a period move by up to 4.4e-7 relative (k = (1, 6, 12, 2) under
# time reversal; pinned at the defaults in test_analysis.py).  With it, 600
# periods of 200 seeded cases agreed within 1.6e-9.
TOLS = (1e-10, 1e-300)
BOUND = 1e-8


def _period(k, p):
    assert classify(k).oscillatory
    orbit = detect_periodic(k, p, *TOLS)
    assert orbit is not None
    return orbit.period


@DERANDOMIZED
@given(k=CENTER_K, c=SCALES, seed=SEEDS)
def test_time_scaling_keeps_the_period(k, c, seed):
    p = sample_interior(k, 1, SplitMix64(seed))[0]
    period = _period(k, p)
    scaled = c * _period(ParamVector(*(c * v for v in k)), p)
    assert abs(scaled - period) <= BOUND * period


@DERANDOMIZED
@given(k=CENTER_K, seed=SEEDS)
def test_time_reversal_keeps_the_period(k, seed):
    p = sample_interior(k, 1, SplitMix64(seed))[0]
    period = _period(k, p)
    assert abs(_period(-k, p) - period) <= BOUND * period
