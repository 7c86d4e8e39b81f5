"""An integrator-free oracle for the periods of the center regime.

On the center manifold (D = k1 k3 - k2 k4 = 0) the per-capita coordinates
u = (log x, log y, log z, log w), w = 1 - x - y - z, move by u' = M e^u with
the antisymmetric M of _matrix, whose rank is 2 there.  Its kernel gives the
linear invariants log H and log V, so u - u0 stays in the plane range(M),
spanned by the orthonormal columns of P.  On that plane
G(a, b) = sum(exp(u0 + P (a, b))) is strictly convex, and the orbit is the
closed curve G = 1 around the minimiser c of G.  The period is the integral
over the angle phi about c of 1 / |phi'|, where phi' = (d x v) / r for the
unit direction d, the radius r and the velocity v = P^T M e^u.  The
integrand is smooth and periodic, so the trapezoid rule converges
geometrically (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014).  No time stepping is involved:
this is the paper's "every orbit is periodic" turned into a quadrature.
"""

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lv3.analysis import detect_periodic, make_ray, period_profile, sample_interior
from lv3.params import ParamVector, classify
from lv3.rng import SplitMix64


def _matrix(k):
    k1, k2, k3, k4 = (float(c) for c in k)
    return np.array([[0.0, k1, 0.0, -k4], [-k1, 0.0, k2, 0.0],
                     [0.0, -k2, 0.0, k3], [k4, 0.0, -k3, 0.0]])


def _trapezoid_period(k, p0, nodes):
    M = _matrix(k)
    x, y, z = p0
    u0 = np.log([x, y, z, ((1.0 - x) - y) - z])
    P = np.linalg.svd(M)[0][:, :2]  # orthonormal basis of range(M)

    def G(ab):
        return np.exp(u0 + P @ ab).sum()

    # the minimiser of G: damped Newton from the start's own point, ab = 0
    c = np.zeros(2)
    for _ in range(100):
        e = np.exp(u0 + P @ c)
        step = np.linalg.solve(P.T @ (e[:, None] * P), P.T @ e)
        t = 1.0
        while G(c - t * step) > G(c) and t > 1e-3:
            t *= 0.5
        c = c - t * step
        if np.abs(t * step).max() <= 1e-17:
            break
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    d = np.stack([np.cos(phi), np.sin(phi)])
    Pd, base = P @ d, (u0 + P @ c)[:, None]

    def gap(r):  # G - 1 along each ray, and its derivative in r
        e = np.exp(base + Pd * r)
        return e.sum(axis=0) - 1.0, (e * Pd).sum(axis=0)

    # the radius where G = 1 on each ray: bracket it by doubling, then
    # Newton kept inside the bracket.  Unbracketed Newton from r = 1 failed
    # on 75 of 4096 rays of the face-close orbit and gave a period 0.82% low
    # that still looked converged in the node count.
    lo, hi = np.zeros(nodes), np.ones(nodes)
    while True:
        inside = gap(hi)[0] <= 0.0
        if not inside.any():
            break
        lo[inside] = hi[inside]
        hi[inside] *= 2.0
    r = hi
    for _ in range(200):
        g, slope = gap(r)
        lo, hi = np.where(g <= 0.0, r, lo), np.where(g > 0.0, r, hi)
        new = r - g / slope
        out = ~((new > lo) & (new < hi))
        new[out] = 0.5 * (lo[out] + hi[out])
        if np.array_equal(new, r):
            break
        r = new
    v = P.T @ (M @ np.exp(base + Pd * r))
    rate = (d[0] * v[1] - d[1] * v[0]) / r
    return 2.0 * np.pi / nodes * float((1.0 / np.abs(rate)).sum())


def oracle_period(k, p0):
    """The period of the center-regime orbit of k through p0, from node
    counts doubled from 64 until two agree within 1e-14 relative."""
    nodes, previous = 64, None
    while True:
        period = _trapezoid_period(k, p0, nodes)
        if previous is not None and abs(period - previous) <= 1e-14 * period:
            return period
        nodes, previous = 2 * nodes, period
        assert nodes <= 65536, "the trapezoid rule does not settle"


# the face-close orbit passes within 2.7e-15 of z = 0 and needs about 1024
# nodes; the others settle at 64 to 128
@pytest.mark.parametrize("k, p0, period", [
    ((2, 3, 3, 2), (0.2, 0.2, 0.2), 5.333659910657794),
    ((1, 1, 1, 1), (0.1, 0.1, 0.1), 15.894263411831455),
    ((0.5, 3, 6, 1), (0.3, 0.1, 0.2), 10.114039035164312),
    ((1, 6, 12, 2), (0.0035239874476257205, 0.9512064232711656, 0.026537817342040637),
     12.668293564533906),
], ids=["k-2332", "k-1111", "k-0.5-3-6-1", "face-close"])
def test_oracle_settles_on_the_reference_periods(k, p0, period):
    assert oracle_period(k, p0) == pytest.approx(period, rel=2e-15)
    # time reversal runs the same closed curve
    assert oracle_period(tuple(-c for c in k), p0) == pytest.approx(period, rel=2e-15)


# k = s*(a, b, b*r, a*r): same signs and k3 = k2*k4/k1, exactly
CENTER_K = st.builds(
    lambda a, b, r, s: ParamVector(s * a, s * b, s * b * r, s * a * r),
    st.integers(1, 6), st.integers(1, 6), st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
    st.sampled_from((1, -1)))


# Measured over 3000 such (k, start) pairs: the worst relative period error
# is 5.0e-9 with relative error control (tol_abs 1e-300), where tol_rel 1e-10
# sets it: at tol_rel 1e-12 it is 3.0e-11.  At the default tolerances it is
# 4.2e-7, where tol_abs 1e-12 sets the error of a coordinate that comes
# within about 1e-8 of a face.
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(k=CENTER_K, seed=st.integers(0, 2**32 - 1))
def test_detect_periodic_agrees_with_the_oracle(k, seed):
    assert classify(k).oscillatory
    p = sample_interior(k, 1, SplitMix64(seed))[0]
    period = oracle_period(tuple(k), p)
    assert abs(detect_periodic(k, p, 1e-12, 1e-300).period - period) <= 1e-10 * period
    assert abs(detect_periodic(k, p, 1e-10, 1e-300).period - period) <= 1e-8 * period
    assert abs(detect_periodic(k, p).period - period) <= 1e-6 * period


# The accuracy gate on small center-regime k at the default tol_rel and
# tol_abs 1e-300: over these 40 starts of each k the worst relative error is
# 3.9e-11, on (0.5, 3, 6, 1); at the default tol_abs it is 7.9e-7, on its -k.
@pytest.mark.parametrize("k", [(2, 3, 3, 2), (1, 1, 1, 1), (0.5, 3, 6, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_detect_periodic_with_relative_control_agrees_with_the_oracle(k, sign):
    k = ParamVector(*(sign * c for c in k))
    for seed in range(1, 6):
        for p in sample_interior(k, 8, SplitMix64(seed)):
            period = oracle_period(tuple(k), p)
            assert abs(detect_periodic(k, p, 1e-10, 1e-300).period - period) <= 1e-10 * period


@pytest.mark.parametrize("outward", [True, False])
def test_period_profile_verdict_agrees_with_the_oracle(outward):
    k = ParamVector(1, 1, 1, 1)
    offsets = [0.02, 0.07, 0.12, 0.17, 0.22]
    points = make_ray((0.25, 0.25, 0.25), (0.0, -1.0, 0.0), offsets if outward else offsets[::-1])
    report = period_profile(k, points)  # at the defaults: within 5.8e-12 of the oracle
    periods = [oracle_period(tuple(k), p) for p in points]
    assert report["strictly_increasing"] == all(b > a for a, b in zip(periods, periods[1:]))
    assert report["strictly_increasing"] == outward
    for row, period in zip(report["rows"], periods):
        assert row["period"] == pytest.approx(period, rel=1e-10)
