import math
import platform
import sys
from collections import namedtuple
from functools import partial

import pytest

from lv3.analysis import DEFAULT_HORIZON, SPEED_TOL
from lv3.flow import _D5, DormandPrince45
from lv3.params import ParamVector
from lv3.rng import SplitMix64


# The pinned output digests hold on every CPython: no float sum() sets an
# output bit (lv3.flow adds left to right from 0.0).  Other implementations
# may format or round differently, so they skip them.
cpython_only = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="output digests are pinned on CPython",
)
# The comparisons with sum() forms need CPython 3.11, whose sum() of floats
# adds left to right like lv3.flow does; from 3.12 on sum() is compensated.
cpython311_only = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="sum() of floats is compensated from CPython 3.12 on",
)


@pytest.fixture
def rng():
    return SplitMix64(42)


def choice(rng, items):
    """One of items, drawn from the SplitMix64 stream rng."""
    return items[rng.next_u64() % len(items)]


def rand_params(rng, lo=0.3, hi=3.0, signs="mixed") -> ParamVector:
    """Random parameter vector with components in +-[lo, hi]."""
    comps = []
    for _ in range(4):
        mag = rng.uniform(lo, hi)
        if signs == "positive":
            comps.append(mag)
        elif signs == "negative":
            comps.append(-mag)
        else:
            comps.append(mag if rng.uniform() < 0.5 else -mag)
    return ParamVector(*comps)


def rand_params_on_S_exact(rng, positive=True) -> ParamVector:
    """Same-sign vector exactly on the zero-discriminant manifold.

    k2 is a power of two and k4 = k1*k3/k2, so the float discriminant is
    exactly zero (binary division by k2 is exact).
    """
    k1 = float(rng.next_u64() % 9 + 1)
    k3 = float(rng.next_u64() % 9 + 1)
    k2 = float(2 ** (rng.next_u64() % 4))
    k4 = k1 * k3 / k2
    sign = 1.0 if positive else -1.0
    return ParamVector(sign * k1, sign * k2, sign * k3, sign * k4)


def rand_params_on_S_float(rng) -> ParamVector:
    """Vector on the manifold up to one rounding: k4 = fl(k1*k3/k2)."""
    k1 = rng.uniform(0.3, 3.0)
    k2 = rng.uniform(0.3, 3.0)
    k3 = rng.uniform(0.3, 3.0)
    if rng.uniform() < 0.5:
        k1, k2, k3 = -k1, -k2, -k3
        return ParamVector(k1, k2, k3, k1 * k3 / k2)
    return ParamVector(k1, k2, k3, k1 * k3 / k2)


def jacobian(k, p) -> tuple:
    """Analytic Jacobian of the simplex flow at p, as three row tuples: the
    matrix whose spectrum numpy's eigvals gives the spectrum tests."""
    x, y, z = p
    v = ((1.0 - x) - y) - z
    return (
        (k.k1 * y - k.k4 * v + k.k4 * x, x * (k.k1 + k.k4), k.k4 * x),
        (-k.k1 * y, k.k2 * z - k.k1 * x, k.k2 * y),
        (-k.k3 * z, -z * (k.k2 + k.k3), k.k3 * v - k.k2 * y - k.k3 * z),
    )


def interior_point(k, z) -> tuple:
    """The point of the interior segment of equilibria with third coordinate z."""
    return ((k.k3 / k.k4) * z, (k.k4 - (k.k3 + k.k4) * z) / (k.k1 + k.k4), z)


def spectrum_gap(eigenvalues, rows) -> float:
    """Largest distance from one of eigenvalues to the nearest eigenvalue
    numpy's dense eigensolve finds for the matrix rows."""
    import numpy as np

    reference = np.linalg.eigvals(np.array(rows, dtype=float))
    return max(min(abs(w - complex(r)) for r in reference) for w in eigenvalues)


def rand_interior_point(rng, margin=1e-3):
    while True:
        x, y, z = rng.uniform(), rng.uniform(), rng.uniform()
        if x + y + z > 1.0 - margin:
            continue
        if min(x, y, z) <= margin:
            continue
        return (x, y, z)


def norm3(v) -> float:
    return math.sqrt(sum(c * c for c in v))


def rms_norm_reference(err, y, y1, rtol, atol) -> float:
    """The RMS error norm of a Dormand-Prince 5(4) step in its max() form,
    which lv3.flow's generated norm spells as compares."""
    total = 0.0
    for i in range(len(y)):
        scale = atol + rtol * max(abs(y[i]), abs(y1[i]))
        r = err[i] / scale
        total += r * r
    return math.sqrt(total / len(y))


def hairer_norm_reference(err, y, y1, rtol, atol) -> float:
    """Hairer's DOP853 error norm in the same form; err holds the h-scaled
    5th-order estimates, then the 3rd-order ones."""
    n = len(y)
    sq5 = sq3 = 0.0
    for i in range(n):
        scale = atol + rtol * max(abs(y[i]), abs(y1[i]))
        e5, e3 = err[i] / scale, err[n + i] / scale
        sq5 += e5 * e5
        sq3 += e3 * e3
    return 0.0 if sq5 == 0.0 else sq5 / math.sqrt(n * (sq5 + 0.01 * sq3))


def contd5_rows_reference(y0, h, K, y1) -> tuple:
    """The rows of a Dormand-Prince 5(4) dense segment, Hairer's DOPRI5
    continuous extension, for the step from y0 to y1 over the stages K:
    F0 = y1 - y0, F1 = h*f0 - F0, F2 = 2*F0 - h*(f1 + f0) and
    F3 = h * d.K for each component in turn, every one of the seven stages
    added left to right from 0.0, zero weights included, which the
    generated code leaves out."""
    rows = []
    for i in range(len(y0)):
        delta = y1[i] - y0[i]
        total = 0.0
        for s in range(7):
            total += K[s][i] * _D5[s]
        rows += [delta, h * K[0][i] - delta, 2.0 * delta - h * (K[6][i] + K[0][i]), h * total]
    return tuple(rows)


# --- oracles: flows that only the tests run ----------------------------------
#
# The library integrates the reduced three-species flow alone.  The tests
# cross-check it against the four-species parent flow and against the
# planar flows on the invariant faces y = 0 and x + y + z = 1, stepped by
# the library's own DormandPrince45 at its default tolerances.


def field4(k: ParamVector, q) -> tuple:
    """Velocity of the four-species parent flow at q = (x, y, z, v), on
    x + y + z + v = 1.

    Each bilinear term is computed once and reused with opposite signs in
    the two components it couples, so the component sum telescopes.
    """
    x, y, z, v = q
    t1 = k.k1 * x * y
    t2 = k.k2 * y * z
    t3 = k.k3 * z * v
    t4 = k.k4 * x * v
    return (t1 - t4, t2 - t1, t3 - t2, t4 - t3)


Run4 = namedtuple("Run4", "t states segments mass_error")


def integrate4(k: ParamVector, q0, t_end: float) -> Run4:
    """One run of the parent flow from q0 for time t_end, every accepted
    step kept with its dense segment.  Negative t_end runs the forward flow
    of -k (the field is odd in k) and negates the reported times, as
    lv3.flow.integrate does.  mass_error is the largest of -q_i and
    |sum(q) - 1| over the samples."""
    sign = 1 if t_end > 0.0 else -1
    stepper = DormandPrince45(partial(field4, k if sign > 0 else -k), q0, abs(t_end))
    t, states, segments = [0.0], [stepper.y], []
    while not stepper.finished:
        stepper.step()
        t.append(sign * stepper.t)
        states.append(stepper.y)
        segments.append(stepper.segment())
    mass_error = max(max(0.0, *(-c for c in q), abs(math.fsum(q) - 1.0)) for q in states)
    return Run4(tuple(t), tuple(states), tuple(segments), mass_error)


def dense_state(segments, t: float) -> tuple:
    """The state at internal time t, read from the dense segment of the
    first step that ends at or after it (theta at most 1: a clipped last
    step may end an ulp before the span)."""
    for seg in segments:
        if t <= seg.t0 + seg.h:
            break
    return seg.eval_theta(min((t - seg.t0) / seg.h, 1.0))


def face_field(face: str, k: ParamVector):
    """Planar restriction of the simplex flow to an invariant boundary face:
    (x, z) on Y (y = 0) and (x, y) on the sum face Sigma (x + y + z = 1)."""
    if face == "Y":
        def fun(p):
            x, z = p
            w = (1.0 - x) - z
            return (-k.k4 * x * w, k.k3 * z * w)
    elif face == "Sigma":
        def fun(p):
            x, y = p
            return (k.k1 * x * y, y * (k.k2 * ((1.0 - x) - y) - k.k1 * x))
    else:
        raise ValueError(f"unknown face {face!r}")
    return fun


FACE_INSET = 1e-6


def face_connection_abscissae(k: ParamVector, face: str, x0: float) -> tuple:
    """Edge abscissae (backward, forward) reached by the face orbit through
    the singular-edge point x0: it starts FACE_INSET inside the face and
    runs both ways until its speed falls to SPEED_TOL or DEFAULT_HORIZON
    passes.  One of them reproduces x0, the other is the connection end
    that analysis.heteroclinic_match computes from the closed-form leaf."""
    if face == "Y":
        start = ((1.0 - FACE_INSET) * x0, (1.0 - FACE_INSET) * (1.0 - x0))
    else:
        start = (x0, FACE_INSET)
    out = []
    for kk in (-k, k):
        stepper = DormandPrince45(face_field(face, kk), start, DEFAULT_HORIZON)
        while not stepper.finished and stepper.speed > SPEED_TOL:
            stepper.step()
            a, b = stepper.y
            assert min(a, b, 1.0 - (a + b)) >= -1e-9, f"face orbit left its face at {stepper.y}"
        out.append(stepper.y[0])
    return tuple(out)
