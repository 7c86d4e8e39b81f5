"""The discriminant sign that classify reads, against the exact rational
discriminant of the given floats (fractions.Fraction).  classify reads the
sign of the float k1*k3 - k2*k4: it never contradicts the exact sign, an
exactly zero discriminant always reads S, and a nonzero one reads S exactly
when the two products round to the same double (compared without an exponent
limit where both overflow or both fall below the normal range).  The Darboux certificates
and kernel take that same decision.  Along every interior orbit
the four named log integrals move with the sign of D = k1*k3 - k2*k4, by D
times the time integral of w, -x, y or -z."""

import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lv3.darboux import (
    certify_named_integrals,
    log_integral_series,
    named_integral_specs,
    solve_darboux,
)
from lv3.equilibria import _field3
from lv3.flow import DormandPrince45, _steps, integrate
from lv3.params import S_MINUS, S_PLUS, S_ZERO, ParamVector, classify, discriminant

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# any finite k, products that overflow or underflow included
ANY_K = st.builds(ParamVector, FINITE, FINITE, FINITE, FINITE).filter(lambda k: not k.is_zero)
# k3 = fl(k2*k4/k1): on the manifold up to one rounding, where the two
# products mostly round together although their exact values differ
NEAR_S = st.builds(lambda s, k1, k2, k4: ParamVector(s * k1, s * k2, s * (k2 * k4 / k1), s * k4),
                   st.sampled_from((1, -1)), *(st.floats(0.3, 3.0),) * 3)
# s*(a, b, b*r, a*r)*2**e: k1*k3 == k2*k4 exactly, also where they underflow
# or overflow
ON_S = st.builds(lambda s, a, b, r, e: ParamVector(*(s * c * 2.0**e
                                                      for c in (a, b, b * r, a * r))),
                 st.sampled_from((1, -1)), st.integers(1, 9), st.integers(1, 9),
                 st.sampled_from((0.25, 0.5, 1.5, 3.0)), st.integers(-560, 530))
KS = st.one_of(ANY_K, NEAR_S, ON_S)
DERANDOMIZED = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _exact(k):
    return Fraction(k.k1) * Fraction(k.k3) - Fraction(k.k2) * Fraction(k.k4)


@DERANDOMIZED
@given(k=KS)
def test_the_float_sign_never_contradicts_the_exact_sign(k):
    exact = _exact(k)
    s_sign = classify(k).s_sign
    if exact == 0:
        assert s_sign == S_ZERO
    else:
        assert s_sign in (S_ZERO, S_PLUS if exact > 0 else S_MINUS)


def _round53(q):
    """The Fraction q rounded to 53 significant bits, ties to even, with no
    exponent limit: the double it rounds to where that is normal."""
    if q == 0:
        return q
    scale = Fraction(2) ** (52 - (q.numerator.bit_length() - q.denominator.bit_length()))
    while abs(q * scale) >= 2**53:
        scale /= 2
    while abs(q * scale) < 2**52:
        scale *= 2
    return round(q * scale) / scale


@st.composite
def underflowing_k(draw):
    """k whose products k1*k3 and k2*k4 both lie below the normal range
    (2**-1022), some of them rounding to 0, some with a zero factor."""
    exponents = []
    for _ in range(2):
        e = draw(st.integers(-1073, 51))
        exponents += [e, draw(st.integers(-1073, -1022 - e))]
    e1, e3, e2, e4 = exponents
    components = [draw(st.sampled_from((1.0, -1.0))) * math.ldexp(draw(st.floats(0.5, 1.0)), e)
                  for e in (e1, e2, e3, e4)]
    if draw(st.integers(0, 9)) == 0:
        components[draw(st.integers(0, 3))] = 0.0
    return ParamVector(*components)


@DERANDOMIZED
@given(k=st.one_of(KS, underflowing_k()))
def test_the_sign_reads_zero_exactly_when_the_products_round_together(k):
    # compared without an exponent limit: the two exact products rounded to
    # 53 bits where both overflow or both fall below the normal range
    p1, p2 = Fraction(k.k1) * Fraction(k.k3), Fraction(k.k2) * Fraction(k.k4)
    assert (classify(k).s_sign == S_ZERO) == (_round53(p1) == _round53(p2))
    if _round53(p1) != _round53(p2):
        assert classify(k).s_sign == _sign(p1 - p2)


@pytest.mark.parametrize("k, exact_sign", [
    ((1e-200, 1e-200, 1e-200, 2e-200), S_MINUS),  # D = -1e-400
    ((0.0, 1e-200, 1e300, 1e-200), S_MINUS),  # k1*k3 is exactly 0
    ((1e-200, 0.0, 1e-200, 5.0), S_PLUS),
    ((2.0**51, 2.0**-1074, 2.0**-1074, 2.0**51), S_ZERO),  # D = 0 exactly
    # both products round to the subnormal 2**-1040; D = 2**-1092
    ((math.ldexp(1.0 + 2.0**-52, 20), 2.0**20, 2.0**-1060, 2.0**-1060), S_PLUS),
    ((0.0, 0.0, 1.0, 1.0), S_ZERO),
    # the zeros set no scale: 2**-1074 is scaled to 2**510, not to 2**-563
    ((5e-324, 1.0, 5e-324, 0.0), S_PLUS),
])
def test_underflowing_products_read_the_sign_of_the_fraction_discriminant(k, exact_sign):
    k = ParamVector(*k)
    assert discriminant(k) == 0.0
    assert _sign(_exact(k)) == exact_sign
    assert classify(k).s_sign == exact_sign


@st.composite
def overflowing_k(draw):
    """k whose products k1*k3 and k2*k4 both overflow to one infinity, so
    that the float discriminant is nan: |k1*k3| >= 2**(e1 + e3 - 2) >= 2**1024."""
    e1, e2 = draw(st.integers(2, 1024)), draw(st.integers(2, 1024))
    e3, e4 = draw(st.integers(1026 - e1, 1024)), draw(st.integers(1026 - e2, 1024))
    s1, s2, s3 = (draw(st.sampled_from((1.0, -1.0))) for _ in range(3))
    magnitudes = [math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), e)
                  for e in (e1, e2, e3, e4)]
    return ParamVector(*(s * m for s, m in zip((s1, s2, s3, s1 * s2 * s3), magnitudes)))


def _sign(exact):
    return S_PLUS if exact > 0 else (S_MINUS if exact < 0 else S_ZERO)


@DERANDOMIZED
@given(k=overflowing_k())
def test_where_both_products_overflow_the_sign_is_the_exact_sign(k):
    # the float discriminant is nan, and the printed one stays nan
    assert math.isnan(discriminant(k))
    p1, p2 = Fraction(k.k1) * Fraction(k.k3), Fraction(k.k2) * Fraction(k.k4)
    if abs(p1 - p2) > max(abs(p1), abs(p2)) / 2**52:
        # the two products round to different doubles
        assert classify(k).s_sign == _sign(p1 - p2)
    else:
        assert classify(k).s_sign in (S_ZERO, _sign(p1 - p2))


@pytest.mark.parametrize("k, exact_sign", [
    ((1e200, 1e200, 2e200, 1e200), S_PLUS),  # D = 1e400
    ((1e200, 2e200, 1e200, 1e200), S_MINUS),
    ((-1e200, 1e200, 2e200, -1e200), S_MINUS),
    ((3 * 2.0**520, 5 * 2.0**520, 5 * 2.0**520, 3 * 2.0**520), S_ZERO),  # D = 0 exactly
    # one component at the top of the range, its partner near 4/3: scaled
    # by the top exponent alone, the partner would round into the subnormals
    ((1.5 * 2.0**1023, 2.0**1023, 1.3333333333333335, 2.0000000000000004), S_MINUS),
    ((1.5 * 2.0**1023, 2.0**1023, 1.333333333333334, 2.0000000000000004), S_PLUS),
])
def test_overflowing_products_read_the_sign_of_the_fraction_discriminant(k, exact_sign):
    k = ParamVector(*k)
    assert math.isnan(discriminant(k))
    assert _sign(_exact(k)) == exact_sign
    assert classify(k).s_sign == exact_sign


def test_most_float_manifold_draws_read_zero_with_a_nonzero_exact_discriminant():
    # the count quoted in classify's docstring
    rng = random.Random(3)
    zero_read, wrong_sign = 0, 0
    for _ in range(20000):
        k1, k2, k4 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        k = ParamVector(k1, k2, k2 * k4 / k1, k4)
        exact, s_sign = _exact(k), classify(k).s_sign
        zero_read += s_sign == S_ZERO and exact != 0
        wrong_sign += (s_sign == S_PLUS and exact <= 0) or (s_sign == S_MINUS and exact >= 0)
    assert (zero_read, wrong_sign) == (17864, 0)


# --- one decision: the Darboux certificates read D = 0 as classify does ---------


@st.composite
def darboux_k(draw):
    """k3 on the float manifold fl(k2*k4/k1), off it by 1e-15 to 1e-11
    relative, or at random; 3 in 10 negated, some components zeroed."""
    k1, k2, k4 = (draw(st.floats(0.3, 3.0)) for _ in range(3))
    where = draw(st.sampled_from(("on", "off", "random")))
    k3 = k2 * k4 / k1
    if where == "off":
        k3 *= 1.0 + draw(st.sampled_from((1, -1))) * 10.0 ** draw(st.floats(-15.0, -11.0))
    elif where == "random":
        k3 = draw(st.floats(0.3, 3.0))
    components = [k1, k2, k3, k4]
    for i in draw(st.lists(st.integers(0, 3), max_size=3)):
        components[i] = 0.0
    sign = -1.0 if draw(st.integers(0, 9)) < 3 else 1.0
    return ParamVector(*(sign * c for c in components))


@DERANDOMIZED
@given(k=darboux_k().filter(lambda k: not k.is_zero))
def test_darboux_certifies_and_finds_a_kernel_exactly_where_classify_reads_s(k):
    on_s = discriminant(k) == 0.0
    assert on_s == (classify(k).s_sign == S_ZERO)
    for status in certify_named_integrals(k).values():
        assert status.certified == (status.non_constant and on_s)
        assert status.cofactor_residual == abs(discriminant(k))
        if _exact(k) == 0 and status.non_constant:
            assert status.certified
    assert bool(solve_darboux(k).kernel) == (classify(k).s_sign == S_ZERO)


def test_an_underflowing_discriminant_reads_its_exact_sign_for_the_certificates_too():
    # both products underflow to 0, the exact D is -1e-400: classify reads
    # S-, and darboux certifies nothing; the printed D stays 0
    k = ParamVector(1e-200, 1e-200, 1e-200, 2e-200)
    assert classify(k).s_sign == S_MINUS and discriminant(k) == 0.0
    report = solve_darboux(k)
    assert report.kernel == () and report.subsystem_determinants == (0.0, 0.0)
    assert not any(s.certified for s in report.named.values())


def test_a_nan_discriminant_reads_its_exact_sign_for_the_certificates_too():
    # both products overflow to inf, the exact D is 1e400: classify reads
    # S+, and darboux certifies nothing; the printed D stays nan
    k = ParamVector(1e200, 1e200, 2e200, 1e200)
    assert classify(k).s_sign == S_PLUS and math.isnan(discriminant(k))
    report = solve_darboux(k)
    assert report.kernel == ()
    assert all(math.isnan(d) for d in report.subsystem_determinants)
    assert all(not s.certified and math.isnan(s.cofactor_residual)
               for s in report.named.values())


# --- the signs of the log-integral changes ------------------------------------

# d log H/dt = D*w, d log V/dt = -D*x, d log Htilde/dt = D*y and
# d log Vtilde/dt = -D*z: each named log integral changes with the sign
# (+-D)*sign(t_end) while the orbit stays interior
RATE_SIGNS = {"H": 1.0, "V": -1.0, "Htilde": 1.0, "Vtilde": -1.0}
COMPONENT = st.builds(lambda c, negate: -c if negate else c, st.floats(0.3, 3.0),
                      st.integers(0, 9).map(lambda n: n < 3))  # negated about 3 in 10
OFF_S = st.builds(ParamVector, *(COMPONENT,) * 4).filter(lambda k: abs(discriminant(k)) >= 0.05)
# x, y, z and w = 1 - x - y - z, all above 0.02
INTERIOR = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(sorted).map(
    lambda c: tuple(0.021 + 0.916 * (b - a) for a, b in zip([0.0, *c], c)))


@settings(DERANDOMIZED, max_examples=200)
@given(k=OFF_S, p0=INTERIOR, t_end=st.sampled_from((0.5, 2.0, 10.0)), backward=st.booleans())
def test_the_log_integrals_change_with_the_sign_of_the_discriminant(k, p0, t_end, backward):
    t_end = -t_end if backward else t_end
    specs = named_integral_specs(k)
    logs = log_integral_series([specs[name] for name in RATE_SIGNS],
                               integrate(k, p0, t_end).states)
    d = discriminant(k)
    for (name, sign), series in zip(RATE_SIGNS.items(), logs):
        change = series[-1] - series[0]
        assert change * (sign * d * t_end) > 0.0, (name, change)


# --- the Lyapunov identity along the steps ---------------------------------------

# 4-point Gauss-Legendre on [0, 1]: exact for polynomials of degree 7, above
# the degree of the fourth-order interpolant of a 5(4) step
_GL_A, _GL_B = 0.3399810435848563, 0.8611363115940526
GL_NODES = (0.5 - 0.5 * _GL_B, 0.5 - 0.5 * _GL_A, 0.5 + 0.5 * _GL_A, 0.5 + 0.5 * _GL_B)
GL_WEIGHTS = (0.1739274225687269, 0.3260725774312731, 0.3260725774312731, 0.1739274225687269)
# (name, sign, coordinate index of (x, y, z, w)) of d log I/dt = sign*D*coordinate
LYAPUNOV_RATES = (("H", 1.0, 3), ("V", -1.0, 0), ("Htilde", 1.0, 1), ("Vtilde", -1.0, 2))
_TOWARDS_A_FACE = ("a coordinate sinks towards a face, where the absolute error control "
                   "(tol_abs 1e-12) no longer resolves its logarithm")


def _lyapunov_identity_error(k):
    """Worst |change of log I - sign*D*(integral of the coordinate)| over the
    accepted states of integrate's stepping of the orbit of k from (0.2,
    0.2, 0.2) for t = 30, the integral taken on each step's dense segment."""
    stepper = DormandPrince45(_field3(k), (0.2, 0.2, 0.2), 30.0)
    states, integrals = [stepper.y], [(0.0, 0.0, 0.0, 0.0)]
    for _ in _steps(stepper):
        segment = stepper.segment()
        step = [0.0, 0.0, 0.0, 0.0]
        for theta, weight in zip(GL_NODES, GL_WEIGHTS):
            x, y, z = segment.eval_theta(theta)
            for i, c in enumerate((x, y, z, 1.0 - x - y - z)):
                step[i] += weight * c
        integrals.append(tuple(a + segment.h * b for a, b in zip(integrals[-1], step)))
        states.append(stepper.y)
    specs = named_integral_specs(k)
    logs = log_integral_series([specs[name] for name, _, _ in LYAPUNOV_RATES], states)
    d = discriminant(k)
    return max(abs((v - series[0]) - sign * d * integral[i])
               for (_, sign, i), series in zip(LYAPUNOV_RATES, logs)
               for v, integral in zip(series, integrals))


@pytest.mark.parametrize("k", [
    (3, 1, 1, 2), (1, 2, 1, 1), (2, 3, 3.3, 2), (1, 1, 2, 1), (0.5, 3, 6, 1.2),
    # each orbit below passes within 1e-6 of a face (down to 2.8e-11), and
    # misses the identity by 1.5e-7 to 2.6e-3
    *(pytest.param(k, marks=pytest.mark.xfail(strict=True, reason=_TOWARDS_A_FACE))
      for k in ((2, 1, 2, 1), (-2, -1, -2, -1), (1, 6, 12, 2.5), (2, 1, 3, 1))),
])
def test_the_log_integrals_follow_the_lyapunov_identity_along_the_steps(k):
    # the five orbits that pass keep every coordinate above 5e-5 and miss the
    # identity by 1.8e-10 to 3.9e-9
    assert _lyapunov_identity_error(ParamVector(*k)) <= 1e-8
