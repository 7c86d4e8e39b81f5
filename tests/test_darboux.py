import math

import numpy as np
import pytest

from lv3.darboux import (
    DomainError,
    FirstIntegralSpec,
    Poly,
    builtin_surfaces,
    certify_named_integrals,
    cofactor_matrix,
    kernel_basis,
    log_integral_series,
    log_integral_value,
    named_integral_specs,
    solve_darboux,
    verify_invariance,
    _cofactors,
)
from lv3.flow import integrate
from lv3.params import ParamVector, discriminant
from lv3.rng import SplitMix64
from conftest import (
    rand_interior_point,
    rand_params,
    rand_params_on_S_exact,
    rand_params_on_S_float,
)


# --- polynomial plumbing ----------------------------------------------------


def test_poly_arithmetic_and_eval():
    x, y, z = Poly.variable(0), Poly.variable(1), Poly.variable(2)
    p = (x + y) * (x - y) + z * z
    assert p.coefficients() == {(0, 0, 2): 1.0, (0, 2, 0): -1.0, (2, 0, 0): 1.0}
    assert p(2.0, 1.0, 3.0) == 12.0
    assert (2.0 * x).diff(0).coefficients() == {(0, 0, 0): 2.0}
    assert (x * y * z).diff(1).coefficients() == {(1, 0, 1): 1.0}
    assert Poly.constant(0.0).coefficients() == {}


def test_poly_exact_merge(rng):
    # fsum-based merging cancels a self-inverse term multiset exactly, even
    # when the partial sums would round
    x = Poly.variable(0)
    for _ in range(50):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        p = a * x + b * x - a * x - b * x
        assert p.coefficients() == {}


# --- invariant surfaces -----------------------------------------------------


def test_builtin_cofactor_closed_forms(rng):
    for _ in range(20):
        k = rand_params(rng)
        s1, s2, s3, s4 = builtin_surfaces(k)
        assert s1.cofactor.coefficients() == pytest.approx(
            {(1, 0, 0): k.k4, (0, 1, 0): k.k1 + k.k4, (0, 0, 1): k.k4, (0, 0, 0): -k.k4}
        )
        assert s2.cofactor.coefficients() == pytest.approx(
            {(1, 0, 0): -k.k1, (0, 0, 1): k.k2}
        )
        assert s3.cofactor.coefficients() == pytest.approx(
            {(1, 0, 0): -k.k3, (0, 1, 0): -(k.k2 + k.k3), (0, 0, 1): -k.k3, (0, 0, 0): k.k3}
        )
        assert s4.cofactor.coefficients() == pytest.approx(
            {(1, 0, 0): k.k4, (0, 0, 1): -k.k3}
        )


def test_unit_param_fourth_cofactor_is_x_minus_z():
    _, _, _, s4 = builtin_surfaces(ParamVector(1, 1, 1, 1))
    assert s4.cofactor.coefficients() == {(1, 0, 0): 1.0, (0, 0, 1): -1.0}


def test_zero_param_cofactors_vanish():
    for surface in builtin_surfaces(ParamVector(0, 0, 0, 0)):
        assert surface.cofactor.coefficients() == {}
        assert verify_invariance(surface, ParamVector(0, 0, 0, 0)).ok


def test_invariance_residual_exactly_zero(rng):
    for _ in range(100):
        k = rand_params(rng)
        for surface in builtin_surfaces(k):
            report = verify_invariance(surface, k)
            assert report.ok
            assert report.max_residual == 0.0


def test_wrong_cofactor_fails():
    k = ParamVector(2, 1, 2, 1)
    s1, s2, _, _ = builtin_surfaces(k)
    from lv3.darboux import PolySurface

    mismatched = PolySurface(s1.f, s2.cofactor, "x-with-wrong-cofactor")
    report = verify_invariance(mismatched, k)
    assert not report.ok
    assert report.max_residual > 1e-3


def test_custom_surface_through_same_machinery(rng):
    # a product of invariant surfaces is invariant with the summed cofactor
    from lv3.darboux import PolySurface

    for _ in range(10):
        k = rand_params(rng)
        s1, s2, _, _ = builtin_surfaces(k)
        product = PolySurface(s1.f * s2.f, s1.cofactor + s2.cofactor, "xy")
        report = verify_invariance(product, k)
        assert report.ok


# --- kernel solve -----------------------------------------------------------


def _svd_nullspace(rows, tol=1e-10):
    a = np.array(rows, dtype=float)
    if a.size == 0:
        return np.eye(4)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
    return vt[rank:].T


def _span_residual(vec, basis):
    if not basis:
        return float(np.linalg.norm(vec))
    b = np.array(basis, dtype=float).T
    coeffs, *_ = np.linalg.lstsq(b, np.array(vec, dtype=float), rcond=None)
    return float(np.linalg.norm(b @ coeffs - np.array(vec))) / max(
        1.0, float(np.linalg.norm(vec))
    )


def test_kernel_on_manifold_contains_known_solutions():
    k = ParamVector(2, 3, 3, 2)
    report = solve_darboux(k)
    assert len(report.kernel) == 2
    assert _span_residual((3, 0, 2, 0), report.kernel) <= 1e-12
    assert _span_residual((0, 3, 0, 3), report.kernel) <= 1e-12
    assert report.subsystem_determinants == (0.0, 0.0)


def test_kernel_trivial_off_manifold():
    for k in (ParamVector(2, 1, 2, 1), ParamVector(1, 0, 1, 0), ParamVector(0, 1, 0, 1)):
        report = solve_darboux(k)
        assert report.kernel == ()
        assert report.subsystem_determinants[0] == discriminant(k)


def test_kernel_single_nonzero_component():
    report = solve_darboux(ParamVector(1, 0, 0, 0))
    assert len(report.kernel) == 2
    # lambda_3 and lambda_4 are free: their cofactors vanish identically
    assert _span_residual((0, 0, 1, 0), report.kernel) <= 1e-12
    assert _span_residual((0, 0, 0, 1), report.kernel) <= 1e-12


def test_kernel_matches_svd_oracle(rng):
    for i in range(100):
        if i % 3 == 0:
            k = rand_params_on_S_float(rng)
        elif i % 3 == 1:
            k = rand_params_on_S_exact(rng)
        else:
            k = rand_params(rng)
        monos, rows = cofactor_matrix(k)
        mine = solve_darboux(k).kernel
        oracle = _svd_nullspace(rows)
        assert len(mine) == oracle.shape[1]
        for col in range(oracle.shape[1]):
            assert _span_residual(tuple(oracle[:, col]), list(mine)) <= 1e-8


def test_kernel_normalisation():
    report = solve_darboux(ParamVector(-2, -3, -3, -2))
    for vec in report.kernel:
        assert max(abs(c) for c in vec) == pytest.approx(1.0)
        lead = next(c for c in vec if abs(c) > 1e-12)
        assert lead > 0.0


def test_kernel_basis_degenerate_inputs():
    assert kernel_basis([], ncols=4) == [
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ]
    assert kernel_basis([[0.0, 0.0], [0.0, 0.0]]) == [(1.0, 0.0), (0.0, 1.0)]
    assert kernel_basis([[1.0, 0.0], [0.0, 1.0]]) == []


# --- named integrals --------------------------------------------------------


def test_integral_values():
    # log H = log(x*z) and log V = log(y**2 * |x + y + z - 1|)
    k = ParamVector(1, 1, 1, 1)
    h = named_integral_specs(k)["H"]
    assert log_integral_value(h, (0.25, 0.25, 0.25)) == pytest.approx(math.log(1 / 16))

    k = ParamVector(2, 1, 2, 1)
    v = named_integral_specs(k)["V"]
    assert log_integral_value(v, (0.2, 0.2, 0.2)) == pytest.approx(math.log(0.016))


def test_integral_zero_conventions():
    # a zero surface value: the single-point form raises, the series is nan
    for e in (1.0, -1.0):
        spec = FirstIntegralSpec((e, 0.0, 1.0, 0.0), "custom")
        with pytest.raises(DomainError):
            log_integral_value(spec, (0.0, 0.5, 0.5))
        assert math.isnan(log_integral_series([spec], [(0.0, 0.5, 0.5)])[0][0])


def test_no_spec_takes_no_logarithm(monkeypatch):
    def no_log(value):
        raise AssertionError("a logarithm was taken")

    monkeypatch.setattr(math, "log", no_log)
    assert log_integral_series([], [(0.2, 0.3, 0.1), (0.0, 0.5, 0.5)]) == []


def _log_integral_reference(spec, p):
    """The generator form: an independent reference for log_integral_value."""
    x, y, z = p
    vals = (x, y, z, ((x + y) + z) - 1.0)
    if any(v == 0.0 for v in vals):
        raise DomainError(f"{spec.name}: log form needs all four surface values nonzero")
    return math.fsum(e * math.log(abs(f)) for e, f in zip(spec.exponents, vals) if e != 0.0)


def test_log_integral_is_bitwise_the_generator_form():
    rng = SplitMix64(2024)
    exponent_choices = (0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-3, 7.0)
    specs = [FirstIntegralSpec((0.0, 0.0, 0.0, 0.0), "zero"),
             FirstIntegralSpec((-0.0, 0.0, -0.0, 0.0), "signed-zero")]
    for _ in range(60):
        specs.append(FirstIntegralSpec(
            tuple(exponent_choices[rng.next_u64() % len(exponent_choices)]
                  if rng.uniform() < 0.5 else rng.uniform(-4.0, 4.0) for _ in range(4))))
    specs += list(named_integral_specs(ParamVector(2, 3, 3, 2)).values())
    for spec in specs:
        for _ in range(40):
            # interior points and points off the simplex (negative
            # components, x + y + z > 1): the log form takes |f_i|
            p = tuple(rng.uniform(-0.5, 1.0) for _ in range(3))
            assert log_integral_value(spec, p).hex() == _log_integral_reference(spec, p).hex()
        if not any(spec.exponents):
            assert log_integral_value(spec, (0.2, 0.3, 0.1)) == 0.0


@pytest.mark.parametrize("p", [
    (0.0, 0.5, 0.25), (-0.0, 0.5, 0.25),
    (0.5, 0.0, 0.25), (0.5, -0.0, 0.25),
    (0.5, 0.25, 0.0), (0.5, 0.25, -0.0),
    (0.5, 0.25, 0.25),  # x + y + z - 1 is exactly 0
])
def test_log_integral_domain_error_on_each_zero_surface(p):
    spec = FirstIntegralSpec((0.0, 1.0, 0.0, 0.0), "probe")  # exponents do not matter
    with pytest.raises(DomainError) as err:
        log_integral_value(spec, p)
    assert str(err.value) == "probe: log form needs all four surface values nonzero"
    with pytest.raises(DomainError):
        _log_integral_reference(spec, p)


def _log_or_nan(spec, p):
    try:
        return log_integral_value(spec, p)
    except DomainError:
        return math.nan


# rows on which one surface value is +-0.0 (the last one: x + y + z == 1)
ZERO_SURFACE_ROWS = [(0.0, 0.5, 0.25), (-0.0, 0.5, 0.25), (0.5, 0.0, 0.25),
                     (0.5, -0.0, 0.25), (0.5, 0.25, 0.0), (0.5, 0.25, -0.0),
                     (0.5, 0.25, 0.25)]


@pytest.mark.parametrize("k", [(2, 3, 3, 2), (1, 1, 1, 1), (-2, -3, -3, -2)])
def test_log_integral_series_is_bitwise_the_single_point_form(k):
    rng = SplitMix64(9000 + k[1])
    specs = list(named_integral_specs(ParamVector(*k)).values()) + [
        FirstIntegralSpec((1.5, -0.0, -2.25, 0.75), "three"),
        FirstIntegralSpec((rng.uniform(-4.0, 4.0), -1.0, 3.0, rng.uniform(-4.0, 4.0)), "four"),
        FirstIntegralSpec((0.0, 0.0, 0.0, 0.0), "zero"),
        FirstIntegralSpec((-0.0, 0.0, -0.0, -0.0), "signed-zero"),
    ]
    # interior points and points off the simplex (the log form takes |f_i|)
    points = [rand_interior_point(rng) for _ in range(40)]
    points += [tuple(rng.uniform(-0.5, 1.0) for _ in range(3)) for _ in range(40)]
    for with_zeros in (False, True):
        if with_zeros:
            points = points[:30] + ZERO_SURFACE_ROWS + points[30:]
        series = log_integral_series(specs, points)
        assert len(series) == len(specs)
        for spec, values in zip(specs, series):
            assert [v.hex() for v in values] == [_log_or_nan(spec, p).hex() for p in points]
    nan_rows = [values[30:30 + len(ZERO_SURFACE_ROWS)] for values in series]
    assert all(math.isnan(v) for row in nan_rows for v in row)
    assert log_integral_series(specs, []) == [[] for _ in specs]


def test_tilde_identity_on_manifold(rng):
    # k1*log(Htilde) == k4*log(H) wherever the discriminant vanishes
    for _ in range(50):
        k = rand_params_on_S_exact(rng, positive=bool(rng.next_u64() % 2))
        specs = named_integral_specs(k)
        p = rand_interior_point(rng, margin=0.02)
        lhs = k.k1 * log_integral_value(specs["Htilde"], p)
        rhs = k.k4 * log_integral_value(specs["H"], p)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_certification_on_and_off_manifold(rng):
    for _ in range(30):
        k = rand_params_on_S_exact(rng)
        status = certify_named_integrals(k)
        assert all(status[name].certified for name in ("H", "V", "Htilde", "Vtilde"))
    for _ in range(30):
        k = rand_params(rng)
        if abs(discriminant(k)) < 0.1:
            continue
        status = certify_named_integrals(k)
        assert not any(s.certified for s in status.values())


def test_certification_off_nz():
    # one nonzero component: z**k1 and the complement-plane power survive
    status = certify_named_integrals(ParamVector(2, 0, 0, 0))
    assert status["H"].certified  # reduces to z**2
    assert status["Vtilde"].certified  # reduces to (1-x-y-z)**2
    assert not status["V"].certified
    assert not status["Htilde"].certified


# --- the named integrals are Lyapunov functions off the manifold -------------

# d/dt log I is the exponent-weighted sum of the surface cofactors; for each
# named integral it is D = k1*k3 - k2*k4 times one coordinate of the 4-D
# simplex, w = 1-x-y-z, x, y or z, with this sign
LYAPUNOV_FORMS = {"H": ("w", 1), "V": ("x", -1), "Htilde": ("y", 1), "Vtilde": ("z", -1)}


def _integer_params(rng) -> ParamVector:
    # components +-1..9: every cofactor product and sum is exact
    return ParamVector(*((rng.next_u64() % 9 + 1.0) * (1 if rng.uniform() < 0.5 else -1)
                         for _ in range(4)))


def test_cofactor_combinations_are_discriminant_times_a_coordinate():
    x, y, z = Poly.variable(0), Poly.variable(1), Poly.variable(2)
    coordinate = {"w": Poly.constant(1.0) - x - y - z, "x": x, "y": y, "z": z}
    rng = SplitMix64(311)
    for k in [ParamVector(2, 1, 2, 1)] + [_integer_params(rng) for _ in range(50)]:
        d = k.k1 * k.k3 - k.k2 * k.k4
        assert discriminant(k) == d
        cofactors = _cofactors(k)
        for name, spec in named_integral_specs(k).items():
            rate = Poly()
            for e, c in zip(spec.exponents, cofactors):
                rate = rate + e * c
            form, sign = LYAPUNOV_FORMS[name]
            assert (rate - (sign * d) * coordinate[form]).coefficients() == {}, (k, name)


def test_log_integrals_move_with_the_sign_of_the_discriminant():
    rng = SplitMix64(312)
    checked = 0
    while checked < 12:
        k = _integer_params(rng)
        d = discriminant(k)
        if d == 0.0:
            continue
        checked += 1
        p0 = rand_interior_point(rng, margin=0.05)
        specs = named_integral_specs(k)
        logs = log_integral_series([specs[name] for name in LYAPUNOV_FORMS],
                                   integrate(k, p0, 2.0).states)
        for (name, (_, sign)), series in zip(LYAPUNOV_FORMS.items(), logs):
            change = series[-1] - series[0]
            assert math.copysign(1.0, change) == sign * math.copysign(1.0, d), (k, p0, name)


def test_gradient_independence_of_h_and_v(rng):
    # rank-2 gradient pair except on the measure-zero coincidence set
    for _ in range(100):
        k = rand_params_on_S_exact(rng)
        specs = named_integral_specs(k)
        p = rand_interior_point(rng, margin=0.02)
        f1, f2, f3 = p
        f4 = ((f1 + f2) + f3) - 1.0

        def log_gradient(spec):
            # gradient of log|I|: e_i/f_i + e_4/f_4, as f_4 = x+y+z-1
            e1, e2, e3, e4 = spec.exponents
            return np.array([e1 / f1 + e4 / f4, e2 / f2 + e4 / f4, e3 / f3 + e4 / f4])

        gh = log_gradient(specs["H"])
        gv = log_gradient(specs["V"])
        x, y, z = p
        w = 1.0 - x - y - z
        near_coincidence = (
            abs(k.k3 * w - k.k2 * y) < 1e-3 and abs(k.k2 * z - k.k1 * x) < 1e-3
        )
        rows = np.array([gh / np.linalg.norm(gh), gv / np.linalg.norm(gv)])
        if not near_coincidence:
            assert np.linalg.matrix_rank(rows, tol=1e-8) == 2
