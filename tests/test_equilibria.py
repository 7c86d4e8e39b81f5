import math

import numpy as np
import pytest

from lv3.equilibria import (
    NotInPS,
    OutOfRange,
    SimplexPoint,
    SimplexViolation,
    edge_eigenvalues,
    edge_py,
    edge_spectrum_py,
    edge_xz,
    interior_segment_R,
    interior_spectrum,
    limit_endpoints,
    limit_segments,
    singular_boundary_sets,
    vector_field,
)
from lv3.params import ParamVector
from conftest import (
    interior_point,
    jacobian,
    rand_interior_point,
    rand_params,
    rand_params_on_S_exact,
    norm3,
    spectrum_gap,
)


def test_simplex_point_clamps_tiny_violations():
    p = SimplexPoint(-1e-13, 0.5, 0.5)
    assert p.x == 0.0
    with pytest.raises(SimplexViolation):
        SimplexPoint(-1e-6, 0.5, 0.5)
    with pytest.raises(SimplexViolation):
        SimplexPoint(0.5, 0.5, 0.5)


@pytest.mark.parametrize("coords", [(math.nan, 0.2, 0.2), (0.2, 0.2, math.nan)])
def test_simplex_point_rejects_nan(coords):
    # a nan start would give the stepper a nan first step
    with pytest.raises(SimplexViolation):
        SimplexPoint(*coords)


def test_vector_field_on_interior_segment_point():
    k = ParamVector(1, 1, 1, 1)
    assert vector_field(k, (0.25, 0.25, 0.25)) == (0.0, 0.0, 0.0)


def test_vector_field_hand_value_and_symbolic_cross_check():
    # hand substitution: x*(k1*y - k4*v) = 0, y*(k2*z - k1*x) = -0.04,
    # z*(k3*v - k2*y) = 0.12 at v = 0.4
    k = ParamVector(2, 1, 2, 1)
    p = (0.2, 0.2, 0.2)
    vel = vector_field(k, p)
    assert vel == pytest.approx((0.0, -0.04, 0.12), abs=1e-15)
    # independent route: the sympy field, at the rationals of k and p
    sp = pytest.importorskip("sympy")
    from test_symbolic import FIELD, KS, X, Y, Z

    exact = FIELD.subs(dict(zip((*KS, X, Y, Z), map(sp.Rational, (*k, *p)))))
    assert vel == pytest.approx([float(c) for c in exact], abs=1e-15)


def test_edges_are_exactly_singular(rng):
    for _ in range(100):
        k = rand_params(rng)
        x = rng.uniform()
        y = rng.uniform()
        assert vector_field(k, (x, 0.0, 1.0 - x)) == (0.0, 0.0, 0.0)
        assert vector_field(k, (0.0, y, 0.0)) == (0.0, 0.0, 0.0)


def test_interior_segment_R_examples():
    seg = interior_segment_R(ParamVector(1, 1, 1, 1))
    assert seg.open_ends
    assert seg.a.coords == pytest.approx((0.0, 0.5, 0.0), abs=1e-15)
    assert seg.b.coords == pytest.approx((0.5, 0.0, 0.5), abs=1e-15)

    assert interior_segment_R(ParamVector(2, 1, 2, 1)) is None

    seg = interior_segment_R(ParamVector(2, 3, 3, 2))
    # closure endpoints of {  (1.5 z, (2 - 5 z)/4, z) : 0 < z < 2/5 }
    assert seg.a.coords == pytest.approx((0.0, 0.5, 0.0), abs=1e-15)
    assert seg.b.coords == pytest.approx((0.6, 0.0, 0.4), abs=1e-15)
    for p in seg.sample(50):
        # parametrisation matches the closed form x = 1.5 z, y = (2 - 5 z)/4
        assert p.x == pytest.approx(1.5 * p.z, abs=1e-14)
        assert p.y == pytest.approx((2.0 - 5.0 * p.z) / 4.0, abs=1e-14)


def test_interior_segment_velocity_residual(rng):
    for _ in range(20):
        k = rand_params_on_S_exact(rng, positive=bool(rng.next_u64() % 2))
        seg = interior_segment_R(k)
        assert seg is not None
        for p in seg.sample(25):
            assert max(abs(c) for c in vector_field(k, p)) < 1e-12


def test_limit_endpoints_examples():
    p_py, q_py, p_xz, q_xz = limit_endpoints(ParamVector(1, 1, 1, 1))
    assert p_py.coords == q_py.coords == (0.5, 0.0, 0.5)
    assert p_xz.coords == q_xz.coords == (0.0, 0.5, 0.0)

    p_py, q_py, p_xz, q_xz = limit_endpoints(ParamVector(2, 1, 2, 1))
    assert p_py.coords == pytest.approx((1 / 3, 0.0, 2 / 3), abs=1e-15)
    assert q_py.coords == pytest.approx((2 / 3, 0.0, 1 / 3), abs=1e-15)
    assert p_xz.coords == pytest.approx((0.0, 1 / 3, 0.0), abs=1e-15)
    assert q_xz.coords == pytest.approx((0.0, 2 / 3, 0.0), abs=1e-15)

    negated = limit_endpoints(ParamVector(-2, -1, -2, -1))
    for a, b in zip(negated, limit_endpoints(ParamVector(2, 1, 2, 1))):
        assert a.coords == b.coords


def test_limit_endpoints_require_same_sign():
    with pytest.raises(NotInPS):
        limit_endpoints(ParamVector(1, -1, 1, 1))


def test_limit_segments_examples():
    s_py, s_xz = limit_segments(ParamVector(2, 1, 2, 1))
    assert s_py.a.coords == pytest.approx((1 / 3, 0.0, 2 / 3))
    assert s_py.b.coords == pytest.approx((2 / 3, 0.0, 1 / 3))
    assert not s_py.degenerate and not s_xz.degenerate

    s_py, _ = limit_segments(ParamVector(1, 1, 1, 1))
    assert s_py.degenerate
    assert s_py.a.coords == (0.5, 0.0, 0.5)

    s_py, _ = limit_segments(ParamVector(2, 3, 3, 2))
    assert s_py.degenerate
    assert s_py.a.coords == pytest.approx((0.6, 0.0, 0.4), abs=1e-15)


def test_segment_endpoints_match_interior_segment(rng):
    # on the center regime the four edge points collapse pairwise onto the
    # closure endpoints of the interior segment
    for _ in range(20):
        k = rand_params_on_S_exact(rng, positive=bool(rng.next_u64() % 2))
        p_py, q_py, p_xz, q_xz = limit_endpoints(k)
        assert norm3([a - b for a, b in zip(p_py, q_py)]) <= 1e-14
        assert norm3([a - b for a, b in zip(p_xz, q_xz)]) <= 1e-14
        seg = interior_segment_R(k)
        assert norm3([a - b for a, b in zip(seg.a, p_xz)]) <= 1e-14
        assert norm3([a - b for a, b in zip(seg.b, q_py)]) <= 1e-14


def test_jacobian_displayed_matrix():
    k = ParamVector(1, 1, 1, 1)
    j = jacobian(k, (0.25, 0.25, 0.25))
    expected = np.array(
        [[0.25, 0.5, 0.25], [-0.25, 0.0, 0.25], [-0.25, -0.5, -0.25]]
    )
    assert np.allclose(j, expected, atol=1e-15)
    assert abs(np.trace(j)) == 0.0


def test_jacobian_matches_finite_differences(rng):
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        k = rand_params(rng)
        p = rand_interior_point(rng, margin=0.05)
        j = jacobian(k, p)
        fd = np.zeros((3, 3))
        for col in range(3):
            hi = list(p)
            lo = list(p)
            hi[col] += step
            lo[col] -= step
            fhi = vector_field(k, hi)
            flo = vector_field(k, lo)
            for row in range(3):
                fd[row, col] = (fhi[row] - flo[row]) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(j))))
        worst = max(worst, float(np.max(np.abs(j - fd))) / scale)
    assert worst <= 1e-6


def test_jacobian_trace_vanishes_on_interior_segment(rng):
    for _ in range(10):
        k = rand_params_on_S_exact(rng)
        seg = interior_segment_R(k)
        for p in seg.sample(10):
            assert abs(float(np.trace(jacobian(k, p)))) <= 1e-12


def test_interior_spectrum_matches_numpy_eigvals(rng):
    # numpy's dense eigensolve of the Jacobian is the oracle for the analytic
    # {0, +-i sqrt(b)} along the whole open segment, ends included
    worst = 0.0
    for _ in range(20):
        k = rand_params_on_S_exact(rng, positive=bool(rng.next_u64() % 2))
        z_top = k.k4 / (k.k3 + k.k4)
        for r in (1e-9, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-9):
            rep = interior_spectrum(k, r * z_top)
            assert [w.imag for w in rep.eigenvalues] == sorted(w.imag for w in rep.eigenvalues)
            rows = jacobian(k, interior_point(k, r * z_top))
            worst = max(worst, spectrum_gap(rep.eigenvalues, rows) / max(1.0, math.sqrt(rep.b)))
    assert worst <= 1e-9


def test_interior_spectrum_unit_example():
    rep = interior_spectrum(ParamVector(1, 1, 1, 1), 0.25)
    assert rep.b == pytest.approx(0.25, abs=1e-15)
    imags = sorted(w.imag for w in rep.eigenvalues)
    assert imags == pytest.approx([-0.5, 0.0, 0.5], abs=1e-15)
    assert all(w.real == 0.0 for w in rep.eigenvalues)
    assert rep.classification == "center-type"
    assert spectrum_gap(rep.eigenvalues, jacobian(ParamVector(1, 1, 1, 1), (0.25, 0.25, 0.25))) <= 1e-8


def test_interior_spectrum_second_example():
    rep = interior_spectrum(ParamVector(2, 3, 3, 2), 0.2)
    assert rep.b == pytest.approx(1.5, abs=1e-14)
    assert max(w.imag for w in rep.eigenvalues) == pytest.approx(math.sqrt(1.5), abs=1e-14)


def test_interior_spectrum_b_positive_over_range(rng):
    for _ in range(20):
        k = rand_params_on_S_exact(rng, positive=bool(rng.next_u64() % 2))
        z_top = k.k4 / (k.k3 + k.k4)
        for i in range(1, 10):
            rep = interior_spectrum(k, z_top * i / 10.0)
            assert rep.b > 0.0


def test_interior_spectrum_range_errors():
    k = ParamVector(1, 1, 1, 1)
    with pytest.raises(OutOfRange):
        interior_spectrum(k, 0.0)
    with pytest.raises(OutOfRange):
        interior_spectrum(k, 0.5)
    with pytest.raises(NotInPS):
        interior_spectrum(ParamVector(2, 1, 2, 1), 0.25)


def test_edge_spectrum_examples():
    rep = edge_spectrum_py(ParamVector(1, 1, 1, 1), 0.9)
    lam = sorted(w.real for w in rep.eigenvalues)
    assert lam == pytest.approx([-0.8, 0.0, 0.8], abs=1e-15)
    assert rep.outside_span is True
    assert rep.classification == "saddle-type-on-edge"

    rep = edge_spectrum_py(ParamVector(2, 1, 2, 1), 1 / 3)
    values = sorted(w.real for w in rep.eigenvalues)
    assert values[0] == pytest.approx(-1.0, abs=1e-15)
    assert abs(values[1]) <= 1e-15 and abs(values[2]) <= 1e-15  # 0 and vanishing lam3

    rep = edge_spectrum_py(ParamVector(1, 1, 1, 1), 0.5)
    assert all(abs(w.real) <= 1e-15 for w in rep.eigenvalues)
    assert rep.classification == "other"


def test_edge_eigenvalues_match_the_jacobian(rng):
    # the closed forms on both singular edges against numpy's eigensolve of
    # the analytic Jacobian: spectrum {0, l2, l3}, all real
    for _ in range(100):
        k = rand_params(rng)
        s = rng.uniform()
        for edge, p in (("R_py", (s, 0.0, 1.0 - s)), ("R_xz", (0.0, s, 0.0))):
            ref = np.linalg.eigvals(np.array(jacobian(k, p)))
            assert np.abs(ref.imag).max() <= 1e-12
            assert sorted(ref.real) == pytest.approx(sorted((0.0, *edge_eigenvalues(k, edge, s))),
                                                     abs=1e-12)


def test_edge_spectrum_sign_rule_outside_span(rng):
    for _ in range(50):
        k = rand_params(rng, signs="positive")
        rep = edge_spectrum_py(k, rng.uniform())
        lam = [w.real for w in rep.eigenvalues if w.real != 0.0]
        if rep.outside_span and len(lam) == 2:
            assert lam[0] * lam[1] < 0.0


def test_edge_spectrum_domain():
    with pytest.raises(OutOfRange):
        edge_spectrum_py(ParamVector(1, 1, 1, 1), 1.5)


def test_singular_boundary_sets():
    assert singular_boundary_sets(ParamVector(1, 1, 1, 1)) == ["R_py", "R_xz"]
    assert set(singular_boundary_sets(ParamVector(0, 1, 1, 1))) == {"R_py", "R_xz", "R_pz"}
    assert "Y" in singular_boundary_sets(ParamVector(1, 1, 0, 0))
    assert "Sigma" in singular_boundary_sets(ParamVector(0, 0, 1, 1))
    assert "X" in singular_boundary_sets(ParamVector(1, 0, 0, 1))
    assert "Z" in singular_boundary_sets(ParamVector(0, 1, 1, 0))


def test_edge_segment_distance():
    edge = edge_py()
    assert edge.distance_to((0.5, 0.0, 0.5)) <= 1e-15
    assert edge.distance_to((0.5, 0.1, 0.4)) == pytest.approx(0.1 * math.sqrt(1.5), abs=1e-12)
    assert edge_xz().distance_to((0.0, 0.5, 0.0)) == 0.0
