"""Exact re-derivations with sympy of the closed forms the toolkit hard-codes:
the Darboux cofactors and the invariance identities L f = K f they satisfy,
the identities behind the closed-form certificates
and the block determinants of their kernel system, the spectrum on the
interior segment of equilibria, and the transverse eigenvalues on the
singular edges.  The field is written out here from its
formula, not taken from lv3.  Parameters and points are dyadic, so every
float the toolkit computes from them is exact: its exact value (sympy's
Rational of the float) equals the symbolic one."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from lv3.darboux import _cofactor_terms, named_integral_specs, solve_darboux, surface_cofactors
from lv3.equilibria import edge_eigenvalues, interior_spectrum
from lv3.params import ParamVector
from lv3.rng import SplitMix64
from conftest import choice, interior_point, jacobian

X, Y, Z, S, LAM = sp.symbols("x y z s lam")
KS = sp.symbols("k1:5")
K1, K2, K3, K4 = KS
W = 1 - X - Y - Z
FIELD = sp.Matrix([X * (K1 * Y - K4 * W), Y * (K2 * Z - K1 * X), Z * (K3 * W - K2 * Y)])
SURFACES = (X, Y, Z, X + Y + Z - 1)

# every regime: S+, S-, the center manifold, both signs, not-PS, zero components
DYADIC_K = [(2, 1, 2, 1), (3, 1, 1, 2), (2, 3, 3, 2), (-2, -1, -2, -1), (1.5, 0.5, 0.25, 3),
            (1, -2, 3, 1), (1, 0, 2, 0.5), (0, 0.75, 0, -1.25)]
DYADIC_P = [(0.25, 0.375, 0.125), (0.5, 0.125, 0.25), (0.0625, 0.75, 0.0625)]


def _symbolic_cofactors():
    """K_i = L(f_i) / f_i, each a polynomial in (x, y, z) and k."""
    out = []
    for f in SURFACES:
        grad = sp.Matrix([f]).jacobian([X, Y, Z])
        cofactor = sp.cancel((grad * FIELD)[0] / f)
        assert sp.fraction(cofactor)[1] == 1
        out.append(sp.Poly(sp.expand(cofactor), X, Y, Z))
    return out


COFACTORS = _symbolic_cofactors()


def _at(k):
    return dict(zip(KS, map(sp.Rational, k)))


# L f of each plane, as monomial -> coefficient in k
LIE_DERIVATIVES = [sp.Poly((sp.Matrix([f]).jacobian([X, Y, Z]) * FIELD)[0], X, Y, Z).as_dict()
                   for f in SURFACES]


def exact_invariance_residual(k):
    """Largest |coefficient| of L f - K f over the four planes f, expanded
    in exact rationals, with K the table's terms of lv3.darboux summed
    exactly at the rationals of the floats k."""
    at = _at(k)
    terms = _cofactor_terms(tuple(map(sp.Rational, k))).values()
    worst = sp.Integer(0)
    for f, lie, cofactor in zip(SURFACES, LIE_DERIVATIVES, terms):
        K = sp.Poly({m: sum(t) for m, t in cofactor.items()}, X, Y, Z)
        residual = {m: c.xreplace(at) for m, c in lie.items()}
        for m, c in (K * sp.Poly(f, X, Y, Z)).as_dict().items():
            residual[m] = residual.get(m, 0) - c
        worst = max(worst, *map(abs, residual.values()))
    return worst


def _rounded_once(c) -> float:
    """The double nearest the sympy Rational c."""
    return float(Fraction(int(c.p), int(c.q)))


@pytest.mark.parametrize("k", DYADIC_K)
def test_the_cofactors_are_the_symbolic_cofactors(k):
    for cofactor, symbolic in zip(surface_cofactors(ParamVector(*k)).values(), COFACTORS):
        exact = {m: c.subs(_at(k)) for m, c in symbolic.as_dict().items()}
        assert {m: sp.Rational(c) for m, c in cofactor.items()} == {
            m: c for m, c in exact.items() if c != 0}


def _float_component(rng) -> float:
    magnitude = choice(rng, (0.0, 1.0, 1e300, 1e-300)) * rng.uniform(0.3, 3.0)
    return magnitude if rng.uniform() < 0.5 else -magnitude


def test_the_table_is_the_symbolic_cofactors_rounded_once():
    # float k with zero, signed-zero, mixed-sign and 1e+-300 components,
    # and with k4 = -k1 or k3 = -k2, where a two-term coefficient cancels
    rng = SplitMix64(2701)
    for draw in range(300):
        k = [_float_component(rng) for _ in range(4)]
        if draw % 5 == 0:
            k[3] = -k[0]
        elif draw % 5 == 1:
            k[2] = -k[1]
        table, at = surface_cofactors(ParamVector(*k)), _at(k)
        assert list(table) == ["x", "y", "z", "x+y+z-1"]
        for cofactor, symbolic in zip(table.values(), COFACTORS):
            exact = {m: c.xreplace(at) for m, c in symbolic.as_dict().items()}
            assert list(cofactor) == sorted(cofactor)
            assert cofactor == {m: _rounded_once(c) for m, c in exact.items() if c != 0}, k


def test_each_named_exponent_vector_weights_the_cofactors_to_d_times_a_coordinate():
    # the identities the closed-form certificates rest on: H, V, Htilde and
    # Vtilde are first integrals exactly where D = k1*k3 - k2*k4 vanishes
    d = K1 * K3 - K2 * K4
    expected = {"H": d * W, "V": -d * X, "Htilde": d * Y, "Vtilde": -d * Z}
    for k in DYADIC_K:
        for name, spec in named_integral_specs(ParamVector(*k)).items():
            weighted = sum(sp.Rational(e) * c.as_expr() for e, c in zip(spec.exponents, COFACTORS))
            assert sp.expand((weighted - expected[name]).subs(_at(k))) == 0, (k, name)


def test_both_block_determinants_are_the_discriminant():
    # rows of the system sum(lambda_i K_i) = 0, one per monomial
    system = sp.Matrix([[c.coeff_monomial(m) for c in COFACTORS]
                        for m in (1, X, Y, Z)])
    const, x_row, y_row, z_row = (system.row(i) for i in range(4))
    # adding the constant row to the x and z rows decouples (lambda_1,
    # lambda_3) from (lambda_2, lambda_4); the row order fixes the sign
    block13 = sp.Matrix.vstack(y_row, const)
    block24 = sp.Matrix.vstack(x_row + const, z_row + const)
    assert all(sp.expand(e) == 0 for e in block13.extract([0, 1], [1, 3]))
    assert all(sp.expand(e) == 0 for e in block24.extract([0, 1], [0, 2]))
    d = K1 * K3 - K2 * K4
    dets = (block13.extract([0, 1], [0, 2]).det(), block24.extract([0, 1], [1, 3]).det())
    assert all(sp.expand(det - d) == 0 for det in dets)
    for k in DYADIC_K:
        dets = solve_darboux(ParamVector(*k)).subsystem_determinants
        assert tuple(map(sp.Rational, dets)) == (d.subs(_at(k)),) * 2


@pytest.mark.parametrize("k", DYADIC_K)
@pytest.mark.parametrize("p", DYADIC_P)
def test_the_jacobian_the_spectrum_tests_read_is_the_symbolic_jacobian(k, p):
    # conftest.jacobian is the matrix numpy's eigvals reads as the oracle
    # for the closed-form spectra
    point = dict(zip((X, Y, Z), map(sp.Rational, p)))
    exact = FIELD.jacobian([X, Y, Z]).subs(_at(k)).subs(point)
    rows = jacobian(ParamVector(*k), p)
    assert [[sp.Rational(e) for e in row] for row in rows] == exact.tolist()


# on the manifold k3 = k2*k4/k1 the characteristic polynomial at the segment
# point with third coordinate z = S is lam*(lam**2 + B), identically in k1,
# k2, k4 and z
CENTER = SimpleNamespace(k1=K1, k2=K2, k3=K2 * K4 / K1, k4=K4)
B = S * interior_point(CENTER, S)[1] * (K1 + K2) * (K2 + CENTER.k3)


def test_the_interior_charpoly_is_lam_times_lam_squared_plus_b():
    point = dict(zip((X, Y, Z), interior_point(CENTER, S)))
    charpoly = FIELD.jacobian([X, Y, Z]).subs(K3, CENTER.k3).subs(point).charpoly(LAM).as_expr()
    assert sp.simplify(charpoly - LAM * (LAM**2 + B)) == 0


# k3 + k4 and k1 + k4 are powers of two, so every float below is exact
@pytest.mark.parametrize("k", [(1, 1, 1, 1), (1, 3, 3, 1), (-1, -7, -7, -1), (0.5, 3.5, 3.5, 0.5)])
def test_interior_spectrum_is_the_roots_of_the_symbolic_charpoly(k):
    for r in (0.125, 0.5, 0.75):
        z = r * k[3] / (k[2] + k[3])
        rep = interior_spectrum(ParamVector(*k), z)
        assert sp.Rational(rep.b) == B.subs(_at(k)).subs(S, sp.Rational(z))
        beta = sp.sqrt(B.subs(_at(k)).subs(S, sp.Rational(z)))
        assert [complex(w) for w in rep.eigenvalues] == [complex(w) for w in (-sp.I * beta, 0, sp.I * beta)]


@pytest.mark.parametrize("edge, point", [("R_py", {X: S, Y: 0, Z: 1 - S}),
                                         ("R_xz", {X: 0, Y: S, Z: 0})])
def test_edge_eigenvalues_are_the_symbolic_spectrum(edge, point):
    # the characteristic polynomial on the edge is lam (lam - l2)(lam - l3),
    # identically in k and the abscissa s; edge_eigenvalues evaluated on
    # symbols gives its formulas for l2 and l3
    charpoly = FIELD.jacobian([X, Y, Z]).subs(point).charpoly(LAM).as_expr()
    l2, l3 = edge_eigenvalues(SimpleNamespace(k1=K1, k2=K2, k3=K3, k4=K4), edge, S)
    assert sp.expand(charpoly - LAM * (LAM - l2) * (LAM - l3)) == 0
    for k in DYADIC_K:
        for s in (0.0, 0.125, 0.5, 0.875):
            exact = sp.roots(charpoly.subs(_at(k)).subs(S, sp.Rational(s)), LAM, multiple=True)
            ours = map(sp.Rational, (0.0, *edge_eigenvalues(ParamVector(*k), edge, s)))
            assert sorted(ours) == sorted(exact)
