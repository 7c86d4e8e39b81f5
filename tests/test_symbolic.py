"""Exact re-derivations with sympy of the closed forms the toolkit hard-codes:
the Darboux cofactors and the block determinants of their kernel system,
the characteristic polynomial behind jacobian_spectrum, and the transverse
eigenvalues on the singular edges.  The field is written out here from its
formula, not taken from lv3.  Parameters and points are dyadic, so every
float the toolkit computes from them is exact: its exact value (sympy's
Rational of the float) equals the symbolic one."""

from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from lv3.darboux import cofactor_matrix, solve_darboux
from lv3.equilibria import SPECTRUM_AGREE_TOL, edge_eigenvalues, jacobian, jacobian_spectrum
from lv3.params import ParamVector

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


@pytest.mark.parametrize("k", DYADIC_K)
def test_cofactor_matrix_is_the_symbolic_cofactors(k):
    monomials, rows = cofactor_matrix(ParamVector(*k))
    for column, cofactor in enumerate(COFACTORS):
        exact = {m: c.subs(_at(k)) for m, c in cofactor.as_dict().items()}
        assert {m for m, c in exact.items() if c != 0} <= set(monomials)
        for m, row in zip(monomials, rows):
            assert sp.Rational(row[column]) == exact.get(m, 0)


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
def test_jacobian_spectrum_is_the_roots_of_the_symbolic_charpoly(k, p):
    point = dict(zip((X, Y, Z), map(sp.Rational, p)))
    exact = FIELD.jacobian([X, Y, Z]).subs(_at(k)).subs(point)
    rows = jacobian(ParamVector(*k), p)
    assert [[sp.Rational(e) for e in row] for row in rows] == exact.tolist()
    ours = list(jacobian_spectrum(ParamVector(*k), p))
    roots = sp.roots(exact.charpoly(LAM).as_expr(), LAM, multiple=True)  # Cardano's radicals
    assert len(roots) == 3
    for root in roots:
        root = complex(sp.N(root, 30))
        nearest = min(ours, key=lambda lam: abs(lam - root))
        assert abs(nearest - root) <= SPECTRUM_AGREE_TOL
        ours.remove(nearest)


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
