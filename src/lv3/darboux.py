"""Invariant algebraic surfaces, cofactor algebra and product first integrals.

Polynomials are sparse term lists over exponent triples, and terms are only
merged on demand with exact (fsum) accumulation.  The flow's invariance
identities then cancel coefficient-by-coefficient without rounding, making
surface verification a statement about expanded polynomials rather than
about sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ParamVector
from .equilibria import _coords

__all__ = [
    "Poly",
    "PolySurface",
    "FirstIntegralSpec",
    "InvarianceReport",
    "DarbouxReport",
    "NamedIntegralStatus",
    "DomainError",
    "builtin_surfaces",
    "verify_invariance",
    "cofactor_matrix",
    "kernel_basis",
    "solve_darboux",
    "named_integral_specs",
    "certify_named_integrals",
    "surface_values",
    "integral_value",
    "log_integral_series",
    "log_integral_value",
]

PIVOT_REL_TOL = 1e-12
RESIDUAL_REL_TOL = 1e-12


class DomainError(ValueError):
    """A surface value vanishes where its exponent does not allow it."""


class Poly:
    """Sparse real polynomial in (x, y, z), kept as unmerged (coeff, expt) terms.

    Example
    -------
    >>> p = 2.0 * Poly.variable(0) + Poly.constant(1.0)
    >>> p.coefficients()
    {(0, 0, 0): 1.0, (1, 0, 0): 2.0}
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple(terms)

    @classmethod
    def constant(cls, c) -> "Poly":
        c = float(c)
        return cls(((c, (0, 0, 0)),)) if c != 0.0 else cls()

    @classmethod
    def variable(cls, axis: int) -> "Poly":
        e = [0, 0, 0]
        e[axis] = 1
        return cls(((1.0, tuple(e)),))

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.constant(other)
        return Poly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple((-c, e) for c, e in self.terms))

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly.constant(other)
        return Poly(self.terms + (-other).terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = float(other)
            if c == 0.0:
                return Poly()
            return Poly(tuple((c * cf, e) for cf, e in self.terms))
        out = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                out.append((c1 * c2, (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])))
        return Poly(out)

    __rmul__ = __mul__

    def diff(self, axis: int) -> "Poly":
        out = []
        for c, e in self.terms:
            n = e[axis]
            if n == 0:
                continue
            d = list(e)
            d[axis] = n - 1
            out.append((c * n, tuple(d)))
        return Poly(out)

    def coefficients(self) -> dict:
        """Monomial -> coefficient map; duplicates folded exactly via fsum."""
        groups = {}
        for c, e in self.terms:
            groups.setdefault(e, []).append(c)
        merged = {}
        for e in sorted(groups):
            val = math.fsum(groups[e])
            if val != 0.0:
                merged[e] = val
        return merged

    def __call__(self, x: float, y: float, z: float) -> float:
        return math.fsum(
            c * x**i * y**j * z**l for (i, j, l), c in self.coefficients().items()
        )

    def max_abs_coefficient(self) -> float:
        return max((abs(v) for v in self.coefficients().values()), default=0.0)

    def __repr__(self):
        co = self.coefficients()
        if not co:
            return "Poly(0)"
        names = ("x", "y", "z")
        parts = []
        for e, c in co.items():
            mono = "*".join(
                f"{names[i]}**{e[i]}" if e[i] > 1 else names[i]
                for i in range(3)
                if e[i] > 0
            )
            parts.append(f"{c:g}*{mono}" if mono else f"{c:g}")
        return "Poly(" + " + ".join(parts) + ")"


X = Poly.variable(0)
Y = Poly.variable(1)
Z = Poly.variable(2)
ONE = Poly.constant(1.0)


def field_polynomials(k: ParamVector) -> tuple:
    """The three velocity components as expanded sparse polynomials."""
    v = ONE - X - Y - Z
    px = X * (k.k1 * Y - k.k4 * v)
    py = Y * (k.k2 * Z - k.k1 * X)
    pz = Z * (k.k3 * v - k.k2 * Y)
    return px, py, pz


def lie_derivative_poly(f: Poly, k: ParamVector) -> Poly:
    """Directional derivative of f along the flow, as a polynomial."""
    px, py, pz = field_polynomials(k)
    return px * f.diff(0) + py * f.diff(1) + pz * f.diff(2)


def _cofactors(k: ParamVector) -> tuple:
    # Built term-by-term (k1*y and k4*y kept separate) so the invariance
    # identities cancel exactly against the expanded field polynomials.
    k1, k2, k3, k4 = k
    c1 = k4 * X + k1 * Y + k4 * Y + k4 * Z - Poly.constant(k4)
    c2 = k2 * Z - k1 * X
    c3 = Poly.constant(k3) - k3 * X - k2 * Y - k3 * Y - k3 * Z
    c4 = k4 * X - k3 * Z
    return c1, c2, c3, c4


@dataclass(frozen=True)
class PolySurface:
    """Polynomial surface f = 0 together with its cofactor under the flow."""

    f: Poly
    cofactor: Poly
    name: str


def builtin_surfaces(k: ParamVector) -> list:
    """The four invariant coordinate surfaces x, y, z and x+y+z-1."""
    c1, c2, c3, c4 = _cofactors(k)
    return [
        PolySurface(X, c1, "x"),
        PolySurface(Y, c2, "y"),
        PolySurface(Z, c3, "z"),
        PolySurface(X + Y + Z - ONE, c4, "x+y+z-1"),
    ]


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    residual: dict
    max_residual: float
    scale: float


def verify_invariance(surface: PolySurface, k: ParamVector) -> InvarianceReport:
    """Check that the flow derivative of f equals cofactor*f, by expansion,
    within RESIDUAL_REL_TOL of the largest coefficient.

    The residual polynomial is produced by term-list arithmetic and merged
    with exact accumulation, so for the builtin surfaces it vanishes
    identically (every coefficient is bitwise zero).
    """
    lie = lie_derivative_poly(surface.f, k)
    prod = surface.cofactor * surface.f
    residual = (lie - prod).coefficients()
    scale = max(1.0, lie.max_abs_coefficient(), prod.max_abs_coefficient())
    max_residual = max((abs(v) for v in residual.values()), default=0.0)
    return InvarianceReport(
        ok=max_residual <= RESIDUAL_REL_TOL * scale,
        residual=residual,
        max_residual=max_residual,
        scale=scale,
    )


def cofactor_matrix(k: ParamVector) -> tuple:
    """Coefficient matrix of sum(lambda_i * K_i) over the monomial basis.

    Returns (monomials, rows); rows[r][c] is the coefficient of monomial r
    in the cofactor of the (c+1)-th builtin surface.  A lambda vector is a
    first-integral certificate exactly when it annihilates every row.
    """
    cofs = [c.coefficients() for c in _cofactors(k)]
    monomials = sorted(set().union(*[set(c) for c in cofs]))
    rows = [[c.get(m, 0.0) for c in cofs] for m in monomials]
    return monomials, rows


def _normalize_kernel_vector(v: list) -> tuple:
    peak = max(abs(c) for c in v)
    v = [c / peak + 0.0 for c in v]  # + 0.0 folds -0.0 into 0.0
    for c in v:
        if abs(c) > 1e-12:
            if c < 0.0:
                v = [-c for c in v]
            break
    return tuple(v)


def kernel_basis(rows: list, ncols: int | None = None) -> list:
    """Nullspace basis by Gauss-Jordan elimination with partial pivoting.

    A column whose best available pivot stays below PIVOT_REL_TOL times the
    largest entry of the input matrix is treated as free.  Basis vectors are
    normalised to unit max-norm with their first significant entry positive,
    so the output is reproducible.
    """
    a = [list(map(float, r)) for r in rows]
    m = len(a)
    n = ncols if ncols is not None else (len(a[0]) if m else 0)
    scale = max((abs(v) for r in a for v in r), default=0.0)
    pivots = []
    if scale > 0.0:
        thresh = PIVOT_REL_TOL * scale
        r0 = 0
        for c in range(n):
            if r0 >= m:
                break
            pr = max(range(r0, m), key=lambda r: abs(a[r][c]))
            if abs(a[pr][c]) <= thresh:
                continue
            a[r0], a[pr] = a[pr], a[r0]
            piv = a[r0][c]
            for r in range(m):
                if r == r0 or a[r][c] == 0.0:
                    continue
                f = a[r][c] / piv
                for cc in range(n):
                    a[r][cc] -= f * a[r0][cc]
                a[r][c] = 0.0
            pivots.append((r0, c))
            r0 += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in (c for c in range(n) if c not in pivot_cols):
        v = [0.0] * n
        v[free] = 1.0
        for r, c in pivots:
            v[c] = -a[r][free] / a[r][c]
        basis.append(_normalize_kernel_vector(v))
    return basis


@dataclass(frozen=True)
class FirstIntegralSpec:
    """Product-form candidate prod |f_i|^{e_i} over (x, y, z, x+y+z-1)."""

    exponents: tuple
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(e) for e in self.exponents))
        if len(self.exponents) != 4:
            raise ValueError("need one exponent per builtin surface")

    @property
    def non_constant(self) -> bool:
        return any(e != 0.0 for e in self.exponents)


def named_integral_specs(k: ParamVector) -> dict:
    """The four distinguished product candidates built from k.

    H pairs x and z, V pairs y and 1-x-y-z; the tilde variants swap which
    parameter components appear as exponents.  On the zero-discriminant
    manifold these are conserved along the flow.
    """
    return {
        "H": FirstIntegralSpec((k.k2, 0.0, k.k1, 0.0), "H"),
        "V": FirstIntegralSpec((0.0, k.k3, 0.0, k.k2), "V"),
        "Htilde": FirstIntegralSpec((k.k3, 0.0, k.k4, 0.0), "Htilde"),
        "Vtilde": FirstIntegralSpec((0.0, k.k4, 0.0, k.k1), "Vtilde"),
    }


@dataclass(frozen=True)
class NamedIntegralStatus:
    name: str
    exponents: tuple
    non_constant: bool
    cofactor_residual: float
    certified: bool


def certify_named_integrals(k: ParamVector) -> dict:
    """Certify which named candidates are genuine first integrals for k.

    A candidate passes when it is non-constant (some exponent nonzero) and
    its exponent vector annihilates the cofactor matrix within
    RESIDUAL_REL_TOL.  No case split on which components of k vanish: the
    criterion is checked directly.
    """
    _, rows = cofactor_matrix(k)
    scale = max(1.0, max((abs(v) for r in rows for v in r), default=0.0))
    out = {}
    for name, spec in named_integral_specs(k).items():
        lam = spec.exponents
        residual = max(
            (abs(math.fsum(row[c] * lam[c] for c in range(4))) for row in rows),
            default=0.0,
        )
        lam_scale = max(1.0, max(abs(e) for e in lam))
        certified = spec.non_constant and residual <= RESIDUAL_REL_TOL * scale * lam_scale
        out[name] = NamedIntegralStatus(
            name=name,
            exponents=lam,
            non_constant=spec.non_constant,
            cofactor_residual=residual,
            certified=certified,
        )
    return out


@dataclass(frozen=True)
class DarbouxReport:
    monomials: tuple
    matrix: tuple
    kernel: tuple
    subsystem_determinants: tuple
    named: dict


def solve_darboux(k: ParamVector) -> DarbouxReport:
    """Solve sum(lambda_i * K_i) = 0 for the exponent vectors lambda.

    Assembles the coefficient-matching system over the monomial basis and
    returns a kernel basis.  The system decouples into two 2x2 blocks in
    (lambda_1, lambda_3) and (lambda_2, lambda_4); both block determinants
    equal the discriminant, so nontrivial certificates exist exactly on the
    zero-discriminant manifold.
    """
    monomials, rows = cofactor_matrix(k)
    kernel = kernel_basis(rows, ncols=4)
    det13 = k.k1 * k.k3 - (-k.k2) * (-k.k4)
    det24 = (-k.k1) * (-k.k3) - k.k4 * k.k2
    return DarbouxReport(
        monomials=tuple(monomials),
        matrix=tuple(tuple(r) for r in rows),
        kernel=tuple(kernel),
        subsystem_determinants=(det13, det24),
        named=certify_named_integrals(k),
    )


def surface_values(p) -> tuple:
    """Values of the four builtin surfaces at p (the last one is <= 0 on T)."""
    x, y, z = _coords(p)
    return (x, y, z, ((x + y) + z) - 1.0)


def integral_value(spec: FirstIntegralSpec, p) -> float:
    """prod |f_i|^{e_i} at p.

    Zero factors follow the convention 0**e = 0 for e > 0; a zero factor
    with exponent <= 0 raises DomainError (the product diverges or is
    indeterminate there).
    """
    out = 1.0
    for e, f in zip(spec.exponents, surface_values(p)):
        if e == 0.0:
            continue
        mag = abs(f)
        if mag == 0.0:
            if e > 0.0:
                return 0.0
            raise DomainError(f"{spec.name}: surface value 0 with exponent {e}")
        out *= mag**e
    return out


def log_integral_value(spec: FirstIntegralSpec, p) -> float:
    """sum e_i * log|f_i| at a strictly interior point.

    The log form is the representation of choice for drift monitoring: it
    stays well-conditioned for large exponents and near the boundary, where
    the product form over- or underflows.  It is log_integral_series at
    one point.
    """
    x, y, z = _coords(p)
    w = ((x + y) + z) - 1.0
    if x == 0.0 or y == 0.0 or z == 0.0 or w == 0.0:
        raise DomainError(f"{spec.name}: log form needs all four surface values nonzero")
    return log_integral_series((spec,), ((x, y, z),))[0][0]


def log_integral_series(specs, points) -> list:
    """log_integral_value of each spec at each of points (float triples),
    bit for bit, nan where a surface value is zero: log|f_i| once per
    surface column, then per spec fsum of its nonzero-exponent terms in
    index order."""
    columns = [*zip(*points)] or [(), (), ()]
    columns.append([((x + y) + z) - 1.0 for x, y, z in points])
    zero = {i for c in columns if 0.0 in c for i, v in enumerate(c) if v == 0.0}
    logs = [[math.log(abs(v)) if v != 0.0 else 0.0 for v in c] if zero
            else [*map(math.log, map(abs, c))] for c in columns]
    out = []
    for spec in specs:
        terms = [[e * v for v in log] for e, log in zip(spec.exponents, logs) if e != 0.0]
        rows = zip(*terms) if terms else [()] * len(columns[3])
        out.append([math.nan if i in zero else math.fsum(r) for i, r in enumerate(rows)]
                   if zero else [*map(math.fsum, rows)])
    return out
