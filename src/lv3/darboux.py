"""Invariant algebraic surfaces, cofactor algebra and product first integrals.

Polynomials are sparse term lists over exponent triples, and terms are only
merged on demand with exact (fsum) accumulation.  The flow's invariance
identities then cancel coefficient-by-coefficient without rounding, making
surface verification a statement about expanded polynomials rather than
about sampled values.

The product integrals need no numerics at all.  With w = 1 - x - y - z and
D = k1*k3 - k2*k4 the cofactors satisfy k2*K_x + k1*K_z = D*w,
k3*K_y + k2*K_w = -D*x, k3*K_x + k4*K_z = D*y and k4*K_y + k1*K_w = -D*z,
so certificates and the kernel exist exactly when D = 0, decided once, as
classify decides it (params.s_sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import S_ZERO, ParamVector, discriminant, s_sign
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
    "solve_darboux",
    "named_integral_specs",
    "certify_named_integrals",
    "log_integral_series",
    "log_integral_value",
]

RESIDUAL_REL_TOL = 1e-12


class DomainError(ValueError):
    """A surface value vanishes where the log form needs it nonzero."""


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

    def __neg__(self):
        return Poly(tuple((-c, e) for c, e in self.terms))

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly.constant(other)
        return Poly(self.terms + (-other).terms)

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
    max_residual: float


def verify_invariance(surface: PolySurface, k: ParamVector) -> InvarianceReport:
    """Check that the flow derivative of f equals cofactor*f, by expansion,
    within RESIDUAL_REL_TOL of the largest coefficient.

    The residual polynomial is produced by term-list arithmetic and merged
    with exact accumulation, so for the builtin surfaces it vanishes
    identically (every coefficient is bitwise zero).
    """
    lie = lie_derivative_poly(surface.f, k)
    prod = surface.cofactor * surface.f
    max_residual = (lie - prod).max_abs_coefficient()
    scale = max(1.0, lie.max_abs_coefficient(), prod.max_abs_coefficient())
    return InvarianceReport(ok=max_residual <= RESIDUAL_REL_TOL * scale,
                            max_residual=max_residual)


def _normalize_kernel_vector(v) -> tuple:
    """v over its max-norm, signed so that its first entry above 1e-12 is
    positive; + 0.0 folds -0.0 into 0.0."""
    peak = max(map(abs, v))
    sign = next(math.copysign(1.0, c) for c in v if abs(c / peak) > 1e-12)
    return tuple(sign * (c / peak) + 0.0 for c in v)


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

    Along the flow each candidate's log changes at D times a coordinate (the
    cofactor identities of the module docstring), so a candidate is
    certified exactly when it is non-constant (some exponent nonzero) and
    D = 0, the one decision classify makes: s_sign(k) == S_ZERO.  Its
    cofactor_residual is |D|, the float discriminant.
    """
    on_s = s_sign(k) == S_ZERO
    residual = abs(discriminant(k))
    return {name: NamedIntegralStatus(name, spec.exponents, spec.non_constant, residual,
                                      spec.non_constant and on_s)
            for name, spec in named_integral_specs(k).items()}


@dataclass(frozen=True)
class DarbouxReport:
    monomials: tuple
    kernel: tuple
    subsystem_determinants: tuple
    named: dict


def solve_darboux(k: ParamVector) -> DarbouxReport:
    """Solve sum(lambda_i * K_i) = 0 for the exponent vectors lambda, in closed form.

    Matching coefficients over the monomials of the cofactors decouples into
    two 2x2 blocks, in (lambda_1, lambda_3) and (lambda_2, lambda_4), both of
    determinant D.  The kernel is empty unless D = 0, the one decision
    classify makes (s_sign(k) == S_ZERO).  Then it has one vector per block:
    H's exponents, or Htilde's where H's vanish, and V's, or Vtilde's where
    V's vanish; at k = 0 it is all of R^4.  Vectors have unit max-norm with
    their first significant entry positive, listed by their last nonzero
    entry (the free column of their block).
    """
    named = certify_named_integrals(k)
    monomials = sorted(set().union(*(c.coefficients() for c in _cofactors(k))))
    if k.is_zero:
        kernel = [tuple(float(i == j) for j in range(4)) for i in range(4)]
    elif s_sign(k) == S_ZERO:
        vectors = [next(named[n].exponents for n in pair if named[n].non_constant)
                   for pair in (("H", "Htilde"), ("V", "Vtilde"))]
        vectors.sort(key=lambda v: max(i for i, c in enumerate(v) if c != 0.0))
        kernel = [_normalize_kernel_vector(v) for v in vectors]
    else:
        kernel = []
    d = discriminant(k)
    return DarbouxReport(
        monomials=tuple(monomials),
        kernel=tuple(kernel),
        subsystem_determinants=(d, d),
        named=named,
    )


def log_integral_value(spec: FirstIntegralSpec, p) -> float:
    """sum e_i * log|f_i| at a strictly interior point.

    The log form is the one form the toolkit evaluates: it stays
    well-conditioned for large exponents and near the boundary, where the
    product prod |f_i|^{e_i} over- or underflows.  It is
    log_integral_series at one point.
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
    index order.  With no specs it returns [] and takes no logarithm."""
    if not specs:
        return []
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
