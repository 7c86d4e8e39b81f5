"""Invariant planes, their cofactors and product first integrals, in closed form.

The four planes x, y, z and x+y+z-1 are invariant under the flow: the
derivative of each along it is a linear cofactor times the plane,
L f = K f.  surface_cofactors gives the four cofactors from one table,
each coefficient a sum of at most two k components rounded once.  The
identities L f = K f hold symbolically in k and are proven in the tests
with sympy, so nothing here expands or checks them again.

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
    "FirstIntegralSpec",
    "DarbouxReport",
    "NamedIntegralStatus",
    "DomainError",
    "surface_cofactors",
    "solve_darboux",
    "named_integral_specs",
    "certify_named_integrals",
    "log_integral_series",
    "log_integral_value",
]


class DomainError(ValueError):
    """A surface value vanishes where the log form needs it nonzero."""


def _cofactor_terms(k) -> dict:
    """The cofactor of each invariant plane, monomial (powers of x, y, z)
    -> the terms whose sum is its coefficient.  k is any four numbers:
    floats here, exact rationals in the tests."""
    k1, k2, k3, k4 = k
    return {
        "x": {(0, 0, 0): (-k4,), (0, 0, 1): (k4,), (0, 1, 0): (k1, k4), (1, 0, 0): (k4,)},
        "y": {(0, 0, 1): (k2,), (1, 0, 0): (-k1,)},
        "z": {(0, 0, 0): (k3,), (0, 0, 1): (-k3,), (0, 1, 0): (-k2, -k3), (1, 0, 0): (-k3,)},
        "x+y+z-1": {(0, 0, 1): (-k3,), (1, 0, 0): (k4,)},
    }


class _Name(str):
    """The name of a k component, negated by a leading minus sign: the
    cofactor table read with names in place of numbers."""

    def __neg__(self):
        return _Name(self[1:] if self.startswith("-") else f"-{self}")


def surface_cofactors(k: ParamVector) -> dict:
    """Surface name -> its cofactor as monomial -> coefficient, monomials
    sorted and zero coefficients left out.  Each coefficient is the fsum of
    its terms: the exact sum rounded once.  Where that overflows it raises
    OverflowError naming the plane, the monomial and the sum, such as the y
    coefficient k1 + k4 of the plane x."""
    out = {}
    for name, terms in _cofactor_terms(k).items():
        out[name] = {}
        for monomial, t in terms.items():
            try:
                c = math.fsum(t)
            except OverflowError:
                names = _cofactor_terms(map(_Name, ("k1", "k2", "k3", "k4")))[name][monomial]
                raise OverflowError(
                    f"the {'xyz'[monomial.index(1)]} coefficient "
                    f"{' + '.join(names).replace('+ -', '- ')} of the cofactor of the plane "
                    f"{name} overflows") from None
            if c != 0.0:
                out[name][monomial] = c
    return out


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
    monomials = sorted(set().union(*surface_cofactors(k).values()))
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
