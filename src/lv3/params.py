"""Parameter vectors of the simplex flow and their sign regimes.

Regime membership is decided by sign tests without a tolerance: the sweep
tooling deliberately places samples on and off the degenerate manifold, so
a tolerance here would silently move samples across the bifurcation set.
The component signs are exact.  The discriminant sign is that of the float
k1*k3 - k2*k4 without an exponent limit, which classify and s_sign
document.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "ParamVector",
    "Regime",
    "ZeroParameter",
    "discriminant",
    "s_sign",
    "classify",
    "S_MINUS",
    "S_ZERO",
    "S_PLUS",
    "PS_PLUS",
    "PS_MINUS",
    "NOT_PS",
]

S_MINUS = "S-"
S_ZERO = "S"
S_PLUS = "S+"
PS_PLUS = "PS+"
PS_MINUS = "PS-"
NOT_PS = "not-PS"


class ZeroParameter(ValueError):
    """The all-zero parameter vector, which no regime admits."""


@dataclass(frozen=True)
class ParamVector:
    """Rate-constant differences (k1, k2, k3, k4), units of inverse time."""

    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
            object.__setattr__(self, name, float(value))

    def __iter__(self):
        return iter((self.k1, self.k2, self.k3, self.k4))

    def __neg__(self) -> "ParamVector":
        return ParamVector(-self.k1, -self.k2, -self.k3, -self.k4)

    @property
    def is_zero(self) -> bool:
        return self.k1 == 0.0 and self.k2 == 0.0 and self.k3 == 0.0 and self.k4 == 0.0

    @classmethod
    def parse(cls, text: str) -> "ParamVector":
        """Parse 'k1,k2,k3,k4' as used by the command line --k flag."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected four comma-separated numbers, got {text!r}")
        return cls(*(float(p) for p in parts))


@dataclass(frozen=True)
class Regime:
    """Sign regime of a parameter vector.

    s_sign is decided solely by the sign of k1*k3 - k2*k4; ps records whether
    all four components share one sign; in_nz whether none of them vanishes.
    Same-sign vectors always lie inside the nonzero set, so ps != not-PS
    implies in_nz.
    """

    s_sign: str
    in_nz: bool
    ps: str

    @property
    def in_ps(self) -> bool:
        return self.ps != NOT_PS

    @property
    def oscillatory(self) -> bool:
        """True on the center regime: same-sign components, zero discriminant."""
        return self.in_ps and self.s_sign == S_ZERO

    def label(self) -> str:
        return f"{self.ps} ∩ {self.s_sign}"


def discriminant(k: ParamVector) -> float:
    """k1*k3 - k2*k4, the determinant controlling first-integral existence."""
    return k.k1 * k.k3 - k.k2 * k.k4


def s_sign(k: ParamVector) -> str:
    """S+, S- or S by the sign of the float discriminant: the one decision
    of D = 0 that classify and the Darboux certificates share.

    Where the float discriminant cannot tell, the sign is read on k scaled
    by 2**(511 - e): the sign the float discriminant would have without an
    exponent limit.  A product with a zero factor is exactly 0, so its
    factors are set to 0 first (two such products read S), and e is the
    largest frexp exponent of the nonzero components left.  The float
    discriminant cannot tell in two cases.
    - It is nan: both products overflow to one infinity.  Every scaled
      component then lies in [2**-514, 2**511), so the scaling is exact and
      the scaled products are finite normal numbers.
    - It is 0 and both products lie below the normal range (2**-1022), so
      they may be equal only because they underflowed.  Every component
      left then lies below 2**52, so the scaling multiplies by at least
      2**459 and is exact.  The scaled product of the largest component is
      at least 2**510 * 2**-615 = 2**-105, a normal number, so the other
      one either is normal too or lies far below it.
    No tolerance enters; the printed discriminant stays as it is."""
    d = discriminant(k)
    if d != d or (d == 0.0 and abs(k.k1 * k.k3) < sys.float_info.min):
        k1, k2, k3, k4 = k
        if k1 == 0.0 or k3 == 0.0:
            k1 = k3 = 0.0
        if k2 == 0.0 or k4 == 0.0:
            k2 = k4 = 0.0
        if k1 == k2 == 0.0:
            return S_ZERO
        shift = 511 - max(math.frexp(c)[1] for c in (k1, k2, k3, k4) if c)
        k1, k2, k3, k4 = (math.ldexp(c, shift) for c in (k1, k2, k3, k4))
        d = k1 * k3 - k2 * k4
    return S_PLUS if d > 0.0 else (S_MINUS if d < 0.0 else S_ZERO)


def classify(k: ParamVector) -> Regime:
    """Classify k into its sign regime by sign tests without a tolerance.

    The component signs are exact.  s_sign reads the sign of the float
    discriminant fl(fl(k1*k3) - fl(k2*k4)), on k scaled by an exact power
    of two where both products overflow, and rounding is monotone, so it
    never contradicts the sign of the exact rational k1*k3 - k2*k4 of the
    given floats, and an exactly zero discriminant always reads S.  The
    converse fails: a nonzero exact discriminant reads S whenever the two
    products round to the same double, compared without an exponent limit
    where both lie below the normal range (s_sign).  With k1, k2, k4 drawn
    uniformly from [0.3, 3] by random.Random(3) and k3 = k2*k4/k1 in
    floats, 17864 of 20000 draws read S with a nonzero exact discriminant,
    and none read the wrong sign.
    """
    if k.is_zero:
        raise ZeroParameter("the zero parameter vector has no regime")
    in_nz = all(c != 0.0 for c in k)
    if all(c > 0.0 for c in k):
        ps = PS_PLUS
    elif all(c < 0.0 for c in k):
        ps = PS_MINUS
    else:
        ps = NOT_PS
    return Regime(s_sign=s_sign(k), in_nz=in_nz, ps=ps)
