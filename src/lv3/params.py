"""Parameter vectors of the simplex flow and their sign regimes.

Regime membership is decided by sign tests without a tolerance: the sweep
tooling deliberately places samples on and off the degenerate manifold, so
a tolerance here would silently move samples across the bifurcation set.
The component signs are exact.  The discriminant sign is that of the float
k1*k3 - k2*k4, which classify documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ParamVector",
    "Regime",
    "ZeroParameter",
    "discriminant",
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


def classify(k: ParamVector) -> Regime:
    """Classify k into its sign regime by sign tests without a tolerance.

    The component signs are exact.  s_sign reads the sign of the float
    discriminant fl(fl(k1*k3) - fl(k2*k4)), and rounding is monotone, so it
    never contradicts the sign of the exact rational k1*k3 - k2*k4 of the
    given floats, and an exactly zero discriminant always reads S.  The
    converse fails: a nonzero exact discriminant reads S whenever the two
    products round to the same double (both overflowing to one infinity
    included, where the float difference is nan).  With k1, k2, k4 drawn
    uniformly from [0.3, 3] by random.Random(3) and k3 = k2*k4/k1 in
    floats, 17864 of 20000 draws read S with a nonzero exact discriminant,
    and none read the wrong sign.
    """
    if k.is_zero:
        raise ZeroParameter("the zero parameter vector has no regime")
    d = discriminant(k)
    s_sign = S_PLUS if d > 0.0 else (S_MINUS if d < 0.0 else S_ZERO)
    in_nz = all(c != 0.0 for c in k)
    if all(c > 0.0 for c in k):
        ps = PS_PLUS
    elif all(c < 0.0 for c in k):
        ps = PS_MINUS
    else:
        ps = NOT_PS
    return Regime(s_sign=s_sign, in_nz=in_nz, ps=ps)
