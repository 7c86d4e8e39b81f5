import math
import platform
import sys

import pytest

from lv3.params import ParamVector
from lv3.rng import SplitMix64


# The pinned output digests hold on every CPython: no float sum() sets an
# output bit (lv3.flow adds left to right from 0.0).  Other implementations
# may format or round differently, so they skip them.
cpython_only = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="output digests are pinned on CPython",
)
# The comparisons with sum() forms need CPython 3.11, whose sum() of floats
# adds left to right like lv3.flow does; from 3.12 on sum() is compensated.
cpython311_only = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="sum() of floats is compensated from CPython 3.12 on",
)


@pytest.fixture
def rng():
    return SplitMix64(42)


def rand_params(rng, lo=0.3, hi=3.0, signs="mixed") -> ParamVector:
    """Random parameter vector with components in +-[lo, hi]."""
    comps = []
    for _ in range(4):
        mag = rng.uniform(lo, hi)
        if signs == "positive":
            comps.append(mag)
        elif signs == "negative":
            comps.append(-mag)
        else:
            comps.append(mag if rng.uniform() < 0.5 else -mag)
    return ParamVector(*comps)


def rand_params_on_S_exact(rng, positive=True) -> ParamVector:
    """Same-sign vector exactly on the zero-discriminant manifold.

    k2 is a power of two and k4 = k1*k3/k2, so the float discriminant is
    exactly zero (binary division by k2 is exact).
    """
    k1 = float(rng.next_u64() % 9 + 1)
    k3 = float(rng.next_u64() % 9 + 1)
    k2 = float(2 ** (rng.next_u64() % 4))
    k4 = k1 * k3 / k2
    sign = 1.0 if positive else -1.0
    return ParamVector(sign * k1, sign * k2, sign * k3, sign * k4)


def rand_params_on_S_float(rng) -> ParamVector:
    """Vector on the manifold up to one rounding: k4 = fl(k1*k3/k2)."""
    k1 = rng.uniform(0.3, 3.0)
    k2 = rng.uniform(0.3, 3.0)
    k3 = rng.uniform(0.3, 3.0)
    if rng.uniform() < 0.5:
        k1, k2, k3 = -k1, -k2, -k3
        return ParamVector(k1, k2, k3, k1 * k3 / k2)
    return ParamVector(k1, k2, k3, k1 * k3 / k2)


def rand_interior_point(rng, margin=1e-3):
    while True:
        x, y, z = rng.uniform(), rng.uniform(), rng.uniform()
        if x + y + z > 1.0 - margin:
            continue
        if min(x, y, z) <= margin:
            continue
        return (x, y, z)


def norm3(v) -> float:
    return math.sqrt(sum(c * c for c in v))
