"""Deterministic pseudo-random sampling.

Every stochastic piece of the toolkit (interior-point draws, sweep probes,
portrait bundles) pulls from this generator, so a run is reproducible from
its 64-bit seed alone -- never from platform entropy.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Steele-Lea-Flood splitmix64 stream.

    Small state, full 64-bit period, and bit-for-bit identical output on
    every platform, which is what the byte-identical-output contract of the
    command line tool needs.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 42):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform draw in [lo, hi) from the top 53 bits."""
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * 2.0 ** -53)
