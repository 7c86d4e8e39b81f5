"""Closed-form singular sets of the simplex flow and their local spectra.

The flow on T = {x, y, z >= 0, x + y + z <= 1} keeps two whole edges of
equilibria for every parameter vector: the hypotenuse edge {(x, 0, 1-x)}
and the y-axis edge {(0, y, 0)}.  Same-sign parameter vectors single out
the sub-segments s_py and s_xz of those edges, and on the zero-discriminant
manifold an open interior segment of equilibria appears whose transverse
spectrum is purely imaginary.  Everything here evaluates closed forms; the
only numerics is a root-finding cross-check on the characteristic polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ParamVector, ZeroParameter, classify

__all__ = [
    "SimplexPoint",
    "boundary_margin",
    "Segment",
    "SpectrumReport",
    "SimplexViolation",
    "NotInPS",
    "OutOfRange",
    "vector_field",
    "jacobian",
    "jacobian_spectrum",
    "interior_segment_R",
    "limit_endpoints",
    "limit_segments",
    "interior_spectrum",
    "edge_eigenvalues",
    "edge_spectrum_py",
    "edge_py",
    "edge_xz",
    "singular_boundary_sets",
    "TOL_GEOM",
]

TOL_GEOM = 1e-12
OPEN_SAMPLING_MARGIN = 1e-9
DK_SWEEPS = 64  # seeded generic Jacobians settle to rounding level within 36
SPECTRUM_RESIDUAL_TOL = 1e-10
SPECTRUM_AGREE_TOL = 1e-8
_SQRT3 = math.sqrt(3.0)

CENTER_TYPE = "center-type"
SADDLE_TYPE = "saddle-type-on-edge"
OTHER_TYPE = "other"


def boundary_margin(y) -> float:
    """Euclidean distance from y to the boundary of the simplex (interior > 0)."""
    x, yy, z = y
    return min(x, yy, z, (1.0 - x - yy - z) / _SQRT3)


class SimplexViolation(ValueError):
    """A state violates the simplex constraints beyond the allowance."""


class NotInPS(ValueError):
    """Operation requires all parameter components to share one sign."""


class OutOfRange(ValueError):
    """Scalar argument outside its admissible interval."""


@dataclass(frozen=True)
class SimplexPoint:
    """A state (x, y, z) in the closed simplex T.

    Construction clamps violations up to TOL_GEOM back onto the boundary and
    rejects anything larger, so downstream code can rely on membership.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        lowest = min(x, y, z)
        excess = (x + y + z) - 1.0
        if not (lowest >= -TOL_GEOM and excess <= TOL_GEOM):  # nan included
            raise SimplexViolation(f"({x}, {y}, {z}) lies outside the simplex")
        if lowest < 0.0 or excess > 0.0:
            x, y, z = max(x, 0.0), max(y, 0.0), max(z, 0.0)
            total = x + y + z
            if total > 1.0:
                x, y, z = x / total, y / total, z / total
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    @property
    def coords(self) -> tuple:
        return (self.x, self.y, self.z)


def _coords(p) -> tuple:
    if isinstance(p, SimplexPoint):
        return p.coords
    x, y, z = p
    return float(x), float(y), float(z)


def _field3(k: ParamVector):
    """The velocity of the simplex flow as a function of the state alone.

    Evaluates x*(k1*y - k4*v), y*(k2*z - k1*x), z*(k3*v - k2*y) with
    v = 1 - x - y - z, sequenced so that states on the two singular edges
    return an algebraically exact zero, not a rounded one.
    """
    k1, k2, k3, k4 = k

    def fun(p):
        x, y, z = p
        v = ((1.0 - x) - y) - z
        return (
            x * (k1 * y - k4 * v),
            y * (k2 * z - k1 * x),
            z * (k3 * v - k2 * y),
        )

    return fun


def vector_field(k: ParamVector, p) -> tuple:
    """Velocity of the simplex flow at p, evaluated as _field3 does."""
    return _field3(k)(_coords(p))


def jacobian(k: ParamVector, p) -> tuple:
    """Analytic Jacobian of the vector field at p, as three row tuples."""
    x, y, z = _coords(p)
    v = ((1.0 - x) - y) - z
    return (
        (k.k1 * y - k.k4 * v + k.k4 * x, x * (k.k1 + k.k4), k.k4 * x),
        (-k.k1 * y, k.k2 * z - k.k1 * x, k.k2 * y),
        (-k.k3 * z, -z * (k.k2 + k.k3), k.k3 * v - k.k2 * y - k.k3 * z),
    )


def jacobian_spectrum(k: ParamVector, p) -> tuple:
    """Eigenvalues of the Jacobian at p, ordered by imaginary part.

    They are the roots of lam^3 - trace*lam^2 + minors*lam - det (minors: the
    sum of the principal 2x2 minors), found by DK_SWEEPS Durand-Kerner sweeps
    started off-symmetry inside the Cauchy root bound.  Raises ArithmeticError
    if |p(lam)| > SPECTRUM_RESIDUAL_TOL * scale**3 at a root, with
    scale = max(1, max |J_ij|).
    """
    (a, b, c), (d, e, f), (g, h, i) = rows = jacobian(k, p)
    trace = a + e + i
    minors = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def poly(lam):
        return ((lam - trace) * lam + minors) * lam - det

    radius = 1.0 + max(abs(trace), abs(minors), abs(det))
    roots = [radius * (0.4 + 0.9j) ** n for n in range(3)]
    for _ in range(DK_SWEEPS):
        for n, lam in enumerate(roots):
            roots[n] = lam - poly(lam) / ((lam - roots[n - 1]) * (lam - roots[n - 2]))
    scale = max(1.0, max(abs(entry) for row in rows for entry in row))
    worst = max(abs(poly(lam)) for lam in roots)
    if worst > SPECTRUM_RESIDUAL_TOL * scale**3:
        raise ArithmeticError(f"characteristic residual {worst:.3e} exceeds tolerance")
    return tuple(sorted(roots, key=lambda lam: lam.imag))


@dataclass(frozen=True)
class Segment:
    """Straight segment of equilibria, stored by its closure endpoints.

    Open segments keep their endpoints but sampling backs off by a relative
    margin so no sample touches the closure.
    """

    a: SimplexPoint
    b: SimplexPoint
    label: str
    open_ends: bool = False

    def point_at(self, r: float) -> SimplexPoint:
        ax, ay, az = self.a
        bx, by, bz = self.b
        return SimplexPoint(ax + r * (bx - ax), ay + r * (by - ay), az + r * (bz - az))

    def sample(self, n: int) -> list:
        lo, hi = (OPEN_SAMPLING_MARGIN, 1.0 - OPEN_SAMPLING_MARGIN) if self.open_ends else (0.0, 1.0)
        if n <= 1:
            return [self.point_at(0.5)]
        return [self.point_at(lo + (hi - lo) * i / (n - 1)) for i in range(n)]

    @property
    def length(self) -> float:
        ax, ay, az = self.a
        bx, by, bz = self.b
        return math.sqrt((bx - ax) ** 2 + (by - ay) ** 2 + (bz - az) ** 2)

    @property
    def degenerate(self) -> bool:
        return self.length == 0.0

    def distance_to(self, p) -> float:
        """Euclidean distance from p to the segment closure."""
        px, py, pz = _coords(p)
        ax, ay, az = self.a
        dx, dy, dz = self.b.x - ax, self.b.y - ay, self.b.z - az
        denom = dx * dx + dy * dy + dz * dz
        if denom == 0.0:
            r = 0.0
        else:
            r = ((px - ax) * dx + (py - ay) * dy + (pz - az) * dz) / denom
            r = min(1.0, max(0.0, r))
        qx, qy, qz = ax + r * dx, ay + r * dy, az + r * dz
        return math.sqrt((px - qx) ** 2 + (py - qy) ** 2 + (pz - qz) ** 2)


def edge_py() -> Segment:
    """The hypotenuse edge {(x, 0, 1-x): 0 <= x <= 1}, singular for every k."""
    return Segment(SimplexPoint(0.0, 0.0, 1.0), SimplexPoint(1.0, 0.0, 0.0), "R_py_edge")


def edge_xz() -> Segment:
    """The y-axis edge {(0, y, 0): 0 <= y <= 1}, singular for every k."""
    return Segment(SimplexPoint(0.0, 0.0, 0.0), SimplexPoint(0.0, 1.0, 0.0), "R_xz_edge")


def limit_endpoints(k: ParamVector) -> tuple:
    """The four distinguished edge equilibria (p_py, q_py, p_xz, q_xz).

    Requires same-sign components so all four denominators are nonzero; the
    coordinates are degree-zero ratios, hence invariant under k -> -k.
    """
    if not classify(k).in_ps:
        raise NotInPS("limit endpoints exist only for same-sign parameter vectors")
    p_py = SimplexPoint(k.k2 / (k.k1 + k.k2), 0.0, k.k1 / (k.k1 + k.k2))
    q_py = SimplexPoint(k.k3 / (k.k3 + k.k4), 0.0, k.k4 / (k.k3 + k.k4))
    p_xz = SimplexPoint(0.0, k.k4 / (k.k1 + k.k4), 0.0)
    q_xz = SimplexPoint(0.0, k.k3 / (k.k3 + k.k2), 0.0)
    return p_py, q_py, p_xz, q_xz


def limit_segments(k: ParamVector) -> tuple:
    """The closed segments s_py and s_xz; degenerate points when k is on S."""
    p_py, q_py, p_xz, q_xz = limit_endpoints(k)
    return (
        Segment(p_py, q_py, "s_py"),
        Segment(p_xz, q_xz, "s_xz"),
    )


def interior_segment_R(k: ParamVector):
    """The open interior segment of equilibria, or None when it is absent.

    The segment {((k3/k4) z, (k4 - (k3+k4) z)/(k1+k4), z): 0 < z < k4/(k3+k4)}
    exists exactly on the center regime (same-sign components with zero
    discriminant).  Its closure endpoints are the coincident pairs
    p_xz = q_xz (z -> 0) and p_py = q_py (z -> k4/(k3+k4)).
    """
    if k.is_zero:
        raise ZeroParameter("the zero parameter vector has no regime")
    regime = classify(k)
    if not regime.oscillatory:
        return None
    z_top = k.k4 / (k.k3 + k.k4)
    a = SimplexPoint(0.0, k.k4 / (k.k1 + k.k4), 0.0)
    b = SimplexPoint(k.k3 / (k.k3 + k.k4), 0.0, z_top)
    return Segment(a, b, "R_interior", open_ends=True)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue report at an equilibrium.

    classification is center-type for {0, +i b^(1/2), -i b^(1/2)},
    saddle-type-on-edge for real {0, l2, l3} with l2*l3 < 0, other otherwise.
    """

    eigenvalues: tuple
    classification: str
    b: float | None = None
    outside_span: bool | None = None
    max_mismatch: float | None = None


def interior_spectrum(k: ParamVector, z: float) -> SpectrumReport:
    """Spectrum at the interior-segment point with third coordinate z.

    The characteristic polynomial there factors as lam*(lam^2 + b) with
    b = z*y*(k1+k2)*(k2+k3) and y = (k4-(k3+k4)*z)/(k1+k4), so the analytic
    eigenvalues are {0, +i sqrt(b), -i sqrt(b)}.  jacobian_spectrum, the roots
    of the Jacobian's characteristic polynomial, must agree within
    SPECTRUM_AGREE_TOL.
    """
    regime = classify(k)
    if not regime.oscillatory:
        raise NotInPS("interior equilibria require same-sign k with zero discriminant")
    z = float(z)
    z_top = k.k4 / (k.k3 + k.k4)
    if not 0.0 < z < z_top:
        raise OutOfRange(f"z={z} outside the open interval (0, {z_top})")
    y = (k.k4 - (k.k3 + k.k4) * z) / (k.k1 + k.k4)
    b = z * y * (k.k1 + k.k2) * (k.k2 + k.k3)
    beta = math.sqrt(b)
    analytic = (complex(0.0, -beta), complex(0.0, 0.0), complex(0.0, beta))
    point = SimplexPoint((k.k3 / k.k4) * z, y, z)
    numeric = jacobian_spectrum(k, point)
    mismatch = max(
        min(abs(a - w) for w in numeric) for a in analytic
    )
    if mismatch > SPECTRUM_AGREE_TOL:
        raise ArithmeticError(
            f"analytic/numeric eigenvalue mismatch {mismatch:.3e} exceeds {SPECTRUM_AGREE_TOL}"
        )
    return SpectrumReport(
        eigenvalues=analytic,
        classification=CENTER_TYPE if b > 0.0 else OTHER_TYPE,
        b=b,
        max_mismatch=mismatch,
    )


def edge_eigenvalues(k: ParamVector, edge: str, s: float) -> tuple:
    """The two transverse eigenvalues at the point with abscissa s of the
    singular edge R_py, (s, 0, 1-s), or R_xz, (0, s, 0).  The third
    eigenvalue, along the edge, is 0."""
    if edge == "R_py":
        return (k.k3 + k.k4) * s - k.k3, k.k2 - s * (k.k1 + k.k2)
    return k.k1 * s - k.k4 * (1.0 - s), k.k3 * (1.0 - s) - k.k2 * s


def edge_spectrum_py(k: ParamVector, x0: float) -> SpectrumReport:
    """Spectrum at the hypotenuse-edge equilibrium (x0, 0, 1-x0).

    Eigenvalues are 0, l2 = (k3+k4)*x0 - k3 and l3 = k2 - x0*(k1+k2).
    When x0 lies outside the span of s_py (the interval between the
    abscissae of p_py and q_py), l2*l3 < 0 and the report says so.
    """
    x0 = float(x0)
    if not 0.0 <= x0 <= 1.0:
        raise OutOfRange(f"x0={x0} outside [0, 1]")
    lam2, lam3 = edge_eigenvalues(k, "R_py", x0)
    outside = None
    if (k.k1 + k.k2) != 0.0 and (k.k3 + k.k4) != 0.0:
        t1 = k.k2 / (k.k1 + k.k2)
        t2 = k.k3 / (k.k3 + k.k4)
        outside = x0 < min(t1, t2) or x0 > max(t1, t2)
    classification = SADDLE_TYPE if lam2 * lam3 < 0.0 else OTHER_TYPE
    return SpectrumReport(
        eigenvalues=(complex(0.0), complex(lam2), complex(lam3)),
        classification=classification,
        outside_span=outside,
    )


def singular_boundary_sets(k: ParamVector) -> list:
    """Labels of boundary faces/edges consisting entirely of equilibria.

    The two edges R_py and R_xz qualify for every k.  Each vanishing
    component adds one more edge, and each adjacent pair of vanishing
    components completes a whole face; the conditions are closed-form sign
    tests, no numeric search.
    """
    sets = ["R_py", "R_xz"]
    if k.k1 == 0.0:
        sets.append("R_pz")
    if k.k2 == 0.0:
        sets.append("R_px")
    if k.k3 == 0.0:
        sets.append("R_xy")
    if k.k4 == 0.0:
        sets.append("R_yz")
    if k.k2 == 0.0 and k.k3 == 0.0:
        sets.append("X")
    if k.k3 == 0.0 and k.k4 == 0.0:
        sets.append("Y")
    if k.k1 == 0.0 and k.k4 == 0.0:
        sets.append("Z")
    if k.k1 == 0.0 and k.k2 == 0.0:
        sets.append("Sigma")
    return sets
