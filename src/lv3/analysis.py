"""Limit-set classification, periodic-orbit detection, boundary-face
foliations, heteroclinic matching and the automated verification harnesses.

Numerical policy: "converged to a segment" means terminal speed at or below
1e-8 AND point-to-segment distance at or below 1e-4.  Two thresholds because
the approach along the slow center direction is algebraically slow, so a
distance test alone would accept premature stops.  Periodicity requires two
consecutive return agreements, not one, to reject near-periodic spiral
transients.  Inconclusive is a first-class outcome, never silently coerced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import (
    PS_MINUS,
    PS_PLUS,
    S_MINUS,
    S_PLUS,
    S_ZERO,
    ParamVector,
    ZeroParameter,
    classify,
    discriminant,
)
from .equilibria import (
    NotInPS,
    OutOfRange,
    Segment,
    SimplexPoint,
    SimplexViolation,
    _coords,
    boundary_margin,
    edge_py,
    edge_xz,
    interior_segment_R,
    limit_endpoints,
    limit_segments,
    vector_field,
)
from .darboux import c_star, certify_named_integrals
from .flow import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    MAX_ACCEPTED_STEPS,
    VIOLATION_LIMIT,
    DormandPrince45,
    SectionSpec,
    StepSizeUnderflow,
    _ReturnMap,
    _field3,
    _negated,
    _violation3,
    integrate,
)
from .rng import SplitMix64

__all__ = [
    "LimitSetReport",
    "PeriodicOrbit",
    "FaceLeaf",
    "HeteroclinicMatch",
    "OnEquilibrium",
    "DegenerateLeaf",
    "LevelOutOfRange",
    "default_section",
    "sample_interior",
    "boundary_margin",
    "omega_limit",
    "alpha_limit",
    "detect_periodic",
    "orbit_integral_drift",
    "certified_integral_names",
    "face_leaf",
    "face_field",
    "face_connection_abscissae",
    "heteroclinic_match",
    "complement_edge_distance",
    "verify_theorem_a",
    "verify_theorem_b",
    "period_profile",
    "make_ray",
    "bifurcation_scan",
    "SPEED_TOL",
    "SEGMENT_DIST_TOL",
    "CLOSURE_TOL",
    "DEFAULT_HORIZON",
]

SPEED_TOL = 1e-8
SEGMENT_DIST_TOL = 1e-4
CLOSURE_TOL = 1e-6
DEFAULT_HORIZON = 1e4
R_TUBE = 1e-3
BOUNDARY_SAMPLING_MARGIN = 1e-3
EQUILIBRIUM_TOL = 1e-6
FACE_INSET = 1e-6

FACES = ("X", "Y", "Z", "Sigma")


class OnEquilibrium(ValueError):
    """Start point sits on (or too close to) the interior equilibrium segment."""


class DegenerateLeaf(ValueError):
    """Requested leaf is tangent to the singular edge (critical abscissa)."""


class LevelOutOfRange(ValueError):
    """Leaf level outside (0, C*]."""


def default_section(k: ParamVector) -> SectionSpec:
    """The return-map plane k4*x - k3*z = 0.

    It contains the interior equilibrium segment whenever that exists, so
    returns are transversal in the oscillatory regime.
    """
    return SectionSpec(normal=(k.k4, 0.0, -k.k3), offset=0.0, direction="both")


def sample_interior(k: ParamVector, n: int, rng: SplitMix64,
                    r_tube: float = R_TUBE,
                    margin: float = BOUNDARY_SAMPLING_MARGIN) -> list:
    """Rejection-sample n interior points, uniform on the simplex.

    Excludes a margin along the boundary and, when the interior equilibrium
    segment exists, a tube around it (detector preconditions).
    """
    segment = interior_segment_R(k)
    points = []
    while len(points) < n:
        x, y, z = rng.uniform(), rng.uniform(), rng.uniform()
        if x + y + z > 1.0:
            continue
        if boundary_margin((x, y, z)) <= margin:
            continue
        if segment is not None and segment.distance_to((x, y, z)) <= r_tube:
            continue
        points.append(SimplexPoint(x, y, z))
    return points


@dataclass(frozen=True)
class LimitSetReport:
    """Classification of an omega- or alpha-limit probe.

    kind is one of periodic, point-on-s_py, point-on-s_xz, point-on-R_py,
    point-on-R_xz, boundary-unclassified, inconclusive.  distance is to the
    named segment for the point kinds; closure_error/period accompany the
    periodic kind; inconclusive signals horizon exhaustion.
    """

    kind: str
    direction: str
    witness: tuple
    horizon_used: float
    distance: float | None = None
    terminal_speed: float | None = None
    closure_error: float | None = None
    period: float | None = None


def _classify_point(k, y, speed, label, tau, seg_tol) -> LimitSetReport:
    regime = classify(k)
    candidates = []
    if regime.in_ps:
        s_py, s_xz = limit_segments(k)
        candidates.extend([("point-on-s_py", s_py), ("point-on-s_xz", s_xz)])
    candidates.extend([("point-on-R_py", edge_py()), ("point-on-R_xz", edge_xz())])
    for kind, segment in candidates:
        d = segment.distance_to(y)
        if d <= seg_tol:
            return LimitSetReport(kind=kind, direction=label, witness=y, distance=d,
                                  terminal_speed=speed, horizon_used=tau)
    return LimitSetReport(kind="boundary-unclassified", direction=label, witness=y,
                          terminal_speed=speed, horizon_used=tau)


def _probe(fun, y0, section, horizon, tol_rel, tol_abs, closure_tol, return_budget):
    """Step the orbit of fun from y0 until it stops: the loop of every probe.

    Returns (reason, stepper, return map or None, closure or None); reason
    is periodic, speed-collapse, horizon, return-budget (with return_budget:
    ten first-return estimates passed), step-budget, step-underflow or
    simplex-violation.
    """
    stepper = DormandPrince45(fun, y0, horizon, tol_rel, tol_abs)
    returns = None if section is None else _ReturnMap(section, fun, stepper.y)
    budget = horizon
    while not stepper.finished:
        if stepper.t > budget:
            return "return-budget", stepper, returns, None
        if stepper.n_accepted >= MAX_ACCEPTED_STEPS:
            return "step-budget", stepper, returns, None
        try:
            stepper.step()
        except StepSizeUnderflow:
            return "step-underflow", stepper, returns, None
        y = stepper.y
        if _violation3(y) > VIOLATION_LIMIT:
            return "simplex-violation", stepper, returns, None
        if stepper.speed <= SPEED_TOL:
            return "speed-collapse", stepper, returns, None
        if returns is not None and returns.advance(stepper, y):
            hits = returns.hits
            if return_budget and len(hits) == 2:
                budget = min(budget, hits[0][0] + 10.0 * (hits[1][0] - hits[0][0]))
            closed = returns.closure(closure_tol)
            if closed is not None:
                return "periodic", stepper, returns, closed
    return "horizon", stepper, returns, None


def _probe_or_raise(*args):
    """_probe, raising SimplexViolation where it stops on one, as integrate does."""
    reason, stepper, returns, closed = _probe(*args)
    if reason == "simplex-violation":
        raise SimplexViolation(f"simplex violation {_violation3(stepper.y):.3e} beyond "
                               f"{VIOLATION_LIMIT} at t={stepper.t:.6g}")
    return reason, stepper, returns, closed


def _limit_probe(k, p0, horizon, forward, tol_rel, tol_abs, seg_tol) -> LimitSetReport:
    label = "omega" if forward else "alpha"
    start = SimplexPoint(*_coords(p0))
    fun = _field3(k) if forward else _negated(_field3(k))
    try:
        section = default_section(k)
    except ValueError:
        section = None
    reason, stepper, _, closed = _probe_or_raise(fun, start.coords, section, horizon, tol_rel,
                                                 tol_abs, CLOSURE_TOL, False)
    if reason == "speed-collapse":
        return _classify_point(k, stepper.y, stepper.speed, label, stepper.t, seg_tol)
    if reason == "periodic":
        period, closure_error, witness = closed
        return LimitSetReport(kind="periodic", direction=label, witness=witness,
                              closure_error=closure_error, period=period,
                              terminal_speed=stepper.speed, horizon_used=stepper.t)
    return LimitSetReport(kind="inconclusive", direction=label, witness=stepper.y,
                          terminal_speed=stepper.speed, horizon_used=stepper.t)


def omega_limit(k: ParamVector, p0, horizon: float = DEFAULT_HORIZON,
                tol_rel: float = DEFAULT_TOL_REL, tol_abs: float = DEFAULT_TOL_ABS,
                seg_tol: float = SEGMENT_DIST_TOL) -> LimitSetReport:
    """Classify the forward limit set of the orbit through p0.

    Integrates until the flow speed drops to SPEED_TOL (then classifies the
    terminal state against s_py, s_xz and the singular edges), or until a
    return map certifies a periodic orbit, or until the horizon runs out
    (inconclusive).  Raises SimplexViolation if the orbit leaves the simplex.
    """
    return _limit_probe(k, p0, horizon, True, tol_rel, tol_abs, seg_tol)


def alpha_limit(k: ParamVector, p0, horizon: float = DEFAULT_HORIZON,
                tol_rel: float = DEFAULT_TOL_REL, tol_abs: float = DEFAULT_TOL_ABS,
                seg_tol: float = SEGMENT_DIST_TOL) -> LimitSetReport:
    """Backward-time counterpart of omega_limit (field negated, one code path)."""
    return _limit_probe(k, p0, horizon, False, tol_rel, tol_abs, seg_tol)


@dataclass(frozen=True)
class PeriodicOrbit:
    period: float
    closure_error: float
    crossings: tuple


def detect_periodic(k: ParamVector, p0, tol_rel: float = DEFAULT_TOL_REL,
                    tol_abs: float = DEFAULT_TOL_ABS, horizon: float = DEFAULT_HORIZON,
                    closure_tol: float = CLOSURE_TOL,
                    section: SectionSpec | None = None) -> PeriodicOrbit | None:
    """Detect a periodic orbit through the interior point p0.

    Uses the default return-map section unless one is given.  Crossings are
    kept in the section's direction (physical time); for 'both', the
    default, the direction is locked by the first crossing.  Periodicity
    requires two consecutive same-direction returns within closure_tol of
    each other and of their predecessor.
    Returns None when the flow speed collapses (orbit heads to an
    equilibrium), or when ten first-return estimates or the absolute horizon
    pass without confirmation.  Raises SimplexViolation like omega_limit.
    """
    start = SimplexPoint(*_coords(p0))
    if start.interior_margin <= 0.0:
        raise ValueError("p0 must be strictly interior")
    segment_R = interior_segment_R(k)
    if segment_R is not None and segment_R.distance_to(start) <= EQUILIBRIUM_TOL:
        raise OnEquilibrium("p0 is within 1e-6 of the interior equilibrium segment")
    if section is None:
        try:
            section = default_section(k)
        except ValueError:
            return None
    reason, _, returns, closed = _probe_or_raise(_field3(k), start.coords, section, horizon,
                                                 tol_rel, tol_abs, closure_tol, True)
    if reason != "periodic":
        return None
    period, closure_error, _ = closed
    return PeriodicOrbit(period=period, closure_error=closure_error,
                         crossings=tuple(returns.hits))


def certified_integral_names(k: ParamVector) -> tuple:
    """Names of certified product integrals for k, preferring the (H, V) pair."""
    status = certify_named_integrals(k)
    return tuple(n for n in ("H", "V", "Htilde", "Vtilde") if status[n].certified)[:2]


def orbit_integral_drift(k: ParamVector, p0, duration: float, names=None,
                         tol_rel: float = 1e-12, tol_abs: float = 1e-14) -> dict:
    """Peak log-form drift of the certified integrals along one orbit stretch."""
    if names is None:
        names = certified_integral_names(k)
    traj = integrate(k, p0, duration, tol_rel, tol_abs, monitor=list(names), keep_dense=False)
    return {name: traj.drift_range(name) for name in names}


# ---------------------------------------------------------------------------
# Boundary faces: foliations, leaves and heteroclinic matching


def _face_params(face: str, k: ParamVector) -> tuple:
    if face == "Y":
        return k.k4, k.k3
    if face == "X":
        return k.k2, k.k3
    if face == "Z":
        return -k.k1, -k.k4
    if face == "Sigma":
        return k.k1, k.k2
    raise ValueError(f"unknown face {face!r}; pick one of {FACES}")


def _edge_point(face: str, u: float) -> SimplexPoint:
    if face in ("Y", "Sigma"):
        return SimplexPoint(u, 0.0, 1.0 - u)
    return SimplexPoint(0.0, u, 0.0)


def _leaf_gap(u: float, gamma: float, level: float) -> float:
    # (1-u) * u**gamma - level, the edge-intersection equation of a leaf
    return (1.0 - u) * u**gamma - level


def _bisect_leaf_root(gamma: float, level: float, lo: float, hi: float) -> float:
    g_lo = _leaf_gap(lo, gamma, level)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = _leaf_gap(mid, gamma, level)
        if g_mid == 0.0:
            return mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FaceLeaf:
    """One leaf of the invariant foliation of a boundary face.

    The leaf meets the face's singular edge in two points for levels below
    the critical one and in a single tangent point at the critical level.
    curve(u) gives the second face coordinate; point(u) the simplex state.
    """

    face: str
    level: float
    critical_level: float
    alpha: float
    beta: float
    intersections: tuple

    @property
    def gamma(self) -> float:
        return self.beta / self.alpha

    def curve(self, u: float) -> float:
        w = self.level * u ** (-self.gamma)
        return w if self.face == "Y" else 1.0 - u - w

    def point(self, u: float) -> SimplexPoint:
        v = self.curve(u)
        if self.face == "Y":
            return SimplexPoint(u, 0.0, v)
        if self.face == "X":
            return SimplexPoint(0.0, u, v)
        if self.face == "Z":
            return SimplexPoint(v, u, 0.0)
        return SimplexPoint(u, v, 1.0 - u - v)


def face_leaf(face: str, k: ParamVector, level: float) -> FaceLeaf:
    """Construct the leaf of the face foliation at the given level.

    Raises SignError when the face's exponent pair has mixed signs and
    LevelOutOfRange outside (0, C*].  Edge intersections are located by
    bisection driven to machine width.
    """
    alpha, beta = _face_params(face, k)
    critical = c_star(alpha, beta)
    level = float(level)
    if not 0.0 < level <= critical:
        raise LevelOutOfRange(f"level {level} outside (0, {critical}]")
    gamma = beta / alpha
    u_star = beta / (alpha + beta)
    if level == critical:
        roots = (u_star,)
    else:
        roots = (
            _bisect_leaf_root(gamma, level, 1e-300, u_star),
            _bisect_leaf_root(gamma, level, u_star, 1.0),
        )
    return FaceLeaf(
        face=face,
        level=level,
        critical_level=critical,
        alpha=alpha,
        beta=beta,
        intersections=tuple(_edge_point(face, u) for u in roots),
    )


def face_field(face: str, k: ParamVector):
    """Planar restriction of the flow to an invariant boundary face.

    Face coordinates match the foliation charts: (x, z) on Y, (y, z) on X,
    (y, x) on Z and (x, y) on the sum face.
    """
    if face == "Y":
        def fun(p):
            x, z = p
            w = (1.0 - x) - z
            return (-k.k4 * x * w, k.k3 * z * w)
    elif face == "X":
        def fun(p):
            y, z = p
            w = (1.0 - y) - z
            return (k.k2 * y * z, z * (k.k3 * w - k.k2 * y))
    elif face == "Z":
        def fun(p):
            y, x = p
            w = (1.0 - x) - y
            return (-k.k1 * x * y, x * (k.k1 * y - k.k4 * w))
    elif face == "Sigma":
        def fun(p):
            x, y = p
            return (k.k1 * x * y, y * (k.k2 * ((1.0 - x) - y) - k.k1 * x))
    else:
        raise ValueError(f"unknown face {face!r}")
    return fun


def face_connection_abscissae(k: ParamVector, face: str, x0: float) -> tuple:
    """Edge abscissae reached by the face orbit through the edge point x0.

    Starts FACE_INSET inside the face next to (x0 on the singular edge) and
    integrates the planar restriction both ways until the motion stalls at
    the edge; returns the two terminal abscissae (backward, forward).
    One of them reproduces x0, the other is the matching connection end.
    """
    if face == "Y":
        start = ((1.0 - FACE_INSET) * x0, (1.0 - FACE_INSET) * (1.0 - x0))
    elif face == "Sigma":
        start = (x0, FACE_INSET)
    else:
        raise ValueError("connection abscissae are defined on faces Y and Sigma")
    fun = face_field(face, k)
    out = []
    for direction in (_negated(fun), fun):
        stepper = DormandPrince45(direction, start, DEFAULT_HORIZON)
        while not stepper.finished and stepper.speed > SPEED_TOL:
            stepper.step()
        out.append(stepper.y[0])
    return tuple(out)


@dataclass(frozen=True)
class HeteroclinicMatch:
    x0: float
    x1: float
    x2: float
    matched: bool
    level_y: float
    level_sigma: float


def heteroclinic_match(k: ParamVector, x0: float, match_tol: float = 1e-9) -> HeteroclinicMatch:
    """Compare the two face connections leaving the edge point (x0, 0, 1-x0).

    The leaf through the point on the y=0 face ends at abscissa x1, the leaf
    through the same point on the sum face at x2.  The two agree exactly
    when the discriminant vanishes (the two leaf families coincide), which
    is when the boundary heteroclinic connections close into loops.
    """
    if not classify(k).in_ps:
        raise NotInPS("heteroclinic matching requires same-sign parameters")
    x0 = float(x0)
    if not 0.0 < x0 < 1.0:
        raise OutOfRange(f"x0={x0} outside (0, 1)")
    crit_y = k.k3 / (k.k3 + k.k4)
    crit_sigma = k.k2 / (k.k1 + k.k2)
    if min(abs(x0 - crit_y), abs(x0 - crit_sigma)) <= 1e-12:
        raise DegenerateLeaf(f"x0={x0} is a critical-leaf abscissa")
    gamma_y = k.k3 / k.k4
    gamma_sigma = k.k2 / k.k1
    level_y = (1.0 - x0) * x0**gamma_y
    level_sigma = (1.0 - x0) * x0**gamma_sigma
    x1 = _other_leaf_root(gamma_y, level_y, x0, crit_y)
    x2 = _other_leaf_root(gamma_sigma, level_sigma, x0, crit_sigma)
    return HeteroclinicMatch(
        x0=x0, x1=x1, x2=x2, matched=abs(x1 - x2) <= match_tol,
        level_y=level_y, level_sigma=level_sigma,
    )


def _other_leaf_root(gamma: float, level: float, x0: float, crit: float) -> float:
    if x0 < crit:
        return _bisect_leaf_root(gamma, level, crit, 1.0)
    return _bisect_leaf_root(gamma, level, 1e-300, crit)


def complement_edge_distance(k: ParamVector, point, which: str) -> float:
    """Distance from point to the singular edge minus its distinguished segment."""
    p_py, q_py, p_xz, q_xz = limit_endpoints(k)
    parts = []
    if which == "py":
        lo, hi = sorted((p_py.x, q_py.x))
        if lo > 0.0:
            parts.append(Segment(SimplexPoint(0.0, 0.0, 1.0), SimplexPoint(lo, 0.0, 1.0 - lo), "py-low"))
        if hi < 1.0:
            parts.append(Segment(SimplexPoint(hi, 0.0, 1.0 - hi), SimplexPoint(1.0, 0.0, 0.0), "py-high"))
    elif which == "xz":
        lo, hi = sorted((p_xz.y, q_xz.y))
        if lo > 0.0:
            parts.append(Segment(SimplexPoint(0.0, 0.0, 0.0), SimplexPoint(0.0, lo, 0.0), "xz-low"))
        if hi < 1.0:
            parts.append(Segment(SimplexPoint(0.0, hi, 0.0), SimplexPoint(0.0, 1.0, 0.0), "xz-high"))
    else:
        raise ValueError("which must be 'py' or 'xz'")
    if not parts:
        return math.inf
    return min(part.distance_to(point) for part in parts)


# ---------------------------------------------------------------------------
# Verification harnesses


def _face_match_points(k: ParamVector) -> list:
    crit_y = k.k3 / (k.k3 + k.k4)
    crit_sigma = k.k2 / (k.k1 + k.k2)
    m = min(crit_y, crit_sigma)
    return [0.35 * m, 0.6 * m, 0.85 * m]


def verify_theorem_a(k: ParamVector, n_samples: int, seed: int = 42,
                     tol_rel: float = DEFAULT_TOL_REL, tol_abs: float = DEFAULT_TOL_ABS,
                     horizon: float = DEFAULT_HORIZON, drift_tol: float = 1e-8,
                     closure_tol: float = CLOSURE_TOL) -> dict:
    """Verify the global picture for k: periodic interior orbits plus closed
    boundary loops on the center regime, boundary-bound non-periodic limit
    sets everywhere else.

    On the center regime hypothesis (part a) every interior sample must
    yield a periodic orbit with bounded closure error and first-integral
    drift, the interior segment must be singular to 1e-12, and the boundary
    connections must match.  Otherwise part b is checked instead and the
    report notes the hypothesis mismatch for part a.
    """
    regime = classify(k)
    rng = SplitMix64(seed)
    report = {
        "theorem": "A",
        "k": list(k),
        "regime": regime.label(),
        "n_samples": n_samples,
        "seed": seed,
    }
    if regime.oscillatory:
        report["part"] = "a"
        report["hypothesis_mismatch"] = False
        segment = interior_segment_R(k)
        residual = max(
            max(abs(c) for c in vector_field(k, p)) for p in segment.sample(100)
        )
        report["segment_residual_max"] = residual
        starts = sample_interior(k, n_samples, rng)
        names = certified_integral_names(k)

        def job(p):
            orbit = detect_periodic(k, p, tol_rel, tol_abs, horizon, closure_tol)
            if orbit is None:
                return {"status": "inconclusive"}
            drift = orbit_integral_drift(k, p, orbit.period, names)
            return {
                "status": "periodic",
                "period": orbit.period,
                "closure_error": orbit.closure_error,
                "drift": max(drift.values()) if drift else 0.0,
            }

        results = [job(p) for p in starts]
        periodic_results = [r for r in results if r["status"] == "periodic"]
        report["n_periodic"] = len(periodic_results)
        report["n_inconclusive"] = n_samples - len(periodic_results)
        report["worst_closure_error"] = max((r["closure_error"] for r in periodic_results), default=0.0)
        report["worst_drift"] = max((r["drift"] for r in periodic_results), default=0.0)
        matches = [heteroclinic_match(k, x0).matched for x0 in _face_match_points(k)]
        report["face_matches"] = matches
        report["failed"] = (
            report["worst_closure_error"] > closure_tol
            or report["worst_drift"] > drift_tol
            or residual > 1e-12
            or not all(matches)
        )
        report["passed"] = (
            not report["failed"]
            and report["n_periodic"] == n_samples
        )
        return report
    report["part"] = "b"
    report["hypothesis_mismatch"] = True  # for part (a); part (b) applies instead
    starts = sample_interior(k, n_samples, rng)

    def job(p):
        entry = {}
        for label, probe in (("omega", omega_limit), ("alpha", alpha_limit)):
            rep = probe(k, p, horizon, tol_rel, tol_abs)
            entry[label] = {
                "kind": rep.kind,
                "boundary_margin": boundary_margin(rep.witness) if rep.kind not in ("inconclusive",) else None,
            }
        return entry

    results = [job(p) for p in starts]
    n_periodic = sum(
        1 for r in results for side in ("omega", "alpha") if r[side]["kind"] == "periodic"
    )
    n_inconclusive = sum(
        1 for r in results for side in ("omega", "alpha") if r[side]["kind"] == "inconclusive"
    )
    margins = [
        r[side]["boundary_margin"]
        for r in results
        for side in ("omega", "alpha")
        if r[side]["boundary_margin"] is not None
    ]
    report["n_periodic"] = n_periodic
    report["n_inconclusive"] = n_inconclusive
    report["worst_boundary_margin"] = max((abs(m) for m in margins), default=0.0)
    faces_ok = True
    if regime.in_ps:
        # same-sign parameters off the manifold: boundary connections must
        # NOT close into loops
        matches = [heteroclinic_match(k, x0).matched for x0 in _face_match_points(k)]
        report["face_matches"] = matches
        faces_ok = not any(matches)
    report["failed"] = (
        n_periodic > 0
        or report["worst_boundary_margin"] > SEGMENT_DIST_TOL
        or not faces_ok
    )
    report["passed"] = not report["failed"] and bool(margins)
    return report


def _expected_limit_segments(regime) -> tuple:
    """(alpha segment, omega segment) labels predicted off the manifold."""
    if (regime.ps == PS_PLUS and regime.s_sign == S_PLUS) or (
        regime.ps == PS_MINUS and regime.s_sign == S_MINUS
    ):
        return "s_xz", "s_py"
    return "s_py", "s_xz"


def verify_theorem_b(k: ParamVector, n_samples: int, seed: int = 42,
                     tol_rel: float = DEFAULT_TOL_REL, tol_abs: float = DEFAULT_TOL_ABS,
                     horizon: float = DEFAULT_HORIZON,
                     seg_tol: float = SEGMENT_DIST_TOL) -> dict:
    """Verify the off-manifold picture: every interior orbit runs from one
    distinguished boundary segment to the other, in the orientation set by
    the regime, and boundary connections do not close into loops.
    """
    regime = classify(k)
    report = {
        "theorem": "B",
        "k": list(k),
        "regime": regime.label(),
        "n_samples": n_samples,
        "seed": seed,
    }
    if not (regime.in_ps and regime.s_sign != S_ZERO):
        report["status"] = "hypothesis-mismatch"
        report["failed"] = True
        report["passed"] = False
        return report
    report["status"] = "checked"
    expected_alpha, expected_omega = _expected_limit_segments(regime)
    report["expected"] = {"alpha": expected_alpha, "omega": expected_omega}
    rng = SplitMix64(seed)
    starts = sample_interior(k, n_samples, rng)

    results = [
        (omega_limit(k, p, horizon, tol_rel, tol_abs, seg_tol=seg_tol),
         alpha_limit(k, p, horizon, tol_rel, tol_abs, seg_tol=seg_tol))
        for p in starts
    ]
    n_inconclusive = 0
    n_pass = 0
    n_fail = 0
    worst_distance = 0.0
    min_complement = math.inf
    for om, al in results:
        if om.kind == "inconclusive" or al.kind == "inconclusive":
            n_inconclusive += 1
            continue
        ok = (
            om.kind == f"point-on-{expected_omega}"
            and al.kind == f"point-on-{expected_alpha}"
        )
        if ok:
            n_pass += 1
            worst_distance = max(worst_distance, om.distance, al.distance)
            for rep in (om, al):
                which = "py" if rep.kind.endswith("s_py") else "xz"
                min_complement = min(
                    min_complement, complement_edge_distance(k, rep.witness, which)
                )
        else:
            n_fail += 1
    matches = [heteroclinic_match(k, x0).matched for x0 in _face_match_points(k)]
    failed = n_fail > 0 or any(matches)
    report.update(
        n_pass=n_pass,
        n_fail=n_fail,
        n_inconclusive=n_inconclusive,
        worst_segment_distance=worst_distance,
        min_complement_distance=min_complement,
        face_matches=matches,
        failed=failed,
        passed=(not failed and n_pass > 0),
    )
    return report


def make_ray(base, direction, offsets) -> list:
    """Points base + eps*direction for each offset eps, validated in T."""
    bx, by, bz = _coords(base)
    dx, dy, dz = (float(c) for c in direction)
    return [SimplexPoint(bx + e * dx, by + e * dy, bz + e * dz) for e in offsets]


def period_profile(k: ParamVector, points, tol_rel: float = DEFAULT_TOL_REL,
                   tol_abs: float = DEFAULT_TOL_ABS, horizon: float = DEFAULT_HORIZON) -> dict:
    """Periods along a family of starts marching toward the boundary.

    Rows keep the input order (expected: from near the interior segment
    outward).  The verdict reports whether the period grows strictly
    monotonically along the family.
    """
    rows = []
    for p in points:
        orbit = detect_periodic(k, p, tol_rel, tol_abs, horizon)
        rows.append(
            {
                "point": list(_coords(p)),
                "distance_to_boundary": boundary_margin(_coords(p)),
                "period": None if orbit is None else orbit.period,
                "closure_error": None if orbit is None else orbit.closure_error,
            }
        )
    periods = [r["period"] for r in rows]
    conclusive = [p for p in periods if p is not None]
    strictly_increasing = len(conclusive) == len(periods) and all(
        b > a for a, b in zip(conclusive, conclusive[1:])
    )
    return {
        "k": list(k),
        "rows": rows,
        "strictly_increasing": strictly_increasing,
        "n_conclusive": len(conclusive),
    }


def bifurcation_scan(samples, probe_start=(0.2, 0.2, 0.2), horizon: float = DEFAULT_HORIZON,
                     tol_rel: float = DEFAULT_TOL_REL, tol_abs: float = DEFAULT_TOL_ABS) -> list:
    """Regime plus cheap limit-set probe over a parameter slice.

    samples is an iterable of (vars, k) pairs; vars is a dict of slice
    coordinates carried through to the output row.  Each row records the
    regime classification and the outcome of a single omega probe from
    probe_start, enough to reproduce the bifurcation partition as data.
    """
    rows = []
    for vars_, k in samples:
        row = dict(vars_)
        row["k"] = list(k)
        try:
            regime = classify(k)
        except ZeroParameter:
            row.update(regime="zero", discriminant=0.0, probe_kind=None)
            rows.append(row)
            continue
        row["regime"] = regime.label()
        row["discriminant"] = discriminant(k)
        probe = omega_limit(k, probe_start, horizon, tol_rel, tol_abs)
        row["probe_kind"] = probe.kind
        row["probe_witness"] = list(probe.witness)
        rows.append(row)
    return rows
