"""Limit-set classification, periodic-orbit detection, heteroclinic
matching and the automated verification harnesses.

Numerical policy: "converged to a segment" means terminal speed at or below
1e-8 AND point-to-segment distance at or below 1e-4.  Two thresholds because
the approach along the slow center direction is algebraically slow, so a
distance test alone would accept premature stops.  Off s_py and s_xz, a
limit probe does not stop next to a singular-edge point that it can still
leave along a repelling transverse direction: the flow also slows down while
it passes a saddle-type edge point.  Periodicity requires two consecutive
return agreements, not one, to reject near-periodic spiral transients.
Inconclusive is a first-class outcome, never silently coerced.

The harnesses (verify_theorem_a, verify_theorem_b, period_profile,
bifurcation_scan) and the portrait command run starts whose orbits share
nothing, so one job map (_map_starts) splits them across the CPUs this
process may use.  It takes no option: the output is the same, byte for
byte, on one CPU or many.
"""

from __future__ import annotations

import math
import os
import threading
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
    _coords,
    _field3,
    boundary_margin,
    edge_eigenvalues,
    edge_py,
    edge_xz,
    interior_segment_R,
    limit_endpoints,
    limit_segments,
    vector_field,
)
from .darboux import certify_named_integrals, log_integral_series, named_integral_specs
from .flow import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    DormandPrince45,
    SectionSpec,
    _DOP853,
    _DP5,
    _ReturnMap,
    _drive,
    _steps,
)
from .rng import SplitMix64

__all__ = [
    "LimitSetReport",
    "PeriodicOrbit",
    "HeteroclinicMatch",
    "OnEquilibrium",
    "DegenerateLeaf",
    "default_section",
    "sample_interior",
    "boundary_margin",
    "omega_limit",
    "alpha_limit",
    "detect_periodic",
    "orbit_integral_drift",
    "certified_integral_names",
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
MATCH_TOL = 1e-9
MATCH_REL_TOL = 1e-5
DRIFT_TOL = 1e-8

class OnEquilibrium(ValueError):
    """Start point sits on (or too close to) the interior equilibrium segment."""


class DegenerateLeaf(ValueError):
    """Requested leaf is tangent to the singular edge (critical abscissa)."""


def default_section(k: ParamVector) -> SectionSpec:
    """The return-map plane k4*x - k3*z = 0.

    It contains the interior equilibrium segment whenever that exists, so
    returns are transversal in the oscillatory regime.
    """
    return SectionSpec(normal=(k.k4, 0.0, -k.k3), offset=0.0)


def sample_interior(k: ParamVector, n: int, rng: SplitMix64) -> list:
    """Rejection-sample n interior points, uniform on the simplex.

    Excludes a BOUNDARY_SAMPLING_MARGIN along the boundary and, when the
    interior equilibrium segment exists, a tube of radius R_TUBE around it
    (detector preconditions).
    """
    segment = interior_segment_R(k)
    points = []
    while len(points) < n:
        x, y, z = rng.uniform(), rng.uniform(), rng.uniform()
        if x + y + z > 1.0:
            continue
        if boundary_margin((x, y, z)) <= BOUNDARY_SAMPLING_MARGIN:
            continue
        if segment is not None and segment.distance_to((x, y, z)) <= R_TUBE:
            continue
        points.append(SimplexPoint(x, y, z))
    return points


@dataclass(frozen=True)
class LimitSetReport:
    """Classification of an omega- or alpha-limit probe.

    kind is one of periodic, point-on-s_py, point-on-s_xz, point-on-R_py,
    point-on-R_xz, boundary-unclassified, inconclusive.  distance is to the
    named segment for the point kinds; closure_error/period accompany the
    periodic kind.  inconclusive means the probe stopped without a verdict:
    the horizon ran out (horizon) or the probe took MAX_ACCEPTED_STEPS steps
    (step-budget).
    """

    kind: str
    direction: str
    witness: tuple
    horizon_used: float
    distance: float | None = None
    terminal_speed: float | None = None
    closure_error: float | None = None
    period: float | None = None


def _point_kind(k, y) -> tuple:
    """(kind, distance) of a state where the flow stopped: the first of s_py,
    s_xz (same-sign k only), R_py and R_xz within SEGMENT_DIST_TOL, else
    (boundary-unclassified, None)."""
    candidates = []
    if classify(k).in_ps:
        candidates.extend(zip(("point-on-s_py", "point-on-s_xz"), limit_segments(k)))
    candidates.extend([("point-on-R_py", edge_py()), ("point-on-R_xz", edge_xz())])
    for kind, segment in candidates:
        d = segment.distance_to(y)
        if d <= SEGMENT_DIST_TOL:
            return kind, d
    return "boundary-unclassified", None


def _probe(k, y0, section, horizon, tol_rel, tol_abs, return_budget, settled=None):
    """Step the orbit of k from y0 until it stops: the loop of every probe.

    Returns (reason, stepper, return map or None, closure or None); reason
    is periodic (two returns within CLOSURE_TOL), speed-collapse (where
    settled, if given, accepts the state), return-budget (with
    return_budget: ten first-return estimates passed), horizon or
    step-budget.  It steps through flow's _steps, so a state off the
    simplex raises SimplexViolation and a step below its floor
    StepSizeUnderflow, as in integrate.  The pair depends on k alone:
    8(5,3) on the center regime, 5(4) off it (see omega_limit).
    """
    fun = _field3(k)
    pair = _DOP853 if classify(k).oscillatory else _DP5
    stepper = DormandPrince45(fun, y0, horizon, tol_rel, tol_abs, _pair=pair)
    returns = None if section is None else _ReturnMap(section, fun, stepper.y)
    budget = horizon
    for _ in _steps(stepper):
        y = stepper.y
        if stepper.speed <= SPEED_TOL and (settled is None or settled(y)):
            return "speed-collapse", stepper, returns, None
        if returns is not None and returns.advance(stepper, y):
            hits = returns.hits
            if return_budget and len(hits) == 2:
                budget = min(budget, hits[0][0] + 10.0 * (hits[1][0] - hits[0][0]))
            closed = returns.closure(CLOSURE_TOL)
            if closed is not None:
                return "periodic", stepper, returns, closed
        if stepper.t > budget:
            return "return-budget", stepper, returns, None
    return "horizon" if stepper.finished else "step-budget", stepper, returns, None


def _settled_test(k):
    """Stop test of a limit probe whose speed collapsed at y.  Next to a
    point of R_py or R_xz off s_py and s_xz the orbit may only slow down
    while it slides past, so the probe goes on while a transverse direction
    repels and the state still lies off the face it leaves by: x or z on
    R_xz; y or w = 1-x-y-z on R_py, where w sinks to rounding level next to
    the face x+y+z = 1."""

    def settled(y):
        kind, _ = _point_kind(k, y)
        if not kind.startswith("point-on-R_"):
            return True
        x, yy, z = y
        if kind == "point-on-R_py":
            pairs = zip(edge_eigenvalues(k, "R_py", x), (((1.0 - x) - yy) - z, yy))
        else:
            pairs = zip(edge_eigenvalues(k, "R_xz", yy), (x, z))
        return not any(lam > 0.0 and c > 0.0 for lam, c in pairs)

    return settled


def _limit_probe(k, p0, horizon, label, tol_rel, tol_abs) -> LimitSetReport:
    start = SimplexPoint(*_coords(p0))
    try:
        section = default_section(k)
    except ValueError:
        section = None
    reason, stepper, _, closed = _probe(k, start.coords, section, horizon, tol_rel, tol_abs,
                                        False, _settled_test(k))
    if reason == "speed-collapse":
        kind, distance = _point_kind(k, stepper.y)
        return LimitSetReport(kind=kind, direction=label, witness=stepper.y, distance=distance,
                              terminal_speed=stepper.speed, horizon_used=stepper.t)
    if reason == "periodic":
        period, closure_error, witness = closed
        return LimitSetReport(kind="periodic", direction=label, witness=witness,
                              closure_error=closure_error, period=period,
                              terminal_speed=stepper.speed, horizon_used=stepper.t)
    return LimitSetReport(kind="inconclusive", direction=label, witness=stepper.y,
                          terminal_speed=stepper.speed, horizon_used=stepper.t)


def omega_limit(k: ParamVector, p0, horizon: float = DEFAULT_HORIZON,
                tol_rel: float = DEFAULT_TOL_REL,
                tol_abs: float = DEFAULT_TOL_ABS) -> LimitSetReport:
    """Classify the forward limit set of the orbit through p0.

    Integrates until the flow speed drops to SPEED_TOL (then classifies the
    terminal state against s_py, s_xz and the singular edges within
    SEGMENT_DIST_TOL), or until a return map certifies a periodic orbit.
    It reports inconclusive when the horizon runs out (horizon) or after
    MAX_ACCEPTED_STEPS steps (step-budget).  Next to a singular-edge point
    off s_py and s_xz it keeps stepping while the orbit can still leave
    along a repelling transverse direction.  Raises SimplexViolation if the
    orbit leaves the simplex and StepSizeUnderflow if the step falls below
    its floor.  On the center regime it steps with the 8(5,3) pair; off it
    with 5(4), which reads more of those stops right (see lv3.flow).
    """
    return _limit_probe(k, p0, horizon, "omega", tol_rel, tol_abs)


def alpha_limit(k: ParamVector, p0, horizon: float = DEFAULT_HORIZON,
                tol_rel: float = DEFAULT_TOL_REL,
                tol_abs: float = DEFAULT_TOL_ABS) -> LimitSetReport:
    """Backward-time counterpart of omega_limit: the forward probe of the
    flow of -k (the field is odd in k), reported as the alpha limit."""
    return _limit_probe(-k, p0, horizon, "alpha", tol_rel, tol_abs)


@dataclass(frozen=True)
class PeriodicOrbit:
    period: float
    closure_error: float
    crossings: tuple


def detect_periodic(k: ParamVector, p0, tol_rel: float = DEFAULT_TOL_REL,
                    tol_abs: float = DEFAULT_TOL_ABS,
                    horizon: float = DEFAULT_HORIZON) -> PeriodicOrbit | None:
    """Detect a periodic orbit through the interior point p0.

    The return map runs on default_section(k), the plane k4*x = k3*z that
    holds the interior equilibrium segment.  The first transversal crossing
    locks the crossing direction (physical time), and periodicity requires
    two consecutive same-direction returns within CLOSURE_TOL of each other
    and of their predecessor.
    Returns None when k has no default section, when the flow speed
    collapses (orbit heads to an equilibrium), when ten first-return
    estimates (return-budget) or the absolute horizon pass without
    confirmation, or after MAX_ACCEPTED_STEPS steps (step-budget).
    Raises SimplexViolation and StepSizeUnderflow like omega_limit, whose
    choice of pair it shares.
    """
    start = SimplexPoint(*_coords(p0))
    if boundary_margin(start.coords) <= 0.0:
        raise ValueError("p0 must be strictly interior")
    segment_R = interior_segment_R(k)
    if segment_R is not None and segment_R.distance_to(start) <= EQUILIBRIUM_TOL:
        raise OnEquilibrium("p0 is within 1e-6 of the interior equilibrium segment")
    try:
        section = default_section(k)
    except ValueError:
        return None
    reason, _, returns, closed = _probe(k, start.coords, section, horizon, tol_rel, tol_abs,
                                        True)
    if reason != "periodic":
        return None
    period, closure_error, _ = closed
    return PeriodicOrbit(period=period, closure_error=closure_error,
                         crossings=tuple(returns.hits))


def certified_integral_names(k: ParamVector) -> tuple:
    """Names of certified product integrals for k, preferring the (H, V) pair."""
    status = certify_named_integrals(k)
    return tuple(n for n in ("H", "V", "Htilde", "Vtilde") if status[n].certified)[:2]


def _max_or_nan(values) -> float:
    """The largest of values, 0.0 for none and nan if any is nan, where max
    would keep a nan only in first place."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def orbit_integral_drift(k: ParamVector, p0, duration: float, names) -> dict:
    """Peak log-form drift of each integral in names, as certified_integral_names
    gives them, over one orbit stretch at tol_rel 1e-12 (relative control).

    The run takes integrate's argument checks, simplex check and step
    limits, but steps with the eighth-order Dormand-Prince pair: at this
    tolerance it needs about 4x fewer field evaluations than the
    fifth-order one.  The log integrals (darboux.log_integral_series) are
    read at every accepted state, never between them; a drift is nan if
    any of its samples is (a zero surface value).  tol_abs 1e-300 only
    keeps a component of exactly 0.0 from dividing by zero: log H reads
    coordinates to relative precision, and next to a face tol_abs 1e-14
    left a false drift of 1e-8.
    """
    named = named_integral_specs(k)
    specs = [named[name] for name in names]
    states = _drive(_field3(k), p0, duration, 1e-12, 1e-300, _DOP853).states
    return {name: _max_or_nan(abs(v - series[0]) for v in series)
            for name, series in zip(names, log_integral_series(specs, states))}


# ---------------------------------------------------------------------------
# Boundary faces: heteroclinic matching


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
class HeteroclinicMatch:
    x0: float
    x1: float
    x2: float
    matched: bool
    level_y: float
    level_sigma: float


def heteroclinic_match(k: ParamVector, x0: float) -> HeteroclinicMatch:
    """Compare the two face connections leaving the edge point (x0, 0, 1-x0).

    The leaf through the point on the y=0 face ends at abscissa x1, the leaf
    through the same point on the sum face at x2.  The two agree (within
    MATCH_TOL) exactly when the discriminant vanishes (the two leaf families
    coincide), which is when the boundary heteroclinic connections close
    into loops.  Roots that run toward the same vertex must also agree in
    their distances from it, to MATCH_REL_TOL relatively: near an end of
    the edge both lie within MATCH_TOL of the vertex, where x alone no
    longer tells them apart.  Raises DegenerateLeaf where |x0 - crit| <=
    1e-12 * crit for a critical abscissa crit: relative, as it may be tiny.
    """
    if not classify(k).in_ps:
        raise NotInPS("heteroclinic matching requires same-sign parameters")
    x0 = float(x0)
    if not 0.0 < x0 < 1.0:
        raise OutOfRange(f"x0={x0} outside (0, 1)")
    crit_y = k.k3 / (k.k3 + k.k4)
    crit_sigma = k.k2 / (k.k1 + k.k2)
    if any(abs(x0 - crit) <= 1e-12 * crit for crit in (crit_y, crit_sigma)):
        raise DegenerateLeaf(f"x0={x0} is a critical-leaf abscissa")
    gamma_y = k.k3 / k.k4
    gamma_sigma = k.k2 / k.k1
    level_y = (1.0 - x0) * x0**gamma_y
    level_sigma = (1.0 - x0) * x0**gamma_sigma
    x1 = _other_leaf_root(gamma_y, level_y, x0, crit_y)
    x2 = _other_leaf_root(gamma_sigma, level_sigma, x0, crit_sigma)
    matched = abs(x1 - x2) <= MATCH_TOL and (
        (x0 < crit_y) != (x0 < crit_sigma)
        or abs(_log_vertex_distance(gamma_y, x0, crit_y)
               - _log_vertex_distance(gamma_sigma, x0, crit_sigma)) <= MATCH_REL_TOL)
    return HeteroclinicMatch(x0=x0, x1=x1, x2=x2, matched=matched,
                             level_y=level_y, level_sigma=level_sigma)


def _other_leaf_root(gamma: float, level: float, x0: float, crit: float) -> float:
    if x0 < crit:
        return _bisect_leaf_root(gamma, level, crit, 1.0)
    return _bisect_leaf_root(gamma, level, 1e-300, crit)


def _log_vertex_distance(gamma: float, x0: float, crit: float) -> float:
    """log of the distance t from the far root of the leaf through x0 to the
    vertex it runs toward, to relative precision at any t.

    Below the critical abscissa crit = gamma/(1+gamma) the far root is
    1 - t, above it t; either way t solves a*log(t) + b*log(1-t) =
    log(level) on (0, a/(a+b)), with (a, b) = (1, gamma) or (gamma, 1)."""
    a, b = (1.0, gamma) if x0 < crit else (gamma, 1.0)
    log_level = math.log1p(-x0) + gamma * math.log(x0)
    # log(1-t) lies in (log1p(-a/(a+b)), 0) on the interval
    lo = log_level / a
    hi = min(math.log(a / (a + b)), (log_level - b * math.log1p(-a / (a + b))) / a)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if a * mid + b * math.log1p(-math.exp(mid)) < log_level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
# Job map: independent starts on every CPU the process may use


def _map_starts(fn, items) -> list:
    """[fn(x) for x in items], the items split in contiguous chunks over the
    CPUs this process may use.

    The worker count is min(len(items), the CPUs of os.sched_getaffinity,
    or os.cpu_count where that is missing).  The map runs in-process when
    that count is 1, when os.fork is missing, or when a second thread runs,
    since a fork copies the locks other threads hold.  Otherwise this
    process computes the first chunk and a forked child each other one.  A
    child pickles its results, or its first exception, to a pipe and leaves
    by os._exit, so it flushes none of the stdio it inherited.  Every child
    is read and reaped before the map returns or raises, and on an exception
    of the first chunk it is killed first.  Then the map raises the first
    exception in item order, or returns the results in item order, as the
    comprehension would.  A chunk whose child could not start or sent
    nothing readable is computed in-process.
    """
    items = list(items)
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    n = min(len(items), len(cpus))
    if n <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    bounds = [len(items) * i // n for i in range(n + 1)]
    first, *rest = (items[a:b] for a, b in zip(bounds, bounds[1:]))
    workers = []
    try:
        for chunk in rest:
            try:
                workers.append(_Worker(fn, chunk))
            except OSError:
                workers.append(None)
        out = [fn(x) for x in first]
        payloads = [None if w is None else w.payload() for w in workers]
    finally:
        for w in workers:
            if w is not None:
                w.reap(kill=True)
    for chunk, payload in zip(rest, payloads):
        if payload is None:
            out.extend(fn(x) for x in chunk)
        elif payload[0]:
            out.extend(payload[1])
        else:
            raise payload[1]
    return out


class _Worker:
    """A forked child that computes fn over one chunk of _map_starts."""

    def __init__(self, fn, chunk):
        import pickle

        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                try:
                    payload = True, [fn(x) for x in chunk]
                except BaseException as exc:
                    payload = False, exc
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.fd = read

    def payload(self):
        """(True, results) or (False, exception) as the child sent it, or
        None if it sent nothing readable; the child is reaped."""
        import pickle

        parts = []
        while part := os.read(self.fd, 1 << 16):
            parts.append(part)
        self.reap()
        try:
            return pickle.loads(b"".join(parts))
        except Exception:
            return None

    def reap(self, kill=False):
        """Close the pipe and wait for the child (killed first if kill),
        once."""
        pid, self.pid = self.pid, 0
        if pid:
            if kill:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.close(self.fd)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Verification harnesses


def _face_matches(k: ParamVector) -> list:
    """heteroclinic_match verdicts at three abscissae below both critical ones."""
    m = min(k.k3 / (k.k3 + k.k4), k.k2 / (k.k1 + k.k2))
    return [heteroclinic_match(k, f * m).matched for f in (0.35, 0.6, 0.85)]


def _report_head(theorem: str, k: ParamVector, n_samples: int, seed: int) -> tuple:
    """(regime, the report fields every harness run starts with)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    regime = classify(k)
    return regime, {"theorem": theorem, "k": list(k), "regime": regime.label(),
                    "n_samples": n_samples, "seed": seed}


def _limit_pairs(k, starts, horizon, tol_rel, tol_abs) -> list:
    """(omega, alpha) LimitSetReport of the orbit through each start."""
    return _map_starts(lambda p: (omega_limit(k, p, horizon, tol_rel, tol_abs),
                                  alpha_limit(k, p, horizon, tol_rel, tol_abs)), starts)


def verify_theorem_a(k: ParamVector, n_samples: int, seed: int = 42,
                     tol_rel: float = DEFAULT_TOL_REL, tol_abs: float = DEFAULT_TOL_ABS,
                     horizon: float = DEFAULT_HORIZON) -> dict:
    """Verify the global picture for k: periodic interior orbits plus closed
    boundary loops on the center regime, boundary-bound non-periodic limit
    sets everywhere else.

    On the center regime hypothesis (part a) every interior sample must
    yield a periodic orbit with closure error within CLOSURE_TOL and
    first-integral drift within DRIFT_TOL, the interior segment must be
    singular to 1e-12, and the boundary connections must match.  Otherwise
    part b is checked instead and the report notes the hypothesis mismatch
    for part a.  Raises ValueError for n_samples < 1.
    """
    regime, report = _report_head("A", k, n_samples, seed)
    starts = sample_interior(k, n_samples, SplitMix64(seed))
    if regime.oscillatory:
        residual = max(
            max(abs(c) for c in vector_field(k, p)) for p in interior_segment_R(k).sample(100)
        )
        names = certified_integral_names(k)

        def sample(p):
            """(closure_error, drift) of a periodic start, else None."""
            orbit = detect_periodic(k, p, tol_rel, tol_abs, horizon)
            if orbit is None:
                return None
            drift = orbit_integral_drift(k, p, orbit.period, names)
            return orbit.closure_error, _max_or_nan(drift.values())

        periodic = [s for s in _map_starts(sample, starts) if s is not None]
        worst_closure = _max_or_nan(c for c, _ in periodic)
        worst_drift = _max_or_nan(d for _, d in periodic)
        matches = _face_matches(k)
        failed = not (worst_closure <= CLOSURE_TOL and worst_drift <= DRIFT_TOL
                      and residual <= 1e-12 and all(matches))
        report.update(part="a", hypothesis_mismatch=False, segment_residual_max=residual,
                      n_periodic=len(periodic), n_inconclusive=n_samples - len(periodic),
                      worst_closure_error=worst_closure, worst_drift=worst_drift,
                      face_matches=matches, failed=failed,
                      passed=not failed and len(periodic) == n_samples)
        return report
    # part (b) applies instead of part (a)
    reports = [rep for pair in _limit_pairs(k, starts, horizon, tol_rel, tol_abs) for rep in pair]
    margins = [abs(boundary_margin(rep.witness)) for rep in reports if rep.kind != "inconclusive"]
    n_periodic = sum(rep.kind == "periodic" for rep in reports)
    report.update(part="b", hypothesis_mismatch=True, n_periodic=n_periodic,
                  n_inconclusive=len(reports) - len(margins),
                  worst_boundary_margin=max(margins, default=0.0))
    if regime.in_ps:
        # same-sign parameters off the manifold: boundary connections must
        # NOT close into loops
        report["face_matches"] = _face_matches(k)
    failed = (n_periodic > 0 or report["worst_boundary_margin"] > SEGMENT_DIST_TOL
              or any(report.get("face_matches", ())))
    report.update(failed=failed, passed=not failed and bool(margins))
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
                     horizon: float = DEFAULT_HORIZON) -> dict:
    """Verify the off-manifold picture: every interior orbit runs from one
    distinguished boundary segment to the other (within SEGMENT_DIST_TOL),
    in the orientation set by the regime, and boundary connections do not
    close into loops.  Raises ValueError for n_samples < 1.
    """
    regime, report = _report_head("B", k, n_samples, seed)
    if not (regime.in_ps and regime.s_sign != S_ZERO):
        report.update(status="hypothesis-mismatch", failed=True, passed=False)
        return report
    expected_alpha, expected_omega = _expected_limit_segments(regime)
    report.update(status="checked", expected={"alpha": expected_alpha, "omega": expected_omega})
    starts = sample_interior(k, n_samples, SplitMix64(seed))
    pairs = _limit_pairs(k, starts, horizon, tol_rel, tol_abs)
    want = (f"point-on-{expected_omega}", f"point-on-{expected_alpha}")
    n_inconclusive = sum("inconclusive" in (om.kind, al.kind) for om, al in pairs)
    passing = [pair for pair in pairs if (pair[0].kind, pair[1].kind) == want]
    ends = [rep for pair in passing for rep in pair]
    n_fail = len(pairs) - n_inconclusive - len(passing)
    matches = _face_matches(k)
    failed = n_fail > 0 or any(matches)
    report.update(
        n_pass=len(passing),
        n_fail=n_fail,
        n_inconclusive=n_inconclusive,
        worst_segment_distance=max((rep.distance for rep in ends), default=0.0),
        # the kinds of ends name their segment: point-on-s_py, point-on-s_xz
        min_complement_distance=min((complement_edge_distance(k, rep.witness, rep.kind[-2:])
                                     for rep in ends), default=math.inf),
        face_matches=matches,
        failed=failed,
        passed=(not failed and bool(passing)),
    )
    return report


def make_ray(base, direction, offsets) -> list:
    """Points base + eps*direction for each offset eps, validated in T."""
    bx, by, bz = _coords(base)
    dx, dy, dz = (float(c) for c in direction)
    return [SimplexPoint(bx + e * dx, by + e * dy, bz + e * dz) for e in offsets]


def period_profile(k: ParamVector, points, tol_rel: float = DEFAULT_TOL_REL,
                   tol_abs: float = DEFAULT_TOL_ABS) -> dict:
    """Periods along a family of starts marching toward the boundary.

    Rows keep the input order (expected: from near the interior segment
    outward).  The verdict reports whether the period grows strictly
    monotonically along the family.
    """

    def row(p):
        orbit = detect_periodic(k, p, tol_rel, tol_abs)
        return {
            "point": list(_coords(p)),
            "distance_to_boundary": boundary_margin(_coords(p)),
            "period": None if orbit is None else orbit.period,
            "closure_error": None if orbit is None else orbit.closure_error,
        }

    rows = _map_starts(row, points)
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

    def scan_row(sample):
        vars_, k = sample
        row = dict(vars_)
        row["k"] = list(k)
        try:
            regime = classify(k)
        except ZeroParameter:
            row.update(regime="zero", discriminant=0.0, probe_kind=None)
            return row
        row["regime"] = regime.label()
        row["discriminant"] = discriminant(k)
        probe = omega_limit(k, probe_start, horizon, tol_rel, tol_abs)
        row["probe_kind"] = probe.kind
        row["probe_witness"] = list(probe.witness)
        return row

    return _map_starts(scan_row, samples)
