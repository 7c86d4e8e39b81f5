"""Adaptive integration of the simplex flows with dense output and
plane-crossing detection.

The integrator is an explicit Dormand-Prince 5(4) embedded pair (Dormand &
Prince 1980) with PI stepsize control and a quartic interpolant on every
accepted step.  It operates on plain float tuples: state dimensions here
are 2 to 4, where numpy array overhead would dominate the runtime.
Backward time is realised by negating the field, never by negative steps,
so there is a single stepping code path.

States are never projected back onto the simplex.  Violations are watched
and bounded instead, because projection would mask integrator defects and
perturb the first-integral drift statistics that the verification harnesses
measure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

from .params import ParamVector
from .equilibria import SimplexPoint, SimplexViolation, _coords
from .darboux import (
    DomainError,
    FirstIntegralSpec,
    log_integral_value,
    named_integral_specs,
)

__all__ = [
    "DormandPrince45",
    "DenseSegment",
    "Trajectory",
    "StepStats",
    "SectionSpec",
    "Crossing",
    "StepSizeUnderflow",
    "integrate",
    "integrate4",
    "field4",
    "field4_terms",
    "find_crossings",
    "DEFAULT_TOL_REL",
    "DEFAULT_TOL_ABS",
    "VIOLATION_LIMIT",
]

DEFAULT_TOL_REL = 1e-10
DEFAULT_TOL_ABS = 1e-12
VIOLATION_LIMIT = 1e-9
MIN_STEP_FRACTION = 1e-14

# Dormand-Prince 5(4) tableau, 5th-order propagation weights in the last
# row of A (FSAL), embedded-difference weights in E.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Quartic dense-output weights; row sums reproduce _B so the interpolant is
# consistent with the step endpoint.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class StepSizeUnderflow(RuntimeError):
    """The controller pushed the step below the resolvable span fraction."""


@dataclass(frozen=True)
class DenseSegment:
    """Quartic interpolant over one accepted step (internal clock)."""

    t0: float
    h: float
    y0: tuple
    q: tuple

    @property
    def t1(self) -> float:
        return self.t0 + self.h

    def eval_theta(self, theta: float) -> tuple:
        y0, h, q = self.y0, self.h, self.q
        return tuple(
            y0[i]
            + h * theta * (q[i][0] + theta * (q[i][1] + theta * (q[i][2] + theta * q[i][3])))
            for i in range(len(y0))
        )

    def eval(self, t: float) -> tuple:
        return self.eval_theta((t - self.t0) / self.h)

    def derivative_theta(self, theta: float) -> tuple:
        """d(state)/d(theta) along the interpolant."""
        h, q = self.h, self.q
        return tuple(
            h * (q[i][0] + theta * (2 * q[i][1] + theta * (3 * q[i][2] + theta * 4 * q[i][3])))
            for i in range(len(self.y0))
        )


def _rk_step(fun, y, f0, h):
    """One Dormand-Prince step from y with derivative f0; returns (y1, f1, err, K)."""
    n = len(y)
    K = [f0]
    ys = y
    for s in range(1, 7):
        a = _A[s]
        ys = tuple(y[i] + h * sum(a[j] * K[j][i] for j in range(s)) for i in range(n))
        K.append(fun(ys))
    # stage 7 state is the 5th-order solution, its derivative seeds the next step
    err = tuple(h * sum(_E[j] * K[j][i] for j in range(7)) for i in range(n))
    return ys, K[6], err, K


def _dense_q(K, n):
    return tuple(
        tuple(sum(K[s][i] * _P[s][j] for s in range(7)) for j in range(4)) for i in range(n)
    )


def _error_norm(err, y, y1, rtol, atol):
    total = 0.0
    for i in range(len(y)):
        scale = atol + rtol * max(abs(y[i]), abs(y1[i]))
        r = err[i] / scale
        total += r * r
    return math.sqrt(total / len(y))


def _initial_step(fun, y0, f0, rtol, atol, t_span):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, scale)) / len(y0))
    d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, scale)) / len(y0))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(len(y0)))
    f1 = fun(y1)
    d2 = math.sqrt(sum(((f1[i] - f0[i]) / scale[i]) ** 2 for i in range(len(y0))) / len(y0)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span)


class DormandPrince45:
    """Streaming adaptive stepper; one instance drives one trajectory.

    The local error per step is kept below atol + rtol*|state| componentwise
    (RMS-normed); acceptance feeds a PI controller.  Use step() repeatedly
    until finished; each call returns the dense segment it produced.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 5.0
    ALPHA = 0.7 / 5.0
    BETA = 0.4 / 5.0

    def __init__(self, fun, y0, t_span, rtol=DEFAULT_TOL_REL, atol=DEFAULT_TOL_ABS,
                 first_step=None, max_step=math.inf):
        if t_span <= 0.0:
            raise ValueError("t_span must be positive")
        self.fun = fun
        self.y = tuple(float(v) for v in y0)
        self.t = 0.0
        self.t_span = float(t_span)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.f = fun(self.y)
        self.min_step = MIN_STEP_FRACTION * self.t_span
        self.max_step = max_step
        h = first_step if first_step is not None else _initial_step(
            fun, self.y, self.f, self.rtol, self.atol, self.t_span
        )
        self.h = min(h, max_step, self.t_span)
        self._err_prev = 1.0
        self.n_accepted = 0
        self.n_rejected = 0

    @property
    def finished(self) -> bool:
        return self.t >= self.t_span

    @property
    def speed(self) -> float:
        """Euclidean norm of the current derivative (free: FSAL)."""
        return math.sqrt(sum(v * v for v in self.f))

    def step(self) -> DenseSegment:
        if self.finished:
            raise RuntimeError("integration span already exhausted")
        t, y, f0 = self.t, self.y, self.f
        h = self.h
        while True:
            clipped = t + h >= self.t_span
            if clipped:
                h = self.t_span - t
            elif h < self.min_step:
                raise StepSizeUnderflow(f"step {h:.3e} below floor at t={t:.6g}")
            y1, f1, err, K = _rk_step(self.fun, y, f0, h)
            err_norm = _error_norm(err, y, y1, self.rtol, self.atol)
            if err_norm <= 1.0:
                break
            self.n_rejected += 1
            h *= max(self.MIN_FACTOR, self.SAFETY * err_norm**-0.2)
        if err_norm == 0.0:
            factor = self.MAX_FACTOR
        else:
            factor = min(
                self.MAX_FACTOR,
                max(
                    self.MIN_FACTOR,
                    self.SAFETY * err_norm**-self.ALPHA * self._err_prev**self.BETA,
                ),
            )
        next_h = h * factor
        if clipped:
            next_h = max(next_h, self.h)
        self.h = min(next_h, self.max_step)
        self._err_prev = max(err_norm, 1e-4)
        segment = DenseSegment(t0=t, h=h, y0=y, q=_dense_q(K, len(y)))
        self.t = self.t_span if clipped else t + h
        self.y = y1
        self.f = f1
        self.n_accepted += 1
        return segment


@dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int


@dataclass
class Trajectory:
    """Time-stamped state samples of one run; treat as immutable.

    Times are strictly monotone: increasing for forward runs, decreasing
    for backward ones.  Dense segments (when kept) live on the internal
    nonnegative clock; reported time is sign * internal time.
    """

    k: ParamVector | None
    t: tuple
    states: tuple
    sign: int
    step_stats: StepStats
    max_violation: float
    dense: tuple | None = None
    drift: dict | None = None
    mass_error: float | None = None

    def __len__(self):
        return len(self.t)

    @property
    def terminal_state(self) -> tuple:
        return self.states[-1]

    @property
    def terminal_time(self) -> float:
        return self.t[-1]

    def state_at(self, t_req: float) -> tuple:
        """Dense-output state at reported time t_req."""
        if self.dense is None:
            raise ValueError("trajectory was integrated without dense output")
        tau = self.sign * t_req
        if tau <= 0.0:
            return self.states[0]
        starts = getattr(self, "_starts", None)
        if starts is None:
            starts = [seg.t0 for seg in self.dense]
            self._starts = starts
        idx = min(bisect_right(starts, tau) - 1, len(self.dense) - 1)
        seg = self.dense[idx]
        return seg.eval(min(tau, seg.t1))

    def drift_range(self, name: str) -> float:
        """Peak-to-start excursion of a monitored log integral."""
        series = self.drift[name]
        base = series[0]
        return max(abs(v - base) for v in series)


def _field3(k: ParamVector):
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


def _negated(fun):
    def neg(p):
        return tuple(-v for v in fun(p))

    return neg


def _violation3(y) -> float:
    x, yy, z = y
    return max(0.0, -x, -yy, -z, ((x + yy) + z) - 1.0)


def _resolve_monitor(k, monitor):
    if not monitor:
        return []
    specs = []
    named = None
    for item in monitor:
        if isinstance(item, FirstIntegralSpec):
            specs.append((item.name, item))
        else:
            if named is None:
                named = named_integral_specs(k)
            if item not in named:
                raise ValueError(f"unknown integral name {item!r}")
            specs.append((item, named[item]))
    return specs


def _log_or_nan(spec, y):
    try:
        return log_integral_value(spec, y)
    except DomainError:
        return float("nan")


def _drive(k, fun, y0, t_end, tol_rel, tol_abs, violation, what, specs, keep_dense,
           max_steps) -> Trajectory:
    """The stepping loop behind integrate and integrate4.

    Negative t_end negates the physical field fun.  violation(y) is tracked
    at every sample; its running maximum beyond VIOLATION_LIMIT raises
    SimplexViolation, labelled by what.  specs are resolved monitor pairs.
    """
    sign = 1 if t_end > 0.0 else -1
    stepper = DormandPrince45(fun if sign > 0 else _negated(fun), y0, abs(t_end), tol_rel, tol_abs)
    times = [0.0]
    states = [stepper.y]
    dense = [] if keep_dense else None
    drift = {name: [_log_or_nan(spec, stepper.y)] for name, spec in specs} or None
    max_violation = violation(stepper.y)
    while not stepper.finished:
        if stepper.n_accepted >= max_steps:
            raise RuntimeError(f"accepted-step budget {max_steps} exhausted")
        segment = stepper.step()
        y = stepper.y
        max_violation = max(max_violation, violation(y))
        if max_violation > VIOLATION_LIMIT:
            raise SimplexViolation(
                f"{what} violation {max_violation:.3e} beyond {VIOLATION_LIMIT} at t={stepper.t:.6g}"
            )
        times.append(sign * stepper.t)
        states.append(y)
        for name, spec in specs:
            drift[name].append(_log_or_nan(spec, y))
        if keep_dense:
            dense.append(segment)
    return Trajectory(
        k=k,
        t=tuple(times),
        states=tuple(states),
        sign=sign,
        step_stats=StepStats(stepper.n_accepted, stepper.n_rejected),
        max_violation=max_violation,
        dense=tuple(dense) if keep_dense else None,
        drift=drift,
    )


def integrate(k: ParamVector, p0, t_end: float, tol_rel: float = DEFAULT_TOL_REL,
              tol_abs: float = DEFAULT_TOL_ABS, monitor=None, keep_dense: bool = True,
              max_steps: int = 10_000_000) -> Trajectory:
    """Integrate the 3-D simplex flow from p0 for time t_end.

    Negative t_end integrates backward (the field is negated; steps stay
    positive internally).  Monitored first integrals are recorded in log
    form at every accepted sample.  A simplex violation beyond 1e-9 raises
    SimplexViolation; smaller ones are only recorded.
    """
    if t_end == 0.0:
        raise ValueError("t_end must be nonzero")
    start = SimplexPoint(*_coords(p0))
    specs = _resolve_monitor(k, monitor)
    return _drive(k, _field3(k), start.coords, t_end, tol_rel, tol_abs, _violation3,
                  "simplex", specs, keep_dense, max_steps)


def field4(k: ParamVector, q) -> tuple:
    """Velocity of the 4-D closed-reaction flow at q = (x, y, z, v).

    Each bilinear term is computed once and reused with opposite signs in
    the two components it couples, so the component sum telescopes.
    """
    x, y, z, v = q
    t1 = k.k1 * x * y
    t2 = k.k2 * y * z
    t3 = k.k3 * z * v
    t4 = k.k4 * x * v
    return (t1 - t4, t2 - t1, t3 - t2, t4 - t3)


def field4_terms(k: ParamVector, q) -> tuple:
    """The eight signed bilinear terms of field4; their multiset sums to
    exactly zero (pairwise cancellation), which is the mass-conservation
    identity in its sharpest floating-point form."""
    x, y, z, v = q
    t1 = k.k1 * x * y
    t2 = k.k2 * y * z
    t3 = k.k3 * z * v
    t4 = k.k4 * x * v
    return (t1, -t4, t2, -t1, t3, -t2, t4, -t3)


def _violation4(q) -> float:
    worst = 0.0
    total = 0.0
    for c in q:
        worst = max(worst, -c)
        total += c
    return max(worst, abs(total - 1.0))


def integrate4(k: ParamVector, q0, t_end: float, tol_rel: float = DEFAULT_TOL_REL,
               tol_abs: float = DEFAULT_TOL_ABS, keep_dense: bool = True,
               max_steps: int = 10_000_000) -> Trajectory:
    """Integrate the 4-D flow from q0 (components must sum to 1).

    Mass conservation is monitored: |sum(q) - 1| above 1e-9 anywhere along
    the run raises SimplexViolation.
    """
    if t_end == 0.0:
        raise ValueError("t_end must be nonzero")
    q0 = tuple(float(c) for c in q0)
    if len(q0) != 4:
        raise ValueError("q0 must have four components")
    if abs(sum(q0) - 1.0) > VIOLATION_LIMIT or min(q0) < -VIOLATION_LIMIT:
        raise SimplexViolation(f"q0={q0} is not a stochastic state")

    def phys(q):
        return field4(k, q)

    traj = _drive(k, phys, q0, t_end, tol_rel, tol_abs, _violation4, "mass-conservation",
                  (), keep_dense, max_steps)
    return replace(traj, mass_error=traj.max_violation)


@dataclass(frozen=True)
class SectionSpec:
    """Oriented plane n.p = offset with a crossing-direction filter.

    direction 'positive' keeps crossings where n.p - offset is increasing
    in physical time, 'negative' the opposite, 'both' keeps everything.
    The normal is unit-normalised on construction (offset rescales along).
    """

    normal: tuple
    offset: float = 0.0
    direction: str = "both"

    def __post_init__(self):
        n = tuple(float(c) for c in self.normal)
        norm = math.sqrt(sum(c * c for c in n))
        if norm == 0.0:
            raise ValueError("section normal must be nonzero")
        if self.direction not in ("positive", "negative", "both"):
            raise ValueError(f"bad direction {self.direction!r}")
        object.__setattr__(self, "normal", tuple(c / norm for c in n))
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def value(self, y) -> float:
        return sum(n * c for n, c in zip(self.normal, y)) - self.offset


@dataclass(frozen=True)
class Crossing:
    t: float
    state: tuple
    direction: int
    grazing: bool
    miss: float


REFINE_TOL = 1e-12
GRAZE_TOL = 1e-10


def _refine_crossing(segment, gfun, theta_lo, theta_hi, tol=REFINE_TOL):
    """Bisect the sign change of gfun(state(theta)) inside the segment."""
    g_lo = gfun(segment.eval_theta(theta_lo))
    best_theta, best_g = theta_lo, g_lo
    for _ in range(120):
        mid = 0.5 * (theta_lo + theta_hi)
        g_mid = gfun(segment.eval_theta(mid))
        if abs(g_mid) < abs(best_g):
            best_theta, best_g = mid, g_mid
        if abs(g_mid) <= tol:
            return mid, g_mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            theta_lo, g_lo = mid, g_mid
        else:
            theta_hi = mid
        if theta_hi - theta_lo < 1e-17:
            break
    return best_theta, best_g


def _normal_velocity(section, fun, y) -> float:
    return sum(n * f for n, f in zip(section.normal, fun(y)))


def _locate_crossing(segment, section, g_start, g_end, tol=REFINE_TOL):
    """(theta, miss) of the section crossing inside segment, or None.

    g_start and g_end are the section values at the segment's ends.  A
    strict sign change is refined on the dense output; an end landing
    exactly on the plane from off it is the crossing itself.
    """
    if (g_start < 0.0 and g_end > 0.0) or (g_start > 0.0 and g_end < 0.0):
        return _refine_crossing(segment, section.value, 0.0, 1.0, tol)
    if g_end == 0.0 and g_start != 0.0:
        return 1.0, 0.0
    return None


def _dist(a, b) -> float:
    return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))


class _ReturnMap:
    """Streaming return map of one stepped orbit on a section.

    Fed each accepted step, it keeps the crossings (internal time, state)
    whose direction, the sign of the stepping field's normal velocity,
    matches the first transversal crossing; a start on the plane counts
    as a crossing at time 0.  Tangential crossings are never kept.
    """

    def __init__(self, section, fun, y0):
        self.section = section
        self.fun = fun
        self.locked = 0
        self.hits = []
        self._g = section.value(y0)
        if self._g == 0.0:
            self._keep(0.0, y0)

    def _keep(self, tau, state) -> bool:
        d = _normal_velocity(self.section, self.fun, state)
        direction = 1 if d > 0.0 else (-1 if d < 0.0 else 0)
        if direction == 0:
            return False
        if self.locked == 0:
            self.locked = direction
        if direction != self.locked:
            return False
        self.hits.append((tau, state))
        return True

    def advance(self, segment, y) -> bool:
        """Take the step that built segment and ended at y; True on a new hit."""
        g_start, self._g = self._g, self.section.value(y)
        found = _locate_crossing(segment, self.section, g_start, self._g)
        if found is None:
            return False
        theta = found[0]
        return self._keep(segment.t0 + theta * segment.h, segment.eval_theta(theta))

    def closure(self, tol):
        """(period, closure_error, witness) once the last three hits agree
        consecutively within tol; None before that."""
        if len(self.hits) < 3:
            return None
        (ta, ca), (tb, cb), (_, cc) = self.hits[-3:]
        gap1, gap2 = _dist(ca, cb), _dist(cb, cc)
        if gap1 <= tol and gap2 <= tol:
            return tb - ta, max(gap1, gap2), cb
        return None


def _section_slope(section, segment, theta):
    return sum(n * d for n, d in zip(section.normal, segment.derivative_theta(theta)))


def _extremum_theta(segment, section, d_lo):
    """Theta of the extremum of the section function along the interpolant,
    assuming the slope changes sign exactly once in (0, 1)."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        d_mid = _section_slope(section, segment, mid)
        if (d_lo < 0.0) == (d_mid < 0.0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossings(traj: Trajectory, section: SectionSpec, field=None,
                   refine_tol: float = REFINE_TOL, graze_tol: float = GRAZE_TOL) -> list:
    """Locate crossings of a plane section along a dense trajectory.

    Transversal crossings are refined by bisection on the dense output to
    |n.p - offset| <= refine_tol.  Tangencies (sign-preserving touches, or
    crossings with near-zero normal velocity) are reported with the grazing
    flag set rather than dropped; a trajectory lying in the plane itself
    yields no crossings.
    """
    if traj.dense is None:
        raise ValueError("trajectory was integrated without dense output")
    if field is None:
        if traj.k is None or len(traj.states[0]) != 3:
            raise ValueError("pass the physical field for non-standard trajectories")
        field = _field3(traj.k)
    out = []

    def emit(tau, state, miss):
        # crossing direction is measured in physical time (field as given),
        # independent of the trajectory's traversal direction
        gdot = _normal_velocity(section, field, state)
        grazing = abs(gdot) <= graze_tol
        direction = 0 if grazing else (1 if gdot > 0.0 else -1)
        if not grazing:
            if section.direction == "positive" and direction < 0:
                return
            if section.direction == "negative" and direction > 0:
                return
        out.append(Crossing(t=traj.sign * tau, state=state, direction=direction,
                            grazing=grazing, miss=abs(miss)))

    g_values = [section.value(traj.dense[0].y0)]
    g_values.extend(section.value(seg.eval_theta(1.0)) for seg in traj.dense)
    if all(abs(g) <= graze_tol for g in g_values):
        return []  # trajectory lies in the plane: nothing transversal to report
    g_prev = g_values[0]
    if g_prev == 0.0 and abs(g_values[1]) > graze_tol:
        emit(traj.dense[0].t0, traj.dense[0].y0, 0.0)
    for index, segment in enumerate(traj.dense):
        g_end = g_values[index + 1]
        found = _locate_crossing(segment, section, g_prev, g_end, refine_tol)
        if found is not None:
            # landing on the plane from within graze_tol of it is no crossing
            if g_end != 0.0 or abs(g_prev) > graze_tol:
                theta, miss = found
                emit(segment.t0 + theta * segment.h, segment.eval_theta(theta), miss)
        elif g_end != 0.0 and g_prev != 0.0:
            # same-sign endpoints: an interior slope reversal may hide a tangency
            d0 = _section_slope(section, segment, 0.0)
            d1 = _section_slope(section, segment, 1.0)
            if d0 * d1 < 0.0:
                theta = _extremum_theta(segment, section, d0)
                state = segment.eval_theta(theta)
                miss = section.value(state)
                if abs(miss) <= graze_tol:
                    out.append(
                        Crossing(t=traj.sign * (segment.t0 + theta * segment.h),
                                 state=state, direction=0, grazing=True, miss=abs(miss))
                    )
        g_prev = g_end
    return out
