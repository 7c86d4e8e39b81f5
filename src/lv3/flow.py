"""Adaptive integration of the simplex flows with dense output and
plane-crossing detection.

The integrator is an explicit Dormand-Prince 5(4) embedded pair (Dormand &
Prince 1980) with PI stepsize control.  A step builds no dense segment:
segment() builds the last accepted step's quartic interpolant on demand
(for keep_dense, or a return map at a sign change), and monitored first
integrals are evaluated in one pass after the run.  It operates on plain
float tuples: state dimensions here are 2 to 4, where numpy array overhead
would dominate the runtime.  The stepper picks its kernel once, from the
state's length: three-component states (the simplex flow, so every orbit
of integrate, the probes and the harnesses) take a step written over named
scalars; the 2-D face flows and the 4-D flow take the generic one.  Both
give the same bits.
Backward time is realised by negating the field, never by negative steps,
so there is a single stepping code path.

Float sums that set output bits are added left to right from 0.0, through
_plain_sum or, in code that runs on every step, as explicit loops; never
with sum(), which from CPython 3.12 on compensates float sums and rounds
differently.  These are the float operations of 3.11's sum(), which adds its
int start 0 to the first term as 0.0, so the output bits are 3.11's on every
interpreter.  The three-component per-step path (kernel, error norm,
controller, simplex check) calls no min() or max() either: each is spelled
as a compare that returns the operand the builtin returns.

States are never projected back onto the simplex.  Violations are watched
and bounded instead, because projection would mask integrator defects and
perturb the first-integral drift statistics that the verification harnesses
measure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

from .params import ParamVector
from .equilibria import SimplexPoint, SimplexViolation, _coords, _field3
from .darboux import FirstIntegralSpec, log_integral_series, named_integral_specs

__all__ = [
    "DormandPrince45",
    "DenseSegment",
    "Trajectory",
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
MAX_ACCEPTED_STEPS = 10_000_000

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


@dataclass(eq=False)
class DenseSegment:
    """Quartic interpolant over one accepted step (internal clock); treat as
    immutable.

    K holds the step's seven stage derivatives; the coefficients q are
    built from them on first use.  Not frozen (a frozen __init__ costs
    three times as much); segments compare and hash by identity.
    """

    t0: float
    h: float
    y0: tuple
    K: tuple

    @cached_property
    def q(self) -> tuple:
        return _dense_q(self.K, len(self.y0))

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
    """One Dormand-Prince step from y with derivative f0; returns (y1, f1, err, K).

    The stages are unrolled over the tableau, in any dimension; the stepper
    uses this for states that are not three-component (see _rk_step3).
    Each stage sum starts from 0.0, keeps the zero tableau entries and
    scales by h last (h * (a * k), never (h * a) * k), so the float
    operations are exactly those of the plain loop over stages adding
    a[j] * K[j][i] left to right from 0.0 (or, the same, 3.11's sum()):
    results are bit-identical to it.
    """
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65)) = _A
    e0, e1, e2, e3, e4, e5, e6 = _E
    k0 = f0
    k1 = fun(tuple(yi + h * (0.0 + a10 * c0) for yi, c0 in zip(y, k0)))
    k2 = fun(tuple(yi + h * (0.0 + a20 * c0 + a21 * c1) for yi, c0, c1 in zip(y, k0, k1)))
    k3 = fun(tuple(yi + h * (0.0 + a30 * c0 + a31 * c1 + a32 * c2)
                   for yi, c0, c1, c2 in zip(y, k0, k1, k2)))
    k4 = fun(tuple(yi + h * (0.0 + a40 * c0 + a41 * c1 + a42 * c2 + a43 * c3)
                   for yi, c0, c1, c2, c3 in zip(y, k0, k1, k2, k3)))
    k5 = fun(tuple(yi + h * (0.0 + a50 * c0 + a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
                   for yi, c0, c1, c2, c3, c4 in zip(y, k0, k1, k2, k3, k4)))
    # stage 7 state is the 5th-order solution, its derivative seeds the next step
    y1 = tuple(yi + h * (0.0 + a60 * c0 + a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5)
               for yi, c0, c1, c2, c3, c4, c5 in zip(y, k0, k1, k2, k3, k4, k5))
    k6 = fun(y1)
    err = tuple(h * (0.0 + e0 * c0 + e1 * c1 + e2 * c2 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6)
                for c0, c1, c2, c3, c4, c5, c6 in zip(k0, k1, k2, k3, k4, k5, k6))
    return y1, k6, err, (k0, k1, k2, k3, k4, k5, k6)


def _rk_step3(fun, y, f0, h):
    """_rk_step for a three-component state, over named scalars.

    Same stages and, component by component, the same float operations as
    _rk_step (0.0 start, zero tableau entries kept, h scaling last), so
    every output bit agrees; only the generators and zips are gone.
    """
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65)) = _A
    e0, e1, e2, e3, e4, e5, e6 = _E
    y0, y1, y2 = y
    c00, c01, c02 = k0 = f0
    c10, c11, c12 = k1 = fun((y0 + h * (0.0 + a10 * c00),
                              y1 + h * (0.0 + a10 * c01),
                              y2 + h * (0.0 + a10 * c02)))
    c20, c21, c22 = k2 = fun((y0 + h * (0.0 + a20 * c00 + a21 * c10),
                              y1 + h * (0.0 + a20 * c01 + a21 * c11),
                              y2 + h * (0.0 + a20 * c02 + a21 * c12)))
    c30, c31, c32 = k3 = fun((y0 + h * (0.0 + a30 * c00 + a31 * c10 + a32 * c20),
                              y1 + h * (0.0 + a30 * c01 + a31 * c11 + a32 * c21),
                              y2 + h * (0.0 + a30 * c02 + a31 * c12 + a32 * c22)))
    c40, c41, c42 = k4 = fun((y0 + h * (0.0 + a40 * c00 + a41 * c10 + a42 * c20 + a43 * c30),
                              y1 + h * (0.0 + a40 * c01 + a41 * c11 + a42 * c21 + a43 * c31),
                              y2 + h * (0.0 + a40 * c02 + a41 * c12 + a42 * c22 + a43 * c32)))
    c50, c51, c52 = k5 = fun((
        y0 + h * (0.0 + a50 * c00 + a51 * c10 + a52 * c20 + a53 * c30 + a54 * c40),
        y1 + h * (0.0 + a50 * c01 + a51 * c11 + a52 * c21 + a53 * c31 + a54 * c41),
        y2 + h * (0.0 + a50 * c02 + a51 * c12 + a52 * c22 + a53 * c32 + a54 * c42)))
    y_new = (
        y0 + h * (0.0 + a60 * c00 + a61 * c10 + a62 * c20 + a63 * c30 + a64 * c40 + a65 * c50),
        y1 + h * (0.0 + a60 * c01 + a61 * c11 + a62 * c21 + a63 * c31 + a64 * c41 + a65 * c51),
        y2 + h * (0.0 + a60 * c02 + a61 * c12 + a62 * c22 + a63 * c32 + a64 * c42 + a65 * c52))
    c60, c61, c62 = k6 = fun(y_new)
    err = (
        h * (0.0 + e0 * c00 + e1 * c10 + e2 * c20 + e3 * c30 + e4 * c40 + e5 * c50 + e6 * c60),
        h * (0.0 + e0 * c01 + e1 * c11 + e2 * c21 + e3 * c31 + e4 * c41 + e5 * c51 + e6 * c61),
        h * (0.0 + e0 * c02 + e1 * c12 + e2 * c22 + e3 * c32 + e4 * c42 + e5 * c52 + e6 * c62))
    return y_new, k6, err, (k0, k1, k2, k3, k4, k5, k6)


def _plain_sum(values):
    """sum(values) as CPython 3.11 adds floats: left to right from 0.0 (its
    int start 0 meets the first term as 0.0)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dense_q(K, n):
    return tuple(
        tuple(_plain_sum(K[s][i] * _P[s][j] for s in range(7)) for j in range(4))
        for i in range(n)
    )


def _error_norm(err, y, y1, rtol, atol):
    total = 0.0
    for i in range(len(y)):
        scale = atol + rtol * max(abs(y[i]), abs(y1[i]))
        r = err[i] / scale
        total += r * r
    return math.sqrt(total / len(y))


def _error_norm3(err, y, y1, rtol, atol):
    """_error_norm for a three-component state, unrolled; bit-identical.

    max(a, b) is spelled b if b > a else a: the operand max() returns, nan
    and ties included.
    """
    e0, e1, e2 = err
    a0, a1, a2 = y
    b0, b1, b2 = y1
    a0, b0 = abs(a0), abs(b0)
    a1, b1 = abs(a1), abs(b1)
    a2, b2 = abs(a2), abs(b2)
    r0 = e0 / (atol + rtol * (b0 if b0 > a0 else a0))
    r1 = e1 / (atol + rtol * (b1 if b1 > a1 else a1))
    r2 = e2 / (atol + rtol * (b2 if b2 > a2 else a2))
    return math.sqrt((0.0 + r0 * r0 + r1 * r1 + r2 * r2) / 3)


def _clamp(v, lo, hi):
    """min(hi, max(lo, v)) as compares, returning the same operand in every
    case (nan gives lo, as max(lo, nan) does)."""
    v = v if v > lo else lo
    return v if v < hi else hi


def _initial_step(fun, y0, f0, rtol, atol, t_span):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(_plain_sum((v / s) ** 2 for v, s in zip(y0, scale)) / len(y0))
    d1 = math.sqrt(_plain_sum((v / s) ** 2 for v, s in zip(f0, scale)) / len(y0))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(len(y0)))
    f1 = fun(y1)
    d2 = math.sqrt(
        _plain_sum(((f1[i] - f0[i]) / scale[i]) ** 2 for i in range(len(y0))) / len(y0)
    ) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span)


class DormandPrince45:
    """Streaming adaptive stepper; one instance drives one trajectory.

    The local error per step is kept below atol + rtol*|state| componentwise
    (RMS-normed); acceptance feeds a PI controller.  Use step() repeatedly
    until finished; segment() builds the dense segment of the step last
    accepted, on demand.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 5.0
    ALPHA = 0.7 / 5.0
    BETA = 0.4 / 5.0

    def __init__(self, fun, y0, t_span, rtol=DEFAULT_TOL_REL, atol=DEFAULT_TOL_ABS):
        if t_span <= 0.0:
            raise ValueError("t_span must be positive")
        self.fun = fun
        self.y = tuple(float(v) for v in y0)
        self.t = 0.0
        self.t_span = float(t_span)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.f = fun(self.y)
        if len(self.y) == 3:
            self._kernel, self._norm = _rk_step3, _error_norm3
        else:
            self._kernel, self._norm = _rk_step, _error_norm
        self.min_step = MIN_STEP_FRACTION * self.t_span
        h = _initial_step(fun, self.y, self.f, self.rtol, self.atol, self.t_span)
        self.h = min(h, self.t_span)
        self._err_prev = 1.0
        self.n_accepted = 0
        self.n_rejected = 0

    @property
    def finished(self) -> bool:
        return self.t >= self.t_span

    @property
    def speed(self) -> float:
        """Euclidean norm of the current derivative (free: FSAL)."""
        total = 0.0
        for v in self.f:
            total += v * v
        return math.sqrt(total)

    def step(self) -> None:
        if self.t >= self.t_span:
            raise RuntimeError("integration span already exhausted")
        t, y, f0 = self.t, self.y, self.f
        h = self.h
        while True:
            clipped = t + h >= self.t_span
            if clipped:
                h = self.t_span - t
            elif h < self.min_step:
                raise StepSizeUnderflow(f"step {h:.3e} below floor at t={t:.6g}")
            y1, f1, err, K = self._kernel(self.fun, y, f0, h)
            err_norm = self._norm(err, y, y1, self.rtol, self.atol)
            if err_norm <= 1.0:
                break
            self.n_rejected += 1
            shrink = self.SAFETY * err_norm**-0.2
            h *= shrink if shrink > self.MIN_FACTOR else self.MIN_FACTOR  # max(MIN, shrink)
        if err_norm == 0.0:
            factor = self.MAX_FACTOR
        else:
            factor = _clamp(self.SAFETY * err_norm**-self.ALPHA * self._err_prev**self.BETA,
                            self.MIN_FACTOR, self.MAX_FACTOR)
        next_h = h * factor
        if clipped and self.h > next_h:  # max(next_h, self.h)
            next_h = self.h
        self.h = next_h
        self._err_prev = 1e-4 if 1e-4 > err_norm else err_norm  # max(err_norm, 1e-4)
        self._last = (t, h, y, K)
        self.t = self.t_span if clipped else t + h
        self.y = y1
        self.f = f1
        self.n_accepted += 1

    def segment(self) -> DenseSegment:
        """Dense segment of the step last accepted (a new one on every call)."""
        return DenseSegment(*self._last)


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
    max_violation: float
    dense: tuple | None = None
    drift: dict | None = None
    mass_error: float | None = None

    def __len__(self):
        return len(self.t)

    @property
    def terminal_state(self) -> tuple:
        return self.states[-1]

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


def _negated(fun):
    def neg(p):
        return tuple(-v for v in fun(p))

    return neg


def _violation3(y) -> float:
    """max(0.0, -x, -y, -z, ((x + y) + z) - 1.0), folded left to right with
    the compare max() makes, so the same operand wins (nan and ties too)."""
    x, yy, z = y
    worst = 0.0
    v = -x
    if v > worst:
        worst = v
    v = -yy
    if v > worst:
        worst = v
    v = -z
    if v > worst:
        worst = v
    v = ((x + yy) + z) - 1.0
    if v > worst:
        worst = v
    return worst


def _resolve_monitor(k, monitor) -> dict:
    if not monitor:
        return {}
    specs = {}
    named = None
    for item in monitor:
        if isinstance(item, FirstIntegralSpec):
            name, spec = item.name, item
        else:
            if named is None:
                named = named_integral_specs(k)
            if item not in named:
                raise ValueError(f"unknown integral name {item!r}")
            name, spec = item, named[item]
        # drift keeps one series per name: a repeat would replace the first
        if name in specs:
            raise ValueError(f"integral name {name!r} monitored twice")
        specs[name] = spec
    return specs


def _drive(k, fun, y0, t_end, tol_rel, tol_abs, violation, what, specs, keep_dense) -> Trajectory:
    """The stepping loop behind integrate and integrate4.

    Negative t_end negates the physical field fun.  violation(y) is tracked
    at every sample; its running maximum beyond VIOLATION_LIMIT raises
    SimplexViolation, labelled by what.  specs maps monitored names to
    their specs, evaluated over all samples once the run is done.
    """
    sign = 1 if t_end > 0.0 else -1
    stepper = DormandPrince45(fun if sign > 0 else _negated(fun), y0, abs(t_end), tol_rel, tol_abs)
    times = [0.0]
    states = [stepper.y]
    dense = [] if keep_dense else None
    max_violation = violation(stepper.y)
    # bound once per run: this loop body runs on every accepted step
    step, t_span = stepper.step, stepper.t_span
    add_time, add_state = times.append, states.append
    add_segment = dense.append if keep_dense else None
    while stepper.t < t_span:
        if stepper.n_accepted >= MAX_ACCEPTED_STEPS:
            raise RuntimeError(f"accepted-step budget {MAX_ACCEPTED_STEPS} exhausted")
        step()
        y = stepper.y
        v = violation(y)
        if v > max_violation:  # the result of max(max_violation, v), nan included
            max_violation = v
        if max_violation > VIOLATION_LIMIT:
            raise SimplexViolation(
                f"{what} violation {max_violation:.3e} beyond {VIOLATION_LIMIT} at t={stepper.t:.6g}"
            )
        add_time(sign * stepper.t)
        add_state(y)
        if add_segment is not None:
            add_segment(stepper.segment())
    drift = dict(zip(specs, log_integral_series(specs.values(), states))) if specs else None
    return Trajectory(
        k=k,
        t=tuple(times),
        states=tuple(states),
        sign=sign,
        max_violation=max_violation,
        dense=tuple(dense) if keep_dense else None,
        drift=drift,
    )


def integrate(k: ParamVector, p0, t_end: float, tol_rel: float = DEFAULT_TOL_REL,
              tol_abs: float = DEFAULT_TOL_ABS, monitor=None,
              keep_dense: bool = True) -> Trajectory:
    """Integrate the 3-D simplex flow from p0 for time t_end.

    Negative t_end integrates backward (the field is negated; steps stay
    positive internally).  Monitored first integrals are recorded in log
    form at every accepted sample (nan where a surface value is zero).  A
    simplex violation beyond 1e-9 raises SimplexViolation; smaller ones are
    only recorded.
    """
    if t_end == 0.0:
        raise ValueError("t_end must be nonzero")
    start = SimplexPoint(*_coords(p0))
    specs = _resolve_monitor(k, monitor)
    return _drive(k, _field3(k), start.coords, t_end, tol_rel, tol_abs, _violation3,
                  "simplex", specs, keep_dense)


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
               tol_abs: float = DEFAULT_TOL_ABS, keep_dense: bool = True) -> Trajectory:
    """Integrate the 4-D flow from q0 (components must sum to 1).

    Mass conservation is monitored: |sum(q) - 1| above 1e-9 anywhere along
    the run raises SimplexViolation.
    """
    if t_end == 0.0:
        raise ValueError("t_end must be nonzero")
    q0 = tuple(float(c) for c in q0)
    if len(q0) != 4:
        raise ValueError("q0 must have four components")
    if abs(_plain_sum(q0) - 1.0) > VIOLATION_LIMIT or min(q0) < -VIOLATION_LIMIT:
        raise SimplexViolation(f"q0={q0} is not a stochastic state")

    def phys(q):
        return field4(k, q)

    traj = _drive(k, phys, q0, t_end, tol_rel, tol_abs, _violation4, "mass-conservation",
                  {}, keep_dense)
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
        norm = math.sqrt(_plain_sum(c * c for c in n))
        if norm == 0.0:
            raise ValueError("section normal must be nonzero")
        if self.direction not in ("positive", "negative", "both"):
            raise ValueError(f"bad direction {self.direction!r}")
        object.__setattr__(self, "normal", tuple(c / norm for c in n))
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def value(self, y) -> float:
        total = 0.0
        for n, c in zip(self.normal, y):
            total += n * c
        return total - self.offset


@dataclass(frozen=True)
class Crossing:
    t: float
    state: tuple
    direction: int
    grazing: bool
    miss: float


REFINE_TOL = 1e-12
GRAZE_TOL = 1e-10


def _refine_crossing(segment, gfun, theta_lo, theta_hi):
    """Bisect the sign change of gfun(state(theta)) inside the segment."""
    g_lo = gfun(segment.eval_theta(theta_lo))
    best_theta, best_g = theta_lo, g_lo
    for _ in range(120):
        mid = 0.5 * (theta_lo + theta_hi)
        g_mid = gfun(segment.eval_theta(mid))
        if abs(g_mid) < abs(best_g):
            best_theta, best_g = mid, g_mid
        if abs(g_mid) <= REFINE_TOL:
            return mid, g_mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            theta_lo, g_lo = mid, g_mid
        else:
            theta_hi = mid
        if theta_hi - theta_lo < 1e-17:
            break
    return best_theta, best_g


def _normal_component(section, v) -> float:
    total = 0.0
    for n, c in zip(section.normal, v):
        total += n * c
    return total


def _locate_crossing(segment, section, g_start, g_end, y_end):
    """(theta, state, miss) of the section crossing inside segment, or None.

    g_start and g_end are the section values at the segment's ends and
    y_end the stored step end.  A strict sign change is refined on the
    dense output; an end landing exactly on the plane from off it is the
    crossing itself.  Theta 1.0 reports y_end, never the interpolant there.
    """
    if (g_start < 0.0 and g_end > 0.0) or (g_start > 0.0 and g_end < 0.0):
        theta, miss = _refine_crossing(segment, section.value, 0.0, 1.0)
        return theta, y_end if theta == 1.0 else segment.eval_theta(theta), miss
    if g_end == 0.0 and g_start != 0.0:
        return 1.0, y_end, 0.0
    return None


def _dist(a, b) -> float:
    return math.sqrt(_plain_sum((u - v) ** 2 for u, v in zip(a, b)))


class _ReturnMap:
    """Streaming return map of one stepped orbit on a section.

    Fed each accepted step, it keeps the crossings (internal time, state)
    whose direction, the sign of the normal velocity of the field fun,
    matches the section's direction; for 'both' it matches the first
    transversal crossing.  A start on the plane counts as a crossing at
    time 0.  Tangential crossings are never kept.
    """

    _LOCKS = {"positive": 1, "negative": -1, "both": 0}

    def __init__(self, section, fun, y0):
        self.section = section
        self.fun = fun
        self.locked = self._LOCKS[section.direction]
        self.hits = []
        self._g = section.value(y0)
        if self._g == 0.0:
            self._keep(0.0, y0)

    def _keep(self, tau, state) -> bool:
        d = _normal_component(self.section, self.fun(state))
        direction = 1 if d > 0.0 else (-1 if d < 0.0 else 0)
        if direction == 0:
            return False
        if self.locked == 0:
            self.locked = direction
        if direction != self.locked:
            return False
        self.hits.append((tau, state))
        return True

    def advance(self, stepper, y) -> bool:
        """Take the step stepper last accepted, ending at y; True on a new hit."""
        g_start, g_end = self._g, self.section.value(y)
        self._g = g_end
        # build the segment only where _locate_crossing finds a crossing
        if not (g_start < 0.0 < g_end or g_start > 0.0 > g_end
                or (g_end == 0.0 and g_start != 0.0)):
            return False
        segment = stepper.segment()
        theta, state, _ = _locate_crossing(segment, self.section, g_start, g_end, y)
        return self._keep(segment.t0 + theta * segment.h, state)

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


def _extremum_theta(segment, section, d_lo):
    """Theta of the extremum of the section function along the interpolant,
    assuming the slope changes sign exactly once in (0, 1)."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        d_mid = _normal_component(section, segment.derivative_theta(mid))
        if (d_lo < 0.0) == (d_mid < 0.0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossings(traj: Trajectory, section: SectionSpec) -> list:
    """Locate crossings of a plane section along a dense simplex trajectory.

    Transversal crossings are refined by bisection on the dense output to
    |n.p - offset| <= REFINE_TOL.  Tangencies (sign-preserving touches, or
    crossings with normal velocity within GRAZE_TOL of zero) are reported
    with the grazing flag set rather than dropped; a trajectory lying in the
    plane itself yields no crossings.
    """
    if traj.dense is None:
        raise ValueError("trajectory was integrated without dense output")
    if traj.k is None or len(traj.states[0]) != 3:
        raise ValueError("crossings are located on trajectories of the 3-D simplex flow")
    field = _field3(traj.k)
    out = []

    def emit(tau, state, miss):
        # crossing direction is measured in physical time (the forward field),
        # independent of the trajectory's traversal direction
        gdot = _normal_component(section, field(state))
        grazing = abs(gdot) <= GRAZE_TOL
        direction = 0 if grazing else (1 if gdot > 0.0 else -1)
        if not grazing:
            if section.direction == "positive" and direction < 0:
                return
            if section.direction == "negative" and direction > 0:
                return
        out.append(Crossing(t=traj.sign * tau, state=state, direction=direction,
                            grazing=grazing, miss=abs(miss)))

    g_values = [section.value(state) for state in traj.states]
    if all(abs(g) <= GRAZE_TOL for g in g_values):
        return []  # trajectory lies in the plane: nothing transversal to report
    g_prev = g_values[0]
    if g_prev == 0.0 and abs(g_values[1]) > GRAZE_TOL:
        emit(traj.dense[0].t0, traj.dense[0].y0, 0.0)
    for index, segment in enumerate(traj.dense):
        g_end = g_values[index + 1]
        found = _locate_crossing(segment, section, g_prev, g_end, traj.states[index + 1])
        if found is not None:
            # landing on the plane from within GRAZE_TOL of it is no crossing
            if g_end != 0.0 or abs(g_prev) > GRAZE_TOL:
                theta, state, miss = found
                # the step end keeps its stored time, which on a clipped
                # last step can differ from t0 + h
                tau = (traj.sign * traj.t[index + 1] if theta == 1.0
                       else segment.t0 + theta * segment.h)
                emit(tau, state, miss)
        elif g_end != 0.0 and g_prev != 0.0:
            # same-sign endpoints: an interior slope reversal may hide a tangency.
            # In exact arithmetic the interpolant's slope is h*K[0] at theta 0
            # and h*K[6] at theta 1 (the dense-output weights give every other
            # stage zero weight there), so the sign test needs no coefficients.
            d0 = _normal_component(section, segment.K[0])
            d1 = _normal_component(section, segment.K[6])
            if d0 * d1 < 0.0:
                theta = _extremum_theta(segment, section, d0)
                state = segment.eval_theta(theta)
                miss = section.value(state)
                if abs(miss) <= GRAZE_TOL:
                    out.append(
                        Crossing(t=traj.sign * (segment.t0 + theta * segment.h),
                                 state=state, direction=0, grazing=True, miss=abs(miss))
                    )
        g_prev = g_end
    return out
