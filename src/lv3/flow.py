"""Adaptive integration of the simplex flow, and the streaming return map
that locates an orbit's crossings of a plane section.

The integrator is an explicit Dormand-Prince 5(4) embedded pair (Dormand &
Prince 1980) with PI stepsize control.  A step builds no dense segment:
segment() builds the last accepted step's interpolant on demand (for a
return map at a crossing).  Runs return states only; the callers that read
first integrals evaluate them over those states (darboux).  The stepper
operates on plain float tuples: the simplex state has three components,
where numpy array overhead would dominate the runtime.  _kernels writes
each pair's step, error norm and dense-segment arithmetic out over named
scalars from its tableau, once per (pair, state length) on first use, and
one DenseSegment class serves both pairs in one form (_Pair), building its
rows on first read.

Two kinds of run take the Dormand-Prince 8(5,3) pair (DOP853; Prince &
Dormand 1981): the drift re-integration of analysis.orbit_integral_drift,
and the probes of a center-regime k, whose return maps read its
seventh-order dense output (three extra stages on a segment's first
read) and take about 5x fewer steps.  integrate and the off-manifold
probes keep the 5(4) pair: integrate prints one row per accepted step, so
a higher order would change its output rather than its cost.  On the
off-manifold probes 8(5,3) took 5x fewer steps but read more stops wrong:
on 300 seeded starts over ten S+- vectors it got 294 (omega, alpha) pairs
right where 5(4) gets 299, with a false periodic verdict, false
point-on-R_py stops and three simplex violations of 1.1e-9 to 2.2e-9.
Every run steps through one loop, _steps; backward time is realised as
the forward flow of -k (the field is odd in k), never by negative steps.

Float sums that set output bits are added left to right from 0.0, through
_plain_sum, as explicit loops or, in the generated code, written out term
by term; never with sum(), which from CPython 3.12 on compensates float
sums and rounds differently.  These are the float operations of 3.11's
sum(), which adds its int start 0 to the first term as 0.0, so the output
bits are 3.11's on every interpreter.  The generated step and error norm
and the controller call no min() or max() either: each is spelled as a
compare that returns the operand the builtin returns.

States are never projected back onto the simplex.  Violations are bounded
instead, because projection would mask integrator defects and perturb the
first-integral drift statistics that the verification harnesses measure.
"""

from __future__ import annotations

import linecache
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

from .params import ParamVector
from .equilibria import SimplexPoint, SimplexViolation, _coords, _field3

__all__ = [
    "DormandPrince45",
    "DenseSegment",
    "Trajectory",
    "SectionSpec",
    "StepSizeUnderflow",
    "StepBudgetExhausted",
    "integrate",
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
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Dense-output weights d1..d7 of Hairer's DOPRI5 (Shampine 1986), scipy's
# RK45.P[:, 3]: the segment row F3 = h*_D5.K (_Pair).
_D5 = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
       701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)


# Dormand-Prince 8(5,3) tableau (Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, II.10), the published coefficients that scipy's
# DOP853 also uses.  Rows of _A8 list every entry, zeros included; the
# 8th-order weights _B8 also give the state of the FSAL stage, and _E5 and
# _E3 are the two embedded-difference weights of Hairer's error estimate.
_A8 = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
)
_B8 = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)
# DOP853 dense output (Hairer, Norsett & Wanner, II.6; scipy's A[13:16], D),
# zeros included like _A8: _A8X builds extra stages 13-15 from stages 0 to
# 12, 13 and 14; _D8 weights stages 0-15 into F3..F6.
_A8X = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_D8 = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


class StepSizeUnderflow(RuntimeError):
    """The controller pushed the step below the resolvable span fraction."""


class StepBudgetExhausted(RuntimeError):
    """A run took MAX_ACCEPTED_STEPS accepted steps before its span ended."""


def _terms(row, i):
    """Source of the stage sum of weight row for component i: from 0.0, in
    stage order, over the nonzero weights as repr literals (the same
    doubles); 0.0 * k added to a sum from 0.0 changes no bit of it."""
    return " + ".join(["0.0", *(f"{w!r} * c{j}_{i}" for j, w in enumerate(row) if w != 0.0)])


def _seq(items, sep=", "):
    """items joined as the body of a tuple; a single item keeps its comma."""
    return sep.join(items) + ("," if len(items) == 1 else "")


def _display(items):
    """A tuple display of the source expressions items, one to a line."""
    return "(\n        " + _seq(items, ",\n        ") + ")"


def _source(pair, n):
    """Source of pair's step, norm and dense segment for n components:
    stage j is c{j}_0, ..., the start u0, ...."""
    comps = range(n)
    fsal = len(pair.stages) + 1  # f(y1) is this stage and the next step's first

    def names(prefix):
        return _seq([f"{prefix}{i}" for i in comps])

    def reads(rows):
        return {j for row in rows for j, w in enumerate(row) if w != 0.0}

    def stage(j, value, used):
        return f"    {names(f'c{j}_')} = k{j} = {value}" if j in used else f"    k{j} = {value}"

    def state(row):  # the start plus h times the weighted stages
        return _display([f"u{i} + h * ({_terms(row, i)})" for i in comps])

    used = reads((*pair.stages, pair.weights, *pair.errors))
    out = [f"# lv3.flow._kernels: the {pair.name} pair for n={n}",
           "def step(fun, y, f0, h):", f"    {names('u')} = y", stage(0, "f0", used)]
    out += [stage(s, f"fun({state(row)})", used) for s, row in enumerate(pair.stages, 1)]
    out += [f"    y1 = {state(pair.weights)}", stage(fsal, "fun(y1)", used),
            "    err = " + _display([f"h * ({_terms(row, i)})" for row in pair.errors
                                     for i in comps]),
            f"    return y1, k{fsal}, err, ({_seq([f'k{j}' for j in range(fsal + 1)])})"]

    rows = range(len(pair.errors))
    out += ["", "def norm(err, y, y1, rtol, atol):",
            f"    {_seq([f'e{r}_{i}' for r in rows for i in comps])} = err",
            f"    {names('a')} = y", f"    {names('b')} = y1"]
    for i in comps:  # max(a, b) as the compare that returns the same operand
        out += [f"    a{i}, b{i} = abs(a{i}), abs(b{i})",
                f"    s{i} = atol + rtol * (b{i} if b{i} > a{i} else a{i})",
                *(f"    e{r}_{i} = e{r}_{i} / s{i}" for r in rows)]
    sums = ["0.0 + " + " + ".join(f"e{r}_{i} * e{r}_{i}" for i in comps) for r in rows]
    if len(sums) == 1:
        out.append(f"    return sqrt(({sums[0]}) / {n})")
    else:
        out += [f"    sq = {sums[0]}", "    if sq == 0.0:", "        return 0.0",
                f"    return sq / sqrt({n} * (sq + 0.01 * ({sums[1]})))"]

    def unpack_stages(used):
        unpack = [f"({names(f'c{j}_')})" if j in used else "_" for j in range(fsal + 1)]
        return f"    {_seq(unpack)} = K"

    m = 3 + len(pair.dense_weights)  # F0, F1, F2 and a row per dense_weights row
    out += ["", "def dense(fun, h, y, K, y1):", f"    {names('u')} = y",
            unpack_stages(reads((*pair.dense_stages, *pair.dense_weights)) | {0, fsal}),
            *(f"    d{i} = y1[{i}] - u{i}" for i in comps)]
    out += [f"    {names(f'c{s}_')} = fun({state(row)})"
            for s, row in enumerate(pair.dense_stages, fsal + 1)]
    out.append("    return " + _display([
        item for i in comps for item in (
            f"d{i}", f"h * c0_{i} - d{i}", f"2.0 * d{i} - h * (c{fsal}_{i} + c0_{i})",
            *(f"h * ({_terms(row, i)})" for row in pair.dense_weights))]))

    def horner(i):  # u + x*(F0 + w*(F1 + x*(F2 + w*(F3 + ...)))), w = 1 - x
        expr = f"p{i}_{m - 1}"
        for j in range(m - 2, -2, -1):
            expr = f"{f'p{i}_{j}' if j >= 0 else f'u{i}'} + {'x' if j % 2 else 'w'} * ({expr})"
        return expr

    out += ["", "def dense_eval(y, rows, x):", "    w = 1.0 - x",
            f"    {_seq([f'p{i}_{j}' for i in comps for j in range(m)])} = rows",
            f"    {names('u')} = y", f"    return {_display([horner(i) for i in comps])}"]
    return "\n".join(out) + "\n"


_Code = namedtuple("_Code", "step norm dense dense_eval")


@cache
def _kernels(pair, n):
    """pair's code for n-component states, compiled on first request:
    step(fun, y, f0, h) -> (y1, f1, err, K), norm(err, y, y1, rtol, atol),
    dense(fun, h, y0, K, y1) -> rows and dense_eval(y0, rows, theta).
    Its source is in linecache under its filename, e.g. <lv3.flow DOP853
    n=3>, for tracebacks and profiles."""
    source = _source(pair, n)
    filename = f"<lv3.flow {pair.name} n={n}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    code = {"sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), code)
    return _Code(*(code[name] for name in _Code._fields))


class DenseSegment:
    """Interpolant over one accepted step (internal clock); treat as
    immutable.

    The pair's code (_kernels) writes it from the step's stages K (FSAL f1
    last) and end state y1 in _Pair's form: theta 1 gives y0 + (y1 - y0).
    Its rows are built on the first read, so a segment that is never read
    costs no arithmetic and an 8(5,3) segment evaluates its three dense
    stages only then.  Segments compare and hash by identity.
    """

    __slots__ = ("t0", "h", "y0", "_code", "_fun", "_K", "_y1", "_rows")

    def __init__(self, code, fun, t0, h, y0, K, y1):
        self.t0, self.h, self.y0 = t0, h, y0
        self._code, self._fun, self._K, self._y1, self._rows = code, fun, K, y1, None

    def eval_theta(self, theta: float) -> tuple:
        rows = self._rows
        if rows is None:
            rows = self._rows = self._code.dense(self._fun, self.h, self.y0, self._K, self._y1)
        return self._code.dense_eval(self.y0, rows, theta)


def _plain_sum(values):
    """sum(values) as CPython 3.11 adds floats: left to right from 0.0 (its
    int start 0 meets the first term as 0.0)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _clamp(v, lo, hi):
    """min(hi, max(lo, v)) as compares, returning the same operand in every
    case (nan gives lo, as max(lo, nan) does)."""
    v = v if v > lo else lo
    return v if v < hi else hi


def _initial_step(fun, y0, f0, rtol, atol, t_span, exponent):
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
        h1 = (0.01 / max(d1, d2)) ** exponent
    return min(100 * h0, h1, t_span)


@dataclass(frozen=True, eq=False)
class _Pair:
    """An embedded Runge-Kutta pair by its tableau, which _kernels writes out.

    stages are the rows of A from stage 1 on; weights give the end state
    y1, whose derivative is the last stage and the next step's first
    (FSAL); errors are the embedded-difference rows over all stages.  One
    error row takes the RMS norm; two (DOP853: e5, e3) take Hairer's
    |h|*|e5|**2 / sqrt(|e5|**2 + 0.01*|e3|**2) over RMS norms, where the
    3rd-order estimate keeps a 5th-order error that is small by cancellation
    from passing.  dense_weights are the DenseSegment rows: row j gives
    F{3+j} = h*row.K over the stages and dense_stages (DOP853's three extra
    stages; 5(4) has none) in Hairer's continuous extension
    y0 + x*(F0 + w*(F1 + x*(F2 + w*(F3 + ...)))), x = theta, w = 1 - x,
    F0 = y1 - y0, F1 = h*f0 - F0 and F2 = 2*F0 - h*(f1 + f0): DOPRI5's
    fourth-order CONTD5 with one row, DOP853's seventh-order one with four.
    The controller exponents follow from the order q: a rejected step
    shrinks by SAFETY * err**(-1/q), an accepted one grows by
    SAFETY * err**(-0.7/q) * err_prev**(0.4/q), and the first step is
    (0.01 / d)**(1/q).
    """

    name: str  # names the generated code
    order: int
    stages: tuple
    weights: tuple
    errors: tuple
    dense_weights: tuple
    dense_stages: tuple = ()


# Dormand-Prince 5(4): integrate and the probes off the center regime,
# where 8(5,3) misreads more stops (module docstring);
# its fourth-order interpolant (Hairer's CONTD5) needs no extra stage.
_DP5 = _Pair("DP5", 5, _A[1:-1], _A[-1], (_E,), (_D5,))
# Dormand-Prince 8(5,3): the drift run and the center-regime probes, where it
# takes about 5x fewer steps; a segment's first read costs three extra stages.
_DOP853 = _Pair("DOP853", 8, _A8[1:], _B8, (_E5, _E3), _D8, _A8X)


class DormandPrince45:
    """Streaming adaptive stepper; one instance drives one trajectory.

    The local error per step is kept below atol + rtol*|state| componentwise
    (RMS-normed); acceptance feeds a PI controller.  Use step() repeatedly
    until finished; segment() builds the dense segment of the step last
    accepted, on demand.  The private _pair selects the embedded pair:
    Dormand-Prince 5(4) by default, _DOP853 for the drift re-integration
    and the center-regime probes; either steps states of any length.
    Raises ValueError for an empty state, and unless 0 < t_span < inf,
    0 <= rtol < inf and 0 < atol < inf: a nan there would make every step
    nan, and atol 0 divides by zero at a zero component.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 5.0

    def __init__(self, fun, y0, t_span, rtol=DEFAULT_TOL_REL, atol=DEFAULT_TOL_ABS,
                 _pair=_DP5):
        if not 0.0 < t_span < math.inf:
            raise ValueError(f"t_span must be positive and finite, got {t_span}")
        if not (0.0 <= rtol < math.inf and 0.0 < atol < math.inf):
            raise ValueError("tolerances must be finite, rtol nonnegative and atol positive, "
                             f"got {rtol}, {atol}")
        self.fun = fun
        self.y = tuple(float(v) for v in y0)
        if not self.y:
            raise ValueError("the state has no component")
        self.t = 0.0
        self.t_span = float(t_span)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self._code = _kernels(_pair, len(self.y))
        self._kernel, self._norm, self._pair = self._code.step, self._code.norm, _pair
        q = _pair.order
        self._reject_exp, self._alpha, self._beta = -1 / q, 0.7 / q, 0.4 / q
        self.f = fun(self.y)
        self.min_step = MIN_STEP_FRACTION * self.t_span
        self.h = _initial_step(fun, self.y, self.f, self.rtol, self.atol, self.t_span, 1 / q)
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
            elif not h >= self.min_step:  # a nan step too, which no retry mends
                raise StepSizeUnderflow(f"step {h:.3e} below floor at t={t:.6g}")
            y1, f1, err, K = self._kernel(self.fun, y, f0, h)
            err_norm = self._norm(err, y, y1, self.rtol, self.atol)
            if err_norm <= 1.0:
                break
            self.n_rejected += 1
            shrink = self.SAFETY * err_norm**self._reject_exp
            h *= shrink if shrink > self.MIN_FACTOR else self.MIN_FACTOR  # max(MIN, shrink)
        if err_norm == 0.0:
            factor = self.MAX_FACTOR
        else:
            factor = _clamp(self.SAFETY * err_norm**-self._alpha * self._err_prev**self._beta,
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

    def segment(self):
        """Dense segment of the step last accepted (a new one on every call)."""
        return DenseSegment(self._code, self.fun, *self._last, self.y)


@dataclass
class Trajectory:
    """Time-stamped state samples of one run; treat as immutable.

    Times are strictly monotone: increasing for forward runs, decreasing
    for backward ones.
    """

    t: tuple
    states: tuple


def _steps(stepper):
    """The stepping loop of every run: steps stepper and yields (None) after
    each accepted step.

    It stops when the span ends or after MAX_ACCEPTED_STEPS accepted steps
    (read as the loop starts); stepper.finished tells the two apart.  An
    accepted state whose violation max(0.0, -x, -y, -z, ((x + y) + z) - 1.0)
    exceeds VIOLATION_LIMIT raises SimplexViolation (nan compares false, so
    a nan term never raises); StepSizeUnderflow passes through.  A caller
    may leave the loop early: the probes stop where they settle or close.
    """
    # bound once per run: this loop body runs on every accepted step
    step, t_span, budget, limit = stepper.step, stepper.t_span, MAX_ACCEPTED_STEPS, VIOLATION_LIMIT
    while stepper.t < t_span and stepper.n_accepted < budget:
        step()
        x, y, z = stepper.y
        if -x > limit or -y > limit or -z > limit or ((x + y) + z) - 1.0 > limit:
            v = max(0.0, -x, -y, -z, ((x + y) + z) - 1.0)
            raise SimplexViolation(
                f"simplex violation {v:.3e} beyond {limit} at t={stepper.t:.6g}")
        yield


def _drive(fun, p0, t_end, tol_rel, tol_abs, pair=_DP5, blocks=None) -> Trajectory:
    """The run behind integrate and the drift run: samples every accepted
    step of _steps from the simplex point p0.

    t_end must be nonzero.  For negative t_end fun is the flow of -k and
    only the reported times carry the sign.  An exhausted step budget raises
    StepBudgetExhausted.  pair is the embedded pair the stepper runs.
    blocks, if given, is (n, put): put gets each n consecutive samples as a
    Trajectory as soon as the last of them is accepted, and the rest (fewer
    than n, if any) once the run has ended at its span.
    """
    if t_end == 0.0:
        raise ValueError("t_end must be nonzero")
    y0 = SimplexPoint(*_coords(p0)).coords
    sign = 1 if t_end > 0.0 else -1
    stepper = DormandPrince45(fun, y0, abs(t_end), tol_rel, tol_abs, _pair=pair)
    times = [0.0]
    states = [stepper.y]
    add_time, add_state = times.append, states.append
    n, put = blocks or (0, None)
    due = n or -1  # the sample count at which the next block is complete
    for _ in _steps(stepper):
        add_time(sign * stepper.t)
        add_state(stepper.y)
        if len(times) == due:
            put(Trajectory(tuple(times[-n:]), tuple(states[-n:])))
            due += n
    if not stepper.finished:
        raise StepBudgetExhausted(f"accepted-step budget {MAX_ACCEPTED_STEPS} exhausted")
    if put is not None and len(times) > due - n:
        put(Trajectory(tuple(times[due - n:]), tuple(states[due - n:])))
    return Trajectory(t=tuple(times), states=tuple(states))


def integrate(k: ParamVector, p0, t_end: float, tol_rel: float = DEFAULT_TOL_REL,
              tol_abs: float = DEFAULT_TOL_ABS, blocks=None) -> Trajectory:
    """Integrate the 3-D simplex flow from p0 for time t_end.

    Negative t_end integrates backward, as the flow of -k (the field is
    odd in k; steps stay positive internally).  The states are sampled at
    every accepted step; a caller that reads first integrals evaluates them
    over traj.states (darboux.log_integral_series).  A simplex violation
    beyond VIOLATION_LIMIT (1e-9) raises SimplexViolation.  blocks = (n,
    put) hands the samples out while the run goes on: put gets each n of
    them in order, as a Trajectory, and the shorter rest at the end (the
    CLI formats them on a second CPU meanwhile).
    """
    return _drive(_field3(k if t_end > 0.0 else -k), p0, t_end, tol_rel, tol_abs, blocks=blocks)


def _normal_component(section, v) -> float:
    total = 0.0
    for n, c in zip(section.normal, v):
        total += n * c
    return total


@dataclass(frozen=True)
class SectionSpec:
    """Plane n.p = offset, unit-normalised on construction (offset rescales
    along)."""

    normal: tuple
    offset: float = 0.0

    def __post_init__(self):
        n = tuple(float(c) for c in self.normal)
        norm = math.sqrt(_plain_sum(c * c for c in n))
        if norm == 0.0:
            raise ValueError("section normal must be nonzero")
        object.__setattr__(self, "normal", tuple(c / norm for c in n))
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def value(self, y) -> float:
        return _normal_component(self, y) - self.offset


REFINE_TOL = 1e-12


def _refine_crossing(segment, gfun):
    """Theta in [0, 1] of the sign change of gfun(state(theta)) over the
    segment, by bisection: the first midpoint within REFINE_TOL of zero,
    else the evaluated theta of least |gfun|."""
    theta_lo, theta_hi = 0.0, 1.0
    g_lo = gfun(segment.eval_theta(theta_lo))
    best_theta, best_g = theta_lo, g_lo
    for _ in range(120):
        mid = 0.5 * (theta_lo + theta_hi)
        g_mid = gfun(segment.eval_theta(mid))
        if abs(g_mid) < abs(best_g):
            best_theta, best_g = mid, g_mid
        if abs(g_mid) <= REFINE_TOL:
            return mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            theta_lo, g_lo = mid, g_mid
        else:
            theta_hi = mid
        if theta_hi - theta_lo < 1e-17:
            break
    return best_theta


def _dist(a, b) -> float:
    return math.sqrt(_plain_sum((u - v) ** 2 for u, v in zip(a, b)))


class _ReturnMap:
    """Streaming return map of one stepped orbit on a section.

    Fed each accepted step, it keeps the crossings (internal time, state)
    whose direction, the sign of the normal velocity of the field fun,
    matches that of the first transversal crossing, which locks it.  A
    start on the plane counts as a crossing at time 0.  Tangential
    crossings are never kept.
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
        """Take the step stepper last accepted, ending at y; True on a new hit.

        A strict sign change of the section value over the step is refined
        on the step's dense segment; a step end landing exactly on the plane
        from off it is the crossing itself.  The segment is built only for
        these two, and theta 1.0 reports y, never the interpolant there.
        Once the direction is locked, a sign change against it (g rising
        reads +1, falling -1) is skipped before the segment is built: its
        refined state would cross against the lock, which _keep drops.
        Only a step whose sign change holds three roots could differ, if
        bisection landed on the middle root, which crosses with the lock.
        """
        g_start, g_end = self._g, self.section.value(y)
        self._g = g_end
        crossed = g_start < 0.0 < g_end or g_start > 0.0 > g_end
        if not crossed and (g_end != 0.0 or g_start == 0.0):
            return False
        if crossed and (1 if g_end > 0.0 else -1) == -self.locked:
            return False
        segment = stepper.segment()
        theta = _refine_crossing(segment, self.section.value) if crossed else 1.0
        state = y if theta == 1.0 else segment.eval_theta(theta)
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
