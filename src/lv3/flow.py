"""Adaptive integration of the simplex flows with dense output, and the
streaming return map that locates an orbit's crossings of a plane section.

The integrator is an explicit Dormand-Prince 5(4) embedded pair (Dormand &
Prince 1980) with PI stepsize control.  A step builds no dense segment:
segment() builds the last accepted step's interpolant on demand (for
keep_dense, or a return map at a crossing), and monitored first integrals
are evaluated in one pass after the run.  It operates on plain float
tuples: state dimensions here are 2 to 4, where numpy array overhead would
dominate the runtime.  The stepper picks its kernel once, from the state's
length: three-component states (the simplex flow, so every orbit of
integrate, the probes and the harnesses) take a step written over named
scalars; the 2-D face flows and the 4-D flow take the generic one.  Both
give the same bits.

Two kinds of run take the Dormand-Prince 8(5,3) pair (DOP853; Prince &
Dormand 1981), three-component states only: the drift re-integration of
analysis.orbit_integral_drift, and the probes of a center-regime k, whose
return maps read its seventh-order dense output (three extra stages per
crossing) and take about 5x fewer steps.  integrate, integrate4, the face
flows and the off-manifold probes keep the 5(4) pair: integrate prints one
row per accepted step, so a higher order would change its output rather
than its cost.  On the off-manifold probes 8(5,3) took 5x fewer steps but
read more stops wrong: on 300 seeded starts over ten S+- vectors it got 294
(omega, alpha) pairs right where 5(4) gets 299, with a false periodic
verdict, false point-on-R_py stops and three simplex violations of 1.1e-9
to 2.2e-9.  Every simplex and 4-D run steps through one loop, _steps;
backward time is realised as the forward flow of -k (the field is odd in
k), never by negative steps.

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
from functools import cached_property, partial

from .params import ParamVector
from .equilibria import SimplexPoint, SimplexViolation, _coords, _field3
from .darboux import FirstIntegralSpec, log_integral_series, named_integral_specs

__all__ = [
    "DormandPrince45",
    "DenseSegment",
    "Trajectory",
    "SectionSpec",
    "StepSizeUnderflow",
    "integrate",
    "integrate4",
    "field4",
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
# nonzero entries only: _A8X builds extra stages 13-15 over stages (0, 6-12),
# (0, 5-7, 10-13) and (0, 5-8, 12-14); _D8 weights stages 0, 5-15 into F3..F6.
_A8X = (
    (0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_D8 = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
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


def _rk_step8_3(fun, y, f0, h):
    """One Dormand-Prince 8(5,3) step of a three-component state; returns
    (y1, f1, err, K).

    Written over named scalars like _rk_step3: each stage sum starts from
    0.0 and scales by h last, and the tableau's zero entries are left out
    (adding 0.0 * k to a sum started from 0.0 changes no bit of a finite
    sum).  Twelve stages; the thirteenth evaluation, at y1, is the next
    step's first (FSAL).  err holds the h-scaled 5th-order then 3rd-order
    error estimates, the operands of _error_norm8_3.
    """
    (_, (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3), (a5_0, _, _, a5_3, a5_4),
     (a6_0, _, _, a6_3, a6_4, a6_5), (a7_0, _, _, a7_3, a7_4, a7_5, a7_6),
     (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7), (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10)) = _A8
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _B8
    e5_0, _, _, _, _, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = _E5
    e3_0, _, _, _, _, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11 = _E3
    y0, y1, y2 = y
    c0_0, c0_1, c0_2 = k0 = f0
    c1_0, c1_1, c1_2 = k1 = fun((
        y0 + h * (0.0 + a1_0 * c0_0),
        y1 + h * (0.0 + a1_0 * c0_1),
        y2 + h * (0.0 + a1_0 * c0_2)))
    c2_0, c2_1, c2_2 = k2 = fun((
        y0 + h * (0.0 + a2_0 * c0_0 + a2_1 * c1_0),
        y1 + h * (0.0 + a2_0 * c0_1 + a2_1 * c1_1),
        y2 + h * (0.0 + a2_0 * c0_2 + a2_1 * c1_2)))
    c3_0, c3_1, c3_2 = k3 = fun((
        y0 + h * (0.0 + a3_0 * c0_0 + a3_2 * c2_0),
        y1 + h * (0.0 + a3_0 * c0_1 + a3_2 * c2_1),
        y2 + h * (0.0 + a3_0 * c0_2 + a3_2 * c2_2)))
    c4_0, c4_1, c4_2 = k4 = fun((
        y0 + h * (0.0 + a4_0 * c0_0 + a4_2 * c2_0 + a4_3 * c3_0),
        y1 + h * (0.0 + a4_0 * c0_1 + a4_2 * c2_1 + a4_3 * c3_1),
        y2 + h * (0.0 + a4_0 * c0_2 + a4_2 * c2_2 + a4_3 * c3_2)))
    c5_0, c5_1, c5_2 = k5 = fun((
        y0 + h * (0.0 + a5_0 * c0_0 + a5_3 * c3_0 + a5_4 * c4_0),
        y1 + h * (0.0 + a5_0 * c0_1 + a5_3 * c3_1 + a5_4 * c4_1),
        y2 + h * (0.0 + a5_0 * c0_2 + a5_3 * c3_2 + a5_4 * c4_2)))
    c6_0, c6_1, c6_2 = k6 = fun((
        y0 + h * (0.0 + a6_0 * c0_0 + a6_3 * c3_0 + a6_4 * c4_0 + a6_5 * c5_0),
        y1 + h * (0.0 + a6_0 * c0_1 + a6_3 * c3_1 + a6_4 * c4_1 + a6_5 * c5_1),
        y2 + h * (0.0 + a6_0 * c0_2 + a6_3 * c3_2 + a6_4 * c4_2 + a6_5 * c5_2)))
    c7_0, c7_1, c7_2 = k7 = fun((
        y0 + h * (0.0 + a7_0 * c0_0 + a7_3 * c3_0 + a7_4 * c4_0 + a7_5 * c5_0 + a7_6 * c6_0),
        y1 + h * (0.0 + a7_0 * c0_1 + a7_3 * c3_1 + a7_4 * c4_1 + a7_5 * c5_1 + a7_6 * c6_1),
        y2 + h * (0.0 + a7_0 * c0_2 + a7_3 * c3_2 + a7_4 * c4_2 + a7_5 * c5_2 + a7_6 * c6_2)))
    c8_0, c8_1, c8_2 = k8 = fun((
        y0 + h * (0.0 + a8_0 * c0_0 + a8_3 * c3_0 + a8_4 * c4_0 + a8_5 * c5_0 + a8_6 * c6_0
                    + a8_7 * c7_0),
        y1 + h * (0.0 + a8_0 * c0_1 + a8_3 * c3_1 + a8_4 * c4_1 + a8_5 * c5_1 + a8_6 * c6_1
                    + a8_7 * c7_1),
        y2 + h * (0.0 + a8_0 * c0_2 + a8_3 * c3_2 + a8_4 * c4_2 + a8_5 * c5_2 + a8_6 * c6_2
                    + a8_7 * c7_2)))
    c9_0, c9_1, c9_2 = k9 = fun((
        y0 + h * (0.0 + a9_0 * c0_0 + a9_3 * c3_0 + a9_4 * c4_0 + a9_5 * c5_0 + a9_6 * c6_0
                    + a9_7 * c7_0 + a9_8 * c8_0),
        y1 + h * (0.0 + a9_0 * c0_1 + a9_3 * c3_1 + a9_4 * c4_1 + a9_5 * c5_1 + a9_6 * c6_1
                    + a9_7 * c7_1 + a9_8 * c8_1),
        y2 + h * (0.0 + a9_0 * c0_2 + a9_3 * c3_2 + a9_4 * c4_2 + a9_5 * c5_2 + a9_6 * c6_2
                    + a9_7 * c7_2 + a9_8 * c8_2)))
    c10_0, c10_1, c10_2 = k10 = fun((
        y0 + h * (0.0 + a10_0 * c0_0 + a10_3 * c3_0 + a10_4 * c4_0 + a10_5 * c5_0 + a10_6 * c6_0
                    + a10_7 * c7_0 + a10_8 * c8_0 + a10_9 * c9_0),
        y1 + h * (0.0 + a10_0 * c0_1 + a10_3 * c3_1 + a10_4 * c4_1 + a10_5 * c5_1 + a10_6 * c6_1
                    + a10_7 * c7_1 + a10_8 * c8_1 + a10_9 * c9_1),
        y2 + h * (0.0 + a10_0 * c0_2 + a10_3 * c3_2 + a10_4 * c4_2 + a10_5 * c5_2 + a10_6 * c6_2
                    + a10_7 * c7_2 + a10_8 * c8_2 + a10_9 * c9_2)))
    c11_0, c11_1, c11_2 = k11 = fun((
        y0 + h * (0.0 + a11_0 * c0_0 + a11_3 * c3_0 + a11_4 * c4_0 + a11_5 * c5_0 + a11_6 * c6_0
                    + a11_7 * c7_0 + a11_8 * c8_0 + a11_9 * c9_0 + a11_10 * c10_0),
        y1 + h * (0.0 + a11_0 * c0_1 + a11_3 * c3_1 + a11_4 * c4_1 + a11_5 * c5_1 + a11_6 * c6_1
                    + a11_7 * c7_1 + a11_8 * c8_1 + a11_9 * c9_1 + a11_10 * c10_1),
        y2 + h * (0.0 + a11_0 * c0_2 + a11_3 * c3_2 + a11_4 * c4_2 + a11_5 * c5_2 + a11_6 * c6_2
                    + a11_7 * c7_2 + a11_8 * c8_2 + a11_9 * c9_2 + a11_10 * c10_2)))
    # the 8th-order solution; its derivative seeds the next step (FSAL)
    y_new = (
        y0 + h * (0.0 + b0 * c0_0 + b5 * c5_0 + b6 * c6_0 + b7 * c7_0 + b8 * c8_0 + b9 * c9_0
                    + b10 * c10_0 + b11 * c11_0),
        y1 + h * (0.0 + b0 * c0_1 + b5 * c5_1 + b6 * c6_1 + b7 * c7_1 + b8 * c8_1 + b9 * c9_1
                    + b10 * c10_1 + b11 * c11_1),
        y2 + h * (0.0 + b0 * c0_2 + b5 * c5_2 + b6 * c6_2 + b7 * c7_2 + b8 * c8_2 + b9 * c9_2
                    + b10 * c10_2 + b11 * c11_2))
    k12 = fun(y_new)
    err = (
        h * (0.0 + e5_0 * c0_0 + e5_5 * c5_0 + e5_6 * c6_0 + e5_7 * c7_0 + e5_8 * c8_0
               + e5_9 * c9_0 + e5_10 * c10_0 + e5_11 * c11_0),
        h * (0.0 + e5_0 * c0_1 + e5_5 * c5_1 + e5_6 * c6_1 + e5_7 * c7_1 + e5_8 * c8_1
               + e5_9 * c9_1 + e5_10 * c10_1 + e5_11 * c11_1),
        h * (0.0 + e5_0 * c0_2 + e5_5 * c5_2 + e5_6 * c6_2 + e5_7 * c7_2 + e5_8 * c8_2
               + e5_9 * c9_2 + e5_10 * c10_2 + e5_11 * c11_2),
        h * (0.0 + e3_0 * c0_0 + e3_5 * c5_0 + e3_6 * c6_0 + e3_7 * c7_0 + e3_8 * c8_0
               + e3_9 * c9_0 + e3_10 * c10_0 + e3_11 * c11_0),
        h * (0.0 + e3_0 * c0_1 + e3_5 * c5_1 + e3_6 * c6_1 + e3_7 * c7_1 + e3_8 * c8_1
               + e3_9 * c9_1 + e3_10 * c10_1 + e3_11 * c11_1),
        h * (0.0 + e3_0 * c0_2 + e3_5 * c5_2 + e3_6 * c6_2 + e3_7 * c7_2 + e3_8 * c8_2
               + e3_9 * c9_2 + e3_10 * c10_2 + e3_11 * c11_2))
    return y_new, k12, err, (k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12)


class _DenseSegment8:
    """Seventh-order interpolant over one Dormand-Prince 8(5,3) step of a
    three-component state (internal clock); treat as immutable.

    Built from the step's stages K (FSAL f1 last) and end state y1: three
    extra stages, F0 = y1 - y0, F1 = h*f0 - F0, F2 = 2*F0 - h*(f1 + f0) and
    F3..F6 = h * _D8.K.  With x = theta and u = 1 - x, the state at theta
    is y0 + x*(F0 + u*(F1 + x*(F2 + u*(F3 + x*(F4 + u*(F5 + x*F6)))))).
    """

    __slots__ = ("t0", "h", "y0", "_rows")

    def __init__(self, fun, t0, h, y0, K, y1):
        self.t0, self.h, self.y0 = t0, h, y0
        ((a13_0, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12),
         (a14_0, a14_5, a14_6, a14_7, a14_10, a14_11, a14_12, a14_13),
         (a15_0, a15_5, a15_6, a15_7, a15_8, a15_12, a15_13, a15_14)) = _A8X
        ((c0_0, c0_1, c0_2), _, _, _, _, (c5_0, c5_1, c5_2), (c6_0, c6_1, c6_2),
         (c7_0, c7_1, c7_2), (c8_0, c8_1, c8_2), (c9_0, c9_1, c9_2), (c10_0, c10_1, c10_2),
         (c11_0, c11_1, c11_2), (c12_0, c12_1, c12_2)) = K
        u0, u1, u2 = y0
        c13_0, c13_1, c13_2 = fun((
            u0 + h * (0.0 + a13_0 * c0_0 + a13_6 * c6_0 + a13_7 * c7_0 + a13_8 * c8_0
                        + a13_9 * c9_0 + a13_10 * c10_0 + a13_11 * c11_0 + a13_12 * c12_0),
            u1 + h * (0.0 + a13_0 * c0_1 + a13_6 * c6_1 + a13_7 * c7_1 + a13_8 * c8_1
                        + a13_9 * c9_1 + a13_10 * c10_1 + a13_11 * c11_1 + a13_12 * c12_1),
            u2 + h * (0.0 + a13_0 * c0_2 + a13_6 * c6_2 + a13_7 * c7_2 + a13_8 * c8_2
                        + a13_9 * c9_2 + a13_10 * c10_2 + a13_11 * c11_2 + a13_12 * c12_2)))
        c14_0, c14_1, c14_2 = fun((
            u0 + h * (0.0 + a14_0 * c0_0 + a14_5 * c5_0 + a14_6 * c6_0 + a14_7 * c7_0
                        + a14_10 * c10_0 + a14_11 * c11_0 + a14_12 * c12_0 + a14_13 * c13_0),
            u1 + h * (0.0 + a14_0 * c0_1 + a14_5 * c5_1 + a14_6 * c6_1 + a14_7 * c7_1
                        + a14_10 * c10_1 + a14_11 * c11_1 + a14_12 * c12_1 + a14_13 * c13_1),
            u2 + h * (0.0 + a14_0 * c0_2 + a14_5 * c5_2 + a14_6 * c6_2 + a14_7 * c7_2
                        + a14_10 * c10_2 + a14_11 * c11_2 + a14_12 * c12_2 + a14_13 * c13_2)))
        c15_0, c15_1, c15_2 = fun((
            u0 + h * (0.0 + a15_0 * c0_0 + a15_5 * c5_0 + a15_6 * c6_0 + a15_7 * c7_0
                        + a15_8 * c8_0 + a15_12 * c12_0 + a15_13 * c13_0 + a15_14 * c14_0),
            u1 + h * (0.0 + a15_0 * c0_1 + a15_5 * c5_1 + a15_6 * c6_1 + a15_7 * c7_1
                        + a15_8 * c8_1 + a15_12 * c12_1 + a15_13 * c13_1 + a15_14 * c14_1),
            u2 + h * (0.0 + a15_0 * c0_2 + a15_5 * c5_2 + a15_6 * c6_2 + a15_7 * c7_2
                        + a15_8 * c8_2 + a15_12 * c12_2 + a15_13 * c13_2 + a15_14 * c14_2)))
        d0, d1, d2 = y1[0] - u0, y1[1] - u1, y1[2] - u2
        rows = [(d0, d1, d2), (h * c0_0 - d0, h * c0_1 - d1, h * c0_2 - d2),
                (2.0 * d0 - h * (c12_0 + c0_0), 2.0 * d1 - h * (c12_1 + c0_1),
                 2.0 * d2 - h * (c12_2 + c0_2))]
        for e0, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15 in _D8:
            rows.append((
                h * (0.0 + e0 * c0_0 + e5 * c5_0 + e6 * c6_0 + e7 * c7_0 + e8 * c8_0 + e9 * c9_0
                       + e10 * c10_0 + e11 * c11_0 + e12 * c12_0 + e13 * c13_0 + e14 * c14_0
                       + e15 * c15_0),
                h * (0.0 + e0 * c0_1 + e5 * c5_1 + e6 * c6_1 + e7 * c7_1 + e8 * c8_1 + e9 * c9_1
                       + e10 * c10_1 + e11 * c11_1 + e12 * c12_1 + e13 * c13_1 + e14 * c14_1
                       + e15 * c15_1),
                h * (0.0 + e0 * c0_2 + e5 * c5_2 + e6 * c6_2 + e7 * c7_2 + e8 * c8_2 + e9 * c9_2
                       + e10 * c10_2 + e11 * c11_2 + e12 * c12_2 + e13 * c13_2 + e14 * c14_2
                       + e15 * c15_2)))
        self._rows = tuple(zip(*rows))  # (F0, ..., F6) of each component

    @property
    def t1(self) -> float:
        return self.t0 + self.h

    def eval_theta(self, theta: float) -> tuple:
        x, u = theta, 1.0 - theta
        (p0, p1, p2, p3, p4, p5, p6), (q0, q1, q2, q3, q4, q5, q6), \
            (r0, r1, r2, r3, r4, r5, r6) = self._rows
        y0, y1, y2 = self.y0
        return (y0 + x * (p0 + u * (p1 + x * (p2 + u * (p3 + x * (p4 + u * (p5 + x * p6)))))),
                y1 + x * (q0 + u * (q1 + x * (q2 + u * (q3 + x * (q4 + u * (q5 + x * q6)))))),
                y2 + x * (r0 + u * (r1 + x * (r2 + u * (r3 + x * (r4 + u * (r5 + x * r6)))))))

    def eval(self, t: float) -> tuple:
        return self.eval_theta((t - self.t0) / self.h)


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


def _error_norm8_3(err, y, y1, rtol, atol):
    """Hairer's combined DOP853 error norm of a three-component step.

    err holds h*e5 and h*e3 (see _rk_step8_3).  With the RMS norms of e5
    and e3 over the scale atol + rtol*max(|y|, |y1|), the norm is
    |h|*|e5|**2 / sqrt(|e5|**2 + 0.01*|e3|**2): the 3rd-order estimate
    keeps a 5th-order error that is small by cancellation from passing.
    Written here with the h-scaled sums, which is the same expression.
    """
    e0, e1, e2, d0, d1, d2 = err
    a0, a1, a2 = y
    b0, b1, b2 = y1
    a0, b0 = abs(a0), abs(b0)
    a1, b1 = abs(a1), abs(b1)
    a2, b2 = abs(a2), abs(b2)
    s0 = atol + rtol * (b0 if b0 > a0 else a0)
    s1 = atol + rtol * (b1 if b1 > a1 else a1)
    s2 = atol + rtol * (b2 if b2 > a2 else a2)
    e0, e1, e2 = e0 / s0, e1 / s1, e2 / s2
    d0, d1, d2 = d0 / s0, d1 / s1, d2 / s2
    sq5 = 0.0 + e0 * e0 + e1 * e1 + e2 * e2
    if sq5 == 0.0:
        return 0.0
    return sq5 / math.sqrt(3 * (sq5 + 0.01 * (0.0 + d0 * d0 + d1 * d1 + d2 * d2)))


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
    """An embedded Runge-Kutta pair as the stepper drives it.

    kernel3 and norm3 step three-component states, kernel and norm any
    other (None: three-component states only).  The controller exponents
    follow from the pair's order q: a rejected step shrinks by
    SAFETY * err**(-1/q), an accepted one grows by the PI factor
    SAFETY * err**(-0.7/q) * err_prev**(0.4/q), and the first step is
    (0.01 / d)**(1/q).
    """

    kernel3: object
    norm3: object
    kernel: object
    norm: object
    order: int
    segment: object  # (fun, t0, h, y0, K, y1) -> dense segment of that step


# Dormand-Prince 5(4): integrate, integrate4, the face flows and the probes
# off the center regime, where 8(5,3) misreads more stops (module docstring);
# its quartic interpolant needs no extra stage.
_DP5 = _Pair(_rk_step3, _error_norm3, _rk_step, _error_norm, 5,
             lambda fun, t0, h, y0, K, y1: DenseSegment(t0, h, y0, K))
# Dormand-Prince 8(5,3), 3-D only: the drift run and the center-regime probes,
# where it takes about 5x fewer steps; a segment costs three extra stages.
_DOP853 = _Pair(_rk_step8_3, _error_norm8_3, None, None, 8, _DenseSegment8)


class DormandPrince45:
    """Streaming adaptive stepper; one instance drives one trajectory.

    The local error per step is kept below atol + rtol*|state| componentwise
    (RMS-normed); acceptance feeds a PI controller.  Use step() repeatedly
    until finished; segment() builds the dense segment of the step last
    accepted, on demand.  The private _pair selects the embedded pair:
    Dormand-Prince 5(4) by default, _DOP853 (three-component states only)
    for the drift re-integration and the center-regime probes.  Raises
    ValueError unless 0 < t_span < inf and both tolerances are finite and
    nonnegative: a nan there would make every step nan.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 5.0

    def __init__(self, fun, y0, t_span, rtol=DEFAULT_TOL_REL, atol=DEFAULT_TOL_ABS,
                 _pair=_DP5):
        if not 0.0 < t_span < math.inf:
            raise ValueError(f"t_span must be positive and finite, got {t_span}")
        if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf):
            raise ValueError(f"tolerances must be finite and nonnegative, got {rtol}, {atol}")
        self.fun = fun
        self.y = tuple(float(v) for v in y0)
        self.t = 0.0
        self.t_span = float(t_span)
        self.rtol = float(rtol)
        self.atol = float(atol)
        if len(self.y) == 3:
            self._kernel, self._norm = _pair.kernel3, _pair.norm3
        elif _pair.kernel is None:
            raise ValueError("this pair steps three-component states only")
        else:
            self._kernel, self._norm = _pair.kernel, _pair.norm
        self._pair = _pair
        q = _pair.order
        self._reject_exp, self._alpha, self._beta = -1 / q, 0.7 / q, 0.4 / q
        self.f = fun(self.y)
        self.min_step = MIN_STEP_FRACTION * self.t_span
        h = _initial_step(fun, self.y, self.f, self.rtol, self.atol, self.t_span, 1 / q)
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
        return self._pair.segment(self.fun, *self._last, self.y)


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


def _steps(stepper, violation, what):
    """The stepping loop of every simplex and 4-D run: steps stepper and
    yields violation(y) of each accepted state y.

    It stops when the span ends or after MAX_ACCEPTED_STEPS accepted steps
    (read as the loop starts); stepper.finished tells the two apart.  A
    violation beyond VIOLATION_LIMIT raises SimplexViolation, labelled by
    what (a nan violation passes); StepSizeUnderflow passes through.
    """
    # bound once per run: this loop body runs on every accepted step
    step, t_span, budget = stepper.step, stepper.t_span, MAX_ACCEPTED_STEPS
    while stepper.t < t_span and stepper.n_accepted < budget:
        step()
        v = violation(stepper.y)
        if v > VIOLATION_LIMIT:
            raise SimplexViolation(
                f"{what} violation {v:.3e} beyond {VIOLATION_LIMIT} at t={stepper.t:.6g}")
        yield v


def _drive(k, fun, y0, t_end, tol_rel, tol_abs, violation, what, specs, keep_dense,
           pair=_DP5) -> Trajectory:
    """The run behind integrate, integrate4 and the drift run: samples every
    accepted step of _steps.

    For negative t_end fun is the flow of -k and only the reported times
    carry the sign.  violation and what go
    to _steps; the run keeps the largest violation.  An exhausted step
    budget raises RuntimeError.  specs maps monitored names to their specs,
    evaluated over all samples once the run is done.  pair is the embedded
    pair the stepper runs.
    """
    sign = 1 if t_end > 0.0 else -1
    stepper = DormandPrince45(fun, y0, abs(t_end), tol_rel, tol_abs, _pair=pair)
    times = [0.0]
    states = [stepper.y]
    dense = [] if keep_dense else None
    max_violation = violation(stepper.y)
    add_time, add_state = times.append, states.append
    add_segment = dense.append if keep_dense else None
    for v in _steps(stepper, violation, what):
        if v > max_violation:  # the result of max(max_violation, v), nan included
            max_violation = v
        add_time(sign * stepper.t)
        add_state(stepper.y)
        if add_segment is not None:
            add_segment(stepper.segment())
    if not stepper.finished:
        raise RuntimeError(f"accepted-step budget {MAX_ACCEPTED_STEPS} exhausted")
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

    Negative t_end integrates backward, as the flow of -k (the field is
    odd in k; steps stay positive internally); Trajectory.k and the
    monitors stay those of k.  Monitored first integrals are recorded in
    log form at every accepted sample (nan where a surface value is zero).
    A simplex violation beyond 1e-9 raises SimplexViolation; smaller ones
    are only recorded.
    """
    start, specs = _simplex_run_args(k, p0, t_end, monitor)
    return _drive(k, _field3(k if t_end > 0.0 else -k), start, t_end, tol_rel, tol_abs,
                  _violation3, "simplex", specs, keep_dense)


def _simplex_run_args(k, p0, t_end, monitor) -> tuple:
    """integrate's checks of its arguments: (start state, monitor specs)."""
    if t_end == 0.0:
        raise ValueError("t_end must be nonzero")
    return SimplexPoint(*_coords(p0)).coords, _resolve_monitor(k, monitor)


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
    # written so that a nan component fails it
    if not (abs(_plain_sum(q0) - 1.0) <= VIOLATION_LIMIT and min(q0) >= -VIOLATION_LIMIT):
        raise SimplexViolation(f"q0={q0} is not a stochastic state")
    traj = _drive(k, partial(field4, k if t_end > 0.0 else -k), q0, t_end, tol_rel, tol_abs,
                  _violation4, "mass-conservation", {}, keep_dense)
    return replace(traj, mass_error=traj.max_violation)


def _normal_component(section, v) -> float:
    total = 0.0
    for n, c in zip(section.normal, v):
        total += n * c
    return total


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
        """Take the step stepper last accepted, ending at y; True on a new hit.

        A strict sign change of the section value over the step is refined
        on the step's dense segment; a step end landing exactly on the plane
        from off it is the crossing itself.  The segment is built only for
        these two, and theta 1.0 reports y, never the interpolant there.
        """
        g_start, g_end = self._g, self.section.value(y)
        self._g = g_end
        crossed = g_start < 0.0 < g_end or g_start > 0.0 > g_end
        if not crossed and (g_end != 0.0 or g_start == 0.0):
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
