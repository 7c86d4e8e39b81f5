import math

import pytest

from lv3.flow import (
    DormandPrince45,
    SectionSpec,
    StepSizeUnderflow,
    _A,
    _B,
    _E,
    _P,
    _dense_q,
    _rk_step,
    field4,
    field4_terms,
    find_crossings,
    integrate,
    integrate4,
)
from lv3.equilibria import SimplexViolation
from lv3.params import ParamVector
from conftest import rand_interior_point, rand_params, norm3


# --- tableau sanity ----------------------------------------------------------


def test_tableau_consistency():
    # propagation weights sum to one; stage rows integrate their abscissae
    assert math.fsum(_B) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(_A[6]) == pytest.approx(1.0, abs=1e-15)
    # embedded difference annihilates constants
    assert math.fsum(_E) == pytest.approx(0.0, abs=1e-15)
    # dense-output rows resum to the propagation weights: interpolant hits y1
    for row, b in zip(_P, _B):
        assert math.fsum(row) == pytest.approx(b, abs=1e-13)


def _fixed_step_run(fun, y0, t_end, n_steps):
    h = t_end / n_steps
    y = tuple(map(float, y0))
    f = fun(y)
    segs = []
    for _ in range(n_steps):
        y, f, _, K = _rk_step(fun, y, f, h)
        segs.append(K)
    return y, segs


def test_order_of_convergence_linear_problem():
    lam = (-1.0, -2.0, -0.5)

    def fun(y):
        return tuple(l * v for l, v in zip(lam, y))

    y0 = (1.0, 1.0, 1.0)
    t_end = 2.0
    errors = []
    for n in (20, 40, 80, 160):
        y, _ = _fixed_step_run(fun, y0, t_end, n)
        exact = tuple(math.exp(l * t_end) for l in lam)
        errors.append(norm3([a - b for a, b in zip(y, exact)]))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 4.8


def test_dense_output_accuracy_order():
    lam = (-1.0, -2.0, -0.5)

    def fun(y):
        return tuple(l * v for l, v in zip(lam, y))

    y0 = (1.0, 1.0, 1.0)
    t_end = 2.0
    errors = []
    for n in (10, 20, 40):
        h = t_end / n
        y = y0
        f = fun(y)
        worst = 0.0
        for i in range(n):
            y1, f, _, K = _rk_step(fun, y, f, h)
            q = _dense_q(K, 3)
            for theta in (0.25, 0.5, 0.75):
                t = (i + theta) * h
                interp = tuple(
                    y[j] + h * theta * (q[j][0] + theta * (q[j][1] + theta * (q[j][2] + theta * q[j][3])))
                    for j in range(3)
                )
                exact = tuple(v * math.exp(l * t) for v, l in zip(y0, lam))
                worst = max(worst, norm3([a - b for a, b in zip(interp, exact)]))
            y = y1
        errors.append(worst)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 3.8  # quartic interpolant: 4th-order accurate


def test_dense_segment_endpoint_consistency():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 2.0)
    for seg, state in zip(traj.dense, traj.states[1:]):
        assert norm3([a - b for a, b in zip(seg.eval_theta(1.0), state)]) <= 1e-13
        assert seg.eval_theta(0.0) == seg.y0


def test_adaptive_controller_attains_tolerance():
    lam = (-1.0, -2.0, -0.5)

    def fun(y):
        return tuple(l * v for l, v in zip(lam, y))

    stepper = DormandPrince45(fun, (1.0, 1.0, 1.0), 5.0, rtol=1e-10, atol=1e-12)
    while not stepper.finished:
        stepper.step()
    exact = tuple(math.exp(l * 5.0) for l in lam)
    assert norm3([a - b for a, b in zip(stepper.y, exact)]) <= 1e-8
    assert stepper.n_accepted < 400


# --- simplex flow contracts ---------------------------------------------------


def test_equilibrium_stays_fixed():
    k = ParamVector(1, 1, 1, 1)
    traj = integrate(k, (0.25, 0.25, 0.25), 100.0, keep_dense=False)
    for state in traj.states:
        assert norm3([a - b for a, b in zip(state, (0.25, 0.25, 0.25))]) <= 1e-10


def test_time_reversal_equals_sign_flip():
    k = ParamVector(2, 1, 2, 1)
    fwd = integrate(k, (0.2, 0.2, 0.2), 10.0, keep_dense=False)
    bwd = integrate(-k, (0.2, 0.2, 0.2), -10.0, keep_dense=False)
    assert len(fwd) == len(bwd)
    for tf, tb in zip(fwd.t, bwd.t):
        assert tf == -tb
    for sf, sb in zip(fwd.states, bwd.states):
        assert norm3([a - b for a, b in zip(sf, sb)]) <= 1e-9


def test_backward_times_strictly_decreasing():
    k = ParamVector(2, 1, 2, 1)
    traj = integrate(k, (0.2, 0.2, 0.2), -5.0, keep_dense=False)
    assert all(b < a for a, b in zip(traj.t, traj.t[1:]))
    assert traj.t[-1] == -5.0


def test_faces_invariant_exactly(rng):
    for _ in range(5):
        k = rand_params(rng)
        traj = integrate(k, (0.3, 0.0, 0.4), 20.0, keep_dense=False)
        assert all(state[1] == 0.0 for state in traj.states)


def test_simplex_invariance_long_horizon():
    for k in (ParamVector(2, 3, 3, 2), ParamVector(2, 1, 2, 1)):
        traj = integrate(k, (0.2, 0.2, 0.2), 1000.0, keep_dense=False)
        assert traj.max_violation <= 1e-9


def test_integral_drift_over_one_period():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 5.333659910622081, monitor=["H", "V"], keep_dense=False)
    assert traj.drift_range("H") <= 1e-8
    assert traj.drift_range("V") <= 1e-8


def test_integral_drift_over_horizon_100():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 100.0, monitor=["H", "V"], keep_dense=False)
    assert traj.drift_range("H") <= 1e-8
    assert traj.drift_range("V") <= 1e-8


def test_log_h_increases_off_manifold():
    k = ParamVector(2, 1, 2, 1)
    traj = integrate(k, (0.2, 0.2, 0.2), 10.0, monitor=["H"], keep_dense=False)
    series = traj.drift["H"]
    assert all(b > a for a, b in zip(series, series[1:]))


def test_integrate_argument_validation():
    k = ParamVector(1, 1, 1, 1)
    with pytest.raises(ValueError):
        integrate(k, (0.2, 0.2, 0.2), 0.0)
    with pytest.raises(SimplexViolation):
        integrate(k, (0.7, 0.7, 0.7), 1.0)


def test_step_size_underflow_on_blowup():
    def fun(y):
        return (y[0] * y[0],)

    stepper = DormandPrince45(fun, (1.0,), 2.0, rtol=1e-10, atol=1e-12)
    with pytest.raises(StepSizeUnderflow):
        for _ in range(100000):
            stepper.step()


def test_state_at_matches_samples():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 5.0)
    for i in range(0, len(traj), 10):
        interp = traj.state_at(traj.t[i])
        assert norm3([a - b for a, b in zip(interp, traj.states[i])]) <= 1e-12


# --- four-species flow ---------------------------------------------------------


def test_field4_component_sum_is_exactly_zero(rng):
    for _ in range(1000):
        k = rand_params(rng)
        q = [rng.uniform() for _ in range(4)]
        total = sum(q)
        q = tuple(c / total for c in q)
        assert math.fsum(field4_terms(k, q)) == 0.0


def test_field4_matches_componentwise_form(rng):
    for _ in range(100):
        k = rand_params(rng)
        q = [rng.uniform() for _ in range(4)]
        total = sum(q)
        x, y, z, v = (c / total for c in q)
        vel = field4(k, (x, y, z, v))
        expected = (
            x * (k.k1 * y - k.k4 * v),
            y * (k.k2 * z - k.k1 * x),
            z * (k.k3 * v - k.k2 * y),
            v * (k.k4 * x - k.k3 * z),
        )
        assert norm3([a - b for a, b in zip(vel[:3], expected[:3])]) <= 1e-15
        assert abs(vel[3] - expected[3]) <= 1e-15


def test_mass_conservation_along_run():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate4(k, (0.2, 0.2, 0.2, 0.4), 100.0, keep_dense=False)
    assert traj.mass_error <= 1e-9
    for state in traj.states:
        assert abs(sum(state) - 1.0) <= 1e-9


def test_projection_matches_reduced_system(rng):
    worst = 0.0
    for _ in range(3):
        k = rand_params(rng, signs="positive")
        raw = [rng.uniform(0.1, 1.0) for _ in range(4)]
        total = sum(raw)
        q0 = tuple(c / total for c in raw)
        traj3 = integrate(k, q0[:3], 10.0, keep_dense=False)
        traj4 = integrate4(k, q0, 10.0)
        for t, state in zip(traj3.t[:: max(1, len(traj3) // 50)], traj3.states[:: max(1, len(traj3) // 50)]):
            s4 = traj4.state_at(t)
            worst = max(worst, norm3([a - b for a, b in zip(state, s4[:3])]))
    assert worst <= 1e-7


def test_vanishing_fourth_component_is_invariant():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate4(k, (0.3, 0.3, 0.4, 0.0), 10.0, keep_dense=False)
    assert all(state[3] == 0.0 for state in traj.states)


def test_integrate4_backward_retraces_forward_run():
    k = ParamVector(2, 3, 3, 2)
    q0 = (0.2, 0.2, 0.2, 0.4)
    forward = integrate4(k, q0, 5.0, keep_dense=False)
    backward = integrate4(k, forward.terminal_state, -5.0, keep_dense=False)
    assert all(b < a for a, b in zip(backward.t, backward.t[1:]))
    assert backward.t[-1] == -5.0
    assert backward.mass_error <= 1e-9
    assert math.dist(backward.terminal_state, q0) <= 1e-7


def test_integrate4_validates_mass():
    k = ParamVector(1, 1, 1, 1)
    with pytest.raises(SimplexViolation):
        integrate4(k, (0.5, 0.5, 0.5, 0.5), 1.0)


# --- section crossings ----------------------------------------------------------


def test_section_normalisation():
    sec = SectionSpec((2.0, 0.0, 0.0), offset=1.0)
    assert sec.normal == (1.0, 0.0, 0.0)
    assert sec.offset == 0.5
    with pytest.raises(ValueError):
        SectionSpec((0.0, 0.0, 0.0))


def test_crossings_on_periodic_orbit():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 16.1)
    sec = SectionSpec((k.k4, 0.0, -k.k3), 0.0, "positive")
    crossings = find_crossings(traj, sec)
    assert len(crossings) == 3
    assert all(c.direction == 1 for c in crossings)
    assert max(c.miss for c in crossings) <= 1e-12
    for a, b in zip(crossings, crossings[1:]):
        assert math.dist(a.state, b.state) <= 1e-6


def test_constant_on_plane_trajectory_has_no_crossings():
    k = ParamVector(1, 1, 1, 1)
    traj = integrate(k, (0.25, 0.25, 0.25), 5.0)
    assert find_crossings(traj, SectionSpec((1.0, 0.0, -1.0), 0.0)) == []


def test_on_section_start_is_anchored():
    k = ParamVector(1, 1, 1, 1)
    traj = integrate(k, (0.1, 0.1, 0.1), 5.0)
    crossings = find_crossings(traj, SectionSpec((1.0, 0.0, -1.0), 0.0, "both"))
    assert crossings and crossings[0].t == 0.0
    assert not crossings[0].grazing


def test_grazing_touch_is_flagged_not_dropped():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 16.1)
    # global maximum of x over the dense output: the plane x = x_max is
    # tangent to the orbit once per period
    best = (-1.0, None, 0.0)
    for seg in traj.dense:
        for i in range(33):
            theta = i / 32
            x = seg.eval_theta(theta)[0]
            if x > best[0]:
                best = (x, seg, theta)
    _, seg, theta = best
    lo, hi = max(0.0, theta - 1 / 32), min(1.0, theta + 1 / 32)
    for _ in range(200):
        m1, m2 = lo + (hi - lo) * 0.382, lo + (hi - lo) * 0.618
        if seg.eval_theta(m1)[0] < seg.eval_theta(m2)[0]:
            lo = m1
        else:
            hi = m2
    x_max = seg.eval_theta(0.5 * (lo + hi))[0]
    crossings = find_crossings(traj, SectionSpec((1.0, 0.0, 0.0), x_max, "both"))
    assert crossings, "tangency was silently dropped"
    assert all(c.grazing and c.direction == 0 for c in crossings)
