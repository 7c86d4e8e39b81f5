import hashlib
import math

import pytest

from lv3.analysis import face_connection_abscissae, face_field
from lv3.flow import (
    DenseSegment,
    DormandPrince45,
    SectionSpec,
    StepSizeUnderflow,
    _A,
    _A8,
    _A8X,
    _B,
    _B8,
    _D8,
    _DOP853,
    _DenseSegment8,
    _E,
    _E3,
    _E5,
    _P,
    _ReturnMap,
    _dense_q,
    _dist,
    _drive,
    _error_norm,
    _error_norm3,
    _error_norm8_3,
    _field3,
    _normal_component,
    _rk_step,
    _rk_step3,
    _rk_step8_3,
    _violation3,
    field4,
    integrate,
    integrate4,
)
from lv3 import flow
from lv3.analysis import default_section, detect_periodic
from lv3.darboux import log_integral_value, named_integral_specs
from lv3.equilibria import SimplexViolation
from lv3.params import ParamVector
from lv3.rng import SplitMix64
from conftest import cpython311_only, cpython_only, rand_interior_point, rand_params, norm3


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


# DOP853 stage abscissae (Prince & Dormand 1981); lv3.flow needs none, the
# field being autonomous
_C8 = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
       0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
       0.6512820512820513, 0.6, 0.8571428571428571, 1.0)


def test_eighth_order_tableau_consistency():
    assert [len(row) for row in _A8] == list(range(12))
    assert len(_B8) == len(_E5) == len(_E3) == 12
    # each row integrates its abscissa.  The literals round the published
    # decimals to within 2**-53 relative, so the bound scales with the
    # row's magnitude: row 9 (entries up to 33) is off by 1.8e-15
    for row, c in zip(_A8, _C8):
        assert abs(math.fsum(row) - c) <= 2**-52 * (math.fsum(map(abs, row)) + c)
    # quadrature conditions of order 8: sum b_i c_i**(q-1) = 1/q
    for q in range(1, 9):
        assert math.fsum(b * c ** (q - 1) for b, c in zip(_B8, _C8)) == pytest.approx(
            1 / q, abs=1e-15)
    # both embedded differences annihilate constants
    assert math.fsum(_E5) == pytest.approx(0.0, abs=1e-15)
    assert math.fsum(_E3) == pytest.approx(0.0, abs=1e-15)


def test_eighth_order_tableau_is_scipys():
    # an independent copy of the published coefficients
    d = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert all(_A8[i][j] == d.A[i, j] for i in range(12) for j in range(i))
    assert all(_B8[j] == d.B[j] and _E5[j] == d.E5[j] and _E3[j] == d.E3[j]
               for j in range(12))
    assert d.E5[12] == d.E3[12] == 0.0  # the FSAL stage enters no estimate
    assert _C8 == tuple(d.C[:12])


def _left_sum(values):
    """Left to right from the int 0: sum() of floats on CPython 3.11 (from
    3.12 on sum() is compensated, so the reference spells the loop out).
    lv3.flow starts its sums from 0.0 instead, the same float operations,
    since the int meets the first term as 0.0."""
    total = 0
    for v in values:
        total += v
    return total


def _rk_step_reference(fun, y, f0, h):
    """The plain loop over stages that _rk_step unrolls."""
    n = len(y)
    K = [f0]
    ys = y
    for s in range(1, 7):
        a = _A[s]
        ys = tuple(y[i] + h * _left_sum(a[j] * K[j][i] for j in range(s)) for i in range(n))
        K.append(fun(ys))
    err = tuple(h * _left_sum(_E[j] * K[j][i] for j in range(7)) for i in range(n))
    return ys, K[6], err, K


def _rk_step8_reference(fun, y, f0, h):
    """The plain loop over the DOP853 stages that _rk_step8_3 unrolls, zero
    tableau entries included."""
    n = len(y)
    K = [f0]
    for s in range(1, 12):
        a = _A8[s]
        K.append(fun(tuple(y[i] + h * _left_sum(a[j] * K[j][i] for j in range(s))
                           for i in range(n))))
    y1 = tuple(y[i] + h * _left_sum(_B8[j] * K[j][i] for j in range(12)) for i in range(n))
    K.append(fun(y1))
    err = tuple(h * _left_sum(e[j] * K[j][i] for j in range(12))
                for e in (_E5, _E3) for i in range(n))
    return y1, K[12], err, K


def _bits(value):
    """Exact bit pattern of nested float tuples (signed zeros and nan included)."""
    if isinstance(value, float):
        return value.hex()
    return tuple(_bits(v) for v in value)


def _kernel_cases(n):
    k = ParamVector(2, 3, 3, 2)
    fun = {2: face_field("Y", k), 3: _field3(k), 4: lambda q: field4(k, q)}[n]
    rng = SplitMix64(1000 + n)
    for case in range(200):
        y = [rng.uniform(0.0, 0.5) for _ in range(n)]
        if case % 2:
            y[rng.next_u64() % n] = 0.0  # a state on a face
        if case % 5 == 0:
            y[rng.next_u64() % n] = -0.0
        # the longest steps make the increment comparable to the state, so a
        # one-ulp change in any single stage sum survives into the output
        h = rng.choice((1e-9, 1e-4, 0.01, 0.2)) * rng.uniform(0.5, 2.0)
        yield fun, tuple(y), h


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unrolled_step_is_bitwise_the_stage_loop(n):
    # the three-component kernel and error norm must match bit for bit too
    kernels = (_rk_step, _rk_step3) if n == 3 else (_rk_step,)
    for fun, y, h in _kernel_cases(n):
        f0 = fun(y)
        ref = _rk_step_reference(fun, y, f0, h)
        for kernel in kernels:
            y1, f1, err, K = kernel(fun, y, f0, h)
            assert _bits((y1, f1, err)) == _bits(ref[:3])
            assert _bits(K) == _bits(tuple(ref[3]))
        if n == 3:
            for e in (err, (0.0, 0.0, 0.0)):
                for rtol, atol in ((1e-10, 1e-12), (1e-6, 1e-9)):
                    assert (_error_norm3(e, y, y1, rtol, atol).hex()
                            == _error_norm(e, y, y1, rtol, atol).hex())
        segment = DenseSegment(t0=0.0, h=h, y0=y, K=K)
        assert "q" not in vars(segment)  # built on first use only
        assert segment.eval_theta(0.0) == y
        assert _bits(segment.q) == _bits(_dense_q(K, n))


def test_stepper_takes_the_three_component_kernel_for_3d_states():
    k = ParamVector(2, 3, 3, 2)
    assert DormandPrince45(_field3(k), (0.2, 0.2, 0.2), 1.0)._kernel is _rk_step3
    assert DormandPrince45(face_field("Y", k), (0.2, 0.2), 1.0)._kernel is _rk_step
    assert DormandPrince45(lambda q: field4(k, q), (0.2, 0.2, 0.2, 0.4), 1.0)._kernel is _rk_step
    assert DormandPrince45(_field3(k), (0.2, 0.2, 0.2), 1.0, _pair=_DOP853)._kernel is _rk_step8_3
    # the eighth-order pair is written for three components only
    with pytest.raises(ValueError, match="three-component"):
        DormandPrince45(face_field("Y", k), (0.2, 0.2), 1.0, _pair=_DOP853)
    with pytest.raises(ValueError, match="three-component"):
        DormandPrince45(lambda q: field4(k, q), (0.2, 0.2, 0.2, 0.4), 1.0, _pair=_DOP853)


def test_eighth_order_step_is_bitwise_the_stage_loop():
    for fun, y, h in _kernel_cases(3):
        f0 = fun(y)
        ref = _rk_step8_reference(fun, y, f0, h)
        y1, f1, err, K = _rk_step8_3(fun, y, f0, h)
        assert _bits((y1, f1, err)) == _bits(ref[:3])
        assert _bits(K) == _bits(tuple(ref[3]))


def test_eighth_order_error_norm_is_hairers_estimate():
    # |h| |e5|^2 / sqrt(3 (|e5|^2 + 0.01 |e3|^2)) over the scaled estimates
    # without their factor h, as scipy's DOP853 writes it; the kernel hands
    # _error_norm8_3 the h-scaled sums
    for fun, y, h in _kernel_cases(3):
        y1, _, err, _ = _rk_step8_3(fun, y, fun(y), h)
        for rtol, atol in ((1e-12, 1e-14), (1e-6, 1e-9)):
            scale = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y1)]
            e5 = [err[i] / h / scale[i] for i in range(3)]
            e3 = [err[3 + i] / h / scale[i] for i in range(3)]
            sq5, sq3 = math.fsum(v * v for v in e5), math.fsum(v * v for v in e3)
            want = 0.0 if sq5 == 0.0 else abs(h) * sq5 / math.sqrt(3 * (sq5 + 0.01 * sq3))
            assert _error_norm8_3(err, y, y1, rtol, atol) == pytest.approx(want, rel=1e-12)
    assert _error_norm8_3((0.0,) * 6, (0.2,) * 3, (0.2,) * 3, 1e-12, 1e-14) == 0.0


def _fixed_step_end(kernel, fun, y0, t_end, n_steps):
    h = t_end / n_steps
    y, f = y0, fun(y0)
    for _ in range(n_steps):
        y, f, _, _ = kernel(fun, y, f, h)
    return y


def test_eighth_order_convergence():
    # fixed steps on a center orbit of the simplex flow to T = 5, against
    # 20000 fifth-order steps (within 3e-15 of 40000).  Measured errors for
    # 8, 16 and 32 steps: 9.5e-9, 4.0e-11 and 1.6e-13, i.e. ratios 237 and
    # 251 for the 2**8 = 256 of an eighth-order method; 64 steps reach the
    # rounding floor (2e-15).  Changing one digit of a coefficient that a
    # low-order condition reads (the 8th significant digit of _A8[8][5], the
    # 5th of _B8[8] or of _A8[11][10]) leaves this window.  Stage 4 is
    # hidden at low order (b4 = 0 and sum_i b_i a_i4 = 0), so a change in
    # the 7th digit of _A8[4][2] passes here and fails the row sums above.
    fun = _field3(ParamVector(2, 3, 3, 2))
    y0 = (0.2, 0.2, 0.2)
    ref = _fixed_step_end(_rk_step3, fun, y0, 5.0, 20000)
    errors = [max(abs(a - b) for a, b in zip(_fixed_step_end(_rk_step8_3, fun, y0, 5.0, n), ref))
              for n in (8, 16, 32)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(7.5 <= order <= 8.5 for order in orders), orders


def _segment8(fun, y0, h):
    """The dense segment of one eighth-order step of size h from y0."""
    y1, _, _, K = _rk_step8_3(fun, y0, fun(y0), h)
    return _DenseSegment8(fun, 0.0, h, y0, K, y1), y1, K


def test_eighth_order_segment_ends_at_the_step_ends():
    for fun, y, h in _kernel_cases(3):
        segment, y1, _ = _segment8(fun, y, h)
        assert segment.eval_theta(0.0) == y
        end = segment.eval_theta(1.0)
        # y0 + (y1 - y0) is within an ulp of y1, or of y0 where y1 - y0
        # itself rounds
        assert all(abs(a - b) <= 2 * math.ulp(max(abs(b), abs(c)))
                   for a, b, c in zip(end, y1, y))
        assert (segment.t1, segment.eval(0.5 * h)) == (h, segment.eval_theta(0.5))


def test_eighth_order_segment_convergence():
    # local error at theta 0.5 of one step from (0.2, 0.2, 0.2), against 64
    # eighth-order steps to h/2.  A seventh-order interpolant has local
    # error O(h**8): measured 2.5e-7, 8.1e-10, 2.7e-12 and 1.0e-14 for
    # h = 0.8, 0.4, 0.2 and 0.1, i.e. orders 8.26, 8.20 and 8.08; h = 0.05
    # reaches the rounding floor (2.8e-16)
    fun = _field3(ParamVector(2, 3, 3, 2))
    y0 = (0.2, 0.2, 0.2)
    errors = []
    for h in (0.8, 0.4, 0.2, 0.1):
        segment, _, _ = _segment8(fun, y0, h)
        ref = _fixed_step_end(_rk_step8_3, fun, y0, 0.5 * h, 64)
        errors.append(max(abs(a - b) for a, b in zip(segment.eval_theta(0.5), ref)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert all(7.8 <= order <= 8.6 for order in orders), orders


def test_eighth_order_segment_is_scipys_interpolant():
    # scipy's extra stages and coefficient rows over the same K, evaluated
    # by its Dop853DenseOutput
    np = pytest.importorskip("numpy")
    d = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    # the tables keep scipy's nonzero entries, in order
    assert [_A8X[s - 13] for s in range(13, 16)] == [
        tuple(float(v) for v in d.A[s, :s] if v != 0.0) for s in range(13, 16)]
    assert list(_D8) == [tuple(float(v) for v in row if v != 0.0) for row in d.D]
    for fun, y, h in _kernel_cases(3):
        segment, y1, K = _segment8(fun, y, h)
        K = np.vstack([np.array(K), np.zeros((3, 3))])
        for s in range(13, 16):
            K[s] = fun(tuple(np.array(y) + np.dot(K[:s].T, d.A[s, :s]) * h))
        delta = np.array(y1) - np.array(y)
        F = np.vstack([delta, h * K[0] - delta, 2 * delta - h * (K[12] + K[0]),
                       h * np.dot(d.D, K)])
        reference = rk.Dop853DenseOutput(0.0, h, np.array(y), F)
        for theta in (0.0, 0.1, 0.5, 0.77, 1.0):
            want = reference(theta * h)
            got = segment.eval_theta(theta)
            assert all(abs(a - b) <= 1e-14 * max(abs(b), 1e-300) for a, b in zip(got, want))


@pytest.mark.parametrize("k, p0", [((2, 3, 3, 2), (0.2, 0.2, 0.2)),
                                   ((1, 1, 1, 1), (0.1, 0.1, 0.1))])
def test_located_crossings_agree_with_scipy_dop853_events(k, p0):
    # the probe locates center-regime crossings on the eighth-order
    # segment; measured against scipy: states within 1.7e-12, times within
    # 5.0e-11
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    k = ParamVector(*k)
    orbit = detect_periodic(k, p0)
    section, fun = default_section(k), _field3(k)
    sol = solve_ivp(lambda t, y: fun(tuple(y)), (0.0, orbit.crossings[-1][0] + 0.1), p0,
                    method="DOP853", rtol=1e-13, atol=1e-15,
                    events=lambda t, y: section.value(y))
    times, states = list(sol.t_events[0]), list(sol.y_events[0])
    for t, state in orbit.crossings:
        i = min(range(len(times)), key=lambda j: abs(times[j] - t))
        assert abs(times[i] - t) <= 3e-10
        assert max(abs(a - b) for a, b in zip(state, states[i])) <= 1e-11


def test_eighth_order_stepper_keeps_dense_segments():
    # a drift run that keeps segments reads them like a fifth-order run's
    k = ParamVector(2, 3, 3, 2)
    traj = _drive(k, _field3(k), (0.2, 0.2, 0.2), 1.0, 1e-12, 1e-14, _violation3, "simplex", {},
                  True, _DOP853)
    assert all(type(seg) is _DenseSegment8 for seg in traj.dense)
    assert len(traj.dense) == len(traj) - 1
    for seg, state in zip(traj.dense, traj.states[1:]):
        assert traj.state_at(seg.t1) == seg.eval_theta(1.0)
        assert norm3(tuple(a - b for a, b in zip(seg.eval_theta(1.0), state))) <= 1e-15
    ref = integrate(k, (0.2, 0.2, 0.2), 1.0, 1e-12, 1e-14)
    assert norm3(tuple(a - b for a, b in zip(traj.state_at(0.37), ref.state_at(0.37)))) <= 1e-11


@cpython311_only
@pytest.mark.parametrize("n", [2, 3, 4])
def test_plain_sums_are_bitwise_the_sum_forms(n):
    # the sums in lv3.flow, left to right from 0.0, must give the bits of
    # CPython 3.11's sum(), which adds its int start 0 to the first term as 0.0
    rng = SplitMix64(3000 + n)
    for fun, y, h in _kernel_cases(n):
        y1, _, _, K = _rk_step(fun, y, fun(y), h)
        raw = tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
        section = SectionSpec(raw, rng.uniform(-0.5, 0.5))
        norm = math.sqrt(sum(c * c for c in raw))
        assert _bits(section.normal) == _bits(tuple(c / norm for c in raw))
        assert (section.value(y1).hex()
                == (sum(a * c for a, c in zip(section.normal, y1)) - section.offset).hex())
        for v in K:
            assert (_normal_component(section, v).hex()
                    == sum(a * c for a, c in zip(section.normal, v)).hex())
        stepper = DormandPrince45(fun, y1, 1.0)
        assert stepper.speed.hex() == math.sqrt(sum(v * v for v in stepper.f)).hex()
        assert _dist(y, y1).hex() == math.sqrt(sum((u - v) ** 2 for u, v in zip(y, y1))).hex()
        assert _bits(_dense_q(K, n)) == _bits(tuple(
            tuple(sum(K[s][i] * _P[s][j] for s in range(7)) for j in range(4))
            for i in range(n)))


# sha256 of repr() of outputs that only the generic kernel produces (the 4-D
# flow and the 2-D face flows), measured before the 3-D kernel was split off.
GOLDEN_GENERIC = {
    "integrate4": "f1aefa96938692b5f24629ff63b69ad637aba2a3bb258947fa81ac05fc2fdde0",
    "face-Y": "5db0df863f0f95359d951280db5762fc5ace17c987f29a7359f0da11b5eb339a",
    "face-Sigma": "ca08694ffe19913be09dc95a8ce5ded304d33905cd0055d98bd91f01bd855515",
}


def _generic_kernel_output(name):
    if name == "integrate4":
        k = ParamVector(2, 3, 3, 2)
        fw = integrate4(k, (0.2, 0.2, 0.2, 0.4), 7.0)
        bw = integrate4(k, (0.1, 0.3, 0.2, 0.4), -7.0)
        return fw.t, fw.states, bw.t, bw.states
    return face_connection_abscissae(ParamVector(2, 1, 2, 1), name[len("face-"):], 0.3)


@cpython_only
@pytest.mark.parametrize("name", list(GOLDEN_GENERIC))
def test_generic_kernel_output_is_byte_identical_to_golden(name):
    out = repr(_generic_kernel_output(name))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GENERIC[name]


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


# sha256 of the hex of (t, h, n_rejected) after every step of one seeded 3-D
# orbit at two tolerances, measured before the controller's min/max calls
# became compares; the loose run rejects steps, so the reject loop, the
# accept clamp and the clipped last step are all pinned.
GOLDEN_STEP_SEQUENCE = {
    (1e-10, 1e-12): (975, 0, "1e8959fce1e167192426bd0ba633cdaa3c6dcc61259dd4a97061e68c29f45a45"),
    (1e-3, 1e-3): (32, 3, "5c60b9f62479db90cbf440d4dbd7300a1b69725f7f03e90d0a1ff76ae82ac921"),
}


@cpython_only
@pytest.mark.parametrize("tols", list(GOLDEN_STEP_SEQUENCE))
def test_step_size_sequence_is_pinned(tols):
    rng = SplitMix64(5)
    k = rand_params(rng, signs="positive")
    stepper = DormandPrince45(_field3(k), rand_interior_point(rng), 50.0, *tols)
    rows = []
    while not stepper.finished:
        stepper.step()
        rows.append(f"{stepper.t.hex()} {stepper.h.hex()} {stepper.n_rejected}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (stepper.n_accepted, stepper.n_rejected, digest) == GOLDEN_STEP_SEQUENCE[tols]


# --- simplex flow contracts ---------------------------------------------------


# integrate at its default tolerances is held to the benchmark's reference
# tolerance.  The drift run (analysis.orbit_integral_drift's eighth-order
# pair at 1e-12/1e-14) measured at most 1.4e-12 on these starts (the
# fifth-order pair at the same tolerances: 2.9e-12); its bound is 1e-11.
@pytest.mark.parametrize("k, drift_run, bound", [
    ((1, 1, 1, 1), False, 1e-6),
    ((2, 3, 3, 2), False, 1e-6),
    ((2, 3, 3, 2), True, 1e-11),
], ids=["k0", "k1", "drift-run"])
def test_endpoints_agree_with_scipy_dop853(k, drift_run, bound):
    # an independent integrator at much tighter tolerances
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    k = ParamVector(*k)
    fun = _field3(k)
    rng = SplitMix64(4100)
    for _ in range(3):
        p0 = rand_interior_point(rng, margin=0.05)
        if drift_run:
            end = _drive(k, fun, p0, 50.0, 1e-12, 1e-14, _violation3, "simplex", {}, False,
                         _DOP853).states[-1]
        else:
            end = integrate(k, p0, 50.0, keep_dense=False).states[-1]
        ref = solve_ivp(lambda t, y: fun(tuple(y)), (0.0, 50.0), p0, method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert ref.status == 0
        assert max(abs(a - b) for a, b in zip(end, ref.y[:, -1])) <= bound


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


def test_monitored_drift_is_bitwise_the_single_point_form():
    rng = SplitMix64(77)
    k = rand_params(rng, signs="positive")
    traj = integrate(k, rand_interior_point(rng), 30.0, monitor=["H", "V"], keep_dense=False)
    specs = named_integral_specs(k)
    assert set(traj.drift) == {"H", "V"}
    for name, series in traj.drift.items():
        assert [v.hex() for v in series] == [
            log_integral_value(specs[name], y).hex() for y in traj.states]


def test_dense_segments_are_built_only_when_read(monkeypatch):
    built = []
    located = []
    advance = flow._ReturnMap.advance

    def counting(init):
        def counted_init(segment, *args, **kwargs):
            built.append(segment)
            init(segment, *args, **kwargs)
        return counted_init

    def counted_advance(returns, stepper, y):
        # a crossing: a strict sign change, or a landing on the plane from off it
        g_start, g_end = returns._g, returns.section.value(y)
        located.append(min(g_start, g_end) < 0.0 < max(g_start, g_end)
                       or (g_end == 0.0 and g_start != 0.0))
        return advance(returns, stepper, y)

    for cls in (DenseSegment, _DenseSegment8):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    monkeypatch.setattr(flow._ReturnMap, "advance", counted_advance)
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 20.0, keep_dense=False)
    assert len(built) == 0 and len(traj) > 100
    traj = integrate(k, (0.2, 0.2, 0.2), 20.0)
    assert len(built) == len(traj.dense) == len(traj) - 1
    built.clear()
    orbit = detect_periodic(k, (0.2, 0.2, 0.2))
    # one segment per located crossing, in either direction; the probe
    # takes 66 eighth-order steps here, 5 of which cross
    assert len(located) > 50
    assert all(type(seg) is _DenseSegment8 for seg in built)
    assert len(built) == sum(located) >= len(orbit.crossings) >= 3


def test_repeated_monitor_name_is_rejected():
    # drift keeps one series per name, so a repeat would have no series of
    # its own
    k = ParamVector(2, 1, 2, 1)
    for monitor in (["H", "H"], ["H", "V", named_integral_specs(k)["H"]]):
        with pytest.raises(ValueError, match="'H' monitored twice"):
            integrate(k, (0.2, 0.2, 0.2), 1.0, monitor=monitor)


def test_integrate_argument_validation():
    k = ParamVector(1, 1, 1, 1)
    with pytest.raises(ValueError):
        integrate(k, (0.2, 0.2, 0.2), 0.0)
    with pytest.raises(SimplexViolation):
        integrate(k, (0.7, 0.7, 0.7), 1.0)


def test_simplex_violation_during_the_run_raises():
    # the start is inside the simplex; at these loose tolerances the orbit
    # leaves it later, which only the per-step check in the driver sees
    with pytest.raises(SimplexViolation) as err:
        integrate(ParamVector(2, 1, 2, 1), (0.001, 0.5, 0.3), 50, 1e-3, 1e-3, keep_dense=False)
    assert str(err.value) == "simplex violation 1.634e-07 beyond 1e-09 at t=20.8153"


def test_step_size_underflow_on_blowup():
    def fun(y):
        return (y[0] * y[0],)

    stepper = DormandPrince45(fun, (1.0,), 2.0, rtol=1e-10, atol=1e-12)
    with pytest.raises(StepSizeUnderflow):
        for _ in range(100000):
            stepper.step()


@pytest.mark.parametrize("kwargs", [
    {"t_span": math.nan}, {"t_span": math.inf}, {"t_span": 0.0}, {"t_span": -1.0},
    {"rtol": math.nan}, {"rtol": math.inf}, {"rtol": -1e-10},
    {"atol": math.nan}, {"atol": math.inf}, {"atol": -1e-12},
])
def test_stepper_rejects_nonfinite_span_and_tolerances(kwargs):
    # a nan span or tolerance gives a nan step, which no rejection shrinks
    args = {"t_span": 1.0, "rtol": 1e-10, "atol": 1e-12, **kwargs}
    with pytest.raises(ValueError):
        DormandPrince45(_field3(ParamVector(1, 1, 1, 1)), (0.2, 0.2, 0.2), **args)


def test_nan_step_raises_instead_of_retrying():
    calls = []

    def fun(y):
        calls.append(y)
        assert len(calls) < 1000, "the stepper retries a nan step"
        return y

    stepper = DormandPrince45(fun, (math.nan,), 1.0)
    with pytest.raises(StepSizeUnderflow):
        stepper.step()


def test_state_at_matches_samples():
    k = ParamVector(2, 3, 3, 2)
    traj = integrate(k, (0.2, 0.2, 0.2), 5.0)
    for i in range(0, len(traj), 10):
        interp = traj.state_at(traj.t[i])
        assert norm3([a - b for a, b in zip(interp, traj.states[i])]) <= 1e-12


# --- four-species flow ---------------------------------------------------------


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
    backward = integrate4(k, forward.states[-1], -5.0, keep_dense=False)
    assert all(b < a for a, b in zip(backward.t, backward.t[1:]))
    assert backward.t[-1] == -5.0
    assert backward.mass_error <= 1e-9
    assert math.dist(backward.states[-1], q0) <= 1e-7


def test_integrate4_validates_mass():
    k = ParamVector(1, 1, 1, 1)
    with pytest.raises(SimplexViolation):
        integrate4(k, (0.5, 0.5, 0.5, 0.5), 1.0)


@pytest.mark.parametrize("slot", range(4))
def test_integrate4_rejects_a_nan_start(slot):
    q0 = [0.2, 0.2, 0.2, 0.2]
    q0[slot] = math.nan
    with pytest.raises(SimplexViolation, match="is not a stochastic state"):
        integrate4(ParamVector(1, 1, 1, 1), q0, 1.0)


# --- section crossings ----------------------------------------------------------


def test_section_normalisation():
    sec = SectionSpec((2.0, 0.0, 0.0), offset=1.0)
    assert sec.normal == (1.0, 0.0, 0.0)
    assert sec.offset == 0.5
    with pytest.raises(ValueError):
        SectionSpec((0.0, 0.0, 0.0))


def _return_hits(k, p0, t_end, section):
    """(step-end times, step-end states, hits) of a return map fed every
    accepted step of the orbit of k from p0, as the probes feed it."""
    fun = _field3(k)
    stepper = DormandPrince45(fun, p0, t_end)
    returns = _ReturnMap(section, fun, stepper.y)
    times, states = [0.0], [stepper.y]
    while not stepper.finished:
        stepper.step()
        times.append(stepper.t)
        states.append(stepper.y)
        returns.advance(stepper, stepper.y)
    return times, states, returns.hits


def test_crossings_on_periodic_orbit():
    k = ParamVector(2, 3, 3, 2)
    sec = SectionSpec((k.k4, 0.0, -k.k3), 0.0, "positive")
    _, _, hits = _return_hits(k, (0.2, 0.2, 0.2), 16.1, sec)
    assert len(hits) == 3
    fun = _field3(k)
    for _, state in hits:
        assert abs(sec.value(state)) <= 1e-12
        assert _normal_component(sec, fun(state)) > 0.0
    for (_, a), (_, b) in zip(hits, hits[1:]):
        assert math.dist(a, b) <= 1e-6


def test_constant_on_plane_trajectory_has_no_crossings():
    # an equilibrium on the plane: no step leaves it, and the start is no
    # transversal crossing
    k = ParamVector(1, 1, 1, 1)
    _, states, hits = _return_hits(k, (0.25, 0.25, 0.25), 5.0, SectionSpec((1.0, 0.0, -1.0)))
    assert len(states) > 1
    assert hits == []


def test_on_section_start_is_anchored():
    k = ParamVector(1, 1, 1, 1)
    _, _, hits = _return_hits(k, (0.1, 0.1, 0.1), 5.0, SectionSpec((1.0, 0.0, -1.0)))
    assert hits and hits[0] == (0.0, (0.1, 0.1, 0.1))


def test_step_end_on_section_is_the_stored_sample():
    # a plane through a stored step end that the interpolant misses by an
    # ulp: the crossing is that sample, at exactly its time
    k = ParamVector(2, 3, 3, 2)
    p0 = (0.2, 0.2, 0.2)
    traj = integrate(k, p0, 20.0)
    j = next(j for j, seg in enumerate(traj.dense, 1)
             if seg.eval_theta(1.0)[0] != traj.states[j][0])
    y_j = traj.states[j]
    velocity = _field3(k)(y_j)[0]
    section = SectionSpec((1.0, 0.0, 0.0), y_j[0], "positive" if velocity > 0.0 else "negative")
    assert section.value(y_j) == 0.0
    times, states, hits = _return_hits(k, p0, 20.0, section)
    assert states[j] == y_j
    assert [hit for hit in hits if hit[0] == times[j]] == [(times[j], y_j)]
