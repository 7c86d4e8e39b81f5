"""The compare and 0.0-start spellings of lv3.flow's per-step path give the
bits of the builtin forms they replace, over every float: signed zeros,
infinities, nans of either sign and with payloads, subnormals and ties.
Where two nans of different bits meet in one operation, neither form has
reproducible bits, and an error norm is compared up to the bits of its nan."""

import math
import platform
import struct
import sys
import types

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from lv3.equilibria import SimplexViolation
from lv3.flow import VIOLATION_LIMIT, DormandPrince45, _DOP853, _DP5, _clamp, _kernels, _steps
from conftest import hairer_norm_reference, rms_norm_reference


def _from_bits(word):
    return struct.unpack("<d", struct.pack("<Q", word))[0]


# values where a compare and a builtin could part ways: equal values with
# different bits, and nans that differ only in sign or payload
SPECIAL = (
    0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-4, 0.2, 5.0, float("inf"), float("-inf"),
    _from_bits(0x7FF8000000000000), _from_bits(0xFFF8000000000000),
    _from_bits(0x7FF8000000000001), _from_bits(0xFFF4000000000000),
)
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
TRIPLES = st.tuples(FLOATS, FLOATS, FLOATS)
# (err, y, y1) of one step of an n-component state, n = 1..4; the eighth-order
# pair's err holds two estimates per component
STEPS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    *(st.tuples(*[FLOATS] * m) for m in (2 * n, n, n))))
DERANDOMIZED = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def _outcome(fun, *args):
    """The exact bits of what fun returns, or the type of what it raises."""
    try:
        return struct.pack("<d", fun(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _quiet_bits(x):
    """The bits of x, a nan as the quiet nan a float operation makes of it."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits | 1 << 51 if math.isnan(x) else bits


class _Traced(float):
    """A float whose arithmetic notes in met when two nans of different
    bits meet in one operation.  The result is then the one or the other,
    by the operand order of the interpreter's compiled code: see
    test_nan_bits_where_two_nans_meet_change_between_calls."""

    met = []

    def _noting(op):
        def method(a, b):
            if math.isnan(a) and math.isnan(b) and _quiet_bits(a) != _quiet_bits(b):
                _Traced.met.append((a, b))
            return _Traced(op(float(a), float(b)))
        return method

    __add__, __radd__ = _noting(lambda a, b: a + b), _noting(lambda a, b: b + a)
    __mul__, __rmul__ = _noting(lambda a, b: a * b), _noting(lambda a, b: b * a)
    __truediv__, __rtruediv__ = _noting(lambda a, b: a / b), _noting(lambda a, b: b / a)

    def __abs__(self):
        return _Traced(abs(float(self)))


def _nans_meet(fun, *args):
    """Whether two nans of different bits meet in one operation of fun on
    the floats and float tuples args."""
    _Traced.met.clear()
    try:
        fun(*(tuple(map(_Traced, a)) if isinstance(a, tuple) else _Traced(a) for a in args))
    except ArithmeticError:
        pass
    return bool(_Traced.met)


def _any_nan(outcome):
    return "nan" if isinstance(outcome, bytes) and math.isnan(
        struct.unpack("<d", outcome)[0]) else outcome


@DERANDOMIZED
@given(step=STEPS, rtol=FLOATS, atol=FLOATS)
@example(step=((1.0,) * 6, (0.0, -0.0, 2.0), (-0.0, 0.0, -2.0)), rtol=1e-10, atol=1e-12)
@example(step=((1.0,) * 6, SPECIAL[11:14], SPECIAL[12:15]), rtol=1e-10, atol=1e-12)
@example(step=((1.0,) * 6, (0.2, SPECIAL[14], -0.0), (0.1, 0.5, 0.0)), rtol=1e-10, atol=1e-12)
@example(step=((SPECIAL[13],) + (1.0,) * 5, (0.2, 0.3, 0.4), (0.2, 0.3, 0.4)),
         rtol=1e-10, atol=1e-12)
@example(step=((1.0,) * 4, (0.2, SPECIAL[12]), (0.0, 0.2)), rtol=SPECIAL[13], atol=1e-12)
@example(step=((0.0,) * 4, (0.2, -0.0), (0.0, 0.2)), rtol=1e-12, atol=5e-324)
def test_error_norms_are_bitwise_the_max_forms(step, rtol, atol):
    # bit for bit, nans included, unless two nans of different bits meet in
    # one operation: then either form may return either nan
    err, y, y1 = step
    n = len(y)
    for pair, e, reference in ((_DP5, err[:n], rms_norm_reference),
                               (_DOP853, err, hairer_norm_reference)):
        args = (e, y, y1, rtol, atol)
        outcome, want = _outcome(_kernels(pair, n).norm, *args), _outcome(reference, *args)
        if _nans_meet(reference, *args):
            outcome, want = _any_nan(outcome), _any_nan(want)
        assert outcome == want


def test_nan_bits_where_two_nans_meet_change_between_calls():
    # the max-form 5(4) norm on operands where two quiet nans meet in a sum:
    # a fresh copy returns the one nan's bits, then, once CPython 3.11 runs
    # the sum through its float-specialized path, the other's
    a, b = SPECIAL[11], SPECIAL[13]  # payloads 0 and 1
    args = ((1.0, 1.0, 1.0), (a, b, 0.2), (0.2, 0.2, 0.2), 1e-10, 1e-12)
    assert _nans_meet(rms_norm_reference, *args)
    fresh = types.FunctionType(rms_norm_reference.__code__.replace(), rms_norm_reference.__globals__)
    seen = {_outcome(fresh, *args) for _ in range(64)}
    assert seen <= {struct.pack("<d", a), struct.pack("<d", b)}
    if (platform.python_implementation(), sys.version_info[:2], platform.machine()) == (
            "CPython", (3, 11), "x86_64"):
        assert len(seen) == 2


class _OneStep:
    """A stepper whose one step lands on the state end, at t = 1."""

    def __init__(self, end):
        self.t, self.t_span, self.n_accepted, self.y, self._end = 0.0, 1.0, 0, (0.2,) * 3, end

    def step(self):
        self.t, self.n_accepted, self.y = 1.0, 1, self._end


ABOVE = math.nextafter(VIOLATION_LIMIT, math.inf)


@DERANDOMIZED
@given(p=TRIPLES)
@example(p=(0.0, -0.0, 0.0))
@example(p=(-0.0, 0.5, 0.5))
@example(p=SPECIAL[11:14])
@example(p=(-VIOLATION_LIMIT, 0.5, 0.5))
@example(p=(-ABOVE, 0.5, 0.5))
@example(p=(0.2, SPECIAL[11], -ABOVE))
@example(p=(0.5, 0.5, VIOLATION_LIMIT))
@example(p=(0.5, 0.5, 2 * VIOLATION_LIMIT))
def test_the_loop_raises_exactly_beyond_the_violation_bound(p):
    # the loop's compares against the max form of the violation
    x, y, z = p
    worst = max(0.0, -x, -y, -z, ((x + y) + z) - 1.0)
    steps = _steps(_OneStep(p))
    if worst > VIOLATION_LIMIT:
        with pytest.raises(SimplexViolation) as info:
            next(steps)
        assert str(info.value) == f"simplex violation {worst:.3e} beyond {VIOLATION_LIMIT} at t=1"
    else:
        assert list(steps) == [None]


@DERANDOMIZED
@given(v=FLOATS, lo=FLOATS, hi=FLOATS)
@example(v=-0.0, lo=0.0, hi=1.0)
@example(v=0.0, lo=-1.0, hi=-0.0)
@example(v=SPECIAL[12], lo=SPECIAL[11], hi=1.0)
def test_clamp_is_bitwise_min_of_max(v, lo, hi):
    assert _outcome(_clamp, v, lo, hi) == _outcome(lambda: min(hi, max(lo, v)))
    lo, hi = DormandPrince45.MIN_FACTOR, DormandPrince45.MAX_FACTOR
    assert _outcome(_clamp, v, lo, hi) == _outcome(lambda: min(hi, max(lo, v)))


@DERANDOMIZED
@given(a=FLOATS, b=FLOATS)
def test_inline_compares_are_bitwise_max_and_min(a, b):
    # the spellings DormandPrince45.step uses inline
    assert _outcome(lambda: b if b > a else a) == _outcome(lambda: max(a, b))
    assert _outcome(lambda: b if b < a else a) == _outcome(lambda: min(a, b))


@DERANDOMIZED
@given(x=FLOATS)
def test_float_zero_start_is_bitwise_the_int_zero_start(x):
    assert _outcome(lambda: 0.0 + x) == _outcome(lambda: 0 + x)
