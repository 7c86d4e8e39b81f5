"""The compare and 0.0-start spellings of lv3.flow's per-step path give the
bits of the builtin forms they replace, over every float: signed zeros,
infinities, nans of either sign and with payloads, subnormals and ties."""

import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from lv3.flow import DormandPrince45, _clamp, _error_norm, _error_norm3, _violation3


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
DERANDOMIZED = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def _outcome(fun, *args):
    """The exact bits of what fun returns, or the type of what it raises."""
    try:
        return struct.pack("<d", fun(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@DERANDOMIZED
@given(err=TRIPLES, y=TRIPLES, y1=TRIPLES, rtol=FLOATS, atol=FLOATS)
@example(err=(1.0, 1.0, 1.0), y=(0.0, -0.0, 2.0), y1=(-0.0, 0.0, -2.0), rtol=1e-10, atol=1e-12)
@example(err=(1.0, 1.0, 1.0), y=SPECIAL[11:14], y1=SPECIAL[12:15], rtol=1e-10, atol=1e-12)
def test_error_norm3_is_bitwise_the_max_form(err, y, y1, rtol, atol):
    assert _outcome(_error_norm3, err, y, y1, rtol, atol) == _outcome(
        _error_norm, err, y, y1, rtol, atol)


@DERANDOMIZED
@given(p=TRIPLES)
@example(p=(0.0, -0.0, 0.0))
@example(p=(-0.0, 0.5, 0.5))
@example(p=SPECIAL[11:14])
def test_violation3_is_bitwise_the_max_form(p):
    x, y, z = p
    assert _outcome(_violation3, p) == _outcome(
        lambda: max(0.0, -x, -y, -z, ((x + y) + z) - 1.0))


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
