"""scan --slice evaluation against a reference evaluator.

parse_slice checks every node of the four expressions, makes each number a
float and lets Python's float arithmetic evaluate the compiled expressions.
The reference below walks the tree instead and applies each operator to
floats itself.  Both must give the same ParamVector bits, or raise the same
exception with the same message, in the same evaluation order."""

import ast

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from lv3.cli import parse_slice
from lv3.params import ParamVector

_REFERENCE_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def _reference_eval(node, names):
    if isinstance(node, ast.Expression):
        return _reference_eval(node.body, names)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise ValueError(f"unknown slice variable {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _REFERENCE_OPS:
        return _REFERENCE_OPS[type(node.op)](_reference_eval(node.left, names),
                                             _reference_eval(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _reference_eval(node.operand, names)
        return -value if isinstance(node.op, ast.USub) else value
    raise ValueError("unsupported slice expression")


def _outcome(evaluate):
    """The bits of the ParamVector evaluate() returns, or the type and
    message of what it raises."""
    try:
        return tuple(c.hex() for c in evaluate())
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# ints up to 21 digits (beyond 2**53, where float() rounds) and, one in ten,
# up to 401 digits (beyond the float range from 309); floats from 0 up to the
# largest double, and 1e400, which parses as inf
INTS = st.integers(0, 9).flatmap(lambda n: st.integers(0, 10**400 if n == 0 else 10**20))
CONSTANTS = st.one_of(
    INTS.map(str),
    st.sampled_from(("0", "1", "2", "3", "True", "0.5", "1e400", "1e-320")),
    st.floats(0.0, allow_infinity=False).map(repr),
)
LEAVES = st.one_of(CONSTANTS, st.sampled_from(("t", "s")))
EXPRESSIONS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(("+", "-", "*", "/", "**")), inner).map(
        lambda e: f"({e[0]}) {e[1]} ({e[2]})"),
    st.tuples(st.sampled_from(("-", "+")), inner).map(lambda e: f"{e[0]}({e[1]})"),
), max_leaves=8)
VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -8.0)),
                   st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
HUGE = str(10**400)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(parts=st.lists(EXPRESSIONS, min_size=4, max_size=4), t=VALUES, s=VALUES)
@example(parts=["2*s", "t**2", "-t+3", "s/2"], t=1.5, s=2.0)
@example(parts=["1/3", "2**-1", "+t", "7-3"], t=1.0, s=0.0)
@example(parts=["True", "1", "t", "1"], t=2.0, s=0.0)
@example(parts=["(-8)**t", "1", "1", "1"], t=0.5, s=0.0)
@example(parts=["1/(t-1)", "10**400", "2.5e308*t", "1"], t=1.0, s=0.0)
@example(parts=["10**400", "1/(t-1)", "1", "1"], t=1.0, s=0.0)
@example(parts=[f"-{HUGE}", "1", "1", "1"], t=1.0, s=0.0)
@example(parts=[f"{HUGE} - {HUGE}", "1", "1", "1"], t=1.0, s=0.0)
@example(parts=[f"(1/t) * {HUGE}", "1", "1", "1"], t=0.0, s=0.0)
@example(parts=[f"{HUGE} * (1/t)", "1", "1", "1"], t=0.0, s=0.0)
def test_slice_evaluation_matches_the_reference(parts, t, s):
    text = ",".join(parts)
    kfunc, uses_s = parse_slice(text)
    trees = [ast.parse(p.strip(), mode="eval") for p in parts]
    assert uses_s == any(isinstance(node, ast.Name) and node.id == "s"
                         for tree in trees for node in ast.walk(tree))
    names = {"t": t, "s": s} if uses_s else {"t": t}
    got = _outcome(lambda: kfunc(t, s) if uses_s else kfunc(t))
    want = _outcome(lambda: ParamVector(*(_reference_eval(tree, names) for tree in trees)))
    assert got == want
