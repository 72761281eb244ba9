"""The tree-walking evaluator: the referee of the generated code in
``hamiltonize.expr``.

``evaluate(e, r1)`` gives each node its value from its operands' by
recursion, with no code generated, and reports a domain error with the
message ``Expr.compile()`` gives: ``ExprDomainError`` naming the expression
and the point, where a value is undefined or not finite.  A node with no
``r1`` beneath it is worth NaN where its own value is undefined or not
finite, as generated code writes it.
"""

import functools
import math

from hamiltonize.expr import (
    Add,
    Const,
    Cos,
    Div,
    ExpF,
    Expr,
    Ln,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    Tan,
    Var,
    _domain_error,
)


def evaluate(e, r1: float) -> float:
    """The value of ``e`` at ``r1``, raising ExprDomainError outside the domain."""
    try:
        value = _value(e, r1)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _domain_error(e, r1, exc) from exc
    if not math.isfinite(value):
        raise _domain_error(e, r1)
    return value


def _value(e, r1):
    if _has_r1(e):
        return _RULES[type(e)](e, r1)
    try:
        value = _RULES[type(e)](e, r1)
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan
    return value if math.isfinite(value) else math.nan


@functools.cache
def _has_r1(e) -> bool:
    """Whether ``r1`` is beneath ``e``, by a walk over its distinct nodes."""
    seen, stack = {e}, [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return True
        operands = {f for f in vars(node).values() if isinstance(f, Expr)} - seen
        seen |= operands
        stack.extend(operands)
    return False


def _div(e, r1):
    den = _value(e.right, r1)
    if den == 0.0:
        raise ZeroDivisionError("division by zero")
    return _value(e.left, r1) / den


def _tan(e, r1):
    a = _value(e.arg, r1)
    if math.cos(a) == 0.0:
        raise ValueError("tan evaluated at a pole")
    return math.tan(a)


def _ln(e, r1):
    a = _value(e.arg, r1)
    if a <= 0.0:
        raise ValueError("ln of a non-positive number")
    return math.log(a)


def _sqrt(e, r1):
    a = _value(e.arg, r1)
    if a < 0.0:
        raise ValueError("sqrt of a negative number")
    return math.sqrt(a)


_RULES = {
    Const: lambda e, r1: e.value,
    Var: lambda e, r1: r1,
    Add: lambda e, r1: _value(e.left, r1) + _value(e.right, r1),
    Sub: lambda e, r1: _value(e.left, r1) - _value(e.right, r1),
    Mul: lambda e, r1: _value(e.left, r1) * _value(e.right, r1),
    Div: _div,
    Pow: lambda e, r1: _value(e.base, r1) ** e.exponent,
    Neg: lambda e, r1: -_value(e.arg, r1),
    Sin: lambda e, r1: math.sin(_value(e.arg, r1)),
    Cos: lambda e, r1: math.cos(_value(e.arg, r1)),
    Tan: _tan,
    ExpF: lambda e, r1: math.exp(_value(e.arg, r1)),
    Ln: _ln,
    Sqrt: _sqrt,
}
