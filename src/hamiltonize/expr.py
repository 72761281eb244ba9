"""Symbolic expressions in the single variable ``r1``.

Constraint coefficients are supplied as strings over this grammar::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ('-'? integer))?
    atom   := number | 'r1' | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | tan | exp | ln | sqrt

    number  := [0-9.]+ ([eE] [+-]? [0-9]+)?
    integer := [0-9]+, at most MAX_EXPONENT

``^`` binds tighter than unary minus, so ``-r1^2`` parses as ``-(r1^2)``.
Exponents are integer literals.  A token is a number, a name
(``[A-Za-z_][A-Za-z0-9_]*``) or any other single character; digits are
ASCII, and whitespace is ignored between any two tokens.

Derivatives are structural (exact), never finite differences; downstream
tensors need coefficient derivatives up to fourth order and rank decisions
at 1e-10 thresholds would not survive numerical differentiation.

Expressions are a hash-consed DAG.  Each node is built once per structure
(children compared by identity, constants by ``repr`` so that ``0.0`` and
``-0.0`` stay apart), so structural equality is identity and hashing is
free.  ``diff`` is memoised per node, so a derivative reuses the nodes that
earlier ones built.  ``compile()`` walks the DAG once and emits a
straight-line Python function with one local per distinct node.  Both
tables live for the life of the process; they only ever map a structure to
its one immutable node, so sharing them between callers is unobservable.

``series_table()`` runs the same generated code on truncated Taylor series
(``Series``): one evaluation gives every derivative of the expressions up
to an order, at a whole stack of points, with no derivative built as an
expression (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).
This is what makes deep covariant towers affordable: their tiers are
derivative recurrences on a system's coefficients, and a tier built
symbolically grows with its order (the order-4 knife-edge tier is 1,219,225
tree nodes, 677 distinct ones), while a series of order k costs O(k^2)
operations per product.

Every float value comes from generated code.  ``compile()`` returns a plain
Python callable for one expression, ``compile_table()`` one call for
several, and ``splice()`` the same code, under the same check, as statements
for the functions the other modules generate (``define()``): the trajectory
right-hand sides, kept in parts (``define_rhs()``) for ``integrate`` to
inline, and the optimal-control functions.  Each raises
``ExprDomainError``, naming the expression and the point, where a value is
undefined (``ln`` of a non-positive number, division by zero, overflow) or
not finite, instead of returning it.  Series and array code (``assign()``,
``ARRAY_GLOBALS``, as the optimal-control check runs it, one member per
point) give non-finite entries there instead, and the caller decides.  A
constant part, with no ``r1`` in it, is one literal in every arithmetic,
``nan`` where it is undefined or not finite (``_emit``).
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (ExprDomainError, ExprParseError, SingularHessianError,
                     SingularVelocityError, weight_vanishes)

__all__ = ["Expr", "parse_expr"]

_NODES: dict[tuple, "Expr"] = {}  # structure key -> its one node
_DERIVATIVES: dict["Expr", "Expr"] = {}  # node -> its derivative


class _Interned(type):
    """Metaclass that returns the existing node for a known structure.

    Both tables stay outside the nodes, whose ``__dict__`` holds only their
    fields.
    """

    def __call__(cls, *fields):
        key = (cls, *(repr(f) if isinstance(f, float) else f for f in fields))
        node = _NODES.get(key)
        if node is None:  # setdefault: of two racing threads, one node wins
            node = _NODES.setdefault(key, super().__call__(*fields))
        return node


def _operands(node) -> list:
    return [f for f in vars(node).values() if isinstance(f, Expr)]


def _post_order(roots, done=()):
    """Each node of the DAG beneath ``roots`` once, after its operands: the
    last operand's first, and the first root's before the second's.  Nodes
    beneath the roots that are in ``done``, which may grow as the caller
    takes nodes, are skipped with all that only they reach.  A loop, so any
    depth can be walked."""
    seen = set()
    stack = list(reversed(roots))
    while stack:
        node = stack[-1]
        pending = [f for f in _operands(node) if f not in seen and f not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node not in seen:  # a node can be on the stack more than once
            seen.add(node)
            yield node


@dataclass(frozen=True, eq=False)
class Expr(metaclass=_Interned):
    """Base class for expression nodes.  Nodes are immutable and interned:
    equality and hashing are identity."""

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __rsub__(self, other):
        return _sub(_wrap(other), self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    def __pow__(self, n: int):
        return _pow(self, n)

    def __neg__(self):
        return _neg(self)

    def __str__(self):
        return _label(self)

    def diff(self) -> "Expr":
        """Structural derivative with respect to r1, built once per node.

        A class's ``_rule`` differentiates only the node's own operands.
        Those not yet done are differentiated first, in post-order, so every
        rule finds its operands memoised and a deeply nested expression does
        not reach the recursion limit."""
        d = _DERIVATIVES.get(self)
        if d is None:
            for node in _post_order((self,), _DERIVATIVES):
                _DERIVATIVES[node] = node._rule()
            d = _DERIVATIVES[self]
        return d

    def _rule(self) -> "Expr":
        raise NotImplementedError

    def compile(self):
        """Compile to a fast ``float -> float`` callable that raises
        ``ExprDomainError`` outside the domain or at a non-finite value.

        The label in an error message is built only when an error occurs.
        """
        lines, (value,) = _emit((self,))
        raw = define("raw(r1)", [*lines, f"return {value}"])

        def fn(r1: float) -> float:
            try:
                value = raw(r1)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise _domain_error(self, r1, exc) from exc
            if not math.isfinite(value):
                raise _domain_error(self, r1)
            return value

        return fn

    def is_constant(self) -> bool:
        """True when the derivative's code is the literal zero: no
        statements, and a value of 0.0 or -0.0."""
        lines, (value,) = _emit((self.diff(),))
        return not lines and value in ("(0.0)", "(-0.0)")


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float

    def _rule(self):
        return Const(0.0)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    def _rule(self):
        return Const(1.0)


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr

    def _rule(self):
        return _add(self.left.diff(), self.right.diff())


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def _rule(self):
        return _sub(self.left.diff(), self.right.diff())


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr

    def _rule(self):
        return _add(
            _mul(self.left.diff(), self.right),
            _mul(self.left, self.right.diff()),
        )


@dataclass(frozen=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr

    def _rule(self):
        # (u/v)' = (u' - (u/v) v') / v: the quotient is this node, so the
        # denominator stays v instead of squaring on every derivative
        return _div(_sub(self.left.diff(), _mul(self, self.right.diff())), self.right)


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def _rule(self):
        n = self.exponent
        return _mul(_mul(Const(float(n)), _pow(self.base, n - 1)), self.base.diff())


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr

    def _rule(self):
        return _neg(self.arg.diff())


@dataclass(frozen=True, eq=False)
class Sin(Expr):
    arg: Expr

    def _rule(self):
        return _mul(Cos(self.arg), self.arg.diff())


@dataclass(frozen=True, eq=False)
class Cos(Expr):
    arg: Expr

    def _rule(self):
        return _neg(_mul(Sin(self.arg), self.arg.diff()))


@dataclass(frozen=True, eq=False)
class Tan(Expr):
    arg: Expr

    def _rule(self):
        # tan' = 1 + tan^2
        return _mul(_add(Const(1.0), _pow(Tan(self.arg), 2)), self.arg.diff())


@dataclass(frozen=True, eq=False)
class ExpF(Expr):
    arg: Expr

    def _rule(self):
        return _mul(ExpF(self.arg), self.arg.diff())


@dataclass(frozen=True, eq=False)
class Ln(Expr):
    arg: Expr

    def _rule(self):
        return _div(self.arg.diff(), self.arg)


@dataclass(frozen=True, eq=False)
class Sqrt(Expr):
    arg: Expr

    def _rule(self):
        return _div(self.arg.diff(), _mul(Const(2.0), Sqrt(self.arg)))


# --- labels ---------------------------------------------------------------

# Text of each node around its fields, in declaration order (str of a float
# is its repr).
_TEXT = {
    Const: ("", ""), Var: ("r1",), Add: ("(", " + ", ")"), Sub: ("(", " - ", ")"),
    Mul: ("(", " * ", ")"), Div: ("(", " / ", ")"), Pow: ("(", "^", ")"), Neg: ("(-", ")"),
    Sin: ("sin(", ")"), Cos: ("cos(", ")"), Tan: ("tan(", ")"), ExpF: ("exp(", ")"),
    Ln: ("ln(", ")"), Sqrt: ("sqrt(", ")"),
}
LABEL_CHARS = 200  # an error message names at most this much of its expression


def _label(root: Expr, limit: int | None = None) -> str:
    """The expression written out as a tree.  With ``limit``, the text stops
    after that many characters and ends in ``...``, so labelling a deep
    shared DAG costs the limit, not the size of its tree."""
    pieces: list[str] = []
    size = 0
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, Expr):
            text = _TEXT[type(item)]
            seq = [text[0]]
            for f, after in zip(vars(item).values(), text[1:]):
                seq += [f if isinstance(f, Expr) else str(f), after]
            stack.extend(reversed(seq))
            continue
        pieces.append(item)
        size += len(item)
        if limit is not None and size > limit:
            return "".join(pieces)[:limit] + "..."
    return "".join(pieces)


def _domain_error(e: Expr, r1: float, exc: Exception | None = None) -> ExprDomainError:
    label = _label(e, LABEL_CHARS)
    if exc is None:
        return ExprDomainError(f"non-finite value of {label} at r1={r1!r}")
    return ExprDomainError(f"{exc} while evaluating {label} at r1={r1!r}")


# --- compiler -------------------------------------------------------------

# Python source of each node but Var, over its fields in declaration order.
_PY = {
    Const: "{}", Add: "{} + {}", Sub: "{} - {}", Mul: "{} * {}", Div: "{} / {}",
    Pow: "{} ** {}", Neg: "-{}", Sin: "sin({})", Cos: "cos({})", Tan: "tan({})",
    ExpF: "exp({})", Ln: "log({})", Sqrt: "sqrt({})",
}
# The parentheses each node's source adds around its operands.  Inlined
# text nests at most _MAX_NEST deep (plus one node's own): CPython's parser
# stops at 200.
_PY_NEST = {cls: 1 + source.count("(") for cls, source in _PY.items()}
_MAX_NEST = 100
# The namespace of all generated code: the functions, and the errors that
# its guards raise.
_PY_GLOBALS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
               "log": math.log, "sqrt": math.sqrt, "inf": math.inf, "nan": math.nan,
               "isfinite": math.isfinite, "weight_vanishes": weight_vanishes,
               "SingularVelocityError": SingularVelocityError,
               "SingularHessianError": SingularHessianError}
# The same functions on numpy arrays, member by member: a value outside a
# function's domain is non-finite instead of an error, and the caller masks it.
ARRAY_GLOBALS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
                 "sqrt": np.sqrt}


def _emit(roots: tuple, inline: bool = True) -> tuple[list[str], list[str]]:
    """Straight-line code for the expressions ``roots`` over a local ``r1``:
    statements that compute each distinct node once, and the source of each
    root's value.  A node used by several parents or roots gets a local
    ``t<i>``, in dependency order; a node used once is inlined into its
    parent, unless its text would nest more than ``_MAX_NEST`` parentheses
    deep or ``inline`` is false, when it gets a local too.  Code around the
    statements names no ``t<i>`` of its own.  A node with no ``r1`` beneath
    it is a literal: its value in Python floats, worked out here, or ``nan``
    where that raises or is not finite, so no arithmetic raises on it."""
    order = list(_post_order(roots))
    uses = Counter(roots)
    for node in order:
        uses.update(_operands(node))
    text: dict[Expr, str] = {}
    nest: dict[Expr, int] = {}  # parenthesis depth of each text, where not 0
    constant: set[Expr] = set()
    lines = []
    for node in order:
        fields = tuple(vars(node).values())
        if isinstance(node, Var):
            text[node] = "r1"
            continue
        operands = (text[f] if isinstance(f, Expr) else repr(f) for f in fields)
        text[node] = f"({_PY[type(node)].format(*operands)})"
        if all(f in constant for f in fields if isinstance(f, Expr)):  # no r1 beneath
            try:
                value = node.value if isinstance(node, Const) else eval(text[node], _PY_GLOBALS)
            except (ValueError, ZeroDivisionError, OverflowError):
                value = math.nan
            text[node], nest[node] = f"({value if math.isfinite(value) else math.nan!r})", 1
            constant.add(node)
            continue
        if uses[node] == 1:
            nest[node] = _PY_NEST[type(node)] + max([nest.get(f, 0) for f in fields])
        if not inline or uses[node] > 1 or nest[node] > _MAX_NEST:
            lines.append(f"t{len(lines)} = {text[node]}")
            text[node], nest[node] = f"t{len(lines) - 1}", 0
    return lines, [text[root] for root in roots]


def depth(root: Expr) -> int:
    """Levels of nesting of an expression: 1 for a leaf, else one more than
    its deepest operand."""
    levels: dict[Expr, int] = {}
    for node in _post_order((root,)):
        levels[node] = 1 + max((levels[f] for f in _operands(node)), default=0)
    return levels[root]


def times(c: float, x: str) -> str:
    """Source of the constant ``c`` times the source ``x``, a product or a
    name: ``x`` alone where ``c`` is 1.0, by which a float (not a complex)
    multiplies exactly."""
    return x if c == 1.0 else f"({c!r}) * {x}"


def over(x: str, c: float) -> str:
    """Source of ``x``, the source of a product or a name, over the
    constant ``c``: ``x`` alone where ``c`` is 1.0, by which a float (not a
    complex) divides exactly."""
    return x if c == 1.0 else f"{x} / ({c!r})"


def define(signature: str, lines, **bindings):
    """Execute ``def <signature>:`` over the statements ``lines`` in the
    namespace of compiled expressions (``_PY_GLOBALS``, plus ``bindings``)
    and return the function."""
    source = f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)
    namespace = dict(_PY_GLOBALS, **bindings)
    exec(source, namespace)
    return namespace[signature.partition("(")[0]]


def state_names(n: int, velocities: int, letter: str = "u") -> list[str]:
    """The locals that a trajectory state of ``n`` coordinates unpacks into:
    r1, q1..q<n-1>, then ``velocities`` of u<b> or p<b> (``letter``)."""
    return ["r1", *(f"q{b}" for b in range(1, n)), *(f"{letter}{b}" for b in range(velocities))]


# A generated right-hand side ``rhs(t, y)`` in parts: y unpacked into the
# locals ``state`` (``state_names``), the statements ``head``, ``table``
# (``splice`` lines, guards on what they set and values of it, reading no
# other local but r1), ``fixed`` and ``body``, the returned list of
# ``outputs``, all in the namespace ``bindings``.  ``fixed`` reads only the
# state locals whose output is the literal 0.0 and gives the same values at y
# as at y + 0.0 (their squares), so a program stepping y runs it at each
# step's first stage only.
RhsParts = namedtuple("RhsParts", "state head table body outputs fixed bindings")


def define_rhs(state, head, table, body, outputs, fixed=(), /, **bindings):
    """``rhs(t, y)`` from its parts, which it carries as ``parts`` (as a
    table carries ``exprs``), so callers can inline them."""
    parts = RhsParts(*map(tuple, (state, head, table, body, outputs, fixed)), bindings)
    rhs = define("rhs(t, y)", [f"{', '.join(parts.state)}, = y", *parts.head, *parts.table,
                               *parts.fixed, *parts.body, f"return [{', '.join(parts.outputs)}]"],
                 **bindings)
    rhs.parts = parts
    return rhs


def assign(exprs, names, inline: bool = True) -> list[str]:
    """Statements that set the locals ``names`` to the values of ``exprs`` at
    the local ``r1``: their straight-line code, with no domain check."""
    lines, values = _emit(tuple(exprs), inline)
    return [*lines, *(f"{name} = {value}" for name, value in zip(names, values))]


def splice(exprs, names, fallback: str) -> list[str]:
    """Statements that set the locals ``names`` to the values of ``exprs`` at
    the local ``r1``, bit for bit each one's ``compile()``: their
    straight-line code (``assign``) under one domain check.  Where that
    check fails, they set them from ``fallback``, the source of a call that
    returns the same values or raises the first failing expression's own
    error: a compiled table of the same expressions."""
    if not names:
        return []
    return ["try:",
            *(f"    {line}" for line in assign(exprs, names)),
            f"    if not isfinite({' + '.join(names)}):",
            "        raise ValueError",
            "except (ValueError, ZeroDivisionError, OverflowError):",
            f"    {', '.join(names)}, = {fallback}"]


def compile_table(exprs):
    """Compile expressions jointly: ``r1 -> tuple`` of their values, bit for
    bit each one's ``compile()``, under one domain check (``splice``).  Where
    that fails, each is run alone, in order: the first to fail raises its
    own error, exactly as alone.  The expressions are compiled alone once
    per table, on the first call that needs them.  The table's ``exprs``
    holds the expressions, so generated code can splice them in and fall
    back on the table."""
    exprs = tuple(exprs)
    names = [f"v{i}" for i in range(len(exprs))]

    @functools.cache
    def compiled():
        return [e.compile() for e in exprs]

    table = define("table(r1)", [*splice(exprs, names, "alone(r1)"),
                                 "return (" + "".join(f"{name}, " for name in names) + ")"],
                   alone=lambda r1: tuple(fn(r1) for fn in compiled()))
    table.exprs = exprs
    return table


# --- truncated Taylor series ------------------------------------------------


class Series:
    """A truncated Taylor series in r1 at a stack of points: ``c[k]`` holds
    f^(k)(r1) / k! for k < len(c), one entry per point along the trailing
    axes.  Arithmetic with another series keeps the shorter length; a float
    is a constant.  No operation mixes two points, so a point's series does
    not depend on the others in its stack.

    A product sums its terms in pairs, a_i b_(k-i) + a_(k-i) b_i over
    i < k-i, then the middle term, in that order, so ``a*b`` and ``b*a``
    give the same bits and a difference of equal products is exactly 0 at
    every order.  Every other sum runs in index order.  Points outside an
    operation's domain give non-finite entries, not errors."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def _pair(self, other):
        if not isinstance(other, Series):
            return self.c, other
        size = min(len(self.c), len(other.c))
        return self.c[:size], other.c[:size]

    def __add__(self, other):
        a, b = self._pair(other)
        if isinstance(other, Series):
            return Series(a + b)
        c = a.copy()
        c[0] += b
        return Series(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Series(-self.c)

    def __mul__(self, other):
        a, b = self._pair(other)
        return Series(_product(a, b) if isinstance(other, Series) else a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        return Series(_quotient(a, b) if isinstance(other, Series) else a / b)

    def __rtruediv__(self, other):
        numerator = np.zeros_like(self.c)
        numerator[0] = other
        return Series(_quotient(numerator, self.c))

    def __pow__(self, n: int):
        if n < 0:
            return 1.0 / self ** -n
        power = self
        for _ in range(n - 1):
            power = power * self
        return power

    def diff(self) -> "Series":
        """The derivative, one order shorter: a_k becomes (k+1) a_(k+1)."""
        return Series(self.c[1:] * _orders(self.c, 1, len(self.c)))


def _orders(c, start: int, stop: int):
    """start .. stop-1 as a column against the trailing axes of ``c``."""
    return np.arange(start, stop, dtype=float).reshape(-1, *(1,) * (c.ndim - 1))


def _in_order(terms):
    """The sum over the leading axis, added first to last at every point
    (``np.sum`` may pair its terms differently for different stack sizes)."""
    return np.add.accumulate(terms)[-1]


@functools.cache
def _pair_index(size: int) -> tuple[np.ndarray, np.ndarray]:
    """For each order k < size, where its pairs read the flattened outer
    product of two series padded by a zero to size + 1: (i, k-i) and
    (k-i, i) for i < k-i, then (k/2, k/2) and the zero, then zero pairs."""
    zero = size * (size + 1) + size
    width = size // 2 + 1
    first = np.full((size, width), zero)
    second = np.full((size, width), zero)
    for k in range(size):
        for i in range((k + 1) // 2):
            first[k, i], second[k, i] = i * (size + 1) + k - i, (k - i) * (size + 1) + i
        if k % 2 == 0:
            first[k, k // 2] = (k // 2) * (size + 2)
    return first, second


def _product(a, b):
    size = len(a)
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    outer = np.zeros((size + 1, size + 1, *shape))
    np.multiply(a[:, None], b[None, :], out=outer[:size, :size])
    outer = outer.reshape(-1, *shape)
    first, second = _pair_index(size)
    return np.add.accumulate(outer[first] + outer[second], axis=1)[:, -1]


def _quotient(a, b):
    """The series c with b c = a: c_k = (a_k - sum_(i=1..k) b_i c_(k-i)) / b_0."""
    c = np.empty((len(a), *np.broadcast_shapes(a.shape[1:], b.shape[1:])))
    c[0] = a[0] / b[0]
    for k in range(1, len(c)):
        c[k] = (a[k] - _in_order(b[1:k + 1] * c[k - 1::-1])) / b[0]
    return c


def _exp(a):
    # e_k = (1/k) sum_(j=1..k) j a_j e_(k-j)
    v = np.empty_like(a)
    v[0] = np.exp(a[0])
    ja = a[1:] * _orders(a, 1, len(a))
    for k in range(1, len(a)):
        v[k] = _in_order(ja[:k] * v[k - 1::-1]) / k
    return v


def _sin_cos(a):
    """The series of sin(a) and cos(a), each the other's slope."""
    s, c = np.empty_like(a), np.empty_like(a)
    s[0], c[0] = np.sin(a[0]), np.cos(a[0])
    ja = a[1:] * _orders(a, 1, len(a))
    for k in range(1, len(a)):
        s[k] = _in_order(ja[:k] * c[k - 1::-1]) / k
        c[k] = -_in_order(ja[:k] * s[k - 1::-1]) / k
    return s, c


def _log(a):
    # log(a)' = a' / a
    v = np.empty_like(a)
    v[0] = np.log(a[0])
    orders = _orders(a, 1, len(a))
    v[1:] = _quotient(a[1:] * orders, a[:-1]) / orders
    return v


def _sqrt(a):
    # r_k = (a_k - sum_(j=1..k-1) r_j r_(k-j)) / (2 r_0)
    v = np.empty_like(a)
    v[0] = np.sqrt(a[0])
    for k in range(1, len(a)):
        inner = _in_order(v[1:k] * v[k - 1:0:-1]) if k > 1 else 0.0
        v[k] = (a[k] - inner) / (2.0 * v[0])
    return v


def _series_function(series):
    """A function of the generated code: ``series`` on its argument's coefficients."""
    return lambda x: Series(series(x.c))


_SERIES_GLOBALS = {
    "sin": _series_function(lambda a: _sin_cos(a)[0]),
    "cos": _series_function(lambda a: _sin_cos(a)[1]),
    "tan": _series_function(lambda a: _quotient(*_sin_cos(a))),
    "exp": _series_function(_exp),
    "log": _series_function(_log),
    "sqrt": _series_function(_sqrt),
}


def series_table(exprs):
    """Compile expressions for their truncated Taylor series: ``(r1, order)
    -> array`` of shape ``(order + 1, len(exprs), *r1.shape)``, entry
    ``[k, i]`` the k-th derivative of expression i over k!.  The generated
    code is that of ``compile_table``, run with series arithmetic.  Entries
    are non-finite at points outside an expression's domain."""
    exprs = tuple(exprs)
    lines, values = _emit(exprs)
    program = define("series(r1)", [*lines, f"return [{', '.join(values)}]"],
                     **_SERIES_GLOBALS)

    def table(r1, order: int):
        r1 = np.asarray(r1, dtype=float)
        var = np.zeros((order + 1, *r1.shape))
        var[0] = r1
        var[1:2] = 1.0
        out = np.zeros((order + 1, len(exprs), *r1.shape))
        with np.errstate(all="ignore"):
            for i, value in enumerate(program(Series(var))):
                if isinstance(value, Series):
                    out[:, i] = value.c
                else:
                    out[0, i] = value
        return out

    return table


# --- smart constructors -------------------------------------------------
# Only identities, which keep derivative trees from exploding; constant parts
# keep their nodes and are worked out where their code is emitted.

def _wrap(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(base: Expr, n) -> Expr:
    if not isinstance(n, int):
        raise TypeError("exponents must be integers")
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    return Pow(base, n)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.arg
    if isinstance(a, Const):  # a negative literal stays one: -0.1*cos(r1) keeps its node
        return Const(-a.value)
    return Neg(a)


def const(value: float) -> Expr:
    return Const(float(value))


def var() -> Expr:
    return Var()


# --- parser ---------------------------------------------------------------

_FUNCS = {"sin": Sin, "cos": Cos, "tan": Tan, "exp": ExpF, "ln": Ln, "sqrt": Sqrt}


# One token: a number, a name, or any other single character.  Digits and
# letters are ASCII; whitespace between two tokens is skipped.
_TOKEN = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|\S")
# The binary operators of each level, loosest first, and their constructors.
_BINARY = ({"+": _add, "-": _sub}, {"*": _mul, "/": _div})
MAX_EXPONENT = 1000  # |n| of r1^n; certify: 0.4 s at n = 1,000, 18 s at 100,000 (2-vCPU VM)


def _ascii(kind):
    """``kind`` (``float`` or ``int``) on ASCII text without ``_`` only, the
    rule for every number outside expressions; ``nan`` and ``inf`` pass."""
    def read(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"not an ASCII number: {text!r}")
        return kind(text)

    read.__name__ = kind.__name__  # argparse names a flag's type by it
    return read


read_float, read_int = _ascii(float), _ascii(int)


class _Tokens:
    """A cursor over the tokens of a text, each with its position; the
    last is None, at the end of the text."""

    def __init__(self, text: str):
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.tokens.append((None, len(text)))
        self.index = 0

    def peek(self) -> str | None:
        return self.tokens[self.index][0]

    @property
    def pos(self) -> int:
        return self.tokens[self.index][1]

    def take(self) -> str | None:
        self.index += 1
        return self.tokens[self.index - 1][0]

    def expect(self, token: str):
        if self.peek() != token:
            raise ExprParseError(f"expected {token!r}, found {self.peek()!r}", self.pos)
        self.index += 1


def parse_expr(text: str) -> Expr:
    """Parse an expression string over the grammar in the module docstring."""
    if not isinstance(text, str) or not text.strip():
        raise ExprParseError("empty expression", 0)
    toks = _Tokens(text)
    node = _parse_binary(toks)
    if toks.peek() is not None:
        raise ExprParseError(f"unexpected {toks.peek()!r}", toks.pos)
    return node


def _parse_binary(toks: _Tokens, level: int = 0) -> Expr:
    """A sum (level 0) of terms (level 1) of unaries (level 2): operands
    joined left to right by their level's operators.  Each level is one
    stack frame, so a parenthesis nests five (three levels, power, atom):
    that sets how deep a text may nest before the recursion limit."""
    if level == len(_BINARY):
        if toks.peek() == "-":
            toks.take()
            return _neg(_parse_binary(toks, level))
        return _parse_power(toks)
    node = _parse_binary(toks, level + 1)
    while toks.peek() in _BINARY[level]:
        node = _BINARY[level][toks.take()](node, _parse_binary(toks, level + 1))
    return node


def _parse_power(toks: _Tokens) -> Expr:
    base = _parse_atom(toks)
    if toks.peek() != "^":
        return base
    toks.take()
    start = toks.pos
    sign = toks.take() if toks.peek() == "-" else ""
    digits = toks.take()
    if not re.fullmatch("[0-9]+", digits or ""):
        raise ExprParseError("expected an integer exponent", start)
    if float(digits) > MAX_EXPONENT:  # float(): int() reads at most 4,300 digits
        raise ExprParseError(f"an exponent's magnitude must be at most {MAX_EXPONENT}", start)
    return _pow(base, int(float(sign + digits)))


def _parse_atom(toks: _Tokens) -> Expr:
    start, token = toks.pos, toks.take()
    if token is None:
        raise ExprParseError("unexpected end of input", start)
    if token == "(":
        node = _parse_binary(toks)
        toks.expect(")")
        return node
    if token[0] in "0123456789.":
        try:
            return Const(float(token))
        except ValueError:
            raise ExprParseError("malformed number", start) from None
    if token[0].isalpha() or token[0] == "_":
        if token == "r1":
            return Var()
        if token in _FUNCS:
            toks.expect("(")
            arg = _parse_binary(toks)
            toks.expect(")")
            return _FUNCS[token](arg)
        raise ExprParseError(f"unknown identifier {token!r}", start)
    raise ExprParseError(f"unexpected {token!r}", start)
