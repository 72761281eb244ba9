import math
from functools import partial

import numpy as np
import pytest

from hamiltonize import (
    ExprDomainError,
    ExprParseError,
    builtin_system,
    first_associated,
    parse_expr,
    parse_system_file,
    second_associated,
    third_associated,
)
from hamiltonize.expr import (
    ARRAY_GLOBALS,
    LABEL_CHARS,
    Const,
    Expr,
    Ln,
    Neg,
    Sin,
    Tan,
    Var,
    assign,
    compile_table,
    define,
    read_float,
    read_int,
    series_table,
)
from hamiltonize.systems import BUILTIN_NAMES

from expr_oracle import evaluate


def fd_slope(e, r1, h=1e-6):
    return (evaluate(e, r1 + h) - evaluate(e, r1 - h)) / (2 * h)


def test_parse_variable_identity():
    assert isinstance(parse_expr("r1"), Var)
    assert evaluate(parse_expr("r1"), 0.7) == 0.7


def test_parse_negated_tangent_structure():
    e = parse_expr("-tan(r1)")
    assert isinstance(e, Neg)
    assert isinstance(e.arg, Tan)
    assert evaluate(e, 0.3) == pytest.approx(-math.tan(0.3), rel=1e-15)


def test_parse_polynomial_plus_sine_at_zero():
    assert evaluate(parse_expr("3*r1^2 + sin(r1)"), 0.0) == 0.0


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse_expr("-r1^2"), 3.0) == -9.0


def test_whitespace_insensitive():
    a = parse_expr(" 2 * cos( r1 ) + 1 ")
    b = parse_expr("2*cos(r1)+1")
    assert evaluate(a, 0.4) == evaluate(b, 0.4)


@pytest.mark.parametrize(
    "text", ["", "  ", "r1 +", "(r1", "r1^r1", "2 ** 3", "r1 r1"]
)
def test_syntax_errors_carry_position(text):
    with pytest.raises(ExprParseError) as err:
        parse_expr(text)
    assert err.value.position >= 0


def test_whitespace_between_any_two_tokens():
    assert parse_expr("r1 ^ - 2") is parse_expr("r1^-2")
    assert parse_expr("\tsqrt (r1)\t") is parse_expr("sqrt(r1)")


@pytest.mark.parametrize("text", ["r1^²", "١.٥*r1", "1e3١", "r1^٢", "2^1.5", "r1^2e1", "r1^+2"])
def test_numbers_and_exponents_are_ascii_digits(text):
    with pytest.raises(ExprParseError):
        parse_expr(text)


def test_exponents_are_bounded_by_their_size():
    """``r1^n`` parses for |n| up to ``MAX_EXPONENT``, leading zeros aside;
    beyond it, of any length, the parser refuses it before ``int()`` reads
    the digits."""
    assert parse_expr("r1^1000") is parse_expr("r1^0001000")
    parse_expr("r1^-1000")
    for exponent in ("1001", "-1001", "0" * 5000 + "1001", "1" + "0" * 400, "1" + "0" * 5000):
        with pytest.raises(ExprParseError, match="at most 1000"):
            parse_expr(f"r1^{exponent}")


@pytest.mark.parametrize("read,text,value", [
    (read_float, "1.5", 1.5), (read_float, " -2e3 ", -2000.0), (read_int, "+7", 7),
    (read_float, "inf", math.inf)])
def test_numbers_outside_expressions_read_ascii(read, text, value):
    assert read(text) == value


@pytest.mark.parametrize("read,text", [
    (read_float, "1_0"), (read_float, "١"), (read_float, "٠.٣"), (read_int, "١٠"),
    (read_int, "1_000"), (read_float, "1\u00a0"), (read_int, "abc")])
def test_numbers_outside_expressions_refuse_other_digits_and_underscores(read, text):
    """Each refusal is the ``ValueError`` of ``float()`` and ``int()``, under
    their names, so argparse's message stays ``invalid int value``."""
    with pytest.raises(ValueError):
        read(text)
    assert (read_float.__name__, read_int.__name__) == ("float", "int")


def test_parser_raises_only_parse_errors():
    """Over the grammar's tokens, tabs and the non-ASCII digits ² and ١, the
    parser gives a node or an ExprParseError, and always the error where a
    non-ASCII digit appears."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tokens = st.sampled_from(["r1", "0", "2", "13", ".", "e", "E", "+", "-", "*", "/", "^", "(",
                              ")", "sin", "ln", "sqrt", " ", "\t", "²", "١"])

    @hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(tokens, min_size=1, max_size=12).map("".join))
    def only_parse_errors(text):
        try:
            parse_expr(text)
        except ExprParseError:
            return
        assert "²" not in text and "١" not in text, text

    only_parse_errors()


def test_unknown_identifier_rejected():
    with pytest.raises(ExprParseError, match="unknown identifier"):
        parse_expr("sin(q)")
    with pytest.raises(ExprParseError, match="unknown identifier"):
        parse_expr("r2")


def test_error_labels_are_capped():
    """A domain error names at most LABEL_CHARS characters of a deep shared
    DAG (its tree text here is over a million characters); a short label is
    the expression's full text."""
    e = Var()
    for _ in range(16):
        e = Sin(e) + e  # the tree text doubles, the DAG grows by two nodes
    bad = Ln(e - e)
    prefix = str(bad)[:LABEL_CHARS]
    for fn in (partial(evaluate, bad), bad.compile()):
        with pytest.raises(ExprDomainError) as err:
            fn(0.5)
        assert str(err.value).endswith(f" while evaluating {prefix}... at r1=0.5")
        assert len(str(err.value)) < LABEL_CHARS + 100
    for fn in (partial(evaluate, e), e.compile()):
        with pytest.raises(ExprDomainError) as err:
            fn(float("nan"))
        assert str(err.value) == f"non-finite value of {str(e)[:LABEL_CHARS]}... at r1=nan"
    short = parse_expr("ln(r1 - 1)")
    for fn in (partial(evaluate, short), short.compile()):
        with pytest.raises(ExprDomainError) as err:
            fn(0.5)
        assert str(err.value).endswith(" while evaluating ln((r1 - 1.0)) at r1=0.5")


def test_diff_of_constant_and_variable():
    assert str(parse_expr("4.5").diff()) == "0.0"
    assert evaluate(parse_expr("r1").diff(), 123.0) == 1.0


def test_diff_negated_tangent_at_zero():
    assert evaluate(parse_expr("-tan(r1)").diff(), 0.0) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize(
    "text,lo,hi",
    [
        ("-tan(r1)", -1.3, 1.3),
        ("r1", -2.0, 2.0),
        ("-cos(r1)", -3.0, 3.0),
        ("-sin(r1)", -3.0, 3.0),
        ("exp(2*r1) / (1 + r1^2)", -1.0, 1.0),
        ("sqrt(1 + r1^2) * sin(r1)", -2.0, 2.0),
        ("ln(2 + cos(r1))", -3.0, 3.0),
    ],
)
def test_structural_derivative_matches_finite_differences(text, lo, hi, rng):
    e = parse_expr(text)
    d = e.diff()
    for r1 in rng.uniform(lo, hi, size=100):
        expected = fd_slope(e, r1)
        assert evaluate(d, r1) == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_second_and_third_derivatives_are_structural():
    e = parse_expr("-tan(r1)")
    d3 = e.diff().diff().diff()
    # d^3/dx^3 of -tan = -(6 tan^2 sec^2 + 2 sec^4) ... check against FD of d2
    d2 = e.diff().diff()
    assert evaluate(d3, 0.4) == pytest.approx(fd_slope(d2, 0.4), rel=1e-6)


@pytest.mark.parametrize(
    "text,point",
    [
        ("ln(r1)", -1.0),
        ("ln(r1)", 0.0),
        ("sqrt(r1)", -0.5),
        ("1/r1", 0.0),
        ("exp(r1)", 1e6),  # overflow reported, not inf
        ("r1^-1", 0.0),
    ],
)
def test_domain_errors_instead_of_nonfinite(text, point):
    with pytest.raises(ExprDomainError):
        evaluate(parse_expr(text), point)


def test_compiled_matches_interpreted(rng):
    texts = ["-tan(r1)", "exp(r1)*sin(r1) - r1^3/(2+cos(r1))", "sqrt(4+r1^2)"]
    for text in texts:
        e = parse_expr(text)
        fn = e.compile()
        for r1 in rng.uniform(-1.2, 1.2, size=50):
            assert fn(r1) == evaluate(e, r1)


def test_compiled_matches_interpreted_bit_for_bit_on_random_expressions():
    """Over random strings of the grammar, their derivatives and random
    points, the compiled function and the tree-walking oracle agree to the
    bit (the sign of zero included), or both raise ExprDomainError."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    numbers = st.sampled_from(["0", "1", "2", "0.5", "3.25", "1e-3", "7e300", "1e999"])
    leaves = st.one_of(st.just("r1"), numbers)

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner, st.booleans()).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.integers(-3, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda text: f"-{text}"),
        )

    points = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))

    def outcome(call, r1):
        try:
            return call(r1).hex()
        except ExprDomainError:
            return ExprDomainError

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.recursive(leaves, grow, max_leaves=12), points)
    def agree(text, r1):
        e = parse_expr(text)
        for node in (e, e.diff()):  # derivatives share subexpressions
            assert outcome(node.compile(), r1) == outcome(partial(evaluate, node), r1), text

    agree()


def test_tables_match_per_entry_compile_bit_for_bit_on_random_expressions():
    """Over random lists of grammar strings, with their derivatives (which
    share subexpressions across entries), a jointly compiled table gives
    each entry's own compiled value to the bit, or, where an entry fails,
    the message of the first failing entry."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    numbers = st.sampled_from(["0", "1", "2", "0.5", "3.25", "1e-3", "7e300", "1e999"])
    leaves = st.one_of(st.just("r1"), numbers)

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.integers(-3, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda text: f"-{text}"),
        )

    texts = st.lists(st.recursive(leaves, grow, max_leaves=10), min_size=1, max_size=4)
    points = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))

    def entries(exprs, r1):
        values = []
        for e in exprs:
            try:
                values.append(e.compile()(r1).hex())
            except ExprDomainError as exc:
                return str(exc)
        return values

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(texts, points)
    def agree(strings, r1):
        exprs = [x for text in strings for x in (parse_expr(text), parse_expr(text).diff())]
        try:
            got = [v.hex() for v in compile_table(exprs)(r1)]
        except ExprDomainError as exc:
            got = str(exc)
        assert got == entries(exprs, r1), strings

    agree()


def test_table_raises_the_first_failing_entrys_error():
    exprs = [parse_expr(text) for text in ("r1", "sqrt(r1)", "ln(r1)", "exp(-r1)")]
    table = compile_table(exprs)
    for r1, failing in ((-2.0, "sqrt(r1)"), (-800.0, "sqrt(r1)"), (0.0, "ln(r1)")):
        with pytest.raises(ExprDomainError) as alone:
            parse_expr(failing).compile()(r1)
        with pytest.raises(ExprDomainError) as joint:
            table(r1)
        assert str(joint.value) == str(alone.value)
    assert table(1.0) == (1.0, 1.0, 0.0, math.exp(-1.0))


def test_table_of_finite_values_whose_sum_overflows():
    """The one domain check sums the entries; an overflowing sum of finite
    values is a false alarm that still returns them."""
    table = compile_table([parse_expr("1e308 + r1"), parse_expr("1e308 * (1 + r1)")])
    assert table(0.0) == (1e308, 1e308)
    assert compile_table([Var()])(2.5) == (2.5,)


def test_table_compiles_its_fallback_once(monkeypatch):
    """Where the sum overflows, the entries are compiled alone on the first
    such call and reused after: a second call compiles nothing.  A failing
    entry still raises its own error."""
    compiled = []
    original = Expr.compile

    def counted(self):
        compiled.append(self)
        return original(self)

    monkeypatch.setattr(Expr, "compile", counted)
    exprs = [parse_expr("1e308 + r1"), parse_expr("1e308 * (1 + r1)")]
    table = compile_table(exprs)
    assert compiled == []
    assert table(0.5) == (1e308 + 0.5, 1e308 * 1.5)
    assert compiled == exprs
    assert table(0.5) == (1e308 + 0.5, 1e308 * 1.5)
    assert table(0.25) == (1e308 + 0.25, 1e308 * 1.25)
    assert compiled == exprs
    failing = compile_table([parse_expr("1e308 + r1"), parse_expr("ln(r1)")])
    for _ in range(2):
        with pytest.raises(ExprDomainError) as joint:
            failing(-0.5)
        with pytest.raises(ExprDomainError) as alone:
            original(parse_expr("ln(r1)"))(-0.5)
        assert str(joint.value) == str(alone.value)


def test_nodes_are_interned_and_derivatives_memoised():
    square = parse_expr("sin(r1)*sin(r1)")
    assert square.left is square.right
    e = parse_expr("-tan(r1) / (1 + r1^2)")
    assert e.diff() is e.diff()
    assert e.diff().diff() is parse_expr("-tan(r1) / (1 + r1^2)").diff().diff()
    assert Const(0.0) is not Const(-0.0)


def test_compiled_preserves_domain_errors():
    fn = parse_expr("ln(r1)").compile()
    with pytest.raises(ExprDomainError):
        fn(-2.0)


def test_overflowing_constant_fold_defers_to_evaluation():
    e = parse_expr("93^484")  # folding must not raise at parse time
    with pytest.raises(ExprDomainError):
        evaluate(e, 0.0)


def test_operator_building_and_constant_folding():
    x = Var()
    e = (x * 0 + 1 * x + 0) / 1
    assert isinstance(e, Var)
    assert evaluate(x**0, 5.0) == 1.0


def test_is_constant_detection():
    assert parse_expr("3.5").is_constant()
    assert parse_expr("2*3 + 1").is_constant()
    assert parse_expr("r1 - r1").is_constant()
    assert not parse_expr("r1*0.001").is_constant()


def test_constant_parts_are_emitted_as_literals():
    """A subexpression with no r1 in it keeps its nodes, and its label, but
    its code is one literal: its float value, or nan where that is undefined
    or not finite.  The constructors keep only the identities."""
    e = parse_expr("2*3*r1 + sin(0.2)")
    assert str(e) == "(((2.0 * 3.0) * r1) + sin(0.2))"
    assert assign([e], ["v"]) == [f"v = (((6.0) * r1) + ({math.sin(0.2)!r}))"]
    for text in ("ln(-1)", "1/0", "sqrt(-1)", "exp(1000)", "93^484", "1e999", "1e308*10"):
        assert assign([parse_expr(f"r1 + {text}")], ["v"]) == ["v = (r1 + (nan))"], text
    assert str(parse_expr("-0.1*cos(r1)")) == "(-0.1 * cos(r1))"
    assert str(parse_expr("1e999*0")) == "0.0"


def test_deep_single_use_chain_compiles_and_differentiates():
    """A chain of single-use nodes nested 300 deep, past the 200
    parentheses CPython's parser takes, compiles to the tree-walking oracle's
    value; a chain ten times deeper is differentiated without deep
    recursion, and its derivative compiles."""

    def chain(length):
        e = Var()
        for k in range(length):
            e = Sin(e) * Const(1.0 + k / 1000.0) + Var()
        return e

    e = chain(100)
    assert e.compile()(0.3) == evaluate(e, 0.3)
    assert compile_table([e, e.diff()])(0.3)[0] == evaluate(e, 0.3)
    assert math.isfinite(chain(1000).diff().compile()(0.3))


@pytest.mark.parametrize("text", [
    "sin(r1) * exp(r1)", "ln(2 + r1)", "sqrt(3 + r1^2)", "tan(r1) / (1 + r1^2)",
    "cos(2*r1)^-2", "exp(-r1^2) - ln(r1^2 + 1) * r1", "1 / sqrt(1 + sin(r1)^2)", "r1^3",
])
def test_series_table_gives_the_structural_derivatives(text):
    """Entry [k, 0] of the series is the k-th structural derivative over k!,
    to 1e-12 of the largest of the first nine, at points of [-1, 1]; a
    constant expression is a constant series."""
    e = parse_expr(text)
    points = np.linspace(-1.0, 1.0, 7)
    series = series_table([e, Const(2.5)])(points, 8)
    assert series.shape == (9, 2, 7)
    assert np.all(series[0, 1] == 2.5) and not np.any(series[1:, 1])
    derivatives, scale = [e], math.factorial
    for _ in range(8):
        derivatives.append(derivatives[-1].diff())
    expected = np.array([[d.compile()(x) / scale(k) for x in points]
                         for k, d in enumerate(derivatives)])
    tolerance = 1e-12 * np.max(np.abs(expected), axis=0)
    assert np.all(np.abs(series[:, 0] - expected) <= tolerance)


def test_series_table_marks_points_outside_the_domain():
    """A point outside an expression's domain gives non-finite entries, and
    the other points of its stack keep the values they have alone."""
    table = series_table([parse_expr("ln(r1) + sqrt(r1)"), parse_expr("1 / r1")])
    stack = table(np.array([-0.5, 0.0, 0.5, 2.0]), 4)
    assert not np.any(np.all(np.isfinite(stack[:, :, :2]), axis=(0, 1)))
    assert np.all(np.isfinite(stack[:, :, 2:]))
    for jdx, r1 in ((2, 0.5), (3, 2.0)):
        assert table(np.array([r1]), 4)[:, :, 0].tobytes() == stack[:, :, jdx].tobytes()


CONSTANT_PART_SPEC = "I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = 2*3*r1 + sin(0.2)\nnames = x,y,z\n"


def _floats(e, points):
    """``e`` alone as float code at each point, NaN where it raises."""
    fn = e.compile()
    values = []
    for r1 in points.tolist():
        try:
            values.append(fn(r1))
        except ExprDomainError:
            values.append(math.nan)
    return np.array(values)


def _arrays(e, points):
    """``e`` as array code over the whole stack of points."""
    fn = define("f(r1)", [*assign([e], ["v"]), "return v"], **ARRAY_GLOBALS)
    with np.errstate(all="ignore"):
        return np.broadcast_to(fn(points), points.shape)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "constant-part"])
def test_float_array_and_series_code_agree(name):
    """Every coefficient, weight and slope table, and each associated
    system's coefficients, run alone as float code, as array code and as
    an order-0 series at 17 points of [-1.3, 1.3]: the three are defined at
    the same points, and agree to 1e-12 of each entry's largest magnitude."""
    sys = builtin_system(name) if name in BUILTIN_NAMES else parse_system_file(CONSTANT_PART_SPEC)
    exprs = [*sys.nonholonomic_table.exprs, *sys.weight_table.exprs, *sys.a_prime_table.exprs,
             *(e for associated in (first_associated, second_associated, third_associated)
               for e in associated(sys).coeff_exprs)]
    points = np.linspace(-1.3, 1.3, 17)
    for e in exprs:
        floats = _floats(e, points)
        defined = np.isfinite(floats)
        tolerance = 1e-12 * np.abs(floats[defined]).max(initial=0.0)
        for other in (_arrays(e, points), series_table([e])(points, 0)[0, 0]):
            assert np.array_equal(np.isfinite(other), defined), str(e)
            assert np.all(np.abs(other[defined] - floats[defined]) <= tolerance), str(e)


def test_an_undefined_constant_part_is_nan_in_arrays_and_series():
    """ln(-1) is NaN in array and series code, and float code raises
    ExprDomainError on it, naming the value as not finite."""
    e = parse_expr("r1 + ln(-1)")
    points = np.linspace(-1.3, 1.3, 17)
    assert np.all(np.isnan(_arrays(e, points)))
    assert np.all(np.isnan(series_table([e])(points, 2)[0, 0]))
    with pytest.raises(ExprDomainError, match=r"^non-finite value of \(r1 \+ ln\(-1.0\)\)"):
        e.compile()(0.5)
