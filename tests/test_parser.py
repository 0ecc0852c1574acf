"""Grammar, name resolution, print/parse round-trips, the parser's
shortcuts against full SkewPoly arithmetic, its token scan against
``tokenize``, and the printer against the one it replaced."""

import functools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skewpoly import (
    DdxDer,
    IdentityAut,
    InnerDer,
    OreRing,
    inner_aut,
    parser,
    q_shift,
    zero_der,
)
from skewpoly.errors import (
    DivisionByZero,
    IncompatibleMaps,
    ParseError,
    SkewError,
    UnknownScalarLiteral,
    UnknownVariable,
)
from skewpoly.ore import SkewPoly, evaluation_context
from skewpoly.parser import MAX_EXPONENT, parse_expr, parse_scalar, tokenize
from skewpoly.scalars import HQ, Q, QX, Quaternion, RationalFunction

from conftest import random_poly


class TestParsing:
    def test_defining_relation_applied(self, weyl):
        assert str(parse_expr("t*x", weyl)) == "x*t + 1"

    def test_square(self, weyl):
        f = parse_expr("(t+1)^2", weyl)
        t = weyl.variable(0)
        assert f == t * t + t.scale_left(QX.from_int(2)) + weyl.one()

    def test_rational_literal(self, weyl):
        f = parse_expr("1/2*t", weyl)
        assert f == weyl.monomial((1,), QX.from_coeffs(("1/2",)))

    def test_right_division(self, weyl):
        assert parse_expr("t/2", weyl) == parse_expr("1/2*t", weyl)

    def test_unary_minus(self, weyl):
        t = weyl.variable(0)
        assert parse_expr("-t^2", weyl) == -(t * t)
        assert parse_expr("--t", weyl) == t

    def test_scalar_power(self, weyl):
        assert parse_expr("2^3", weyl) == weyl.constant(QX.from_int(8))

    def test_rational_function_coefficients(self, weyl):
        f = parse_expr("((x+1)/(x^2))*t", weyl)
        coeff = QX.from_coeffs((1, 1)) * QX.from_coeffs((0, 0, 1)).inv()
        assert f == weyl.monomial((1,), coeff)

    def test_quaternion_units(self, quat1):
        f = parse_expr("i*t + j", quat1)
        assert f == quat1.monomial((1,), HQ.i()) + quat1.constant(HQ.j())

    def test_whitespace_insignificant(self, weyl):
        assert parse_expr(" t *x\n+ 1 ", weyl) == parse_expr("t*x+1", weyl)


class TestErrors:
    def test_trailing_operator(self, weyl):
        with pytest.raises(ParseError):
            parse_expr("t*", weyl)

    def test_unbalanced_paren(self, weyl):
        with pytest.raises(ParseError):
            parse_expr("(t+1", weyl)

    def test_unknown_variable(self, weyl):
        with pytest.raises(UnknownVariable):
            parse_expr("t*y", weyl)

    def test_unknown_scalar_literal(self, weyl, rat1):
        with pytest.raises(UnknownScalarLiteral):
            parse_expr("i*t", weyl)
        with pytest.raises(UnknownScalarLiteral):
            parse_expr("x", rat1)

    def test_division_by_polynomial(self, weyl):
        with pytest.raises(ParseError):
            parse_expr("1/t", weyl)

    def test_division_by_zero(self, weyl):
        with pytest.raises(DivisionByZero):
            parse_expr("1/0", weyl)

    def test_bad_exponent(self, weyl):
        with pytest.raises(ParseError):
            parse_expr("t^-2", weyl)

    def test_position_reported(self, weyl):
        with pytest.raises(ParseError) as info:
            parse_expr("t +\n *", weyl)
        assert info.value.line == 2

    def test_exponent_bound(self, weyl):
        t = weyl.variable(0)
        assert parse_expr(f"t^{MAX_EXPONENT}", weyl) == t ** MAX_EXPONENT
        with pytest.raises(ParseError) as info:
            parse_expr(f"t +\n (x + 1)^{MAX_EXPONENT + 1}", weyl)
        assert (info.value.line, info.value.column) == (2, 10)
        with pytest.raises(ParseError):
            parse_expr("x^2000", weyl)

    def test_stray_character(self, weyl):
        with pytest.raises(ParseError):
            parse_expr("t $ 1", weyl)


@pytest.fixture(scope="module")
def tau3():
    """A ring whose variable's name is not ASCII."""
    return OreRing(Q, [("τ٣", IdentityAut(), zero_der())])


class TestErrorPositions:
    """Every error path of the parser: exception type, message and the line
    and column it is reported at."""

    @pytest.mark.parametrize("fixture, src, error, message, line, column", [
        ("weyl", "t $ 1", ParseError, "unexpected character '$'", 1, 3),
        ("weyl", "t +\n  x $", ParseError, "unexpected character '$'", 2, 5),
        ("weyl", "t t", ParseError, "unexpected 't'", 1, 3),
        ("weyl", "t)", ParseError, "unexpected ')'", 1, 2),
        ("weyl", "2 ^ 0 ^ 1", ParseError, "unexpected '^'", 1, 7),
        ("weyl", "x +\n 3 t", ParseError, "unexpected 't'", 2, 4),
        ("weyl", "()", ParseError, "expected a number, name or '('", 1, 2),
        ("weyl", "t *\n /2", ParseError, "expected a number, name or '('",
         2, 2),
        ("weyl", "(t +\n 1", ParseError, "expected ')'", 2, 3),
        ("weyl", "(t + 1\n", ParseError, "expected ')'", 2, 1),
        ("weyl", "((t)", ParseError, "expected ')'", 1, 5),
        ("weyl", "t^x", ParseError, "exponent must be a natural number",
         1, 3),
        ("weyl", "t^-2", ParseError, "exponent must be a natural number",
         1, 3),
        ("weyl", "t^\n(2)", ParseError, "exponent must be a natural number",
         2, 1),
        ("weyl", f"t^{MAX_EXPONENT + 1}", ParseError,
         f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}", 1, 3),
        ("weyl", f"t +\n (x + 1)^{MAX_EXPONENT + 1}", ParseError,
         f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}", 2, 10),
        ("weyl", "1/t", ParseError, "can only divide by a scalar", 1, 2),
        ("weyl", "1 +\n x / (t + 1)", ParseError,
         "can only divide by a scalar", 2, 4),
        ("weyl", "y", UnknownVariable, "unknown name 'y'", 1, 1),
        ("weyl", "t +\n  2*t2", UnknownVariable, "unknown name 't2'", 2, 5),
        ("weyl", "t *\n  i", UnknownScalarLiteral,
         "literal 'i' is not available over Qx", 2, 3),
        ("rat1", "t - x", UnknownScalarLiteral,
         "literal 'x' is not available over Q", 1, 5),
        ("quat1", "t*\nx", UnknownScalarLiteral,
         "literal 'x' is not available over HQ", 2, 1),
        ("weyl", "", ParseError, "unexpected end of input", 1, 1),
        ("weyl", "t +", ParseError, "unexpected end of input", 1, 4),
        ("weyl", "t *\n", ParseError, "unexpected end of input", 2, 1),
        ("weyl", "(", ParseError, "unexpected end of input", 1, 2),
        ("weyl", "--", ParseError, "unexpected end of input", 1, 3),
        ("weyl", "t^", ParseError, "exponent must be a natural number", 1, 3),
        # whitespace other than "\n" starts no line; non-ASCII text has its
        # positions counted in characters
        ("weyl", "t +\r\n 3 t", ParseError, "unexpected 't'", 2, 4),
        ("weyl", "t\x0b+ 1 *\n\x0c y", UnknownVariable, "unknown name 'y'",
         2, 3),
        ("weyl", f"x\x1c*\n t^{MAX_EXPONENT + 1}", ParseError,
         f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}", 2, 4),
        ("weyl", "\x0b\x0c\x1c\r\n(t", ParseError, "expected ')'", 2, 3),
        ("tau3", "τ٣ +\n y", UnknownVariable, "unknown name 'y'", 2, 2),
        ("tau3", "τ٣ +\n 2 τ٣", ParseError, "unexpected 'τ٣'", 2, 4),
        # a factor t^k that the in-place read leaves to the general path
        ("weyl", f"2*t^{MAX_EXPONENT + 1}", ParseError,
         f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}", 1, 5),
        ("weyl", "2*t^x", ParseError, "exponent must be a natural number",
         1, 5),
        ("weyl", "x*t^", ParseError, "exponent must be a natural number",
         1, 5),
        ("weyl", "2*t^2^3", ParseError, "unexpected '^'", 1, 6),
    ])
    def test_error_table(self, fixture, src, error, message, line, column,
                         request):
        ring = request.getfixturevalue(fixture)
        with pytest.raises(ParseError) as info:
            parse_expr(src, ring)
        assert type(info.value) is error
        assert str(info.value) == f"{message} (line {line}, column {column})"
        assert (info.value.line, info.value.column) == (line, column)


class TestNesting:
    """Parentheses nest at most ``MAX_DEPTH`` deep; sign chains are a loop,
    so no input reaches Python's recursion limit."""

    def test_depth_bound(self, weyl):
        depth = parser.MAX_DEPTH
        t = weyl.variable(0)
        assert parse_expr("(" * depth + "t" + ")" * depth, weyl) == t
        src = "x +\n " + "(" * (depth + 1) + "t" + ")" * (depth + 1)
        with pytest.raises(ParseError) as info:
            parse_expr(src, weyl)
        assert type(info.value) is ParseError
        assert str(info.value) == (f"parentheses nested deeper than {depth}"
                                   f" (line 2, column {depth + 2})")

    def test_two_hundred_parentheses(self, weyl):
        with pytest.raises(ParseError) as info:
            parse_expr("(" * 200 + "t" + ")" * 200, weyl)
        column = parser.MAX_DEPTH + 1  # the first "(" past the bound
        assert (info.value.line, info.value.column) == (1, column)

    def test_depth_counts_nesting_not_groups(self, weyl):
        depth = parser.MAX_DEPTH
        group = "(" * depth + "t" + ")" * depth
        t = weyl.variable(0)
        assert (parse_expr(" + ".join([group] * 300), weyl)
                == weyl.constant(QX.from_int(300)) * t)
        assert parse_expr("*".join([group] * 3), weyl) == t ** 3
        assert (parse_scalar("(" * depth + "1/2" + ")" * depth, Q)
                == Q.from_fraction("1/2"))

    @pytest.mark.parametrize("signs", [5000, 5001])
    def test_long_sign_chain(self, weyl, signs):
        t = weyl.variable(0)
        want = -t if signs % 2 else t
        assert parse_expr("-" * signs + "t", weyl) == want
        assert (parse_expr("-" * signs + "t^2 + 1", weyl)
                == want * t + weyl.one())
        assert (parse_expr("x*" + "-" * signs + "(t)", weyl)
                == weyl.constant(QX.x()) * want)


# A literal one digit past what ``int`` converts from a string
LONG = "1" * (sys.get_int_max_str_digits() + 1)
LONG_MESSAGE = f"integer literal of {len(LONG)} digits is too long"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="int conversion has no digit limit")
class TestLongLiterals:
    """A literal past ``sys.get_int_max_str_digits()`` is a ``ParseError``
    at its position, on the general path, through the literal lane (which
    falls back) over Q(x) and H(Q), in an exponent and in ``parse_scalar``."""

    @pytest.mark.parametrize("src, line, column", [
        (f"{LONG}*t", 1, 1),
        (f"t +\n {LONG}", 2, 2),
        (f"(x^2 + {LONG}*x)*t", 1, 8),
        (f"(x^{LONG})*t", 1, 4),
        (f"t^{LONG}", 1, 3),
        (f"(t + 1)^\n{LONG}", 2, 1),
        (f"2*t^{LONG}", 1, 5),
        (f"(x + 1)*t^{LONG}", 1, 11),
    ], ids=["coefficient", "second-line", "x-polynomial", "x-exponent",
            "exponent", "exponent-on-next-line", "factor-exponent",
            "factor-after-literal"])
    def test_parse_error_at_the_literal(self, weyl, src, line, column):
        with pytest.raises(ParseError) as info:
            parse_expr(src, weyl)
        assert type(info.value) is ParseError
        assert str(info.value) == (f"{LONG_MESSAGE} "
                                   f"(line {line}, column {column})")

    @pytest.mark.parametrize("domain", [Q, QX, HQ])
    def test_scalar(self, domain):
        with pytest.raises(ParseError) as info:
            parse_scalar(f"1/{LONG}", domain)
        assert (info.value.line, info.value.column) == (1, 3)

    @pytest.mark.parametrize("parse, src, column", [
        (parse_expr, f"(2 + {LONG}*i)*t1", 6),
        (parse_scalar, f"2 - {LONG}*i", 5),
        (parse_scalar, f"-{LONG}", 2),
        (parse_expr, f"t1*t2^{LONG}", 7),
    ], ids=["parenthesized", "scalar", "scalar-constant", "factor-exponent"])
    def test_quaternion_literal(self, quat_inner2, parse, src, column):
        with pytest.raises(ParseError) as info:
            parse(src, quat_inner2 if parse is parse_expr else HQ)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{LONG_MESSAGE} (line 1, column {column})"

    def test_limit_itself_parses(self, weyl):
        digits = "1" * sys.get_int_max_str_digits()
        assert (parse_expr(f"(x + {digits})*t", weyl)
                == parse_expr(f"x*t + {digits}*t", weyl))


class TestScalarParsing:
    def test_rational(self):
        assert parse_scalar("-3/2", Q) == Q.from_fraction("-3/2")

    def test_rational_function(self):
        got = parse_scalar("x^2 + 1/2", QX)
        assert got == QX.from_coeffs(("1/2", 0, 1))

    def test_quaternion(self):
        got = parse_scalar("1 - i + 2*k", HQ)
        assert got == HQ.make(1, -1, 0, 2)

    def test_variables_rejected(self):
        with pytest.raises(UnknownVariable):
            parse_scalar("t + 1", Q)

    def test_repeated_calls_certify_at_most_one_ring(self, monkeypatch):
        # scalars are read in one shared certified ring per domain
        built = []
        original = OreRing.__init__

        def counting(ring, domain, *args, **kwargs):
            built.append(domain)
            original(ring, domain, *args, **kwargs)

        monkeypatch.setattr(OreRing, "__init__", counting)
        for domain, text in ((QX, "(x + 1)/2"), (HQ, "i*j - 1/3"), (Q, "5")):
            first = parse_scalar(text, domain)
            for _ in range(5):
                assert parse_scalar(text, domain) == first
            assert built.count(domain) <= 1


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["weyl", "weyl2", "rat3", "quat2",
                                         "quat_inner2"])
    def test_parse_print_identity(self, fixture, request):
        ring = request.getfixturevalue(fixture)
        rng = random.Random(hash(fixture) % 100000)
        for _ in range(25):
            f = random_poly(ring, rng, 3)
            assert parse_expr(str(f), ring) == f

    def test_scalar_strings_reparse(self):
        rng = random.Random(6)
        for domain in (Q, QX, HQ):
            for _ in range(40):
                s = domain.random(rng)
                assert parse_scalar(str(s), domain) == s


class TestShortcuts:
    @pytest.fixture(scope="class")
    def twisted(self):
        # TWISTED_PAIR of test_cli.py: the q-shift and d/dx do not commute,
        # so the certificate fails and every product is refused
        shift = q_shift(2)
        ring = OreRing(QX, [("a", shift, zero_der(shift)),
                            ("b", IdentityAut(), DdxDer())])
        assert not ring.certificate.ok
        return ring

    @pytest.mark.parametrize("src", ["2*a", "a*2", "a*b", "x*a", "a/2", "2/3",
                                     "0*a", "2^3", "a^2", "x^2", "(2*x)",
                                     "(x^2 + 1)"])
    def test_failed_certificate_refuses_products(self, twisted, src):
        with pytest.raises(IncompatibleMaps):
            parse_expr(src, twisted)

    @pytest.mark.parametrize("src, printed", [
        ("a", "a"), ("a+1", "a + 1"), ("-a", "-a"), ("(a)", "a"),
        ("a^1", "a"), ("a^0", "1"),
    ])
    def test_failed_certificate_parses_sums(self, twisted, src, printed):
        assert str(parse_expr(src, twisted)) == printed

    @pytest.mark.parametrize("fixture, src, products", [
        ("quat_inner2", "(1 + 2*i - j)*t1^2*t2 - k", 0),
        ("weyl", "x^1000", 0),
        ("weyl", "t^1000", 0),
        ("weyl", "2^1000", 0),
        ("weyl", "t*x", 1),
    ])
    def test_product_count(self, fixture, src, products, request,
                           monkeypatch):
        ring = request.getfixturevalue(fixture)
        count = [0]
        original = SkewPoly.__mul__

        def counted(self, other):
            count[0] += 1
            return original(self, other)

        monkeypatch.setattr(SkewPoly, "__mul__", counted)
        parse_expr(src, ring)
        assert count[0] == products

    @pytest.mark.parametrize("fixture, variant, src", [
        ("quat_inner2", Quaternion, "(2 - k)*t1^2*t2"),
        ("weyl", RationalFunction, "(3*x^2 - x + 2)*t^2"),
    ])
    def test_no_scalar_products_by_one(self, fixture, variant, src, request,
                                       monkeypatch):
        # a constant times a unit monomial is an exponent shift
        ring = request.getfixturevalue(fixture)
        want = parse_expr(src, ring)
        count = [0]
        original = variant._mul

        def counted(self, other):
            count[0] += 1
            return original(self, other)

        monkeypatch.setattr(variant, "_mul", counted)
        assert parse_expr(src, ring) == want
        assert count[0] == 0


class TestUnicodeDigits:
    """Exponents and numbers are ASCII digits; other digits are refused."""

    @pytest.mark.parametrize("src, column", [("t^²", 3), ("٣*t", 1),
                                             ("t + 2²", 6)])
    def test_non_ascii_digit_is_parse_error(self, weyl, src, column):
        with pytest.raises(ParseError) as info:
            parse_expr(src, weyl)
        assert "unexpected character" in str(info.value)
        assert (info.value.line, info.value.column) == (1, column)

    def test_unicode_names_kept(self):
        ring = OreRing(Q, [("τ٣", IdentityAut(), zero_der())])
        assert parse_expr("τ٣^2", ring) == ring.variable(0) ** 2


def _char_loop_tokenize(src):
    """The character-by-character tokenizer the regex one replaced."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        ch = src[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(src) and src[pos].isdigit():
                pos += 1
            tokens.append(("num", src[start:pos], line, col))
            col += pos - start
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(src) and (src[pos].isalnum() or src[pos] == "_"):
                pos += 1
            tokens.append(("name", src[start:pos], line, col))
            col += pos - start
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, line, col))
            col += 1
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


def _tokens_or_error(tokenizer, src):
    try:
        return [tuple(t) for t in tokenizer(src)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


class TestTokenizerOracle:
    @given(st.text(st.sampled_from(list("019ab_tx+-*/^() \t\r\n\x0b$."))))
    @example("t +\n *")
    @example("\r\n\t2^\x0b\n  x $")
    def test_matches_char_loop_on_tokens(self, src):
        assert (_tokens_or_error(tokenize, src)
                == _tokens_or_error(_char_loop_tokenize, src))

    @given(st.text(st.characters(max_codepoint=127)))
    def test_matches_char_loop_on_ascii(self, src):
        assert (_tokens_or_error(tokenize, src)
                == _tokens_or_error(_char_loop_tokenize, src))


class TestTokenScanOracle:
    """The parser takes its token texts from one ``findall`` and calls
    ``tokenize`` only to place an error, so its texts must be ``tokenize``'s,
    index for index, and a text ``tokenize`` refuses must raise the same
    error."""

    @pytest.mark.parametrize("chars", [
        st.sampled_from(list("019ab_tx+-*/^() \t\r\n\x0b$.")),
        st.characters(max_codepoint=127),
        st.sampled_from(list("0ab_t+-*^() \n\x1cτ٣²\xa0\u2003")),
    ], ids=["tokens", "ascii", "non-ascii"])
    @given(data=st.data())
    def test_texts_are_tokenize_texts(self, chars, data):
        src = data.draw(st.text(chars))
        ring = OreRing(Q, [("t", IdentityAut(), zero_der())])
        try:
            got = parser._Parser(src, ring).texts
        except ParseError as exc:
            got = (str(exc), exc.line, exc.column)
        want = _tokens_or_error(tokenize, src)
        if isinstance(want, list):
            want = [token[1] for token in want]
        assert got == want


# Expression trees: ("num", n), ("name", s), ("neg", a), ("par", a),
# ("pow", a, k) and (op, a, b) for op in add, sub, mul, div; a divisor is
# drawn from the constant trees only.
_LEVEL = {"add": 0, "sub": 0, "mul": 1, "div": 1, "neg": 2, "pow": 3}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_LITERALS = {"Qx": ("x",), "HQ": ("i", "j", "k")}
_N0, _N2, _T, _X = ("num", 0), ("num", 2), ("name", "t"), ("name", "x")
_T1, _T2 = ("name", "t1"), ("name", "t2")


def _trees(leaves, divisors=None):
    """Trees over ``leaves``; divisors are drawn from ``divisors``, or from
    the trees themselves when no strategy is given (constant leaves)."""
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub),
        st.tuples(st.just("div"), sub, sub if divisors is None else divisors),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("par"), sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 4)),
    ), max_leaves=8).filter(lambda t: _degree(t) <= 10)


def _expressions(ring):
    literals = _LITERALS.get(ring.domain.name, ())
    constant = st.one_of(st.integers(0, 12).map(lambda n: ("num", n)),
                         *(st.just(("name", s)) for s in literals))
    variables = st.sampled_from(ring.names).map(lambda s: ("name", s))
    return _trees(st.one_of(constant, variables), _trees(constant))


def _degree(tree):
    """A bound on the degree of a tree in the variables and in x, i, j, k."""
    op = tree[0]
    if op == "num":
        return 0
    if op == "name":
        return 1
    if op in ("neg", "par"):
        return _degree(tree[1])
    if op == "pow":
        return tree[2] * _degree(tree[1])
    if op == "mul":
        return _degree(tree[1]) + _degree(tree[2])
    return max(_degree(tree[1]), _degree(tree[2]))


def _render(tree):
    op = tree[0]
    if op in ("num", "name"):
        return str(tree[1])
    if op == "par":
        return f"({_render(tree[1])})"
    if op == "neg":
        return "-" + _wrap(tree[1], 2)
    if op == "pow":
        return f"{_wrap(tree[1], 4)}^{tree[2]}"
    level = _LEVEL[op]
    return (_wrap(tree[1], level) + _SYMBOL[op]
            + _wrap(tree[2], level + 1))


def _wrap(tree, level):
    text = _render(tree)
    return text if _LEVEL.get(tree[0], 4) >= level else f"({text})"


def _evaluate(tree, ring):
    """The tree's value by full SkewPoly arithmetic, no shortcut taken."""
    op = tree[0]
    if op == "num":
        return ring.constant(ring.domain.from_int(tree[1]))
    if op == "name":
        if tree[1] in ring.names:
            return ring.variable(ring.names.index(tree[1]))
        return ring.constant(getattr(ring.domain, tree[1])())
    if op == "neg":
        return -_evaluate(tree[1], ring)
    if op == "par":
        return _evaluate(tree[1], ring)
    if op == "pow":
        return _evaluate(tree[1], ring) ** tree[2]
    left, right = _evaluate(tree[1], ring), _evaluate(tree[2], ring)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    return left * ring.constant(right.constant_value().inv())


def _outcome(compute):
    try:
        return compute()
    except SkewError as exc:
        return type(exc)


# 60 examples in the default run; a profile with a larger budget, such as
# ``scalar-oracles``, raises it
_ORACLE_EXAMPLES = (60 if settings.get_current_profile_name() == "default"
                    else max(60, settings.default.max_examples))


class TestParserOracle:
    @pytest.mark.parametrize("fixture", ["weyl", "weyl2", "qdiff_ring",
                                         "quat_inner2", "rat3"])
    @settings(max_examples=_ORACLE_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_skewpoly_arithmetic(self, fixture, request, data):
        ring = request.getfixturevalue(fixture)
        tree = data.draw(_expressions(ring))
        src = _render(tree)
        assert (_outcome(lambda: parse_expr(src, ring))
                == _outcome(lambda: _evaluate(tree, ring))), src

    @pytest.mark.parametrize("tree", [
        ("pow", _N0, 0), ("pow", _N0, 3), ("mul", _N0, _T), ("mul", _T, _N0),
        ("pow", _N2, 0), ("pow", _X, 3), ("pow", ("add", _X, _N2), 2),
        ("pow", ("mul", _N2, _X), 3), ("pow", _T, 1),
        ("pow", ("pow", _T, 2), 3), ("pow", ("neg", _T), 3),
        ("pow", ("mul", _N2, _T), 3),
        ("pow", ("mul", _X, _T), 2), ("pow", ("add", _T, _X), 3),
        ("neg", ("pow", _T, 2)), ("mul", ("div", ("div", _N2, _X), _N2), _T),
        ("div", ("div", _T, _X), _N2), ("pow", ("div", _T, _X), 2),
        ("mul", ("mul", _T, ("pow", _T, 2)), _X),
        ("mul", ("mul", _X, ("pow", _T, 3)), _T), ("sub", _T, _T),
        # chains of factors t^k, read in place
        ("mul", ("mul", _X, ("pow", _T, 2)), _T), ("mul", _T, ("pow", _T, 0)),
        ("mul", ("mul", ("par", ("add", _X, ("num", 1))), ("pow", _T, 3)),
         ("pow", _T, 2)),
        ("div", ("mul", ("pow", _T, 2), _T), _N2),
        ("mul", ("mul", ("par", ("mul", _N2, _X)), _T), _X),
    ], ids=_render)
    def test_shortcut_shapes(self, weyl, tree):
        assert parse_expr(_render(tree), weyl) == _evaluate(tree, weyl)

    @pytest.mark.parametrize("tree", [
        ("mul", ("mul", ("par", ("mul", _N2, _X)), ("pow", _T1, 2)), _T2),
        ("mul", ("mul", ("par", ("mul", _N2, _X)), _T2), ("pow", _T1, 2)),
    ], ids=_render)
    def test_two_variable_chains(self, weyl2, tree):
        assert parse_expr(_render(tree), weyl2) == _evaluate(tree, weyl2)


def _general(src, ring):
    """``parse_expr`` with the literal lane switched off."""
    p = parser._Parser(src, ring)
    p.units = {}
    return p.parse()


def _general_scalar(src, domain):
    """``parse_scalar`` with the literal lane switched off."""
    p = parser._Parser(src, evaluation_context(domain, ()))
    p.units = {}
    return p.parse().constant_value()


def _outcomes(src, ring, lane=parse_expr, general=_general):
    """The outcome, a value or an error's type and text, of the parser with
    and without the literal lane."""
    def outcome(parse):
        try:
            return parse(src, ring)
        except SkewError as exc:
            return type(exc), str(exc)
    return outcome(lane), outcome(general)


@functools.cache
def _lane_ring(domain):
    """One variable t over Q(x) twisted by d/dx, or two over H(Q) as in
    ``quat_inner2``: neither names a literal unit."""
    if domain is QX:
        return OreRing(QX, [("t", IdentityAut(), DdxDer())])
    aut = inner_aut(HQ.i())
    return OreRing(HQ, [("t1", aut, InnerDer(HQ.make(1, 2), aut)),
                        ("t2", aut, zero_der(aut))])


_SIGNS = st.sampled_from("+-")
_COEFFICIENTS = st.one_of(st.integers(0, 12), st.integers(2**64, 2**70))
_LANE_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(2**64, 2**66))
# (sign, coefficient, denominator, slot, spelling) of one rational monomial
# of a literal: the slot is x's exponent over Q(x) and the coordinate of i,
# j or k over H(Q), and a spelling without "c" has coefficient 1, one
# without "d" denominator 1
_MONOMIALS = {
    QX: st.tuples(_SIGNS, _COEFFICIENTS, _LANE_DENOMINATORS,
                  st.integers(0, MAX_EXPONENT),
                  st.sampled_from(["c*x^e", "c*x", "x^e", "x", "c",
                                   "c/d*x^e", "c/d*x", "c/d"])),
    HQ: st.tuples(_SIGNS, _COEFFICIENTS, _LANE_DENOMINATORS,
                  st.integers(1, 3),
                  st.sampled_from(["c*u", "u", "c", "c/d*u", "c/d"])),
}


def _literal(domain, monomials, space):
    """The text of a sum of rational monomials and its value, by
    ``Fraction`` arithmetic on the monomials."""
    coeffs, parts = {}, []
    for n, (sign, c, d, slot, spelling) in enumerate(monomials):
        if "c" not in spelling:
            c = 1
        if "d" not in spelling:
            d = 1
        if "e" not in spelling and "u" not in spelling:
            slot = int("x" in spelling)
        text = (spelling.replace("c", str(c)).replace("d", str(d))
                .replace("e", str(slot)))
        if "u" in spelling:
            text = text.replace("u", " ijk"[slot])
        for op in "*/":
            text = text.replace(op, space + op + space)
        if n or sign == "-":
            text = sign + space + text
        parts.append(text)
        value = Fraction(c if sign == "+" else -c, d)
        coeffs[slot] = coeffs.get(slot, 0) + value
    ints = [coeffs.get(s, 0) for s in range(max(max(coeffs), 3) + 1)]
    value = QX.from_coeffs(ints) if domain is QX else HQ.make(*ints)
    return space.join(parts), value


def _lane_oracles(domain, soup, variable):
    """The lane's oracle tests over one domain.  A parenthesized rational
    combination of the domain's units, and a whole ``parse_scalar`` text of
    one, is read straight into one coefficient; its oracles are the general
    path (the same parser with the lane off) and ``Fraction`` arithmetic on
    the monomials.  Token soups hold "/" and "0", so zero denominators, and
    add "^" or the ring variable, not both, since an operator power can
    take seconds; with the digits 2 and 0 alone a power in bounds is at
    most 222."""
    ring = _lane_ring(domain)

    @settings(max_examples=_ORACLE_EXAMPLES, deadline=None)
    @given(monomials=st.lists(_MONOMIALS[domain], min_size=1, max_size=6),
           space=st.sampled_from(["", " "]))
    def test_matches_general_path(self, monomials, space):
        text, value = _literal(domain, monomials, space)
        src = "(" + text + ")"
        p = parser._Parser(src, ring)
        assert p.units and parser._literal(p.texts, 1, ")", p.units), src
        assert (parse_expr(src, ring) == _general(src, ring)
                == ring.constant(value)), src
        texts = parser._TEXTS.findall(text) + [""]
        assert parser._literal(texts, 0, "", domain.units), text
        assert (parse_scalar(text, domain) == _general_scalar(text, domain)
                == value), text

    @settings(max_examples=_ORACLE_EXAMPLES, deadline=None)
    @given(tokens=st.one_of(
        st.lists(st.sampled_from(soup + ["^"]), max_size=12),
        st.lists(st.sampled_from(soup + [variable]), max_size=12)))
    def test_any_text_after_a_parenthesis(self, tokens):
        src = "".join(tokens)
        lane, general = _outcomes("(" + src, ring)
        assert lane == general, "(" + src
        lane, general = _outcomes(src, domain, parse_scalar, _general_scalar)
        assert lane == general, src

    return test_matches_general_path, test_any_text_after_a_parenthesis


def _check_pinned(outcomes, printed):
    lane, general = outcomes
    assert lane == general
    if isinstance(printed, SkewError):
        assert lane == (type(printed), str(printed))
    else:
        assert str(lane) == printed


class TestXPolynomialLane:
    """The literal lane over Q(x), whose units are the powers of x."""

    test_matches_general_path, test_any_text_after_a_parenthesis = (
        _lane_oracles(QX, ["(", ")", "x", "2", "*", "+", "-", " ", "\n",
                           str(MAX_EXPONENT + 1), "/", "0"], "t"))

    @pytest.mark.parametrize("src, printed", [
        (f"(x^{MAX_EXPONENT + 1})", ParseError(
            f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}", 1, 4)),
        ("(3x)", ParseError("expected ')'", 1, 3)),
        ("(--x)", "x"),
        ("(x*3)", "3*x"),
        ("(-3*x^2 - x + 2)", "-(3*x^2 + x - 2)"),
        ("(x - x)", "0"),
        ("(3*x^2 - x + 2)*t", "(3*x^2 - x + 2)*t"),
        ("(x^0 + 0*x)", "1"),
        ("(2*t)", "2*t"),
        ("(x + 1)^2", "x^2 + 2*x + 1"),
        ("(x +\n 1) $", ParseError("unexpected character '$'", 2, 5)),
        ("(2^3 + x)", "x + 8"),
        ("(1/2*x^2 - 3/4)", "1/2*x^2 - 3/4"),
        ("(2/4*x)", "1/2*x"),
        ("(1/0*x)", DivisionByZero("inverse of zero")),
        ("(3/2^2)", "3/4"),
        ("(1/2/3*x)", "1/6*x"),
    ])
    def test_pinned(self, weyl, src, printed):
        _check_pinned(_outcomes(src, weyl), printed)

    def test_nesting_at_the_bound(self, weyl):
        depth = parser.MAX_DEPTH
        inner = "3*x^2 - x + 2"
        src = "(" * depth + inner + ")" * depth
        assert _outcomes(src, weyl)[0] == parse_expr(f"({inner})", weyl)
        lane, general = _outcomes("(" + src + ")", weyl)
        assert lane == general == (ParseError, str(ParseError(
            f"parentheses nested deeper than {depth}", 1, depth + 1)))

    def test_variable_named_x(self):
        ring = OreRing(QX, [("x", IdentityAut(), DdxDer())])
        assert not parser._Parser("(x)", ring).units
        x = ring.variable(0)
        want = ring.constant(QX.from_int(2)) * x * x + ring.one()
        assert parse_expr("(2*x^2 + 1)", ring) == want


class TestQuaternionLiteralLane:
    """The literal lane over H(Q), whose units are i, j and k."""

    test_matches_general_path, test_any_text_after_a_parenthesis = (
        _lane_oracles(HQ, ["(", ")", "i", "j", "k", "2", "*", "+", "-", " ",
                           "\n", str(MAX_EXPONENT + 1), "/", "0"], "t1"))

    @pytest.mark.parametrize("src, printed", [
        ("(i - i)", "0"),
        ("(i^2)", "-1"),
        ("(2i)", ParseError("expected ')'", 1, 3)),
        ("(i*j)", "k"),
        ("(-2 - 3*j - 2*k)", "-(2 + 3*j + 2*k)"),
        ("(2 + i - 3*k)*t1", "(2 + i - 3*k)*t1"),
        ("(--k)", "k"),
        ("(i + x)", UnknownScalarLiteral(
            "literal 'x' is not available over HQ", 1, 6)),
        ("(2/13*i - 1/2)", "-(1/2 - 2/13*i)"),
        ("(4/6*j)", "2/3*j"),
        ("(1/0*k)", DivisionByZero("inverse of zero")),
    ])
    def test_pinned(self, src, printed):
        _check_pinned(_outcomes(src, _lane_ring(HQ)), printed)

    @pytest.mark.parametrize("src, printed", [
        ("-3*i + 1*k", "-3*i + k"), ("i - i", "0"), ("2 - 2", "0"),
        ("i^2", "-1"), ("2*i*j", "2*k"), ("1/2*i", "1/2*i"),
        ("i +\n 2i", ParseError("unexpected 'i'", 2, 3)),
        ("-2 + 2/13*i - 2*j + 29/13*k", "-2 + 2/13*i - 2*j + 29/13*k"),
        ("1/0", DivisionByZero("inverse of zero")), ("1/2/2", "1/4"),
    ])
    def test_pinned_scalars(self, src, printed):
        _check_pinned(_outcomes(src, HQ, parse_scalar, _general_scalar),
                      printed)

    def test_scalar_text_makes_no_products(self, monkeypatch):
        count = [0]
        original = Quaternion._mul

        def counted(self, other):
            count[0] += 1
            return original(self, other)

        monkeypatch.setattr(Quaternion, "_mul", counted)
        assert parse_scalar("-2 - 3*j - 2*k", HQ) == HQ.make(-2, 0, -3, -2)
        assert (parse_scalar("-2 + 2/13*i - 2*j + 29/13*k", HQ)
                == HQ.make(-2, Fraction(2, 13), -2, Fraction(29, 13)))
        assert count[0] == 0

    def test_variable_named_i(self):
        # one unit named by a variable turns the whole lane off
        ring = OreRing(HQ, [("i", IdentityAut(), zero_der())])
        assert not parser._Parser("(j)", ring).units
        i = ring.variable(0)
        want = ring.constant(HQ.from_int(2)) * i + ring.constant(HQ.j())
        assert parse_expr("(2*i + j)", ring) == want


# ---------------------------------------------------------------------------
# printer oracle
# ---------------------------------------------------------------------------
# The printers as they were before ``Scalar.display``: ``SkewPoly.__str__``
# negated each displayed-negative coefficient and printed the negation,
# ``_pstr`` and the quaternion printer grew their text with ``+=``.

def _reference_pstr(a):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            mono = str(c)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            mono = xpow if c == 1 else f"-{xpow}" if c == -1 else f"{c}*{xpow}"
        parts.append(mono)
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def _reference_scalar(c):
    """Whether ``c`` prints with a leading "-", its text, and whether the
    text can stand unparenthesized in a product."""
    if c.domain is Q:
        return c.value < 0, str(c.value), True
    if c.domain is QX:
        n, d = c.ints_num, c.ints_den
        if d == (1,):
            text = _reference_pstr(n)
        elif len(d) == 1:
            text = _reference_pstr(c.num)
        else:
            text = f"({_reference_pstr(c.num)})/({_reference_pstr(c.den)})"
        return (bool(n) and n[-1] < 0, text,
                len(d) == 1 and sum(1 for v in n if v != 0) <= 1)
    parts, m = [], c.den
    for n, unit in zip(c.ints, ("", "i", "j", "k")):
        if n == 0:
            continue
        v = n if m == 1 else Fraction(n, m)
        if not unit:
            parts.append(str(v))
        elif n == m:
            parts.append(unit)
        elif n == -m:
            parts.append(f"-{unit}")
        else:
            parts.append(f"{v}*{unit}")
    text = parts[0] if parts else "0"
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    nonzero = [n for n in c.ints if n != 0]
    return bool(nonzero) and nonzero[0] < 0, text, len(nonzero) <= 1


def _reference_str(f):
    if not f.terms:
        return "0"
    names, one = f.ring.names, f.ring.domain.one()
    multi = len(f.terms) > 1
    out = []
    for e, c in f.ordered_terms():
        negative = _reference_scalar(c)[0]
        if negative:
            c = -c
        factors = [name if k == 1 else f"{name}^{k}"
                   for name, k in zip(names, e) if k]
        if not factors or c != one:
            _, text, atomic = _reference_scalar(c)
            if not atomic and (factors or multi or negative):
                text = f"({text})"
            factors.insert(0, text)
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append("*".join(factors))
    return "".join(out)


_SMALL = st.sampled_from([1, -1, 1, -1, 0, 2, -3, 12])
_FRACTIONS = st.builds(Fraction, _SMALL, st.sampled_from([1, 1, 1, 2, 3]))
# unit, constant and non-unit denominators
_DENOMINATORS = st.sampled_from([(1,), (1,), (3,), (-2,), (1, 1), (0, 2),
                                 (-1, 0, 1), (Fraction(1, 2), 1)])
# coefficients past 2^64, and x-degrees past the 64 unit texts the printer
# keeps
_WIDE = st.one_of(_FRACTIONS, st.integers(2**64, 2**70),
                  st.integers(-2**70, -2**64))
_HIGH_DEGREES = st.dictionaries(st.integers(60, 90), _WIDE, min_size=1,
                                max_size=3).map(
    lambda d: [d.get(i, 0) for i in range(max(d) + 1)])
_PRINTER_COEFFS = {
    Q: _FRACTIONS.map(Q.from_fraction),
    QX: st.builds(QX.from_coeffs,
                  st.one_of(st.lists(_FRACTIONS, max_size=4), _HIGH_DEGREES),
                  _DENOMINATORS),
    HQ: st.builds(HQ.make, _WIDE, _WIDE, _WIDE, _WIDE),
}


@functools.cache
def _printer_ring(domain, nvars):
    return OreRing(domain, [(f"t{i}" if nvars > 1 else "t", IdentityAut(),
                             zero_der()) for i in range(nvars)])


class TestPrinterOracle:
    """``SkewPoly.__str__`` with ``Scalar.display`` against the printers it
    replaced, byte for byte, over Q, Q(x) (unit and other denominators)
    and H(Q) (denominators 1 and above), with negative leading
    coefficients, coefficients of 1 and -1, constants and several
    variables."""

    @pytest.mark.parametrize("domain", [Q, QX, HQ], ids=lambda d: d.name)
    @settings(max_examples=_ORACLE_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, domain, data):
        ring = _printer_ring(domain, data.draw(st.integers(0, 3)))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * ring.nvars),
            _PRINTER_COEFFS[domain], max_size=5))
        f = SkewPoly(ring, terms)
        assert str(f) == _reference_str(f)
        assert str(-f) == _reference_str(-f)
        for c in terms.values():
            negative, text, atomic = _reference_scalar(c)
            assert str(c) == text
            magnitude = _reference_scalar(-c if negative else c)
            assert c.display() == (negative,) + magnitude[1:]
