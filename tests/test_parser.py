"""Grammar, name resolution and print/parse round-trips."""

import random

import pytest

from skewpoly.errors import (
    DivisionByZero,
    ParseError,
    UnknownScalarLiteral,
    UnknownVariable,
)
from skewpoly.ore import random_poly
from skewpoly.parser import MAX_EXPONENT, parse_expr, parse_scalar
from skewpoly.scalars import HQ, Q, QX


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
