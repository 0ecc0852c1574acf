"""Exact arithmetic in the three coefficient rings."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewpoly import scalars
from skewpoly.errors import DivisionByZero, VariantMismatch
from skewpoly.ore import SkewPoly
from skewpoly.parser import parse_expr, parse_scalar
from skewpoly.scalars import (
    HQ,
    Q,
    QX,
    Quaternion,
    Rational,
    RationalFunction,
    are_conjugate,
)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)
rationals = fractions_st.map(Rational)
quaternions = st.tuples(fractions_st, fractions_st, fractions_st,
                        fractions_st).map(lambda t: HQ.make(*t))
ratfuncs = st.builds(
    RationalFunction.make,
    st.lists(fractions_st, min_size=1, max_size=3),
    st.lists(fractions_st, min_size=1, max_size=2).filter(
        lambda cs: any(c != 0 for c in cs)),
)

I, J, K = HQ.i(), HQ.j(), HQ.k()


class TestQuaternionTable:
    def test_units(self):
        assert I * J == K
        assert J * I == -K
        assert J * K == I
        assert K * J == -I
        assert K * I == J
        assert I * K == -J
        minus_one = HQ.from_int(-1)
        assert I * I == minus_one
        assert J * J == minus_one
        assert K * K == minus_one

    def test_inverse_of_i(self):
        assert I.inv() == -I
        assert I * I.inv() == HQ.one()

    def test_inverse_by_conjugate_over_norm(self):
        # oracle: q^-1 = conj(q) / N(q); N(1/2 + 1/2 i) = 1/2
        q = HQ.make(Fraction(1, 2), Fraction(1, 2))
        assert q.reduced_norm() == Fraction(1, 2)
        oracle = q.conjugate() * HQ.from_fraction(Fraction(2))
        assert q.inv() == oracle
        assert q.inv() == HQ.make(1, -1)
        assert q * q.inv() == HQ.one()

    def test_noncommutative(self):
        a = HQ.make(1, 2, 0, 0)
        b = HQ.make(0, 0, 3, 1)
        assert a * b != b * a


@given(quaternions, quaternions, quaternions)
def test_quaternion_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(quaternions)
def test_quaternion_inverse(a):
    if not a.is_zero():
        assert a * a.inv() == HQ.one()
        assert a.inv() * a == HQ.one()


@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(ratfuncs)
def test_ratfunc_inverse(a):
    if not a.is_zero():
        assert a * a.inv() == QX.one()


@given(rationals, rationals)
def test_rational_matches_fraction(a, b):
    assert (a + b).value == a.value + b.value
    assert (a * b).value == a.value * b.value
    assert (-a).value == -a.value


class TestCanonicalForms:
    def test_ratfunc_reduction(self):
        # (2x) / (2x + 2) reduces to x / (x + 1) with monic denominator
        f = RationalFunction.make((0, 2), (2, 2))
        assert f == RationalFunction.make((0, 1), (1, 1))
        assert f.den[-1] == 1

    def test_monic_denominator(self):
        f = RationalFunction.make((1,), (0, 0, 3))
        assert f.den == (Fraction(0), Fraction(0), Fraction(1))
        assert f.num == (Fraction(1, 3),)

    def test_zero_unique(self):
        assert RationalFunction.make((0, 0), (1, 5)) == QX.zero()
        assert QX.zero().is_zero()
        assert HQ.make(0, 0, 0, 0).is_zero()

    def test_strings(self):
        assert str(HQ.make(1, -1)) == "1 - i"
        assert str(HQ.zero()) == "0"
        assert str(QX.from_coeffs((Fraction(1, 2), 0, 1))) == "x^2 + 1/2"
        assert str(QX.from_coeffs((1,), (1, 1))) == "(1)/(x + 1)"
        assert str(Q.from_fraction(Fraction(-3, 2))) == "-3/2"


class TestErrors:
    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatch):
            Q.one() + QX.one()
        with pytest.raises(VariantMismatch):
            HQ.one() * Q.one()
        with pytest.raises(VariantMismatch):
            are_conjugate(Q.one(), HQ.one())

    def test_division_by_zero(self):
        for domain in (Q, QX, HQ):
            with pytest.raises(DivisionByZero):
                domain.zero().inv()


class TestConjugacy:
    def test_i_j_conjugate_with_witness(self):
        # oracle: x = i + j satisfies x i x^-1 = j
        x = I + J
        assert x * I * x.inv() == J
        assert are_conjugate(I, J)

    def test_distinct_central_not_conjugate(self):
        assert not are_conjugate(HQ.from_int(1), HQ.from_int(2))
        assert not are_conjugate(Q.from_int(1), Q.from_int(2))

    def test_trace_separates(self):
        # traces 0 vs 2 differ, so no conjugator can exist
        assert I.reduced_trace() == 0
        assert HQ.make(1, 1).reduced_trace() == 2
        assert not are_conjugate(I, HQ.make(1, 1))

    def test_central_only_self_conjugate(self):
        assert not are_conjugate(HQ.from_int(1), I)

    @given(quaternions, quaternions)
    def test_symmetric(self, a, b):
        assert are_conjugate(a, b) == are_conjugate(b, a)

    @given(quaternions)
    def test_reflexive(self, a):
        assert are_conjugate(a, a)

    def test_equivalence_on_pool(self):
        pool = [I, J, K, I + J, HQ.make(1, 1), HQ.make(1, 0, 1),
                HQ.from_int(2), HQ.make(0, 2)]
        for a in pool:
            for b in pool:
                for c in pool:
                    if are_conjugate(a, b) and are_conjugate(b, c):
                        assert are_conjugate(a, c)

    @given(quaternions, quaternions)
    def test_conjugates_share_trace_and_norm(self, a, b):
        if are_conjugate(a, b):
            assert a.reduced_trace() == b.reduced_trace()
            assert a.reduced_norm() == b.reduced_norm()


@given(quaternions)
def test_is_central_matches_probe_oracle(a):
    # commuting with i and j forces the j,k and i,k parts to vanish
    probes = (HQ.i(), HQ.j())
    assert a.is_central() == all(a * p == p * a for p in probes)


# ---------------------------------------------------------------------------
# reference Q(x): Euclid over Fraction coefficients, monic denominators
# ---------------------------------------------------------------------------
# RationalFunction computes over integer polynomials with primitive gcds; this
# is the Fraction arithmetic it replaced, kept as an oracle that shares no
# code with skewpoly.  An element is a (num, den) pair of Fraction tuples,
# lowest degree first, gcd-reduced with a monic denominator.

def ref_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_padd(a, b):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n))


def ref_pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_trim(out)


def ref_pdivmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(ref_trim(r)) >= len(b):
        r = list(ref_trim(r))
        k = len(r) - len(b)
        c = q[k] = r[-1] / b[-1]
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        r.pop()
    return ref_trim(q), ref_trim(r)


def ref_pgcd(a, b):
    while b:
        a, b = b, ref_pdivmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def ref_make(num, den=(1,)):
    num = ref_trim(Fraction(c) for c in num)
    den = ref_trim(Fraction(c) for c in den)
    if not num:
        return (), (Fraction(1),)
    g = ref_pgcd(num, den)
    num, den = ref_pdivmod(num, g)[0], ref_pdivmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def ref_neg(f):
    return tuple(-c for c in f[0]), f[1]


def ref_add(f, g):
    return ref_make(ref_padd(ref_pmul(f[0], g[1]), ref_pmul(g[0], f[1])),
                    ref_pmul(f[1], g[1]))


def ref_mul(f, g):
    return ref_make(ref_pmul(f[0], g[0]), ref_pmul(f[1], g[1]))


def ref_inv(f):
    return ref_make(f[1], f[0])


def ref_derivative(f):
    def deriv(a):
        return ref_trim(i * a[i] for i in range(1, len(a)))
    num, den = f
    minus = tuple(-c for c in ref_pmul(num, deriv(den)))
    return ref_make(ref_padd(ref_pmul(deriv(num), den), minus),
                    ref_pmul(den, den))


def ref_scale_argument(f, q):
    return ref_make(*(tuple(c * q**i for i, c in enumerate(a)) for a in f))


def ref_str(f):
    def poly(a):
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            xpow = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            if not xpow:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(xpow if c == 1 else "-" + xpow)
            else:
                parts.append(f"{c}*{xpow}")
        text = parts[0] if parts else "0"
        for part in parts[1:]:
            text += (" - " + part[1:] if part.startswith("-")
                     else " + " + part)
        return text
    num, den = f
    return poly(num) if den == (1,) else f"({poly(num)})/({poly(den)})"


def assert_matches(got, want):
    num, den = want
    assert (got.num, got.den) == want
    assert str(got) == ref_str(want)
    negative = bool(num) and num[-1] < 0
    magnitude = (tuple(-c for c in num), den) if negative else want
    assert got.display() == (negative, ref_str(magnitude),
                             den == (1,) and sum(c != 0 for c in num) <= 1)
    rebuilt = RationalFunction.make(num, den)
    assert got == rebuilt and hash(got) == hash(rebuilt)


qx_pairs = st.tuples(
    st.lists(fractions_st, max_size=4),
    st.lists(fractions_st, min_size=1, max_size=4).filter(any),
)
nonzero_q = st.fractions(min_value=-4, max_value=4,
                         max_denominator=4).filter(lambda q: q != 0)


@given(qx_pairs, qx_pairs, nonzero_q)
def test_ratfunc_matches_fraction_euclid(p, r, q):
    a, b = RationalFunction.make(*p), RationalFunction.make(*r)
    shared = RationalFunction.make(r[0], p[1])
    ra, rb, rs = ref_make(*p), ref_make(*r), ref_make(r[0], p[1])
    for got, want in ((a, ra), (b, rb), (shared, rs)):
        assert_matches(got, want)
    assert (a == b) == (ra == rb)
    for other, ref_other in ((b, rb), (shared, rs), (a, ra)):
        assert_matches(a + other, ref_add(ra, ref_other))
        assert_matches(a - other, ref_add(ra, ref_neg(ref_other)))
        assert_matches(a * other, ref_mul(ra, ref_other))
        if not other.is_zero():
            assert_matches(other.inv(), ref_inv(ref_other))
            assert_matches(a / other, ref_mul(ra, ref_inv(ref_other)))
    assert_matches(a.scale_argument(q), ref_scale_argument(ra, q))
    d, rd = a, ra
    for _ in range(4):
        d, rd = d.derivative(), ref_derivative(rd)
        assert_matches(d, rd)


@pytest.mark.parametrize("p, r, total", [
    # 1/(x^2 + x) + 1/(x^2 - x) = 2/(x^2 - 1): the denominators share x,
    # and so does the numerator formed over their lcm
    (((1,), (0, 1, 1)), ((1,), (0, -1, 1)), ((2,), (-1, 0, 1))),
    # equal denominators: x/(x^2 - 1) + 1/(x^2 - 1) = 1/(x - 1)
    (((0, 1), (-1, 0, 1)), ((1,), (-1, 0, 1)), ((1,), (-1, 1))),
    # (x + 2)/(x + 1)^2 - 1/(x + 1)^2 = 1/(x + 1)
    (((2, 1), (1, 2, 1)), ((-1,), (1, 2, 1)), ((1,), (1, 1))),
    # a sum that cancels to zero over unequal denominators
    (((1,), (0, 2)), ((-3,), (0, 6)), ((), (1,))),
])
def test_ratfunc_sum_cancels_the_shared_factor(p, r, total):
    want = ref_make(*total)
    assert ref_add(ref_make(*p), ref_make(*r)) == want
    assert_matches(RationalFunction.make(*p) + RationalFunction.make(*r), want)


# integer polynomials, stored over the denominator (1,), take their own
# lane through sums, products and derivatives; the draws above rarely meet it

int_polys = st.lists(st.integers(-6, 6), max_size=5)


@given(int_polys, int_polys, qx_pairs)
def test_integer_polynomials_match_fraction_euclid(p, r, f):
    a, b, c = (RationalFunction.make(p), RationalFunction.make(r),
               RationalFunction.make(*f))
    ra, rb, rc = ref_make(p), ref_make(r), ref_make(*f)
    zero, rzero = QX.zero(), ref_make(())
    for other, ref_other in ((b, rb), (c, rc), (zero, rzero), (a, ra),
                             (-a, ref_neg(ra))):
        for x, y, rx, ry in ((a, other, ra, ref_other),
                             (other, a, ref_other, ra)):
            assert_matches(x + y, ref_add(rx, ry))
            assert_matches(x - y, ref_add(rx, ref_neg(ry)))
            assert_matches(x * y, ref_mul(rx, ry))
    d, rd = a, ra
    for _ in range(len(p) + 1):
        d, rd = d.derivative(), ref_derivative(rd)
        assert_matches(d, rd)
    assert d == zero


@pytest.mark.parametrize("q", [0, 1, -1, Fraction(-3, 4), Fraction(10, 6), 7])
def test_from_fraction_is_canonical(q):
    got = QX.from_fraction(q)
    assert_matches(got, ref_make((Fraction(q),)))
    assert got.is_zero() == (q == 0)
    assert_matches(got.derivative(), ref_make(()))


def test_zero_and_x_are_canonical():
    zero = QX.from_fraction(0)
    assert zero == QX.zero() and zero.is_zero()
    assert (zero.ints_num, zero.ints_den) == ((), (1,))
    x = QX.x()
    assert x == RationalFunction.make((0, 1))
    assert_matches(x, ref_make((0, 1)))
    assert_matches(x.derivative(), ref_make((1,)))
    assert_matches(QX.from_int(5).derivative(), ref_make(()))


def test_weyl_product_of_integer_polynomials_makes_no_gcd(weyl, monkeypatch):
    f = parse_expr("(x^3 - 2*x + 5)*t^3 + (4*x^2 + x)*t^2 - 3*x*t + x^4 - 1",
                   weyl)
    g = parse_expr("(2*x^2 + 7)*t^2 + (x^3 - x)*t + 6*x - 2", weyl)
    gcds = []
    original = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd",
                        lambda a, b: gcds.append((a, b)) or original(a, b))
    product = f * g
    assert gcds == []
    assert len(product.terms) == 6
    assert all(c.ints_den == (1,) for c in product.terms.values())


def test_ratfunc_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(f):
        num, den = (sum(sympy.Rational(c.numerator, c.denominator) * x**i
                        for i, c in enumerate(a)) for a in (f.num, f.den))
        return num / den

    def canonical(expr):
        num, den = (sympy.Poly(e, x)
                    for e in sympy.fraction(sympy.cancel(expr)))
        lead = den.LC()
        return tuple(ref_trim(Fraction(int(c.p), int(c.q))
                              for c in reversed([c / lead
                                                 for c in p.all_coeffs()]))
                     for p in (num, den))

    rng = random.Random(7)

    def draw():
        num = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        den = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        return RationalFunction.make(num, den if any(den) else (1,))

    for _ in range(30):
        a, b = draw(), draw()
        sa, sb = to_sympy(a), to_sympy(b)
        cases = [(a + b, sa + sb), (a * b, sa * sb), (a.derivative(),
                 sympy.diff(sa, x)), (a.scale_argument(Fraction(-2, 3)),
                 sa.subs(x, sympy.Rational(-2, 3) * x))]
        if not b.is_zero():
            cases.append((a / b, sa / sb))
        for got, expr in cases:
            assert (got.num, got.den) == canonical(expr)


def test_derivative_gcds_stay_within_the_denominator(monkeypatch):
    # (n/d)' needs gcd(d, d') only; cancelling against d^2 is the waste
    degrees = []
    original = scalars._pgcd

    def recording(a, b):
        degrees.append(max(len(a), len(b)) - 1)
        return original(a, b)

    monkeypatch.setattr(scalars, "_pgcd", recording)
    f = QX.from_coeffs((0, 3), (1, 1, 1))
    for _ in range(24):
        bound = len(f.den) - 1
        degrees.clear()
        f = f.derivative()
        assert degrees and max(degrees) <= bound


def test_scale_argument_by_zero_evaluates_at_zero():
    f = QX.from_coeffs((3, 1), (2, 0, 5))
    assert f.scale_argument(0) == QX.from_coeffs((Fraction(3, 2),))
    with pytest.raises(DivisionByZero):
        QX.from_coeffs((3, 1), (0, 1)).scale_argument(0)


# ---------------------------------------------------------------------------
# reference H(Q): four Fraction coordinates
# ---------------------------------------------------------------------------
# Quaternion computes over four integer numerators and one common
# denominator; this is the Fraction arithmetic it replaced, kept as an oracle
# that shares no code with skewpoly.  An element is a (w, x, y, z) tuple of
# Fractions.

def ref_q_add(p, r):
    return tuple(a + b for a, b in zip(p, r))


def ref_q_neg(p):
    return tuple(-c for c in p)


def ref_q_mul(p, r):
    a, b, c, d = p
    e, f, g, h = r
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def ref_q_conj(p):
    return (p[0], -p[1], -p[2], -p[3])


def ref_q_trace(p):
    return 2 * p[0]


def ref_q_norm(p):
    return sum(c * c for c in p)


def ref_q_inv(p):
    n = ref_q_norm(p)
    return tuple(c / n for c in ref_q_conj(p))


def ref_q_are_conjugate(p, r):
    if not any(p[1:]) or not any(r[1:]):
        return p == r
    return ref_q_trace(p) == ref_q_trace(r) and ref_q_norm(p) == ref_q_norm(r)


def ref_q_str(p):
    parts = []
    for c, unit in zip(p, ("", "i", "j", "k")):
        if c == 0:
            continue
        if not unit:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(unit if c == 1 else "-" + unit)
        else:
            parts.append(f"{c}*{unit}")
    text = parts[0] if parts else "0"
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


def assert_canonical(q):
    """Four integer numerators and a positive denominator, jointly
    primitive: the one form of each value."""
    assert type(q) is Quaternion
    assert type(q.den) is int and q.den > 0
    assert len(q.ints) == 4 and all(type(n) is int for n in q.ints)
    assert math.gcd(*q.ints, q.den) == 1


def assert_q_matches(got, want):
    assert (got.w, got.x, got.y, got.z) == want
    assert_canonical(got)
    assert str(got) == ref_q_str(want)
    nonzero = [c for c in want if c != 0]
    assert got.is_zero() == (not nonzero)
    assert got.is_central() == (not any(want[1:]))
    negative = bool(nonzero) and nonzero[0] < 0
    magnitude = tuple(-c for c in want) if negative else want
    assert got.display() == (negative, ref_q_str(magnitude),
                             len(nonzero) <= 1)
    rebuilt = HQ.make(*want)
    assert got == rebuilt and hash(got) == hash(rebuilt)


# denominators 1 to 6, so common denominators are mostly not 1
hq_coords = st.tuples(*[st.builds(Fraction, st.integers(-6, 6),
                                  st.integers(1, 6))] * 4)


@given(hq_coords, hq_coords)
def test_quaternion_matches_fraction_reference(p, r):
    a, b = HQ.make(*p), HQ.make(*r)
    # the same common denominator as a, for the equal-denominator sum
    rs = tuple(c + 1 for c in p)
    shared = HQ.make(*rs)
    for got, want in ((a, p), (b, r), (shared, rs)):
        assert_q_matches(got, want)
    assert (a == b) == (p == r)
    pairs = [(b, r), (shared, rs), (a, p)]
    if any(r):
        # a conjugate of a by b, so that the conjugacy test meets a True
        moved = ref_q_mul(ref_q_mul(r, p), ref_q_inv(r))
        assert_q_matches(b * a * b.inv(), moved)
        pairs.append((HQ.make(*moved), moved))
    for other, ro in pairs:
        assert_q_matches(a + other, ref_q_add(p, ro))
        assert_q_matches(a - other, ref_q_add(p, ref_q_neg(ro)))
        assert_q_matches(a * other, ref_q_mul(p, ro))
        assert are_conjugate(a, other) == ref_q_are_conjugate(p, ro)
        if any(ro):
            assert_q_matches(other.inv(), ref_q_inv(ro))
            assert_q_matches(a / other, ref_q_mul(p, ref_q_inv(ro)))
    assert_q_matches(-a, ref_q_neg(p))
    assert_q_matches(a.conjugate(), ref_q_conj(p))
    for got, want in ((a.reduced_trace(), ref_q_trace(p)),
                      (a.reduced_norm(), ref_q_norm(p))):
        assert type(got) is Fraction and got == want


def test_quaternion_product_matches_sympy():
    sympy = pytest.importorskip("sympy")
    sq = pytest.importorskip("sympy.algebras.quaternion")
    rng = random.Random(11)

    def draw():
        return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                     for _ in range(4))

    def to_sympy(p):
        return sq.Quaternion(*(sympy.Rational(c.numerator, c.denominator)
                               for c in p))

    def coords(s):
        return tuple(Fraction(int(c.p), int(c.q))
                     for c in (s.a, s.b, s.c, s.d))

    def parts(q):
        return (q.w, q.x, q.y, q.z)

    for _ in range(60):
        p, r = draw(), draw()
        a, b = HQ.make(*p), HQ.make(*r)
        assert parts(a * b) == coords(to_sympy(p) * to_sympy(r))
        if any(r):
            assert parts(b.inv()) == coords(to_sympy(r).inverse())


def test_quaternion_constructors_are_canonical():
    rng = random.Random(3)
    built = [HQ.zero(), HQ.one(), HQ.i(), HQ.j(), HQ.k(), HQ.from_int(-6),
             HQ.from_fraction(Fraction(6, 4)), HQ.from_fraction("-3/9"),
             HQ.make(Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6)),
             HQ.make("2/4", 0, "6/3"), HQ.make(0, 0, 0, 0)]
    built += [parse_scalar(text, HQ) for text in (
        "0", "2/4", "(2 + 2*i)/4", "1/2*i + 1/3*j - 5/6*k", "i*j",
        "6/3 - 4/2*k", "1/(i + j)", "(1 + i)^3/6")]
    built += [HQ.random(rng) for _ in range(20)]
    for q in built:
        assert_canonical(q)
    for a in built:
        for b in built:
            for q in (a + b, a - b, a * b, -a, a.conjugate()):
                assert_canonical(q)
            if not b.is_zero():
                assert_canonical(a / b)
                assert_canonical(b.inv())


@pytest.mark.parametrize("left, right", [
    (HQ.make(Fraction(1, 2), Fraction(1, 2)) * HQ.from_int(2), HQ.make(1, 1)),
    (HQ.make(Fraction(1, 3)) + HQ.make(Fraction(2, 3)), HQ.one()),
    (HQ.make(Fraction(1, 6), 0, Fraction(1, 4))
     + HQ.make(Fraction(1, 3), 0, Fraction(-1, 4)), HQ.make(Fraction(1, 2))),
    (HQ.i() * HQ.i() + HQ.one(), HQ.zero()),
    (HQ.from_fraction(Fraction(4, 2)), HQ.from_int(2)),
    (HQ.make(1, 1).inv(), HQ.make(Fraction(1, 2), Fraction(-1, 2))),
    (parse_scalar("(2 + 2*i)/4", HQ), HQ.make(Fraction(1, 2), Fraction(1, 2))),
])
def test_equal_quaternions_are_equal_and_hash_equal(left, right):
    assert left == right and hash(left) == hash(right)
    assert (left.ints, left.den) == (right.ints, right.den)


def test_random_quaternion_makes_the_reference_draws():
    for seed in range(200):
        ref, rng = random.Random(seed), random.Random(seed)
        want = tuple(Fraction(ref.randint(-5, 5), ref.randint(1, 3))
                     for _ in range(4))
        assert_q_matches(HQ.random(rng), want)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# printing: integer forms skip Fraction
# ---------------------------------------------------------------------------
# An integer polynomial prints its integer coefficients and a quaternion
# over 1 its integer parts directly; the oracles are the renderings with a
# Fraction per coefficient or part, as the printers did before.

@given(int_polys)
def test_integer_polynomial_prints_its_fraction_form(p):
    a = RationalFunction.make(p)
    assert a.ints_den == (1,)
    assert str(a) == scalars._pstr(a.num)


@given(st.tuples(*[st.integers(-6, 6)] * 4))
def test_integer_quaternion_prints_its_fraction_form(ints):
    a = HQ.make(*ints)
    assert a.den == 1
    assert str(a) == ref_q_str((a.w, a.x, a.y, a.z))


def _polys(ring, coeffs):
    exponents = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    return st.dictionaries(exponents, coeffs, max_size=6).map(
        lambda terms: SkewPoly(ring, terms))


@given(st.data())
def test_weyl_print_parse_round_trip(weyl, data):
    f = data.draw(_polys(weyl, st.one_of(int_polys.map(RationalFunction.make),
                                          ratfuncs)))
    g = parse_expr(str(f), weyl)
    assert g == f and str(g) == str(f)


@given(st.data())
def test_quat_inner2_print_parse_round_trip(quat_inner2, data):
    integer = st.tuples(*[st.integers(-6, 6)] * 4).map(lambda t: HQ.make(*t))
    f = data.draw(_polys(quat_inner2, st.one_of(integer, quaternions)))
    g = parse_expr(str(f), quat_inner2)
    assert g == f and str(g) == str(f)
