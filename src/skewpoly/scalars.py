"""Exact scalar arithmetic in the supported coefficient division rings.

Each ring is one class, and the class is the domain: ``Q``, ``QX`` and
``HQ`` are the classes themselves, ``r.domain`` is ``type(r)``, and the
constructors (``zero``, ``one``, ``from_int``, ``from_fraction``,
``random``) are classmethods.  Each class keeps a canonical representation,
so equality and the zero test are structural:

* ``Q``   -- :class:`Rational`, reduced fractions;
* ``Qx``  -- :class:`RationalFunction`, rational functions in one commuting
  indeterminate ``x``, stored as a fraction of coprime integer-coefficient
  polynomials with jointly primitive contents and a positive leading
  denominator coefficient, so arithmetic needs no ``Fraction``; gcds are
  primitive PRS over Python integers.  Sums, products and derivatives of
  integer polynomials (denominator 1) stay in Z[x] with no gcd or content
  pass: a polynomial over 1 is already in lowest terms and jointly
  primitive.  Printing (and ``num``/``den``) divides through to the monic
  denominator;
* ``HQ``  -- :class:`Quaternion`, the rational quaternions (the (-1,-1 / Q)
  algebra), the only noncommutative ring of the three, stored as four
  integer numerators over one positive common denominator, all five
  jointly primitive; each operation works on Python integers and ends in
  one 5-way gcd.

A class's ``name`` is its key in ring files and ``DOMAINS``, and its
``units`` are the names of its literal units (``x``; ``i``, ``j``, ``k``),
which the parser reads and ring files may not use as variables.  Mixing
scalars from different rings raises :class:`VariantMismatch`; every
computation is tagged with exactly one active ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, VariantMismatch
from .values import Value


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, used internally by RationalFunction
# ---------------------------------------------------------------------------
# Coefficient tuples, lowest degree first, with no trailing zero.

def _trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _pexquo(a, b):
    """The quotient a/b, when b divides a with an integer quotient."""
    if len(b) == 1:
        return tuple(c // b[0] for c in a)
    r = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] // lead
        if c:
            for i in range(n):
                r[k + i] -= c * b[i]
    return tuple(q)


def _primitive(a):
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return tuple(a) if g == 1 else tuple(c // g for c in a)


def _pgcd(a, b):
    """Primitive gcd of non-zero a and b with a positive leading coefficient
    (primitive PRS: pseudo-remainders with their content removed)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return (1,)
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r, n, lead = list(a), len(b) - 1, b[-1]
        while len(r) > n:
            top = r.pop()
            g = gcd(top, lead)
            scale, top = lead // g, top // g
            shift = len(r) - n
            r = [c * scale for c in r]
            for i in range(n):
                r[shift + i] -= top * b[i]
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


# the texts of x^i below the 64th power, past the x-degrees operator products
# print in weyl_products (at most 6); higher ones are formatted in place
_XPOW = ("", "x", *(f"x^{i}" for i in range(2, 64)))


def _pstr(a, sign=1) -> str:
    """The text of ``sign`` times the polynomial with coefficients ``a``,
    lowest degree first.  Each monomial writes its own sign: a leading
    "-", or the separator " + " or " - "."""
    out, flip = [], sign < 0
    for i in range(len(a) - 1, -1, -1):
        if c := a[i]:
            if negative := c < 0:
                c = -c
            if negative is not flip:
                out.append(" - " if out else "-")
            elif out:
                out.append(" + ")
            unit = _XPOW[i] if i < 64 else f"x^{i}"
            out.append(str(c) if not i else unit if c == 1
                       else f"{c}*{unit}")
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# scalar variants
# ---------------------------------------------------------------------------

class Scalar(Value):
    """Common interface of the three scalar variants, each of which is also
    its own domain.  Values are immutable."""

    __slots__ = ()
    name = ""  # the ring's key in ring files and DOMAINS
    # literal unit -> its slot in the parser's literal lane: the exponent
    # of x, the coordinate of i, j and k
    units = {}

    @property
    def domain(self):
        return self.__class__

    @classmethod
    def zero(cls):
        return cls.from_int(0)

    @classmethod
    def one(cls):
        return cls.from_int(1)

    def _refuse(self, other):
        """NotImplemented for a non-scalar ``other``; a scalar of another
        variant raises VariantMismatch."""
        if not isinstance(other, Scalar):
            return NotImplemented
        raise VariantMismatch(f"cannot combine {self.__class__.__name__} "
                              f"with {other.__class__.__name__}")

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return self._refuse(other)
        return self._add(other)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return self._refuse(other)
        return self._add(-other)

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return self._refuse(other)
        return self._mul(other)

    def __truediv__(self, other):
        if other.__class__ is not self.__class__:
            return self._refuse(other)
        return self._mul(other.inv())

    def __pow__(self, k: int):
        """Left-to-right square-and-multiply, starting from ``self``.

        A scalar product costs about the same whatever its factors' origin,
        so squaring's fewer products win here, unlike for operators.
        """
        if k < 0:
            return self.inv() ** (-k)
        if k == 0:
            return self.one()
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self._inv()

    def is_zero(self) -> bool:
        raise NotImplementedError

    def is_central(self) -> bool:
        """Whether the element commutes with the whole ring (exact)."""
        raise NotImplementedError

    def display(self) -> tuple[bool, str, bool]:
        """Whether str(self) starts with "-", str(-self) if it does and
        str(self) if not, and whether that text can stand unparenthesized
        inside a product."""
        raise NotImplementedError


class Rational(Scalar):
    __slots__ = ("value",)
    name = "Q"

    def __init__(self, value: Fraction):
        _set_value(self, value if isinstance(value, Fraction)
                   else Fraction(value))

    def __eq__(self, other):
        return (self.value == other.value if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash((self.value,))

    @classmethod
    def from_fraction(cls, q):
        return cls(Fraction(q))

    from_int = from_fraction

    @classmethod
    def random(cls, rng):
        return cls(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def _add(self, other):
        return Rational(self.value + other.value)

    def _mul(self, other):
        return Rational(self.value * other.value)

    def __neg__(self):
        return Rational(-self.value)

    def _inv(self):
        return Rational(1 / self.value)

    def is_zero(self):
        return self.value == 0

    def is_central(self):
        return True

    def display(self):
        return self.value < 0, str(abs(self.value)), True

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Rational({self.value})"


def _qx(n, d) -> "RationalFunction":
    """``n/d`` from coprime integer polynomials, divided by their joint
    content and with the sign making the denominator's lead positive."""
    if not n:
        return RationalFunction((), (1,))
    g = gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        n, d = tuple(c // g for c in n), tuple(c // g for c in d)
    return RationalFunction(n, d)


def _reduced(n, d) -> "RationalFunction":
    """``n/d`` in lowest terms, from integer polynomials with ``d != 0``."""
    if n and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            n, d = _pexquo(n, g), _pexquo(d, g)
    return _qx(n, d)


class RationalFunction(Scalar):
    """Element of Q(x): ``ints_num/ints_den``, integer coefficients lowest
    degree first, coprime, jointly primitive, with a positive leading
    denominator coefficient.  ``num`` and ``den`` give the same fraction
    over Q with a monic denominator."""

    __slots__ = ("ints_num", "ints_den")
    name = "Qx"
    units = {"x": 1}

    def __init__(self, ints_num: tuple[int, ...], ints_den: tuple[int, ...]):
        _set_num(self, ints_num)
        _set_den(self, ints_den)

    def __eq__(self, other):
        return (self.ints_num == other.ints_num
                and self.ints_den == other.ints_den
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.ints_num, self.ints_den))

    @classmethod
    def from_int(cls, n):
        return cls((n,) if n else (), (1,))

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls((q.numerator,) if q else (), (q.denominator,))

    x = classmethod(lambda cls: cls((0, 1), (1,)))

    @staticmethod
    def make(num, den=(1,)) -> "RationalFunction":
        num = _trim(Fraction(c) for c in num)
        den = _trim(Fraction(c) for c in den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        m = lcm(*(c.denominator for c in num + den))
        return _reduced(tuple(c.numerator * (m // c.denominator) for c in num),
                        tuple(c.numerator * (m // c.denominator) for c in den))

    from_coeffs = make

    @classmethod
    def random(cls, rng):
        num = _trim([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        den = (rng.randint(1, 3), 1) if rng.random() < 0.3 else (1,)
        return _reduced(num, den)

    @property
    def num(self) -> tuple[Fraction, ...]:
        lead = self.ints_den[-1]
        return tuple(Fraction(c, lead) for c in self.ints_num)

    @property
    def den(self) -> tuple[Fraction, ...]:
        lead = self.ints_den[-1]
        return tuple(Fraction(c, lead) for c in self.ints_den)

    def _add(self, other):
        # with g = gcd(d1, d2), the sum's common factor divides g (Henrici)
        n1, d1 = self.ints_num, self.ints_den
        n2, d2 = other.ints_num, other.ints_den
        if not n1 or not n2:
            return other if not n1 else self
        if d1 == d2 == (1,):
            return RationalFunction(_padd(n1, n2), d1)
        g = d1 if d1 == d2 else _pgcd(d1, d2)
        d2g = _pexquo(d2, g)
        n = _padd(_pmul(n1, d2g), _pmul(n2, _pexquo(d1, g)))
        h = _pgcd(n, g) if n else (1,)
        if len(h) > 1:
            n, d1 = _pexquo(n, h), _pexquo(d1, h)
        return _qx(n, _pmul(d1, d2g))

    def _mul(self, other):
        # cross-cancel: gcd(n1, d2) and gcd(n2, d1); a square needs neither
        n1, d1 = self.ints_num, self.ints_den
        n2, d2 = other.ints_num, other.ints_den
        if d1 == d2 == (1,):
            return RationalFunction(_pmul(n1, n2), d1)
        if n1 and n2 and self is not other:
            g = _pgcd(n1, d2)
            if len(g) > 1:
                n1, d2 = _pexquo(n1, g), _pexquo(d2, g)
            g = _pgcd(n2, d1)
            if len(g) > 1:
                n2, d1 = _pexquo(n2, g), _pexquo(d1, g)
        return _qx(_pmul(n1, n2), _pmul(d1, d2))

    def __neg__(self):
        return RationalFunction(tuple(-c for c in self.ints_num),
                                self.ints_den)

    def _inv(self):
        return _qx(self.ints_den, self.ints_num)

    def is_zero(self):
        return not self.ints_num

    def is_central(self):
        return True

    def display(self):
        n, d = self.ints_num, self.ints_den
        negative = bool(n) and n[-1] < 0
        return (negative, self._str(-1 if negative else 1),
                len(d) == 1 and len(n) - n.count(0) <= 1)

    def derivative(self) -> "RationalFunction":
        # with g = gcd(d, d'): (n/d)' = (n'(d/g) - n(d'/g)) / (d(d/g)),
        # already in lowest terms
        n, d = self.ints_num, self.ints_den
        dn = tuple(i * c for i, c in enumerate(n))[1:]
        if d == (1,):
            return RationalFunction(dn, d)
        if len(d) == 1:
            return _qx(dn, d)
        dd = tuple(i * c for i, c in enumerate(d))[1:]
        g = _pgcd(d, dd)
        dg = _pexquo(d, g)
        minus = tuple(-c for c in _pexquo(dd, g))
        return _qx(_padd(_pmul(dn, dg), _pmul(n, minus)), _pmul(d, dg))

    def scale_argument(self, q: Fraction) -> "RationalFunction":
        """f(x) -> f(q*x); for q != 0 an automorphism, so no gcd is needed."""
        q = Fraction(q)
        if not q:
            return RationalFunction.make(self.num[:1], self.den[:1])
        a, b = q.numerator, q.denominator
        top = max(len(self.ints_num), len(self.ints_den)) - 1
        return _qx(*(tuple(c * a**i * b**(top - i) for i, c in enumerate(p))
                     for p in (self.ints_num, self.ints_den)))

    def __str__(self):
        return self._str(1)

    def _str(self, sign):
        if self.ints_den == (1,):
            return _pstr(self.ints_num, sign)
        if len(self.ints_den) == 1:
            return _pstr(self.num, sign)
        return f"({_pstr(self.num, sign)})/({_pstr(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _hq(a, b, c, d, m) -> "Quaternion":
    """``(a + b i + c j + d k)/m`` from integers with ``m > 0``, divided by
    their joint content."""
    g = gcd(a, b, c, d, m)
    if g != 1:
        a, b, c, d, m = a // g, b // g, c // g, d // g, m // g
    return Quaternion((a, b, c, d), m)


class Quaternion(Scalar):
    """Element of the (-1,-1 / Q) quaternion division algebra:
    ``(a + b i + c j + d k)/den`` with ``ints = (a, b, c, d)``, the five
    integers jointly primitive and ``den > 0``.  ``w``, ``x``, ``y`` and
    ``z`` give the four coordinates as ``Fraction``s."""

    __slots__ = ("ints", "den")
    name = "HQ"
    units = {"i": 1, "j": 2, "k": 3}

    def __init__(self, ints: tuple[int, int, int, int], den: int):
        _set_ints(self, ints)
        _set_hq_den(self, den)

    def __eq__(self, other):
        return (self.ints == other.ints and self.den == other.den
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.ints, self.den))

    w = property(lambda self: Fraction(self.ints[0], self.den))
    x = property(lambda self: Fraction(self.ints[1], self.den))
    y = property(lambda self: Fraction(self.ints[2], self.den))
    z = property(lambda self: Fraction(self.ints[3], self.den))
    i = classmethod(lambda cls: cls((0, 1, 0, 0), 1))
    j = classmethod(lambda cls: cls((0, 0, 1, 0), 1))
    k = classmethod(lambda cls: cls((0, 0, 0, 1), 1))

    @classmethod
    def from_int(cls, n):
        return cls((n, 0, 0, 0), 1)

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls((q.numerator, 0, 0, 0), q.denominator)

    @classmethod
    def make(cls, w, x=0, y=0, z=0) -> "Quaternion":
        # over the lcm of reduced denominators the five are jointly primitive
        parts = [Fraction(v) for v in (w, x, y, z)]
        m = lcm(*(p.denominator for p in parts))
        return cls(tuple(p.numerator * (m // p.denominator) for p in parts), m)

    @classmethod
    def random(cls, rng):
        # the draws of four Fraction(randint(-5, 5), randint(1, 3))
        parts = [(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        m = lcm(*(d for _, d in parts))
        return _hq(*(n * (m // d) for n, d in parts), m)

    def _add(self, other):
        a, b, c, d = self.ints
        e, f, g, h = other.ints
        m, n = self.den, other.den
        if m == n:
            return _hq(a + e, b + f, c + g, d + h, m)
        return _hq(a * n + e * m, b * n + f * m, c * n + g * m,
                   d * n + h * m, m * n)

    def _mul(self, other):
        a, b, c, d = self.ints
        e, f, g, h = other.ints
        return _hq(a * e - b * f - c * g - d * h,
                   a * f + b * e + c * h - d * g,
                   a * g - b * h + c * e + d * f,
                   a * h + b * g - c * f + d * e,
                   self.den * other.den)

    def __neg__(self):
        a, b, c, d = self.ints
        return Quaternion((-a, -b, -c, -d), self.den)

    def conjugate(self):
        a, b, c, d = self.ints
        return Quaternion((a, -b, -c, -d), self.den)

    def reduced_trace(self) -> Fraction:
        return Fraction(2 * self.ints[0], self.den)

    def reduced_norm(self) -> Fraction:
        a, b, c, d = self.ints
        return Fraction(a * a + b * b + c * c + d * d, self.den * self.den)

    def _inv(self):
        # conj(q)/N(q) = (a, -b, -c, -d) m / (a^2 + b^2 + c^2 + d^2)
        a, b, c, d = self.ints
        m = self.den
        return _hq(a * m, -b * m, -c * m, -d * m,
                   a * a + b * b + c * c + d * d)

    def is_zero(self):
        return self.ints == (0, 0, 0, 0)

    def is_central(self):
        _, b, c, d = self.ints
        return b == 0 and c == 0 and d == 0

    def display(self):
        negative = next((n < 0 for n in self.ints if n), False)
        return (negative, self._str(-1 if negative else 1),
                self.ints.count(0) >= 3)

    def __str__(self):
        return self._str(1)

    def _str(self, sign):
        m, out = self.den, []
        for n, unit in zip(self.ints, ("", "i", "j", "k")):
            if n := sign * n:
                if n < 0:
                    out.append(" - " if out else "-")
                    n = -n
                elif out:
                    out.append(" + ")
                c = n if m == 1 else Fraction(n, m)
                out.append(str(c) if not unit else unit if n == m
                           else f"{c}*{unit}")
        return "".join(out) or "0"

    def __repr__(self):
        return f"Quaternion({self})"


Q, QX, HQ = Rational, RationalFunction, Quaternion
_set_value, _set_num, _set_den, _set_ints, _set_hq_den = (  # bound setters
    s.__set__ for s in (Q.value, QX.ints_num, QX.ints_den, HQ.ints, HQ.den))
DOMAINS = {d.name: d for d in (Q, QX, HQ)}


def conjugacy_key(a: Scalar):
    """Equal for two elements exactly when they are conjugate: ``a`` itself
    over the fields and for a central quaternion, else the minimal
    polynomial's reduced trace and norm as lowest-terms integer pairs
    (Skolem-Noether)."""
    if a.__class__ is not Quaternion or a.is_central():
        return a
    n0, n1, n2, n3 = a.ints
    m, t, n = a.den, 2 * n0, n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
    g, h = gcd(t, m), gcd(n, m * m)
    return t // g, m // g, n // h, m * m // h


def are_conjugate(a: Scalar, b: Scalar) -> bool:
    """Whether ``a`` and ``b`` lie in the same conjugacy class: whether
    their :func:`conjugacy_key` values agree."""
    if a.__class__ is not b.__class__:
        raise VariantMismatch("conjugacy test across different rings")
    return conjugacy_key(a) == conjugacy_key(b)
