"""Exact scalar arithmetic in the supported coefficient division rings.

Three rings are available, each with a canonical representation so that
equality and the zero test are structural:

* ``Q``   -- rational numbers, reduced fractions;
* ``Qx``  -- rational functions in one commuting indeterminate ``x``,
  stored as a gcd-reduced fraction of polynomials with a monic denominator;
* ``HQ``  -- the rational quaternions (the (-1,-1 / Q) algebra), the only
  noncommutative ring of the three.

Mixing scalars from different rings raises :class:`VariantMismatch`; every
computation is tagged with exactly one active ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DivisionByZero, VariantMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, used internally by RationalFunction
# ---------------------------------------------------------------------------

def _trim(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO)
        for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv_lead = 1 / b[-1]
    while len(r) >= len(b) and _trim(r):
        r = list(_trim(r))
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = r[-1] * inv_lead
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        r.pop()
    return _trim(q), _trim(r)


def _pgcd(a, b):
    # Euclid over Q; result is monic (or () when both inputs are zero).
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def _pderiv(a):
    return _trim(Fraction(i) * a[i] for i in range(1, len(a)))


def _pscale_arg(a, q: Fraction):
    # f(x) -> f(q*x)
    return _trim(c * q**i for i, c in enumerate(a))


def _pstr(a) -> str:
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


# ---------------------------------------------------------------------------
# scalar variants
# ---------------------------------------------------------------------------

class Scalar:
    """Common interface of the three scalar variants. Values are immutable."""

    __slots__ = ()

    def _same_variant(self, other):
        if self.__class__ is not other.__class__:
            raise VariantMismatch(
                f"cannot combine {self.__class__.__name__} with "
                f"{other.__class__.__name__}"
            )

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same_variant(other)
        return self._add(other)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same_variant(other)
        return self._add(-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same_variant(other)
        return self._mul(other)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same_variant(other)
        return self._mul(other.inv())

    def __pow__(self, k: int):
        """Left-to-right square-and-multiply, starting from ``self``.

        A scalar product costs about the same whatever its factors' origin,
        so squaring's fewer products win here, unlike for operators.
        """
        if k < 0:
            return self.inv() ** (-k)
        if k == 0:
            return self.domain.one()
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

    def is_atomic_factor(self) -> bool:
        """Whether str(self) can stand unparenthesized inside a product."""
        raise NotImplementedError

    @property
    def domain(self) -> "ScalarDomain":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Rational(Scalar):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

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

    def is_display_negative(self):
        return self.value < 0

    def is_atomic_factor(self):
        return True

    @property
    def domain(self):
        return Q

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Rational({self.value})"


@dataclass(frozen=True, slots=True)
class RationalFunction(Scalar):
    """Element of Q(x): ``num/den`` gcd-reduced with monic denominator."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @staticmethod
    def make(num, den=(_ONE,)) -> "RationalFunction":
        num = _trim(Fraction(c) for c in num)
        den = _trim(Fraction(c) for c in den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            return RationalFunction((), (_ONE,))
        if den == (_ONE,):
            return RationalFunction(num, den)
        g = _pgcd(num, den)
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        return RationalFunction(num, den)

    def _add(self, other):
        if self.den == other.den == (_ONE,):
            return RationalFunction(_padd(self.num, other.num), (_ONE,))
        return RationalFunction.make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def _mul(self, other):
        if self.den == other.den == (_ONE,):
            return RationalFunction(_pmul(self.num, other.num), (_ONE,))
        return RationalFunction.make(
            _pmul(self.num, other.num), _pmul(self.den, other.den)
        )

    def __neg__(self):
        return RationalFunction(_pneg(self.num), self.den)

    def _inv(self):
        return RationalFunction.make(self.den, self.num)

    def is_zero(self):
        return not self.num

    def is_central(self):
        return True

    def is_constant(self):
        return len(self.num) <= 1 and self.den == (_ONE,)

    def is_display_negative(self):
        return bool(self.num) and self.num[-1] < 0

    def is_atomic_factor(self):
        return self.den == (_ONE,) and sum(1 for c in self.num if c != 0) <= 1

    def derivative(self) -> "RationalFunction":
        # (p/q)' = (p'q - pq') / q^2
        return RationalFunction.make(
            _padd(_pmul(_pderiv(self.num), self.den),
                  _pneg(_pmul(self.num, _pderiv(self.den)))),
            _pmul(self.den, self.den),
        )

    def scale_argument(self, q: Fraction) -> "RationalFunction":
        """f(x) -> f(q*x)."""
        return RationalFunction.make(
            _pscale_arg(self.num, q), _pscale_arg(self.den, q)
        )

    @property
    def domain(self):
        return QX

    def __str__(self):
        if self.den == (_ONE,):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


@dataclass(frozen=True, slots=True)
class Quaternion(Scalar):
    """Element of the (-1,-1 / Q) quaternion division algebra."""

    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        for f in ("w", "x", "y", "z"):
            v = getattr(self, f)
            if not isinstance(v, Fraction):
                object.__setattr__(self, f, Fraction(v))

    def _add(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def _mul(self, other):
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def reduced_trace(self) -> Fraction:
        return 2 * self.w

    def reduced_norm(self) -> Fraction:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def _inv(self):
        n = self.reduced_norm()
        c = self.conjugate()
        return Quaternion(c.w / n, c.x / n, c.y / n, c.z / n)

    def is_zero(self):
        return self.w == 0 and self.x == 0 and self.y == 0 and self.z == 0

    def is_central(self):
        return self.x == 0 and self.y == 0 and self.z == 0

    def is_display_negative(self):
        for comp in (self.w, self.x, self.y, self.z):
            if comp != 0:
                return comp < 0
        return False

    def is_atomic_factor(self):
        return sum(1 for c in (self.w, self.x, self.y, self.z) if c != 0) <= 1

    @property
    def domain(self):
        return HQ

    def __str__(self):
        parts = []
        for comp, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if comp == 0:
                continue
            if not unit:
                parts.append(str(comp))
            elif comp == 1:
                parts.append(unit)
            elif comp == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{comp}*{unit}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"Quaternion({self})"


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Singleton handle for one coefficient ring."""

    name: str = ""

    def zero(self) -> Scalar:
        return self.from_int(0)

    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, n: int) -> Scalar:
        raise NotImplementedError

    def from_fraction(self, q: Fraction) -> Scalar:
        raise NotImplementedError

    def random(self, rng) -> Scalar:
        raise NotImplementedError

    def random_nonzero(self, rng) -> Scalar:
        while True:
            s = self.random(rng)
            if not s.is_zero():
                return s

    def central_probes(self) -> tuple[Scalar, ...]:
        """Multiplicative generators: commuting with all of them is central."""
        return ()

    def __repr__(self):
        return f"<domain {self.name}>"


class _RationalDomain(ScalarDomain):
    name = "Q"

    def from_int(self, n):
        return Rational(Fraction(n))

    def from_fraction(self, q):
        return Rational(Fraction(q))

    def random(self, rng):
        return Rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


class _FunctionFieldDomain(ScalarDomain):
    name = "Qx"

    def from_int(self, n):
        return RationalFunction.make((Fraction(n),))

    def from_fraction(self, q):
        return RationalFunction.make((Fraction(q),))

    def x(self) -> RationalFunction:
        return RationalFunction.make((_ZERO, _ONE))

    def from_coeffs(self, num, den=(1,)) -> RationalFunction:
        return RationalFunction.make(num, den)

    def random(self, rng):
        num = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            den = (Fraction(rng.randint(1, 3)), _ONE)
        else:
            den = (_ONE,)
        return RationalFunction.make(num, den)

    def central_probes(self):
        return (self.x(),)


class _QuaternionDomain(ScalarDomain):
    name = "HQ"

    def from_int(self, n):
        return Quaternion(Fraction(n), _ZERO, _ZERO, _ZERO)

    def from_fraction(self, q):
        return Quaternion(Fraction(q), _ZERO, _ZERO, _ZERO)

    def i(self):
        return Quaternion(_ZERO, _ONE, _ZERO, _ZERO)

    def j(self):
        return Quaternion(_ZERO, _ZERO, _ONE, _ZERO)

    def k(self):
        return Quaternion(_ZERO, _ZERO, _ZERO, _ONE)

    def make(self, w, x=0, y=0, z=0) -> Quaternion:
        return Quaternion(Fraction(w), Fraction(x), Fraction(y), Fraction(z))

    def random(self, rng):
        return Quaternion(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(4)))

    def central_probes(self):
        # commuting with i and j forces the j,k and i,k parts to vanish
        return (self.i(), self.j())


Q = _RationalDomain()
QX = _FunctionFieldDomain()
HQ = _QuaternionDomain()

DOMAINS = {d.name: d for d in (Q, QX, HQ)}


def are_conjugate(a: Scalar, b: Scalar) -> bool:
    """Whether ``a`` and ``b`` lie in the same conjugacy class.

    Over the two fields this is equality.  Over the rational quaternions two
    non-central elements are conjugate exactly when their minimal polynomials
    over Q agree, i.e. when reduced trace and reduced norm agree
    (Skolem-Noether); central elements are conjugate only to themselves.
    """
    if a.__class__ is not b.__class__:
        raise VariantMismatch("conjugacy test across different rings")
    if not isinstance(a, Quaternion):
        return a == b
    if a.is_central() or b.is_central():
        return a == b
    return (a.reduced_trace() == b.reduced_trace()
            and a.reduced_norm() == b.reduced_norm())
