"""Independent checks for the benchmark's operations.

Nothing here imports skewpoly.  Outputs are read back from their rendered
text with a small commutative polynomial reader, and verified with the
benchmark's own arithmetic:

* Weyl products through a faithful module action: each ``t_i`` acts on
  Q[x] as ``d/dx + lam_i`` for seeded integers ``lam_i``, so
  ``(f*g).r = f.(g.r)`` for a seeded high-degree ``r``.
* Products in the ``configs/quat_inner.json`` ring through the isomorphism
  with the ordinary polynomial ring H[u1, u2] (central ``u``): a variable
  with inner automorphism ``r -> c r c^-1`` and inner derivation
  ``r -> d r - c r c^-1 d`` equals ``c*u + d`` for a ``u`` that commutes
  with every scalar.
* Quaternion formal substitution and conjugacy invariants for the
  Nullstellensatz operations.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


class ReadError(ValueError):
    """The rendered text is not a polynomial the reader understands."""


# ---------------------------------------------------------------------------
# reading rendered polynomials (commutatively: a normal form has every
# coefficient on the left, so the commutative reading keeps its terms)
# ---------------------------------------------------------------------------

def _padd(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def read_poly(text: str, symbols) -> dict:
    """Parse ``text`` as a polynomial over Q in ``symbols``.

    Returns ``{exponent tuple: Fraction}``.  Division is only allowed by a
    rational constant.
    """
    symbols = tuple(symbols)
    tokens = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            tokens.append(("num", int(num)))
        elif name:
            if name not in symbols:
                raise ReadError(f"unknown symbol {name!r} in {text!r}")
            tokens.append(("name", symbols.index(name)))
        elif op.strip():
            if op not in "+-*/^()":
                raise ReadError(f"unexpected {op!r} in {text!r}")
            tokens.append(("op", op))
    tokens.append(("end", None))
    pos = 0
    zero_exp = (0,) * len(symbols)

    def peek(op):
        return tokens[pos] == ("op", op)

    def take(op):
        nonlocal pos
        if not peek(op):
            raise ReadError(f"expected {op!r} in {text!r}")
        pos += 1

    def const(c) -> dict:
        return {zero_exp: Fraction(c)} if c else {}

    def expr() -> dict:
        value = term()
        while peek("+") or peek("-"):
            sign = 1 if peek("+") else -1
            take("+" if sign == 1 else "-")
            value = _padd(value, term(), sign)
        return value

    def term() -> dict:
        value = unary()
        while peek("*") or peek("/"):
            if peek("*"):
                take("*")
                value = _pmul(value, unary())
            else:
                take("/")
                den = unary()
                if set(den) != {zero_exp}:
                    raise ReadError(f"non-constant divisor in {text!r}")
                value = _pmul(value, const(1 / den[zero_exp]))
        return value

    def unary() -> dict:
        if peek("-"):
            take("-")
            return {m: -c for m, c in unary().items()}
        return power()

    def power() -> dict:
        nonlocal pos
        base = atom()
        if peek("^"):
            take("^")
            kind, k = tokens[pos]
            if kind != "num":
                raise ReadError(f"bad exponent in {text!r}")
            pos += 1
            out = const(1)
            for _ in range(k):
                out = _pmul(out, base)
            return out
        return base

    def atom() -> dict:
        nonlocal pos
        kind, value = tokens[pos]
        if kind == "num":
            pos += 1
            return const(value)
        if kind == "name":
            pos += 1
            return {tuple(1 if i == value else 0
                          for i in range(len(symbols))): Fraction(1)}
        if peek("("):
            take("(")
            out = expr()
            take(")")
            return out
        raise ReadError(f"unexpected token in {text!r}")

    out = expr()
    if tokens[pos][0] != "end":
        raise ReadError(f"trailing input in {text!r}")
    return out


def split_vars(poly: dict, nscalar: int) -> dict:
    """``{var exponents: {scalar exponents: coeff}}`` from a read polynomial
    whose first ``nscalar`` symbols are scalar generators."""
    out: dict = {}
    for m, c in poly.items():
        out.setdefault(m[nscalar:], {})[m[:nscalar]] = c
    return out


# ---------------------------------------------------------------------------
# Weyl rings: the action of t_i as d/dx + lam_i on Q[x]
# ---------------------------------------------------------------------------

def _shifted_deriv(p: list, lam: int) -> list:
    """(d/dx + lam) p for a dense coefficient list."""
    out = [lam * c for c in p]
    for i in range(1, len(p)):
        out[i - 1] += i * p[i]
    return out


def _mul_dense(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _add_dense(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _trim_dense(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def weyl_act(op: dict, r: list, lams) -> list:
    """Apply ``sum c_E(x) t^E`` to ``r`` with t_i = d/dx + lam_i.

    ``op`` maps variable exponent tuples to dense x-coefficient lists;
    variables act right to left, which is immaterial as they commute.
    """
    table = {(0,) * len(lams): r}

    def image(exps):
        if exps in table:
            return table[exps]
        i = max(k for k, e in enumerate(exps) if e)
        lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        table[exps] = _shifted_deriv(image(lower), lams[i])
        return table[exps]

    out: list = []
    for exps in sorted(op):
        out = _add_dense(out, _mul_dense(op[exps], image(exps)))
    return _trim_dense(out)


def dense_from_read(coeffs: dict) -> list:
    """A ``{(xdeg,): coeff}`` map as a dense list (coefficients must be
    integers, as Weyl products of integer operators are)."""
    if not coeffs:
        return []
    out = [0] * (max(m[0] for m in coeffs) + 1)
    for (d,), c in coeffs.items():
        if c.denominator != 1:
            raise ReadError(f"non-integer coefficient {c}")
        out[d] = c.numerator
    return out


# ---------------------------------------------------------------------------
# quaternions as 4-tuples of Fractions
# ---------------------------------------------------------------------------

QZERO = (Fraction(0),) * 4
QONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def qmul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def qadd(p, q):
    return tuple(x + y for x, y in zip(p, q))


def qscale(s, q):
    return tuple(s * x for x in q)


def qnorm(q) -> Fraction:
    return sum(x * x for x in q)


def qinv(q):
    n = qnorm(q)
    return (q[0] / n, -q[1] / n, -q[2] / n, -q[3] / n)


def quaternion_coeffs(poly: dict) -> dict:
    """``{var exponents: quaternion}`` from a read polynomial whose first
    three symbols are i, j, k (each appears at most linearly)."""
    out: dict = {}
    for m, c in poly.items():
        unit, rest = m[:3], m[3:]
        if sum(unit) > 1:
            raise ReadError("product of quaternion units in rendered output")
        slot = 0 if not any(unit) else 1 + unit.index(1)
        q = list(out.get(rest, QZERO))
        q[slot] += c
        out[rest] = tuple(q)
    return {m: q for m, q in out.items() if q != QZERO}


def read_quaternion(text: str):
    return quaternion_coeffs(read_poly(text, ("i", "j", "k"))).get((), QZERO)


def qpoly_mul(a: dict, b: dict) -> dict:
    """Product in H[u_1..u_n] with central u (coefficients keep their order)."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = qadd(out.get(m, QZERO), qmul(ca, cb))
    return {m: q for m, q in out.items() if q != QZERO}


def qpoly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, q in b.items():
        out[m] = qadd(out.get(m, QZERO), q)
    return {m: q for m, q in out.items() if q != QZERO}


class InnerBasis:
    """Rewrites elements of a ring whose variables all have inner twists
    ``t_v = c_v*u_v + d_v`` into H[u] with central, commuting u.

    ``twists`` lists ``(c_v, d_v)`` per variable; the u_v commute when the
    ``c_v`` and ``d_v`` pairwise commute, as they do in quat_inner.json.
    """

    def __init__(self, twists):
        self.twists = tuple(twists)
        self._powers: dict = {}

    def _var_power(self, v: int, e: int) -> dict:
        key = (v, e)
        if key not in self._powers:
            n = len(self.twists)
            if e == 0:
                self._powers[key] = {(0,) * n: QONE}
            else:
                c, d = self.twists[v]
                unit = tuple(1 if i == v else 0 for i in range(n))
                step = {unit: c, (0,) * n: d} if d != QZERO else {unit: c}
                self._powers[key] = qpoly_mul(self._var_power(v, e - 1), step)
        return self._powers[key]

    def convert(self, element: dict) -> dict:
        """``{var exponents: quaternion}`` in the t basis to the u basis."""
        n = len(self.twists)
        out: dict = {}
        for exps, b in element.items():
            term = {(0,) * n: b}
            for v, e in enumerate(exps):
                if e:
                    term = qpoly_mul(term, self._var_power(v, e))
            out = qpoly_add(out, term)
        return out


def formal_value(coeffs: dict, point) -> tuple:
    """Left formal substitution ``sum b_E * a_1^e_1 * ... * a_n^e_n``."""
    powers = [[QONE] for _ in point]
    total = QZERO
    for exps, b in coeffs.items():
        value = b
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(qmul(powers[i][-1], point[i]))
            if e:
                value = qmul(value, powers[i][e])
        total = qadd(total, value)
    return total


def trace_norm(q):
    return 2 * q[0], qnorm(q)


def min_poly(q) -> list:
    """Minimal polynomial over Q of a non-real quaternion, low degree first."""
    tr, n = trace_norm(q)
    return [n, -tr, Fraction(1)]
