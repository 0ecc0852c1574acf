"""Normal forms and exact arithmetic in skew polynomial rings.

A ring is an ordered list of variables ``t_1, ..., t_n``, each twisting the
scalars through an automorphism/derivation pair ``(aut_i, der_i)`` with the
defining relation ``t_i * r = aut_i(r) * t_i + der_i(r)``.  Variables fix
each other, so the ring is the iterated ring D[t_1; aut_1, der_1]...[t_n;
aut_n, der_n] whose twists fix and kill the earlier variables, and every
element has a unique expansion with left coefficients in the monomial basis
``t_1^{i_1} ... t_n^{i_n}``.  ``SkewPoly`` stores that expansion as a
sparse map from exponent vectors to non-zero coefficients.  Degrees are
integers; the zero polynomial has degree -1.

That map is in checked form: exponent tuples of the ring's arity, none
negative, and no zero coefficient.  ``SkewPoly(ring, terms)`` checks data
from outside the library.  The library's own results (products, sums,
scaling, the parser's values, monic division) are built in that form and
wrapped by ``SkewPoly._of`` unchecked and uncopied; a dict handed to it is
never changed afterwards.

Multiplication distributes the right factor's monomials through the left
one, commuting scalars variable by variable; ``t^k * r = r t^k`` for (id,
0).  ``SkewPoly.__mul__`` takes one of three paths.  Over H(Q) any other
variable reads ``t^k * r = sum_b r_b (t^k * e_b)`` off integer matrices
kept on the ring, O(k^2) entries per variable in the largest k used
(``_basis_power``), on integer 4-vectors that are reduced once per output
term (``_hq_product``).  Over Q and Q(x) a power table kept for one
product reads an identity-twisted variable's ``t^k * r = sum_j C(k, j)
der^j(r) t^(k-j)`` off a derivative list of r, extends any other's last
power of r by one single step (aut, der), and sums the terms ``m * a * c``
(left coefficient a, table scalar c, integer m) per exponent vector in
scalar arithmetic (``_table_product``).  The tests check every rule
against a literal single-step recurrence, and whole products against sums
of the recurrence's terms, which share no code with this module, and Weyl
products against sympy.

The Weyl lane skips the power table.  Over Q(x), when every variable is
twisted by (id, d/dx) or (id, 0) and every coefficient of both factors is
an integer polynomial, f * g = sum_j F_j * d^j g/dx^j with F_j = D^j(f)/j!
(D the sum of d/dt_i over the d/dx variables), and each F_j * G_j is a
commutative product in Z[x, t], packed whole into one integer by
Kronecker substitution (``_weyl_product``).  Evaluation at 2^B is a ring
homomorphism, and B = bitlength(sum_j |F_j|_1 |G_j|_1) + 1 keeps every
coefficient of the sum below 2^(B-1) in absolute value, so the balanced
base-2^B digits are the coefficients: the width is proved, not guessed and
retried.  The packed integer has one x-polynomial slot per cell of the
product's exponent box, so the lane is taken only when the box has fewer
cells than the product has term pairs and at most 8 x-digits per pair;
sparse and one-term products, and long operators with high x-degrees times
short ones, take the power table.  ``tests/test_packed_products.py``
checks the lane against ``_table_product``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, lcm, prod
from operator import add, mul

from .errors import IncompatibleMaps, RingMismatch, ZeroPolynomial, _quoted
from .maps import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Certificate,
    CheckRecord,
    DdxDer,
    IdentityAut,
    RingMap,
    ZeroDer,
    check_sample_count,
    commutation_record,
    derivation_record,
)
from .scalars import HQ, QX, RationalFunction, Scalar, _hq
from .values import Value


class Variable(Value):
    __slots__ = ("name", "aut", "der")


def _certify(domain, variables) -> Certificate:
    """Leibniz certification per variable plus pairwise map commutation."""
    records = []
    for v in variables:
        rec = derivation_record(domain, v.aut, v.der)
        records.append(CheckRecord(f"leibniz({v.name})", rec.samples,
                                   rec.failures, rec.analytic))
    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            a, b = variables[i], variables[j]
            for m1, m2 in ((a.aut, b.aut), (a.aut, b.der),
                           (a.der, b.aut), (a.der, b.der)):
                records.append(commutation_record(domain, m1, m2))
    return Certificate(tuple(records))


class OreRing:
    """A skew polynomial ring over one of the supported scalar domains.

    The compatibility certificate is computed at construction: each
    derivation is checked against its automorphism and, for multi-variable
    rings, all map pairs are checked for commutation, each law decided on
    the generators of the domain.  A law left undecided fails the
    certificate, and multiplication refuses to run on a failed certificate.
    Variables fix each other, so the ring is also the iterated tower.
    ``samples`` and ``seed`` are the settings of the sampled tuple records
    certified over the ring; rings derived by ``with_variables`` keep them.
    """

    flavor = "commuting"  # read by __repr__, ring_to_data and the tracer

    def __init__(self, domain: type[Scalar], variables, *,
                 samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED):
        vs = tuple(v if isinstance(v, Variable) else Variable(*v)
                   for v in variables)
        first: dict = {}  # name -> index of its first variable
        for n, v in enumerate(vs):
            if first.setdefault(v.name, n) != n:
                raise ValueError(f"duplicate variable name {_quoted(v.name)}")
        check_sample_count(samples)
        self.domain = domain
        self.variables = vs
        self.samples = samples
        self.seed = seed
        self.certificate = _certify(domain, vs)
        # per variable, whether its derivation is d/dx, when every twist is
        # (id, d/dx) or (id, 0) over Q(x); None for every other ring
        self.ddx = (tuple(isinstance(v.der, DdxDer) for v in vs)
                    if domain is QX and all(
                        isinstance(v.aut, IdentityAut)
                        and isinstance(v.der, (DdxDer, ZeroDer)) for v in vs)
                    else None)
        self.basis_powers: dict = {}  # filled by ``_basis_power``

    # -- structure -----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def _require_certificate(self, action: str) -> None:
        if not self.certificate.ok:
            raise IncompatibleMaps(
                f"{action} refused: compatibility certificate failed"
            )

    def twists(self) -> tuple[tuple[RingMap, RingMap], ...]:
        return tuple((v.aut, v.der) for v in self.variables)

    def tower_maps(self) -> tuple[RingMap, ...]:
        """All automorphisms and derivations, for F-membership checks."""
        out = []
        for v in self.variables:
            out.append(v.aut)
            out.append(v.der)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, OreRing)
                and self.domain is other.domain
                and self.variables == other.variables)

    __hash__ = None

    def __repr__(self):
        vs = ", ".join(f"{v.name};{v.aut.describe()},{v.der.describe()}"
                       for v in self.variables)
        return f"OreRing({self.domain.name}[{vs}], {self.flavor})"

    def with_variables(self, variables) -> "OreRing":
        """The ring on ``variables`` with this domain, samples and seed;
        ``self`` when they are its own ``Variable``s, so an unchanged ring
        is neither built nor certified again."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        return OreRing(self.domain, variables, samples=self.samples,
                       seed=self.seed)

    # -- element constructors -------------------------------------------

    def zero(self) -> "SkewPoly":
        return SkewPoly(self, {})

    def constant(self, c: Scalar) -> "SkewPoly":
        return SkewPoly(self, {(0,) * self.nvars: c})

    def one(self) -> "SkewPoly":
        return self.constant(self.domain.one())

    def variable(self, i: int) -> "SkewPoly":
        return self.monomial(tuple(1 if t == i else 0
                                   for t in range(self.nvars)),
                             self.domain.one())

    def monomial(self, exponents, coeff: Scalar) -> "SkewPoly":
        return SkewPoly(self, {tuple(exponents): coeff})

    # -- commutation kernels ----------------------------------------------

    def var_power_times_scalar(self, i: int, k: int, r: Scalar) -> "SkewPoly":
        """Normal form of ``t_i^k * r`` (k >= 0)."""
        return self.monomial_times_scalar(
            tuple(k if t == i else 0 for t in range(self.nvars)), r)

    def monomial_times_scalar(self, exponents, r: Scalar) -> "SkewPoly":
        """Normal form of ``t_1^{i_1} ... t_n^{i_n} * r``, by one product,
        which checks the exponents and the certificate."""
        return self.monomial(exponents, self.domain.one()) * r

    def scalar_var_power(self, r: Scalar, j: int, m: int) -> "SkewPoly":
        """Normal form of ``(r * t_j)^m`` (m >= 1)."""
        if m < 1:
            raise ValueError("power must be at least 1")
        return self.monomial(tuple(1 if t == j else 0
                                   for t in range(self.nvars)), r) ** m


def _single_step(aut: RingMap, der: RingMap, cur: dict) -> dict:
    """t * (sum_p c_p t^p) in normal form, from t*c = aut(c)*t + der(c)."""
    nxt: dict = {}
    for p, c in cur.items():
        up = aut(c)
        if not up.is_zero():
            nxt[p + 1] = nxt[p + 1] + up if p + 1 in nxt else up
        down = der(c)
        if not down.is_zero():
            nxt[p] = nxt[p] + down if p in nxt else down
    return {p: c for p, c in nxt.items() if not c.is_zero()}


def _basis_power(ring: OreRing, i: int, k: int) -> list:
    """t_i^k * e_b, e_b = 1, i, j, k, as (p, den, M) in falling p: column b
    of the integer 4x4 matrix M (a tuple of rows) over den is the t^p
    coefficient.  Every twist over H(Q) is Q-linear and fixes Q, so that of
    t_i^k * r is M r.ints / (den r.den), and ``_hq_product`` applies M to
    4-vectors that no gcd has reduced.  ``ring.basis_powers[i]`` keeps the
    matrices and the last basis rows, each stepped once per ring."""
    entry = ring.basis_powers.get(i)
    if entry is None:
        entry = ring.basis_powers[i] = [[], [{0: u()} for u in (
            HQ.one, HQ.i, HQ.j, HQ.k)]]
    table = entry[0]
    while len(table) <= k:
        var, zero = ring.variables[i], HQ.zero()
        if table:
            entry[1] = [_single_step(var.aut, var.der, row)
                        for row in entry[1]]
        powers = []
        for p in sorted(set().union(*entry[1]), reverse=True):
            cols = [row.get(p, zero) for row in entry[1]]
            den = lcm(*(c.den for c in cols))
            powers.append((p, den, tuple(
                tuple(c.ints[a] * (den // c.den) for c in cols)
                for a in range(4))))
        table.append(powers)
    return table[k]


def _twisted(ring: OreRing) -> list:
    """The indices of the variables not twisted by (id, 0), last first: a
    product steps t^L * b through these right to left, and only shifts the
    exponents of the others."""
    return [i for i in range(ring.nvars - 1, -1, -1)
            if not (isinstance(ring.variables[i].aut, IdentityAut)
                    and isinstance(ring.variables[i].der, ZeroDer))]


def _hq_product(f: dict, g: dict, ring: OreRing) -> dict:
    """f * g over H(Q) in integers.  Per term pair (a t^L, b t^R), b's
    4-vector over its denominator steps right to left through
    ``_basis_power``'s matrices ((id, 0) only shifts the exponent), then a
    Hamilton product by a; each output term sums [n0, n1, n2, n3, den] in
    place over the lcm of the denominators, and ``_hq`` reduces it once."""
    twisted, acc = _twisted(ring), {}
    for right_exp, b in g.items():
        for left_exp, a in f.items():
            cur = [(tuple(map(add, left_exp, right_exp)), *b.ints, b.den)]
            for i in twisted:
                k = left_exp[i]
                if k:
                    powers = _basis_power(ring, i, k)
                    cur = [(key[:i] + (key[i] - k + p,) + key[i + 1:],
                            m0[0] * c0 + m0[1] * c1 + m0[2] * c2 + m0[3] * c3,
                            m1[0] * c0 + m1[1] * c1 + m1[2] * c2 + m1[3] * c3,
                            m2[0] * c0 + m2[1] * c1 + m2[2] * c2 + m2[3] * c3,
                            m3[0] * c0 + m3[1] * c1 + m3[2] * c2 + m3[3] * c3,
                            den * d)
                           for key, c0, c1, c2, c3, d in cur
                           for p, den, (m0, m1, m2, m3) in powers]
            x0, x1, x2, x3 = a.ints
            for key, c0, c1, c2, c3, d in cur:
                n = [x0 * c0 - x1 * c1 - x2 * c2 - x3 * c3,
                     x0 * c1 + x1 * c0 + x2 * c3 - x3 * c2,
                     x0 * c2 - x1 * c3 + x2 * c0 + x3 * c1,
                     x0 * c3 + x1 * c2 - x2 * c1 + x3 * c0, a.den * d]
                s = acc.get(key)
                if s is None:
                    acc[key] = n
                elif s[4] == n[4]:
                    s[0] += n[0]
                    s[1] += n[1]
                    s[2] += n[2]
                    s[3] += n[3]
                else:  # both over the lcm of the denominators
                    m = lcm(s[4], n[4])
                    u, w = m // s[4], m // n[4]
                    acc[key] = [v * u + z * w for v, z in zip(s, n[:4])] + [m]
    return {key: _hq(*s) for key, s in acc.items() if any(s[:4])}


def _table_product(f: dict, g: dict, ring: OreRing) -> dict:
    """f * g over Q or Q(x).  Per term pair (a t^L, b t^R), t^L * b steps
    right to left through the twisted variables as (exponent vector,
    integer m, scalar c) terms, and each m * a * c is summed per exponent
    vector in scalar arithmetic.  Rows keyed on (variable index, scalar)
    live for one product: an identity-twisted variable keeps the derivative
    list r, der(r), der^2(r), ... (ended by its first zero) and reads t^k *
    r = sum_j C(k, j) der^j(r) t^(k-j) off it, which needs only additivity
    of the derivation; any other variable keeps t^0 * r, t^1 * r, ..., each
    one single step (aut, der) from the last."""
    rows: dict = {}

    def power(i: int, k: int, r: Scalar) -> list:
        """t_i^k * r as (power, integer factor, scalar) triples."""
        var, row = ring.variables[i], rows.get((i, r))
        if isinstance(var.aut, IdentityAut):
            if row is None:
                row = rows[(i, r)] = [r]
            while len(row) <= k and not row[-1].is_zero():
                row.append(var.der(row[-1]))
            return [(k - j, comb(k, j), d)
                    for j, d in enumerate(row[:k + 1]) if not d.is_zero()]
        if row is None:
            row = rows[(i, r)] = [{0: r}]
        while len(row) <= k:
            row.append(_single_step(var.aut, var.der, row[-1]))
        return [(p, 1, c) for p, c in row[k].items()]

    twisted, from_int, out = _twisted(ring), ring.domain.from_int, {}
    for right_exp, b in g.items():
        for left_exp, a in f.items():
            cur = [(tuple(map(add, left_exp, right_exp)), 1, b)]
            for i in twisted:
                k = left_exp[i]
                if k:
                    cur = [(key[:i] + (key[i] - k + p,) + key[i + 1:],
                            m * n, d)
                           for key, m, c in cur for p, n, d in power(i, k, c)]
            for key, m, c in cur:
                v = a * c if m == 1 else from_int(m) * (a * c)
                out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if not v.is_zero()}


def _pack(coeffs, width: int) -> int:
    """The integer polynomial ``coeffs`` (lowest degree first) at 2^width."""
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def _unpack(v: int, width: int) -> tuple:
    """Balanced base-2^width digits of ``v``, lowest first; () for 0."""
    half, mask, out = 1 << (width - 1), (1 << width) - 1, []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> width
    return tuple(out)


def _lower(rows: list, ddx: tuple, j: int) -> list:
    """F_j = D(F_(j-1)) / j for D the sum of d/dt_i over the d/dx
    variables, on (exponent vector, integer coefficients) rows; the
    division is exact."""
    acc: dict = {}
    for e, c in rows:
        for i, k in enumerate(e):
            if k and ddx[i]:
                key = e[:i] + (k - 1,) + e[i + 1:]
                row = acc.get(key)
                if row is None:
                    acc[key] = [k * a for a in c]
                    continue
                if len(row) < len(c):
                    row.extend([0] * (len(c) - len(row)))
                for d, a in enumerate(c):
                    row[d] += k * a
    return [(e, [a // j for a in c]) for e, c in acc.items()]


def _weyl_product(f: dict, g: dict, ddx: tuple) -> dict | None:
    """f * g for integer polynomial coefficients when every twist is the
    identity and every derivation d/dx (``ddx[i]``) or zero.

    t^M b = sum_J C(M, J) d^|J|b/dx^|J| t^(M-J) over J <= M on the d/dx
    variables, so f * g = sum_j F_j * G_j with F_j = D^j(f)/j!, D the sum
    of d/dt_i over the d/dx variables, and G_j = d^j g/dx^j taken
    coefficientwise; j runs to min(ord_D f, deg_x g).  Each F_j * G_j is a
    commutative product in Z[x, t_1, ..., t_n]: x^e t^K becomes the digit
    e + sum K_i S_i of an integer in base 2^B, with strides S_i that leave
    room for the product's degrees, and one integer product per j.  B =
    bitlength(sum_j |F_j|_1 |G_j|_1) + 1 bounds every coefficient of the
    sum below 2^(B-1), so its balanced digits are the coefficients.

    None when a coefficient has a denominator, or when the packed integer
    would cost more than the power table's work per term pair: when the
    exponent box has as many cells as the product has term pairs or more
    (small and sparse products), or more than 8 x-digits per term pair (a
    long operator with high x-degrees times a short one).
    """
    if not f or not g:
        return {}
    pairs = len(f) * len(g)
    spans = [a + b + 1 for a, b in zip(map(max, zip(*f)), map(max, zip(*g)))]
    box = prod(spans)
    if box >= pairs or any(
            c.ints_den != (1,) for p in (f, g) for c in p.values()):
        return None
    fs = [(e, c.ints_num) for e, c in f.items()]
    gs = [(e, c.ints_num) for e, c in g.items()]
    fx = max(len(c) for _, c in fs)
    gx = max(len(c) for _, c in gs)
    size = fx + gx - 1  # digits per x-polynomial
    if box * size > 8 * pairs:
        return None
    order = max(sum(k for k, d in zip(e, ddx) if d) for e in f)
    left, right = [fs], [gs]
    for j in range(1, min(order, gx - 1) + 1):
        left.append(_lower(left[-1], ddx, j))
        right.append([(e, d) for e, c in right[-1]
                      if (d := [i * a for i, a in enumerate(c)][1:])])
    strides = [size * prod(spans[:i]) for i in range(len(spans))]
    bound = sum(sum(sum(map(abs, c)) for _, c in lf)
                * sum(sum(map(abs, c)) for _, c in rg)
                for lf, rg in zip(left, right))
    width = bound.bit_length() + 1

    def packed(rows):
        return sum(_pack(c, width) << width * sum(map(mul, e, strides))
                   for e, c in rows)

    total = sum(packed(lf) * packed(rg) for lf, rg in zip(left, right))
    # a block of ``size`` balanced digits is itself one balanced digit of
    # width * size bits, so the blocks split off first, one pass each,
    # then each block splits into its coefficients; t_1's exponent runs
    # fastest from block to block
    keys = product(*map(range, reversed(spans)))
    out = {}
    for rev, block in zip(keys, _unpack(total, width * size)):
        num = _unpack(block, width)
        if num:
            out[rev[::-1]] = RationalFunction(num, (1,))
    return out


@lru_cache(maxsize=256)
def evaluation_context(domain: type[Scalar], names: tuple) -> OreRing:
    """A trivially twisted commuting ring used for leading forms, whose
    variables stand for central arguments.  One ring is built and certified
    per (domain, names) and shared; rings are never mutated."""
    ident = IdentityAut()
    return OreRing(domain, [(n, ident, ZeroDer(ident)) for n in names])


class SkewPoly:
    """Sparse normal form: exponent vector -> non-zero left coefficient.

    Values are immutable; all operations return fresh polynomials.
    ``SkewPoly(ring, terms)`` checks outside data (arity, no negative
    exponent) and drops zero coefficients; ``_of`` wraps a result already
    in that form as is, and its dict is never changed afterwards.
    """

    __slots__ = ("ring", "terms")

    @classmethod
    def _of(cls, ring: OreRing, terms: dict) -> "SkewPoly":
        """``terms``, already in checked form, wrapped as is."""
        self = object.__new__(cls)
        self.ring, self.terms = ring, terms
        return self

    def __init__(self, ring: OreRing, terms: dict):
        n = ring.nvars
        clean = {}
        for exps, c in terms.items():
            if len(exps) != n:
                raise ValueError(
                    f"exponent vector {exps} has wrong arity for {ring!r}")
            if min(exps, default=0) < 0:
                raise ValueError(f"exponent vector {exps} has a negative entry")
            if not c.is_zero():
                clean[tuple(exps)] = c
        self.ring = ring
        self.terms = clean

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximal total exponent; the zero polynomial gets -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def coeff(self, exponents) -> Scalar:
        return self.terms.get(tuple(exponents), self.ring.domain.zero())

    def constant_value(self) -> Scalar:
        """The scalar value of a constant polynomial."""
        if self.total_degree() > 0:
            raise ValueError(f"{self} is not constant")
        return self.coeff((0,) * self.ring.nvars)

    def ordered_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- module structure --------------------------------------------------

    def _match(self, other):
        if not isinstance(other, SkewPoly):
            raise TypeError(f"expected SkewPoly, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings")

    def __add__(self, other):
        self._match(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out and (c := out[e] + c).is_zero():
                del out[e]
            else:
                out[e] = c
        return SkewPoly._of(self.ring, out)

    def __neg__(self):
        return SkewPoly._of(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale_left(self, c: Scalar) -> "SkewPoly":
        """Left multiplication by a scalar (module scaling); D has no zero
        divisors, so only a zero scalar gives a zero term."""
        if c.is_zero():
            return self.ring.zero()
        return SkewPoly._of(self.ring,
                            {e: c * v for e, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, Scalar):
            return self.scale_left(c)
        return NotImplemented

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Scalar):
            other = self.ring.constant(other)
        self._match(other)
        ring = self.ring
        ring._require_certificate("multiplication")
        if ring.ddx is not None:
            terms = _weyl_product(self.terms, other.terms, ring.ddx)
            if terms is not None:
                return SkewPoly._of(ring, terms)
        multiply = _hq_product if ring.domain is HQ else _table_product
        return SkewPoly._of(ring, multiply(self.terms, other.terms, ring))

    def __pow__(self, k: int):
        """``k - 1`` products ``(f * f) * f ...``, starting from ``self``.

        Not square-and-multiply: for a dense operator, multiplying by the
        small base each time is cheaper than multiplying two halves whose
        coefficients have already grown.
        """
        if k < 0:
            raise ValueError("negative powers are not defined")
        if k == 0:
            return self.ring.one()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, SkewPoly)
                and self.ring == other.ring
                and self.terms == other.terms)

    __hash__ = None

    # -- decompositions ------------------------------------------------------

    def split_by_var(self, var: int) -> dict:
        """Map k -> coefficient polynomial of t_var^k (with var zeroed)."""
        buckets: dict = {}
        for e, c in self.terms.items():
            k = e[var]
            stripped = e[:var] + (0,) + e[var + 1:]
            buckets.setdefault(k, {})[stripped] = c
        return {k: SkewPoly._of(self.ring, t) for k, t in buckets.items()}

    def leading_form(self, excluded: int) -> "SkewPoly":
        """Top-total-degree terms as a commutative left-coefficient
        polynomial in the other variables; the excluded variable's exponent
        is dropped (it is determined by the remaining weight, so no two
        terms meet)."""
        if self.is_zero():
            raise ZeroPolynomial("leading form of the zero polynomial")
        top = self.total_degree()
        names = tuple(n for t, n in enumerate(self.ring.names)
                      if t != excluded)
        ctx = evaluation_context(self.ring.domain, names)
        return SkewPoly._of(ctx, {e[:excluded] + e[excluded + 1:]: c
                                  for e, c in self.terms.items()
                                  if sum(e) == top})

    # -- presentation ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        multi = len(self.terms) > 1
        out = []
        for e, c in self.ordered_terms():
            negative, text, atomic = c.display()
            factors = [name if k == 1 else f"{name}^{k}"
                       for name, k in zip(names, e) if k]
            if not factors or text != "1":  # only the value 1 prints as "1"
                if not atomic and (factors or multi or negative):
                    text = f"({text})"
                factors.insert(0, text)
            if out:
                out.append(" - " if negative else " + ")
            elif negative:
                out.append("-")
            out.append("*".join(factors))
        return "".join(out)

    def __repr__(self):
        return f"<SkewPoly {self}>"

    def to_data(self) -> list:
        return [{"exponents": list(e), "coeff": str(c)}
                for e, c in self.ordered_terms()]


def reinterpret(f: SkewPoly, ring: OreRing) -> SkewPoly:
    """The same coefficient data read in ``ring`` (the left-module
    identification of monomial bases): exponent vectors are padded with
    zeros, or cut where ``ring`` has fewer variables, which needs a zero
    tail."""
    n = ring.nvars
    if any(any(e[n:]) for e in f.terms):
        raise RingMismatch("polynomial involves variables the ring lacks")
    pad = (0,) * n
    return SkewPoly._of(ring, {(e + pad)[:n]: c for e, c in f.terms.items()})

