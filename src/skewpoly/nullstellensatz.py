"""Gordon-Motzkin class bounds and the Nullstellensatz witness search.

The substitution here is the *formal* one: powers of the point are taken in
plain scalar arithmetic and multiplied by the stored left coefficients,
ignoring the ring twists.  It is deliberately distinct from the evaluation
homomorphism in :mod:`skewpoly.evaluation` -- formal substitution is not
multiplicative, e.g. over the quaternions with trivial twists and f = t,
g = j*t one has (f*g)(i) = -j while f(i)*g(i) = j.

Roots are verified a conjugacy class at a time: s^2 = T s - N, with T and
N the reduced trace and norm, constant on the class, makes f(s) = P s + Q
there (Gordon and Motzkin, 1965).  :func:`formal_substitute` stays the
public, general substitution, and the name the benchmark tracer wraps.

Points are found by the Nullstellensatz's own induction on coordinates
(:func:`nonvanishing_points`), which also picks the central shifts of
:func:`skewpoly.normalize.monicize`; under the validated hypotheses it makes
at most |A_1| + ... + |A_n| specializations.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from operator import mul

from .errors import (
    ArityMismatch,
    BoundViolated,
    NoWitnessFound,
    NotARoot,
    VariantMismatch,
    ZeroPolynomial,
)
from .maps import IdentityAut, ZeroDer
from .ore import SkewPoly
from .scalars import Quaternion, Scalar, conjugacy_key
from .values import Value


class EvaluationSet(Value):
    """An ordered candidate set with its pairwise non-conjugacy certificate."""

    __slots__ = ("elements", "conjugate_pairs")
    to_data = Value._data

    @property
    def ok(self) -> bool:
        return not self.conjugate_pairs

    def __len__(self):
        return len(self.elements)


def make_evaluation_set(elements) -> EvaluationSet:
    """The set and its conjugate pairs (i, j), i < j, in lexicographic order,
    from one pass grouping indices by :func:`conjugacy_key`."""
    elements = tuple(elements)
    if len({a.__class__ for a in elements}) > 1:
        raise VariantMismatch("conjugacy test across different rings")
    groups: dict = {}
    for i, a in enumerate(elements):
        groups.setdefault(conjugacy_key(a), []).append(i)
    return EvaluationSet(elements, tuple(sorted(
        (i, j) for g in groups.values() for n, i in enumerate(g)
        for j in g[n + 1:])))


def formal_substitute(f: SkewPoly, point) -> Scalar:
    """Left substitution: sum of b_I * a_1^{i_1} * ... * a_n^{i_n}, reading
    each coordinate's powers a, ..., a^d off one list of products."""
    point = tuple(point)
    if len(point) != f.ring.nvars:
        raise ArityMismatch(
            f"point has {len(point)} coordinates, ring has {f.ring.nvars}"
        )
    powers = [list(accumulate([a] * f.degree_in(v), mul))
              for v, a in enumerate(point)]
    total = f.ring.domain.zero()
    for exps, b in f.terms.items():
        value = b
        for row, e in zip(powers, exps):
            if e:
                value = value * row[e - 1]
        total = total + value
    return total


def nonvanishing_points(terms: dict, sets, prefix=(), made=0):
    """Yield ``(indices, value, made)`` for each point of A_1 x ... x A_n, in
    lexicographic order, where the formal substitution of ``terms``
    (exponent vector -> left coefficient) is non-zero; ``made`` counts the
    specializations made so far, those of abandoned prefixes included.

    Putting a into the first variable leaves the left coefficients
    b_I * a^{i_1} of a polynomial in the rest with the same values; a zero
    specialization is skipped, and an exhausted coordinate backtracks.
    ``prefix`` (the indices fixed so far) and ``made`` carry the recursion.
    """
    if len(prefix) == len(sets):
        yield prefix, terms[()], made
        return made
    exponents = {exps[0] for exps in terms} - {0}
    for j, a in enumerate(sets[len(prefix)]):
        made += 1
        powers = {e: a**e for e in exponents}
        spec: dict = {}
        for exps, b in terms.items():
            if exps[0]:
                b = b * powers[exps[0]]
            key = exps[1:]
            spec[key] = spec[key] + b if key in spec else b
        spec = {key: c for key, c in spec.items() if not c.is_zero()}
        if spec:
            made = yield from nonvanishing_points(spec, sets, (*prefix, j), made)
    return made


def validate_sets(sets, degree: int) -> bool:
    """Witness-search hypotheses: pairwise non-conjugate, |A_i| > degree."""
    return all(s.ok and len(s) > degree for s in sets)


class Witness(Value):
    __slots__ = ("point", "value", "scanned")
    to_data = Value._data


def cns_witness(f: SkewPoly, sets) -> Witness:
    """First point of A_1 x ... x A_n (lexicographic in the given set order)
    where the formal substitution does not vanish.

    Under the validated hypotheses a witness always exists; exhausting the
    grid therefore raises ``NoWitnessFound`` and indicates a violated
    hypothesis or a bug, never a legitimate outcome.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial vanishes everywhere")
    sets = list(sets)
    if len(sets) != f.ring.nvars:
        raise ArityMismatch(
            f"{len(sets)} sets supplied for {f.ring.nvars} variables"
        )
    grid = [s.elements for s in sets]
    for indices, value, _ in nonvanishing_points(f.terms, grid):
        index = 0
        for j, elements in zip(indices, grid):
            index = index * len(elements) + j
        point = tuple(elements[j] for j, elements in zip(indices, grid))
        return Witness(point, value, index + 1)
    raise NoWitnessFound(
        "no non-vanishing point in the product; hypotheses are violated"
    )


class ConjugacyClass(Value):
    __slots__ = ("members", "trace", "norm")
    to_data = Value._data


class ClassPartition(Value):
    __slots__ = ("degree", "classes")

    def to_data(self) -> dict:
        return {
            "degree": self.degree,
            "class_count": len(self.classes),
            "classes": [c.to_data() for c in self.classes],
        }


def gordon_motzkin_check(f: SkewPoly, roots) -> ClassPartition:
    """Verify the supplied roots, the first non-root in input order a
    ``NotARoot``, and partition them into conjugacy classes keyed on
    :func:`conjugacy_key`, in order of first appearance.

    s^2 = T s - N gives f(s) = P s + Q on a class (Gordon and Motzkin,
    1965).  For its first root n/m, D = m^2, tau = 2 n_0 m and nu = |n|^2
    give T = tau/D and N = nu/D, and s^e = (a_e s + b_e)/D^e with a_0 = 0,
    b_0 = 1, a_(e+1) = tau a_e + D b_e and b_(e+1) = -nu a_e.  P and Q are
    summed as integer 4-vectors over one denominator, and n/m is a root
    exactly when the 4-vector P n + m Q is zero.

    The class count is asserted to stay within deg(f); exceeding it would be
    an implementation bug, not a data error.
    """
    ring = f.ring
    if ring.nvars != 1 or ring.domain.name != "HQ":
        raise ValueError("expected a univariate quaternion polynomial")
    var = ring.variables[0]
    if not (isinstance(var.aut, IdentityAut) and isinstance(var.der, ZeroDer)):
        raise ValueError("expected trivial twists (identity, zero)")
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no root bound")
    degree = f.total_degree()
    den = lcm(*(c.den for c in f.terms.values()))
    coeffs = [()] * (degree + 1)  # c_e * den as integer 4-tuples
    for (e,), c in f.terms.items():
        coeffs[e] = tuple(v * (den // c.den) for v in c.ints)
    forms: dict = {}  # conjugacy key -> (P, Q) * den * D^degree
    classes: dict = {}  # conjugacy key -> members, in first-appearance order
    for r in roots:
        if r.__class__ is not Quaternion:
            raise VariantMismatch(f"root {r} is not a quaternion")
        key = conjugacy_key(r)
        (n0, n1, n2, n3), m = r.ints, r.den
        if key not in forms:
            d, tau = m * m, 2 * n0 * m
            nu = n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
            a, b, w = 0, 1, d ** degree
            p0 = p1 = p2 = p3 = q0 = q1 = q2 = q3 = 0
            for c in coeffs:
                if c:
                    c0, c1, c2, c3 = c
                    wa, wb = a * w, b * w
                    p0, p1, p2, p3 = (p0 + wa * c0, p1 + wa * c1,
                                      p2 + wa * c2, p3 + wa * c3)
                    q0, q1, q2, q3 = (q0 + wb * c0, q1 + wb * c1,
                                      q2 + wb * c2, q3 + wb * c3)
                a, b, w = tau * a + d * b, -nu * a, w // d
            forms[key] = p0, p1, p2, p3, q0, q1, q2, q3
        p0, p1, p2, p3, q0, q1, q2, q3 = forms[key]
        if (p0 * n0 - p1 * n1 - p2 * n2 - p3 * n3 + m * q0
                or p0 * n1 + p1 * n0 + p2 * n3 - p3 * n2 + m * q1
                or p0 * n2 - p1 * n3 + p2 * n0 + p3 * n1 + m * q2
                or p0 * n3 + p1 * n2 - p2 * n1 + p3 * n0 + m * q3):
            raise NotARoot(f"{r} does not annihilate the polynomial")
        classes.setdefault(key, []).append(r)
    if len(classes) > degree:
        raise BoundViolated(
            f"{len(classes)} conjugacy classes exceed degree {degree}"
        )
    return ClassPartition(
        degree,
        tuple(
            ConjugacyClass(tuple(cls), cls[0].reduced_trace(),
                           cls[0].reduced_norm())
            for cls in classes.values()
        ),
    )
