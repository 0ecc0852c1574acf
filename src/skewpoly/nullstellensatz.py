"""Gordon-Motzkin class bounds and the Nullstellensatz witness search.

The substitution here is the *formal* one: powers of the point are taken in
plain scalar arithmetic and multiplied by the stored left coefficients,
ignoring the ring twists.  It is deliberately distinct from the evaluation
homomorphism in :mod:`skewpoly.evaluation` -- formal substitution is not
multiplicative, e.g. over the quaternions with trivial twists and f = t,
g = j*t one has (f*g)(i) = -j while f(i)*g(i) = j.

Points are found by the Nullstellensatz's own induction on coordinates
(:func:`nonvanishing_points`), which also picks the central shifts of
:func:`skewpoly.normalize.monicize`; under the validated hypotheses it makes
at most |A_1| + ... + |A_n| specializations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    BoundViolated,
    NoWitnessFound,
    NotARoot,
    ZeroPolynomial,
)
from .maps import IdentityAut, ZeroDer
from .ore import SkewPoly
from .scalars import Quaternion, Scalar, are_conjugate


@dataclass(frozen=True, slots=True)
class EvaluationSet:
    """An ordered candidate set with its pairwise non-conjugacy certificate."""

    elements: tuple[Scalar, ...]
    conjugate_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.conjugate_pairs

    def __len__(self):
        return len(self.elements)

    def to_data(self) -> dict:
        return {
            "elements": [str(e) for e in self.elements],
            "conjugate_pairs": [list(p) for p in self.conjugate_pairs],
        }


def make_evaluation_set(elements) -> EvaluationSet:
    elements = tuple(elements)
    bad = tuple(
        (i, j)
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
        if are_conjugate(elements[i], elements[j])
    )
    return EvaluationSet(elements, bad)


def formal_substitute(f: SkewPoly, point) -> Scalar:
    """Left substitution: sum of b_I * a_1^{i_1} * ... * a_n^{i_n}."""
    point = tuple(point)
    if len(point) != f.ring.nvars:
        raise ArityMismatch(
            f"point has {len(point)} coordinates, ring has {f.ring.nvars}"
        )
    total = f.ring.domain.zero()
    for exps, b in f.terms.items():
        value = b
        for a, e in zip(point, exps):
            if e:
                value = value * a**e
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
        if terms:
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


@dataclass(frozen=True, slots=True)
class Witness:
    point: tuple[Scalar, ...]
    value: Scalar
    scanned: int

    def to_data(self) -> dict:
        return {
            "point": [str(a) for a in self.point],
            "value": str(self.value),
            "scanned": self.scanned,
        }


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


@dataclass(frozen=True, slots=True)
class ConjugacyClass:
    members: tuple[Scalar, ...]
    trace: object
    norm: object

    def to_data(self) -> dict:
        return {
            "members": [str(m) for m in self.members],
            "trace": str(self.trace),
            "norm": str(self.norm),
        }


@dataclass(frozen=True, slots=True)
class ClassPartition:
    degree: int
    classes: tuple[ConjugacyClass, ...]

    def to_data(self) -> dict:
        return {
            "degree": self.degree,
            "class_count": len(self.classes),
            "classes": [c.to_data() for c in self.classes],
        }


def gordon_motzkin_check(f: SkewPoly, roots) -> ClassPartition:
    """Verify the supplied roots and partition them into conjugacy classes.

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
    roots = list(roots)
    for r in roots:
        if not formal_substitute(f, (r,)).is_zero():
            raise NotARoot(f"{r} does not annihilate the polynomial")
    classes: list[list[Quaternion]] = []
    for r in roots:
        for cls in classes:
            if are_conjugate(r, cls[0]):
                cls.append(r)
                break
        else:
            classes.append([r])
    degree = f.total_degree()
    if len(classes) > degree:
        raise BoundViolated(
            f"{len(classes)} conjugacy classes exceed degree {degree}"
        )
    return ClassPartition(
        degree,
        tuple(
            ConjugacyClass(tuple(cls), cls[0].reduced_trace(),
                           cls[0].reduced_norm())
            for cls in classes
        ),
    )
