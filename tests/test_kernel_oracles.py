"""Oracles for the kernels that do each element's work once.

``make_evaluation_set`` and ``gordon_motzkin_check`` group elements by
``conjugacy_key`` in one pass; they are held to the pairwise test they
replaced, reduced trace and reduced norm compared as ``Fraction``s.
``gordon_motzkin_check`` verifies roots by one linear form P*s + Q per
conjugacy class; its verdict is held to ``formal_substitute`` per root.
``formal_substitute`` reads each coordinate's powers off one list; it is
held to ``a**e`` per term.  ``divmod_by_monic`` reduces one term dict in
place and never multiplies rho's leading monomial; it is held to the
schoolbook loop that subtracted q_k * rho from the whole remainder, in
every shipped ring.
"""

import functools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from skewpoly.config import load_ring
from skewpoly.errors import NotARoot, SkewError, VariantMismatch
from skewpoly.normalize import MonicRelation, divmod_by_monic
from skewpoly.nullstellensatz import (
    ClassPartition,
    ConjugacyClass,
    formal_substitute,
    gordon_motzkin_check,
    make_evaluation_set,
)
from skewpoly.ore import SkewPoly
from skewpoly.scalars import HQ, Q, Quaternion, conjugacy_key

from conftest import random_poly

ROOT = pathlib.Path(__file__).resolve().parent.parent
RING_FILES = sorted([*(ROOT / "configs").glob("*.json"),
                     *(ROOT / "perfbench" / "rings").glob("*.json")])


# No shrink phase: shrinking the drawn scalars of a failing case took up
# to a minute per test, so a failure reports the case as drawn.
ORACLE = settings(deadline=None, phases=(Phase.explicit, Phase.reuse,
                                         Phase.generate, Phase.target))


@functools.lru_cache(maxsize=None)
def _ring(path):
    return load_ring(path)


# ---------------------------------------------------------------------------
# conjugacy: one pass by key against the pairwise Fraction test
# ---------------------------------------------------------------------------

def reference_conjugate(a, b) -> bool:
    """Equality over the fields and for central quaternions; otherwise
    reduced trace and reduced norm compared as Fractions."""
    if a.__class__ is not b.__class__:
        raise VariantMismatch("conjugacy test across different rings")
    if not isinstance(a, Quaternion) or a.is_central() or b.is_central():
        return a == b
    return (a.reduced_trace() == b.reduced_trace()
            and a.reduced_norm() == b.reduced_norm())


def reference_pairs(elements) -> tuple:
    return tuple((i, j) for i in range(len(elements))
                 for j in range(i + 1, len(elements))
                 if reference_conjugate(elements[i], elements[j]))


def reference_classes(roots) -> list:
    """Each root joins the first class whose first member it is conjugate
    to, or opens a new class."""
    classes = []
    for r in roots:
        for cls in classes:
            if reference_conjugate(r, cls[0]):
                cls.append(r)
                break
        else:
            classes.append([r])
    return classes


_FRACTIONS = st.fractions(-6, 6, max_denominator=6)
_QUATERNIONS = st.builds(HQ.make, *[_FRACTIONS] * 4)
_UNITS = _QUATERNIONS.filter(lambda u: not u.is_zero())
_CENTRAL = _FRACTIONS.map(HQ.from_fraction)


@st.composite
def shared_trace_bases(draw, max_size):
    """Quaternions, some sharing a trace: a + v for an earlier a and a pure
    v, which changes the norm but not the trace."""
    bases = draw(st.lists(_QUATERNIONS, min_size=1, max_size=max_size))
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.builds(HQ.make, st.just(0), *[_FRACTIONS] * 3))
        bases.append(draw(st.sampled_from(bases)) + v)
    return bases


@st.composite
def quaternion_lists(draw, bases=None):
    """Up to ten quaternions drawn around a few bases: the bases, their
    conjugates u * a * u^-1, repeats of earlier draws and, unless the bases
    are given, central elements.  Coordinates carry unlike denominators."""
    free = bases is None
    if free:
        bases = draw(shared_trace_bases(3))
    out = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["base", "conjugate", "conjugate",
                                     "central", "repeat"]))
        a = draw(st.sampled_from(bases))
        if kind == "conjugate":
            u = draw(_UNITS)
            a = u * a * u.inv()
        elif kind == "central" and free:
            a = HQ.from_fraction(draw(_FRACTIONS))
        elif kind == "repeat" and out:
            a = draw(st.sampled_from(out))
        out.append(a)
    return out


@ORACLE
@given(elements=quaternion_lists())
def test_evaluation_set_pairs_equal_the_pairwise_test(elements):
    s = make_evaluation_set(elements)
    assert s.elements == tuple(elements)
    assert s.conjugate_pairs == reference_pairs(elements)


@ORACLE
@given(values=st.lists(st.fractions(-3, 3, max_denominator=3), max_size=8))
def test_rational_pairs_are_equal_pairs(values):
    elements = [Q.from_fraction(v) for v in values]
    assert (make_evaluation_set(elements).conjugate_pairs
            == reference_pairs(elements))


@ORACLE
@given(a=_QUATERNIONS, u=_UNITS)
def test_key_is_a_class_invariant(a, u):
    b = u * a * u.inv()
    assert conjugacy_key(a) == conjugacy_key(b)
    assert reference_conjugate(a, b)


def test_mixed_rings_are_refused():
    for elements in ([Q.one(), HQ.one()], [HQ.i(), HQ.j(), Q.one()]):
        with pytest.raises(VariantMismatch):
            make_evaluation_set(elements)


def minimal_polynomial(ring, a) -> SkewPoly:
    """t - a for central a, t^2 - trace(a) t + norm(a) otherwise: central
    coefficients, so every conjugate of a is a root."""
    t = ring.variable(0)
    if a.is_central():
        return t - ring.constant(a)
    return (t * t - t.scale_left(HQ.from_fraction(a.reduced_trace()))
            + ring.constant(HQ.from_fraction(a.reduced_norm())))


@st.composite
def root_lists(draw):
    """A product of minimal polynomials and roots drawn around its
    factors' roots (conjugates, repeats, central roots)."""
    ring = _ring(ROOT / "configs" / "quat.json")
    bases = draw(shared_trace_bases(2)) + draw(st.lists(_CENTRAL, max_size=1))
    f = ring.one()
    for a in bases:
        f = f * minimal_polynomial(ring, a)
    return f, draw(quaternion_lists(bases))


@ORACLE
@given(case=root_lists())
def test_root_classes_equal_the_pairwise_scan(case):
    f, roots = case
    got = gordon_motzkin_check(f, roots)
    want = reference_classes(roots)
    assert [list(c.members) for c in got.classes] == want
    assert [(c.trace, c.norm) for c in got.classes] == [
        (c[0].reduced_trace(), c[0].reduced_norm()) for c in want]


@st.composite
def root_verdicts(draw):
    """f of degree 0 to 6 with coefficients that carry denominators, half
    of the draws h * m_1 * ... * m_k for minimal polynomials m_b of drawn
    bases (non-central or central), so that whole classes are roots; and
    up to ten elements around the bases: the bases, conjugates u*b*u^-1,
    central elements, free draws (mostly non-roots) and repeats, in any
    order."""
    ring = _ring(ROOT / "configs" / "quat.json")
    bases = draw(st.lists(st.one_of(_QUATERNIONS, _CENTRAL), min_size=1,
                          max_size=2))
    factors = draw(st.booleans())
    free = 6 - sum(2 - b.is_central() for b in bases) if factors else 6
    h = draw(st.lists(_QUATERNIONS, min_size=1, max_size=free + 1))
    h[-1] = draw(_UNITS)
    f = SkewPoly(ring, {(e,): c for e, c in enumerate(h)})
    if factors:
        for b in bases:
            f = f * minimal_polynomial(ring, b)
    roots = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["base", "conjugate", "conjugate",
                                     "central", "free", "repeat"]))
        a = draw(st.sampled_from(bases))
        if kind == "conjugate":
            u = draw(_UNITS)
            a = u * a * u.inv()
        elif kind == "central":
            a = draw(_CENTRAL)
        elif kind == "free":
            a = draw(_QUATERNIONS)
        elif kind == "repeat" and roots:
            a = draw(st.sampled_from(roots))
        roots.append(a)
    return f, roots


@ORACLE
@given(case=root_verdicts())
def test_class_forms_give_the_substitution_verdict(case):
    """The per-class form P*s + Q against formal_substitute per root: the
    same partition when every element is a root, else NotARoot naming the
    first non-root."""
    f, roots = case
    misses = [r for r in roots if not formal_substitute(f, (r,)).is_zero()]
    if misses:
        with pytest.raises(NotARoot) as caught:
            gordon_motzkin_check(f, roots)
        assert str(caught.value) == (
            f"{misses[0]} does not annihilate the polynomial")
        return
    want = ClassPartition(f.total_degree(), tuple(
        ConjugacyClass(tuple(c), c[0].reduced_trace(), c[0].reduced_norm())
        for c in reference_classes(roots)))
    assert gordon_motzkin_check(f, roots) == want


# ---------------------------------------------------------------------------
# formal substitution: powers once per coordinate against a**e per term
# ---------------------------------------------------------------------------

def reference_substitute(f: SkewPoly, point):
    total = f.ring.domain.zero()
    for exps, b in f.terms.items():
        value = b
        for a, e in zip(point, exps):
            if e:
                value = value * a**e
        total = total + value
    return total


@ORACLE
@given(path=st.sampled_from(RING_FILES), seed=st.integers(0, 2**32 - 1))
def test_formal_substitute_equals_powers_per_term(path, seed):
    ring = _ring(path)
    rng = random.Random(seed)
    f = random_poly(ring, rng, max_degree=5, max_terms=5)
    point = tuple(rng.choice((ring.domain.random(rng), ring.domain.zero(),
                              ring.domain.from_int(rng.randint(-2, 2))))
                  for _ in range(ring.nvars))
    value = formal_substitute(f, point)
    assert value == reference_substitute(f, point)
    assert str(value) == str(reference_substitute(f, point))


# ---------------------------------------------------------------------------
# monic division: in place against the schoolbook loop
# ---------------------------------------------------------------------------

def reference_divmod(e: SkewPoly, rel: MonicRelation):
    """Subtract q_k * rho from the whole remainder at each degree k."""
    rho = rel.polynomial()
    v, m = rel.var, rel.degree
    q, r = e.ring.zero(), e
    while (k := r.degree_in(v)) >= m:
        quo = SkewPoly(e.ring, {exp[:v] + (k - m,) + exp[v + 1:]: c
                                for exp, c in r.terms.items()
                                if exp[v] == k})
        r = r - quo * rho
        q = q + quo
        if r.degree_in(v) >= k:
            raise SkewError("reduction did not lower degree")
    return q, r


@st.composite
def divisions(draw):
    """An element and a monic relation of degree 1 to 3 in one variable of
    a shipped ring; the element reaches up to three degrees past it."""
    ring = _ring(draw(st.sampled_from(RING_FILES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    var = draw(st.integers(0, ring.nvars - 1))
    tails = []
    for _ in range(draw(st.integers(1, 3))):
        p = random_poly(ring, rng, max_degree=2, max_terms=3)
        tails.append(SkewPoly(ring, {x[:var] + (0,) + x[var + 1:]: c
                                     for x, c in p.terms.items()}))
    rel = MonicRelation(ring, var, len(tails), tuple(tails))
    e = random_poly(ring, rng, max_degree=3, max_terms=4)
    top = tuple(rel.degree + draw(st.integers(0, 3)) if i == var
                else draw(st.integers(0, 1)) for i in range(ring.nvars))
    return e + ring.monomial(top, ring.domain.random(rng)), rel


@ORACLE
@given(case=divisions())
def test_divmod_equals_the_schoolbook_loop(case):
    e, rel = case
    calls = []
    original = SkewPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SkewPoly, "__mul__", counted)
        got = divmod_by_monic(e, rel)
        products = len(calls)
        want = reference_divmod(e, rel)
    assert len(calls) == 2 * products  # one product per degree, as before
    assert got == want
    assert [str(p) for p in got] == [str(p) for p in want]
    assert got[1].degree_in(rel.var) < rel.degree


def test_key_is_trace_and_norm_in_lowest_terms():
    # 1/2 + i/4 and 1/2 + j/4 are conjugate: trace 1, norm 5/16
    a, b = HQ.make(Fraction(1, 2), Fraction(1, 4)), HQ.make(
        Fraction(1, 2), 0, Fraction(1, 4))
    assert conjugacy_key(a) == conjugacy_key(b) == (1, 1, 5, 16)
    assert conjugacy_key(HQ.from_int(3)) == HQ.from_int(3)
