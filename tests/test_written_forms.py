"""Oracles for the forms that are written down instead of multiplied.

``MonicRelation.polynomial`` writes rho = t^m + sum_j eps_j t^(m-j) down,
``evaluate`` multiplies only by the tuple's elements, and ``certify_tuple``
draws its sample pool only for a law it samples.  Each is held here against
the implementation it replaced, kept as the reference: rho as operator
products, evaluation with a product by one at the start of every term and
power chain, and tuple records over a pool drawn for every tuple.
``monicize`` evaluates f straight into the step's ring; it is held to the
route through a second ring whose result was read into the step's ring.  A
ring whose certificate failed is still refused, and a proved tuple draws no
pool.
"""

import functools
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewpoly.config import load_ring
from skewpoly.errors import IncompatibleMaps
from skewpoly.evaluation import (
    AutomorphicTuple,
    _linear_form,
    certify_tuple,
    evaluate,
)
from skewpoly.maps import (
    Certificate,
    CheckRecord,
    IdentityAut,
    InnerDer,
    LinComb,
    lin_comb,
    sample_scalars,
)
from skewpoly.normalize import (
    MonicRelation,
    _shifted_elements,
    _shifted_variables,
    monicize,
)
from skewpoly.ore import Flavor, OreRing, SkewPoly, reinterpret
from skewpoly.scalars import HQ

from conftest import random_poly

ROOT = pathlib.Path(__file__).resolve().parent.parent
RING_FILES = sorted([*(ROOT / "configs").glob("*.json"),
                     *(ROOT / "perfbench" / "rings").glob("*.json")])


@functools.lru_cache(maxsize=None)
def _ring(path, seed):
    ring = load_ring(path)
    return OreRing(ring.domain, ring.variables, samples=8, seed=seed)


def product_form(rel: MonicRelation) -> SkewPoly:
    """rho by operator products: t^m plus eps_j * t^(m-j) for each tail."""
    ring, one = rel.ring, rel.ring.domain.one()

    def power(k):
        return ring.monomial(tuple(k if i == rel.var else 0
                                   for i in range(ring.nvars)), one)

    out = power(rel.degree)
    for j, eps in enumerate(rel.tails, start=1):
        out = out + eps * power(rel.degree - j)
    return out


def reference_evaluate(f: SkewPoly, tup: AutomorphicTuple) -> SkewPoly:
    """The substitution with every power chain and every term started by a
    product by one, and each term scaled by its coefficient last."""
    ambient = tup.ambient
    powers = [{0: ambient.one()} for _ in tup.elements]

    def power(i, e):
        cache = powers[i]
        while e not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * tup.elements[i]
        return cache[e]

    out = ambient.zero()
    for exps, b in f.terms.items():
        term = ambient.one()
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        out = out + term.scale_left(b)
    return out


def reference_records(ambient, elements, twists) -> tuple:
    """The tuple records with the pool drawn for every tuple: commutation of
    each pair, then each automorphic law, proved for a linear form with the
    claimed derivation and otherwise counted by operator products."""
    records = []
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            equal = elements[i] * elements[j] == elements[j] * elements[i]
            records.append(CheckRecord(f"commute(s{i + 1}, s{j + 1})",
                                       1, 0 if equal else 1))
    pool = sample_scalars(ambient.domain, ambient.seed, ambient.samples)
    for idx, (s, (aut, der)) in enumerate(zip(elements, twists)):
        law = f"automorphic(s{idx + 1})"
        pairs = _linear_form(ambient, s, aut)
        if pairs is not None:
            combined = lin_comb(pairs, twist=aut)
            same = (Counter(combined.terms) == Counter(der.terms)
                    if isinstance(combined, LinComb)
                    and isinstance(der, LinComb) else combined == der)
            if same:
                records.append(CheckRecord(law, len(pool), 0, True))
                continue
        failures = sum(s * ambient.constant(r)
                       != s.scale_left(aut(r)) + ambient.constant(der(r))
                       for r in pool)
        records.append(CheckRecord(law, len(pool), failures))
    return tuple(records)


@st.composite
def relations(draw):
    """A monic relation in a shipped ring, with random tails."""
    ring = _ring(draw(st.sampled_from(RING_FILES)), 0)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    var = draw(st.integers(0, ring.nvars - 1))
    tails = []
    for _ in range(draw(st.integers(1, 3))):
        p = random_poly(ring, rng, max_degree=2, max_terms=3)
        tails.append(SkewPoly(ring, {e[:var] + (0,) + e[var + 1:]: c
                                     for e, c in p.terms.items()}))
    return MonicRelation(ring, var, len(tails), tuple(tails))


@st.composite
def tuples(draw):
    """A ring of a shipped file, the shifted variables y_i + u_i y_k of a
    monicization with the twists they are claimed to have, and whether each
    element got an extra term: 1 where the variable's automorphism is the
    identity (still automorphic, but sampled), or its own square (sampled,
    and not automorphic)."""
    ring = _ring(draw(st.sampled_from(RING_FILES)), draw(st.integers(0, 3)))
    target = draw(st.integers(0, ring.nvars - 1))
    shifts = {i: ring.domain.from_int(draw(st.integers(-2, 2)))
              for i in range(ring.nvars) if i != target}
    elements, variables = (_shifted_elements(ring, target, shifts),
                           _shifted_variables(ring, target, shifts))
    for i, v in enumerate(ring.variables):
        extra = draw(st.sampled_from(["none", "none", "one", "square"]))
        if extra == "one" and isinstance(v.aut, IdentityAut):
            elements[i] = elements[i] + ring.one()
        elif extra == "square":
            elements[i] = elements[i] + elements[i] * elements[i]
    return ring, elements, ring.with_variables(variables)


@settings(deadline=None)
@given(rel=relations())
def test_polynomial_is_the_product_form(rel):
    rho = rel.polynomial()
    assert rho == product_form(rel)
    assert rho.to_data() == product_form(rel).to_data()


@settings(deadline=None)
@given(case=tuples())
def test_tuple_records_equal_the_reference(case):
    ring, elements, mixed = case
    tup = certify_tuple(ring, elements, mixed.twists())
    assert tup.certificate.records == reference_records(ring, elements,
                                                         mixed.twists())


@settings(deadline=None)
@given(case=tuples(), seed=st.integers(0, 2**32 - 1))
def test_evaluate_equals_the_reference(case, seed):
    ring, elements, mixed = case
    tup = certify_tuple(ring, elements, mixed.twists())
    assume(tup.certificate.ok)
    f = random_poly(mixed, random.Random(seed), max_degree=3)
    value = evaluate(f, tup)
    assert value == reference_evaluate(f, tup)
    assert str(value) == str(reference_evaluate(f, tup))


def reference_monicize(f: SkewPoly, target: int, shifts, scale) -> SkewPoly:
    """The monicization by way of a second ring: f read in the ring whose
    variables have (aut, der_i + u_i der_target), evaluated at
    y_i + u_i y_target certified in f's ring, scaled, and the terms read in
    the step's ring, where y_i has (aut, der_i - u_i der_target)."""
    ring = f.ring
    others = [i for i in range(ring.nvars) if i != target]
    plus_shifts = dict(zip(others, shifts))
    elements, variables = (_shifted_elements(ring, target, plus_shifts),
                           _shifted_variables(ring, target, plus_shifts))
    plus = ring.with_variables(variables)
    tup = certify_tuple(ring, elements, plus.twists())
    g = evaluate(reinterpret(f, plus), tup).scale_left(scale)
    variables = _shifted_variables(
        ring, target, {i: -u for i, u in zip(others, shifts)})
    return reinterpret(g, ring.with_variables(variables))


@settings(deadline=None)
@given(path=st.sampled_from(RING_FILES), seed=st.integers(0, 2**32 - 1))
def test_monicize_equals_the_old_route(path, seed):
    ring = _ring(path, 0)
    assume(ring.flavor is Flavor.COMMUTING and ring.certificate.ok
           and len({v.aut for v in ring.variables}) == 1)
    f = random_poly(ring, random.Random(seed), max_degree=2, max_terms=3,
                    nonzero=True)
    assume(f.total_degree() >= 1)
    one = ring.domain.one()
    for target in range(ring.nvars):
        sub, g = monicize(f, target)
        reference = reference_monicize(f, target, sub.shifts, sub.scale)
        assert g.ring == reference.ring
        assert g.terms == reference.terms
        der_target = ring.variables[target].der
        others = [i for i in range(ring.nvars) if i != target]
        u = dict(zip(others, sub.shifts))
        assert g.ring.twists() == tuple(
            (v.aut, lin_comb([(one, v.der), (-u[i], der_target)],
                             twist=v.aut) if i in u else v.der)
            for i, v in enumerate(ring.variables))


@pytest.fixture(scope="module")
def failed_ring():
    """ad(i) and ad(j) do not commute, so the ring certificate fails."""
    ring = OreRing(HQ, [("t1", IdentityAut(),
                         InnerDer(HQ.i(), IdentityAut())),
                        ("t2", IdentityAut(),
                         InnerDer(HQ.j(), IdentityAut()))])
    assert not ring.certificate.ok
    return ring


def test_failed_ring_refuses_the_written_polynomial(failed_ring):
    rel = MonicRelation.read(failed_ring.variable(1), 1)
    with pytest.raises(IncompatibleMaps, match="multiplication refused"):
        rel.polynomial()


def test_failed_ring_refuses_evaluation(failed_ring):
    # a tuple certificate that passes cannot hide a failed ring, although
    # evaluating the variable t1 at s1 multiplies nothing
    tup = AutomorphicTuple(
        failed_ring, (failed_ring.variable(0), failed_ring.variable(1)),
        failed_ring.twists(), Certificate((CheckRecord("given", 1, 0),)))
    with pytest.raises(IncompatibleMaps, match="multiplication refused"):
        evaluate(failed_ring.variable(0), tup)


def test_a_proved_tuple_draws_no_pool():
    weyl2 = load_ring(ROOT / "configs" / "weyl2.json")
    ring = OreRing(weyl2.domain, weyl2.variables, samples=37, seed=987654)
    shifts = {0: ring.domain.from_int(3)}
    elements, variables = (_shifted_elements(ring, 1, shifts),
                           _shifted_variables(ring, 1, shifts))
    twists = ring.with_variables(variables).twists()
    before = sample_scalars.cache_info()
    tup = certify_tuple(ring, elements, twists)
    assert all(r.analytic for r in tup.certificate.records[1:])
    assert sample_scalars.cache_info() == before
    # a sampled element draws the pool once: the count above can move
    certify_tuple(ring, [elements[0] + ring.one()], twists[:1])
    assert sample_scalars.cache_info().misses == before.misses + 1
