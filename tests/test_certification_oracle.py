"""Differential oracles for the certification shortcuts.

A law record that the constructor family proves takes no samples, and a
tuple element that is a linear form with the claimed combined derivation is
proved without comparing a sample.  These tests hold each proof against the
sampled check it replaces: every analytic True samples with no failure,
every analytic False is refuted by sampling, and a tuple record counts the
failures the operator products count.

``is_automorphic`` is the product-law oracle; other test modules import it
from here.
"""

import functools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import maps
from skewpoly.config import load_ring
from skewpoly.evaluation import certify_tuple
from skewpoly.maps import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DdxDer,
    IdentityAut,
    InnerDer,
    QDiffDer,
    analytic_commutation,
    analytic_derivation,
    check_sample_count,
    in_fixed_subfield,
    inner_aut,
    lin_comb,
    q_shift,
    sample_scalars,
    zero_der,
)
from skewpoly.scalars import HQ, QX

ROOT = pathlib.Path(__file__).resolve().parent.parent
RING_FILES = sorted([*(ROOT / "configs").glob("*.json"),
                     *(ROOT / "perfbench" / "rings").glob("*.json")])
LAW_SAMPLES = 64


def product_failures(s, aut, der, pool) -> int:
    """Sampled r with ``s*r != aut(r)*s + der(r)``, by operator products."""
    ring = s.ring
    return sum(s * ring.constant(r)
               != s.scale_left(aut(r)) + ring.constant(der(r)) for r in pool)


def is_automorphic(s, aut, der, samples=DEFAULT_SAMPLES,
                   seed=DEFAULT_SEED) -> bool:
    """Whether ``s*r = aut(r)*s + der(r)`` holds for all sampled scalars."""
    check_sample_count(samples)
    pool = sample_scalars(s.ring.domain, seed, samples)
    return product_failures(s, aut, der, pool) == 0


# ---------------------------------------------------------------------------
# ring and map law records
# ---------------------------------------------------------------------------

def assert_verdicts_hold(domain, leibniz, commuting):
    """Each analytic True samples no failure; each False is refuted."""
    for verdict, sampler, m1, m2 in (
            *((analytic_derivation(a, d), maps._leibniz_failures, a, d)
              for a, d in leibniz),
            *((analytic_commutation(a, b), maps._commutation_failures, a, b)
              for a, b in commuting)):
        failures = sampler(domain, m1, m2, LAW_SAMPLES, DEFAULT_SEED)
        if verdict is True:
            assert failures == 0, (m1, m2)
        elif verdict is False:
            assert failures > 0, (m1, m2)


def ring_laws(variables):
    """The (aut, der) and map pairs a ring certificate checks."""
    leibniz = [(v.aut, v.der) for v in variables]
    commuting = [pair
                 for i, a in enumerate(variables) for b in variables[i + 1:]
                 for pair in ((a.aut, b.aut), (a.aut, b.der),
                              (a.der, b.aut), (a.der, b.der))]
    return leibniz, commuting


@pytest.mark.parametrize("path", RING_FILES, ids=lambda p: p.name)
def test_ring_file_verdicts_agree_with_sampling(path):
    ring = load_ring(path)
    assert_verdicts_hold(ring.domain, *ring_laws(ring.variables))
    for record in ring.certificate.records:
        assert record.samples > 0 or record.analytic is True, record


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero = small.filter(bool)
polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda c: QX.from_coeffs(tuple(c)))
qx_scalars = st.tuples(polys, polys.filter(lambda p: not p.is_zero())).map(
    lambda nd: nd[0] * nd[1].inv())
quaternions = st.tuples(small, small, small, small).map(lambda c: HQ.make(*c))


@st.composite
def qx_family(draw):
    """An automorphism of Q(x) with a derivation twisted by it: d/dx or
    q_diff, an inner derivation, zero, or a central combination of them."""
    aut = draw(st.one_of(st.just(IdentityAut()), nonzero.map(q_shift)))
    identity = aut == IdentityAut()
    base = [zero_der(aut), DdxDer() if identity else QDiffDer(aut),
            InnerDer(draw(qx_scalars), aut)]
    # central coefficients fixed by the twist: all of Q(x) under the
    # identity, constants under a q-shift
    coeffs = qx_scalars if identity else small.map(QX.from_fraction)
    return aut, draw(_derivation(base, coeffs, aut))


@st.composite
def hq_family(draw):
    """An inner automorphism of H(Q) with a derivation twisted by it."""
    aut = inner_aut(draw(quaternions.filter(lambda c: not c.is_zero())))
    base = [zero_der(aut), InnerDer(draw(quaternions), aut)]
    return aut, draw(_derivation(base, small.map(HQ.from_fraction), aut))


def _derivation(base, coeffs, aut):
    single = st.sampled_from(base)
    combined = st.lists(st.tuples(coeffs, single), min_size=1, max_size=3).map(
        lambda pairs: lin_comb(pairs, twist=aut))
    return st.one_of(single, combined)


@pytest.mark.parametrize("family, domain", [(qx_family, QX), (hq_family, HQ)],
                         ids=["Qx", "HQ"])
@settings(deadline=None)
@given(data=st.data())
def test_generated_verdicts_agree_with_sampling(family, domain, data):
    (a1, d1), (a2, d2) = data.draw(family()), data.draw(family())
    family_maps = (a1, d1, a2, d2)
    leibniz = [(a1, d1), (a2, d2), (a1, d2), (a2, d1)]
    commuting = [(m1, m2) for i, m1 in enumerate(family_maps)
                 for m2 in family_maps[i + 1:]]
    assert_verdicts_hold(domain, leibniz, commuting)


@st.composite
def inner_der_against_aut(draw):
    """An inner derivation and an automorphism sigma over one domain, with
    sigma fixing the derivation's witness about half of the time."""
    if draw(st.booleans()):
        s = draw(quaternions.filter(lambda c: not c.is_central()))
        # a + b*s commutes with s, so conjugation by s fixes it
        fixed = st.tuples(small, small).map(
            lambda ab: HQ.from_fraction(ab[0]) + HQ.from_fraction(ab[1]) * s)
        witness = st.one_of(fixed, quaternions).filter(
            lambda c: not c.is_zero())
        domain, aut, twist = HQ, inner_aut(s), inner_aut(draw(witness))
        c = draw(st.one_of(fixed, quaternions))
    else:
        shifts = st.one_of(st.just(IdentityAut()), nonzero.map(q_shift))
        domain, aut, twist = QX, draw(shifts), draw(shifts)
        # constants are fixed by every q-shift, x is moved by all of them
        c = draw(st.one_of(small.map(QX.from_fraction), qx_scalars))
    return domain, InnerDer(c, twist), aut


@settings(deadline=None)
@given(case=inner_der_against_aut())
def test_inner_derivation_against_automorphism_agrees_with_sampling(case):
    domain, der, aut = case
    pairs = [(der, aut), (aut, der)]
    assert_verdicts_hold(domain, [], pairs)
    if aut(der.c) == der.c and analytic_commutation(aut, der.twist) is True:
        assert [analytic_commutation(*p) for p in pairs] == [True, True]


def test_inner_automorphisms_are_refuted_analytically():
    # conjugations by i and 1 + j do not commute; i and j do
    i, j = HQ.i(), HQ.j()
    assert analytic_commutation(inner_aut(i), inner_aut(HQ.one() + j)) is False
    assert analytic_commutation(inner_aut(i), inner_aut(j)) is True
    assert_verdicts_hold(HQ, [], [(inner_aut(i), inner_aut(HQ.one() + j)),
                                  (inner_aut(i), inner_aut(j))])


# ---------------------------------------------------------------------------
# tuple records
# ---------------------------------------------------------------------------

TUPLE_RINGS = ["weyl.json", "weyl2.json", "weyl3.json", "qdiff.json",
               "quat.json", "quat_inner.json"]


@functools.lru_cache(maxsize=None)
def _ring(name):
    return load_ring(ROOT / "configs" / name)


@st.composite
def claimed_elements(draw):
    """A ring, an element that is mostly a linear form in its variables, and
    a claimed (aut, der), right or wrong."""
    ring = _ring(draw(st.sampled_from(TUPLE_RINGS)))
    domain = ring.domain
    off_f = QX.x() if domain is QX else HQ.i()  # not central, or not fixed
    coeff = st.sampled_from([*map(domain.from_int, range(-2, 3)), off_f])
    n = ring.nvars
    s = ring.zero()
    for i in range(n):
        s = s + ring.variable(i).scale_left(draw(coeff))
    extra = draw(st.sampled_from(["none", "none", "constant", "square"]))
    if extra == "constant":
        s = s + ring.one()
    elif extra == "square":
        s = s + ring.variable(0) * ring.variable(0)
    aut = draw(st.sampled_from([ring.variables[0].aut, IdentityAut()]))
    ders = [v.der for v in ring.variables]
    weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    right = [(c, ders[e.index(1)]) for e, c in s.terms.items()
             if sum(e) == 1 and in_fixed_subfield(domain, ring.tower_maps(), c)]
    der = draw(st.sampled_from([
        *ders, zero_der(aut),
        lin_comb([(domain.from_int(w), d) for w, d in zip(weights, ders)],
                 twist=ders[0].twist),
        lin_comb(right, twist=ders[0].twist) if right else zero_der(aut)]))
    return ring, s, aut, der


@settings(deadline=None)
@given(case=claimed_elements(), seed=st.integers(0, 3))
def test_tuple_record_counts_what_products_count(case, seed):
    ring, s, aut, der = case
    tup = certify_tuple(ring, [s], [(aut, der)], 16, seed)
    (record,) = tup.certificate.records
    pool = sample_scalars(ring.domain, seed, 16)
    assert record.samples == 16
    assert record.failures == product_failures(s, aut, der, pool)
    if record.analytic:
        assert record.failures == 0
