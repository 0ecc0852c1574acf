"""Formal substitution, witness search and the conjugacy-class bound."""

import random
from itertools import product

import pytest

from skewpoly.errors import (
    ArityMismatch,
    NoWitnessFound,
    NotARoot,
    ZeroPolynomial,
)
from skewpoly.nullstellensatz import (
    cns_witness,
    formal_substitute,
    gordon_motzkin_check,
    make_evaluation_set,
    validate_sets,
)
from skewpoly.maps import IdentityAut, zero_der
from skewpoly.ore import OreRing
from skewpoly.scalars import HQ, Q, Quaternion, are_conjugate

from conftest import random_poly

I, J, K = HQ.i(), HQ.j(), HQ.k()


def exhaustive_first_witness(f, sets):
    """Independent oracle: scan the whole grid and keep the first hit."""
    for index, point in enumerate(product(*(s.elements for s in sets)), 1):
        if not formal_substitute(f, point).is_zero():
            return point, index
    return None, None


class TestFormalSubstitute:
    def test_root_of_t2_plus_1(self, quat1):
        f = quat1.monomial((2,), HQ.one()) + quat1.one()
        assert formal_substitute(f, (I,)).is_zero()
        assert formal_substitute(f, (HQ.zero(),)) == HQ.one()

    def test_left_coefficient_order(self, quat2):
        # i * t1 t2 at (j, k): i * j * k = i * i = -1
        f = quat2.monomial((1, 1), I)
        assert I * J * K == HQ.from_int(-1)
        assert formal_substitute(f, (J, K)) == HQ.from_int(-1)

    def test_not_multiplicative(self, quat1):
        # the formal sum is deliberately not the evaluation homomorphism:
        # with f = t and g = j*t, (f*g)(i) = -j but f(i)*g(i) = j
        f = quat1.variable(0)
        g = quat1.monomial((1,), J)
        prod_value = formal_substitute(f * g, (I,))
        split_value = formal_substitute(f, (I,)) * formal_substitute(g, (I,))
        assert prod_value == -J
        assert split_value == J
        assert prod_value != split_value

    def test_arity(self, quat2):
        with pytest.raises(ArityMismatch):
            formal_substitute(quat2.one(), (I,))


class TestValidateSets:
    def test_mixed_set_passes(self):
        s = make_evaluation_set([HQ.zero(), HQ.one(), I])
        # oracle: pairwise traces/norms
        assert not are_conjugate(HQ.zero(), HQ.one())
        assert not are_conjugate(HQ.zero(), I)
        assert not are_conjugate(HQ.one(), I)
        assert validate_sets([s], 2)

    def test_conjugate_pair_fails(self):
        # i and j share trace 0 and norm 1
        s = make_evaluation_set([I, J])
        assert s.conjugate_pairs == ((0, 1),)
        assert not validate_sets([s], 1)

    def test_cardinality_fails(self):
        s = make_evaluation_set([HQ.zero(), HQ.one()])
        assert not validate_sets([s], 2)

    def test_central_sets_always_pass(self):
        # subsets of the center are automatically non-conjugate
        rng = random.Random(4)
        for _ in range(20):
            values = {Q.from_int(rng.randint(-20, 20)) for _ in range(5)}
            assert make_evaluation_set(sorted(values,
                                              key=lambda s: s.value)).ok
        # the same holds for the rational center of the quaternions
        for _ in range(20):
            values = {rng.randint(-20, 20) for _ in range(5)}
            assert make_evaluation_set([HQ.from_int(v)
                                        for v in sorted(values)]).ok


class TestWitnessSearch:
    def test_t2_plus_1(self, quat1):
        f = quat1.monomial((2,), HQ.one()) + quat1.one()
        sets = [make_evaluation_set([HQ.zero(), HQ.one(), I])]
        w = cns_witness(f, sets)
        assert w.point == (HQ.zero(),)
        assert w.value == HQ.one()
        assert w.scanned == 1

    def test_product_of_variables(self, rat3):
        ring = rat3.with_variables(rat3.variables[:2])
        f = ring.monomial((1, 1), Q.one())
        sets = [make_evaluation_set([Q.from_int(n) for n in (0, 1, 2)])] * 2
        w = cns_witness(f, sets)
        assert w.point == (Q.from_int(1), Q.from_int(1))
        # grid order: (0,0), (0,1), (0,2), (1,0), (1,1)
        assert w.scanned == 5

    def test_factored_polynomial(self, rat1):
        # (t-1)(t-2) = t^2 - 3t + 2 vanishes at 1 and 2, not at 0
        t, one = rat1.variable(0), rat1.one()
        two = rat1.constant(Q.from_int(2))
        f = (t - one) * (t - two)
        sets = [make_evaluation_set([Q.from_int(n) for n in range(4)])]
        w = cns_witness(f, sets)
        assert w.point == (Q.zero(),)
        assert w.value == Q.from_int(2)

    def test_first_in_lex_order(self, quat2):
        rng = random.Random(77)
        pool = [HQ.zero(), HQ.one(), HQ.from_int(2), HQ.from_int(3), I,
                HQ.make(1, 1), HQ.make(0, 2), HQ.make(2, 1)]
        for _ in range(30):
            f = random_poly(quat2, rng, 3, nonzero=True)
            degree = int(f.total_degree())
            if degree < 1:
                continue
            elements = []
            for cand in rng.sample(pool, len(pool)):
                if all(not are_conjugate(cand, e) for e in elements):
                    elements.append(cand)
                if len(elements) == degree + 1:
                    break
            sets = [make_evaluation_set(elements)] * 2
            assert validate_sets(sets, degree)
            w = cns_witness(f, sets)
            oracle_point, oracle_index = exhaustive_first_witness(f, sets)
            assert w.point == oracle_point
            assert w.scanned == oracle_index
            assert not w.value.is_zero()

    def test_violated_hypotheses_raise(self, rat1):
        f = rat1.variable(0)
        starved = [make_evaluation_set([Q.zero()])]
        assert not validate_sets(starved, int(f.total_degree()))
        with pytest.raises(NoWitnessFound):
            cns_witness(f, starved)

    def test_zero_polynomial_rejected(self, rat1):
        with pytest.raises(ZeroPolynomial):
            cns_witness(rat1.zero(), [make_evaluation_set([Q.zero()])])


class TestSearchWork:
    """The search specializes one coordinate at a time instead of
    substituting at every grid point."""

    @pytest.fixture(scope="class")
    def quat3(self):
        ident = IdentityAut()
        return OreRing(HQ, [(n, ident, zero_der()) for n in ("s1", "s2", "s3")])

    @pytest.mark.parametrize("m", [4, 8])
    def test_products_bounded_by_set_sizes(self, quat3, m, monkeypatch):
        # f = prod_{c<m} (s1 - c) * (s2 + s3 + 7) vanishes on the first m
        # values of s1; the full grid scan multiplies at every such point
        s1, s2, s3 = (quat3.variable(i) for i in range(3))
        f = s2 + s3 + quat3.constant(HQ.from_int(7))
        for c in reversed(range(m)):
            f = (s1 - quat3.constant(HQ.from_int(c))) * f
        sets = [make_evaluation_set(
            [HQ.from_int(c) for c in range(m + 2)])] * 3
        assert validate_sets(sets, f.total_degree())

        products = 0
        original = Quaternion._mul

        def counted(a, b):
            nonlocal products
            products += 1
            return original(a, b)

        monkeypatch.setattr(Quaternion, "_mul", counted)
        w = cns_witness(f, sets)
        monkeypatch.undo()

        assert products <= 2 * sum(len(s) for s in sets) * len(f.terms)
        assert w.point == (HQ.from_int(m), HQ.zero(), HQ.zero())
        assert w.scanned == m * (m + 2) ** 2 + 1
        assert (w.point, w.scanned) == exhaustive_first_witness(f, sets)
        assert w.value == formal_substitute(f, w.point)


class TestBacktracking:
    """Without the hypotheses a non-zero specialization may still vanish at
    every completion; the search must then move on to the next value."""

    def test_dead_prefixes_are_left(self, rat3):
        # c - a*b: a = 0 leaves c, which vanishes on A_3 = {0}; so does
        # (1, 0); the first witness is (1, 1, 0), the fourth grid point
        a, b, c = (rat3.variable(i) for i in range(3))
        f = c - a * b
        sets = [make_evaluation_set([Q.zero(), Q.one()])] * 2 + [
            make_evaluation_set([Q.zero()])]
        assert not validate_sets(sets, f.total_degree())
        w = cns_witness(f, sets)
        assert w.point == (Q.one(), Q.one(), Q.zero())
        assert w.value == Q.from_int(-1)
        assert w.scanned == 4
        assert (w.point, w.scanned) == exhaustive_first_witness(f, sets)

    def test_matches_exhaustive_scan_on_starved_grids(self, rat3, quat2):
        rng = random.Random(29)
        pools = [(rat3, [Q.from_int(n) for n in range(-2, 3)]),
                 (quat2, [HQ.zero(), HQ.one(), I, J, K, HQ.make(1, 1)])]
        exhausted = 0
        for ring, pool in pools:
            first, last = ring.variable(0), ring.variable(ring.nvars - 1)
            for _ in range(40):
                sets = [make_evaluation_set(rng.sample(pool, rng.randint(1, 3)))
                        for _ in range(ring.nvars)]
                # over Q a prefix with first = b leaves u * (last - a), which
                # may be non-zero but vanishes at the completion last = a
                a = ring.constant(sets[-1].elements[0])
                b = ring.constant(rng.choice(sets[0].elements))
                f = (random_poly(ring, rng, 2, nonzero=True) * (last - a)
                     + first - b)
                oracle_point, oracle_index = exhaustive_first_witness(f, sets)
                if oracle_point is None:
                    exhausted += 1
                    with pytest.raises(NoWitnessFound):
                        cns_witness(f, sets)
                    continue
                w = cns_witness(f, sets)
                assert (w.point, w.scanned) == (oracle_point, oracle_index)
                assert w.value == formal_substitute(f, w.point)
        assert exhausted


class TestGordonMotzkin:
    def test_x2_plus_1_single_class(self, quat1):
        f = quat1.monomial((2,), HQ.one()) + quat1.one()
        report = gordon_motzkin_check(f, [I, J, K])
        assert report.degree == 2
        assert len(report.classes) == 1
        cls = report.classes[0]
        assert cls.members == (I, J, K)
        assert cls.trace == 0
        assert cls.norm == 1

    def test_central_roots_two_classes(self, quat1):
        # x^2 - 3x + 2 with central roots 1 and 2
        t = quat1.variable(0)
        f = (t * t - t.scale_left(HQ.from_int(3))
             + quat1.constant(HQ.from_int(2)))
        report = gordon_motzkin_check(f, [HQ.one(), HQ.from_int(2)])
        assert len(report.classes) == 2

    def test_not_a_root(self, quat1):
        f = quat1.monomial((2,), HQ.one()) + quat1.one()
        with pytest.raises(NotARoot):
            gordon_motzkin_check(f, [I, HQ.one()])

    def test_central_linear_factors(self, quat1):
        # product of d distinct central linear factors: d classes = degree
        rng = random.Random(13)
        t = quat1.variable(0)
        for _ in range(5):
            count = rng.randint(2, 4)
            values = rng.sample(range(-6, 7), count)
            f = quat1.one()
            for c in values:
                f = f * (t - quat1.constant(HQ.from_int(c)))
            roots = [HQ.from_int(c) for c in values]
            report = gordon_motzkin_check(f, roots)
            assert len(report.classes) == count == report.degree

    def test_requires_trivial_twists(self, quat_inner):
        f = quat_inner.monomial((2,), HQ.one())
        with pytest.raises(ValueError):
            gordon_motzkin_check(f, [])
