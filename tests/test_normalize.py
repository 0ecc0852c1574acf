"""Monicization, the normalization chain and monic reduction."""

import importlib
import itertools
import pathlib
import random

import pytest

from skewpoly.config import load_ring
from skewpoly.errors import (
    IncompatibleMaps,
    NotAWitness,
    RingMismatch,
    ZeroPolynomial,
)
from skewpoly.evaluation import certify_tuple, evaluate
from skewpoly.maps import (
    DdxDer,
    IdentityAut,
    central_fixed_stream,
    lin_comb,
    q_shift,
    QDiffDer,
    zero_der,
)
from skewpoly.normalize import (
    MonicRelation,
    divmod_by_monic,
    find_nonvanishing_point,
    monicize,
    normalize,
    normalize_step,
)
from skewpoly.nullstellensatz import formal_substitute
from skewpoly.ore import OreRing, SkewPoly, evaluation_context, reinterpret
from skewpoly.parser import parse_expr
from skewpoly.scalars import HQ, Q, QX

from conftest import random_poly

X = QX.x()
ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED_RINGS = sorted([*ROOT.glob("configs/*.json"),
                        *ROOT.glob("perfbench/rings/*.json")])


def stream_for(ring):
    return central_fixed_stream(ring.domain, ring.tower_maps())


class TestFindNonvanishingPoint:
    def test_linear(self, weyl):
        ctx = evaluation_context(QX, ("x1",))
        h = ctx.monomial((1,), QX.one())
        search = find_nonvanishing_point(h, stream_for(weyl))
        assert search.point == (QX.from_int(1),)
        assert formal_substitute(h, search.point) == QX.from_int(1)

    def test_constant(self, weyl):
        ctx = evaluation_context(QX, ())
        h = ctx.constant(QX.from_int(7))
        search = find_nonvanishing_point(h, stream_for(weyl))
        assert search.point == ()
        assert search.specializations == 0

    def test_skips_roots(self, weyl):
        # h = x1^2 - 1 does not vanish at the first candidate 0
        ctx = evaluation_context(QX, ("x1",))
        h = ctx.monomial((2,), QX.one()) - ctx.one()
        search = find_nonvanishing_point(h, stream_for(weyl))
        assert search.point == (QX.zero(),)

    def test_budget(self, weyl3):
        rng = random.Random(3)
        for _ in range(15):
            names = ("x1", "x2")
            ctx = evaluation_context(QX, names)
            h = random_poly(ctx, rng, 3, nonzero=True)
            search = find_nonvanishing_point(h, stream_for(weyl3))
            degree = int(h.total_degree())
            assert search.specializations <= (degree + 1) * len(names)
            # distinct candidates: no backtracking, j + 1 per coordinate
            candidates = list(itertools.islice(stream_for(weyl3), degree + 1))
            assert search.specializations == sum(
                candidates.index(c) + 1 for c in search.point)
            assert not formal_substitute(h, search.point).is_zero()
            assert search.value == formal_substitute(h, search.point)

    def test_counts_backtracked_specializations(self):
        # Repeated candidates 0, 0, 1 break the no-backtracking guarantee:
        # at x1 = 0, h = x2^2 - x2 + x1 is non-zero but vanishes at every
        # candidate for x2.  Each of the two abandoned prefixes makes 1 + 3
        # specializations, the point (1, 0) makes 1 + 1 more.
        ctx = evaluation_context(Q, ("x1", "x2"))
        h = (ctx.monomial((0, 2), Q.one()) - ctx.monomial((0, 1), Q.one())
             + ctx.monomial((1, 0), Q.one()))
        candidates = [Q.from_int(v) for v in (0, 0, 1)]
        search = find_nonvanishing_point(h, iter(candidates))
        first = next(p for p in itertools.product(candidates, repeat=2)
                     if not formal_substitute(h, p).is_zero())
        assert search.point == first == (Q.one(), Q.zero())
        assert search.value == formal_substitute(h, first) == Q.one()
        assert search.specializations == 10

    def test_zero_rejected(self, weyl):
        ctx = evaluation_context(QX, ("x1",))
        with pytest.raises(ZeroPolynomial):
            find_nonvanishing_point(ctx.zero(), stream_for(weyl))


class TestMonicize:
    def test_product_of_variables(self, weyl2):
        f = weyl2.monomial((1, 1), QX.one())
        sub, g = monicize(f)
        assert sub.shifts == (QX.from_int(1),)
        assert sub.scale == QX.one()
        # oracle: substitute y1 -> y1 + y2 and expand; g lives in the
        # step's ring, where y1 stands for y1 - y2
        assert g == g.ring.monomial((1, 1), QX.one()) + g.ring.monomial(
            (0, 2), QX.one())

    def test_already_monic(self, weyl2):
        f = weyl2.monomial((0, 3), QX.one()) + weyl2.monomial((1, 0), QX.one())
        sub, g = monicize(f)
        assert sub.shifts == (QX.zero(),)
        assert sub.scale == QX.one()
        assert g == f

    def test_scaling(self, weyl2):
        f = weyl2.monomial((2, 0), QX.from_int(2))
        sub, g = monicize(f)
        assert sub.shifts == (QX.from_int(1),)
        assert sub.scale == QX.from_coeffs(("1/2",))
        # oracle: (1/2) * 2 (y1 + y2)^2 with trivial coefficient twists,
        # expanded in the step's ring, where g lives
        s = g.ring.variable(0) + g.ring.variable(1)
        assert g == s * s

    def test_middle_target(self, weyl3):
        f = weyl3.monomial((1, 1, 0), QX.one())
        sub, g = monicize(f, target=1)
        assert g.degree_in(1) == 2
        assert g.coeff((0, 2, 0)) == QX.one()

    def test_postconditions_random(self, weyl2, quat_inner2, rat3):
        rng = random.Random(11)
        for ring in (weyl2, quat_inner2, rat3):
            one = ring.domain.one()
            for _ in range(6):
                f = random_poly(ring, rng, 3, nonzero=True)
                if f.total_degree() < 1:
                    continue
                degree = int(f.total_degree())
                target = ring.nvars - 1
                sub, g = monicize(f)
                assert g.degree_in(target) == degree
                top = tuple(degree if t == target else 0
                            for t in range(ring.nvars))
                assert g.coeff(top) == one

    def test_single_variable_qring(self, qdiff_ring):
        # one variable, non-identity twist: no shifts, only the left scale
        f = (qdiff_ring.monomial((2,), QX.from_int(3))
             + qdiff_ring.monomial((1,), X))
        sub, g = monicize(f)
        assert sub.shifts == ()
        assert sub.scale == QX.from_coeffs(("1/3",))
        assert g == f.scale_left(sub.scale)
        assert g.coeff((2,)) == QX.one()

    def test_zero_rejected(self, weyl2):
        with pytest.raises(ZeroPolynomial):
            monicize(weyl2.zero())

    def test_constant_rejected(self, weyl2):
        with pytest.raises(ValueError):
            monicize(weyl2.one())

    def test_requires_shared_automorphism(self):
        shift = q_shift(2)
        ring = OreRing(QX, [("t1", IdentityAut(), zero_der()),
                            ("t2", shift, zero_der(shift))])
        with pytest.raises(IncompatibleMaps):
            monicize(ring.monomial((1, 1), QX.one()))

    def test_requires_passing_certificate(self):
        # one shared automorphism, but d/dx and x*d/dx do not commute
        ring = OreRing(QX, [("t1", IdentityAut(), DdxDer()),
                            ("t2", IdentityAut(), lin_comb([(X, DdxDer())]))])
        assert len({v.aut for v in ring.variables}) == 1
        failed = [r.law for r in ring.certificate.records if not r.ok]
        assert failed == ["commute(d/dx, lin_comb((x)*d/dx))"]
        f = ring.monomial((1, 1), QX.one())
        with pytest.raises(IncompatibleMaps):
            monicize(f)
        with pytest.raises(IncompatibleMaps):
            normalize(ring, [f])


class TestNormalizeStep:
    def test_weyl_product(self, weyl2):
        f = weyl2.monomial((1, 1), QX.one())
        step = normalize_step(f)
        rel = step.relation
        assert rel.degree == 2
        assert rel.var == 1
        # relation t2^2 + eps_1 t2 + eps_2 with eps_1 = t1, eps_2 = 0
        assert rel.tails[0].terms == {(1, 0): QX.one()}
        assert rel.tails[1].is_zero()

    def test_degree_one_relation(self, weyl2):
        f = weyl2.monomial((0, 1), QX.one()) - weyl2.one()
        step = normalize_step(f)
        rel = step.relation
        assert rel.degree == 1
        assert rel.tails[0] == reinterpret(-weyl2.one(), rel.ring)

    def test_replay_identity_manual(self, weyl2):
        # re-verify g(t_1, t_2) = a*f outside the built-in assertion
        f = (weyl2.monomial((1, 1), X)
             + weyl2.monomial((0, 1), QX.from_int(2))
             + weyl2.one())
        step = normalize_step(f)
        sub, rel = step.substitution, step.relation
        g = rel.polynomial()
        t_last = weyl2.variable(1)
        elements = [weyl2.variable(0) - t_last.scale_left(sub.shifts[0]),
                    t_last]
        tup = certify_tuple(weyl2, elements, rel.ring.twists())
        replay = evaluate(reinterpret(g, rel.ring), tup)
        assert replay == f.scale_left(sub.scale)

    def test_mixed_tower_descriptors(self, weyl3):
        f = weyl3.monomial((1, 0, 1), QX.one())
        step = normalize_step(f)
        # shift u_1 = 1, so d_1 = delta_1 - delta_3 = ddx - ddx collapses
        assert step.substitution.shifts == (QX.from_int(1), QX.zero())
        tower = step.relation.ring.twists()
        assert tower[0] == (IdentityAut(), zero_der(IdentityAut()))
        assert tower[1] == (IdentityAut(), zero_der(IdentityAut()))
        assert tower[2] == (IdentityAut(), DdxDer())


class TestReduce:
    def make_relation(self, ring, poly, var):
        m = int(poly.degree_in(var))
        buckets = poly.split_by_var(var)
        tails = tuple(buckets.get(m - j, ring.zero())
                      for j in range(1, m + 1))
        return MonicRelation(ring, var, m, tails)

    def test_low_degree_unchanged(self, rat1):
        t = rat1.variable(0)
        rel_poly = t * t - t.scale_left(Q.from_int(3)) + rat1.constant(Q.from_int(2))
        rel = self.make_relation(rat1, rel_poly, 0)
        e = t + rat1.one()
        assert divmod_by_monic(e, rel)[1] == e

    def test_single_rewrite(self, rat1):
        # t^2 - 3t + 2 = 0 rewrites t^2 to 3t - 2
        t = rat1.variable(0)
        rel_poly = t * t - t.scale_left(Q.from_int(3)) + rat1.constant(Q.from_int(2))
        rel = self.make_relation(rat1, rel_poly, 0)
        out = divmod_by_monic(t * t, rel)[1]
        assert out == t.scale_left(Q.from_int(3)) - rat1.constant(Q.from_int(2))

    def test_weyl_relation_with_recheck(self, weyl2):
        t1, t2 = weyl2.variable(0), weyl2.variable(1)
        rel = self.make_relation(weyl2, t2 * t2 + t1 * t2, 1)
        e = t2 * t2 * t2
        q, r = divmod_by_monic(e, rel)
        assert r.degree_in(1) <= 1
        assert q * rel.polynomial() + r == e

    def test_division_recheck_random(self, weyl2, quat_inner2):
        rng = random.Random(37)
        for ring in (weyl2, quat_inner2):
            t1, t2 = ring.variable(0), ring.variable(1)
            rel = self.make_relation(ring, t2 * t2 + t1 * t2 + ring.one(), 1)
            for _ in range(10):
                e = random_poly(ring, rng, 4)
                q, r = divmod_by_monic(e, rel)
                assert r.degree_in(1) < 2
                assert q * rel.polynomial() + r == e

    def test_ring_mismatch(self, rat1, weyl):
        t = rat1.variable(0)
        rel = self.make_relation(rat1, t * t + rat1.one(), 0)
        with pytest.raises(RingMismatch):
            divmod_by_monic(weyl.one(), rel)[1]


class TestNormalize:
    def test_empty_relations(self, weyl2):
        result = normalize(weyl2, [])
        assert result.steps == ()
        assert result.residual_variables == ("t1", "t2")
        assert result.generator_bounds == ()

    def test_single_relation(self, weyl2):
        f = weyl2.monomial((1, 1), QX.one())
        result = normalize(weyl2, [f])
        assert len(result.steps) == 1
        assert result.residual_variables == ("t1",)
        assert result.generator_bounds == (2,)

    def test_two_relation_chain(self, weyl3):
        rels = [weyl3.monomial((1, 0, 1), QX.one()),
                weyl3.monomial((0, 2, 0), QX.one())]
        result = normalize(weyl3, rels)
        assert len(result.steps) == 2
        assert result.residual_variables == ("y1",)
        assert result.generator_bounds == (2, 2)
        assert result.skipped == ()

    def test_duplicate_relation_becomes_zero(self, weyl3):
        rels = [weyl3.monomial((0, 0, 2), QX.one()),
                weyl3.monomial((0, 0, 2), QX.one())]
        result = normalize(weyl3, rels)
        assert len(result.steps) == 1
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == 1

    def test_non_witness_raises(self, weyl3):
        rels = [weyl3.monomial((0, 0, 2), QX.one()),
                weyl3.monomial((1, 0, 1), QX.one())]
        with pytest.raises(NotAWitness):
            normalize(weyl3, rels)

    def test_zero_input_reported(self, weyl2):
        result = normalize(weyl2, [weyl2.zero()])
        assert result.steps == ()
        assert result.skipped == ((0, "vanished after substitution and reduction"),)

    def test_deterministic_report(self, weyl3):
        rels = [weyl3.monomial((1, 0, 1), QX.one()),
                weyl3.monomial((0, 2, 0), QX.one())]
        a = normalize(weyl3, rels).to_data()
        b = normalize(weyl3, rels).to_data()
        assert a == b

    def test_report_descriptors_rebuild_the_tower(self, weyl3):
        # the serialized report alone carries enough to re-create each
        # step's presentation maps
        from skewpoly.config import aut_from_data, der_from_data

        rels = [weyl3.monomial((1, 0, 1), QX.one()),
                weyl3.monomial((0, 2, 0), QX.one())]
        result = normalize(weyl3, rels)
        for step in result.steps:
            data = step.to_data()["mixed_derivations"]
            rebuilt = []
            for entry in data:
                aut = aut_from_data(entry["aut"], QX)
                rebuilt.append((aut, der_from_data(entry["der"], QX, aut)))
            assert tuple(rebuilt) == step.relation.ring.twists()

    def test_chain_with_nonzero_shifts(self, weyl3):
        # first step shifts y1 -> y1 + y3, so the second relation must be
        # re-expressed and reduced before it becomes a two-variable witness
        one = QX.one()
        f1 = weyl3.monomial((1, 0, 1), one) + weyl3.monomial((0, 1, 0), one)
        f2 = (weyl3.monomial((0, 2, 0), one) + weyl3.monomial((1, 0, 0), one)
              - weyl3.monomial((0, 0, 1), one))
        result = normalize(weyl3, [f1, f2])
        assert len(result.steps) == 2
        first, second = result.steps
        assert first.substitution.shifts == (QX.from_int(1), QX.zero())
        # t3^2 + t1 t3 + t2 = 0: tails are (t1, t2)
        assert [str(t) for t in first.relation.tails] == ["y1", "y2"]
        assert second.substitution.shifts == (QX.zero(),)
        # w2^2 + w1 = 0 after reduction by the first relation
        assert [str(t) for t in second.relation.tails] == ["0", "y1"]

    def test_quaternion_chain(self, quat_inner2):
        f = quat_inner2.monomial((0, 2), HQ.one()) + quat_inner2.monomial(
            (1, 0), HQ.i())
        result = normalize(quat_inner2, [f])
        assert len(result.steps) == 1
        assert result.residual_variables == ("t1",)

    @pytest.mark.parametrize("path", SHIPPED_RINGS, ids=lambda p: p.name)
    def test_sum_of_squares_on_every_shipped_ring(self, path):
        # qdiff.json twists by a q-shift that its q-difference does not
        # commute with; one variable mixes nothing, so nothing asks it to
        ring = load_ring(path)
        f = ring.one()
        for i in range(ring.nvars):
            f = f + ring.variable(i) * ring.variable(i)
        result = normalize(ring, [f])
        assert len(result.steps) == 1
        assert result.generator_bounds == (2,)

    def test_foreign_relation_rejected(self, weyl2, weyl3):
        with pytest.raises(RingMismatch):
            normalize(weyl2, [weyl3.one()])

    # zero derivations collapse the mixed tower back to rat3's, but a*c
    # still shifts a -> t_a + t_c, and later relations must follow it
    def test_unshifted_tower_still_substitutes(self, rat3):
        # a^2 + 1 is (t_a + t_c)^2 + 1, which involves t_c
        with pytest.raises(NotAWitness):
            normalize(rat3, [parse_expr(e, rat3) for e in ("a*c", "a^2 + 1")])

    def test_unshifted_tower_reads_new_coordinates(self, rat3):
        # (a - c)^2 + 1 is t_a^2 + 1
        rels = [parse_expr(e, rat3) for e in ("a*c", "(a - c)^2 + 1")]
        assert len(normalize(rat3, rels).steps) == 2

    def test_relations_divided_oldest_first(self, rat3):
        # c^3 + b^2 + a is (c^3 + b^2) + a; dividing by b^2 + a first left
        # c^3, then -b^2 after c^3 + b^2, and refused a valid witness
        rels = [parse_expr(e, rat3)
                for e in ("c^3 + b^2", "b^2 + a", "c^3 + b^2 + a")]
        result = normalize(rat3, rels)
        assert len(result.steps) == 3
        assert result.generator_bounds == (3, 2, 1)
        assert result.residual_variables == ()

    def test_unchanged_ring_is_reused(self):
        ring = load_ring(ROOT / "configs" / "qdiff.json")
        result = normalize(ring, [parse_expr("t^2 + x*t + 1", ring)])
        assert result.presentation is ring
        assert result.steps[0].relation.ring is ring

    def test_unshifted_steps_substitute_nothing(self, monkeypatch):
        # a one-variable step shifts nothing, so the second relation, exprs
        # and the monic tails are read in the new presentation, not
        # evaluated through a tuple (4 + 2 of the 17 products before).  The
        # three products left: s*s for t^2 in monicize's evaluation, s*s in
        # the replay check, and quotient 1 times rho when the second
        # relation is reduced; evaluation makes no product by one, the
        # proved tuple records take none, and rho is written down
        ring = load_ring(ROOT / "configs" / "qdiff.json")
        f = parse_expr("t^2 + x*t + 1", ring)
        count = [0]
        original = SkewPoly.__mul__

        def counted(self, other):
            count[0] += 1
            return original(self, other)

        monkeypatch.setattr(SkewPoly, "__mul__", counted)
        result = normalize(ring, [f, f])
        assert [i for i, _ in result.skipped] == [1]
        assert count[0] == 3

    def test_derived_rings_keep_the_settings(self):
        ring = load_ring(ROOT / "configs" / "weyl3.json", samples=8, seed=3)
        text = (ROOT / "configs" / "example_relations.txt").read_text()
        rels = [parse_expr(line, ring) for line in text.splitlines()
                if line.strip() and not line.startswith("#")]
        result = normalize(ring, rels)
        rings = [result.presentation,
                 *(step.relation.ring for step in result.steps)]
        assert {(r.samples, r.seed) for r in rings} == {(8, 3)}


def read_in_presentation(result, e):
    """``e`` pushed into the chain's presentation through a certified
    tuple, also where ``reduce`` only reads it there as it is."""
    p = result.presentation
    images = (result.images.elements if result.images is not None
              else [p.variable(i) for i in range(p.nvars)])
    return evaluate(e, certify_tuple(p, images, result.ring.twists()))


# Chains for the finite-module checks: the README chain, a shifted chain in
# each of weyl2.json and quat_inner.json (a relation repeated to be skipped
# in weyl2), the one-variable qdiff.json chain with its skipped repeat and
# the rat3 chain that needs the relations divided oldest first.
CHAINS = {
    "readme": ("weyl3.json", [
        line for line in (ROOT / "configs" / "example_relations.txt")
        .read_text().splitlines() if line.strip() and line[0] != "#"]),
    "weyl2": ("weyl2.json", ["t1*t2", "(t1 - t2)^2 + x", "t1*t2"]),
    "quat_inner": ("quat_inner.json", ["t1*t2 + j", "(t1 - t2)^2 + i"]),
    "qdiff": ("qdiff.json", ["t^2 + x*t + 1", "t^2 + x*t + 1"]),
    "rat3": (None, ["c^3 + b^2", "b^2 + a", "c^3 + b^2 + a"]),
}


class TestChainReduce:
    """``NormalizationResult.reduce`` takes every element of R into the
    span of the monomials below the generator bounds, congruent to it
    modulo the chain's monic relations: the finite-module claim."""

    @pytest.fixture(params=sorted(CHAINS))
    def chain(self, request, rat3):
        config, texts = CHAINS[request.param]
        ring = load_ring(ROOT / "configs" / config) if config else rat3
        relations = [parse_expr(t, ring) for t in texts]
        return relations, normalize(ring, relations)

    def test_chains_eliminate_and_shift(self, chain):
        relations, result = chain
        assert result.steps
        shifted = any(not u.is_zero() for s in result.steps
                      for u in s.substitution.shifts)
        assert (result.images is not None) == shifted

    def test_remainders_lie_below_the_bounds_and_rebuild(self, chain):
        relations, result = chain
        rng = random.Random(59)
        for _ in range(6):
            e = random_poly(result.ring, rng, 4)
            r = result.reduce(e)
            for step, bound in zip(result.steps, result.generator_bounds):
                assert r.degree_in(step.relation.var) < bound
            # e pushed = sum of q_i * rho_i + r, exactly
            pushed = read_in_presentation(result, e)
            rest, total = pushed, result.presentation.zero()
            for rel in result.relations:
                q, rest = divmod_by_monic(rest, rel)
                total = total + q * rel.polynomial()
            assert rest == r
            assert total + r == pushed

    def test_every_relation_reduces_to_zero(self, chain):
        relations, result = chain
        for f in relations:
            assert result.reduce(f).is_zero()

    def test_foreign_element_rejected(self, chain, rat1):
        _, result = chain
        with pytest.raises(RingMismatch):
            result.reduce(rat1.variable(0))


@pytest.fixture
def chain_work(monkeypatch):
    """Counts of operator products, ``certify_tuple`` calls made by the
    normalization module and ``OreRing`` constructions."""
    counts = dict.fromkeys(("products", "certifications", "rings"), 0)
    module = importlib.import_module("skewpoly.normalize")

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(SkewPoly, "__mul__",
                        counting("products", SkewPoly.__mul__))
    monkeypatch.setattr(module, "certify_tuple",
                        counting("certifications", module.certify_tuple))
    monkeypatch.setattr(OreRing, "__init__",
                        counting("rings", OreRing.__init__))
    return counts


class TestOneCertifiedSubstitution:
    """The chain holds its substitution as one tuple, certified when a step
    shifts, and a step that shifts nothing builds and pushes nothing."""

    @staticmethod
    def chains(rat3):
        for config, texts in CHAINS.values():
            ring = load_ring(ROOT / "configs" / config) if config else rat3
            relations = [parse_expr(t, ring) for t in texts]
            yield relations, normalize(ring, relations)

    def test_reduce_certifies_nothing(self, rat3, chain_work):
        chains = list(self.chains(rat3))
        chain_work["certifications"] = 0
        for relations, result in chains:
            for f in relations:
                assert result.reduce(f).is_zero()
        assert chain_work["certifications"] == 0

    def test_images_live_in_the_presentation(self, rat3):
        shifted = [result for _, result in self.chains(rat3)
                   if result.images is not None]
        assert len(shifted) == 3  # the README, weyl2 and quat_inner chains
        for result in shifted:
            assert result.images.ambient is result.presentation
            assert result.images.twists == result.ring.twists()
            assert result.images.certificate.ok

    def test_unshifted_chain_keeps_the_input_ring(self):
        ring = load_ring(ROOT / "configs" / "weyl3.json")
        result = normalize(ring, [parse_expr(t, ring)
                                  for t in ("y3 + y1 + y2", "y2^2 + y1")])
        assert result.generator_bounds == (1, 2)
        assert result.images is None
        assert result.presentation is ring
        assert all(rel.ring is ring for rel in result.relations)

    def test_readme_chain_work(self, chain_work):
        # as in a fresh process, loaded ring excluded: the two leading
        # forms' evaluation rings, shared across calls, are built again,
        # the shifting first step builds its ring and the second step its
        # prefix.  The reductions make no certification and their 4
        # products are the divisions' quo * rho
        config, texts = CHAINS["readme"]
        ring = load_ring(ROOT / "configs" / config)
        relations = [parse_expr(t, ring) for t in texts]
        evaluation_context.cache_clear()
        chain_work.update(products=0, certifications=0, rings=0)
        result = normalize(ring, relations)
        assert chain_work == {"products": 28, "certifications": 5, "rings": 4}
        chain_work.update(products=0, certifications=0, rings=0)
        for f in relations:
            assert result.reduce(f).is_zero()
        assert chain_work == {"products": 4, "certifications": 0, "rings": 0}

    def test_readme_chain_combines_derivations_once_per_shift(self,
                                                              monkeypatch):
        # only the step's ring needs the shifted variables' derivations: the
        # elements of its tuple, the replay and the push need none.  The
        # README chain's shifting step has two non-target variables, and
        # the second step one
        module = importlib.import_module("skewpoly.normalize")
        calls = []
        original = module.lin_comb
        monkeypatch.setattr(module, "lin_comb",
                            lambda *args, **kwargs: calls.append(args)
                            or original(*args, **kwargs))
        config, texts = CHAINS["readme"]
        ring = load_ring(ROOT / "configs" / config)
        normalize(ring, [parse_expr(t, ring) for t in texts])
        assert len(calls) == 3


class TestOneRingPerStep:
    """A step builds one ring, the one its g lives in, and only when it
    shifts; the replay builds none."""

    @pytest.mark.parametrize("text, rings", [("y1*y3 + y2", 1),
                                             ("y3^2 + y1*y2", 0)],
                             ids=["shifted", "unshifted"])
    def test_monicize_and_step_rings(self, chain_work, text, rings):
        ring = load_ring(ROOT / "configs" / "weyl3.json")
        f = parse_expr(text, ring)
        monicize(f)  # the leading form's evaluation ring is built once
        chain_work["rings"] = 0
        sub, g = monicize(f)
        assert any(not u.is_zero() for u in sub.shifts) == bool(rings)
        assert (g.ring is ring) == (not rings)
        assert chain_work["rings"] == rings
        chain_work["rings"] = 0
        step = normalize_step(f)
        assert chain_work["rings"] == rings
        assert step.relation.ring == g.ring


class TestOldestFirst:
    """Differential test of the division order over zero-shift chains:
    f1 monic in the last variable and f2 in the middle one, each with its
    top power alone in top degree, and f3 = v^2 + 1 + g1*f1 + g2*f2 in the
    first variable v.  Dividing the newest relation first refused some f3.

    f1 and f2 have rational coefficients, so over weyl3.json d/dx meets
    none of theirs and the monic relations reduce as over Q(x) with
    commuting variables; g1 and g2 are any elements of the ring."""

    @staticmethod
    def monic_in(ring, rng, var, degree):
        """A rational times y_var^degree plus terms of lower total degree
        in the variables up to ``var``, all with rational coefficients."""
        def rational(nonzero=False):
            n = rng.randint(1 if nonzero else -4, 4) * rng.choice((1, -1))
            return ring.domain.from_int(n) * ring.domain.from_int(
                rng.randint(1, 4)).inv()
        terms = {tuple(degree * (i == var) for i in range(ring.nvars)):
                 rational(nonzero=True)}
        for _ in range(rng.randint(0, 3)):
            e = [0] * ring.nvars
            for _ in range(rng.randint(0, degree - 1)):
                e[rng.randint(0, var)] += 1
            terms[tuple(e)] = rational()
        return SkewPoly(ring, {e: c for e, c in terms.items()
                               if not c.is_zero()})

    @pytest.mark.parametrize("config", [None, "weyl3.json"])
    def test_random_chains(self, config, rat3):
        ring = load_ring(ROOT / "configs" / config) if config else rat3
        rng = random.Random(71)
        v = ring.variable(0)
        refused = 0
        for _ in range(16):
            f1 = self.monic_in(ring, rng, 2, rng.randint(1, 3))
            f2 = self.monic_in(ring, rng, 1, rng.randint(1, 2))
            f3 = (v * v + ring.one() + random_poly(ring, rng, 2) * f1
                  + random_poly(ring, rng, 2) * f2)
            chain = normalize(ring, [f1, f2])
            assert chain.images is None  # no step shifted
            newest_first = read_in_presentation(chain, f3)
            for rel in reversed(chain.relations):
                newest_first = divmod_by_monic(newest_first, rel)[1]
            reduced = chain.reduce(f3)
            assert reduced == reinterpret(v * v + ring.one(),
                                          chain.presentation)
            if any(any(e[1:]) for e in newest_first.terms):
                refused += 1
            else:
                assert newest_first == reduced
            result = normalize(ring, [f1, f2, f3])
            assert result.generator_bounds == (
                f1.degree_in(2), f2.degree_in(1), 2)
        assert refused  # the chains reach the order bug


class TestSPolynomialOracle:
    """Characterization of closure: for each pair a < b of the chain's
    relations, S = t_b^(m_b)*rho_a - t_a^(m_a)*rho_b over the presentation,
    reduced by every relation oldest first.  The oracle shares only products
    and ``divmod_by_monic`` with the library: rho is built from the
    relation's tails.  A non-zero remainder lies in the left ideal I, so
    the relations are not a left Groebner basis of I and ``reduce`` is not a
    normal form modulo I."""

    @staticmethod
    def power(ring, var, k):
        return SkewPoly(ring, {tuple(k * (i == var) for i in range(ring.nvars)):
                               ring.domain.one()})

    def rho(self, rel):
        out = self.power(rel.ring, rel.var, rel.degree)
        for j, eps in enumerate(rel.tails, start=1):
            out = out + eps * self.power(rel.ring, rel.var, rel.degree - j)
        return out

    def remainders(self, result):
        rels, p = result.relations, result.presentation
        out = []
        for a, b in itertools.combinations(range(len(rels)), 2):
            ra, rb = rels[a], rels[b]
            s = (self.power(p, rb.var, rb.degree) * self.rho(ra)
                 - self.power(p, ra.var, ra.degree) * self.rho(rb))
            for rel in rels:
                s = divmod_by_monic(s, rel)[1]
            out.append(str(s))
        return out

    @pytest.mark.parametrize("texts, remainder", [
        (CHAINS["readme"][1], "0"),
        (["y3^2 + y2 + 2*y1", "y2^2 + 3*y1 + 1"], "0"),
        (["y3^2 + x*y2", "y2^2 + x"], "-2*y3"),
    ], ids=["readme", "closed", "open"])
    def test_weyl3_chains(self, texts, remainder):
        ring = load_ring(ROOT / "configs" / "weyl3.json")
        result = normalize(ring, [parse_expr(t, ring) for t in texts])
        assert self.remainders(result) == [remainder]
        for rel in result.relations:
            assert self.rho(rel) == rel.polynomial()
        # reduce leaves 1 alone; on the open chain -2*y3, hence y2 (from
        # rho_a), x (from rho_b) and 1 lie in I, so I is all of R
        assert result.reduce(ring.one()) == result.presentation.one()
