"""Monicization, the normalization chain and monic reduction."""

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
    reduce_by_monic,
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
        # oracle: substitute y1 -> y1 + y2 and expand
        assert g == f + weyl2.monomial((0, 2), QX.one())

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
        # oracle: (1/2) * 2 (y1 + y2)^2 with trivial coefficient twists
        s = weyl2.variable(0) + weyl2.variable(1)
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
        assert step.tower[0] == (IdentityAut(), zero_der(IdentityAut()))
        assert step.tower[1] == (IdentityAut(), zero_der(IdentityAut()))
        assert step.tower[2] == (IdentityAut(), DdxDer())


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
        assert reduce_by_monic(e, rel) == e

    def test_single_rewrite(self, rat1):
        # t^2 - 3t + 2 = 0 rewrites t^2 to 3t - 2
        t = rat1.variable(0)
        rel_poly = t * t - t.scale_left(Q.from_int(3)) + rat1.constant(Q.from_int(2))
        rel = self.make_relation(rat1, rel_poly, 0)
        out = reduce_by_monic(t * t, rel)
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
            reduce_by_monic(weyl.one(), rel)


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
            assert tuple(rebuilt) == step.tower

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

    def test_unchanged_ring_is_reused(self):
        ring = load_ring(ROOT / "configs" / "qdiff.json")
        result = normalize(ring, [parse_expr("t^2 + x*t + 1", ring)])
        assert result.presentation is ring
        assert result.steps[0].relation.ring is ring

    def test_unshifted_steps_substitute_nothing(self, monkeypatch):
        # a one-variable step shifts nothing, so the second relation, exprs
        # and the monic tails are read in the new presentation, not
        # evaluated through a tuple (4 + 2 of the 17 products before)
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
        assert count[0] == 11

    def test_derived_rings_keep_the_settings(self):
        ring = load_ring(ROOT / "configs" / "weyl3.json", samples=8, seed=3)
        text = (ROOT / "configs" / "example_relations.txt").read_text()
        rels = [parse_expr(line, ring) for line in text.splitlines()
                if line.strip() and not line.startswith("#")]
        result = normalize(ring, rels)
        rings = [result.presentation,
                 *(step.relation.ring for step in result.steps)]
        assert {(r.samples, r.seed) for r in rings} == {(8, 3)}
