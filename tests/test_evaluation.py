"""Evaluation homomorphisms and derivation/element mixing."""

import pathlib
import random

import pytest

from skewpoly.config import load_ring
from skewpoly.errors import (
    CertificateFailed,
    IncompatibleMaps,
    NotInF,
    TwistMismatch,
)
from skewpoly.evaluation import (
    certify_tuple,
    evaluate,
    mix_derivations,
    mix_elements,
)
from skewpoly.maps import (
    DEFAULT_SAMPLES,
    CheckRecord,
    DdxDer,
    IdentityAut,
    InnerDer,
    ZeroDer,
    inner_aut,
    lin_comb,
    sample_scalars,
    zero_der,
)
from skewpoly.ore import OreRing, SkewPoly, reinterpret
from skewpoly.scalars import HQ, QX
from conftest import random_poly
from test_certification_oracle import is_automorphic

I, J = HQ.i(), HQ.j()
X = QX.x()
ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestIsAutomorphic:
    def test_variable_is_automorphic(self, weyl, quat_inner):
        for ring in (weyl, quat_inner):
            v = ring.variables[0]
            assert is_automorphic(ring.variable(0), v.aut, v.der, 40)

    def test_shifted_variable(self, weyl):
        # t + c with c central, delta(c) = 0, identity twist
        s = weyl.variable(0) + weyl.constant(QX.from_int(2))
        v = weyl.variables[0]
        # oracle: (t + 2) r = tr + 2r = r t + r' + 2r = r (t + 2) + r'
        r = weyl.constant(X * X)
        assert s * r == r * s + weyl.constant(DdxDer()(X * X))
        assert is_automorphic(s, v.aut, v.der, 40)

    def test_wrong_claim_rejected(self, weyl):
        # claiming t has the zero derivation fails: t*x = x*t + 1 != x*t
        t = weyl.variable(0)
        assert not is_automorphic(t, IdentityAut(), zero_der(), 10)


class TestCertify:
    def test_base_tuple_certifies(self, weyl2):
        tup = certify_tuple(weyl2, [weyl2.variable(0), weyl2.variable(1)],
                            weyl2.twists())
        assert tup.certificate.ok
        laws = {r.law for r in tup.certificate.records}
        assert "commute(s1, s2)" in laws

    @pytest.mark.parametrize("samples", [0, -1])
    def test_non_positive_samples_rejected(self, weyl, samples):
        # x*t does not satisfy the (id, d/dx) law; no samples would hide it.
        # A tuple draws its ring's count, which OreRing refuses below 1
        s = weyl.monomial((1,), X)
        v = weyl.variables[0]
        with pytest.raises(ValueError):
            is_automorphic(s, v.aut, v.der, samples)

    def test_loaded_settings_reach_the_tuple(self):
        ring = load_ring(ROOT / "configs" / "weyl.json", samples=8)
        tup = certify_tuple(ring, [ring.variable(0) + ring.one()],
                            ring.twists())
        assert [r.samples for r in tup.certificate.records] == [8]

    def test_linear_form_flag(self, weyl2):
        t1, t2 = weyl2.variable(0), weyl2.variable(1)
        s1 = t1 + t2.scale_left(QX.from_int(3))
        tup = certify_tuple(
            weyl2, [s1, t2],
            [(IdentityAut(),
              lin_comb([(QX.one(), DdxDer()), (QX.from_int(3), DdxDer())])),
             (IdentityAut(), DdxDer())])
        assert tup.certificate.ok
        auto_records = [r for r in tup.certificate.records
                        if r.law.startswith("automorphic")]
        assert all(r.analytic for r in auto_records)

    def test_linear_form_flag_needs_the_claimed_derivation(self, weyl):
        # t is a linear form, but its derivation is d/dx, not the claimed 0
        ring = OreRing(QX, weyl.variables, samples=8, seed=1)
        tup = certify_tuple(ring, [ring.variable(0)],
                            [(IdentityAut(), ZeroDer())])
        (record,) = tup.certificate.records
        assert record == CheckRecord("automorphic(s1)", 8, 5, None)
        assert not tup.certificate.ok

    def test_linear_form_flag_ignores_term_order(self):
        ad_i, ad_2i = (InnerDer(c, IdentityAut()) for c in (I, I + I))
        ring = OreRing(HQ, [("t1", IdentityAut(), ad_i),
                            ("t2", IdentityAut(), ad_2i)])
        two = HQ.from_int(2)
        s = ring.variable(0).scale_left(two) + ring.variable(1)
        swapped = lin_comb([(HQ.one(), ad_2i), (two, ad_i)])
        tup = certify_tuple(ring, [s], [(IdentityAut(), swapped)])
        assert tup.certificate.ok
        assert tup.certificate.records[0].analytic is True

    def test_linear_form_takes_no_operator_product(self, weyl2, monkeypatch):
        products, applied = [], []
        original = SkewPoly.__mul__
        monkeypatch.setattr(SkewPoly, "__mul__",
                            lambda f, g: products.append(1) or original(f, g))
        ddx = DdxDer.__call__
        monkeypatch.setattr(DdxDer, "__call__",
                            lambda d, r: applied.append(r) or ddx(d, r))
        t1, t2 = weyl2.variable(0), weyl2.variable(1)
        three = QX.from_int(3)
        right = lin_comb([(three, DdxDer()), (QX.one(), DdxDer())])
        tup = certify_tuple(weyl2, [t1.scale_left(three) + t2],
                            [(IdentityAut(), right)])
        assert tup.certificate.records == (
            CheckRecord("automorphic(s1)", DEFAULT_SAMPLES, 0, True),)
        # a proof compares no sample: d/dx meets only the coefficients, for
        # their F-membership
        assert not products and set(applied) <= {three, QX.one()}
        # t + 1 is no linear form: it keeps the product check
        ring = OreRing(QX, weyl2.variables, samples=8)
        certify_tuple(ring, [ring.variable(0) + ring.one()],
                      [ring.twists()[0]])
        assert len(products) == 8

    def test_linear_form_on_a_failed_ring_is_refused(self):
        # ad(i) and ad(j) do not commute, so the ring certificate fails
        ring = OreRing(HQ, [("t1", IdentityAut(), InnerDer(I, IdentityAut())),
                            ("t2", IdentityAut(), InnerDer(J, IdentityAut()))])
        assert not ring.certificate.ok
        with pytest.raises(IncompatibleMaps, match="multiplication refused"):
            certify_tuple(ring, [ring.variable(0)], ring.twists()[:1])

    def test_failed_certificate_blocks_evaluate(self, weyl):
        bad_ring = OreRing(QX, [("t", IdentityAut(), zero_der())])
        tup = certify_tuple(weyl, [weyl.variable(0)], bad_ring.twists())
        assert not tup.certificate.ok
        with pytest.raises(CertificateFailed):
            evaluate(reinterpret(weyl.one(), bad_ring), tup)


class TestEvaluate:
    def test_fixes_scalars(self, weyl):
        tup = certify_tuple(weyl, [weyl.variable(0)], weyl.twists())
        for r in sample_scalars(QX, 3, 10):
            assert evaluate(weyl.constant(r), tup) == weyl.constant(r)

    def test_variable_image(self, weyl2):
        t1, t2 = weyl2.variable(0), weyl2.variable(1)
        s1 = t1 + t2
        tup = certify_tuple(
            weyl2, [s1, t2],
            [(IdentityAut(),
              lin_comb([(QX.one(), DdxDer()), (QX.one(), DdxDer())])),
             (IdentityAut(), DdxDer())])
        f = reinterpret(weyl2.variable(0), OreRing(
            QX, [("t1", IdentityAut(),
                  lin_comb([(QX.one(), DdxDer()), (QX.one(), DdxDer())])),
                 ("t2", IdentityAut(), DdxDer())]))
        assert evaluate(f, tup) == s1

    def test_square_at_shifted_variable(self, weyl):
        # x1^2 at (t+1) is t^2 + 2t + 1 (oracle: direct product)
        t = weyl.variable(0)
        s = t + weyl.one()
        tup = certify_tuple(weyl, [s], weyl.twists())
        oracle = s * s
        assert evaluate(t * t, tup) == oracle
        assert oracle == (t * t + t.scale_left(QX.from_int(2)) + weyl.one())

    def test_homomorphism_on_random_pairs(self, weyl2):
        tup = certify_tuple(weyl2, [weyl2.variable(0), weyl2.variable(1)],
                            weyl2.twists())
        rng = random.Random(5)
        for _ in range(10):
            f = random_poly(weyl2, rng, 2)
            g = random_poly(weyl2, rng, 2)
            assert evaluate(f + g, tup) == evaluate(f, tup) + evaluate(g, tup)
            assert evaluate(f * g, tup) == evaluate(f, tup) * evaluate(g, tup)

    def test_twist_mismatch(self, weyl):
        other = OreRing(QX, [("t", IdentityAut(), zero_der())])
        tup = certify_tuple(other, [other.variable(0)], other.twists())
        with pytest.raises(TwistMismatch):
            evaluate(weyl.one(), tup)


class TestMixDerivations:
    def test_zero_coefficients_identity(self):
        ders = [DdxDer(), zero_der()]
        mixed = mix_derivations(QX, ders, [QX.zero()])
        assert mixed == ders

    def test_spec_example_zero_second_derivation(self):
        # delta_1 = d/dx, delta_2 = 0, a_1 = 3: d_1 = delta_1
        mixed = mix_derivations(QX, [DdxDer(), zero_der()], [QX.from_int(3)])
        assert mixed[0] == DdxDer()
        assert mixed[1] == zero_der()

    def test_nontrivial_mix(self):
        d1, d2 = DdxDer(), DdxDer()
        a = QX.from_int(2)
        mixed = mix_derivations(QX, [d1, d2], [a])
        # d_1(r) = r' + 2 r' = 3 r'
        r = X * X
        assert mixed[0](r) == QX.from_coeffs((0, 6))

    def test_quaternion_inner_mix(self, quat_inner2):
        ders = [v.der for v in quat_inner2.variables]
        mixed = mix_derivations(HQ, ders, [HQ.from_int(2)])
        # second derivation is zero, so d_1 = delta_1
        assert mixed[0] == ders[0]

    def test_not_in_f(self):
        with pytest.raises(NotInF):
            mix_derivations(QX, [DdxDer(), DdxDer()], [X])

    def test_incommuting_hypothesis_caught(self):
        # derivations that do not commute poison the mixed family
        from skewpoly.maps import QDiffDer, QShiftAut

        shift = QShiftAut(2)
        with pytest.raises((CertificateFailed, ValueError)):
            mix_derivations(QX, [DdxDer(), QDiffDer(shift)], [QX.one()])

    def test_failure_names_the_law(self):
        # the q-shift does not commute with the q-difference d2
        from skewpoly.maps import QDiffDer, QShiftAut

        with pytest.raises(CertificateFailed, match="fail commute"):
            mix_derivations(QX, [QDiffDer(QShiftAut(2))] * 2, [QX.one()])


class TestMixElements:
    def make_base(self, ring):
        return certify_tuple(ring, [ring.variable(i)
                                    for i in range(ring.nvars)],
                             ring.twists())

    def test_zero_coeffs_identity(self, weyl2):
        base = self.make_base(weyl2)
        out = mix_elements(base, [QX.zero()])
        assert out.elements == base.elements
        assert out.twists == base.twists

    def test_shape_and_laws(self, weyl2):
        base = self.make_base(weyl2)
        a = QX.from_int(3)
        out = mix_elements(base, [a])
        t1, t2 = base.elements
        assert out.elements[0] == t1 + t2.scale_left(a)
        assert out.elements[1] == t2
        assert out.certificate.ok
        # mixed law u_i r = omega(r) u_i + d_i(r), checked exactly
        aut, der = out.twists[0]
        for r in sample_scalars(QX, 8, 20):
            lhs = out.elements[0] * weyl2.constant(r)
            rhs = (out.elements[0].scale_left(aut(r))
                   + weyl2.constant(der(r)))
            assert lhs == rhs

    def test_commutation_exact(self, weyl2):
        base = self.make_base(weyl2)
        out = mix_elements(base, [QX.from_int(2)])
        u1, u2 = out.elements
        assert u1 * u2 == u2 * u1

    def test_one_variable_mixes_nothing(self, qdiff_ring):
        # nothing is mixed, so the twist need not commute with d/dq
        base = self.make_base(qdiff_ring)
        out = mix_elements(base, [])
        assert out.elements == base.elements
        assert out.certificate.ok

    def test_mix_then_unmix(self, weyl2, quat_inner2):
        for ring, a in ((weyl2, QX.from_int(5)), (quat_inner2, HQ.from_int(2))):
            base = self.make_base(ring)
            there = mix_elements(base, [a])
            back = mix_elements(there, [-a])
            assert back.elements == base.elements
            assert back.twists == base.twists
