"""Map application, law checking and the central fixed stream."""

import itertools
import pathlib
from fractions import Fraction

import pytest

from skewpoly import maps
from skewpoly.config import load_ring
from skewpoly.errors import ExhaustedCandidates, NotInF, UnsupportedRing
from skewpoly.maps import (
    DdxDer,
    IdentityAut,
    InnerAut,
    InnerDer,
    QDiffDer,
    QShiftAut,
    ZeroDer,
    apply_power,
    central_fixed_stream,
    commutation_record,
    derivation_record,
    in_fixed_subfield,
    inner_aut,
    lin_comb,
    q_shift,
    sample_scalars,
    zero_der,
)
from skewpoly.ore import OreRing
from skewpoly.scalars import HQ, Q, QX

I, J, K = HQ.i(), HQ.j(), HQ.k()
X = QX.x()
CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


class SquareMap:
    """Not additive; used to exercise the sampled rejection path."""

    role = "derivation"
    twist = IdentityAut()

    def __call__(self, r):
        return r * r

    def describe(self):
        return "square"


class UnhashableSquareMap(SquareMap):
    """Equal to every other instance but unhashable; law checks must not
    need to hash their maps."""

    def __eq__(self, other):
        return isinstance(other, UnhashableSquareMap)

    __hash__ = None


class TestApply:
    def test_inner_aut_oracle(self):
        # oracle: i j i^-1 computed directly
        assert I * J * I.inv() == -J
        assert inner_aut(I)(J) == -J

    def test_ddx(self):
        assert DdxDer()(X * X) == QX.from_coeffs((0, 2))

    def test_qdiff_oracle(self):
        # oracle: (f(2x) - f(x)) / (2x - x) at f = x^2 is 3x
        shift = q_shift(2)
        f = X * X
        oracle = (shift(f) - f) * X.inv()
        assert oracle == QX.from_coeffs((0, 3))
        assert QDiffDer(shift)(f) == oracle

    def test_inner_aut_inverts_its_witness_once(self, monkeypatch):
        # c^-1 is computed at construction, and is not part of the map's
        # identity: equality, hash, repr and descriptors see c alone
        c = HQ.make(1, 2, 0, 1)
        aut = InnerAut(c)
        assert aut.c_inv == c.inv()
        twin = InnerAut(HQ.make(2, 4, 0, 2) * HQ.make(Fraction(1, 2)))
        assert aut == twin and hash(aut) == hash(twin)
        assert repr(aut) == "InnerAut(c=Quaternion(1 + 2*i + k))"
        assert aut.describe() == "inner_aut(1 + 2*i + k)"
        assert aut.to_data() == {"kind": "inner_aut", "c": "1 + 2*i + k"}
        inversions = []
        original = type(c)._inv
        monkeypatch.setattr(type(c), "_inv",
                            lambda q: inversions.append(q) or original(q))
        for r in (I, J, K, HQ.make(Fraction(1, 3), 2, -1, 5)):
            assert aut(r) == c * r * original(c)
        assert inversions == []

    def test_qdiff_inverts_its_step_once(self, monkeypatch):
        # 1/((q - 1) x) is computed at construction, and is not part of the
        # map's identity: equality, hash, repr and descriptors see q alone
        shift = QShiftAut(Fraction(3, 2))
        der = QDiffDer(shift)
        step = QX.from_coeffs((0, Fraction(1, 2)))
        assert der.step_inv == step.inv()
        twin = QDiffDer(QShiftAut(Fraction(6, 4)))
        assert der == twin and hash(der) == hash(twin)
        assert repr(der) == "QDiffDer(shift=QShiftAut(q=Fraction(3, 2)))"
        assert der.describe() == "q_diff(3/2)"
        assert der.to_data() == {"kind": "q_diff"}
        inversions = []
        original = type(step)._inv
        monkeypatch.setattr(type(step), "_inv",
                            lambda f: inversions.append(f) or original(f))
        for r in (X, X * X, QX.from_coeffs((1, 1), (-2, 0, 1)), QX.one()):
            assert der(r) == (shift(r) - r) * original(step)
        assert inversions == []

    def test_inner_der(self):
        d = InnerDer(J, inner_aut(I))
        r = K
        assert d(r) == J * r - (I * r * I.inv()) * J

    def test_lin_comb(self):
        d = lin_comb([(QX.from_int(2), DdxDer())])
        assert d(X * X) == QX.from_coeffs((0, 4))

    def test_unsupported_ring(self):
        with pytest.raises(UnsupportedRing):
            DdxDer()(HQ.one())
        with pytest.raises(UnsupportedRing):
            q_shift(2)(Q.one())
        with pytest.raises(UnsupportedRing):
            inner_aut(I)(QX.one())

    def test_zero_der_total(self):
        assert zero_der()(HQ.one()).is_zero()
        assert zero_der()(X).is_zero()


class TestFactories:
    def test_central_witness_collapses(self):
        assert inner_aut(HQ.from_int(5)) == IdentityAut()
        assert inner_aut(Q.from_int(3)) == IdentityAut()
        assert q_shift(1) == IdentityAut()

    def test_direct_central_rejected(self):
        with pytest.raises(ValueError):
            InnerAut(HQ.from_int(2))
        with pytest.raises(ValueError):
            QShiftAut(1)

    def test_lin_comb_collapses(self):
        d = DdxDer()
        assert lin_comb([(QX.one(), d), (QX.from_int(3), zero_der())]) == d
        assert lin_comb([(QX.zero(), d)], twist=IdentityAut()) == zero_der()

    def test_lin_comb_accepts_central_fixed_coeff(self):
        # x is central (field) and identity-fixed: x * d/dx is the Euler
        # operator, a genuine derivation; membership in F is only required
        # at mixing time.
        euler = lin_comb([(X, DdxDer())])
        assert derivation_record(QX, IdentityAut(), euler, 40).ok

    def test_lin_comb_rejects_non_fixed_coeff(self):
        # x is moved by the q-shift, so it cannot scale a q-difference
        shift = QShiftAut(2)
        with pytest.raises(NotInF):
            lin_comb([(X, QDiffDer(shift))], twist=shift)


class TestAutomorphismLaws:
    @pytest.mark.parametrize("domain,aut", [
        (HQ, inner_aut(HQ.make(1, 2, 0, 1))),
        (QX, q_shift(3)),
        (Q, IdentityAut()),
    ])
    def test_homomorphism(self, domain, aut):
        one = domain.one()
        assert aut(one) == one
        for a, b in zip(sample_scalars(domain, 5, 20),
                        sample_scalars(domain, 6, 20)):
            assert aut(a * b) == aut(a) * aut(b)
            assert aut(a + b) == aut(a) + aut(b)


class TestDerivationLaws:
    @pytest.mark.parametrize("domain,aut,der", [
        (QX, IdentityAut(), DdxDer()),
        (QX, q_shift(2), QDiffDer(QShiftAut(2))),
        (HQ, inner_aut(I), InnerDer(HQ.make(1, 2), inner_aut(I))),
        (HQ, inner_aut(I), zero_der(inner_aut(I))),
    ])
    def test_family_passes(self, domain, aut, der):
        assert der(domain.one()).is_zero()
        assert derivation_record(domain, aut, der, 50).ok

    def test_trivial_cases(self):
        assert derivation_record(QX, IdentityAut(), DdxDer(), 50).ok
        assert not derivation_record(QX, IdentityAut(), SquareMap(), 50).ok

    def test_inner_der_oracle(self):
        # expand delta(ab) both ways on random quaternions
        aut = inner_aut(I)
        der = InnerDer(J, aut)
        for a, b in zip(sample_scalars(HQ, 11, 25),
                        sample_scalars(HQ, 12, 25)):
            assert der(a * b) == aut(a) * der(b) + der(a) * b

    def test_mixed_family_commutes(self):
        # d_i = delta_i + a_i * delta_n mutually commute when the deltas do
        d1, d2 = DdxDer(), zero_der()
        a = QX.from_int(2)
        m1 = lin_comb([(QX.one(), d1), (a, d2)])
        for m2 in (d2, m1, IdentityAut()):
            assert commutation_record(QX, m1, m2, 50).ok


class TestCommutation:
    def test_self_pair(self):
        assert commutation_record(QX, DdxDer(), DdxDer(), 30).ok
        assert commutation_record(QX, IdentityAut(), DdxDer(), 30).ok

    def test_inner_i_j_commute(self):
        # conjugation by i then j is conjugation by ji = -k, which equals
        # conjugation by ij = k since -1 is central: the maps coincide.
        a1, a2 = inner_aut(I), inner_aut(J)
        for r in (I, J, K, HQ.make(1, 2, 3, 4)):
            assert a1(a2(r)) == a2(a1(r))
        assert commutation_record(HQ, a1, a2, 40).ok

    def test_inner_pair_that_fails(self):
        # (i(1+j)) ((1+j)i)^-1 = -j is not central, so the pair cannot commute
        c1, c2 = I, HQ.make(1, 0, 1)
        assert not ((c1 * c2) * (c2 * c1).inv()).is_central()
        a1, a2 = inner_aut(c1), inner_aut(c2)
        # witness r = i: the compositions give k and -k
        assert a1(a2(I)) != a2(a1(I))
        assert not commutation_record(HQ, a1, a2, 40).ok

    def test_qshift_vs_its_qdiff_fails(self):
        # the shift scales the difference quotient's step, so they differ
        shift = q_shift(2)
        der = QDiffDer(shift)
        f = X * X
        assert shift(der(f)) != der(shift(f))
        assert not commutation_record(QX, shift, der, 30).ok

    def test_ddx_vs_qshift_fails(self):
        assert not commutation_record(QX, q_shift(2), DdxDer(), 30).ok


class TestCentralFixedStream:
    def test_weyl_prefix(self, weyl):
        got = list(itertools.islice(
            central_fixed_stream(QX, weyl.tower_maps()), 5))
        assert got == [QX.from_int(n) for n in (0, 1, -1, 2, -2)]

    def test_quaternion_prefix(self, quat_inner):
        got = list(itertools.islice(
            central_fixed_stream(HQ, quat_inner.tower_maps()), 3))
        assert got == [HQ.from_int(n) for n in (0, 1, -1)]

    def test_x_not_member(self):
        assert not in_fixed_subfield(QX, [IdentityAut(), DdxDer()], X)

    def test_membership_is_exact(self):
        maps = [IdentityAut(), DdxDer()]
        for n in (0, 1, -1, 7):
            assert in_fixed_subfield(QX, maps, QX.from_int(n))

    def test_exhaustion_is_defensive(self):
        # a map that kills nothing but zero starves the candidate family
        stream = central_fixed_stream(QX, [SquareMap()])
        assert next(stream) == QX.zero()
        with pytest.raises(ExhaustedCandidates):
            next(stream)

    def test_noncentral_quaternion_rejected(self):
        assert not in_fixed_subfield(HQ, [], I)


def test_apply_power():
    aut = inner_aut(I)
    assert apply_power(aut, J, 2) == aut(aut(J))
    assert apply_power(DdxDer(), X * X * X, 2) == QX.from_coeffs((0, 6))


def test_descriptor_round_trip():
    from skewpoly.config import aut_from_data, der_from_data

    aut = inner_aut(HQ.make(1, 2))
    assert aut_from_data(aut.to_data(), HQ) == aut
    shift = q_shift(2)
    assert aut_from_data(shift.to_data(), QX) == shift
    der = lin_comb([(QX.from_int(2), DdxDer()), (QX.from_int(3), DdxDer())])
    assert der_from_data(der.to_data(), QX, IdentityAut()) == der
    qd = QDiffDer(QShiftAut(2))
    assert der_from_data(qd.to_data(), QX, shift) == qd
    inner = InnerDer(HQ.make(0, 1, 1), inner_aut(I))
    assert der_from_data(inner.to_data(), HQ, inner_aut(I)) == inner


class TestLawRecordMemo:
    def test_warm_certificates_match_uncached(self):
        # every configuration loaded twice gives equal certificates
        for path in sorted(CONFIG_DIR.glob("*.json")):
            first, second = load_ring(path), load_ring(path)
            assert first.certificate == second.certificate, path.name

    def test_unhashable_map_is_sampled_every_time(self):
        with pytest.raises(TypeError):
            hash(UnhashableSquareMap())
        for _ in range(2):
            record = derivation_record(QX, IdentityAut(),
                                       UnhashableSquareMap(), 20)
            assert record.samples == 20 and record.failures > 0
            assert not record.ok
            ring = OreRing(QX, [("t", IdentityAut(), UnhashableSquareMap())],
                           samples=20)
            assert not ring.certificate.ok

    def test_repeated_rings_have_equal_certificates(self):
        shift = q_shift(2)
        variables = [("t1", IdentityAut(), DdxDer()),
                     ("t2", shift, QDiffDer(shift))]
        first = OreRing(QX, variables, samples=24)
        second = OreRing(QX, variables, samples=24)
        assert not first.certificate.ok
        assert first.certificate == second.certificate

    def test_sampled_leibniz_applies_the_derivation_four_times(
            self, monkeypatch):
        # der(a*b), der(a+b), der(a) and der(b) per sample, each once
        calls = []
        original = type(X).derivative
        monkeypatch.setattr(type(X), "derivative",
                            lambda f: calls.append(f) or original(f))
        failures = maps._leibniz_failures(QX, IdentityAut(), DdxDer(), 24, 7)
        assert len(calls) == 4 * 24
        assert failures == 0

    def test_proved_law_takes_no_samples(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a proved law was sampled")

        monkeypatch.setattr(maps, "_leibniz_failures", refuse)
        monkeypatch.setattr(maps, "_commutation_failures", refuse)
        record = derivation_record(QX, IdentityAut(), DdxDer(), 24, 7)
        assert record == maps.CheckRecord("twisted-leibniz", 0, 0, True)
        record = commutation_record(QX, q_shift(2), q_shift(3), 24, 7)
        assert record.samples == 0 and record.ok

    def test_proved_law_still_refuses_a_foreign_domain(self):
        with pytest.raises(UnsupportedRing):
            derivation_record(HQ, IdentityAut(), DdxDer(), 8, 1)
        with pytest.raises(UnsupportedRing):
            commutation_record(Q, IdentityAut(), q_shift(2), 8, 1)

    @pytest.mark.parametrize("analytic, ok", [
        (None, False), (False, False), (True, True)])
    def test_record_without_samples_passes_only_on_a_proof(self, analytic,
                                                           ok):
        record = maps.CheckRecord("twisted-leibniz", 0, 0, analytic)
        assert record.ok is ok
        assert maps.Certificate((record,)).ok is ok

    @pytest.mark.parametrize("bad", [
        maps.CheckRecord("twisted-leibniz", 16, 1, None),
        maps.CheckRecord("twisted-leibniz", 16, 1, True),
        maps.CheckRecord("commutation", 16, 0, False),
    ], ids=["sampled-failure", "failure-beside-analytic-true", "refuted"])
    def test_certificate_verdict_is_fixed_at_construction(self, bad):
        good = maps.CheckRecord("commutation", 16, 0, True)
        sampled = maps.CheckRecord("twisted-leibniz", 16, 0, None)
        assert maps.Certificate((good, sampled)).ok
        for records in ((bad,), (good, bad), (bad, good, sampled)):
            cert = maps.Certificate(records)
            assert not cert.ok
            with pytest.raises(AttributeError):
                cert.ok = True
            with pytest.raises(AttributeError):
                cert.records = (good,)
            assert not cert.ok
            # the verdict is no field of equality, repr or the JSON data
            assert cert == maps.Certificate(records)
            assert repr(cert) == f"Certificate(records={records!r})"
            assert cert.to_data() == [r.to_data() for r in records]

    @pytest.mark.parametrize("samples", [0, -2])
    def test_non_positive_samples_rejected(self, samples):
        with pytest.raises(ValueError):
            derivation_record(QX, IdentityAut(), DdxDer(), samples)
        with pytest.raises(ValueError):
            commutation_record(QX, IdentityAut(), DdxDer(), samples)
