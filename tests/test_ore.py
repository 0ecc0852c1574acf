"""Normal-form arithmetic against the closed-form commutation oracles."""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from skewpoly import ore
from skewpoly.config import load_ring
from skewpoly.errors import IncompatibleMaps, RingMismatch, ZeroPolynomial
from skewpoly.evaluation import mix_derivations
from skewpoly.maps import (
    MAX_SAMPLES,
    DdxDer,
    IdentityAut,
    InnerAut,
    InnerDer,
    QDiffDer,
    apply_power,
    inner_aut,
    lin_comb,
    q_shift,
    zero_der,
)
from skewpoly.normalize import MonicRelation, divmod_by_monic
from skewpoly.ore import (
    OreRing,
    SkewPoly,
    reinterpret,
)
from skewpoly.parser import parse_expr
from skewpoly.scalars import HQ, Q, QX

from conftest import random_poly
from test_maps import UnhashableSquareMap

I, J, K = HQ.i(), HQ.j(), HQ.k()
X = QX.x()
HALF = QX.from_fraction(Fraction(1, 2))
ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
BENCH_RINGS = sorted((ROOT / "perfbench" / "rings").glob("*.json"))


def single_step_oracle(ring, i, k, r):
    """t_i^k * r by k literal products in the ring (generic mul path)."""
    t = ring.variable(i)
    out = ring.constant(r)
    for _ in range(k):
        out = t * out
    return out


class TestVarPowerTimesScalar:
    def test_weyl_defining_relation(self, weyl):
        out = weyl.var_power_times_scalar(0, 1, X)
        assert out == weyl.monomial((1,), X) + weyl.constant(QX.one())

    def test_weyl_square(self, weyl):
        # oracle: apply the k=1 rule twice by hand
        out = weyl.var_power_times_scalar(0, 2, X)
        expected = weyl.monomial((2,), X) + weyl.monomial((1,), QX.from_int(2))
        assert out == expected

    def test_quaternion_inner_square(self, quat_inner):
        # omega^2(j) = i^2 j i^-2 = j
        out = quat_inner.var_power_times_scalar(0, 2, J)
        assert out == quat_inner.monomial((2,), J)

    @pytest.mark.parametrize("kmax", [6])
    def test_closed_form_coefficients(self, weyl, quat_inner, qdiff_ring, kmax):
        rng = random.Random(42)
        for ring in (weyl, quat_inner, qdiff_ring):
            aut, der = ring.variables[0].aut, ring.variables[0].der
            for k in range(kmax + 1):
                r = ring.domain.random(rng)
                out = ring.var_power_times_scalar(0, k, r)
                # leading coefficient is omega^k(r), constant is delta^k(r)
                assert out.coeff((k,)) == apply_power(aut, r, k)
                assert out.coeff((0,)) == (apply_power(der, r, k) if k
                                           else r)
                assert out == single_step_oracle(ring, 0, k, r)
                assert all(e[0] <= k for e in out.terms)


class TestMonomialTimesScalar:
    def test_empty_exponent(self, weyl2):
        r = QX.from_coeffs((1, 2))
        assert weyl2.monomial_times_scalar((0, 0), r) == weyl2.constant(r)

    def test_weyl_two_vars(self, weyl2):
        # t1 t2 x = x t1 t2 + t1 + t2
        out = weyl2.monomial_times_scalar((1, 1), X)
        expected = (weyl2.monomial((1, 1), X)
                    + weyl2.variable(0) + weyl2.variable(1))
        assert out == expected

    def test_composed_automorphism_top_coefficient(self):
        # coefficient at I is the composed automorphism image (exact oracle)
        ring = OreRing(HQ, [("t1", inner_aut(I), zero_der(inner_aut(I))),
                            ("t2", inner_aut(J), zero_der(inner_aut(J)))])
        out = ring.monomial_times_scalar((1, 1), K)
        c = I * (J * K * J.inv()) * I.inv()
        assert out.coeff((1, 1)) == c

    def test_support_bound(self, weyl2, quat_inner2):
        rng = random.Random(9)
        for ring in (weyl2, quat_inner2):
            for _ in range(25):
                exps = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
                r = ring.domain.random(rng)
                out = ring.monomial_times_scalar(exps, r)
                for key, _ in out.terms.items():
                    assert all(k <= i for k, i in zip(key, exps))
                    assert key == exps or sum(key) < sum(exps)

    def test_iterated_oracle(self, weyl2):
        rng = random.Random(10)
        for _ in range(20):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            r = QX.random(rng)
            direct = weyl2.monomial_times_scalar(exps, r)
            oracle = weyl2.constant(r)
            for i in (1, 0):
                t = weyl2.variable(i)
                for _ in range(exps[i]):
                    oracle = t * oracle
            assert direct == oracle


class TestScalarVarPower:
    def test_m_one(self, weyl):
        r = QX.from_coeffs((1, 1))
        assert weyl.scalar_var_power(r, 0, 1) == weyl.monomial((1,), r)

    def test_quaternion_example(self, quat_inner):
        # (j t)^2 = j (i j i^-1) t^2 = j(-j) t^2 = t^2
        out = quat_inner.scalar_var_power(J, 0, 2)
        assert out == quat_inner.monomial((2,), HQ.one())

    def test_weyl_example(self, weyl):
        # (x t)^2 = x^2 t^2 + x t
        out = weyl.scalar_var_power(X, 0, 2)
        assert out == (weyl.monomial((2,), X * X) + weyl.monomial((1,), X))

    def test_closed_form(self, weyl, quat_inner, qdiff_ring):
        rng = random.Random(17)
        for ring in (weyl, quat_inner, qdiff_ring):
            aut = ring.variables[0].aut
            for m in range(1, 7):
                r = ring.domain.random(rng)
                out = ring.scalar_var_power(r, 0, m)
                lead = r
                for p in range(1, m):
                    lead = lead * apply_power(aut, r, p)
                assert out.coeff((m,)) == lead
                assert out.coeff((0,)).is_zero()


class TestMul:
    def test_weyl_identities(self, weyl):
        t, xc = weyl.variable(0), weyl.constant(X)
        assert t * xc - xc * t == weyl.one()
        assert (t * t) * xc == xc * (t * t) + weyl.monomial((1,), QX.from_int(2))

    def test_difference_of_squares(self, weyl):
        t, one = weyl.variable(0), weyl.one()
        assert (t + one) * (t - one) == t * t - one

    def test_repeated_steps_match(self, weyl):
        t, xc = weyl.variable(0), weyl.constant(X)
        assert (t * t) * xc == weyl.var_power_times_scalar(0, 2, X)

    @pytest.mark.parametrize("fixture", ["rat3", "weyl2", "quat_inner2",
                                         "qdiff_ring"])
    def test_associative_distributive(self, fixture, request):
        ring = request.getfixturevalue(fixture)
        rng = random.Random(23)
        for _ in range(12):
            f = random_poly(ring, rng, 3)
            g = random_poly(ring, rng, 3)
            h = random_poly(ring, rng, 3)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h

    def test_variables_commute(self, weyl2):
        t1, t2 = weyl2.variable(0), weyl2.variable(1)
        assert (t2 * t1).terms == {(1, 1): QX.one()}

    def test_degree_subadditive(self, weyl2):
        rng = random.Random(29)
        for _ in range(20):
            f = random_poly(weyl2, rng, 3)
            g = random_poly(weyl2, rng, 3)
            assert (f * g).total_degree() <= f.total_degree() + g.total_degree()

    def test_ring_mismatch(self, weyl, weyl2):
        with pytest.raises(RingMismatch):
            weyl.one() * weyl2.one()
        with pytest.raises(RingMismatch):
            weyl.one() + weyl2.one()

    def test_incompatible_maps_refused(self):
        # d/dx does not commute with the q-shift, so the commuting-variable
        # ring is not well-defined and multiplication must refuse.
        shift = q_shift(2)
        ring = OreRing(QX, [("t1", IdentityAut(), DdxDer()),
                            ("t2", shift, QDiffDer(shift))])
        assert not ring.certificate.ok
        with pytest.raises(IncompatibleMaps):
            ring.variable(0) * ring.variable(1)

    def test_failed_certificate_refused(self):
        # the q-shift of a does not commute with d/dx of b: unrefused,
        # (b*a)*x = 2*x*a*b + a but b*(a*x) = 2*x*a*b + 2*a
        ring = OreRing(QX, [("a", q_shift(2), zero_der(q_shift(2))),
                            ("b", IdentityAut(), DdxDer())])
        assert not ring.certificate.ok
        with pytest.raises(IncompatibleMaps):
            ring.variable(1) * ring.variable(0)

    def test_failed_certificate_refused_by_kernel(self):
        # a non-additive "derivation" breaks the Leibniz form, so the
        # kernel entry points refuse it as products do
        ring = OreRing(QX, [("t", IdentityAut(), UnhashableSquareMap())])
        assert not ring.certificate.ok
        with pytest.raises(IncompatibleMaps):
            ring.monomial_times_scalar((3,), X)
        with pytest.raises(IncompatibleMaps):
            ring.var_power_times_scalar(0, 3, X)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_non_positive_samples_rejected(self, samples):
        with pytest.raises(ValueError):
            OreRing(QX, [("t", IdentityAut(), DdxDer())], samples=samples)
        with pytest.raises(ValueError):
            OreRing(QX, [], samples=samples)

    def test_samples_above_the_bound_rejected(self):
        assert OreRing(QX, [], samples=MAX_SAMPLES).samples == MAX_SAMPLES
        with pytest.raises(ValueError):
            OreRing(QX, [], samples=MAX_SAMPLES + 1)


class TestModuleOps:
    def test_add_zero(self, weyl):
        f = weyl.variable(0) + weyl.constant(X)
        assert f + weyl.zero() == f

    def test_scale_by_zero(self, weyl):
        f = weyl.variable(0)
        assert f.scale_left(QX.zero()) == weyl.zero()

    def test_left_scale_quaternion(self, quat1):
        f = quat1.monomial((1,), J)
        assert f.scale_left(I) == quat1.monomial((1,), K)
        assert I * f == quat1.monomial((1,), K)

    def test_poly_times_scalar_commutes_right_coefficient(self, weyl):
        # t * x as "right coefficient" normalizes through the twist
        t = weyl.variable(0)
        assert t * X == weyl.monomial((1,), X) + weyl.one()


class TestDerivedRings:
    def test_with_variables_keeps_the_settings(self, weyl2):
        ring = OreRing(QX, weyl2.variables, samples=8, seed=3)
        prefix = ring.with_variables(ring.variables[:1])
        assert prefix.variables == weyl2.variables[:1]
        assert (prefix.samples, prefix.seed) == (8, 3)
        assert ring.with_variables(list(ring.variables)) is ring

    def test_reinterpret_pads_and_cuts_a_zero_tail(self, weyl2):
        prefix = weyl2.with_variables(weyl2.variables[:1])
        f = prefix.monomial((2,), X) + prefix.one()
        padded = reinterpret(f, weyl2)
        assert padded.terms == {(2, 0): X, (0, 0): QX.one()}
        assert reinterpret(padded, prefix) == f

    def test_reinterpret_refuses_a_cut_variable(self, weyl2):
        prefix = weyl2.with_variables(weyl2.variables[:1])
        with pytest.raises(RingMismatch):
            reinterpret(weyl2.variable(1) + weyl2.one(), prefix)


class TestDegreesAndForms:
    def test_zero_degree_sentinel(self, weyl):
        assert weyl.zero().total_degree() == -1
        assert weyl.zero().degree_in(0) == -1
        assert weyl.one().total_degree() == 0
        assert type(weyl.zero().total_degree()) is int
        assert type(weyl.variable(0).degree_in(0)) is int
        assert weyl.zero().constant_value() == QX.zero()

    def test_leading_form_product(self, weyl2):
        f = weyl2.monomial((1, 1), QX.one())
        h = f.leading_form(1)
        assert h.ring.names == ("t1",)
        assert h.terms == {(1,): QX.one()}

    def test_leading_form_single_top_term(self, weyl2):
        f = weyl2.monomial((0, 3), QX.one())
        h = f.leading_form(1)
        assert h.terms == {(0,): QX.one()}

    def test_leading_form_mixed(self, weyl2):
        f = (weyl2.monomial((2, 0), QX.one())
             + weyl2.monomial((1, 1), QX.one())
             + weyl2.constant(QX.from_int(3)))
        h = f.leading_form(1)
        assert h.terms == {(2,): QX.one(), (1,): QX.one()}

    def test_leading_forms_share_one_ring(self, weyl2):
        f = weyl2.monomial((1, 1), QX.one())
        g = weyl2.monomial((2, 0), QX.from_int(3))
        assert f.leading_form(1).ring is g.leading_form(1).ring
        assert f.leading_form(0).ring is not f.leading_form(1).ring

    def test_leading_form_zero_rejected(self, weyl2):
        with pytest.raises(ZeroPolynomial):
            weyl2.zero().leading_form(1)


class TestRepresentation:
    def test_arity_validation(self, weyl2):
        with pytest.raises(ValueError):
            SkewPoly(weyl2, {(1,): QX.one()})

    def test_no_stored_zeros(self, weyl):
        f = weyl.constant(QX.zero())
        assert f.terms == {}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            OreRing(Q, [("t", IdentityAut(), zero_der()),
                        ("t", IdentityAut(), zero_der())])

    def test_graded_lex_order(self, weyl2):
        f = (weyl2.monomial((0, 2), QX.one())
             + weyl2.monomial((1, 0), QX.one())
             + weyl2.monomial((2, 0), QX.one())
             + weyl2.one())
        exps = [e for e, _ in f.ordered_terms()]
        assert exps == [(2, 0), (0, 2), (1, 0), (0, 0)]

    def test_str_examples(self, weyl):
        t, xc = weyl.variable(0), weyl.constant(X)
        assert str(t * xc) == "x*t + 1"
        assert str((t + weyl.one()) * (t - weyl.one())) == "t^2 - 1"
        assert str(weyl.zero()) == "0"


# ---------------------------------------------------------------------------
# the commutation kernel against a literal recurrence that shares no code
# with ore.py
# ---------------------------------------------------------------------------

def literal_powers(aut, der, kmax, r):
    """[t^k * r for k = 0..kmax], each a map power -> coefficient, by
    applying t*c = aut(c)*t + der(c) literally, one step at a time."""
    cur = {0: r} if not r.is_zero() else {}
    out = [cur]
    for _ in range(kmax):
        nxt = {}
        for p, c in cur.items():
            for q, d in ((p + 1, aut(c)), (p, der(c))):
                nxt[q] = nxt[q] + d if q in nxt else d
        cur = {p: c for p, c in nxt.items() if not c.is_zero()}
        out.append(cur)
    return out


def literal_monomial(ring, exps, r):
    """t^I * r as exponent vector -> coefficient, right to left through
    :func:`literal_powers`."""
    n = ring.nvars
    cur = {(0,) * n: r}
    for i in range(n - 1, -1, -1):
        var = ring.variables[i]
        nxt = {}
        for key, c in cur.items():
            for p, d in literal_powers(var.aut, var.der, exps[i], c)[-1].items():
                out = key[:i] + (p,) + key[i + 1:]
                nxt[out] = nxt[out] + d if out in nxt else d
        cur = {e: c for e, c in nxt.items() if not c.is_zero()}
    return cur


def random_nonzero(domain, rng):
    while True:
        s = domain.random(rng)
        if not s.is_zero():
            return s


def kernel_scalars(domain, rng):
    """(scalar, kmax) pairs: a random scalar, taken to k = 24, and over Q(x)
    a rational function with a non-unit denominator, whose derivatives
    never vanish, taken to k = 8 (each step there costs gcds of growing
    polynomials)."""
    if domain is QX:
        return [(QX.from_coeffs([rng.randint(-3, 3) for _ in range(3)] + [1]),
                 24),
                (QX.from_coeffs((1, 0, 1), (-2, 1)), 8)]
    return [(random_nonzero(domain, rng), 24)]


def assert_var_powers_match(ring, i, r, kmax=24):
    var = ring.variables[i]
    for k, expected in enumerate(literal_powers(var.aut, var.der, kmax, r)):
        got = ring.var_power_times_scalar(i, k, r).terms
        assert got == {tuple(p if t == i else 0 for t in range(ring.nvars)): c
                       for p, c in expected.items()}, (ring, i, k, r)


class TestKernelOracle:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_var_power_every_config(self, path):
        ring = load_ring(path)
        rng = random.Random(path.stem)
        for i in range(ring.nvars):
            for r, kmax in kernel_scalars(ring.domain, rng):
                assert_var_powers_match(ring, i, r, kmax)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_monomial_every_config(self, path):
        ring = load_ring(path)
        rng = random.Random(path.stem)
        for r, kmax in kernel_scalars(ring.domain, rng):
            for _ in range(3):
                exps = tuple(rng.randint(0, kmax // ring.nvars)
                             for _ in range(ring.nvars))
                got = ring.monomial_times_scalar(exps, r).terms
                assert got == literal_monomial(ring, exps, r), (exps, r)

    def test_weyl_non_unit_denominator_to_24(self, weyl):
        # the derivative list never ends, so every k reads a fresh entry
        assert_var_powers_match(weyl, 0, QX.from_coeffs((1,), (1, 1)))

    def test_identity_twisted_lin_comb(self):
        # 4*d/dx, as mixing d/dx with 3*d/dx produces it
        der = mix_derivations(QX, [DdxDer(), DdxDer()], [QX.from_int(3)])[0]
        ring = OreRing(QX, [("t", IdentityAut(), der)])
        assert ring.certificate.ok
        for r, kmax in kernel_scalars(QX, random.Random(3)):
            assert_var_powers_match(ring, 0, r, kmax)

    def test_identity_twisted_euler_operator(self):
        # x*d/dx never kills x^m: it multiplies it by m
        ring = OreRing(QX, [("t", IdentityAut(), lin_comb([(X, DdxDer())]))])
        assert ring.certificate.ok
        assert_var_powers_match(ring, 0, QX.from_coeffs((0, 0, 0, 5)))

    def test_identity_twisted_inner_derivation(self):
        # r -> c*r - r*c over H(Q): its powers on a generic r never vanish
        ident = IdentityAut()
        ring = OreRing(HQ, [("t", ident, InnerDer(HQ.make(1, 2, -1), ident)),
                            ("u", ident, zero_der())])
        assert ring.certificate.ok
        for r, kmax in kernel_scalars(HQ, random.Random(5)):
            assert_var_powers_match(ring, 0, r, kmax)
            assert (ring.monomial_times_scalar((7, 3), r).terms
                    == literal_monomial(ring, (7, 3), r))

    def test_zero_scalar(self, weyl, qdiff_ring):
        for ring in (weyl, qdiff_ring):
            assert ring.var_power_times_scalar(0, 5, ring.domain.zero()).is_zero()


# ---------------------------------------------------------------------------
# the H(Q) basis table: t^k * r read off matrices kept on the ring
# ---------------------------------------------------------------------------

QUAT_INNER = (pathlib.Path(__file__).resolve().parent.parent / "configs"
              / "quat_inner.json")


def identity_inner_der_ring():
    ident = IdentityAut()
    return OreRing(HQ, [("t", ident, InnerDer(HQ.make(1, 2, -1), ident)),
                        ("u", ident, zero_der())])


def two_witness_ring():
    """Conjugation by i + 2j and by 2i - j, which anticommute, each with an
    inner derivation whose witness the other automorphism fixes; the
    witnesses' norm 5 puts denominators into the basis table."""
    a1, a2 = inner_aut(HQ.make(0, 1, 2)), inner_aut(HQ.make(0, 2, -1))
    return OreRing(HQ, [
        ("t1", a1, InnerDer(HQ.make(1, 2, -1), a1)),
        ("t2", a2, InnerDer(HQ.make(3, Fraction(-1, 2), -1), a2))])


TABLE_RINGS = {"quat_inner.json": lambda request: load_ring(QUAT_INNER),
               "quat_inner2": lambda request:
                   request.getfixturevalue("quat_inner2"),
               "identity_inner_der": lambda request: identity_inner_der_ring(),
               "two_witnesses": lambda request: two_witness_ring()}
# non-zero quaternions whose coordinates have denominators up to 12
_TABLE_SCALARS = st.builds(
    HQ.make, *[st.fractions(-12, 12, max_denominator=12)] * 4).filter(
        lambda q: not q.is_zero())


@pytest.fixture
def map_calls(monkeypatch):
    """InnerAut and InnerDer applications, counted."""
    calls = [0]
    for cls in (InnerAut, InnerDer):
        def counted(self, r, original=cls.__call__):
            calls[0] += 1
            return original(self, r)
        monkeypatch.setattr(cls, "__call__", counted)
    return calls


class TestBasisTable:
    @pytest.mark.parametrize("name", TABLE_RINGS)
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_the_literal_recurrence(self, name, request, data):
        ring = TABLE_RINGS[name](request)
        assert ring.certificate.ok
        r = data.draw(_TABLE_SCALARS, "r")
        i = data.draw(st.integers(0, ring.nvars - 1), "i")
        k = data.draw(st.integers(0, 12), "k")
        var = ring.variables[i]
        expected = literal_powers(var.aut, var.der, k, r)[-1]
        assert ring.var_power_times_scalar(i, k, r).terms == {
            tuple(p if t == i else 0 for t in range(ring.nvars)): c
            for p, c in expected.items()}
        exps = data.draw(st.tuples(*[st.integers(0, 12)] * ring.nvars),
                         "exps")
        assert (ring.monomial_times_scalar(exps, r).terms
                == literal_monomial(ring, exps, r))

    def test_loading_a_ring_builds_no_rows(self):
        for ring in (load_ring(QUAT_INNER), identity_inner_der_ring(),
                     two_witness_ring()):
            assert ring.basis_powers == {}

    def test_rings_with_different_twists_share_no_rows(self):
        rings = [load_ring(QUAT_INNER), two_witness_ring(),
                 identity_inner_der_ring()]
        for n, ring in enumerate(rings):
            ring.var_power_times_scalar(0, 4, J)
            assert all(other.basis_powers == {} for other in rings[n + 1:])
        tables = [ring.basis_powers[0][0] for ring in rings]
        for a, b in itertools.combinations(tables, 2):
            assert a is not b and a != b
        for ring in rings:
            assert_var_powers_match(ring, 0, J, 6)

    @pytest.mark.parametrize("name", TABLE_RINGS)
    def test_second_product_applies_no_map(self, name, request, map_calls):
        ring = TABLE_RINGS[name](request)
        if name == "quat_inner2":  # a shared fixture: start a fresh table
            ring = OreRing(ring.domain, ring.variables)
        rng = random.Random(name)
        first = random_poly(ring, rng, max_degree=4, max_terms=6,
                            nonzero=True)
        right = random_poly(ring, rng, nonzero=True)
        first * right
        assert map_calls[0] > 0
        before = map_calls[0]
        # fresh scalars on the same exponents: every t^k * r is read off
        # the rows the first product stepped
        left = SkewPoly(ring, {e: random_nonzero(HQ, rng)
                               for e in first.terms})
        right = SkewPoly(ring, {e: random_nonzero(HQ, rng)
                                for e in right.terms})
        got = left * right
        assert map_calls[0] == before
        want = {}
        for f, b in right.terms.items():
            for e, a in left.terms.items():
                for mid, c in literal_monomial(ring, e, b).items():
                    key = tuple(p + q for p, q in zip(mid, f))
                    want[key] = want[key] + a * c if key in want else a * c
        assert got.terms == {e: c for e, c in want.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# H(Q) products in integers against literal terms in Quaternion arithmetic
# ---------------------------------------------------------------------------

HQ_PRODUCT_RINGS = dict(
    TABLE_RINGS,
    quat1=lambda request: request.getfixturevalue("quat1"),
    quat2=lambda request: request.getfixturevalue("quat2"))


def literal_product(f, g):
    """f * g as the sum over term pairs of a * (t^L * b), each t^L * b from
    :func:`literal_monomial`, in scalar arithmetic."""
    want = {}
    for right, b in g.terms.items():
        for left, a in f.terms.items():
            for mid, c in literal_monomial(f.ring, left, b).items():
                key = tuple(p + q for p, q in zip(mid, right))
                want[key] = want[key] + a * c if key in want else a * c
    return {e: c for e, c in want.items() if not c.is_zero()}


def hq_polys(ring):
    """Operators with up to five terms of degree <= 4 in each variable,
    whose coefficients carry unlike denominators."""
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * ring.nvars),
                           _TABLE_SCALARS, max_size=5).map(
                               lambda terms: SkewPoly(ring, terms))


class TestHQProducts:
    # No shrink phase: a failure reports the pair as drawn.  With a wrong
    # lcm rescale planted, finding the failure took about a second, but
    # shrinking the pair's many fraction draws took minutes per ring.
    @pytest.mark.parametrize("name", HQ_PRODUCT_RINGS)
    @settings(deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.target),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_literal_terms(self, name, request, data):
        ring = HQ_PRODUCT_RINGS[name](request)
        f = data.draw(hq_polys(ring), "f")
        g = data.draw(hq_polys(ring), "g")
        got = f * g
        assert got.terms == literal_product(f, g)
        assert (got + f * (-g)).is_zero()

    @pytest.mark.parametrize("name", HQ_PRODUCT_RINGS)
    def test_cancelling_terms(self, name, request):
        # every twist fixes 1, so t's two degree-1 contributions cancel
        ring = HQ_PRODUCT_RINGS[name](request)
        one = ring.one()
        for i in range(ring.nvars):
            t = ring.variable(i)
            assert str((t + one) * (t - one)) == f"{ring.names[i]}^2 - 1"

    @pytest.mark.parametrize("name", HQ_PRODUCT_RINGS)
    def test_one_normalization_per_output_term(self, name, request,
                                               monkeypatch):
        ring = HQ_PRODUCT_RINGS[name](request)
        rng = random.Random(name)
        f = SkewPoly(ring, {e: random_nonzero(HQ, rng) for e in itertools
                            .product(range(4), repeat=ring.nvars)})
        g = random_poly(ring, rng, max_terms=6, nonzero=True)
        f * g  # steps the basis table, which applies the maps
        calls = {"_mul": 0, "_add": 0, "_hq": 0}

        def counted(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args):
                calls[attr] += 1
                return original(*args)
            monkeypatch.setattr(owner, attr, wrapper)

        counted(HQ, "_mul")
        counted(HQ, "_add")
        counted(ore, "_hq")
        got = f * g
        assert calls == {"_mul": 0, "_add": 0, "_hq": len(got.terms)}
        assert got.terms == literal_product(f, g)


# ---------------------------------------------------------------------------
# Q and Q(x) products against literal terms in scalar arithmetic
# ---------------------------------------------------------------------------

def _qdiff(q):
    aut = q_shift(q)
    return OreRing(QX, [("t", aut, QDiffDer(aut))])


# every Q and Q(x) ring in configs/, the q-difference rings for several q,
# and three untwisted variables over Q
TABLE_PRODUCT_RINGS = {
    **{p.stem: lambda request, p=p: load_ring(p) for p in CONFIGS
       if json.loads(p.read_text())["ring"] in ("Q", "Qx")},
    **{f"qdiff{q}": lambda request, q=q: _qdiff(q) for q in (-3, -1, 2, 3, 5)},
    "rat3": lambda request: request.getfixturevalue("rat3"),
}
BIG = 2**64
# small integers, and integers of 2^64 and above of either sign
_BIG_INTS = st.one_of(st.integers(-5, 5), st.integers(BIG, 4 * BIG),
                      st.integers(-4 * BIG, -BIG))


@st.composite
def table_scalars(draw, domain):
    """A non-zero scalar: over Q(x) mostly an integer polynomial, else one
    over a constant or polynomial denominator; over Q a fraction."""
    lead = draw(_BIG_INTS.filter(bool))
    if domain is Q:
        return Q.from_fraction(Fraction(lead, draw(st.sampled_from(
            [1, 1, 2, 3, BIG + 1]))))
    num = draw(st.lists(_BIG_INTS, max_size=4)) + [lead]
    return QX.from_coeffs(num, draw(st.sampled_from(
        [(1,), (1,), (1,), (3,), (1, 1), (-2, 0, 1), (1, 2, 3)])))


def table_polys(ring):
    """Operators with up to four terms of degree <= 3 in each variable."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * ring.nvars),
                           table_scalars(ring.domain), max_size=4).map(
                               lambda terms: SkewPoly(ring, terms))


class TestTableProducts:
    # No shrink phase, as in TestHQProducts: a failure reports the drawn
    # pair as drawn.
    @pytest.mark.parametrize("name", TABLE_PRODUCT_RINGS)
    @settings(deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.target),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_literal_terms(self, name, request, data):
        ring = TABLE_PRODUCT_RINGS[name](request)
        f = data.draw(table_polys(ring), "f")
        g = data.draw(table_polys(ring), "g")
        want = literal_product(f, g)
        # the Weyl lane takes some Q(x) products whole, so the table's own
        # sums are checked too
        assert {e: c for e, c in ore._table_product(f.terms, g.terms, ring)
                .items() if not c.is_zero()} == want
        got = f * g
        assert got.terms == want
        assert (got + f * (-g)).is_zero()


# ---------------------------------------------------------------------------
# every result the library builds is a checked form
# ---------------------------------------------------------------------------

# every ring in configs/ and perfbench/rings/, and three untwisted
# variables over Q
CHECKED_FORM_RINGS = {
    **{p.stem: lambda request, p=p: load_ring(p)
       for p in CONFIGS + BENCH_RINGS},
    "rat3": lambda request: request.getfixturevalue("rat3"),
}


def assert_checked(p, *operands):
    """``p`` is what the checked constructor makes of its own terms, and
    shares its term dict with no operand."""
    assert SkewPoly(p.ring, dict(p.terms)).terms == p.terms, p.terms
    assert all(p.terms is not q.terms for q in operands)


class TestCheckedForms:
    """Results are built without a second check of their terms, so each
    must already hold exponent vectors of the ring's arity, none negative,
    and no zero coefficient; and no operand may change."""

    # No shrink phase, as in TestHQProducts.
    @pytest.mark.parametrize("name", CHECKED_FORM_RINGS)
    @settings(deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.target),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_results_are_checked_forms(self, name, request, data):
        ring = CHECKED_FORM_RINGS[name](request)
        polys, scalars = ((hq_polys(ring), _TABLE_SCALARS)
                          if ring.domain is HQ else
                          (table_polys(ring), table_scalars(ring.domain)))
        f = data.draw(polys, "f")
        if data.draw(st.booleans(), "cancel") and not f.is_zero():
            # f with one sign flipped: f + g, f * g and division by g's
            # relation see sums that cancel (cross terms a*b - b*a), in
            # every lane
            flip = data.draw(st.sampled_from(sorted(f.terms)), "flip")
            g = SkewPoly(ring, {e: -v if e == flip else v
                                for e, v in f.terms.items()})
        else:
            g = data.draw(polys, "g")
        c, m = data.draw(scalars, "c"), data.draw(st.integers(1, 2), "m")
        before = dict(f.terms), dict(g.terms)
        v = ring.nvars - 1
        tails = g.split_by_var(v)
        rel = MonicRelation(ring, v, m, tuple(tails.get(j, ring.zero())
                                              for j in range(m)))
        results = [f * g, f + g, f - f, -f, f.scale_left(c),
                   f.scale_left(ring.domain.zero()), f ** 2,
                   parse_expr(str(f), ring), *divmod_by_monic(f, rel),
                   rel.polynomial(), reinterpret(f, ring),
                   *f.split_by_var(v).values(), *tails.values()]
        if not f.is_zero():
            results.append(f.leading_form(v))
        for p in results:
            assert_checked(p, f, g)
        assert f ** 1 is f
        assert (f.terms, g.terms) == before

    @pytest.mark.parametrize("path, left, right, want", [
        # t's degree-1 and degree-0 sums cancel in _table_product
        ("configs/weyl.json", "t + 1/(x+1)", "t - 1/(x+1)", "t^2"),
        # the cross terms cancel in _hq_product
        ("perfbench/rings/quat2.json", "s1 + s2", "s1 - s2",
         "s1^2 - s2^2")])
    def test_forced_cancellations(self, path, left, right, want):
        ring = load_ring(ROOT / path)
        f, g = parse_expr(left, ring), parse_expr(right, ring)
        for p in (f * g, parse_expr(f"({left})*({right})", ring)):
            assert_checked(p, f, g)
            assert str(p) == want


def dense_operator(ring, order, rng):
    """Every monomial of total degree <= order, each with a coefficient of
    x-degree exactly 3."""
    terms = {}
    for exps in itertools.product(range(order + 1), repeat=ring.nvars):
        if sum(exps) <= order:
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            terms[exps] = QX.from_coeffs(coeffs + [rng.choice((-1, 1))])
    return SkewPoly(ring, terms)


class TestWorkCount:
    """d/dx applications per power-table product, counted rather than
    timed.  The operators are halved: a coefficient with a denominator
    keeps a product off the packed Weyl lane, which applies no d/dx."""

    @pytest.fixture
    def ddx_calls(self, monkeypatch):
        calls = [0]
        original = DdxDer.__call__

        def counted(self, r):
            calls[0] += 1
            return original(self, r)

        monkeypatch.setattr(DdxDer, "__call__", counted)
        return calls

    def test_weyl_square_order_24(self, weyl, ddx_calls):
        f = dense_operator(weyl, 24, random.Random(24)).scale_left(HALF)
        assert len(f.terms) == 25
        f * f
        # each of the 25 right coefficients is differentiated at most 4
        # times: the fourth derivative of a cubic is zero
        assert ddx_calls[0] <= 25 * 4

    def test_weyl2_product(self, weyl2, ddx_calls):
        rng = random.Random(6)
        f = dense_operator(weyl2, 6, rng).scale_left(HALF)
        g = dense_operator(weyl2, 6, rng).scale_left(HALF)
        f * g
        # per right coefficient b: 4 derivatives of b for t2, then at most
        # 4 + 3 + 2 + 1 for t1 on b and its first three derivatives
        assert ddx_calls[0] <= len(g.terms) * (4 + 10)


def test_random_weyl_products_match_sympy(weyl):
    sympy = pytest.importorskip("sympy")
    from sympy.holonomic.holonomic import (
        DifferentialOperator,
        DifferentialOperators,
    )

    x = sympy.Symbol("x")
    algebra, _ = DifferentialOperators(sympy.QQ.old_poly_ring(x), "Dx")
    base = algebra.base

    def to_sympy(f):
        polys = [base.zero] * (f.degree_in(0) + 1)
        for (k,), c in f.terms.items():
            polys[k] = base.from_sympy(sum(
                sympy.Rational(q.numerator, q.denominator) * x**i
                for i, q in enumerate(c.num)))
        return DifferentialOperator(polys, algebra)

    def from_sympy(op):
        out = {}
        for k, p in enumerate(op.listofpoly):
            coeffs = sympy.Poly(base.to_sympy(p), x).all_coeffs()[::-1]
            c = QX.from_coeffs([Fraction(int(q.p), int(q.q)) for q in coeffs])
            if not c.is_zero():
                out[(k,)] = c
        return out

    rng = random.Random(71)
    for _ in range(12):
        f = dense_operator(weyl, rng.randint(0, 6), rng)
        g = dense_operator(weyl, rng.randint(0, 6), rng)
        assert (f * g).terms == from_sympy(to_sympy(f) * to_sympy(g))


# ---------------------------------------------------------------------------
# exponents and powers
# ---------------------------------------------------------------------------

class TestNegativeExponents:
    def test_monomial_times_scalar(self, weyl):
        with pytest.raises(ValueError):
            weyl.monomial_times_scalar((-1,), X)

    def test_monomial(self, weyl, weyl2):
        with pytest.raises(ValueError):
            weyl.monomial((-1,), X)
        with pytest.raises(ValueError):
            weyl2.monomial((2, -3), X)

    def test_constructor(self, weyl2):
        with pytest.raises(ValueError):
            SkewPoly(weyl2, {(0, -1): QX.one()})

    def test_var_power_times_scalar(self, weyl):
        with pytest.raises(ValueError):
            weyl.var_power_times_scalar(0, -2, X)


class TestPowers:
    @pytest.mark.parametrize("fixture", ["weyl", "weyl2", "quat_inner2",
                                         "qdiff_ring"])
    def test_pow_matches_repeated_products(self, fixture, request):
        ring = request.getfixturevalue(fixture)
        f = random_poly(ring, random.Random(fixture), 1, 2, nonzero=True)
        repeated = ring.one()
        for k in range(13):
            assert f ** k == repeated, k
            repeated = repeated * f

    def test_pow_product_count(self, weyl, monkeypatch):
        count = [0]
        original = SkewPoly.__mul__

        def counted(self, other):
            count[0] += 1
            return original(self, other)

        monkeypatch.setattr(SkewPoly, "__mul__", counted)
        weyl.variable(0) ** 14
        assert count[0] == 13
        count[0] = 0
        assert weyl.variable(0) ** 0 == weyl.one()
        assert count[0] == 0

    @pytest.mark.parametrize("domain", [Q, QX, HQ], ids=lambda d: d.name)
    def test_scalar_pow_matches_repeated_products(self, domain):
        rng = random.Random(domain.name)
        for _ in range(3):
            s = random_nonzero(domain, rng)
            up, down = domain.one(), domain.one()
            for k in range(13):
                assert s ** k == up and s ** -k == down, k
                up, down = up * s, down * s.inv()

    @pytest.mark.parametrize("fixture", ["weyl", "quat_inner", "qdiff_ring"])
    def test_scalar_var_power_matches_repeated_products(self, fixture, request):
        ring = request.getfixturevalue(fixture)
        r = random_nonzero(ring.domain, random.Random(fixture))
        base = ring.monomial((1,), r)
        repeated = base
        for m in range(1, 13):
            assert ring.scalar_var_power(r, 0, m) == repeated, m
            repeated = repeated * base
