"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected value is exact (rational arithmetic); there are
no floating-point tolerances anywhere.
"""

import json
import random
from itertools import product

import pytest

from skewpoly.evaluation import certify_tuple, evaluate, mix_derivations, \
    mix_elements
from skewpoly.maps import (
    IdentityAut,
    apply_power,
    central_fixed_stream,
    commutation_record,
    derivation_record,
    inner_aut,
    sample_scalars,
    zero_der,
)
from skewpoly.normalize import (
    divmod_by_monic,
    find_nonvanishing_point,
    monicize,
    normalize,
    normalize_step,
)
from skewpoly.nullstellensatz import (
    cns_witness,
    formal_substitute,
    gordon_motzkin_check,
    make_evaluation_set,
    validate_sets,
)
from skewpoly.ore import OreRing, reinterpret
from skewpoly.parser import parse_expr
from skewpoly.scalars import HQ, Q, QX, are_conjugate
from skewpoly.cli import main as cli_main
from conftest import random_poly
from test_certification_oracle import is_automorphic


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion} PASS - {text}")


def test_criterion_1_ring_axioms(rat3, weyl2, quat2, quat_inner2):
    """Associativity and distributivity, exact, 200 seeded triples."""
    rng = random.Random(1001)
    plan = [(rat3, 80), (quat2, 40), (quat_inner2, 40), (weyl2, 40)]
    total = 0
    for ring, count in plan:
        for _ in range(count):
            f = random_poly(ring, rng, 3, max_terms=3)
            g = random_poly(ring, rng, 3, max_terms=3)
            h = random_poly(ring, rng, 3, max_terms=3)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            total += 1
    assert total == 200
    report(1, "ring axioms exact on 200 triples over Q, Q(x), H(Q)")


def test_criterion_2_commutation_oracles(weyl, quat_inner, qdiff_ring):
    """Closed-form commutation identities vs the repeated-single-step oracle."""
    rings = (weyl, quat_inner, qdiff_ring)
    rng = random.Random(1002)

    cases = 0
    while cases < 100:  # var_power_times_scalar, k <= 6
        ring = rings[cases % 3]
        aut, der = ring.variables[0].aut, ring.variables[0].der
        k = rng.randint(0, 6)
        r = ring.domain.random(rng)
        out = ring.var_power_times_scalar(0, k, r)
        oracle = ring.constant(r)
        t = ring.variable(0)
        for _ in range(k):
            oracle = t * oracle
        assert out == oracle
        assert out.coeff((k,)) == apply_power(aut, r, k)
        if k:
            assert out.coeff((0,)) == apply_power(der, r, k)
        cases += 1

    conj_i = inner_aut(HQ.i())
    two_var = OreRing(HQ, [("t1", conj_i, zero_der(conj_i)),
                           ("t2", IdentityAut(), zero_der())])
    for case in range(100):  # monomial_times_scalar
        ring = (weyl, two_var)[case % 2]
        n = ring.nvars
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        r = ring.domain.random(rng)
        out = ring.monomial_times_scalar(exps, r)
        oracle = ring.constant(r)
        for i in range(n - 1, -1, -1):
            t = ring.variable(i)
            for _ in range(exps[i]):
                oracle = t * oracle
        assert out == oracle
        composed = r
        for i in range(n - 1, -1, -1):
            composed = apply_power(ring.variables[i].aut, composed, exps[i])
        assert out.coeff(exps) == composed

    for case in range(100):  # scalar_var_power, m <= 6
        ring = rings[case % 3]
        aut = ring.variables[0].aut
        m = rng.randint(1, 6)
        r = ring.domain.random(rng)
        out = ring.scalar_var_power(r, 0, m)
        oracle = ring.monomial((1,), r)
        base = oracle
        for _ in range(m - 1):
            oracle = oracle * base
        assert out == oracle
        lead = r
        for p in range(1, m):
            lead = lead * apply_power(aut, r, p)
        assert out.coeff((m,)) == lead
        assert out.coeff((0,)).is_zero()
    report(2, "closed-form commutation identities match the single-step "
              "oracle for k, m <= 6 (100 cases each)")


def test_criterion_3_weyl_identities(weyl):
    t = weyl.variable(0)
    x = weyl.constant(QX.x())
    assert t * x - x * t == weyl.one()
    assert (t * t) * x == x * (t * t) + t.scale_left(QX.from_int(2))
    report(3, "t*x - x*t = 1 and t^2*x = x*t^2 + 2t, exact")


def test_criterion_4_evaluation_homomorphism(weyl2, quat_inner2):
    rng = random.Random(1004)
    plans = [(weyl2, QX.from_int(2), 60), (quat_inner2, HQ.from_int(3), 40)]
    total = 0
    for ring, coeff, count in plans:
        base = certify_tuple(ring, [ring.variable(0), ring.variable(1)],
                             ring.twists())
        tup = mix_elements(base, [coeff])
        aut = ring.variables[0].aut
        mixed_ring = OreRing(ring.domain,
                             [(n, aut, d) for n, (_, d)
                              in zip(ring.names, tup.twists)])
        for _ in range(count):
            f = random_poly(mixed_ring, rng, 3, max_terms=3)
            g = random_poly(mixed_ring, rng, 3, max_terms=3)
            assert (evaluate(f + g, tup)
                    == evaluate(f, tup) + evaluate(g, tup))
            assert (evaluate(f * g, tup)
                    == evaluate(f, tup) * evaluate(g, tup))
            total += 1
        for r in sample_scalars(ring.domain, 17, 10):
            assert evaluate(mixed_ring.constant(r), tup) == ring.constant(r)
    assert total == 100
    report(4, "evaluation is a scalar-fixing homomorphism on 100 pairs, exact")


def test_criterion_5_mixing_suite(weyl2, quat_inner2):
    for ring, a in ((weyl2, QX.from_int(3)), (quat_inner2, HQ.from_int(2))):
        domain = ring.domain
        aut = ring.variables[0].aut
        ders = [v.der for v in ring.variables]
        mixed = mix_derivations(domain, ders, [a], samples=64)
        for d in mixed:
            assert derivation_record(domain, aut, d, 64).ok
            assert commutation_record(domain, aut, d, 64).ok
        assert commutation_record(domain, mixed[0], mixed[1], 64).ok

        base = certify_tuple(ring, [ring.variable(0), ring.variable(1)],
                             ring.twists())
        out = mix_elements(base, [a])
        for element, (el_aut, el_der) in zip(out.elements, out.twists):
            assert is_automorphic(element, el_aut, el_der, 64)
        u1, u2 = out.elements
        assert u1 * u2 == u2 * u1
        back = mix_elements(out, [-a])
        assert back.elements == base.elements
        assert back.twists == base.twists
    report(5, "mixed derivations and elements certified on 64 samples; "
              "mixing inverts exactly")


def _nonconjugate_pool():
    return [HQ.zero(), HQ.one(), HQ.from_int(2), HQ.from_int(3), HQ.i(),
            HQ.make(1, 1), HQ.make(0, 2), HQ.make(2, 1), HQ.make(1, 0, 2)]


def test_criterion_6_cns_instances(quat1, quat2):
    rng = random.Random(1006)
    pool = _nonconjugate_pool()
    successes = 0
    for case in range(200):
        ring = (quat1, quat2)[case % 2]
        f = random_poly(ring, rng, 3, nonzero=True)
        degree = int(f.total_degree())
        if degree < 1:
            f = f + ring.monomial((0,) * (ring.nvars - 1) + (1,),
                                  HQ.one())
            degree = int(f.total_degree())
        elements = []
        for cand in rng.sample(pool, len(pool)):
            if all(not are_conjugate(cand, e) for e in elements):
                elements.append(cand)
            if len(elements) == degree + 1:
                break
        sets = [make_evaluation_set(elements)] * ring.nvars
        assert validate_sets(sets, degree)
        witness = cns_witness(f, sets)
        assert not witness.value.is_zero()
        # exhaustive re-scan: the returned point is the lexicographic first
        for index, point in enumerate(
                product(*(s.elements for s in sets)), 1):
            value = formal_substitute(f, point)
            if not value.is_zero():
                assert point == witness.point
                assert index == witness.scanned
                break
            assert index < witness.scanned
        successes += 1
    assert successes == 200
    report(6, "CNS III witness found on 200/200 instances, "
              "lexicographic-first verified by re-scan")


def test_criterion_7_gordon_motzkin(quat1):
    t = quat1.variable(0)
    f = t * t + quat1.one()
    partition = gordon_motzkin_check(f, [HQ.i(), HQ.j(), HQ.k()])
    assert len(partition.classes) == 1
    assert partition.degree == 2

    rng = random.Random(1007)
    for _ in range(20):
        count = rng.randint(2, 5)
        values = rng.sample(range(-10, 11), count)
        poly = quat1.one()
        for c in values:
            poly = poly * (t - quat1.constant(HQ.from_int(c)))
        partition = gordon_motzkin_check(
            poly, [HQ.from_int(c) for c in values])
        assert len(partition.classes) == count
        assert len(partition.classes) <= partition.degree
    report(7, "x^2+1 gives one class; 20 central-factor products give "
              "class count = factor count <= degree")


def test_criterion_8_monicization(weyl2, weyl3, rat3, quat_inner2):
    rng = random.Random(1008)
    rings = (weyl2, weyl3, rat3, quat_inner2)
    done = 0
    while done < 50:
        ring = rings[done % len(rings)]
        f = random_poly(ring, rng, 4, max_terms=3, nonzero=True)
        if f.total_degree() < 1:
            continue
        degree = int(f.total_degree())
        target = ring.nvars - 1
        sub, g = monicize(f)
        assert g.degree_in(target) == degree
        top = tuple(degree if t == target else 0 for t in range(ring.nvars))
        assert g.coeff(top) == ring.domain.one()
        # the specialization search stays within (N+1)(m-1) tests
        h = f.leading_form(target)
        stream = central_fixed_stream(ring.domain, ring.tower_maps())
        search = find_nonvanishing_point(h, stream)
        assert search.point == sub.shifts
        assert search.specializations <= (degree + 1) * (ring.nvars - 1)
        done += 1
    report(8, "50 monicizations: leading coefficient exactly 1, degree "
              "preserved, search within (N+1)(m-1)")


def test_criterion_9_normalization_replay(weyl2, weyl3):
    # worked example 1: f = x1 x2
    f = weyl2.monomial((1, 1), QX.one())
    step = normalize_step(f)
    g = step.relation.polynomial()
    t2 = weyl2.variable(1)
    elements = [weyl2.variable(0) - t2.scale_left(step.substitution.shifts[0]),
                t2]
    tup = certify_tuple(weyl2, elements, step.relation.ring.twists())
    replay = evaluate(reinterpret(g, step.relation.ring), tup)
    assert replay - f.scale_left(step.substitution.scale) == weyl2.zero()

    # worked example 2: a three-variable two-relation chain
    rels = [weyl3.monomial((1, 0, 1), QX.one()),
            weyl3.monomial((0, 2, 0), QX.one())]
    result = normalize(weyl3, rels)
    assert len(result.steps) == 2
    assert result.residual_variables == ("y1",)

    # reduction: 50 random elements against a degree-2 monic relation
    rng = random.Random(1009)
    rel = normalize_step(weyl2.monomial((1, 1), QX.one())
                         + weyl2.one()).relation
    ring = rel.ring
    for _ in range(50):
        e = random_poly(ring, rng, 4, max_terms=3)
        quotient, remainder = divmod_by_monic(e, rel)
        assert remainder.degree_in(rel.var) < rel.degree
        assert quotient * rel.polynomial() + remainder == e
    report(9, "replay identity g(t) = a*f exact; 50 reductions with exact "
              "division re-check")


def test_criterion_10_cli_round_trip(weyl, weyl2, rat3, quat2, quat_inner2,
                                     tmp_path, capsys):
    rng = random.Random(1010)
    rings = (weyl, weyl2, rat3, quat2, quat_inner2)
    for case in range(200):
        ring = rings[case % len(rings)]
        f = random_poly(ring, rng, 3)
        assert parse_expr(str(f), ring) == f

    ring_path = tmp_path / "weyl2.json"
    ring_path.write_text(json.dumps({
        "ring": "Qx",
        "vars": [
            {"name": "t1", "aut": {"kind": "identity"},
             "der": {"kind": "ddx"}},
            {"name": "t2", "aut": {"kind": "identity"},
             "der": {"kind": "ddx"}},
        ],
    }), encoding="utf-8")
    argv = ["monicize", "--ring", str(ring_path), "--format", "json",
            "--seed", "12345", "t1*t2 + x*t1 + 1"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    golden = json.loads(first)
    assert golden["substitution"]["shifts"] == ["1"]
    assert {"exponents": [0, 2], "coeff": "1"} in golden["terms"]
    assert golden["monic"] == "t1*t2 + t2^2 + x*t1 + x*t2 + 1"
    report(10, "200 print/parse round-trips exact; CLI JSON byte-stable "
               "under a fixed seed")
