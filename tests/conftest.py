import pytest
from hypothesis import settings

from skewpoly import (
    DdxDer,
    IdentityAut,
    InnerDer,
    OreRing,
    QDiffDer,
    inner_aut,
    q_shift,
    zero_der,
)
from skewpoly.ore import SkewPoly
from skewpoly.scalars import HQ, Q, QX

# Ten times Hypothesis's default budget, for the oracles that guard the
# scalar fast paths, the parser's shortcuts, literal lane and token
# scan, the printer, analytic certification, the packed product sums, the
# Weyl product lane, the H(Q) basis table, the H(Q) product lane, the
# written-down forms (monic relations, evaluation, tuple records) and the
# one-pass kernels (conjugacy grouping, formal substitution, monic
# division), and the CLI contract fuzz: ``pytest tests/test_scalars.py
# tests/test_parser.py tests/test_certification_oracle.py
# tests/test_packed_products.py tests/test_written_forms.py
# tests/test_kernel_oracles.py tests/test_cli.py tests/test_cli_contract.py
# tests/test_ore.py::TestBasisTable::test_matches_the_literal_recurrence
# tests/test_ore.py::TestHQProducts::test_matches_literal_terms
# --hypothesis-profile=scalar-oracles``.
# The default run keeps the default.
settings.register_profile("scalar-oracles", max_examples=1000)


def random_poly(ring, rng, max_degree=3, max_terms=4,
                nonzero=False) -> SkewPoly:
    """Seeded random polynomial with total degree <= max_degree."""
    n = ring.nvars
    for _ in range(64):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            d = rng.randint(0, max_degree)
            e = [0] * n
            for _ in range(d):
                if n:
                    e[rng.randrange(n)] += 1
            c = ring.domain.random(rng)
            if not c.is_zero():
                terms[tuple(e)] = c
        p = SkewPoly(ring, terms)
        if not (nonzero and p.is_zero()):
            return p
    raise RuntimeError("failed to draw a non-zero polynomial")



@pytest.fixture(scope="session")
def weyl():
    """Q(x)[t; id, d/dx], the first Weyl algebra."""
    return OreRing(QX, [("t", IdentityAut(), DdxDer())])


@pytest.fixture(scope="session")
def weyl2():
    """Two commuting Weyl-type variables, both twisted by d/dx."""
    return OreRing(QX, [("t1", IdentityAut(), DdxDer()),
                        ("t2", IdentityAut(), DdxDer())])


@pytest.fixture(scope="session")
def weyl3():
    """Three commuting variables over Q(x) with mixed zero/ddx derivations."""
    return OreRing(QX, [("y1", IdentityAut(), DdxDer()),
                        ("y2", IdentityAut(), zero_der()),
                        ("y3", IdentityAut(), DdxDer())])


@pytest.fixture(scope="session")
def rat3():
    """Three untwisted variables over Q."""
    ident = IdentityAut()
    return OreRing(Q, [(n, ident, zero_der()) for n in ("a", "b", "c")])


@pytest.fixture(scope="session")
def rat1():
    return OreRing(Q, [("t", IdentityAut(), zero_der())])


@pytest.fixture(scope="session")
def quat1():
    """H(Q)[t] with trivial twists."""
    return OreRing(HQ, [("t", IdentityAut(), zero_der())])


@pytest.fixture(scope="session")
def quat2():
    """Two trivially twisted variables over H(Q)."""
    ident = IdentityAut()
    return OreRing(HQ, [("t1", ident, zero_der()),
                        ("t2", ident, zero_der())])


@pytest.fixture(scope="session")
def quat_inner():
    """One variable over H(Q) twisted by conjugation by i."""
    aut = inner_aut(HQ.i())
    return OreRing(HQ, [("t", aut, zero_der(aut))])


@pytest.fixture(scope="session")
def quat_inner2():
    """Two variables sharing the inner automorphism by i, one with a
    non-trivial inner derivation (witness 1+2i commutes with i)."""
    aut = inner_aut(HQ.i())
    return OreRing(HQ, [("t1", aut, InnerDer(HQ.make(1, 2), aut)),
                        ("t2", aut, zero_der(aut))])


@pytest.fixture(scope="session")
def qdiff_ring():
    """Q(x)[t; x->2x, q-difference quotient]."""
    aut = q_shift(2)
    return OreRing(QX, [("t", aut, QDiffDer(aut))])
