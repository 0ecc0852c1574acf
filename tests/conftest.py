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

# The "scalar-oracles" profile: ten times Hypothesis's default budget, for
# the oracles that guard a fast path.  CI runs them with it, and this is the
# one list of what each guards:
# - test_scalars.py: Fraction and sympy oracles for the Q(x) and H(Q) fast
#   paths.
# - test_parser.py: SkewPoly-arithmetic and tokenizer oracles for the
#   parser; the lane-off parser for the literal lane over Q(x) and H(Q)
#   (TestXPolynomialLane, TestQuaternionLiteralLane); the token-scan oracle,
#   holding the one-findall token texts to tokenize's (TestTokenScanOracle);
#   the printer oracle, holding SkewPoly.__str__ to the printer it replaced
#   (TestPrinterOracle).
# - test_certification_oracle.py: the ring-law decision oracle, every law
#   decided on the generators of D against the sampled Leibniz and
#   commutation checks kept there; the ring-verdict oracle
#   (test_ring_certificate_gives_the_sampled_verdict), each drawn
#   two-variable ring's certificate against its 64-sample verdict, with
#   deadline=None; the product-law oracles of tuple certification, where
#   test_tuple_record_counts_what_products_count holds the tuple-record
#   proof (a linear form with the claimed derivation) to operator products.
# - test_packed_products.py: the power-table oracle (_table_product) for
#   the whole-operator Weyl lane of operator products.
# - test_written_forms.py: MonicRelation.polynomial() against its product
#   form; evaluate against the evaluation that started every term and power
#   chain with a product by one; certify_tuple's records against those over
#   a pool drawn for every tuple; monicize against the route through a
#   second ring whose terms were read into the step's ring
#   (test_monicize_equals_the_old_route).
# - test_kernel_oracles.py, with no shrink phase: the one-pass conjugacy
#   grouping of make_evaluation_set and gordon_motzkin_check against the
#   pairwise Fraction trace/norm test, over drawn lists with repeats,
#   central elements, unlike denominators and conjugates u*a*u^-1;
#   formal_substitute's powers, built once per coordinate, against a**e per
#   term; divmod_by_monic's in-place remainder against the schoolbook loop
#   that subtracted q_k*rho from the whole remainder, in every ring of
#   configs/ and perfbench/rings/, with the same number of operator
#   products.
# - test_cli.py: the argparse oracle (TestArgvReader::test_reads_as_argparse)
#   holds the table-driven argv reader to an argparse parser built from the
#   same table.
# - test_cli_contract.py: the CLI contract fuzz feeds all nine commands
#   soups and mutated files.
# - test_ore.py::TestBasisTable::test_matches_the_literal_recurrence holds
#   the ring-cached H(Q) t^k * e_b matrices to a literal single-step
#   recurrence, over drawn quaternions with non-unit denominators and
#   exponents up to 12.
# - test_ore.py::TestHQProducts::test_matches_literal_terms holds whole H(Q)
#   products, summed as integer 4-vectors and reduced once per output term,
#   to sums of literal_monomial terms in Quaternion arithmetic, over drawn
#   operators whose coefficients carry unlike denominators, in rings with
#   plain, twisted and mixed variables; with no shrink phase, a failure
#   reports the drawn pair in about a second instead of minutes.
# - test_ore.py::TestTableProducts::test_matches_literal_terms holds whole
#   Q and Q(x) products, and _table_product's own sums, to sums of
#   literal_monomial terms in scalar arithmetic, in every Q and Q(x) ring of
#   configs/, q-difference rings for q in {-3, -1, 2, 3, 5} and three
#   untwisted variables over Q, over drawn operators whose coefficients
#   are integer polynomials with entries of 2^64 and above or carry
#   non-unit denominators; no shrink phase, as above.
# - test_ore.py::TestCheckedForms::test_results_are_checked_forms holds
#   every result that SkewPoly._of wraps unchecked (products, sums,
#   negation, scaling, powers, parsed text, monic division, splits, leading
#   forms) to its re-checked form, and checks that none shares its term
#   dict with an operand or changes one, in every ring of configs/ and
#   perfbench/rings/ and rat3; no shrink phase, as above.
# The command: ``pytest tests/test_scalars.py tests/test_parser.py
# tests/test_certification_oracle.py tests/test_packed_products.py
# tests/test_written_forms.py tests/test_kernel_oracles.py tests/test_cli.py
# tests/test_cli_contract.py
# tests/test_ore.py::TestBasisTable::test_matches_the_literal_recurrence
# tests/test_ore.py::TestHQProducts::test_matches_literal_terms
# tests/test_ore.py::TestTableProducts::test_matches_literal_terms
# tests/test_ore.py::TestCheckedForms::test_results_are_checked_forms
# --hypothesis-profile=scalar-oracles``.  The default run keeps the default.
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
