"""Differential oracles for the Weyl lane of ``SkewPoly.__mul__``.

In a ring whose twists are all (id, d/dx) or (id, 0), a product of integer
polynomial operators skips the power table: f * g = sum_j F_j * d^j g/dx^j,
and each F_j * d^j g/dx^j is one product of packed integers
(``_weyl_product``).  Its reference is ``_table_product``, the power table every other Q and
Q(x) product takes, summed in scalar arithmetic; it shares no code with
the lane.  Packing and unpacking round-trip at the edges of the digit
range.
"""

import functools
import itertools
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from skewpoly import ore
from skewpoly.config import load_ring
from skewpoly.maps import QDiffDer, q_shift
from skewpoly.ore import (
    OreRing,
    SkewPoly,
    _pack,
    _table_product,
    _unpack,
    _weyl_product,
)
from skewpoly.scalars import QX, RationalFunction

ROOT = pathlib.Path(__file__).resolve().parent.parent
BIG = 2**64


@functools.lru_cache(maxsize=None)
def _ring(name):
    if name.startswith("qdiff"):
        aut = q_shift(int(name[5:]))
        return OreRing(QX, [("t", aut, QDiffDer(aut))])
    return load_ring(ROOT / "configs" / f"{name}.json")


RING_NAMES = ["weyl", "weyl2", "weyl3", "qdiff-3", "qdiff-1", "qdiff2",
              "qdiff3", "qdiff5"]

# small coefficients, and coefficients of 2^64 and above of either sign
coefficients = st.one_of(st.integers(-5, 5),
                         st.integers(BIG, 4 * BIG), st.integers(-4 * BIG, -BIG))


@st.composite
def integer_polys(draw, max_degree=4):
    """A non-zero integer polynomial as a Q(x) scalar, sometimes with a
    negative leading coefficient."""
    coeffs = draw(st.lists(coefficients, min_size=0, max_size=max_degree))
    lead = draw(coefficients.filter(bool))
    return RationalFunction((*coeffs, lead), (1,))


@st.composite
def operators(draw, ring, max_order=3):
    exps = st.lists(st.integers(0, max_order), min_size=ring.nvars,
                    max_size=ring.nvars).map(tuple)
    return SkewPoly(ring, draw(st.dictionaries(exps, integer_polys(),
                                               max_size=4)))


@settings(deadline=None)
@given(data=st.data(), name=st.sampled_from(RING_NAMES))
def test_zero_product(data, name):
    ring = _ring(name)
    f = data.draw(operators(ring))
    for left, right in ((f, ring.zero()), (ring.zero(), f)):
        assert _table_product(left.terms, right.terms, ring) == {}
        assert (left * right).is_zero()


@given(width=st.integers(2, 300), data=st.data())
def test_pack_unpack_round_trip_at_digit_limits(width, data):
    limit = 2 ** (width - 1) - 1
    digit = st.one_of(st.sampled_from([limit, -limit, 0, 1, -1]),
                      st.integers(-limit, limit))
    coeffs = data.draw(st.lists(digit, max_size=8))
    coeffs.append(data.draw(st.sampled_from([limit, -limit])))
    assert _unpack(_pack(coeffs, width), width) == tuple(coeffs)
    assert _unpack(_pack([], width), width) == ()


WEYL_RINGS = ["weyl", "weyl2", "weyl3"]  # weyl3's y2 has the zero derivation


@st.composite
def weyl_operands(draw, ring,
                  kinds=("zero", "constant", "term", "dense", "strip")):
    """Zero, a constant, one term of order up to 20, a dense operator of
    order up to 3, or a dense strip of order 15 to 17 along one variable
    (order at most 1 in the others)."""
    n = ring.nvars
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return ring.zero()
    if kind == "constant":
        exps = [(0,) * n]
    elif kind == "term":
        exps = [tuple(draw(st.lists(st.integers(0, 20), min_size=n,
                                    max_size=n)))]
    elif kind == "dense":
        order = draw(st.integers(0, 3))
        exps = [e for e in itertools.product(range(order + 1), repeat=n)
                if sum(e) <= order]
    else:
        tall, order = draw(st.integers(0, n - 1)), draw(st.integers(15, 17))
        exps = [e[:tall] + (k,) + e[tall + 1:]
                for e in itertools.product(range(2), repeat=n)
                if not e[tall] for k in range(order + 1)]
    return SkewPoly(ring, {e: draw(integer_polys()) for e in exps})


def power_table_product(f, g):
    return {e: v for e, v in _table_product(f.terms, g.terms, f.ring).items()
            if not v.is_zero()}


@settings(deadline=None)
@given(data=st.data(), name=st.sampled_from(WEYL_RINGS))
def test_weyl_product_matches_power_table(data, name):
    ring = _ring(name)
    f, g = data.draw(weyl_operands(ring)), data.draw(weyl_operands(ring))
    expected = power_table_product(f, g)
    lane = _weyl_product(f.terms, g.terms, ring.ddx)
    assert lane is None or lane == expected
    assert (f * g).terms == expected


@settings(deadline=None)
@given(data=st.data(), name=st.sampled_from(WEYL_RINGS))
def test_weyl_product_takes_strips(data, name):
    # a strip times c1*t_i + c2, c1 and c2 of x-degree at most 3, is always
    # packed: its exponent box has fewer cells than the product has term
    # pairs, and at most 8 x-digits per pair
    ring = _ring(name)
    f = data.draw(weyl_operands(ring, ("strip",)))
    i = data.draw(st.integers(0, ring.nvars - 1))
    g = SkewPoly(ring, {tuple(int(k == i) for k in range(ring.nvars)):
                        data.draw(integer_polys(3)),
                        (0,) * ring.nvars: data.draw(integer_polys(3))})
    for left, right in ((f, g), (g, f)):
        assert (_weyl_product(left.terms, right.terms, ring.ddx)
                == power_table_product(left, right))


def test_weyl_lane_declines_many_x_digits_per_pair(monkeypatch):
    # a strip of order 17 with x-degree 40 times c1*t + c2 of x-degree 40:
    # 19 box cells for 36 term pairs, but 81 x-digits per cell, more than
    # 8 per pair, so the product takes the power table
    ring = _ring("weyl")

    def strip_and_pair(poly):
        return (SkewPoly(ring, {(k,): poly for k in range(18)}),
                SkewPoly(ring, {(1,): poly, (0,): -poly}))

    # the same shapes with x-degree 1 pack: 19 * 3 digits <= 8 * 36
    f, g = strip_and_pair(RationalFunction((1, 2), (1,)))
    assert _weyl_product(f.terms, g.terms, ring.ddx) is not None
    f, g = strip_and_pair(RationalFunction(tuple(range(1, 42)), (1,)))
    assert _weyl_product(f.terms, g.terms, ring.ddx) is None
    lanes = []

    def table(*args):
        lanes.append("table")
        return _table_product(*args)

    monkeypatch.setattr(ore, "_table_product", table)
    assert (f * g).terms == power_table_product(f, g)
    assert lanes == ["table"]


def test_weyl_lane_needs_integer_coefficients_and_plain_twists():
    weyl, qdiff = _ring("weyl"), _ring("qdiff2")
    assert weyl.ddx == (True,) and _ring("weyl3").ddx == (True, False, True)
    assert qdiff.ddx is None
    half = RationalFunction((1,), (2,))
    f = SkewPoly(weyl, {(0,): half, (1,): RationalFunction((0, 1), (1,))})
    assert _weyl_product(f.terms, f.terms, weyl.ddx) is None
    assert (f * f).terms == power_table_product(f, f)
