"""Symbolic automorphisms and twisted derivations of the coefficient rings.

Maps form a closed constructor family so that application is exact and the
ring laws (twisted Leibniz rule, commutation) of the family are decided on
the generators of the coefficient ring; only tuple records sample.  A
derivation always carries the automorphism it is twisted by, and maps are
applied by calling them: ``der(r)``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .errors import ExhaustedCandidates, NotInF, UnsupportedRing
from .scalars import HQ, QX, RationalFunction, Scalar
from .values import Value

DEFAULT_SEED = 12345
DEFAULT_SAMPLES = 64
MAX_SAMPLES = 1000


class RingMap(Value):
    """Base class; concrete maps are immutable values."""

    __slots__ = ()
    role = ""

    def __call__(self, r: Scalar) -> Scalar:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_data(self) -> dict:
        """Tagged descriptor; a derivation's paired automorphism is carried
        by the variable it belongs to."""
        raise NotImplementedError


def _expect(r, cls, what):
    if not isinstance(r, cls):
        raise UnsupportedRing(f"{what} is not defined on {type(r).__name__}")


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

class IdentityAut(RingMap):
    __slots__ = ()
    role = "automorphism"

    def __call__(self, r):
        return r

    def describe(self):
        return "id"

    def to_data(self):
        return {"kind": "identity"}


class InnerAut(RingMap):
    """Conjugation r -> c r c^-1 by a non-central witness c."""

    __slots__ = ("c", "c_inv")
    _fields = ("c",)
    role = "automorphism"

    def __init__(self, c: Scalar):
        if c.is_zero():
            raise ValueError("inner automorphism needs a non-zero witness")
        if c.is_central():
            raise ValueError("central witness gives the identity; "
                             "use inner_aut()")
        self._set(c, c.inv())

    def __call__(self, r):
        _expect(r, type(self.c), "this inner automorphism")
        return self.c * r * self.c_inv

    def describe(self):
        return f"inner_aut({self.c})"

    def to_data(self):
        return {"kind": "inner_aut", "c": str(self.c)}


class QShiftAut(RingMap):
    """On Q(x): f(x) -> f(q*x) for a non-zero rational q != 1."""

    __slots__ = ("q",)
    role = "automorphism"

    def __init__(self, q: Fraction):
        self._set(Fraction(q))
        if self.q == 0:
            raise ValueError("q-shift needs q != 0")
        if self.q == 1:
            raise ValueError("q = 1 is the identity; use q_shift()")

    def __call__(self, r):
        _expect(r, RationalFunction, "q-shift")
        return r.scale_argument(self.q)

    def describe(self):
        return f"q_shift({self.q})"

    def to_data(self):
        return {"kind": "q_shift", "q": str(self.q)}


def inner_aut(c: Scalar) -> RingMap:
    """Conjugation by ``c``; collapses to the identity for central ``c``."""
    if c.is_zero():
        raise ValueError("inner automorphism needs a non-zero witness")
    if c.is_central():
        return IdentityAut()
    return InnerAut(c)


def q_shift(q) -> RingMap:
    q = Fraction(q)
    if q == 1:
        return IdentityAut()
    return QShiftAut(q)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

class ZeroDer(RingMap):
    __slots__ = ("twist",)
    role = "derivation"

    def __init__(self, twist: RingMap = IdentityAut()):
        self._set(twist)

    def __call__(self, r):
        return r.domain.zero()

    def describe(self):
        return "zero"

    def to_data(self):
        return {"kind": "zero"}


class DdxDer(RingMap):
    """d/dx on Q(x); an identity-twisted derivation."""

    __slots__ = ()
    role = "derivation"

    @property
    def twist(self):
        return IdentityAut()

    def __call__(self, r):
        _expect(r, RationalFunction, "d/dx")
        return r.derivative()

    def describe(self):
        return "d/dx"

    def to_data(self):
        return {"kind": "ddx"}


class InnerDer(RingMap):
    """r -> c*r - twist(r)*c, a twist-derivation for any c."""

    __slots__ = ("c", "twist")
    role = "derivation"

    def __call__(self, r):
        _expect(r, type(self.c), "this inner derivation")
        return self.c * r - self.twist(r) * self.c

    def describe(self):
        return f"inner_der({self.c}; {self.twist.describe()})"

    def to_data(self):
        return {"kind": "inner_der", "c": str(self.c)}


class QDiffDer(RingMap):
    """q-difference quotient f -> (f(qx) - f(x)) / (qx - x) on Q(x)."""

    __slots__ = ("shift", "step_inv")
    _fields = ("shift",)
    role = "derivation"

    def __init__(self, shift: QShiftAut):
        self._set(shift, RationalFunction.make((0, shift.q - 1)).inv())

    @property
    def twist(self):
        return self.shift

    def __call__(self, r):
        _expect(r, RationalFunction, "q-difference")
        return (self.shift(r) - r) * self.step_inv

    def describe(self):
        return f"q_diff({self.shift.q})"

    def to_data(self):
        return {"kind": "q_diff"}


class LinComb(RingMap):
    """Sum of derivations scaled on the left by central twist-fixed scalars."""

    __slots__ = ("terms",)
    role = "derivation"

    def __init__(self, terms: tuple[tuple[Scalar, RingMap], ...]):
        if not terms:
            raise ValueError("empty combination; use lin_comb()")
        twist = terms[0][1].twist
        for coeff, der in terms:
            if der.role != "derivation":
                raise ValueError(f"{der.describe()} is not a derivation")
            if der.twist != twist:
                raise ValueError("combined derivations must share one twist")
            if not coeff.is_central() or twist(coeff) != coeff:
                raise NotInF(f"coefficient {coeff} is not central and fixed")
        self._set(terms)

    @property
    def twist(self):
        return self.terms[0][1].twist

    def __call__(self, r):
        out = None
        for coeff, der in self.terms:
            part = coeff * der(r)
            out = part if out is None else out + part
        return out

    def describe(self):
        inner = ", ".join(f"({c})*{d.describe()}" for c, d in self.terms)
        return f"lin_comb({inner})"

    def to_data(self):
        return {
            "kind": "lin_comb",
            "terms": [{"coeff": str(c), "der": d.to_data()}
                      for c, d in self.terms],
        }


def zero_der(twist: RingMap | None = None) -> ZeroDer:
    return ZeroDer(twist if twist is not None else IdentityAut())


def lin_comb(pairs, twist: RingMap | None = None) -> RingMap:
    """Build a combined derivation in collapsed form.

    Nested combinations are flattened, coefficients of repeated base
    derivations are summed, vanishing terms are dropped, and a single
    unit-coefficient term collapses to the underlying derivation -- so
    mixing with zero coefficients (or mixing and then unmixing) returns the
    input descriptors unchanged.
    """
    entries: list[list] = []  # [coefficient, base derivation], input order

    def absorb(coeff, der):
        nonlocal twist
        if twist is None:
            twist = der.twist
        if isinstance(der, ZeroDer) or coeff.is_zero():
            return
        if isinstance(der, LinComb):
            for inner_coeff, inner_der in der.terms:
                absorb(coeff * inner_coeff, inner_der)
            return
        for entry in entries:
            if entry[1] == der:
                entry[0] = entry[0] + coeff
                return
        entries.append([coeff, der])

    for coeff, der in pairs:
        absorb(coeff, der)
    kept = [(coeff, der) for coeff, der in entries if not coeff.is_zero()]
    if not kept:
        return zero_der(twist)
    if len(kept) == 1 and kept[0][0] == kept[0][0].domain.one():
        return kept[0][1]
    return LinComb(tuple(kept))


def is_automorphism(m) -> bool:
    return getattr(m, "role", "") == "automorphism"


def is_derivation(m) -> bool:
    return getattr(m, "role", "") == "derivation"


def apply_power(m: RingMap, r: Scalar, k: int) -> Scalar:
    for _ in range(k):
        r = m(r)
    return r


# ---------------------------------------------------------------------------
# law checking: ring laws decided on the generators of D, tuple laws on
# seeded samples
# ---------------------------------------------------------------------------

class CheckRecord(Value):
    """Outcome of one law check: sampled failures plus an analytic verdict.

    ``analytic`` is True for a proof and False for a refutation.  None means
    undecided for a ring law (a map outside the constructor family, or a
    pair of derivations the rules leave open) and sampled for a tuple
    record.  A record with no samples passes only on a proof.
    """

    __slots__ = ("law", "samples", "failures", "analytic")
    to_data = Value._data

    def __init__(self, law, samples, failures, analytic=None):
        self._set(law, samples, failures, analytic)

    @property
    def ok(self) -> bool:
        return (self.failures == 0 and self.analytic is not False
                and (self.samples > 0 or self.analytic is True))


class Certificate(Value):
    """The law checks of a ring or a tuple; it passes when every one does."""

    __slots__ = ("records", "ok")  # the verdict of the frozen records
    _fields = ("records",)

    def __init__(self, records: tuple[CheckRecord, ...]):
        self._set(records, all(r.ok for r in records))

    def to_data(self) -> list:
        return [r.to_data() for r in self.records]


@lru_cache(maxsize=None)
def sample_scalars(domain: type[Scalar], seed: int, count: int):
    """The shared deterministic sample pool used by all law checks."""
    rng = random.Random(seed)
    return tuple(domain.random(rng) for _ in range(count))


def check_sample_count(samples: int) -> None:
    """Refuse a sample count that would let a sampled check pass vacuously
    (below 1) or run and keep its pool without bound (above MAX_SAMPLES)."""
    if samples < 1:
        raise ValueError(f"law checks need at least one sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"law checks take at most {MAX_SAMPLES} samples, got {samples}")


_AUTOMORPHISMS = (IdentityAut, InnerAut, QShiftAut)


def _built(m) -> bool:
    """Whether the constructor family built ``m``, twists and terms
    included; each derivation it builds is a ``twist``-derivation."""
    if type(m) is LinComb:
        return all(_built(d) for _, d in m.terms)
    if type(m) in (ZeroDer, DdxDer, InnerDer, QDiffDer):
        return type(m.twist) in _AUTOMORPHISMS
    return type(m) in _AUTOMORPHISMS


@lru_cache(maxsize=None)
def _points(domain) -> tuple:
    """The generators of ``domain`` as a division ring over Q, or 1 for Q.
    Where two automorphisms agree, or a twisted derivation vanishes, is a
    division subring, so a law of those forms holds on D when it holds
    here; and every map is applied to a scalar of ``domain``."""
    if domain is QX:
        return (QX.x(),)
    if domain is HQ:
        return (HQ.i(), HQ.j())
    return (domain.one(),)


def _composites_agree(points, m1, m2) -> bool:
    return all(m1(m2(r)) == m2(m1(r)) for r in points)


def _vanishes(points, der) -> bool:
    return all(der(r).is_zero() for r in points)


def _leibniz(domain, aut, der):
    """A twist-derivation is an aut-derivation iff it vanishes or aut is its
    twist; None for a map outside the family."""
    if not (is_automorphism(aut) and is_derivation(der)
            and _built(aut) and _built(der)):
        return None
    points = _points(domain)
    vanishes = _vanishes(points, der)  # applies der even when aut is its twist
    return all(aut(r) == der.twist(r) for r in points) or vanishes


def _commutes(domain, m1, m2):
    """Whether ``m1`` and ``m2`` commute on D, None when undecided."""
    if not (_built(m1) and _built(m2)):
        return None
    if is_automorphism(m2):
        m1, m2 = m2, m1
    points = _points(domain)
    if not _composites_agree(points, m1, m2):
        return False  # a generator is a witness
    if is_automorphism(m2) or _vanishes(points, m2):
        return True
    if is_automorphism(m1):
        # when s commutes with d's twist t, E = s d - d s has
        # E(ab) = t s(a) E(b) + E(a) s(b); a non-zero d commuting with s
        # forces s t = t s
        return _composites_agree(points, m1, m2.twist)
    if m1 == m2 or _vanishes(points, m1):
        return True
    # [d1, d2] is a t1 t2-derivation when each twist commutes with the other
    # twist and the other derivation; otherwise the pair is undecided
    t1, t2 = m1.twist, m2.twist
    return (_composites_agree(points, t1, t2) and _commutes(domain, t1, m2)
            and _commutes(domain, t2, m1)) or None


def derivation_record(domain, aut, der, samples=DEFAULT_SAMPLES,
                      seed=DEFAULT_SEED) -> CheckRecord:
    """Twisted Leibniz rule and additivity of ``der``, decided on the
    generators of ``domain``; ``samples`` and ``seed`` are not read."""
    return CheckRecord("twisted-leibniz", 0, 0, _leibniz(domain, aut, der))


def commutation_record(domain, m1, m2, samples=DEFAULT_SAMPLES,
                       seed=DEFAULT_SEED) -> CheckRecord:
    """Whether ``m1`` and ``m2`` commute, decided on the generators of
    ``domain``; ``samples`` and ``seed`` are not read."""
    return CheckRecord(f"commute({m1.describe()}, {m2.describe()})", 0, 0,
                       _commutes(domain, m1, m2))


# ---------------------------------------------------------------------------
# the central fixed subfield F
# ---------------------------------------------------------------------------

def in_fixed_subfield(domain, maps, e: Scalar) -> bool:
    """Exact membership in Z(D), fixed by the automorphisms, killed by the
    derivations among ``maps``."""
    if not e.is_central():
        return False
    for m in maps:
        if is_automorphism(m):
            if m(e) != e:
                return False
        elif is_derivation(m):
            if not m(e).is_zero():
                return False
        else:
            raise ValueError(f"not a ring map: {m!r}")
    return True


def require_in_fixed_subfield(domain, maps, e: Scalar) -> Scalar:
    if not in_fixed_subfield(domain, maps, e):
        raise NotInF(f"{e} is not central, fixed and killed by the tower maps")
    return e


def central_fixed_stream(domain, maps):
    """Distinct verified elements of F in the order 0, 1, -1, 2, -2, ...

    Candidates come from the prime subfield; any candidate failing the exact
    verification is skipped.  A long run of consecutive failures raises
    ``ExhaustedCandidates`` (defensive; the three supported rings always
    admit the integers).
    """
    maps = tuple(maps)
    misses = 0
    for n in itertools.count():
        for value in ((0,) if n == 0 else (n, -n)):
            e = domain.from_int(value)
            if in_fixed_subfield(domain, maps, e):
                misses = 0
                yield e
            else:
                misses += 1
                if misses > 1000:
                    raise ExhaustedCandidates(
                        "no verified candidates among 1000 consecutive integers"
                    )
