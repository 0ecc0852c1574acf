"""Symbolic automorphisms and twisted derivations of the coefficient rings.

Maps form a closed constructor family so that application is exact and the
map laws (homomorphism, twisted Leibniz rule, commutation) are decidable for
the built-in constructors and checkable on seeded samples for everything
else.  A derivation always carries the automorphism it is twisted by, and
maps are applied by calling them: ``der(r)``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import ExhaustedCandidates, NotInF, UnsupportedRing
from .scalars import RationalFunction, Scalar, ScalarDomain

DEFAULT_SEED = 12345
DEFAULT_SAMPLES = 64


class RingMap:
    """Base class; concrete maps are immutable dataclasses."""

    role = ""

    def __call__(self, r: Scalar) -> Scalar:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_data(self) -> dict:
        """Tagged descriptor; a derivation's paired automorphism is carried
        by the variable it belongs to."""
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


def _expect(r, cls, what):
    if not isinstance(r, cls):
        raise UnsupportedRing(f"{what} is not defined on {type(r).__name__}")


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IdentityAut(RingMap):
    role = "automorphism"

    def __call__(self, r):
        return r

    def describe(self):
        return "id"

    def to_data(self):
        return {"kind": "identity"}


@dataclass(frozen=True, slots=True)
class InnerAut(RingMap):
    """Conjugation r -> c r c^-1 by a non-central witness c."""

    c: Scalar
    c_inv: Scalar = field(init=False, repr=False, compare=False)
    role = "automorphism"

    def __post_init__(self):
        if self.c.is_zero():
            raise ValueError("inner automorphism needs a non-zero witness")
        if self.c.is_central():
            raise ValueError(
                "central witness gives the identity; use inner_aut()"
            )
        object.__setattr__(self, "c_inv", self.c.inv())

    def __call__(self, r):
        _expect(r, type(self.c), "this inner automorphism")
        return self.c * r * self.c_inv

    def describe(self):
        return f"inner_aut({self.c})"

    def to_data(self):
        return {"kind": "inner_aut", "c": str(self.c)}


@dataclass(frozen=True, slots=True)
class QShiftAut(RingMap):
    """On Q(x): f(x) -> f(q*x) for a non-zero rational q != 1."""

    q: Fraction
    role = "automorphism"

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
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

@dataclass(frozen=True, slots=True)
class ZeroDer(RingMap):
    twist: RingMap = field(default_factory=IdentityAut)
    role = "derivation"

    def __call__(self, r):
        return r.domain.zero()

    def describe(self):
        return "zero"

    def to_data(self):
        return {"kind": "zero"}


@dataclass(frozen=True, slots=True)
class DdxDer(RingMap):
    """d/dx on Q(x); an identity-twisted derivation."""

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


@dataclass(frozen=True, slots=True)
class InnerDer(RingMap):
    """r -> c*r - twist(r)*c, a twist-derivation for any c."""

    c: Scalar
    twist: RingMap
    role = "derivation"

    def __call__(self, r):
        _expect(r, type(self.c), "this inner derivation")
        return self.c * r - self.twist(r) * self.c

    def describe(self):
        return f"inner_der({self.c}; {self.twist.describe()})"

    def to_data(self):
        return {"kind": "inner_der", "c": str(self.c)}


@dataclass(frozen=True, slots=True)
class QDiffDer(RingMap):
    """q-difference quotient f -> (f(qx) - f(x)) / (qx - x) on Q(x)."""

    shift: QShiftAut
    step_inv: RationalFunction = field(init=False, repr=False, compare=False)
    role = "derivation"

    def __post_init__(self):
        step = RationalFunction.make((Fraction(0), self.shift.q - 1))
        object.__setattr__(self, "step_inv", step.inv())

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


@dataclass(frozen=True, slots=True)
class LinComb(RingMap):
    """Sum of derivations scaled on the left by central twist-fixed scalars."""

    terms: tuple[tuple[Scalar, RingMap], ...]
    role = "derivation"

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty combination; use lin_comb()")
        twist = self.terms[0][1].twist
        for coeff, der in self.terms:
            if der.role != "derivation":
                raise ValueError(f"{der.describe()} is not a derivation")
            if der.twist != twist:
                raise ValueError("combined derivations must share one twist")
            if not coeff.is_central() or twist(coeff) != coeff:
                raise NotInF(f"coefficient {coeff} is not central and fixed")

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
# law checking: analytic certification for the closed family, seeded
# sampling for every law the family does not prove
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CheckRecord:
    """Outcome of one law check: sampled failures plus an analytic verdict.

    ``analytic`` is True when the constructor family certifies the law,
    False when it refutes it, None when sampling is the only evidence.  A
    record with no samples passes only on an analytic proof.
    """

    law: str
    samples: int
    failures: int
    analytic: bool | None = None

    @property
    def ok(self) -> bool:
        return (self.failures == 0 and self.analytic is not False
                and (self.samples > 0 or self.analytic is True))

    def to_data(self) -> dict:
        return {
            "law": self.law,
            "samples": self.samples,
            "failures": self.failures,
            "analytic": self.analytic,
        }


@dataclass(frozen=True, slots=True)
class Certificate:
    """The law checks of a ring or a tuple; it passes when every one does."""

    records: tuple[CheckRecord, ...]
    ok: bool = field(init=False, repr=False, compare=False)  # frozen records

    def __post_init__(self):
        object.__setattr__(self, "ok", all(r.ok for r in self.records))

    def to_data(self) -> list:
        return [r.to_data() for r in self.records]


@lru_cache(maxsize=None)
def sample_scalars(domain: ScalarDomain, seed: int, count: int):
    """The shared deterministic sample pool used by all law checks."""
    rng = random.Random(seed)
    return tuple(domain.random(rng) for _ in range(count))


def analytic_derivation(aut: RingMap, der: RingMap):
    """True/False when the constructor family decides the Leibniz law."""
    if isinstance(der, ZeroDer):
        return True
    if isinstance(der, DdxDer):
        return True if aut == IdentityAut() else None
    if isinstance(der, InnerDer):
        return True if der.twist == aut else None
    if isinstance(der, QDiffDer):
        return True if der.shift == aut else None
    if isinstance(der, LinComb):
        verdicts = [analytic_derivation(aut, d) for _, d in der.terms]
        fixed = all(c.is_central() and aut(c) == c for c, _ in der.terms)
        if fixed and all(v is True for v in verdicts):
            return True
        return None
    return None


def analytic_commutation(m1: RingMap, m2: RingMap):
    """True/False when commutation of the pair is decidable, else None."""
    if m1 == m2:
        return True
    if isinstance(m1, IdentityAut) or isinstance(m2, IdentityAut):
        return True
    if isinstance(m1, ZeroDer) or isinstance(m2, ZeroDer):
        return True
    if isinstance(m1, QShiftAut) and isinstance(m2, QShiftAut):
        return True
    if isinstance(m1, InnerAut) and isinstance(m2, InnerAut):
        # conjugations compose to conjugation by the product
        a, b = m1.c, m2.c
        return ((a * b) * (b * a).inv()).is_central()
    for der, aut in ((m1, m2), (m2, m1)):
        # s(c r - t(r) c) = c s(r) - t(s(r)) c when s fixes c and st = ts
        if (isinstance(der, InnerDer) and is_automorphism(aut)
                and aut(der.c) == der.c
                and analytic_commutation(aut, der.twist) is True):
            return True
    if isinstance(m2, LinComb):
        m1, m2 = m2, m1
    if isinstance(m1, LinComb) and (is_automorphism(m2) or is_derivation(m2)):
        # m2 fixes each coefficient (a derivation kills it, and its twist
        # fixes it) and commutes with each term
        fixing = (m2, m2.twist) if is_derivation(m2) else (m2,)
        if all(in_fixed_subfield(c.domain, fixing, c)
               and analytic_commutation(d, m2) is True for c, d in m1.terms):
            return True
    return None


def check_sample_count(samples: int) -> None:
    """Refuse a sample count that would let a sampled check pass vacuously."""
    if samples < 1:
        raise ValueError(f"law checks need at least one sample, got {samples}")


def _leibniz_failures(domain, aut, der, samples, seed) -> int:
    """Sampled pairs (a, b) on which ``der`` is not additive or breaks the
    ``aut``-twisted Leibniz rule."""
    pool = sample_scalars(domain, seed, 2 * samples)
    failures = 0
    for a, b in zip(pool[:samples], pool[samples:]):
        da, db = der(a), der(b)
        leibniz = der(a * b) == aut(a) * db + da * b
        additive = der(a + b) == da + db
        if not (leibniz and additive):
            failures += 1
    return failures


def _commutation_failures(domain, m1, m2, samples, seed) -> int:
    """Sampled scalars on which m1 o m2 and m2 o m1 differ."""
    pool = sample_scalars(domain, seed, samples)
    return sum(1 for r in pool if m1(m2(r)) != m2(m1(r)))


def _decide(law, analytic, sampler, domain, m1, m2, samples, seed):
    """Sample only a law the constructor family does not prove.  A proved
    law still applies its maps to one scalar, so a map undefined on
    ``domain`` raises as sampling would."""
    if analytic is True:
        m1(m2(domain.one()))
        return CheckRecord(law, 0, 0, True)
    return CheckRecord(law, samples, sampler(domain, m1, m2, samples, seed),
                       analytic)


def derivation_record(domain, aut, der, samples=DEFAULT_SAMPLES,
                      seed=DEFAULT_SEED) -> CheckRecord:
    """Twisted Leibniz rule and additivity of ``der``, proved or sampled."""
    check_sample_count(samples)
    return _decide("twisted-leibniz", analytic_derivation(aut, der),
                   _leibniz_failures, domain, aut, der, samples, seed)


def commutation_record(domain, m1, m2, samples=DEFAULT_SAMPLES,
                       seed=DEFAULT_SEED) -> CheckRecord:
    """Whether ``m1`` and ``m2`` commute, proved or sampled."""
    check_sample_count(samples)
    return _decide(f"commute({m1.describe()}, {m2.describe()})",
                   analytic_commutation(m1, m2), _commutation_failures,
                   domain, m1, m2, samples, seed)


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
