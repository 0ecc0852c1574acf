"""Automorphic elements, evaluation homomorphisms and derivation mixing.

An *automorphic tuple* is a family of commuting ring elements, each of which
commutes past scalars the way a fresh variable would: ``s*r = aut(r)*s +
der(r)``.  Substituting such a tuple for the variables is then a ring
homomorphism fixing the scalars, which is what makes the monicization
change of variables work.

Certificates are checked on construction: element commutation is an exact
polynomial identity, and each automorphic law has one certifier.  An
F-linear combination of the variables whose combined derivation is the
claimed one is proved (``analytic`` True, no sample compared); every other
element is checked by operator products on seeded scalar samples.  Either
way a record's ``samples`` is the size of the pool the law is stated over.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import CertificateFailed, RingMismatch, TwistMismatch
from .maps import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Certificate,
    CheckRecord,
    LinComb,
    RingMap,
    check_sample_count,
    commutation_record,
    derivation_record,
    in_fixed_subfield,
    lin_comb,
    require_in_fixed_subfield,
    sample_scalars,
)
from .ore import OreRing, SkewPoly


@dataclass(frozen=True, eq=False)
class AutomorphicTuple:
    """Elements of an ambient ring with their claimed twists and the
    certificate that they behave like variables."""

    ambient: OreRing
    elements: tuple[SkewPoly, ...]
    twists: tuple[tuple[RingMap, RingMap], ...]
    certificate: Certificate

    def __len__(self):
        return len(self.elements)


def _linear_form(ambient: OreRing, s: SkewPoly, claimed_aut: RingMap):
    """The pairs (c_j, der_j) of ``s = sum c_j y_j`` when each c_j lies in F
    and every variable is twisted by ``claimed_aut``, else None.  Such an
    ``s`` satisfies ``s*r - claimed_aut(r)*s = (sum c_j der_j)(r)``."""
    if any(v.aut != claimed_aut or getattr(v.der, "twist", None) != claimed_aut
           for v in ambient.variables):
        return None
    maps = ambient.tower_maps()
    pairs = []
    for e, c in s.terms.items():
        if sum(e) != 1 or not in_fixed_subfield(ambient.domain, maps, c):
            return None
        pairs.append((c, ambient.variables[e.index(1)].der))
    return pairs


def _automorphic_record(ambient, s, aut, der, pool, law) -> CheckRecord:
    """The law ``s*r = aut(r)*s + der(r)`` over ``pool``.  A linear form whose
    combined derivation is ``der`` up to the order of its terms satisfies it
    for every r, so it is proved and no sample is compared; every other
    element counts the samples on which operator products break it."""
    pairs = _linear_form(ambient, s, aut)
    if pairs is not None:
        combined = lin_comb(pairs, twist=aut)
        same = (Counter(combined.terms) == Counter(der.terms)
                if isinstance(combined, LinComb) and isinstance(der, LinComb)
                else combined == der)
        if same:
            ambient._require_certificate("multiplication")
            return CheckRecord(law, len(pool), 0, True)
    failures = sum(s * ambient.constant(r)
                   != s.scale_left(aut(r)) + ambient.constant(der(r))
                   for r in pool)
    return CheckRecord(law, len(pool), failures)


def certify_tuple(ambient: OreRing, elements, twists,
                  samples: int = DEFAULT_SAMPLES,
                  seed: int = DEFAULT_SEED) -> AutomorphicTuple:
    """Build a tuple and record its commutation / automorphic-law checks."""
    check_sample_count(samples)
    elements = tuple(elements)
    twists = tuple((a, d) for a, d in twists)
    if len(elements) != len(twists):
        raise ValueError("one (aut, der) pair is needed per element")
    for s in elements:
        if s.ring != ambient:
            raise RingMismatch("tuple elements must live in the ambient ring")
    records = []
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            equal = (elements[i] * elements[j] == elements[j] * elements[i])
            records.append(CheckRecord(f"commute(s{i + 1}, s{j + 1})",
                                       1, 0 if equal else 1))
    pool = sample_scalars(ambient.domain, seed, samples)
    for idx, (s, (aut, der)) in enumerate(zip(elements, twists)):
        records.append(_automorphic_record(ambient, s, aut, der, pool,
                                           f"automorphic(s{idx + 1})"))
    return AutomorphicTuple(ambient, elements, twists,
                            Certificate(tuple(records)))


def evaluate(f: SkewPoly, tup: AutomorphicTuple) -> SkewPoly:
    """Substitute the tuple for the variables: sum of b_I s_1^{i_1}...s_n^{i_n}.

    This is the ring homomorphism of the certified tuple; it requires the
    polynomial's ring twists to match the tuple's claimed twists exactly.
    """
    if not tup.certificate.ok:
        raise CertificateFailed("tuple certificate did not pass")
    if f.ring.nvars != len(tup.elements):
        raise TwistMismatch("variable count differs from tuple length")
    if f.ring.domain is not tup.ambient.domain:
        raise RingMismatch("scalar domains differ")
    if f.ring.twists() != tup.twists:
        raise TwistMismatch(
            "polynomial ring twists differ from the tuple's claimed twists"
        )
    ambient = tup.ambient
    powers: list[dict] = [{0: ambient.one()} for _ in tup.elements]

    def power(i: int, e: int) -> SkewPoly:
        cache = powers[i]
        while e not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * tup.elements[i]
        return cache[e]

    out = ambient.zero()
    for exps, b in f.terms.items():
        term = ambient.one()
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        out = out + term.scale_left(b)
    return out


def mix_derivations(domain, ders, coeffs,
                    samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> list[RingMap]:
    """d_i = der_i + a_i * der_n for i < n, d_n = der_n, with each a_i from F.

    The outputs are certified: twisted Leibniz for every d_i, commutation
    with the shared automorphism, and pairwise commutation.
    """
    ders = list(ders)
    coeffs = list(coeffs)
    if len(coeffs) != len(ders) - 1:
        raise ValueError("need one coefficient per derivation except the last")
    twists = {d.twist for d in ders}
    if len(twists) != 1:
        raise ValueError("derivations must share one paired automorphism")
    (aut,) = twists
    fmaps = [aut, *ders]
    one = domain.one()
    mixed = []
    for der, a in zip(ders[:-1], coeffs):
        require_in_fixed_subfield(domain, fmaps, a)
        mixed.append(lin_comb([(one, der), (a, ders[-1])], twist=aut))
    mixed.append(ders[-1])
    for i, d in enumerate(mixed):
        if not derivation_record(domain, aut, d, samples, seed).ok:
            raise CertificateFailed(f"mixed map d{i + 1} fails the Leibniz law")
        if not commutation_record(domain, aut, d, samples, seed).ok:
            raise CertificateFailed(f"d{i + 1} does not commute with the twist")
        for j in range(i):
            if not commutation_record(domain, mixed[j], d, samples, seed).ok:
                raise CertificateFailed(f"d{j + 1} and d{i + 1} do not commute")
    return mixed


def mix_elements(tup: AutomorphicTuple, coeffs,
                 samples: int = DEFAULT_SAMPLES,
                 seed: int = DEFAULT_SEED) -> AutomorphicTuple:
    """u_i = s_i + a_i * s_n for i < n, u_n = s_n, re-certified against the
    mixed derivations."""
    coeffs = list(coeffs)
    auts = {a for a, _ in tup.twists}
    if len(auts) != 1:
        raise ValueError("mixing requires a shared automorphism")
    mixed_ders = mix_derivations(tup.ambient.domain,
                                 [d for _, d in tup.twists], coeffs,
                                 samples, seed)
    aut = next(iter(auts))
    last = tup.elements[-1]
    elements = [s + last.scale_left(a)
                for s, a in zip(tup.elements[:-1], coeffs)]
    elements.append(last)
    out = certify_tuple(tup.ambient, elements,
                        [(aut, d) for d in mixed_ders], samples, seed)
    if not out.certificate.ok:
        raise CertificateFailed(
            "mixed tuple failed certification; an upstream hypothesis "
            "(commuting derivations or F-membership) does not hold"
        )
    return out
