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
way a record's ``samples`` is the size of the pool the law is stated over,
the ambient ring's ``samples``; only a sampled law draws it, with ``seed``.
"""

from __future__ import annotations

from collections import Counter

from .errors import CertificateFailed, RingMismatch, TwistMismatch
from .maps import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Certificate,
    CheckRecord,
    LinComb,
    RingMap,
    in_fixed_subfield,
    lin_comb,
    require_in_fixed_subfield,
    sample_scalars,
)
from .ore import OreRing, SkewPoly
from .values import Record


class AutomorphicTuple(Record):
    """Elements of an ambient ring with their claimed twists and the
    certificate that they behave like variables."""

    __slots__ = ("ambient", "elements", "twists", "certificate")

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


def _automorphic_record(ambient, s, aut, der, law) -> CheckRecord:
    """The law ``s*r = aut(r)*s + der(r)`` over the ambient sample pool.  A
    linear form whose combined derivation is ``der`` up to the order of its
    terms satisfies it for every r, so it is proved and draws no pool; every
    other element counts the samples on which operator products break it."""
    pairs = _linear_form(ambient, s, aut)
    if pairs is not None:
        combined = lin_comb(pairs, twist=aut)
        same = (Counter(combined.terms) == Counter(der.terms)
                if isinstance(combined, LinComb) and isinstance(der, LinComb)
                else combined == der)
        if same:
            ambient._require_certificate("multiplication")
            return CheckRecord(law, ambient.samples, 0, True)
    pool = sample_scalars(ambient.domain, ambient.seed, ambient.samples)
    failures = sum(s * ambient.constant(r)
                   != s.scale_left(aut(r)) + ambient.constant(der(r))
                   for r in pool)
    return CheckRecord(law, len(pool), failures)


def certify_tuple(ambient: OreRing, elements, twists) -> AutomorphicTuple:
    """Build a tuple and record its commutation / automorphic-law checks;
    only sampled laws draw their pool, with ``ambient.samples`` and
    ``ambient.seed``."""
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
    for idx, (s, (aut, der)) in enumerate(zip(elements, twists)):
        records.append(_automorphic_record(ambient, s, aut, der,
                                           f"automorphic(s{idx + 1})"))
    return AutomorphicTuple(ambient, elements, twists,
                            Certificate(tuple(records)))


def evaluate(f: SkewPoly, tup: AutomorphicTuple) -> SkewPoly:
    """Substitute the tuple for the variables: sum of b_I s_1^{i_1}...s_n^{i_n}.

    This is the ring homomorphism of the certified tuple; it requires the
    polynomial's ring twists to match the tuple's claimed twists exactly.
    Its only products are by the s_i: no product by one starts a term.
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
    ambient._require_certificate("multiplication")  # as a product would
    powers = [[s] for s in tup.elements]  # powers[i][e - 1] = s_i^e

    out = ambient.zero()
    for exps, b in f.terms.items():
        term = None
        for chain, s, e in zip(powers, tup.elements, exps):
            while len(chain) < e:
                chain.append(chain[-1] * s)
            if e:
                term = chain[e - 1] if term is None else term * chain[e - 1]
        out = out + (ambient.constant(b) if term is None
                     else term.scale_left(b))
    return out


def mix_derivations(domain, ders, coeffs,
                    samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> list[RingMap]:
    """d_i = der_i + a_i * der_n for i < n, d_n = der_n, with each a_i from F.

    The outputs are certified by the ring their tower defines: twisted
    Leibniz for every d_i and commutation of every pair of maps of distinct
    variables.  ``CertificateFailed`` names the first law that fails.
    """
    ders = list(ders)
    coeffs = list(coeffs)
    if len(coeffs) != len(ders) - 1:
        raise ValueError("need one coefficient per derivation except the last")
    twists = {d.twist for d in ders}
    if len(twists) != 1:
        raise ValueError("derivations must share one paired automorphism")
    (aut,) = twists
    one = domain.one()
    mixed = []
    for der, a in zip(ders[:-1], coeffs):
        require_in_fixed_subfield(domain, [aut, *ders], a)
        mixed.append(lin_comb([(one, der), (a, ders[-1])], twist=aut))
    mixed.append(ders[-1])
    tower = OreRing(domain, [(f"d{i + 1}", aut, d)
                             for i, d in enumerate(mixed)],
                    samples=samples, seed=seed)
    for record in tower.certificate.records:
        if not record.ok:
            raise CertificateFailed(f"mixed derivations fail {record.law}")
    return mixed


def mix_elements(tup: AutomorphicTuple, coeffs) -> AutomorphicTuple:
    """u_i = s_i + a_i * s_n for i < n, u_n = s_n, re-certified against the
    mixed derivations with the settings of ``tup.ambient``."""
    coeffs = list(coeffs)
    auts = {a for a, _ in tup.twists}
    if len(auts) != 1:
        raise ValueError("mixing requires a shared automorphism")
    ambient = tup.ambient
    mixed_ders = mix_derivations(ambient.domain, [d for _, d in tup.twists],
                                 coeffs, ambient.samples, ambient.seed)
    aut = next(iter(auts))
    last = tup.elements[-1]
    elements = [s + last.scale_left(a)
                for s, a in zip(tup.elements[:-1], coeffs)]
    elements.append(last)
    out = certify_tuple(ambient, elements, [(aut, d) for d in mixed_ders])
    if not out.certificate.ok:
        raise CertificateFailed(
            "mixed tuple failed certification; an upstream hypothesis "
            "(commuting derivations or F-membership) does not hold"
        )
    return out
