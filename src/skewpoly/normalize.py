"""Monicization and the constructive normalization chain.

``monicize`` makes a non-zero relation monic in a chosen variable through a
central linear change of variables ``y_k -> y_k + u_k * y_m`` and a left
scale; the shifts come from the central fixed subfield and are found by
the witness search's coordinate-by-coordinate specialization of the
relation's leading form (a non-zero left polynomial of degree d has at most
d central roots, so d+1 candidates per coordinate always suffice).

``normalize`` iterates this: each witness relation is re-expressed through
the accumulated substitutions, reduced by the accumulated monic relations,
and then used to eliminate the current last variable, producing a chain of
monic relations that certifies left-module-finiteness over the residual
variables.  Witness relations are inputs; the tool never searches for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import (
    IncompatibleMaps,
    NotAWitness,
    RingMismatch,
    SearchExhausted,
    SkewError,
    ZeroPolynomial,
)
from .evaluation import certify_tuple, evaluate
from .maps import central_fixed_stream, lin_comb
from .nullstellensatz import nonvanishing_points
from .ore import Flavor, OreRing, SkewPoly, Variable, reinterpret
from .scalars import Scalar


@dataclass(frozen=True, eq=False)
class Substitution:
    """The change of variables of one monicization.

    ``shifts`` holds u_k for the non-target variables in variable order;
    ``scale`` is the left factor a = leading_value^-1 with leading_value =
    h(u) recorded for audit.
    """

    target: int
    shifts: tuple[Scalar, ...]
    scale: Scalar
    leading_value: Scalar

    def to_data(self, names) -> dict:
        return {
            "target": self.target,
            "shifts": [str(u) for u in self.shifts],
            "scale": str(self.scale),
            "leading_value": str(self.leading_value),
            "eliminated": names[self.target],
        }


@dataclass(frozen=True, eq=False)
class MonicRelation:
    """t^m + eps_1 t^{m-1} + ... + eps_m = 0, leading coefficient exactly 1.

    The tails eps_j live in ``ring`` with zero degree in ``var``.
    """

    ring: OreRing
    var: int
    degree: int
    tails: tuple[SkewPoly, ...]

    def __post_init__(self):
        if self.degree < 1 or len(self.tails) != self.degree:
            raise ValueError("need exactly `degree` tail coefficients")
        for t in self.tails:
            if t.ring != self.ring:
                raise RingMismatch("tails must live in the relation's ring")
            if t.degree_in(self.var) > 0:
                raise ValueError("tails must not involve the monic variable")

    @classmethod
    def read(cls, poly: SkewPoly, var: int) -> "MonicRelation":
        """The relation ``poly = 0``, whose leading coefficient in ``var``
        must be exactly 1."""
        ring = poly.ring
        m = poly.degree_in(var)
        if m < 1:
            raise SkewError("the relation must involve the monic variable")
        buckets = poly.split_by_var(var)
        top = buckets[m]
        if top != ring.one():
            raise SkewError(
                f"relation is not monic in {ring.names[var]!r} "
                f"(leading coefficient {top})"
            )
        tails = tuple(buckets.get(m - j, ring.zero()) for j in range(1, m + 1))
        return cls(ring, var, m, tails)

    def polynomial(self) -> SkewPoly:
        one = self.ring.domain.one()
        n = self.ring.nvars
        out = self.ring.monomial(
            tuple(self.degree if t == self.var else 0 for t in range(n)), one)
        for j, eps in enumerate(self.tails, start=1):
            power = self.ring.monomial(
                tuple(self.degree - j if t == self.var else 0
                      for t in range(n)), one)
            out = out + eps * power
        return out

    def to_data(self) -> dict:
        return {
            "variable": self.ring.names[self.var],
            "degree": self.degree,
            "tails": [t.to_data() for t in self.tails],
        }


@dataclass(frozen=True, slots=True)
class PointSearch:
    point: tuple[Scalar, ...]
    value: Scalar
    specializations: int


def find_nonvanishing_point(h: SkewPoly, stream) -> PointSearch:
    """The first point of C^k, C the first deg(h)+1 stream values, with
    h(point) != 0.  For distinct central candidates the search never
    backtracks, so it makes at most k * (deg(h) + 1) specializations;
    exhaustion is defensive.
    """
    if h.is_zero():
        raise ZeroPolynomial("no non-vanishing point for the zero polynomial")
    candidates = list(islice(stream, h.total_degree() + 1))
    grid = [candidates] * h.ring.nvars
    for indices, value, made in nonvanishing_points(h.terms, grid):
        return PointSearch(tuple(candidates[j] for j in indices), value, made)
    raise SearchExhausted(
        "all candidate specializations vanished (cannot occur for a "
        "non-zero polynomial over an infinite fixed subfield)"
    )


def _require_normalizable(ring: OreRing):
    if ring.flavor is not Flavor.COMMUTING:
        raise ValueError("a commuting-variable ring is required")
    ring._require_certificate("normalization")
    auts = {v.aut for v in ring.variables}
    if len(auts) > 1:
        raise IncompatibleMaps(
            "all variables must share one automorphism for normalization"
        )


def _shift_variables(ring: OreRing, target: int, shifts: dict):
    """The change of variables y_i -> y_i + u_i * y_target for each index i
    of ``shifts`` (u_i = shifts[i] in F): the shifted elements of ``ring``
    and the variables (aut_i, der_i + u_i * der_target) they behave like."""
    one = ring.domain.one()
    y_target = ring.variable(target)
    der_target = ring.variables[target].der
    elements, variables = [], []
    for i, v in enumerate(ring.variables):
        if i in shifts:
            u = shifts[i]
            elements.append(ring.variable(i) + y_target.scale_left(u))
            variables.append(Variable(v.name, v.aut, lin_comb(
                [(one, v.der), (u, der_target)], twist=v.aut)))
        else:
            elements.append(ring.variable(i))
            variables.append(v)
    return elements, variables


def monicize(f: SkewPoly,
             target: int | None = None) -> tuple[Substitution, SkewPoly]:
    """Monic-in-``target`` form of a non-zero relation.

    Returns the substitution data and g = a * f(..., y_k + u_k y_target, ...)
    whose ``target`` degree equals deg(f) with leading coefficient exactly 1.
    Certification uses the settings of ``f.ring``.
    """
    ring = f.ring
    _require_normalizable(ring)
    if f.is_zero():
        raise ZeroPolynomial("cannot monicize the zero polynomial")
    degree = f.total_degree()
    if degree < 1:
        raise ValueError("a non-constant relation is required")
    if target is None:
        target = ring.nvars - 1
    if not 0 <= target < ring.nvars:
        raise ValueError(f"no variable with index {target}")

    h = f.leading_form(target)
    stream = central_fixed_stream(ring.domain, ring.tower_maps())
    search = find_nonvanishing_point(h, stream)
    scale = search.value.inv()

    others = [i for i in range(ring.nvars) if i != target]
    elements, variables = _shift_variables(
        ring, target, dict(zip(others, search.point)))
    mixed_ring = ring.with_variables(variables)
    tup = certify_tuple(ring, elements, mixed_ring.twists())
    g = evaluate(reinterpret(f, mixed_ring), tup).scale_left(scale)

    top = tuple(degree if t == target else 0 for t in range(ring.nvars))
    if g.degree_in(target) != degree or g.coeff(top) != ring.domain.one():
        raise SkewError(
            "internal error: monicization postcondition failed"
        )
    return Substitution(target, search.point, scale, search.value), g


@dataclass(frozen=True, eq=False)
class NormalizationStep:
    """One eliminated variable: the substitution, the new presentation's
    (aut, der) tower, and the monic relation the variable satisfies."""

    substitution: Substitution
    tower: tuple
    relation: MonicRelation

    def to_data(self) -> dict:
        return {
            "substitution": self.substitution.to_data(self.relation.ring.names),
            "mixed_derivations": [
                {"name": name, "aut": aut.to_data(), "der": der.to_data()}
                for name, (aut, der) in zip(self.relation.ring.names,
                                            self.tower)
            ],
            "monic_relation": self.relation.to_data(),
        }


def normalize_step(f: SkewPoly) -> NormalizationStep:
    """Eliminate the last variable using the witness relation ``f``.

    Monicizes f in the last variable, forms the new variables
    t_k = y_k - u_k y_n with the mixed tower (aut, der_k - u_k der_n), reads
    the monic relation off g, and asserts the replay identity
    g(t_1, ..., t_n) = a*f exactly.  The mixed tower is certified by the
    ring it defines (Leibniz per derivation, commutation of every pair of
    maps); normalization is refused when that certificate fails.
    Certification uses the settings of ``f.ring``.
    """
    ring = f.ring
    target = ring.nvars - 1
    sub, g = monicize(f, target)

    t_elements, variables = _shift_variables(
        ring, target, {i: -u for i, u in enumerate(sub.shifts)})
    new_ring = ring.with_variables(variables)
    new_ring._require_certificate("normalization")

    g = reinterpret(g, new_ring)
    relation = MonicRelation.read(g, target)
    replay_tup = certify_tuple(ring, t_elements, new_ring.twists())
    if evaluate(g, replay_tup) != f.scale_left(sub.scale):
        raise SkewError("internal error: replay identity g(t) = a*f failed")
    return NormalizationStep(sub, new_ring.twists(), relation)


def divmod_by_monic(e: SkewPoly, rel: MonicRelation) -> tuple[SkewPoly, SkewPoly]:
    """Left division by the monic relation: e = q * rel.polynomial() + r with
    the remainder's degree in the monic variable below rel.degree."""
    if e.ring != rel.ring:
        raise RingMismatch("element and relation live in different rings")
    rho = rel.polynomial()
    v, m = rel.var, rel.degree
    q = e.ring.zero()
    r = e
    while True:
        k = r.degree_in(v)
        if k < m:
            break
        top = {
            exp[:v] + (k - m,) + exp[v + 1:]: c
            for exp, c in r.terms.items() if exp[v] == k
        }
        quo = SkewPoly(e.ring, top)
        r = r - quo * rho
        q = q + quo
        if r.degree_in(v) >= k:
            raise SkewError("internal error: reduction did not lower degree")
    return q, r


def reduce_by_monic(e: SkewPoly, rel: MonicRelation) -> SkewPoly:
    """Remainder of ``e`` modulo the left ideal of the monic relation."""
    return divmod_by_monic(e, rel)[1]


@dataclass(frozen=True, eq=False)
class NormalizationResult:
    """The replayable chain: one step per eliminated variable, the final
    presentation ring, and the relations re-expressed in it."""

    ring: OreRing
    steps: tuple[NormalizationStep, ...]
    presentation: OreRing
    relations: tuple[MonicRelation, ...]
    skipped: tuple[tuple[int, str], ...]

    @property
    def residual_variables(self) -> tuple[str, ...]:
        keep = self.ring.nvars - len(self.steps)
        return self.presentation.names[:keep]

    @property
    def generator_bounds(self) -> tuple[int, ...]:
        """Module-generator exponent bound per eliminated variable."""
        return tuple(s.relation.degree for s in self.steps)

    def to_data(self) -> dict:
        return {
            "steps": [s.to_data() for s in self.steps],
            "residual_variables": list(self.residual_variables),
            "generator_bounds": list(self.generator_bounds),
            "skipped": [{"relation": i, "reason": why}
                        for i, why in self.skipped],
        }


def normalize(ring: OreRing, relations) -> NormalizationResult:
    """Run the normalization chain over the witness relations, in order.

    Each relation is re-expressed through the accumulated substitutions and
    reduced by the accumulated monic relations.  A relation that vanishes is
    reported and skipped; one that still involves an eliminated variable
    violates the witness precondition and raises ``NotAWitness``.  Every
    ring of the chain is derived from ``ring`` and keeps its settings; a
    step that shifts nothing reuses its ring, and until a step shifts a
    variable, nothing is substituted: relations, ``exprs`` and tails are
    read in the new presentation as they are.
    """
    _require_normalizable(ring)
    presentation = ring
    active = ring.nvars
    exprs = [presentation.variable(i) for i in range(ring.nvars)]
    rels: list[MonicRelation] = []
    steps: list[NormalizationStep] = []
    skipped: list[tuple[int, str]] = []

    shifted = False  # whether any step so far shifted a variable
    for index, f in enumerate(relations):
        if f.ring != ring:
            raise RingMismatch("relations must live in the input ring")
        if shifted:  # a step shifts coordinates even where the tower stays
            w = evaluate(f, certify_tuple(presentation, exprs, ring.twists()))
        else:  # exprs are presentation's own variables
            w = reinterpret(f, presentation)
        for rel in reversed(rels):
            w = reduce_by_monic(w, rel)
        if w.is_zero():
            skipped.append((index, "vanished after substitution and reduction"))
            continue
        if active == 0 or any(any(e[active:]) for e in w.terms):
            raise NotAWitness(
                f"relation {index} still involves eliminated variables "
                "after reduction"
            )
        step = normalize_step(reinterpret(
            w, presentation.with_variables(presentation.variables[:active])))
        steps.append(step)

        step_ring = step.relation.ring
        new_presentation = step_ring.with_variables(
            step_ring.variables + presentation.variables[active:])
        shifts = step.substitution.shifts
        if any(not u.is_zero() for u in shifts):
            shifted = True
            # the derivations of the shifted variables are presentation's up
            # to the order of LinComb terms, so the push claims
            # presentation's own
            push_elements, _ = _shift_variables(
                new_presentation, active - 1, dict(enumerate(shifts)))
            tup = certify_tuple(new_presentation, push_elements,
                                presentation.twists())

            def push(e):
                return evaluate(e, tup)
        else:  # every shift is zero: each variable is pushed to itself
            def push(e):
                return reinterpret(e, new_presentation)
        exprs = [push(e) for e in exprs]
        pushed = [
            MonicRelation(new_presentation, r.var, r.degree,
                          tuple(push(t) for t in r.tails))
            for r in rels
        ]
        new_rel = MonicRelation(
            new_presentation, step.relation.var, step.relation.degree,
            tuple(reinterpret(t, new_presentation)
                  for t in step.relation.tails))
        rels = pushed + [new_rel]
        presentation = new_presentation
        active -= 1

    return NormalizationResult(ring, tuple(steps), presentation,
                               tuple(rels), tuple(skipped))
