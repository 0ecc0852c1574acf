"""Monicization and the constructive normalization chain.

``monicize`` makes a non-zero relation monic in a chosen variable through a
central linear change of variables ``y_k -> y_k + u_k * y_m`` and a left
scale; the shifts come from the central fixed subfield and are found by
the witness search's coordinate-by-coordinate specialization of the
relation's leading form (a non-zero left polynomial of degree d has at most
d central roots, so d+1 candidates per coordinate always suffice).

``normalize`` iterates this: the chain's ``reduce`` re-expresses each
witness relation through the accumulated substitutions and divides it by
the accumulated monic relations, oldest first, and the remainder eliminates
the current last variable.  The monic relations certify left-module-
finiteness over the residual variables.  Witness relations are inputs; the
tool never searches for them.
"""

from __future__ import annotations

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
from .values import Record, Value


class Substitution(Record):
    """The change of variables of one monicization.

    ``shifts`` holds u_k for the non-target variables in variable order;
    ``scale`` is the left factor a = leading_value^-1 with leading_value =
    h(u) recorded for audit.
    """

    __slots__ = ("target", "shifts", "scale", "leading_value")

    def __init__(self, target, shifts, scale, leading_value):
        self._set(target, shifts, scale, leading_value)

    def to_data(self, names) -> dict:
        return {
            "target": self.target,
            "shifts": [str(u) for u in self.shifts],
            "scale": str(self.scale),
            "leading_value": str(self.leading_value),
            "eliminated": names[self.target],
        }


class MonicRelation(Record):
    """t^m + eps_1 t^{m-1} + ... + eps_m = 0, leading coefficient exactly 1.

    The tails eps_j live in ``ring`` with zero degree in ``var``.
    """

    __slots__ = ("ring", "var", "degree", "tails")

    def __init__(self, ring, var, degree, tails):
        if degree < 1 or len(tails) != degree:
            raise ValueError("need exactly `degree` tail coefficients")
        for t in tails:
            if t.ring != ring:
                raise RingMismatch("tails must live in the relation's ring")
            if t.degree_in(var) > 0:
                raise ValueError("tails must not involve the monic variable")
        self._set(ring, var, degree, tails)

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
        """The relation's polynomial, written down rather than multiplied:
        the variables fix each other and no tail involves t, so
        eps_j * t^(m-j) is eps_j with m - j in t's slot."""
        self.ring._require_certificate("multiplication")  # as a product would
        v, m = self.var, self.degree
        return SkewPoly(self.ring, {
            e[:v] + (m - j,) + e[v + 1:]: c
            for j, eps in enumerate((self.ring.one(), *self.tails))
            for e, c in eps.terms.items()})

    def to_data(self) -> dict:
        return {
            "variable": self.ring.names[self.var],
            "degree": self.degree,
            "tails": [t.to_data() for t in self.tails],
        }


class PointSearch(Value):
    __slots__ = ("point", "value", "specializations")

    def __init__(self, point, value, specializations):
        self._set(point, value, specializations)


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


def _shifted_elements(ring: OreRing, target: int, shifts: dict) -> list:
    """Each y_i, plus u_i * y_target when u_i = shifts[i] (in F) is given."""
    y_target = ring.variable(target)
    return [ring.variable(i) + y_target.scale_left(shifts[i]) if i in shifts
            else ring.variable(i) for i in range(ring.nvars)]


def _shifted_variables(ring: OreRing, target: int, shifts: dict) -> list:
    """The variables (aut_i, der_i + u_i * der_target) of the shifted y_i."""
    one, der_target = ring.domain.one(), ring.variables[target].der
    return [Variable(v.name, v.aut, lin_comb(
        [(one, v.der), (shifts[i], der_target)], twist=v.aut))
        if i in shifts else v for i, v in enumerate(ring.variables)]


def monicize(f: SkewPoly,
             target: int | None = None) -> tuple[Substitution, SkewPoly]:
    """Monic-in-``target`` form of a non-zero relation.

    Returns the substitution data and g = a * f(..., y_k + u_k y_target, ...)
    whose ``target`` degree equals deg(f) with leading coefficient exactly 1.
    g lives in the step's ring, built and certified here once per step: its
    y_k has (aut, der_k - u_k der_target), so stands for y_k - u_k y_target.
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
    shifts = dict(zip(others, search.point))
    variables = _shifted_variables(
        ring, target, {i: -u for i, u in shifts.items()})
    step_ring = ring.with_variables(variables)
    step_ring._require_certificate("normalization")
    elements = _shifted_elements(step_ring, target, shifts)
    tup = certify_tuple(step_ring, elements, ring.twists())
    g = evaluate(f, tup).scale_left(scale)

    top = tuple(degree if t == target else 0 for t in range(ring.nvars))
    if g.degree_in(target) != degree or g.coeff(top) != ring.domain.one():
        raise SkewError("internal error: monicization postcondition failed")
    return Substitution(target, search.point, scale, search.value), g


class NormalizationStep(Record):
    """One eliminated variable: the substitution and the monic relation the
    variable satisfies, in the ring of the step's (aut, der) tower."""

    __slots__ = ("substitution", "relation")

    def __init__(self, substitution: Substitution, relation: MonicRelation):
        self._set(substitution, relation)

    def to_data(self) -> dict:
        ring = self.relation.ring
        return {
            "substitution": self.substitution.to_data(ring.names),
            "mixed_derivations": [
                {"name": name, "aut": aut.to_data(), "der": der.to_data()}
                for name, (aut, der) in zip(ring.names, ring.twists())
            ],
            "monic_relation": self.relation.to_data(),
        }


def normalize_step(f: SkewPoly) -> NormalizationStep:
    """Eliminate the last variable using the witness relation ``f``.

    Monicizes f in the last variable, reads the monic relation off g and
    asserts the replay identity g(t_1, ..., t_n) = a*f exactly.  g lives in
    the step's ring, t_k = y_k - u_k y_n with the mixed tower
    (aut, der_k - u_k der_n), which ``monicize`` builds once and refuses when
    its certificate (Leibniz per derivation, commutation of every pair of
    maps) fails.  Certification uses the settings of ``f.ring``.
    """
    ring = f.ring
    target = ring.nvars - 1
    sub, g = monicize(f, target)

    t_elements = _shifted_elements(
        ring, target, {i: -u for i, u in enumerate(sub.shifts)})
    relation = MonicRelation.read(g, target)
    replay_tup = certify_tuple(ring, t_elements, g.ring.twists())
    if evaluate(g, replay_tup) != f.scale_left(sub.scale):
        raise SkewError("internal error: replay identity g(t) = a*f failed")
    return NormalizationStep(sub, relation)


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


class NormalizationResult(Record):
    """The replayable chain: one step per eliminated variable, the final
    presentation ring, the relations re-expressed in it, and ``images``, the
    certified tuple of the input variables' images (``None`` before shifts)."""

    __slots__ = ("ring", "steps", "presentation", "relations", "skipped",
                 "images")

    def __init__(self, ring, steps, presentation, relations, skipped,
                 images=None):
        self._set(ring, steps, presentation, relations, skipped, images)

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

    def reduce(self, e: SkewPoly) -> SkewPoly:
        """``e``, an element of ``ring``, read in ``presentation`` and
        divided by ``relations`` oldest first.  Relation j is monic in its
        variable and its tails involve only variables eliminated later; as
        t*r = sigma(r)*t + delta(r) never raises t's degree, no later
        division lifts an earlier variable back to its bound."""
        if e.ring != self.ring:
            raise RingMismatch("the element must live in the input ring")
        # presentation is ring until a step shifts; from then coordinates
        # move, even where the tower stays
        w = e if self.images is None else evaluate(e, self.images)
        for rel in self.relations:
            w = divmod_by_monic(w, rel)[1]
        return w

    def _eliminate(self, index: int, w: SkewPoly) -> "NormalizationResult":
        """The chain one step longer: ``w``, relation ``index`` reduced by
        this chain, eliminates the last active variable."""
        presentation = self.presentation
        active = self.ring.nvars - len(self.steps)
        if active == 0 or any(any(e[active:]) for e in w.terms):
            raise NotAWitness(
                f"relation {index} still involves eliminated variables "
                "after reduction"
            )
        prefix = presentation.with_variables(presentation.variables[:active])
        step = normalize_step(reinterpret(w, prefix))
        step_ring = step.relation.ring
        new_presentation = presentation if step_ring is prefix else (
            step_ring.with_variables(
                step_ring.variables + presentation.variables[active:]))
        relations, images = self.relations, self.images
        shifts = step.substitution.shifts
        if any(not u.is_zero() for u in shifts):
            # the derivations of the shifted variables are presentation's up
            # to the order of LinComb terms, so the push claims
            # presentation's own; before the first shift presentation is
            # ring, so the push is the images tuple
            push_elements = _shifted_elements(
                new_presentation, active - 1, dict(enumerate(shifts)))
            push = certify_tuple(new_presentation, push_elements,
                                 presentation.twists())
            relations = tuple(
                MonicRelation(new_presentation, r.var, r.degree,
                              tuple(evaluate(t, push) for t in r.tails))
                for r in relations)
            images = push if images is None else certify_tuple(
                new_presentation,
                (evaluate(s, push) for s in images.elements),
                self.ring.twists())
        new = step.relation
        relations += (MonicRelation(new_presentation, new.var, new.degree,
                                    tuple(reinterpret(t, new_presentation)
                                          for t in new.tails)),)
        return NormalizationResult(self.ring, (*self.steps, step),
                                   new_presentation, relations, self.skipped,
                                   images)


def normalize(ring: OreRing, relations) -> NormalizationResult:
    """Fold the witness relations, in order, into a chain.

    Each relation is reduced by the chain so far.  One that vanishes is
    reported and skipped; one that still involves an eliminated variable
    violates the witness precondition and raises ``NotAWitness``; any other
    eliminates the last active variable.  Every ring of the chain is
    derived from ``ring`` and keeps its settings.
    """
    _require_normalizable(ring)
    chain = NormalizationResult(ring, (), ring, (), ())
    for index, f in enumerate(relations):
        w = chain.reduce(f)
        if w.is_zero():
            skip = (index, "vanished after substitution and reduction")
            chain = NormalizationResult(
                ring, chain.steps, chain.presentation, chain.relations,
                (*chain.skipped, skip), chain.images)
        else:
            chain = chain._eliminate(index, w)
    return chain
