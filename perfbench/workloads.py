"""The benchmark's three workloads: seeded operation streams, how one
operation is run against skewpoly, and the oracle that checks its output.

Every stream cycles through a fixed schedule of operation shapes (orders,
degrees, grid sizes, commands); the seed draws only the contents.  A run
that is cut at a time limit therefore sees the same mix of shapes whatever
the seed, and the closed loop (one caller, next operation after the last
returned) stays comparable across seeds.

* ``weyl_products`` -- products and powers of dense operators in
  ``configs/weyl.json`` and ``configs/weyl2.json``.  The commutation kernel
  and d/dx application do nearly all the work; rings are certified in
  set-up and unit denominators bypass Q(x) gcds.  Operator order is the
  property that varies.
* ``quat_search`` -- H(Q) only: witness searches over grids whose scans
  are made long by polynomials vanishing on a chosen share of the grid,
  Gordon-Motzkin checks, products in ``configs/quat_inner.json`` (inner
  automorphism and derivation) and division by monic relations.  No Q(x)
  at all.  Grid points scanned per witness is the property that varies.
* ``cli_cold`` -- ``skewpoly.cli.main(argv + ["--format", "json"])`` in a
  fresh process forked for every operation: the nine README commands
  verbatim plus seeded ``monicize``, ``normalize`` and ``evaluate``
  variants over the Q(x) configs.  Nothing the program caches survives
  from one operation to the next, so ring loading, certification and Q(x)
  gcds are paid by every operation; interpreter start and the import of
  ``skewpoly.cli`` are measured as set-up.  (Timings of whole cold
  ``python -m skewpoly`` processes swing by more than the benchmark's
  bounds on a shared host, and the speed reference cannot correct them.)
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_out"


class Mismatch(Exception):
    """An operation's output disagrees with the oracle."""


@dataclass(frozen=True)
class Op:
    kind: str
    ring: str
    args: tuple          # what the program receives
    data: tuple = ()     # what only the oracle sees


# ---------------------------------------------------------------------------
# small text helpers for generated inputs
# ---------------------------------------------------------------------------

def _signed_join(parts) -> str:
    text = " + ".join(parts) or "0"
    return text.replace("+ -", "- ")


def _xpoly_text(coeffs) -> str:
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c:
            parts.append(str(c) if d == 0 else f"{c}*x" if d == 1
                         else f"{c}*x^{d}")
    return _signed_join(parts)


def _monomial_text(names, exps) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}"
                    for n, e in zip(names, exps) if e)


def _op_text(names, terms, coeff_text) -> str:
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        mono = _monomial_text(names, exps)
        coeff = f"({coeff_text(terms[exps])})"
        parts.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(parts)


def qfmt(q) -> str:
    parts = [f"{c}*{u}" if u else str(c)
             for c, u in zip(q, ("", "i", "j", "k")) if c]
    return _signed_join(parts)


def _dense_exps(nvars, order):
    return [e for e in itertools.product(range(order + 1), repeat=nvars)
            if sum(e) <= order]


# ---------------------------------------------------------------------------
# weyl_products
# ---------------------------------------------------------------------------

class WeylProducts:
    name = "weyl_products"
    rings = {"weyl": ("configs/weyl.json", ("t",)),
             "weyl2": ("configs/weyl2.json", ("t1", "t2"))}
    # (kind, ring, left order or base order, right order or exponent,
    #  x-degree of the coefficients); interleaved so that every prefix of
    #  the cycle mixes cheap and expensive shapes
    cycle = [
        ("mul", "weyl", 3, 14, 2), ("mul", "weyl2", 2, 2, 2),
        ("mul", "weyl", 14, 2, 1), ("pow", "weyl", 3, 3, 2),
        ("mul", "weyl", 2, 3, 3), ("mul", "weyl2", 3, 3, 1),
        ("mul", "weyl", 8, 8, 2), ("pow", "weyl2", 2, 2, 1),
        ("mul", "weyl", 5, 5, 3), ("mul", "weyl2", 1, 6, 2),
        ("mul", "weyl", 10, 4, 2), ("pow", "weyl", 5, 2, 1),
        ("mul", "weyl", 4, 10, 1), ("mul", "weyl2", 4, 2, 1),
        ("mul", "weyl", 1, 12, 3), ("pow", "weyl", 4, 3, 1),
        ("mul", "weyl", 6, 7, 2), ("mul", "weyl2", 6, 1, 2),
        ("mul", "weyl", 12, 1, 2), ("pow", "weyl2", 3, 2, 1),
    ]
    trace_ops = 5 * len(cycle)
    r_degree = 40

    def ops(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        for shape in itertools.cycle(self.cycle):
            yield self._make(rng, shape)

    def _operator(self, rng, nvars, order, m):
        """Every coefficient non-zero, so that an operation's cost depends
        on its shape and hardly on the seed."""
        digits = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
        return {exps: tuple(rng.choice(digits) for _ in range(m + 1))
                for exps in _dense_exps(nvars, order)}

    def _make(self, rng, shape):
        kind, ring, a, b, m = shape
        names = self.rings[ring][1]
        lams = tuple(rng.randint(100, 999) for _ in names)
        r = [rng.randint(-9, 9) for _ in range(self.r_degree)]
        r.append(rng.choice((-1, 1)))
        f = self._operator(rng, len(names), a, m)
        f_text = _op_text(names, f, _xpoly_text)
        if kind == "mul":
            g = self._operator(rng, len(names), b, m)
            args = (f_text, _op_text(names, g, _xpoly_text))
            factors = (f, g)
        else:
            args = (f"({f_text})^{b}",)
            factors = (f,) * b
        return Op(kind, ring, args,
                  (tuple(tuple(sorted(t.items())) for t in factors),
                   lams, tuple(r)))

    def setup(self, seed):
        return load_rings(self.rings)

    def run(self, rings, op):
        from skewpoly.parser import parse_expr
        ring = rings[op.ring]
        if op.kind == "mul":
            product = parse_expr(op.args[0], ring) * parse_expr(op.args[1], ring)
        else:
            product = parse_expr(op.args[0], ring)
        return str(product)

    def check(self, op, output):
        factors, lams, r = op.data
        names = self.rings[op.ring][1]
        read = oracle.split_vars(oracle.read_poly(output, ("x",) + names), 1)
        product = {exps: oracle.dense_from_read(c) for exps, c in read.items()}
        expected = list(r)
        for factor in reversed(factors):
            expected = oracle.weyl_act(
                {e: list(c) for e, c in factor}, expected, lams)
        if oracle.weyl_act(product, list(r), lams) != expected:
            raise Mismatch("(f*g).r differs from f.(g.r)")


# ---------------------------------------------------------------------------
# quat_search
# ---------------------------------------------------------------------------

def _random_quaternion(rng):
    while True:
        q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        if any(q):
            return q


def _class_representatives(rng, count, taken=()):
    """``count`` non-real integer quaternions with pairwise distinct
    (trace, norm), avoiding the classes in ``taken``."""
    seen = set(taken)
    out = []
    while len(out) < count:
        q = _random_quaternion(rng)
        key = oracle.trace_norm(q)
        if any(q[1:]) and key not in seen:
            seen.add(key)
            out.append(q)
    return out


def _vanishing_poly(rng, names, roots_per_var):
    """``lead * prod_v prod_{a in roots_v} minpoly_a(names[v])`` for a random
    quaternion ``lead``: input text and ``{exponents: quaternion}`` terms.

    Rational coefficients are central, so the formal substitution of the
    product at a point vanishes exactly where some coordinate is a root.
    """
    n = len(names)
    coeffs, factors = {(0,) * n: Fraction(1)}, []
    for v, roots in enumerate(roots_per_var):
        for a in roots:
            mp = oracle.min_poly(a)
            factors.append(f"({_xpoly_text(mp).replace('x', names[v])})")
            term = {tuple(k if i == v else 0 for i in range(n)): c
                    for k, c in enumerate(mp) if c}
            out: dict = {}
            for ea, ca in coeffs.items():
                for eb, cb in term.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
            coeffs = {e: c for e, c in out.items() if c}
    lead = _random_quaternion(rng)
    return ("*".join([f"({qfmt(lead)})", *factors]),
            tuple((e, oracle.qscale(c, lead)) for e, c in coeffs.items()))


def _quaternion_terms(rng, exps_list):
    return {e: _random_quaternion(rng) for e in exps_list}


class QuatSearch:
    name = "quat_search"
    rings = {"quat": ("configs/quat.json", ("t",)),
             "inner": ("configs/quat_inner.json", ("t1", "t2")),
             "grid2": ("perfbench/rings/quat2.json", ("s1", "s2")),
             "grid3": ("perfbench/rings/quat3.json", ("s1", "s2", "s3"))}
    # ("cns", grid ring, roots per coordinate) -- the first roots of each
    # set vanish, so the scan visits sum(z_i * prod_{j>i} |A_j|) + 1 points;
    # ("gm", "quat", classes, roots per class); ("mul", "inner", left
    # degree, right degree); ("divmod", "inner", degree in t1, monic degree)
    cycle = [
        ("cns", "grid2", (1, 1)), ("mul", "inner", 2, 2),
        ("gm", "quat", 2, 2), ("divmod", "inner", 4, 2),
        ("cns", "grid2", (2, 1)), ("mul", "inner", 1, 3),
        ("cns", "grid3", (1, 1, 0)), ("gm", "quat", 3, 1),
        ("divmod", "inner", 5, 3), ("cns", "grid2", (1, 2)),
        ("mul", "inner", 3, 1), ("cns", "grid3", (1, 0, 1)),
        ("gm", "quat", 1, 3), ("divmod", "inner", 3, 2),
        ("cns", "grid2", (2, 0)), ("mul", "inner", 2, 3),
        ("gm", "quat", 4, 2), ("divmod", "inner", 5, 2),
        ("cns", "grid2", (0, 2)), ("gm", "quat", 3, 2),
    ]
    trace_ops = 4 * len(cycle)

    def __init__(self):
        data = json.loads((ROOT / self.rings["inner"][0]).read_text())
        self.inner_basis = oracle.InnerBasis(
            (oracle.read_quaternion(var["aut"]["c"]),
             oracle.read_quaternion(var["der"].get("c", "0")))
            for var in data["vars"])

    def ops(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        for shape in itertools.cycle(self.cycle):
            yield getattr(self, "_make_" + shape[0])(rng, *shape[1:])

    # -- generation ---------------------------------------------------------

    def _make_cns(self, rng, ring, zeros):
        degree = 2 * sum(zeros)
        sets, roots = [], []
        for z in zeros:
            roots.append(_class_representatives(rng, z))
            fillers = _class_representatives(
                rng, degree - z, map(oracle.trace_norm, roots[-1]))
            elements = roots[-1] + fillers
            rational = (Fraction(rng.randint(-9, 9)),) + (Fraction(0),) * 3
            elements.insert(rng.randint(z, len(elements)), rational)
            sets.append(tuple(elements))
        f_text, f = _vanishing_poly(rng, self.rings[ring][1], roots)
        return Op("cns", ring, (f_text, tuple(tuple(map(qfmt, s)) for s in sets)),
                  (f, tuple(sets)))

    def _make_gm(self, rng, ring, classes, per_class):
        bases = _class_representatives(rng, classes)
        f_text, f = _vanishing_poly(rng, ("t",), [bases])
        roots = []
        for label, a in enumerate(bases):
            for _ in range(per_class):
                u = _random_quaternion(rng)
                roots.append((oracle.qmul(oracle.qmul(u, a), oracle.qinv(u)),
                              label))
        rng.shuffle(roots)
        return Op("gm", ring, (f_text, tuple(qfmt(q) for q, _ in roots)),
                  (f, tuple(roots), classes))

    def _make_mul(self, rng, ring, a, b):
        names = self.rings[ring][1]
        f = _quaternion_terms(rng, _dense_exps(2, a))
        g = _quaternion_terms(rng, _dense_exps(2, b))
        return Op("mul", ring,
                  (_op_text(names, f, qfmt), _op_text(names, g, qfmt)),
                  (tuple(f.items()), tuple(g.items())))

    def _make_divmod(self, rng, ring, degree, m):
        names = self.rings[ring][1]
        e = _quaternion_terms(
            rng, [(d1, d2) for d1 in range(degree + 1) for d2 in range(2)])
        tails = [_quaternion_terms(rng, [(0, 0), (0, 1)]) for _ in range(m)]
        return Op("divmod", ring,
                  (_op_text(names, e, qfmt),
                   tuple(_op_text(names, t, qfmt) for t in tails)),
                  (tuple(e.items()), tuple(tuple(t.items()) for t in tails), m))

    # -- running --------------------------------------------------------------

    def setup(self, seed):
        return load_rings(self.rings)

    def run(self, rings, op):
        from skewpoly.errors import SkewError
        from skewpoly.normalize import MonicRelation, divmod_by_monic
        from skewpoly.nullstellensatz import (
            cns_witness, gordon_motzkin_check, make_evaluation_set,
            validate_sets)
        from skewpoly.parser import parse_expr, parse_scalar
        from skewpoly.scalars import HQ

        ring = rings[op.ring]
        if op.kind == "cns":
            f = parse_expr(op.args[0], ring)
            sets = [make_evaluation_set([parse_scalar(s, HQ) for s in row])
                    for row in op.args[1]]
            if not validate_sets(sets, int(f.total_degree())):
                raise SkewError("evaluation sets failed validation")
            return cns_witness(f, sets).to_data()
        if op.kind == "gm":
            f = parse_expr(op.args[0], ring)
            roots = [parse_scalar(s, HQ) for s in op.args[1]]
            return gordon_motzkin_check(f, roots).to_data()
        if op.kind == "mul":
            return str(parse_expr(op.args[0], ring) * parse_expr(op.args[1], ring))
        e = parse_expr(op.args[0], ring)
        tails = tuple(parse_expr(t, ring) for t in op.args[1])
        quotient, remainder = divmod_by_monic(
            e, MonicRelation(ring, 0, len(tails), tails))
        return str(quotient), str(remainder)

    # -- oracles ----------------------------------------------------------------

    def _read_element(self, ring, text):
        names = self.rings[ring][1]
        return oracle.quaternion_coeffs(
            oracle.read_poly(text, ("i", "j", "k") + names))

    def check(self, op, output):
        getattr(self, "_check_" + op.kind)(op, output)

    def _check_cns(self, op, out):
        coeffs, sets = op.data
        coeffs = dict(coeffs)
        grid = list(itertools.product(*sets))
        scanned = out["scanned"]
        if not 1 <= scanned <= len(grid):
            raise Mismatch(f"scanned {scanned} is outside the grid")
        point = tuple(oracle.read_quaternion(a) for a in out["point"])
        if point != grid[scanned - 1]:
            raise Mismatch("witness is not the grid point at its scan index")
        value = oracle.formal_value(coeffs, point)
        if value == oracle.QZERO or value != oracle.read_quaternion(out["value"]):
            raise Mismatch("witness value differs from the formal substitution")
        for earlier in grid[:scanned - 1]:
            if oracle.formal_value(coeffs, earlier) != oracle.QZERO:
                raise Mismatch("an earlier grid point does not vanish")

    def _check_gm(self, op, out):
        coeffs, roots, classes = op.data
        coeffs = dict(coeffs)
        if out["degree"] != 2 * classes or out["class_count"] != classes:
            raise Mismatch("degree or class count is wrong")
        listed, keys = [], set()
        for cls in out["classes"]:
            key = (Fraction(cls["trace"]), Fraction(cls["norm"]))
            if key in keys:
                raise Mismatch("two classes share trace and norm")
            keys.add(key)
            labels = set()
            for text in cls["members"]:
                q = oracle.read_quaternion(text)
                if oracle.trace_norm(q) != key:
                    raise Mismatch(f"{text} does not match its class")
                if oracle.formal_value(coeffs, (q,)) != oracle.QZERO:
                    raise Mismatch(f"{text} is not a root")
                labels.update(label for r, label in roots if r == q)
                listed.append(q)
            if len(labels) != 1:
                raise Mismatch("a class mixes roots of different classes")
        if sorted(listed) != sorted(q for q, _ in roots):
            raise Mismatch("classes do not partition the roots")

    def _check_mul(self, op, out):
        f, g = (self.inner_basis.convert(dict(x)) for x in op.data)
        got = self.inner_basis.convert(self._read_element(op.ring, out))
        if got != oracle.qpoly_mul(f, g):
            raise Mismatch("product differs in the central basis")

    def _check_divmod(self, op, out):
        e, tails, m = op.data
        q = self._read_element(op.ring, out[0])
        r = self._read_element(op.ring, out[1])
        if any(exps[0] >= m for exps in r):
            raise Mismatch("remainder degree is not below the relation's")
        rho = {(m, 0): oracle.QONE}
        for j, tail in enumerate(tails, start=1):
            for (_, d2), c in tail:
                rho[(m - j, d2)] = oracle.qadd(rho.get((m - j, d2), oracle.QZERO), c)
        conv = self.inner_basis.convert
        lhs = oracle.qpoly_add(oracle.qpoly_mul(conv(q), conv(rho)), conv(r))
        if lhs != conv(dict(e)):
            raise Mismatch("q*rho + r differs from e")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

README_COMMANDS = {
    "normalform": ["normalform", "--ring", "configs/weyl.json", "t*x"],
    "multiply": ["multiply", "--ring", "configs/weyl.json", "t+1", "t-1"],
    "evaluate": ["evaluate", "--ring", "configs/weyl.json", "t^2",
                 "--at", "t+1"],
    "mix": ["mix", "--ring", "configs/weyl2.json", "--coeff", "3", "t1", "t2"],
    "monicize": ["monicize", "--ring", "configs/weyl2.json", "t1*t2"],
    "cns-search": ["cns-search", "--ring", "configs/quat.json",
                   "--sets", "configs/example_sets.txt", "t^2 + 1"],
    "gm-check": ["gm-check", "--ring", "configs/quat.json",
                 "--roots", "i, j, k", "t^2 + 1"],
    "normalize": ["normalize", "--ring", "configs/weyl3.json",
                  "--relations", "configs/example_relations.txt"],
    "reduce": ["reduce", "--ring", "configs/quat.json",
               "--relation", "t^2 - 3*t + 2", "--var", "t", "t^2"],
}

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def vacuous_records(data) -> int:
    """Certificate records in a JSON document that carry neither samples nor
    an analytic verdict."""
    if isinstance(data, dict):
        own = int(data.get("samples") == 0 and "analytic" in data
                  and data["analytic"] is None)
        return own + sum(vacuous_records(v) for v in data.values())
    if isinstance(data, list):
        return sum(vacuous_records(v) for v in data)
    return 0


class CliCold:
    name = "cli_cold"
    # README commands interleaved with seeded variants (v_*).  Latencies
    # come in clusters, and a statistic that falls between two clusters
    # jumps between them from run to run.  So the light README commands
    # come three times and normalform five times, putting the median in
    # the middle of the normalform cluster, and mix comes four times,
    # putting the eleventh-largest latency inside the mix cluster, below
    # the two normalize commands.
    cycle = [
        "normalform", "v_monicize2", "cns-search", "multiply", "mix",
        "gm-check", "reduce", "v_evaluate", "normalform", "evaluate",
        "normalize", "cns-search", "mix", "multiply", "normalform",
        "v_monicize3", "gm-check", "reduce", "monicize", "mix",
        "v_evaluate_q", "normalform", "cns-search", "v_normalize",
        "multiply", "evaluate", "gm-check", "mix", "v_evaluate2",
        "normalform", "reduce",
    ]
    trace_ops = len(cycle)
    relation_files = 4

    def _coeff(self, rng):
        v = rng.choice((1, 2, 3, -1, -2, -3))
        if rng.random() < 0.5:
            return str(v)
        return f"({_xpoly_text([rng.randint(1, 3), v])})"

    def relation_texts(self, seed):
        """Relation files for the normalize variants: a first relation of
        total degree 1 with unit y3 coefficient (monic in y3 with no shift,
        so reduction by it clears y3) and a second in y1, y2 only with a
        y2^2 term, which therefore survives as a non-constant witness."""
        rng = random.Random(f"{self.name}/{seed}/relations")
        texts = []
        for _ in range(self.relation_files):
            first = f"y3 + {self._coeff(rng)}*y1 + {self._coeff(rng)}*y2"
            second = (f"{self._coeff(rng)}*y2^2 + {self._coeff(rng)}*y1*y2"
                      f" + {self._coeff(rng)}*y1 + {rng.randint(-3, 3)}")
            texts.append(f"{first}\n{second}\n")
        return texts

    def ops(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        for index, name in enumerate(itertools.cycle(self.cycle)):
            yield self._make(rng, name, index // len(self.cycle))

    def _make(self, rng, name, round_):
        if name in README_COMMANDS:
            return Op("readme", name, tuple(README_COMMANDS[name]))
        if name.startswith("v_monicize"):
            config, names = (("configs/weyl2.json", ("t1", "t2"))
                             if name == "v_monicize2" else
                             ("configs/weyl3.json", ("y1", "y2", "y3")))
            terms = [f"{self._coeff(rng)}*{a}*{b}"
                     for a, b in itertools.combinations_with_replacement(names, 2)]
            terms.append(f"{self._coeff(rng)}*{rng.choice(names)}")
            expr = " + ".join(terms)
            return Op("monicize", name, ("monicize", "--ring", config, expr))
        if name == "v_normalize":
            path = f"{WORK_DIR}/cli/relations{round_ % self.relation_files}.txt"
            return Op("normalize", name, ("normalize", "--ring",
                                          "configs/weyl3.json",
                                          "--relations", path))
        if name == "v_evaluate":
            f = " + ".join(f"{self._coeff(rng)}*t^{k}" for k in range(1, 4))
            a = _xpoly_text([rng.randint(-3, 3), rng.randint(1, 3)])
            return Op("evaluate", name, ("evaluate", "--ring",
                                         "configs/weyl.json", f,
                                         "--at", f"t + {a}"))
        if name == "v_evaluate_q":
            # u = (q-1)*x*t + 1 satisfies u*r = r(qx)*u, so t + c*u is
            # automorphic for the (q-shift, q-difference) pair; here q = 2
            f = " + ".join(f"{self._coeff(rng)}*t^{k}" for k in range(4))
            c = rng.randint(1, 5)
            return Op("evaluate", name, ("evaluate", "--ring",
                                         "configs/qdiff.json", f,
                                         "--at", f"({c}*x + 1)*t + {c}"))
        f = (f"{self._coeff(rng)}*t1^2 + {self._coeff(rng)}*t1*t2"
             f" + {self._coeff(rng)}*t2")
        a = _xpoly_text([rng.randint(-3, 3), rng.randint(1, 3)])
        return Op("evaluate", name, ("evaluate", "--ring", "configs/weyl2.json",
                                     f, "--at", f"t1 + {a}",
                                     "--at", f"t2 + {a} + {rng.randint(1, 5)}"))

    def setup(self, seed, tracer=None):
        """Writes the relation files and imports the CLI, whose operations
        each run in a process forked from this one."""
        import skewpoly.cli  # noqa: F401

        folder = ROOT / WORK_DIR / "cli"
        folder.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(self.relation_texts(seed)):
            (folder / f"relations{i}.txt").write_text(text, encoding="utf-8")
        return {"folder": folder, "tracer": tracer, "traces": []}

    def run(self, state, op):
        """One command in a fresh forked process, so that nothing the
        program caches survives from one operation to the next; returns
        (exit code, stdout bytes, stderr bytes)."""
        folder, tracer = state["folder"], state["tracer"]
        out = folder / f"stdout-{os.getpid()}"
        err = folder / f"stderr-{os.getpid()}"
        trace_path = folder / f"trace-{os.getpid()}-{len(state['traces'])}.json"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _forked_cli(list(op.args) + ["--format", "json"],
                                   out, err, tracer, trace_path)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if tracer is not None:
            state["traces"].append(trace_path)
        result = (os.waitstatus_to_exitcode(status), out.read_bytes(),
                  err.read_bytes())
        out.unlink()
        err.unlink()
        return result

    def check(self, op, output):
        code, stdout, stderr = output
        if code != 0:
            raise Mismatch(f"exit {code}: {stderr.decode(errors='replace')[-300:]}")
        data = json.loads(stdout)
        if vacuous_records(data):
            raise Mismatch("a certificate record has no samples and no verdict")
        if op.kind == "readme":
            expected = (EXPECTED_DIR / f"{op.ring}.json").read_bytes()
            if stdout != expected:
                raise Mismatch(f"README {op.ring} output is not byte-identical")


def _forked_cli(argv, out, err, tracer, trace_path) -> int:
    """Body of a forked CLI process: run ``skewpoly.cli.main`` with its
    output in files, as ``python -m skewpoly`` would; returns the exit
    code."""
    import traceback

    import skewpoly.cli

    code = 1
    with open(out, "w", encoding="utf-8") as sys.stdout, \
            open(err, "w", encoding="utf-8") as sys.stderr:
        if tracer is not None:
            tracer.reset()
        try:
            code = skewpoly.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:  # an uncaught error exits 1, as in Python
            traceback.print_exc()
        finally:
            if tracer is not None:
                tracer.write(trace_path)
            sys.stdout.flush()
            sys.stderr.flush()
    return code


WORKLOADS = {w.name: w for w in (WeylProducts, QuatSearch, CliCold)}


def load_rings(rings) -> dict:
    """Load, and so certify, every ring of an in-process workload."""
    from skewpoly.config import load_ring
    return {key: load_ring(ROOT / path) for key, (path, _) in rings.items()}


def cold_setup(name) -> None:
    """What a fresh process does before its first operation: import the
    package (the CLI for ``cli_cold``) and load every ring the workload
    uses."""
    if name == CliCold.name:
        import skewpoly.cli  # noqa: F401
    else:
        load_rings(WORKLOADS[name].rings)
