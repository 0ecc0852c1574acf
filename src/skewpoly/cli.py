"""Command-line front-end.

Every subcommand loads the ring from ``--ring``, parses its expression
arguments in that ring, runs one library operation and prints either a
human-readable text report or a JSON document with stable key order.
Exit codes: 0 success, 1 domain errors, 2 usage/parse/configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_ring
from .errors import ConfigError, ParseError, SkewError
from .evaluation import certify_tuple, evaluate, mix_derivations, mix_elements
from .maps import DEFAULT_SAMPLES, DEFAULT_SEED
from .normalize import MonicRelation, divmod_by_monic, monicize, normalize
from .nullstellensatz import (
    cns_witness,
    gordon_motzkin_check,
    make_evaluation_set,
    validate_sets,
)
from .parser import parse_expr, parse_scalar

PROG = "skewpoly"


def positive_int(text: str) -> int:
    """A sample count: zero samples would certify any claim vacuously."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", required=True, metavar="PATH",
                        help="ring configuration file (JSON)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for sampled certificates")
    common.add_argument("--samples", type=positive_int,
                        default=DEFAULT_SAMPLES,
                        help="sample count for sampled certificates (>= 1)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact skew polynomial arithmetic, evaluation, "
                    "Nullstellensatz witness search and normalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common()]

    p = sub.add_parser("normalform", parents=common,
                       help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("multiply", parents=common,
                       help="product of two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("evaluate", parents=common,
                       help="evaluation homomorphism at an automorphic tuple")
    p.add_argument("expr")
    p.add_argument("--at", action="append", required=True, metavar="ELEM",
                   help="tuple element (one per variable, in order)")

    p = sub.add_parser("mix", parents=common,
                       help="mix the tower derivations (and elements) with "
                            "central fixed coefficients")
    p.add_argument("--coeff", action="append", required=True, metavar="C",
                   help="mixing coefficient (one per variable except the last)")
    p.add_argument("elements", nargs="*",
                   help="optional automorphic elements to mix alongside")

    p = sub.add_parser("monicize", parents=common,
                       help="monic form of a relation in the target variable")
    p.add_argument("expr")
    p.add_argument("--target", metavar="NAME",
                   help="variable to make monic (default: last)")

    p = sub.add_parser("cns-search", parents=common,
                       help="first non-vanishing point over the product of "
                            "the evaluation sets")
    p.add_argument("expr")
    p.add_argument("--sets", required=True, metavar="PATH",
                   help="one set per line, elements comma-separated")

    p = sub.add_parser("gm-check", parents=common,
                       help="verify roots and partition them into conjugacy "
                            "classes")
    p.add_argument("expr")
    p.add_argument("--roots", required=True, metavar="LIST",
                   help="comma-separated root scalars")

    p = sub.add_parser("normalize", parents=common,
                       help="run the normalization chain over witness "
                            "relations")
    p.add_argument("--relations", required=True, metavar="PATH",
                   help="one relation expression per line")

    p = sub.add_parser("reduce", parents=common,
                       help="reduce an element by a monic relation")
    p.add_argument("expr")
    p.add_argument("--relation", required=True, metavar="EXPR",
                   help="the monic relation polynomial")
    p.add_argument("--var", required=True, metavar="NAME",
                   help="the relation's monic variable")

    return parser


def _read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return [ln.strip() for ln in lines
            if ln.strip() and not ln.strip().startswith("#")]


def _var_index(ring, name: str) -> int:
    if name not in ring.names:
        raise SkewError(f"no variable named {name!r} in the ring")
    return ring.names.index(name)


# -- subcommand handlers: each returns (text lines, json data) -------------

def _run_normalform(ring, args):
    f = parse_expr(args.expr, ring)
    data = {"command": "normalform", "input": args.expr,
            "normal_form": str(f), "terms": f.to_data()}
    return [str(f)], data


def _run_multiply(ring, args):
    product = parse_expr(args.left, ring) * parse_expr(args.right, ring)
    data = {"command": "multiply", "left": args.left, "right": args.right,
            "product": str(product), "terms": product.to_data()}
    return [str(product)], data


def _run_evaluate(ring, args):
    f = parse_expr(args.expr, ring)
    elements = [parse_expr(e, ring) for e in args.at]
    tup = certify_tuple(ring, elements, ring.twists(),
                        args.samples, args.seed)
    value = evaluate(f, tup)
    data = {
        "command": "evaluate",
        "input": args.expr,
        "at": [str(e) for e in elements],
        "value": str(value),
        "terms": value.to_data(),
        "certificate": tup.certificate.to_data(),
    }
    return [str(value)], data


def _run_mix(ring, args):
    coeffs = [parse_scalar(c, ring.domain) for c in args.coeff]
    ders = [v.der for v in ring.variables]
    mixed = mix_derivations(ring.domain, ders, coeffs,
                            args.samples, args.seed)
    data = {
        "command": "mix",
        "coefficients": [str(c) for c in coeffs],
        "mixed_derivations": [
            {"name": name, "der": d.to_data()}
            for name, d in zip(ring.names, mixed)
        ],
    }
    lines = [f"{name}: {d.describe()}" for name, d in zip(ring.names, mixed)]
    if args.elements:
        elements = [parse_expr(e, ring) for e in args.elements]
        tup = certify_tuple(ring, elements, ring.twists(),
                            args.samples, args.seed)
        out = mix_elements(tup, coeffs, args.samples, args.seed)
        data["mixed_elements"] = [str(e) for e in out.elements]
        data["certificate"] = out.certificate.to_data()
        lines += [f"u{i + 1} = {e}" for i, e in enumerate(out.elements)]
    return lines, data


def _run_monicize(ring, args):
    f = parse_expr(args.expr, ring)
    target = _var_index(ring, args.target) if args.target else None
    sub, g = monicize(f, target, args.samples, args.seed)
    data = {
        "command": "monicize",
        "input": args.expr,
        "substitution": sub.to_data(ring.names),
        "monic": str(g),
        "terms": g.to_data(),
    }
    shifts = ", ".join(str(u) for u in sub.shifts)
    lines = [
        f"shifts: [{shifts}]",
        f"scale: {sub.scale}",
        f"monic form: {g}",
    ]
    return lines, data


def _run_cns_search(ring, args):
    f = parse_expr(args.expr, ring)
    sets = []
    for line in _read_lines(args.sets):
        elements = [parse_scalar(part, ring.domain)
                    for part in line.split(",")]
        sets.append(make_evaluation_set(elements))
    degree = f.total_degree()
    if not validate_sets(sets, degree):
        raise SkewError(
            "evaluation sets failed validation (pairwise non-conjugacy "
            f"and size > deg = {degree})"
        )
    witness = cns_witness(f, sets)
    data = {"command": "cns-search", "input": args.expr,
            "degree": degree,
            "sets": [s.to_data() for s in sets]}
    data.update(witness.to_data())
    point = ", ".join(str(a) for a in witness.point)
    lines = [
        f"witness: ({point})",
        f"value: {witness.value}",
        f"scanned: {witness.scanned}",
    ]
    return lines, data


def _run_gm_check(ring, args):
    f = parse_expr(args.expr, ring)
    roots = [parse_scalar(part, ring.domain)
             for part in args.roots.split(",")]
    report = gordon_motzkin_check(f, roots)
    data = {"command": "gm-check", "input": args.expr}
    data.update(report.to_data())
    lines = [f"degree: {report.degree}",
             f"conjugacy classes: {len(report.classes)}"]
    for idx, cls in enumerate(report.classes, start=1):
        members = ", ".join(str(m) for m in cls.members)
        lines.append(
            f"  class {idx}: trace {cls.trace}, norm {cls.norm}: {members}"
        )
    return lines, data


def _run_normalize(ring, args):
    relations = [parse_expr(line, ring) for line in _read_lines(args.relations)]
    result = normalize(ring, relations, args.samples, args.seed)
    data = {"command": "normalize"}
    data.update(result.to_data())
    lines = []
    for i, step in enumerate(result.steps, start=1):
        names = step.relation.ring.names
        sub = step.substitution
        shifts = ", ".join(str(u) for u in sub.shifts)
        lines.append(
            f"step {i}: eliminated {names[sub.target]} "
            f"(shifts [{shifts}], scale {sub.scale}, "
            f"monic degree {step.relation.degree})"
        )
    for index, reason in result.skipped:
        lines.append(f"relation {index}: skipped ({reason})")
    residual = ", ".join(result.residual_variables) or "none"
    lines.append(f"residual variables: {residual}")
    return lines, data


def _run_reduce(ring, args):
    e = parse_expr(args.expr, ring)
    rel_poly = parse_expr(args.relation, ring)
    rel = MonicRelation.read(rel_poly, _var_index(ring, args.var))
    quotient, remainder = divmod_by_monic(e, rel)
    data = {
        "command": "reduce",
        "input": args.expr,
        "relation": str(rel_poly),
        "variable": args.var,
        "remainder": str(remainder),
        "quotient": str(quotient),
        "terms": remainder.to_data(),
    }
    return [str(remainder)], data


_HANDLERS = {
    "normalform": _run_normalform,
    "multiply": _run_multiply,
    "evaluate": _run_evaluate,
    "mix": _run_mix,
    "monicize": _run_monicize,
    "cns-search": _run_cns_search,
    "gm-check": _run_gm_check,
    "normalize": _run_normalize,
    "reduce": _run_reduce,
}


def _emit(text: str, output):
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {output}: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ring = load_ring(args.ring, samples=args.samples, seed=args.seed)
        lines, data = _HANDLERS[args.command](ring, args)
        if args.format == "json":
            _emit(json.dumps(data, indent=2) + "\n", args.output)
        else:
            _emit("".join(line + "\n" for line in lines), args.output)
    except (ParseError, ConfigError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (SkewError, ValueError) as exc:
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
