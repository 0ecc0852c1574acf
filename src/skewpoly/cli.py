"""Command-line front-end.

Every subcommand loads the ring from ``--ring`` with the ``--samples`` and
``--seed`` settings, parses its expression arguments in that ring, runs one
library operation and prints either a human-readable text report or a JSON
document with stable key order.
Exit codes: 0 success, 1 domain errors, 2 usage/parse/configuration errors.

Arguments are read against one table, ``_COMMANDS``, as argparse read them
but for option prefixes (``--rel`` is unknown): a "-"-led token is a
positional if it is "-", a negative number or has a space, and the first
"--" ends the options.  A usage error exits 2 with one stderr line.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .config import load_ring
from .errors import ConfigError, ParseError, SkewError, UnknownVariable
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


def _read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return [ln.strip() for ln in lines
            if ln.strip() and not ln.strip().startswith("#")]


def _var_index(ring, name: str) -> int:
    if name not in ring.names:
        raise UnknownVariable(f"no variable named {name!r} in the ring")
    return ring.names.index(name)


# -- subcommand handlers: each returns (text lines, json data) -------------

def _run_normalform(ring, args):
    f = parse_expr(args.expr, ring)
    data = {"input": args.expr,
            "normal_form": str(f), "terms": f.to_data()}
    return [str(f)], data


def _run_multiply(ring, args):
    product = parse_expr(args.left, ring) * parse_expr(args.right, ring)
    data = {"left": args.left, "right": args.right,
            "product": str(product), "terms": product.to_data()}
    return [str(product)], data


def _run_evaluate(ring, args):
    f = parse_expr(args.expr, ring)
    elements = [parse_expr(e, ring) for e in args.at]
    tup = certify_tuple(ring, elements, ring.twists())
    value = evaluate(f, tup)
    data = {
        "input": args.expr,
        "at": [str(e) for e in elements],
        "value": str(value),
        "terms": value.to_data(),
        "certificate": tup.certificate.to_data(),
    }
    return [str(value)], data


def _run_mix(ring, args):
    coeffs = [parse_scalar(c, ring.domain) for c in args.coeff]
    if args.elements:
        elements = [parse_expr(e, ring) for e in args.elements]
        out = mix_elements(certify_tuple(ring, elements, ring.twists()),
                           coeffs)
        mixed = [d for _, d in out.twists]
    else:
        mixed = mix_derivations(ring.domain, [v.der for v in ring.variables],
                                coeffs, ring.samples, ring.seed)
    data = {
        "coefficients": [str(c) for c in coeffs],
        "mixed_derivations": [
            {"name": name, "der": d.to_data()}
            for name, d in zip(ring.names, mixed)
        ],
    }
    lines = [f"{name}: {d.describe()}" for name, d in zip(ring.names, mixed)]
    if args.elements:
        data["mixed_elements"] = [str(e) for e in out.elements]
        data["certificate"] = out.certificate.to_data()
        lines += [f"u{i + 1} = {e}" for i, e in enumerate(out.elements)]
    return lines, data


def _run_monicize(ring, args):
    f = parse_expr(args.expr, ring)
    target = _var_index(ring, args.target) if args.target else None
    sub, g = monicize(f, target)
    data = {
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
    data = {"input": args.expr,
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
    data = {"input": args.expr}
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
    result = normalize(ring, relations)
    data = result.to_data()
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
        "input": args.expr,
        "relation": str(rel_poly),
        "variable": args.var,
        "remainder": str(remainder),
        "quotient": str(quotient),
        "terms": remainder.to_data(),
    }
    return [str(remainder)], data


# -- the command line: one table, and a reader that walks argv against it --

# Each command's arguments, written as its usage: "[...]" is optional, "..."
# repeats and gives a list (any other option its last value), and "--name
# METAVAR" is an option, any other word a positional.  INT values are
# integers; "a|b" lists the choices.  _COMMON comes first.
_COMMON = ("--ring PATH [--seed INT] [--samples INT] [--format text|json]"
           " [--output PATH]")
_DEFAULTS = {"--seed": DEFAULT_SEED, "--samples": DEFAULT_SAMPLES,
             "--format": "text"}
_COMMANDS = {  # name: (handler, arguments after _COMMON, help)
    "normalform": (_run_normalform, "EXPR", "normal form of an expression"),
    "multiply": (_run_multiply, "LEFT RIGHT", "product of two expressions"),
    "evaluate": (_run_evaluate, "--at ELEM... EXPR",
                 "evaluation homomorphism at an automorphic tuple"),
    "mix": (_run_mix, "--coeff C... [ELEMENTS...]", "mix the tower "
            "derivations (and elements) with central fixed coefficients"),
    "monicize": (_run_monicize, "[--target NAME] EXPR",
                 "monic form of a relation in the target variable"),
    "cns-search": (_run_cns_search, "--sets PATH EXPR", "first non-vanishing"
                   " point over the product of the evaluation sets"),
    "gm-check": (_run_gm_check, "--roots LIST EXPR",
                 "verify roots and partition them into conjugacy classes"),
    "normalize": (_run_normalize, "--relations PATH",
                  "run the normalization chain over witness relations"),
    "reduce": (_run_reduce, "--relation EXPR --var NAME EXPR",
               "reduce an element by a monic relation"),
}


def _usage_error(message):
    print(f"{PROG}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command):
    """Print the usage of every command, or of one, from the table; exit 0."""
    for name, (_, usage, text) in _COMMANDS.items():
        if command in (None, name):
            print(f"usage: {PROG} {name} [-h] {_COMMON} {usage}\n  {text}")
    raise SystemExit(0)


def _positional(token, options):
    """Whether a token is a positional, by the module docstring's rules."""
    number = token[1:].replace(".", "", 1)  # -1, -.5 or -1.5
    return token[:1] != "-" or token == "-" or (
        " " in token or number.isdecimal() and token[-1] != "."
    ) and token.partition("=")[0] not in options


def _read_args(argv):
    """The command and its values, read from argv against the table."""
    if argv[:1] in (["-h"], ["--help"]):
        _help(None)
    if not argv or argv[0] not in _COMMANDS:
        _usage_error(f"unknown command {argv[0]!r}" if argv else "no command")
    usage, positionals = {}, []
    words = iter(f"{_COMMON} {_COMMANDS[argv[0]][1]}".split())
    for word in words:
        if word.lstrip("[").startswith("--"):
            usage[word.lstrip("[")] = f"{word} {next(words)}"
        else:
            positionals.append(word)
    options, found, tokens = {name: [] for name in usage}, [], iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--":  # the first "--" ends the options
            found += tokens
        elif token in ("-h", "--help"):
            _help(argv[0])
        elif _positional(token, options):
            found.append(token)
        elif name not in options:
            _usage_error(f"unknown option {token!r}")
        elif eq or _positional(value := next(tokens, "--"), options):
            options[name].append(value)
        else:
            _usage_error(f"argument {name}: expected a value")
    fixed = [p for p in positionals if p[0] != "["]
    missing = [name for name, values in options.items()
               if not values and usage[name][0] != "["] + fixed[len(found):]
    if missing:
        _usage_error(f"missing {', '.join(missing)}")
    if fixed == positionals and len(found) > len(fixed):
        _usage_error(f"unexpected argument {found[len(fixed)]!r}")
    args = {p.strip("[.]").lower(): found[len(fixed):]
            for p in positionals[len(fixed):]}
    args.update((p.lower(), value) for p, value in zip(fixed, found))
    for name, values in options.items():
        kind = usage[name].split()[1].strip("[].")
        for i, value in enumerate(values):
            if "|" in kind and value not in kind.split("|"):
                _usage_error(f"argument {name}: {value!r} is not {kind}")
            if kind == "INT":
                try:
                    values[i] = int(value)
                except ValueError:
                    _usage_error(f"argument {name}: {value!r} is no integer")
        args[name[2:]] = (values if usage[name].endswith("...") else
                          values[-1] if values else _DEFAULTS.get(name))
    return SimpleNamespace(command=argv[0], **args)


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
    args = _read_args(sys.argv[1:] if argv is None else list(argv))
    try:
        ring = load_ring(args.ring, samples=args.samples, seed=args.seed)
        lines, data = _COMMANDS[args.command][0](ring, args)
        if args.format == "json":  # the command's name leads the data
            _emit(json.dumps({"command": args.command, **data}, indent=2)
                  + "\n", args.output)
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
