"""The CLI's contract under fuzzed input, driven in-process through
``cli.main`` over the nine commands and the shipped ring files.

Whatever the input, the exit code is 0, 1 or 2 and no exception escapes;
exit 1 or 2 writes exactly one stderr line, starting with ``skewpoly:``;
exit 0 under ``--format json`` prints JSON that parses.

Expressions are token soups over the ring's names, its literal units,
digits and operators, with at most one exponent, of at most 8: nested
exponents multiply, and the work of a high power is not bounded (a
``monicize`` of ``t1^312`` in ``quat_inner.json`` takes 18 s).  Most soups
do not parse, so well-formed sums of small monomials are drawn as often,
to reach the commands' own checks and exit 0 and 1 as well.  Relation
and sets files mix such lines with blank, comment and malformed ones, and
ring files are shipped ones mutated: unknown kinds, missing fields, wrong
types, duplicate and reserved names, non-UTF-8 bytes and too many
variables.
"""

import contextlib
import io
import json
import pathlib
from datetime import timedelta

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from skewpoly.cli import _COMMANDS, main
from skewpoly.config import load_ring
from skewpoly.parser import MAX_VARIABLES

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted(ROOT.glob("configs/*.json"))
RINGS = {path.name: load_ring(path) for path in CONFIGS}
OPERATORS = ["+", "-", "*", "/", "(", ")", " ", ",", ".", "^", "#", "?"]
CONTRACT = settings(deadline=timedelta(seconds=5))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def run(argv):
    """The exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # usage errors and --help
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith("skewpoly:"), (argv, err)
    elif argv[-2:] == ["--format", "json"]:
        json.loads(out)
    return code


@st.composite
def soups(draw, ring):
    """An expression text: tokens of the ring, digits and operators, with
    at most one exponent ``^k``, k <= 8."""
    words = [*ring.names, *ring.domain.units, "1/2", "-1"]
    token = st.one_of(st.sampled_from(words), st.sampled_from(OPERATORS),
                      st.integers(0, 99).map(str))
    tokens = draw(st.lists(token, min_size=1, max_size=10))
    if draw(st.booleans()):
        k = draw(st.integers(0, 8))
        tokens.insert(draw(st.integers(0, len(tokens))), f"^{k}")
    return "".join(tokens)


@st.composite
def sums(draw, ring):
    """A well-formed expression: up to three monomials, each a coefficient
    times up to three ring names and units, with exponents k <= 2."""
    words = st.sampled_from([*ring.names, *ring.domain.units])
    monomials = [
        "*".join([str(draw(st.integers(0, 9))), *(
            f"{word}^{draw(st.integers(1, 2))}"
            for word in draw(st.lists(words, max_size=3)))])
        for _ in range(draw(st.integers(1, 3)))]
    return draw(st.sampled_from([" + ", " - "])).join(monomials)


def expressions(ring):
    return st.one_of(soups(ring), sums(ring))


@st.composite
def text_files(draw, line):
    """Lines drawn from ``line``, among blank, comment and malformed
    lines."""
    lines = draw(st.lists(st.one_of(
        line, st.just(""), st.just("   "), st.just("# a comment"),
        st.text(max_size=12)), max_size=4))
    return "\n".join(lines)


def scalar_lists(ring):
    return st.lists(expressions(ring), min_size=1, max_size=4).map(", ".join)


@st.composite
def invocations(draw, folder):
    """argv for a drawn command on a drawn shipped ring."""
    config = draw(st.sampled_from(CONFIGS))
    ring = RINGS[config.name]
    expr = expressions(ring)
    name = st.sampled_from([*ring.names, "x", "nope"])
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command, "--ring", str(config)]
    if command in ("normalform", "monicize", "evaluate", "cns-search",
                   "gm-check", "reduce"):
        argv.append(draw(expr))
    if command == "multiply":
        argv += [draw(expr), draw(expr)]
    elif command == "evaluate":
        for _ in range(draw(st.integers(1, ring.nvars + 1))):
            argv += ["--at", draw(expr)]
    elif command == "mix":
        for _ in range(draw(st.integers(1, ring.nvars + 1))):
            argv += ["--coeff", draw(expr)]
        argv += draw(st.lists(expr, max_size=ring.nvars + 1))
    elif command == "monicize" and draw(st.booleans()):
        argv += ["--target", draw(name)]
    elif command == "cns-search":
        path = folder / "sets.txt"
        path.write_text(draw(text_files(scalar_lists(ring))), "utf-8")
        argv += ["--sets", str(path)]
    elif command == "gm-check":
        argv += ["--roots", draw(scalar_lists(ring))]
    elif command == "normalize":
        path = folder / "relations.txt"
        path.write_text(draw(text_files(expr)), "utf-8")
        argv += ["--relations", str(path)]
    elif command == "reduce":
        argv += ["--relation", draw(expr), "--var", draw(name)]
    if draw(st.booleans()):
        argv += ["--samples", str(draw(st.integers(1, 8)))]
    return argv + ["--format", draw(st.sampled_from(["json", "text"]))]


# the ring-file mutations: each takes the decoded file and a draw, and
# returns the file's new contents, an object or bytes; an earlier mutation
# may have left no variable entry, or no field, to mutate
def _entries(data):
    entries = data.get("vars") if isinstance(data, dict) else None
    return ([e for e in entries if isinstance(e, dict)]
            if isinstance(entries, list) else [])


def _unknown_kind(data, draw):
    for var in _entries(data)[:1]:
        var[draw(st.sampled_from(["aut", "der"]))] = {"kind": "nope"}
    return data


def _missing_field(data, draw):
    var = draw(st.sampled_from([data, *_entries(data)]))
    if var:
        del var[draw(st.sampled_from(sorted(var)))]
    return data


def _wrong_type(data, draw):
    var = draw(st.sampled_from([data, *_entries(data)]))
    wrong = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                      st.lists(st.integers(), max_size=2), st.just({}),
                      st.text(max_size=5))
    var[draw(st.sampled_from(sorted(var) or ["ring"]))] = draw(wrong)
    return data


def _duplicate_name(data, draw):
    for var in _entries(data)[-1:]:
        data["vars"].append(dict(var))
    return data


def _reserved_name(data, draw):
    for var in _entries(data)[:1]:
        var["name"] = draw(st.sampled_from(["x", "i", "j", "k", "1t", "",
                                            "t-"]))
    return data


def _non_utf8(data, draw):
    text = json.dumps(data).encode()
    at = draw(st.integers(0, len(text)))
    bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    return text[:at] + bad + text[at:]


def _too_many(data, draw):
    for var in _entries(data)[:1]:
        data["vars"] = [dict(var, name=f"v{n}")
                        for n in range(MAX_VARIABLES + 1)]
    return data


MUTATIONS = [_unknown_kind, _missing_field, _wrong_type, _duplicate_name,
             _reserved_name, _non_utf8, _too_many]


@given(data=st.data())
@CONTRACT
def test_commands_keep_the_contract(folder, data):
    argv = data.draw(invocations(folder))
    event(f"{argv[0]} exits {check(argv)}")


@given(data=st.data())
@CONTRACT
def test_mutated_ring_files_keep_the_contract(folder, data):
    config = data.draw(st.sampled_from(CONFIGS))
    mutations = data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                                   max_size=3))
    contents = json.loads(config.read_text("utf-8"))
    for mutate in mutations:
        if not isinstance(contents, bytes):
            contents = mutate(contents, data.draw)
    path = folder / "ring.json"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(json.dumps(contents), "utf-8")
    ring = RINGS[config.name]
    expr = data.draw(expressions(ring))
    command = data.draw(st.sampled_from(["normalform", "monicize"]))
    argv = [command, "--ring", str(path), expr, "--format", "json"]
    event(f"exits {check(argv)}")


def test_a_usage_error_and_help_keep_the_contract():
    assert check(["normalform"]) == 2
    assert check(["--help"]) == 0
