"""Command front-end: configs, subcommands, formats, exit codes."""

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from skewpoly import cli
from skewpoly.cli import main
from skewpoly.config import load_ring, ring_from_data, ring_to_data
from skewpoly.errors import ConfigError
from skewpoly.evaluation import mix_derivations
from skewpoly.maps import DEFAULT_SAMPLES, DEFAULT_SEED, MAX_SAMPLES
from skewpoly.parser import MAX_Q_DIGITS, MAX_VARIABLES

ROOT = pathlib.Path(__file__).resolve().parent.parent

WEYL = {
    "ring": "Qx",
    "vars": [{"name": "t", "aut": {"kind": "identity"},
              "der": {"kind": "ddx"}}],
}
WEYL2 = {
    "ring": "Qx",
    "vars": [
        {"name": "t1", "aut": {"kind": "identity"}, "der": {"kind": "ddx"}},
        {"name": "t2", "aut": {"kind": "identity"}, "der": {"kind": "ddx"}},
    ],
}
TWISTED_PAIR = {
    "ring": "Qx",
    "vars": [
        {"name": "a", "aut": {"kind": "q_shift", "q": "2"},
         "der": {"kind": "zero"}},
        {"name": "b", "aut": {"kind": "identity"}, "der": {"kind": "ddx"}},
    ],
}
QUAT = {
    "ring": "HQ",
    "vars": [{"name": "t", "aut": {"kind": "identity"},
              "der": {"kind": "zero"}}],
}
WEYL3 = {
    "ring": "Qx",
    "vars": [
        {"name": "y1", "aut": {"kind": "identity"}, "der": {"kind": "ddx"}},
        {"name": "y2", "aut": {"kind": "identity"}, "der": {"kind": "zero"}},
        {"name": "y3", "aut": {"kind": "identity"}, "der": {"kind": "ddx"}},
    ],
}
# every ring file the repository ships, by file stem
SHIPPED_RINGS = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted([*ROOT.glob("configs/*.json"),
                        *ROOT.glob("perfbench/rings/*.json")])
}
TOWER_WEYL3 = dict(SHIPPED_RINGS["weyl3"], flavor="tower")


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload, encoding="utf-8")
        else:
            path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)
    return _write


class TestConfig:
    def test_load(self, write):
        ring = load_ring(write("weyl.json", WEYL))
        assert ring.names == ("t",)
        assert ring.certificate.ok

    @pytest.mark.parametrize("data", [*SHIPPED_RINGS.values(), TOWER_WEYL3],
                             ids=[*SHIPPED_RINGS, "weyl3-tower"])
    def test_round_trip(self, data):
        ring = ring_from_data(data)
        written = ring_to_data(ring)
        assert written["flavor"] == "commuting"
        assert ring_from_data(written) == ring

    def test_inner_and_lincomb_descriptors(self):
        data = {
            "ring": "HQ",
            "vars": [
                {"name": "t1", "aut": {"kind": "inner_aut", "c": "i"},
                 "der": {"kind": "inner_der", "c": "1 + 2*i"}},
                {"name": "t2", "aut": {"kind": "inner_aut", "c": "i"},
                 "der": {"kind": "lin_comb", "terms": [
                     {"coeff": "2",
                      "der": {"kind": "inner_der", "c": "1 + 2*i"}}]}},
            ],
        }
        ring = ring_from_data(data)
        assert ring.certificate.ok
        assert ring_from_data(ring_to_data(ring)) == ring

    def test_qshift_qdiff(self):
        data = {
            "ring": "Qx",
            "vars": [{"name": "t", "aut": {"kind": "q_shift", "q": "2"},
                      "der": {"kind": "q_diff"}}],
        }
        ring = ring_from_data(data)
        assert ring.certificate.ok

    def test_tower_flavor(self, write, capsys):
        # "tower" names the ring "commuting" does, the paper's iterated ring,
        # so the README normalize runs on it unchanged
        plain = str(ROOT / "configs" / "weyl3.json")
        tower = write("tower.json", TOWER_WEYL3)
        assert main(["normalize", "--ring", tower, "--format", "json",
                     "--relations",
                     str(ROOT / "configs" / "example_relations.txt")]) == 0
        expected = ROOT / "perfbench" / "expected" / "normalize.json"
        assert capsys.readouterr().out.encode("utf-8") == expected.read_bytes()
        assert load_ring(tower) == load_ring(plain)
        outputs = []
        for path in (plain, tower):
            assert main(["monicize", "--ring", path, "--format", "json",
                         "y1*y3 + y2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unknown_flavor(self):
        with pytest.raises(ConfigError):
            ring_from_data(dict(WEYL, flavor="spiral"))

    def test_bad_ring_name(self):
        with pytest.raises(ConfigError):
            ring_from_data({"ring": "Zp", "vars": []})

    def test_reserved_variable_name(self):
        with pytest.raises(ConfigError):
            ring_from_data({
                "ring": "Qx",
                "vars": [{"name": "x", "aut": {"kind": "identity"},
                          "der": {"kind": "zero"}}],
            })
        # a name is reserved exactly over the ring whose literal it is
        for ring, name, refused in [
                ("HQ", "i", True), ("HQ", "j", True), ("HQ", "k", True),
                ("HQ", "x", False), ("Qx", "i", False), ("Q", "x", False),
                ("Q", "i", False), ("Q", "j", False), ("Q", "k", False)]:
            data = {"ring": ring, "vars": [{"name": name,
                                            "aut": {"kind": "identity"},
                                            "der": {"kind": "zero"}}]}
            if refused:
                with pytest.raises(ConfigError, match="scalar literal"):
                    ring_from_data(data)
            else:
                assert ring_from_data(data).names == (name,)

    def test_qdiff_needs_qshift(self):
        with pytest.raises(ConfigError):
            ring_from_data({
                "ring": "Qx",
                "vars": [{"name": "t", "aut": {"kind": "identity"},
                          "der": {"kind": "q_diff"}}],
            })

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_ring(str(tmp_path / "absent.json"))

    def test_malformed_json(self, write):
        with pytest.raises(ConfigError):
            load_ring(write("bad.json", "{not json"))


class TestCommands:
    def test_normalform_text(self, write, capsys):
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     "t*x"]) == 0
        assert capsys.readouterr().out == "x*t + 1\n"

    def test_normalform_json(self, write, capsys):
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     "--format", "json", "t*x"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["normal_form"] == "x*t + 1"
        assert data["terms"][0] == {"exponents": [1], "coeff": "x"}

    def test_multiply(self, write, capsys):
        assert main(["multiply", "--ring", write("r.json", WEYL),
                     "t+1", "t-1"]) == 0
        assert capsys.readouterr().out == "t^2 - 1\n"

    def test_evaluate(self, write, capsys):
        assert main(["evaluate", "--ring", write("r.json", WEYL),
                     "t^2", "--at", "t+1"]) == 0
        assert capsys.readouterr().out == "t^2 + 2*t + 1\n"

    def test_mix(self, write, capsys):
        assert main(["mix", "--ring", write("r.json", WEYL2),
                     "--coeff", "3", "t1", "t2"]) == 0
        out = capsys.readouterr().out
        assert "u1 = t1 + 3*t2" in out

    def test_monicize(self, write, capsys):
        assert main(["monicize", "--ring", write("r.json", WEYL2),
                     "t1*t2"]) == 0
        out = capsys.readouterr().out
        assert "shifts: [1]" in out
        assert "monic form: t1*t2 + t2^2" in out

    def test_cns_search(self, write, capsys):
        ring_path = write("r.json", QUAT)
        sets_path = write("sets.txt", "0, 1, i\n")
        assert main(["cns-search", "--ring", ring_path,
                     "--sets", sets_path, "t^2 + 1"]) == 0
        out = capsys.readouterr().out
        assert "witness: (0)" in out
        assert "value: 1" in out
        assert "scanned: 1" in out

    def test_gm_check(self, write, capsys):
        assert main(["gm-check", "--ring", write("r.json", QUAT),
                     "--roots", "i, j, k", "t^2 + 1"]) == 0
        out = capsys.readouterr().out
        assert "conjugacy classes: 1" in out

    def test_normalize(self, write, capsys):
        ring_path = write("r.json", WEYL3)
        rel_path = write("rels.txt", "# witnesses\ny1*y3\ny2^2\n")
        assert main(["normalize", "--ring", ring_path, "--samples", "8",
                     "--relations", rel_path]) == 0
        out = capsys.readouterr().out
        assert "step 1: eliminated y3" in out
        assert "step 2: eliminated y2" in out
        assert "residual variables: y1" in out

    def test_normalize_qdiff(self, write, capsys):
        rel_path = write("rels.txt", "t^2 + x*t + 1\n")
        ring_path = str(ROOT / "configs" / "qdiff.json")
        assert main(["normalize", "--ring", ring_path,
                     "--relations", rel_path]) == 0
        assert "step 1: eliminated t" in capsys.readouterr().out

    def test_normalize_divides_oldest_first(self, write, capsys):
        # the third relation is (c^3 + b^2) + a; dividing by b^2 + a first
        # refused it with NotAWitness (exit 1)
        ring_path = write("r.json", {"ring": "Q", "vars": [
            {"name": n, "aut": {"kind": "identity"}, "der": {"kind": "zero"}}
            for n in ("a", "b", "c")]})
        rel_path = write("rels.txt", "c^3 + b^2\nb^2 + a\nc^3 + b^2 + a\n")
        assert main(["normalize", "--ring", ring_path,
                     "--relations", rel_path]) == 0
        out = capsys.readouterr().out
        assert "step 3: eliminated a" in out
        assert out.endswith("residual variables: none\n")

    def test_reduce(self, write, capsys):
        assert main(["reduce", "--ring", write("r.json", QUAT),
                     "--relation", "t^2 - 3*t + 2", "--var", "t",
                     "t^2"]) == 0
        assert capsys.readouterr().out == "3*t - 2\n"

    def test_output_file(self, write, tmp_path, capsys):
        out_path = tmp_path / "out.txt"
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     "--output", str(out_path), "t*x"]) == 0
        assert out_path.read_text(encoding="utf-8") == "x*t + 1\n"
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_parse_error_is_2(self, write, capsys):
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     "t*"]) == 2
        assert "error" in capsys.readouterr().err

    def test_exponent_above_bound_is_2(self, write, capsys):
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     "x^2000"]) == 2
        assert "exceeds 1000 (line 1, column 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, column", [("t^²", 3), ("٣*t", 1)])
    def test_non_ascii_digit_is_2(self, write, capsys, expr, column):
        # "t^²" used to crash in int() with exit 1; "٣*t" read as 3*t
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     expr]) == 2
        assert (f"unexpected character {expr[column - 1]!r} "
                f"(line 1, column {column})") in capsys.readouterr().err

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                        reason="int conversion has no digit limit")
    @pytest.mark.parametrize("ring, argv", [
        (WEYL, ["normalform", "{long}*t"]),
        (WEYL, ["normalform", "(x^2 + {long}*x)*t"]),
        (WEYL, ["normalform", "t^{long}"]),
        (WEYL2, ["mix", "--coeff", "{long}", "t1", "t2"]),
    ], ids=["coefficient", "x-polynomial", "exponent", "scalar"])
    def test_long_literal_is_2(self, write, capsys, ring, argv):
        # a literal past int()'s digit limit used to exit 1 with a bare
        # ValueError
        long = "1" * (sys.get_int_max_str_digits() + 1)
        command, *rest = [a.format(long=long) for a in argv]
        assert main([command, "--ring", write("r.json", ring), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"skewpoly: error: integer literal of "
                              f"{len(long)} digits is too long (line 1, ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_deep_nesting_is_2(self, write, capsys, fmt):
        # 200 nested parentheses used to exit 1 with a RecursionError
        # traceback; the parser refuses the 101st "(" instead
        assert main(["normalform", "--ring", write("r.json", WEYL),
                     "--format", fmt, "(" * 200 + "t" + ")" * 200]) == 2
        err = capsys.readouterr().err
        assert err == ("skewpoly: error: parentheses nested deeper than 100"
                       " (line 1, column 101)\n")

    def test_long_sign_chain_is_0(self, write, capsys):
        ring_path = write("r.json", WEYL)
        assert main(["normalform", "--ring", ring_path, "--",
                     "-" * 1000 + "t"]) == 0
        assert capsys.readouterr().out == "t\n"
        assert main(["normalform", "--ring", ring_path, "--format", "json",
                     "--", "-" * 1001 + "t"]) == 0
        assert json.loads(capsys.readouterr().out)["normal_form"] == "-t"

    def test_leading_minus_after_double_dash_is_0(self, capsys):
        # without "--" the command line reads "-t" as an option (README
        # grammar)
        assert main(["normalform", "--ring", str(ROOT / "configs/weyl.json"),
                     "--", "-t"]) == 0
        assert capsys.readouterr().out == "-t\n"

    def test_config_error_is_2(self, write, capsys):
        assert main(["normalform", "--ring", write("r.json", "{broken"),
                     "t"]) == 2

    @pytest.mark.parametrize("content", [None, b"\xff\xfe t\n"],
                             ids=["missing", "not-utf8"])
    @pytest.mark.parametrize("argv", [
        ["normalform", "--ring", "{path}", "t"],
        ["normalize", "--ring", "weyl3.json", "--relations", "{path}"],
        ["cns-search", "--ring", "quat.json", "--sets", "{path}", "t^2 + 1"],
    ], ids=["ring", "relations", "sets"])
    def test_unreadable_file_is_2(self, tmp_path, capsys, argv, content):
        # a file that is not UTF-8 used to exit 1 with a bare
        # UnicodeDecodeError
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        argv = [str(path) if a == "{path}" else
                str(ROOT / "configs" / a) if a.endswith(".json") else a
                for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("skewpoly: error: cannot read ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("data", [
        {"ring": "Qx", "vars": ["t"]},
        {"ring": "Qx", "vars": [dict(WEYL["vars"][0], name=5)]},
        dict(WEYL, ring=["Qx"]),
        {"ring": "Qx", "vars": [{"name": "t", "aut": {"kind": "identity"},
                                 "der": {"kind": "lin_comb", "terms": 5}}]},
        {"ring": "Qx", "vars": [{"name": "t",
                                 "aut": {"kind": "q_shift", "q": "abc"},
                                 "der": {"kind": "zero"}}]},
        {"ring": "Qx", "vars": [{"name": "t",
                                 "aut": {"kind": "q_shift", "q": 0},
                                 "der": {"kind": "zero"}}]},
        {"ring": "HQ", "vars": [{"name": "t",
                                 "aut": {"kind": "inner_aut", "c": "0"},
                                 "der": {"kind": "zero"}}]},
        # unbounded, q = 10^1000000 hangs in q_diff and q = 10^1000 fails
        # Python's int-to-str limit when a product is printed
        *({"ring": "Qx", "vars": [{"name": "t",
                                   "aut": {"kind": "q_shift", "q": q},
                                   "der": {"kind": "q_diff"}}]}
          for q in ("1e1000000", "1e1000")),
    ], ids=["var-not-object", "name-not-string", "ring-not-string",
            "terms-not-list", "q-not-rational", "q-zero", "c-zero",
            "q-huge", "q-large"])
    def test_malformed_config_is_2(self, write, capsys, data):
        assert main(["normalform", "--ring", write("r.json", data), "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skewpoly: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("data", [
        {"ring": "x" * 100_000, "vars": []},
        {"ring": "Qx", "vars": [{"name": "t", "aut": {"kind": "identity"},
                                 "der": ["d"] * 20_000}]},
        {"ring": "Qx", "flavor": "f" * 100_000, "vars": []},
        {"ring": "Qx", "vars": [dict(WEYL["vars"][0], name="-" * 100_000)]},
        {"ring": "Qx", "vars": [{"name": "t", "aut": {"kind": "k" * 100_000},
                                 "der": {"kind": "zero"}}]},
    ], ids=["ring", "der-list", "flavor", "name", "kind"])
    def test_config_error_quotes_a_bounded_value(self, write, capsys, data):
        # the whole value used to be quoted: a 100,000-character ring name
        # gave one stderr line of 100,063 bytes
        assert main(["normalform", "--ring", write("r.json", data), "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skewpoly: error: ")
        assert err.count("\n") == 1
        assert len(err) < 200

    def test_duplicate_name_error_is_one_short_line(self, write, capsys):
        # every name used to be quoted: 20,000 repeats of one name gave
        # one stderr line of 100,046 bytes
        data = {"ring": "Qx", "vars": [WEYL["vars"][0]] * 20_000}
        assert main(["normalform", "--ring", write("r.json", data), "t"]) == 2
        assert capsys.readouterr().err == (
            "skewpoly: error: duplicate variable name 't'\n")

    def test_one_variable_past_the_bound_is_2_quickly(self, write, capsys):
        # certification is quadratic in the variables, and nothing bounded
        # them: a few thousand variables kept load_ring busy for minutes
        data = {"ring": "HQ", "vars": [
            {"name": f"t{n}", "aut": {"kind": "inner_aut", "c": f"1 + {n}*i"},
             "der": {"kind": "inner_der", "c": f"{n} + i"}}
            for n in range(MAX_VARIABLES + 1)]}
        start = time.perf_counter()
        assert main(["normalform", "--ring", write("r.json", data), "t0"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"skewpoly: error: a ring has at most {MAX_VARIABLES} "
            f"variables, got {MAX_VARIABLES + 1}\n")
        del data["vars"][-1]
        assert main(["normalform", "--ring", write("r.json", data), "t0"]) == 0

    def test_long_map_coefficients_are_2_quickly(self, write, capsys):
        # q was bounded but map coefficients were not: 32 variables whose
        # inner maps carry 1,000-digit integers kept load_ring busy 17.8 s
        def ring(big, count):
            return {"ring": "HQ", "vars": [
                {"name": f"t{n}",
                 "aut": {"kind": "inner_aut", "c": f"1 + {big + n}*i"},
                 "der": {"kind": "inner_der", "c": f"{n}/{big} + i"}}
                for n in range(count)]}
        start = time.perf_counter()
        data = ring(10**999, MAX_VARIABLES)
        assert main(["normalform", "--ring", write("r.json", data), "t0"]) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == (
            f"skewpoly: error: c has more than {MAX_Q_DIGITS} digits\n")
        data = ring(10**(MAX_Q_DIGITS - 1), 2)  # 100 digits still load
        assert main(["normalform", "--ring", write("r.json", data), "t0"]) == 0

    @pytest.mark.parametrize("coeff, code", [
        ("9" * MAX_Q_DIGITS, 0), (f"1/1{'0' * MAX_Q_DIGITS}", 2),
        (f"(x + {10**MAX_Q_DIGITS})/(x + 1)", 2)],
        ids=["100-digits", "101-digit-denominator", "101-digit-coefficient"])
    def test_lin_comb_coefficients_are_bounded(self, write, capsys, coeff,
                                               code):
        der = {"kind": "lin_comb", "terms": [
            {"coeff": "1", "der": {"kind": "ddx"}},
            {"coeff": coeff, "der": {"kind": "ddx"}}]}
        data = {"ring": "Qx", "vars": [dict(WEYL["vars"][0], der=der)]}
        assert main(["normalform", "--ring", write("r.json", data), "t"]) == code
        assert capsys.readouterr().err == ("" if code == 0 else
            f"skewpoly: error: coeff has more than {MAX_Q_DIGITS} digits\n")

    def test_deeply_nested_json_is_2(self, write, capsys):
        # nesting past the JSON decoder's recursion limit used to exit 1
        # with a RecursionError traceback; the text is written directly,
        # since json.dumps overflows at the same depth
        text = '{"ring": "Qx", "vars": ' + "[" * 100_000 + "]" * 100_000 + "}"
        assert main(["normalform", "--ring", write("r.json", text), "t"]) == 2
        assert capsys.readouterr().err == (
            "skewpoly: error: ring configuration is nested too deeply\n")

    def test_deeply_nested_lin_comb_is_2(self, write, capsys, monkeypatch):
        # from Python 3.12 the decoder reads lin_comb descriptors nested
        # past the interpreter's recursion limit, and der_from_data, which
        # recurses once per level, overflows instead; the decoded data is
        # handed to load_ring directly, so every Python takes that path
        der = {"kind": "ddx"}
        for _ in range(5000):
            der = {"kind": "lin_comb", "terms": [{"coeff": "1", "der": der}]}
        data = {"ring": "Qx", "vars": [
            {"name": "t", "aut": {"kind": "identity"}, "der": der}]}
        monkeypatch.setattr(json, "load", lambda fh: data)
        assert main(["normalform", "--ring", write("r.json", "{}"), "t"]) == 2
        assert capsys.readouterr().err == (
            "skewpoly: error: ring configuration is nested too deeply\n")

    def test_domain_error_is_1(self, write, capsys):
        # 1 is not a root of t^2 + 1
        assert main(["gm-check", "--ring", write("r.json", QUAT),
                     "--roots", "i, 1", "t^2 + 1"]) == 1
        assert "NotARoot" in capsys.readouterr().err

    def test_failed_set_validation_is_1(self, write, capsys):
        # i and j are conjugate, so the set is not a valid evaluation set
        assert main(["cns-search", "--ring", write("r.json", QUAT),
                     "--sets", write("sets.txt", "i, j\n"), "t"]) == 1
        assert capsys.readouterr().err == (
            "skewpoly: SkewError: evaluation sets failed validation "
            "(pairwise non-conjugacy and size > deg = 1)\n")

    def test_not_monic_is_1(self, write, capsys):
        assert main(["reduce", "--ring", write("r.json", QUAT),
                     "--relation", "2*t^2 + 1", "--var", "t", "t^3"]) == 1

    @pytest.mark.parametrize("ring, argv", [
        (QUAT, ["reduce", "--relation", "t^2 + 1", "--var", "s", "t^3"]),
        (WEYL2, ["monicize", "--target", "s", "t1*t2"]),
    ], ids=["reduce-var", "monicize-target"])
    def test_unknown_option_variable_is_2(self, write, capsys, ring, argv):
        # an unknown name given in an option used to exit 1, while the
        # same name inside an expression exits 2
        command, *rest = argv
        assert main([command, "--ring", write("r.json", ring), *rest]) == 2
        assert capsys.readouterr().err == (
            "skewpoly: error: no variable named 's' in the ring\n")

    def test_failed_tuple_certificate_is_1(self, write, capsys):
        # a constant is not automorphic in the Weyl ring
        assert main(["evaluate", "--ring", write("r.json", WEYL),
                     "t^2", "--at", "x"]) == 1
        assert "CertificateFailed" in capsys.readouterr().err

    def test_zero_relation_search_is_1(self, capsys):
        # a zero degree used to be -inf, and int(-inf) raised OverflowError
        configs = ROOT / "configs"
        assert main(["cns-search", "--ring", str(configs / "quat.json"),
                     "--sets", str(configs / "example_sets.txt"), "0"]) == 1
        assert "ZeroPolynomial" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["monicize", "--ring", "weyl2.json", "1"],
        ["gm-check", "--ring", "weyl.json", "--roots", "1", "t"],
        ["evaluate", "--ring", "weyl2.json", "t1", "--at", "t1"],
        ["mix", "--ring", "weyl.json", "--coeff", "1"],
        ["reduce", "--ring", "weyl.json", "--relation", "0", "--var", "t",
         "t"],
    ])
    def test_library_error_is_one_line(self, capsys, argv):
        argv = [str(ROOT / "configs" / a) if a.endswith(".json") else a
                for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("skewpoly: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("output", ["missing/report.txt", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_output_is_2(self, write, tmp_path, capsys, output):
        assert main(["normalform", "--ring", write("r.json", WEYL), "t*x",
                     "--output", str(tmp_path / output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skewpoly: error: cannot write ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_usage_error_is_2(self, write):
        with pytest.raises(SystemExit) as info:
            main(["normalform"])
        assert info.value.code == 2

    @pytest.mark.parametrize("flavor", ["commuting", "tower"])
    def test_failed_ring_certificate_is_1(self, write, capsys, flavor):
        # unguarded, "b*a" "x" and "b" "a*x" print different products
        ring_path = write("r.json", dict(TWISTED_PAIR, flavor=flavor))
        assert main(["multiply", "--ring", ring_path, "b*a", "x"]) == 1
        assert main(["multiply", "--ring", ring_path, "b", "a*x"]) == 1
        assert "IncompatibleMaps" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_non_positive_samples_is_2(self, write, capsys, samples):
        # x*t is not automorphic for (id, d/dx); zero samples would pass it
        assert main(["evaluate", "--ring", write("r.json", WEYL), "t",
                     "--at", "x*t", f"--samples={samples}"]) == 2
        assert capsys.readouterr().err == (
            "skewpoly: error: law checks need at least one sample, "
            f"got {samples}\n")

    def test_samples_above_the_bound_is_2(self, write, capsys):
        # t+1 is checked on the samples, so each count draws its pool
        ring_path = write("r.json", WEYL)
        argv = ["evaluate", "--ring", ring_path, "t", "--at", "t+1"]
        assert main([*argv, f"--samples={MAX_SAMPLES + 1}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skewpoly: error: ") and err.count("\n") == 1
        assert main([*argv, f"--samples={MAX_SAMPLES}"]) == 0
        assert capsys.readouterr().out == "t + 1\n"

    def test_a_billion_samples_is_2_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewpoly", "evaluate", "--ring",
             str(ROOT / "configs" / "weyl.json"), "t", "--at", "x*t",
             "--samples", str(10**9)],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("skewpoly: error: ")
        assert proc.stderr.count("\n") == 1


class TestDeterminism:
    def test_json_byte_stable(self, write, capsys):
        ring_path = write("r.json", WEYL2)
        argv = ["monicize", "--ring", ring_path, "--format", "json",
                "--seed", "7", "t1*t2 + 1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["substitution"]["shifts"] == ["1"]

    def test_normalize_json_stable(self, write, capsys):
        ring_path = write("r.json", WEYL3)
        rel_path = write("rels.txt", "y1*y3\ny2^2\n")
        argv = ["normalize", "--ring", ring_path, "--samples", "8",
                "--format", "json", "--relations", rel_path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out


def _readme_commands():
    """The example command lines of the README, as argument lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("skewpoly ")]


def test_readme_lists_every_command():
    assert len(_readme_commands()) == 9


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_json_is_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv + ["--format", "json"]) == 0
    expected = (ROOT / "perfbench" / "expected" / f"{argv[0]}.json")
    assert capsys.readouterr().out.encode("utf-8") == expected.read_bytes()


def test_readme_mix_mixes_once(monkeypatch, capsys):
    # mixing elements alongside reads the mixed derivations off the mixed
    # tuple: the tower is built and certified once, not again for the JSON
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mix_derivations(*args, **kwargs)

    for name in ("skewpoly.cli", "skewpoly.evaluation"):
        monkeypatch.setattr(importlib.import_module(name), "mix_derivations",
                            counted)
    monkeypatch.chdir(ROOT)
    (argv,) = [a for a in _readme_commands() if a[0] == "mix"]
    assert main(argv + ["--format", "json"]) == 0
    expected = ROOT / "perfbench" / "expected" / "mix.json"
    assert capsys.readouterr().out.encode("utf-8") == expected.read_bytes()
    assert len(calls) == 1


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_json_from_installed_script(argv):
    # the same comparison through the console script, one fresh process each
    script = shutil.which("skewpoly")
    if script is None:
        pytest.skip("the skewpoly console script is not installed")
    run = subprocess.run([script, *argv, "--format", "json"], cwd=ROOT,
                         capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    expected = (ROOT / "perfbench" / "expected" / f"{argv[0]}.json")
    assert run.stdout == expected.read_bytes()


def test_readme_library_example(capsys):
    # each print's comment starts with the line it prints
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 2
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)


def test_readme_reduce_example(capsys):
    # the second block continues the first; its comment starts with the
    # line it prints
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    comment = blocks[1].split("#")[-1].strip()
    assert comment.startswith(printed[-1])


def test_shipped_configs_load():
    import pathlib

    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    ring_files = sorted(config_dir.glob("*.json"))
    assert len(ring_files) == 6
    for path in ring_files:
        ring = load_ring(str(path), samples=16)
        assert ring.certificate.ok, path.name


def test_shipped_examples_run(capsys):
    import pathlib

    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    assert main(["cns-search", "--ring", str(config_dir / "quat.json"),
                 "--sets", str(config_dir / "example_sets.txt"),
                 "t^2 + 1"]) == 0
    assert "witness: (0)" in capsys.readouterr().out
    assert main(["normalize", "--ring", str(config_dir / "weyl3.json"),
                 "--samples", "8",
                 "--relations", str(config_dir / "example_relations.txt")]) == 0
    assert "residual variables: y1" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    ring_path = tmp_path / "r.json"
    ring_path.write_text(json.dumps(WEYL), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "skewpoly", "normalform",
         "--ring", str(ring_path), "t*x"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x*t + 1\n"


def test_cold_import_loads_no_dataclasses_or_inspect():
    # the value classes are plain __slots__ classes, so a cold import of
    # the CLI, without site-packages, runs no generated code; the argv
    # reader walks a table, so neither argparse nor its gettext is loaded
    code = ("import sys, skewpoly.cli; print(sorted({'dataclasses', "
            "'inspect', 'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _parsed(parse, argv):
    """The values a parser reads from argv, or its exit code."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


@functools.lru_cache(maxsize=None)
def _argparse_from_table():
    """The oracle: an argparse parser built from the CLI's table, with
    prefixes of long options switched off as the reader has them."""
    parser = argparse.ArgumentParser(prog="skewpoly", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, usage, _) in cli._COMMANDS.items():
        sub = commands.add_parser(name, allow_abbrev=False)
        words = iter(f"{cli._COMMON} {usage}".split())
        for word in words:
            if not word.lstrip("[").startswith("--"):
                sub.add_argument(word.strip("[.]").lower(),
                                 nargs="*" if word[0] == "[" else None)
                continue
            option, metavar = word.lstrip("["), next(words).rstrip("]")
            kind = metavar.rstrip(".")
            checks = ({"type": int} if kind == "INT" else
                      {"choices": kind.split("|")} if "|" in kind else {})
            sub.add_argument(option, required=word[0] != "[",
                             default=cli._DEFAULTS.get(option),
                             action="append" if metavar.endswith("...")
                             else "store", **checks)
    return parser


# Tokens for positionals and option values.  _QUIET ones read as
# positionals: expressions, "-", negative numbers, and "-"-led texts with a
# space.  _LOUD ones read as options: "-"-led tokens without a space,
# unknown options, an option's prefix and an option given its value.  None
# starts with "-h", which argparse reads as -h with an attached value.
_QUIET = ["t", "t+1", "x*t", "i, j", "0", "7", "text", "", "-", "-1", "-12",
          "-.5", "-1.5", "-1*t1*t1 + 3*t2", "-2*t + t^2", "-x y",
          "--bogus=a b"]
_LOUD = ["-t", "-zz", "-1*t", "--bogus", "--rel", "--form", "--ring=a b"]
_CHECKED = {"--seed": (["3", "-3", " 7"], ["abc", "1.5"]),
            "--samples": (["5", "1", "0", "-1"], ["x"]),
            "--format": (["text", "json"], ["xml", ""])}


@st.composite
def _argvs(draw):
    """An argv for one command: its options, as "--name value" or
    "--name=value", and its positionals, shuffled, maybe with one "--"
    before a positional after the last option, and after it positionals
    that would read as options.  At most one kind of noise is added: an
    invalid value, a missing required option, a positional too few or too
    many, a token that reads as an option, a "--" before options, or a
    trailing option with no value.  mix's positionals stay together, as
    argparse refuses a list of them split by options, and argparse (3.11)
    refuses a "--" that no positional follows, so none is drawn."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from([[], ["bogus", "t"], ["--ring", "t"]]))
    noise = draw(st.sampled_from([None, None, "value", "missing", "count",
                                  "token", "dashes", "trailing"]))
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    words = iter(f"{cli._COMMON} {cli._COMMANDS[command][1]}".split())
    units, names, wanted = [], [], 0  # units: (whether an option, tokens)
    for word in words:
        if not word.lstrip("[").startswith("--"):
            wanted += word[0] != "["
            continue
        name = word.lstrip("[")
        names.append(name)
        next(words)
        required = word[0] != "[" and noise != "missing"
        for _ in range(draw(st.sampled_from([0, 1, 2][required:]))):
            good, bad = _CHECKED.get(name, (_QUIET, _LOUD))
            value = draw(st.sampled_from(good + bad * (noise == "value")))
            units.append((True, [f"{name}={value}"] if draw(st.booleans())
                          else [name, value]))
    if noise == "count":
        wanted += draw(st.sampled_from([1, -1] if wanted else [1]))
    positionals = [draw(st.sampled_from(_QUIET)) for _ in range(
        draw(st.integers(0, 3)) if command == "mix" else wanted)]
    if noise == "token":
        positionals.insert(draw(st.integers(0, len(positionals))),
                           draw(st.sampled_from(_LOUD)))
    units += ([(False, positionals)] if command == "mix" else
              [(False, [p]) for p in positionals])
    units = draw(st.permutations(units))
    first = 0 if noise == "dashes" else max(
        [i + 1 for i, (option, _) in enumerate(units) if option], default=0)
    cut = draw(st.sampled_from([None] + [
        i for i, (option, _) in enumerate(units) if i >= first and not option]))
    if cut is not None:
        for option, unit in units[cut:]:
            if not option:
                unit[:] = [draw(st.sampled_from(_QUIET + _LOUD)) for _ in unit]
        units.insert(cut, (False, ["--"]))
    argv = [command] + [token for _, unit in units for token in unit]
    if noise == "trailing":
        argv.append(draw(st.sampled_from(names)))
    return argv


class TestArgvReader:
    """The table-driven argv reader: one-line usage errors, help from the
    table, and argparse's reading rules, held to argparse itself."""

    CONFIGS = {"{weyl}": str(ROOT / "configs" / "weyl.json"),
               "{rels}": str(ROOT / "configs" / "example_relations.txt")}

    @pytest.mark.parametrize("argv, message", [
        ([], "no command"),
        (["normalfrom", "t"], "unknown command 'normalfrom'"),
        (["normalform", "--ring", "{weyl}", "--bogus", "t"],
         "unknown option '--bogus'"),
        (["normalize", "--ring", "{weyl}", "--rel", "{rels}"],
         "unknown option '--rel'"),
        (["normalform", "t"], "missing --ring"),
        (["normalform", "--ring", "{weyl}"], "missing EXPR"),
        (["multiply", "--ring", "{weyl}", "t", "t", "x"],
         "unexpected argument 'x'"),
        (["normalform", "--ring", "{weyl}", "t", "--format"],
         "argument --format: expected a value"),
        (["normalform", "--ring", "--format", "json", "t"],
         "argument --ring: expected a value"),
        (["normalform", "--ring", "{weyl}", "--format", "xml", "t"],
         "argument --format: 'xml' is not text|json"),
        (["normalform", "--ring", "{weyl}", "--seed", "abc", "t"],
         "argument --seed: 'abc' is no integer"),
    ], ids=["no-arguments", "unknown-command", "unknown-option",
            "option-prefix", "missing-option", "missing-positional",
            "extra-positional", "missing-value", "value-is-an-option",
            "format-xml", "seed-abc"])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main([self.CONFIGS.get(a, a) for a in argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"skewpoly: error: {message}\n"

    @pytest.mark.parametrize("argv, expected", [
        (["evaluate", "--at", "t", "-x y", "--ring=r", "--at=-1"],
         {"at": ["t", "-1"], "expr": "-x y", "ring": "r"}),
        (["normalform", "--format", "json", "--ring", "r", "--format=text",
          "--seed", "-3", "-"], {"format": "text", "seed": -3, "expr": "-"}),
        (["multiply", "--ring", "-", "-.5", "--", "-t"],
         {"ring": "-", "left": "-.5", "right": "-t"}),
        (["mix", "--coeff", "3", "--ring", "r"],
         {"coeff": ["3"], "elements": [], "seed": DEFAULT_SEED,
          "samples": DEFAULT_SAMPLES, "output": None}),
    ], ids=["repeated", "last-wins", "dashes", "defaults"])
    def test_reads(self, argv, expected):
        args = vars(cli._read_args(argv))
        assert {name: args[name] for name in expected} == expected

    @pytest.mark.parametrize("argv", [
        ["monicize", "--ring", "configs/weyl2.json", "-1*t1*t1 + 3*t2"],
        ["evaluate", "--ring", "configs/weyl.json", "-2*t + t^2",
         "--at", "t+1"],
    ], ids=["monicize", "evaluate"])
    def test_leading_minus_with_a_space_is_an_expression(
            self, monkeypatch, capsys, argv):
        # the seeded cli_cold variants pass such expressions without "--"
        monkeypatch.chdir(ROOT)
        command, ring, path, expr, *rest = argv
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([command, ring, path, *rest, "--", expr]) == 0
        assert capsys.readouterr().out == plain
        assert plain.strip()

    @pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                      ["normalize", "-h"]])
    def test_help_prints_the_table(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        out = capsys.readouterr().out
        shown = [argv[0]] if argv[0] in cli._COMMANDS else cli._COMMANDS
        for name, (_, usage, text) in cli._COMMANDS.items():
            entry = (f"usage: skewpoly {name} [-h] {cli._COMMON} {usage}\n"
                     f"  {text}\n")
            assert (entry in out) == (name in shown), name
        assert len(out.splitlines()) == 2 * len(shown)

    @given(_argvs())
    def test_reads_as_argparse(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            expected = _parsed(_argparse_from_table().parse_args, argv)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert _parsed(cli._read_args, argv) == expected
        event("read" if expected != 2 else "usage error")
        if expected == 2:
            assert err.getvalue().startswith("skewpoly: error: ")
            assert err.getvalue().count("\n") == 1
