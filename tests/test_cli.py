"""Command front-end: configs, subcommands, formats, exit codes."""

import json
import pathlib
import shlex
import shutil
import subprocess
import sys

import pytest

from skewpoly.cli import main
from skewpoly.config import load_ring, ring_from_data, ring_to_data
from skewpoly.errors import ConfigError

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

    def test_round_trip(self, write):
        ring = load_ring(write("w2.json", WEYL2))
        assert ring_from_data(ring_to_data(ring)) == ring

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

    def test_tower_flavor(self):
        from skewpoly.ore import Flavor

        data = dict(WEYL2, flavor="tower")
        ring = ring_from_data(data)
        assert ring.flavor is Flavor.TOWER

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
        # without "--" argparse reads "-t" as an option (README grammar)
        assert main(["normalform", "--ring", str(ROOT / "configs/weyl.json"),
                     "--", "-t"]) == 0
        assert capsys.readouterr().out == "-t\n"

    def test_config_error_is_2(self, write, capsys):
        assert main(["normalform", "--ring", write("r.json", "{broken"),
                     "t"]) == 2

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

    def test_domain_error_is_1(self, write, capsys):
        # 1 is not a root of t^2 + 1
        assert main(["gm-check", "--ring", write("r.json", QUAT),
                     "--roots", "i, 1", "t^2 + 1"]) == 1
        assert "NotARoot" in capsys.readouterr().err

    def test_not_monic_is_1(self, write, capsys):
        assert main(["reduce", "--ring", write("r.json", QUAT),
                     "--relation", "2*t^2 + 1", "--var", "t", "t^3"]) == 1

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
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "--ring", write("r.json", WEYL), "t",
                  "--at", "x*t", f"--samples={samples}"])
        assert info.value.code == 2
        assert "--samples" in capsys.readouterr().err


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
