"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    import skewpoly.cli  # noqa: F401  (every module, as the worker does)

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        yield tracer
    finally:
        tracing.uninstall(undo)


# -- tail percentile -----------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    value, percentile = run.tail_percentile(list(range(100, 0, -1)))
    assert value == 90
    assert percentile == 90.0
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_percentile_small_samples():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, percentile = run.tail_percentile(list(range(11)))
    assert value == 0
    assert percentile == pytest.approx(100 / 11)


# -- self time -------------------------------------------------------------------

def test_span_self_times_on_a_synthetic_tree():
    spans = [
        # name, start, end, parent, op, time of un-spanned children
        ["root", 0.0, 10.0, -1, 0, 1.0],
        ["child", 1.0, 3.0, 0, 0, 0.0],
        ["child", 2.0, 5.0, 0, 0, 0.5],    # overlaps its sibling
        ["leaf", 2.5, 4.0, 2, 0, 0.0],
        ["late", 9.0, 12.0, 0, 0, 0.0],    # runs past its parent
        ["root", 20.0, 21.0, -1, 1, 0.0],
    ]
    self_s = tracing.span_self_times(spans)
    # root: 10 - union([1,5], [9,10]) - 1 hot, plus the second root's 1
    assert self_s["root"] == pytest.approx(10 - 5 - 1 + 1)
    assert self_s["child"] == pytest.approx(2 + (3 - 1.5 - 0.5))
    assert self_s["leaf"] == pytest.approx(1.5)
    assert self_s["late"] == pytest.approx(3)


def test_online_frames_match_span_arithmetic(tracer):
    """A hot call inside a span is charged to the hot layer, not the span."""
    from skewpoly.config import load_ring
    from skewpoly.parser import parse_expr

    ring = load_ring(ROOT / "configs" / "weyl.json")
    parse_expr("(x^2 + 1)*t^3", ring) * parse_expr("(x - 2)*t^2 + x", ring)
    spans = tracer.spans
    total = sum(end - start for _, start, end, parent, _, _ in spans
                if parent == -1)
    self_s = sum(tracing.span_self_times(spans).values())
    hot = sum(tracer.hot_self.values())
    assert self_s + hot == pytest.approx(total, rel=1e-6)


# -- operation lists ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_and_traced_runs_generate_the_same_operations(name):
    count = workloads.WORKLOADS[name].trace_ops
    untraced = list(itertools.islice(workloads.WORKLOADS[name]().ops(7),
                                     2 * count))
    import skewpoly.cli  # noqa: F401

    undo = tracing.install(tracing.Tracer())
    try:
        traced = list(itertools.islice(workloads.WORKLOADS[name]().ops(7),
                                       count))
    finally:
        tracing.uninstall(undo)
    assert untraced[:count] == traced
    other = list(itertools.islice(workloads.WORKLOADS[name]().ops(8), count))
    assert other != traced


# -- wrappers ------------------------------------------------------------------------

def _current(owner, attr):
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return getattr(raw, "__func__", raw)


def test_no_wrapped_name_is_missed_in_any_importing_module():
    import skewpoly.cli  # noqa: F401

    originals = [(owner, attr, _current(owner, attr))
                 for owner, attr, _, _, _ in tracing.targets()]
    undo = tracing.install(tracing.Tracer())
    try:
        for owner, attr, fn in originals:
            assert _current(owner, attr).__wrapped__ is fn
            for module in tracing.skewpoly_modules():
                leftovers = [key for key, value in vars(module).items()
                             if value is fn]
                assert not leftovers, (module.__name__, leftovers)
    finally:
        tracing.uninstall(undo)
    for owner, attr, fn in originals:
        assert _current(owner, attr) is fn


def test_readme_normalize_builds_seven_distinct_rings_of_fifteen(
        tracer, monkeypatch):
    from skewpoly.cli import main

    monkeypatch.chdir(ROOT)
    assert main(workloads.README_COMMANDS["normalize"]
                + ["--output", "/dev/null"]) == 0
    assert tracer.counts["ore.ring_init.calls"] == 15
    assert tracer.counts["ore.ring_init.repeats"] == 8


# -- oracles ---------------------------------------------------------------------------

def test_reader_reads_a_rendered_normal_form():
    poly = oracle.read_poly("(3*x^2 - x + 2)*t^2 - 1/2*x*t + 7", ("x", "t"))
    assert oracle.split_vars(poly, 1) == {
        (2,): {(2,): 3, (1,): -1, (0,): 2}, (1,): {(1,): oracle.Fraction(-1, 2)},
        (0,): {(0,): 7}}
    with pytest.raises(oracle.ReadError):
        oracle.read_poly("(x + 1)/(x^2)", ("x",))


def test_weyl_oracle_rejects_a_wrong_product():
    # t*x = x*t + 1 in the Weyl ring; x*t alone is wrong
    r, lams = [1, 2, 3, 4, 5], (7,)
    expected = oracle.weyl_act({(1,): [1]}, oracle.weyl_act({(0,): [0, 1]}, r, lams), lams)
    right = oracle.weyl_act({(1,): [0, 1], (0,): [1]}, r, lams)
    wrong = oracle.weyl_act({(1,): [0, 1]}, r, lams)
    assert right == expected != wrong


# -- the benchmark description -----------------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == (
        [n for n, _, _ in run.PER_LAYER] + [run.OVERHEAD[0]])
    assert [m["unit"] for m in spec["per_layer"]] == (
        [u for _, u, _ in run.PER_LAYER] + [run.OVERHEAD[1]])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
