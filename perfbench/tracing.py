"""Tracing from outside the program: wrappers around skewpoly's layer
boundaries, installed by the benchmark before a traced pass.

Three kinds of boundary:

* spans (name, start, end, parent span, operation id, and the time of
  un-spanned children) for the coarse calls -- ring construction,
  products, law checks, evaluation, searches, normalization, parsing,
  loading and the CLI entry point;
* hot boundaries (scalar construction, map application) that only count
  calls and accumulate time, so that tracing overhead stays bounded;
* counters that only count and inspect results.

A wrapper replaces the name in every skewpoly module that bound it with
``from ... import``, and on the class for methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN, HOT, COUNT = "span", "hot", "count"


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, op, hot_s]
        self.frames: list = []         # [child time, time of spans below]
        self.open_spans: list = []
        self.counts: dict = defaultdict(int)
        self.hot_self: dict = defaultdict(float)
        self.seen: set = set()
        self.op = -1

    def repeat(self, kind: str, key) -> None:
        """Count a record under ``kind``, and under ``kind.repeats`` when its
        key was already seen in this process."""
        self.counts[kind] += 1
        full = (kind, key)
        if full in self.seen:
            self.counts[kind + ".repeats"] += 1
        else:
            self.seen.add(full)

    def reset(self) -> None:
        """Forget everything recorded, keeping the containers the installed
        wrappers hold."""
        for container in (self.spans, self.frames, self.open_spans,
                          self.counts, self.hot_self, self.seen):
            container.clear()

    def dump(self) -> dict:
        return {"counts": dict(self.counts), "hot_self": dict(self.hot_self),
                "spans": self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# wrapper factories
# ---------------------------------------------------------------------------

def _span(tracer, name, fn, after):
    spans, frames, open_spans = tracer.spans, tracer.frames, tracer.open_spans
    counts, calls = tracer.counts, name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[calls] += 1
        record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                  tracer.op, 0.0]
        open_spans.append(len(spans))
        spans.append(record)
        frame = [0.0, 0.0]
        frames.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            frames.pop()
            open_spans.pop()
            record[1], record[2] = start, end
            record[5] = frame[0] - frame[1]
            if frames:
                frames[-1][0] += end - start
                frames[-1][1] += end - start
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _hot(tracer, name, fn, after):
    frames, counts, hot_self = tracer.frames, tracer.counts, tracer.hot_self
    calls = name + ".calls"
    layer = name.rsplit(".", 1)[0] if name.startswith("maps.apply.") else name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[calls] += 1
        frame = [0.0, 0.0]
        frames.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            frames.pop()
            hot_self[layer] += elapsed - frame[0]
            if frames:
                frames[-1][0] += elapsed
                frames[-1][1] += frame[1]
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _count(tracer, name, fn, after):
    counts, calls = tracer.counts, name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[calls] += 1
        result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


_FACTORIES = {SPAN: _span, HOT: _hot, COUNT: _count}


# ---------------------------------------------------------------------------
# result hooks
# ---------------------------------------------------------------------------

def _qx_make(tracer, args, kwargs, result):
    num = args[0] if args else kwargs.get("num", ())
    den = tuple(args[1] if len(args) > 1 else kwargs.get("den", (1,)))
    while den and den[-1] == 0:
        den = den[:-1]
    if any(c != 0 for c in num) and den != (1,):
        tracer.counts["scalars.qx_make.gcd_calls"] += 1


def _law(fn):
    signature = inspect.signature(fn)

    def hook(tracer, args, kwargs, record):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        domain, *rest = bound.arguments.values()
        tracer.repeat("maps.law_records", (fn.__name__, domain.name, *rest))
        counts = tracer.counts
        counts["maps.law_samples"] += record.samples
        counts["maps.law_records.analytic_true"] += record.analytic is True
        counts["vacuous_records"] += (record.samples == 0
                                      and record.analytic is None)
    return hook


def _ring_init(tracer, args, kwargs, result):
    ring = args[0]
    tracer.repeat("ore.ring_init", (ring.domain.name, ring.variables,
                                    ring.flavor, ring.samples, ring.seed))


def _mul(tracer, args, kwargs, result):
    left, right = args
    tracer.counts["ore.mul.term_pairs"] += (
        len(left.terms) * len(getattr(right, "terms", (None,))))


def _tuple(tracer, args, kwargs, result):
    tracer.counts["vacuous_records"] += sum(
        r.samples == 0 and r.analytic is None
        for r in result.certificate.records)


def _witness(tracer, args, kwargs, result):
    tracer.counts["nullstellensatz.grid_points"] += result.scanned
    tracer.counts["nullstellensatz.witnesses"] += 1


def _point(tracer, args, kwargs, result):
    tracer.counts["normalize.specializations"] += result.specializations
    tracer.counts["normalize.coordinates_fixed"] += len(result.point)


def targets():
    """(owner, attribute, kind, metric name, hook) for every boundary."""
    # the package re-exports functions named like some modules
    # (skewpoly.normalize), so take the modules themselves
    (cli, config, evaluation, maps, normalize, nullstellensatz, ore, parser,
     scalars) = (importlib.import_module(f"skewpoly.{name}") for name in (
        "cli", "config", "evaluation", "maps", "normalize", "nullstellensatz",
        "ore", "parser", "scalars"))
    out = [
        (scalars.RationalFunction, "make", HOT, "scalars.qx_make", _qx_make),
        (scalars.Quaternion, "_mul", COUNT, "scalars.hq_mul", None),
    ]
    for cls, kind in ((maps.DdxDer, "ddx"), (maps.QShiftAut, "q_shift"),
                      (maps.QDiffDer, "q_diff"), (maps.InnerAut, "inner_aut"),
                      (maps.InnerDer, "inner_der"), (maps.LinComb, "lin_comb")):
        out.append((cls, "__call__", HOT, f"maps.apply.{kind}", None))
    for fn in ("derivation_record", "commutation_record"):
        out.append((maps, fn, SPAN, "maps.law", _law(getattr(maps, fn))))
    out += [
        (ore.OreRing, "__init__", SPAN, "ore.ring_init", _ring_init),
        (ore.SkewPoly, "__mul__", SPAN, "ore.mul", _mul),
        (ore.SkewPoly, "__pow__", SPAN, "ore.pow", None),
        (evaluation, "certify_tuple", SPAN, "evaluation.certify_tuple", _tuple),
        (evaluation, "evaluate", SPAN, "evaluation.evaluate", None),
        (evaluation, "mix_derivations", SPAN, "evaluation.mix_derivations",
         None),
        (nullstellensatz, "cns_witness", SPAN, "nullstellensatz.cns_witness",
         _witness),
        (nullstellensatz, "formal_substitute", SPAN,
         "nullstellensatz.formal_substitute", None),
        (nullstellensatz, "gordon_motzkin_check", SPAN,
         "nullstellensatz.gm_check", None),
        (normalize, "monicize", SPAN, "normalize.monicize", None),
        (normalize, "normalize_step", SPAN, "normalize.normalize_step", None),
        (normalize, "divmod_by_monic", SPAN, "normalize.divmod", None),
        (normalize, "find_nonvanishing_point", COUNT, "normalize.find_point",
         _point),
        (parser, "parse_expr", SPAN, "parser.parse_expr", None),
        (parser, "parse_scalar", COUNT, "parser.parse_scalar", None),
        (config, "load_ring", SPAN, "config.load_ring", None),
        (cli, "main", SPAN, "cli.main", None),
    ]
    return out


def skewpoly_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "skewpoly"
                                  or name.startswith("skewpoly."))]


def install(tracer) -> list:
    """Wrap every boundary; returns undo entries for :func:`uninstall`."""
    undo = []
    modules = skewpoly_modules()
    for owner, attr, kind, name, hook in targets():
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr)
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = _FACTORIES[kind](tracer, name, fn, hook)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            undo.append((owner, attr, raw))
            continue
        fn = getattr(owner, attr)
        wrapped = _FACTORIES[kind](tracer, name, fn, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    undo.append((module, key, fn))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# offline arithmetic on recorded spans
# ---------------------------------------------------------------------------

def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_self_times(spans) -> dict:
    """Seconds per span name of duration minus the part its child spans
    cover, minus the time of its un-spanned (hot) children."""
    children = defaultdict(list)
    for name, start, end, parent, op, hot in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict = defaultdict(float)
    for index, (name, start, end, parent, op, hot) in enumerate(spans):
        totals[name] += (end - start) - _covered(children[index], start, end) - hot
    return dict(totals)
