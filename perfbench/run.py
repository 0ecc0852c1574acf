"""skewpoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads and their oracles are described in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time of several processes forked before skewpoly is imported, then one
closed-loop pass of the workload for ``S`` seconds in a fresh worker
process.  ``--trace 1`` runs a fixed number of operations three times,
each in a fresh worker: untraced, then traced twice.  It reports the per-layer metrics of the first traced
pass, fails if any count differs between the two traced passes, and gives
tracing overhead as untraced minus traced operations per second.

Every output is checked by an oracle.  The machine-speed probe, a fixed
stdlib-only loop (``speed.py``), is timed at the start and the end of every
run and recorded with the environment; it is also timed between operations
and around every set-up sample, and every operation and set-up time is
scaled to the probe's nominal speed, so that the host's swings in speed
are not read as changes of the program.  The raw figures are kept in the
run record.  The run and all its children are pinned to one CPU, so that
the probe times the CPU the work runs on.

``ops_per_s`` is the median over the run's complete cycles of operations
(every cycle has the same mix of shapes) of the cycle's operations per
second of operation time; ``latency_tail_ms`` is the eleventh-largest
latency, the highest percentile with ten samples beyond it, and the
percentile is printed with it; ``setup_s`` is the median of seven set-up
samples.

Every metric is printed by name and unit; the last line of standard output
is the JSON result.  A full record of the run goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT = ROOT / workloads.WORK_DIR
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0

END_TO_END = [
    ("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the eleventh-largest sample, at percentile
    100 * (n - 10) / n.  With ten samples or fewer no percentile has ten
    beyond it, and the maximum is returned at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, value from counts, hot self times, span
# self times).  Counts and ratios must repeat exactly between traced passes.
# ---------------------------------------------------------------------------

def _c(key):
    return lambda c, h, s: c.get(key, 0)


def _span_self(key):
    return lambda c, h, s: s.get(key, 0.0)


def _hot_self(key):
    return lambda c, h, s: h.get(key, 0.0)


def _ratio(num, den):
    return lambda c, h, s: ratio(c.get(num, 0), c.get(den, 0))


def _calls_and_self(name):
    return [(f"{name}.calls", "count", _c(f"{name}.calls")),
            (f"{name}.self_s", "s", _span_self(name))]


PER_LAYER = [
    ("scalars.qx_make.calls", "count", _c("scalars.qx_make.calls")),
    ("scalars.qx_make.gcd_calls", "count", _c("scalars.qx_make.gcd_calls")),
    ("scalars.qx_make.self_s", "s", _hot_self("scalars.qx_make")),
    ("scalars.hq_mul.calls", "count", _c("scalars.hq_mul.calls")),
    *[(f"maps.apply.{kind}.calls", "count", _c(f"maps.apply.{kind}.calls"))
      for kind in ("ddx", "q_shift", "q_diff", "inner_aut", "inner_der",
                   "lin_comb")],
    ("maps.apply.self_s", "s", _hot_self("maps.apply")),
    ("maps.law_records", "count", _c("maps.law_records")),
    ("maps.law_samples", "count", _c("maps.law_samples")),
    ("maps.law.self_s", "s", _span_self("maps.law")),
    ("maps.law_records.repeat_ratio", "ratio",
     _ratio("maps.law_records.repeats", "maps.law_records")),
    ("maps.law_records.analytic_true_ratio", "ratio",
     _ratio("maps.law_records.analytic_true", "maps.law_records")),
    *_calls_and_self("ore.ring_init"),
    ("ore.ring_init.repeat_ratio", "ratio",
     _ratio("ore.ring_init.repeats", "ore.ring_init.calls")),
    *_calls_and_self("ore.mul"),
    ("ore.mul.term_pairs", "count", _c("ore.mul.term_pairs")),
    *_calls_and_self("ore.pow"),
    *_calls_and_self("evaluation.certify_tuple"),
    *_calls_and_self("evaluation.evaluate"),
    *_calls_and_self("evaluation.mix_derivations"),
    *_calls_and_self("nullstellensatz.cns_witness"),
    ("nullstellensatz.grid_points", "count", _c("nullstellensatz.grid_points")),
    ("nullstellensatz.witness_yield", "ratio",
     _ratio("nullstellensatz.witnesses", "nullstellensatz.grid_points")),
    *_calls_and_self("nullstellensatz.formal_substitute"),
    *_calls_and_self("nullstellensatz.gm_check"),
    *_calls_and_self("normalize.monicize"),
    ("normalize.specializations", "count", _c("normalize.specializations")),
    ("normalize.specialization_yield", "ratio",
     _ratio("normalize.coordinates_fixed", "normalize.specializations")),
    *_calls_and_self("normalize.normalize_step"),
    *_calls_and_self("normalize.divmod"),
    *_calls_and_self("parser.parse_expr"),
    ("parser.parse_scalar.calls", "count", _c("parser.parse_scalar.calls")),
    *_calls_and_self("config.load_ring"),
    *_calls_and_self("cli.main"),
    # set only for cli_cold, from cold imports of skewpoly.cli
    ("cli.import_s", "s", _c("cli.import_s")),
]

OVERHEAD = ("trace.overhead_ops_per_s", "ops/s")


def per_layer_metrics(trace: dict) -> dict:
    span_self = tracing.span_self_times(trace["spans"])
    return {name: (fn(trace["counts"], trace["hot_self"], span_self), unit)
            for name, unit, fn in PER_LAYER}


def count_differences(first: dict, second: dict) -> list:
    """Names of count and ratio metrics that differ between two passes."""
    return [name for name, (value, unit) in first.items()
            if unit in ("count", "ratio") and second[name][0] != value]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class RunFailed(Exception):
    pass


def child_env() -> dict:
    """The program from this checkout's ``src``, and a fixed hash seed so
    that counts repeat exactly."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd, deadline) -> str:
    """Run a child in its own process group, killing the group at the
    deadline; returns its standard output."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{cmd[1:3]} did not finish in the run budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"{cmd[1:3]} exited {proc.returncode}: {err[-2000:]}")
    return out


def setup_seconds(workload) -> tuple:
    """Raw and speed-scaled set-up times: from forking a process that has
    not imported skewpoly until its first operation would be ready.  Each
    sample is scaled by the reference timed just before and after it."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.reference_seconds()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                workloads.cold_setup(workload)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        raw.append(time.perf_counter() - start)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RunFailed(f"set-up of {workload} failed")
        after = speed.reference_seconds()
        scaled.append(raw[-1] * 2 * speed.NOMINAL_S / (before + after))
    return raw, scaled


def worker(args, deadline, *, seconds=None, count=None, trace_dir=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(seconds)] if seconds is not None else [
        "--count", str(count)]
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        cmd += ["--trace-dir", str(trace_dir)]
    return json.loads(run_child(cmd, deadline).splitlines()[-1])


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def probe() -> float:
    """Median of five timings of the machine-speed reference loop."""
    return statistics.median(speed.reference_seconds() for _ in range(5))


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skewpoly").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, deadline, record) -> tuple:
    raw_setup, setup = setup_seconds(args.workload)
    result = worker(args, deadline, seconds=args.seconds)
    latencies = result.pop("latencies_s")
    raw = result.pop("raw_latencies_s")
    if not latencies:
        raise RunFailed("no operation completed")
    tail, percentile = tail_percentile(latencies)
    cycles = result.pop("cycle_ops_per_s")
    metrics = {
        "ops_per_s": (statistics.median(cycles) if cycles
                      else len(latencies) / sum(latencies)),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    record.update(setup_samples_s=setup, raw_setup_samples_s=raw_setup,
                  raw_ops_per_s=len(raw) / sum(raw),
                  raw_latency_p50_ms=1000 * statistics.median(raw),
                  raw_latency_tail_ms=1000 * tail_percentile(raw)[0],
                  tail_percentile=percentile, completed=len(latencies),
                  cycle_ops_per_s=cycles, worker=result)
    print(f"latency tail: p{percentile:.2f} of {len(latencies)} operations; "
          f"ops_per_s: median of {len(cycles)} complete cycles")
    return metrics, dict(END_TO_END), [result]


def traced(args, deadline, record) -> tuple:
    count = workloads.WORKLOADS[args.workload].trace_ops
    plain = worker(args, deadline, count=count)
    passes = [worker(args, deadline, count=count,
                     trace_dir=OUT / args.workload / f"trace-{tag}")
              for tag in ("a", "b")]
    layers = []
    for result in passes:
        with open(result["trace_file"], encoding="utf-8") as fh:
            layers.append(per_layer_metrics(json.load(fh)))
    differences = count_differences(*layers)
    plain_rate = ratio(len(plain["latencies_s"]), sum(plain["latencies_s"]))
    traced_rate = ratio(len(passes[0]["latencies_s"]),
                        sum(passes[0]["latencies_s"]))
    metrics = {name: value for name, (value, _) in layers[0].items()}
    units = {name: unit for name, (_, unit) in layers[0].items()}
    if args.workload == workloads.CliCold.name:
        metrics["cli.import_s"] = statistics.median(
            setup_seconds(args.workload)[1])
    metrics[OVERHEAD[0]] = plain_rate - traced_rate
    units[OVERHEAD[0]] = OVERHEAD[1]
    record.update(untraced_ops_per_s=plain_rate, traced_ops_per_s=traced_rate,
                  trace_ops=count, count_differences=differences)
    print(f"traced passes: {count} operations each; untraced "
          f"{plain_rate:.3f} ops/s, traced {traced_rate:.3f} ops/s")
    if differences:
        print("counts differ between the two traced passes: "
              + ", ".join(differences), file=sys.stderr)
    for result in (plain, *passes):
        result.pop("latencies_s")
        result.pop("raw_latencies_s")
    return metrics, units, [plain, *passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skewpoly" / "__init__.py").is_file():
        print(f"error: no skewpoly source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_BUDGET_S
    # one CPU for this process and every child, so that the reference loop
    # times the CPU the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance(args)}
    probe_start = probe()
    try:
        metrics, units, results = (traced if args.trace else end_to_end)(
            args, deadline, record)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probe_end = probe()
    record["provenance"].update(probe_start_s=probe_start, probe_end_s=probe_end)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    vacuous = sum(r["vacuous_records"] for r in results)
    correct = (failed == 0 and vacuous == 0
               and not record.get("count_differences"))
    for r in results:
        for message in r["failures"]:
            print(f"failed: {message}", file=sys.stderr)
    if vacuous:
        print(f"{vacuous} certificate records had no samples and no verdict",
              file=sys.stderr)

    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"failed_ratio = {ratio(failed, attempted):.6g} failed/attempted "
          f"({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record["result"] = result
    path = OUT / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
