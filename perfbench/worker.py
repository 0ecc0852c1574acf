"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --count N) [--trace-dir DIR]

Runs set-up, then operations in a closed loop until the time or count is
reached, checking every output with its oracle outside the timed region.
Between operations, at most every 0.2 s, it times the machine-speed
reference loop; every operation time is reported both raw and scaled to
the reference speed (see ``speed.py``).  With ``--trace-dir`` the benchmark's wrappers are installed first and the
counters and spans are written to ``DIR/trace.json``.  Prints one JSON
summary line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def vacuous_ring_records(rings) -> int:
    return sum(r.samples == 0 and r.analytic is None
               for ring in rings.values() for r in ring.certificate.records)


def merge_traces(paths) -> dict:
    """Sum the counters of traced forked operations and concatenate their
    spans."""
    merged = {"counts": {}, "hot_self": {}, "spans": []}
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        for key in ("counts", "hot_self"):
            for name, value in data[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        offset = len(merged["spans"])
        merged["spans"].extend(
            [n, s, e, p + offset if p >= 0 else -1, op, hot]
            for n, s, e, p, op, hot in data["spans"])
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--count", type=int)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    forked = args.workload == workloads.CliCold.name
    tracer = None
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        import skewpoly.cli  # noqa: F401  (every module, before wrapping)
        tracer = tracing.Tracer()
        tracing.install(tracer)

    if forked:
        state = workload.setup(args.seed, tracer)
        vacuous = 0
    else:
        state = workload.setup(args.seed)
        vacuous = vacuous_ring_records(state)

    raw_times, marks, completed, failures = [], [], [], []
    tracker = speed.SpeedTracker()
    attempted = failed = 0
    deadline = (time.monotonic() + args.seconds
                if args.seconds is not None else None)
    for index, op in enumerate(workload.ops(args.seed)):
        if args.count is not None and index >= args.count:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        attempted += 1
        if tracer is not None:
            tracer.op = index
        marks.append(tracker.refresh())
        start = time.perf_counter()
        try:
            try:
                output = workload.run(state, op)
            finally:
                raw_times.append(time.perf_counter() - start)
            workload.check(op, output)
        except Exception as exc:  # every failure is counted and reported
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"op {index} {op.kind}/{op.ring}: "
                                f"{type(exc).__name__}: {exc}")
            continue
        completed.append(index)
    tracker.refresh(force=True)
    op_times = [tracker.scaled(t, m) for t, m in zip(raw_times, marks)]

    # every complete cycle has the same mix of shapes, so its throughput is
    # comparable with any other cycle's, and a median over cycles rejects
    # stretches where the machine ran slow
    size = len(workload.cycle)
    cycles = [size / sum(op_times[i:i + size])
              for i in range(0, len(op_times) - size + 1, size)]
    who = resource.RUSAGE_CHILDREN if forked else resource.RUSAGE_SELF
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies_s": [op_times[i] for i in completed],
        "raw_latencies_s": [raw_times[i] for i in completed],
        "cycle_ops_per_s": cycles,
        "reference_s": tracker.readings,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer is not None:
        trace_file = args.trace_dir / "trace.json"
        if forked:
            trace = merge_traces(state["traces"])
            for path in state["traces"]:
                path.unlink()
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(trace, fh, separators=(",", ":"))
        else:
            tracer.write(trace_file)
            trace = tracer.dump()
        vacuous += trace["counts"].get("vacuous_records", 0)
        summary["trace_file"] = str(args.trace_dir / "trace.json")
    summary["vacuous_records"] = vacuous
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
