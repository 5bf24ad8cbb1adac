"""One workload in one fresh process; started by run.py, not by hand.

Protocol on stdout: the line `ready <scaled seconds> <seconds>` once set-up is
done (imports, validate_pair, warm tables), giving the time since run.py
spawned the process (--spawned-ns, CLOCK_MONOTONIC, which all processes
share), scaled by the host-speed gauge read three times as set-up starts and
three times right after it ends (see workloads.Gauge; the first readings'
own time is left out), and as measured; then one JSON object with the
outcome. Modes:
  setup    exit after `ready`, a set-up time sample
  run      timed phase with tracing off
  traced   the same with every public function of the library wrapped
  imports  time `import numpy` and `import lattice_succ` (fresh process each)
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_SPANS = 600_000  # a traced run stops early here: ~20 MB of spans in memory


def _import_library():
    sys.path.insert(0, str(SRC))
    import lattice_succ

    if Path(lattice_succ.__file__).resolve().parent != SRC / "lattice_succ":
        raise SystemExit(f"lattice_succ came from {lattice_succ.__file__}, not from {SRC}")
    return lattice_succ


def _imports(which: str) -> None:
    t0 = time.perf_counter()
    if which == "numpy":
        import numpy  # noqa: F401
    else:
        _import_library()
    print(json.dumps({"import_s": time.perf_counter() - t0}))


def _oracle_steps_per_s(lib, steps: int = 20_000) -> float:
    """Heap-oracle throughput, capped at `steps` per pair: a reference line only."""
    from workloads import PAIRS

    t0 = time.perf_counter()
    for pair in PAIRS:
        stream = lib.SortedStream(lib.validate_pair(*pair))
        for _ in range(steps):
            next(stream)
    return steps * len(PAIRS) / (time.perf_counter() - t0)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced", "imports"), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--oracle", action="store_true", help="also time the capped heap-oracle reference")
    args = parser.parse_args()
    if args.mode == "imports":
        _imports(args.workload)
        return

    sys.path.insert(0, str(HERE))
    import workloads

    t0 = time.monotonic_ns()
    host = workloads.Gauge()
    before = statistics.median(host.slowdown() for _ in range(3))  # the host's speed as set-up starts
    gauge_ns = time.monotonic_ns() - t0
    lib = _import_library()

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer(MAX_SPANS)
        tracer.install(lib)
    workload = workloads.WORKLOADS[args.workload](lib, args.seed)
    ready_s = (time.monotonic_ns() - args.spawned_ns - gauge_ns) / 1e9
    after = statistics.median(host.slowdown() for _ in range(3))
    scale = 2 / (before + after)
    print(f"ready {ready_s * scale!r} {ready_s!r}", flush=True)
    if args.mode == "setup":
        return

    workload.inputs()
    run = workloads.Run(workload.size, workloads.Gauge(workload.gauge_memory_share))
    setup_accessor_calls = sum(tracer.accessor_calls.values()) if tracer else 0
    workload.run(args.seconds, run, stop=tracer.full if tracer else (lambda: False))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "attempted": run.attempted,
        "ok": run.ok,
        "refused": run.refused,
        "refused_by_decade": run.refused_by_decade,
        "elapsed_s": run.elapsed_s,
        "latency": run.summary(),
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, run, setup_accessor_calls)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    elif args.oracle:
        result["oracle_steps_per_s"] = _oracle_steps_per_s(lib)
    t0 = time.perf_counter()
    result["checked"] = workload.check(run)
    result["check_s"] = time.perf_counter() - t0
    result["wrong"] = run.wrong
    result["problems"] = run.problems
    print(json.dumps(result), flush=True)


def layer_metrics(tracer, run, setup_accessor_calls: int) -> dict:
    """Per-layer figures of the traced process, set-up included; accessor calls per query exclude set-up."""
    from workloads import PAIRS

    calls, self_s = tracer.self_times()
    out = {}
    for name in ("successor.next_point", "successor.prev_point", "successor.locate",
                 "successor.locate_tilde", "successor.translation",
                 "cf_engine.extend", "core_arith.compare_fraction", "core_arith.compare_affine"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("oracle.SortedStream.next", "tiling.rectangles_in_window", "tiling.verify_partition",
                 "sequences.verify_fg_at_convergents", "sequences.verify_monotone_fractional_chains",
                 "sequences.minimal_fractional_subsequences", "sequences.predicted_record_indices",
                 "oracle.enumerate_sorted", "cli.run"):
        out[f"{name}.self_s"] = self_s[name]
    queries = max(run.attempted, 1)
    out["trace.queries"] = run.attempted
    out["cf_engine.accessor_calls_per_query"] = (sum(tracer.accessor_calls.values()) - setup_accessor_calls) / queries
    extends = calls["cf_engine.extend"]
    out["cf_engine.extend.noop_share"] = tracer.extend_noop / extends if extends else 0.0
    for p1, p2 in PAIRS:
        key = f"{p1}_{p2}"
        rows = tracer.rows[key]
        out[f"cf_engine.rows_appended.{key}"] = rows
        out[f"cf_engine.probes_per_row.{key}"] = tracer.row_probes[key] / rows if rows else 0.0
        out[f"cf_engine.row_s.max.{key}"] = tracer.row_ns_max[key] / 1e9
        out[f"cf_engine.depth.{key}"] = tracer.max_depth[key]
    decided = tracer.filter_decided + tracer.exact_path
    out["core_arith.compare_fraction.exact_share"] = tracer.exact_path / decided if decided else 0.0
    out["core_arith.max_operand_bits"] = tracer.max_operand_bits
    out["trace.ops_per_s"] = run.ok / run.elapsed_s if run.elapsed_s else 0.0
    return out


if __name__ == "__main__":
    main()
