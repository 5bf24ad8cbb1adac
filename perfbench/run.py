#!/usr/bin/env python3
"""The lattice-succ benchmark: one seeded workload, end to end or layer by layer.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 20 --trace 0

Run from the repository root. Each workload runs in its own fresh,
single-threaded worker process (perfbench/worker.py) that imports the library
from ./src. With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
with --trace 1 it prints the per-layer metrics, measured in a separate traced
process. Every answer is checked off the clock; a wrong answer makes the exit
status nonzero. The last line of stdout is one JSON object; the lines before it
give the environment, every metric with its unit, and the sample counts. A full
record, and the spans of a traced run, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10  # set-up-only processes, half before and half after the measuring one
IMPORT_SAMPLES = 3
WORKER_SLACK_S = 100  # allowance past --seconds for set-up and the off-clock checks
WORKER_ENV = {
    # One thread per worker: numpy's BLAS would otherwise start a pool on import.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> tuple[tuple | None, dict | None]:
    """Run worker.py; return ((scaled, measured) seconds from spawn to ready, final JSON or None)."""
    env = {**os.environ, **WORKER_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-ns", str(time.monotonic_ns())]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    ready_s = result = None
    for line in out.splitlines():
        if line.startswith("ready "):
            ready_s = tuple(float(v) for v in line.split()[1:])
        elif line.startswith("{"):
            result = json.loads(line)
    return ready_s, result


def _environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy missing or without metadata: record it as unknown
        numpy_version = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "numpy": numpy_version,
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _workload_args(a, seconds: float) -> list[str]:
    return ["--workload", a.workload, "--seed", str(a.seed), "--seconds", repr(seconds)]


def end_to_end(a) -> tuple[dict, list[dict], dict]:
    """Set-up time is the median over the probes and the measuring process.

    Each sample is scaled by the host-speed gauge its process read as
    set-up started and right after it ended. The probes straddle the timed
    phase, so the samples span the whole run and a short slow spell on the
    host moves the median little.
    """
    def probe() -> tuple:
        return _worker([*_workload_args(a, a.seconds), "--mode", "setup"], 60)[0]

    setup = [probe() for _ in range(SETUP_PROBES // 2)]
    ready, result = _worker([*_workload_args(a, a.seconds), "--mode", "run"], a.seconds + WORKER_SLACK_S)
    setup += [ready] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    lat = result["latency"]
    if lat["passes"] == 0:
        raise BenchError(f"the timed phase did not reach all {lat['inputs']} inputs; give it more --seconds")
    if not lat.get("samples"):
        raise BenchError("no operation was answered; latencies are undefined")
    metrics = {
        "ops_per_s": lat["ops_per_s"],
        "op_p50_us": lat["p50_us"],
        "op_p99_us": lat["p99_us"],
        "answered_ratio": lat["answered"] / lat["inputs"],
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    samples = {
        "attempted": result["attempted"],
        "answered": result["ok"],
        "refused": result["refused"],
        "inputs": lat["inputs"],
        "answered_inputs": lat["answered"],
        "passes": lat["passes"],
        "latency_samples": lat["samples"],  # answered inputs, one median latency each
        "kept_per_input": lat["kept_per_input"],
        "samples_above_p99": lat["samples_above_p99"],
        "whole_run_ops_per_s": lat["mean_ops_per_s"],
        "gauge_readings": lat["gauge_readings"],
        "gauge_median_slowdown": lat["gauge_median_slowdown"],
        "setup_samples": [scaled for scaled, _ in setup],
        "setup_samples_measured": [measured for _, measured in setup],
        "checked": result["checked"],
        "check_s": result["check_s"],
    }
    return metrics, [result], samples


def per_layer(a) -> tuple[dict, list[dict], dict]:
    half = a.seconds / 2
    _, plain = _worker([*_workload_args(a, half), "--mode", "run", "--oracle"], half + WORKER_SLACK_S)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{a.workload}-seed{a.seed}.spans.gz"
    _, traced = _worker([*_workload_args(a, half), "--mode", "traced", "--spans-out", str(spans)],
                        half + WORKER_SLACK_S)
    metrics = dict(traced["layers"])
    plain_ops = plain["ok"] / plain["elapsed_s"]
    metrics["trace.overhead_ops_per_s"] = plain_ops - metrics["trace.ops_per_s"]
    metrics["oracle.steps_per_s"] = plain["oracle_steps_per_s"]
    for decade, count in plain["refused_by_decade"].items():
        metrics[f"core_arith.budget_exceeded.e{decade}"] = count
    for lib in ("numpy", "lattice_succ"):
        runs = [_worker(["--workload", lib, "--seed", "0", "--seconds", "0", "--mode", "imports"], 60)[1]
                for _ in range(IMPORT_SAMPLES)]
        metrics[f"import.{lib}_s"] = statistics.median(r["import_s"] for r in runs)
    samples = {"untraced_ops_per_s": plain_ops, "import_samples": IMPORT_SAMPLES,
               "spans_file": str(spans.relative_to(ROOT))}
    return metrics, [plain, traced], samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "lattice_succ" / "__init__.py").is_file():
        print(f"error: run from a checkout holding BENCHMARK.json and src/lattice_succ ({ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {a.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    try:
        metrics, results, samples = (per_layer if a.trace else end_to_end)(a)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        if r["wrong"]:
            print(f"WRONG: {r['wrong']} wrong answers, first: {r['problems'][:3]}", file=sys.stderr)
    correct = all(r["wrong"] == 0 for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["attempted"] - r["ok"] - r["refused"] for r in results)

    env = _environment(a.seed)
    print("env " + json.dumps(env))
    print("samples " + json.dumps(samples))
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{a.workload:8} {m['name']:48} {metrics[m['name']]:>16.6g} {m['unit']}")
    if not a.trace:
        print(f"{a.workload:8} {'refused_ratio':48} {1 - metrics['answered_ratio']:>16.6g} ratio")
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": a.workload, "seconds": a.seconds, "trace": a.trace, "env": env,
              "samples": samples, **out, "workers": results}
    (OUT / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
