#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/series.py --seeds 1-10 --workloads walk random --out perfbench/out/series.json

For every workload and end-to-end metric it reports the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the quartiles
as a share of the median. A spread at or above a third of the metric's bound
in BENCHMARK.json is flagged. With --trace 1 it summarises the per-layer
metrics instead (no bounds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    a = parser.parse_args()

    metrics = spec["per_layer"] if a.trace else spec["end_to_end"]
    summary: dict = {"seconds": a.seconds, "trace": a.trace, "seeds": a.seeds, "workloads": {}}
    ok = True
    env = None
    for workload in a.workloads:
        runs = []
        for seed in a.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            env = json.loads(lines[0].split(" ", 1)[1])
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                if values:
                    rows[m["name"]] = {"value": values[0], "unit": m["unit"]}
                    print(f"  {workload:7} {m['name']:44} value  {values[0]:12.6g} {m['unit']}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"], "values": values}
            if "bound" in m:
                row["bound"] = m["bound"]
                if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                    row["flag"] = "spread >= bound/3"
                    ok = False
            rows[m["name"]] = row
            print(f"  {workload:7} {m['name']:44} median {med:12.6g} {m['unit']:10} spread {spread:7.4f}"
                  + (f"  bound {m['bound']}" if "bound" in m else "") + ("  FLAG" if "flag" in row else ""))
        summary["workloads"][workload] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": rows,
        }
    summary["env"] = env
    if a.out:
        a.out.parent.mkdir(parents=True, exist_ok=True)
        a.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
