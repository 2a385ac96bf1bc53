"""Run the benchmark over every workload and several seeds; print and record.

    python3 perfbench/baseline.py                      # one run per workload
    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline/NAME.json

Each run is a separate ``perfbench/run.py`` process of BENCHMARK.json's
``run_seconds`` on one workload, and every workload is run (seeds 7, 8, ...).  For
every end-to-end metric the table gives the median over the runs, the first
and third quartiles, and their distance as a share of the median, next to the
metric's bound in BENCHMARK.json.  ``--trace-runs N`` adds N traced runs per
workload at seed 7, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS

RESULTS = ROOT / "perfbench" / "_work" / "results"
FIRST_SEED = 7


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return {"seed": seed, "result": result, "record": record}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        started = time.time()
        runs = [run_once(workload, FIRST_SEED + i, seconds, 0)
                for i in range(args.runs)]
        traced = [run_once(workload, FIRST_SEED, seconds, 1)
                  for _ in range(args.trace_runs)]
        entry = {
            "provenance": runs[0]["record"]["provenance"],
            "runs": [{"seed": r["seed"],
                      "correct": r["result"]["correct"],
                      "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"],
                      "ops_failed_frac": r["record"]["values"]["ops_failed_frac"],
                      "iterations": len(r["record"]["iterations"]),
                      "outputs_sha256": r["record"]["outputs_sha256"],
                      "metrics": {k: v["value"] for k, v in
                                  r["result"]["metrics"].items()}}
                     for r in runs],
            "end_to_end": {},
            "per_layer": [{k: v["value"] for k, v in t["result"]["metrics"].items()}
                          for t in traced],
            "wall_s": time.time() - started,
        }
        print(f"== {workload}: {args.runs} runs of {seconds} s "
              f"({entry['wall_s']:.0f} s wall)")
        print(f"{'metric':<16}{'unit':<6}{'median':>10}{'q1':>10}{'q3':>10}"
              f"{'spread':>8}{'bound':>7}")
        for name, m in bounds.items():
            stats = spread([r["metrics"][name] for r in entry["runs"]])
            entry["end_to_end"][name] = stats
            flag = ""
            if stats.get("spread", 0.0) > m["bound"] / 3:
                flag = "  > bound/3"
            print(f"{name:<16}{m['unit']:<6}{stats['median']:>10.4g}"
                  f"{stats.get('q1', float('nan')):>10.4g}"
                  f"{stats.get('q3', float('nan')):>10.4g}"
                  f"{stats.get('spread', float('nan')):>8.3f}"
                  f"{m['bound']:>7.2f}{flag}")
        failed = [r["ops_failed_frac"] for r in entry["runs"]]
        print(f"{'ops_failed_frac':<16}{'frac':<6}{statistics.median(failed):>10.4g}"
              f"  (max {max(failed):.4g})")
        digests = sorted({r["outputs_sha256"] for r in entry["runs"]
                          if r["seed"] == FIRST_SEED})
        print(f"outputs sha256 at seed {FIRST_SEED}: {', '.join(digests)}")
        for layer in entry["per_layer"]:
            for name, value in layer.items():
                print(f"  {name} = {value:.6g}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
