"""Run the benchmark on several seeds and record the spread of every metric.

    python3 perfbench/baseline.py [--workloads ensemble,coupling,limit]
        [--seeds 11-20] [--seconds 30] [--trace-seed 1] [--write FILE]

Run from the root of a source checkout.  For each workload it runs
``run.py --trace 0`` once per seed and ``run.py --trace 1`` once on the trace
seed, one process after another, and prints for every end-to-end metric the
median over the seeds and its spread: the distance between the first and the
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  ``--write`` saves the summary, with the per-layer metrics of the
traced run and the items that failed, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in its own process; returns its report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} correct {last['correct']} "
          f"attempted {last['attempted']} failed {last['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items() if trace == 0),
          flush=True)
    return report


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarise(reports: list[dict], traced: dict) -> dict:
    names = list(reports[0]["end_to_end"])
    end_to_end = {}
    for name in names:
        values = [r["end_to_end"][name]["value"] for r in reports if name in r["end_to_end"]]
        end_to_end[name] = {"unit": reports[0]["end_to_end"][name]["unit"], **_spread(values)}
    failed = Counter(it["label"] + ": " + (it["error"] or it["problem"])
                     for r in reports for it in r["items"] if it["error"] or it["problem"])
    return {
        "why": reports[0]["why"],
        "correct": all(r["correct"] for r in reports + [traced]),
        "end_to_end": end_to_end,
        "failed_items": dict(sorted(failed.items())),
        "per_layer": {
            name: {"value": value, "moves": traced["layer_moves"][name]}
            for name, value in traced["per_layer"].items()
        },
        "trace_seed": traced["metadata"]["seed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="ensemble,coupling,limit")
    parser.add_argument("--seeds", default="11-20")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        reports = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = _run(workload, args.trace_seed, args.seconds, 1)
        summary["metadata"] = {k: v for k, v in reports[0]["metadata"].items() if k != "seed"}
        summary["workloads"][workload] = result = summarise(reports, traced)
        for name, m in result["end_to_end"].items():
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}  "
                  f"spread {m['spread']:.4f}", flush=True)
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
