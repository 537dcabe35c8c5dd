"""Write ``BENCH_<pr>.json``: the benchmark, tier-1 and the heavy CLI
commands of one source checkout, timed on this machine.

    python3 bench/emit.py --pr N [--root CHECKOUT]

``--root`` is the checkout to measure (default: the one holding this
script); the file is written at its root.  The script uses the standard
library only and runs, one process at a time:

* ``perfbench/run.py`` on each workload with ``--seed SEED --seconds
  SECONDS``, ``--trace 0`` (end-to-end metrics) and then ``--trace 1``
  (per-layer metrics), keeping the metrics of the last line of its output
  and, from a run that exits 0, the machine metadata it writes under
  ``perfbench/out/``;
* tier-1 once, ``python -m pytest -q --continue-on-collection-errors``
  with ``src`` on ``PYTHONPATH``, for its wall time and summary line;
* the CLI commands below, each ``CLI_REPEATS`` times in turn, for the
  median of their wall times, writing into a temporary directory.

The file's ``tree`` names what was measured: the checkout's ``HEAD``
commit and whether its tracked files differ from it (``dirty``), in which
case the numbers are those of the working tree, not of ``HEAD``.  Compare
two files only when both were made on the same machine, one run after the
other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("ensemble", "coupling", "limit")
# one seed and run length for every file, so that any two compare
SEED = 11
SECONDS = 10.0
# one CLI run varied by up to a quarter between two passes minutes apart
CLI_REPEATS = 3
# the north star's heavy commands, plus tg, which is nearly all start-up
CLI = {
    "simulate": "simulate --preset multiplicative --times 0.5,1,2 --n 100000 --seed 7",
    "graph": "graph --preset multiplicative --times 0.5,1,2 --n 10000 --seed 7",
    "convergence": (
        "convergence --preset multiplicative --times 0.5,1,1.5 "
        "--n-list 1000,10000 --replicas 20 --seed 7"
    ),
    "coupling": "coupling --preset multiplicative --n 2000 --t 1.5 --replicas 200 --seed 7",
    "tg": "tg --preset multiplicative",
}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _timed(argv: list[str], cwd: Path, env: dict, timeout: float):
    """Run argv; its wall seconds, exit code and standard output."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def perfbench(root: Path, workload: str, trace: int):
    """One perfbench run: its outcome and metrics, and the machine metadata
    of its report (None unless the run exited 0)."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    wall, code, out = _timed(argv, root, dict(os.environ), 60 * SECONDS + 600)
    lines = out.strip().splitlines()
    # a crashed run leaves no JSON line; its exit code reports it
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    report = root / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    metadata = None
    if code == 0 and report.is_file():
        metadata = json.loads(report.read_text())["metadata"]
    return {
        "exit_code": code,
        "run_s": wall,
        "correct": last.get("correct"),
        "attempted": last.get("attempted"),
        "failed": last.get("failed"),
        "metrics": {k: v["value"] for k, v in last.get("metrics", {}).items()},
    }, metadata


def tree(root: Path) -> dict:
    """The checkout's HEAD commit and whether its tracked files differ;
    both None outside a git checkout."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "head": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def tier1(root: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    wall, code, out = _timed(argv, root, _env(root), 3600)
    lines = out.strip().splitlines()
    return {"exit_code": code, "wall_s": wall, "summary": lines[-1] if lines else ""}


def cli(root: Path) -> dict:
    runs = {name: [] for name in CLI}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(CLI_REPEATS):
            for name, args in CLI.items():
                argv = [sys.executable, "-m", "gelkit", *args.split(), "--out", f"{tmp}/{name}.out"]
                runs[name].append(_timed(argv, Path(tmp), _env(root), 1800)[:2])
    return {
        name: {
            "command": CLI[name],
            "exit_code": max(code for _, code in timed),
            "wall_s": statistics.median(wall for wall, _ in timed),
            "runs_s": [wall for wall, _ in timed],
        }
        for name, timed in runs.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "perfbench" / "run.py").is_file():
        print(f"no perfbench/run.py under {root}", file=sys.stderr)
        return 2

    runs, metadata = {}, None
    for trace in (0, 1):
        for workload in WORKLOADS:
            key = f"{workload}/trace{trace}"
            runs[key], meta = perfbench(root, workload, trace)
            metadata = metadata or meta
    doc = {
        "pr": args.pr,
        "tree": tree(root),
        "seed": SEED,
        "seconds": SECONDS,
        "metadata": metadata,
        "perfbench": runs,
        "tier1": tier1(root),
        "cli": cli(root),
    }
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    failed = [k for k, r in runs.items() if r["exit_code"]]
    failed += [f"cli/{k}" for k, r in doc["cli"].items() if r["exit_code"]]
    if doc["tier1"]["exit_code"]:
        failed.append("tier1")
    for name in failed:
        print(f"  nonzero exit: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
