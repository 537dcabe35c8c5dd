"""gelkit benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {ensemble,coupling,limit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; gelkit is imported from ``src/``.

The run sets up its workload (imports gelkit, builds the models, computes
reference values), then runs rounds of the workload's fixed work, checking
every item's output, while another round still fits in ``--seconds`` (at
least one round).

``--trace 0`` reports the end-to-end metrics, timed with tracing off:

* ``setup_s``: the set-up, done five times (here and in four fresh
  interpreters); the median, at reference machine speed (see ``wall_s``).
* ``wall_s``: median over rounds of the time the round's calls take, at
  reference machine speed: each call is timed between two probes of a fixed
  loop that shares no code with gelkit, and its time is scaled by
  ``PROBE_REF_S`` over their mean (see ``speed.py``).
* ``ok_frac``: 1 - fail_frac, the share of items attempted that neither
  raised a ``GelkitError`` nor failed their output check.
* ``peak_rss_mb``: this process's peak resident memory.

Item percentiles at reference speed (``item_s.p50``, and ``item_s.p90``
with at least 100 items), ``fail_frac``, the times as measured
(``setup_raw_s``, ``wall_raw_s``), the median probe time ``probe_s`` and
the per-item outcomes are printed and written to
``perfbench/out/`` as well.

``--trace 1`` runs round 0 untraced, then twice with gelkit's layers wrapped
(see ``layers.py``), then further rounds untraced and traced in turn.  It
reports the per-layer metrics and ``trace.overhead_frac``, writes the spans,
and checks that the counts of round 0 repeat exactly: between its two traced
runs, and against an earlier traced run with the same seed and the same
sources, if there was one.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
``correct`` is true.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
HELD_OUT_SEED = 7919  # not used while tuning; re-check later claims on it
SETUP_SAMPLES = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """One BLAS thread unless set otherwise, and never more than the cores
    this process may use.  The workloads' matrices are small: a second
    thread made coupling slower (2.94 s vs 2.84 s per 20 replicas, 2-core
    Xeon VM) and doubled its CPU time."""
    nproc = _nproc()
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _setup(workload: str, seed: int):
    """Import gelkit, build the workload's models and reference values.

    Returns the workload, the set-up's seconds and the same at reference
    machine speed (see ``speed.py``).
    """
    before = speed.probe_interpreter()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gelkit
    import workloads

    if Path(gelkit.__file__).resolve().parent != SRC / "gelkit":
        raise SystemExit(f"gelkit imported from {gelkit.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[workload](seed)
    seconds = time.perf_counter() - start
    probe_s = 0.5 * (before + speed.probe_interpreter())
    return wl, seconds, seconds * speed.PROBE_REF_S / probe_s


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time, as measured and at reference speed, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    raw, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(ref)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gelkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


@dataclass
class Round:
    r: int  # round index: the round's inputs depend on the seed and r alone
    traced: bool
    items: list
    seconds: float  # wall time of the whole round, output checks included
    root: int | None  # index of the round's root span when traced

    @property
    def calls_s(self) -> float:
        """Time the round's gelkit calls take, output checks excluded."""
        return sum(it.seconds for it in self.items)

    @property
    def ref_s(self) -> float:
        """The same at reference machine speed (see ``speed.py``)."""
        return sum(it.ref_s for it in self.items)


def _schedule(trace: bool):
    """Steps of (round index, traced).  Untraced: rounds 0, 1, 2, ...

    Traced: round 0 untraced, traced, and traced again (its counts must
    repeat), then each further round untraced and traced.  The tracing
    overhead is the median ratio of a traced round to the same round untraced.
    """
    if not trace:
        yield from ([(r, False)] for r in itertools.count())
        return
    yield [(0, False), (0, True), (0, True)]
    yield from ([(r, False), (r, True)] for r in itertools.count(1))


def _set_traced(tracer, gelkit, traced: bool) -> None:
    """Wrap gelkit's layers, or put them back so gelkit runs as shipped."""
    if traced and not tracer.active:
        tracer.install(gelkit)
    elif not traced and tracer.active:
        tracer.uninstall()
    tracer.active = traced


def _run_round(wl, tracer, gelkit, r: int, traced: bool) -> Round:
    _set_traced(tracer, gelkit, traced)
    root = len(tracer.spans) if traced else None
    start = time.perf_counter()
    with tracer.span(f"round[{r}]"):
        items = wl.round(r, tracer)
    return Round(r, traced, items, time.perf_counter() - start, root)


def _check_repeat(workload: str, seed: int, digest: str, counts: dict) -> str | None:
    """Compare round 0's counts with an earlier traced run of the same seed and sources."""
    record = OUT / "counts" / f"{workload}-seed{seed}-{digest[:16]}.json"
    if record.is_file():
        earlier = json.loads(record.read_text())
        diff = {k: (earlier.get(k), v) for k, v in counts.items() if earlier.get(k) != v}
        return f"counts differ from {record.name}: {diff}" if diff else None
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "coupling", "limit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gelkit" / "__init__.py").is_file():
        print(f"no gelkit sources under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    wl, *setup_here = _setup(args.workload, args.seed)
    if args.probe_setup:
        print(*setup_here)
        return 0
    setup = [tuple(setup_here)]
    if not args.trace:
        setup += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    import layers
    import workloads

    tracer = layers.Tracer()
    rounds: list[Round] = []
    for step in _schedule(bool(args.trace)):
        if rounds:
            elapsed = sum(rd.seconds for rd in rounds)
            typical = statistics.median(rd.seconds for rd in rounds)
            if elapsed + len(step) * typical > args.seconds:
                break
        for r, traced in step:
            rounds.append(_run_round(wl, tracer, sys.modules["gelkit"], r, traced))
    _set_traced(tracer, sys.modules["gelkit"], False)

    problems = []
    untraced = [rd for rd in rounds if not rd.traced]
    layer = None
    if args.trace:
        base = {rd.r: rd.ref_s for rd in untraced}
        traced = [rd for rd in rounds if rd.traced]
        overhead = statistics.median(rd.ref_s / base[rd.r] for rd in traced) - 1.0
        oracle_err = getattr(wl, "oracle_err", {})
        per_round = [
            layers.layer_metrics(tracer.spans, rd.root, {
                "trace.overhead_frac": overhead,
                "survival.oracle_err_max": oracle_err.get(rd.r, 0.0),
            })
            for rd in traced
        ]
        layer = layers.combine(per_round)
        counts = [{k: m[k] for k in layers.EXACT} for m in per_round[:2]]
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
            problems.append(f"round 0 counts differ between two traced runs: {diff}")
        mismatch = _check_repeat(args.workload, args.seed, _src_digest(), counts[0])
        if mismatch:
            problems.append(mismatch)

    items = [it for rd in rounds for it in rd.items]
    attempted = len(items)
    failed = sum(it.failed for it in items)
    problems += [f"{it.label}: {it.problem}" for it in items if it.problem and not it.chance]
    verdict = wl.verdict()
    if verdict:
        problems.append(verdict)
    correct = not problems

    # end-to-end times come from untraced rounds only
    item_s = [it.ref_s for rd in untraced for it in rd.items]
    end_to_end = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "wall_s": (statistics.median(rd.ref_s for rd in untraced), "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "fail_frac": (failed / attempted, "ratio"),
        "setup_raw_s": (statistics.median(raw for raw, _ in setup), "s"),
        "wall_raw_s": (statistics.median(rd.calls_s for rd in untraced), "s"),
        "probe_s": (statistics.median(it.probe_s for rd in untraced for it in rd.items), "s"),
    }
    if args.workload != "limit":
        # limit's calls are not alike, so it has no item percentiles
        extra["item_s.p50"] = (statistics.median(item_s), "s")
        if len(item_s) >= 100:
            extra["item_s.p90"] = (layers.quantile(sorted(item_s), 0.9), "s")

    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in layer.items()}
    else:
        metrics = end_to_end

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  items {attempted}  failed {failed}")
    for name, (value, unit) in {**end_to_end, **extra, **(metrics if args.trace else {})}.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    for it in items:
        if it.failed:
            print(f"  failed {it.label}: {it.error or it.problem}")
    for problem in problems:
        print(f"  INCORRECT {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "metadata": _metadata(args.seed),
        "seconds": args.seconds,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "setup_samples_s": setup,
        "rounds": [
            {"r": rd.r, "traced": rd.traced, "calls_s": rd.calls_s, "ref_s": rd.ref_s} for rd in rounds
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **extra}.items()},
        "per_layer": layer,
        "layer_moves": {name: moves for name, _, moves in layers.PER_LAYER},
        "items": [vars(it) for it in items],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
