"""Hash the data files of a fixed matrix of CLI commands: the byte-identity
check of a change that must not move any deterministic output.

    python3 bench/outputs.py [--root CHECKOUT]

``--root`` is the checkout whose ``src`` runs (default: the one holding
this script).  The script uses the standard library only.  It runs the
commands of :func:`matrix` one at a time, each as ``python -m gelkit``,
all writing into one temporary directory, then prints ``sha256  file``
for every file written there but the manifests, which hold wall times.
Run it on two checkouts and diff the two listings: equal listings mean
byte-identical data files, particle dumps included.  It exits 1 if any
command exits nonzero, after running the rest and naming each failure on
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "7"
# per preset (t_g = 1, 0.4 and 0.1455): checkpoint times below and past
# t_g, and a graph-duality window in (t_g, tilted t_g), or None
PRESETS = {
    "multiplicative": ("0.5,1.5,2", ("1.5", "2")),
    "bidisperse": ("0.2,0.6,0.8", ("0.6", "0.8")),
    "kinetic-gas": ("0.07,0.2,0.3", None),
}


def matrix() -> list[tuple[str, list[str]]]:
    """The (output file, arguments) of every command, ``--out`` left off."""
    runs = []
    for preset, (times, window) in PRESETS.items():
        first, *_, last = times.split(",")
        common = ["--preset", preset]
        stochastic = [*common, "--seed", SEED]

        def add(name: str, *args: str) -> None:
            runs.append((f"{preset}/{name}", list(args)))

        # each of these runs at rate 2 as well, so that a rate factor other
        # than 1 is pinned too
        for tag, rate in (("", []), ("doubled_", ["--doubled-rates"])):
            add(f"{tag}tg.json", "tg", *common, *rate)
            add(f"{tag}gel_curve.csv", "gel-curve", *common, *rate, "--t-max", last,
                "--points", "40")
            add(f"{tag}simulate.csv", "simulate", *stochastic, *rate, "--times", times,
                "--n", "2000")
            add(f"{tag}graph.csv", "graph", *stochastic, *rate, "--times", times,
                "--n", "2000")
            add(f"{tag}coupling.json", "coupling", *stochastic, *rate, "--n", "300",
                "--t", last, "--replicas", "20")
            add(f"{tag}restricted.csv", "restricted", *common, *rate, "--times",
                times, "--xi", "8")
        add("moments.csv", "moments", *common, "--times", times)
        add("replicas.csv", "simulate", *stochastic, "--times", times, "--n", "2000",
            "--replicas", "3")
        # the dump is written at the first time and resumed through them all
        add("dump.csv", "simulate", *stochastic, "--times", first, "--n", "2000",
            "--dump-state", f"{preset}/state.bin")
        add("load.csv", "simulate", *stochastic, "--times", times,
            "--load-state", f"{preset}/state.bin")
        add("convergence.csv", "convergence", *stochastic, "--times", times,
            "--n-list", "200,1000", "--replicas", "3")
        if window is not None:
            add("duality.json", "graph-duality", *stochastic, "--n", "2000",
                "--t-minus", window[0], "--t-plus", window[1])
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src runs (default: this script's)",
    )
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(args.root.resolve() / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("GELKIT_OUT", None)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for out, cmd in matrix():
            argv = [sys.executable, "-m", "gelkit", *cmd, "--out", out]
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
            if proc.returncode:
                failed += 1
                print(f"exit {proc.returncode}: {' '.join(cmd)}\n{proc.stderr}",
                      file=sys.stderr)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file() and not path.name.endswith(".manifest.json"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
