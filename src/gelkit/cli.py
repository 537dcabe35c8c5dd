"""Command-line front end.

Every experiment is reachable two ways: direct flags (``gelkit tg --preset
multiplicative``) or a JSON experiment config (``gelkit run cfg.json``).
Each command is declared once, in ``COMMANDS``: the table builds the
subparsers, and ``_resolve`` validates the flags and the JSON params alike
and fills in the defaults, so a config is just a saved set of flags.
Outputs are deterministic byte-for-byte given the same config and seed; a
manifest (config digest, library versions, wall time) is written next to
each output and is the only file allowed to differ between reruns.

Exit codes: 0 success, 2 malformed input (schema), 3 numerical failure,
4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys as _sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, NumericError, SchemaError
from .graphs import coupling_test, duality_experiment, graph_from_measure, trajectory
from .moments import moments_at
from .particles import child_seed, init_poisson, load_state
from .presets import PRESETS, from_name
from .restricted import TruncatedFlory
from .spectral import gelation
from .survival import gel_curve, gel_data
from .system import (
    _integer,
    _number,
    load_system,
    read_json,
    system_measure_from_json,
    system_measure_to_json,
)

# grid size above which gel-curve refuses to allocate its time grid
_MAX_CURVE_POINTS = 10**6


def _fmt(x) -> str:
    # adding +0.0 turns IEEE negative zero into plain zero
    return format(float(x) + 0.0, ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats rendered at full precision (.17g)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        return "[" + ", ".join(_json_text(v, indent) for v in seq) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise NumericError(f"{obj} is not a JSON number")
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _manifest_path(out: Path) -> Path:
    return out.parent / (out.stem + ".manifest.json")


def _writable(path: Path, pointer: str) -> Path:
    """Make the parent of ``path``; check before any work that ``path`` can be
    written as a file (SchemaError at ``pointer`` if not)."""
    try:
        if "\0" in str(path):
            raise ValueError("embedded null byte")
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError("a directory is in the way")
        if not os.access(path.parent, os.W_OK):
            raise PermissionError("the directory is not writable")
    except (OSError, ValueError) as exc:
        raise SchemaError(pointer, f"cannot write {str(path)!r}: {exc}") from None
    return path


def _write_manifest(out: Path, kind: str, resolved: dict, wall: float) -> None:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    manifest = {
        "kind": kind,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "gelkit_version": _package_version(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "wall_time_s": round(wall, 3),
        "output": out.name,
    }
    _manifest_path(out).write_text(json.dumps(manifest, indent=2) + "\n")


def _package_version() -> str:
    from . import __version__

    return __version__


# -- the parameter schema ------------------------------------------------------


_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """A parameter: JSON key (flag ``--key``, ``_`` as ``-``), kind (``float``,
    ``int``, ``str``, ``times`` or ``ints``), default, and an inclusive lower
    bound that list kinds apply per entry.  A ``None`` default leaves the
    parameter optional, with the executor handling its absence."""

    key: str
    kind: str
    help: str
    default: object = _REQUIRED
    low: float | None = None


@dataclass(frozen=True)
class Command:
    run: Callable  # (system at the rate factor, measure, resolved config, out)
    out: str
    help: str
    params: tuple[Param, ...] = ()
    stochastic: bool = False  # needs a nonnegative integer seed


def _scalar(p: Param, val, ptr: str):
    val = _integer(val, ptr) if p.kind in ("int", "ints") else _number(val, ptr)
    if p.low is not None and val < p.low:
        raise SchemaError(ptr, f"must be >= {p.low}")
    return val


def _check(p: Param, val):
    ptr = f"/params/{p.key}"
    if p.kind == "str":
        if not isinstance(val, str):
            raise SchemaError(ptr, "expected a string")
        return val
    if p.kind in ("times", "ints"):
        if not isinstance(val, list) or not val:
            raise SchemaError(ptr, "expected a nonempty array")
        out = [_scalar(p, v, f"{ptr}/{i}") for i, v in enumerate(val)]
        if out != sorted(out) and p.kind == "times":
            raise SchemaError(ptr, "times must be ascending")
        return out
    return _scalar(p, val, ptr)


def _resolve(kind: str, params: dict) -> dict:
    """Validate ``params`` against the command's table entry; return every
    parameter, defaults filled in.  Flags and JSON configs both pass here."""
    spec = COMMANDS[kind].params
    known = [p.key for p in spec]
    for key in params:
        if key not in known:
            raise SchemaError(f"/params/{key}", f"unknown key; {kind} takes {known}")
    for p in spec:
        if p.key not in params and p.default is _REQUIRED:
            raise SchemaError(f"/params/{p.key}", "missing required parameter")
    return {
        p.key: _check(p, params[p.key]) if p.key in params else p.default
        for p in spec
    }


# -- executors ---------------------------------------------------------------


def _exec_tg(model, measure, cfg, out: Path) -> None:
    # t_g at the rate factor; the radius and the matrix of the system as given
    spec = gelation(model, measure)
    rate_scale = cfg["rate_scale"]
    doc = {
        "t_g": spec.t_g,
        "spectral_radius": spec.radius / rate_scale,
        "psi": list(spec.psi),
        "lambda_matrix": [list(row) for row in spec.lambda_matrix / rate_scale],
        "rate_scale": rate_scale,
    }
    out.write_text(_json_text(doc) + "\n")
    print(f"t_g = {_fmt(spec.t_g)}")


def _exec_gel_curve(model, measure, cfg, out: Path) -> None:
    params = cfg["params"]
    times = params["times"]
    if times is None:
        if params["t_max"] is None:
            raise SchemaError("/params/times", "need times or t_max")
        if params["points"] > _MAX_CURVE_POINTS:
            raise BudgetExceeded(
                f"{params['points']} points exceeds the budget {_MAX_CURVE_POINTS}"
            )
        times = np.linspace(0.0, params["t_max"], params["points"]).tolist()
    rows = gel_curve(model, measure, times)
    n = model.n
    header = (
        ["t"]
        + [f"c_{i + 1}" for i in range(n)]
        + ["M"]
        + [f"E_{i + 1}" for i in range(n)]
    )
    _write_csv(out, header, rows)


def _exec_moments(model, measure, cfg, out: Path) -> None:
    n = model.n
    header = (
        ["t"]
        + [f"Q_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        + [f"z_{i}" for i in range(n + 1)]
        + ["E", "phase"]
    )
    rows = []
    for t in cfg["params"]["times"]:
        state, phase = moments_at(model, measure, t)
        rows.append(
            [t]
            + state.q.ravel().tolist()
            + state.z.tolist()
            + [state.total_second_moment, phase]
        )
    _write_csv(out, header, rows)


def _coordinate_columns(model, tag: str) -> list[str]:
    """The columns ``E_<tag>_i`` and ``P_<tag>_j`` of the conserved and the
    sign-odd coordinates of one row of particle data."""
    return [f"E_{tag}_{i + 1}" for i in range(model.n)] + [
        f"P_{tag}_{j + 1}" for j in range(model.m)
    ]


def _snapshot_row(snap) -> list:
    return (
        [snap.t]
        + snap.gel_largest.g.tolist()
        + snap.gel_threshold.g.tolist()
        + [snap.n_particles]
    )


def _exec_simulate(model, measure, cfg, out: Path) -> None:
    seed, params = cfg["seed"], cfg["params"]
    times, replicas = params["times"], params["replicas"]
    xi = params["xi"] or None
    load_path, dump_path = params["load_state"], params["dump_state"]
    if load_path and replicas != 1:
        raise SchemaError("/params/replicas", "load_state implies one replica")
    if not load_path and params["n"] is None:
        raise SchemaError("/params/n", "need n (or load_state)")

    def one(rep: int):
        if load_path:
            ps = load_state(model, load_path, child_seed(seed, rep))
        else:
            ps = init_poisson(model, measure, params["n"], child_seed(seed, rep))
        try:
            snaps = ps.run(times, xi)
        except ValueError as exc:  # a checkpoint before the dump's time
            raise SchemaError(
                "/params/times", f"{exc} (t = {_fmt(ps.t)} in {load_path})"
            ) from None
        if dump_path and rep == 0:
            ps.dump_state(dump_path)
        return snaps

    header = [
        "t", "M_N", *_coordinate_columns(model, "N"),
        "M_thr", *_coordinate_columns(model, "thr"), "n_particles",
    ]
    # the replica mean; with one replica it is the row itself, digit for digit
    all_snaps = [one(rep) for rep in range(replicas)]
    rows = [
        np.mean([_snapshot_row(snaps[k]) for snaps in all_snaps], axis=0).tolist()
        for k in range(len(times))
    ]
    _write_csv(out, header, rows)


def _exec_graph(model, measure, cfg, out: Path) -> None:
    params = cfg["params"]
    times = params["times"]
    graph = graph_from_measure(
        model, measure, params["n"], max(times), child_seed(cfg["seed"], 0)
    )
    tracks = trajectory(graph, times, params["xi"] or None)
    header = ["t", "C1_over_N", "pi0_C1", *_coordinate_columns(model, "C1"), "meso_sum"]
    rows = [
        [tr.t, tr.c1_over_n] + tr.pi_c1.tolist() + [tr.meso_fraction]
        for tr in tracks
    ]
    _write_csv(out, header, rows)


def _exec_duality(model, measure, cfg, out: Path) -> None:
    params = cfg["params"]
    rep = duality_experiment(
        model, measure, params["n"], params["t_minus"], params["t_plus"], cfg["seed"]
    )
    out.write_text(_json_text(asdict(rep)) + "\n")


def _exec_restricted(model, measure, cfg, out: Path) -> None:
    params = cfg["params"]
    times = params["times"]
    dens_path = _writable(
        Path(params["densities"] or out.parent / (out.stem + "_densities.csv")),
        "/params/densities",
    )
    try:
        flory = TruncatedFlory(model, measure, params["xi"])
    except ValueError as exc:
        # either xi is below an initial species or the measure is not initial
        initial = (measure.coords[:, 0] == 1.0).all()
        raise SchemaError("/params/xi" if initial else "/system", str(exc)) from None
    states = flory.integrate(max(times), outputs=times)
    header = ["t", "phi_sol", "M_xi", *_coordinate_columns(model, "xi")]
    rows = [
        [st.t, st.phi_sol] + st.gel.g.tolist() for st in states
    ]
    _write_csv(out, header, rows)
    k = len(measure)
    dheader = ["t"] + [f"n_species_{i + 1}" for i in range(k)] + ["density"]
    # each composition's cells, written once as one preformatted cell
    comps = [",".join(map(str, comp)) for comp in flory.types]
    drows = [
        [st.t, comp, dens] for st in states for comp, dens in zip(comps, st.densities)
    ]
    _write_csv(dens_path, dheader, drows)


def _exec_convergence(model, measure, cfg, out: Path) -> None:
    seed, params = cfg["seed"], cfg["params"]
    times, n_list = params["times"], params["n_list"]
    n = model.n
    limits = {t: gel_data(model, measure, t).g[: 1 + n] for t in times}

    def one(size_idx: int, rep: int) -> float:
        ps = init_poisson(
            model, measure, n_list[size_idx], child_seed(seed, size_idx, rep)
        )
        snaps = ps.run(times)
        err = 0.0
        for t, snap in zip(times, snaps):
            diff = np.abs(snap.gel_largest.g[: 1 + n] - limits[t])
            err = max(err, float(diff.max()))
        return err

    jobs = [(si, r) for si in range(len(n_list)) for r in range(params["replicas"])]
    errors = [one(si, r) for si, r in jobs]
    rows = [
        [n_list[si], r, e] for (si, r), e in zip(jobs, errors)
    ]
    _write_csv(out, ["N", "replica", "max_abs_error"], rows)
    for si, size in enumerate(n_list):
        med = float(
            np.median([e for (sj, _), e in zip(jobs, errors) if sj == si])
        )
        print(f"N={size}: median max|g_N - g| = {_fmt(med)}")


def _exec_coupling(model, measure, cfg, out: Path) -> None:
    params = cfg["params"]
    rep = coupling_test(
        model,
        measure,
        params["n"],
        params["t"],
        params["replicas"],
        cfg["seed"],
        graph_rate_factor=params["bug_factor"],
    )
    doc = {
        "n": rep.n,
        "t": rep.t,
        "n_replicas": rep.n_replicas,
        "p_largest": rep.p_largest,
        "p_count": rep.p_count,
        "passed": rep.passed,
    }
    out.write_text(_json_text(doc) + "\n")
    print("coupling " + ("PASS" if rep.passed else "FAIL"))


# -- the command table -------------------------------------------------------

_TIMES = Param("times", "times", "comma-separated checkpoint times", low=0)
_N = Param("n", "int", "system size N", low=1)
_XI = Param("xi", "int", "size threshold; 0 means ceil(sqrt(N))", 0, 0)
_REPLICAS = Param("replicas", "int", "number of independent replicas", low=1)

COMMANDS: dict[str, Command] = {
    "tg": Command(_exec_tg, "tg.json", "gelation time and critical direction"),
    "gel-curve": Command(
        _exec_gel_curve, "gel_curve.csv", "gel mass and extracted coordinates",
        (
            Param("times", "times", "comma-separated checkpoint times", None, 0),
            Param("t_max", "float", "end of a uniform grid from 0", None, 0),
            Param("points", "int", "points of the uniform grid", 100, 1),
        ),
    ),
    "moments": Command(
        _exec_moments, "moments.csv", "second and mixed moments", (_TIMES,)
    ),
    "simulate": Command(
        _exec_simulate, "simulate.csv", "finite-N particle simulation",
        (
            _TIMES,
            Param("n", "int", "population scale N", None, 1),
            Param("replicas", "int", "replicas averaged row by row", 1, 1),
            _XI,
            Param("dump_state", "str", "write the final particle table here", ""),
            Param("load_state", "str", "resume from a particle table dump", ""),
        ),
        stochastic=True,
    ),
    "graph": Command(
        _exec_graph, "graph.csv", "random-graph component trajectory",
        (_TIMES, _N, _XI), stochastic=True,
    ),
    "graph-duality": Command(
        _exec_duality, "duality.json", "giant-removal versus tilted fresh graph",
        (
            _N,
            Param("t_minus", "float", "earlier time of the window", low=0),
            Param("t_plus", "float", "later time of the window", low=0),
        ),
        stochastic=True,
    ),
    "restricted": Command(
        _exec_restricted, "restricted.csv", "size-truncated kinetic equations",
        (
            _TIMES,
            Param("xi", "float", "size truncation", low=0),
            Param("densities", "str", "per-type density CSV path", ""),
        ),
    ),
    "convergence": Command(
        _exec_convergence, "convergence.csv", "finite-N gel error against the limit",
        (_TIMES, Param("n_list", "ints", "comma-separated sizes", low=1), _REPLICAS),
        stochastic=True,
    ),
    "coupling": Command(
        _exec_coupling, "coupling.json", "graph components versus merge clusters",
        (
            _N,
            Param("t", "float", "comparison time", low=0),
            _REPLICAS,
            Param("bug_factor", "float", "mis-scale the graph rates (a control)", 1.0, 0),
        ),
        stochastic=True,
    ),
}


def _execute(kind, model, measure, rate_scale, seed, params, out_arg) -> Path:
    """Run one command on ``model`` with every merge rate times
    ``rate_scale``; the manifest's resolved config keeps the unscaled system
    and the factor."""
    cmd = COMMANDS[kind]
    params = _resolve(kind, params)
    if cmd.stochastic and (type(seed) is not int or seed < 0):
        raise SchemaError("/seed", "stochastic experiments need a seed >= 0")
    try:
        scaled = model.scaled(rate_scale)
    except ValueError as exc:  # zero, negative or overflowing, reported as given
        raise SchemaError("/rate_scale", str(exc)) from None
    out = _writable(
        Path(out_arg or Path(os.environ.get("GELKIT_OUT", ".")) / cmd.out), "/output"
    )
    _writable(_manifest_path(out), "/output")
    resolved = {
        "kind": kind,
        "system": system_measure_to_json(model, measure),
        "rate_scale": rate_scale,
        "seed": seed,
        "params": params,
    }
    start = time.perf_counter()
    cmd.run(scaled, measure, resolved, out)
    _write_manifest(out, kind, resolved, time.perf_counter() - start)
    print(f"wrote {out}")
    return out


# -- entry points --------------------------------------------------------------


def _load_model(system_arg, preset_arg):
    if system_arg and preset_arg:
        raise SchemaError("/system", "give either --system or --preset, not both")
    if system_arg:
        return load_system(system_arg)
    if preset_arg:
        try:
            return from_name(preset_arg)
        except ValueError as exc:
            raise SchemaError("/system", str(exc)) from None
    raise SchemaError("/system", "a system is required (--system or --preset)")


def _read_config(path: str) -> tuple:
    """Read and check a run config; return the arguments of :func:`_execute`,
    which checks ``params`` and ``seed`` against the kind."""
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise SchemaError("", "config must be a JSON object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in COMMANDS:
        raise SchemaError(
            "/kind", f"unknown kind {kind!r}; one of {sorted(COMMANDS)}"
        )
    if "system" not in raw:
        raise SchemaError("/system", "missing required key")
    spec = raw["system"]
    if isinstance(spec, str):
        base = Path(path).parent
        model, measure = load_system(
            spec if os.path.isabs(spec) else base / spec
        )
    elif isinstance(spec, dict):
        model, measure = system_measure_from_json(spec)
    else:
        raise SchemaError("/system", "expected an object or a file path")
    doubled = raw.get("doubled_rates", False)
    if not isinstance(doubled, bool):
        raise SchemaError("/doubled_rates", "expected true or false")
    rate_scale = _number(raw.get("rate_scale", 2.0 if doubled else 1.0), "/rate_scale")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("/params", "expected an object")
    out = raw.get("output")
    if out is not None and not isinstance(out, str):
        raise SchemaError("/output", "expected a file path")
    return kind, model, measure, rate_scale, raw.get("seed"), params, out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelkit",
        description="Bilinear merge systems: limit solvers and finite-N checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--system", help="system JSON file")
    common.add_argument(
        "--preset", help=f"bundled system, one of {sorted(PRESETS)}"
    )
    common.add_argument(
        "--doubled-rates",
        action="store_true",
        help="use the convention in which all merge rates carry a factor 2",
    )
    common.add_argument("--out", help="output file (default: per-command name)")

    flag_type = {"float": float, "int": int, "str": str, "times": str, "ints": str}
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=cmd.help)
        for param in cmd.params:
            # no argparse default: absent flags take the table default in
            # _resolve, exactly as absent JSON keys do
            p.add_argument(
                "--" + param.key.replace("_", "-"),
                type=flag_type[param.kind],
                required=param.default is _REQUIRED,
                help=param.help,
            )
        if cmd.stochastic:
            p.add_argument(
                "--seed", type=int, required=True, help="random seed (>= 0)"
            )

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("config")
    return parser


def _params_from_args(kind: str, args) -> dict:
    """The flags given on the command line, as a JSON-style params dict."""
    params: dict = {}
    for p in COMMANDS[kind].params:
        val = getattr(args, p.key)
        if val is None:
            continue
        if p.kind in ("times", "ints"):
            conv = float if p.kind == "times" else int
            try:
                val = [conv(v) for v in val.split(",") if v.strip()]
            except ValueError as exc:
                raise SchemaError(f"/params/{p.key}", f"bad list: {exc}") from None
        params[p.key] = val
    return params


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            _execute(*_read_config(args.config))
            return 0
        model, measure = _load_model(args.system, args.preset)
        rate_scale = 2.0 if args.doubled_rates else 1.0
        params = _params_from_args(args.command, args)
        seed = getattr(args, "seed", None)
        _execute(
            args.command, model, measure, rate_scale, seed, params, args.out
        )
        return 0
    except SchemaError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    _sys.exit(main())
