import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gelkit
from gelkit.cli import COMMANDS, main
from gelkit.configs import path_for
from gelkit.errors import NumericError


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GELKIT_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


# out-of-range values that used to crash or mislead, with the pointer each
# must now name (every case runs on the multiplicative preset)
_OUT_OF_RANGE = {
    "graph-n0": (("graph", "--times", "0.5", "--n", "0", "--seed", "1"), "/params/n"),
    "graph-n-neg": (
        ("graph", "--times", "0.5", "--n", "-5", "--seed", "1"), "/params/n"
    ),
    "simulate-n0": (
        ("simulate", "--times", "0.5", "--n", "0", "--seed", "1"), "/params/n"
    ),
    "simulate-replicas0": (
        ("simulate", "--times", "0.5", "--n", "100", "--replicas", "0",
         "--seed", "1"),
        "/params/replicas",
    ),
    "convergence-nlist0": (
        ("convergence", "--times", "0.5", "--n-list", "0,100", "--replicas", "2",
         "--seed", "1"),
        "/params/n_list",
    ),
    "convergence-replicas0": (
        ("convergence", "--times", "0.5", "--n-list", "100", "--replicas", "0",
         "--seed", "1"),
        "/params/replicas",
    ),
    "coupling-replicas0": (
        ("coupling", "--n", "100", "--t", "1.5", "--replicas", "0", "--seed", "1"),
        "/params/replicas",
    ),
    "coupling-bug-factor-neg": (
        ("coupling", "--n", "100", "--t", "1.5", "--replicas", "2",
         "--bug-factor=-1", "--seed", "1"),
        "/params/bug_factor",
    ),
    "gel-curve-tmax-neg": (("gel-curve", "--t-max", "-1"), "/params/t_max"),
    "restricted-xi0": (("restricted", "--times", "0.5", "--xi", "0"), "/params/xi"),
    "duality-n0": (
        ("graph-duality", "--n", "0", "--t-minus", "1.5", "--t-plus", "2",
         "--seed", "1"),
        "/params/n",
    ),
    "simulate-seed-neg": (
        ("simulate", "--times", "0.5", "--n", "100", "--seed", "-1"), "/seed"
    ),
}


# inputs past a size budget, which must exit 4 before allocating anything
_OVER_BUDGET = {
    "graph-vertices": (
        "graph", "--times", "0.5", "--n", "20000000", "--seed", "1",
    ),
    "duality-vertices": (
        "graph-duality", "--n", "20000000", "--t-minus", "1.5", "--t-plus", "2",
        "--seed", "1",
    ),
    "coupling-vertices": (
        "coupling", "--n", "20000000", "--t", "1.5", "--replicas", "2",
        "--seed", "1",
    ),
    "simulate-particles": (
        "simulate", "--times", "0.5", "--n", "1000000000000000000000",
        "--seed", "1",
    ),
    "simulate-huge-n": (
        "simulate", "--times", "0.5", "--n", "1" + "0" * 400, "--seed", "1",
    ),
    "convergence-huge-n": (
        "convergence", "--times", "0.5", "--n-list", "1" + "0" * 400,
        "--replicas", "1", "--seed", "1",
    ),
    "gel-curve-points": ("gel-curve", "--t-max", "2", "--points", "100000000000"),
}


# output paths that cannot be written, relative to a directory holding the
# file "a_file" and the directory "a_dir"; each must exit 2 before running
_BAD_OUT = {
    "parent-is-file": "a_file/tg.json",
    "out-is-directory": "a_dir",
    "nul-byte": "tg\0.json",
}


class TestExitCodes:
    def test_tg_ok(self, out_dir):
        assert run_cli("tg", "--preset", "multiplicative") == 0
        assert (out_dir / "tg.json").exists()

    def test_missing_system_file(self, capsys):
        assert run_cli("tg", "--system", "/no/such/file.json") == 2
        assert "error:" in capsys.readouterr().err

    def test_system_and_preset_conflict(self):
        assert (
            run_cli(
                "tg", "--preset", "multiplicative",
                "--system", str(path_for("kac")),
            )
            == 2
        )

    def test_unknown_preset(self):
        assert run_cli("tg", "--preset", "frobnicate") == 2

    def test_numeric_error_at_blowup(self, capsys):
        code = run_cli(
            "moments", "--preset", "multiplicative", "--times", "0.5,1.0"
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_moments_in_large_units(self, out_dir):
        # the multiplicative system with its one coordinate in units 1e6 times
        # smaller: Q is 1e12 times larger, which an absolute blowup threshold
        # of 1e12 refused at t = 0
        system = {"n": 1, "m": 0, "A_plus": [[1.0]], "A_par": [],
                  "atoms": [{"pi0": 1, "plus": [1e6], "w": 1.0}]}
        (out_dir / "big.json").write_text(json.dumps(system))
        times = "0,5e-13,2e-12"
        assert run_cli("moments", "--system", "big.json", "--times", times) == 0
        assert run_cli(
            "moments", "--preset", "multiplicative", "--times", "0,0.5,2",
            "--out", "unit.csv",
        ) == 0
        big = np.genfromtxt(out_dir / "moments.csv", delimiter=",", names=True)
        unit = np.genfromtxt(out_dir / "unit.csv", delimiter=",", names=True)
        np.testing.assert_allclose(big["Q_11"] / 1e12, unit["Q_11"], rtol=1e-14)
        np.testing.assert_allclose(big["z_1"] / 1e6, unit["z_1"], rtol=1e-14)
        np.testing.assert_allclose(big["z_0"], unit["z_0"], rtol=1e-14)

    @pytest.mark.parametrize(
        "argv", list(_OVER_BUDGET.values()), ids=list(_OVER_BUDGET)
    )
    def test_budget_exceeded(self, argv, capsys):
        assert run_cli(argv[0], "--preset", "multiplicative", *argv[1:]) == 4
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out", list(_BAD_OUT.values()), ids=list(_BAD_OUT)
    )
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unwritable_output(self, out, via, out_dir, capsys):
        (out_dir / "a_file").write_text("")
        (out_dir / "a_dir").mkdir()
        if via == "flag":
            code = run_cli("tg", "--preset", "multiplicative", "--out", out)
        else:
            cfg = out_dir / "c.json"
            cfg.write_text(json.dumps({
                "kind": "tg", "system": str(path_for("multiplicative")),
                "output": out,
            }))
            code = run_cli("run", str(cfg))
        assert code == 2
        assert "/output" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["a_file", "a_dir"] + (["c.json"] if via == "config" else [])
        )

    def test_seed_required_for_stochastic(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kind": "simulate",
            "system": str(path_for("multiplicative")),
            "params": {"times": [0.5], "n": 100},
        }))
        assert run_cli("run", str(cfg)) == 2
        assert "/seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,pointer", list(_OUT_OF_RANGE.values()), ids=list(_OUT_OF_RANGE)
    )
    def test_out_of_range(self, argv, pointer, capsys):
        code = run_cli(argv[0], "--preset", "multiplicative", *argv[1:])
        assert code == 2
        assert pointer in capsys.readouterr().err

    def test_restricted_needs_initial_measure(self, tmp_path, capsys):
        spec = json.loads(path_for("multiplicative").read_text())
        spec["atoms"][0]["pi0"] = 2
        system = tmp_path / "pi0.json"
        system.write_text(json.dumps(spec))
        code = run_cli(
            "restricted", "--system", str(system), "--times", "0.5", "--xi", "4"
        )
        assert code == 2
        assert "/system" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dens", ["a_dir", "a_file/d.csv"], ids=["directory", "under-a-file"]
    )
    def test_restricted_unwritable_densities(self, dens, out_dir, capsys):
        # restricted.csv was written first, then the densities ended in a
        # bare IsADirectoryError or NotADirectoryError with exit 1
        (out_dir / "a_file").write_text("")
        (out_dir / "a_dir").mkdir()
        code = run_cli(
            "restricted", "--preset", "multiplicative", "--times", "0.5", "--xi", "4",
            "--densities", dens,
        )
        assert code == 2
        assert "/params/densities" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == ["a_dir", "a_file"]

    def test_restricted_late_time(self, out_dir):
        # an adaptive integrator ran out of steps here (exit 3), and at
        # t = 1e4 it still wrote densities of 5e-15 where e^-1e4 is 0
        assert run_cli(
            "restricted", "--preset", "multiplicative", "--times", "100000",
            "--xi", "16",
        ) == 0
        head, row = (out_dir / "restricted.csv").read_text().splitlines()
        cols = dict(zip(head.split(","), map(float, row.split(","))))
        assert abs(cols["M_xi"] - 1.0) <= 1e-12
        dens = np.loadtxt(out_dir / "restricted_densities.csv", delimiter=",", skiprows=1)
        assert (dens[:, -1] == 0.0).all()

    def test_restricted_many_species(self, out_dir, tmp_path):
        # 1500 species, each its own type: enumerating the types once
        # recursed once per species and ended in a RecursionError
        atoms = [{"pi0": 1, "plus": [1 + 3e-4 * i], "par": [], "w": 1 / 1500}
                 for i in range(1500)]
        doc = {"n": 1, "m": 0, "A_plus": [[1]], "A_par": [], "atoms": atoms}
        system = tmp_path / "many.json"
        system.write_text(json.dumps(doc))
        assert run_cli(
            "restricted", "--system", str(system), "--times", "0.5", "--xi", "1.5"
        ) == 0
        rows = (out_dir / "restricted_densities.csv").read_text().splitlines()
        assert len(rows) == 1 + 1500


# every command whose output relies on the limit theory, with small params
_LIMIT_RUNS = {
    "tg": (),
    "gel-curve": ("--t-max", "0.3", "--points", "5"),
    "moments": ("--times", "0.05,0.2"),
    "graph-duality": (
        "--n", "200", "--t-minus", "0.15", "--t-plus", "0.2", "--seed", "1",
    ),
    "convergence": (
        "--times", "0.2", "--n-list", "100", "--replicas", "1", "--seed", "1",
    ),
}

# the finite-N commands, exact for any kernel nonnegative on the support
_FINITE_RUNS = {
    "simulate": ("--times", "0.2", "--n", "500", "--seed", "1"),
    "graph": ("--times", "0.2", "--n", "300", "--seed", "1"),
    "coupling": ("--n", "100", "--t", "0.2", "--replicas", "3", "--seed", "1"),
}


class TestMirrorSymmetry:
    """A measure without mirror symmetry (hypothesis A1) is refused by the
    limit commands; before, ``tg`` reported t_g = 0.10554 on this file."""

    @pytest.fixture
    def asym(self, tmp_path):
        doc = gelkit.system_measure_to_json(
            *gelkit.kinetic_gas_sample(3, seed=5, mirrored=False)
        )
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("kind", list(_LIMIT_RUNS))
    def test_limit_commands_exit_2(self, kind, asym, out_dir, capsys):
        assert run_cli(kind, "--system", str(asym), *_LIMIT_RUNS[kind]) == 2
        err = capsys.readouterr().err
        assert "/atoms" in err and "hypothesis A1" in err
        assert not list(out_dir.glob(f"{COMMANDS[kind].out.split('.')[0]}*"))

    @pytest.mark.parametrize("kind", list(_FINITE_RUNS))
    def test_finite_commands_run(self, kind, asym, out_dir):
        assert run_cli(kind, "--system", str(asym), *_FINITE_RUNS[kind]) == 0
        assert (out_dir / COMMANDS[kind].out).exists()


class TestFormatting:
    def test_seventeen_digit_floats(self, out_dir):
        run_cli(
            "gel-curve", "--preset", "multiplicative", "--times", "2.0"
        )
        text = (out_dir / "gel_curve.csv").read_text()
        # M(2) for the monodisperse multiplicative model, full precision: the
        # root of M = 1 - exp(-2M) is 0.79681213002002004616152... (mpmath,
        # 40 digits), whose nearest double prints as below
        assert "0.79681213002002005" in text

    def test_no_negative_zero(self, out_dir):
        run_cli(
            "moments", "--preset", "kinetic-gas", "--times", "0.01"
        )
        for cell in (out_dir / "moments.csv").read_text().split(","):
            assert not cell.startswith("-0\n") and cell != "-0"

    def test_tg_json_fields(self, out_dir):
        run_cli("tg", "--preset", "multiplicative")
        doc = json.loads((out_dir / "tg.json").read_text())
        assert doc["t_g"] == pytest.approx(1.0, abs=1e-12)
        assert doc["rate_scale"] == 1.0
        assert doc["spectral_radius"] > 0
        assert isinstance(doc["psi"], list)
        assert doc["lambda_matrix"] == [[1.0]]

    def test_doubled_rates_halves_tg(self, out_dir):
        run_cli("tg", "--preset", "multiplicative", "--doubled-rates")
        doc = json.loads((out_dir / "tg.json").read_text())
        assert doc["t_g"] == pytest.approx(0.5, abs=1e-12)
        assert doc["rate_scale"] == 2.0

    def test_single_replica_coupling_is_json(self, out_dir):
        # the asymptotic p-value of one replica per side was nan, which is
        # not JSON
        assert run_cli(
            "coupling", "--preset", "multiplicative", "--n", "100", "--t", "1.5",
            "--replicas", "1", "--seed", "7",
        ) == 0
        doc = json.loads((out_dir / "coupling.json").read_text())
        assert 0.0 <= doc["p_largest"] <= 1.0
        assert 0.0 <= doc["p_count"] <= 1.0


class TestHeaders:
    def test_gel_curve_header(self, out_dir):
        run_cli(
            "gel-curve", "--system", str(path_for("kac")), "--times", "0.1"
        )
        head = (out_dir / "gel_curve.csv").read_text().splitlines()[0]
        assert head == "t,c_1,c_2,M,E_1,E_2"

    def test_simulate_header(self, out_dir):
        run_cli(
            "simulate", "--preset", "multiplicative", "--times", "0.5",
            "--n", "200", "--seed", "3",
        )
        head = (out_dir / "simulate.csv").read_text().splitlines()[0]
        assert head == (
            "t,M_N,E_N_1,M_thr,E_thr_1,n_particles"
        )

    def test_graph_header(self, out_dir):
        run_cli(
            "graph", "--preset", "multiplicative", "--times", "0.5",
            "--n", "300", "--seed", "3",
        )
        head = (out_dir / "graph.csv").read_text().splitlines()[0]
        assert head == "t,C1_over_N,pi0_C1,E_C1_1,meso_sum"

    def test_restricted_headers(self, out_dir):
        run_cli(
            "restricted", "--preset", "multiplicative", "--times", "0.5",
            "--xi", "3",
        )
        head = (out_dir / "restricted.csv").read_text().splitlines()[0]
        assert head == "t,phi_sol,M_xi,E_xi_1"
        dens = (out_dir / "restricted_densities.csv").read_text()
        assert dens.splitlines()[0] == "t,n_species_1,density"

    def test_restricted_keeps_signed_gel_block(self, out_dir, tmp_path):
        # a measure without mirror symmetry: every type's par is -plus/2,
        # and so is the gel's; it once wrote P_xi_1 = 0
        doc = {"n": 1, "m": 1, "A_plus": [[1]], "A_par": [[0.5]],
               "atoms": [{"pi0": 1, "plus": [1], "par": [-0.5], "w": 1}]}
        system = tmp_path / "odd.json"
        system.write_text(json.dumps(doc))
        assert run_cli(
            "restricted", "--system", str(system), "--times", "2", "--xi", "8"
        ) == 0
        head, row = (out_dir / "restricted.csv").read_text().splitlines()
        cols = dict(zip(head.split(","), map(float, row.split(","))))
        assert cols["E_xi_1"] > 0.5
        assert abs(cols["P_xi_1"] + cols["E_xi_1"] / 2) <= 1e-12

    def test_convergence_header(self, out_dir):
        run_cli(
            "convergence", "--preset", "multiplicative", "--times", "0.5",
            "--n-list", "100,200", "--replicas", "2", "--seed", "5",
        )
        head = (out_dir / "convergence.csv").read_text().splitlines()[0]
        assert head == "N,replica,max_abs_error"


class TestDeterminism:
    def test_byte_identical_rerun(self, out_dir):
        args = (
            "simulate", "--preset", "kinetic-gas", "--times", "0.05,0.1",
            "--n", "300", "--seed", "17",
        )
        run_cli(*args, "--out", str(out_dir / "a.csv"))
        run_cli(*args, "--out", str(out_dir / "b.csv"))
        assert (out_dir / "a.csv").read_bytes() == (out_dir / "b.csv").read_bytes()

    def test_seed_changes_output(self, out_dir):
        base = (
            "simulate", "--preset", "multiplicative", "--times", "0.8",
            "--n", "400",
        )
        run_cli(*base, "--seed", "1", "--out", str(out_dir / "a.csv"))
        run_cli(*base, "--seed", "2", "--out", str(out_dir / "b.csv"))
        assert (out_dir / "a.csv").read_text() != (out_dir / "b.csv").read_text()


class TestManifest:
    def test_written_next_to_output(self, out_dir):
        run_cli("tg", "--preset", "multiplicative")
        doc = json.loads((out_dir / "tg.manifest.json").read_text())
        assert set(doc) >= {
            "kind", "config_sha256", "numpy_version", "wall_time_s", "output"
        }
        assert doc["kind"] == "tg"
        assert len(doc["config_sha256"]) == 64
        assert doc["output"] == "tg.json"

    def test_sha_tracks_config(self, out_dir):
        run_cli("tg", "--preset", "multiplicative",
                "--out", str(out_dir / "a.json"))
        run_cli("tg", "--preset", "multiplicative", "--doubled-rates",
                "--out", str(out_dir / "b.json"))
        sha_a = json.loads((out_dir / "a.manifest.json").read_text())["config_sha256"]
        sha_b = json.loads((out_dir / "b.manifest.json").read_text())["config_sha256"]
        assert sha_a != sha_b


class TestRunConfig:
    def test_full_config_roundtrip(self, out_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": "gel-curve",
            "system": "kac.json",
            "params": {"times": [0.1, 0.14]},
            "output": str(out_dir / "curve.csv"),
        }))
        # system path resolves relative to the config file
        import shutil
        shutil.copy(path_for("kac"), tmp_path / "kac.json")
        assert run_cli("run", str(cfg)) == 0
        lines = (out_dir / "curve.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_inline_system(self, out_dir, tmp_path):
        spec = json.loads(path_for("multiplicative").read_text())
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": "tg",
            "system": spec,
            "output": str(out_dir / "t.json"),
        }))
        assert run_cli("run", str(cfg)) == 0
        assert json.loads((out_dir / "t.json").read_text())["t_g"] == pytest.approx(1.0)

    def test_bad_kind(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "nope", "system": {}}))
        assert run_cli("run", str(cfg)) == 2
        assert "/kind" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("run", str(cfg)) == 2

    def test_missing_config(self):
        assert run_cli("run", "/no/where.json") == 2

    @pytest.mark.parametrize(
        "kind,params,pointer",
        [
            ("simulate", {"times": [0.5], "n": 100, "replica": 4}, "/params/replica"),
            (
                "convergence",
                {"times": [0.5], "n_list": [100.5], "replicas": 1},
                "/params/n_list/0",
            ),
        ],
        ids=["unknown-key", "non-integral-n-list"],
    )
    def test_bad_params(self, tmp_path, capsys, kind, params, pointer):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": kind, "system": str(path_for("multiplicative")),
            "seed": 1, "params": params,
        }))
        assert run_cli("run", str(cfg)) == 2
        assert pointer in capsys.readouterr().err


def _system_text(path_name, value):
    """The multiplicative system document with ``value`` spliced in as raw
    JSON text at ``path_name`` (a weight or the A_plus entry)."""
    spec = json.loads(path_for("multiplicative").read_text())
    if path_name == "w":
        spec["atoms"][0]["w"] = "@"
    else:
        spec["A_plus"][0][0] = "@"
    return json.dumps(spec).replace('"@"', value)


class TestMalformedInput:
    """Malformed JSON inputs that used to exit 0 with a wrong number or end
    in a bare exception: each is a schema error (exit 2) with a pointer."""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
    def test_non_finite_rate_scale(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            '{"kind": "tg", "system": %s, "rate_scale": %s}'
            % (json.dumps(str(path_for("multiplicative"))), value)
        )
        assert run_cli("run", str(cfg)) == 2
        assert "/rate_scale" in capsys.readouterr().err
        assert not (tmp_path / "tg.json").exists()

    @pytest.mark.parametrize("kind", ["tg", "simulate"])
    @pytest.mark.parametrize("a_plus, rate", [(1.0, 0), (1.0, -1.5), (10.0, 1e308)])
    def test_rate_scale_refused(self, tmp_path, capsys, kind, a_plus, rate):
        # a rate of 1e308 times an entry of 10 overflows: tg once wrote
        # t_g = 0 with exit 0, simulate exited 3
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": kind, "seed": 1, "rate_scale": rate,
            "params": {} if kind == "tg" else {"times": [1.0], "n": 100},
            "system": {
                "n": 1, "m": 0, "A_plus": [[a_plus]], "A_par": [],
                "atoms": [{"pi0": 1, "plus": [1.0], "w": 1.0}],
            },
        }))
        assert run_cli("run", str(cfg)) == 2
        assert "/rate_scale" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "a_plus, rate, plus",
        [
            pytest.param(1e-320, 1.0, 1.0, id="1e-320-1.0"),
            pytest.param(1.0, 1e-320, 1.0, id="1.0-1e-320"),
            pytest.param(1e8, 1.0, 1e150, id="1e+08-1.0-1e+150"),
        ],
    )
    def test_tiny_spectral_radius(self, tmp_path, capsys, a_plus, rate, plus):
        # 1 / radius overflows: tg once wrote "t_g": inf, which is not JSON.
        # The radius overflows at plus = 1e150 (t_g = 1e-308, below the
        # normal doubles): tg once wrote "t_g": 0 with exit 0
        doc = {
            "kind": "tg", "rate_scale": rate,
            "system": {
                "n": 1, "m": 0, "A_plus": [[a_plus]], "A_par": [],
                "atoms": [{"pi0": 1, "plus": [plus], "w": 1.0}],
            },
        }
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("run", str(cfg)) == 3
        assert "no finite t_g" in capsys.readouterr().err
        assert not (tmp_path / "tg.json").exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_is_not_written(self, value):
        with pytest.raises(NumericError, match="not a JSON number"):
            gelkit.cli._json_text({"psi": [1.0, value]})

    def test_non_boolean_doubled_rates(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": "tg", "system": str(path_for("multiplicative")),
            "doubled_rates": "no",
        }))
        assert run_cli("run", str(cfg)) == 2
        assert "/doubled_rates" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "field,pointer", [("w", "/atoms/0/w"), ("A_plus", "/A_plus/0/0")]
    )
    def test_non_finite_system_entry(self, tmp_path, capsys, field, pointer, value):
        path = tmp_path / "sys.json"
        path.write_text(_system_text(field, value))
        assert run_cli("tg", "--system", str(path)) == 2
        assert pointer in capsys.readouterr().err

    def test_no_atoms(self, tmp_path, capsys):
        spec = json.loads(path_for("multiplicative").read_text())
        spec["atoms"] = []
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(spec))
        assert run_cli("tg", "--system", str(path)) == 2
        assert "/atoms" in capsys.readouterr().err

    def test_non_utf8_system(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_bytes(b'{"n": 1, "m": 0, "name": "\xff"}')
        assert run_cli("tg", "--system", str(path)) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_bytes(b'{"kind": "tg\xff"}')
        assert run_cli("run", str(cfg)) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_directory_as_config(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path)) == 2
        assert "cannot read config" in capsys.readouterr().err


# one small experiment per command, as JSON params; the flag form of each is
# derived by the CLI's own convention (--key with "_" as "-", lists joined by ",")
_PARITY = {
    "tg": {},
    "gel-curve": {"t_max": 2.0, "points": 5},
    "moments": {"times": [0.05, 0.1]},
    "simulate": {"times": [0.5], "n": 200},
    "graph": {"times": [0.5, 1.0], "n": 300},
    "graph-duality": {"n": 300, "t_minus": 1.5, "t_plus": 2.0},
    "restricted": {"times": [0.5], "xi": 3.0},
    "convergence": {"times": [0.5], "n_list": [100, 200], "replicas": 2},
    "coupling": {"n": 100, "t": 1.5, "replicas": 5},
}


class TestFlagConfigParity:
    def test_covers_every_command(self):
        assert set(_PARITY) == set(COMMANDS)

    @pytest.mark.parametrize("kind", list(_PARITY))
    def test_same_data_and_digest(self, kind, out_dir, tmp_path):
        params = _PARITY[kind]
        system = str(path_for("multiplicative"))
        ext = Path(COMMANDS[kind].out).suffix
        flags = []
        for key, val in params.items():
            text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
            flags += ["--" + key.replace("_", "-"), text]
        seed = ["--seed", "3"] if COMMANDS[kind].stochastic else []
        assert run_cli(
            kind, "--system", system, *flags, *seed,
            "--out", str(out_dir / f"a{ext}"),
        ) == 0
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "kind": kind, "system": system, "params": params,
            **({"seed": 3} if seed else {}), "output": str(out_dir / f"b{ext}"),
        }))
        assert run_cli("run", str(cfg)) == 0
        pairs = [(f"a{ext}", f"b{ext}")]
        if kind == "restricted":
            pairs.append(("a_densities.csv", "b_densities.csv"))
        for a, b in pairs:
            assert (out_dir / a).read_bytes() == (out_dir / b).read_bytes()
        sha = [
            json.loads((out_dir / f"{s}.manifest.json").read_text())["config_sha256"]
            for s in "ab"
        ]
        assert sha[0] == sha[1]


class TestStateFiles:
    def _resume(self, dump, times="0.8"):
        return run_cli(
            "simulate", "--preset", "multiplicative", "--times", times,
            "--seed", "9", "--load-state", str(dump),
        )

    def _dump(self, out_dir):
        path = out_dir / "state.bin"
        assert run_cli(
            "simulate", "--preset", "multiplicative", "--times", "0.5",
            "--n", "300", "--seed", "8", "--dump-state", str(path),
        ) == 0
        return path

    @pytest.mark.parametrize("size", [20, 100])
    def test_truncated_dump(self, out_dir, capsys, size):
        cut = out_dir / "cut.bin"
        cut.write_bytes(self._dump(out_dir).read_bytes()[:size])
        assert self._resume(cut) == 2
        err = capsys.readouterr().err
        assert str(cut) in err and "truncated" in err

    def test_missing_dump(self, out_dir, capsys):
        assert self._resume(out_dir / "absent.bin") == 2
        assert str(out_dir / "absent.bin") in capsys.readouterr().err

    def test_unwritable_dump(self, out_dir, capsys):
        path = out_dir / "no" / "dir" / "x.bin"
        assert run_cli(
            "simulate", "--preset", "multiplicative", "--times", "0.5",
            "--n", "100", "--seed", "1", "--dump-state", str(path),
        ) == 2
        assert str(path) in capsys.readouterr().err

    def test_checkpoint_before_dump(self, out_dir, capsys):
        assert self._resume(self._dump(out_dir), "0.2,0.8") == 2
        assert "/params/times" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_resume_at_doubled_rates(self, out_dir, via):
        # the rate flag reaches the loaded system: the resumed run is the
        # library's load_state on sys.scaled(2), with the same child seed
        dump = self._dump(out_dir)
        if via == "flag":
            code = run_cli(
                "simulate", "--preset", "multiplicative", "--times", "0.8,1.2",
                "--seed", "9", "--load-state", str(dump), "--doubled-rates",
            )
        else:
            cfg = out_dir / "exp.json"
            cfg.write_text(json.dumps({
                "kind": "simulate", "system": str(path_for("multiplicative")),
                "rate_scale": 2.0, "seed": 9,
                "params": {"times": [0.8, 1.2], "load_state": str(dump)},
            }))
            code = run_cli("run", str(cfg))
        assert code == 0
        sys_, _ = gelkit.multiplicative()
        ps = gelkit.load_state(sys_.scaled(2.0), dump, gelkit.child_seed(9, 0))
        rows = [
            [s.t, *s.gel_largest.g, *s.gel_threshold.g, s.n_particles]
            for s in ps.run([0.8, 1.2])
        ]
        lines = (out_dir / "simulate.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in line.split(",")] for line in lines] == rows

    def test_dump_then_resume(self, out_dir):
        run_cli(
            "simulate", "--preset", "multiplicative", "--times", "0.5",
            "--n", "300", "--seed", "8",
            "--dump-state", str(out_dir / "state.bin"),
        )
        assert (out_dir / "state.bin").exists()
        code = run_cli(
            "simulate", "--preset", "multiplicative", "--times", "0.8,1.2",
            "--seed", "9", "--load-state", str(out_dir / "state.bin"),
            "--out", str(out_dir / "resumed.csv"),
        )
        assert code == 0
        lines = (out_dir / "resumed.csv").read_text().splitlines()
        assert float(lines[1].split(",")[0]) == pytest.approx(0.8)
        assert float(lines[2].split(",")[0]) == pytest.approx(1.2)


def _run_module(*argv, out_dir):
    """Run ``python -m gelkit`` in a child that imports this same package."""
    src = str(Path(gelkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gelkit", *argv],
        capture_output=True, text=True,
        env={**os.environ, "GELKIT_OUT": str(out_dir), "PYTHONPATH": path},
    )


def _loaded_after_cli_import(module: str, then: str = "") -> str:
    # whether a fresh interpreter holds module after importing the CLI and
    # running the statements in then
    src = str(Path(gelkit.__file__).resolve().parents[1])
    code = f"import sys, gelkit.cli\n{then}\nprint({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes most of a second to import; no command needs it
    assert _loaded_after_cli_import("scipy.stats") == "False"


def test_import_leaves_scipy_sparse_out():
    # scipy.sparse costs about a quarter second; no module of the package
    # needs it
    assert _loaded_after_cli_import("scipy.sparse") == "False"


def test_merging_leaves_scipy_sparse_out():
    # clusters merge by a numpy union-find, in the particle run, the graph
    # trajectory and the irreducibility check alike
    merge = (
        "import gelkit as gk\n"
        "s, m = gk.multiplicative()\n"
        "ps = gk.init_poisson(s, m, 2000, 1)\n"
        "ps.run([0.5, 2.0])\n"
        "assert ps.merges > 0\n"
        "g = gk.graph_from_measure(s, m, 500, 2.0, 1)\n"
        "assert gk.trajectory(g, [2.0])[-1].n_components < 500\n"
        "assert gk.check_hypotheses(*gk.kinetic_gas()).irreducible\n"
    )
    assert _loaded_after_cli_import("scipy.sparse", merge) == "False"


def test_runs_without_scipy(out_dir):
    # scipy is a test-only dependency: with it blocked, a fresh interpreter
    # runs every command, the particle merge, the graph trajectory, the
    # irreducibility check and the A1 check's fallback for a reflection
    # that sorts away from its match
    runs = []
    for kind, params in _PARITY.items():
        flags = ["--preset", "multiplicative"]
        for key, val in params.items():
            text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
            flags += ["--" + key.replace("_", "-"), text]
        if COMMANDS[kind].stochastic:
            flags += ["--seed", "3"]
        runs.append([kind, *flags])
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gelkit as gk\n"
        "from gelkit.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "s, m = gk.multiplicative()\n"
        "ps = gk.init_poisson(s, m, 2000, 1)\n"
        "ps.run([0.5, 2.0])\n"
        "assert ps.merges > 0\n"
        "g = gk.graph_from_measure(s, m, 500, 2.0, 1)\n"
        "assert gk.trajectory(g, [2.0])[-1].n_components < 500\n"
        "assert gk.check_hypotheses(*gk.kinetic_gas()).irreducible\n"
        "near = gk.AtomicMeasure([[1, 1, 1], [1, 1 + 1e-12, -1]], [1, 1], 1)\n"
        "two = gk.BilinearSystem(1, 1, [[1.0]], [[1.0]])\n"
        "assert gk.check_hypotheses(two, near).mirror_symmetric\n"
    )
    src = str(Path(gelkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=out_dir,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out_dir.iterdir()} >= {c.out for c in COMMANDS.values()}


class TestInstalledEntryPoint:
    def test_console_script(self, out_dir):
        proc = _run_module("tg", "--preset", "multiplicative", out_dir=out_dir)
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        assert (out_dir / "tg.json").exists()
        # the wrapper passes the exit-code contract through unchanged
        proc = _run_module("tg", "--system", "/no/such/file.json", out_dir=out_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        # the module run stands for the declared script; checked last because
        # tomllib is standard library only from Python 3.11
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["gelkit"] == "gelkit.cli:main"

    @pytest.mark.skipif(
        shutil.which("gelkit") is None,
        reason="gelkit console script not installed (pip install -e .)",
    )
    def test_installed_executable(self, out_dir):
        proc = subprocess.run(
            ["gelkit", "tg", "--preset", "multiplicative"],
            capture_output=True, text=True,
            env={**os.environ, "GELKIT_OUT": str(out_dir)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        assert (out_dir / "tg.json").exists()
