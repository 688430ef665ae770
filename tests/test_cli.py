import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipolarray.dynamics as dynamics_mod
import dipolarray.phonon as phonon_mod
from dipolarray.cli import (
    EXIT_CONFIG,
    EXIT_NO_GATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    SCHEMAS,
    ConfigError,
    main,
    parse_config,
)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_defaults_and_types(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """
            experiment = phase_gate
            n_sites = 12
        """.replace("            ", "")))
        assert cfg["n_sites"] == 12
        assert cfg["boundary"] == "open"
        assert cfg["t_max"] == 4.0

    def test_comments_ignored(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "experiment = phase_gate # x\nn_sites = 8 # sites\n"))
        assert cfg["n_sites"] == 8

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 8\nbogus = 1\n"))

    def test_duplicate_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="n_sites"):
            parse_config(write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 8\nn_sites = 9\n"))

    def test_missing_required_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="n_sites"):
            parse_config(write_cfg(tmp_path, "experiment = phase_gate\n"))

    def test_missing_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(write_cfg(tmp_path, "n_sites = 8\n"))

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(write_cfg(tmp_path, "experiment = warp_drive\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match="n_sites"):
            parse_config(write_cfg(tmp_path, "experiment = phase_gate\nn_sites = twelve\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write_cfg(tmp_path, "experiment phase_gate\n"))


class TestListCommand:
    def test_seven_experiments(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(SCHEMAS) == 7
        for name in SCHEMAS:
            assert name in out

    def test_phase_gate_keys_shown(self, capsys):
        assert main(["list", "phase_gate"]) == EXIT_OK
        out = capsys.readouterr().out
        for key in ("n_sites", "xi_over_kappa", "t_max"):
            assert key in out
        assert "t_max=4.0" in out

    def test_unknown_experiment_nonzero(self, capsys):
        assert main(["list", "nonsense"]) == EXIT_CONFIG

    def test_closed_pipe_is_quiet(self):
        # sim list | head: the reader closes the pipe before the listing is
        # written; the command must still exit 0 without a traceback
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-m", "dipolarray.cli", "list"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_OK
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestRunCommand:
    def test_phase_gate_run_and_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
experiment = phase_gate
kind = chain
n_sites = 12
boundary = periodic
t_max = 4.5
n_samples = 200
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        outdir = tmp_path / "o" / "phase_gate"
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["gate_reached"] is True
        assert summary["gate_time_over_t_pi"] > 1.0
        # periodic chain N = 12: sector 2 (dim 66) reduces to 6 pair distances
        diag = summary["diagnostics"]
        assert diag["sector_dims"] == [1, 12, 66]
        assert diag["reduced_dims"] == [1, 1, 6]
        assert diag["invariance_residual"] <= 1e-10
        assert diag["gate_time_method"] in ("bisection", "interpolation")
        meta = json.loads((outdir / "metadata.json").read_text())
        assert meta["config"]["n_sites"] == 12
        assert "pair_sum" in meta["conventions"]
        assert (outdir / "trajectory.csv").exists()

    def test_byte_reproducibility(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = phase_gate
kind = chain
n_sites = 10
boundary = periodic
t_max = 3.0
n_samples = 120
""")
        files = {}
        for run_dir in ("a", "b"):
            assert main(["run", cfg, "--out", str(tmp_path / run_dir)]) == EXIT_OK
            base = tmp_path / run_dir / "phase_gate"
            files[run_dir] = {f.name: f.read_bytes() for f in base.iterdir()}
        assert files["a"] == files["b"]

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = stark_sweep
e_min = 0.0
e_max = 2.0
n_field = 9
""")
        outs = {}
        for w, tag in ((1, "w1"), (3, "w3")):
            assert main(["run", cfg, "--out", str(tmp_path / tag), "--workers", str(w)]) == EXIT_OK
            outs[tag] = (tmp_path / tag / "stark_sweep" / "stark.csv").read_bytes()
        assert outs["w1"] == outs["w3"]

    def test_stark_first_row_unity(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = stark_sweep
e_min = 0.0
e_max = 1.0
n_field = 5
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        path = tmp_path / "o" / "stark_sweep" / "stark.csv"
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["xi_over_kappa"]) == pytest.approx(1.0, abs=1e-6)
        # metadata header per the sweep-table contract
        assert any(l.startswith("# molecule") for l in path.read_text().splitlines())

    def test_bad_key_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 8\nwhatever = 1\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "whatever" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == EXIT_CONFIG

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 2000\nboundary = periodic\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE

    def test_gate_not_reached_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
experiment = phase_gate
kind = chain
n_sites = 10
boundary = periodic
t_max = 0.3
n_samples = 60
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NO_GATE

    def test_unstable_crystal_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(phonon_mod, "_dynamical_matrices",
                            lambda rel, qvecs: -np.ones((len(qvecs), 1, 1)))
        cfg = write_cfg(tmp_path, "experiment = phonon_bands\nkind = chain\nn_sites = 8\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical error: unstable crystal mode" in capsys.readouterr().err

    def test_vanishing_frequency_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(phonon_mod, "_dynamical_matrices",
                            lambda rel, qvecs: np.zeros((len(qvecs), 1, 1)))
        cfg = write_cfg(tmp_path, "experiment = phonon_decay\nkind = chain\nn_sites = 8\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical error: vanishing branch frequency" in capsys.readouterr().err

    def test_gamma2_memory_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(phonon_mod, "PAIR_TABLE_BYTES_MAX", 1000)
        cfg = write_cfg(tmp_path, "experiment = phonon_decay\nkind = chain\nn_sites = 8\n"
                                  "n_samples = 20\ninclude_fgr = false\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE
        assert "resource limit: gamma2 pair tables" in capsys.readouterr().err

    def test_invariance_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics_mod, "RESIDUAL_TOL", -1.0)
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 8\nboundary = periodic\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical error: quotient" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "experiment = phase_gate\nn_sites = 8\nboundary = periodic\n",
        "experiment = mpm_sweep\nn_sites = 8\nboundary = periodic\nxi_over_kappa_values = 0.1\n",
        "experiment = phonon_decay\nkind = chain\nn_sites = 8\n",
    ], ids=["phase_gate", "mpm_sweep", "phonon_decay"])
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_exit_code(self, tmp_path, capsys, text, n_samples):
        cfg = write_cfg(tmp_path, text + f"n_samples = {n_samples}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: config key 'n_samples'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "experiment = phase_gate\nn_sites = 8\nboundary = periodic\n",
        "experiment = mpm_sweep\nn_sites = 8\nboundary = periodic\nxi_over_kappa_values = 0.1\n",
        "experiment = phonon_decay\nkind = chain\nn_sites = 8\n",
    ], ids=["phase_gate", "mpm_sweep", "phonon_decay"])
    @pytest.mark.parametrize("t_max", [0, -2])
    def test_non_positive_t_max_exit_code(self, tmp_path, capsys, text, t_max):
        cfg = write_cfg(tmp_path, text + f"t_max = {t_max}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: config key 't_max'" in capsys.readouterr().err

    def test_dispersion_zero_cutoff_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = dispersion\nkind = chain\nn_sites = 8\nsum_cutoff = 0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: cutoff must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0.1, 0.1000001", "0.2, 0.05, 0.2"], ids=["close", "repeated"])
    def test_mpm_sweep_colliding_file_names(self, tmp_path, capsys, values):
        cfg = write_cfg(tmp_path, "experiment = mpm_sweep\nn_sites = 8\nboundary = periodic\n"
                                  f"xi_over_kappa_values = {values}\nn_samples = 20\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "xi_over_kappa_values" in err
        assert values.split(", ")[0] + ", " in err
        assert not (tmp_path / "o" / "mpm_sweep" / "sweep.csv").exists()

    def test_phonon_decay_zero_xi_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = phonon_decay\nkind = chain\nn_sites = 8\n"
                                  "xi_over_kappa = 0.0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: t_pi from chi_tilde requested but xi = 0" in capsys.readouterr().err

    def test_stark_unconverged_j_max_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = stark_sweep\ne_max = 200\nj_max = 9\nn_field = 3\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical error: j_max = 9 not converged" in capsys.readouterr().err

    def test_stark_j_max_below_minimum_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = stark_sweep\nj_max = 5\nn_field = 3\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: j_max = 5 too small" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "experiment = phase_gate\nn_sites = 8\nboundary = periodic\nt_max = 3.0\nn_samples = 40\n",
        "experiment = mpm_sweep\nn_sites = 8\nboundary = periodic\n"
        "xi_over_kappa_values = 0.1, 0.2\nn_samples = 40\n",
        "experiment = stark_sweep\nn_field = 3\n",
    ], ids=["phase_gate", "mpm_sweep", "stark_sweep"])
    def test_csv_lines_end_in_newline(self, tmp_path, text):
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        (outdir,) = (tmp_path / "o").iterdir()
        csvs = sorted(outdir.glob("*.csv"))
        assert csvs
        for path in csvs:
            data = path.read_bytes()
            assert b"\r" not in data, path.name
            assert data.endswith(b"\n"), path.name

    def test_dispersion_run(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = dispersion
kind = chain
n_sites = 32
sum_cutoff = 2000
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        outdir = tmp_path / "o" / "dispersion"
        assert (outdir / "dispersion.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert "asymptotes" in summary

    def test_mpm_sweep_run(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = mpm_sweep
kind = chain
n_sites = 10
boundary = periodic
xi_over_kappa_values = 0.05, 0.2
t_max = 2.0
n_samples = 150
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        text = (tmp_path / "o" / "mpm_sweep" / "sweep.csv").read_text()
        assert text.startswith("xi_over_kappa,")
        assert len(text.splitlines()) == 3
        summary = json.loads((tmp_path / "o" / "mpm_sweep" / "summary.json").read_text())
        for result in summary["results"]:
            assert result["diagnostics"]["reduced_dims"] == [1, 1, 5]
            assert result["diagnostics"]["gate_time_method"] in ("bisection", "interpolation", None)

    def test_phonon_bands_run(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = phonon_bands
kind = triangular
n_sites = 16
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "phonon_bands" / "summary.json").read_text())
        assert summary["branches"] == 2

    def test_phonon_decay_run(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = phonon_decay
kind = chain
n_sites = 12
temperature = 0.5
n_samples = 60
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        outdir = tmp_path / "o" / "phonon_decay"
        summary = json.loads((outdir / "summary.json").read_text())
        assert "fgr" in summary
        assert summary["max_decay_1exc"] >= 0
        header = (outdir / "decay.csv").read_text().splitlines()[0]
        assert "decay_2exc_dominant" in header

    def test_scaling_fit_run(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = scaling_fit
kind = chain
n_values = 8, 10, 12
include_exact = false
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "scaling_fit" / "summary.json").read_text())
        assert "alpha_1d" in summary
        assert summary["alpha"] == summary["alpha_1d"]

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIM_OUT_ROOT", str(tmp_path / "envroot"))
        cfg = write_cfg(tmp_path, "experiment = phonon_bands\nkind = chain\nn_sites = 8\n")
        assert main(["run", cfg]) == EXIT_OK
        assert (tmp_path / "envroot" / "phonon_bands" / "summary.json").exists()

    def test_phase_gate_n36_gate_near_3p5_t_pi(self, tmp_path):
        cfg = write_cfg(tmp_path, """
experiment = phase_gate
kind = chain
n_sites = 36
boundary = periodic
xi_over_kappa = 0.0
t_max = 4.5
n_samples = 400
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "phase_gate" / "summary.json").read_text())
        assert 3.0 <= summary["gate_time_over_t_pi"] <= 4.0


def test_every_experiment_has_a_shipped_config():
    assert {parse_config(p)["experiment"] for p in SHIPPED_CONFIGS} == set(SCHEMAS)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_shipped_config_reruns_byte_identical(tmp_path, config):
    outputs = []
    for run in ("first", "second"):
        assert main(["run", str(config), "--out", str(tmp_path / run)]) == EXIT_OK
        root = tmp_path / run
        outputs.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert outputs[0]
    assert outputs[0] == outputs[1]
