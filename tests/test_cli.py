import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dipolarray.basis as basis_mod
from dipolarray.cli import (
    EXIT_CONFIG,
    EXIT_NO_GATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXPERIMENTS,
    ConfigError,
    _write_csv,
    main,
    parse_config,
)
from record_golden import GOLDEN, assert_matches_golden
from test_phonon import with_matrices


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
        assert len(EXPERIMENTS) == 7
        for name in EXPERIMENTS:
            assert name in out

    def test_phase_gate_keys_shown(self, capsys):
        assert main(["list", "phase_gate"]) == EXIT_OK
        out = capsys.readouterr().out
        for key in ("n_sites", "xi_over_kappa", "t_max"):
            assert key in out
        assert "t_max=4.0" in out

    def test_unknown_experiment_nonzero(self, capsys):
        assert main(["list", "nonsense"]) == EXIT_CONFIG

    def test_phonon_bands_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.quantile imports numpy.ma on its first call; sound_speeds cuts
        # by a sort instead
        cfg = write_cfg(tmp_path, "experiment = phonon_bands\nkind = chain\nn_sites = 16\n")
        child = ("import sys\nfrom dipolarray.cli import main\n"
                 f"assert main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
                 "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-1] == "False"

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
        rows = (outdir / "trajectory.csv").read_text().count("\n") - 1
        assert diag["grid_points"] == rows == 199 * 2 ** diag["grid_refinements"] + 1
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
        # the reflection leaves the open chain N = 400 at least C(400, 2) / 2 =
        # 39 900 pair orbits, a quotient refused before any orbit table
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 400\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE
        assert "quotient of dimension 39900 or more needs" in capsys.readouterr().err

    def test_open_chain_refused_before_any_large_table(self, tmp_path, capsys):
        # open chain N = 150: at least 5588 pair orbits, whose quotient would
        # need about 1191 MiB; the refusal comes before the orbit labels
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 150\nxi_over_kappa = 0.05\n")
        tracemalloc.start()
        try:
            assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert "quotient of dimension 5588 or more needs about 1191 MiB" in capsys.readouterr().err

    def test_open_chain_pair_tables_refused(self, tmp_path, capsys):
        # open chain N = 6000: the coupling kernel's pair tables would need
        # about 1.1 GB, refused before gate_params builds them
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 6000\nxi_over_kappa = 0.05\n")
        tracemalloc.start()
        try:
            assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert "pair tables need about 1099 MiB for 6000 sites" in capsys.readouterr().err

    def test_periodic_runs_past_the_assembly_cap(self, tmp_path, capsys):
        # periodic chain N = 400: assembling its C(400, 2) = 79 800 pair
        # states would need 1.7 GB, its 200 translation orbits take 3 MiB
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 400\nboundary = periodic\n"
                                  "xi_over_kappa = 0.05\nt_max = 2.5\n")
        tracemalloc.start()
        try:
            assert main(["run", cfg, "--out", str(tmp_path / "periodic")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        summary = json.loads((tmp_path / "periodic" / "phase_gate" / "summary.json").read_text())
        assert summary["diagnostics"]["sector_dims"] == [1, 400, 79800]
        assert summary["diagnostics"]["reduced_dims"] == [1, 1, 200]
        # the open chain of that size is refused up front: its reflection
        # leaves at least 39 900 pair orbits
        cfg = write_cfg(tmp_path, "experiment = phase_gate\nn_sites = 400\n")
        assert main(["run", cfg, "--out", str(tmp_path / "open")]) == EXIT_RESOURCE
        assert "quotient of dimension 39900 or more needs" in capsys.readouterr().err

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
        with_matrices(monkeypatch, lambda m: -np.ones((m, 1, 1)))
        cfg = write_cfg(tmp_path, "experiment = phonon_bands\nkind = chain\nn_sites = 8\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical error: unstable crystal mode" in capsys.readouterr().err

    def test_vanishing_frequency_exit_code(self, tmp_path, capsys, monkeypatch):
        with_matrices(monkeypatch, lambda m: np.zeros((m, 1, 1)))
        cfg = write_cfg(tmp_path, "experiment = phonon_decay\nkind = chain\nn_sites = 8\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical error: vanishing branch frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("text, budget, message", [
        # open lattices label pairs by point-group orbit (open chain 8: 4480 B);
        # the orbit tables of sector 2 on the periodic chain 8 need 1792 B
        ("experiment = phase_gate\nn_sites = 8\n", 4000,
         "pair-orbit labels need about 0 MiB for 8 sites;"),
        # the kernel's pair tables, which gate_params reads first on an open
        # lattice, need 2304 B on the open chain 8
        ("experiment = phase_gate\nn_sites = 8\n", 1000,
         "pair tables need about 0 MiB for 8 sites;"),
        ("experiment = phase_gate\nn_sites = 8\nboundary = periodic\n", 1000,
         "orbit tables need about 0 MiB for 8 sites;"),
        # open chain 20: the reflection leaves at least 95 of its 190 pairs
        # as orbits (there are 100), a quotient of 361 000 B
        ("experiment = phase_gate\nn_sites = 20\n", 300_000,
         "quotient of dimension 95 or more needs about 0 MiB to diagonalize;"),
        # chain 8: the phonon tables need 4096 B, the gamma2 tables 5632 B
        ("experiment = phonon_decay\nkind = chain\nn_sites = 8\nn_samples = 20\ninclude_fgr = false\n",
         5000, "gamma2 tables need about 0 MiB for 8 momenta and 1 branches;"),
        ("experiment = phonon_bands\nkind = chain\nn_sites = 8\n", 1000,
         "phonon tables need about 0 MiB for 8 sites;"),
        ("experiment = dispersion\nkind = chain\nsum_cutoff = 1000\n", 1000,
         "dispersion tables need about 0 MiB at sum_cutoff = 1000;"),
        ("experiment = stark_sweep\nn_field = 2\n", 1000,
         "Stark rotor blocks need about 0 MiB at j_max = 20;"),
        # 320 B a time-grid point: 60 samples fit 30 000 B, their first
        # doubling to 119 points does not
        ("experiment = phase_gate\nn_sites = 8\nboundary = periodic\nn_samples = 60\n", 30_000,
         "time grid needs about 0 MiB for 119 points;"),
    ], ids=["labels", "pair_tables", "orbits", "quotient", "gamma2", "phonon_model", "dispersion", "stark",
            "time_grid"])
    def test_memory_budget_exit_code(self, tmp_path, capsys, monkeypatch, text, budget, message):
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", budget)
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE
        assert f"resource limit: {message} cap is 0 MiB" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_stark_budget_covers_every_worker(self, tmp_path, capsys, monkeypatch):
        # one 21 x 21 block (j_max = 20) needs 32 * 441 = 14 112 B: the budget
        # admits one block in flight but not two
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 20_000)
        cfg = write_cfg(tmp_path, "experiment = stark_sweep\nn_field = 4\n")
        assert main(["run", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"]) == EXIT_RESOURCE
        assert "Stark rotor blocks need about 0 MiB at j_max = 20 on 2 workers;" in capsys.readouterr().err
        assert main(["run", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"]) == EXIT_OK

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_code(self, tmp_path, capsys, workers):
        cfg = write_cfg(tmp_path, "experiment = stark_sweep\nn_field = 2\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", workers]) == EXIT_CONFIG
        assert f"config error: --workers must be at least 1, got {workers}" in capsys.readouterr().err

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
        # refused before the grid table is written
        assert not (tmp_path / "o" / "dispersion" / "dispersion.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("kind = triangular\nn_sites = 9\n", "unsupported lattice kind"),
        ("n_sites = 0\nasymptote_check = false\n", "config key 'n_sites': 0 with asymptote_check = false"),
    ], ids=["triangular_asymptotes", "nothing_to_compute"])
    def test_dispersion_refusal_writes_no_table(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path, "experiment = dispersion\n" + text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dispersion" / "dispersion.csv").exists()

    def test_dispersion_negative_kappa_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = dispersion\nkind = chain\nn_sites = 8\nkappa = -1\n"
                                  "asymptote_check = false\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: kappa must be positive, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["8, 8, 8", "8, 8, 16"])
    def test_scaling_fit_repeated_sizes_exit_code(self, tmp_path, capsys, values):
        cfg = write_cfg(tmp_path, f"experiment = scaling_fit\nn_values = {values}\ninclude_exact = false\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: need at least 3 distinct lattice sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("include_exact", ["false", "true"])
    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_scaling_fit_non_positive_window_exit_code(self, tmp_path, capsys, window, include_exact):
        cfg = write_cfg(tmp_path, f"experiment = scaling_fit\nwindow_t_pi = {window}\n"
                                  f"include_exact = {include_exact}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: window_t_pi must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "experiment = phase_gate\nn_sites = 8\n",
        "experiment = mpm_sweep\nn_sites = 8\nxi_over_kappa_values = 0.1\n",
    ], ids=["phase_gate", "mpm_sweep"])
    def test_spacing_key_unknown(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, text + "spacing = 2.0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: config key 'spacing': unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0.1, 0.1000001", "0.2, 0.05, 0.2"], ids=["close", "repeated"])
    def test_mpm_sweep_colliding_file_names(self, tmp_path, capsys, values):
        cfg = write_cfg(tmp_path, "experiment = mpm_sweep\nn_sites = 8\nboundary = periodic\n"
                                  f"xi_over_kappa_values = {values}\nn_samples = 20\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "xi_over_kappa_values" in err
        assert values.split(", ")[0] + ", " in err
        assert not (tmp_path / "o" / "mpm_sweep" / "sweep.csv").exists()

    @pytest.mark.parametrize("text, key, error", [
        ("experiment = mpm_sweep\nn_sites = 8\nxi_over_kappa_values = 0.1, abc\n",
         "xi_over_kappa_values", "cannot parse 'abc' as float"),
        ("experiment = mpm_sweep\nn_sites = 8\nxi_over_kappa_values = 0.1, nan\n",
         "xi_over_kappa_values", "must be finite, got 'nan'"),
        ("experiment = scaling_fit\nn_values = 8, abc, 12\n", "n_values", "cannot parse 'abc' as int"),
        ("experiment = scaling_fit\nn_values = 8, nan, 12\n", "n_values", "cannot parse 'nan' as int"),
    ], ids=["sweep_text", "sweep_nan", "scaling_text", "scaling_nan"])
    def test_bad_list_entry_names_key(self, tmp_path, capsys, text, key, error):
        assert main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config error: config key '{key}': {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "experiment = phase_gate\nn_sites = 8\n",
        "experiment = mpm_sweep\nn_sites = 8\nxi_over_kappa_values = 0.1\n",
    ], ids=["phase_gate", "mpm_sweep"])
    def test_zero_kappa_exit_code(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, text + "kappa = 0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: kappa must be positive, got 0.0" in capsys.readouterr().err

    def test_phonon_decay_zero_xi_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = phonon_decay\nkind = chain\nn_sites = 8\n"
                                  "xi_over_kappa = 0.0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: t_pi from chi_tilde requested but xi = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("spacing_nm = 0", "spacing_nm"),
        ("spacing_nm = -300", "spacing_nm"),
        ("b_rot_joule = -1e-23", "b_rot_joule"),
    ], ids=["zero_spacing", "negative_spacing", "negative_b_rot"])
    def test_stark_invalid_input_exit_code(self, tmp_path, capsys, line, key):
        cfg = write_cfg(tmp_path, f"experiment = stark_sweep\nn_field = 3\n{line}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config error: config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "stark_sweep" / "stark.csv").exists()

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


def test_csv_writer_matches_per_value_format(tmp_path):
    rows = [
        (float("nan"), float("inf"), -float("inf"), -0.0),
        (5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1),
        (3, -7, np.int64(2**53 + 1), np.float64(1.0) / 3.0),
        (np.float32(0.1), np.float64("nan"), 0.0, 1e-300),
    ]
    # columns as given, the first two as one 2-D block
    columns = list(zip(*rows))
    _write_csv(tmp_path / "out.csv", ["a", "b", "c", "d"], [np.column_stack(columns[:2]), *columns[2:]],
               preamble=("# note",))
    ref = "# note\na,b,c,d\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)
    assert (tmp_path / "out.csv").read_bytes() == ref.encode()


# (config, exit code) of refusals raised while parsing and inside runners
EXIT_PATHS = {
    "gate_not_reached": ("experiment = phase_gate\nkind = chain\nn_sites = 10\nboundary = periodic\n"
                         "t_max = 0.3\nn_samples = 60\n", EXIT_NO_GATE),
    "sweep_name_clash": ("experiment = mpm_sweep\nn_sites = 8\nboundary = periodic\n"
                         "xi_over_kappa_values = 0.1, 0.1000001\nn_samples = 20\n", EXIT_CONFIG),
    "parse_error": ("experiment = phase_gate\nn_sites = eight\n", EXIT_CONFIG),
    "unstable_crystal": ("experiment = phonon_bands\nkind = chain\nn_sites = 8\n", EXIT_NUMERICAL),
    "dispersion_triangular": ("experiment = dispersion\nkind = triangular\nn_sites = 9\n", EXIT_CONFIG),
}


@pytest.mark.parametrize("path", EXIT_PATHS)
def test_files_left_on_exit_path(tmp_path, monkeypatch, path):
    text, code = EXIT_PATHS[path]
    if path == "unstable_crystal":
        with_matrices(monkeypatch, lambda m: -np.ones((m, 1, 1)))
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == code
    # the run directory is written only after the experiment returns
    assert not out.exists()


# a small config for every experiment
TINY_CONFIGS = {
    "phase_gate": "kind = chain\nn_sites = 8\nboundary = periodic\nt_max = 4.5\nn_samples = 60\n",
    "mpm_sweep": "kind = chain\nn_sites = 8\nboundary = periodic\nxi_over_kappa_values = 0.05, 0.2\n"
                 "n_samples = 60\n",
    "dispersion": "kind = chain\nn_sites = 16\nsum_cutoff = 2000\n",
    "stark_sweep": "n_field = 5\n",
    "phonon_bands": "kind = triangular\nn_sites = 16\n",
    "phonon_decay": "kind = chain\nn_sites = 12\nn_samples = 30\n",
    "scaling_fit": "kind = chain\nn_values = 9, 16, 25\n",
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_runner_writes_nothing_and_returns_every_table(tmp_path, monkeypatch, name):
    cfg = write_cfg(tmp_path, f"experiment = {name}\n" + TINY_CONFIGS[name])
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(tmp_path.rglob("*"))
    summary, tables = EXPERIMENTS[name].run(parse_config(cfg), 1)
    assert sorted(tmp_path.rglob("*")) == before
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    written = sorted(p.name for p in (tmp_path / "o" / name).glob("*.csv"))
    assert sorted(tables) == written


def test_rerun_replaces_earlier_tables(tmp_path):
    # a sweep over two values, then over one other, into the same --out:
    # only the second run's tables are left beside a file no run writes
    out, run_dir = tmp_path / "o", tmp_path / "o" / "mpm_sweep"
    base = "experiment = mpm_sweep\nkind = chain\nn_sites = 8\nboundary = periodic\nn_samples = 60\n"
    assert main(["run", write_cfg(tmp_path, base + "xi_over_kappa_values = 0.05, 0.2\n"), "--out", str(out)]) == EXIT_OK
    assert (run_dir / "trajectory_xi_0.2.csv").exists()
    (run_dir / "notes.txt").write_text("kept")
    assert main(["run", write_cfg(tmp_path, base + "xi_over_kappa_values = 0.1\n"), "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "metadata.json", "notes.txt", "summary.json", "sweep.csv", "trajectory_xi_0.1.csv"]


# a valid value for every key that some experiment requires
REQUIRED_VALUES = {"n_sites": "8", "xi_over_kappa_values": "0.1"}
FLOAT_KEYS = [(name, key) for name, exp in EXPERIMENTS.items()
              for key, (typ, _) in exp.keys.items() if typ is float]


@pytest.mark.parametrize("name, key", FLOAT_KEYS, ids=[f"{n}.{k}" for n, k in FLOAT_KEYS])
def test_non_finite_float_key_exit_code(tmp_path, capsys, name, key):
    required = [k for k, (_, default) in EXPERIMENTS[name].keys.items() if default is None]
    lines = [f"experiment = {name}"] + [f"{k} = {REQUIRED_VALUES[k]}" for k in required]
    for value in ("nan", "inf", "-inf"):
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config error: config key '{key}': must be finite, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_every_experiment_has_a_shipped_config():
    assert {parse_config(p)["experiment"] for p in SHIPPED_CONFIGS} == set(EXPERIMENTS)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_shipped_config_reruns_byte_identical(tmp_path, config):
    outputs = []
    for run in ("first", "second"):
        assert main(["run", str(config), "--out", str(tmp_path / run)]) == EXIT_OK
        root = tmp_path / run
        outputs.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert outputs[0]
    assert outputs[0] == outputs[1]
    assert_matches_golden(tmp_path / "first", GOLDEN / f"{config.stem}.json")
