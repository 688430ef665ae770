"""Experiment runner: reproducible configured runs with CSV/JSON outputs.

Config files are flat ``key = value`` text (# comments allowed), one
experiment per file.  Every run writes ``metadata.json`` (config echo plus
the conventions in force), a ``summary.json``, and experiment CSV data, all
at full double precision so identical configs byte-reproduce.

Exit codes: 0 success, 2 config error, 3 resource-cap error, 4 gate not
reached, 5 numerical error (an ``ArithmeticError`` such as an unstable
crystal mode, a non-invariant quotient subspace or an unconverged ``j_max``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .basis import ResourceLimitError
from .dynamics import GateNotReached, compute_trajectory, gate_time
from .hamiltonian import exchange_hamiltonian, full_hamiltonian, gate_params
from .lattice import build_lattice
from .phonon import build_phonon_model, gamma1_fgr, gamma1_time, gamma2, phonon_spectrum
from .spinwave import (
    dispersion,
    dispersion_asymptote_check,
    fgr_scaling_diagnostic,
    fourier_kernel,
)
from .stark import DEFAULT_J_MAX, MOLECULES, MolecularParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NO_GATE = 4
EXIT_NUMERICAL = 5

OUT_ROOT_ENV = "SIM_OUT_ROOT"

CONVENTIONS = {
    "pair_sum": "ordered double sums over i != j; exchange amplitude 2*kappa*d_ij per unordered pair",
    "theta_normalization": "closed-form theta uses 4*kappa*t*zeta(3)/(N-1); the equivalent coupling "
                           "chi_eff t (not 2 chi_eff t) — t_pi values for both conventions are in summaries",
    "u_dd_definition": "U_dd = mu_gg^2/(4 pi eps0 a^3) at the operating field",
    "decay_normalization": "normalized decay = (1 - F) * sqrt(beta) / (xi + 4*B0)^2",
    "momentum_fold": "mode sums run over the full grid excluding k = 0",
    "periodic_images": "minimum-image distances on periodic lattices",
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_LATTICE_KEYS = {
    "kind": (str, "chain"),
    "n_sites": (int, None),
    "boundary": (str, "open"),
    "spacing": (float, 1.0),
}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "phase_gate": {
        **_LATTICE_KEYS,
        "kappa": (float, 1.0),
        "xi_over_kappa": (float, 0.0),
        "t_max": (float, 4.0),       # window in units of t_pi
        "n_samples": (int, 400),
    },
    "mpm_sweep": {
        **_LATTICE_KEYS,
        "kappa": (float, 1.0),
        "xi_over_kappa_values": (str, None),  # comma-separated
        "t_max": (float, 2.0),
        "n_samples": (int, 400),
    },
    "dispersion": {
        "kind": (str, "chain"),
        "n_sites": (int, 0),          # 0: skip the finite-grid table
        "kappa": (float, 1.0),
        "sum_cutoff": (int, 100_000),
        "asymptote_check": (bool, True),
    },
    "stark_sweep": {
        "molecule": (str, "SrO"),
        "b_rot_joule": (float, 0.0),   # custom molecule override (all three)
        "mu0_debye": (float, 0.0),
        "mass_amu": (float, 0.0),
        "g_j": (int, 0),
        "g_m": (int, 0),
        "e_j": (int, 1),
        "e_m": (int, 0),
        "e_min": (float, 0.0),
        "e_max": (float, 6.0),
        "n_field": (int, 61),
        "spacing_nm": (float, 300.0),
        "j_max": (int, DEFAULT_J_MAX),
    },
    "phonon_bands": {
        "kind": (str, "chain"),
        "n_sites": (int, None),
        "beta": (float, 1.0e4),
        "u_dd_over_kappa": (float, 3.0),
    },
    "phonon_decay": {
        "kind": (str, "chain"),
        "n_sites": (int, None),
        "beta": (float, 1.0e4),
        "u_dd_over_kappa": (float, 3.0),
        "xi_over_kappa": (float, 0.05),
        "b0_over_kappa": (float, 0.1),
        "temperature": (float, 0.5),   # k_B T in units u_dd/sqrt(beta)
        "t_max": (float, 1.0),         # window in units of t_pi(chi_tilde)
        "n_samples": (int, 300),
        "include_two_excitation": (bool, True),
        "include_fgr": (bool, True),
    },
    "scaling_fit": {
        "kind": (str, "chain"),
        "n_values": (str, "16,25,36,49,64,81"),
        "xi_over_kappa": (float, 0.05),
        "boundary": (str, "periodic"),
        "window_t_pi": (float, 2.0),
        "include_exact": (bool, True),
    },
}

_HELP = {
    "phase_gate": "collective-phase trajectory, gate time and t_pi for one array",
    "mpm_sweep": "gate time and fidelity floor versus the Ising-to-exchange ratio",
    "dispersion": "excitation dispersion on a grid and/or its small-k asymptotes",
    "stark_sweep": "dressed dipoles and xi/kappa versus DC field for a molecule",
    "phonon_bands": "crystal phonon branches and sound speeds",
    "phonon_decay": "phonon-induced decay of collective excitations (+ golden-rule rate)",
    "scaling_fit": "power-law fit of maximum decay probability versus N",
}


def _parse_value(raw: str, typ, key: str):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        return typ(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': cannot parse {raw!r} as {typ.__name__}") from None


def parse_config(path: str | Path) -> dict:
    """Read a flat key = value file and validate against its experiment schema."""
    text = Path(path).read_text()
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"config key '{key}': duplicated")
        raw[key] = val.strip()
    if "experiment" not in raw:
        raise ConfigError("config key 'experiment': missing")
    exp = raw.pop("experiment")
    if exp not in SCHEMAS:
        raise ConfigError(f"config key 'experiment': unknown experiment {exp!r}")
    schema = SCHEMAS[exp]
    cfg = {"experiment": exp}
    for key, val in raw.items():
        if key not in schema:
            raise ConfigError(f"config key '{key}': unknown for experiment {exp}")
        cfg[key] = _parse_value(val, schema[key][0], key)
    for key, (typ, default) in schema.items():
        if key not in cfg:
            if default is None:
                raise ConfigError(f"config key '{key}': required for experiment {exp}")
            cfg[key] = default
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows, preamble: tuple[str, ...] = ()) -> None:
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _metadata(cfg: dict) -> dict:
    return {
        "config": cfg,
        "code_version": __version__,
        "conventions": CONVENTIONS,
    }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _require_time_window(cfg: dict) -> None:
    if cfg["t_max"] <= 0:
        raise ConfigError(f"config key 't_max': must be positive, got {cfg['t_max']}")
    if cfg["n_samples"] < 2:
        raise ConfigError("config key 'n_samples': need at least 2 points")


def _trajectory_run(cfg: dict, outdir: Path, xi_over_kappa: float, prefix: str = "trajectory") -> dict:
    lat = build_lattice(cfg["kind"], cfg["n_sites"], cfg["spacing"], cfg["boundary"])
    kappa = cfg["kappa"]
    use_tilde = xi_over_kappa != 0.0
    gp = gate_params(lat, kappa, xi_over_kappa * kappa, use_tilde=use_tilde)
    if use_tilde:
        ham = full_hamiltonian(lat, kappa, xi_over_kappa * kappa)
    else:
        # no DC field: bare exchange-only dipolar dynamics
        ham = exchange_hamiltonian(lat, kappa)
    times = np.linspace(0.0, cfg["t_max"] * gp.t_pi, cfg["n_samples"])
    traj = compute_trajectory(ham, times)
    try:
        tg = gate_time(traj)
    except GateNotReached:
        tg = None
    _write_csv(outdir / f"{prefix}.csv",
               ["t", "re_c0", "im_c0", "re_c1", "im_c1", "re_c2", "im_c2",
                "fidelity", "theta", "abs_cos_half_theta"],
               zip(traj.times, traj.c0.real, traj.c0.imag, traj.c1.real, traj.c1.imag,
                   traj.c2.real, traj.c2.imag, traj.fidelity, traj.theta, np.abs(traj.cos_half)))
    return {
        "chi_eff": gp.chi_eff,
        "chi_tilde_eff": gp.chi_tilde_eff,
        "t_pi": gp.t_pi,
        "t_pi_double_coupling": gp.t_pi / 2.0,  # the other pair-sum convention
        "vacuum_energy": ham.vacuum_energy,
        "gate_time": tg,
        "gate_time_over_t_pi": (tg / gp.t_pi) if tg is not None else None,
        "min_fidelity": float(traj.fidelity.min()),
        "max_decay": float((1.0 - traj.fidelity).max()),
        "gate_reached": tg is not None,
        "diagnostics": traj.diagnostics,
    }


def run_phase_gate(cfg: dict, outdir: Path, workers: int) -> dict:
    _require_time_window(cfg)
    summary = _trajectory_run(cfg, outdir, cfg["xi_over_kappa"])
    if not summary["gate_reached"]:
        raise GateNotReached("no gate zero inside the configured window")
    return summary


def run_mpm_sweep(cfg: dict, outdir: Path, workers: int) -> dict:
    _require_time_window(cfg)
    raw = [v.strip() for v in cfg["xi_over_kappa_values"].split(",") if v.strip()]
    if not raw:
        raise ConfigError("config key 'xi_over_kappa_values': empty list")
    values = [float(v) for v in raw]
    # each value writes trajectory_xi_{v:g}.csv, so no two may share that name
    names = [f"{v:g}" for v in values]
    clashes = [r for r, name in zip(raw, names) if names.count(name) > 1]
    if clashes:
        raise ConfigError(f"config key 'xi_over_kappa_values': {', '.join(clashes)} "
                          "share trajectory_xi_*.csv file names")

    def one(v):
        return _trajectory_run(cfg, outdir, v, prefix=f"trajectory_xi_{v:g}")

    results = _parallel_map(one, values, workers)
    rows = [
        (v, r["t_pi"], r["gate_time"] if r["gate_time"] is not None else float("nan"),
         r["min_fidelity"], r["max_decay"])
        for v, r in zip(values, results)
    ]
    _write_csv(outdir / "sweep.csv",
               ["xi_over_kappa", "t_pi", "gate_time", "min_fidelity", "max_decay"], rows)
    return {"xi_over_kappa": values, "results": results}


def run_dispersion(cfg: dict, outdir: Path, workers: int) -> dict:
    summary = {}
    if cfg["n_sites"]:
        lat = build_lattice(cfg["kind"], cfg["n_sites"], boundary="periodic")
        disp = dispersion(lat, cfg["kappa"])
        fk = fourier_kernel(lat, disp.grid.kvecs)
        kcols = disp.grid.kvecs.shape[1]
        rows = [tuple(disp.grid.kvecs[i]) + (disp.omega[i], fk[i]) for i in range(len(fk))]
        _write_csv(outdir / "dispersion.csv",
                   [f"k{c}" for c in range(kcols)] + ["omega", "fourier_kernel"], rows)
        summary["grid_points"] = len(fk)
    if cfg["asymptote_check"]:
        summary["asymptotes"] = dispersion_asymptote_check(cfg["kind"], cfg["kappa"], cfg["sum_cutoff"])
    return summary


def _molecule_from_config(cfg: dict) -> MolecularParams:
    if cfg["b_rot_joule"] > 0.0 or cfg["mu0_debye"] > 0.0 or cfg["mass_amu"] > 0.0:
        if not (cfg["b_rot_joule"] > 0.0 and cfg["mu0_debye"] > 0.0 and cfg["mass_amu"] > 0.0):
            raise ConfigError("config key 'b_rot_joule': custom molecules need b_rot_joule, mu0_debye and mass_amu")
        import scipy.constants as const

        from .stark import DEBYE
        return MolecularParams(
            name=cfg["molecule"],
            b_rot=cfg["b_rot_joule"],
            mu0=cfg["mu0_debye"] * DEBYE,
            mass=cfg["mass_amu"] * const.u,
        )
    if cfg["molecule"] not in MOLECULES:
        raise ConfigError(f"config key 'molecule': unknown molecule {cfg['molecule']!r}")
    return MOLECULES[cfg["molecule"]]


def run_stark_sweep(cfg: dict, outdir: Path, workers: int) -> dict:
    mol = _molecule_from_config(cfg)
    if cfg["n_field"] < 2:
        raise ConfigError("config key 'n_field': need at least 2 points")
    grid = np.linspace(cfg["e_min"], cfg["e_max"], cfg["n_field"])
    spacing = cfg["spacing_nm"] * 1e-9
    g_label = (cfg["g_j"], cfg["g_m"])
    e_label = (cfg["e_j"], cfg["e_m"])

    def one(e):
        from .stark import dressed_pair
        return dressed_pair(mol, float(e), g_label, e_label, spacing, cfg["j_max"])

    pairs = _parallel_map(one, grid, workers)
    rows = [
        (p.field, p.mu_gg, p.mu_ee, p.mu_eg, p.xi_over_kappa,
         p.mu_ee**2 - p.mu_gg**2, p.kappa, p.xi, p.b0, p.u_dd, p.beta)
        for p in pairs
    ]
    header_meta = (
        f"# molecule = {mol.name}",
        f"# g_label = {g_label[0]},{g_label[1]}",
        f"# e_label = {e_label[0]},{e_label[1]}",
        f"# j_max = {cfg['j_max']}",
        f"# u_dd_convention = {CONVENTIONS['u_dd_definition']}",
    )
    _write_csv(outdir / "stark.csv",
               ["field_B_over_mu0", "mu_gg", "mu_ee", "mu_eg", "xi_over_kappa",
                "b0_scaled", "kappa_joule", "xi_joule", "b0_joule", "u_dd_joule", "beta"],
               rows, preamble=header_meta)
    return {
        "molecule": mol.name,
        "g_label": list(g_label),
        "e_label": list(e_label),
        "j_max": cfg["j_max"],
        "spacing_nm": cfg["spacing_nm"],
        "first_xi_over_kappa": pairs[0].xi_over_kappa,
        "rows": len(rows),
    }


def run_phonon_bands(cfg: dict, outdir: Path, workers: int) -> dict:
    lat = build_lattice(cfg["kind"], cfg["n_sites"], boundary="periodic")
    model = build_phonon_model(lat, cfg["beta"], cfg["u_dd_over_kappa"], 1.0)
    spec = phonon_spectrum(model)
    kcols = spec["qvecs"].shape[1]
    nb = spec["freqs"].shape[1]
    rows = [tuple(spec["qvecs"][i]) + tuple(spec["freqs"][i]) for i in range(len(spec["qvecs"]))]
    _write_csv(outdir / "bands.csv",
               [f"q{c}" for c in range(kcols)] + [f"f{b}" for b in range(nb)], rows)
    return {"sound_speeds": spec["sound_speeds"], "branches": nb}


def run_phonon_decay(cfg: dict, outdir: Path, workers: int) -> dict:
    _require_time_window(cfg)
    lat = build_lattice(cfg["kind"], cfg["n_sites"], boundary="periodic")
    kappa = 1.0
    u_dd = cfg["u_dd_over_kappa"] * kappa
    xi = cfg["xi_over_kappa"] * kappa
    b0 = cfg["b0_over_kappa"] * kappa
    t_pi = gate_params(lat, kappa, xi, use_tilde=True).t_pi
    model = build_phonon_model(lat, cfg["beta"], u_dd, kappa)
    times = np.linspace(0.0, cfg["t_max"] * t_pi, cfg["n_samples"])
    one = gamma1_time(model, xi, b0, cfg["temperature"], times)
    phonon_time_unit = np.sqrt(cfg["beta"]) / u_dd
    rows = [(t, t / phonon_time_unit, d, n) for t, d, n in
            zip(one.times, one.decay, one.decay_normalized)]
    header = ["t", "t_phonon_units", "decay_1exc", "decay_1exc_normalized"]
    summary = {
        "t_pi": t_pi,
        "beyond_perturbative": one.beyond_perturbative,
        "max_decay_1exc": float(one.decay.max()),
        "max_decay_1exc_normalized": float(one.decay_normalized.max()),
    }
    if cfg["include_two_excitation"]:
        two = gamma2(model, xi, b0, cfg["temperature"], times)
        rows = [r + (two.decay[i], two.decay_dominant[i]) for i, r in enumerate(rows)]
        header += ["decay_2exc_full", "decay_2exc_dominant"]
        summary["gamma2_correction_ratio"] = two.correction_ratio
    _write_csv(outdir / "decay.csv", header, rows)
    if cfg["include_fgr"]:
        summary["fgr"] = gamma1_fgr(model, xi, b0, cfg["temperature"])
    return summary


def run_scaling_fit(cfg: dict, outdir: Path, workers: int) -> dict:
    n_values = [int(v) for v in cfg["n_values"].split(",") if v.strip()]
    report = fgr_scaling_diagnostic(
        cfg["kind"], n_values, cfg["xi_over_kappa"],
        window_t_pi=cfg["window_t_pi"],
        include_exact=cfg["include_exact"],
        boundary=cfg["boundary"],
    )
    rows = [(n, report["decay_max"][i]) +
            ((report["decay_max_exact"][i],) if cfg["include_exact"] else ())
            for i, n in enumerate(n_values)]
    _write_csv(outdir / "scaling.csv",
               ["n_sites", "decay_max_perturbative"] + (["decay_max_exact"] if cfg["include_exact"] else []),
               rows)
    key = "alpha_1d" if cfg["kind"] == "chain" else "alpha_2d"
    report[key] = report["alpha"]
    return report


RUNNERS = {
    "phase_gate": run_phase_gate,
    "mpm_sweep": run_mpm_sweep,
    "dispersion": run_dispersion,
    "stark_sweep": run_stark_sweep,
    "phonon_bands": run_phonon_bands,
    "phonon_decay": run_phonon_decay,
    "scaling_fit": run_scaling_fit,
}


def _parallel_map(fn, items, workers: int) -> list:
    """Deterministic map: results are collected in submission order."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config_path: str | Path, out_dir: str | Path | None = None, workers: int = 1) -> Path:
    """Execute one configured experiment; returns the output directory."""
    cfg = parse_config(config_path)
    root = Path(out_dir) if out_dir else Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    outdir = root / f"{cfg['experiment']}"
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "metadata.json", _metadata(cfg))
    summary = RUNNERS[cfg["experiment"]](cfg, outdir, workers)
    _write_json(outdir / "summary.json", summary)
    return outdir


def list_experiments(name: str | None = None) -> str:
    """Every experiment, or only ``name``, with its config keys and defaults."""
    lines = [] if name else ["available experiments:"]
    for exp in [name] if name else SCHEMAS:
        schema = SCHEMAS[exp]
        lines.append(f"  {exp}: {_HELP[exp]}")
        keys = ", ".join(
            f"{k}" + ("" if schema[k][1] is None else f"={schema[k][1]}")
            for k in schema
        )
        lines.append(f"    keys: {keys}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sim", description="dipolar-array experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help=f"output root (default: ${OUT_ROOT_ENV} or ./runs)")
    p_run.add_argument("--workers", type=int, default=1)
    p_list = sub.add_parser("list", help="list experiments and their config keys")
    p_list.add_argument("experiment", nargs="?", default=None)
    args = parser.parse_args(argv)

    if args.command == "list":
        if args.experiment is not None and args.experiment not in SCHEMAS:
            print(f"unknown experiment: {args.experiment}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            print(list_experiments(args.experiment), flush=True)
        except BrokenPipeError:
            # the reader left early (sim list | head); keep the exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK

    try:
        outdir = run(args.config, args.out, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GateNotReached as exc:
        print(f"gate not reached: {exc}", file=sys.stderr)
        return EXIT_NO_GATE
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(outdir)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
