"""Experiment runner: reproducible configured runs with CSV/JSON outputs.

Config files are flat ``key = value`` text (# comments allowed), one
experiment per file.  Every run writes ``metadata.json`` (config echo plus
the conventions in force), a ``summary.json``, and experiment CSV data, all
at full double precision so identical configs byte-reproduce.

Each experiment is one entry of ``EXPERIMENTS``: the ``@experiment``
decorator on its ``run_*`` function registers the ``sim list`` help line,
the config keys with their types and defaults, and the runner together, so
adding an experiment means writing one decorated function.  A runner
returns its summary and tables, and :func:`run` writes the run directory
only then, so a refused run leaves no files.  ``--workers`` runs the values
of an ``mpm_sweep`` or the fields of a ``stark_sweep`` on a thread pool;
every other experiment ignores it, and the outputs are the same for any
worker count.

Exit codes: 0 success, 2 config error, 3 resource-cap error, 4 gate not
reached, 5 numerical error (an ``ArithmeticError`` such as an unstable
crystal mode, a vanishing branch frequency or an unconverged ``j_max``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .basis import ResourceLimitError
from .dynamics import GateNotReached, compute_trajectory, gate_time
from .hamiltonian import full_hamiltonian, gate_params
from .lattice import build_lattice
from .phonon import build_phonon_model, gamma1_fgr, gamma1_time, gamma2, sound_speeds
from .spinwave import dispersion, dispersion_asymptote_check, fgr_scaling_diagnostic
from .stark import AMU, DEBYE, DEFAULT_J_MAX, MOLECULES, MolecularParams, dressed_pair, require_rotor_memory

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


# (exception classes, exit code, message prefix); the first matching row wins
EXIT_CODES = (
    ((ConfigError, FileNotFoundError, IsADirectoryError), EXIT_CONFIG, "config error"),
    (ResourceLimitError, EXIT_RESOURCE, "resource limit"),
    (GateNotReached, EXIT_NO_GATE, "gate not reached"),
    (ArithmeticError, EXIT_NUMERICAL, "numerical error"),
    (ValueError, EXIT_CONFIG, "config error"),
)


# ---------------------------------------------------------------------------
# experiment table
# ---------------------------------------------------------------------------

class Experiment(NamedTuple):
    help: str                          # the line ``sim list`` shows
    keys: dict[str, tuple]             # config key -> (type, default); None: required
    # (cfg, workers) -> (summary, {CSV name, in write order: _write_csv's (header, columns[, preamble])})
    run: Callable[[dict, int], tuple[dict, dict[str, tuple]]]


EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, help: str, **keys: tuple):
    """Register the decorated runner as experiment ``name``."""
    def register(runner):
        EXPERIMENTS[name] = Experiment(help, keys, runner)
        return runner
    return register


_LATTICE_KEYS = {
    "kind": (str, "chain"),
    "n_sites": (int, None),
    "boundary": (str, "open"),
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
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': cannot parse {raw!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"config key '{key}': must be finite, got {raw!r}")
    return value


def _parse_list(cfg: dict, key: str, typ) -> list:
    """The comma-separated ``typ`` values of config ``key``, blanks skipped."""
    values = [_parse_value(v, typ, key) for v in cfg[key].split(",") if v.strip()]
    if not values:
        raise ConfigError(f"config key '{key}': empty list")
    return values


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
    if exp not in EXPERIMENTS:
        raise ConfigError(f"config key 'experiment': unknown experiment {exp!r}")
    schema = EXPERIMENTS[exp].keys
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

def _write_csv(path: Path, header: list[str], columns, preamble: tuple[str, ...] = ()) -> None:
    """Equal-length columns side by side; a 2-D array counts as several columns."""
    # "%.17g" formats a value as format(float(v), ".17g"), one template per row
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in np.column_stack(columns).tolist():
            fh.write(row_fmt % tuple(row))


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


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _require_time_window(cfg: dict) -> None:
    if cfg["t_max"] <= 0:
        raise ConfigError(f"config key 't_max': must be positive, got {cfg['t_max']}")
    if cfg["n_samples"] < 2:
        raise ConfigError("config key 'n_samples': need at least 2 points")


def _trajectory_run(cfg: dict, xi_over_kappa: float) -> tuple[dict, tuple]:
    lat = build_lattice(cfg["kind"], cfg["n_sites"], boundary=cfg["boundary"])
    kappa = cfg["kappa"]
    use_tilde = xi_over_kappa != 0.0
    gp = gate_params(lat, kappa, xi_over_kappa * kappa, use_tilde=use_tilde)
    # no DC field: bare exchange-only dipolar dynamics, the xi = kappa model
    ham = full_hamiltonian(lat, kappa, xi_over_kappa * kappa if use_tilde else kappa)
    times = np.linspace(0.0, cfg["t_max"] * gp.t_pi, cfg["n_samples"])
    traj = compute_trajectory(ham, times)
    try:
        tg = gate_time(traj)
    except GateNotReached:
        tg = None
    table = (["t", "re_c0", "im_c0", "re_c1", "im_c1", "re_c2", "im_c2",
              "fidelity", "theta", "abs_cos_half_theta"],
             [traj.times, traj.c0.real, traj.c0.imag, traj.c1.real, traj.c1.imag,
              traj.c2.real, traj.c2.imag, traj.fidelity, traj.theta, np.abs(traj.cos_half)])
    return {
        "chi_eff": gp.chi_eff,
        "chi_tilde_eff": gp.chi_tilde_eff,
        "t_pi": gp.t_pi,
        "t_pi_double_coupling": gp.t_pi / 2.0,  # the other pair-sum convention
        "vacuum_energy": float(traj.spectra[0][0][0]),  # sector 0: the 1 x 1 block (kappa - xi) D
        "gate_time": tg,
        "gate_time_over_t_pi": (tg / gp.t_pi) if tg is not None else None,
        "min_fidelity": float(traj.fidelity.min()),
        "max_decay": float((1.0 - traj.fidelity).max()),
        "gate_reached": tg is not None,
        "diagnostics": traj.diagnostics,
    }, table


@experiment("phase_gate", "collective-phase trajectory, gate time and t_pi for one array",
            **_LATTICE_KEYS,
            kappa=(float, 1.0),
            xi_over_kappa=(float, 0.0),
            t_max=(float, 4.0),        # window in units of t_pi
            n_samples=(int, 400))
def run_phase_gate(cfg: dict, workers: int) -> tuple[dict, dict]:
    _require_time_window(cfg)
    summary, table = _trajectory_run(cfg, cfg["xi_over_kappa"])
    if not summary["gate_reached"]:
        raise GateNotReached("no gate zero inside the configured window")
    return summary, {"trajectory.csv": table}


@experiment("mpm_sweep", "gate time and fidelity floor versus the Ising-to-exchange ratio",
            **_LATTICE_KEYS,
            kappa=(float, 1.0),
            xi_over_kappa_values=(str, None),  # comma-separated
            t_max=(float, 2.0),
            n_samples=(int, 400))
def run_mpm_sweep(cfg: dict, workers: int) -> tuple[dict, dict]:
    _require_time_window(cfg)
    values = _parse_list(cfg, "xi_over_kappa_values", float)
    # each value's table is trajectory_xi_{v:g}.csv, so no two may share that name
    names = [f"{v:g}" for v in values]
    clashes = [str(v) for v, name in zip(values, names) if names.count(name) > 1]
    if clashes:
        raise ConfigError(f"config key 'xi_over_kappa_values': {', '.join(clashes)} "
                          "share trajectory_xi_*.csv file names")

    runs = _parallel_map(lambda v: _trajectory_run(cfg, v), values, workers)
    results = [summary for summary, _ in runs]
    tables = {f"trajectory_xi_{name}.csv": table for name, (_, table) in zip(names, runs)}
    stats = ["t_pi", "gate_time", "min_fidelity", "max_decay"]
    # dtype=float turns a missed gate (gate_time None) into NaN
    sweep = np.array([[r[k] for k in stats] for r in results], dtype=float)
    tables["sweep.csv"] = (["xi_over_kappa"] + stats, [values, sweep])
    return {"xi_over_kappa": values, "results": results}, tables


@experiment("dispersion", "excitation dispersion on a grid and/or its small-k asymptotes",
            kind=(str, "chain"),
            n_sites=(int, 0),          # 0: skip the finite-grid table
            kappa=(float, 1.0),
            sum_cutoff=(int, 100_000),
            asymptote_check=(bool, True))
def run_dispersion(cfg: dict, workers: int) -> tuple[dict, dict]:
    if not (cfg["n_sites"] or cfg["asymptote_check"]):
        raise ConfigError("config key 'n_sites': 0 with asymptote_check = false leaves nothing to compute")
    summary, tables = {}, {}
    if cfg["asymptote_check"]:
        summary["asymptotes"] = dispersion_asymptote_check(cfg["kind"], cfg["kappa"], cfg["sum_cutoff"])
    if cfg["n_sites"]:
        lat = build_lattice(cfg["kind"], cfg["n_sites"], boundary="periodic")
        disp = dispersion(lat, cfg["kappa"])
        kvecs = disp.grid.kvecs
        tables["dispersion.csv"] = ([f"k{c}" for c in range(kvecs.shape[1])] + ["omega", "fourier_kernel"],
                                    [kvecs, disp.omega, disp.fourier_kernel])
        summary["grid_points"] = len(kvecs)
    return summary, tables


def _molecule_from_config(cfg: dict) -> MolecularParams:
    custom = (cfg["b_rot_joule"], cfg["mu0_debye"], cfg["mass_amu"])
    if any(v != 0.0 for v in custom):
        if not all(v > 0.0 for v in custom):
            raise ConfigError("config key 'b_rot_joule': custom molecules need positive "
                              "b_rot_joule, mu0_debye and mass_amu")
        return MolecularParams(
            name=cfg["molecule"],
            b_rot=cfg["b_rot_joule"],
            mu0=cfg["mu0_debye"] * DEBYE,
            mass=cfg["mass_amu"] * AMU,
        )
    if cfg["molecule"] not in MOLECULES:
        raise ConfigError(f"config key 'molecule': unknown molecule {cfg['molecule']!r}")
    return MOLECULES[cfg["molecule"]]


@experiment("stark_sweep", "dressed dipoles and xi/kappa versus DC field for a molecule",
            molecule=(str, "SrO"),
            b_rot_joule=(float, 0.0),  # custom molecule override (all three)
            mu0_debye=(float, 0.0),
            mass_amu=(float, 0.0),
            g_j=(int, 0),
            g_m=(int, 0),
            e_j=(int, 1),
            e_m=(int, 0),
            e_min=(float, 0.0),
            e_max=(float, 6.0),
            n_field=(int, 61),
            spacing_nm=(float, 300.0),
            j_max=(int, DEFAULT_J_MAX))
def run_stark_sweep(cfg: dict, workers: int) -> tuple[dict, dict]:
    mol = _molecule_from_config(cfg)
    if cfg["n_field"] < 2:
        raise ConfigError("config key 'n_field': need at least 2 points")
    if not cfg["spacing_nm"] > 0.0:
        raise ConfigError(f"config key 'spacing_nm': must be positive, got {cfg['spacing_nm']}")
    grid = np.linspace(cfg["e_min"], cfg["e_max"], cfg["n_field"])
    spacing = cfg["spacing_nm"] * 1e-9
    g_label = (cfg["g_j"], cfg["g_m"])
    e_label = (cfg["e_j"], cfg["e_m"])

    def one(e):
        return dressed_pair(mol, float(e), g_label, e_label, spacing, cfg["j_max"])

    # the pool holds up to one rotor block per worker at once
    require_rotor_memory(cfg["j_max"], cfg["g_m"], min(workers, len(grid)))
    pairs = _parallel_map(one, grid, workers)

    def column(name):
        return np.array([getattr(p, name) for p in pairs])

    mu_gg, mu_ee = column("mu_gg"), column("mu_ee")
    header_meta = (
        f"# molecule = {mol.name}",
        f"# g_label = {g_label[0]},{g_label[1]}",
        f"# e_label = {e_label[0]},{e_label[1]}",
        f"# j_max = {cfg['j_max']}",
        f"# u_dd_convention = {CONVENTIONS['u_dd_definition']}",
    )
    table = (["field_B_over_mu0", "mu_gg", "mu_ee", "mu_eg", "xi_over_kappa",
              "b0_scaled", "kappa_joule", "xi_joule", "b0_joule", "u_dd_joule", "beta"],
             [column("field"), mu_gg, mu_ee, column("mu_eg"), column("xi_over_kappa"),
              mu_ee**2 - mu_gg**2, *map(column, ("kappa", "xi", "b0", "u_dd", "beta"))],
             header_meta)
    return {
        "molecule": mol.name,
        "g_label": list(g_label),
        "e_label": list(e_label),
        "j_max": cfg["j_max"],
        "spacing_nm": cfg["spacing_nm"],
        "first_xi_over_kappa": pairs[0].xi_over_kappa,
        "rows": len(pairs),
    }, {"stark.csv": table}


@experiment("phonon_bands", "crystal phonon branches and sound speeds",
            kind=(str, "chain"),
            n_sites=(int, None),
            beta=(float, 1.0e4),
            u_dd_over_kappa=(float, 3.0))
def run_phonon_bands(cfg: dict, workers: int) -> tuple[dict, dict]:
    lat = build_lattice(cfg["kind"], cfg["n_sites"], boundary="periodic")
    model = build_phonon_model(lat, cfg["beta"], cfg["u_dd_over_kappa"], 1.0)
    kvecs, nb = model.grid.kvecs, model.n_branches
    return {"sound_speeds": sound_speeds(model), "branches": nb}, {
        "bands.csv": ([f"q{c}" for c in range(kvecs.shape[1])] + [f"f{b}" for b in range(nb)],
                      [kvecs, model.freqs])}


@experiment("phonon_decay", "phonon-induced decay of collective excitations (+ golden-rule rate)",
            kind=(str, "chain"),
            n_sites=(int, None),
            beta=(float, 1.0e4),
            u_dd_over_kappa=(float, 3.0),
            xi_over_kappa=(float, 0.05),
            b0_over_kappa=(float, 0.1),
            temperature=(float, 0.5),  # k_B T in units u_dd/sqrt(beta)
            t_max=(float, 1.0),        # window in units of t_pi(chi_tilde)
            n_samples=(int, 300),
            include_two_excitation=(bool, True),
            include_fgr=(bool, True))
def run_phonon_decay(cfg: dict, workers: int) -> tuple[dict, dict]:
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
    header = ["t", "t_phonon_units", "decay_1exc", "decay_1exc_normalized"]
    columns = [one.times, one.times / phonon_time_unit, one.decay, one.decay_normalized]
    summary = {
        "t_pi": t_pi,
        "beyond_perturbative": one.beyond_perturbative,
        "max_decay_1exc": float(one.decay.max()),
        "max_decay_1exc_normalized": float(one.decay_normalized.max()),
    }
    if cfg["include_two_excitation"]:
        two = gamma2(model, xi, b0, cfg["temperature"], times)
        header += ["decay_2exc_full", "decay_2exc_dominant"]
        columns += [two.decay, two.decay_dominant]
        summary["gamma2_correction_ratio"] = two.correction_ratio
    if cfg["include_fgr"]:
        summary["fgr"] = gamma1_fgr(model, xi, b0, cfg["temperature"])
    return summary, {"decay.csv": (header, columns)}


@experiment("scaling_fit", "power-law fit of maximum decay probability versus N",
            kind=(str, "chain"),
            n_values=(str, "16,25,36,49,64,81"),
            xi_over_kappa=(float, 0.05),
            boundary=(str, "periodic"),
            window_t_pi=(float, 2.0),
            include_exact=(bool, True))
def run_scaling_fit(cfg: dict, workers: int) -> tuple[dict, dict]:
    n_values = _parse_list(cfg, "n_values", int)
    report = fgr_scaling_diagnostic(
        cfg["kind"], n_values, cfg["xi_over_kappa"],
        window_t_pi=cfg["window_t_pi"],
        include_exact=cfg["include_exact"],
        boundary=cfg["boundary"],
    )
    exact = ["decay_max_exact"] if cfg["include_exact"] else []
    table = (["n_sites", "decay_max_perturbative"] + exact,
             [n_values, report["decay_max"]] + [report[k] for k in exact])
    key = "alpha_1d" if cfg["kind"] == "chain" else "alpha_2d"
    report[key] = report["alpha"]
    return report, {"scaling.csv": table}


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
    """Execute one configured experiment, then write its output directory and
    return it: a refused run leaves no files."""
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    cfg = parse_config(config_path)
    summary, tables = EXPERIMENTS[cfg["experiment"]].run(cfg, workers)
    root = Path(out_dir) if out_dir else Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    outdir = root / f"{cfg['experiment']}"
    outdir.mkdir(parents=True, exist_ok=True)
    # a rerun replaces every file an earlier run wrote here, so no table of
    # it is left beside the new ones
    for stale in [outdir / "metadata.json", outdir / "summary.json", *outdir.glob("*.csv")]:
        stale.unlink(missing_ok=True)
    _write_json(outdir / "metadata.json",
                {"config": cfg, "code_version": __version__, "conventions": CONVENTIONS})
    for name, table in tables.items():
        _write_csv(outdir / name, *table)
    _write_json(outdir / "summary.json", summary)
    return outdir


def list_experiments(name: str | None = None) -> str:
    """Every experiment, or only ``name``, with its config keys and defaults."""
    lines = [] if name else ["available experiments:"]
    for exp in [name] if name else EXPERIMENTS:
        entry = EXPERIMENTS[exp]
        lines.append(f"  {exp}: {entry.help}")
        keys = ", ".join(
            f"{k}" + ("" if default is None else f"={default}")
            for k, (_, default) in entry.keys.items()
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
        if args.experiment is not None and args.experiment not in EXPERIMENTS:
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
    except Exception as exc:
        for classes, code, prefix in EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise
    print(outdir)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
