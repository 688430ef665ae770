"""Workloads of the dipolarray benchmark: tasks, parameter menus and checks.

A workload is a list of tasks.  Each task calls dipolarray's public API and
returns the numbers that are checked against ``references.json``, which was
recorded from the library at the commit that added this benchmark.

The seed shuffles task order and picks each task's parameters from a fixed
menu.  Every menu entry has a recorded reference and costs the same, so the
seed never changes a problem size.  Each workload also has a ``tiny`` size:
the same calls on small inputs, used as the warm-up before timed passes and
by the benchmark's own test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dipolarray as dl
import dipolarray.cli

WORKLOADS = ("configs", "gate_large", "decoherence")
SIZES = ("full", "tiny")

RTOL = 1e-6
# gate_time bisects to a relative bracket of 1e-4
GATE_RTOL = 1e-4
ATOL = 1e-12
IDENTITY_RTOL = 1e-12

Values = dict[str, Any]


@dataclass(frozen=True)
class Task:
    """One call sequence; ``key`` names its reference in references.json."""

    key: str
    run: Callable[[Path], Values]


@dataclass(frozen=True)
class TaskSpec:
    """A task with its parameter menu; ``make(entry)`` builds the runner."""

    name: str
    menu: tuple
    make: Callable[[Any], Callable[[Path], Values]]

    def task(self, index: int) -> Task:
        return Task(f"{self.name}[{index}]", self.make(self.menu[index]))


# ---------------------------------------------------------------------------
# configs: configured runs through dipolarray.cli.run
# ---------------------------------------------------------------------------

SHIPPED_CONFIGS = (
    "phase_gate",
    "mpm_protected_gate",
    "mpm_sweep",
    "dispersion",
    "stark_sweep",
    "phonon_bands",
    "phonon_decay",
)

# benchmark-owned configs, full size; the menu fills the {} slot
SQUARE_SWEEP = """experiment = mpm_sweep
kind = square
n_sites = 49
boundary = periodic
xi_over_kappa_values = {}
t_max = 2.0
n_samples = 400
"""
SQUARE_SWEEP_MENU = ("0.05, 0.1, 0.2", "0.04, 0.08, 0.16", "0.1, 0.2, 0.3")

DENSE_SCALING = """experiment = scaling_fit
kind = chain
n_values = 16, 25, 36, 49
xi_over_kappa = {}
boundary = periodic
window_t_pi = 2.0
include_exact = true
"""
DENSE_SCALING_MENU = ("0.03", "0.05", "0.08")

# tiny stand-ins for every config, same experiments on small arrays
TINY_CONFIGS = {
    "phase_gate": "experiment = phase_gate\nkind = chain\nn_sites = 8\nboundary = periodic\n"
                  "xi_over_kappa = 0.0\nt_max = 4.5\nn_samples = 60\n",
    "mpm_protected_gate": "experiment = phase_gate\nkind = chain\nn_sites = 8\nboundary = periodic\n"
                          "xi_over_kappa = 0.05\nt_max = 1.6\nn_samples = 60\n",
    "mpm_sweep": "experiment = mpm_sweep\nkind = chain\nn_sites = 8\nboundary = periodic\n"
                 "xi_over_kappa_values = 0.05, 0.2\nt_max = 2.0\nn_samples = 60\n",
    "dispersion": "experiment = dispersion\nkind = chain\nn_sites = 16\nsum_cutoff = 2000\n",
    "stark_sweep": "experiment = stark_sweep\nmolecule = SrO\nn_field = 5\n",
    "phonon_bands": "experiment = phonon_bands\nkind = triangular\nn_sites = 16\n",
    "phonon_decay": "experiment = phonon_decay\nkind = chain\nn_sites = 12\nn_samples = 30\n",
}
TINY_SQUARE_SWEEP = ("experiment = mpm_sweep\nkind = square\nn_sites = 9\nboundary = periodic\n"
                     "xi_over_kappa_values = {}\nt_max = 2.0\nn_samples = 60\n")
TINY_DENSE_SCALING = ("experiment = scaling_fit\nkind = chain\nn_values = 9, 16, 25\nxi_over_kappa = {}\n"
                      "boundary = periodic\nwindow_t_pi = 2.0\ninclude_exact = true\n")


def flatten(obj, prefix: str = "") -> Values:
    """Nested JSON-like data as one flat {dotted.key: scalar} dict."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return {prefix.rstrip("."): obj}
    out: Values = {}
    for k, v in items:
        out.update(flatten(v, f"{prefix}{k}."))
    return out


def _config_runner(config: Path) -> Callable[[Path], Values]:
    def run(outdir: Path) -> Values:
        rundir = dl.cli.run(config, outdir, workers=1)
        return flatten(json.loads((rundir / "summary.json").read_text()))
    return run


def _configs_specs(size: str, root: Path, workdir: Path) -> list[TaskSpec]:
    cfgdir = workdir / "configs"
    cfgdir.mkdir(parents=True, exist_ok=True)

    def owned(name: str, text: str) -> Callable[[Path], Values]:
        path = cfgdir / f"{name}.cfg"
        path.write_text(text)
        return _config_runner(path)

    if size == "full":
        specs = [
            TaskSpec(name, (name,), lambda n: _config_runner(root / "configs" / f"{n}.cfg"))
            for name in SHIPPED_CONFIGS
        ]
        sweep, scaling = SQUARE_SWEEP, DENSE_SCALING
    else:
        specs = [
            TaskSpec(name, (TINY_CONFIGS[name],), lambda text, n=name: owned(n, text))
            for name in SHIPPED_CONFIGS
        ]
        sweep, scaling = TINY_SQUARE_SWEEP, TINY_DENSE_SCALING
    specs.append(TaskSpec(
        "square_periodic_mpm_sweep", SQUARE_SWEEP_MENU,
        lambda xi: owned(f"square_periodic_mpm_sweep_{xi}", sweep.format(xi))))
    specs.append(TaskSpec(
        "dense_scaling_fit", DENSE_SCALING_MENU,
        lambda xi: owned(f"dense_scaling_fit_{xi}", scaling.format(xi))))
    return specs


# ---------------------------------------------------------------------------
# gate_large: gate pipeline on two-excitation sectors above DENSE_DIM_MAX
# ---------------------------------------------------------------------------

GATE_XI_OVER_KAPPA = 0.05
# (kind, boundary, n_sites, window in t_pi, requested samples); each window
# ends just past the gate
GATE_SECTORS = {
    "full": (("chain", "periodic", 64, 1.19, 150), ("square", "open", 64, 0.99, 150)),
    "tiny": (("chain", "periodic", 10, 1.2, 40), ("square", "open", 9, 1.2, 40)),
}


def _gate_runner(sector) -> Callable[[Path], Values]:
    kind, boundary, n_sites, window, samples = sector

    def run(outdir: Path) -> Values:
        kappa = 1.0
        xi = GATE_XI_OVER_KAPPA * kappa
        lat = dl.build_lattice(kind, n_sites, boundary=boundary)
        ham = dl.full_hamiltonian(lat, kappa, xi)
        gp = dl.gate_params(lat, kappa, xi, use_tilde=True)
        traj = dl.compute_trajectory(ham, np.linspace(0.0, window * gp.t_pi, samples))
        tg = dl.gate_time(traj)
        return {
            "gate_time_over_t_pi": tg / gp.t_pi,
            "max_decay": float((1.0 - traj.fidelity).max()),
        }
    return run


def _gate_specs(size: str, root: Path, workdir: Path) -> list[TaskSpec]:
    return [
        TaskSpec("{}_{}_{}".format(*sector[:3]), (sector,), _gate_runner)
        for sector in GATE_SECTORS[size]
    ]


# ---------------------------------------------------------------------------
# decoherence: phonon decay sums and perturbative scaling, no sector dynamics
# ---------------------------------------------------------------------------

PHONON_BETA = 1.0e4
PHONON_U_DD = 3.0
PHONON_XI = 0.05
PHONON_T_END = 100.0
# (temperature, b0); all entries cost the same
PHONON_MENU = ((0.5, 0.1), (1.0, 0.1), (0.25, 0.2))
SCALING_MENU = (0.03, 0.05, 0.1)
DECOHERENCE_SIZES = {
    "full": {"lattices": (("chain", 300), ("triangular", 196)), "times": 300,
             "scaling_n": (16, 25, 36, 49, 64, 81, 100, 144, 196, 256, 324, 400)},
    "tiny": {"lattices": (("chain", 24), ("triangular", 16)), "times": 30,
             "scaling_n": (16, 25, 36)},
}


def _phonon_runner(kind: str, n_sites: int, n_times: int):
    def make(entry) -> Callable[[Path], Values]:
        temperature, b0 = entry

        def run(outdir: Path) -> Values:
            lat = dl.build_lattice(kind, n_sites, boundary="periodic")
            model = dl.build_phonon_model(lat, PHONON_BETA, PHONON_U_DD, 1.0)
            times = np.linspace(0.0, PHONON_T_END, n_times)
            one = dl.gamma1_time(model, PHONON_XI, b0, temperature, times)
            two = dl.gamma2(model, PHONON_XI, b0, temperature, times)
            fgr = dl.gamma1_fgr(model, PHONON_XI, b0, temperature)
            return {
                "gamma1_max_decay": float(one.decay.max()),
                "gamma2_max_decay": float(two.decay.max()),
                "gamma2_dominant_max_decay": float(two.decay_dominant.max()),
                "fgr_rate": fgr["rate"],
                # the dominant two-excitation channels are exactly twice gamma1
                "dominant_is_twice_gamma1": bool(np.allclose(
                    two.decay_dominant, 2.0 * one.decay, rtol=IDENTITY_RTOL, atol=0.0)),
            }
        return run
    return make


def _scaling_runner(kind: str, n_values) -> Callable[[Any], Callable[[Path], Values]]:
    def make(xi_over_kappa: float) -> Callable[[Path], Values]:
        def run(outdir: Path) -> Values:
            return flatten(dl.fgr_scaling_diagnostic(kind, n_values, xi_over_kappa))
        return run
    return make


def _decoherence_specs(size: str, root: Path, workdir: Path) -> list[TaskSpec]:
    sz = DECOHERENCE_SIZES[size]
    specs = [
        TaskSpec(f"phonon_{kind}_{n}", PHONON_MENU, _phonon_runner(kind, n, sz["times"]))
        for kind, n in sz["lattices"]
    ]
    specs += [
        TaskSpec(f"fgr_scaling_{kind}", SCALING_MENU, _scaling_runner(kind, sz["scaling_n"]))
        for kind in ("chain", "square")
    ]
    return specs


_SPECS = {
    "configs": _configs_specs,
    "gate_large": _gate_specs,
    "decoherence": _decoherence_specs,
}


def specs(workload: str, size: str, root: Path, workdir: Path) -> list[TaskSpec]:
    """Every task of a workload with its full menu."""
    return _SPECS[workload](size, root, workdir)


def build_tasks(workload: str, size: str, seed: int, root: Path, workdir: Path) -> list[Task]:
    """The seeded task list: one menu entry per task, in shuffled order."""
    rng = random.Random(seed)
    tasks = [s.task(rng.randrange(len(s.menu))) for s in specs(workload, size, root, workdir)]
    rng.shuffle(tasks)
    return tasks


def reference_key(workload: str, size: str, task: Task) -> str:
    return f"{workload}/{size}/{task.key}"


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def mismatches(actual: Values, expected: Values) -> list[str]:
    """Reference keys whose value is missing or outside tolerance.

    Keys the program reports beyond the reference are ignored, so added
    diagnostics never count as a miss.
    """
    out = []
    for key, want in expected.items():
        if key not in actual:
            out.append(f"{key}: missing")
            continue
        got = actual[key]
        number = isinstance(want, (int, float)) and not isinstance(want, bool)
        if number:
            ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
                  and math.isclose(got, want, abs_tol=ATOL,
                                   rel_tol=GATE_RTOL if "gate_time" in key else RTOL))
        else:
            ok = got == want
        if not ok:
            out.append(f"{key}: got {got!r}, reference {want!r}")
    return out


def check(workload: str, size: str, outcomes, refs: dict) -> list[str]:
    """One problem line per failed task: it raised, or missed its reference."""
    problems = []
    for task, values in outcomes:
        key = reference_key(workload, size, task)
        if isinstance(values, Exception):
            problems.append(f"{key}: raised {type(values).__name__}: {values}")
        elif key not in refs:
            problems.append(f"{key}: no recorded reference")
        else:
            missed = mismatches(values, refs[key])
            if missed:
                problems.append(f"{key}: " + "; ".join(missed[:3]))
    return problems
