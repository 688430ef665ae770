"""Excitation dispersion, Fourier kernel, perturbative two-excitation decay,
and finite-size decay-scaling diagnostics.

Energies are in units of kappa (hbar = 1); momenta in units of 1/a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import compute_trajectory
from .hamiltonian import full_hamiltonian, gate_params
from .lattice import Lattice, MomentumGrid, build_lattice, momentum_grid, relative_sites

__all__ = [
    "Dispersion",
    "DecayCurve",
    "dispersion",
    "dispersion_curve",
    "dispersion_asymptote_check",
    "fourier_kernel",
    "spin_wave_energies",
    "perturbative_decay2",
    "fgr_scaling_diagnostic",
]

PERTURBATION_FLAG_LEVEL = 0.5


def spin_wave_energies(lattice: Lattice, kvecs: np.ndarray, kappa: float = 1.0) -> np.ndarray:
    """hbar*omega_k = kappa * sum_{j != 0} (4/|r_j|^3) sin^2(k.r_j / 2).

    The energy of the uniform (k = 0) one-excitation mode minus the energy of
    the k mode; non-negative for the repulsive kernel.
    """
    rel = relative_sites(lattice)
    r3 = np.linalg.norm(rel, axis=1) ** 3
    dots = np.atleast_2d(kvecs) @ rel.T
    return kappa * (4.0 * np.sin(dots / 2.0) ** 2 / r3).sum(axis=1)


def fourier_kernel(lattice: Lattice, kvecs: np.ndarray) -> np.ndarray:
    """F_k = a^3 sum_{j != 0} cos(k.r_j) / |r_j|^3 on the periodic lattice."""
    if not lattice.periodic:
        raise ValueError("fourier_kernel requires a periodic lattice")
    rel = relative_sites(lattice)
    r3 = np.linalg.norm(rel, axis=1) ** 3
    dots = np.atleast_2d(kvecs) @ rel.T
    return (np.cos(dots) / r3).sum(axis=1)


@dataclass
class Dispersion:
    grid: MomentumGrid
    omega: np.ndarray
    kind: str
    n_sites: int
    kappa: float


def dispersion(lattice: Lattice, kappa: float = 1.0) -> Dispersion:
    """Excitation dispersion on the discrete momentum grid of the lattice."""
    if not lattice.periodic:
        raise ValueError("dispersion requires a periodic lattice")
    grid = momentum_grid(lattice)
    omega = spin_wave_energies(lattice, grid.kvecs, kappa)
    return Dispersion(grid=grid, omega=omega, kind=lattice.kind, n_sites=lattice.n_sites, kappa=kappa)


def dispersion_curve(kind: str, ka: np.ndarray, kappa: float = 1.0, cutoff: int = 100_000) -> np.ndarray:
    """Large-cutoff dispersion at arbitrary momenta (k along a lattice axis).

    1D sums run over displacements 1..cutoff on both sides; 2D over the
    square patch |x|, |y| <= M with (2M+1)^2 ~ cutoff sites.
    """
    ka = np.atleast_1d(np.asarray(ka, dtype=float))
    if kind == "chain":
        d = np.arange(1, cutoff + 1, dtype=float)
        return kappa * (8.0 * np.sin(np.outer(ka, d) / 2.0) ** 2 / d**3).sum(axis=1)
    if kind == "square":
        m = max(int(np.sqrt(cutoff) // 2), 8)
        x, y = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
        x = x.ravel().astype(float)
        y = y.ravel().astype(float)
        sel = (x != 0) | (y != 0)
        x, y = x[sel], y[sel]
        r3 = (x**2 + y**2) ** 1.5
        out = np.empty(len(ka))
        for i, k in enumerate(ka):
            out[i] = kappa * (4.0 * np.sin(k * x / 2.0) ** 2 / r3).sum()
        return out
    raise ValueError(f"unsupported lattice kind {kind!r}")


def dispersion_asymptote_check(kind: str, kappa: float = 1.0, cutoff: int = 100_000) -> dict:
    """Small-k behavior against the closed-form laws.

    1D: |hbar omega| vs kappa*(3 - 2 ln ka)*(ka)^2 for ka <= 0.05 (the
    magnitude of the quadratic-log law); reports the max relative deviation.
    2D: least-squares slope c of hbar omega ~ c*kappa*|ka| over the smallest
    momentum decade resolvable at the effective cutoff, plus the spread of
    omega/k over that decade.
    """
    if kind == "chain":
        ka = np.geomspace(0.002, 0.05, 12)
        om = dispersion_curve("chain", ka, kappa, cutoff)
        ref = kappa * (3.0 - 2.0 * np.log(ka)) * ka**2
        dev = np.abs(om - ref) / ref
        return {
            "kind": kind,
            "ka": ka.tolist(),
            "omega": om.tolist(),
            "reference": ref.tolist(),
            "max_rel_deviation": float(dev.max()),
        }
    if kind == "square":
        m = max(int(np.sqrt(cutoff) // 2), 50)
        n_eff = (2 * m + 1) ** 2
        k0 = 2.0 * np.pi / (2 * m + 1)
        ka = np.geomspace(k0, 10.0 * k0, 12)
        om = dispersion_curve("square", ka, kappa, cutoff)
        slope = float((om * ka).sum() / (ka * ka).sum()) / kappa
        ratio = om / (kappa * ka)
        return {
            "kind": kind,
            "effective_sites": n_eff,
            "ka": ka.tolist(),
            "omega": om.tolist(),
            "slope": slope,
            "ratio_min": float(ratio.min()),
            "ratio_max": float(ratio.max()),
            "ratio_spread": float((ratio.max() - ratio.min()) / ratio.mean()),
        }
    raise ValueError(f"unsupported lattice kind {kind!r}")


@dataclass
class DecayCurve:
    """Perturbative two-excitation decay probability versus time."""

    times: np.ndarray
    decay: np.ndarray
    matrix_elements: np.ndarray = field(repr=False)  # (4 xi / N) F_k per mode
    kvecs: np.ndarray = field(repr=False)
    beyond_perturbative: bool = False


def perturbative_decay2(lattice: Lattice, xi: float, times, kappa: float = 1.0) -> DecayCurve:
    """First-order decay of the two-excitation symmetric state.

    decay(t) = (16 xi^2 / N^2) sum_{k != 0} |F_k|^2 sin^2(omega_k t) /
    omega_k^2, summed over the full grid without k = 0 (the half-grid sum
    with the +-k degeneracy folded in is identical).
    """
    if not lattice.periodic:
        raise ValueError("perturbative decay needs a periodic lattice")
    times = np.asarray(times, dtype=float)
    n = lattice.n_sites
    grid = momentum_grid(lattice)
    reps, mult = grid.pair_fold()
    kv = grid.kvecs[reps]
    fk = fourier_kernel(lattice, kv)
    om = spin_wave_energies(lattice, kv, kappa)
    s = np.sin(np.outer(times, om))
    decay = (16.0 * xi**2 / n**2) * ((mult * fk**2 / om**2) * s**2).sum(axis=1)
    return DecayCurve(
        times=times,
        decay=decay,
        matrix_elements=(4.0 * xi / n) * fk,
        kvecs=kv,
        beyond_perturbative=bool(decay.max(initial=0.0) > PERTURBATION_FLAG_LEVEL),
    )


def fgr_scaling_diagnostic(
    kind: str,
    n_values,
    xi_over_kappa: float,
    window_t_pi: float = 2.0,
    n_time: int = 4000,
    include_exact: bool = False,
    boundary: str = "periodic",
) -> dict:
    """Power-law fit of the maximum decay probability versus N.

    The estimator is the perturbative sum of :func:`perturbative_decay2`,
    maximized over [0, window_t_pi * t_pi(N)]; optionally the exact sector
    dynamics is run alongside and fitted the same way.  Fits are least
    squares on log-log data; decay = prefactor * N^alpha.
    """
    n_values = list(n_values)
    if len(n_values) < 3:
        raise ValueError("need at least 3 lattice sizes for a power-law fit")
    if kind not in ("chain", "square"):
        raise ValueError(f"unsupported lattice kind {kind!r}")
    kappa = 1.0
    xi = xi_over_kappa * kappa
    dec_pert, dec_exact = [], []
    for n in n_values:
        lat = build_lattice(kind, n, boundary="periodic")
        t_pi = gate_params(lat, kappa, xi, use_tilde=True).t_pi
        t = np.linspace(0.0, window_t_pi * t_pi, n_time)
        dec_pert.append(float(perturbative_decay2(lat, xi, t, kappa).decay.max()))
        if include_exact:
            dec_exact.append(_exact_max_decay(kind, n, xi_over_kappa, window_t_pi, boundary))
    report = {
        "kind": kind,
        "grid_sizes": n_values,
        "xi_over_kappa": xi_over_kappa,
        "window_t_pi": window_t_pi,
        "decay_max": dec_pert,
        "boundary_exact": boundary if include_exact else None,
    }
    report.update(_power_fit(n_values, dec_pert, xi_over_kappa, suffix=""))
    if include_exact:
        report["decay_max_exact"] = dec_exact
        report.update(_power_fit(n_values, dec_exact, xi_over_kappa, suffix="_exact"))
    return report


def _power_fit(n_values, decays, xi_over_kappa, suffix: str) -> dict:
    logn = np.log(np.asarray(n_values, dtype=float))
    logd = np.log(np.asarray(decays, dtype=float))
    coef, residuals, *_ = np.polyfit(logn, logd, 1, full=True)
    alpha, lnc = float(coef[0]), float(coef[1])
    res = float(residuals[0]) if len(residuals) else 0.0
    return {
        f"alpha{suffix}": alpha,
        f"prefactor{suffix}": float(np.exp(lnc)),
        f"prefactor_over_xi_sq{suffix}": float(np.exp(lnc) / xi_over_kappa**2),
        f"fit_residuals{suffix}": res,
    }


def _exact_max_decay(kind: str, n: int, xi_over_kappa: float, window_t_pi: float, boundary: str) -> float:
    lat = build_lattice(kind, n, boundary=boundary)
    ham = full_hamiltonian(lat, 1.0, xi_over_kappa)
    gp = gate_params(lat, 1.0, xi_over_kappa, use_tilde=True)
    t = np.linspace(0.0, window_t_pi * gp.t_pi, 1500)
    traj = compute_trajectory(ham, t, auto_refine=False)
    return float((1.0 - traj.fidelity).max())
