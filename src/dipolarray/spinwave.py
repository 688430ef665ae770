"""Excitation dispersion, Fourier kernel, perturbative two-excitation decay,
and finite-size decay-scaling diagnostics.

Energies are in units of kappa (hbar = 1); momenta in units of 1/a.

The band omega_k and the Fourier kernel F_k = F_0 - omega_k / 2 kappa on
the torus's momentum grid come from one discrete Fourier transform
(:func:`dipolarray.lattice._torus_sums`); the large-cutoff sums of
:func:`dispersion_curve` and the perturbative decay run through the sin^2
kernel of :mod:`dipolarray.sin2`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import require_memory
from .dynamics import compute_trajectory
from .hamiltonian import _require_couplings, full_hamiltonian, gate_params
from .lattice import Lattice, MomentumGrid, _torus_sums, build_lattice, momentum_grid, relative_sites
from .sin2 import _sin2_sum

__all__ = [
    "Dispersion",
    "DecayCurve",
    "dispersion",
    "dispersion_curve",
    "dispersion_asymptote_check",
    "perturbative_decay2",
    "fgr_scaling_diagnostic",
]

PERTURBATION_FLAG_LEVEL = 0.5

# time points per window in fgr_scaling_diagnostic
_SCALING_TIMES = 4000

# bytes per summed site of the dispersion_curve displacement tables, fitted
# to the tracemalloc peak beyond the one sin^2 slice of _sin2_sum
_DISPERSION_SITE_BYTES = {"chain": 25, "square": 34}


def _unit_band(lattice: Lattice) -> tuple[np.ndarray, float]:
    """The kappa = 1 band sum_{j != 0} (4 / |r_j|^3) sin^2(k.r_j / 2) at
    every row of the momentum grid and F_0 = sum_{j != 0} 1 / |r_j|^3, both
    from one ``relative_sites`` table.

    The band is the energy of the uniform (k = 0) one-excitation mode minus
    that of the k mode, non-negative for the repulsive kernel; F_k = F_0 -
    band / 2 (1 - cos x = 2 sin^2(x / 2)).
    """
    r3 = np.linalg.norm(relative_sites(lattice), axis=1) ** 3
    return _torus_sums(lattice, 4.0 / r3), (1.0 / r3).sum()


@dataclass
class Dispersion:
    """omega_k and the Fourier kernel F_k at the momenta ``grid.kvecs``."""

    grid: MomentumGrid
    omega: np.ndarray
    fourier_kernel: np.ndarray


def dispersion(lattice: Lattice, kappa: float = 1.0) -> Dispersion:
    """Excitation dispersion and Fourier kernel on the discrete momentum
    grid of the lattice, both from one kappa = 1 band: omega = kappa * band
    and F_k = F_0 - band / 2."""
    _require_couplings(kappa)
    grid = momentum_grid(lattice)
    band, f0 = _unit_band(lattice)
    return Dispersion(grid=grid, omega=kappa * band, fourier_kernel=f0 - band / 2.0)


def _require_cutoff(cutoff: int) -> None:
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")


def _square_half_width(cutoff: int) -> int:
    """Half-width M of the 2D patch |x|, |y| <= M, (2M+1)^2 ~ cutoff sites."""
    return max(int(np.sqrt(cutoff) // 2), 8)


def dispersion_curve(kind: str, ka: np.ndarray, kappa: float = 1.0, cutoff: int = 100_000) -> np.ndarray:
    """Large-cutoff dispersion at arbitrary momenta (k along a lattice axis).

    1D sums run over displacements 1..cutoff on both sides; 2D over the
    square patch |x|, |y| <= M of :func:`_square_half_width`; both by
    :func:`~dipolarray.sin2._sin2_sum` with h = x / 2.  Raises
    :class:`~dipolarray.basis.ResourceLimitError` when the displacement
    tables would exceed the memory budget ``basis.MEMORY_BYTES_MAX``.
    """
    _require_cutoff(cutoff)
    _require_couplings(kappa)
    if kind not in ("chain", "square"):
        raise ValueError(f"unsupported lattice kind {kind!r}")
    m = _square_half_width(cutoff)
    sites = cutoff if kind == "chain" else (2 * m + 1) ** 2
    require_memory(sites * _DISPERSION_SITE_BYTES[kind], "dispersion tables need",
                   f"at sum_cutoff = {cutoff}")
    ka = np.atleast_1d(np.asarray(ka, dtype=float))
    if kind == "chain":
        x = np.arange(1, cutoff + 1, dtype=float)
        c = 8.0 / x**3
    else:
        side = np.arange(-m, m + 1, dtype=float)
        x, y = (a.ravel() for a in np.meshgrid(side, side, indexing="ij"))
        sel = (x != 0) | (y != 0)
        x, y = x[sel], y[sel]
        c = 4.0 / (x**2 + y**2) ** 1.5
    return kappa * _sin2_sum([(c, x / 2.0)], ka)


def dispersion_asymptote_check(kind: str, kappa: float = 1.0, cutoff: int = 100_000) -> dict:
    """Small-k behavior against the closed-form laws.

    1D: |hbar omega| vs kappa*(3 - 2 ln ka)*(ka)^2 for ka <= 0.05 (the
    magnitude of the quadratic-log law); reports the max relative deviation.
    2D: least-squares slope c of hbar omega ~ c*kappa*|ka| over the smallest
    momentum decade resolvable on the summed patch of :func:`dispersion_curve`
    (``effective_sites`` = (2M+1)^2 sites, k from 2 pi/(2M+1)), plus the
    spread of omega/k over that decade.
    """
    _require_cutoff(cutoff)
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
        m = _square_half_width(cutoff)
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
    beyond_perturbative: bool = False


def perturbative_decay2(lattice: Lattice, xi: float, times, kappa: float = 1.0) -> DecayCurve:
    """First-order decay of the two-excitation symmetric state.

    decay(t) = (16 xi^2 / N^2) sum_{k != 0} |F_k|^2 sin^2(omega_k t) /
    omega_k^2, summed over the full grid without k = 0 (the half-grid sum
    with the +-k degeneracy folded in is identical) by
    :func:`~dipolarray.sin2._sin2_sum`.
    """
    _require_couplings(kappa, xi)
    if not lattice.periodic:
        raise ValueError("perturbative decay needs a periodic lattice")
    times = np.asarray(times, dtype=float)
    n = lattice.n_sites
    reps, mult = momentum_grid(lattice).pair_fold()
    band, f0 = _unit_band(lattice)
    band = band[reps]
    fk = f0 - band / 2.0
    om = kappa * band
    decay = (16.0 * xi**2 / n**2) * _sin2_sum([(mult * fk**2 / om**2, om)], times)
    return DecayCurve(times=times, decay=decay,
                      beyond_perturbative=bool(decay.max(initial=0.0) > PERTURBATION_FLAG_LEVEL))


def fgr_scaling_diagnostic(
    kind: str,
    n_values,
    xi_over_kappa: float,
    window_t_pi: float = 2.0,
    include_exact: bool = False,
    boundary: str = "periodic",
) -> dict:
    """Power-law fit of the maximum decay probability versus N.

    The estimator is the perturbative sum of :func:`perturbative_decay2`,
    maximized over [0, window_t_pi * t_pi(N)] (window_t_pi > 0); optionally
    the exact sector dynamics is run alongside and fitted the same way.  Fits are least
    squares on log-log data; decay = prefactor * N^alpha.
    """
    if not window_t_pi > 0:
        raise ValueError(f"window_t_pi must be positive, got {window_t_pi}")
    n_values = list(n_values)
    if len(set(n_values)) < 3:
        raise ValueError(f"need at least 3 distinct lattice sizes for a power-law fit, got {n_values}")
    if kind not in ("chain", "square"):
        raise ValueError(f"unsupported lattice kind {kind!r}")
    kappa = 1.0
    xi = xi_over_kappa * kappa
    dec_pert, dec_exact = [], []
    for n in n_values:
        lat = build_lattice(kind, n, boundary="periodic")
        t_pi = gate_params(lat, kappa, xi, use_tilde=True).t_pi
        t = np.linspace(0.0, window_t_pi * t_pi, _SCALING_TIMES)
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
