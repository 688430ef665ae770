"""Excitation dispersion, Fourier kernel, perturbative two-excitation decay,
and finite-size decay-scaling diagnostics.

Energies are in units of kappa (hbar = 1); momenta in units of 1/a.

Every lattice and mode sum of the form sum_m c_m sin^2(h_m . t), here and in
:mod:`dipolarray.phonon`, runs through one kernel, :func:`_sin2_sum`: the
band omega_k (h = r_j / 2 against the momenta), the Fourier kernel
F_k = F_0 - omega_k / 2 kappa, the large-cutoff sums of
:func:`dispersion_curve`, the perturbative decay, the phonon lattice sums
(the dynamical matrices, one weight column per matrix entry, and the band,
with the coupling force sum_j sin(q.r_j) r_j / |r_j|^5 as the kernel's sine
partner sum_m s_m sin(2 h_m . t) from the same phases) and the phonon decay
sums, whose two-excitation modes arrive as a stream of pair blocks.  On an
evenly spaced grid, as every decay sum's ``np.linspace`` and the chain's
momenta are, and on the product grid of a torus's momenta, it splits each
point into a coarse and a fine part, builds the factors of both parts from
one sin and one cos per mode and axis by angle addition, and sums over the
modes with one complex matrix product; there a sum differs from the direct
one at the level of a few ulps of the phases.  On every other grid (momentum
subsets, geomspace grids) each phase is rounded exactly as ``h[m] * times``
or the dot product.  It cuts the mode axis into slices whose float64 or
complex tables fit ``_SLICE_BYTES`` and runs them one at a time, adding the
partial sums in slice order, so a stream of blocks is made as it is summed
and the summation order is fixed by the slicing alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import isqrt
from typing import NamedTuple

import numpy as np

from .basis import require_memory
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

# time points per window in fgr_scaling_diagnostic
_SCALING_TIMES = 4000

# the (slice x phases) tables of one slice in _sin2_sum; fixed, so the
# slicing and hence the summation order depend on the blocks alone
_SLICE_BYTES = 2**20

# bytes per summed site of the dispersion_curve displacement tables, fitted
# to the tracemalloc peak beyond the one sin^2 slice of _sin2_sum
_DISPERSION_SITE_BYTES = {"chain": 25, "square": 34}


def _sin2_sum(blocks, times: np.ndarray):
    """sum_m c_m sin^2(x_m) at every t of ``times``, x_m = h_m . t, over the
    mode axis given as ``blocks`` of (c, h) or (c, h, s); with s, also the
    sine partner sum_m s_m sin(2 x_m) from the same phases.

    A (modes,) ``h`` takes 1-D ``times``; a (modes, D) ``h`` takes (T, D)
    ``times`` and the dot product of h_m with each row.  ``c`` and ``s`` are
    (modes,) or (modes, W), and each sum (T,) or (T, W); with s the result is
    the pair (sin^2 sum, sine sum).

    A (T, 1) ``times`` and (modes, 1) ``h`` run as 1-D: the dot product is
    one multiply, so the direct route gives the same bits.  On an evenly
    spaced 1-D grid or a product grid (see :func:`_time_split`) every t is
    t_0 + a coarse + b fine, a < A, b < B, and a slice tabulates F(x) = 1 -
    e^{2ix} at the A coarse and B fine phases of each mode as (rows x modes)
    tables, from sin and cos at the fine step, the coarse step and t_0 only:
    rows [n, 2n) follow from rows [0, n) by F(x + y) = F(x) (1 - F(y)) + F(y)
    and the step doubles by F(2y) = F(y) (2 - F(y)), neither of which has a 1
    - cos in it.  It then sums over the modes with one complex GEMM.  Each
    phase carries a few ulps more than h_m t rounded once, so a sum differs
    from the direct one at that level; small phases keep their relative
    precision.  On any other grid the phase is h_m t rounded exactly as
    ``h[m] * times`` (or the dot product), and one sin^2 table, or a sin and
    a cos table with s, is contracted with the weights.

    ``blocks`` may be a generator: each block is cut into slices whose
    (slice x phases) tables fit ``_SLICE_BYTES``, and the slices run one at a
    time, so a stream of blocks is consumed as it is summed.  The partial
    sums are added in slice order, so the summation order depends on the
    blocks and ``_SLICE_BYTES`` only.
    """
    if times.ndim == 2 and times.shape[1] == 1:
        # a 1-D dot product is one multiply: the direct route stays bitwise
        # and an evenly spaced axis can split
        times = times[:, 0]
    split = _time_split(times)

    def slices():
        for c, h, *s in blocks:
            if h.ndim > times.ndim:
                h = h[:, 0]
            if split is None:
                mode_bytes = 8 * (1 + len(s)) * max(len(times), 1)
            else:
                # the coarse and fine tables and the weighted fine table
                mode_bytes = 16 * (split.a + split.b * (1 + sum(map(_columns, (c, *s)))))
            step = max(1, _SLICE_BYTES // mode_bytes)
            for start in range(0, max(len(c), 1), step):
                part = slice(start, start + step)
                yield c[part], h[part], *(w[part] for w in s)

    def partial(part):
        c, h, *s = part
        if split is not None:
            return split_sums(c, h, s)
        x = np.multiply(h[:, None], times) if h.ndim == 1 else h @ times.T
        if not s:
            np.sin(x, out=x)
            return [c.T @ np.square(x, out=x)]
        cos = np.cos(x)
        np.sin(x, out=x)
        cos *= x
        return [c.T @ np.square(x, out=x), s[0].T @ cos]

    def split_sums(c, h, s):
        # with F(x) = 1 - e^{2ix} = 2 sin^2 x - 2i sin x cos x, which keeps
        # the relative precision of small x where 1 - cos 2x would cancel,
        # 1 - e^{2ih(T_a + tau_b)} = F_a - F_a F_b + F_b; the sin^2 sum is
        # 1/2 Re and the sine sum -Im of its weighted sum over the modes: two
        # GEMVs and one complex GEMM, the weights as columns of the fine factor
        m = len(h)
        weights = [w.reshape(m, _columns(w)) for w in (c, *s)]
        # (columns x modes) in row order, so that the weighted fine table
        # below is too and the GEMM takes it without a copy
        wt = np.ascontiguousarray(np.concatenate(weights, axis=1).T)
        # the phases of the steps: h times a scalar, or the dot product
        fa = factor_table(np.dot(h, split.coarse), split.a, np.dot(h, split.t0) if np.any(split.t0) else None)
        fb = factor_table(np.dot(h, split.fine), split.b)
        k, nb = len(wt), split.b
        z = (fa @ (fb[:, None, :] * wt).reshape(nb * k, m).T).reshape(-1, nb, k)
        np.subtract((fa @ wt.T)[:, None, :], z, out=z)
        z += fb @ wt.T
        z = z.reshape(-1, k)[:len(times)]
        wc = weights[0].shape[1]
        sums = [0.5 * z[:, :wc].real, -z[:, wc:].imag][:1 + len(s)]
        return [x if w.ndim == 2 else x[:, 0] for x, w in zip(sums, (c, *s))]

    def factor_table(step, count, start=None):
        # F(start + r step), r < count, as (count x modes): rows [n, 2n)
        # from rows [0, n) by F(x + y) = F(x) (1 - F(y)) + F(y) with
        # F(y) = F(n step), doubled by F(2y) = F(y) (2 - F(y)); sin and cos
        # run only at the step and the start
        f = np.empty((count, len(step)), dtype=complex)
        f[0] = 0.0 if start is None else one_minus_exp2i(start)
        fy, n = one_minus_exp2i(step), 1
        while n < count:
            rows = min(n, count - n)
            np.multiply(f[:rows], 1.0 - fy, out=f[n:n + rows])
            f[n:n + rows] += fy
            n *= 2
            if n < count:
                fy *= 2.0 - fy
        return f

    def one_minus_exp2i(x):
        sin = np.sin(x)
        cos = np.cos(x, out=x)
        f = np.empty(x.shape, dtype=complex)
        np.multiply(sin, cos, out=f.imag)
        f.imag *= -2.0
        sin *= sin
        np.multiply(sin, 2.0, out=f.real)
        return f

    total = reduce(_add, map(partial, slices()))
    if split is not None:
        return total[0] if len(total) == 1 else tuple(total)
    return total[0].T if len(total) == 1 else (total[0].T, 2.0 * total[1].T)


class _Split(NamedTuple):
    """A grid t_{aB + b} = t0 + a coarse + b fine, a < A, b < B, of
    :func:`_time_split`; scalars on a 1-D grid, (D,) rows on a product grid."""

    t0: float | np.ndarray
    fine: float | np.ndarray
    coarse: float | np.ndarray
    a: int
    b: int


def _time_split(times: np.ndarray) -> _Split | None:
    """The split of an evenly spaced 1-D grid or of a product grid; else None.

    A 1-D grid of T > 3 points t_n = t_0 + n dt with t_0 dt >= 0 splits with
    B = ceil(sqrt(T)) fine steps dt and A = ceil(T / B) coarse steps B dt;
    the two phases of a point then share its sign, so their sum never
    cancels.  A (s^2, D) grid, s >= 2, whose row j s + i is t_0 + i d_1 +
    j d_2 splits with the fine step d_1, the coarse step d_2 and A = B = s;
    its phases h . d may cancel, as the direct route's dot products may.
    Either form must hold to 4 ulps of the grid's largest |t|, since the
    kernel evaluates the form, not the rows; the check is O(T).
    """
    n = len(times)
    if times.ndim == 1:
        if n <= 3:
            return None
        t0 = times[0]
        fine = (times[-1] - t0) / (n - 1)
        if not (np.isfinite(fine) and fine != 0 and t0 * fine >= 0):
            return None
        b = isqrt(n - 1) + 1
        split = _Split(t0, fine, b * fine, -(-n // b), b)
        grid = t0 + np.arange(n) * fine
    else:
        s = isqrt(n)
        if s < 2 or s * s != n:
            return None
        t0 = times[0]
        split = _Split(t0, (times[s - 1] - t0) / (s - 1), (times[n - s] - t0) / (s - 1), s, s)
        row = np.arange(n)
        grid = t0 + np.multiply.outer(row % s, split.fine) + np.multiply.outer(row // s, split.coarse)
    if not np.abs(times - grid).max() <= 4 * np.spacing(np.abs(times).max()):
        return None
    return split


def _columns(w: np.ndarray) -> int:
    """Weight columns of a (modes,) or (modes, W) array."""
    return w.shape[1] if w.ndim == 2 else 1


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def spin_wave_energies(lattice: Lattice, kvecs: np.ndarray, kappa: float = 1.0) -> np.ndarray:
    """hbar*omega_k = kappa * sum_{j != 0} (4/|r_j|^3) sin^2(k.r_j / 2) on the
    periodic lattice, by :func:`_sin2_sum` with h = r_j / 2.

    The energy of the uniform (k = 0) one-excitation mode minus the energy of
    the k mode; non-negative for the repulsive kernel.
    """
    _require_couplings(kappa)
    if not lattice.periodic:
        raise ValueError("spin-wave energies require a periodic lattice")
    rel = relative_sites(lattice)
    r3 = np.linalg.norm(rel, axis=1) ** 3
    return kappa * _sin2_sum([(4.0 / r3, rel / 2.0)], np.atleast_2d(kvecs))


def fourier_kernel(lattice: Lattice, kvecs: np.ndarray) -> np.ndarray:
    """F_k = a^3 sum_{j != 0} cos(k.r_j) / |r_j|^3 on the periodic lattice,
    as F_0 - omega_k / 2 kappa from :func:`spin_wave_energies`
    (1 - cos x = 2 sin^2(x / 2))."""
    return _kernel_from_band(lattice, spin_wave_energies(lattice, kvecs))


def _kernel_from_band(lattice: Lattice, band: np.ndarray) -> np.ndarray:
    """F_k = F_0 - band / 2 from the kappa = 1 band of the same momenta."""
    return (1.0 / np.linalg.norm(relative_sites(lattice), axis=1) ** 3).sum() - band / 2.0


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
    band = spin_wave_energies(lattice, grid.kvecs)
    return Dispersion(grid=grid, omega=kappa * band, fourier_kernel=_kernel_from_band(lattice, band))


def _require_couplings(kappa: float, xi: float = 0.0) -> None:
    """Refuse a non-positive or non-finite kappa and a non-finite xi."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not kappa < np.inf:
        raise ValueError(f"kappa must be finite, got {kappa}")
    if not abs(xi) < np.inf:
        raise ValueError(f"xi must be finite, got {xi}")


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
    :func:`_sin2_sum` with h = x / 2.  Raises
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
    with the +-k degeneracy folded in is identical) by :func:`_sin2_sum`.
    """
    _require_couplings(kappa, xi)
    if not lattice.periodic:
        raise ValueError("perturbative decay needs a periodic lattice")
    times = np.asarray(times, dtype=float)
    n = lattice.n_sites
    grid = momentum_grid(lattice)
    reps, mult = grid.pair_fold()
    kv = grid.kvecs[reps]
    band = spin_wave_energies(lattice, kv)
    fk = _kernel_from_band(lattice, band)
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
