"""Wigner-crystal phonons of dipolar lattices and the phonon-induced
decoherence of collective excitations.

Crystal vibrations come from the quadratic expansion of the ground-state
dipolar repulsion U_dd/rho^3 about the equilibrium sites.  In units where
lengths are in a and energies in U_dd, the per-pair Hessian is

    K_ab(r) = (3/rho^5) (5 n_a n_b - delta_ab),      n = r/|r|,

and the dynamical matrix D(q) = sum_{j != 0} 2 K(r_j) sin^2(q.r_j / 2) has
eigenvalues f_lambda(q)^2 with mode energies hbar*omega = (U_dd/sqrt(beta))
f_lambda(q): acoustic branches, one longitudinal in 1D and two in 2D.

Decay of the collective one-excitation state couples the spin wave at k to
the phonon at q = -k with weight

    |L|^2 = (xi + 4 B0)^2 g_lambda(q) / (2 N sqrt(beta)),
    g_lambda(q) = (9 / f_lambda(q)) * [sum_{j != 0} sin(q.r_j)
                  (e_lambda . r_j) / |r_j|^5]^2,

and the first-order decay probability integrates [(n(w)+1) cos(Omega+ tau)
+ n(w) cos(Omega- tau)] with Omega+- = omega_phonon +- omega_spin.  All
energies (kappa, xi, b0, u_dd, k_B T) must share one unit; times are hbar
over that unit.  Temperatures are passed in units of U_dd/(sqrt(beta) k_B),
the natural scale of the spectrum.

Every lattice sum runs over the relative sites r_j - r_0 of
:func:`dipolarray.lattice.relative_sites`, O(N) to build.
:func:`build_phonon_model` takes D(q), the spin-wave band and the coupling
force sum_j sin(q.r_j) r_j / |r_j|^5 for the whole grid from one Fourier
transform of the torus, :func:`dipolarray.lattice._torus_sums` (the force
is its sine partner), then tabulates f_lambda(q), g_lambda(q) (0 at q = 0,
where the acoustic modes are soft and uncoupled) and the spin-wave energies
once, and every decay sum indexes those tables by grid point.  The decay
sums use inversion symmetry: D(-q) = D(q), so q and -q give the same term
up to roundoff.  The one-excitation sum runs over one q per pair
(:meth:`~dipolarray.lattice.MomentumGrid.pair_fold`), and the two-excitation
sum over one unordered pair k <= k' per orbit {(k, k'), (-k, -k')}, with q =
-(k + k') from the grid's integer momentum coordinates; each term carries
its orbit size, and a pair with k != k' also counts twice (k <-> k').  Both
share :func:`_decay_sum`, which prescales each mode's weight by 2 / omega^2
once and hands the sin^2 sum to the kernel, which streams the mode axis in
slices of a fixed byte size, one at a time, so no (times x modes) array is
ever held.  :func:`gamma2` enumerates its pairs in blocks of k rows
whose tables fit the kernel's slice size and the kernel sums them as they
are made, so no table of the phonon layer grows as N^2: it holds O(N D^2)
per-momentum tables and bounded blocks.  :func:`build_phonon_model` and
:func:`gamma2` refuse up front with
:class:`~dipolarray.basis.ResourceLimitError` when their per-momentum tables
would exceed the memory budget ``basis.MEMORY_BYTES_MAX``.  Both decay sums
run without the coupling amplitudes, which multiply the results afterwards,
so the normalized curves stay exact when (xi + 4 b0)^2 underflows.  A
negative eigenvalue of D(q), or a vanishing branch frequency with finite
coupling, makes :func:`build_phonon_model` raise
:class:`UnstableCrystalError`, an ``ArithmeticError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import require_memory
from .hamiltonian import ZETA3, _require_couplings
from .lattice import Lattice, MomentumGrid, _torus_sums, build_lattice, momentum_grid, relative_sites
from .sin2 import _SLICE_BYTES, _sin2_sum
from .spinwave import PERTURBATION_FLAG_LEVEL

__all__ = [
    "PhononModel",
    "PhononDecay",
    "UnstableCrystalError",
    "build_phonon_model",
    "sound_speeds",
    "gamma1_time",
    "gamma1_fgr",
    "gamma2",
]

_SUPPORTED = ("chain", "triangular")

# the sides of gamma1_fgr's refinement grids, in units of the model's side
_FGR_GRID_FACTORS = (1, 2)


class UnstableCrystalError(ArithmeticError):
    """The phonon spectrum is numerically unusable.

    Raised for a negative dynamical-matrix eigenvalue (no stable crystal) and
    for a branch whose frequency vanishes while its coupling stays finite.
    """


def _lattice_sums(lattice: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D(q) = sum_j 2 K(r_j) sin^2(q.r_j / 2) (M, D, D), the kappa = 1
    spin-wave band sum_j (4 / |r_j|^3) sin^2(q.r_j / 2) (M,) and the coupling
    force sum_j sin(q.r_j) r_j / |r_j|^5 (M, D) at every grid momentum: one
    :func:`~dipolarray.lattice._torus_sums` call, one weight column per
    matrix entry and the band, and the force as the sine partner."""
    rel = relative_sites(lattice)
    rn = np.linalg.norm(rel, axis=1)
    nhat = rel / rn[:, None]
    dim = rel.shape[1]
    pair = 5.0 * nhat[:, :, None] * nhat[:, None, :] - np.eye(dim)  # (N-1, D, D)
    c = np.column_stack([(6.0 / rn**5)[:, None] * pair.reshape(len(rel), dim * dim), 4.0 / rn**3])
    sums, force = _torus_sums(lattice, c, rel / (rn**5)[:, None])
    return sums[:, :-1].reshape(-1, dim, dim), sums[:, -1], force


@dataclass
class PhononModel:
    """Phonon branches, polarizations, and coupling weights on the BZ grid.

    Every table is indexed by grid point, q = 0 first.  ``freqs[iq, lam]``
    is the dimensionless f_lambda(q); multiply by u_dd/sqrt(beta) for mode
    energies.  ``g[iq, lam]`` is the coupling weight g_lambda(q), 0 at q = 0.
    ``spin_energies`` is the spin-wave dispersion on the same grid in units
    of kappa (already multiplied by kappa).  kappa and u_dd must be given in
    the same energy unit.
    """

    lattice: Lattice
    beta: float
    u_dd: float
    kappa: float
    grid: MomentumGrid
    freqs: np.ndarray = field(repr=False)
    pols: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    spin_energies: np.ndarray = field(repr=False)

    @property
    def n_branches(self) -> int:
        return self.freqs.shape[1]

    @property
    def phonon_energy_unit(self) -> float:
        return self.u_dd / np.sqrt(self.beta)


def build_phonon_model(lattice: Lattice, beta: float, u_dd: float, kappa: float) -> PhononModel:
    """Diagonalize the dynamical matrix and tabulate the couplings on the full grid.

    D(q), the spin-wave band and the coupling force come from one Fourier
    transform (:func:`_lattice_sums`).  Raises
    :class:`~dipolarray.basis.ResourceLimitError` when the per-momentum
    tables would exceed the memory budget ``basis.MEMORY_BYTES_MAX``.
    """
    if not (beta > 0 and u_dd > 0 and kappa > 0):
        raise ValueError("beta, u_dd and kappa must be positive")
    if lattice.kind not in _SUPPORTED:
        raise ValueError(f"unsupported crystal kind {lattice.kind!r}; expected {_SUPPORTED}")
    _require_couplings(kappa)
    # the per-momentum tables and the transform's; the tracemalloc peak of a
    # first call was 242 (chain) and 258 (triangular) bytes per site and
    # dimension at N = 4096 and 8100, and 346 and 450 at N = 1024
    n = lattice.n_sites
    require_memory(512 * lattice.dimension * n, "phonon tables need", f"for {n} sites")
    grid = momentum_grid(lattice)
    dyn, band, force = _lattice_sums(lattice)
    lam, vec = np.linalg.eigh(dyn)
    unstable = np.flatnonzero(lam.min(axis=1) < -1e-10)
    if len(unstable):
        i = unstable[0]
        raise UnstableCrystalError(
            f"unstable crystal mode at q = {grid.kvecs[i]}: eigenvalue {lam[i].min():.3e}"
        )
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    pols = vec.transpose(0, 2, 1)  # pols[i, lam] is the polarization vector of branch lam
    g = np.zeros_like(freqs)  # q = 0: soft acoustic modes, uncoupled
    g[1:] = _coupling_weights(force[1:], grid.kvecs[1:], pols[1:], freqs[1:])
    return PhononModel(lattice=lattice, beta=beta, u_dd=u_dd, kappa=kappa, grid=grid, freqs=freqs,
                       pols=pols, g=g, spin_energies=kappa * band)


def sound_speeds(model: PhononModel) -> list[float]:
    """Per-branch sound speed: mean f_lambda(q) / |q| over the smallest 10% of |q| > 0.

    The cut is the linearly interpolated 10% quantile of the sorted |q| > 0
    (what ``np.quantile`` returns, without importing ``numpy.ma``).
    """
    qn = np.linalg.norm(model.grid.kvecs, axis=1)
    ranked = np.sort(qn[qn > 0])
    at = 0.1 * (len(ranked) - 1)
    lo = int(at)
    cut = ranked[lo] + (ranked[min(lo + 1, len(ranked) - 1)] - ranked[lo]) * (at - lo)
    sel = (qn > 0) & (qn <= cut + 1e-12)
    return [float(np.mean(model.freqs[sel, lam] / qn[sel])) for lam in range(model.n_branches)]


def _coupling_weights(force: np.ndarray, q: np.ndarray, pols: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-branch coupling weights g_lambda from the coupling force (m, D) at
    momenta ``q`` (m, D), with polarizations ``pols`` (m, branches, D) and
    frequencies ``f`` (m, branches).

    A branch of vanishing frequency gets weight 0; it must also decouple.
    """
    t = np.einsum("mbd,md->mb", pols, force)
    soft = f < 1e-12
    coupled = soft & (np.abs(t) > 1e-12)
    if coupled.any():
        i = np.argwhere(coupled)[0, 0]
        raise UnstableCrystalError(f"vanishing branch frequency at q = {q[i]} with finite coupling")
    return np.where(soft, 0.0, 9.0 * t**2 / np.where(soft, 1.0, f))


@dataclass
class PhononDecay:
    """Decay probability of a collective excitation, raw and normalized by
    (xi + 4 b0)^2 / sqrt(beta) (0 when xi + 4 b0 == 0)."""

    times: np.ndarray
    decay: np.ndarray
    decay_normalized: np.ndarray
    beyond_perturbative: bool = False
    decay_dominant: np.ndarray | None = None
    correction_ratio: float | None = None


def _occupation(w: np.ndarray, kbt: float) -> np.ndarray:
    if kbt <= 0.0:
        return np.zeros_like(w)
    with np.errstate(over="ignore"):
        x = w / kbt
        return np.where(x < 700.0, 1.0 / np.expm1(np.clip(x, 1e-300, 700.0)), 0.0)


def _decay_sum(parts, kbt_abs: float, times: np.ndarray) -> np.ndarray:
    """2 * sum_modes weights * [(n+1) I(w_ph + w_sp) + n I(w_ph - w_sp)],
    I(omega) = (1 - cos(omega t)) / omega^2 = 2 sin^2(omega t / 2) / omega^2,
    over the modes of every (weights, w_ph, w_sp) triple of ``parts``, which
    may be a generator.

    ``w_sp`` broadcasts against ``w_ph``.  The emission and absorption modes
    of a triple form one mode list, and each mode's prefactor c = 2 w /
    omega^2 is built once, so the (time x mode) work is sin^2(omega t / 2)
    contracted with c.  Modes with |omega| t_max < 1e-6 take the limit I =
    t^2 / 2 (exact to about 1e-13) as one weight sum per triple, which keeps
    c finite at omega = 0, a resonance or a soft mode.  The rest is
    :func:`~dipolarray.sin2._sin2_sum` with h = omega / 2, which sums
    the triples as they come, so memory does not grow with the number of
    modes.
    """
    t_max = np.abs(times).max(initial=0.0)
    limit = []  # the weight sums of the t^2 / 2 modes, triple by triple

    def modes():
        for weights, w_ph, w_sp in parts:
            wt = weights.ravel()
            nocc = _occupation(w_ph, kbt_abs).ravel()
            omega = np.concatenate([(w_ph + w_sp).ravel(), (w_ph - w_sp).ravel()])
            w = np.concatenate([wt * (nocc + 1.0), wt * nocc])
            small = np.abs(omega) * t_max < 1e-6
            limit.append(w[small].sum())
            omega, w = omega[~small], w[~small]
            yield 2.0 * w / omega**2, omega / 2.0

    acc = _sin2_sum(modes(), times)
    return 2.0 * (times**2 / 2.0 * sum(limit) + acc)


def gamma1_time(model: PhononModel, xi: float, b0: float, temperature: float, times) -> PhononDecay:
    """Time-resolved decay probability of the one-excitation collective state.

    ``temperature`` is k_B T in units of u_dd/sqrt(beta); xi and b0 share the
    energy unit of kappa and u_dd; times are hbar over that unit.  The
    normalized curve is summed without the amplitude (xi + 4 b0)^2, so it does
    not depend on (xi, b0); it is 0 when xi + 4 b0 == 0.  The sum runs over
    one phonon q per pair +-q, weighted 2 (1 when q = -q), since D(-q) = D(q)
    gives both the same term.
    """
    times = np.asarray(times, dtype=float)
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    reps, mult = model.grid.pair_fold()
    kbt = temperature * model.phonon_energy_unit
    amp = xi + 4.0 * b0
    norm = _decay_sum([(mult[:, None] * model.g[reps], model.freqs[reps] * model.phonon_energy_unit,
                        model.spin_energies[reps, None])], kbt, times) / (2.0 * model.lattice.n_sites)
    dec = norm / np.sqrt(model.beta) * amp * amp
    return PhononDecay(
        times=times,
        decay=dec,
        decay_normalized=norm if amp != 0 else np.zeros_like(norm),
        beyond_perturbative=bool(dec.max(initial=0.0) > PERTURBATION_FLAG_LEVEL),
    )


def gamma2(model: PhononModel, xi: float, b0: float, temperature: float, times) -> PhononDecay:
    """Two-excitation decay: dominant channels plus the 4 xi / N correction.

    The dominant part (one of the two spin waves stays at k = 0) is exactly
    twice the one-excitation result.  The full sum runs over momentum pairs
    (k, k') != (0, 0) with the phonon pinned at q = -(k + k'), keeping the
    -(4 xi / N) amplitude and its interference with the dominant one; pairs
    with k + k' = 0 are dropped with the q = 0 mode.  Every term is symmetric
    under k <-> k', and (k, k') and (-k, -k') give the same term since
    D(-q) = D(q); so one pair k <= k' per inversion orbit is enumerated,
    weighted by the orbit size (2, or 1 when k and k' are both their own
    negatives) and by 2 for k != k'.  The amplitude is
    (xi + 4 b0) - 4 xi / N on the edge pairs (k = 0) and -4 xi / N on the
    others; each set is summed without it.

    The pairs are enumerated in blocks of k rows whose tables fit
    ``sin2._SLICE_BYTES`` (the edge row k = 0 alone, then the rest) and
    summed by the kernel as they come, so no table grows as N^2.  Raises
    :class:`~dipolarray.basis.ResourceLimitError` when the per-momentum
    tables would exceed the memory budget ``basis.MEMORY_BYTES_MAX``.
    """
    times = np.asarray(times, dtype=float)
    grid = model.grid
    # per momentum and branch, with one k row per pair block: the
    # tracemalloc peak was at most 292 (chain) and 233 (triangular) bytes
    # (N = 1024...8192); a larger block and the kernel's one slice add about
    # sin2._SLICE_BYTES each
    require_memory(704 * model.n_branches * grid.n_points, "gamma2 tables need",
                   f"for {grid.n_points} momenta and {model.n_branches} branches")
    dominant = 2.0 * gamma1_time(model, xi, b0, temperature, times).decay
    w_ph = model.freqs * model.phonon_energy_unit
    n = model.lattice.n_sites
    kbt = temperature * model.phonon_energy_unit
    # k rows per pair block: 8 bytes a word, the integer tables of
    # _momentum_pairs, then float tables per branch for the half that is kept
    rows = max(1, _SLICE_BYTES // (8 * (7 + 4 * model.n_branches) * grid.n_points))

    def parts(first: int, stop: int):
        for k in range(first, stop, rows):
            ik, ikp, iq, orbit = _momentum_pairs(grid, slice(k, min(k + rows, stop)))
            weights = (np.where(ik == ikp, 1.0, 2.0) * orbit)[:, None] * model.g[iq]
            yield weights, w_ph[iq], (model.spin_energies[ik] + model.spin_energies[ikp])[:, None]

    edge, bulk = (_decay_sum(parts(first, stop), kbt, times) / (2.0 * n)
                  for first, stop in ((0, 1), (1, grid.n_points)))
    amp_dom = xi + 4.0 * b0
    amp_edge, amp_bulk = amp_dom - 4.0 * xi / n, -4.0 * xi / n
    # the amplitudes are scaled by a power of two, so the sum stays in the
    # normal range and is rounded once when scaled back
    e = np.frexp(max(abs(amp_edge), abs(amp_bulk)))[1]
    full = np.ldexp((np.ldexp(amp_edge, -e) ** 2 * edge + np.ldexp(amp_bulk, -e) ** 2 * bulk)
                    / np.sqrt(model.beta), 2 * e)
    if amp_dom != 0:
        norm = (amp_edge / amp_dom) ** 2 * edge + (amp_bulk / amp_dom) ** 2 * bulk
    else:
        norm = np.zeros_like(full)
    corr = float(np.max(np.abs(full - dominant)) / max(np.max(dominant), 1e-300))
    return PhononDecay(
        times=times,
        decay=full,
        decay_normalized=norm,
        beyond_perturbative=bool(full.max(initial=0.0) > PERTURBATION_FLAG_LEVEL),
        decay_dominant=dominant,
        correction_ratio=corr,
    )


def _momentum_pairs(grid: MomentumGrid,
                    rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid indices (k, k', q) of the pairs k <= k' with q = -(k + k') != 0,
    one per inversion orbit {(k, k'), (-k, -k')}, k-major, and the orbit
    sizes, for the k of ``rows``.

    The representative is the orbit's smaller pair in k-major order.  An
    orbit has size 1 only when k and k' are both their own negatives (k' = -k
    would put q at 0).
    """
    n = grid.n_points
    ks = np.arange(n)[rows]
    at, ikp = np.nonzero(np.arange(n) >= ks[:, None])
    ik = ks[at]
    iq = grid.index(-(grid.coords[ik] + grid.coords[ikp]))
    neg = grid.index(-grid.coords)
    nk, nkp = neg[ik], neg[ikp]
    code = ik * n + ikp
    code_neg = np.minimum(nk, nkp) * n + np.maximum(nk, nkp)
    keep = (iq != 0) & (code <= code_neg)
    return ik[keep], ikp[keep], iq[keep], np.where(code[keep] == code_neg[keep], 1, 2)


def gamma1_fgr(model: PhononModel, xi: float, b0: float, temperature: float) -> dict:
    """Golden-rule rate by Gaussian-broadened resonance quadrature.

    Deltas are broadened with a per-mode width of twice the local spacing of
    the resonance variable; the rate is reported on the model's momentum grid
    and on the grid of twice its side (``_FGR_GRID_FACTORS``) as a refinement
    study.  In 1D the closed-form small-q limit

        gamma ~ (xi + 4 b0)^2 sqrt(3 zeta(3)) sqrt(beta) k_B T / (4 u_dd^2)

    is reported for comparison.
    """
    lat = model.lattice
    side = model.grid.side
    rates = []
    for fac in _FGR_GRID_FACTORS:
        if fac == 1:  # the model's own grid
            m = model
        else:
            big = build_lattice(lat.kind, (side * fac) ** lat.dimension, boundary="periodic")
            m = build_phonon_model(big, model.beta, model.u_dd, model.kappa)
        rates.append(_fgr_rate(m, xi, b0, temperature))
    out = {
        "rates": rates,
        "grid_factors": list(_FGR_GRID_FACTORS),
        "rate": rates[-1],
        "resonant": rates[-1] > 0.0,
    }
    if lat.dimension == 1:
        kbt = temperature * model.phonon_energy_unit
        out["asymptote_1d"] = float(
            (xi + 4.0 * b0) ** 2 * np.sqrt(3.0 * ZETA3) * np.sqrt(model.beta) * kbt
            / (4.0 * model.u_dd**2)
        )
    return out


def _fgr_rate(model: PhononModel, xi: float, b0: float, temperature: float) -> float:
    # the q != 0 rows
    g, w_sp = model.g[1:], model.spin_energies[1:]
    w_ph = model.freqs[1:] * model.phonon_energy_unit
    kbt = temperature * model.phonon_energy_unit
    n = model.lattice.n_sites
    dim = model.lattice.dimension
    # BZ volume element per mode in (ka) units; the zone volume is the
    # reciprocal-cell determinant (non-square for the triangular lattice)
    dvol = abs(np.linalg.det(model.grid.reciprocal_vectors)) / n
    nocc = _occupation(w_ph, kbt)
    total = 0.0
    for lam in range(model.n_branches):
        for sign, wt in ((-1.0, nocc[:, lam] + 1.0), (+1.0, nocc[:, lam])):
            om = w_ph[:, lam] + sign * w_sp
            sig = 2.0 * _local_spacing(model, om)
            delta = np.exp(-(om**2) / (2.0 * sig**2)) / (sig * np.sqrt(2.0 * np.pi))
            total += float((g[:, lam] * wt * delta).sum() * dvol / (2.0 * np.pi) ** dim)
    return np.pi * (xi + 4.0 * b0) ** 2 / np.sqrt(model.beta) * total


def _local_spacing(model: PhononModel, values: np.ndarray) -> np.ndarray:
    """Per-mode spacing of `values` (defined on the q != 0 grid) along the
    grid axes; floor avoids zero widths at symmetry points."""
    full = np.concatenate([values[:1], values])  # re-insert a stand-in for q=0
    if model.lattice.dimension == 1:
        d = np.abs(np.diff(full, append=full[-1]))
        d2 = np.abs(np.diff(full, prepend=full[0]))
        sp = np.maximum(d, d2)[1:]
    else:
        side = model.grid.side
        grid = full.reshape(side, side)
        dx = np.abs(np.diff(grid, axis=0, append=grid[:1, :]))
        dy = np.abs(np.diff(grid, axis=1, append=grid[:, :1]))
        sp = np.maximum(dx, dy).ravel()[1:]
    floor = max(values.max() * 1e-8, 1e-300)
    return np.maximum(sp, floor)
