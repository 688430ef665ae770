"""Unitary sector evolution, collective-state projections, nonlinear phase,
and gate-time extraction.

Times are in units of hbar/kappa.  Evolution is exact and has one engine.
Sector blocks of a :class:`~dipolarray.hamiltonian.SpinHamiltonian` are CSR;
:func:`evolve` also accepts a dense array or any scipy sparse matrix and
converts it to CSR first.  The engine partitions the basis into the coarsest
*equitable partition* that keeps the initial state constant on every cell:
colour refinement (1-WL) seeded with the initial amplitudes and the diagonal
energies, splitting cells by their row sums into every other cell until no
cell splits.  The normalized cell indicators P span an invariant subspace
that contains the initial state, so the k x k quotient Hr = P^T H P carries
the whole dynamics; it is diagonalized once, and a projection on the initial
state is the spectral sum C(t) = sum_j w_j exp(-i lambda_j t).  The
symmetric (Dicke) states reduce the two-excitation sector from C(N, 2) to a
few dozen cells on periodic lattices; a state without symmetry gives the
discrete partition, i.e. dense diagonalization of the full block.  Every
evolver checks the invariance residual ||H P - P Hr|| and raises
:class:`InvarianceError` when it exceeds ``RESIDUAL_TOL``.

Phase extraction: with X = C0* C2 and Y = (C0* C1)^2, the complex combination
(X + Y)/2 factors as exp(i(arg X + arg Y)/2) * [ (|X|+|Y|) cos(rel/2)
+ i(|X|-|Y|) sin(rel/2) ] / 2 with rel = arg X - arg Y.  The signed
co-rotating real part

    c(t) = (|X| + |Y|)/2 * cos(rel(t)/2)

equals cos(Theta/2) exactly for phase-only dynamics and crosses zero exactly
at the phase anti-alignment that implements the gate.  Theta(t) is recovered
from arccos(c) with the branch chosen by continuity (rel is unwrapped on a
grid dense enough that no step jumps by more than pi/2, auto-refining).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import dicke_state
from .hamiltonian import SpinHamiltonian

__all__ = [
    "Trajectory",
    "GateNotReached",
    "InvarianceError",
    "evolve",
    "nonlinear_phase",
    "compute_trajectory",
    "gate_time",
]

# refinement treats values within this fraction of max |H_ij| (of max |psi0|
# for amplitudes) as equal; roundoff in the row sums is ~1e-15 of it
REFINE_TOL = 1e-12
# largest accepted ||H P - P Hr||_F, relative to max |H_ij|
RESIDUAL_TOL = 1e-10
MAX_THETA_STEP = np.pi / 2
MAX_REFINEMENTS = 6
CLIP_WARN_EXCESS = 1e-6


class GateNotReached(RuntimeError):
    """No zero of cos(Theta/2) inside the evolved time window."""


class InvarianceError(ArithmeticError):
    """The quotient subspace of a block is not invariant to working precision."""


# ---------------------------------------------------------------------------
# evolution engine
# ---------------------------------------------------------------------------

def _levels(x: np.ndarray, tol: float) -> np.ndarray:
    """Integer labels of ``x``, equal for values chained within ``tol``."""
    if np.iscomplexobj(x):
        re, im = _levels(x.real, tol), _levels(x.imag, tol)
        return re * (im.max(initial=0) + 1) + im
    xs = np.sort(x)
    # upper end of every chain of values no more than tol apart
    tops = xs[np.append(np.diff(xs) > tol, True)] if len(xs) else xs
    return np.searchsorted(tops, x)


def _cell_ids(*columns: np.ndarray) -> np.ndarray:
    """Cell index per row: rows with equal integer keys share a cell."""
    keys = np.column_stack(columns)
    return np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)


def _indicator(cells: np.ndarray, weight: np.ndarray) -> sp.csr_array:
    """dim x k matrix with ``weight[i]`` at (i, cells[i]); 32-bit indices
    keep its products with a block at the block's index width."""
    dim = len(cells)
    return sp.csr_array(
        (weight, cells.astype(np.int32), np.arange(dim + 1, dtype=np.int32)),
        shape=(dim, int(cells.max()) + 1),
    )


def _row_keys(h: sp.csr_array, cells: np.ndarray, tol: float) -> np.ndarray:
    """One integer row per basis state: its cell, then the (cell, level)
    codes of its nonzero row sums into every cell, padded with -1.

    The sums stay sparse, so the key is as wide as the widest row of ``h``.
    """
    dim = len(cells)
    sums = h @ _indicator(cells, np.ones(dim))
    sums.data[np.abs(sums.data) <= tol] = 0.0
    sums.eliminate_zeros()
    sums.sort_indices()
    level = _levels(sums.data, tol)
    code = sums.indices.astype(np.int64) * (level.max(initial=0) + 1) + level
    count = np.diff(sums.indptr)
    row = np.repeat(np.arange(dim), count)
    slot = np.arange(len(code)) - sums.indptr[row]
    keys = np.full((dim, int(count.max(initial=0)) + 1), -1, dtype=np.int64)
    keys[:, 0] = cells
    keys[row, 1 + slot] = code
    return keys


def _equitable_partition(h: sp.csr_array, psi0: np.ndarray, tol: float) -> np.ndarray:
    """Coarsest equitable partition of ``h`` on which ``psi0`` is constant.

    Cells start from equal (amplitude, diagonal) pairs and split by the row
    sums of ``h`` into every cell until their number stops growing.
    """
    dim = h.shape[0]
    amp_tol = REFINE_TOL * float(np.abs(psi0).max(initial=0.0))
    cells = _cell_ids(_levels(psi0, amp_tol), _levels(h.diagonal(), tol))
    k = int(cells.max()) + 1
    while k < dim:
        cells = _cell_ids(_row_keys(h, cells, tol))
        grown = int(cells.max()) + 1
        if grown == k:
            break
        k = grown
    return cells


class _SectorEvolver:
    """Exact evolution of one Hermitian block from one initial state.

    ``dim`` is the reduced (quotient) dimension and ``residual`` the
    invariance residual ||H P - P Hr||_F relative to max |H_ij|.
    """

    def __init__(self, block, psi0: np.ndarray):
        psi0 = np.asarray(psi0, dtype=complex)
        h = sp.csr_array(block)
        scale = float(np.abs(h.data).max(initial=0.0)) or 1.0
        self.cells = _equitable_partition(h, psi0, REFINE_TOL * scale)
        sizes = np.bincount(self.cells)
        self.dim = len(sizes)
        self._weight = 1.0 / np.sqrt(sizes)[self.cells]
        p = _indicator(self.cells, self._weight)
        hp = h @ p
        hr = p.T @ hp
        self.residual = float(np.linalg.norm((hp - p @ hr).data)) / scale
        if not self.residual <= RESIDUAL_TOL:
            raise InvarianceError(
                f"quotient of dimension {self.dim} is not invariant: "
                f"residual {self.residual:.2e} > {RESIDUAL_TOL:.0e}"
            )
        self._lam, self._vec = np.linalg.eigh(hr.toarray())
        self._coef = self._vec.conj().T @ (p.T @ psi0)
        w = np.abs(self._coef) ** 2
        self._w = w / w.sum()

    def states(self, times: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * np.outer(times, self._lam))
        reduced = (phases * self._coef) @ self._vec.T
        return reduced[:, self.cells] * self._weight

    def projections(self, times: np.ndarray) -> np.ndarray:
        """<psi0|psi(t)> with the weights summing to one; exactly 1 at t = 0."""
        return 1.0 + np.expm1(-1j * np.outer(times, self._lam)) @ self._w


def evolve(block, psi0: np.ndarray, times) -> np.ndarray:
    """States exp(-1j*H*t) psi0 at the requested times, shape (T, dim).

    ``block`` is a Hermitian dense array or scipy sparse matrix; ``times``
    must be non-decreasing and start at 0; psi0 must be normalized.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"initial state not normalized (|psi| = {nrm})")
    return _SectorEvolver(block, psi0).states(times)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled collective-state projections and the extracted nonlinear phase.

    ``c0, c1, c2`` are the projections C_n(t) = <n|psi_n(t)> normalized so
    C_n(0) = 1; ``fidelity`` is |C2|^2; ``cos_half`` is the signed
    cos(Theta/2); ``theta`` is the unwrapped nonlinear phase.  ``gate_time``
    and ``gate_method`` ("bisection" or "interpolation") are set by
    :func:`gate_time`.
    """

    times: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    fidelity: np.ndarray
    theta: np.ndarray
    cos_half: np.ndarray
    gate_time: float | None = None
    gate_method: str | None = None
    _dynamics: "DickeDynamics | None" = field(default=None, repr=False)

    @property
    def diagnostics(self) -> dict:
        """Deterministic record of how this trajectory was computed: sector
        and quotient dimensions, the largest invariance residual, and whether
        :func:`gate_time` bisected or fell back to linear interpolation."""
        dyn = self._dynamics
        return {
            "sector_dims": [dyn.ham.dim(n) for n in (0, 1, 2)] if dyn else None,
            "reduced_dims": dyn.reduced_dims if dyn else None,
            "invariance_residual": dyn.residual if dyn else None,
            "gate_time_method": self.gate_method,
        }


class DickeDynamics:
    """Evolves the three symmetric sector states of one Hamiltonian."""

    def __init__(self, ham: SpinHamiltonian):
        for n in (0, 1, 2):
            if n not in ham.blocks:
                raise ValueError(f"Hamiltonian is missing sector {n}")
        self.ham = ham
        self._evolvers = [
            _SectorEvolver(ham.blocks[n], dicke_state(ham.sectors[n]))
            for n in (0, 1, 2)
        ]

    @property
    def reduced_dims(self) -> list[int]:
        """Quotient dimension of sectors 0, 1, 2."""
        return [ev.dim for ev in self._evolvers]

    @property
    def residual(self) -> float:
        """Largest invariance residual of the three sectors."""
        return max(ev.residual for ev in self._evolvers)

    def projections(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        return tuple(ev.projections(times) for ev in self._evolvers)

    def projections_at(self, t: float) -> tuple[complex, complex, complex]:
        return tuple(complex(c[0]) for c in self.projections(np.array([t])))


def compute_trajectory(ham: SpinHamiltonian, times, auto_refine: bool = True) -> Trajectory:
    """Projections plus nonlinear phase.

    With ``auto_refine`` the grid is densified until the phase moves by at
    most pi/2 per step AND a doubled grid reproduces the same unwrapped phase
    at shared points; a large per-step change can alias into an apparently
    small one, so the confirmation doubling is what actually catches
    undersampling.  The returned trajectory uses the finest grid evaluated.
    """
    times = np.asarray(times, dtype=float)
    dyn = DickeDynamics(ham)
    c0, c1, c2 = dyn.projections(times)
    theta, cos_half, max_step = _extract_phase(c0, c1, c2)
    if auto_refine:
        confirmed = False
        for _ in range(MAX_REFINEMENTS):
            dense_times = _densify(times)
            d0, d1, d2 = dyn.projections(dense_times)
            d_theta, d_cos, d_step = _extract_phase(d0, d1, d2)
            consistent = (
                max_step <= MAX_THETA_STEP
                and np.abs(d_theta[::2] - theta).max() <= MAX_THETA_STEP
            )
            times, c0, c1, c2 = dense_times, d0, d1, d2
            theta, cos_half, max_step = d_theta, d_cos, d_step
            if consistent:
                confirmed = True
                break
        if not confirmed and max_step > MAX_THETA_STEP:
            warnings.warn(
                "phase-step bound not reached within the refinement budget",
                RuntimeWarning,
                stacklevel=2,
            )
    traj = Trajectory(
        times=times,
        c0=c0,
        c1=c1,
        c2=c2,
        fidelity=np.abs(c2) ** 2,
        theta=theta,
        cos_half=cos_half,
        _dynamics=dyn,
    )
    return traj


def _densify(times: np.ndarray) -> np.ndarray:
    mid = 0.5 * (times[:-1] + times[1:])
    return np.sort(np.concatenate([times, mid]))


def _extract_phase(c0, c1, c2):
    """Unwrapped Theta, signed cos(Theta/2), max phase step."""
    x = np.conj(c0) * c2
    y = (np.conj(c0) * c1) ** 2
    rel = np.unwrap(np.angle(x) - np.angle(y))
    rel = rel - rel[0]  # Theta(0) = 0
    cos_half = 0.5 * (np.abs(x) + np.abs(y)) * np.cos(rel / 2.0)
    excess = np.max(cos_half) - 1.0
    if excess > CLIP_WARN_EXCESS:
        warnings.warn(
            f"|cos(Theta/2)| exceeds 1 by {excess:.2e}; phase no longer well defined",
            RuntimeWarning,
            stacklevel=3,
        )
    phi = np.arccos(np.clip(cos_half, -1.0, 1.0))  # in [0, pi]
    # branch selection: Theta/2 in {2 pi m +/- phi}; rel/2 is the continuity guide
    m = np.round((rel / 2.0 - phi) / (2.0 * np.pi))
    cand = np.stack([
        2.0 * np.pi * m + phi,
        2.0 * np.pi * (m + 1) - phi,
        2.0 * np.pi * m - phi,
        2.0 * np.pi * (m - 1) + phi,
    ])
    pick = np.argmin(np.abs(cand - rel / 2.0), axis=0)
    theta = 2.0 * cand[pick, np.arange(len(phi))]
    # the magnitude data fix Theta only up to a global sign; report the
    # branch that grows positive out of Theta(0) = 0 (threshold well above
    # the arccos roundoff floor)
    scale = float(np.max(np.abs(theta)))
    nz = np.nonzero(np.abs(theta) > max(1e-8, 1e-5 * scale))[0]
    if len(nz) and theta[nz[0]] < 0:
        theta = -theta
    max_step = float(np.max(np.abs(np.diff(theta)))) if len(theta) > 1 else 0.0
    return theta, cos_half, max_step


def nonlinear_phase(trajectory: Trajectory) -> np.ndarray:
    """Unwrapped nonlinear phase of an existing trajectory."""
    theta, _, _ = _extract_phase(trajectory.c0, trajectory.c1, trajectory.c2)
    return theta


# ---------------------------------------------------------------------------
# gate time
# ---------------------------------------------------------------------------

def gate_time(trajectory: Trajectory, rel_tol: float = 1e-4) -> float:
    """First zero of cos(Theta/2): sign-change bracket plus bisection.

    Raises :class:`GateNotReached` when the signed cosine never changes sign
    inside the trajectory window.
    """
    c = trajectory.cos_half
    s = np.sign(c)
    flips = np.where(s[:-1] * s[1:] < 0)[0]
    if len(flips) == 0:
        raise GateNotReached("no zero of cos(Theta/2) in the evolved window")
    i = int(flips[0])
    t_lo, t_hi = float(trajectory.times[i]), float(trajectory.times[i + 1])
    dyn = trajectory._dynamics
    if dyn is not None:
        z_ref = _combination_at(dyn, t_lo)
        ref = z_ref / abs(z_ref)

        def signed(t: float) -> float:
            z = _combination_at(dyn, t)
            return float(np.real(z * np.conj(ref)))

        f_lo = signed(t_lo)
        f_hi = signed(t_hi)
    if dyn is None or f_lo * f_hi > 0:
        # no evaluator attached, or the re-evaluated bracket disagrees with
        # the grid: trust the grid and interpolate linearly
        c_lo, c_hi = float(c[i]), float(c[i + 1])
        tg = t_lo + (t_hi - t_lo) * c_lo / (c_lo - c_hi)
        trajectory.gate_method = "interpolation"
    else:
        while (t_hi - t_lo) > rel_tol * max(t_hi, 1e-300):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = signed(t_mid)
            if f_lo * f_mid <= 0:
                t_hi, f_hi = t_mid, f_mid
            else:
                t_lo, f_lo = t_mid, f_mid
        tg = 0.5 * (t_lo + t_hi)
        trajectory.gate_method = "bisection"
    trajectory.gate_time = tg
    return tg


def _combination_at(dyn: DickeDynamics, t: float) -> complex:
    c0, c1, c2 = dyn.projections_at(t)
    return 0.5 * (np.conj(c0) * c2 + (np.conj(c0) * c1) ** 2)
