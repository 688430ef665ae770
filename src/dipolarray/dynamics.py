"""Unitary sector evolution, collective-state projections, nonlinear phase,
and gate-time extraction.

Times are in units of hbar/kappa.  Evolution is exact and has one engine,
on numpy alone, which reads a dense Hermitian block; :func:`evolve` copies
anything with ``toarray()`` (an assembled sector block, a scipy sparse
matrix) dense first.  The engine partitions the basis into the coarsest
*equitable partition* that keeps the initial state constant on every cell
by colour refinement (1-WL), seeded with equal initial amplitudes and
diagonal energies.  With S[i, c] the sum of row i of H into cell c and P
the cell indicators weighted 1/sqrt|c|, each round takes the quotient from
the first row f(a), the lowest, of every cell a, Hr[a, c] = sqrt|a|
S[f(a), c] / sqrt|c|, in one pass over ascending slices of rows whose
rows, keys and (rows x k) sums each fit ``_SLICE_BYTES``: a ``bincount``
of each row in column order gives its row of S, and the deviation D[i, c]
= (S[i, c] - S[f(a), c]) / sqrt|c| with a the cell of i.  D is exactly
H P - P Hr, so the partition is equitable when every row sum is within the
refinement tolerance of its cell's first row, and ||D||_F is the
invariance residual; since P^T D = P^T H P - Hr, the Hermitian matrix
``eigh`` reads from the lower triangle of Hr lies within 2 ||D||_F of
P^T H P.  Otherwise cells split by the deviations beyond the tolerance,
which the pass keeps (two rows of a cell have equal sums into every cell
exactly when they deviate equally from its first row), so every round
reads the block once and every split adds a cell, until the partition is
equitable; the discrete one always is.  P then spans an invariant subspace
that contains the initial state, so the k x k quotient Hr carries the
whole dynamics; it is diagonalized once, and a projection on the initial
state is the spectral sum C(t) = sum_j w_j exp(-i lambda_j t), one sin^2
kernel call for all sectors.  A state without symmetry gives the discrete
partition, i.e. dense diagonalization of the full block.

:func:`compute_trajectory` takes each sector's block and initial state from
:meth:`~dipolarray.hamiltonian.SpinHamiltonian.dicke_sectors`: the Dicke
state on the orbits of the lattice's symmetry group, translations on a
torus (about N/2 pair orbits, which refinement merges into point-group
cells in 2D) and the point group of an open patch (about C(N, 2)/|G|).  No
sector block is assembled, and the seed is often equitable already.

A residual above ``RESIDUAL_TOL`` raises :class:`InvarianceError`, and a
quotient whose dense eigh would need about 40 k^2 bytes at dimension k, more
than the memory budget ``basis.MEMORY_BYTES_MAX``, raises
:class:`~dipolarray.basis.ResourceLimitError` in the first round that
reaches it, before that Hr is formed.  A
:class:`Trajectory` keeps lambda and w of sectors 0, 1 and 2, all that
:func:`gate_time` needs off the grid.

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
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .basis import require_memory
from .hamiltonian import SpinHamiltonian
from .sin2 import _sin2_sum

__all__ = [
    "Trajectory",
    "GateNotReached",
    "InvarianceError",
    "evolve",
    "compute_trajectory",
    "gate_time",
]

# refinement treats values within this fraction of max |H_ij| (of max |psi0|
# for amplitudes) as equal; roundoff in the row sums is ~1e-15 of it
REFINE_TOL = 1e-12
# largest accepted ||H P - P Hr||_F, relative to max |H_ij|
RESIDUAL_TOL = 1e-10
# one slice of block rows, keys or (rows x cells) sums of a refinement pass;
# slices this small stay in cache and in the allocator's heap, where 1 MiB
# slices of the gate_large sectors were page-faulted afresh on every call
_SLICE_BYTES = 2**18
# gate_time bisects its bracket down to this fraction of the gate time
GATE_REL_TOL = 1e-4
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


def _cell_sums(rows: np.ndarray, key: np.ndarray, k: int) -> np.ndarray:
    """(len(rows) x k) sums of the dense ``rows`` into every cell, each in
    column order; ``key`` holds cell + k * (row within the slice) for at
    least as many rows."""
    return _bincount(key[:rows.size], rows.ravel(), len(rows) * k).reshape(-1, k)


def _bincount(key: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """np.bincount with real or complex weights, float even with no weights."""
    if not np.iscomplexobj(vals):
        return np.bincount(key, vals, n).astype(float, copy=False)
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(key, vals.real, n)
    out.imag = np.bincount(key, vals.imag, n)
    return out


def _quotient(h: np.ndarray, cells: np.ndarray, root: np.ndarray,
              tol: float) -> tuple[np.ndarray, tuple[np.ndarray, ...], float]:
    """Hr from the first row f(a) of every cell a, the (row, cell, value)
    triples of every row sum more than ``tol`` from its cell's first row,
    and ||D||_F for the deviation D = H P - P Hr.

    With S[i, c] the sum of row i into cell c, Hr[a, c] = root[a] S[f(a), c]
    / root[c] and D[i, c] = (S[i, c] - S[f(a), c]) / root[c], in one pass
    over ascending row slices: a cell's first row comes before its other
    rows.  Every (row, cell) sum runs in column order, so D is exactly zero
    on the first rows and no result depends on the slicing.
    """
    dim, k = len(cells), len(root)
    step = max(1, _SLICE_BYTES // (8 * dim))
    key = (cells + k * np.arange(min(step, dim))[:, None]).ravel()
    first_of = np.full(dim, -1)  # the cell whose first row each row is, or -1
    first_of[np.unique(cells, return_index=True)[1]] = np.arange(k)
    s_first = np.empty((k, k), dtype=np.result_type(h, float))  # [a, c] = S[f(a), c]
    found, sumsq = [], 0.0
    for lo in range(0, dim, step):
        dev = _cell_sums(h[lo:lo + step], key, k)
        at = first_of[lo:lo + step]
        s_first[at[at >= 0]] = dev[at >= 0]
        dev -= s_first[cells[lo:lo + step]]
        # a 2-D np.nonzero took a tenth of the open square N = 64 round
        at = np.flatnonzero(np.abs(dev) > tol)
        found.append((at // k + lo, at % k, dev.reshape(-1)[at]))
        dev /= root
        sumsq += float(np.vdot(dev, dev).real)
    # in place: two k x k temporaries here set the peak of a large block's
    # refinement
    s_first *= root[:, None]
    s_first /= root
    return s_first, tuple(map(np.concatenate, zip(*found))), float(np.sqrt(sumsq))


def _split(cells: np.ndarray, row: np.ndarray, col: np.ndarray, val: np.ndarray, tol: float) -> np.ndarray:
    """``cells`` split by the deviations ``val`` (rows ``row`` ascending, then
    cells ``col``): a row's key is its cell, then the (cell, level) codes of
    its deviations, padded with -1 to the most deviations of one row."""
    level = _levels(val, tol)
    at = np.arange(len(row)) - np.searchsorted(row, row)  # place within the row
    keys = np.full((len(cells), int(at.max(initial=-1)) + 2), -1, dtype=np.int64)
    keys[:, 0] = cells
    keys[row, 1 + at] = col * np.int64(level.max(initial=0) + 1) + level
    return _cell_ids(keys)


class _SectorEvolver:
    """Exact evolution of one Hermitian block from one initial state.

    Refinement and the invariance check share each round's pass, whose
    deviation D = H P - P Hr is the equitability test, the split keys and
    the residual (see the module docstring).  ``dim`` is the reduced
    (quotient) dimension, ``rounds`` the number of splits, ``residual``
    ||D||_F relative to max |H_ij|, and ``lam`` and ``w`` the quotient
    eigenvalues and the initial state's weights on them, from an eigh on
    first use, so the caller may drop the block before it.
    """

    def __init__(self, block, psi0: np.ndarray):
        psi0 = np.asarray(psi0, dtype=np.result_type(psi0, float))
        h = np.asarray(block)
        scale = float(np.abs(h).max(initial=0.0)) or 1.0
        if not scale < np.inf:
            raise ValueError(f"block entries must be finite, got max |H_ij| = {scale}")
        tol = REFINE_TOL * scale
        # cells start from equal (amplitude, diagonal) pairs
        amp_tol = REFINE_TOL * float(np.abs(psi0).max(initial=0.0))
        self.cells = _cell_ids(_levels(psi0, amp_tol), _levels(np.diagonal(h), tol))
        self.rounds = 0
        while True:
            root = np.sqrt(np.bincount(self.cells))
            self.dim = len(root)
            # the dense Hr and its eigh peak at about 40 k^2 bytes; refinement
            # only splits cells, so a quotient too large now stays so
            require_memory(40 * self.dim**2, f"quotient of dimension {self.dim} or more needs",
                           "to diagonalize")
            hr, deviations, dev_norm = _quotient(h, self.cells, root, tol)
            if not len(deviations[0]):
                break
            self.cells = _split(self.cells, *deviations, tol)
            self.rounds += 1
        self.residual = dev_norm / scale
        if not self.residual <= RESIDUAL_TOL:
            raise InvarianceError(f"quotient of dimension {self.dim} is not invariant: "
                                  f"residual {self.residual:.2e} > {RESIDUAL_TOL:.0e}")
        self._weight = 1.0 / root[self.cells]
        self._hr = hr
        self._start = _bincount(self.cells, self._weight * psi0, self.dim)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues, eigenvectors, initial-state coefficients and weights
        of the quotient, diagonalized on first use and Hr then dropped: a
        caller that drops the block first keeps it out of the eigh."""
        lam, vec = np.linalg.eigh(self.__dict__.pop("_hr"))
        coef = vec.conj().T @ self._start
        w = np.abs(coef) ** 2
        return lam, vec, coef, w / w.sum()

    @property
    def lam(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def w(self) -> np.ndarray:
        return self._spectrum[3]

    def states(self, times: np.ndarray) -> np.ndarray:
        lam, vec, coef, _ = self._spectrum
        reduced = (np.exp(-1j * np.outer(times, lam)) * coef) @ vec.T
        return reduced[:, self.cells] * self._weight


def _projections(spectra, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """<psi0|psi(t)> = sum_j w_j e^{-i lambda_j t} of each (eigenvalues,
    weights) spectrum: the carrier e^{-i lambda_d t} of its heaviest
    eigenvalue times 1 + sum_j w_j (e^{-i (lambda_j - lambda_d) t} - 1), that
    is 1 plus the sin^2 sum with weights -2 w at h = (lambda - lambda_d) / 2
    and i times its sine partner with weights -w, one weight column per
    spectrum of one :func:`~dipolarray.sin2._sin2_sum` call.  Each is exactly
    1 at t = 0, and a one-term spectrum exactly its carrier."""
    heaviest = np.array([lam[np.argmax(w)] for lam, w in spectra])
    re, im = _sin2_sum([(np.outer(-2.0 * w, unit), (lam - top) / 2.0, np.outer(-w, unit))
                        for (lam, w), top, unit in zip(spectra, heaviest, np.eye(len(spectra)))], times)
    carrier = np.exp(-1j * np.outer(times, heaviest))
    return tuple(carrier[:, d] * (1.0 + re[:, d] + 1j * im[:, d]) for d in range(len(spectra)))


def _time_grid(times) -> np.ndarray:
    """``times`` as a finite float array; it must start at 0 and never decrease."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    return times


def evolve(block, psi0: np.ndarray, times) -> np.ndarray:
    """States exp(-1j*H*t) psi0 at the requested times, shape (T, dim).

    ``block`` is a Hermitian matrix: a dense array, or anything with
    ``toarray()``, whose dense copy is checked against the memory budget.
    ``psi0`` must be normalized and as long as the block; ``times`` must be
    non-decreasing and start at 0.  A block that differs from its conjugate
    transpose by more than ``REFINE_TOL`` of its largest entry raises
    ``ValueError``.
    """
    times = _time_grid(times)
    if hasattr(block, "toarray"):
        # the copy and the Hermitian check's difference, 8 bytes an entry each
        require_memory(16 * prod(block.shape), "a dense copy of the block needs", f"for shape {block.shape}")
        block = block.toarray()
    h = np.asarray(block)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"block must be a square matrix, got shape {h.shape}")
    psi0 = np.asarray(psi0)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"psi0 has shape {psi0.shape}, block has shape {h.shape}")
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"initial state not normalized (|psi| = {nrm})")
    with np.errstate(invalid="ignore"):  # inf - inf; the evolver refuses non-finite entries
        defect = float(np.abs(h - h.conj().T).max(initial=0.0))
    if defect > REFINE_TOL * float(np.abs(h).max(initial=0.0)):
        raise ValueError(f"block is not Hermitian: max |H - H^dagger| = {defect:.3g}")
    return _SectorEvolver(h, psi0).states(times)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled collective-state projections and the extracted nonlinear phase.

    ``c0, c1, c2`` are the projections C_n(t) = <n|psi_n(t)> normalized so
    C_n(0) = 1; ``fidelity`` is |C2|^2; ``cos_half`` is the signed
    cos(Theta/2); ``theta`` is the unwrapped nonlinear phase.  ``spectra``
    holds one (eigenvalues, weights) pair per sector 0, 1, 2, from which
    C_n(t) = sum_j w_j exp(-i lambda_j t) at any t.  ``diagnostics`` is the
    deterministic record of how the trajectory was computed: sector and
    quotient dimensions, split rounds per sector, the largest invariance
    residual, final grid size and densify rounds; :func:`gate_time` sets
    ``diagnostics["gate_time_method"]`` ("bisection" or "interpolation").
    """

    times: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    fidelity: np.ndarray
    theta: np.ndarray
    cos_half: np.ndarray
    spectra: tuple[tuple[np.ndarray, np.ndarray], ...]
    diagnostics: dict


def compute_trajectory(ham: SpinHamiltonian, times, auto_refine: bool = True) -> Trajectory:
    """Projections plus nonlinear phase.

    With ``auto_refine`` the grid is densified until the phase moves by at
    most pi/2 per step AND a doubled grid reproduces the same unwrapped phase
    at shared points; a large per-step change can alias into an apparently
    small one, so the confirmation doubling is what actually catches
    undersampling.  Each doubling interleaves the midpoints with the times
    and evaluates the projections on the whole doubled grid at once.  The
    returned trajectory uses the finest grid evaluated.  ``times`` must be
    non-empty, non-decreasing and start at 0.  The sectors come from
    ``ham.dicke_sectors()``: dense orbit blocks of the lattice's symmetry
    group, with no sector block assembled.
    """
    times = _time_grid(times)
    # every block is refined and dropped before any quotient's eigh
    evolvers = [_SectorEvolver(block, psi0) for block, psi0 in ham.dicke_sectors()]
    spectra = tuple((ev.lam, ev.w) for ev in evolvers)
    cs = _projections(spectra, times)
    theta, cos_half, max_step = _extract_phase(*cs)
    refinements = 0
    if auto_refine:
        for refinements in range(1, MAX_REFINEMENTS + 1):
            times = _interleave(times, 0.5 * (times[:-1] + times[1:]))
            cs = _projections(spectra, times)
            d_theta, cos_half, d_step = _extract_phase(*cs)
            consistent = (max_step <= MAX_THETA_STEP
                          and np.abs(d_theta[::2] - theta).max() <= MAX_THETA_STEP)
            theta, max_step = d_theta, d_step
            if consistent:
                break
        else:
            if max_step > MAX_THETA_STEP:
                warnings.warn("phase-step bound not reached within the refinement budget",
                              RuntimeWarning, stacklevel=2)
    diagnostics = {
        "sector_dims": [ham.dim(n) for n in (0, 1, 2)],
        "reduced_dims": [ev.dim for ev in evolvers],
        "partition_rounds": [ev.rounds for ev in evolvers],
        "invariance_residual": max(ev.residual for ev in evolvers),
        "grid_points": len(times),
        "grid_refinements": refinements,
        "gate_time_method": None,  # set by gate_time
    }
    return Trajectory(times, *cs, np.abs(cs[2]) ** 2, theta, cos_half, spectra, diagnostics)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """``even`` at the even positions and ``odd`` (one shorter) between them."""
    out = np.empty(len(even) + len(odd), dtype=even.dtype)
    out[0::2], out[1::2] = even, odd
    return out


def _extract_phase(c0, c1, c2):
    """Unwrapped Theta, signed cos(Theta/2), max phase step."""
    x = np.conj(c0) * c2
    y = (np.conj(c0) * c1) ** 2
    rel = np.unwrap(np.angle(x) - np.angle(y))
    rel = rel - rel[0]  # Theta(0) = 0
    cos_half = 0.5 * (np.abs(x) + np.abs(y)) * np.cos(rel / 2.0)
    excess = np.max(np.abs(cos_half)) - 1.0
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


# ---------------------------------------------------------------------------
# gate time
# ---------------------------------------------------------------------------

def gate_time(trajectory: Trajectory) -> float:
    """First zero of cos(Theta/2): a sign-change bracket of the sampled
    ``cos_half``, bisected on projections evaluated from ``trajectory.spectra``.

    Where the re-evaluated bracket disagrees with the grid, the zero is
    linearly interpolated on the grid instead; ``diagnostics["gate_time_method"]``
    records which ran.  Raises :class:`GateNotReached` when the signed cosine
    never changes sign inside the window.  Bisection stops at a relative
    bracket of ``GATE_REL_TOL`` or when floats cannot halve it.
    """
    c = trajectory.cos_half
    s = np.sign(c)
    flips = np.where(s[:-1] * s[1:] < 0)[0]
    if len(flips) == 0:
        raise GateNotReached("no zero of cos(Theta/2) in the evolved window")
    i = int(flips[0])
    t_lo, t_hi = float(trajectory.times[i]), float(trajectory.times[i + 1])

    def combination(t: float) -> complex:
        c0, c1, c2 = (complex(proj[0]) for proj in _projections(trajectory.spectra, np.array([t])))
        return 0.5 * (np.conj(c0) * c2 + (np.conj(c0) * c1) ** 2)

    z_ref = combination(t_lo)
    ref = z_ref / abs(z_ref)

    def signed(t: float) -> float:
        # |z_ref| > 0 at t_lo, so t is past the zero where this is <= 0
        return float(np.real(combination(t) * np.conj(ref)))

    if signed(t_hi) > 0:
        # the re-evaluated bracket disagrees with the grid: trust the grid
        c_lo, c_hi = float(c[i]), float(c[i + 1])
        tg = t_lo + (t_hi - t_lo) * c_lo / (c_lo - c_hi)
        method = "interpolation"
    else:
        while (t_hi - t_lo) > GATE_REL_TOL * max(t_hi, 1e-300):
            t_mid = 0.5 * (t_lo + t_hi)
            if t_mid in (t_lo, t_hi):
                break
            t_lo, t_hi = (t_lo, t_mid) if signed(t_mid) <= 0 else (t_mid, t_hi)
        tg = 0.5 * (t_lo + t_hi)
        method = "bisection"
    trajectory.diagnostics["gate_time_method"] = method
    return tg
