"""Unitary sector evolution, collective-state projections, nonlinear phase,
and gate-time extraction.

Times are in units of hbar/kappa.  Evolution is exact and has one engine,
on numpy alone: a dense Hermitian block is diagonalized once, and the
projection of the evolved state on the initial one is the spectral sum
C(t) = sum_j w_j exp(-i lambda_j t), one sin^2 kernel call for all sectors.
:func:`evolve` diagonalizes the whole block it is given, a dense array or
anything with ``toarray()`` (a scipy sparse matrix), copied dense first.

:func:`compute_trajectory` takes each sector's block and initial state from
:meth:`~dipolarray.hamiltonian.SpinHamiltonian.dicke_sectors`: the Dicke
state on the orbits of the lattice's symmetry group, the space group of a
torus (about N/|G| pair orbits for a point group G, which holds -1) and
the point group of an open patch (about C(N, 2)/|G|).  The group leaves the
Dicke state invariant, so the orbit block is an exact quotient, with no
tolerance, and the C(N, 2)-row sector is never built.  A dense eigh of
dimension k needs about 40 k^2 bytes, and past the memory budget
``basis.MEMORY_BYTES_MAX`` the orbit builder and :func:`evolve` raise
:class:`~dipolarray.basis.ResourceLimitError` before it.  A
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
from math import prod

import numpy as np

from .basis import _require_eigh_memory, require_memory
from .hamiltonian import SpinHamiltonian
from .sin2 import _sin2_sum

__all__ = [
    "Trajectory",
    "GateNotReached",
    "evolve",
    "compute_trajectory",
    "gate_time",
]

# gate_time bisects its bracket down to this fraction of the gate time
GATE_REL_TOL = 1e-4
MAX_THETA_STEP = np.pi / 2
MAX_REFINEMENTS = 6
CLIP_WARN_EXCESS = 1e-6


class GateNotReached(RuntimeError):
    """No zero of cos(Theta/2) inside the evolved time window."""


# ---------------------------------------------------------------------------
# evolution engine
# ---------------------------------------------------------------------------

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
    ``toarray()``, whose dense copy is checked against the memory budget,
    as is its eigh.  ``psi0`` must be normalized and as long as the block;
    ``times`` must be non-decreasing and start at 0.  A block with a
    non-finite entry, or one that differs from its conjugate transpose by
    more than 1e-12 of its largest entry, raises ``ValueError``.
    """
    times = _time_grid(times)
    if hasattr(block, "toarray"):
        # the copy and the Hermitian check's difference, 8 bytes an entry each
        require_memory(16 * prod(block.shape), "a dense copy of the block needs", f"for shape {block.shape}")
        block = block.toarray()
    h = np.asarray(block)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"block must be a square matrix, got shape {h.shape}")
    _require_eigh_memory(len(h))
    psi0 = np.asarray(psi0)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"psi0 has shape {psi0.shape}, block has shape {h.shape}")
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"initial state not normalized (|psi| = {nrm})")
    scale = float(np.abs(h).max(initial=0.0))
    if not scale < np.inf:
        raise ValueError(f"block entries must be finite, got max |H_ij| = {scale}")
    defect = float(np.abs(h - h.conj().T).max(initial=0.0))
    if defect > 1e-12 * scale:
        raise ValueError(f"block is not Hermitian: max |H - H^dagger| = {defect:.3g}")
    lam, vec = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, lam)) * (vec.conj().T @ psi0)) @ vec.T


def _weights(block: np.ndarray, psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``block`` and the weights of ``psi0`` on its
    eigenvectors, normalized to sum 1."""
    lam, vec = np.linalg.eigh(block)
    w = np.abs(vec.conj().T @ psi0) ** 2
    return lam, w / w.sum()


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
    quotient (orbit block) dimensions, final grid size and densify rounds;
    :func:`gate_time` sets ``diagnostics["gate_time_method"]``
    ("bisection" or "interpolation").
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
    group, each diagonalized as it comes.
    """
    times = _time_grid(times)
    # each block is diagonalized before the next one is built
    spectra = tuple(_weights(block, psi0) for block, psi0 in ham.dicke_sectors())
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
        "reduced_dims": [len(lam) for lam, _ in spectra],
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
