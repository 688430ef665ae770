"""Rigid-rotor eigensystem in a DC field and the dressed interaction scales.

The rotor Hamiltonian H = B J(J+1) - mu0 E cos(theta) conserves M, so each M
block is tridiagonal in J with the standard cos(theta) couplings

    <J+1, M| cos theta |J, M> = sqrt( ((J+1)^2 - M^2) / ((2J+1)(2J+3)) ).

One dense matrix of these couplings, ``_cos_matrix``, serves both the block
that :func:`rotor_eigensystem` hands to ``numpy.linalg.eigh`` and the dipole
matrix elements of :func:`dressed_pair`.  At zero field the block is
diagonal and its eigenpairs are exactly J(J+1) and the identity.

Internally the field is dimensionless (E in units of B/mu0) and dipoles come
out in units of mu0.  Dressed states are labeled adiabatically by their
zero-field parent (J, M): within a fixed-M block with nonzero couplings the
eigenvalues never cross, so ascending order is the adiabatic order.

Absolute energy scales for a molecule at spacing a:

    kappa = |mu_eg|^2 / (8 pi eps0 a^3)
    xi    = (|mu_eg|^2 - (mu_ee - mu_gg)^2 / 2) / (8 pi eps0 a^3)
    B0    = (mu_ee^2 - mu_gg^2) / (8 pi eps0 a^3)
    U_dd  = mu_gg^2 / (4 pi eps0 a^3)      (ground-state repulsion)
    beta  = U_dd * m * a^2 / hbar^2

The SI constants are CODATA 2022 literals (the values of ``scipy.constants``
1.17), so importing the module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import require_memory

__all__ = [
    "MolecularParams",
    "DressedPair",
    "BasisNotConvergedError",
    "SRO",
    "MOLECULES",
    "rotor_eigensystem",
    "require_rotor_memory",
    "dressed_pair",
    "DEBYE",
    "C_LIGHT",
    "H_PLANCK",
    "HBAR",
    "AMU",
    "EPSILON_0",
]

# CODATA 2022, SI
C_LIGHT = 299792458.0  # m / s
H_PLANCK = 6.62607015e-34  # J s
HBAR = H_PLANCK / (2.0 * np.pi)  # J s
AMU = 1.66053906892e-27  # kg
EPSILON_0 = 8.8541878188e-12  # F / m

DEBYE = 1e-21 / C_LIGHT  # C m

DEFAULT_J_MAX = 20
CONVERGENCE_WEIGHT = 1e-8


class BasisNotConvergedError(ArithmeticError):
    """A dressed state keeps more than ``CONVERGENCE_WEIGHT`` of its weight in
    the top rotor state J = j_max: the truncated basis is too small."""


@dataclass(frozen=True)
class MolecularParams:
    """Rotational constant (J), permanent dipole (C m), mass (kg)."""

    name: str
    b_rot: float
    mu0: float
    mass: float


# SrO X^1 Sigma+: B = 0.33798 cm^-1, mu0 = 8.89 D, mass 87.906 + 15.995 u
SRO = MolecularParams(
    name="SrO",
    b_rot=H_PLANCK * C_LIGHT * 100.0 * 0.33798,
    mu0=8.89 * DEBYE,
    mass=(87.9056 + 15.9949) * AMU,
)

MOLECULES = {"SrO": SRO}


def _cos_couplings(j_values: np.ndarray, m: int) -> np.ndarray:
    j = j_values[:-1].astype(float)
    return np.sqrt(((j + 1.0) ** 2 - m**2) / ((2.0 * j + 1.0) * (2.0 * j + 3.0)))


def _cos_matrix(j_values: np.ndarray, m: int) -> np.ndarray:
    off = _cos_couplings(j_values, m)
    return np.diag(off, 1) + np.diag(off, -1)


def require_rotor_memory(j_max: int, m: int, blocks: int = 1) -> None:
    """Refuse ``blocks`` fixed-M rotor blocks in memory at once, J = |M| .. j_max."""
    # four dense float64 blocks: dressed_pair peaks at 32.0-32.2 B per entry (j_max 200-800)
    require_memory(32 * blocks * (j_max - abs(m) + 1) ** 2, "Stark rotor blocks need",
                   f"at j_max = {j_max}" + (f" on {blocks} workers" if blocks > 1 else ""))


def rotor_eigensystem(e_field: float, m: int, j_max: int = DEFAULT_J_MAX):
    """Eigenpairs of the fixed-M rotor block diag(J(J+1)) - E cos(theta).

    ``e_field`` is in units of B/mu0.  Returns (j_values, energies, vectors):
    energies in units of B, ascending (adiabatic order); vectors are columns
    over the |J, M> basis with J = |M| .. j_max, each with its
    largest-magnitude component positive.  Raises
    :class:`~dipolarray.basis.ResourceLimitError` when the dense blocks would
    exceed the memory budget ``basis.MEMORY_BYTES_MAX``.
    """
    if not 0.0 <= e_field < np.inf:
        raise ValueError(f"e_field must be finite and non-negative, got {e_field}")
    if j_max < abs(m) + 8:
        raise ValueError(f"j_max = {j_max} too small for a converged M = {m} block")
    require_rotor_memory(j_max, m)
    j_values = np.arange(abs(m), j_max + 1)
    block = np.diag(j_values * (j_values + 1.0)) - e_field * _cos_matrix(j_values, m)
    energies, vectors = np.linalg.eigh(block)
    # gauge: largest-magnitude component positive, for reproducible vectors
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return j_values, energies, vectors * signs


@dataclass(frozen=True)
class DressedPair:
    """Dressed dipole moments and interaction scales for one state pair.

    Dipoles are in units of mu0; kappa/xi/b0/u_dd in Joules; beta is
    dimensionless.  ``field`` is in units of B/mu0.
    """

    field: float
    mu_gg: float
    mu_ee: float
    mu_eg: float
    xi_over_kappa: float
    kappa: float
    xi: float
    b0: float
    u_dd: float
    beta: float


def dressed_pair(params: MolecularParams, e_field: float, g_label: tuple[int, int],
                 e_label: tuple[int, int], spacing: float, j_max: int = DEFAULT_J_MAX) -> DressedPair:
    """Dipole matrix elements on adiabatically-labeled dressed states and the
    derived interaction scales at the given lattice spacing (meters)."""
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    gj, gm = g_label
    ej, em = e_label
    if (gj, gm) == (ej, em):
        raise ValueError("ground and excited labels must differ")
    if gm != em:
        raise ValueError("labels must share M (z-polarized dipole operator)")
    j_values, energies, vectors = rotor_eigensystem(e_field, gm, j_max)
    gi = gj - abs(gm)
    ei = ej - abs(em)
    if not (0 <= gi < len(j_values) and 0 <= ei < len(j_values)):
        raise ValueError("labels outside the J basis")
    g = vectors[:, gi]
    e = vectors[:, ei]
    for label, vec in ((g_label, g), (e_label, e)):
        w = abs(vec[-1]) ** 2
        if w > CONVERGENCE_WEIGHT:
            raise BasisNotConvergedError(
                f"j_max = {j_max} not converged for state {label}: top-state weight {w:.2e}"
            )
    c = _cos_matrix(j_values, gm)
    mu_gg = float(g @ c @ g)
    mu_ee = float(e @ c @ e)
    mu_eg = float(e @ c @ g)
    xi_over_kappa = 1.0 - (mu_ee - mu_gg) ** 2 / (2.0 * mu_eg**2)

    mu0 = params.mu0
    geom = 1.0 / (8.0 * np.pi * EPSILON_0 * spacing**3)
    kappa = (mu_eg * mu0) ** 2 * geom
    xi = xi_over_kappa * kappa
    b0 = ((mu_ee * mu0) ** 2 - (mu_gg * mu0) ** 2) * geom
    u_dd = (mu_gg * mu0) ** 2 * (2.0 * geom)
    beta = u_dd * params.mass * spacing**2 / HBAR**2
    return DressedPair(field=e_field, mu_gg=mu_gg, mu_ee=mu_ee, mu_eg=abs(mu_eg),
                       xi_over_kappa=xi_over_kappa, kappa=kappa, xi=xi, b0=b0, u_dd=u_dd, beta=beta)
