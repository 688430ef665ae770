"""Rigid-rotor eigensystem in a DC field and the dressed interaction scales.

The rotor Hamiltonian H = B J(J+1) - mu0 E cos(theta) conserves M, so each M
block is tridiagonal in J with the standard cos(theta) couplings

    <J+1, M| cos theta |J, M> = sqrt( ((J+1)^2 - M^2) / ((2J+1)(2J+3)) ).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.constants as const
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "MolecularParams",
    "DressedPair",
    "BasisNotConvergedError",
    "SRO",
    "MOLECULES",
    "rotor_eigensystem",
    "dressed_pair",
    "xi_kappa_sweep",
    "beta_parameter",
    "DEBYE",
]

DEBYE = 1e-21 / const.c  # C m

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
    b_rot=const.h * const.c * 100.0 * 0.33798,
    mu0=8.89 * DEBYE,
    mass=(87.9056 + 15.9949) * const.u,
)

MOLECULES = {"SrO": SRO}


def _cos_couplings(j_values: np.ndarray, m: int) -> np.ndarray:
    j = j_values[:-1].astype(float)
    return np.sqrt(((j + 1.0) ** 2 - m**2) / ((2.0 * j + 1.0) * (2.0 * j + 3.0)))


def rotor_eigensystem(e_field: float, m: int, j_max: int = DEFAULT_J_MAX):
    """Eigenpairs of the fixed-M rotor block.

    ``e_field`` is in units of B/mu0.  Returns (j_values, energies, vectors):
    energies in units of B, ascending (adiabatic order); vectors are columns
    over the |J, M> basis with J = |M| .. j_max.
    """
    if e_field < 0:
        raise ValueError("e_field must be non-negative")
    if j_max < max(abs(m), 0) + 8:
        raise ValueError(f"j_max = {j_max} too small for a converged M = {m} block")
    j_values = np.arange(abs(m), j_max + 1)
    diag = j_values * (j_values + 1.0)
    off = -e_field * _cos_couplings(j_values, m)
    if e_field == 0.0:
        energies = diag.astype(float)
        vectors = np.eye(len(j_values))
    else:
        energies, vectors = eigh_tridiagonal(diag.astype(float), off)
    # gauge: largest-magnitude component positive, for reproducible vectors
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return j_values, energies, vectors * signs


def _cos_matrix(j_values: np.ndarray, m: int) -> np.ndarray:
    n = len(j_values)
    c = np.zeros((n, n))
    off = _cos_couplings(j_values, m)
    c[np.arange(n - 1), np.arange(1, n)] = off
    c[np.arange(1, n), np.arange(n - 1)] = off
    return c


@dataclass(frozen=True)
class DressedPair:
    """Dressed dipole moments and interaction scales for one state pair.

    Dipoles are in units of mu0; kappa/xi/b0/u_dd in Joules; beta is
    dimensionless.  ``field`` is in units of B/mu0, ``spacing`` in meters.
    """

    field: float
    g_label: tuple[int, int]
    e_label: tuple[int, int]
    mu_gg: float
    mu_ee: float
    mu_eg: float
    xi_over_kappa: float
    kappa: float
    xi: float
    b0: float
    u_dd: float
    beta: float
    spacing: float
    j_max: int


def dressed_pair(
    params: MolecularParams,
    e_field: float,
    g_label: tuple[int, int],
    e_label: tuple[int, int],
    spacing: float,
    j_max: int = DEFAULT_J_MAX,
) -> DressedPair:
    """Dipole matrix elements on adiabatically-labeled dressed states and the
    derived interaction scales at the given lattice spacing (meters)."""
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
    geom = 1.0 / (8.0 * np.pi * const.epsilon_0 * spacing**3)
    kappa = (mu_eg * mu0) ** 2 * geom
    xi = xi_over_kappa * kappa
    b0 = ((mu_ee * mu0) ** 2 - (mu_gg * mu0) ** 2) * geom
    u_dd = (mu_gg * mu0) ** 2 * (2.0 * geom)
    beta = u_dd * params.mass * spacing**2 / const.hbar**2
    return DressedPair(
        field=e_field,
        g_label=g_label,
        e_label=e_label,
        mu_gg=mu_gg,
        mu_ee=mu_ee,
        mu_eg=abs(mu_eg),
        xi_over_kappa=xi_over_kappa,
        kappa=kappa,
        xi=xi,
        b0=b0,
        u_dd=u_dd,
        beta=beta,
        spacing=spacing,
        j_max=j_max,
    )


def xi_kappa_sweep(
    params: MolecularParams,
    g_label: tuple[int, int],
    e_label: tuple[int, int],
    e_grid,
    spacing: float,
    j_max: int = DEFAULT_J_MAX,
) -> list[DressedPair]:
    """Dressed-pair table over a monotone field grid (units B/mu0)."""
    e_grid = np.asarray(e_grid, dtype=float)
    if np.any(np.diff(e_grid) <= 0):
        raise ValueError("e_grid must be strictly increasing")
    return [dressed_pair(params, e, g_label, e_label, spacing, j_max) for e in e_grid]


def beta_parameter(params: MolecularParams, spacing: float, mu_gg: float) -> float:
    """Crystal-stability ratio beta = U_dd / (hbar^2 / (m a^2)).

    ``mu_gg`` is the dressed ground-state dipole in units of mu0 at the
    operating field; U_dd = (mu_gg*mu0)^2/(4 pi eps0 a^3).
    """
    u_dd = (mu_gg * params.mu0) ** 2 / (4.0 * np.pi * const.epsilon_0 * spacing**3)
    return u_dd * params.mass * spacing**2 / const.hbar**2
