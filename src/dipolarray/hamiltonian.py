"""Dipolar spin Hamiltonians per excitation sector and projected gate parameters.

Conventions (hbar = 1, energies in units of the exchange scale kappa unless
stated): the ordered double sum over site pairs makes the physical exchange
amplitude between two sites 2*kappa*d_ij, the sigma^z sigma^z weight per
unordered pair is (kappa - xi)*d_ij, and

    chi_eff       = 2*kappa/(N(N-1)) * sum_{i != j} d_ij
    chi_tilde_eff = (xi/kappa) * chi_eff
    t_pi          = pi / (2*chi)

Constant (configuration-independent) terms are kept on the diagonals so the
vacuum energy is explicit; the nonlinear phase is a second difference and
cancels them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import SectorBasis, sector_basis
from .lattice import Lattice, coupling_kernel, relative_sites

__all__ = [
    "SpinHamiltonian",
    "EffectiveGateParams",
    "exchange_hamiltonian",
    "full_hamiltonian",
    "chi_eff",
    "gate_params",
    "theta_analytic",
    "ZETA3",
]

ZETA3 = 1.2020569031595942854  # Riemann zeta(3)


@dataclass
class SpinHamiltonian:
    """Sector blocks (n = 0, 1, 2) of a dipolar spin model.

    ``blocks[n]`` is a ``scipy.sparse.csr_array`` in the colex order of
    ``sectors[n]``; the evolution engine needs only sparse products, so one
    storage serves every size (``block.toarray()`` gives the dense matrix).
    Blocks are Hermitian and conserve excitation number by construction;
    everything is immutable after assembly.
    """

    kappa: float
    xi: float
    lattice: Lattice
    blocks: dict[int, sp.csr_array]
    sectors: dict[int, SectorBasis]

    @property
    def vacuum_energy(self) -> float:
        b = self.blocks[0]
        return float(b[0, 0])

    def dim(self, n: int) -> int:
        return self.blocks[n].shape[0]

    def is_sparse(self, n: int) -> bool:
        """Always true since every block is CSR; kept for storage-agnostic callers."""
        return sp.issparse(self.blocks[n])


def _zz_diagonals(kernel: np.ndarray, weight: float) -> tuple[float, np.ndarray, np.ndarray, SectorBasis]:
    """Diagonal energies of the sigma^z sigma^z part for sectors 0, 1, 2.

    For a configuration S the pair sum is  D - 2 * sum(pairs cut by S),
    where D = sum_{i<j} d_ij; the cut pairs are those with exactly one
    endpoint excited.
    """
    n = kernel.shape[0]
    row = kernel.sum(axis=1)
    total = 0.5 * row.sum()
    e0 = weight * total
    e1 = weight * (total - 2.0 * row)
    basis2 = sector_basis(n, 2)
    a = basis2.configs[:, 0]
    b = basis2.configs[:, 1]
    e2 = weight * (total - 2.0 * (row[a] + row[b] - 2.0 * kernel[a, b]))
    return e0, e1, e2, basis2


def _build(lattice: Lattice, kappa: float, xi: float) -> SpinHamiltonian:
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    d = coupling_kernel(lattice)
    n = lattice.n_sites
    e0, e1, e2, basis2 = _zz_diagonals(d, kappa - xi)

    h0 = sp.csr_array(np.array([[e0]]))

    h1 = 2.0 * kappa * d
    np.fill_diagonal(h1, e1)
    h1 = sp.csr_array(h1)

    dim2 = basis2.dim
    # hop amplitudes: config {a,b} -> {a,c} with amplitude 2 kappa d_bc.
    # colex rank of {x<y} is y(y-1)/2 + x, so ranks are computed in closed form.
    a = basis2.configs[:, 0]
    b = basis2.configs[:, 1]
    rows, cols, vals = [], [], []
    idx = np.arange(dim2)
    for c in range(n):
        # move the excitation at b -> c (c not in {a, b})
        ok = (c != a) & (c != b)
        lo = np.minimum(a[ok], c)
        hi = np.maximum(a[ok], c)
        rows.append(hi * (hi - 1) // 2 + lo)
        cols.append(idx[ok])
        vals.append(2.0 * kappa * d[b[ok], c])
        # move the excitation at a -> c
        lo = np.minimum(b[ok], c)
        hi = np.maximum(b[ok], c)
        rows.append(hi * (hi - 1) // 2 + lo)
        cols.append(idx[ok])
        vals.append(2.0 * kappa * d[a[ok], c])
    # ranks fit 32 bits under the sector dimension cap; 32-bit indices keep
    # the engine's products with this block at that width
    rows = np.concatenate(rows).astype(np.int32)
    cols = np.concatenate(cols).astype(np.int32)
    vals = np.concatenate(vals)
    h2 = sp.csr_array((vals, (rows, cols)), shape=(dim2, dim2)) + sp.diags_array(e2)

    sectors = {
        0: sector_basis(n, 0),
        1: sector_basis(n, 1),
        2: basis2,
    }
    return SpinHamiltonian(
        kappa=kappa,
        xi=xi,
        lattice=lattice,
        blocks={0: h0, 1: h1, 2: h2},
        sectors=sectors,
    )


def exchange_hamiltonian(lattice: Lattice, kappa: float) -> SpinHamiltonian:
    """Pure excitation-exchange model: hops 2*kappa*d_ij, zero diagonal.

    This is the bare dipolar interaction of parallel transition dipoles with
    counter-rotating terms dropped.  It is the xi = kappa case of
    :func:`full_hamiltonian`, whose sigma^z sigma^z weight then vanishes, so
    the result stores ``xi == kappa``.
    """
    return _build(lattice, kappa, kappa)


def full_hamiltonian(lattice: Lattice, kappa: float, xi: float) -> SpinHamiltonian:
    """Heisenberg exchange plus Ising asymmetry.

    Exchange 2*kappa*d_ij as in :func:`exchange_hamiltonian`; sigma^z sigma^z
    weight (kappa - xi)*d_ij per unordered pair.  xi may take either sign;
    xi = kappa reduces to the pure exchange model.
    """
    return _build(lattice, kappa, xi)


def chi_eff(lattice: Lattice, kappa: float) -> float:
    """Collective phase-gate coupling from projecting the exchange model onto
    the symmetric manifold: 2*kappa/(N(N-1)) * ordered pair sum of d_ij.

    On a periodic lattice every site sees the same neighbours, so each of the
    N kernel rows sums to sum_j 1/|r_j|^3 over the O(N) relative-site table
    and chi_eff = 2*kappa/(N-1) * sum_j 1/|r_j|^3; open lattices sum the
    O(N^2) kernel.
    """
    if lattice.n_sites < 2:
        raise ValueError("need at least two sites")
    n = lattice.n_sites
    if lattice.periodic:
        row = float((1.0 / np.linalg.norm(relative_sites(lattice), axis=1) ** 3).sum())
        return 2.0 * kappa / (n - 1) * row
    d = coupling_kernel(lattice)
    return 2.0 * kappa / (n * (n - 1)) * float(d.sum())


@dataclass(frozen=True)
class EffectiveGateParams:
    chi_eff: float
    chi_tilde_eff: float
    t_pi: float
    use_tilde: bool


def gate_params(lattice: Lattice, kappa: float, xi: float, use_tilde: bool | None = None) -> EffectiveGateParams:
    """chi_eff, chi_tilde_eff and the gate time t_pi = pi/(2*chi).

    ``use_tilde`` selects which coupling defines t_pi; default: the Ising
    projection chi_tilde when xi != 0, else chi_eff.
    """
    chi = chi_eff(lattice, kappa)
    chit = (xi / kappa) * chi
    if use_tilde is None:
        use_tilde = xi != 0.0
    if use_tilde and xi == 0.0:
        raise ValueError("t_pi from chi_tilde requested but xi = 0")
    sel = chit if use_tilde else chi
    return EffectiveGateParams(
        chi_eff=chi,
        chi_tilde_eff=chit,
        t_pi=np.pi / (2.0 * abs(sel)),
        use_tilde=use_tilde,
    )


def theta_analytic(lattice_kind: str, kappa: float, t: float | np.ndarray, n_sites: int) -> float | np.ndarray:
    """Closed-form nonlinear phase for uniform arrays.

    1D chain: 4*kappa*t*zeta(3)/(N-1); 2D square: twice the 1D value.
    """
    if lattice_kind == "chain":
        factor = 1.0
    elif lattice_kind == "square":
        factor = 2.0
    else:
        raise ValueError(f"no closed form for lattice kind {lattice_kind!r}")
    return factor * 4.0 * kappa * np.asarray(t) * ZETA3 / (n_sites - 1)
