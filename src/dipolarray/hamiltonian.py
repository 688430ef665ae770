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

Each sector is held on the orbits of the lattice's symmetry group, which
leaves the Dicke states invariant: on a torus its translations and its
point group (the chain's reflection, D4, D6), on an open patch the point
group about the centroid.  The orbit block is the exact quotient of the
sector, with no tolerance, and the only form of the Hamiltonian the
library builds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from .basis import _require_eigh_memory, require_memory
from .lattice import (Lattice, _point_group, _point_group_maps, _torus_cells, coupling_kernel, momentum_grid,
                      relative_sites)

__all__ = [
    "SpinHamiltonian",
    "EffectiveGateParams",
    "full_hamiltonian",
    "chi_eff",
    "gate_params",
    "theta_analytic",
    "ZETA3",
]

ZETA3 = 1.2020569031595942854  # Riemann zeta(3)


def _require_couplings(kappa: float, xi: float = 0.0) -> None:
    """Refuse a non-positive or non-finite kappa and a non-finite xi."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not kappa < np.inf:
        raise ValueError(f"kappa must be finite, got {kappa}")
    if not abs(xi) < np.inf:
        raise ValueError(f"xi must be finite, got {xi}")


class SpinHamiltonian:
    """Sector blocks (n = 0, 1, 2) of a dipolar spin model on ``lattice``.

    :meth:`dicke_sectors` gives each sector on the orbits of the lattice's
    symmetry group, all the gate dynamics needs.  ``blocks[n]`` is the same
    dense orbit block, built anew on each read; it and :meth:`is_sparse`
    remain for callers that count the sector-2 block.
    """

    def __init__(self, kappa: float, xi: float, lattice: Lattice):
        _require_couplings(kappa, xi)
        self.kappa, self.xi, self.lattice = kappa, xi, lattice

    @property
    def blocks(self) -> dict[int, np.ndarray]:
        return {n: block for n, (block, _) in enumerate(self.dicke_sectors())}

    def dim(self, n: int) -> int:
        """C(N, n)."""
        return comb(self.lattice.n_sites, n)

    def is_sparse(self, n: int) -> bool:
        """False: every block is a dense orbit block."""
        return False

    def dicke_sectors(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(dense block, initial state) per sector n = 0, 1, 2 whose evolution
        gives the Dicke state's: :func:`_orbit_sectors` on the space-group
        orbits (translations and point group) of a periodic lattice, on the
        point-group orbits of an open one.  Each block is built when the
        previous one has been taken."""
        source = _torus_orbits if self.lattice.periodic else _patch_orbits
        yield from _orbit_sectors(self.kappa, self.xi, self.lattice.n_sites, *source(self.lattice))


def _site_couplings(lattice: Lattice) -> np.ndarray:
    """1/|r_j|^3 over the O(N) ``relative_sites`` table of a periodic lattice:
    the couplings of any one site."""
    return 1.0 / np.linalg.norm(relative_sites(lattice), axis=1) ** 3


def _pair_sum(lattice: Lattice) -> float:
    """D = sum_{i<j} d_ij: N/2 times one site's couplings on a torus, half
    the kernel's sum otherwise."""
    if lattice.periodic:
        return 0.5 * lattice.n_sites * float(_site_couplings(lattice).sum())
    return 0.5 * coupling_kernel(lattice).sum(axis=1).sum()


# bytes per entry of the k x N hop tables and of the k x k block _orbit_sectors
# sums, and of the (maps + 2) x pairs tables labelling an open patch's pairs;
# tracemalloc peaks: 40-44 B per hop entry on tori (57 B at N = 64, within
# the block term), 17-24 B per block entry and 34-55 B per label entry
_ORBIT_BYTES_PER_ENTRY = 44
_ORBIT_BLOCK_BYTES = 32
_LABEL_BYTES = 40


def _orbit_sectors(kappa: float, xi: float, n: int, total: float,
                   sectors) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Dense blocks and initial states of sectors 0, 1, 2 on the orbits of a
    symmetry group of the lattice, which holds the Dicke states invariant.

    ``total`` is D = sum_{i<j} d_ij.  Per sector 1, 2, ``sectors`` gives the
    k orbit sizes s (up to a factor); the cut of each representative (its
    sites' row sums less twice its pair's coupling), whose diagonal is
    (kappa - xi)(D - 2 cut); and (orbit, coupling) hop tables [a, x]: moving
    an excitation of representative a onto site x lands in orbit
    ``orbit[a, x]`` (k, dropped, where x is excited) with amplitude 2 kappa
    ``coupling[a, x]``.  With R[a, c] representative a's row summed into
    orbit c, the block is sqrt(s_a / s_c) R[a, c] and the state
    sqrt(s_a / sum s).  The hop tables, which may come from a generator,
    are built after each sector's memory checks, and each sector is built
    when the previous one has been taken.
    """
    weight = kappa - xi
    yield np.array([[weight * total]]), np.ones(1)
    for sizes, cut, hops in sectors:
        k = len(sizes)
        _require_eigh_memory(k)
        require_memory(_ORBIT_BYTES_PER_ENTRY * k * n + _ORBIT_BLOCK_BYTES * k**2, "orbit tables need",
                       f"for {n} sites")
        key = np.arange(0, k * (k + 1), k + 1)[:, None]  # column k takes the dropped hops
        r = np.zeros(k * (k + 1))
        for orbit, coupling in hops:
            at = key + orbit
            r += np.bincount(at.ravel(), np.broadcast_to(coupling, at.shape).ravel(), k * (k + 1))
        del orbit, coupling, at  # the yielded sector holds no hop table
        r = 2.0 * kappa * r.reshape(k, k + 1)[:, :k]
        r[np.diag_indices(k)] += weight * (total - 2.0 * cut)
        root = np.sqrt(sizes)
        r *= root[:, None]
        r /= root
        yield r, np.sqrt(sizes / sizes.sum())


def _torus_orbits(lattice: Lattice):
    """D and the sectors of :func:`_orbit_sectors` on the orbits of the
    torus's space group, its translations and point group, sites named by
    their element of Z_side^D, the integer cell coordinates of
    :func:`~dipolarray.lattice.momentum_grid`.  Sector 1 is one orbit.
    Sector 2 has one per class of delta under the point group, which holds
    -delta: the pairs {p, p + g delta}, labelled by the least image of
    delta and sized by the class (times N/2).  The hops 0 -> x (coupling
    d(x)) of its representative {0, delta} land in the orbit of x - delta,
    and delta -> x (d(x - delta)) in that of x."""
    n = lattice.n_sites
    grid = momentum_grid(lattice)
    couplings = _site_couplings(lattice)
    row = float(couplings.sum())
    d = np.zeros(n)
    d[_torus_cells(lattice, grid)[1:]] = couplings  # d[g]: the coupling across group element g
    # orbit of every group element by its least image; element 0, a class of
    # its own, sorts last and so takes the dropped label k
    least = grid.index(grid.coords @ _point_group(lattice)).min(axis=0)
    least[0] = n
    reps, orbit, sizes = np.unique(least, return_inverse=True, return_counts=True)
    reps, sizes = reps[:-1], sizes[:-1]

    def hops():
        diff = grid.index(grid.coords - grid.coords[reps][:, None])  # [a, x] = x - delta_a
        yield orbit[diff], d
        yield orbit, d[diff]

    # all N hops of the one site orbit land in it: their sum is its entry
    one_orbit = (np.ones(1), row, [(np.zeros(1, dtype=np.intp), row)])
    return 0.5 * n * row, [one_orbit, (sizes, 2.0 * row - 2.0 * d[reps], hops())]


def _patch_orbits(lattice: Lattice):
    """D and the sectors of :func:`_orbit_sectors` on the orbits of an open
    patch's point-group maps, each site and pair (by colex rank) labelled
    with its least image; the labels, and the quotient of the fewest orbits
    the maps allow, are checked against the memory budget first."""
    n = lattice.n_sites
    maps = _point_group_maps(lattice)
    pairs = comb(n, 2)
    require_memory(_LABEL_BYTES * (len(maps) + 2) * pairs, "pair-orbit labels need", f"for {n} sites")
    fewest = -(-pairs // len(maps))
    _require_eigh_memory(fewest)
    q, p = np.tril_indices(n, -1)  # colex order
    lo, hi = np.minimum(maps[:, p], maps[:, q]), np.maximum(maps[:, p], maps[:, q])
    reps, label, sizes = np.unique((hi * (hi - 1) // 2 + lo).min(axis=0),
                                   return_inverse=True, return_counts=True)
    rp, rq = p[reps], q[reps]
    label = np.append(label, len(reps))  # at rank `pairs`: a site excited twice

    def orbit(u, v):
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        return label[np.where(lo == hi, pairs, hi * (hi - 1) // 2 + lo)]

    d = coupling_kernel(lattice)
    row = d.sum(axis=1)
    x = np.arange(n)

    def hops():
        yield orbit(x, rq[:, None]), d[rp]
        yield orbit(rp[:, None], x), d[rq]

    first, site_orbit, site_sizes = np.unique(maps.min(axis=0), return_inverse=True, return_counts=True)
    return 0.5 * row.sum(), [(site_sizes, row[first], [(site_orbit, d[first])]),
                             (sizes, row[rp] + row[rq] - 2.0 * d[rp, rq], hops())]


def full_hamiltonian(lattice: Lattice, kappa: float, xi: float) -> SpinHamiltonian:
    """Heisenberg exchange plus Ising asymmetry.

    Exchange 2*kappa*d_ij; sigma^z sigma^z weight (kappa - xi)*d_ij per
    unordered pair.  xi may take either sign; xi = kappa is the pure
    exchange model (the bare dipolar interaction of parallel transition
    dipoles with counter-rotating terms dropped), whose sigma^z sigma^z
    weight vanishes.  Returns at once: the dynamics reads
    :meth:`SpinHamiltonian.dicke_sectors`, which builds the orbit blocks.
    """
    return SpinHamiltonian(kappa, xi, lattice)


def chi_eff(lattice: Lattice, kappa: float) -> float:
    """Collective phase-gate coupling from projecting the exchange model onto
    the symmetric manifold: 2*kappa/(N(N-1)) * ordered pair sum of d_ij,
    i.e. 4*kappa*D/(N(N-1)) with the pair sum D of :func:`_pair_sum`, which
    sums the O(N) relative-site table on a periodic lattice, where every site
    sees the same neighbours, and the O(N^2) kernel on an open one.
    """
    _require_couplings(kappa)
    if lattice.n_sites < 2:
        raise ValueError("need at least two sites")
    n = lattice.n_sites
    return 4.0 * kappa * _pair_sum(lattice) / (n * (n - 1))


@dataclass(frozen=True)
class EffectiveGateParams:
    chi_eff: float
    chi_tilde_eff: float
    t_pi: float


def gate_params(lattice: Lattice, kappa: float, xi: float, use_tilde: bool | None = None) -> EffectiveGateParams:
    """chi_eff, chi_tilde_eff and the gate time t_pi = pi/(2*chi).

    ``use_tilde`` selects which coupling defines t_pi; default: the Ising
    projection chi_tilde when xi != 0, else chi_eff.
    """
    _require_couplings(kappa, xi)
    chi = chi_eff(lattice, kappa)
    chit = (xi / kappa) * chi
    if use_tilde is None:
        use_tilde = xi != 0.0
    if use_tilde and xi == 0.0:
        raise ValueError("t_pi from chi_tilde requested but xi = 0")
    sel = chit if use_tilde else chi
    return EffectiveGateParams(chi_eff=chi, chi_tilde_eff=chit, t_pi=np.pi / (2.0 * abs(sel)))


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
