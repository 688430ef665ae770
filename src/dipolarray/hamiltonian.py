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
from math import comb

import numpy as np

from .basis import SectorBasis, dicke_state, require_memory, sector_basis
from .lattice import Lattice, coupling_kernel, momentum_grid, relative_sites

__all__ = [
    "CSRBlock",
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


@dataclass(frozen=True, eq=False)
class CSRBlock:
    """A square block in compressed sparse rows: row i holds ``data[s]`` at
    columns ``indices[s]`` for s in ``indptr[i]:indptr[i + 1]``, columns
    ascending and without duplicates; ``indices`` and ``indptr`` are int32.
    ``toarray()`` gives the dense matrix, ``@`` multiplies vectors and dense
    arrays, and ``np.asarray(block)`` is the dense matrix too.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> CSRBlock:
        """The block holding ``vals`` at (``rows``, ``cols``); entries must be
        in row-major order without duplicates, as ``np.nonzero`` gives them."""
        indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(np.asarray(vals), np.asarray(cols, dtype=np.int32), indptr, tuple(shape))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> CSRBlock:
        rows, cols = np.nonzero(a)
        return cls.from_entries(rows, cols, a[rows, cols], a.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        n = self.shape[0]
        on = np.flatnonzero(self.indices == np.repeat(np.arange(n, dtype=np.int32), np.diff(self.indptr)))
        out = np.zeros(n, dtype=self.data.dtype)
        out[self.indices[on]] = self.data[on]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.rows(), self.indices] = self.data
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.toarray() if dtype is None else self.toarray().astype(dtype)

    def __matmul__(self, other) -> np.ndarray:
        other = np.asarray(other)
        terms = self.data.reshape((-1,) + (1,) * (other.ndim - 1)) * other[self.indices]
        out = np.zeros((self.shape[0],) + other.shape[1:], dtype=terms.dtype)
        np.add.at(out, self.rows(), terms)
        return out


class SpinHamiltonian:
    """Sector blocks (n = 0, 1, 2) of a dipolar spin model on ``lattice``.

    ``blocks[n]`` is a :class:`CSRBlock` in the colex order of
    ``sectors[n]``; the evolution engine needs only its rows, so one storage
    serves every size (``block.toarray()`` gives the dense matrix).  Blocks
    are Hermitian and conserve excitation number by construction.  They are
    assembled when ``blocks`` or ``sectors`` is first read, and that read
    raises :class:`~dipolarray.basis.ResourceLimitError` when the assembly
    would exceed the memory budget ``basis.MEMORY_BYTES_MAX``; ``dim``,
    ``vacuum_energy`` and :meth:`dicke_sectors` on a periodic lattice never
    assemble.  ``blocks`` and ``sectors`` may also be given, for a model
    without a lattice (``lattice`` None).
    """

    def __init__(self, kappa: float, xi: float, lattice: Lattice | None,
                 blocks: dict[int, CSRBlock] | None = None,
                 sectors: dict[int, SectorBasis] | None = None):
        if not (0 < kappa < np.inf and abs(xi) < np.inf):
            raise ValueError(f"need a positive finite kappa and a finite xi, got {kappa} and {xi}")
        self.kappa, self.xi, self.lattice = kappa, xi, lattice
        self._assembled = None if blocks is None else (blocks, sectors)

    def _assembly(self) -> tuple[dict[int, CSRBlock], dict[int, SectorBasis]]:
        if self._assembled is None:
            self._assembled = _build(self.lattice, self.kappa, self.xi)
        return self._assembled

    @property
    def blocks(self) -> dict[int, CSRBlock]:
        return self._assembly()[0]

    @property
    def sectors(self) -> dict[int, SectorBasis]:
        return self._assembly()[1]

    @property
    def vacuum_energy(self) -> float:
        """(kappa - xi) * sum_{i<j} d_ij, from the kernel."""
        return float((self.kappa - self.xi) * _pair_sum(self.lattice))

    def dim(self, n: int) -> int:
        """C(N, n), or the given block's dimension for a model without a lattice."""
        if self.lattice is None:
            return self.blocks[n].shape[0]
        return comb(self.lattice.n_sites, n)

    def is_sparse(self, n: int) -> bool:
        """Always true since every block is CSR; kept for storage-agnostic callers."""
        return isinstance(self.blocks[n], CSRBlock)

    def dicke_sectors(self) -> list[tuple[CSRBlock, np.ndarray]]:
        """(block, initial state) per sector n = 0, 1, 2 whose evolution gives
        the symmetric (Dicke) state's: the translation-orbit blocks of
        :func:`_orbit_sectors` on a periodic lattice, which read no sector
        block, and otherwise the assembled blocks with the Dicke states."""
        if self.lattice is not None and self.lattice.periodic:
            return _orbit_sectors(self.lattice, self.kappa, self.xi)
        return [(self.blocks[n], dicke_state(self.sectors[n])) for n in (0, 1, 2)]


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


# bytes per entry of the k x N hop tables of _orbit_sectors (k ~ N/2 orbits):
# its tracemalloc peak is 40.1-40.4 B per entry at N >= 400 on every lattice
# kind, and at most 52 B at N = 64; the quotient's eigh adds its 40 k^2 bytes
_ORBIT_BYTES_PER_ENTRY = 44


def _orbit_sectors(lattice: Lattice, kappa: float, xi: float) -> list[tuple[CSRBlock, np.ndarray]]:
    """Sectors 0, 1, 2 on translation orbits of a periodic lattice.

    The Dicke states are translation-invariant, so each sector's dynamics
    lives on its orbits: sectors 0 and 1 are one orbit each, and the pairs
    {p, p + delta} of sector 2 form one orbit per separation delta ~ -delta,
    of size s = N (N/2 where 2 delta = 0).  Orbit a's row R[a, c] sums the
    representative row {0, delta_a} into each orbit c: the diagonal and the
    hops 0 -> x (amplitude 2 kappa d(x), to the orbit of x - delta) and
    delta -> x (2 kappa d(x - delta), to the orbit of x) for x not in
    {0, delta}, from the O(N) ``relative_sites`` couplings.  The block is
    the symmetric quotient Hr[a, c] = sqrt(s_a / s_c) R[a, c] and the
    initial state sqrt(s_a / C(N, 2)), the Dicke state on the normalized orbit
    indicators.  Group arithmetic runs on the integer cell coordinates of
    :func:`~dipolarray.lattice.momentum_grid`, the same group Z_side^D.
    Raises :class:`~dipolarray.basis.ResourceLimitError` when the hop tables
    and the quotient's eigh would exceed the memory budget.
    """
    n = lattice.n_sites
    grid = momentum_grid(lattice)
    reps, mult = grid.pair_fold()
    k = len(reps)
    require_memory(_ORBIT_BYTES_PER_ENTRY * k * n + 40 * k**2, "translation-orbit tables need",
                   f"for {n} sites")
    couplings = _site_couplings(lattice)
    row = float(couplings.sum())
    total = 0.5 * n * row
    weight = kappa - xi
    cell = lattice.period_vectors / grid.side
    site = grid.index(np.rint(lattice.positions @ np.linalg.inv(cell)).astype(np.int64))
    d = np.zeros(n)
    d[site[1:]] = couplings  # d[g]: the coupling across group element g
    # orbit of every group element; element 0 takes a dropped extra column k
    orbit = np.searchsorted(reps, np.minimum(np.arange(n), grid.index(-grid.coords)))
    orbit[0] = k
    diff = grid.index(grid.coords - grid.coords[reps][:, None])  # [a, x] = x - delta_a
    key = np.arange(0, k * (k + 1), k + 1)[:, None]
    r = (np.bincount((key + orbit[diff]).ravel(), np.broadcast_to(d, diff.shape).ravel(), k * (k + 1))
         + np.bincount((key + orbit).ravel(), d[diff].ravel(), k * (k + 1)))
    r = 2.0 * kappa * r.reshape(k, k + 1)[:, :k]
    r[np.diag_indices(k)] += weight * (total - 2.0 * (2.0 * row - 2.0 * d[reps]))
    root = np.sqrt(mult)
    hr = r * root[:, None] / root
    return [(CSRBlock.from_dense(np.array([[weight * total]])), np.ones(1, dtype=complex)),
            (CSRBlock.from_dense(np.array([[weight * (total - 2.0 * row) + 2.0 * kappa * row]])),
             np.ones(1, dtype=complex)),
            (CSRBlock.from_dense(hr), np.sqrt(mult / (n - 1)).astype(complex))]


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


def _build(lattice: Lattice, kappa: float, xi: float) -> tuple[dict[int, CSRBlock], dict[int, SectorBasis]]:
    """Sector blocks 0, 1, 2 and their bases, the two-excitation block written
    in sorted CSR order: row {p<q} holds the hops {x,p} -> {p,q} (amplitude
    2 kappa d_xq) and {x,q} -> {p,q} (2 kappa d_xp) for each x not in {p,q},
    plus the diagonal, which is left out where it is exactly 0 (xi = kappa).
    As the colex rank of {u<v} is v(v-1)/2 + u, the columns ascend as {x,p}
    for x < q, {x,q} for x < q (the diagonal at x = p), then {x,p}, {x,q} per
    x > q.  Raises :class:`~dipolarray.basis.ResourceLimitError` when the slot
    tables would exceed the memory budget ``basis.MEMORY_BYTES_MAX``.
    """
    n = lattice.n_sites
    # C(N,2) rows of 2N - 3 slots; the slot tables below peak at 25.3-26.7
    # bytes per slot under tracemalloc (N = 36...160, every lattice kind)
    require_memory(comb(n, 2) * (2 * n - 3) * 27, "two-excitation assembly needs", f"for {n} sites")
    d = coupling_kernel(lattice)
    e0, e1, e2, basis2 = _zz_diagonals(d, kappa - xi)

    h0 = CSRBlock.from_dense(np.array([[e0]]))

    h1 = 2.0 * kappa * d
    np.fill_diagonal(h1, e1)
    h1 = CSRBlock.from_dense(h1)

    # slot s of row {p<q} is column {x, keep}: the first q - 1 slots (head)
    # keep p for x < q, x != p; the next q (mid) keep q for x < q; the rest
    # keep p, then q, for each x > q.  Tabulated per q, shifted past x = p.
    # Flat takes on x * N + keep give the column, and on x * N + other, with
    # other the site of {p, q} not kept, the amplitude 2 kappa d_{x, other}.
    # Tables are int32: sites, slots and x * N + site fit 32 bits, and so do
    # ranks under the sector dimension cap.  Each is dropped once used, which
    # holds the peak near 27 B per slot
    p, q = basis2.configs.T.astype(np.int32)
    s = np.arange(2 * n - 3, dtype=np.int32)
    site = np.arange(n, dtype=np.int32)[:, None]
    head, mid = s < site - 1, s < 2 * site - 1
    x = np.where(head, s, np.where(mid, s + 1 - site, (s + 3) // 2))[q]
    x += head[q] & (s >= p[:, None])
    x *= n
    keeps_q = (~head & (mid | (s % 2 == 0)))[q]
    keep = np.where(keeps_q, q[:, None], p[:, None])
    keep += x
    other = np.where(keeps_q, p[:, None], q[:, None])
    other += x
    del x, keeps_q
    hi, lo = np.maximum(site, site.T), np.minimum(site, site.T)
    cols = (hi * (hi - 1) // 2 + lo).take(keep)
    del keep
    vals = (2.0 * kappa * d).take(other)
    del other
    vals[np.arange(basis2.dim), p + q - 1] = e2  # mid slot of x = p
    nz = vals != 0
    indptr = np.zeros(basis2.dim + 1, dtype=np.int32)
    np.cumsum(nz.sum(axis=1), out=indptr[1:])
    h2 = CSRBlock(vals[nz], cols[nz], indptr, (basis2.dim,) * 2)

    return {0: h0, 1: h1, 2: h2}, {0: sector_basis(n, 0), 1: sector_basis(n, 1), 2: basis2}


def exchange_hamiltonian(lattice: Lattice, kappa: float) -> SpinHamiltonian:
    """Pure excitation-exchange model: hops 2*kappa*d_ij, zero diagonal.

    This is the bare dipolar interaction of parallel transition dipoles with
    counter-rotating terms dropped.  It is the xi = kappa case of
    :func:`full_hamiltonian`, whose sigma^z sigma^z weight then vanishes, so
    the result stores ``xi == kappa``.
    """
    return SpinHamiltonian(kappa, kappa, lattice)


def full_hamiltonian(lattice: Lattice, kappa: float, xi: float) -> SpinHamiltonian:
    """Heisenberg exchange plus Ising asymmetry.

    Exchange 2*kappa*d_ij as in :func:`exchange_hamiltonian`; sigma^z sigma^z
    weight (kappa - xi)*d_ij per unordered pair.  xi may take either sign;
    xi = kappa reduces to the pure exchange model.  Returns at once: the
    blocks are assembled on their first read, which raises
    :class:`~dipolarray.basis.ResourceLimitError` past the memory budget,
    and :func:`~dipolarray.dynamics.compute_trajectory` takes its quotient
    from the assembled blocks on open lattices and from translation orbits,
    without any block, on periodic ones (:meth:`SpinHamiltonian.dicke_sectors`).
    """
    return SpinHamiltonian(kappa, xi, lattice)


def chi_eff(lattice: Lattice, kappa: float) -> float:
    """Collective phase-gate coupling from projecting the exchange model onto
    the symmetric manifold: 2*kappa/(N(N-1)) * ordered pair sum of d_ij.

    On a periodic lattice every site sees the same neighbours, so each of the
    N kernel rows sums to sum_j 1/|r_j|^3 over the O(N) relative-site table
    and chi_eff = 2*kappa/(N-1) * sum_j 1/|r_j|^3; open lattices sum the
    O(N^2) kernel.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not kappa < np.inf:
        raise ValueError(f"kappa must be finite, got {kappa}")
    if lattice.n_sites < 2:
        raise ValueError("need at least two sites")
    n = lattice.n_sites
    if lattice.periodic:
        return 2.0 * kappa / (n - 1) * float(_site_couplings(lattice).sum())
    d = coupling_kernel(lattice)
    return 2.0 * kappa / (n * (n - 1)) * float(d.sum())


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
    chi = chi_eff(lattice, kappa)
    if not abs(xi) < np.inf:
        raise ValueError(f"xi must be finite, got {xi}")
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
