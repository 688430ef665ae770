"""Array geometries, the r^-3 coupling kernel, and Brillouin-zone grids.

All positions are in units of the lattice spacing ``a``, so a lattice does
not store it; it only enters when converting dressed molecular parameters
to absolute energies, as an argument of :mod:`dipolarray.stark`.  Periodic
lattices use minimum-image displacements: :func:`displacements` is the
O(N^2) pair table the coupling kernel needs, checked against the memory
budget ``basis.MEMORY_BYTES_MAX`` before it is built, :func:`relative_sites`
its O(N) row r_j - r_0, which is all a translation-invariant lattice sum
(spin-wave dispersion, phonons) needs.  On a torus such a sum at every grid
momentum is one discrete Fourier transform (:func:`_torus_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import require_memory

__all__ = [
    "Lattice",
    "MomentumGrid",
    "build_lattice",
    "coupling_kernel",
    "momentum_grid",
    "relative_sites",
]

_KINDS = ("chain", "square", "triangular")
_BOUNDARIES = ("open", "periodic")

# primitive vectors of the triangular lattice (nearest-neighbor distance 1)
_TRI_A1 = np.array([1.0, 0.0])
_TRI_A2 = np.array([0.5, np.sqrt(3.0) / 2.0])
# the 25 stacked torus images of one block of _minimum_image, in bytes
_IMAGE_BLOCK_BYTES = 2**20
# _torus_sums sums a row term by term where every sin^2 sum is below this
# fraction of its |F(0)|: (F(0) - Re F(k)) / 2 cancels more than 12 bits there
_TORUS_DIRECT_FRACTION = 2.0**-12
# (rows x sites) terms of one block of those rows
_DIRECT_BLOCK_TERMS = 2**14


@dataclass(frozen=True)
class Lattice:
    """Immutable site geometry.

    ``positions`` has shape (N, D) in units of the spacing.  For periodic
    boundaries ``period_vectors`` holds the torus vectors (rows, units of
    the spacing); it is None for open boundaries.
    """

    kind: str
    dimension: int
    n_sites: int
    boundary: str
    positions: np.ndarray = field(repr=False)
    period_vectors: np.ndarray | None = field(repr=False, default=None)

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"


@dataclass(frozen=True)
class MomentumGrid:
    """Quasi-momenta of a periodic lattice, in units of 1/a.

    ``coords`` (N, D) holds the integer coordinates of each momentum, in
    [0, side): row ``j*side + i`` holds (i, j), or (i,) on the chain, and its
    ``kvecs`` row is sum_d (coords[d] / side) * reciprocal_vectors[d].
    """

    kvecs: np.ndarray
    coords: np.ndarray
    side: int
    reciprocal_vectors: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.kvecs)

    def index(self, coords) -> np.ndarray:
        """Grid rows of integer coordinates (..., D), taken modulo ``side``
        (that is, modulo the reciprocal lattice)."""
        c = np.asarray(coords) % self.side
        return c @ self.side ** np.arange(c.shape[-1])

    def pair_fold(self) -> tuple[np.ndarray, np.ndarray]:
        """One representative per ±k pair, k = 0 excluded.

        Returns (indices, multiplicities): multiplicity 2 for a regular
        pair, 1 for self-paired points (k ≡ -k up to a reciprocal vector),
        so that a fold-weighted sum equals the full-grid sum without k=0.
        """
        row = np.arange(self.n_points)
        neg = self.index(-self.coords)
        reps = row[(row > 0) & (neg >= row)]
        return reps, np.where(neg[reps] == reps, 1, 2)


def build_lattice(kind: str, n_sites: int, boundary: str = "open") -> Lattice:
    """Generate a deterministic site arrangement.

    chain: sites 0..N-1 on a line.  square: L x L integer grid (N must be a
    perfect square).  triangular: near-hexagonal patch filled row by row for
    open boundaries, L x L rhombic torus for periodic ones.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}; expected one of {_KINDS}")
    if boundary not in _BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}; expected one of {_BOUNDARIES}")
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")

    period = None
    if kind == "chain":
        dimension = 1
        positions = np.arange(n_sites, dtype=float)[:, None]
        if boundary == "periodic":
            period = np.array([[float(n_sites)]])
    elif kind == "square":
        dimension = 2
        side = int(round(np.sqrt(n_sites)))
        if side * side != n_sites:
            raise ValueError(f"square lattice needs a perfect-square n_sites, got {n_sites}")
        positions = np.indices((side, side)).reshape(2, -1).T.astype(float)  # (i, j), i major
        if boundary == "periodic":
            period = np.array([[float(side), 0.0], [0.0, float(side)]])
    else:  # triangular
        dimension = 2
        if boundary == "periodic":
            side = int(round(np.sqrt(n_sites)))
            if side * side != n_sites:
                raise ValueError(
                    f"periodic triangular lattice needs a perfect-square n_sites, got {n_sites}"
                )
            j, i = divmod(np.arange(n_sites), side)
            positions = i[:, None] * _TRI_A1 + j[:, None] * _TRI_A2
            period = np.vstack([side * _TRI_A1, side * _TRI_A2])
        else:
            positions = _triangular_patch(n_sites)

    return Lattice(
        kind=kind,
        dimension=dimension,
        n_sites=n_sites,
        boundary=boundary,
        positions=positions,
        period_vectors=period,
    )


def _triangular_patch(n_sites: int) -> np.ndarray:
    """Compact patch of the triangular lattice: sites sorted by distance from
    the origin, ties broken row by row, on the exact integer key
    |i a1 + j a2|^2 = i^2 + ij + j^2, then j, then i."""
    radius = int(np.ceil(np.sqrt(n_sites))) + 2
    j, i = np.indices((2 * radius + 1,) * 2).reshape(2, -1) - radius
    order = np.lexsort((i, j, i * i + i * j + j * j))[:n_sites]
    return i[order, None] * _TRI_A1 + j[order, None] * _TRI_A2


def _cell(lattice: Lattice) -> np.ndarray:
    """Primitive cell vectors (rows), in which every site has integer
    coordinates."""
    return np.vstack([_TRI_A1, _TRI_A2]) if lattice.kind == "triangular" else np.eye(lattice.dimension)


def _cell_coords(lattice: Lattice) -> np.ndarray:
    """Integer coordinates (N, D) of every site in the cells of :func:`_cell`."""
    return np.rint(lattice.positions @ np.linalg.inv(_cell(lattice))).astype(np.int64)


def _point_group(lattice: Lattice) -> np.ndarray:
    """Integer matrices (G, D, D) of the lattice's point group, identity
    first: the chain's reflection, D4 of the square lattice, D6 of the
    triangular one.  They act on row vectors of cell coordinates, c -> c @
    M[g]: each Cartesian rotation or reflection R conjugated into the cell
    basis, A R^T A^-1 with the cell vectors the rows of A."""
    if lattice.dimension == 1:
        return np.array([[[1]], [[-1]]])
    m = 4 if lattice.kind == "square" else 6
    a = 2.0 * np.pi * np.arange(m) / m
    rot = np.stack([np.cos(a), -np.sin(a), np.sin(a), np.cos(a)], axis=-1).reshape(-1, 2, 2)
    maps = np.concatenate([rot, rot * [1.0, -1.0]])  # then each after the reflection y -> -y
    cell = _cell(lattice)
    return np.rint(cell @ maps.transpose(0, 2, 1) @ np.linalg.inv(cell)).astype(np.int64)


def _point_group_maps(lattice: Lattice) -> np.ndarray:
    """Site permutations (G, N) of an open patch, identity first: the maps of
    :func:`_point_group` about the centroid that carry the sites onto
    themselves.  Row g holds the image site of every site."""
    own = _cell_coords(lattice)
    lo, span = own.min(axis=0), np.ptp(own, axis=0) + 1
    site = np.full(np.prod(span), -1)
    site[np.ravel_multi_index(tuple((own - lo).T), span)] = np.arange(lattice.n_sites)
    # cell coordinates of every image; a map is kept when each lands on a site
    centroid = own.mean(axis=0)
    frac = (own - centroid) @ _point_group(lattice) + centroid - lo
    near = np.rint(frac).astype(np.int64)
    on = np.all((np.abs(frac - near) < 1e-6) & (near >= 0) & (near < span), axis=-1)
    image = np.where(on, site[np.ravel_multi_index(tuple(np.moveaxis(near, -1, 0)), span, mode="clip")], -1)
    return image[np.all(image >= 0, axis=1)]


def _minimum_image(diff: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Shortest torus image of each displacement in ``diff`` (..., D).

    Open lattices return ``diff`` itself.  2D tori test the neighboring
    images m1*T1 + m2*T2 with |m1|, |m2| <= 2, all 25 at once for a block of
    displacements whose stacked images fit ``_IMAGE_BLOCK_BYTES``; ties keep
    the first in the order of diff itself, then m1 and m2 ascending.
    """
    if not lattice.periodic:
        return diff
    period = lattice.period_vectors
    if lattice.dimension == 1:
        box = period[0, 0]
        return diff - box * np.round(diff / box)
    m1, m2 = np.divmod(np.delete(np.arange(25), 12), 5)  # m1 major, (0, 0) left out
    t1, t2 = (m1 - 2)[:, None] * period[0], (m2 - 2)[:, None] * period[1]
    flat = diff.reshape(-1, 2)
    best = np.empty_like(flat)
    step = max(1, _IMAGE_BLOCK_BYTES // (25 * flat.itemsize * 2))
    for lo in range(0, len(flat), step):
        d = flat[lo:lo + step, None, :]
        cand = np.concatenate([d, d + t1 + t2], axis=1)  # (block, 25, 2)
        n = np.einsum("...k,...k->...", cand, cand)
        best[lo:lo + step] = cand[np.arange(len(cand)), n.argmin(axis=1)]
    return best.reshape(diff.shape)


def displacements(lattice: Lattice) -> np.ndarray:
    """Pairwise displacement vectors r_i - r_j, shape (N, N, D).

    Minimum-image displacements on periodic lattices (shortest among the
    neighboring torus images).
    """
    n, dim = lattice.positions.shape
    # the table and the kernel's temporaries: 16 (D + 1) bytes a pair
    # under tracemalloc, on either boundary, and one row for the rest
    require_memory(16 * (dim + 1) * n * (n + 1), "pair tables need", f"for {n} sites")
    pos = lattice.positions
    return _minimum_image(pos[:, None, :] - pos[None, :, :], lattice)


def relative_sites(lattice: Lattice) -> np.ndarray:
    """Displacements r_j - r_0 for j != 0, shape (N-1, D), built in O(N).

    Equal to ``displacements(lattice)[1:, 0, :]``.  On a torus every site is
    equivalent, so this one row describes every lattice sum over j != i.
    """
    pos = lattice.positions
    return _minimum_image(pos[1:] - pos[0], lattice)


def coupling_kernel(lattice: Lattice) -> np.ndarray:
    """Dimensionless dipolar kernel d_ij = a^3 / |r_i - r_j|^3, d_ii = 0."""
    diff = displacements(lattice)
    dist = np.linalg.norm(diff, axis=-1)
    if np.any((dist == 0) & ~np.eye(lattice.n_sites, dtype=bool)):
        raise ValueError("coincident sites in lattice")
    with np.errstate(divide="ignore"):
        d = 1.0 / dist**3
    np.fill_diagonal(d, 0.0)
    return d


def momentum_grid(lattice: Lattice) -> MomentumGrid:
    """First-Brillouin-zone quasi-momenta of a periodic lattice (units 1/a)."""
    if not lattice.periodic:
        raise ValueError("momentum grid requires a periodic lattice")
    n = lattice.n_sites
    dim = lattice.dimension
    side = n if dim == 1 else int(round(np.sqrt(n)))
    # integer coordinates, the first one running fastest
    coords = np.indices((side,) * dim).reshape(dim, -1)[::-1].T
    if lattice.kind == "chain":
        kvecs = 2.0 * np.pi * coords / n
        recip = np.array([[2.0 * np.pi]])
    else:
        # reciprocal basis b_i . a_j = 2 pi delta_ij of the cell vectors a_j
        recip = 2.0 * np.pi * np.linalg.inv(lattice.period_vectors / side).T
        frac = coords / side
        kvecs = frac[:, :1] * recip[0] + frac[:, 1:] * recip[1]
    return MomentumGrid(kvecs=kvecs, coords=coords, side=side, reciprocal_vectors=recip)


def _torus_cells(lattice: Lattice, grid: MomentumGrid) -> np.ndarray:
    """The grid row of each site's torus cell: its integer cell coordinates
    modulo ``grid.side``, the element of Z_side^D that
    :meth:`MomentumGrid.index` numbers."""
    return grid.index(_cell_coords(lattice))


def _torus_sums(lattice: Lattice, c: np.ndarray, s: np.ndarray | None = None):
    """sum_j c_j sin^2(k.r_j / 2), and with ``s`` also sum_j s_j sin(k.r_j),
    at every row k of :func:`momentum_grid`, over the sites r_j of
    :func:`relative_sites`, whose rows the (N-1,) or (N-1, W) weights follow.

    On the torus k.r_j is 2 pi times an integer p_j over the side, so both
    are read from one discrete Fourier transform F(k) = sum_j w_j e^{-i
    k.r_j} of the weights placed on their sites' cells: (F(0) - Re F(k)) / 2
    and -Im F(k).  The sin^2 sums are exactly 0 at k = 0.  That difference
    keeps about eps |F(0)| of absolute precision, so at the rows where every
    sin^2 sum is below ``_TORUS_DIRECT_FRACTION`` of its |F(0)|, the sin^2
    sums are summed term by term instead, from a table of
    sin^2(pi p / side) over p in [-side / 2, side / 2), where a small phase
    keeps its relative precision.  Such rows are the smallest momenta of a
    long chain (about N / 220 of them, so about N^2 / 220 terms); a 2-D
    torus has none below a side of a few thousand.
    """
    grid = momentum_grid(lattice)
    n, dim, side = lattice.n_sites, lattice.dimension, grid.side
    given = (c,) if s is None else (c, s)
    weights = [v.reshape(n - 1, -1) for v in given]
    cells = _cell_coords(lattice)
    w = np.zeros((n, sum(v.shape[1] for v in weights)))
    w[grid.index(cells)[1:]] = np.concatenate(weights, axis=1)
    # cell row i + side j is w[j, i], so row k_1 + side k_2 of the transform is F(k)
    f = np.fft.fftn(w.reshape((side,) * dim + (-1,)), axes=range(dim)).reshape(n, -1)
    wc = weights[0].shape[1]
    sin2 = (f[0, :wc].real - f[:, :wc].real) / 2.0
    # the rows k != 0 where every sin^2 sum is below the fraction of its F(0),
    # the first column tested alone first; row 0 holds exact zeros
    bound = _TORUS_DIRECT_FRACTION * np.abs(f[0, :wc].real)
    direct = np.flatnonzero(np.abs(sin2[:, 0]) < bound[0])[1:]
    if direct.size:
        direct = direct[np.all(np.abs(sin2[direct]) < bound, axis=1)]
        half = side // 2
        table = np.sin(np.pi * (np.arange(side) - half) / side) ** 2
        rel = cells[1:] - cells[0]
        step = max(1, _DIRECT_BLOCK_TERMS // n)
        for start in range(0, len(direct), step):
            rows = direct[start:start + step]
            p = grid.coords[rows] @ rel.T
            p += half
            p %= side
            sin2[rows] = table[p] @ weights[0]
    sums = [sin2, -f[:, wc:].imag]
    sums = [x if v.ndim == 2 else x[:, 0] for x, v in zip(sums, given)]
    return sums[0] if s is None else tuple(sums)
