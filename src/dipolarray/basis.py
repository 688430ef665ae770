"""Fixed-excitation-number configuration bases and symmetric collective states."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "ResourceLimitError",
    "SectorBasis",
    "sector_basis",
    "dicke_state",
    "rank_config",
    "unrank_config",
]

DEFAULT_DIMENSION_CAP = 10**6


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured size cap: the sector
    basis dimension cap (``DEFAULT_DIMENSION_CAP``), the memory cap of the
    two-excitation assembly (``hamiltonian.ASSEMBLY_BYTES_MAX``), the memory
    cap of the dense quotient diagonalization (``dynamics.QUOTIENT_BYTES_MAX``),
    the memory cap of the gamma2 pair tables (``phonon.PAIR_TABLE_BYTES_MAX``),
    or the memory cap of the large-cutoff dispersion tables
    (``spinwave.DISPERSION_BYTES_MAX``)."""


def rank_config(config: tuple[int, ...]) -> int:
    """Colexicographic rank of a strictly increasing index tuple."""
    return sum(comb(c, t + 1) for t, c in enumerate(config))


def unrank_config(rank: int, n_exc: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_config` (greedy combinatorial decomposition)."""
    out = []
    r = rank
    for t in range(n_exc, 0, -1):
        c = t - 1
        while comb(c + 1, t) <= r:
            c += 1
        out.append(c)
        r -= comb(c, t)
    return tuple(reversed(out))


@dataclass(frozen=True)
class SectorBasis:
    """All n-subsets of N sites, enumerated in colexicographic order."""

    n_sites: int
    n_exc: int
    configs: np.ndarray = field(repr=False)  # (dim, n_exc) int

    @property
    def dim(self) -> int:
        return len(self.configs)


def sector_basis(n_sites: int, n_exc: int) -> SectorBasis:
    if not 0 <= n_exc <= n_sites:
        raise ValueError(f"need 0 <= n_exc <= n_sites, got {n_exc}, {n_sites}")
    dim = comb(n_sites, n_exc)
    if dim > DEFAULT_DIMENSION_CAP:
        raise ResourceLimitError(
            f"sector dimension C({n_sites},{n_exc}) = {dim} exceeds cap {DEFAULT_DIMENSION_CAP}"
        )
    # combinations of the descending sites come in reverse colex order, each
    # tuple descending: flipping both axes gives colex order, rows ascending
    descending = itertools.chain.from_iterable(
        itertools.combinations(range(n_sites - 1, -1, -1), n_exc)
    )
    configs = np.fromiter(descending, dtype=np.int64, count=dim * n_exc).reshape(dim, n_exc)
    configs = np.ascontiguousarray(configs[::-1, ::-1])
    return SectorBasis(n_sites=n_sites, n_exc=n_exc, configs=configs)


def dicke_state(basis: SectorBasis) -> np.ndarray:
    """Uniform-amplitude symmetric state of the sector: a complex array of
    ``basis.dim`` amplitudes, 1/sqrt(dim) each, in the basis order."""
    return np.full(basis.dim, 1.0 / np.sqrt(basis.dim), dtype=complex)
