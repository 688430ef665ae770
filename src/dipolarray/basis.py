"""Fixed-excitation-number configuration bases and symmetric collective states."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "ResourceLimitError",
    "SectorBasis",
    "StateVector",
    "sector_basis",
    "dicke_state",
    "overlap",
    "rank_config",
    "unrank_config",
]

DEFAULT_DIMENSION_CAP = 10**6


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured size cap: the sector
    basis dimension cap, or the memory cap of the gamma2 pair tables."""


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

    def rank(self, config: tuple[int, ...]) -> int:
        return rank_config(config)

    def unrank(self, rank: int) -> tuple[int, ...]:
        return unrank_config(rank, self.n_exc)


def sector_basis(n_sites: int, n_exc: int, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> SectorBasis:
    if not 0 <= n_exc <= n_sites:
        raise ValueError(f"need 0 <= n_exc <= n_sites, got {n_exc}, {n_sites}")
    dim = comb(n_sites, n_exc)
    if dim > dimension_cap:
        raise ResourceLimitError(
            f"sector dimension C({n_sites},{n_exc}) = {dim} exceeds cap {dimension_cap}"
        )
    # combinations of the descending sites come in reverse colex order, each
    # tuple descending: flipping both axes gives colex order, rows ascending
    descending = itertools.chain.from_iterable(
        itertools.combinations(range(n_sites - 1, -1, -1), n_exc)
    )
    configs = np.fromiter(descending, dtype=np.int64, count=dim * n_exc).reshape(dim, n_exc)
    configs = np.ascontiguousarray(configs[::-1, ::-1])
    return SectorBasis(n_sites=n_sites, n_exc=n_exc, configs=configs)


@dataclass
class StateVector:
    sector: SectorBasis
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def dicke_state(basis: SectorBasis) -> StateVector:
    """Uniform-amplitude symmetric state of the sector (1/sqrt(dim) each)."""
    amp = np.full(basis.dim, 1.0 / np.sqrt(basis.dim), dtype=complex)
    return StateVector(sector=basis, amplitudes=amp)


def overlap(psi: StateVector, phi: StateVector) -> complex:
    """Inner product <psi|phi>; zero across different sectors."""
    if psi.sector.n_sites != phi.sector.n_sites:
        raise ValueError("states live on different lattices")
    if psi.sector.n_exc != phi.sector.n_exc:
        return 0.0 + 0.0j
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))
