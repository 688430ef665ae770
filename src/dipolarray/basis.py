"""Fixed-excitation-number configuration bases and symmetric collective states."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "MEMORY_BYTES_MAX",
    "ResourceLimitError",
    "require_memory",
    "SectorBasis",
    "sector_basis",
    "dicke_state",
    "rank_config",
    "unrank_config",
]

DEFAULT_DIMENSION_CAP = 10**6
# every size-dependent table refuses up front when its estimate exceeds this
MEMORY_BYTES_MAX = 2**30


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a size cap: the sector basis dimension
    cap (``DEFAULT_DIMENSION_CAP``, a count) or the one memory budget
    (``MEMORY_BYTES_MAX``), which :func:`require_memory` checks against each
    module's own byte estimate."""


def require_memory(need: int, subject: str, detail: str) -> None:
    """Raise :class:`ResourceLimitError` when ``need`` bytes exceed
    ``MEMORY_BYTES_MAX``; the message reads "<subject> about <need> MiB
    <detail>; cap is <cap> MiB"."""
    if need > MEMORY_BYTES_MAX:
        raise ResourceLimitError(f"{subject} about {need / 2**20:.0f} MiB {detail}; "
                                 f"cap is {MEMORY_BYTES_MAX / 2**20:.0f} MiB")


def _require_eigh_memory(k: int) -> None:
    """:func:`require_memory` for the dense eigh of a quotient of dimension
    ``k`` and lower bound, about 40 k^2 bytes with its block, eigenvectors
    and workspace."""
    require_memory(40 * k**2, f"quotient of dimension {k} or more needs", "to diagonalize")


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
