"""The one memory budget of the library: every size-dependent table checks
its own byte estimate against ``MEMORY_BYTES_MAX`` before it is built."""

from __future__ import annotations

__all__ = [
    "MEMORY_BYTES_MAX",
    "ResourceLimitError",
    "require_memory",
]

# every size-dependent table refuses up front when its estimate exceeds this
MEMORY_BYTES_MAX = 2**30


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the memory budget
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
