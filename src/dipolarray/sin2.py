"""The sin^2 kernel :func:`_sin2_sum`: every mode and spectral sum
sum_m c_m sin^2(h_m t) over a 1-D grid of t, with its sine partner
sum_m s_m sin(2 h_m t).

Its callers: in :mod:`dipolarray.spinwave` the large-cutoff dispersion sums
and the perturbative decay; in :mod:`dipolarray.phonon` the decay sums,
whose pair blocks arrive as a stream; in :mod:`dipolarray.dynamics` the
Dicke projections of every sector, about a carrier phase each.  Evenly
spaced grids take the split route, every other grid the direct one; see
:func:`_sin2_sum`.  The lattice sums over a torus's momentum grid are one
Fourier transform instead (:func:`dipolarray.lattice._torus_sums`).
"""

from __future__ import annotations

from functools import reduce
from math import isqrt
from typing import NamedTuple

import numpy as np

# the (slice x phases) tables of one slice in _sin2_sum; fixed, so the
# slicing and hence the summation order depend on the blocks alone
_SLICE_BYTES = 2**20


def _sin2_sum(blocks, times: np.ndarray):
    """sum_m c_m sin^2(x_m) at every t of the 1-D ``times``, x_m = h_m t,
    over the mode axis given as ``blocks`` of (c, h) or (c, h, s), h
    (modes,); with s, also the sine partner sum_m s_m sin(2 x_m) from the
    same phases.  ``c`` and ``s`` are (modes,) or (modes, W), and each sum
    (T,) or (T, W); with s the result is the pair (sin^2 sum, sine sum).

    On an evenly spaced grid (see :func:`_time_split`) every t is t_0 + a
    coarse + b fine, a < A, b < B, and a slice tabulates F(x) = 1 - e^{2ix}
    at the A coarse and B fine phases of each mode as (rows x modes) tables,
    from sin and cos at the fine step, the coarse step and t_0 only: rows
    [n, 2n) follow from rows [0, n) by F(x + y) = F(x) (1 - F(y)) + F(y) and
    the step doubles by F(2y) = F(y) (2 - F(y)), neither of which has a 1 -
    cos in it.  Each tabulated phase carries a few ulps more than h_m t
    rounded once.  The two phases of a point share their sign, and the slice
    sums F_a - F_a F_b + F_b over the modes with one complex GEMM; small
    phases keep their relative precision.  The sin^2 sum also has an
    absolute floor, which the direct route lacks: F_a - F_a F_b + F_b rounds
    terms of size up to 2, and each doubled table row adds a rounding of |1
    - F| ~ 1, so it is about sqrt(T) eps sum_m |c_m| min(1, x_m^2).  It
    shows near the zeros of sin^2, where the phases' rounding moves the sum
    least: beyond that part, 40-digit mpmath measured at most 0.8 of it (T
    <= 5000, phases to 940).  The coarse, fine and weighted fine tables of
    every slice share one complex workspace per call, which grows to the
    largest slice: allocated per slice, each slice's tables would be mapped
    and returned to the system again.

    On any other grid the phase is h_m t rounded exactly as ``h[m] *
    times``, and one sin^2 table, or a sin and a cos table with s, is
    contracted with the weights.

    ``blocks`` may be a generator: each block is cut into slices whose
    (slice x phases) tables fit ``_SLICE_BYTES``, and the slices run one at a
    time, so a stream of blocks is consumed as it is summed.  The partial
    sums are added in slice order, so the summation order depends on the
    blocks and ``_SLICE_BYTES`` only.
    """
    split = _time_split(times)
    work = np.empty(0, dtype=complex)

    def slices():
        for c, h, *s in blocks:
            if split is None:
                mode_bytes = 8 * (1 + len(s)) * max(len(times), 1)
            else:
                # the coarse and fine tables and the weighted fine table
                mode_bytes = 16 * (split.a + split.b * (1 + sum(map(_columns, (c, *s)))))
            step = max(1, _SLICE_BYTES // mode_bytes)
            for start in range(0, max(len(c), 1), step):
                part = slice(start, start + step)
                yield c[part], h[part], *(w[part] for w in s)

    def partial(part):
        c, h, *s = part
        if split is not None:
            return split_sums(c, h, s)
        x = np.multiply(h[:, None], times)
        if not s:
            np.sin(x, out=x)
            return [c.T @ np.square(x, out=x)]
        cos = np.cos(x)
        np.sin(x, out=x)
        cos *= x
        return [c.T @ np.square(x, out=x), s[0].T @ cos]

    def split_sums(c, h, s):
        # with F(x) = 1 - e^{2ix} = 2 sin^2 x - 2i sin x cos x, which keeps
        # the relative precision of small x where 1 - cos 2x would cancel,
        # 1 - e^{2ih(T_a + tau_b)} = F_a - F_a F_b + F_b; the sin^2 sum is
        # 1/2 Re and the sine sum -Im of its weighted sum over the modes: two
        # GEMVs and one complex GEMM, the weights as columns of the fine factor
        nonlocal work
        m = len(h)
        weights = [w.reshape(m, _columns(w)) for w in (c, *s)]
        # (columns x modes) in row order, so that the weighted fine table
        # below is too and the GEMM takes it without a copy
        wt = np.ascontiguousarray(np.concatenate(weights, axis=1).T)
        k, na, nb = len(wt), split.a, split.b
        size = (na + nb * (1 + k)) * m
        if len(work) < size:
            work = np.empty(size, dtype=complex)
        # the coarse, fine and weighted fine tables
        fa = work[:na * m].reshape(na, m)
        fb = work[na * m:(na + nb) * m].reshape(nb, m)
        fbw = work[(na + nb) * m:size].reshape(nb, k, m)
        factor_table(h * split.coarse, fa, h * split.t0 if split.t0 else None)
        factor_table(h * split.fine, fb)
        np.multiply(fb[:, None, :], wt, out=fbw)
        z = (fa @ fbw.reshape(nb * k, m).T).reshape(-1, nb, k)
        np.subtract((fa @ wt.T)[:, None, :], z, out=z)
        z += fb @ wt.T
        z = z.reshape(-1, k)[:len(times)]
        wc = weights[0].shape[1]
        sums = [0.5 * z[:, :wc].real, -z[:, wc:].imag][:1 + len(s)]
        return [x if w.ndim == 2 else x[:, 0] for x, w in zip(sums, (c, *s))]

    def factor_table(step, f, start=None):
        # F(start + r step) into row r of the (count x modes) table f: rows
        # [n, 2n) from rows [0, n) by F(x + y) = F(x) (1 - F(y)) + F(y) with
        # F(y) = F(n step), doubled by F(2y) = F(y) (2 - F(y)); sin and cos
        # run only at the step and the start
        count = len(f)
        f[0] = 0.0 if start is None else one_minus_exp2i(start)
        fy, n = one_minus_exp2i(step), 1
        while n < count:
            rows = min(n, count - n)
            np.multiply(f[:rows], 1.0 - fy, out=f[n:n + rows])
            f[n:n + rows] += fy
            n *= 2
            if n < count:
                fy *= 2.0 - fy

    def one_minus_exp2i(x):
        sin = np.sin(x)
        cos = np.cos(x, out=x)
        f = np.empty(x.shape, dtype=complex)
        np.multiply(sin, cos, out=f.imag)
        f.imag *= -2.0
        sin *= sin
        np.multiply(sin, 2.0, out=f.real)
        return f

    total = reduce(_add, map(partial, slices()))
    if split is not None:
        return total[0] if len(total) == 1 else tuple(total)
    return total[0].T if len(total) == 1 else (total[0].T, 2.0 * total[1].T)


class _Split(NamedTuple):
    """An evenly spaced grid t_{aB + b} = t0 + a coarse + b fine, a < A,
    b < B, of :func:`_time_split`."""

    t0: float
    fine: float
    coarse: float
    a: int
    b: int


def _time_split(times: np.ndarray) -> _Split | None:
    """The split of an evenly spaced 1-D grid; else None.

    A grid of T > 3 points t_n = t_0 + n dt with t_0 dt >= 0 splits with B =
    ceil(sqrt(T)) fine steps dt and A = ceil(T / B) coarse steps B dt; the
    two phases of a point then share its sign, so their sum never cancels.
    The form must hold to 4 ulps of the grid's largest |t|, since the kernel
    evaluates the form, not the points; the check is O(T).
    """
    n = len(times)
    if n <= 3:
        return None
    t0 = times[0]
    fine = (times[-1] - t0) / (n - 1)
    if not (np.isfinite(fine) and fine != 0 and t0 * fine >= 0):
        return None
    if not np.abs(times - (t0 + np.arange(n) * fine)).max() <= 4 * np.spacing(np.abs(times).max()):
        return None
    b = isqrt(n - 1) + 1
    return _Split(t0, fine, b * fine, -(-n // b), b)


def _columns(w: np.ndarray) -> int:
    """Weight columns of a (modes,) or (modes, W) array."""
    return w.shape[1] if w.ndim == 2 else 1


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]
