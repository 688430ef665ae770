"""The sin^2 kernel :func:`_sin2_sum`: every lattice, mode and spectral sum
sum_m c_m sin^2(h_m . t), with its sine partner sum_m s_m sin(2 h_m . t).

Its callers: in :mod:`dipolarray.spinwave` the band, the Fourier kernel, the
large-cutoff dispersion sums and the perturbative decay; in
:mod:`dipolarray.phonon` the dynamical matrices, band and coupling force of
one pass and the decay sums, whose pair blocks arrive as a stream; in
:mod:`dipolarray.dynamics` the Dicke projections of every sector, about a
carrier phase each.  Evenly spaced and product grids take the split route,
every other grid the direct one; see :func:`_sin2_sum`.
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
    """sum_m c_m sin^2(x_m) at every t of ``times``, x_m = h_m . t, over the
    mode axis given as ``blocks`` of (c, h) or (c, h, s); with s, also the
    sine partner sum_m s_m sin(2 x_m) from the same phases.

    A (modes,) ``h`` takes 1-D ``times``; a (modes, D) ``h`` takes (T, D)
    ``times`` and the dot product of h_m with each row.  ``c`` and ``s`` are
    (modes,) or (modes, W), and each sum (T,) or (T, W); with s the result is
    the pair (sin^2 sum, sine sum).

    A (T, 1) ``times`` and (modes, 1) ``h`` run as 1-D: the dot product is
    one multiply, so the direct route gives the same bits.  On an evenly
    spaced 1-D grid or a product grid (see :func:`_time_split`) every t is
    t_0 + a coarse + b fine, a < A, b < B, and a slice tabulates F(x) = 1 -
    e^{2ix} at the A coarse and B fine phases of each mode as (rows x modes)
    tables, from sin and cos at the fine step, the coarse step and t_0 only:
    rows [n, 2n) follow from rows [0, n) by F(x + y) = F(x) (1 - F(y)) + F(y)
    and the step doubles by F(2y) = F(y) (2 - F(y)), neither of which has a 1
    - cos in it.  Each tabulated phase carries a few ulps more than h_m t
    rounded once.

    On the 1-D grid the two phases of a point share their sign, and the
    slice sums F_a - F_a F_b + F_b over the modes with one complex GEMM;
    small phases keep their relative precision.  The sin^2 sum also has an
    absolute floor, which the direct route lacks: F_a - F_a F_b + F_b rounds
    terms of size up to 2, and each doubled table row adds a rounding of |1
    - F| ~ 1, so it is about sqrt(T) eps sum_m |c_m| min(1, x_m^2).  It
    shows near the zeros of sin^2, where the phases' rounding moves the sum
    least: beyond that part, 40-digit mpmath measured at most 0.8 of it (T
    <= 5000, phases to 940).

    On a product grid the two axes' phases may cancel, and there that floor
    would be eps sum_m |c_m| min(1, X_m^2) for axis phases of size X_m, far
    above sin^2 of their small sum.  So the tables are taken at half the
    phase, e^{ix} = 1 - F(x / 2), and every (point, mode) gets e^{ix_a}
    e^{ix_b}: its imaginary part sin x_a cos x_b + cos x_a sin x_b rounds
    as the phase x_a + x_b does, as the direct route's dot product h_m . t
    does.  sin^2 x and sin x cos x are contracted with the weights, (T x
    modes) tables as on the direct route but without its T x modes sines.
    On any other grid the phase is h_m t rounded exactly as ``h[m] *
    times`` (or the dot product), and one sin^2 table, or a sin and a cos
    table with s, is contracted with the weights.

    ``blocks`` may be a generator: each block is cut into slices whose
    (slice x phases) tables fit ``_SLICE_BYTES``, and the slices run one at a
    time, so a stream of blocks is consumed as it is summed.  The partial
    sums are added in slice order, so the summation order depends on the
    blocks and ``_SLICE_BYTES`` only.
    """
    if times.ndim == 2 and times.shape[1] == 1:
        # a 1-D dot product is one multiply: the direct route stays bitwise
        # and an evenly spaced axis can split
        times = times[:, 0]
    split = _time_split(times)

    def slices():
        for c, h, *s in blocks:
            if h.ndim > times.ndim:
                h = h[:, 0]
            if split is None:
                mode_bytes = 8 * (1 + len(s)) * max(len(times), 1)
            elif times.ndim == 2:
                # the axis tables, then e^{ix} and one real table per point
                mode_bytes = 32 * (split.a + split.b) + 24 * len(times)
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
            return (product_sums if times.ndim == 2 else split_sums)(c, h, s)
        x = np.multiply(h[:, None], times) if h.ndim == 1 else h @ times.T
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
        m = len(h)
        weights = [w.reshape(m, _columns(w)) for w in (c, *s)]
        # (columns x modes) in row order, so that the weighted fine table
        # below is too and the GEMM takes it without a copy
        wt = np.ascontiguousarray(np.concatenate(weights, axis=1).T)
        # the phases of the steps: h times a scalar, or the dot product
        fa = factor_table(np.dot(h, split.coarse), split.a, np.dot(h, split.t0) if np.any(split.t0) else None)
        fb = factor_table(np.dot(h, split.fine), split.b)
        k, nb = len(wt), split.b
        z = (fa @ (fb[:, None, :] * wt).reshape(nb * k, m).T).reshape(-1, nb, k)
        np.subtract((fa @ wt.T)[:, None, :], z, out=z)
        z += fb @ wt.T
        z = z.reshape(-1, k)[:len(times)]
        wc = weights[0].shape[1]
        sums = [0.5 * z[:, :wc].real, -z[:, wc:].imag][:1 + len(s)]
        return [x if w.ndim == 2 else x[:, 0] for x, w in zip(sums, (c, *s))]

    def product_sums(c, h, s):
        # e^{ix} = 1 - F(x / 2) of the two axes' phases, multiplied at every
        # (point, mode): rows a B + b, as the product grid's
        ea = 1.0 - factor_table(np.dot(h, split.coarse) / 2.0, split.a,
                                np.dot(h, split.t0) / 2.0 if np.any(split.t0) else None)
        eb = 1.0 - factor_table(np.dot(h, split.fine) / 2.0, split.b)
        e = np.multiply(ea[:, None], eb).reshape(len(times), len(h))
        sums = [np.square(e.imag) @ c]
        if s:
            sums.append(2.0 * (np.multiply(e.real, e.imag) @ s[0]))
        return sums

    def factor_table(step, count, start=None):
        # F(start + r step), r < count, as (count x modes): rows [n, 2n)
        # from rows [0, n) by F(x + y) = F(x) (1 - F(y)) + F(y) with
        # F(y) = F(n step), doubled by F(2y) = F(y) (2 - F(y)); sin and cos
        # run only at the step and the start
        f = np.empty((count, len(step)), dtype=complex)
        f[0] = 0.0 if start is None else one_minus_exp2i(start)
        fy, n = one_minus_exp2i(step), 1
        while n < count:
            rows = min(n, count - n)
            np.multiply(f[:rows], 1.0 - fy, out=f[n:n + rows])
            f[n:n + rows] += fy
            n *= 2
            if n < count:
                fy *= 2.0 - fy
        return f

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
    """A grid t_{aB + b} = t0 + a coarse + b fine, a < A, b < B, of
    :func:`_time_split`; scalars on a 1-D grid, (D,) rows on a product grid."""

    t0: float | np.ndarray
    fine: float | np.ndarray
    coarse: float | np.ndarray
    a: int
    b: int


def _time_split(times: np.ndarray) -> _Split | None:
    """The split of an evenly spaced 1-D grid or of a product grid; else None.

    A 1-D grid of T > 3 points t_n = t_0 + n dt with t_0 dt >= 0 splits with
    B = ceil(sqrt(T)) fine steps dt and A = ceil(T / B) coarse steps B dt;
    the two phases of a point then share its sign, so their sum never
    cancels.  A (s^2, D) grid, s >= 2, whose row j s + i is t_0 + i d_1 +
    j d_2 splits with the fine step d_1, the coarse step d_2 and A = B = s;
    its phases h . d may cancel, as the direct route's dot products may.
    Either form must hold to 4 ulps of the grid's largest |t|, since the
    kernel evaluates the form, not the rows; the check is O(T).
    """
    n = len(times)
    if times.ndim == 1:
        if n <= 3:
            return None
        t0 = times[0]
        fine = (times[-1] - t0) / (n - 1)
        if not (np.isfinite(fine) and fine != 0 and t0 * fine >= 0):
            return None
        b = isqrt(n - 1) + 1
        split = _Split(t0, fine, b * fine, -(-n // b), b)
        grid = t0 + np.arange(n) * fine
    else:
        s = isqrt(n)
        if s < 2 or s * s != n:
            return None
        t0 = times[0]
        split = _Split(t0, (times[s - 1] - t0) / (s - 1), (times[n - s] - t0) / (s - 1), s, s)
        row = np.arange(n)
        grid = t0 + np.multiply.outer(row % s, split.fine) + np.multiply.outer(row // s, split.coarse)
    if not np.abs(times - grid).max() <= 4 * np.spacing(np.abs(times).max()):
        return None
    return split


def _columns(w: np.ndarray) -> int:
    """Weight columns of a (modes,) or (modes, W) array."""
    return w.shape[1] if w.ndim == 2 else 1


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]
