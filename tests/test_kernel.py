"""The sin^2 kernel's two routes: the split sums on evenly spaced grids
against direct per-element sums and mpmath, the direct route bitwise on
every other grid, and the split route's trig budget and one workspace."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dipolarray.sin2 as sin2_mod
from dipolarray.lattice import build_lattice, relative_sites
from dipolarray.sin2 import _sin2_sum, _time_split
from dipolarray.spinwave import perturbative_decay2

EPS = np.finfo(float).eps


def split_slice_bytes(times, modes: int, columns: int = 1) -> int:
    """A ``sin2._SLICE_BYTES`` that cuts a kernel call on the split grid
    ``times`` into slices of ``modes`` modes: 16 bytes per coarse, fine and
    weighted fine factor of a mode, with ``columns`` weight and sine-partner
    columns."""
    split = _time_split(times)
    return modes * 16 * (split.a + split.b * (1 + columns))


def direct_sums(c, h, times, s=None):
    """The kernel's direct route: per slice of modes, the phases h[m] *
    times, one sin^2 table (and cos * sin with s), contracted with the
    weights and added in slice order."""
    step = max(1, sin2_mod._SLICE_BYTES // (8 * (1 + (s is not None)) * len(times)))
    parts = []
    for start in range(0, max(len(c), 1), step):
        part = slice(start, start + step)
        x = np.multiply(h[part, None], times)
        sin = np.sin(x)
        terms = [c[part].T @ np.square(sin)]
        if s is not None:
            terms.append(s[part].T @ (np.cos(x) * sin))
        parts.append(terms)
    total = reduce(lambda a, b: [x + y for x, y in zip(a, b)], parts)
    return total[0].T if s is None else (total[0].T, 2.0 * total[1].T)


def per_element(c, h, times, s=None):
    """Sums of every (time, mode) term, each phase rounded as t * h, with
    their sensitivity to the phases: sum |c| (sin^2 x + |x sin 2x|), and
    sum |s| (|sin 2x| + 2 |x cos 2x|) for the sine partner."""
    x = np.multiply.outer(times, h)
    scale = np.abs(x)
    sin2, sin2x = np.sin(x) ** 2, np.sin(2.0 * x)
    out = [(sin2 @ c, (sin2 + scale * np.abs(sin2x)) @ np.abs(c))]
    if s is not None:
        out.append((sin2x @ s, (np.abs(sin2x) + 2.0 * scale * np.abs(np.cos(2.0 * x))) @ np.abs(s)))
    return out


def weight_array(draw, modes: int, columns, signed: bool):
    """(modes,) weights, or (modes, columns): 0 or 1e-6 to 1 in magnitude,
    so that no term underflows, which would cost either route its relative
    precision."""
    shape = (modes,) if columns is None else (modes, columns)
    size = int(np.prod(shape))
    vals = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=size, max_size=size)))
    if signed:
        vals *= draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
    return vals.reshape(shape)


@st.composite
def even_grid_sums(draw):
    n = draw(st.integers(min_value=4, max_value=5000))
    t_end = draw(st.floats(1e-3, 3000.0))
    # a nonzero start from 1e-100: below, h t0 with |h| >= 3e-10 makes the
    # terms c sin^2(h t0) subnormal, where a last-ulp rounding is above any
    # relative bound (as weight_array, no term underflows)
    t0 = draw(st.just(0.0) | st.floats(1e-100, 100.0))
    times = np.linspace(t0, t0 + t_end, n)
    modes = draw(st.integers(min_value=0, max_value=24))
    # |h| times the last time from 1e-6 (the t^2 / 2 limit of the phonon
    # decay sums lies just below) to 1e3 radians, either sign
    log_phase = np.array(draw(st.lists(st.floats(-6.0, 3.0), min_size=modes, max_size=modes)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=modes, max_size=modes)))
    h = signs * 10.0**log_phase / times[-1]
    columns = draw(st.sampled_from([None, 1, 3]))
    c = weight_array(draw, modes, columns, signed=False)
    if draw(st.booleans()):
        # the decay sums' prefactor 2 w / omega^2, large for small phases
        c = 2.0 * c / (h**2 if columns is None else h[:, None] ** 2)
    s = weight_array(draw, modes, draw(st.sampled_from([None, 2])), signed=True) if draw(st.booleans()) else None
    cuts = sorted(draw(st.lists(st.integers(0, modes), max_size=3)))
    return times, c, h, s, [0, *cuts, modes]


@settings(max_examples=60, deadline=None)
@given(case=even_grid_sums())
# x = h t = -5 pi + 6.5e-6 at t = 0.69994: the split route is off by 1.8 eps
# (mpmath), the direct route by 1e-26, against 1e-12 of a sensitivity of 2e-4
@example(case=(np.linspace(0.0, 1.0, 5000), np.array([1.0]), np.array([-22.44188082]), None, [0, 1]))
def test_even_grid_matches_per_element_sums(case):
    times, c, h, s, edges = case
    assert _time_split(times) is not None
    blocks = ((c[a:b], h[a:b], *(() if s is None else (s[a:b],))) for a, b in zip(edges, edges[1:]))
    got = _sin2_sum(blocks, times)
    got = [got] if s is None else list(got)
    # the split route's absolute floor (see sin2._sin2_sum), twice the
    # largest of 16 000 draws of this strategy, each with a point within
    # 1e-12 to 1e-3 of a zero k pi of sin^2, k <= 300, against mpmath
    x = np.multiply.outer(times, h)
    floor = 2.0 * np.sqrt(len(times)) * EPS * (np.minimum(1.0, x**2) @ np.abs(c))
    for value, (want, sensitivity), extra in zip(got, per_element(c, h, times, s), (floor, 0.0)):
        assert value.shape == want.shape
        # rtol 1e-12 on the sum plus its first-order change under a relative
        # phase error of 1: the two routes round each phase differently,
        # which alone moves a few-mode sum near a zero of sin^2 at large phase
        # by about eps |x cot x| relative.  There the sensitivity vanishes and
        # the sin^2 sum's floor remains; the sine sum's sensitivity holds 2 |x|
        # |cos 2x|, which exceeds its floor
        assert np.all(np.abs(value - want) <= 1e-12 * sensitivity + extra)
    if (c >= 0).all() and np.abs(np.multiply.outer(times, h)).max(initial=0.0) <= 1.0:
        np.testing.assert_allclose(got[0], per_element(c, h, times)[0][0], rtol=1e-12, atol=0)


def assert_matches_mpmath(times, indices):
    """The sums of fixed modes at ``times[indices]`` against 40-digit
    mpmath: sin^2 sums to 8 eps relative, sine sums to 8 eps of
    sum |s| (1 + 2 |x|)."""
    mpmath = pytest.importorskip("mpmath")
    # |h| t from 7.5e-7 to 565 at t = 50: the decay prefactor 2 / h^2 makes
    # the sum rest on the small phases, which the split keeps to relative
    # precision
    h = np.array([1.5e-8, -3e-4, 0.37, -2.1, 11.3])
    c = 2.0 / h**2
    s = np.array([0.5, -1.0, 0.25, 2.0, -0.75])
    got, sine = _sin2_sum([(c, h, s)], times)
    with mpmath.workdps(40):
        for i in indices:
            x = [mpmath.mpf(float(hm)) * mpmath.mpf(float(times[i])) for hm in h]
            want = sum(mpmath.mpf(float(cm)) * mpmath.sin(xm) ** 2 for cm, xm in zip(c, x))
            want_s = sum(mpmath.mpf(float(sm)) * mpmath.sin(2 * xm) for sm, xm in zip(s, x))
            assert abs(got[i] - float(want)) <= 8 * EPS * float(want)
            # the sine sum has mixed signs and phases up to 565: a phase
            # error of a few ulps bounds it
            bound = sum(abs(float(sm)) * (1.0 + 2.0 * abs(float(xm))) for sm, xm in zip(s, x))
            assert abs(sine[i] - float(want_s)) <= 8 * EPS * bound
    return got, sine


def test_even_grid_matches_mpmath():
    got, sine = assert_matches_mpmath(np.linspace(0.0, 50.0, 1000), (1, 2, 37, 500, 999))
    assert got[0] == 0.0 and sine[0] == 0.0


@pytest.mark.parametrize("t0", [0.0, 0.5])
def test_long_even_grid_matches_mpmath(t0):
    # 10^5 points: B = 317 fine and A = 316 coarse factors, each table built
    # in 9 doublings from one phase, so the doubling's error growth shows at
    # the last rows of both tables
    times = np.linspace(t0, t0 + 50.0, 100_000)
    split = _time_split(times)
    assert (split.a, split.b) == (316, 317)
    assert_matches_mpmath(times, (1, 316, 317, 50_000, 99_683, 99_998, 99_999))


UNEVEN = {
    "geomspace": np.geomspace(1e-3, 50.0, 200),
    "three points": np.linspace(0.0, 50.0, 3),
    "across zero": np.linspace(-5.0, 5.0, 200),
    "toward zero": np.linspace(50.0, 0.0, 200),
    "one point 16 ulps off": np.linspace(0.0, 50.0, 200) + np.where(np.arange(200) == 77, 16 * np.spacing(50.0), 0.0),
    "random": np.sort(np.random.default_rng(3).uniform(0.0, 50.0, 200)),
}


@pytest.mark.parametrize("name", list(UNEVEN))
def test_uneven_grid_bitwise_direct(monkeypatch, name):
    times = UNEVEN[name]
    rng = np.random.default_rng(5)
    h, c, s = rng.uniform(-3.0, 3.0, 40), rng.random(40), rng.uniform(-1.0, 1.0, 40)
    assert _time_split(times) is None
    # 7-mode slices, so the partial sums of several slices are added
    monkeypatch.setattr(sin2_mod, "_SLICE_BYTES", 16 * len(times) * 7)
    assert np.array_equal(_sin2_sum([(c, h)], times), direct_sums(c, h, times))
    got, want = _sin2_sum([(c, h, s)], times), direct_sums(c, h, times, s)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_empty_mode_blocks():
    times = np.linspace(0.0, 10.0, 50)
    none = np.zeros(0)
    assert np.array_equal(_sin2_sum([(none, none)], times), np.zeros(50))
    got, sine = _sin2_sum([(np.zeros((0, 3)), none, np.zeros((0, 2)))], times)
    assert got.shape == (50, 3) and sine.shape == (50, 2)
    assert not got.any() and not sine.any()


def test_decay2_memory_bounded():
    # chain 2000 folds to 1000 modes: at 4000 times a whole (modes x times)
    # table would take 32 MB; each split slice's tables fit _SLICE_BYTES,
    # which with the sin and cos temporaries and the O(T) partial sums stays
    # within 1.5 slices
    lat = build_lattice("chain", 2000, boundary="periodic")
    times = np.linspace(0.0, 100.0, 4000)
    assert _time_split(times) is not None
    tracemalloc.start()
    try:
        decay = perturbative_decay2(lat, 0.05, times).decay
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decay[0] == 0.0 and decay.max() > 0.0
    assert peak < 2**20 + 1.5 * sin2_mod._SLICE_BYTES


def trig_calls(monkeypatch):
    """Count the elements passed to np.sin and np.cos from now on."""
    calls = {"sin": [], "cos": []}
    for name, seen in calls.items():
        fn = getattr(np, name)
        counted = lambda x, *a, fn=fn, seen=seen, **k: seen.append(np.size(x)) or fn(x, *a, **k)
        monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("grid", ["even 4000", "even 4000 from t0", "chain 300"])
def test_split_trig_budget(monkeypatch, grid):
    # at most 3 phases per mode (the fine step, the coarse step and the
    # start) go through sin and cos, however many points the grid has; on
    # the momenta of the chain 300, the band weights at h = r_j / 2 with the
    # coupling force as the sine partner
    if grid.startswith("even"):
        times = np.linspace(0.5 if grid.endswith("t0") else 0.0, 100.0, 4000)
        h = np.random.default_rng(7).uniform(-3.0, 3.0, 300)
        blocks = [(np.ones(300), h)]
    else:
        times = 2.0 * np.pi * np.arange(300) / 300
        x = relative_sites(build_lattice("chain", 300, boundary="periodic"))[:, 0]
        blocks = [(4.0 / np.abs(x) ** 3, x / 2.0, x / np.abs(x) ** 5)]
    modes = len(blocks[0][0])
    calls = trig_calls(monkeypatch)
    _sin2_sum(blocks, times)
    assert 0 < sum(calls["sin"]) <= 3 * modes
    assert 0 < sum(calls["cos"]) <= 3 * modes


def test_split_tables_allocated_once_per_call(monkeypatch):
    # 40 modes in 7-mode slices: the coarse, fine and weighted fine tables of
    # all 6 slices share one workspace, and every other np.empty holds one
    # step phase per mode of a slice
    times = np.linspace(0.0, 50.0, 300)
    h = np.random.default_rng(9).uniform(-3.0, 3.0, 40)
    monkeypatch.setattr(sin2_mod, "_SLICE_BYTES", split_slice_bytes(times, 7, 3))
    want = _sin2_sum([(np.ones((40, 2)), h, np.ones(40))], times)
    sizes, empty = [], np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *a, **k: sizes.append(np.prod(shape)) or empty(shape, *a, **k))
    got = _sin2_sum([(np.ones((40, 2)), h, np.ones(40))], times)
    assert sum(size > 7 for size in sizes) == 1 and len(sizes) > 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("name", ["geomspace"])
def test_direct_trig_count(monkeypatch, name):
    # off the split grids every (time, mode) phase goes through sin once,
    # and through cos once more with the sine partner
    times = UNEVEN[name]
    h = np.random.default_rng(8).uniform(-3.0, 3.0, 40)
    calls = trig_calls(monkeypatch)
    for s, cos_per_phase in (((), 0), ((np.ones(40),), 1)):
        for seen in calls.values():
            seen.clear()
        _sin2_sum([(np.ones(40), h, *s)], times)
        assert sum(calls["sin"]) == 40 * len(times)
        assert sum(calls["cos"]) == cos_per_phase * 40 * len(times)
