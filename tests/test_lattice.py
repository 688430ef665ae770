import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dipolarray.basis as basis_mod
import dipolarray.lattice as lattice_mod
from dipolarray.basis import ResourceLimitError
from dipolarray.hamiltonian import gate_params
from dipolarray.lattice import _torus_sums, build_lattice, coupling_kernel, displacements, momentum_grid, relative_sites
from dipolarray.phonon import _momentum_pairs
from test_hamiltonian import traced_peak


def solved_labels(grid):
    """Integer labels of the grid momenta, solved from ``kvecs`` alone.

    Fractional coordinates are multiples of 1/side, so scaled by the number
    of points (a multiple of side) they round to exact integers.
    """
    nq = grid.n_points
    frac = np.linalg.solve(grid.reciprocal_vectors.T, grid.kvecs.T).T
    return np.round(frac * nq).astype(int) % nq


def pairwise_distances(positions):
    diff = positions[:, None, :] - positions[None, :, :]
    return np.linalg.norm(diff, axis=-1)


class TestBuildLattice:
    def test_chain_positions(self):
        lat = build_lattice("chain", 4)
        assert np.array_equal(lat.positions.ravel(), [0.0, 1.0, 2.0, 3.0])
        assert lat.dimension == 1

    def test_square_grid(self):
        lat = build_lattice("square", 9)
        expected = {(float(i), float(j)) for i in range(3) for j in range(3)}
        assert {tuple(p) for p in lat.positions} == expected
        assert lat.dimension == 2

    def test_triangular_patch_nearest_neighbor_distance(self):
        # oracle: full distance matrix, smallest positive entry
        lat = build_lattice("triangular", 7)
        d = pairwise_distances(lat.positions)
        assert d[d > 0].min() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 12, 19, 30])
    def test_triangular_patch_other_sizes(self, n):
        lat = build_lattice("triangular", n)
        d = pairwise_distances(lat.positions)
        assert lat.n_sites == n
        assert d[d > 0].min() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_lattice("chain", 1)

    def test_rejects_nonsquare_n(self):
        with pytest.raises(ValueError, match="perfect-square"):
            build_lattice("square", 10)
        with pytest.raises(ValueError, match="perfect-square"):
            build_lattice("triangular", 10, boundary="periodic")

    def test_rejects_unknown_kind_and_boundary(self):
        with pytest.raises(ValueError):
            build_lattice("cubic", 8)
        with pytest.raises(ValueError):
            build_lattice("chain", 8, boundary="twisted")

    def test_positive_distances(self):
        for kind, n in [("chain", 6), ("square", 16), ("triangular", 11)]:
            lat = build_lattice(kind, n)
            d = pairwise_distances(lat.positions)
            assert d[~np.eye(n, dtype=bool)].min() > 0


def minimum_image_loop(diff, lattice):
    """The neighboring torus images tried one at a time, m1 then m2
    ascending, a strictly shorter one replacing the best so far; returns the
    images and the number of exact ties met."""
    period = lattice.period_vectors
    best = diff.copy()
    best_n = np.einsum("...k,...k->...", best, best)
    ties = 0
    for m1 in range(-2, 3):
        for m2 in range(-2, 3):
            if m1 == 0 and m2 == 0:
                continue
            cand = diff + m1 * period[0] + m2 * period[1]
            n = np.einsum("...k,...k->...", cand, cand)
            ties += int(np.count_nonzero(n == best_n))
            sel = n < best_n
            best[sel] = cand[sel]
            best_n = np.where(sel, n, best_n)
    return best, ties


@pytest.mark.parametrize("kind", ["square", "triangular"])
@pytest.mark.parametrize("side", [2, 4, 6, 10])
def test_minimum_image_matches_loop(monkeypatch, kind, side):
    # even tori put sites half a period apart, whose images tie exactly; the
    # stacked pass keeps the loop's first-found image, bit for bit, in one
    # block and in blocks of 7 displacements
    lat = build_lattice(kind, side * side, boundary="periodic")
    pos = lat.positions
    want, ties = minimum_image_loop(pos[:, None, :] - pos[None, :, :], lat)
    assert ties > 0
    for block in (lattice_mod._IMAGE_BLOCK_BYTES, 7 * 25 * 16):
        monkeypatch.setattr(lattice_mod, "_IMAGE_BLOCK_BYTES", block)
        assert displacements(lat).tobytes() == want.tobytes()
        assert relative_sites(lat).tobytes() == want[1:, 0].tobytes()


def triangular_patch_loop(n_sites):
    """The open triangular patch built candidate by candidate: every i a1 +
    j a2 sorted by its squared distance rounded to 9 decimals, then j, then
    i."""
    radius = int(np.ceil(np.sqrt(n_sites))) + 2
    cand = []
    for j in range(-radius, radius + 1):
        for i in range(-radius, radius + 1):
            p = i * lattice_mod._TRI_A1 + j * lattice_mod._TRI_A2
            cand.append((round(float(p @ p), 9), j, i, p))
    cand.sort(key=lambda t: t[:3])
    return np.array([t[3] for t in cand[:n_sites]])


@pytest.mark.parametrize("n", [2, 7, 19, 37, 64, 100, 1000, 10000])
def test_triangular_patch_matches_loop(n):
    assert np.array_equal(build_lattice("triangular", n).positions, triangular_patch_loop(n))


@pytest.mark.parametrize("n", [4, 9, 36, 400])
def test_square_grid_matches_loop(n):
    side = isqrt(n)
    want = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    for boundary in ("open", "periodic"):
        assert np.array_equal(build_lattice("square", n, boundary=boundary).positions, want)


class TestCouplingKernel:
    def test_chain_inverse_cube(self):
        d = coupling_kernel(build_lattice("chain", 5))
        assert d[0, 2] == pytest.approx(1.0 / 8.0, rel=1e-15)
        assert d[1, 4] == pytest.approx(1.0 / 27.0, rel=1e-15)

    def test_triangular_next_nearest(self):
        # second-neighbor distance sqrt(3) on the triangular lattice
        lat = build_lattice("triangular", 19)
        d = coupling_kernel(lat)
        dist = pairwise_distances(lat.positions)
        mask = np.isclose(dist, np.sqrt(3.0))
        assert mask.any()
        assert np.allclose(d[mask], 3.0 ** (-1.5), rtol=1e-12)

    def test_periodic_chain_wraparound(self):
        d = coupling_kernel(build_lattice("chain", 4, boundary="periodic"))
        assert d[0, 3] == pytest.approx(1.0)

    def test_symmetry_and_nearest_neighbor_unity(self):
        for kind, n, boundary in [
            ("chain", 9, "open"),
            ("square", 16, "periodic"),
            ("triangular", 16, "periodic"),
            ("triangular", 13, "open"),
        ]:
            lat = build_lattice(kind, n, boundary=boundary)
            d = coupling_kernel(lat)
            assert np.array_equal(d, d.T)
            assert (d >= 0).all()
            assert np.isclose(d[d > 0].max(), 1.0)
            assert np.all(np.diag(d) == 0)

    def test_translation_invariance_periodic(self):
        for kind, n in [("chain", 7), ("chain", 8), ("square", 25), ("triangular", 25)]:
            lat = build_lattice(kind, n, boundary="periodic")
            d = coupling_kernel(lat)
            if kind == "chain":
                for s in range(1, n):
                    assert np.allclose(d[0, :], d[s, np.roll(np.arange(n), -s) * 0 + (np.arange(n) + s) % n])
            else:
                side = int(round(np.sqrt(n)))
                # shift by one cell along the first lattice vector
                perm = np.array([(j * side + (i + 1) % side) for j in range(side) for i in range(side)])
                assert np.allclose(d[np.ix_(perm, perm)], d)

    def test_open_chain_row_sum_approaches_2zeta3(self):
        zeta3 = 1.2020569031595942854
        lat = build_lattice("chain", 201)
        d = coupling_kernel(lat)
        mid = 100
        assert d[mid].sum() == pytest.approx(2.0 * zeta3, rel=0.01)


class TestMomentumGrid:
    def test_chain_n4(self):
        g = momentum_grid(build_lattice("chain", 4, boundary="periodic"))
        assert np.allclose(sorted(g.kvecs.ravel()), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert g.side == 4
        assert np.array_equal(g.coords, [[0], [1], [2], [3]])

    def test_square_n4(self):
        g = momentum_grid(build_lattice("square", 4, boundary="periodic"))
        pts = {tuple(np.round(k, 12)) for k in g.kvecs}
        expected = {(0.0, 0.0), (0.0, round(np.pi, 12)), (round(np.pi, 12), 0.0),
                    (round(np.pi, 12), round(np.pi, 12))}
        assert pts == expected

    @pytest.mark.parametrize("kind,n", [("chain", 7), ("chain", 10), ("square", 9), ("triangular", 16)])
    def test_contains_k0_once_and_n_points(self, kind, n):
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        assert g.n_points == n
        zeros = np.sum(np.linalg.norm(g.kvecs, axis=1) < 1e-12)
        assert zeros == 1

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("square", 16), ("triangular", 9)])
    def test_closed_under_negation(self, kind, n):
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        recip = g.reciprocal_vectors
        # -k must coincide with a grid point modulo a reciprocal vector
        frac = np.linalg.solve(recip.T, g.kvecs.T).T
        neg = (-frac) % 1.0
        pos = frac % 1.0
        pos_set = {tuple(np.round(p, 9) % 1.0) for p in pos}
        for q in neg:
            assert tuple(np.round(q, 9) % 1.0) in pos_set

    def test_open_boundary_rejected(self):
        with pytest.raises(ValueError):
            momentum_grid(build_lattice("chain", 4, boundary="open"))

    @pytest.mark.parametrize("kind,n", [("chain", 8), ("chain", 9), ("square", 16), ("triangular", 25)])
    def test_pair_fold_covers_grid(self, kind, n):
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        reps, mult = g.pair_fold()
        assert mult.sum() == n - 1
        assert 0 not in reps


# odd and even sides: a self-inverse momentum k = -k != 0 exists only on
# even sides
INDEX_GRIDS = [("chain", 7), ("chain", 8), ("square", 9), ("square", 16),
               ("triangular", 9), ("triangular", 16), ("triangular", 25), ("triangular", 36)]


class TestMomentumIndex:
    @pytest.mark.parametrize("kind,n", INDEX_GRIDS)
    def test_coords_map_to_kvecs(self, kind, n):
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        side, dim = g.side, g.kvecs.shape[1]
        assert side**dim == n
        rows = np.arange(n)
        assert np.array_equal(g.coords, np.stack([rows % side, rows // side][:dim], axis=1))
        assert np.allclose(g.kvecs, (g.coords / side) @ g.reciprocal_vectors, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,n", INDEX_GRIDS)
    def test_index_inverts_coords_modulo_side(self, kind, n):
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        assert np.array_equal(g.index(g.coords), np.arange(n))
        shift = g.side * np.arange(-2, 3)[:, None, None]
        assert np.array_equal(g.index(g.coords + shift), np.tile(np.arange(n), (5, 1)))

    @pytest.mark.parametrize("kind,n", INDEX_GRIDS)
    def test_pair_fold_matches_solved_labels(self, kind, n):
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        lab = solved_labels(g)
        row_of = {tuple(r): i for i, r in enumerate(lab)}
        reps, mult = [], []
        for i in range(1, n):
            j = row_of[tuple(-lab[i] % n)]
            if j >= i:
                reps.append(i)
                mult.append(1 if j == i else 2)
        got_reps, got_mult = g.pair_fold()
        assert np.array_equal(got_reps, reps)
        assert np.array_equal(got_mult, mult)
        assert (np.array(mult) == 1).any() == (g.side % 2 == 0)

    @pytest.mark.parametrize("kind,n", INDEX_GRIDS)
    def test_momentum_pairs_match_solved_labels(self, kind, n):
        # one pair per inversion orbit {(k, k'), (-k, -k')}: the smaller in
        # k-major order, with the orbit size
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        lab = solved_labels(g)
        row_of = {tuple(r): i for i, r in enumerate(lab)}
        ref = []
        for k in range(n):
            for kp in range(k, n):
                q = row_of[tuple(-(lab[k] + lab[kp]) % n)]
                partner = tuple(sorted((row_of[tuple(-lab[k] % n)], row_of[tuple(-lab[kp] % n)])))
                if q != 0 and (k, kp) <= partner:
                    ref.append((k, kp, q, 1 if (k, kp) == partner else 2))
        ref = np.array(ref).T
        got = _momentum_pairs(g)
        assert len(got) == len(ref)
        for col, want in zip(got, ref):
            assert np.array_equal(col, want)

    @pytest.mark.parametrize("kind,n", INDEX_GRIDS)
    def test_momentum_pair_orbit_weights(self, kind, n):
        # a table symmetric under (k, k') -> (-k, -k') and k <-> k', summed
        # over orbit representatives with the orbit weights, equals its plain
        # sum over k <= k' with q != 0 (integers, so exactly)
        g = momentum_grid(build_lattice(kind, n, boundary="periodic"))
        neg = g.index(-g.coords)
        table = np.random.default_rng(n).integers(0, 1000, size=(n, n))
        table = table + table[np.ix_(neg, neg)]
        table = table + table.T
        ik, ikp = np.triu_indices(n)
        iq = g.index(-(g.coords[ik] + g.coords[ikp]))
        plain = table[ik[iq != 0], ikp[iq != 0]].sum()
        k, kp, _, orbit = _momentum_pairs(g)
        assert (orbit * table[k, kp]).sum() == plain
        # size-1 orbits are exactly the pairs of self-inverse momenta
        self_inverse = np.flatnonzero(neg == np.arange(n))
        singles = {(a, b) for a in self_inverse for b in self_inverse if a <= b}
        singles = {(a, b) for a, b in singles if g.index(-(g.coords[a] + g.coords[b])) != 0}
        assert set(zip(k[orbit == 1], kp[orbit == 1])) == singles
        assert bool(singles) == (g.side % 2 == 0)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["chain", "square", "triangular"]),
    side=st.integers(min_value=2, max_value=5),
    boundary=st.sampled_from(["open", "periodic"]),
)
def test_kernel_properties_random(kind, side, boundary):
    n = side * side if kind in ("square", "triangular") else side + 2
    lat = build_lattice(kind, n, boundary=boundary)
    d = coupling_kernel(lat)
    assert np.array_equal(d, d.T)
    assert (d >= 0).all()
    assert np.isclose(d[d > 0].max(), 1.0)
    # the O(N) reference row is the O(N^2) table's column 0, bit for bit
    assert np.array_equal(relative_sites(lat), displacements(lat)[1:, 0, :])


def per_element_torus_sums(lattice, c, s=None):
    """sum_j c_j sin^2(k.r_j / 2) (and sum_j s_j sin(k.r_j)) term by term,
    each phase k.r_j = 2 pi p / side from its integer p, solved from the
    momenta and relative sites and reduced modulo the side, so that no
    phase carries more than one rounding of pi p / side."""
    grid = momentum_grid(lattice)
    p = np.rint(grid.kvecs @ relative_sites(lattice).T * grid.side / (2.0 * np.pi)).astype(np.int64)
    x = np.pi * (p % grid.side) / grid.side
    sums = [np.sin(x) ** 2 @ c]
    return sums if s is None else sums + [np.sin(2.0 * x) @ s]


def signed_weights(shape):
    """Weights of either sign, 0 or 1e-6 to 1 in magnitude: no term is
    subnormal, where a last-ulp rounding is above any bound relative to
    sum |c|."""
    magnitude = arrays(np.float64, shape, elements=st.just(0.0) | st.floats(1e-6, 1.0))
    sign = arrays(np.float64, shape, elements=st.sampled_from([-1.0, 1.0]))
    return st.builds(np.multiply, magnitude, sign)


@st.composite
def torus_sums(draw):
    kind = draw(st.sampled_from(["chain", "square", "triangular"]))
    side = draw(st.integers(2, 1000) if kind == "chain" else st.integers(2, 32))
    lattice = build_lattice(kind, side if kind == "chain" else side * side, boundary="periodic")
    n = lattice.n_sites
    columns = draw(st.sampled_from([(), (1,), (3,)]))
    c = draw(signed_weights((n - 1, *columns)))
    s = draw(st.none() | signed_weights((n - 1, lattice.dimension)))
    return lattice, c, s


@settings(max_examples=60, deadline=None)
@given(case=torus_sums())
def test_torus_sums_match_per_element_sums(case):
    lattice, c, s = case
    got = _torus_sums(lattice, c, s)
    got = [got] if s is None else list(got)
    log_n = np.log2(lattice.n_sites)
    for value, want, w in zip(got, per_element_torus_sums(lattice, c, s), (c, s)):
        assert value.shape == want.shape
        # 3 eps sum |c| log2 N: the largest of 7000 seeded draws of chains
        # up to 1500 sites and tori up to 40 x 40 (signed, positive and
        # 1 / r^3 weights) read 1.2 of eps sum |c| log2 N
        assert np.all(np.abs(value - want) <= 3.0 * np.finfo(float).eps * log_n * np.abs(w).sum(axis=0))
    # the sin^2 sums at k = 0 are (F(0) - F(0)) / 2
    assert not np.any(got[0][0])


@pytest.mark.parametrize("kind", ["chain", "square", "triangular"])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_pair_table_estimate_bounds_peak(kind, boundary):
    lattice = build_lattice(kind, 900, boundary=boundary)
    _, peak = traced_peak(coupling_kernel, lattice)
    assert peak <= 16 * (lattice.dimension + 1) * 900 * 901


def test_pair_table_refused_before_it_is_built(monkeypatch):
    # open chain 2000: the kernel behind gate_params needs about 122 MiB
    lattice = build_lattice("chain", 2000)
    monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 32 * 2000 * 2001 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="^pair tables need about 122 MiB for 2000 sites;"):
            gate_params(lattice, 1.0, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 32 * 2000 * 2001)
    gate_params(lattice, 1.0, 0.05)
