import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarray.lattice import build_lattice, coupling_kernel, displacements, momentum_grid, relative_sites
from dipolarray.phonon import _momentum_pairs


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
