import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarray.basis import (
    ResourceLimitError,
    dicke_state,
    overlap,
    rank_config,
    sector_basis,
    unrank_config,
)


class TestSectorBasis:
    def test_counts(self):
        assert sector_basis(4, 2).dim == 6
        assert sector_basis(81, 2).dim == 3240
        assert sector_basis(10, 0).dim == 1

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            sector_basis(100, 5, dimension_cap=10**6)

    def test_rank_unrank_bijection_exhaustive(self):
        for n_sites, n_exc in [(6, 2), (7, 3), (5, 0), (5, 5), (20, 2), (12, 4)]:
            b = sector_basis(n_sites, n_exc)
            for r in range(b.dim):
                cfg = b.unrank(r)
                assert b.rank(cfg) == r
                assert tuple(b.configs[r]) == cfg

    def test_configs_strictly_increasing(self):
        b = sector_basis(8, 3)
        assert np.all(np.diff(b.configs, axis=1) > 0)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n_sites=st.integers(min_value=2, max_value=40), n_exc=st.integers(min_value=1, max_value=4))
def test_rank_unrank_random_subsets(data, n_sites, n_exc):
    n_exc = min(n_exc, n_sites)
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=n_sites - 1), min_size=n_exc, max_size=n_exc)
    )))
    assert unrank_config(rank_config(subset), n_exc) == subset


class TestDickeState:
    def test_single_excitation_amplitudes(self):
        psi = dicke_state(sector_basis(9, 1))
        assert np.allclose(psi.amplitudes, 1.0 / 3.0)

    def test_two_excitation_amplitudes(self):
        psi = dicke_state(sector_basis(4, 2))
        assert np.allclose(psi.amplitudes, 1.0 / np.sqrt(6.0))
        # sqrt(2/(N(N-1))) form
        assert np.allclose(psi.amplitudes, np.sqrt(2.0 / (4 * 3)))

    def test_vacuum(self):
        psi = dicke_state(sector_basis(5, 0))
        assert psi.amplitudes.shape == (1,)
        assert psi.amplitudes[0] == 1.0

    def test_uniformity(self):
        # the symmetric state is the unique uniform unit vector: zero spread
        psi = dicke_state(sector_basis(12, 2))
        assert np.all(psi.amplitudes == psi.amplitudes[0])
        assert psi.norm() == pytest.approx(1.0, abs=1e-14)

    def test_permutation_invariance(self):
        # relabeling sites permutes configurations but leaves amplitudes equal
        b = sector_basis(6, 2)
        psi = dicke_state(b)
        rng = np.random.default_rng(3)
        perm = rng.permutation(6)
        ranks = [b.rank(tuple(sorted(perm[list(c)]))) for c in b.configs]
        assert np.allclose(psi.amplitudes[ranks], psi.amplitudes)


class TestOverlap:
    def test_self_overlap(self):
        psi = dicke_state(sector_basis(7, 2))
        assert overlap(psi, psi) == pytest.approx(1.0)

    def test_dicke_vs_single_configuration(self):
        b = sector_basis(9, 1)
        psi = dicke_state(b)
        e0 = dicke_state(b)
        e0.amplitudes = np.zeros(b.dim, dtype=complex)
        e0.amplitudes[0] = 1.0
        assert overlap(psi, e0) == pytest.approx(1.0 / 3.0)

    def test_cross_sector_zero(self):
        assert overlap(dicke_state(sector_basis(5, 1)), dicke_state(sector_basis(5, 2))) == 0.0

    def test_mismatched_lattices_rejected(self):
        with pytest.raises(ValueError):
            overlap(dicke_state(sector_basis(5, 1)), dicke_state(sector_basis(6, 1)))

    def test_conjugate_symmetry(self):
        b = sector_basis(6, 2)
        rng = np.random.default_rng(0)
        a = dicke_state(b)
        a.amplitudes = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        a.amplitudes /= np.linalg.norm(a.amplitudes)
        c = dicke_state(b)
        assert overlap(a, c) == pytest.approx(np.conj(overlap(c, a)))
