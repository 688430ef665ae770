import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarray.basis import (
    ResourceLimitError,
    dicke_state,
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
                cfg = unrank_config(r, n_exc)
                assert rank_config(cfg) == r
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
        assert isinstance(psi, np.ndarray) and psi.dtype == complex
        assert np.allclose(psi, 1.0 / 3.0)

    def test_two_excitation_amplitudes(self):
        psi = dicke_state(sector_basis(4, 2))
        assert np.allclose(psi, 1.0 / np.sqrt(6.0))
        # sqrt(2/(N(N-1))) form
        assert np.allclose(psi, np.sqrt(2.0 / (4 * 3)))

    def test_vacuum(self):
        psi = dicke_state(sector_basis(5, 0))
        assert psi.shape == (1,)
        assert psi[0] == 1.0

    def test_uniformity(self):
        # the symmetric state is the unique uniform unit vector: zero spread
        psi = dicke_state(sector_basis(12, 2))
        assert np.all(psi == psi[0])
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)

    def test_permutation_invariance(self):
        # relabeling sites permutes configurations but leaves amplitudes equal
        b = sector_basis(6, 2)
        psi = dicke_state(b)
        rng = np.random.default_rng(3)
        perm = rng.permutation(6)
        ranks = [rank_config(tuple(sorted(perm[list(c)]))) for c in b.configs]
        assert np.allclose(psi[ranks], psi)
