from math import comb

import numpy as np
import pytest

import dipolarray.basis as basis_mod
from dipolarray.basis import MEMORY_BYTES_MAX, ResourceLimitError, require_memory
from dipolarray.hamiltonian import full_hamiltonian
from dipolarray.lattice import build_lattice
from test_dynamics import pair_orbit_labels
from test_hamiltonian import colex_configs, colex_ranks


class TestSectorBasis:
    """The colex configurations of the tests' whole sectors."""

    def test_counts(self):
        assert len(colex_configs(4, 2)) == 6
        assert len(colex_configs(81, 2)) == 3240
        assert colex_configs(10, 0).shape == (1, 0)

    def test_colex_order(self):
        # the row index of every configuration is its colex rank
        for n_sites, n_exc in [(6, 2), (7, 3), (5, 0), (5, 5), (20, 2), (12, 4), (40, 2)]:
            configs = colex_configs(n_sites, n_exc)
            assert np.array_equal(colex_ranks(configs), np.arange(comb(n_sites, n_exc)))

    def test_configs_strictly_increasing(self):
        configs = colex_configs(8, 3)
        assert np.all(np.diff(configs, axis=1) > 0)


def test_require_memory(monkeypatch):
    assert MEMORY_BYTES_MAX == 2**30
    require_memory(2**30, "tables need", "for 8 sites")
    with pytest.raises(ResourceLimitError) as err:
        require_memory(3 * 2**29, "tables need", "for 8 sites")
    assert str(err.value) == "tables need about 1536 MiB for 8 sites; cap is 1024 MiB"
    monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 1000)
    require_memory(1000, "tables need", "for 8 sites")
    with pytest.raises(ResourceLimitError, match="^tables need about 0 MiB for 8 sites; cap is 0 MiB$"):
        require_memory(1001, "tables need", "for 8 sites")


def orbit_states(kind, n_sites, boundary):
    """The initial states of ``dicke_sectors`` on the orbits of the lattice's
    symmetry group, and the lattice."""
    lattice = build_lattice(kind, n_sites, boundary=boundary)
    return [psi0 for _, psi0 in full_hamiltonian(lattice, 1.0, 0.05).dicke_sectors()], lattice


class TestDickeState:
    """The Dicke state as the library evolves it: on each orbit c of a
    sector of dimension C(N, n), the amplitude sqrt(|c| / C(N, n)), which
    is the uniform amplitude 1/sqrt(C(N, n)) on each of its |c| rows."""

    def test_single_excitation_amplitudes(self):
        # the sites of the open chain 9 pair up under the reflection, all
        # but the middle one; on the ring they are one orbit
        (_, psi, _), _ = orbit_states("chain", 9, "open")
        assert psi.dtype == float
        np.testing.assert_allclose(psi, np.sqrt([2, 2, 2, 2, 1]) / 3.0, rtol=1e-15)
        (_, psi, _), _ = orbit_states("chain", 9, "periodic")
        assert np.array_equal(psi, [1.0])

    def test_two_excitation_amplitudes(self):
        # the pairs of the open chain 4 in colex order 01, 02, 12, 03, 13,
        # 23 form the orbits {01, 23}, {02, 13}, {12}, {03}: sqrt(2/(N(N-1)))
        # on each pair
        (_, _, psi), _ = orbit_states("chain", 4, "open")
        np.testing.assert_allclose(psi, np.sqrt([2, 2, 1, 1]) * np.sqrt(2.0 / (4 * 3)), rtol=1e-15)

    def test_vacuum(self):
        (psi, _, _), _ = orbit_states("chain", 5, "open")
        assert psi.shape == (1,)
        assert psi[0] == 1.0

    def test_uniformity(self):
        # on the pair orbits found from the explicit site permutations
        for kind, n_sites, boundary in [("chain", 12, "periodic"), ("square", 36, "periodic"),
                                        ("triangular", 19, "open"), ("square", 16, "open")]:
            (_, _, psi), lattice = orbit_states(kind, n_sites, boundary)
            sizes = np.bincount(pair_orbit_labels(lattice))
            np.testing.assert_allclose(psi**2 / sizes, 1.0 / comb(n_sites, 2), rtol=1e-14)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)

    def test_permutation_invariance(self):
        # relabeling the sites permutes the pairs but leaves the amplitudes
        # of the state lifted onto them equal
        (_, _, psi), lattice = orbit_states("triangular", 19, "open")
        labels = pair_orbit_labels(lattice)
        lifted = psi[labels] / np.sqrt(np.bincount(labels)[labels])
        perm = np.random.default_rng(3).permutation(19)
        ranks = colex_ranks(np.sort(perm[colex_configs(19, 2)], axis=-1))
        np.testing.assert_allclose(lifted[ranks], lifted, rtol=1e-14)
