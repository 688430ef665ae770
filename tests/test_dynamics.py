import gc
import tracemalloc
import weakref
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.sparse.linalg import expm_multiply

import dipolarray.basis as basis_mod
import dipolarray.cli as cli_mod
import dipolarray.dynamics as dyn_mod
import dipolarray.hamiltonian as hamiltonian_mod
import dipolarray.lattice as lattice_mod
import dipolarray.sin2 as sin2_mod
from dipolarray.basis import ResourceLimitError
from dipolarray.cli import main
from dipolarray.dynamics import GateNotReached, compute_trajectory, gate_time
from dipolarray.hamiltonian import full_hamiltonian, gate_params
from dipolarray.lattice import build_lattice, momentum_grid
from test_hamiltonian import dense, dicke, full_sectors


def periodic_chain(n):
    return build_lattice("chain", n, boundary="periodic")


def ideal_quadratic_hamiltonian(n_sites: int, chi: float) -> SimpleNamespace:
    """Diagnostic stand-in for a SpinHamiltonian, with the two methods
    compute_trajectory reads: per-sector constants chi*(N/2 - n)^2 (exact
    quadratic collective dephasing; Theta(t) = 2*chi*t)."""
    def dicke_sectors():
        return [(chi * (n_sites / 2.0 - n) ** 2 * np.eye(comb(n_sites, n)), dicke(comb(n_sites, n)))
                for n in (0, 1, 2)]

    return SimpleNamespace(dicke_sectors=dicke_sectors, dim=lambda n: comb(n_sites, n))


def engine(block, psi0, times):
    """<psi0|exp(-iHt)|psi0> from the library's one evolution engine: the
    spectrum and weights of :func:`~dipolarray.dynamics._weights`, summed by
    :func:`~dipolarray.dynamics._projections`."""
    (c,) = dyn_mod._projections([dyn_mod._weights(dense(block), psi0)], np.asarray(times, dtype=float))
    return c


def random_hermitian(seed, m):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    psi0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return (a + a.T) / 2, psi0 / np.linalg.norm(psi0)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.array_equal(engine(np.zeros((3, 3)), psi0, [0.0, 1.0, 5.0]), np.ones(3))

    def test_two_site_exchange_oscillation(self):
        # |e g> under hop 2*kappa: return probability cos^2(2 kappa t)
        h1, _ = full_sectors(build_lattice("chain", 2), 1.0, 1.0)[1]
        t = np.linspace(0.0, 3.0, 60)
        pop = np.abs(engine(h1, np.array([1.0, 0.0]), t)) ** 2
        assert np.allclose(pop, np.cos(2.0 * t) ** 2, atol=1e-12)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            compute_trajectory(full_hamiltonian(build_lattice("chain", 4), 1.0, 1.0), [0.0, -1.0])

    def test_rejects_empty_times(self):
        with pytest.raises(ValueError, match="times must not be empty"):
            compute_trajectory(full_hamiltonian(build_lattice("chain", 4), 1.0, 1.0), [])

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="times must be finite"):
            compute_trajectory(full_hamiltonian(periodic_chain(8), 1.0, 0.1), times, auto_refine=False)

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="start at 0"):
            compute_trajectory(full_hamiltonian(build_lattice("chain", 4), 1.0, 1.0), [1.0, 2.0])

    def test_unitarity_both_paths(self):
        # the engine's projection against the states of the dense
        # exponential, which stay normalized; |C(t)| never exceeds 1
        h, psi0 = random_hermitian(5, 40)
        t = np.linspace(0.0, 8.0, 30)
        states = dense_spectral(h, psi0, t)
        c = engine(h, psi0, t)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-10
        assert np.abs(c).max() <= 1.0 + 1e-12
        assert np.abs(c - states @ psi0.conj()).max() < 1e-8

    def test_energy_conservation(self):
        # the mean energy sum_j w_j lambda_j of the orbit spectrum that
        # compute_trajectory evolves is the energy of the whole sector-2
        # state at every time
        lat = periodic_chain(10)
        lam, w = compute_trajectory(full_hamiltonian(lat, 1.0, 0.1), [0.0]).spectra[2]
        h2 = dense(full_sectors(lat, 1.0, 0.1)[2][0])
        states = dense_spectral(h2, dicke(len(h2)), np.linspace(0.0, 40.0, 50))
        e = np.real(np.einsum("ti,ij,tj->t", states.conj(), h2, states))
        assert np.abs(e - w @ lam).max() <= 1e-9 * max(abs(w @ lam), 1.0)

    def test_time_reversal(self):
        # the engine under -H retraces its path under H: C_{-H}(t) = C_H(t)*
        h, psi0 = random_hermitian(11, 60)
        t = np.linspace(0.0, 7.3, 20)
        assert np.abs(engine(-h, psi0, t) - engine(h, psi0, t).conj()).max() < 1e-8


class TestSpectralEngine:
    def test_matches_dense_exponential(self):
        h, v = random_hermitian(2, 80)
        lam, vec = np.linalg.eigh(h)
        for dt in (0.05, 1.0, 20.0):
            ref = vec @ (np.exp(-1j * dt * lam) * (vec.conj().T @ v))
            assert abs(engine(h, v, [0.0, dt])[-1] - v.conj() @ ref) < 1e-9

    def test_quotient_memory_cap(self, monkeypatch):
        # open chain 12: the reflection pairs the C(12, 2) = 66 two-excitation
        # states into (66 + 6) / 2 = 36 point-group orbits, whose projection
        # is the whole sector's.  The orbit builder refuses that quotient's
        # eigh before its orbit tables
        ham = full_hamiltonian(build_lattice("chain", 12), 1.0, 0.3)
        t = np.linspace(0.0, 10.0, 11)
        traj = compute_trajectory(ham, t, auto_refine=False)
        assert traj.diagnostics["reduced_dims"] == [1, 6, 36]
        h2 = full_sectors(ham.lattice, 1.0, 0.3)[2][0]
        np.testing.assert_allclose(traj.c2, dense_spectral(h2, dicke(66), t) @ dicke(66), rtol=0, atol=1e-12)
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 40 * 36**2 - 1)
        with pytest.raises(ResourceLimitError, match="quotient of dimension 36 or more needs"):
            compute_trajectory(ham, [0.0])

    def test_quotient_cap_admits_open_chain_to_143(self):
        # the open chain's sector-2 quotient has (C(N, 2) + N // 2) / 2 cells
        def cells(n):
            return (n * (n - 1) // 2 + n // 2) // 2

        for n in (7, 8, 13):
            ham = full_hamiltonian(build_lattice("chain", n), 1.0, 0.3)
            assert compute_trajectory(ham, [0.0]).diagnostics["reduced_dims"][2] == cells(n)
        assert 40 * cells(143) ** 2 <= basis_mod.MEMORY_BYTES_MAX < 40 * cells(144) ** 2

    @pytest.mark.parametrize("budget, points", [(60 * 320 - 1, 60), (60 * 320, 119)],
                             ids=["first_grid", "doubling"])
    def test_time_grid_memory_cap(self, monkeypatch, budget, points):
        # 320 B a point: 60 requested points need 19 200 B, their first
        # doubling 119 points; the periodic chain 8's orbit tables fit
        ham = full_hamiltonian(build_lattice("chain", 8, boundary="periodic"), 1.0, 0.3)
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", budget)
        evaluated = []
        projections = dyn_mod._projections

        def spy(spectra, times):
            evaluated.append(len(times))
            return projections(spectra, times)

        monkeypatch.setattr(dyn_mod, "_projections", spy)
        with pytest.raises(ResourceLimitError, match=f"time grid needs about 0 MiB for {points} points"):
            compute_trajectory(ham, np.linspace(0.0, 10.0, 60))
        # the first grid and its doubling, the one grid evaluated first, are
        # both checked before it: refused before any projection
        assert evaluated == []

# (kind, n_sites) with n_sites <= 16 that every boundary accepts
ORACLE_LATTICES = st.one_of(
    st.tuples(st.just("chain"), st.integers(min_value=3, max_value=16)),
    st.tuples(st.sampled_from(["square", "triangular"]), st.sampled_from([4, 9, 16])),
)


def dense_spectral(block, psi0, times):
    lam, vec = np.linalg.eigh(dense(block))
    return (np.exp(-1j * np.outer(times, lam)) * (vec.conj().T @ psi0)) @ vec.T


@settings(max_examples=40, deadline=None)
@given(
    lattice=ORACLE_LATTICES,
    boundary=st.sampled_from(["open", "periodic"]),
    xi=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# xi so small that the two pair distances of the periodic chain 5 have
# diagonals within roundoff of each other: still two orbits
@example(lattice=("chain", 5), boundary="periodic", xi=5e-324, seed=0)
@example(lattice=("chain", 5), boundary="periodic", xi=1.66053906892e-27, seed=0)
def test_quotient_matches_dense_sector(lattice, boundary, xi, seed):
    kind, n_sites = lattice
    lat = build_lattice(kind, n_sites, boundary=boundary)
    ham = full_hamiltonian(lat, 1.0, xi)
    t = np.linspace(0.0, 40.0, 25)
    traj = compute_trajectory(ham, t, auto_refine=False)
    diag = traj.diagnostics
    sectors = full_sectors(lat, 1.0, xi)
    for c, (block, configs) in zip((traj.c0, traj.c1, traj.c2), sectors):
        psi0 = dicke(len(configs))
        ref = dense_spectral(block, psi0, t) @ psi0
        np.testing.assert_allclose(c, ref, rtol=1e-10, atol=1e-12)
    if kind == "chain" and boundary == "periodic":
        # one orbit per pair distance 1 .. N/2, e.g. 6 of 66 states at N = 12
        assert diag["reduced_dims"][2] == n_sites // 2 < ham.dim(2)
    # a state without symmetry: the engine on the whole block
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(ham.dim(2)) + 1j * rng.standard_normal(ham.dim(2))
    psi /= np.linalg.norm(psi)
    h2 = sectors[2][0]
    ref = dense_spectral(h2, psi, t) @ psi.conj()
    np.testing.assert_allclose(engine(h2, psi, t), ref, rtol=1e-10, atol=1e-12)


SCIPY_TIMES = np.linspace(0.0, 40.0, 25)


def scipy_projections(block, psi0, times=SCIPY_TIMES):
    """<psi0|exp(-iHt)|psi0> on an even grid from 0 from scipy's
    expm_multiply: a truncated Taylor series on the sparse block, no
    eigendecomposition."""
    states = expm_multiply(-1j * sp.csr_array(block), psi0, start=0.0, stop=times[-1], num=len(times),
                           endpoint=True)
    return states @ psi0.conj()


def assert_matches_scipy(block, psi0):
    """The engine's projections of psi0 on the whole block (:func:`engine`)
    match scipy's within 1e-10 over t <= 40.  The gap is mostly scipy's: up
    to 2.7e-11 on the projections over the chain, square and triangular
    lattices of up to 16 sites (both boundaries, xi = -1, 0, 0.4, 1) and
    the large sectors below, where a dense eigh of the same block stays
    closer to the orbit path."""
    np.testing.assert_allclose(engine(block, psi0, SCIPY_TIMES), scipy_projections(block, psi0), rtol=0, atol=1e-10)


def assert_projections_match_scipy(ham, sectors=(0, 1, 2)):
    """compute_trajectory's projections of the Dicke states, from the orbit
    blocks, match scipy's on the :func:`full_sectors` blocks within 1e-10;
    returns the trajectory."""
    traj = compute_trajectory(ham, SCIPY_TIMES, auto_refine=False)
    full = full_sectors(ham.lattice, ham.kappa, ham.xi)
    for n in sectors:
        block = full[n][0]
        want = scipy_projections(block, dicke(block.shape[0]))
        np.testing.assert_allclose((traj.c0, traj.c1, traj.c2)[n], want, rtol=0, atol=1e-10)
    return traj


@settings(max_examples=40, deadline=None)
@given(
    lattice=ORACLE_LATTICES,
    boundary=st.sampled_from(["open", "periodic"]),
    xi=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_matches_scipy_products(lattice, boundary, xi, seed):
    kind, n_sites = lattice
    lat = build_lattice(kind, n_sites, boundary=boundary)
    ham = full_hamiltonian(lat, 1.0, xi)
    assert_projections_match_scipy(ham)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(ham.dim(2)) + 1j * rng.standard_normal(ham.dim(2))
    assert_matches_scipy(full_sectors(lat, 1.0, xi)[2][0], psi / np.linalg.norm(psi))


@pytest.mark.parametrize("kind, n_sites, boundary, xi, reduced", [
    ("chain", 64, "periodic", 0.05, 32),  # the gate_large sectors
    ("square", 64, "open", 0.05, 278),
    ("triangular", 16, "open", 1.0, 66),  # bare exchange
])
def test_engine_matches_scipy_on_large_sector(kind, n_sites, boundary, xi, reduced):
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    traj = assert_projections_match_scipy(ham, sectors=(2,))
    assert traj.diagnostics["reduced_dims"][2] == reduced


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_scipy_on_random_hermitian(seed):
    # coarse-grid entries, real for even seeds and complex for odd ones
    rng = np.random.default_rng(seed)
    m = 30 + 5 * seed
    a = np.round(2.0 * rng.standard_normal((m, m))) / 2.0
    a = a + 1j * np.round(2.0 * rng.standard_normal((m, m))) / 2.0 * (seed % 2)
    h = (a + a.conj().T) / 2.0
    assert_matches_scipy(h, np.full(m, 1.0 / np.sqrt(m), dtype=complex))


# ---------------------------------------------------------------------------
# symmetry orbits: the orbit path against the assembled sectors
# ---------------------------------------------------------------------------

def pair_orbit_labels(lattice):
    """Orbit of every site pair (colex order) under the lattice's symmetry
    group, from its site permutations: every point-group map of an open
    patch, and on a torus every translation after every point-group map,
    applied to the cell coordinates mod side."""
    if not lattice.periodic:
        maps = lattice_mod._point_group_maps(lattice)
    else:
        grid = momentum_grid(lattice)
        cell = lattice.period_vectors / grid.side
        own = np.rint(lattice.positions @ np.linalg.inv(cell)).astype(np.int64) % grid.side
        site = np.empty(lattice.n_sites, dtype=np.int64)
        site[grid.index(own)] = np.arange(lattice.n_sites)
        images = (own @ lattice_mod._point_group(lattice))[:, None] + grid.coords[:, None]
        maps = site[grid.index(images)].reshape(-1, lattice.n_sites)
    q, p = np.tril_indices(lattice.n_sites, -1)
    lo, hi = np.minimum(maps[:, p], maps[:, q]), np.maximum(maps[:, p], maps[:, q])
    return np.unique((hi * (hi - 1) // 2 + lo).min(axis=0), return_inverse=True)[1]


def assembled_spectra(ham):
    """Spectra of the :func:`full_sectors` blocks from the Dicke states:
    sectors 0 and 1 whole, sector 2 on the pair orbits of
    :func:`pair_orbit_labels`.  The orbits are equitable: the sums S[i, c]
    of every row i into every orbit c agree within 1e-13 of max |H_ij|
    across the rows of an orbit.  So the Dicke state, constant on every
    orbit, evolves in their span, under the quotient sqrt(|a| / |c|)
    S[f(a), c] from the first row f(a) of every orbit a, whose few-term sums
    keep the roundoff of a large diagonal small."""
    full = full_sectors(ham.lattice, ham.kappa, ham.xi)
    h = full[2][0]
    labels = pair_orbit_labels(ham.lattice)
    indicator = sp.csr_array((np.ones(len(labels)), labels, np.arange(len(labels) + 1)))
    sums = (h @ indicator).toarray()
    first = np.unique(labels, return_index=True)[1]
    assert np.abs(sums - sums[first][labels]).max() <= 1e-13 * np.abs(h.data).max(initial=1.0)
    root = np.sqrt(np.bincount(labels))
    spectra = [dyn_mod._weights(block, dicke(len(block))) for block, _ in full[:2]]
    return spectra + [dyn_mod._weights(sums[first] * root[:, None] / root, root / np.sqrt(len(labels)))]


def orbits_against_assembly(kind, n_sites, xi, boundary="periodic"):
    """compute_trajectory (symmetry orbits: the space group on a periodic
    lattice, the point group on an open one) against
    :func:`assembled_spectra`.  The projections must agree within 64 ||H||
    t eps, ||H|| the largest eigenvalue: the measured gap reached 14 ||H|| t
    eps (periodic square 196), so a flat bound fails as N grows.  Returns
    the reduced_dims, one per orbit."""
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    times = np.linspace(0.0, 40.0, 30)
    traj = compute_trajectory(ham, times, auto_refine=False)
    ref = assembled_spectra(ham)
    norm = max(float(np.abs(lam).max()) for lam, _ in ref)
    bound = 64 * norm * times[-1] * np.finfo(float).eps
    for got, want in zip((traj.c0, traj.c1, traj.c2), dyn_mod._projections(ref, times)):
        assert np.abs(got - want).max() <= bound
    diag = traj.diagnostics
    assert diag["sector_dims"] == [ham.dim(n) for n in (0, 1, 2)]
    assert diag["reduced_dims"][2] == len(ref[2][0])
    return diag["reduced_dims"]


@pytest.mark.parametrize("kind, n_sites", [
    ("chain", 2), ("chain", 3), ("chain", 12), ("chain", 25), ("chain", 36), ("chain", 64), ("chain", 81),
    ("square", 4), ("square", 9), ("square", 16), ("square", 49), ("square", 64), ("square", 81),
    ("triangular", 4), ("triangular", 9), ("triangular", 16), ("triangular", 49), ("triangular", 64),
    ("triangular", 81),
])
@pytest.mark.parametrize("xi", [0.05, -0.4])
def test_orbits_match_assembled_refinement(kind, n_sites, xi):
    # odd and even sides; on 2D tori the point group merges the translation
    # orbits into at most an eighth (square) or twelfth (triangular)
    assert orbits_against_assembly(kind, n_sites, xi)[:2] == [1, 1]


@pytest.mark.parametrize("kind, n_sites", [
    # the reflection on the chain; D4 on every square; on the triangular
    # patches D6 (7, 19, 61), a reflection (16, 49) or nothing (30)
    ("chain", 2), ("chain", 3), ("chain", 12), ("chain", 25), ("chain", 49), ("chain", 64),
    ("square", 4), ("square", 9), ("square", 16), ("square", 49), ("square", 64), ("square", 81), ("square", 100),
    ("triangular", 7), ("triangular", 16), ("triangular", 19), ("triangular", 30), ("triangular", 49),
    ("triangular", 61),
])
@pytest.mark.parametrize("xi", [0.05, -0.4])
def test_patch_orbits_match_assembled_refinement(kind, n_sites, xi):
    orbits_against_assembly(kind, n_sites, xi, "open")


@settings(max_examples=25, deadline=None)
@given(
    lattice=st.one_of(
        st.tuples(st.just("chain"), st.integers(min_value=2, max_value=40)),
        st.tuples(st.sampled_from(["square", "triangular"]), st.sampled_from([4, 9, 16, 25, 36, 49])),
    ),
    xi=st.floats(min_value=-1.0, max_value=1.0),
)
def test_orbits_match_assembled_refinement_drawn(lattice, xi):
    orbits_against_assembly(*lattice, xi)


@settings(max_examples=25, deadline=None)
@given(
    lattice=st.one_of(
        st.tuples(st.just("chain"), st.integers(min_value=2, max_value=40)),
        st.tuples(st.just("square"), st.sampled_from([4, 9, 16, 25, 36, 49])),
        st.tuples(st.just("triangular"), st.integers(min_value=2, max_value=49)),
    ),
    xi=st.floats(min_value=-1.0, max_value=1.0),
)
def test_patch_orbits_match_assembled_refinement_drawn(lattice, xi):
    orbits_against_assembly(*lattice, xi, "open")


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["square", "triangular"]),
    side=st.integers(min_value=2, max_value=10),
    xi=st.sampled_from([0.0, 1.0, -1.0]) | st.floats(min_value=-1.0, max_value=1.0),
)
@example(kind="square", side=10, xi=0.0)
@example(kind="triangular", side=10, xi=-1.0)
def test_torus_space_group_orbits_match_dense_sector(kind, side, xi):
    # the sector-2 projection of the space-group quotient against the
    # assembled sector's within 1e-12 over t <= 1.  The gap grows as the
    # roundoff of the largest eigenvalues (up to 930) times t; over sides 2
    # to 10 at xi = 0, +-1, 0.37 and -0.6 it peaked at 4.5e-13 (triangular
    # N = 100, xi = -0.6)
    ham = full_hamiltonian(build_lattice(kind, side * side, boundary="periodic"), 1.0, xi)
    times = np.linspace(0.0, 1.0, 9)
    traj = compute_trajectory(ham, times, auto_refine=False)
    (want,) = dyn_mod._projections(assembled_spectra(ham)[2:], times)
    assert np.abs(traj.c2 - want).max() <= 1e-12


@pytest.mark.parametrize("kind, n_sites, reduced", [
    ("square", 49, 9), ("square", 100, 20), ("square", 400, 65), ("square", 1024, 152), ("triangular", 196, 23),
])
def test_torus_quotient_dimensions(kind, n_sites, reduced):
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary="periodic"), 1.0, 0.05)
    assert [len(block) for block, _ in ham.dicke_sectors()] == [1, 1, reduced]


def pair_fold_sectors(lattice):
    """The ±delta fold of a chain torus: hamiltonian._torus_orbits with the
    MomentumGrid.pair_fold representatives and multiplicities as orbits."""
    n = lattice.n_sites
    grid = momentum_grid(lattice)
    reps, mult = grid.pair_fold()
    couplings = hamiltonian_mod._site_couplings(lattice)
    row = float(couplings.sum())
    d = np.zeros(n)
    d[1:] = couplings
    orbit = np.searchsorted(reps, np.minimum(np.arange(n), grid.index(-grid.coords)))
    orbit[0] = len(reps)
    diff = grid.index(grid.coords - grid.coords[reps][:, None])
    hops = [(orbit[diff], d), (orbit, d[diff])]
    one_orbit = (np.ones(1), row, [(np.zeros(1, dtype=np.intp), row)])
    return 0.5 * n * row, [one_orbit, (mult, 2.0 * row - 2.0 * d[reps], hops)]


@pytest.mark.parametrize("n_sites", [2, 3, 8, 25, 64, 81, 400])
@pytest.mark.parametrize("xi", [0.0, 0.05, 1.0])
def test_chain_torus_orbits_are_the_pair_fold(n_sites, xi):
    # on the chain the point group is +-1: the orbit blocks and states are
    # bitwise those of the pair_fold representatives
    lattice = periodic_chain(n_sites)
    got = list(full_hamiltonian(lattice, 1.0, xi).dicke_sectors())
    want = list(hamiltonian_mod._orbit_sectors(1.0, xi, n_sites, *pair_fold_sectors(lattice)))
    for (block, psi0), (ref_block, ref_psi0) in zip(got, want, strict=True):
        assert block.dtype == ref_block.dtype and np.array_equal(block, ref_block)
        assert np.array_equal(psi0, ref_psi0)


def test_blocks_dropped_before_eigh():
    # open chain 81: the sector-2 quotient is its whole orbit block (k =
    # 1640); each block is diagonalized before the next one is built, so the
    # peak stays within the engine's 40 k^2 estimate
    ham = full_hamiltonian(build_lattice("chain", 81), 1.0, 0.05)
    tracemalloc.start()
    try:
        traj = compute_trajectory(ham, np.linspace(0.0, 5.0, 50), auto_refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = traj.diagnostics["reduced_dims"][2]
    assert k == 1640
    assert peak <= 40 * k**2


def test_open_chain_refused_before_any_large_table():
    # open chain N = 150: the reflection leaves at least 5588 pair orbits, a
    # quotient of about 1191 MiB, refused before the orbit labels are built
    ham = full_hamiltonian(build_lattice("chain", 150), 1.0, 0.05)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="quotient of dimension 5588 or more needs about 1191 MiB"):
            compute_trajectory(ham, np.linspace(0.0, 1.0, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def expm1_projections(spectra, times):
    """The spectral sums as 1 + expm1(-i lambda t) @ w, each phase rounded
    once as t * lambda: the projections before the sin^2 kernel took them."""
    return [1.0 + np.expm1(-1j * np.outer(times, lam)) @ w for lam, w in spectra]


@st.composite
def projection_cases(draw):
    """1 to 3 spectra of 1 to 300 eigenvalues, |lambda| up to 10^-2 to 10^3,
    with weights summing to one, on an evenly spaced grid from 0, its
    midpoints or a single point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectra = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.just(1) | st.integers(1, 300))
        lam = rng.uniform(-1.0, 1.0, k) * 10.0 ** draw(st.floats(-2.0, 3.0))
        w = rng.random(k) * (rng.random(k) < draw(st.floats(0.2, 1.0)))
        w[rng.integers(k)] += 1.0  # at least one term
        spectra.append((lam, w / w.sum()))
    t_end = 10.0 ** draw(st.floats(-2.0, 3.0))
    grid = np.linspace(0.0, t_end, draw(st.integers(2, 2000)))
    kind = draw(st.sampled_from(["even", "midpoints", "point"]))
    if kind == "midpoints":
        grid = 0.5 * (grid[:-1] + grid[1:])
    elif kind == "point":
        grid = grid[-1:]
    return spectra, grid


@settings(max_examples=80, deadline=None)
@given(case=projection_cases())
def test_projections_match_expm1_formula(case):
    # within 1e-12 of the phases' scale: sum w |lambda t| for the expm1
    # formula's rounding, and |lambda_d t| for the carrier's; a one-term
    # spectrum is exactly its carrier, whose imaginary part is the expm1
    # formula's bit for bit, and every projection is exactly 1 at t = 0
    spectra, times = case
    got = dyn_mod._projections(spectra, times)
    for c, want, (lam, w) in zip(got, expm1_projections(spectra, times), spectra):
        scale = np.abs(np.outer(times, lam)) @ w + np.abs(times * lam[np.argmax(w)])
        assert np.all(np.abs(c - want) <= 1e-12 * (1.0 + scale))
        if len(lam) == 1:
            assert np.array_equal(c.imag, want.imag)
        if times[0] == 0.0:
            assert c[0] == 1.0


def test_projections_bounded_by_slices():
    # k = 2000 eigenvalues at 10^4 times: a whole (times x k) complex table
    # would take 320 MB; the kernel's slice tables fit sin2._SLICE_BYTES, and
    # beside them only (times,) complex arrays are held: the kernel's (times x
    # 2) product and partial sums, the carrier and the output.  The values
    # agree with the unsliced formula at roundoff
    rng = np.random.default_rng(4)
    lam = np.sort(rng.uniform(-50.0, 50.0, 2000))
    w = rng.random(2000)
    w /= w.sum()
    times = np.linspace(0.0, 100.0, 10_000)
    tracemalloc.start()
    try:
        (got,) = dyn_mod._projections([(lam, w)], times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sin2_mod._SLICE_BYTES + 8 * got.nbytes
    some = times[::20]
    want = 1.0 + np.expm1(-1j * np.outer(some, lam)) @ w
    np.testing.assert_allclose(got[::20], want, rtol=0, atol=1e-13)


class TestDickeProjections:
    def test_initial_values(self):
        lat = periodic_chain(8)
        traj = compute_trajectory(full_hamiltonian(lat, 1.0, 1.0), np.linspace(0, 10, 50))
        assert traj.c0[0] == pytest.approx(1.0)
        assert traj.c1[0] == pytest.approx(1.0)
        assert traj.c2[0] == pytest.approx(1.0)
        assert traj.fidelity[0] == pytest.approx(1.0)
        assert traj.theta[0] == 0.0

    def test_protected_sectors_periodic(self):
        lat = periodic_chain(12)
        gp = gate_params(lat, 1.0, 0.0, use_tilde=False)
        t = np.linspace(0.0, 4.0 * gp.t_pi, 200)
        traj = compute_trajectory(full_hamiltonian(lat, 1.0, 1.0), t)
        assert np.abs(np.abs(traj.c0) - 1.0).max() <= 1e-10
        assert np.abs(np.abs(traj.c1) - 1.0).max() <= 1e-10

    def test_sector_decoupling_direct_sum(self):
        # evolving the stacked three-sector superposition reproduces the
        # independently evolved projections
        lat = periodic_chain(8)
        h = full_hamiltonian(lat, 1.0, 0.2)
        sectors = full_sectors(lat, 1.0, 0.2)
        blocks = [dense(block) for block, _ in sectors]
        dims = [b.shape[0] for b in blocks]
        big = block_diag(*blocks)
        parts = [dicke(dim) for dim in dims]
        psi0 = np.concatenate([p / np.sqrt(3.0) for p in parts])
        t = np.linspace(0.0, 30.0, 40)
        states = dense_spectral(big, psi0, t)
        traj = compute_trajectory(h, t, auto_refine=False)
        ofs = np.cumsum([0] + dims)
        for n, cn in enumerate((traj.c0, traj.c1, traj.c2)):
            seg = states[:, ofs[n]:ofs[n + 1]]
            proj = seg @ parts[n].conj() / (1.0 / np.sqrt(3.0))
            assert np.abs(proj - cn).max() <= 1e-12


class TestNonlinearPhase:
    def test_ideal_quadratic_collective_phase(self):
        # exact law Theta = 2 chi t; the arccos extraction near |cos| = 1
        # carries a sqrt(eps) ~ 3e-8 floor, hence the 1e-7 bound
        n, chi = 12, 0.3
        h = ideal_quadratic_hamiltonian(n, chi)
        t = np.linspace(0.0, 2.5 * np.pi / (2 * chi), 400)
        traj = compute_trajectory(h, t)
        assert np.abs(traj.theta - 2.0 * chi * traj.times).max() < 1e-7

    def test_cos_half_at_zero(self):
        h = ideal_quadratic_hamiltonian(8, 0.5)
        traj = compute_trajectory(h, np.linspace(0, 1, 10))
        assert traj.cos_half[0] == pytest.approx(1.0)

    def test_auto_refinement_bounds_phase_step(self):
        n, chi = 10, 1.0
        h = ideal_quadratic_hamiltonian(n, chi)
        coarse = np.linspace(0.0, 20.0, 8)  # 2*chi*dt ~ 5.7 >> pi/2
        traj = compute_trajectory(h, coarse)
        assert len(traj.times) > len(coarse)
        assert np.abs(np.diff(traj.theta)).max() <= np.pi / 2 + 1e-12

    def test_refined_grid_matches_direct_evaluation(self):
        # each doubling interleaves the midpoints with the times and
        # evaluates the whole grid: bitwise the projections on the final grid
        ham = full_hamiltonian(build_lattice("square", 16, boundary="open"), 1.0, 0.2)
        traj = compute_trajectory(ham, np.linspace(0.0, 60.0, 9))
        diag = traj.diagnostics
        assert diag["grid_refinements"] == 2
        assert diag["grid_points"] == len(traj.times) == 8 * 2 ** diag["grid_refinements"] + 1
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 60.0, diag["grid_points"]), rtol=0, atol=1e-12)
        for got, want in zip((traj.c0, traj.c1, traj.c2), dyn_mod._projections(traj.spectra, traj.times)):
            assert np.array_equal(got, want)

    def test_grid_diagnostics_without_refinement(self):
        traj = compute_trajectory(full_hamiltonian(periodic_chain(8), 1.0, 1.0),
                                  np.linspace(0.0, 5.0, 13), auto_refine=False)
        diag = traj.diagnostics
        assert (diag["grid_points"], diag["grid_refinements"]) == (13, 0)
        # one orbit per pair distance 1 .. 4 on the 8-site ring
        assert diag["reduced_dims"] == [1, 1, 4]

    def test_clip_warning_on_superunitary_input(self):
        ones = np.ones(5, dtype=complex)
        with pytest.warns(RuntimeWarning, match="exceeds 1"):
            dyn_mod._extract_phase(ones, ones * (1.0 + 2e-6), ones)
        # below -1: cos(Theta/2) reaches -1.00001 at t = 1
        t = np.linspace(0.0, 1.0, 41)
        ones = np.ones_like(t, dtype=complex)
        with pytest.warns(RuntimeWarning, match="exceeds 1 by 1.00e-05"):
            dyn_mod._extract_phase(ones, ones, (1.0 + 2e-5 * t) * np.exp(2j * np.pi * t))


class TestGateTime:
    def test_ideal_gate_time(self):
        n, chi = 10, 0.25
        h = ideal_quadratic_hamiltonian(n, chi)
        expected = np.pi / (2.0 * chi)
        t = np.linspace(0.0, 2.0 * expected, 300)
        traj = compute_trajectory(h, t)
        assert gate_time(traj) == pytest.approx(expected, rel=1e-4)

    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        # a bracket below one ulp cannot be halved: bisection must end there
        lat = periodic_chain(8)
        t_pi = gate_params(lat, 1.0, 0.0).t_pi
        traj = compute_trajectory(full_hamiltonian(lat, 1.0, 1.0), np.linspace(0.0, 1.5 * t_pi, 60))
        coarse = gate_time(traj)
        monkeypatch.setattr(dyn_mod, "GATE_REL_TOL", 1e-300)
        assert gate_time(traj) == pytest.approx(coarse, rel=1e-4)
        assert traj.diagnostics["gate_time_method"] == "bisection"
        # the rounds end there too, bitwise where one point at a time does
        steps = assert_replays_one_point(traj)
        calls = spy_on(monkeypatch, dyn_mod, "_projections")
        gate_time(traj)
        assert steps > 30 and len(calls) == rounds(steps)

    @pytest.mark.parametrize("xi_over_kappa, window, method", [
        (0.05, 2.0, "bisection"),
        (0.0, 4.5, "interpolation"),  # the exchange model, t_pi from chi_eff
    ], ids=["mpm", "exchange"])
    def test_gate_time_from_spectra_alone(self, xi_over_kappa, window, method):
        # the trajectory keeps no reference to its Hamiltonian, and the gate
        # time evaluated from its spectra is bitwise the same without it
        lat = periodic_chain(12)
        use_tilde = xi_over_kappa != 0.0
        xi = xi_over_kappa if use_tilde else 1.0
        times = np.linspace(0.0, window * gate_params(lat, 1.0, xi_over_kappa, use_tilde=use_tilde).t_pi, 400)
        alive = full_hamiltonian(lat, 1.0, xi)
        kept = compute_trajectory(alive, times)
        ham = full_hamiltonian(lat, 1.0, xi)
        traj = compute_trajectory(ham, times)
        dead = weakref.ref(ham)
        del ham
        gc.collect()
        assert dead() is None
        assert gate_time(traj) == gate_time(kept)
        assert traj.diagnostics == kept.diagnostics
        assert kept.diagnostics["gate_time_method"] == method

    def test_not_reached_in_short_window(self):
        h = ideal_quadratic_hamiltonian(8, 0.1)
        t = np.linspace(0.0, 0.2 * np.pi / 0.2, 50)
        traj = compute_trajectory(h, t)
        with pytest.raises(GateNotReached):
            gate_time(traj)

    def test_mpm_gate_near_projected_time(self):
        # xi/kappa = 0.05, N = 36: the gate lands close to t_pi (measured
        # ~11% above; the acceptance band is 15%)
        lat = periodic_chain(36)
        gp = gate_params(lat, 1.0, 0.05, use_tilde=True)
        h = full_hamiltonian(lat, 1.0, 0.05)
        t = np.linspace(0.0, 1.6 * gp.t_pi, 500)
        traj = compute_trajectory(h, t)
        tg = gate_time(traj)
        assert abs(tg / gp.t_pi - 1.0) < 0.15

    def test_mpm_suppression_ordering(self):
        # fixed N: weaker Ising admixture leaks less over [0, 2 t_pi]
        lat = periodic_chain(36)
        decays = {}
        for xok in (0.05, 0.2):
            gp = gate_params(lat, 1.0, xok, use_tilde=True)
            h = full_hamiltonian(lat, 1.0, xok)
            t = np.linspace(0.0, 2.0 * gp.t_pi, 400)
            traj = compute_trajectory(h, t, auto_refine=False)
            decays[xok] = (1.0 - traj.fidelity).max()
        assert decays[0.05] < decays[0.2]


# ---------------------------------------------------------------------------
# the batched gate bisection against the one-point bisection it replays
# ---------------------------------------------------------------------------

PROJECTIONS = dyn_mod._projections
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def kernel_projections(spectra, times):
    """Every spectrum through one sin^2 kernel call, one-term spectra
    included: the projections before those skipped the kernel."""
    heaviest = np.array([lam[np.argmax(w)] for lam, w in spectra])
    re, im = sin2_mod._sin2_sum([(np.outer(-2.0 * w, unit), (lam - top) / 2.0, np.outer(-w, unit))
                                 for (lam, w), top, unit in zip(spectra, heaviest, np.eye(len(spectra)))], times)
    carrier = np.exp(-1j * np.outer(times, heaviest))
    return tuple(carrier[:, d] * (1.0 + re[:, d] + 1j * im[:, d]) for d in range(len(spectra)))


def one_point_gate_time(trajectory):
    """The bisection of gate_time with every bracket end and midpoint
    evaluated by a one-point projection call of its own: (gate time, method,
    bisection steps)."""
    c = trajectory.cos_half
    s = np.sign(c)
    flips = np.where(s[:-1] * s[1:] < 0)[0]
    if len(flips) == 0:
        raise GateNotReached("no zero of cos(Theta/2) in the evolved window")
    i = int(flips[0])
    t_lo, t_hi = float(trajectory.times[i]), float(trajectory.times[i + 1])

    def combination(t):
        c0, c1, c2 = (complex(proj[0]) for proj in PROJECTIONS(trajectory.spectra, np.array([t])))
        return 0.5 * (np.conj(c0) * c2 + (np.conj(c0) * c1) ** 2)

    z_ref = combination(t_lo)
    ref = z_ref / abs(z_ref)

    def signed(t):
        return float(np.real(combination(t) * np.conj(ref)))

    steps = 0
    if signed(t_hi) > 0:
        c_lo, c_hi = float(c[i]), float(c[i + 1])
        return t_lo + (t_hi - t_lo) * c_lo / (c_lo - c_hi), "interpolation", steps
    while (t_hi - t_lo) > dyn_mod.GATE_REL_TOL * max(t_hi, 1e-300):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid in (t_lo, t_hi):
            break
        steps += 1
        t_lo, t_hi = (t_lo, t_mid) if signed(t_mid) <= 0 else (t_mid, t_hi)
    return 0.5 * (t_lo + t_hi), "bisection", steps


def assert_replays_one_point(trajectory):
    """gate_time and its method bitwise the one-point bisection's; returns
    that bisection's steps, or None where neither reaches a gate."""
    try:
        want, method, steps = one_point_gate_time(trajectory)
    except GateNotReached:
        with pytest.raises(GateNotReached):
            gate_time(trajectory)
        return None
    assert gate_time(trajectory) == want
    assert trajectory.diagnostics["gate_time_method"] == method
    return steps


def gate_trajectory(kind, boundary, n_sites, xi_over_kappa, window, samples, auto_refine=True):
    """``samples`` points to ``window`` t_pi, xi/kappa with the tilde couplings."""
    lat = build_lattice(kind, n_sites, boundary=boundary)
    t_pi = gate_params(lat, 1.0, xi_over_kappa, use_tilde=True).t_pi
    ham = full_hamiltonian(lat, 1.0, xi_over_kappa)
    return compute_trajectory(ham, np.linspace(0.0, window * t_pi, samples), auto_refine=auto_refine)


# (trajectory arguments, method): the gate_large benchmark tasks, the
# criterion-2 grids of the acceptance tests, and an interpolation case
GATE_CASES = {
    "gate_large_chain": (("chain", "periodic", 64, 0.05, 1.19, 150), "bisection"),
    "gate_large_square": (("square", "open", 64, 0.05, 0.99, 150), "bisection"),
    "criterion_2_chain_36": (("chain", "periodic", 36, 0.05, 1.6, 420, False), "bisection"),
    "criterion_2_chain_81": (("chain", "periodic", 81, 0.05, 1.6, 420, False), "bisection"),
    "interpolation": (("square", "open", 64, 0.1, 1.2, 150), "interpolation"),
}


def bracket_from_zero():
    """A trajectory whose grid's first interval holds the gate, which the
    phase extraction never gives: C_0 = 1, C_1 = e^{-i t / 2} and C_2 mostly
    e^{i t}, so that (X + Y) / 2 is close to cos t, on the grid 0, 2."""
    spectra = ((np.array([0.0]), np.array([1.0])), (np.array([0.5]), np.array([1.0])),
               (np.array([-1.0, -1.3]), np.array([0.9, 0.1])))
    times = np.array([0.0, 2.0])
    c0, c1, c2 = PROJECTIONS(spectra, times)
    return dyn_mod.Trajectory(times, c0, c1, c2, np.abs(c2) ** 2, 2.0 * times, np.cos(times), spectra,
                              {"gate_time_method": None})


def rounds(steps):
    """gate_time's calls for ``steps`` bisection steps: one round of 3 steps
    a call, the first with the bracket ends, which it evaluates alone when
    no step is needed."""
    return max(1, -(-steps // 3))


def spy_on(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestBatchedBisection:
    @pytest.mark.parametrize("case", GATE_CASES)
    def test_replays_one_point_bisection(self, monkeypatch, case):
        args, method = GATE_CASES[case]
        traj = gate_trajectory(*args)
        steps = assert_replays_one_point(traj)
        assert traj.diagnostics["gate_time_method"] == method
        calls = spy_on(monkeypatch, dyn_mod, "_projections")
        gate_time(traj)
        assert len(calls) == rounds(steps)
        assert max(len(times) for _, times in calls) <= 9

    @pytest.mark.parametrize("name", ["phase_gate", "mpm_protected_gate", "mpm_sweep", "open_square_gate"])
    def test_shipped_gate_configs(self, monkeypatch, tmp_path, name):
        replayed = []

        def checked(trajectory):
            replayed.append(assert_replays_one_point(trajectory))
            return gate_time(trajectory)

        monkeypatch.setattr(cli_mod, "gate_time", checked)
        assert main(["run", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path)]) == 0
        assert len(replayed) == (4 if name == "mpm_sweep" else 1)
        assert None not in replayed

    def test_bracket_from_zero(self, monkeypatch):
        traj = bracket_from_zero()
        steps = assert_replays_one_point(traj)
        assert traj.diagnostics["gate_time_method"] == "bisection"
        calls = spy_on(monkeypatch, dyn_mod, "_projections")
        gate_time(traj)
        assert steps > 9 and len(calls) == rounds(steps)


@settings(max_examples=25, deadline=None)
@given(lattice=st.one_of(
           st.tuples(st.just("chain"), st.integers(4, 40)),
           st.tuples(st.sampled_from(["square", "triangular"]), st.sampled_from([9, 16, 25, 36]))),
       boundary=st.sampled_from(["open", "periodic"]),
       xi_over_kappa=st.floats(0.01, 0.5),
       window=st.floats(0.3, 3.0),
       samples=st.integers(2, 200),
       auto_refine=st.booleans())
def test_batched_bisection_replays_drawn(lattice, boundary, xi_over_kappa, window, samples, auto_refine):
    kind, n_sites = lattice
    assert_replays_one_point(gate_trajectory(kind, boundary, n_sites, xi_over_kappa, window, samples, auto_refine))


class TestKernelCalls:
    def test_one_doubling_is_one_grid(self, monkeypatch):
        ham = full_hamiltonian(periodic_chain(12), 1.0, 0.05)
        t_pi = gate_params(periodic_chain(12), 1.0, 0.05, use_tilde=True).t_pi
        calls = spy_on(monkeypatch, dyn_mod, "_projections")
        traj = compute_trajectory(ham, np.linspace(0.0, 1.5 * t_pi, 60))
        assert traj.diagnostics["grid_refinements"] == 1
        assert [len(times) for _, times in calls] == [119]
        assert np.array_equal(calls[0][1], traj.times)

    @pytest.mark.parametrize("auto_refine", [True, False])
    def test_one_point_grid(self, monkeypatch, auto_refine):
        calls = spy_on(monkeypatch, dyn_mod, "_projections")
        traj = compute_trajectory(full_hamiltonian(periodic_chain(8), 1.0, 0.3), [0.0], auto_refine=auto_refine)
        assert [len(times) for _, times in calls] == [1]
        assert (traj.diagnostics["grid_points"], traj.diagnostics["grid_refinements"]) == (1, int(auto_refine))
        assert traj.c0[0] == traj.c1[0] == traj.c2[0] == traj.cos_half[0] == 1.0

    @pytest.mark.parametrize("case", ["gate_large_chain", "gate_large_square"])
    def test_gate_time_rounds(self, monkeypatch, case):
        # 2 calls for the 6 steps that took 8 one-point calls, of at most the
        # 2 bracket ends and 7 midpoints each
        traj = gate_trajectory(*GATE_CASES[case][0])
        steps = one_point_gate_time(traj)[2]
        calls = spy_on(monkeypatch, dyn_mod, "_projections")
        gate_time(traj)
        assert steps == 6 and len(calls) == rounds(steps) == 2
        assert [len(times) for _, times in calls] == [9, 7]

    def test_one_term_spectra_skip_the_kernel(self, monkeypatch):
        # a one-term spectrum is exactly its carrier, signed zeros included,
        # with and without another spectrum in the kernel
        rng = np.random.default_rng(7)
        one_term = [(np.array([lam]), np.array([1.0])) for lam in (-1.5, -0.0, 0.0, 2.0)]
        many = (rng.uniform(-3.0, 3.0, 40), rng.dirichlet(np.ones(40)))
        times = np.linspace(0.0, 7.0, 50)
        calls = spy_on(monkeypatch, dyn_mod, "_sin2_sum")
        for spectra, blocks in ((one_term, []), ([one_term[0], many, *one_term[1:]], [1])):
            calls.clear()
            got = dyn_mod._projections(spectra, times)
            assert [len(b) for b, _ in calls] == blocks
            for g, want, (lam, _) in zip(got, kernel_projections(spectra, times), spectra):
                assert np.array_equal(g.view(np.uint64), want.view(np.uint64))
                if len(lam) == 1:
                    assert np.array_equal(g, np.exp(-1j * times * lam[0]))


@settings(max_examples=60, deadline=None)
@given(case=projection_cases())
def test_projections_bitwise_the_kernel_route(case):
    # one-term spectra skip the kernel, the others keep their own columns
    spectra, times = case
    for got, want in zip(dyn_mod._projections(spectra, times), kernel_projections(spectra, times)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "traj.cfg"
        cfg.write_text("experiment = phase_gate\nkind = chain\nn_sites = 6\nboundary = periodic\n"
                       "t_max = 3.0\nn_samples = 20\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        path = tmp_path / "phase_gate" / "trajectory.csv"
        lat = periodic_chain(6)
        t_pi = gate_params(lat, 1.0, 0.0).t_pi
        traj = compute_trajectory(full_hamiltonian(lat, 1.0, 1.0), np.linspace(0, 3.0 * t_pi, 20))
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert set(data.dtype.names) == {
            "t", "re_c0", "im_c0", "re_c1", "im_c1", "re_c2", "im_c2",
            "fidelity", "theta", "abs_cos_half_theta",
        }
        # 17 significant digits round-trip every double exactly
        columns = {
            "t": traj.times, "re_c1": traj.c1.real, "im_c2": traj.c2.imag,
            "fidelity": traj.fidelity, "theta": traj.theta,
            "abs_cos_half_theta": np.abs(traj.cos_half),
        }
        for name, values in columns.items():
            assert np.array_equal(data[name], values), name
