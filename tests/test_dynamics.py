import gc
import tracemalloc
import weakref
from math import comb
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import dipolarray.basis as basis_mod
import dipolarray.dynamics as dyn_mod
import dipolarray.hamiltonian as hamiltonian_mod
import dipolarray.sin2 as sin2_mod
from dipolarray.basis import ResourceLimitError, dicke_state, sector_basis
from dipolarray.cli import main
from dipolarray.dynamics import (
    REFINE_TOL,
    RESIDUAL_TOL,
    GateNotReached,
    InvarianceError,
    compute_trajectory,
    evolve,
    gate_time,
)
from dipolarray.hamiltonian import CSRBlock, exchange_hamiltonian, full_hamiltonian, gate_params
from dipolarray.lattice import build_lattice


def periodic_chain(n):
    return build_lattice("chain", n, boundary="periodic")


def ideal_quadratic_hamiltonian(n_sites: int, chi: float) -> SimpleNamespace:
    """Diagnostic stand-in for a SpinHamiltonian, with the two methods
    compute_trajectory reads: per-sector constants chi*(N/2 - n)^2 (exact
    quadratic collective dephasing; Theta(t) = 2*chi*t)."""
    def dicke_sectors():
        return [(chi * (n_sites / 2.0 - n) ** 2 * np.eye(comb(n_sites, n)), dicke_state(sector_basis(n_sites, n)))
                for n in (0, 1, 2)]

    return SimpleNamespace(dicke_sectors=dicke_sectors, dim=lambda n: comb(n_sites, n))


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        states = evolve(np.zeros((3, 3)), psi0, [0.0, 1.0, 5.0])
        assert np.allclose(states, psi0)

    def test_two_site_exchange_oscillation(self):
        # |e g> under hop 2*kappa: population cos^2(2 kappa t)
        h = exchange_hamiltonian(build_lattice("chain", 2), 1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        t = np.linspace(0.0, 3.0, 60)
        states = evolve(h.blocks[1], psi0, t)
        pop = np.abs(states[:, 0]) ** 2
        assert np.allclose(pop, np.cos(2.0 * t) ** 2, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            evolve(np.eye(2), np.array([1.0, 1.0]), [0.0, 1.0])

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError, match="normalized"):
            evolve(np.eye(2), np.array([np.nan, 0.0]), [0.0, 1.0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_block(self, entry):
        # a ValueError up front, not an InvarianceError after refinement
        with pytest.raises(ValueError, match="block entries must be finite"):
            evolve(np.array([[entry, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]), [0.0, 1.0])

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            evolve(np.eye(2), np.array([1.0, 0.0]), [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            compute_trajectory(exchange_hamiltonian(build_lattice("chain", 4), 1.0), [0.0, -1.0])

    def test_rejects_empty_times(self):
        with pytest.raises(ValueError, match="times must not be empty"):
            evolve(np.eye(2), np.array([1.0, 0.0]), [])
        with pytest.raises(ValueError, match="times must not be empty"):
            compute_trajectory(exchange_hamiltonian(build_lattice("chain", 4), 1.0), [])

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="times must be finite"):
            evolve(np.eye(2), np.array([1.0, 0.0]), times)
        with pytest.raises(ValueError, match="times must be finite"):
            compute_trajectory(full_hamiltonian(periodic_chain(8), 1.0, 0.1), times, auto_refine=False)

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="start at 0"):
            evolve(np.eye(2), np.array([1.0, 0.0]), [1.0, 2.0])
        with pytest.raises(ValueError, match="start at 0"):
            compute_trajectory(exchange_hamiltonian(build_lattice("chain", 4), 1.0), [1.0, 2.0])

    def test_unitarity_both_paths(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 40))
        h = (a + a.T) / 2
        psi0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        psi0 /= np.linalg.norm(psi0)
        t = np.linspace(0.0, 8.0, 30)
        dense = evolve(h, psi0, t)
        sparse = evolve(sp.csr_matrix(h), psi0, t)
        assert np.abs(np.linalg.norm(dense, axis=1) - 1.0).max() < 1e-10
        assert np.abs(np.linalg.norm(sparse, axis=1) - 1.0).max() < 1e-10
        assert np.abs(dense - sparse).max() < 1e-8

    def test_energy_conservation(self):
        lat = periodic_chain(10)
        h = full_hamiltonian(lat, 1.0, 0.1)
        psi0 = dicke_state(h.sectors[2])
        t = np.linspace(0.0, 40.0, 50)
        states = evolve(h.blocks[2], psi0, t)
        e = np.real(np.einsum("ti,ij,tj->t", states.conj(), h.blocks[2].toarray(), states))
        assert np.abs(e - e[0]).max() <= 1e-9 * max(abs(e[0]), 1.0)

    def test_time_reversal(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((60, 60))
        h = (a + a.T) / 2
        psi0 = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        psi0 /= np.linalg.norm(psi0)
        fwd = evolve(h, psi0, [0.0, 7.3])[-1]
        back = evolve(sp.csr_matrix(-h), fwd, [0.0, 7.3])[-1]
        assert np.abs(back - psi0).max() < 1e-8


class TestSpectralEngine:
    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((80, 80))
        h = (a + a.T) / 2
        v = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        v /= np.linalg.norm(v)
        lam, vec = np.linalg.eigh(h)
        for dt in (0.05, 1.0, 20.0):
            ref = vec @ (np.exp(-1j * dt * lam) * (vec.conj().T @ v))
            out = evolve(sp.csr_matrix(h), v, [0.0, dt])[-1]
            assert np.abs(out - ref).max() < 1e-9

    def test_quotient_memory_cap(self, monkeypatch):
        # open chain 12: the reflection pairs the C(12, 2) = 66 two-excitation
        # states into (66 + 6) / 2 = 36 cells
        # point-group orbits; the engine's cap is checked on the assembled block,
        # whose first round already has them as cells
        ham = full_hamiltonian(build_lattice("chain", 12), 1.0, 0.3)
        assert compute_trajectory(ham, [0.0]).diagnostics["reduced_dims"] == [1, 6, 36]
        block, psi0 = ham.blocks[2].toarray(), dicke_state(ham.sectors[2])
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 40 * 36**2)
        assert dyn_mod._SectorEvolver(block, psi0).dim == 36
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 40 * 36**2 - 1)
        with pytest.raises(ResourceLimitError, match="quotient of dimension 36"):
            dyn_mod._SectorEvolver(block, psi0)
        # the orbit path refuses the same quotient before its orbit tables
        with pytest.raises(ResourceLimitError, match="quotient of dimension 36"):
            compute_trajectory(ham, [0.0])

    def test_quotient_cap_admits_open_chain_to_143(self):
        # the open chain's sector-2 quotient has (C(N, 2) + N // 2) / 2 cells
        def cells(n):
            return (n * (n - 1) // 2 + n // 2) // 2

        for n in (7, 8, 13):
            ham = full_hamiltonian(build_lattice("chain", n), 1.0, 0.3)
            assert compute_trajectory(ham, [0.0]).diagnostics["reduced_dims"][2] == cells(n)
        assert 40 * cells(143) ** 2 <= basis_mod.MEMORY_BYTES_MAX < 40 * cells(144) ** 2

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # a refinement tolerance far above every coupling merges cells that
        # are not equivalent; the residual check must refuse the quotient
        monkeypatch.setattr(dyn_mod, "REFINE_TOL", 10.0)
        ham = full_hamiltonian(build_lattice("chain", 8), 1.0, 0.3)
        with pytest.raises(InvarianceError, match="not invariant"):
            compute_trajectory(ham, [0.0])


def scipy_csr(block):
    """``block`` as a scipy CSR array: a CSRBlock's own triple, else scipy's conversion."""
    if isinstance(block, CSRBlock):
        return sp.csr_array((block.data, block.indices, block.indptr), shape=block.shape)
    return sp.csr_array(block)


def scipy_indicator(cells):
    dim = len(cells)
    return sp.csr_array((np.ones(dim), cells.astype(np.int32), np.arange(dim + 1, dtype=np.int32)),
                        shape=(dim, int(cells.max()) + 1))


def padded_keys(cells, sums, tol):
    """Each row's cell, then the (cell, level) codes of the entries of the
    sparse ``sums`` beyond ``tol``, padded with -1."""
    sums.data[np.abs(sums.data) <= tol] = 0.0
    sums.eliminate_zeros()
    sums.sort_indices()
    level = dyn_mod._levels(sums.data, tol)
    code = sums.indices.astype(np.int64) * (level.max(initial=0) + 1) + level
    count = np.diff(sums.indptr)
    row = np.repeat(np.arange(len(cells)), count)
    keys = np.full((len(cells), int(count.max(initial=0)) + 1), -1, dtype=np.int64)
    keys[:, 0] = cells
    keys[row, 1 + np.arange(len(code)) - sums.indptr[row]] = code
    return keys


def scipy_row_keys(h, cells, tol):
    """Split keys of the evolver from scipy sparse products: each row's sums
    into every cell minus those of its cell's first row."""
    sums = h @ scipy_indicator(cells)
    first = np.unique(cells, return_index=True)[1]
    return padded_keys(cells, sp.csr_array(sums - sums[first[cells]]), tol)


def scipy_row_sum_keys(h, cells, tol):
    """Split keys of plain colour refinement: each row's sums into every cell."""
    return padded_keys(cells, sp.csr_array(h @ scipy_indicator(cells)), tol)


def reference_partition(block, psi0, row_keys=scipy_row_keys):
    """Colour refinement that confirms every partition with a further round
    of ``row_keys``: the reference for the evolver's single-pass rounds.
    Returns the cells and the number of rounds that split."""
    h = scipy_csr(block)
    tol = REFINE_TOL * (float(np.abs(h.data).max(initial=0.0)) or 1.0)
    amp_tol = REFINE_TOL * float(np.abs(psi0).max(initial=0.0))
    cells = dyn_mod._cell_ids(dyn_mod._levels(psi0, amp_tol), dyn_mod._levels(h.diagonal(), tol))
    k, rounds = int(cells.max()) + 1, 0
    while k < h.shape[0]:
        cells = dyn_mod._cell_ids(row_keys(h, cells, tol))
        grown = int(cells.max()) + 1
        if grown == k:
            break
        k, rounds = grown, rounds + 1
    return cells, rounds


def same_partition(a, b):
    """``a`` and ``b`` label the same cells, up to relabeling."""
    pairs = np.unique(np.column_stack([a, b]), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def assert_reference_cells(block, psi0):
    """The evolver's cells equal the deviation-key reference bitwise, and
    the row-sum refinement up to relabeling, in as many rounds; returns the
    rounds."""
    ev = dyn_mod._SectorEvolver(block, psi0)
    ref, rounds = reference_partition(block, psi0)
    assert ev.cells.dtype == ref.dtype
    assert np.array_equal(ev.cells, ref)
    row_sum_cells, row_sum_rounds = reference_partition(block, psi0, scipy_row_sum_keys)
    assert same_partition(ev.cells, row_sum_cells)
    assert ev.rounds == rounds == row_sum_rounds
    return ev.rounds


class TestRefinement:
    def test_splits_over_several_rounds(self):
        # xi = kappa on an open lattice: no diagonal to seed the cells, so
        # the one- and two-excitation sectors need one and two splits
        ham = exchange_hamiltonian(build_lattice("triangular", 16), 1.0)
        rounds = [assert_reference_cells(ham.blocks[n], dicke_state(ham.sectors[n]))
                  for n in (0, 1, 2)]
        assert rounds == [0, 1, 2]
        assert compute_trajectory(ham, [0.0]).diagnostics["partition_rounds"] == rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hermitian_block(self, seed):
        # entries on a coarse grid repeat, so the uniform state's cells split
        rng = np.random.default_rng(seed)
        m = 30 + 5 * seed
        a = np.round(2.0 * rng.standard_normal((m, m))) / 2.0
        a = a + 1j * np.round(2.0 * rng.standard_normal((m, m))) / 2.0 * (seed % 2)
        h = (a + a.conj().T) / 2.0
        uniform = np.full(m, 1.0 / np.sqrt(m), dtype=complex)
        assert assert_reference_cells(h, uniform) >= 1
        psi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert assert_reference_cells(h, psi / np.linalg.norm(psi)) == 0

    def test_gate_large_sectors_need_no_split(self):
        # the symmetric seeds of both benchmark sectors are already
        # equitable: one round, and no split
        for kind, boundary in (("chain", "periodic"), ("square", "open")):
            ham = full_hamiltonian(build_lattice(kind, 64, boundary=boundary), 1.0, 0.05)
            diag = compute_trajectory(ham, [0.0]).diagnostics
            assert diag["partition_rounds"] == [0, 0, 0]
            assert ham.dim(2) == 2016


# (kind, n_sites) with n_sites <= 16 that every boundary accepts
ORACLE_LATTICES = st.one_of(
    st.tuples(st.just("chain"), st.integers(min_value=3, max_value=16)),
    st.tuples(st.sampled_from(["square", "triangular"]), st.sampled_from([4, 9, 16])),
)


def dense_spectral(block, psi0, times):
    lam, vec = np.linalg.eigh(block.toarray())
    return (np.exp(-1j * np.outer(times, lam)) * (vec.conj().T @ psi0)) @ vec.T


@settings(max_examples=40, deadline=None)
@given(
    lattice=ORACLE_LATTICES,
    boundary=st.sampled_from(["open", "periodic"]),
    xi=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# xi so small that the two pair distances of the periodic chain 5 share a cell
@example(lattice=("chain", 5), boundary="periodic", xi=5e-324, seed=0)
@example(lattice=("chain", 5), boundary="periodic", xi=1.66053906892e-27, seed=0)
def test_quotient_matches_dense_sector(lattice, boundary, xi, seed):
    kind, n_sites = lattice
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    t = np.linspace(0.0, 40.0, 25)
    traj = compute_trajectory(ham, t, auto_refine=False)
    diag = traj.diagnostics
    assert diag["invariance_residual"] <= RESIDUAL_TOL
    for n, c in enumerate((traj.c0, traj.c1, traj.c2)):
        psi0 = dicke_state(ham.sectors[n])
        ref = dense_spectral(ham.blocks[n], psi0, t) @ psi0.conj()
        np.testing.assert_allclose(c, ref, rtol=1e-10, atol=1e-12)
    for n in (0, 1, 2):
        assert_reference_cells(ham.blocks[n], dicke_state(ham.sectors[n]))
    if kind == "chain" and boundary == "periodic":
        # one cell per pair distance 1 .. N/2, e.g. 6 of 66 states at N = 12.
        # At N = 5 both distances have the same hops (the 2 x 2 orbit block's
        # rows differ on the diagonal alone), so refinement keeps them in one
        # cell whenever their diagonals differ by no more than REFINE_TOL of
        # the block's largest entry, as at xi = 0 (test_orbit_partition_differences)
        expected = n_sites // 2
        if n_sites == 5:
            orbit_block = list(ham.dicke_sectors())[2][0]
            gap = np.ptp(np.diagonal(orbit_block))
            expected = 1 if gap <= REFINE_TOL * np.abs(orbit_block).max() else 2
        assert diag["reduced_dims"][2] == expected < ham.dim(2)
    # a state without symmetry takes the discrete partition, i.e. the full block
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(ham.dim(2)) + 1j * rng.standard_normal(ham.dim(2))
    psi /= np.linalg.norm(psi)
    ref = dense_spectral(ham.blocks[2], psi, t)
    np.testing.assert_allclose(evolve(ham.blocks[2], psi, t), ref, rtol=1e-10, atol=1e-12)


def scipy_evolver(block, psi0):
    """The evolver's refinement rounds with scipy.sparse products: per round
    hp = H P, Hr = P^T hp and dev = hp - P Hr for the indicator P weighted
    1/sqrt|c|.  Returns cells, rounds, dense Hr, residual, lam and w."""
    psi0 = np.asarray(psi0, dtype=complex)
    h = scipy_csr(block)
    scale = float(np.abs(h.data).max(initial=0.0)) or 1.0
    tol = REFINE_TOL * scale
    amp_tol = REFINE_TOL * float(np.abs(psi0).max(initial=0.0))
    cells = dyn_mod._cell_ids(dyn_mod._levels(psi0, amp_tol), dyn_mod._levels(h.diagonal(), tol))
    rounds = 0
    while True:
        root = np.sqrt(np.bincount(cells))
        weight = 1.0 / root[cells]
        p = sp.csr_array((weight, cells.astype(np.int32), np.arange(len(cells) + 1, dtype=np.int32)),
                         shape=(len(cells), len(root)))
        hp = h @ p
        hr = p.T @ hp
        dev = hp - p @ hr
        if len(root) == len(cells) or np.all(np.abs(dev.data) * root[dev.indices] <= tol):
            break
        split = dyn_mod._cell_ids(scipy_row_keys(h, cells, tol))
        if split.max() + 1 == len(root):
            break
        cells, rounds = split, rounds + 1
    lam, vec = np.linalg.eigh(hr.toarray())
    coef = vec.conj().T @ (p.T @ psi0)
    w = np.abs(coef) ** 2
    return SimpleNamespace(cells=cells, rounds=rounds, hr=hr.toarray(), root=root,
                           tol=tol, residual=float(np.linalg.norm(dev.data)) / scale, lam=lam, w=w / w.sum())


def assert_matches_scipy(block, psi0):
    """Cells and rounds of the evolver equal the scipy round's.  The engine
    takes Hr from the first row of every cell, where the sparse product
    P^T H P sums whole cells; on an equitable partition the two differ by
    roundoff, so each entry agrees to 64 eps of max |Hr| and each
    eigenvalue to k times that (Weyl), the projection on psi0 to 1e-10 over
    t <= 40 and the residuals to 1e-13.  Row slices of 256 KiB and of one
    row give bitwise the same quotient.  The cells are those of row-sum
    refinement up to relabeling, in as many rounds."""
    ref = scipy_evolver(block, psi0)
    row_sum_cells, row_sum_rounds = reference_partition(block, psi0, scipy_row_sum_keys)
    assert same_partition(ref.cells, row_sum_cells) and ref.rounds == row_sum_rounds
    entry_tol = 64 * np.finfo(float).eps * (float(np.abs(ref.hr).max(initial=0.0)) or 1.0)
    times = np.linspace(0.0, 40.0, 25)
    (want,) = dyn_mod._projections([(ref.lam, ref.w)], times)
    runs = []
    for slice_bytes in (dyn_mod._SLICE_BYTES, 1):
        with mock.patch.object(dyn_mod, "_SLICE_BYTES", slice_bytes):
            ev = dyn_mod._SectorEvolver(block, psi0)
            hr = dyn_mod._quotient(np.asarray(block), ev.cells, ref.root, ref.tol)[0]
        assert np.array_equal(ev.cells, ref.cells)
        assert ev.rounds == ref.rounds
        np.testing.assert_allclose(hr, ref.hr, rtol=0, atol=entry_tol)
        np.testing.assert_allclose(ev.lam, ref.lam, rtol=0, atol=len(ref.lam) * entry_tol)
        (got,) = dyn_mod._projections([(ev.lam, ev.w)], times)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert ev.residual <= RESIDUAL_TOL and abs(ev.residual - ref.residual) <= 1e-13
        runs.append((hr, ev.lam, ev.w))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)
    return ev


def assert_csr_matches_scipy(block):
    """data, indices and indptr (values and dtypes) of scipy's CSR of the same entries."""
    ref = sp.csr_array(block.toarray())
    assert block.shape == ref.shape
    for part in ("data", "indices", "indptr"):
        got, want = getattr(block, part), getattr(ref, part)
        assert got.dtype == want.dtype, part
        assert np.array_equal(got, want), part


@settings(max_examples=40, deadline=None)
@given(
    lattice=ORACLE_LATTICES,
    boundary=st.sampled_from(["open", "periodic"]),
    xi=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_matches_scipy_products(lattice, boundary, xi, seed):
    kind, n_sites = lattice
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    for n in (0, 1, 2):
        assert_csr_matches_scipy(ham.blocks[n])
        assert_matches_scipy(ham.blocks[n], dicke_state(ham.sectors[n]))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(ham.dim(2)) + 1j * rng.standard_normal(ham.dim(2))
    assert_matches_scipy(ham.blocks[2], psi / np.linalg.norm(psi))


@pytest.mark.parametrize("kind, n_sites, boundary, xi, rounds", [
    ("chain", 64, "periodic", 0.05, 0),  # the gate_large sectors
    ("square", 64, "open", 0.05, 0),
    ("triangular", 16, "open", 1.0, 2),  # bare exchange: two splits
])
def test_engine_matches_scipy_on_large_sectors(kind, n_sites, boundary, xi, rounds):
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    assert_csr_matches_scipy(ham.blocks[2])
    assert assert_matches_scipy(ham.blocks[2], dicke_state(ham.sectors[2])).rounds == rounds


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_scipy_on_random_hermitian(seed):
    # coarse-grid entries, real for even seeds and complex for odd ones
    rng = np.random.default_rng(seed)
    m = 30 + 5 * seed
    a = np.round(2.0 * rng.standard_normal((m, m))) / 2.0
    a = a + 1j * np.round(2.0 * rng.standard_normal((m, m))) / 2.0 * (seed % 2)
    h = (a + a.conj().T) / 2.0
    assert assert_matches_scipy(h, np.full(m, 1.0 / np.sqrt(m), dtype=complex)).rounds >= 1


def recording_cell_sums(monkeypatch):
    """Patch the engine's one block reader; returns the list of (rows, key,
    sums) of every slice it reads."""
    calls, cell_sums = [], dyn_mod._cell_sums

    def record(rows, key, k):
        calls.append((rows, key, cell_sums(rows, key, k)))
        return calls[-1][2]

    monkeypatch.setattr(dyn_mod, "_cell_sums", record)
    return calls


def test_slices_bound_every_temporary(monkeypatch):
    # open chain 40: dim 780, quotient 400, equitable from the seed.  The
    # rows, the bincount keys and the (rows x k) sums of every slice stay
    # within the slice, the one round covers every (row, cell) sum exactly
    # once, and the spectrum is the same bitwise
    ham = full_hamiltonian(build_lattice("chain", 40), 1.0, 0.3)
    block, psi0 = ham.blocks[2].toarray(), dicke_state(ham.sectors[2])
    whole = dyn_mod._SectorEvolver(block, psi0)
    assert (ham.dim(2), whole.dim, whole.rounds) == (780, 400, 0)
    calls = recording_cell_sums(monkeypatch)
    monkeypatch.setattr(dyn_mod, "_SLICE_BYTES", 2**14)
    sliced = dyn_mod._SectorEvolver(block, psi0)
    assert max(rows.nbytes for rows, _, _ in calls) <= 2**14
    assert max(key.nbytes for _, key, _ in calls) <= 2**14
    assert max(sums.nbytes for _, _, sums in calls) <= 2**14
    assert sum(sums.nbytes for _, _, sums in calls) == ham.dim(2) * whole.dim * 8
    assert np.array_equal(sliced.lam, whole.lam) and np.array_equal(sliced.w, whole.w)


@pytest.mark.parametrize("kind, n_sites, boundary, xi, rounds", [
    ("chain", 64, "periodic", 0.05, [0, 0, 0]),  # the gate_large sectors
    ("square", 64, "open", 0.05, [0, 0, 0]),
    ("triangular", 16, "open", 1.0, [0, 1, 2]),  # bare exchange
    ("square", 49, "open", 0.05, [0, 0, 1]),
])
def test_block_passes_per_round(monkeypatch, kind, n_sites, boundary, xi, rounds):
    # every round reads the block once, whether it ends equitable or splits
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    calls = recording_cell_sums(monkeypatch)
    for n in (0, 1, 2):
        calls.clear()
        ev = dyn_mod._SectorEvolver(ham.blocks[n], dicke_state(ham.sectors[n]))
        assert ev.rounds == rounds[n]
        assert sum(len(sums) for _, _, sums in calls) == (ev.rounds + 1) * ham.dim(n)


# ---------------------------------------------------------------------------
# symmetry orbits: the orbit path against the assembled refinement path
# ---------------------------------------------------------------------------

def orbits_against_assembly(kind, n_sites, xi, boundary="periodic"):
    """compute_trajectory (symmetry orbits: translations on a periodic
    lattice, the point group on an open one) against the evolvers of the
    assembled blocks from the Dicke states.  The projections must agree
    within 64 ||H|| t eps, ||H|| the largest quotient eigenvalue: the
    measured gap reached 14 ||H|| t eps (periodic square 196), so a flat
    bound fails as N grows.  Returns the (reduced_dims, partition_rounds) of
    both paths."""
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    times = np.linspace(0.0, 40.0, 30)
    traj = compute_trajectory(ham, times, auto_refine=False)
    ref = [dyn_mod._SectorEvolver(ham.blocks[n], dicke_state(ham.sectors[n])) for n in (0, 1, 2)]
    norm = max(float(np.abs(ev.lam).max()) for ev in ref)
    bound = 64 * norm * times[-1] * np.finfo(float).eps
    for got, want in zip((traj.c0, traj.c1, traj.c2), dyn_mod._projections([(ev.lam, ev.w) for ev in ref], times)):
        assert np.abs(got - want).max() <= bound
    diag = traj.diagnostics
    assert diag["sector_dims"] == [len(ev.cells) for ev in ref]
    return ((diag["reduced_dims"], diag["partition_rounds"]),
            ([ev.dim for ev in ref], [ev.rounds for ev in ref]))


@pytest.mark.parametrize("kind, n_sites", [
    ("chain", 2), ("chain", 3), ("chain", 12), ("chain", 25), ("chain", 36), ("chain", 64), ("chain", 81),
    ("square", 4), ("square", 9), ("square", 16), ("square", 49), ("square", 64), ("square", 81),
    ("triangular", 4), ("triangular", 9), ("triangular", 16), ("triangular", 49), ("triangular", 64),
    ("triangular", 81),
])
@pytest.mark.parametrize("xi", [0.05, -0.4])
def test_orbits_match_assembled_refinement(kind, n_sites, xi):
    # odd and even sides; on 2D tori the evolver's refinement of the orbit
    # block recovers the point-group cells of the assembled path
    orbit, assembled = orbits_against_assembly(kind, n_sites, xi)
    assert orbit == assembled


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
    # the assembled refinement ends on the point-group pair orbits, which the
    # open path starts from
    orbit, assembled = orbits_against_assembly(kind, n_sites, xi, "open")
    assert orbit == assembled


@settings(max_examples=25, deadline=None)
@given(
    lattice=st.one_of(
        st.tuples(st.just("chain"), st.integers(min_value=2, max_value=40)),
        st.tuples(st.sampled_from(["square", "triangular"]), st.sampled_from([4, 9, 16, 25, 36, 49])),
    ),
    xi=st.floats(min_value=-1.0, max_value=1.0),
)
def test_orbits_match_assembled_refinement_drawn(lattice, xi):
    # xi = 0 and xi = kappa seed the two paths differently; see the next test
    assume(abs(xi) > 1e-6 and abs(1.0 - xi) > 1e-6)
    orbit, assembled = orbits_against_assembly(*lattice, xi)
    assert orbit == assembled


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
    # the projections agree at every xi; the quotients too away from xi = 0,
    # where the orbit quotient can be coarser (see the next test), while
    # the split rounds differ with the seeds
    orbit, assembled = orbits_against_assembly(*lattice, xi, "open")
    if abs(xi) > 1e-6:
        assert orbit[0] == assembled[0]


@pytest.mark.parametrize("kind, n_sites, xi, orbit, assembled", [
    # bare exchange: the assembled seed is one cell, while the orbit block's
    # diagonal holds each orbit's hops into itself, 4 kappa d(2 delta), which
    # on odd sides already tells every orbit apart
    ("chain", 81, 1.0, ([1, 1, 40], [0, 0, 0]), ([1, 1, 40], [0, 0, 1])),
    ("square", 49, 1.0, ([1, 1, 9], [0, 0, 0]), ([1, 1, 9], [0, 0, 1])),
    ("triangular", 81, 1.0, ([1, 1, 11], [0, 0, 0]), ([1, 1, 11], [0, 0, 1])),
    # xi = 0: the orbit diagonals 4 kappa (d(delta) + d(2 delta)) coincide for
    # delta = N/5 and 2N/5 and need a split; at N = 5 the one orbit cell is
    # itself equitable, so the orbit quotient is coarser
    ("chain", 5, 0.0, ([1, 1, 1], [0, 0, 0]), ([1, 1, 2], [0, 0, 0])),
    ("chain", 20, 0.0, ([1, 1, 10], [0, 0, 1]), ([1, 1, 10], [0, 0, 0])),
    ("square", 25, 0.0, ([1, 1, 5], [0, 0, 1]), ([1, 1, 5], [0, 0, 0])),
    # half-size orbits: on the 10 x 10 torus delta = (5, 0) and (3, 4) lie at
    # one distance, so the assembled seed joins them and a split parts them
    ("square", 100, 0.05, ([1, 1, 20], [0, 0, 0]), ([1, 1, 20], [0, 0, 1])),
])
def test_orbit_partition_differences(kind, n_sites, xi, orbit, assembled):
    # the seeds differ, never the projections
    assert orbits_against_assembly(kind, n_sites, xi) == (orbit, assembled)


@pytest.mark.parametrize("kind, n_sites, xi, orbit, assembled", [
    # bare exchange: the assembled seed is one cell in sectors 1 and 2, while
    # the orbit blocks' diagonals hold each orbit's hops into itself, which
    # tell the site orbits apart at once and the pair orbits after one split
    ("chain", 12, 1.0, ([1, 6, 36], [0, 0, 1]), ([1, 6, 36], [0, 1, 1])),
    ("square", 49, 1.0, ([1, 10, 171], [0, 0, 1]), ([1, 10, 171], [0, 1, 2])),
    ("triangular", 61, 1.0, ([1, 9, 180], [0, 0, 1]), ([1, 9, 180], [0, 1, 1])),
    # xi = 0: every row of the one-excitation block sums to kappa D, so the
    # Dicke state is one of its eigenvectors.  The assembled seed parts the
    # sites by their diagonal kappa (D - 2 sum_j d_ij); the orbit seed, whose
    # diagonal adds the hops within each orbit, can merge them, and the orbit
    # quotient is then coarser (chain 4; sectors 1 and 2 of triangular 5),
    # or split them in another order (triangular 8)
    ("chain", 4, 0.0, ([1, 1, 3], [0, 0, 0]), ([1, 2, 3], [0, 0, 0])),
    ("triangular", 5, 0.0, ([1, 2, 4], [0, 0, 0]), ([1, 3, 6], [0, 0, 1])),
    ("triangular", 8, 0.0, ([1, 5, 16], [0, 1, 1]), ([1, 5, 16], [0, 0, 1])),
    # triangular patches with one reflection: pairs of different orbits share
    # a diagonal, so the assembled seed joins them and a split parts them;
    # the orbit seed tells them apart by orbit size or by the hops within
    ("triangular", 14, 0.05, ([1, 9, 51], [0, 0, 0]), ([1, 9, 51], [0, 0, 1])),
    ("triangular", 36, -0.4, ([1, 21, 330], [0, 0, 0]), ([1, 21, 330], [0, 0, 1])),
])
def test_patch_orbit_partition_differences(kind, n_sites, xi, orbit, assembled):
    # the seeds differ, never the projections
    assert orbits_against_assembly(kind, n_sites, xi, "open") == (orbit, assembled)


def test_periodic_trajectory_reads_no_block(monkeypatch):
    # no lattice of either boundary assembles a sector block for its dynamics
    def refuse(*args):
        raise AssertionError("sector blocks assembled")

    monkeypatch.setattr(hamiltonian_mod, "_build", refuse)
    for boundary in ("periodic", "open"):
        for kind, n_sites in (("chain", 64), ("square", 49), ("triangular", 36)):
            ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, 0.05)
            traj = compute_trajectory(ham, np.linspace(0.0, 5.0, 20))
            assert traj.diagnostics["sector_dims"] == [1, n_sites, n_sites * (n_sites - 1) // 2]
            assert ham.vacuum_energy > 0.0
    with pytest.raises(AssertionError, match="sector blocks assembled"):
        full_hamiltonian(build_lattice("chain", 8), 1.0, 0.05).blocks


def test_blocks_dropped_before_eigh():
    # open chain 81: the sector-2 quotient is its whole orbit block (k =
    # 1640); each block is refined and dropped before the quotient's eigh,
    # so the peak stays within the engine's 40 k^2 estimate
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


def test_refinement_within_quotient_estimate():
    # open triangular 64: the patch's point group is trivial, so sector 2's
    # orbit block is the whole pair block and refines to the discrete
    # partition (k = 2016); the block, Hr and each round's row sums stay
    # within the engine's 40 k^2 estimate while the evolvers are built
    ham = full_hamiltonian(build_lattice("triangular", 64), 1.0, 0.05)
    tracemalloc.start()
    try:
        evolvers = [dyn_mod._SectorEvolver(block, psi0) for block, psi0 in ham.dicke_sectors()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = evolvers[2].dim
    assert k == 2016
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


class TestBlockInput:
    def test_scipy_input_is_sorted_and_summed(self):
        # unsorted columns and duplicate entries, as a COO array may hold them:
        # evolve reads the dense copy, whose duplicates are summed
        rows = np.array([1, 0, 0, 1, 0, 2, 2])
        cols = np.array([0, 2, 1, 0, 0, 2, 0])
        vals = np.array([0.5, 2.0, 1.0, 0.5, 3.0, -1.0, 2.0])
        coo = sp.coo_array((vals, (rows, cols)), shape=(3, 3))
        h = np.array([[3.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, -1.0]])
        psi0 = np.array([0.6, 0.8j, 0.0])
        states = evolve(coo, psi0, [0.0, 0.7])
        assert np.array_equal(states, evolve(h, psi0, [0.0, 0.7]))
        lam, vec = np.linalg.eigh(h)
        ref = vec @ (np.exp(-0.7j * lam) * (vec.conj().T @ psi0))
        np.testing.assert_allclose(states[-1], ref, rtol=1e-12, atol=1e-14)

    def test_block_storage(self):
        rng = np.random.default_rng(3)
        a = np.where(rng.random((7, 7)) < 0.4, rng.standard_normal((7, 7)), 0.0)
        block = CSRBlock.from_dense(a)
        assert_csr_matches_scipy(block)
        assert np.array_equal(block.toarray(), a)
        assert np.array_equal(np.asarray(block), a)
        assert block.nnz == np.count_nonzero(a)

    def test_dense_copy_within_memory_budget(self, monkeypatch):
        # 16 bytes an entry: the dense copy and the Hermitian check's difference
        psi0 = np.full(50, 1.0 / np.sqrt(50.0))
        block = sp.csr_array(np.eye(50))
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 16 * 50**2)
        evolve(block, psi0, [0.0, 1.0])
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 16 * 50**2 - 1)
        with pytest.raises(ResourceLimitError, match=r"dense copy of the block needs .* for shape \(50, 50\)"):
            evolve(block, psi0, [0.0, 1.0])
        evolve(np.eye(50), psi0, [0.0, 1.0])  # a dense array is read in place

    def test_rejects_state_of_other_length(self):
        with pytest.raises(ValueError, match=r"psi0 has shape \(2,\), block has shape \(3, 3\)"):
            evolve(np.eye(3), np.array([1.0, 0.0]), [0.0, 1.0])

    def test_rejects_non_square_block(self):
        with pytest.raises(ValueError, match="square"):
            evolve(np.ones((2, 3)), np.array([1.0, 0.0]), [0.0, 1.0])

    @pytest.mark.parametrize("block", [
        np.array([[1.0, 2.0], [0.0, 1.0]]),  # upper triangle only
        np.array([[1.0, 2.0j], [2.0j, 1.0]]),  # symmetric, not Hermitian
        np.array([[1.0 + 1e-6j, 0.0], [0.0, 1.0]]),  # complex diagonal
    ], ids=["triangular", "complex-symmetric", "complex-diagonal"])
    def test_rejects_non_hermitian_block(self, block):
        for form in (block, sp.csr_array(block)):
            with pytest.raises(ValueError, match="not Hermitian"):
                evolve(form, np.array([1.0, 0.0]), [0.0, 1.0])

    def test_accepts_hermitian_complex_block(self):
        h = np.array([[1.0, 2.0j], [-2.0j, -0.5]])
        lam, vec = np.linalg.eigh(h)
        psi0 = np.array([1.0, 0.0])
        ref = vec @ (np.exp(-1j * 0.7 * lam) * (vec.conj().T @ psi0))
        np.testing.assert_allclose(evolve(h, psi0, [0.0, 0.7])[-1], ref, rtol=1e-12, atol=1e-14)


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
        traj = compute_trajectory(exchange_hamiltonian(lat, 1.0), np.linspace(0, 10, 50))
        assert traj.c0[0] == pytest.approx(1.0)
        assert traj.c1[0] == pytest.approx(1.0)
        assert traj.c2[0] == pytest.approx(1.0)
        assert traj.fidelity[0] == pytest.approx(1.0)
        assert traj.theta[0] == 0.0

    def test_protected_sectors_periodic(self):
        lat = periodic_chain(12)
        gp = gate_params(lat, 1.0, 0.0, use_tilde=False)
        t = np.linspace(0.0, 4.0 * gp.t_pi, 200)
        traj = compute_trajectory(exchange_hamiltonian(lat, 1.0), t)
        assert np.abs(np.abs(traj.c0) - 1.0).max() <= 1e-10
        assert np.abs(np.abs(traj.c1) - 1.0).max() <= 1e-10

    def test_sector_decoupling_direct_sum(self):
        # evolving the stacked three-sector superposition reproduces the
        # independently evolved projections
        lat = periodic_chain(8)
        h = full_hamiltonian(lat, 1.0, 0.2)
        blocks = [h.blocks[n].toarray() for n in (0, 1, 2)]
        dims = [b.shape[0] for b in blocks]
        big = block_diag(*blocks)
        parts = [dicke_state(h.sectors[n]) for n in (0, 1, 2)]
        psi0 = np.concatenate([p / np.sqrt(3.0) for p in parts])
        t = np.linspace(0.0, 30.0, 40)
        states = evolve(big, psi0, t)
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
        traj = compute_trajectory(exchange_hamiltonian(periodic_chain(8), 1.0),
                                  np.linspace(0.0, 5.0, 13), auto_refine=False)
        diag = traj.diagnostics
        assert (diag["grid_points"], diag["grid_refinements"]) == (13, 0)
        # bare exchange: each orbit's diagonal is its hops into itself,
        # 4 kappa d(2 delta), equal for delta = 1 and 3 on the 8-site ring,
        # so one split sorts the pairs by distance
        assert diag["partition_rounds"] == [0, 0, 1]

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
        traj = compute_trajectory(exchange_hamiltonian(lat, 1.0), np.linspace(0.0, 1.5 * t_pi, 60))
        coarse = gate_time(traj)
        monkeypatch.setattr(dyn_mod, "GATE_REL_TOL", 1e-300)
        assert gate_time(traj) == pytest.approx(coarse, rel=1e-4)
        assert traj.diagnostics["gate_time_method"] == "bisection"

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


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "traj.cfg"
        cfg.write_text("experiment = phase_gate\nkind = chain\nn_sites = 6\nboundary = periodic\n"
                       "t_max = 3.0\nn_samples = 20\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        path = tmp_path / "phase_gate" / "trajectory.csv"
        lat = periodic_chain(6)
        t_pi = gate_params(lat, 1.0, 0.0).t_pi
        traj = compute_trajectory(exchange_hamiltonian(lat, 1.0), np.linspace(0, 3.0 * t_pi, 20))
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
