import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import dipolarray.dynamics as dyn_mod
from dipolarray.basis import dicke_state, sector_basis
from dipolarray.cli import main
from dipolarray.dynamics import (
    RESIDUAL_TOL,
    DickeDynamics,
    GateNotReached,
    InvarianceError,
    Trajectory,
    compute_trajectory,
    evolve,
    gate_time,
    nonlinear_phase,
)
from dipolarray.hamiltonian import SpinHamiltonian, exchange_hamiltonian, full_hamiltonian, gate_params
from dipolarray.lattice import build_lattice


def periodic_chain(n):
    return build_lattice("chain", n, boundary="periodic")


def ideal_quadratic_hamiltonian(n_sites: int, chi: float) -> SpinHamiltonian:
    """Diagnostic double: per-sector constants chi*(N/2 - n)^2 (exact
    quadratic collective dephasing; Theta(t) = 2*chi*t)."""
    sectors = {n: sector_basis(n_sites, n) for n in (0, 1, 2)}
    blocks = {
        n: sp.csr_array(chi * (n_sites / 2.0 - n) ** 2 * np.eye(sectors[n].dim))
        for n in (0, 1, 2)
    }
    return SpinHamiltonian(kappa=1.0, xi=0.0, lattice=None, blocks=blocks, sectors=sectors)


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

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            evolve(np.eye(2), np.array([1.0, 0.0]), [0.0, 2.0, 1.0])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="start at 0"):
            evolve(np.eye(2), np.array([1.0, 0.0]), [1.0, 2.0])

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

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # a refinement tolerance far above every coupling merges cells that
        # are not equivalent; the residual check must refuse the quotient
        monkeypatch.setattr(dyn_mod, "REFINE_TOL", 10.0)
        ham = full_hamiltonian(build_lattice("chain", 8), 1.0, 0.3)
        with pytest.raises(InvarianceError, match="not invariant"):
            DickeDynamics(ham)


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
def test_quotient_matches_dense_sector(lattice, boundary, xi, seed):
    kind, n_sites = lattice
    ham = full_hamiltonian(build_lattice(kind, n_sites, boundary=boundary), 1.0, xi)
    t = np.linspace(0.0, 40.0, 25)
    dyn = DickeDynamics(ham)
    assert dyn.residual <= RESIDUAL_TOL
    for n, c in enumerate(dyn.projections(t)):
        psi0 = dicke_state(ham.sectors[n])
        ref = dense_spectral(ham.blocks[n], psi0, t) @ psi0.conj()
        np.testing.assert_allclose(c, ref, rtol=1e-10, atol=1e-12)
    if kind == "chain" and boundary == "periodic":
        # one cell per pair distance 1 .. N/2, e.g. 6 of 66 states at N = 12
        assert dyn.reduced_dims[2] == n_sites // 2 < ham.dim(2)
    # a state without symmetry takes the discrete partition, i.e. the full block
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(ham.dim(2)) + 1j * rng.standard_normal(ham.dim(2))
    psi /= np.linalg.norm(psi)
    ref = dense_spectral(ham.blocks[2], psi, t)
    np.testing.assert_allclose(evolve(ham.blocks[2], psi, t), ref, rtol=1e-10, atol=1e-12)


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

    def test_nonlinear_phase_recompute(self):
        lat = periodic_chain(8)
        traj = compute_trajectory(exchange_hamiltonian(lat, 1.0), np.linspace(0, 20, 200))
        assert np.allclose(nonlinear_phase(traj), traj.theta)

    def test_clip_warning_on_superunitary_input(self):
        ones = np.ones(5, dtype=complex)
        fake = Trajectory(
            times=np.linspace(0, 1, 5),
            c0=ones,
            c1=ones * (1.0 + 2e-6),
            c2=ones,
            fidelity=np.ones(5),
            theta=np.zeros(5),
            cos_half=np.ones(5),
        )
        with pytest.warns(RuntimeWarning, match="exceeds 1"):
            nonlinear_phase(fake)


class TestGateTime:
    def test_ideal_gate_time(self):
        n, chi = 10, 0.25
        h = ideal_quadratic_hamiltonian(n, chi)
        expected = np.pi / (2.0 * chi)
        t = np.linspace(0.0, 2.0 * expected, 300)
        traj = compute_trajectory(h, t)
        assert gate_time(traj) == pytest.approx(expected, rel=1e-4)

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
