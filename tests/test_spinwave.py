import numpy as np
import pytest

from dipolarray.hamiltonian import ZETA3, exchange_hamiltonian
from dipolarray.lattice import build_lattice, momentum_grid
from dipolarray.spinwave import (
    dispersion,
    dispersion_asymptote_check,
    dispersion_curve,
    fgr_scaling_diagnostic,
    fourier_kernel,
    perturbative_decay2,
    spin_wave_energies,
)


def periodic(kind, n):
    return build_lattice(kind, n, boundary="periodic")


class TestDispersion:
    def test_zero_at_k0(self):
        d = dispersion(periodic("chain", 16))
        assert d.omega[0] == 0.0

    def test_zone_edge_value(self):
        lat = periodic("chain", 500)
        om = spin_wave_energies(lat, np.array([[np.pi]]), 1.0)[0]
        assert om == pytest.approx(7.0 * ZETA3, rel=0.01)

    def test_even_in_k(self):
        for kind, n in [("chain", 12), ("square", 16), ("triangular", 16)]:
            lat = periodic(kind, n)
            g = momentum_grid(lat)
            om_pos = spin_wave_energies(lat, g.kvecs, 1.0)
            om_neg = spin_wave_energies(lat, -g.kvecs, 1.0)
            assert np.allclose(om_pos, om_neg, atol=1e-12)

    def test_nonnegative(self):
        for kind, n in [("chain", 20), ("square", 25)]:
            d = dispersion(periodic(kind, n))
            assert (d.omega >= -1e-12).all()

    def test_open_boundary_rejected(self):
        with pytest.raises(ValueError):
            dispersion(build_lattice("chain", 8))

    def test_matches_one_excitation_spectrum(self):
        # one-excitation block eigenvalues are 2 kappa F_k: the dispersion is
        # their distance below the uniform mode
        lat = periodic("chain", 14)
        h = exchange_hamiltonian(lat, 1.0)
        evals = np.sort(np.linalg.eigvalsh(h.blocks[1].toarray()))
        g = momentum_grid(lat)
        fk = fourier_kernel(lat, g.kvecs)
        assert np.allclose(np.sort(2.0 * fk), evals, atol=1e-10)
        om = spin_wave_energies(lat, g.kvecs, 1.0)
        assert np.allclose(om, 2.0 * (fk[0] - fk), atol=1e-10)


class TestDispersionAsymptotes:
    def test_1d_small_k_quadratic_log_law(self):
        rep = dispersion_asymptote_check("chain")
        assert rep["max_rel_deviation"] <= 0.05

    def test_2d_report_structure(self):
        rep = dispersion_asymptote_check("square", cutoff=10_000)
        assert rep["effective_sites"] >= 10_000
        assert rep["slope"] > 0
        assert rep["ratio_min"] <= rep["ratio_max"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dispersion_asymptote_check("triangular")

    def test_curve_matches_grid_at_commensurate_k(self):
        # the cutoff curve and the N-site grid value agree when N is large
        lat = periodic("chain", 400)
        k = 2.0 * np.pi * 50 / 400
        om_grid = spin_wave_energies(lat, np.array([[k]]), 1.0)[0]
        om_curve = dispersion_curve("chain", [k], cutoff=200)[0]
        assert om_grid == pytest.approx(om_curve, rel=1e-3)


class TestFourierKernel:
    def test_k0_row_sum(self):
        lat = periodic("chain", 300)
        assert fourier_kernel(lat, np.zeros((1, 1)))[0] == pytest.approx(2.0 * ZETA3, rel=0.01)

    def test_zone_edge_alternating_sum(self):
        lat = periodic("chain", 300)
        val = fourier_kernel(lat, np.array([[np.pi]]))[0]
        assert val == pytest.approx(-1.5 * ZETA3, rel=0.01)

    def test_even(self):
        lat = periodic("square", 25)
        g = momentum_grid(lat)
        assert np.allclose(fourier_kernel(lat, g.kvecs), fourier_kernel(lat, -g.kvecs), atol=1e-12)

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            fourier_kernel(build_lattice("chain", 8), np.zeros((1, 1)))


class TestPerturbativeDecay:
    def test_zero_coupling(self):
        lat = periodic("chain", 12)
        d = perturbative_decay2(lat, 0.0, np.linspace(0, 50, 20))
        assert np.all(d.decay == 0.0)

    def test_short_time_quadratic(self):
        lat = periodic("chain", 16)
        t = np.array([0.002, 0.005, 0.01])
        d = perturbative_decay2(lat, 0.05, t)
        ratio = d.decay / t**2
        assert np.abs(ratio / ratio[0] - 1.0).max() < 0.01
        # coefficient: (16 xi^2/N^2) sum |F_k|^2
        g = momentum_grid(lat)
        reps, mult = g.pair_fold()
        fk = fourier_kernel(lat, g.kvecs[reps])
        coef = 16 * 0.05**2 / 16**2 * (mult * fk**2).sum()
        assert ratio[0] == pytest.approx(coef, rel=1e-3)

    def test_fold_consistency(self):
        # folded half-grid sum equals the full-grid sum without k = 0
        for kind, n in [("chain", 12), ("chain", 13), ("square", 16)]:
            lat = periodic(kind, n)
            g = momentum_grid(lat)
            om_all = spin_wave_energies(lat, g.kvecs, 1.0)
            fk_all = fourier_kernel(lat, g.kvecs)
            t = 3.7
            full = (fk_all[1:] ** 2 * np.sin(om_all[1:] * t) ** 2 / om_all[1:] ** 2).sum()
            d = perturbative_decay2(lat, 1.0, np.array([0.0, t]))
            half = d.decay[1] / (16.0 / n**2)
            assert abs(full - half) <= 1e-12 * max(full, 1.0)

    def test_decay_zero_at_t0(self):
        lat = periodic("chain", 10)
        d = perturbative_decay2(lat, 0.1, np.array([0.0, 1.0]))
        assert d.decay[0] == 0.0

    def test_beyond_perturbative_flag(self):
        lat = periodic("chain", 10)
        d = perturbative_decay2(lat, 5.0, np.linspace(0, 100, 300))
        assert d.beyond_perturbative

    def test_xi_squared_scaling(self):
        lat = periodic("chain", 12)
        t = np.linspace(0, 30, 40)
        d1 = perturbative_decay2(lat, 0.02, t).decay[1:]
        d2 = perturbative_decay2(lat, 0.04, t).decay[1:]
        exponent = np.log(d2 / d1) / np.log(2.0)
        assert np.abs(exponent - 2.0).max() < 1e-10

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            perturbative_decay2(build_lattice("chain", 8), 0.1, [0.0, 1.0])


class TestScalingDiagnostic:
    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            fgr_scaling_diagnostic("chain", [16, 25], 0.05)

    def test_1d_regression_values(self):
        rep = fgr_scaling_diagnostic("chain", [16, 25, 36, 49, 64, 81], 0.05)
        assert rep["alpha"] == pytest.approx(1.5598, abs=0.01)
        assert rep["prefactor_over_xi_sq"] == pytest.approx(0.01467, rel=0.05)

    def test_2d_exponent_negative(self):
        rep = fgr_scaling_diagnostic("square", [16, 25, 36, 49], 1.0)
        assert rep["alpha"] < 0

    def test_exact_route_small(self):
        rep = fgr_scaling_diagnostic("chain", [8, 10, 12, 14], 0.05, include_exact=True)
        assert "alpha_exact" in rep
        assert len(rep["decay_max_exact"]) == 4
        assert all(d > 0 for d in rep["decay_max_exact"])

    def test_perturbative_tracks_exact_small_system(self):
        # running maxima within a factor 2 while both are small
        from dipolarray.dynamics import compute_trajectory
        from dipolarray.hamiltonian import full_hamiltonian, gate_params

        lat = periodic("chain", 16)
        xok = 0.05
        gp = gate_params(lat, 1.0, xok, use_tilde=True)
        t = np.linspace(0.0, gp.t_pi, 400)
        traj = compute_trajectory(full_hamiltonian(lat, 1.0, xok), t, auto_refine=False)
        exact = 1.0 - traj.fidelity
        pert = perturbative_decay2(lat, xok, t).decay
        run_e = np.maximum.accumulate(exact)[1:]
        run_p = np.maximum.accumulate(pert)[1:]
        sel = run_e > 1e-9
        ratio = run_p[sel] / run_e[sel]
        assert exact.max() <= 0.05 and pert.max() <= 0.05
        assert ratio.min() > 0.5 and ratio.max() < 2.0
