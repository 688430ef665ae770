import threading
import tracemalloc

import numpy as np
import pytest

import dipolarray.sin2 as sin2_mod
import dipolarray.spinwave as spinwave_mod
from dipolarray.basis import ResourceLimitError
from dipolarray.hamiltonian import ZETA3
from dipolarray.phonon import build_phonon_model, gamma2
from dipolarray.lattice import build_lattice, momentum_grid, relative_sites
from dipolarray.spinwave import (
    dispersion,
    dispersion_asymptote_check,
    dispersion_curve,
    fgr_scaling_diagnostic,
    perturbative_decay2,
)
from test_hamiltonian import full_sectors
from test_kernel import split_slice_bytes


def periodic(kind, n):
    return build_lattice(kind, n, boundary="periodic")


class TestDispersion:
    def test_zero_at_k0(self):
        d = dispersion(periodic("chain", 16))
        assert d.omega[0] == 0.0

    def test_zone_edge_value(self):
        # k = pi is grid row N / 2 of an even chain
        om = dispersion(periodic("chain", 500)).omega[250]
        assert om == pytest.approx(7.0 * ZETA3, rel=0.01)

    def test_even_in_k(self):
        for kind, n in [("chain", 12), ("square", 16), ("triangular", 16)]:
            d = dispersion(periodic(kind, n))
            om_neg = d.omega[d.grid.index(-d.grid.coords)]
            assert np.allclose(d.omega, om_neg, atol=1e-12)

    def test_nonnegative(self):
        for kind, n in [("chain", 20), ("square", 25)]:
            d = dispersion(periodic(kind, n))
            assert (d.omega >= -1e-12).all()

    def test_open_boundary_rejected(self):
        open_chain = build_lattice("chain", 8)
        with pytest.raises(ValueError, match="periodic lattice"):
            dispersion(open_chain)

    @pytest.mark.parametrize("kappa", [3, None])
    @pytest.mark.parametrize("kind, n", [("chain", 40), ("square", 36), ("triangular", 49)])
    def test_matches_dense_oracle(self, kind, n, kappa):
        # None: the default kappa = 1
        lat = periodic(kind, n)
        kv = momentum_grid(lat).kvecs
        rel = relative_sites(lat)
        dense = (4.0 * np.sin(kv @ rel.T / 2.0) ** 2 / np.linalg.norm(rel, axis=1) ** 3).sum(axis=1)
        omega = dispersion(lat).omega if kappa is None else dispersion(lat, kappa).omega
        assert np.allclose(omega, (kappa or 1.0) * dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind, n", [("chain", 16), ("triangular", 16)])
    def test_one_band_gives_omega_and_kernel(self, monkeypatch, kind, n):
        # one torus sum serves both: omega = kappa band, F_k = F_0 - band / 2
        lat = periodic(kind, n)
        calls, torus_sums = [], spinwave_mod._torus_sums
        monkeypatch.setattr(spinwave_mod, "_torus_sums", lambda *a: calls.append(1) or torus_sums(*a))
        d = dispersion(lat, 1.7)
        assert len(calls) == 1
        band, f0 = spinwave_mod._unit_band(lat)
        assert np.array_equal(d.omega, 1.7 * band)
        assert np.array_equal(d.fourier_kernel, f0 - band / 2.0)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
    def test_non_positive_kappa_rejected(self, kappa):
        lat = periodic("chain", 8)
        with pytest.raises(ValueError, match="kappa must be positive"):
            dispersion(lat, kappa)
        for kind in ("chain", "square"):
            with pytest.raises(ValueError, match="kappa must be positive"):
                dispersion_curve(kind, [0.1], kappa, cutoff=100)

    def test_infinite_kappa_rejected(self):
        # inf passes "kappa > 0": the band would read [nan, inf, ...]
        lat = periodic("chain", 8)
        with pytest.raises(ValueError, match="kappa must be finite"):
            dispersion(lat, np.inf)
        for kind in ("chain", "square"):
            with pytest.raises(ValueError, match="kappa must be finite"):
                dispersion_curve(kind, [0.1], np.inf, cutoff=100)

    @pytest.mark.parametrize("xi, kappa, message", [
        (np.nan, 1.0, "xi must be finite"), (np.inf, 1.0, "xi must be finite"),
        (0.05, np.inf, "kappa must be finite"), (0.05, np.nan, "kappa must be positive"),
    ])
    def test_decay2_rejects_non_finite_couplings(self, xi, kappa, message):
        # before, these returned an all-NaN decay with only RuntimeWarnings
        with pytest.raises(ValueError, match=message):
            perturbative_decay2(periodic("chain", 8), xi, np.linspace(0.0, 1.0, 5), kappa)

    def test_matches_one_excitation_spectrum(self):
        # one-excitation block eigenvalues are 2 kappa F_k: the dispersion is
        # their distance below the uniform mode
        lat = periodic("chain", 14)
        h1, _ = full_sectors(lat, 1.0, 1.0)[1]
        evals = np.sort(np.linalg.eigvalsh(h1))
        d = dispersion(lat)
        fk = d.fourier_kernel
        assert np.allclose(np.sort(2.0 * fk), evals, atol=1e-10)
        assert np.allclose(d.omega, 2.0 * (fk[0] - fk), atol=1e-10)


class TestDispersionAsymptotes:
    def test_1d_small_k_quadratic_log_law(self):
        rep = dispersion_asymptote_check("chain")
        assert rep["max_rel_deviation"] <= 0.05

    def test_2d_report_structure(self):
        rep = dispersion_asymptote_check("square", cutoff=10_000)
        assert rep["effective_sites"] >= 10_000
        assert rep["slope"] > 0
        assert rep["ratio_min"] <= rep["ratio_max"]

    @pytest.mark.parametrize("cutoff", [2000, 9999, 10_000, 100_000])
    def test_2d_report_describes_summed_patch(self, cutoff):
        rep = dispersion_asymptote_check("square", cutoff=cutoff)
        side = int(round(np.sqrt(rep["effective_sites"])))
        assert side**2 == rep["effective_sites"] and side % 2 == 1
        ka = np.array(rep["ka"])
        assert ka[0] == 2.0 * np.pi / side
        x, y = np.meshgrid(np.arange(side) - side // 2, np.arange(side) - side // 2)
        x, y = x[(x != 0) | (y != 0)], y[(x != 0) | (y != 0)]
        r3 = np.hypot(x, y) ** 3
        patch = [(4.0 * np.sin(k * x / 2.0) ** 2 / r3).sum() for k in ka]
        assert np.allclose(rep["omega"], patch, rtol=1e-12, atol=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dispersion_asymptote_check("triangular")

    def test_1d_memory_bounded(self):
        # 3 float64 words per site (2.3 MiB at the default cutoff), plus one
        # sin^2 slice; the (momenta x sites) temporaries of a dense sum would
        # take 9.2 MiB each
        tracemalloc.start()
        try:
            dispersion_asymptote_check("chain")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20 + sin2_mod._SLICE_BYTES

    @pytest.mark.parametrize("kind", ["chain", "square"])
    def test_table_estimate_bounds_peak(self, kind):
        cutoff = 10**6
        m = spinwave_mod._square_half_width(cutoff)
        sites = cutoff if kind == "chain" else (2 * m + 1) ** 2
        tracemalloc.start()
        try:
            dispersion_curve(kind, np.geomspace(0.002, 0.05, 12), cutoff=cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sites * spinwave_mod._DISPERSION_SITE_BYTES[kind] + sin2_mod._SLICE_BYTES

    @pytest.mark.parametrize("kind", ["chain", "square"])
    def test_table_cap_raises(self, kind):
        # refused before any table is built
        with pytest.raises(ResourceLimitError, match="sum_cutoff = 10000000000"):
            dispersion_curve(kind, [0.1], cutoff=10**10)
        with pytest.raises(ResourceLimitError, match="dispersion tables"):
            dispersion_asymptote_check(kind, cutoff=10**10)

    @pytest.mark.parametrize("kind", ["chain", "square"])
    @pytest.mark.parametrize("cutoff", [0, -1])
    def test_cutoff_below_one_rejected(self, kind, cutoff):
        with pytest.raises(ValueError, match="cutoff must be at least 1"):
            dispersion_curve(kind, [0.1], cutoff=cutoff)
        with pytest.raises(ValueError, match="cutoff must be at least 1"):
            dispersion_asymptote_check(kind, cutoff=cutoff)

    def test_curve_matches_grid_at_commensurate_k(self):
        # the cutoff curve and the N-site grid value agree when N is large
        lat = periodic("chain", 400)
        k = 2.0 * np.pi * 50 / 400
        om_grid = dispersion(lat).omega[50]
        om_curve = dispersion_curve("chain", [k], cutoff=200)[0]
        assert om_grid == pytest.approx(om_curve, rel=1e-3)


class TestFourierKernel:
    def test_k0_row_sum(self):
        fk = dispersion(periodic("chain", 300)).fourier_kernel
        assert fk[0] == pytest.approx(2.0 * ZETA3, rel=0.01)

    def test_zone_edge_alternating_sum(self):
        # k = pi is grid row N / 2 of an even chain
        val = dispersion(periodic("chain", 300)).fourier_kernel[150]
        assert val == pytest.approx(-1.5 * ZETA3, rel=0.01)

    def test_even(self):
        d = dispersion(periodic("square", 25))
        fk_neg = d.fourier_kernel[d.grid.index(-d.grid.coords)]
        assert np.allclose(d.fourier_kernel, fk_neg, atol=1e-12)

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            dispersion(build_lattice("chain", 8))

    @pytest.mark.parametrize("kind, n", [("chain", 40), ("square", 36), ("triangular", 49)])
    def test_matches_cos_oracle(self, kind, n):
        # F_k crosses zero, so the bound is absolute, in units of F_0
        lat = periodic(kind, n)
        kv = momentum_grid(lat).kvecs
        rel = relative_sites(lat)
        dense = (np.cos(kv @ rel.T) / np.linalg.norm(rel, axis=1) ** 3).sum(axis=1)
        assert np.abs(dispersion(lat).fourier_kernel - dense).max() <= 1e-13 * dense[0]


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
        reps, mult = momentum_grid(lat).pair_fold()
        fk = dispersion(lat).fourier_kernel[reps]
        coef = 16 * 0.05**2 / 16**2 * (mult * fk**2).sum()
        assert ratio[0] == pytest.approx(coef, rel=1e-3)

    def test_fold_consistency(self):
        # folded half-grid sum equals the full-grid sum without k = 0
        for kind, n in [("chain", 12), ("chain", 13), ("square", 16)]:
            d = dispersion(periodic(kind, n))
            om_all, fk_all = d.omega, d.fourier_kernel
            t = 3.7
            full = (fk_all[1:] ** 2 * np.sin(om_all[1:] * t) ** 2 / om_all[1:] ** 2).sum()
            d = perturbative_decay2(periodic(kind, n), 1.0, np.array([0.0, t]))
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

    @pytest.mark.parametrize("slice_modes", [1, 7, None])
    @pytest.mark.parametrize("kind, n", [("chain", 40), ("square", 36), ("chain", 3)])
    def test_matches_dense_oracle(self, monkeypatch, kind, n, slice_modes):
        lat = periodic(kind, n)
        t = np.linspace(0.0, 80.0, 41)
        if slice_modes is not None:
            monkeypatch.setattr(sin2_mod, "_SLICE_BYTES", split_slice_bytes(t, slice_modes))
        ref = perturbative_decay2_dense(lat, 0.05, t)
        assert np.allclose(perturbative_decay2(lat, 0.05, t).decay, ref, rtol=1e-12, atol=0)


def perturbative_decay2_dense(lattice, xi, times):
    """The perturbative sum with the whole (times x modes) sin array held, on
    the band of :func:`dispersion`."""
    n = lattice.n_sites
    d = dispersion(lattice)
    reps, mult = d.grid.pair_fold()
    fk, om = d.fourier_kernel[reps], d.omega[reps]
    s = np.sin(np.outer(times, om))
    return (16.0 * xi**2 / n**2) * ((mult * fk**2 / om**2) * s**2).sum(axis=1)


def test_kernel_starts_no_thread(monkeypatch):
    # 2000 time points give 65-mode slices: several for chain 40's ~800
    # gamma2 modes
    lat = periodic("chain", 40)
    t = np.linspace(0.0, 60.0, 2000)

    def run():
        model = build_phonon_model(lat, 1e4, 3.0, 1.0)
        decay = gamma2(model, 0.05, 0.1, 0.5, t).decay
        return [a.tobytes() for a in (model.freqs, model.pols, model.g, model.spin_energies, decay)]

    want = run()

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run() == want


class TestScalingDiagnostic:
    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            fgr_scaling_diagnostic("chain", [16, 25], 0.05)

    @pytest.mark.parametrize("window", [0.0, -1.0, np.nan])
    def test_non_positive_window_rejected(self, window):
        with pytest.raises(ValueError, match="window_t_pi must be positive"):
            fgr_scaling_diagnostic("chain", [8, 10, 12], 0.05, window_t_pi=window)

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
