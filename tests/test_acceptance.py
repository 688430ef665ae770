"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see every line.  Two checks
are known not to reach their stated targets and fail honestly (see
tests' messages): the N = 81 gate-time band in criterion 2 and the 2D
small-k slope target in criterion 6.
"""

import time

import numpy as np
import scipy.sparse as sp

from dipolarray.basis import dicke_state
from dipolarray.dynamics import (
    GateNotReached,
    compute_trajectory,
    evolve,
    gate_time,
)
from dipolarray.hamiltonian import (
    ZETA3,
    full_hamiltonian,
    gate_params,
)
from dipolarray.lattice import build_lattice
from dipolarray.phonon import build_phonon_model, gamma1_fgr, gamma1_time, gamma2
from dipolarray.spinwave import (
    dispersion_asymptote_check,
    dispersion_curve,
    fgr_scaling_diagnostic,
    perturbative_decay2,
)
from dipolarray.stark import SRO, dressed_pair, rotor_eigensystem

SPACING = 300e-9


def verdict(num: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


def periodic_chain(n):
    return build_lattice("chain", n, boundary="periodic")


# ---------------------------------------------------------------------------

def test_criterion_1_phase_curve_reproduction():
    t0 = time.time()
    lat = periodic_chain(36)
    gp = gate_params(lat, 1.0, 0.0, use_tilde=False)
    ham = full_hamiltonian(lat, 1.0, 1.0)
    times = np.linspace(0.0, 4.5 * gp.t_pi, 500)
    traj = compute_trajectory(ham, times)
    ratio = gate_time(traj) / gp.t_pi
    elapsed36 = time.time() - t0
    ok_main = 3.0 <= ratio <= 4.0 and elapsed36 < 60.0

    # larger system: the phase stays distorted and the zero moves past t_pi
    lat81 = periodic_chain(81)
    gp81 = gate_params(lat81, 1.0, 0.0, use_tilde=False)
    ham81 = full_hamiltonian(lat81, 1.0, 1.0)
    t81 = np.linspace(0.0, 4.0 * gp81.t_pi, 280)
    traj81 = compute_trajectory(ham81, t81, auto_refine=False)
    try:
        tg81 = gate_time(traj81)
        beyond = tg81 > gp81.t_pi
    except GateNotReached:
        tg81 = None
        beyond = True
    distorted = traj81.fidelity.min() < 0.9
    ok = verdict(
        "1",
        ok_main and beyond and distorted,
        f"N=36 gate/t_pi = {ratio:.4f} (band 3.5+-0.5), runtime {elapsed36:.1f}s; "
        f"N=81 gate = {tg81 if tg81 is None else f'{tg81 / gp81.t_pi:.2f} t_pi'}, "
        f"min F = {traj81.fidelity.min():.3f}",
    )
    assert ok


def test_criterion_2_gate_times_with_protection():
    results = {}
    for n in (36, 81):
        lat = periodic_chain(n)
        gp = gate_params(lat, 1.0, 0.05, use_tilde=True)
        ham = full_hamiltonian(lat, 1.0, 0.05)
        times = np.linspace(0.0, 1.6 * gp.t_pi, 420)
        traj = compute_trajectory(ham, times, auto_refine=False)
        tg = gate_time(traj)
        f_at_tpi = float(traj.fidelity[np.searchsorted(traj.times, gp.t_pi)])
        results[n] = (tg / gp.t_pi, f_at_tpi)
    dev36 = abs(results[36][0] - 1.0)
    dev81 = abs(results[81][0] - 1.0)
    ordering = results[81][1] < results[36][1]
    ok = verdict(
        "2",
        dev36 <= 0.15 and dev81 <= 0.15 and ordering,
        f"gate/t_pi: N=36 {results[36][0]:.4f} ({dev36:.1%}), N=81 {results[81][0]:.4f} ({dev81:.1%}) "
        f"vs 15% band; F(t_pi): {results[36][1]:.5f} vs {results[81][1]:.5f} (N=81 lower: {ordering})",
    )
    assert dev36 <= 0.15 and ordering
    # known shortfall: the N = 81 zero sits ~23% above t_pi under exact
    # dynamics for every boundary condition and coupling sign tried; the
    # projected t_pi misses corrections that grow with N
    assert dev81 <= 0.15, (
        f"N=81 gate time {results[81][0]:.4f} t_pi exceeds the 15% band; "
        "measured consistently at ~1.23 t_pi for this model"
    )


def test_criterion_3_exact_eigenstate_protection():
    lat = periodic_chain(36)
    gp = gate_params(lat, 1.0, 0.0, use_tilde=False)
    ham = full_hamiltonian(lat, 1.0, 1.0)
    times = np.linspace(0.0, 4.0 * gp.t_pi, 300)
    traj = compute_trajectory(ham, times, auto_refine=False)
    dev0 = np.abs(np.abs(traj.c0) ** 2 - 1.0).max()
    dev1 = np.abs(np.abs(traj.c1) ** 2 - 1.0).max()
    ok = verdict("3", dev0 <= 1e-10 and dev1 <= 1e-10,
                 f"max |F_0 - 1| = {dev0:.2e}, max |F_1 - 1| = {dev1:.2e} (tol 1e-10)")
    assert ok


def test_criterion_4_decay_scaling_1d():
    t0 = time.time()
    ns = [16, 25, 36, 49, 64, 81]
    rep = fgr_scaling_diagnostic("chain", ns, 0.05, window_t_pi=2.0, include_exact=True)
    elapsed = time.time() - t0
    alpha = rep["alpha"]
    pref = rep["prefactor_over_xi_sq"]
    in_band = abs(alpha - 1.62) <= 0.35
    pref_ok = 0.01 / 3.0 <= pref <= 0.01 * 3.0
    ok = verdict(
        "4",
        in_band and pref_ok and elapsed < 600.0,
        f"perturbative fit: alpha = {alpha:.3f} (target 1.62+-0.35), prefactor = {pref:.4f} xi^2 "
        f"(target 0.01 xi^2 within x3); exact-dynamics fit alongside: alpha = {rep['alpha_exact']:.3f}, "
        f"prefactor = {rep['prefactor_over_xi_sq_exact']:.4f} xi^2; runtime {elapsed:.0f}s",
    )
    assert ok


def test_criterion_5_decay_scaling_2d_negative():
    ns = [16, 25, 36, 49, 64, 81]
    rep = fgr_scaling_diagnostic("square", ns, 1.0, window_t_pi=2.0, include_exact=True)
    a_exact = rep["alpha_exact"]
    a_pert = rep["alpha"]
    in_target = abs(a_exact - (-0.86)) <= 0.4
    ok = verdict(
        "5",
        a_exact < 0 and a_pert < 0,
        f"exact fit alpha = {a_exact:.3f}, perturbative alpha = {a_pert:.3f} (both negative required); "
        f"target band -0.86+-0.4 {'met' if in_target else 'NOT met'} by the exact fit",
    )
    assert ok


def test_criterion_6a_zone_edge_1d():
    om = dispersion_curve("chain", [np.pi], cutoff=100_000)[0]
    dev = abs(om - 7.0 * ZETA3) / (7.0 * ZETA3)
    ok = verdict("6a", dev <= 0.01, f"zone edge = {om:.6f} vs 7 zeta(3) = {7 * ZETA3:.6f} ({dev:.2e})")
    assert ok


def test_criterion_6b_small_k_1d():
    rep = dispersion_asymptote_check("chain")
    ok = verdict("6b", rep["max_rel_deviation"] <= 0.05,
                 f"1D quadratic-log law max deviation = {rep['max_rel_deviation']:.3%} (tol 5%) for ka <= 0.05")
    assert ok


def test_criterion_6c_small_k_slope_2d():
    rep = dispersion_asymptote_check("square", cutoff=10_000)
    slope = rep["slope"]
    dev = abs(slope - 3.27) / 3.27
    verdict("6c", dev <= 0.02,
            f"2D small-k slope = {slope:.3f} vs target 3.27 (dev {dev:.0%}); "
            f"the lattice sum tends to 4 pi = {4 * np.pi:.3f} analytically")
    # known shortfall: the 3.27 coefficient is not derivable from the
    # dispersion lattice sum, whose asymptotic slope is 4 pi
    assert dev <= 0.02, (
        f"2D slope {slope:.2f} vs stated target 3.27; the analytic asymptote "
        "of the lattice sum is 4 pi"
    )


def test_criterion_7_perturbative_tracks_exact():
    lat = periodic_chain(36)
    gp = gate_params(lat, 1.0, 0.05, use_tilde=True)
    ham = full_hamiltonian(lat, 1.0, 0.05)
    t = np.linspace(0.0, gp.t_pi, 500)
    traj = compute_trajectory(ham, t, auto_refine=False)
    exact = 1.0 - traj.fidelity
    pert = perturbative_decay2(lat, 0.05, t).decay
    run_e = np.maximum.accumulate(exact)[1:]
    run_p = np.maximum.accumulate(pert)[1:]
    sel = run_e > 1e-9
    ratio = run_p[sel] / run_e[sel]
    small = exact.max() <= 0.05 and pert.max() <= 0.05
    ok = verdict(
        "7",
        small and ratio.min() >= 0.5 and ratio.max() <= 2.0,
        f"running-max ratio in [{ratio.min():.3f}, {ratio.max():.3f}] (band [0.5, 2]); "
        f"max decay: exact {exact.max():.4f}, estimate {pert.max():.4f} (both <= 0.05: {small})",
    )
    assert ok


def test_criterion_8_stark_limits():
    devs = []
    for pair in [((0, 0), (1, 0)), ((1, 0), (2, 0))]:
        p = dressed_pair(SRO, 1e-3, pair[0], pair[1], SPACING)
        devs.append(abs(p.xi_over_kappa - 1.0))
    hf_dev = []
    for e in (1.0, 3.0):
        h = 1e-5
        _, em, _ = rotor_eigensystem(e - h, 0, 24)
        _, ep, _ = rotor_eigensystem(e + h, 0, 24)
        p = dressed_pair(SRO, e, (0, 0), (1, 0), SPACING, j_max=24)
        hf_dev.append(abs(p.mu_gg + (ep[0] - em[0]) / (2 * h)))
    p20 = dressed_pair(SRO, 5.0, (0, 0), (1, 0), SPACING, j_max=20)
    p24 = dressed_pair(SRO, 5.0, (0, 0), (1, 0), SPACING, j_max=24)
    conv = max(abs(p20.mu_gg - p24.mu_gg), abs(p20.mu_ee - p24.mu_ee), abs(p20.mu_eg - p24.mu_eg))
    ok = verdict(
        "8",
        max(devs) <= 1e-6 and max(hf_dev) <= 1e-6 and conv <= 1e-8,
        f"xi/kappa at E->0: dev {max(devs):.2e} (tol 1e-6); Hellmann-Feynman dev {max(hf_dev):.2e} "
        f"(tol 1e-6); j_max +4 dipole change {conv:.2e} (tol 1e-8)",
    )
    assert ok


def test_criterion_9_phonon_bands():
    from test_phonon import hessian_dynamical_1d_richardson

    gamma_dev = []
    for kind, n in (("chain", 64), ("triangular", 25)):
        model = build_phonon_model(build_lattice(kind, n, boundary="periodic"), 1e4, 3.0, 1.0)
        gamma_dev.append(np.abs(model.freqs[0]).max())
    lat = build_lattice("chain", 400, boundary="periodic")
    from dipolarray.phonon import dynamical_matrix
    qs = 2 * np.pi * np.arange(1, 14) / 400
    f = np.array([np.sqrt(dynamical_matrix(lat, np.array([q]))[0, 0]) for q in qs])
    ratio = f / qs
    spread = (ratio.max() - ratio.min()) / ratio.mean()
    n = 32
    f_edge = np.sqrt(dynamical_matrix(build_lattice("chain", n, boundary="periodic"), np.array([np.pi]))[0, 0])
    f_oracle = np.sqrt(hessian_dynamical_1d_richardson(n, np.pi, 2e-3))
    edge_dev = abs(f_edge - f_oracle) / f_oracle
    ok = verdict(
        "9",
        max(gamma_dev) <= 1e-10 and spread <= 0.03 and edge_dev <= 1e-6,
        f"f(0) = {max(gamma_dev):.1e} (tol 1e-10); small-q linearity spread {spread:.2%} (tol 3%); "
        f"zone edge vs Hessian oracle {edge_dev:.1e} (tol 1e-6)",
    )
    assert ok


def test_criterion_10_phonon_decay():
    model36 = build_phonon_model(periodic_chain(36), 1e4, 3.0, 1.0)
    t = np.linspace(0.0, 60.0, 40)
    one = gamma1_time(model36, 0.05, 0.1, 0.5, t)
    two = gamma2(model36, 0.05, 0.1, 0.5, t)
    twice_exact = np.allclose(two.decay_dominant, 2.0 * one.decay, rtol=1e-13, atol=0.0)

    d1 = gamma1_time(model36, 0.05, 0.1, 50.0, t).decay[20]
    d2 = gamma1_time(model36, 0.05, 0.1, 100.0, t).decay[20]
    lin_dev = abs(d2 / d1 - 2.0) / 2.0

    maxima = {}
    for n in (36, 81):
        model = build_phonon_model(periodic_chain(n), 1e4, 3.0, 1.0)
        gp = gate_params(periodic_chain(n), 1.0, 0.05, use_tilde=True)
        tt = np.linspace(0.0, gp.t_pi, 300)
        maxima[n] = gamma1_time(model, 0.05, 0.1, 0.5, tt).decay_normalized.max()
    ordering = maxima[81] > maxima[36]

    tri = build_phonon_model(build_lattice("triangular", 36, boundary="periodic"), 1e4, 3.0, 1.0)
    rep = gamma1_fgr(tri, 0.05, 0.1, 5.0, grid_factors=(1, 2, 4))
    rates = rep["rates"]
    toward_zero = all(b < a for a, b in zip(rates, rates[1:])) and rates[-1] < 0.75 * rates[0]

    ok = verdict(
        "10",
        twice_exact and lin_dev <= 0.05 and ordering and toward_zero,
        f"gamma2 dominant = 2 gamma1: {twice_exact}; high-T linearity dev {lin_dev:.2%} (tol 5%); "
        f"1D normalized max decay {maxima[36]:.2f} -> {maxima[81]:.2f} grows: {ordering}; "
        f"2D FGR refinement rates {['%.2e' % r for r in rates]} decreasing: {toward_zero}",
    )
    assert ok


def test_criterion_11_property_suite(tmp_path):
    from test_hamiltonian import brute_force, full_sectors, orbit_quotient

    # the whole sector-2 block of the periodic chain 16, evolved by the
    # library from the Dicke state, as a dense and as a scipy CSR input
    h2, basis2 = full_sectors(periodic_chain(16), 1.0, 0.1)[2]
    psi0 = dicke_state(basis2)
    times = np.linspace(0.0, 50.0, 60)
    states_dense = evolve(h2.toarray(), psi0, times)
    states_csr = evolve(sp.csr_matrix(h2), psi0, times)
    unit = max(
        np.abs(np.linalg.norm(states_dense, axis=1) - 1.0).max(),
        np.abs(np.linalg.norm(states_csr, axis=1) - 1.0).max(),
    )
    h2 = h2.toarray()
    energies = np.real(np.einsum("ti,ij,tj->t", states_dense.conj(), h2, states_dense))
    e_dev = np.abs(energies - energies[0]).max() / max(abs(energies[0]), 1.0)

    # the library's orbit blocks against the 2^N Hamiltonian on the orbits
    worst = 0.0
    for n in (3, 4):
        lat_n = build_lattice("chain", n)
        hb = brute_force(lat_n, 1.0, 0.3, exchange_only=False)
        for s, block in full_hamiltonian(lat_n, 1.0, 0.3).blocks.items():
            worst = max(worst, np.abs(block - orbit_quotient(hb, lat_n, s)).max())

    fwd = evolve(h2, psi0, [0.0, 33.0])[-1]
    back = evolve(-h2, fwd, [0.0, 33.0])[-1]
    t_rev = np.abs(back - psi0).max()

    from dipolarray.cli import main
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = phase_gate\nkind = chain\nn_sites = 10\nboundary = periodic\n"
                   "t_max = 3.0\nn_samples = 100\n")
    snaps = []
    for d in ("r1", "r2"):
        assert main(["run", str(cfg), "--out", str(tmp_path / d)]) == 0
        base = tmp_path / d / "phase_gate"
        snaps.append({f.name: f.read_bytes() for f in base.iterdir()})
    reproducible = snaps[0] == snaps[1]

    ok = verdict(
        "11",
        unit <= 1e-10 and e_dev <= 1e-9 and worst <= 1e-12 and t_rev <= 1e-8 and reproducible,
        f"unitarity {unit:.1e} (tol 1e-10); energy conservation {e_dev:.1e} (tol 1e-9 rel); "
        f"2^N oracle max diff {worst:.1e} (tol 1e-12); time reversal {t_rev:.1e} (tol 1e-8); "
        f"byte-identical reruns: {reproducible}",
    )
    assert ok
