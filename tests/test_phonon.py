import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dipolarray.basis as basis_mod
import dipolarray.phonon as phonon_mod
import dipolarray.sin2 as sin2_mod
from dipolarray.basis import ResourceLimitError
from dipolarray.hamiltonian import ZETA3
from dipolarray.lattice import build_lattice, momentum_grid, relative_sites
from dipolarray.phonon import (
    UnstableCrystalError,
    build_phonon_model,
    gamma1_fgr,
    gamma1_time,
    gamma2,
    sound_speeds,
)
from test_hamiltonian import traced_peak
from test_kernel import split_slice_bytes
from test_lattice import solved_labels

ZETA5 = 1.0369277551433699


def chain_model(n, beta=1e4, u_dd=3.0, kappa=1.0):
    return build_phonon_model(build_lattice("chain", n, boundary="periodic"), beta, u_dd, kappa)


def tri_model(n, beta=1e4, u_dd=3.0, kappa=1.0):
    return build_phonon_model(build_lattice("triangular", n, boundary="periodic"), beta, u_dd, kappa)


def pair_hessians(rel):
    """2 K(r_j) = (6 / |r_j|^5) (5 n n - 1) of every relative site, (N-1, D, D)."""
    rn = np.linalg.norm(rel, axis=1)
    nhat = rel / rn[:, None]
    return (6.0 / rn**5)[:, None, None] * (5.0 * nhat[:, :, None] * nhat[:, None, :] - np.eye(rel.shape[1]))


def dynamical_matrix(lattice, qvec):
    """D(q) = sum_j 2 K(r_j) sin^2(q.r_j / 2) at any quasi-momentum, summed
    term by term."""
    rel = relative_sites(lattice)
    return np.einsum("j,jab->ab", np.sin(rel @ qvec / 2.0) ** 2, pair_hessians(rel))


def with_matrices(monkeypatch, make):
    """Replace the dynamical matrices of the model's lattice sums by
    ``make(number of momenta)``, keeping the band and force of the real sums."""
    real = phonon_mod._lattice_sums
    monkeypatch.setattr(phonon_mod, "_lattice_sums", lambda lattice: (make(lattice.n_sites),) + real(lattice)[1:])


# ---------------------------------------------------------------------------
# independent oracle: finite-difference Hessian of the exact pair energy
# ---------------------------------------------------------------------------

def hessian_dynamical_1d(n, q, h):
    """Bloch-projected numerical Hessian of V = sum_{i<j} 1/|x_i - x_j|^3.

    The periodic image of each pair is frozen at its equilibrium choice
    (matching the kernel convention); displacing a site never switches the
    image, so the energy stays smooth.
    """
    base = np.arange(n, dtype=float)
    eq_diff = base[:, None] - base[None, :]
    offsets = -n * np.round(eq_diff / n)
    iu = np.triu_indices(n, 1)

    def energy(u):
        x = base + u
        diff = x[:, None] - x[None, :] + offsets
        return (1.0 / np.abs(diff[iu]) ** 3).sum()

    row = np.zeros(n)
    for j in range(n):
        for s0, sj, sgn in ((h, h, 1), (h, -h, -1), (-h, h, -1), (-h, -h, 1)):
            u = np.zeros(n)
            u[0] += s0
            u[j] += sj
            row[j] += sgn * energy(u)
        row[j] /= 4 * h * h
    rel = np.arange(n) - n * np.round(np.arange(n) / float(n))
    return (row * np.cos(q * rel)).sum()


def hessian_dynamical_1d_richardson(n, q, h=2e-3):
    d1 = hessian_dynamical_1d(n, q, h)
    d2 = hessian_dynamical_1d(n, q, h / 2)
    return (4 * d2 - d1) / 3.0


class TestDynamicalMatrix:
    def test_zero_at_q0(self):
        for lat in (build_lattice("chain", 12, boundary="periodic"),
                    build_lattice("triangular", 16, boundary="periodic")):
            assert not phonon_mod._lattice_sums(lat)[0][0].any()
            d = dynamical_matrix(lat, np.zeros(lat.dimension))
            assert np.abs(d).max() <= 1e-12

    def test_pair_coupling_pattern_1d(self):
        # longitudinal force constant between sites at distance d is the
        # second derivative of 1/r^3, i.e. 12/d^5 = 3*(5-1)/d^5
        def pair_energy(r):
            return 1.0 / np.abs(r) ** 3

        h = 1e-4
        for dist in (1.0, 2.0, 3.0):
            num = (pair_energy(dist + h) - 2 * pair_energy(dist) + pair_energy(dist - h)) / h**2
            assert num == pytest.approx(12.0 / dist**5, rel=1e-6)

    def test_zone_edge_matches_hessian_oracle(self):
        # q = pi is grid row n / 2
        n = 32
        f2 = phonon_mod._lattice_sums(build_lattice("chain", n, boundary="periodic"))[0][n // 2, 0, 0]
        oracle = hessian_dynamical_1d_richardson(n, np.pi)
        assert abs(f2 - oracle) / f2 <= 1e-6

    def test_generic_q_matches_hessian_oracle(self):
        n = 24
        q = 2 * np.pi * 5 / n
        f2 = phonon_mod._lattice_sums(build_lattice("chain", n, boundary="periodic"))[0][5, 0, 0]
        oracle = hessian_dynamical_1d_richardson(n, q)
        assert abs(f2 - oracle) / f2 <= 1e-6

    def test_hermitian_2d(self):
        dyn = phonon_mod._lattice_sums(build_lattice("triangular", 25, boundary="periodic"))[0]
        assert np.array_equal(dyn, dyn.transpose(0, 2, 1))

    @pytest.mark.parametrize("u_dd", [2, None])
    @pytest.mark.parametrize("kind, n", [("chain", 40), ("triangular", 49)])
    def test_matches_one_minus_cos_oracle(self, kind, n, u_dd):
        # None: the lattice sums' D(q); a number: the model's squared mode
        # energies at that u_dd, rebuilt from its branches and polarizations
        lat = build_lattice(kind, n, boundary="periodic")
        rel = relative_sites(lat)
        q = momentum_grid(lat).kvecs
        ref = np.einsum("qj,jab->qab", (1.0 - np.cos(q @ rel.T)) / 2.0, pair_hessians(rel))
        if u_dd is None:
            got = phonon_mod._lattice_sums(lat)[0]
        else:
            m = build_phonon_model(lat, 1e4, u_dd, 1.0)
            unit2 = m.phonon_energy_unit**2
            got = np.einsum("qla,ql,qlb->qab", m.pols, m.freqs**2 * unit2, m.pols) / unit2
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("kappa", [1, 7, None])
    @pytest.mark.parametrize("kind, n", [("chain", 40), ("triangular", 49)])
    def test_force_and_band_match_dense_formulas(self, kind, n, kappa):
        # the sine partner of the same transform: sum_j sin(q.r_j) r_j /
        # |r_j|^5, and the band sum_j (4 / |r_j|^3) sin^2(q.r_j / 2); None
        # reads the lattice sums' kappa = 1 band, a number the model's
        # spin energies at that kappa
        lat = build_lattice(kind, n, boundary="periodic")
        rel = relative_sites(lat)
        q = momentum_grid(lat).kvecs
        rn = np.linalg.norm(rel, axis=1)
        ref = (np.sin(q @ rel.T) / rn**5) @ rel
        band_ref = np.sin(q @ rel.T / 2.0) ** 2 @ (4.0 / rn**3)
        _, band, force = phonon_mod._lattice_sums(lat)
        if kappa is not None:
            band, band_ref = build_phonon_model(lat, 1e4, 3.0, kappa).spin_energies, kappa * band_ref
        assert np.abs(force - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(band - band_ref).max() <= 1e-13 * np.abs(band_ref).max()

    def test_rejects_square_and_open(self):
        with pytest.raises(ValueError, match="unsupported"):
            build_phonon_model(build_lattice("square", 16, boundary="periodic"), 1e4, 3.0, 1.0)
        with pytest.raises(ValueError, match="periodic"):
            build_phonon_model(build_lattice("chain", 8), 1e4, 3.0, 1.0)


class TestSpectrum:
    def test_acoustic_at_gamma(self):
        m = chain_model(24)
        assert np.abs(m.freqs[0]).max() <= 1e-10
        m2 = tri_model(25)
        assert np.abs(m2.freqs[0]).max() <= 1e-10

    def test_branch_counts(self):
        assert chain_model(16).n_branches == 1
        assert tri_model(16).n_branches == 2

    def test_even_spectrum(self):
        m = tri_model(25)
        g = m.grid
        fr_int = solved_labels(g)
        index_of = {tuple(r): i for i, r in enumerate(fr_int)}
        # compare f(q) against f(-q) via the grid's pair fold
        reps, mult = g.pair_fold()
        for i, mu in zip(reps, mult):
            if mu == 1:
                continue
            # locate -q modulo reciprocal vectors
            j = index_of[tuple(-fr_int[i] % g.n_points)]
            assert np.allclose(m.freqs[i], m.freqs[j], atol=1e-10)

    def test_1d_zone_edge_value(self):
        m = chain_model(64)
        edge = m.freqs.max()
        assert edge == pytest.approx(np.sqrt(46.5 * ZETA5), rel=1e-3)

    def test_1d_linear_small_q(self):
        # grid rows 1 to 13 of the chain 400
        qs = 2 * np.pi * np.arange(1, 14) / 400
        f = chain_model(400).freqs[1:14, 0]
        ratio = f / qs
        assert (ratio.max() - ratio.min()) / ratio.mean() < 0.03
        assert ratio[0] == pytest.approx(2.0 * np.sqrt(3.0 * ZETA3), rel=0.01)

    def test_sound_speeds_reported(self):
        speeds = sound_speeds(chain_model(64))
        assert len(speeds) == 1
        assert speeds[0] == pytest.approx(2.0 * np.sqrt(3.0 * ZETA3), rel=0.02)

    @pytest.mark.parametrize("kind, sizes", [("chain", range(2, 130)),
                                             ("triangular", [s * s for s in range(2, 30)])])
    def test_sound_speed_momenta_match_quantile(self, kind, sizes):
        # the sort-based cut selects the momenta of the np.quantile cut
        for n in sizes:
            model = build_phonon_model(build_lattice(kind, n, boundary="periodic"), 1e4, 3.0, 1.0)
            qn = np.linalg.norm(model.grid.kvecs, axis=1)
            sel = (qn > 0) & (qn <= np.quantile(qn[qn > 0], 0.1) + 1e-12)
            ref = [float(np.mean(model.freqs[sel, lam] / qn[sel])) for lam in range(model.n_branches)]
            assert sound_speeds(model) == ref, n

    @pytest.mark.parametrize("beta, u_dd, kappa", [
        (0.0, 3.0, 1.0), (1e4, -3.0, 1.0), (1e4, 3.0, 0.0),
        (np.nan, 3.0, 1.0), (1e4, np.nan, 1.0), (1e4, 3.0, np.nan),
    ])
    def test_rejects_non_positive_parameters(self, beta, u_dd, kappa):
        with pytest.raises(ValueError, match="must be positive"):
            chain_model(8, beta, u_dd, kappa)

    def test_instability_reported_with_q(self, monkeypatch):
        lat = build_lattice("chain", 8, boundary="periodic")
        with_matrices(monkeypatch, lambda m: -np.ones((m, 1, 1)))
        with pytest.raises(UnstableCrystalError, match="unstable crystal mode at q"):
            build_phonon_model(lat, 1e4, 3.0, 1.0)

    def test_coupling_table_budget(self, monkeypatch):
        # 512 bytes per site and dimension, checked before any table is built
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 512 * 8)
        chain_model(8)
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 512 * 8 - 1)
        with pytest.raises(ResourceLimitError, match="^phonon tables need about 0 MiB for 8 sites;"):
            chain_model(8)

    @pytest.mark.parametrize("kind,n", [("chain", 30), ("triangular", 25)])
    def test_batched_frequencies_match_per_q(self, kind, n):
        lat = build_lattice(kind, n, boundary="periodic")
        model = build_phonon_model(lat, 1e4, 3.0, 1.0)
        per_q = np.array([np.linalg.eigvalsh(dynamical_matrix(lat, q)) for q in model.grid.kvecs])
        assert np.allclose(model.freqs**2, np.clip(per_q, 0.0, None), rtol=1e-12, atol=0)


class TestCouplingWeight:
    @pytest.mark.parametrize("model", [chain_model, tri_model], ids=["chain", "triangular"])
    def test_table_zero_at_q0(self, model):
        m = model(16)
        assert m.g.shape == m.freqs.shape
        assert (m.g[0] == 0.0).all()
        assert (m.g[1:] >= 0.0).all() and m.g[1:].max() > 0.0

    def test_built_once_per_model(self, monkeypatch):
        calls = []
        weights = phonon_mod._coupling_weights
        monkeypatch.setattr(phonon_mod, "_coupling_weights", lambda *a: calls.append(1) or weights(*a))
        m = chain_model(12)
        assert calls == [1]
        t = np.linspace(0, 40, 5)
        gamma1_time(m, 0.05, 0.1, 0.5, t)
        gamma2(m, 0.05, 0.1, 0.5, t)
        assert calls == [1]
        # one more for the doubled grid's own model, none for m's
        gamma1_fgr(m, 0.05, 0.1, 0.5)
        assert calls == [1, 1]

    def test_vanishing_frequency_refused_by_model(self, monkeypatch):
        with_matrices(monkeypatch, lambda m: np.zeros((m, 1, 1)))
        with pytest.raises(UnstableCrystalError, match="vanishing branch frequency"):
            chain_model(8)

    def test_even_in_q(self):
        m = chain_model(16)
        g = m.grid
        for i in range(1, 8):
            j = (g.n_points - i) % g.n_points  # index of -q on the chain grid
            assert m.g[i] == pytest.approx(m.g[j], rel=1e-10)

    def test_small_q_linear_with_taylor_coefficient(self):
        # g ~ 9 (2 zeta3 q)^2 / (2 sqrt(3 zeta3) q) = 6 sqrt(3) zeta3^(3/2) q
        m = chain_model(512)
        expect = 6.0 * np.sqrt(3.0) * ZETA3**1.5
        for i in (1, 2, 3):
            q = m.grid.kvecs[i, 0]
            g = m.g[i, 0]
            assert g / q == pytest.approx(expect, rel=0.01)

    def test_transverse_suppressed_on_mirror_axis(self):
        m = tri_model(36)
        # q along the x axis: i varies, j = 0 (b2 has no x component)
        # find a grid point with q_y == 0 and q_x != 0
        idx = [i for i, q in enumerate(m.grid.kvecs)
               if abs(q[1]) < 1e-12 and abs(q[0]) > 1e-12][0]
        g = m.g[idx]
        pol_x = [abs(m.pols[idx, lam, 0]) for lam in range(2)]
        lam_l = int(np.argmax(pol_x))  # longitudinal branch: polarization along q
        lam_t = 1 - lam_l
        assert g[lam_t] < 1e-12
        assert g[lam_l] > 0


class TestGamma1:
    def test_zero_coupling_combination(self):
        # xi + 4 b0 = 0 kills the matrix element entirely
        m = chain_model(12)
        t = np.linspace(0, 50, 30)
        d = gamma1_time(m, -0.4, 0.1, 1.0, t)
        assert np.all(d.decay == 0.0)

    def test_zero_at_t0_and_positive(self):
        m = chain_model(12)
        d = gamma1_time(m, 0.05, 0.1, 0.5, np.linspace(0, 80, 60))
        assert d.decay[0] == 0.0
        assert d.decay[1:].max() > 0

    def test_t0_only_spontaneous(self):
        # at T = 0 the occupation factors vanish; doubling (n+1) -> (2n+1)
        # would change nothing only if n = 0
        m = chain_model(12)
        t = np.linspace(0, 60, 40)
        d0 = gamma1_time(m, 0.05, 0.1, 0.0, t)
        assert d0.decay.max() > 0
        d1 = gamma1_time(m, 0.05, 0.1, 1.0, t)
        assert d1.decay.max() > d0.decay.max()

    def test_high_temperature_linearity(self):
        m = chain_model(24)
        t = np.linspace(0, 40, 50)
        d1 = gamma1_time(m, 0.05, 0.1, 50.0, t).decay[25]
        d2 = gamma1_time(m, 0.05, 0.1, 100.0, t).decay[25]
        assert d2 / d1 == pytest.approx(2.0, rel=0.05)

    def test_normalization_invariance(self):
        # (xi, b0) -> 2(xi, b0): normalized curve unchanged
        m = chain_model(12)
        t = np.linspace(0, 50, 30)
        a = gamma1_time(m, 0.05, 0.1, 1.0, t)
        b = gamma1_time(m, 0.10, 0.2, 1.0, t)
        assert np.allclose(a.decay_normalized, b.decay_normalized, rtol=1e-12)

    def test_1d_maximum_grows_with_n(self):
        out = {}
        for n in (36, 81):
            m = chain_model(n)
            s = 2 * (1 / np.arange(1, n // 2 + 1) ** 3).sum()
            chi = 2 * s / (n - 1)
            tpi = np.pi / (2 * 0.05 * chi)
            t = np.linspace(0, tpi, 300)
            out[n] = gamma1_time(m, 0.05, 0.1, 0.5, t).decay_normalized.max()
        assert out[81] > out[36]

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            gamma1_time(chain_model(8), 0.05, 0.1, -1.0, np.linspace(0, 1, 5))

    def test_tiny_temperature_no_overflow_warning(self):
        # w / kbt overflows to inf; the occupation is 0, silently
        m = chain_model(8)
        t = np.linspace(0, 10, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = gamma1_time(m, 0.05, 0.1, 1e-308, t)
        assert np.array_equal(tiny.decay, gamma1_time(m, 0.05, 0.1, 0.0, t).decay)

    def test_triangular_2d_runs(self):
        m = tri_model(16)
        d = gamma1_time(m, 0.05, 0.1, 0.5, np.linspace(0, 20, 20))
        assert d.decay[0] == 0.0
        assert np.isfinite(d.decay).all()


def _osc_integral(omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(1 - cos(omega t)) / omega^2 as (T, modes); t^2/2 at omega -> 0."""
    om = np.atleast_1d(omega)
    t = times[:, None]
    small = np.abs(om)[None, :] * np.abs(t) < 1e-6
    x = om[None, :] * t / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2.0 * np.sin(x) ** 2 / om[None, :] ** 2
    return np.where(small, t**2 / 2.0, val)


def _osc_sensitivity(omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """2 (sin^2 x + |x| |sin 2x|) / omega^2, x = omega t / 2, as (T, modes):
    the size of a term of :func:`_osc_integral` plus its first-order change
    under a relative phase error of 1, the error model of the kernel's tests;
    3 t^2 / 2 at omega -> 0."""
    om = np.atleast_1d(omega)
    t = times[:, None]
    small = np.abs(om)[None, :] * np.abs(t) < 1e-6
    x = om[None, :] * t / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2.0 * (np.sin(x) ** 2 + np.abs(x * np.sin(2.0 * x))) / om[None, :] ** 2
    return np.where(small, 1.5 * t**2, val)


def _osc_floor(omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """2 min(1, x^2) / omega^2, x = omega t / 2, as (T, modes): the weight of
    a term of :func:`_osc_integral` in the sin^2 kernel's absolute floor on
    split grids (see sin2._sin2_sum); t^2 / 2 at omega -> 0."""
    om = np.atleast_1d(omega)
    t = times[:, None]
    x = om[None, :] * t / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2.0 * np.minimum(1.0, x**2) / om[None, :] ** 2
    return np.where(np.abs(x) < 1e-6, t**2 / 2.0, val)


@pytest.mark.filterwarnings("error")
def test_decay_sum_soft_and_resonant_modes():
    # emission and absorption frequencies w_ph +- w_sp at exactly 0, just
    # under and just over |omega| t_max = 1e-6, and generic; the prescaled
    # weights must match the (T x modes) oracle without a RuntimeWarning
    times = np.linspace(0.0, 50.0, 21)
    eps = 1e-6 / times[-1]
    w_sp = np.array([0.0, 0.3, 0.3, 0.3, 0.3])[:, None]
    w_ph = np.array([0.0, 0.3, 0.3 + 0.9 * eps, 0.3 + 1.1 * eps, 0.8])[:, None]
    weights = np.array([0.0, 1.5, 2.0, 0.5, 1.0])[:, None]
    kbt = 0.2
    got = phonon_mod._decay_sum([(weights, w_ph, w_sp)], kbt, times)
    nocc = phonon_mod._occupation(w_ph, kbt).ravel()
    w = weights.ravel()
    ref = 2.0 * (_osc_integral((w_ph + w_sp).ravel(), times) @ (w * (nocc + 1.0))
                 + _osc_integral((w_ph - w_sp).ravel(), times) @ (w * nocc))
    assert got[0] == 0.0
    assert np.allclose(got, ref, rtol=1e-12, atol=0)


class TestGamma2:
    def test_dominant_is_twice_gamma1(self):
        for model in (chain_model(16), tri_model(16)):
            t = np.linspace(0, 40, 30)
            one = gamma1_time(model, 0.05, 0.1, 0.5, t)
            two = gamma2(model, 0.05, 0.1, 0.5, t)
            assert np.allclose(two.decay_dominant, 2.0 * one.decay, rtol=1e-13, atol=0)

    def test_xi_zero_full_equals_dominant(self):
        m = chain_model(12)
        t = np.linspace(0, 40, 25)
        two = gamma2(m, 0.0, 0.1, 0.5, t)
        assert np.allclose(two.decay, two.decay_dominant, rtol=1e-12)

    def test_correction_bound(self):
        m = chain_model(36)
        t = np.linspace(0, 60, 25)
        two = gamma2(m, 0.05, 0.1, 0.5, t)
        xi, b0, n = 0.05, 0.1, 36
        bound = 2.0 * 8.0 * xi / (n * (xi + 4 * b0))
        assert two.correction_ratio <= bound

    def test_pair_table_cap_raises(self, monkeypatch):
        # 704 bytes per momentum and branch
        model = chain_model(12)
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 704 * 12)
        gamma2(model, 0.05, 0.1, 0.5, np.linspace(0, 40, 5))
        monkeypatch.setattr(basis_mod, "MEMORY_BYTES_MAX", 704 * 12 - 1)
        with pytest.raises(ResourceLimitError, match="^gamma2 tables need about 0 MiB for 12 momenta and 1 branches;"):
            gamma2(model, 0.05, 0.1, 0.5, np.linspace(0, 40, 5))

    @pytest.mark.parametrize("kind, n", [("chain", 1024), ("chain", 4096), ("triangular", 1024),
                                         ("triangular", 4096)])
    def test_estimates_bound_peaks(self, kind, n):
        # build_phonon_model: 512 bytes per site and dimension; gamma2: 704
        # per momentum and branch beyond the kernel's one slice and one pair
        # block
        lat = build_lattice(kind, n, boundary="periodic")
        model, peak = traced_peak(build_phonon_model, lat, 1e4, 3.0, 1.0)
        assert peak <= 512 * lat.dimension * n
        _, peak = traced_peak(gamma2, model, 0.05, 0.1, 0.5, np.linspace(0, 100, 3))
        assert peak <= 704 * model.n_branches * n + 2 * sin2_mod._SLICE_BYTES

    def test_phonon_layer_memory_linear(self):
        # chain 2048: the dense force and pair tables took 64 and 155 MiB
        lat = build_lattice("chain", 2048, boundary="periodic")
        model, peak = traced_peak(build_phonon_model, lat, 1e4, 3.0, 1.0)
        assert peak < 32 * 2**20
        _, peak = traced_peak(gamma2, model, 0.05, 0.1, 0.5, np.linspace(0, 100, 3))
        assert peak < 32 * 2**20

    def test_memory_bounded(self):
        # one (times x ordered-pair modes) float64 array would be 96 MB here
        model = chain_model(200)
        t = np.linspace(0, 100, 300)
        tracemalloc.start()
        try:
            gamma2(model, 0.05, 0.1, 0.5, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amp", [1e-160, 1e-170])
@pytest.mark.parametrize("fn", [gamma1_time, gamma2])
def test_normalized_exact_when_amplitude_square_underflows(fn, amp):
    # (xi + 4 b0)^2 is subnormal at 1e-160 and 0 at 1e-170; the normalized
    # curve is scale invariant in (xi, b0), so it must equal the one at
    # xi + 4 b0 = 1
    m = chain_model(12)
    t = np.linspace(0, 50, 30)
    for tiny, unit in (((amp, 0.0), (1.0, 0.0)), ((0.0, amp / 4), (0.0, 0.25))):
        small = fn(m, *tiny, 1.0, t)
        assert np.allclose(small.decay_normalized, fn(m, *unit, 1.0, t).decay_normalized,
                           rtol=1e-12, atol=0)
        assert small.decay_normalized[0] == 0.0
        assert np.isfinite(small.decay).all() and small.decay.min() >= 0.0


def gamma2_full_reference(model, xi, b0, temperature, times):
    """Ordered-pair double loop over (k, k') with dict lookups of q = -(k + k'):
    the decay, and the same sums over :func:`_osc_sensitivity` and
    :func:`_osc_floor`."""
    grid = model.grid
    n = model.lattice.n_sites
    nq = grid.n_points
    fr_int = solved_labels(grid)
    index_of = {tuple(r): i for i, r in enumerate(fr_int)}
    amp_dom = xi + 4.0 * b0
    base = 1.0 / (2.0 * n * np.sqrt(model.beta))
    w_ph = model.freqs * model.phonon_energy_unit
    w_sp = model.spin_energies
    weights, om_p, om_m, occs = [], [], [], []
    for ik in range(nq):
        for ikp in range(nq):
            if ik == 0 and ikp == 0:
                continue
            iq = index_of.get(tuple((-(fr_int[ik] + fr_int[ikp])) % nq))
            if iq is None or iq == 0:
                continue
            amp = -4.0 * xi / n
            if ikp == 0:
                amp += amp_dom
            if ik == 0:
                amp += amp_dom
            g = model.g[iq]
            for lam in range(model.n_branches):
                weights.append(base * amp**2 * g[lam])
                om_p.append(w_ph[iq, lam] + w_sp[ik] + w_sp[ikp])
                om_m.append(w_ph[iq, lam] - w_sp[ik] - w_sp[ikp])
                occs.append(w_ph[iq, lam])
    weights = np.array(weights)
    nocc = phonon_mod._occupation(np.array(occs), temperature * model.phonon_energy_unit)
    sums = []
    for term in (_osc_integral, _osc_sensitivity, _osc_floor):
        acc = (weights * (nocc + 1.0) * term(np.array(om_p), times)).sum(axis=1)
        acc += (weights * nocc * term(np.array(om_m), times)).sum(axis=1)
        sums.append(2.0 * acc)
    return tuple(sums)


@settings(max_examples=12, deadline=None)
@given(
    lattice=st.one_of(
        st.builds(lambda n: build_lattice("chain", n, boundary="periodic"),
                  st.integers(min_value=2, max_value=40)),
        st.builds(lambda n: build_lattice("triangular", n, boundary="periodic"),
                  st.sampled_from([9, 16, 25, 36])),
    ),
    xi=st.floats(min_value=-0.3, max_value=0.3),
    b0=st.floats(min_value=0.0, max_value=0.2),
    temperature=st.floats(min_value=0.0, max_value=3.0),
)
# two edge modes of one frequency: a single sin^2, at t = 60 2e-3 of its
# maximum, where the phases' rounding dominates the error
@example(lattice=build_lattice("chain", 3, boundary="periodic"), xi=0.0, b0=0.125, temperature=0.0)
def test_gamma2_matches_pair_loop(lattice, xi, b0, temperature):
    model = build_phonon_model(lattice, 1e4, 3.0, 1.0)
    t = np.linspace(0.0, 60.0, 17)
    # the reference squares the amplitude per pair, which loses digits below
    # the smallest normal double; run it at (xi, b0) scaled by a power of two
    # and scale back, both exact, so it is rounded once
    e = np.frexp(max(abs(xi), abs(b0)))[1]
    ref, sensitivity, floor = (np.ldexp(x, 2 * e) for x in gamma2_full_reference(
        model, np.ldexp(xi, -e), np.ldexp(b0, -e), temperature, t))
    # 1e-12 of the sum plus its phase sensitivity and the split route's
    # floor, as the kernel's tests bound it: near a zero of sin^2 a flat rtol
    # fails on the phases' rounding alone.  The floor has not shown here: on
    # chains 2 to 4 over 1201 values of xi at temperature 0 the error stayed
    # below 3.3e-4 of the sensitivity term, which the soft modes keep large
    bound = 1e-12 * sensitivity + 2.0 * np.sqrt(len(t)) * np.finfo(float).eps * floor
    assert np.all(np.abs(gamma2(model, xi, b0, temperature, t).decay - ref) <= bound)


@pytest.mark.parametrize("slice_modes", [1, 11])
@pytest.mark.parametrize("make", [lambda: chain_model(30), lambda: tri_model(25)],
                         ids=["chain30", "triangular25"])
def test_gamma2_mode_slices_match_pair_loop(monkeypatch, make, slice_modes):
    # 11 divides neither mode count: chain 30 has 30 edge and 420 other
    # modes, triangular 25 has 48 and 576; the pairs come in blocks of 7 k
    # rows, which divides neither the 29 nor the 24 rows after the edge row,
    # and each block's modes are cut into slices again; the dominant part,
    # twice gamma1_time over 30 or 48 modes, against one unsliced call
    model = make()
    t = np.linspace(0.0, 60.0, 17)
    one = gamma1_time(model, 0.05, 0.1, 0.5, t).decay
    monkeypatch.setattr(sin2_mod, "_SLICE_BYTES", split_slice_bytes(t, slice_modes))
    n = model.grid.n_points
    monkeypatch.setattr(phonon_mod, "_SLICE_BYTES", 7 * 8 * (7 + 4 * model.n_branches) * n)
    ref = gamma2_full_reference(model, 0.05, 0.1, 0.5, t)[0]
    two = gamma2(model, 0.05, 0.1, 0.5, t)
    assert np.allclose(two.decay, ref, rtol=1e-12, atol=0)
    assert np.allclose(two.decay_dominant, 2.0 * one, rtol=1e-12, atol=0)


class TestGoldenRule:
    def test_grid_factor_one_reuses_model(self, monkeypatch):
        m = chain_model(32)
        ref = phonon_mod._fgr_rate(m, 0.05, 0.1, 5.0)
        builds = []
        real = phonon_mod.build_phonon_model

        def counting(*args, **kwargs):
            builds.append(args[0].n_sites)
            return real(*args, **kwargs)

        monkeypatch.setattr(phonon_mod, "build_phonon_model", counting)
        rates = gamma1_fgr(m, 0.05, 0.1, 5.0)["rates"]
        assert rates[0] == ref
        assert builds == [64]

    def test_1d_temperature_ratio(self):
        # the rate on the doubled grid, chain 256
        m = chain_model(128)
        r1 = gamma1_fgr(m, 0.05, 0.1, 5.0)["rate"]
        r2 = gamma1_fgr(m, 0.05, 0.1, 10.0)["rate"]
        assert r2 / r1 == pytest.approx(2.0, rel=0.05)

    def test_1d_nonzero_with_asymptote(self):
        m = chain_model(128)
        rep = gamma1_fgr(m, 0.05, 0.1, 5.0)
        assert rep["rate"] > 0
        assert rep["asymptote_1d"] > 0

    def test_2d_rate_decreases_under_refinement(self):
        # triangular 36, 144 and 576: each call reports its grid and the doubled one
        rates = (gamma1_fgr(tri_model(36), 0.05, 0.1, 5.0)["rates"]
                 + gamma1_fgr(tri_model(144), 0.05, 0.1, 5.0)["rates"][1:])
        assert rates[0] > 0
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.75 * rates[0]
