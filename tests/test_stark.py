import numpy as np
import pytest
import scipy.constants as const
from numpy.polynomial import legendre

from dipolarray.stark import (
    DEBYE,
    SRO,
    BasisNotConvergedError,
    MolecularParams,
    beta_parameter,
    dressed_pair,
    rotor_eigensystem,
    xi_kappa_sweep,
)

SPACING = 300e-9


class TestRotorEigensystem:
    def test_zero_field_spectrum(self):
        js, energies, vectors = rotor_eigensystem(0.0, 0, 20)
        assert np.array_equal(energies, js * (js + 1.0))
        assert np.array_equal(vectors, np.eye(len(js)))

    def test_cos_coupling_against_quadrature(self):
        # <J',M=0|cos theta|J,0> as a Legendre integral oracle:
        # sqrt((2J+1)(2J'+1))/2 * int_-1^1 P_J'(x) x P_J(x) dx
        def oracle(jp, j):
            pj = legendre.Legendre.basis(j)
            pjp = legendre.Legendre.basis(jp)
            integrand = (pjp * legendre.Legendre([0, 1]) * pj).integ()
            val = integrand(1.0) - integrand(-1.0)
            return np.sqrt((2 * j + 1) * (2 * jp + 1)) / 2.0 * val

        assert oracle(1, 0) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
        assert oracle(2, 1) == pytest.approx(2.0 / np.sqrt(15.0), abs=1e-12)

        from dipolarray.stark import _cos_couplings
        js = np.arange(0, 6)
        offs = _cos_couplings(js, 0)
        for i, j in enumerate(js[:-1]):
            assert offs[i] == pytest.approx(oracle(j + 1, j), abs=1e-12)

    def test_second_order_ground_shift(self):
        e = 1e-3
        _, energies, _ = rotor_eigensystem(e, 0, 20)
        # -(e^2)/6 with an O(e^4) remainder
        assert energies[0] == pytest.approx(-(e**2) / 6.0, abs=1e-11)

    def test_orthonormal_vectors(self):
        _, _, v = rotor_eigensystem(4.0, 0, 24)
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() < 1e-12

    def test_rejects_small_jmax(self):
        with pytest.raises(ValueError, match="too small"):
            rotor_eigensystem(1.0, 0, 6)

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            rotor_eigensystem(-1.0, 0, 20)


class TestDressedPair:
    def test_zero_field_ground_pair(self):
        p = dressed_pair(SRO, 0.0, (0, 0), (1, 0), SPACING)
        assert p.mu_gg == 0.0
        assert p.mu_ee == 0.0
        assert p.mu_eg == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
        assert p.xi_over_kappa == pytest.approx(1.0, abs=1e-12)
        assert p.b0 == 0.0

    def test_zero_field_excited_pair(self):
        p = dressed_pair(SRO, 0.0, (1, 0), (2, 0), SPACING)
        assert p.mu_eg == pytest.approx(2.0 / np.sqrt(15.0), abs=1e-14)
        assert p.xi_over_kappa == pytest.approx(1.0, abs=1e-12)

    def test_sro_dipole_constant(self):
        assert SRO.mu0 == pytest.approx(8.89 * DEBYE)

    def test_hellmann_feynman(self):
        # induced dipole equals the negative field derivative of the energy
        for e in (0.5, 1.0, 3.0):
            h = 1e-5
            _, em, _ = rotor_eigensystem(e - h, 0, 24)
            _, ep, _ = rotor_eigensystem(e + h, 0, 24)
            p = dressed_pair(SRO, e, (0, 0), (1, 0), SPACING, j_max=24)
            deriv = -(ep[0] - em[0]) / (2 * h)
            assert abs(p.mu_gg - deriv) < 1e-6

    def test_jmax_convergence(self):
        p20 = dressed_pair(SRO, 5.0, (0, 0), (1, 0), SPACING, j_max=20)
        p24 = dressed_pair(SRO, 5.0, (0, 0), (1, 0), SPACING, j_max=24)
        assert abs(p20.mu_gg - p24.mu_gg) < 1e-8
        assert abs(p20.mu_ee - p24.mu_ee) < 1e-8
        assert abs(p20.mu_eg - p24.mu_eg) < 1e-8

    def test_unconverged_jmax_raises(self):
        with pytest.raises(BasisNotConvergedError, match="not converged"):
            dressed_pair(SRO, 40.0, (0, 0), (1, 0), SPACING, j_max=8)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="must differ"):
            dressed_pair(SRO, 1.0, (1, 0), (1, 0), SPACING)
        with pytest.raises(ValueError, match="share M"):
            dressed_pair(SRO, 1.0, (0, 0), (1, 1), SPACING)

    def test_xi_kappa_identity(self):
        p = dressed_pair(SRO, 2.0, (0, 0), (1, 0), SPACING)
        recomputed = 1.0 - (p.mu_ee - p.mu_gg) ** 2 / (2.0 * p.mu_eg**2)
        assert p.xi_over_kappa == recomputed

    def test_absolute_scales(self):
        # kappa = |mu_eg mu0|^2/(8 pi eps0 a^3) recomputed independently
        p = dressed_pair(SRO, 1.0, (0, 0), (1, 0), SPACING)
        mu = p.mu_eg * SRO.mu0
        kappa = mu**2 / (8 * np.pi * const.epsilon_0 * SPACING**3)
        assert p.kappa == pytest.approx(kappa, rel=1e-12)
        assert p.xi == pytest.approx(p.xi_over_kappa * p.kappa, rel=1e-12)

    def test_beta_consistency_between_paths(self):
        p = dressed_pair(SRO, 3.0, (0, 0), (1, 0), SPACING)
        assert p.beta == pytest.approx(beta_parameter(SRO, SPACING, p.mu_gg), rel=1e-12)


class TestSweep:
    def test_first_row_is_unity_for_both_pairs(self):
        for pair in [((0, 0), (1, 0)), ((1, 0), (2, 0))]:
            rows = xi_kappa_sweep(SRO, pair[0], pair[1], np.linspace(0.0, 0.5, 6), SPACING)
            assert rows[0].xi_over_kappa == pytest.approx(1.0, abs=1e-6)

    def test_continuity(self):
        grid = np.arange(0.0, 4.0 + 1e-12, 0.01)
        rows = xi_kappa_sweep(SRO, (0, 0), (1, 0), grid, SPACING)
        vals = np.array([r.xi_over_kappa for r in rows])
        assert np.abs(np.diff(vals)).max() < 0.05

    def test_mu_gg_monotone_at_small_field(self):
        grid = np.linspace(0.0, 1.0, 21)[1:]
        rows = xi_kappa_sweep(SRO, (0, 0), (1, 0), grid, SPACING)
        mg = np.array([r.mu_gg for r in rows])
        assert np.all(np.diff(mg) > 0)
        assert np.all(mg > 0)

    def test_rejects_nonmonotone_grid(self):
        with pytest.raises(ValueError):
            xi_kappa_sweep(SRO, (0, 0), (1, 0), [0.0, 0.5, 0.4], SPACING)


class TestBetaParameter:
    def test_spacing_scaling(self):
        b1 = beta_parameter(SRO, SPACING, 0.5)
        b2 = beta_parameter(SRO, 2 * SPACING, 0.5)
        assert b2 / b1 == pytest.approx(0.5, rel=1e-12)

    def test_zero_dipole(self):
        assert beta_parameter(SRO, SPACING, 0.0) == 0.0

    def test_dimensionless_against_direct_formula(self):
        mu = 0.6 * SRO.mu0
        u_dd = mu**2 / (4 * np.pi * const.epsilon_0 * SPACING**3)
        direct = u_dd * SRO.mass * SPACING**2 / const.hbar**2
        assert beta_parameter(SRO, SPACING, 0.6) == pytest.approx(direct, rel=1e-12)

    def test_custom_molecule(self):
        m = MolecularParams("X", b_rot=1e-23, mu0=5 * DEBYE, mass=100 * const.u)
        assert beta_parameter(m, 1e-7, 1.0) > 0
