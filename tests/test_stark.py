import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants as const
from numpy.polynomial import legendre

from dipolarray import basis, stark
from dipolarray.basis import ResourceLimitError
from dipolarray.stark import (
    DEBYE,
    SRO,
    BasisNotConvergedError,
    MolecularParams,
    dressed_pair,
    rotor_eigensystem,
)

SPACING = 300e-9


def sweep(g_label, e_label, grid):
    return [dressed_pair(SRO, e, g_label, e_label, SPACING) for e in grid]


class TestConstants:
    @pytest.mark.parametrize("name, scipy_name", [
        ("C_LIGHT", "c"), ("H_PLANCK", "h"), ("HBAR", "hbar"), ("AMU", "u"), ("EPSILON_0", "epsilon_0"),
    ])
    def test_literal_equals_scipy(self, name, scipy_name):
        assert getattr(stark, name) == getattr(const, scipy_name)

    def test_cli_run_loads_no_scipy(self, tmp_path):
        # the library is numpy-only: importing the cli and running a gate
        # config (sector assembly, evolution, gate time) loads no scipy module
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        cfg = tmp_path / "gate.cfg"
        cfg.write_text("experiment = phase_gate\nkind = chain\nn_sites = 8\nboundary = periodic\n"
                       "xi_over_kappa = 0.05\nt_max = 1.6\nn_samples = 40\n")
        child = ("import sys, dipolarray.cli\n"
                 f"dipolarray.cli.run({str(cfg)!r}, {str(tmp_path)!r})\n"
                 "print(' '.join(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "phase_gate" / "summary.json").is_file()
        assert [m for m in out.stdout.split() if m.split(".")[0] == "scipy"] == []


class TestRotorEigensystem:
    def test_zero_field_spectrum(self):
        js, energies, vectors = rotor_eigensystem(0.0, 0, 20)
        assert np.array_equal(energies, js * (js + 1.0))
        assert np.array_equal(vectors, np.eye(len(js)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_field_spectrum_nonzero_m(self, m):
        js, energies, vectors = rotor_eigensystem(0.0, m, 20)
        assert np.array_equal(js, np.arange(m, 21))
        assert np.array_equal(energies, js * (js + 1.0))
        assert np.array_equal(vectors, np.eye(len(js)))

    def test_matches_dense_block(self):
        # eigenpairs of the block built term by term from the couplings
        js, energies, vectors = rotor_eigensystem(2.5, 1, 20)
        block = np.diag(js * (js + 1.0))
        for i, c in enumerate(stark._cos_couplings(js, 1)):
            block[i, i + 1] = block[i + 1, i] = -2.5 * c
        assert np.all(np.diff(energies) > 0)
        assert np.abs(block @ vectors - vectors * energies).max() < 1e-12
        assert np.all(vectors[np.abs(vectors).argmax(axis=0), np.arange(len(js))] > 0)

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

    @pytest.mark.parametrize("e_field", [np.nan, np.inf])
    def test_rejects_non_finite_field(self, e_field):
        with pytest.raises(ValueError, match="finite and non-negative"):
            rotor_eigensystem(e_field, 0, 20)

    def test_memory_budget(self, monkeypatch):
        # 32 bytes per entry of the J = |M|..j_max block, checked before any
        # block is built
        monkeypatch.setattr(basis, "MEMORY_BYTES_MAX", 32 * 19**2)
        rotor_eigensystem(1.0, 2, 20)
        monkeypatch.setattr(basis, "MEMORY_BYTES_MAX", 32 * 19**2 - 1)
        with pytest.raises(ResourceLimitError, match="^Stark rotor blocks need about 0 MiB at j_max = 20;"):
            rotor_eigensystem(1.0, 2, 20)


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
        # beta from the pair's own u_dd agrees with beta from its dipole mu_gg
        p = dressed_pair(SRO, 3.0, (0, 0), (1, 0), SPACING)
        assert p.beta == pytest.approx(p.u_dd * SRO.mass * SPACING**2 / const.hbar**2, rel=1e-12)
        u_dd = (p.mu_gg * SRO.mu0) ** 2 / (4 * np.pi * const.epsilon_0 * SPACING**3)
        assert p.u_dd == pytest.approx(u_dd, rel=1e-12)

    @pytest.mark.parametrize("spacing", [0.0, -SPACING, np.nan])
    def test_rejects_non_positive_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing must be positive"):
            dressed_pair(SRO, 1.0, (0, 0), (1, 0), spacing)


class TestSweep:
    def test_first_row_is_unity_for_both_pairs(self):
        for pair in [((0, 0), (1, 0)), ((1, 0), (2, 0))]:
            rows = sweep(pair[0], pair[1], np.linspace(0.0, 0.5, 6))
            assert rows[0].xi_over_kappa == pytest.approx(1.0, abs=1e-6)

    def test_continuity(self):
        grid = np.arange(0.0, 4.0 + 1e-12, 0.01)
        rows = sweep((0, 0), (1, 0), grid)
        vals = np.array([r.xi_over_kappa for r in rows])
        assert np.abs(np.diff(vals)).max() < 0.05

    def test_mu_gg_monotone_at_small_field(self):
        grid = np.linspace(0.0, 1.0, 21)[1:]
        rows = sweep((0, 0), (1, 0), grid)
        mg = np.array([r.mu_gg for r in rows])
        assert np.all(np.diff(mg) > 0)
        assert np.all(mg > 0)


class TestBetaParameter:
    """The crystal-stability ratio beta = U_dd m a^2 / hbar^2 of a dressed pair."""

    def test_spacing_scaling(self):
        # the dressed dipoles do not depend on a, and U_dd ~ a^-3, so beta ~ 1/a
        b1 = dressed_pair(SRO, 3.0, (0, 0), (1, 0), SPACING).beta
        b2 = dressed_pair(SRO, 3.0, (0, 0), (1, 0), 2 * SPACING).beta
        assert b2 / b1 == pytest.approx(0.5, rel=1e-12)

    def test_zero_dipole(self):
        # no field: the ground rotor state has no dipole
        assert dressed_pair(SRO, 0.0, (0, 0), (1, 0), SPACING).beta == 0.0

    def test_dimensionless_against_direct_formula(self):
        p = dressed_pair(SRO, 3.0, (0, 0), (1, 0), SPACING)
        mu = p.mu_gg * SRO.mu0
        u_dd = mu**2 / (4 * np.pi * const.epsilon_0 * SPACING**3)
        direct = u_dd * SRO.mass * SPACING**2 / const.hbar**2
        assert p.beta == pytest.approx(direct, rel=1e-12)

    def test_custom_molecule(self):
        m = MolecularParams("X", b_rot=1e-23, mu0=5 * DEBYE, mass=100 * const.u)
        assert dressed_pair(m, 1.0, (0, 0), (1, 0), 1e-7).beta > 0
