import numpy as np
import pytest
import scipy.sparse as sp

from dipolarray.basis import dicke_state
from dipolarray.hamiltonian import (
    ZETA3,
    chi_eff,
    exchange_hamiltonian,
    full_hamiltonian,
    gate_params,
    theta_analytic,
)
from dipolarray.lattice import build_lattice, coupling_kernel

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)  # |e><g| with basis order (e, g)
SM = SP.T.conj()


def site_op(op, i, n):
    mats = [np.eye(2, dtype=complex)] * n
    mats[i] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def brute_force(lattice, kappa, xi, exchange_only):
    """Independent 2^N construction from single-site Pauli operators."""
    d = coupling_kernel(lattice)
    n = lattice.n_sites
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if exchange_only:
                h += kappa * d[i, j] * (site_op(SP, i, n) @ site_op(SM, j, n)
                                        + site_op(SM, i, n) @ site_op(SP, j, n))
            else:
                sdots = (site_op(SX, i, n) @ site_op(SX, j, n)
                         + site_op(SY, i, n) @ site_op(SY, j, n)
                         + site_op(SZ, i, n) @ site_op(SZ, j, n))
                h += 0.5 * kappa * d[i, j] * sdots
                h -= 0.5 * xi * d[i, j] * (site_op(SZ, i, n) @ site_op(SZ, j, n))
    return h


def sector_slice(h_full, basis):
    """Rows/columns of the 2^N matrix for the given configuration order.

    Excited site i corresponds to bit (n-1-i) because the Kronecker product
    puts site 0 leftmost; basis order (e, g) makes bit value 0 = excited.
    """
    n = basis.n_sites
    idx = []
    for cfg in basis.configs:
        bits = dim = (1 << n) - 1  # all ones = all ground
        for site in cfg:
            bits &= ~(1 << (n - 1 - site))
        idx.append(bits)
    return h_full[np.ix_(idx, idx)]


class TestBruteForceOracle:
    @pytest.mark.parametrize("kind,n", [("chain", 3), ("chain", 4), ("triangular", 4)])
    @pytest.mark.parametrize("xi,exchange_only", [(0.0, True), (0.0, False), (0.3, False), (-0.7, False), (1.0, False)])
    def test_sector_blocks_match_full_space(self, kind, n, xi, exchange_only):
        lat = build_lattice(kind, n)
        kappa = 1.0
        hb = brute_force(lat, kappa, xi, exchange_only)
        assert np.abs(hb - hb.conj().T).max() < 1e-14
        h = exchange_hamiltonian(lat, kappa) if exchange_only else full_hamiltonian(lat, kappa, xi)
        for sector in (0, 1, 2):
            block = h.blocks[sector].toarray()
            ref = sector_slice(hb, h.sectors[sector])
            assert np.abs(ref.imag).max() < 1e-14
            assert np.abs(block - ref.real).max() < 1e-12

    def test_single_site_diagonal_matches_oracle(self):
        # one-excitation diagonal entries against the full-space construction
        lat = build_lattice("chain", 3)
        hb = brute_force(lat, 1.0, 0.4, exchange_only=False)
        h = full_hamiltonian(lat, 1.0, 0.4)
        ref = sector_slice(hb, h.sectors[1])
        assert np.allclose(np.diag(h.blocks[1].toarray()), np.diag(ref.real))


class TestExchangeHamiltonian:
    def test_n2_one_excitation_eigenvalues(self):
        h = exchange_hamiltonian(build_lattice("chain", 2), 1.0)
        assert np.allclose(np.linalg.eigvalsh(h.blocks[1].toarray()), [-2.0, 2.0])

    def test_n2_two_excitation_block_is_zero(self):
        h = exchange_hamiltonian(build_lattice("chain", 2), 1.0)
        assert h.blocks[2].shape == (1, 1)
        assert h.blocks[2][0, 0] == 0.0

    def test_zero_diagonal(self):
        h = exchange_hamiltonian(build_lattice("chain", 5), 2.0)
        for n in (0, 1, 2):
            block = h.blocks[n].toarray()
            assert np.all(np.diag(block) == 0.0)

    @pytest.mark.parametrize("kind,n,boundary", [("chain", 6, "open"), ("square", 9, "periodic"), ("triangular", 9, "periodic")])
    def test_hermiticity(self, kind, n, boundary):
        lat = build_lattice(kind, n, boundary=boundary)
        for h in (exchange_hamiltonian(lat, 1.0), full_hamiltonian(lat, 1.0, 0.2)):
            for s in (0, 1, 2):
                block = h.blocks[s].toarray()
                assert np.abs(block - block.T).max() == 0.0

    def test_collective_states_are_eigenvectors_periodic(self):
        lat = build_lattice("chain", 12, boundary="periodic")
        h = exchange_hamiltonian(lat, 1.0)
        for n in (0, 1):
            psi = dicke_state(h.sectors[n])
            hp = h.blocks[n] @ psi
            e = np.vdot(psi, hp)
            assert np.linalg.norm(hp - e * psi) <= 1e-12


class TestFullHamiltonian:
    def test_xi_zero_adds_only_diagonal(self):
        lat = build_lattice("chain", 5)
        hx = exchange_hamiltonian(lat, 1.0)
        hf = full_hamiltonian(lat, 1.0, 0.0)
        for n in (1, 2):
            a = hx.blocks[n].toarray()
            b = hf.blocks[n].toarray()
            off = b - np.diag(np.diag(b))
            assert np.allclose(off, a - np.diag(np.diag(a)))
        assert hf.vacuum_energy != 0.0

    def test_xi_equal_kappa_is_pure_exchange(self):
        for kind, n, boundary in [("chain", 5, "open"), ("square", 9, "periodic"),
                                  ("triangular", 9, "periodic")]:
            lat = build_lattice(kind, n, boundary=boundary)
            hx = exchange_hamiltonian(lat, 1.3)
            hf = full_hamiltonian(lat, 1.3, 1.3)
            assert hx.xi == 1.3
            for s in (0, 1, 2):
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(hx.blocks[s], part), getattr(hf.blocks[s], part))

    def test_projection_identity(self):
        # <2|H_I|2> - 2<1|H_I|1> + <0|H_I|0> = -2 chi_tilde
        for kind, n, boundary in [("chain", 8, "open"), ("chain", 9, "periodic"), ("square", 9, "open")]:
            lat = build_lattice(kind, n, boundary=boundary)
            kappa, xi = 1.0, 0.37
            expect = []
            for ham in (full_hamiltonian(lat, kappa, xi), full_hamiltonian(lat, kappa, 0.0)):
                vals = []
                for s in (0, 1, 2):
                    psi = dicke_state(ham.sectors[s])
                    vals.append(np.real(np.vdot(psi, ham.blocks[s] @ psi)))
                expect.append(vals[2] - 2 * vals[1] + vals[0])
            second_diff_hi = expect[0] - expect[1]
            chit = (xi / kappa) * chi_eff(lat, kappa)
            assert second_diff_hi == pytest.approx(-2.0 * chit, abs=1e-10)

    @pytest.mark.parametrize("n", [5, 64])
    def test_blocks_are_csr(self, n):
        # one storage for small and large sectors (C(64, 2) = 2016)
        h = full_hamiltonian(build_lattice("chain", n), 1.0, 0.1)
        for s in (0, 1, 2):
            assert isinstance(h.blocks[s], sp.csr_array)
            assert h.blocks[s].has_canonical_format
            assert h.is_sparse(s)
            assert h.dim(s) == h.sectors[s].dim


class TestChiEff:
    def test_n2(self):
        assert chi_eff(build_lattice("chain", 2), 1.0) == pytest.approx(2.0)

    def test_n3_open_chain(self):
        assert chi_eff(build_lattice("chain", 3), 1.0) == pytest.approx(17.0 / 12.0)

    def test_large_n_asymptote(self):
        n = 120
        val = chi_eff(build_lattice("chain", n), 1.0)
        assert val == pytest.approx(4.0 * ZETA3 / (n - 1), rel=0.02)

    def test_scales_linearly_with_kappa(self):
        lat = build_lattice("square", 16)
        assert chi_eff(lat, 3.0) == pytest.approx(3.0 * chi_eff(lat, 1.0))

    @pytest.mark.parametrize("kind,n", [("chain", 2), ("chain", 7), ("chain", 64),
                                        ("square", 4), ("square", 9), ("square", 100),
                                        ("triangular", 9), ("triangular", 16), ("triangular", 100)])
    def test_periodic_row_sum_matches_kernel_sum(self, kind, n):
        # the periodic path sums one relative-site row; the kernel is O(N^2)
        lat = build_lattice(kind, n, boundary="periodic")
        kernel_sum = 2.0 * 1.3 / (n * (n - 1)) * coupling_kernel(lat).sum()
        assert chi_eff(lat, 1.3) == pytest.approx(kernel_sum, rel=1e-14, abs=0)


class TestGateParams:
    def test_t_pi_definition(self):
        lat = build_lattice("chain", 2)  # chi_eff = 2 kappa
        gp = gate_params(lat, 0.5, 0.0, use_tilde=False)  # chi = 1
        assert gp.t_pi == pytest.approx(np.pi / 2.0)

    def test_small_xi_scales_gate_time(self):
        lat = build_lattice("chain", 10)
        g1 = gate_params(lat, 1.0, 1.0, use_tilde=True)
        g2 = gate_params(lat, 1.0, 0.05, use_tilde=True)
        assert g2.t_pi / g1.t_pi == pytest.approx(20.0)

    def test_rejects_tilde_with_zero_xi(self):
        with pytest.raises(ValueError):
            gate_params(build_lattice("chain", 4), 1.0, 0.0, use_tilde=True)

    def test_t_pi_ratio_36_vs_81(self):
        g36 = gate_params(build_lattice("chain", 36), 1.0, 0.0, use_tilde=False)
        g81 = gate_params(build_lattice("chain", 81), 1.0, 0.0, use_tilde=False)
        assert g81.t_pi / g36.t_pi == pytest.approx(80.0 / 35.0, rel=0.05)


class TestThetaAnalytic:
    def test_zero_time(self):
        assert theta_analytic("chain", 1.0, 0.0, 36) == 0.0

    def test_2d_doubles_1d(self):
        t = np.linspace(0.0, 5.0, 7)
        ratio = theta_analytic("square", 1.0, t[1:], 49) / theta_analytic("chain", 1.0, t[1:], 49)
        assert np.allclose(ratio, 2.0)

    def test_zeta3_precision(self):
        assert abs(ZETA3 - 1.2020569031595942854) < 1e-15

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            theta_analytic("triangular", 1.0, 1.0, 9)
