import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

import dipolarray.hamiltonian as hamiltonian_mod
from dipolarray.basis import dicke_state, sector_basis
from dipolarray.dynamics import _weights
from dipolarray.hamiltonian import (
    ZETA3,
    chi_eff,
    full_hamiltonian,
    gate_params,
    theta_analytic,
)
from dipolarray.lattice import _point_group_maps, build_lattice, coupling_kernel

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


def coo_sector2_block(lattice, kappa, xi):
    """Two-excitation block assembled hop by hop in COO form, then summed
    with the diagonal: (kappa - xi)(D - 2 cut), with D = sum_{i<j} d_ij and
    cut the couplings of the pair's two sites to the rest (the pairs with
    exactly one site excited)."""
    d = coupling_kernel(lattice)
    n = lattice.n_sites
    basis2 = sector_basis(n, 2)
    dim2 = basis2.dim
    a = basis2.configs[:, 0]
    b = basis2.configs[:, 1]
    row = d.sum(axis=1)
    e2 = (kappa - xi) * (0.5 * row.sum() - 2.0 * (row[a] + row[b] - 2.0 * d[a, b]))
    rows, cols, vals = [], [], []
    idx = np.arange(dim2)
    for c in range(n):
        # move the excitation at b -> c (c not in {a, b})
        ok = (c != a) & (c != b)
        lo = np.minimum(a[ok], c)
        hi = np.maximum(a[ok], c)
        rows.append(hi * (hi - 1) // 2 + lo)
        cols.append(idx[ok])
        vals.append(2.0 * kappa * d[b[ok], c])
        # move the excitation at a -> c
        lo = np.minimum(b[ok], c)
        hi = np.maximum(b[ok], c)
        rows.append(hi * (hi - 1) // 2 + lo)
        cols.append(idx[ok])
        vals.append(2.0 * kappa * d[a[ok], c])
    rows = np.concatenate(rows).astype(np.int32)
    cols = np.concatenate(cols).astype(np.int32)
    vals = np.concatenate(vals)
    return sp.csr_array((vals, (rows, cols)), shape=(dim2, dim2)) + sp.diags_array(e2)


def full_sectors(lattice, kappa, xi):
    """The whole sectors n = 0, 1, 2 of the model, the oracle for the orbit
    blocks: (block, basis) per sector in the colex order of
    ``sector_basis``, sectors 0 and 1 dense and sector 2 the scipy CSR of
    :func:`coo_sector2_block`."""
    d = coupling_kernel(lattice)
    n = lattice.n_sites
    row = d.sum(axis=1)
    total = 0.5 * row.sum()
    h1 = 2.0 * kappa * d
    np.fill_diagonal(h1, (kappa - xi) * (total - 2.0 * row))
    blocks = [np.array([[(kappa - xi) * total]]), h1, coo_sector2_block(lattice, kappa, xi)]
    return [(block, sector_basis(n, s)) for s, block in enumerate(blocks)]


def dense(block):
    """A block of :func:`full_sectors` as a dense array."""
    return block.toarray() if sp.issparse(block) else block


def orbit_quotient(h_full, lattice, n_exc):
    """B^T H B on sector ``n_exc`` of an open lattice, H the 2^N matrix and
    B's columns the normalized indicators of the orbits of the sector's
    configurations under the point-group maps, ordered by their least colex
    rank as :meth:`SpinHamiltonian.dicke_sectors` orders them."""
    basis = sector_basis(lattice.n_sites, n_exc)
    images = np.sort(_point_group_maps(lattice)[:, basis.configs], axis=-1)
    ranks = sum(np.vectorize(comb)(images[..., t], t + 1) for t in range(n_exc))
    labels = np.unique(np.min(ranks, axis=0, initial=np.iinfo(np.int64).max), return_inverse=True)[1].ravel()
    indicators = np.zeros((basis.dim, labels.max() + 1))
    indicators[np.arange(basis.dim), labels] = 1.0
    indicators /= np.sqrt(indicators.sum(axis=0))
    return indicators.T @ sector_slice(h_full, basis).real @ indicators


class TestBruteForceOracle:
    @pytest.mark.parametrize("kind,n", [("chain", 3), ("chain", 4), ("triangular", 4)])
    @pytest.mark.parametrize("xi,exchange_only", [(0.0, True), (0.0, False), (0.3, False), (-0.7, False), (1.0, False)])
    def test_sector_blocks_match_full_space(self, kind, n, xi, exchange_only):
        # the oracle's whole sectors, and the library's orbit blocks on
        # them, against the 2^N construction
        lat = build_lattice(kind, n)
        kappa = 1.0
        hb = brute_force(lat, kappa, xi, exchange_only)
        assert np.abs(hb - hb.conj().T).max() < 1e-14
        xi = kappa if exchange_only else xi
        for block, basis in full_sectors(lat, kappa, xi):
            ref = sector_slice(hb, basis)
            assert np.abs(ref.imag).max() < 1e-14
            assert np.abs(dense(block) - ref.real).max() < 1e-12
        for sector, block in full_hamiltonian(lat, kappa, xi).blocks.items():
            assert np.abs(block - orbit_quotient(hb, lat, sector)).max() < 1e-12

    def test_single_site_diagonal_matches_oracle(self):
        # one-excitation diagonal entries against the full-space construction
        lat = build_lattice("chain", 3)
        hb = brute_force(lat, 1.0, 0.4, exchange_only=False)
        h1, basis1 = full_sectors(lat, 1.0, 0.4)[1]
        ref = sector_slice(hb, basis1)
        assert np.allclose(np.diag(h1), np.diag(ref.real))


class TestExchangeHamiltonian:
    def test_n2_one_excitation_eigenvalues(self):
        h1, _ = full_sectors(build_lattice("chain", 2), 1.0, 1.0)[1]
        assert np.allclose(np.linalg.eigvalsh(h1), [-2.0, 2.0])

    def test_n2_two_excitation_block_is_zero(self):
        h2, _ = full_sectors(build_lattice("chain", 2), 1.0, 1.0)[2]
        assert h2.shape == (1, 1)
        assert h2.toarray()[0, 0] == 0.0

    def test_zero_diagonal(self):
        for block, _ in full_sectors(build_lattice("chain", 5), 2.0, 2.0):
            assert np.all(np.diag(dense(block)) == 0.0)

    @pytest.mark.parametrize("kind,n,boundary", [("chain", 6, "open"), ("square", 9, "periodic"), ("triangular", 9, "periodic")])
    def test_hermiticity(self, kind, n, boundary):
        lat = build_lattice(kind, n, boundary=boundary)
        for xi in (1.0, 0.2):
            for block, _ in full_sectors(lat, 1.0, xi):
                block = dense(block)
                assert np.abs(block - block.T).max() == 0.0

    def test_collective_states_are_eigenvectors_periodic(self):
        lat = build_lattice("chain", 12, boundary="periodic")
        for block, basis in full_sectors(lat, 1.0, 1.0)[:2]:
            psi = dicke_state(basis)
            hp = block @ psi
            e = np.vdot(psi, hp)
            assert np.linalg.norm(hp - e * psi) <= 1e-12


class TestFullHamiltonian:
    @pytest.mark.parametrize("kappa, xi", [(1.0, np.nan), (np.inf, 0.1), (1.0, -np.inf)])
    def test_rejects_non_finite_couplings(self, kappa, xi):
        # refused up front, by the check chi_eff and gate_params share
        with pytest.raises(ValueError, match="(kappa|xi) must be finite"):
            full_hamiltonian(build_lattice("chain", 6), kappa, xi)

    def test_xi_zero_adds_only_diagonal(self):
        lat = build_lattice("chain", 5)
        hx = full_sectors(lat, 1.0, 1.0)
        hf = full_sectors(lat, 1.0, 0.0)
        for n in (1, 2):
            a = dense(hx[n][0])
            b = dense(hf[n][0])
            off = b - np.diag(np.diag(b))
            assert np.allclose(off, a - np.diag(np.diag(a)))
        assert full_hamiltonian(lat, 1.0, 0.0).vacuum_energy != 0.0

    def test_projection_identity(self):
        # <2|H_I|2> - 2<1|H_I|1> + <0|H_I|0> = -2 chi_tilde
        for kind, n, boundary in [("chain", 8, "open"), ("chain", 9, "periodic"), ("square", 9, "open")]:
            lat = build_lattice(kind, n, boundary=boundary)
            kappa, xi = 1.0, 0.37
            expect = []
            for sectors in (full_sectors(lat, kappa, xi), full_sectors(lat, kappa, 0.0)):
                vals = []
                for block, basis in sectors:
                    psi = dicke_state(basis)
                    vals.append(np.real(np.vdot(psi, block @ psi)))
                expect.append(vals[2] - 2 * vals[1] + vals[0])
            second_diff_hi = expect[0] - expect[1]
            chit = (xi / kappa) * chi_eff(lat, kappa)
            assert second_diff_hi == pytest.approx(-2.0 * chit, abs=1e-10)

    def test_blocks_are_the_orbit_blocks(self):
        # blocks[n] is bitwise the dicke_sectors block, dense, on any size:
        # the periodic chain 4000 has 2000 pair orbits of C(4000, 2) pairs
        for lat in (build_lattice("square", 36, boundary="periodic"), build_lattice("triangular", 19)):
            ham = full_hamiltonian(lat, 1.0, 0.05)
            blocks = ham.blocks
            for n, (block, _) in enumerate(ham.dicke_sectors()):
                assert blocks[n].dtype == block.dtype and np.array_equal(blocks[n], block)
                assert not ham.is_sparse(n)
        ham = full_hamiltonian(build_lattice("chain", 4000, boundary="periodic"), 1.0, 0.05)
        assert [block.shape for block in ham.blocks.values()] == [(1, 1), (1, 1), (2000, 2000)]
        assert ham.dim(2) == comb(4000, 2)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ORBIT_PEAK_LATTICES = [("chain", 64, "periodic"), ("chain", 400, "periodic"), ("square", 400, "periodic"),
                       ("triangular", 400, "periodic"), ("chain", 100, "open"), ("square", 144, "open"),
                       ("triangular", 61, "open"), ("triangular", 64, "open")]


@pytest.mark.parametrize("kind, n, boundary", ORBIT_PEAK_LATTICES,
                         ids=[f"{k}-{n}" + ("-open" if b == "open" else "") for k, n, b in ORBIT_PEAK_LATTICES])
def test_orbit_estimate_bounds_peak(kind, n, boundary):
    # the orbit guards cover the pair labels of an open patch, the orbit
    # tables and blocks, and the engine's eigh of the orbit blocks that
    # follow them
    lattice = build_lattice(kind, n, boundary=boundary)
    sectors, peak = traced_peak(lambda: list(full_hamiltonian(lattice, 1.0, 0.05).dicke_sectors()))
    k = len(sectors[2][0])
    need = max(40 * k**2, hamiltonian_mod._ORBIT_BYTES_PER_ENTRY * k * n + hamiltonian_mod._ORBIT_BLOCK_BYTES * k**2)
    if boundary == "open":
        maps = len(hamiltonian_mod._point_group_maps(lattice))
        need = max(need, hamiltonian_mod._LABEL_BYTES * (maps + 2) * comb(n, 2))
    assert peak <= need
    _, peak = traced_peak(lambda: [_weights(block, psi0) for block, psi0 in sectors])
    assert peak <= need


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

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_rejects_non_positive_kappa(self, kappa, boundary):
        # the same refusal as the Hamiltonian builders, before t_pi divides by chi
        with pytest.raises(ValueError, match="kappa must be positive"):
            chi_eff(build_lattice("chain", 8, boundary=boundary), kappa)


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

    @pytest.mark.parametrize("kappa, xi, message", [(np.inf, 0.1, "kappa must be finite"),
                                                    (1.0, np.nan, "xi must be finite")])
    def test_rejects_non_finite_couplings(self, kappa, xi, message):
        # neither returns t_pi = NaN
        with pytest.raises(ValueError, match=message):
            gate_params(build_lattice("chain", 4), kappa, xi)

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
