import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinqpt.lattice import SectorBasis, chain, enumerate_sector
from spinqpt.models import (HamiltonianAction, family_spec,
                            general_xyz, hamiltonian_dense, j1j2, ladder_model,
                            sector_matrices, transverse_ising, xxz)
from spinqpt.eigensolver import dense_spectrum, lanczos_lowest_k, ConvergenceError
from spinqpt.observables import parity, sz_twice_label


def test_two_by_two_exchange_block():
    sol = dense_spectrum(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert np.allclose(sol.energies, [-0.5, 0.5])


def test_heisenberg_ring_ground_energy():
    # frozen from the independent Kronecker oracle: E0(N=4, Delta=1) = -2
    basis = enumerate_sector(chain(4), None)
    sol = dense_spectrum(hamiltonian_dense(xxz(1.0), basis))
    assert sol.energies[0] == pytest.approx(-2.0, abs=1e-12)
    distinct = np.unique(np.round(sol.energies, 9))
    assert distinct[0] == pytest.approx(-2.0) and distinct[1] == pytest.approx(-1.0)


def test_shift_invariance():
    rng = np.random.RandomState(0)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    base = dense_spectrum(m)
    shifted = dense_spectrum(m + 2.5 * np.eye(12))
    assert np.allclose(shifted.energies, base.energies + 2.5, atol=1e-10)
    assert np.allclose(np.abs(shifted.vectors), np.abs(base.vectors), atol=1e-8)


def test_rejects_non_symmetric():
    with pytest.raises(ValueError):
        dense_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_energies_only_match_full_eigh():
    rng = np.random.RandomState(5)
    a = rng.standard_normal((40, 40))
    degenerate = hamiltonian_dense(xxz(-1.0), enumerate_sector(chain(8), None))
    for m in (a + a.T, degenerate):
        ref = np.linalg.eigh(m)[0]
        for levels in (1, 6, len(m)):
            sol = dense_spectrum(m, levels=levels, vectors=False)
            assert sol.k == levels and sol.vectors.shape == (len(m), 0)
            assert np.max(np.abs(sol.energies - ref[:levels])) <= 1e-12
        lowest = dense_spectrum(m, levels=6)
        full = dense_spectrum(m)
        assert np.array_equal(lowest.energies, full.energies[:6])
        assert np.array_equal(lowest.vectors, full.vectors[:, :6])
        assert np.allclose(lowest.residuals, full.residuals[:6], atol=1e-13)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("model", [xxz(-0.7), j1j2(1.0, 0.3), transverse_ising(0.8),
                                   ladder_model(0.6), general_xyz(0.8, 1.2, 0.9, 0.3)],
                         ids=lambda m: m.family)
def test_block_solve_matches_full_space(model, n):
    # the blocks are the Sz or parity sectors, each built on its own basis
    basis = enumerate_sector(family_spec(model.family).lattice(n), None)
    blocks = sector_matrices(model, basis)
    owner = np.empty(basis.dimension, dtype=int)
    for b, (rows, _) in enumerate(blocks):
        owner[rows] = b
    ref = dense_spectrum(hamiltonian_dense(model, basis))
    full = dense_spectrum(blocks)
    assert np.max(np.abs(full.energies - ref.energies)) <= 1e-12
    assert np.max(full.residuals) <= 1e-12
    for levels in (1, 6):
        sol = dense_spectrum(blocks, levels=levels, apply=HamiltonianAction(model, basis))
        assert np.max(np.abs(sol.energies - ref.energies[:levels])) <= 1e-12
        assert np.max(sol.residuals) <= 1e-12
        sol = dense_spectrum(blocks, levels=levels, vectors=False)
        assert np.max(np.abs(sol.energies - ref.energies[:levels])) <= 1e-12
    sz_conserved = family_spec(model.family).sz_conserved
    assert len(blocks) == (n + 1 if sz_conserved else 2)
    for c in range(full.k):
        vec = full.vectors[:, c]
        assert len(set(owner[np.flatnonzero(vec)])) == 1
        if sz_conserved:
            assert sz_twice_label(basis, vec) is not None
        else:
            assert parity(basis, vec) is not None


def test_block_solve_rejects_blocks_the_matrix_leaves():
    # a sector basis H leaves raises while its terms are built
    with pytest.raises(ValueError, match="does not conserve Sz"):
        hamiltonian_dense(transverse_ising(1.0), enumerate_sector(chain(6), 0))
    # an Sz = 0 basis of four sites missing 0b1001, which a flip of sites
    # (0, 1) reaches from 0b1010
    partial = SectorBasis(chain(4), 0, np.array([0b0011, 0b0101, 0b0110, 0b1010, 0b1100]))
    with pytest.raises(ValueError, match="leave the sector"):
        hamiltonian_dense(xxz(1.0), partial)
    odd = SectorBasis(chain(4), None, np.array([0b0001, 0b0010, 0b0100, 0b1000]),
                      popcount_parity=1)
    with pytest.raises(ValueError, match="leave the sector"):
        hamiltonian_dense(transverse_ising(1.0), odd)
    sector = enumerate_sector(chain(6), 0)
    assert len(sector_matrices(xxz(1.0), sector)) == 1


def test_dense_reconstruction():
    basis = enumerate_sector(chain(6), 0)
    m = hamiltonian_dense(xxz(0.5), basis)
    sol = dense_spectrum(m)
    rebuilt = sol.vectors @ np.diag(sol.energies) @ sol.vectors.T
    assert np.max(np.abs(m - rebuilt)) <= 1e-9 * max(1.0, np.max(np.abs(m)))


def test_lanczos_matches_dense_sector():
    basis = enumerate_sector(chain(8), 0)   # dimension 70
    model = xxz(1.0)
    dense = dense_spectrum(hamiltonian_dense(model, basis))
    action = HamiltonianAction(model, basis)
    lanc = lanczos_lowest_k(action, basis.dimension, 6)
    assert np.allclose(lanc.energies, dense.energies[:6], atol=1e-10)
    assert np.max(lanc.residuals) <= 1e-9
    gram = lanc.vectors.T @ lanc.vectors
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_lanczos_resolves_degenerate_triplet():
    # Heisenberg N=4 full space: levels (E0, -1 x3) with an exact triplet
    basis = enumerate_sector(chain(4), None)
    action = HamiltonianAction(xxz(1.0), basis)
    sol = lanczos_lowest_k(action, 16, 4)
    assert sol.energies[0] == pytest.approx(-2.0, abs=1e-10)
    assert np.allclose(sol.energies[1:], -1.0, atol=1e-10)


def test_lanczos_full_spectrum_small_sector():
    basis = enumerate_sector(chain(4), 0)  # dimension 6
    model = xxz(0.7)
    dense = dense_spectrum(hamiltonian_dense(model, basis))
    action = HamiltonianAction(model, basis)
    lanc = lanczos_lowest_k(action, 6, 6)
    assert np.allclose(lanc.energies, dense.energies, atol=1e-10)


def test_lanczos_deterministic():
    basis = enumerate_sector(chain(8), 0)
    action = HamiltonianAction(xxz(0.5), basis)
    a = lanczos_lowest_k(action, basis.dimension, 3, seed=0x5EED)
    b = lanczos_lowest_k(action, basis.dimension, 3, seed=0x5EED)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_ground_estimate_monotone():
    basis = enumerate_sector(chain(10), 0)
    action = HamiltonianAction(xxz(1.0), basis)
    sol = lanczos_lowest_k(action, basis.dimension, 2, check_every=1)
    hist = np.array(sol.meta["ritz_history"])
    assert len(hist) > 3
    assert np.all(np.diff(hist) <= 1e-12)


def test_lanczos_input_validation():
    action = lambda v: v
    with pytest.raises(ValueError):
        lanczos_lowest_k(action, 4, 0)
    with pytest.raises(ValueError):
        lanczos_lowest_k(action, 4, 5)


def test_lanczos_raises_on_impossible_budget():
    basis = enumerate_sector(chain(10), 0)
    action = HamiltonianAction(xxz(1.0), basis)
    with pytest.raises(ConvergenceError):
        lanczos_lowest_k(action, basis.dimension, 4, max_iter=3, max_restarts=1)


def test_phase_convention_largest_amplitude_positive():
    basis = enumerate_sector(chain(6), 0)
    sol = dense_spectrum(hamiltonian_dense(xxz(1.0), basis))
    for c in range(sol.k):
        v = sol.vectors[:, c]
        assert v[np.argmax(np.abs(v))] > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_lanczos_oracle_equivalence_random_symmetric(seed):
    rng = np.random.RandomState(seed)
    dim = rng.randint(8, 40)
    m = rng.standard_normal((dim, dim))
    m = 0.5 * (m + m.T)
    dense = dense_spectrum(m)
    k = rng.randint(1, min(5, dim) + 1)
    lanc = lanczos_lowest_k(lambda v: m @ v, dim, k, seed=seed)
    assert np.allclose(lanc.energies, dense.energies[:k], atol=1e-9)


def _fivefold_matrix():
    rng = np.random.RandomState(3)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    m = q @ np.diag(np.repeat([-2.0, -1.0, 0.5, 1.5], 5)) @ q.T
    return 0.5 * (m + m.T)


def _heisenberg_n4_full():
    return hamiltonian_dense(xxz(1.0), enumerate_sector(chain(4), None))


@pytest.mark.parametrize("make, k", [(_fivefold_matrix, 7), (_heisenberg_n4_full, 16)])
def test_lanczos_second_pass_fires_when_the_krylov_space_runs_out(make, k):
    # both restart until the Krylov space is exhausted; the last steps then
    # cancel almost all of w, and the guarded second pass must run
    m = make()
    calls = []

    def apply(v):
        calls.append(1)
        return m @ v

    sol = lanczos_lowest_k(apply, len(m), k)
    assert sol.meta["second_passes"] >= 1
    assert sol.meta["matvecs"] == len(calls)
    assert np.max(np.abs(sol.energies - dense_spectrum(m).energies[:k])) <= 1e-10
    assert np.max(np.abs(sol.vectors.T @ sol.vectors - np.eye(k))) <= 1e-12


def test_lanczos_majumdar_ghosh_pair_needs_no_second_pass():
    # J2 = J1/2 ring of 12: the two dimer coverings, both at -3N/8
    basis = enumerate_sector(chain(12), 0)
    sol = lanczos_lowest_k(HamiltonianAction(j1j2(1.0, 0.5), basis), basis.dimension, 2)
    assert np.max(np.abs(sol.energies + 4.5)) <= 1e-10
    assert np.max(np.abs(sol.vectors.T @ sol.vectors - np.eye(2))) <= 1e-12
    assert sol.meta["second_passes"] == 0
