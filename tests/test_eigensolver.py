import copy
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from hypothesis import given, settings, strategies as st

from oracle import hamiltonian_dense, one_block
from spinqpt import eigensolver, models
from spinqpt.lattice import SectorBasis, chain, enumerate_sector, ladder, popcount
from spinqpt.models import (HamiltonianAction, _reflection, family_spec, general_xyz,
                            j1j2, ladder_model, stacked_blocks, transverse_ising, xxz)
from spinqpt.eigensolver import (CHECK_EVERY, dense_spectra, dense_spectrum,
                                 degeneracy_tolerance, lanczos_lowest_k, ConvergenceError)
from spinqpt.observables import parity, sz_twice_label


def test_two_by_two_exchange_block():
    sol = dense_spectrum(one_block(np.array([[0.0, 0.5], [0.5, 0.0]])))
    assert np.allclose(sol.energies, [-0.5, 0.5])


def test_heisenberg_ring_ground_energy():
    # frozen from the independent Kronecker oracle: E0(N=4, Delta=1) = -2
    basis = enumerate_sector(chain(4), None)
    sol = dense_spectrum(one_block(hamiltonian_dense(xxz(1.0), basis)))
    assert sol.energies[0] == pytest.approx(-2.0, abs=1e-12)
    distinct = np.unique(np.round(sol.energies, 9))
    assert distinct[0] == pytest.approx(-2.0) and distinct[1] == pytest.approx(-1.0)


def test_shift_invariance():
    rng = np.random.RandomState(0)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    base = dense_spectrum(one_block(m))
    shifted = dense_spectrum(one_block(m + 2.5 * np.eye(12)))
    assert np.allclose(shifted.energies, base.energies + 2.5, atol=1e-10)
    assert np.allclose(np.abs(shifted.vectors), np.abs(base.vectors), atol=1e-8)


def test_energies_only_match_full_eigh():
    rng = np.random.RandomState(5)
    a = rng.standard_normal((40, 40))
    degenerate = hamiltonian_dense(xxz(-1.0), enumerate_sector(chain(8), None))
    for m in (a + a.T, degenerate):
        ref = np.linalg.eigh(m)[0]
        for levels in (1, 6, len(m)):
            sol = dense_spectrum(one_block(m), levels=levels, vectors=False)
            assert sol.k == levels and sol.vectors.shape == (len(m), 0)
            assert np.max(np.abs(sol.energies - ref[:levels])) <= 1e-12
        lowest = dense_spectrum(one_block(m), levels=6)
        full = dense_spectrum(one_block(m))
        assert np.array_equal(lowest.energies, full.energies[:6])
        assert np.array_equal(lowest.vectors, full.vectors[:, :6])
        assert np.allclose(lowest.residuals, full.residuals[:6], atol=1e-13)


def _in_one_block(blocks, vec):
    """Index of the one block whose columns span ``vec``; fails otherwise."""
    weights = []
    for rows, coefs, _ in blocks:
        # the overlap of vec with each block column, as in dense_spectrum's lift
        overlap = sum(coef * vec[idx] for idx, coef in zip(rows, coefs))
        weights.append(float(overlap @ overlap))
    weights = np.array(weights)
    owner = int(np.argmax(weights))
    assert abs(weights[owner] - 1.0) <= 1e-12
    assert np.sum(np.delete(weights, owner)) <= 1e-12
    return owner


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("model", [xxz(-0.7), j1j2(1.0, 0.3), transverse_ising(0.8),
                                   ladder_model(0.6), general_xyz(0.8, 1.2, 0.9, 0.3)],
                         ids=lambda m: m.family)
def test_block_solve_matches_full_space(model, n):
    # the blocks are the Sz sectors or parity groups split by the lattice
    # reflection and, at zero field, spin inversion, built from cached terms
    basis = enumerate_sector(family_spec(model.family).lattice(n), None)
    action = HamiltonianAction(model, basis)
    blocks = action.blocks()
    ref = dense_spectrum(one_block(hamiltonian_dense(model, basis)))
    full = dense_spectrum(blocks)
    assert np.max(np.abs(full.energies - ref.energies)) <= 1e-12
    assert np.max(full.residuals) <= 1e-12
    for levels in (1, 6):
        sol = dense_spectrum(blocks, levels=levels)
        assert np.max(np.abs(sol.energies - ref.energies[:levels])) <= 1e-12
        assert np.max(sol.residuals) <= 1e-12
        # the lifted vectors solve the whole-basis operator too
        vecs = sol.vectors
        assert np.all(np.linalg.norm(action(vecs) - vecs * sol.energies, axis=0) <= 1e-12)
        sol = dense_spectrum(blocks, levels=levels, vectors=False)
        assert np.max(np.abs(sol.energies - ref.energies[:levels])) <= 1e-12
    sz_conserved = family_spec(model.family).sz_conserved
    assert sum(len(mat) for _, _, mat in blocks) == basis.dimension
    assert len(blocks) > (n + 1 if sz_conserved else 2)  # every sector splits
    owners = [_in_one_block(blocks, full.vectors[:, c]) for c in range(full.k)]
    assert np.array_equal(np.bincount(owners), [len(mat) for _, _, mat in blocks])
    for c in range(full.k):
        vec = full.vectors[:, c]
        if sz_conserved:
            assert sz_twice_label(basis, vec) is not None
        else:
            assert parity(basis, vec) is not None


def test_block_solve_rejects_blocks_the_matrix_leaves():
    # a sector basis H leaves raises while its terms are built
    with pytest.raises(ValueError, match="does not conserve Sz"):
        HamiltonianAction(transverse_ising(1.0), enumerate_sector(chain(6), 0)).matrix
    with pytest.raises(ValueError, match="does not conserve Sz"):
        HamiltonianAction(transverse_ising(1.0), enumerate_sector(chain(6), 0)).blocks()
    # an Sz = 0 basis of four sites missing 0b1001, which a flip of sites
    # (0, 1) reaches from 0b1010, and the reflection from 0b0011
    partial = SectorBasis(chain(4), 0, np.array([0b0011, 0b0101, 0b0110, 0b1010, 0b1100]))
    with pytest.raises(ValueError, match="leave the sector"):
        HamiltonianAction(xxz(1.0), partial).matrix
    with pytest.raises(ValueError, match="leave the sector"):
        HamiltonianAction(xxz(1.0), partial).blocks()
    # a sector basis is one sector: Sz = 0 splits by momentum, reflection
    # and inversion, with rows indexing the basis itself, one per element
    # of the group (6 translations, the reflection, inversion); each block
    # of the two momenta between 0 and pi is followed by its partner, which
    # holds its matrix
    sector = enumerate_sector(chain(6), 0)
    blocks = HamiltonianAction(xxz(1.0), sector).blocks()
    assert [len(mat) for _, _, mat in blocks] == [3, 1, 1, 1, 2, 2, 2, 2, 1, 1, 3, 1]
    assert all(rows.shape[0] == 24 for rows, _, _ in blocks)
    assert [m for m in range(len(blocks)) if blocks[m][2] is blocks[m - 1][2]] == [3, 5, 7, 9]
    covered = np.concatenate([rows[coefs != 0] for rows, coefs, _ in blocks])
    assert np.array_equal(np.unique(covered), np.arange(sector.dimension))


# --- symmetry-adapted blocks -------------------------------------------------

def _reflected(lattice, vecs):
    """Full-space columns under the lattice reflection: i -> -i mod N on a
    chain, rung k -> -k mod N/2 with the leg kept on a ladder."""
    n, site = lattice.n_sites, np.arange(lattice.n_sites)
    perm = -site % n if lattice.geometry == "chain" else 2 * (-(site // 2) % (n // 2)) + site % 2
    configs = np.arange(2 ** n)
    out = np.empty_like(vecs)
    out[sum(((configs >> i) & 1) << int(p) for i, p in enumerate(perm))] = vecs
    return out


@pytest.mark.parametrize("model, n", [
    (model, n) for model in (xxz(-0.7), j1j2(1.0, 0.3), transverse_ising(0.8),
                             ladder_model(0.6), general_xyz(0.8, 1.2, 0.9),
                             general_xyz(0.8, 1.2, 0.9, 0.3), general_xyz(0.8, 0.8, 1.3),
                             general_xyz(0.8, 0.8, 1.3, 0.3))
    for n in range(2, 10) if not (model.family == "ladder" and (n % 2 or n < 4))],
    ids=lambda v: getattr(v, "family", v))
def test_symmetry_blocks_resolve_the_full_space(model, n):
    # N = 2 chains and 4-site ladders have a reflection that moves no site,
    # and the j1j2 ring of 4 repeats each nnn bond
    lattice = family_spec(model.family).lattice(n)
    full = enumerate_sector(lattice, None)
    params = model.as_dict()
    sz_conserved = model.family != "ising" and params.get("jx") == params.get("jy")
    no_field = model.family != "ising" and params.get("h", 0.0) == 0.0
    action = HamiltonianAction(model, full)
    sol = dense_spectrum(action.blocks())
    exact = np.linalg.eigvalsh(hamiltonian_dense(model, full))
    assert np.max(np.abs(np.sort(sol.energies) - exact)) <= 1e-12
    vecs = sol.vectors
    assert np.max(np.abs(vecs.T @ vecs - np.eye(full.dimension))) <= 1e-12
    assert np.max(sol.residuals) <= 1e-12
    assert np.all(np.linalg.norm(action(vecs) - vecs * sol.energies, axis=0) <= 1e-12)
    up = popcount(full.configs)
    reflected = _reflected(lattice, vecs)
    inverted = vecs[::-1]  # flipping every spin of c gives 2**n - 1 - c
    for c in range(full.dimension):
        vec = vecs[:, c]
        sectors = set(up[vec != 0] if sz_conserved else up[vec != 0] % 2)
        assert len(sectors) == 1
        mirror = reflected[:, c] @ vec
        assert abs(abs(mirror) - 1.0) <= 1e-12
        assert np.max(np.abs(reflected[:, c] - mirror * vec)) <= 1e-12
        # spin inversion splits Sz = 0 and, at even N, the parity sectors
        if no_field and (2 * sectors.pop() == n if sz_conserved else n % 2 == 0):
            flip = inverted[:, c] @ vec
            assert abs(abs(flip) - 1.0) <= 1e-12
            assert np.max(np.abs(inverted[:, c] - flip * vec)) <= 1e-12


@pytest.mark.parametrize("model, n", [
    (model, n) for model in (xxz(-0.7), j1j2(1.0, 0.3), ladder_model(0.6),
                             general_xyz(0.8, 0.8, 1.3), general_xyz(0.8, 0.8, 1.3, 0.3))
    for n in (range(4, 9, 2) if model.family == "ladder" else range(2, 10))],
    ids=lambda v: getattr(v, "family", v))
def test_momentum_blocks_match_the_oracle_in_sz_sectors(model, n):
    # each Sz sector basis of a family that conserves Sz, with and without
    # a field; the full bases are test_symmetry_blocks_resolve_the_full_space's
    lattice = family_spec(model.family).lattice(n)
    for sz_twice in range(-n, n + 1, 2):
        basis = enumerate_sector(lattice, sz_twice)
        action = HamiltonianAction(model, basis)
        sol = dense_spectrum(action.blocks())
        exact = np.linalg.eigvalsh(hamiltonian_dense(model, basis))
        assert np.max(np.abs(np.sort(sol.energies) - exact)) <= 1e-12
        vecs = sol.vectors
        assert np.max(np.abs(vecs.T @ vecs - np.eye(basis.dimension))) <= 1e-12
        assert np.max(sol.residuals) <= 1e-12
        assert np.max(np.linalg.norm(action(vecs) - vecs * sol.energies, axis=0)) <= 1e-12


def test_layout_refuses_a_reflection_the_bonds_break(monkeypatch, fresh_bases):
    assert np.array_equal(_reflection(chain(5)), [0, 4, 3, 2, 1])
    assert np.array_equal(_reflection(ladder(8)), [0, 1, 6, 7, 4, 5, 2, 3])
    assert _reflection(chain(2)) is None and _reflection(ladder(4)) is None
    # i -> -i sends the open-chain bond (0, 1) to (0, 5), which is no bond,
    # so H couples the reflection's blocks and the layout refuses them
    monkeypatch.setitem(models.BOND_PAIRS, "nn",
                        lambda lat: [(i, i + 1) for i in range(lat.n_sites - 1)])
    with pytest.raises(ValueError, match="couples two symmetry blocks"):
        HamiltonianAction(xxz(0.5), enumerate_sector(chain(6), None)).blocks()


def test_layout_refuses_a_translation_the_bonds_break(monkeypatch, fresh_bases):
    # the 5-site ring cut between sites 2 and 3 keeps the reflection i -> -i
    # but no translation, so only the momentum blocks are no symmetry of H
    cut = [(3, 4), (4, 0), (0, 1), (1, 2)]
    mirrored = {tuple(sorted(int(_reflection(chain(5))[i]) for i in pair)) for pair in cut}
    assert mirrored == {tuple(sorted(pair)) for pair in cut}
    monkeypatch.setitem(models.BOND_PAIRS, "nn", lambda lat: cut)
    for sz_twice in (None, 1):
        with pytest.raises(ValueError, match="couples two symmetry blocks"):
            HamiltonianAction(xxz(0.5), enumerate_sector(chain(5), sz_twice)).blocks()


def test_layout_checks_cover_and_symmetry_once(monkeypatch):
    # a solve on a layout's blocks skips both checks, so the layout runs them
    lattice = chain(6)
    real_blocks, real_term = models._symmetry_blocks, models._term

    def fresh():
        return SectorBasis(lattice, None, np.arange(2 ** 6))

    def dropping(lat, configs, invert):  # the last block loses a column
        blocks = real_blocks(lat, configs, invert)
        rows, (coefs,) = blocks[-1]  # momentum pi: a 1-D irrep, no partner
        return blocks[:-1] + [(rows[:, :-1], (coefs[:, :-1],))]

    monkeypatch.setattr(models, "_symmetry_blocks", dropping)
    with pytest.raises(ValueError, match="exactly once"):
        HamiltonianAction(xxz(0.5), fresh()).blocks()
    monkeypatch.setattr(models, "_symmetry_blocks", real_blocks)

    def lopsided(basis, pairs, part):  # T D, with D diagonal and invariant under
        term = real_term(basis, pairs, part)  # both symmetries, keeps the blocks
        if part != "anti":
            return term
        return term @ sparse.diags(2.0 + real_term(basis, pairs, "zz"))

    monkeypatch.setattr(models, "_term", lopsided)
    with pytest.raises(ValueError, match="not symmetric"):
        HamiltonianAction(xxz(0.5), fresh()).blocks()


def test_layout_checks_each_partner_against_its_first_block(monkeypatch):
    # a partner with its first column negated spans the same states, so
    # nothing couples two blocks, but its matrix is not its first block's
    real_blocks = models._symmetry_blocks

    def negated(lat, configs, invert):
        blocks = real_blocks(lat, configs, invert)
        for b, (rows, coefs) in enumerate(blocks):
            if len(coefs) == 2 and rows.shape[1] > 1:
                partner = coefs[1].copy()
                partner[:, 0] *= -1.0
                blocks[b] = (rows, (coefs[0], partner))
        return blocks

    monkeypatch.setattr(models, "_symmetry_blocks", negated)
    with pytest.raises(ValueError, match="partner block of H differs"):
        HamiltonianAction(xxz(0.5), SectorBasis(chain(6), None, np.arange(2 ** 6))).blocks()


@pytest.mark.parametrize("delta", [-0.5, 0.5, 1.0, 2.0])
def test_multiplet_members_come_out_in_sz_order(delta):
    # levels within the degeneracy tolerance of each other keep block order
    # (Sz ascending), not the order of their last bits
    basis = enumerate_sector(chain(8), None)
    sol = dense_spectrum(HamiltonianAction(xxz(delta), basis).blocks())
    sz = np.array([sz_twice_label(basis, vec) for vec in sol.vectors.T])
    ascending = np.sort(sol.energies)
    tol = degeneracy_tolerance(ascending[-1] - ascending[0])
    multiplet = np.cumsum(np.diff(ascending, prepend=ascending[0]) > tol)
    member_of = multiplet[np.searchsorted(ascending, sol.energies - tol)]
    assert np.all(np.diff(member_of) >= 0)
    for m in np.unique(member_of):
        assert np.all(np.diff(sz[member_of == m]) >= 0)
    if delta == 1.0:  # the lowest triplet, one member per Sz
        assert np.array_equal(sz[1:4], [-2, 0, 2])
        assert np.ptp(sol.energies[1:4]) <= 1e-12


def test_dense_reconstruction():
    basis = enumerate_sector(chain(6), 0)
    m = hamiltonian_dense(xxz(0.5), basis)
    sol = dense_spectrum(one_block(m))
    rebuilt = sol.vectors @ np.diag(sol.energies) @ sol.vectors.T
    assert np.max(np.abs(m - rebuilt)) <= 1e-9 * max(1.0, np.max(np.abs(m)))


def test_lanczos_matches_dense_sector():
    basis = enumerate_sector(chain(8), 0)   # dimension 70
    model = xxz(1.0)
    dense = dense_spectrum(one_block(hamiltonian_dense(model, basis)))
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
    dense = dense_spectrum(one_block(hamiltonian_dense(model, basis)))
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
    sol = lanczos_lowest_k(action, basis.dimension, 2)
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
    # a cyclic shift is not symmetric: no Ritz pair it yields has a small
    # residual, so every restart fails and the budget runs out
    with pytest.raises(ConvergenceError):
        lanczos_lowest_k(lambda v: np.roll(v, 1, axis=0), 40, 4)


def test_phase_convention_largest_amplitude_positive():
    basis = enumerate_sector(chain(6), 0)
    sol = dense_spectrum(one_block(hamiltonian_dense(xxz(1.0), basis)))
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
    dense = dense_spectrum(one_block(m))
    k = rng.randint(1, min(5, dim) + 1)
    lanc = lanczos_lowest_k(lambda v: m @ v, dim, k, seed=seed)
    assert np.allclose(lanc.energies, dense.energies[:k], atol=1e-9)


def test_ritz_check_is_scipy_bit_for_bit():
    # the Ritz check calls dstebz and dstein itself; scipy's tridiagonal
    # solvers, which validate first, make the same calls
    rng = np.random.RandomState(17)
    for n in range(2, 321):
        alphas, betas = rng.standard_normal(n), rng.standard_normal(n - 1)
        if n % 7 == 0:
            betas[rng.rand(n - 1) < 0.1] = 0.0  # split into blocks
        nwant = n if n % 5 == 0 and n <= 60 else rng.randint(1, min(n, 8) + 1)
        theta, s_mat, top = eigensolver._ritz(alphas, betas, nwant)
        ref_theta, ref_s = eigh_tridiagonal(alphas, betas, select="i",
                                            select_range=(0, nwant - 1))
        ref_top = eigvalsh_tridiagonal(alphas, betas, select="i",
                                       select_range=(n - 1, n - 1))
        assert np.array_equal(theta, ref_theta) and np.array_equal(s_mat, ref_s)
        assert top == ref_top[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_lanczos_on_the_smallest_spaces(monkeypatch, dim):
    # a Krylov sequence that ends at its first step leaves a 1 x 1
    # tridiagonal matrix, which the Ritz check solves without LAPACK: the
    # only one at dim 1, the certifying restart's at dim 2
    m = np.array([[0.3, -0.8], [-0.8, 1.1]])[:dim, :dim]
    sizes, ritz = [], eigensolver._ritz

    def recorded(alphas, betas, nwant):
        sizes.append(len(alphas))
        return ritz(alphas, betas, nwant)
    monkeypatch.setattr(eigensolver, "_ritz", recorded)
    sol = lanczos_lowest_k(lambda v: m @ v, dim, 1)
    assert sizes[-1] == 1
    assert abs(sol.energies[0] - np.linalg.eigvalsh(m)[0]) <= 1e-14
    assert np.max(sol.residuals) <= 1e-14


@pytest.mark.parametrize("apply", [
    lambda basis: (lambda v: np.full_like(v, np.nan)),
    # the public constructors skip build_model's check of the parameters
    lambda basis: HamiltonianAction(xxz(float("nan")), basis),
], ids=["closure", "model"])
def test_lanczos_refuses_a_non_finite_operator(apply):
    # LAPACK's tridiagonal solvers are undefined on NaN, so the Ritz check
    # refuses it rather than report garbage or a convergence failure
    basis = enumerate_sector(chain(8), 0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        lanczos_lowest_k(apply(basis), basis.dimension, 2)


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
    assert np.max(np.abs(sol.energies - dense_spectrum(one_block(m)).energies[:k])) <= 1e-10
    assert np.max(np.abs(sol.vectors.T @ sol.vectors - np.eye(k))) <= 1e-12


def test_lanczos_majumdar_ghosh_pair_needs_no_second_pass():
    # J2 = J1/2 ring of 12: the two dimer coverings, both at -3N/8
    basis = enumerate_sector(chain(12), 0)
    sol = lanczos_lowest_k(HamiltonianAction(j1j2(1.0, 0.5), basis), basis.dimension, 2)
    assert np.max(np.abs(sol.energies + 4.5)) <= 1e-10
    assert np.max(np.abs(sol.vectors.T @ sol.vectors - np.eye(2))) <= 1e-12
    assert sol.meta["second_passes"] == 0


def test_lanczos_keeps_a_long_krylov_sequence_orthonormal():
    # the first sequence of this ring runs past 60 steps, where a basis that
    # is never reorthogonalized loses orthogonality to about 1e-2; it ends at
    # a Ritz check, so its length is CHECK_EVERY times the checks recorded
    basis = enumerate_sector(chain(12), 0)
    action = HamiltonianAction(j1j2(1.0, 0.5), basis)
    seen = []

    def apply(v):
        seen.append(v.copy())
        return action(v)

    sol = lanczos_lowest_k(apply, basis.dimension, 2, seed=7)
    steps = CHECK_EVERY * len(sol.meta["ritz_history"])
    assert steps > 60
    krylov = np.array(seen[:steps])
    assert np.max(np.abs(krylov @ krylov.T - np.eye(steps))) <= 1e-7


@pytest.mark.parametrize("j2", [0.3, 0.5])
def test_lanczos_reorthogonalizes_only_where_the_basis_drifts(j2):
    basis = enumerate_sector(chain(12), 0)
    model = j1j2(1.0, j2)
    sol = lanczos_lowest_k(HamiltonianAction(model, basis), basis.dimension, 2)
    dense = dense_spectrum(one_block(hamiltonian_dense(model, basis)))
    assert np.max(np.abs(sol.energies - dense.energies[:2])) <= 1e-10
    assert np.max(np.abs(sol.vectors.T @ sol.vectors - np.eye(2))) <= 1e-12
    assert sol.meta["steps"] < sol.meta["matvecs"]
    assert 0 < sol.meta["reorthogonalizations"] < sol.meta["steps"] / 4


def test_lanczos_closes_the_ferromagnetic_multiplet():
    # Delta = -1 ring of 10, full space: an 11-fold S = 5 ground level, which
    # takes many deflated restarts, each adding to the converged set
    basis = enumerate_sector(chain(10), None)
    model = xxz(-1.0)
    sol = lanczos_lowest_k(HamiltonianAction(model, basis), basis.dimension, 12)
    dense = dense_spectrum(one_block(hamiltonian_dense(model, basis)), vectors=False).energies
    assert np.ptp(dense[:11]) <= 1e-12 and dense[11] > dense[10] + 0.1
    assert np.max(np.abs(sol.energies - dense[:12])) <= 1e-10
    assert np.max(np.abs(sol.vectors.T @ sol.vectors - np.eye(12))) <= 1e-10


def _lapack_calls(monkeypatch):
    """Record every symmetric LAPACK call ``dense_spectrum`` makes, with
    a copy of the (P, d, d) stack of matrices it solves."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(mat, _real=real, _name=name):
            calls.append((_name, np.array(mat)))
            return _real(mat)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("vectors", [True, False])
def test_mirrored_sectors_cost_one_lapack_call_each(monkeypatch, n, vectors):
    # one call per distinct block dimension, whose stack holds each distinct
    # block of that dimension once: the Sz >= 0 sectors split by momentum
    # and the reflection, and Sz = 0 by spin inversion too; the -m blocks
    # and the partner of each block between momenta 0 and pi are free
    dims = {6: [1] * 11 + [2] * 3 + [3] * 4,
            8: [1] * 8 + [2] * 5 + [3] * 4 + [4] * 4 + [5] * 6 + [7] * 4}[n]
    blocks = HamiltonianAction(xxz(0.6), enumerate_sector(chain(n), None)).blocks()
    distinct = list({id(mat): mat for _, _, mat in blocks}.values())
    assert sorted(len(mat) for mat in distinct) == dims
    calls = _lapack_calls(monkeypatch)
    dense_spectrum(blocks, levels=3, vectors=vectors)
    assert len(calls) == len(set(dims))
    assert all(name == ("eigh" if vectors else "eigvalsh") for name, _ in calls)
    for _, stack in calls:
        same = [mat for mat in distinct if len(mat) == stack.shape[-1]]
        assert np.array_equal(stack, np.stack(same))


@pytest.mark.parametrize("vectors", [True, False])
def test_blocks_of_one_dim_in_one_call_equal_their_own_calls(monkeypatch, vectors):
    # two distinct 4 x 4 blocks of a batch of three matrices share one
    # LAPACK call; each level comes out bitwise as when its block is
    # solved as a matrix of its own, in a call of its own
    rng = np.random.RandomState(3)
    stacks = [rng.standard_normal((3, 4, 4)) for _ in range(2)]
    stacks = [s + s.transpose(0, 2, 1) for s in stacks]
    rows = [np.array([[0, 2, 4, 6]]), np.array([[1, 3, 5, 7]])]
    ones = np.ones((1, 4))
    calls = _lapack_calls(monkeypatch)
    both = dense_spectra([(r, ones, s) for r, s in zip(rows, stacks)], vectors=vectors)
    assert [stack.shape for _, stack in calls] == [(6, 4, 4)]
    calls.clear()
    alone = [dense_spectra([(np.arange(4)[None], ones, s)], vectors=vectors) for s in stacks]
    assert [stack.shape for _, stack in calls] == [(3, 4, 4)] * 2
    for p, got in enumerate(both):
        own = [solutions[p] for solutions in alone]
        assert np.array_equal(got.energies, np.sort(np.concatenate([o.energies for o in own])))
        if not vectors:
            continue
        for b, (r, want) in enumerate(zip(rows, own)):
            kept = [c for c, (block, _) in enumerate(got.block_levels) if block == b]
            assert np.array_equal(got.energies[kept], want.energies)
            assert np.array_equal(got.residuals[kept], want.residuals)
            assert np.array_equal(got.vectors[r[0]][:, kept], want.vectors)
            assert all(np.array_equal(got.block_levels[c][1], vec)
                       for c, (_, vec) in zip(kept, want.block_levels))


def test_mirrored_levels_are_equal_and_minus_m_comes_first():
    n = 8
    basis = enumerate_sector(chain(n), None)
    sol = dense_spectrum(HamiltonianAction(xxz(0.6), basis).blocks())
    sz = np.array([sz_twice_label(basis, sol.vectors[:, c]) for c in range(sol.k)])
    for m in range(2, n + 1, 2):
        minus, plus = np.flatnonzero(sz == -m), np.flatnonzero(sz == m)
        assert len(minus) == len(plus) > 0
        assert np.array_equal(sol.energies[minus], sol.energies[plus])
        assert np.all(minus < plus)


@pytest.mark.parametrize("levels", [6, 256])
@pytest.mark.parametrize("models", [
    [xxz(d) for d in (-1.0, -0.3, 0.6, 1.0, 2.0)],  # mirrored Sz blocks, multiplets
    [transverse_ising(lam) for lam in (0.5, 0.9, 1.0, 1.3)],  # parity groups
    [general_xyz(0.8, 1.2, 0.9, h) for h in (0.1, 0.2, 0.4)],
])
def test_batched_solves_equal_single_solves(models, levels):
    # every field of each matrix's solution, every lifted vector included, is
    # bitwise that matrix's own solve, whatever levels the other matrices keep
    basis = enumerate_sector(chain(8), None)
    actions = [HamiltonianAction(model, basis) for model in models]
    batch = dense_spectra(stacked_blocks(actions), levels=levels)
    assert len(batch) == len(actions)
    for action, got in zip(actions, batch):
        want = dense_spectrum(action.blocks(), levels=levels)
        assert got.vectors.shape == (basis.dimension, levels)
        for name in ("energies", "vectors", "residuals"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert [b for b, _ in got.block_levels] == [b for b, _ in want.block_levels]
        assert all(np.array_equal(g, w) for (_, g), (_, w) in
                   zip(got.block_levels, want.block_levels))
        assert (got.meta, got.block_labels) == (want.meta, want.block_labels)


def test_full_spectrum_lift_stays_within_its_vectors_memory():
    # the lift runs block by block, so no index array or temporary spans
    # the whole matrix; one scatter over all blocks peaks at several times
    blocks = HamiltonianAction(transverse_ising(0.9), enumerate_sector(chain(10), None)).blocks()
    tracemalloc.start()
    try:
        sol = dense_spectrum(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.vectors.shape == (1024, 1024)
    assert peak <= 2.5 * sol.vectors.nbytes


def test_energies_only_levels_do_not_depend_on_levels():
    rng = np.random.RandomState(8)
    a = rng.standard_normal((30, 30))
    blocks = HamiltonianAction(j1j2(1.0, 0.4), enumerate_sector(chain(8), None)).blocks()
    for matrix in (one_block(a + a.T), blocks):
        full = dense_spectrum(matrix, vectors=False).energies
        for levels in range(1, len(full) + 1):
            part = dense_spectrum(matrix, levels=levels, vectors=False).energies
            assert np.array_equal(part, full[:levels])


def test_block_rows_must_cover_every_row_once():
    # the layout checks its blocks' rows; dense_spectrum takes any order
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    shifted = m + 3.0 * np.eye(2)
    for first, second in ([0, 1], [1, 2]), ([0, 1], [3, 4]), ([0, 1], [-2, 2]):
        with pytest.raises(ValueError, match="exactly once"):
            models._check_cover([np.array([first]), np.array([second])],
                                [np.ones((1, 2))] * 2, 4)
    sol = dense_spectrum([(np.array([[3, 1]]), np.ones((1, 2)), m),
                          (np.array([[2, 0]]), np.ones((1, 2)), shifted)])
    assert np.allclose(sol.energies, [-0.5, 0.5, 2.5, 3.5])
    half = np.sqrt(0.5)
    assert np.allclose(np.abs(sol.vectors[:, 0]), [0.0, half, 0.0, half])
    assert sol.vectors[3, 0] == pytest.approx(-sol.vectors[1, 0])
    assert np.allclose(np.abs(sol.vectors[:, 2]), [half, 0.0, half, 0.0])


@pytest.mark.parametrize("vectors", [True, False])
def test_lapack_failure_is_a_convergence_error(monkeypatch, vectors):
    def broken(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh" if vectors else "eigvalsh", broken)
    with pytest.raises(ConvergenceError, match="did not converge"):
        dense_spectrum(one_block(np.eye(3)), vectors=vectors)


@pytest.mark.parametrize("model, sites, sz_twice, k", [
    (j1j2(1.0, 0.3), 14, 0, 2),    # dim 3432, one certifying restart
    (xxz(-1.0), 10, None, 12),     # dim 1024, 22 restarts on an 11-fold ground level
])
def test_lanczos_stays_within_one_krylov_store(model, sites, sz_twice, k):
    # every deflation restart reuses the call's one Krylov store; a fresh
    # store per restart, allocated while the last is still held, peaks at two
    basis = enumerate_sector(chain(sites), sz_twice)
    dim = basis.dimension
    action = HamiltonianAction(model, basis)
    action(np.zeros(dim))  # the operator is built and cached before tracing
    store = (min(dim, max(3 * k + 80, 320)) + 1) * dim * 8
    tracemalloc.start()
    try:
        sol = lanczos_lowest_k(action, dim, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.meta["restarts"] >= 2
    assert peak <= 1.5 * store


def test_lanczos_workspace_leaks_nothing_between_calls():
    # A, then B on another basis of another dimension, then A again with
    # the same seed: A's first solution is left as it was returned, the
    # second is bitwise equal to it, and no returned array shares memory
    # with another solution's
    basis_a, basis_b = enumerate_sector(chain(10), 0), enumerate_sector(chain(8), None)
    action_a = HamiltonianAction(j1j2(1.0, 0.5), basis_a)
    action_b = HamiltonianAction(xxz(-1.0), basis_b)
    first = lanczos_lowest_k(action_a, basis_a.dimension, 3, seed=11)
    returned = copy.deepcopy(first)
    other = lanczos_lowest_k(action_b, basis_b.dimension, 4, seed=11)
    again = lanczos_lowest_k(action_a, basis_a.dimension, 3, seed=11)
    names = ("energies", "vectors", "residuals")
    for sol in (first, again):
        for name in names:
            assert getattr(sol, name).tobytes() == getattr(returned, name).tobytes()
        assert sol.meta == returned.meta
    assert other.meta["restarts"] >= 2 and other.vectors.shape == (256, 4)
    arrays = [(i, getattr(sol, name)) for i, sol in enumerate((first, other, again))
              for name in names]
    for i, x in arrays:
        for j, y in arrays:
            assert i == j or not np.shares_memory(x, y)
