import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle as orc
from spinqpt.lattice import chain, ladder, enumerate_sector, popcount
from spinqpt.models import (HamiltonianAction, _term, apply_hamiltonian, general_xyz,
                            j1j2, ladder_model, transverse_ising, xxz)

SQ2 = np.sqrt(2.0)


# --- model checks ----------------------------------------------------------

def test_geometry_mismatch_rejected():
    with pytest.raises(ValueError):
        HamiltonianAction(ladder_model(1.0), enumerate_sector(chain(4), None))
    with pytest.raises(ValueError):
        HamiltonianAction(xxz(1.0), enumerate_sector(ladder(4), None))


def test_ising_requires_positive_coupling():
    with pytest.raises(ValueError):
        transverse_ising(-1.0)


# --- symmetries -------------------------------------------------------------

def _block_sector(rows, coefs, sz_conserved):
    """The number of up spins (or its parity) that every row of a block
    shares; fails when the block mixes sectors."""
    counts = set(popcount(rows[coefs != 0]).tolist())
    labels = counts if sz_conserved else {c % 2 for c in counts}
    assert len(labels) == 1
    return labels.pop()


def test_conserved_quantities():
    # the full space splits into N + 1 Sz sectors when the model conserves
    # Sz (per model: xyz with jx == jy does), else into two parity groups,
    # and each sector further by momentum (k = 0, pi / 2, pi), the
    # reflection (sites 1 <-> 3 at N = 4) and, with no z field, spin
    # inversion where it maps a sector to itself
    full = enumerate_sector(chain(4), None)
    for model, sz_conserved, dims in (
            (xxz(0.3), True, [1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
            (general_xyz(1.0, 1.0, 0.5), True, [1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
            (transverse_ising(1.0), False, [4, 1, 1, 1, 1, 2, 2, 2, 2]),
            (general_xyz(1.0, 0.5, 0.5), False,
             [3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])):
        blocks = HamiltonianAction(model, full).blocks()
        assert [len(mat) for _, _, mat in blocks] == dims
        sectors = [_block_sector(rows, coefs, sz_conserved) for rows, coefs, _ in blocks]
        assert sectors == sorted(sectors)
        assert set(sectors) == (set(range(5)) if sz_conserved else {0, 1})


def test_sector_basis_rejected_for_ising():
    basis = enumerate_sector(chain(4), 0)
    vec = np.zeros(basis.dimension)
    vec[0] = 1.0
    with pytest.raises(ValueError):
        apply_hamiltonian(transverse_ising(1.0), basis, vec)


# --- applying the Hamiltonian ----------------------------------------------

def test_two_site_singlet_is_heisenberg_eigenstate():
    basis = enumerate_sector(chain(2), None)
    vec = np.zeros(4)
    vec[0b01] = 1.0 / SQ2   # site0 up, site1 down
    vec[0b10] = -1.0 / SQ2
    # the N=2 ring lists bond (0, 1) twice, so H = 2 s0.s1 and the singlet
    # energy is 2 * (-3/4)
    out = apply_hamiltonian(xxz(1.0), basis, vec)
    assert np.allclose(out, -1.5 * vec, atol=1e-14)


def test_pair_coupling_with_aligned_flips_rejects_sz_sector():
    basis = enumerate_sector(chain(4), 0)
    vec = np.ones(basis.dimension) / np.sqrt(basis.dimension)
    with pytest.raises(ValueError, match="does not conserve Sz"):
        apply_hamiltonian(general_xyz(1.0, 0.5, 1.0), basis, vec)


def test_neel_state_action_xxz():
    n = 4
    basis = enumerate_sector(chain(n), None)
    neel = 0b0101
    vec = np.zeros(16)
    vec[neel] = 1.0
    delta = 0.7
    out = apply_hamiltonian(xxz(delta), basis, vec)
    # diagonal: all 4 bonds anti-aligned -> -delta/4 each
    assert out[neel] == pytest.approx(-delta, abs=1e-14)
    # off-diagonal: each bond flip contributes 1/2
    flipped = [neel ^ 0b0011, neel ^ 0b0110, neel ^ 0b1100, neel ^ 0b1001]
    for c in flipped:
        assert out[c] == pytest.approx(0.5, abs=1e-14)
    assert np.sum(out != 0.0) == 5


def test_ising_zero_coupling_limit_is_field_only():
    # lambda -> 0 is outside the model's domain, so check the field term by
    # comparing against the xyz family with the same sign conventions
    n = 4
    basis = enumerate_sector(chain(n), None)
    model = general_xyz(0.0, 0.0, 0.0, h=-0.5)
    for c in (0b0000, 0b1010, 0b1111):
        vec = np.zeros(16)
        vec[c] = 1.0
        out = apply_hamiltonian(model, basis, vec)
        n_up = bin(c).count("1")
        assert out[c] == pytest.approx(-0.5 * (n_up - (n - n_up)) / 2.0, abs=1e-14)
        assert np.count_nonzero(out) in (0, 1)


@pytest.mark.parametrize("model", [
    xxz(0.5), j1j2(1.0, 0.4), transverse_ising(0.8),
    general_xyz(0.9, 0.3, -0.5, h=0.2),
])
def test_dense_matches_oracle_chain(model):
    n = 6
    basis = enumerate_sector(chain(n), None)
    mat = HamiltonianAction(model, basis).matrix.toarray()
    if model.family == "xxz":
        ref = orc.h_xxz(n, model.param("delta"))
    elif model.family == "j1j2":
        ref = orc.h_j1j2(n, model.param("j1"), model.param("j2"))
    elif model.family == "ising":
        ref = orc.h_ising(n, model.param("lam"))
    else:
        ref = orc.h_xyz(n, model.param("jx"), model.param("jy"),
                        model.param("jz"), model.param("h"))
    assert np.max(np.abs(ref.imag)) < 1e-14
    assert np.allclose(mat, ref.real, atol=1e-13)


@pytest.mark.parametrize("n, sector", [
    (8, None),
    (4, None),   # a 2-rung ladder lists each leg bond twice
    (4, 0),
])
def test_dense_matches_oracle_ladder(n, sector):
    basis = enumerate_sector(ladder(n), sector)
    mat = HamiltonianAction(ladder_model(0.7), basis).matrix.toarray()
    ref = orc.h_ladder(n, 0.7)[np.ix_(basis.configs, basis.configs)]
    assert np.allclose(mat, ref.real, atol=1e-13)


def test_dense_exactly_symmetric_all_families():
    for model, lat in [(xxz(0.5), chain(6)), (j1j2(1.0, 0.4), chain(6)),
                       (transverse_ising(0.8), chain(6)),
                       (general_xyz(0.9, 0.3, -0.5, h=0.2), chain(6)),
                       (ladder_model(0.7), ladder(6))]:
        mat = HamiltonianAction(model, enumerate_sector(lat, None)).matrix.toarray()
        assert np.max(np.abs(mat - mat.T)) == 0.0


def test_dense_agrees_with_apply_on_unit_vectors():
    basis = enumerate_sector(chain(6), 0)
    model = xxz(1.0)
    mat = orc.hamiltonian_dense(model, basis)
    action = HamiltonianAction(model, basis)
    for k in range(basis.dimension):
        e = np.zeros(basis.dimension)
        e[k] = 1.0
        assert np.array_equal(mat[:, k], action(e))


def test_xxz_trace_zero():
    mat = HamiltonianAction(xxz(0.8), enumerate_sector(chain(4), None)).matrix.toarray()
    assert abs(np.trace(mat)) < 1e-13


def test_sector_preserved_by_conserving_families():
    basis = enumerate_sector(chain(8), 2)
    rng = np.random.RandomState(7)
    vec = rng.standard_normal(basis.dimension)
    for model in (xxz(0.3), j1j2(1.0, 0.25)):
        out = apply_hamiltonian(model, basis, vec)
        # applying in-sector returns in-sector by construction; compare with
        # the full-space application restricted to the sector
        full = enumerate_sector(chain(8), None)
        lifted = np.zeros(full.dimension)
        lifted[basis.configs] = vec
        out_full = apply_hamiltonian(model, full, lifted)
        mask = np.ones(full.dimension, dtype=bool)
        mask[basis.configs] = False
        assert np.max(np.abs(out_full[mask])) == 0.0
        assert np.allclose(out_full[basis.configs], out, atol=1e-13)


def test_parity_invariance_transverse_ising():
    basis = enumerate_sector(chain(6), None)
    model = transverse_ising(1.3)
    rng = np.random.RandomState(3)
    vec = rng.standard_normal(basis.dimension)
    vec /= np.linalg.norm(vec)
    signs = 1.0 - 2.0 * ((basis.n_sites - popcount(basis.configs)) % 2)
    flipped = signs * vec
    action = HamiltonianAction(model, basis)
    assert flipped @ action(flipped) == pytest.approx(vec @ action(vec), abs=1e-12)


def test_xyz_reduces_to_xxz_and_ising():
    basis = enumerate_sector(chain(6), None)
    for delta in (-0.5, 1.0, 2.0):
        a = HamiltonianAction(general_xyz(1.0, 1.0, delta), basis).matrix.toarray()
        b = HamiltonianAction(xxz(delta), basis).matrix.toarray()
        assert np.array_equal(a, b)
    for lam in (0.5, 1.0):
        a = HamiltonianAction(general_xyz(-lam, 0.0, 0.0, h=-0.5), basis).matrix.toarray()
        b = HamiltonianAction(transverse_ising(lam), basis).matrix.toarray()
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["xxz", "j1j2", "ising", "xyz"]),
       st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False),
       st.integers(0, 2 ** 31 - 1))
def test_apply_is_linear(family, a, b, seed):
    model = {"xxz": xxz(0.4), "j1j2": j1j2(1.0, 0.3),
             "ising": transverse_ising(0.9),
             "xyz": general_xyz(0.7, 0.2, -0.4, h=0.1)}[family]
    basis = enumerate_sector(chain(6), None)
    rng = np.random.RandomState(seed)
    u = rng.standard_normal(basis.dimension)
    v = rng.standard_normal(basis.dimension)
    action = HamiltonianAction(model, basis)
    lhs = action(a * u + b * v)
    rhs = a * action(u) + b * action(v)
    assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, abs(a) + abs(b)))


def _oracle_matrix(model, n):
    p = model.as_dict()
    ref = {"xxz": lambda: orc.h_xxz(n, p.get("delta")),
           "j1j2": lambda: orc.h_j1j2(n, p.get("j1"), p.get("j2")),
           "ising": lambda: orc.h_ising(n, p.get("lam")),
           "ladder": lambda: orc.h_ladder(n, p.get("j_rung"), p.get("j_leg")),
           "xyz": lambda: orc.h_xyz(n, p.get("jx"), p.get("jy"), p.get("jz"),
                                    p.get("h"))}[model.family]()
    assert np.max(np.abs(ref.imag)) < 1e-14
    return ref.real


@pytest.mark.parametrize("model, n, sector", [  # sector: 2Sz, None for the full space
    (j1j2(1.0, 0.6), 4, None),                     # duplicated NNN bonds
    (j1j2(1.0, 0.6), 4, 0),
    (xxz(-0.7), 5, None),                          # odd full-space chain
    (transverse_ising(0.8), 5, None),
    (general_xyz(0.9, 0.3, -0.5, h=0.4), 5, None),  # aligned flips and a field
    (xxz(1.3), 6, 2),
    (j1j2(1.0, 0.35), 6, -2),
])
def test_dense_matches_oracle_on_basis(model, n, sector):
    basis = enumerate_sector(chain(n), sector)
    ref = _oracle_matrix(model, n)[np.ix_(basis.configs, basis.configs)]
    assert np.allclose(HamiltonianAction(model, basis).matrix.toarray(), ref, atol=1e-13)


@pytest.mark.parametrize("model, lattice, sector", [  # sector: 2Sz, None for the full space
    (xxz(0.5), chain(6), None),
    (xxz(-1.0), chain(8), 0),
    (j1j2(1.0, 0.6), chain(4), None),                # duplicated NNN bonds
    (j1j2(1.0, 0.35), chain(7), -1),
    (transverse_ising(0.8), chain(5), None),
    (ladder_model(0.7), ladder(4), None),            # duplicated leg bonds
    (ladder_model(0.7), ladder(8), 2),
    (general_xyz(0.9, 0.3, -0.5, h=0.4), chain(6), None),   # aligned flips and a field
    (general_xyz(0.8, 0.8, 1.3, h=0.3), chain(6), 0),
], ids=lambda v: getattr(v, "family", None))
def test_oracle_matrix_matches_the_kronecker_products(model, lattice, sector):
    # the tests' whole-basis reference, built entry by entry from the model
    # tables, against the Kronecker products of Pauli matrices
    basis = enumerate_sector(lattice, sector)
    ref = _oracle_matrix(model, lattice.n_sites)[np.ix_(basis.configs, basis.configs)]
    assert np.max(np.abs(orc.hamiltonian_dense(model, basis) - ref)) <= 1e-13


def test_actions_on_one_basis_share_cached_terms():
    basis = enumerate_sector(chain(8), 0)
    assert enumerate_sector(chain(8), 0) is basis
    a = HamiltonianAction(j1j2(1.0, 0.2), basis)
    b = HamiltonianAction(j1j2(1.0, 0.7), basis)
    flips = [[_term(basis, *key) for key in action.keys if key[1] == "anti"]
             for action in (a, b)]
    assert len(flips[0]) == len(flips[1]) == 2
    assert all(ta is tb for ta, tb in zip(*flips))
    # nearest-neighbour flips serve every chain family on the basis
    xxz_flip = [key for key in HamiltonianAction(xxz(0.5), basis).keys if key[1] == "anti"]
    assert _term(basis, *xxz_flip[0]) is flips[0][0]


@pytest.mark.parametrize("model, lattice, sector", [  # sector: 2Sz, None for the full space
    (xxz(0.6), chain(6), None),
    (xxz(0.0), chain(6), 0),                         # zz at amplitude 0
    (j1j2(1.0, 0.5), chain(4), None),                # NNN pairs listed twice
    (j1j2(1.0, 0.0), chain(7), None),                # nnn flips at amplitude 0
    (j1j2(0.8, 0.3), chain(8), 2),
    (transverse_ising(0.7), chain(6), None),
    (ladder_model(0.7), ladder(6), None),
    (ladder_model(0.0), ladder(6), 0),               # rungs at amplitude 0
    (general_xyz(0.9, 0.3, -0.5, h=0.4), chain(5), None),   # aligned flips and a field
    (general_xyz(1.0, -1.0, 0.0, h=0.2), chain(6), None),   # anti flips and zz at 0
], ids=lambda v: getattr(v, "family", None))
def test_merged_operator_matches_the_dense_matrix(model, lattice, sector):
    basis = enumerate_sector(lattice, sector)
    action = HamiltonianAction(model, basis)
    dense = orc.hamiltonian_dense(model, basis)
    rng = np.random.RandomState(5)
    block = rng.standard_normal((basis.dimension, 3))
    assert np.max(np.abs(action(block) - dense @ block)) <= 1e-13
    assert np.max(np.abs(action(block[:, 1]) - dense @ block[:, 1])) <= 1e-13
    assert np.array_equal(action.matrix.toarray(), dense)


def test_actions_on_one_basis_share_the_merged_pattern():
    basis = enumerate_sector(chain(8), 0)
    a = HamiltonianAction(j1j2(1.0, 0.2), basis).matrix
    b = HamiltonianAction(j1j2(1.0, 0.7), basis).matrix
    assert np.shares_memory(a.indices, b.indices) and np.shares_memory(a.indptr, b.indptr)
    assert not np.shares_memory(a.data, b.data)
    for arr in (a.indices, a.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # without the nnn flips the pattern is another one
    assert not np.shares_memory(HamiltonianAction(j1j2(1.0, 0.0), basis).matrix.indices,
                                a.indices)


# --- mirrored Sz sectors ------------------------------------------------------

def _isometry(rows, coefs, dim):
    """The block's columns as dense vectors of the whole space (tests only)."""
    iso = np.zeros((dim, rows.shape[1]))
    for idx, coef in zip(rows, coefs):
        iso[idx, np.arange(rows.shape[1])] += coef
    return iso


@pytest.mark.parametrize("model, n", [
    (model, n) for model in (xxz(-0.7), j1j2(1.0, 0.3), ladder_model(0.6),
                             general_xyz(0.8, 0.8, 1.3))
    for n in (6, 7, 8) if not (model.family == "ladder" and n % 2)],
    ids=lambda v: getattr(v, "family", v))
def test_zero_field_sz_sectors_share_their_mirror(model, n):
    # spin inversion maps Sz = -m onto +m and commutes with H, the
    # translations and the reflection, so each -m block is the +m block
    # object itself, paired with the inverted orbit table
    lattice = ladder(n) if model.family == "ladder" else chain(n)
    full = enumerate_sector(lattice, None)
    blocks = HamiltonianAction(model, full).blocks()
    by_up = {}
    for block in blocks:
        by_up.setdefault(_block_sector(block[0], block[1], True), []).append(block)
    assert sorted(by_up) == list(range(n + 1))
    # the distinct matrices are the Sz >= 0 blocks but the partners, each
    # of which follows its first block and holds that block's matrix
    sources = [mat for up in by_up if 2 * up >= n
               for i, (_, _, mat) in enumerate(by_up[up])
               if i == 0 or mat is not by_up[up][i - 1][2]]
    assert len({id(mat) for _, _, mat in blocks}) == len({id(mat) for mat in sources}) \
        == len(sources) < sum(len(by_up[up]) for up in by_up if 2 * up >= n)
    for up in range(n + 1):
        if 2 * up >= n:
            continue
        assert len(by_up[up]) == len(by_up[n - up])
        for (rows, coefs, mat), (src_rows, src_coefs, src_mat) in zip(by_up[up], by_up[n - up]):
            assert mat is src_mat
            assert np.array_equal(rows, src_rows ^ ((1 << n) - 1))
            assert np.array_equal(coefs, src_coefs)
    # every block, shared or not, is H restricted to its columns
    dense = orc.hamiltonian_dense(model, full)
    for rows, coefs, mat in blocks:
        iso = _isometry(rows, coefs, full.dimension)
        assert np.max(np.abs(iso.T @ dense @ iso - mat)) <= 1e-13


def _translated(lattice, configs):
    """Each configuration moved by one translation: one site along a chain,
    one rung along a ladder (tests only)."""
    n, shift = lattice.n_sites, 1 if lattice.geometry == "chain" else 2
    return ((configs << shift) | (configs >> (n - shift))) & ((1 << n) - 1)


@pytest.mark.parametrize("model, lattice, sz_twice", [
    (xxz(-0.7), chain(8), None), (xxz(-0.7), chain(7), 1), (j1j2(1.0, 0.3), chain(6), 0),
    (ladder_model(0.6), ladder(8), None), (ladder_model(0.6), ladder(6), 0),
    (transverse_ising(0.8), chain(8), None), (transverse_ising(0.8), chain(5), None),
    (general_xyz(0.8, 0.8, 1.3, 0.3), chain(6), None)],
    ids=lambda v: getattr(v, "family", str(v)))
def test_translation_acts_on_blocks_by_their_momentum(model, lattice, sz_twice):
    # T maps a 1-D block's columns to +-1 times themselves (k = 0 or pi),
    # and a block and its partner to each other as the rotation by k
    basis = enumerate_sector(lattice, sz_twice)
    blocks = HamiltonianAction(model, basis).blocks()
    steps = lattice.n_sites if lattice.geometry == "chain" else lattice.rungs
    moved = np.searchsorted(basis.configs, _translated(lattice, basis.configs))
    partnered, rotations = set(), 0
    for b, (rows, coefs, mat) in enumerate(blocks):
        if b in partnered:
            continue
        iso = _isometry(rows, coefs, basis.dimension)
        d = iso.shape[1]
        nxt = blocks[b + 1] if b + 1 < len(blocks) else None
        if nxt is not None and nxt[2] is mat and np.array_equal(nxt[0], rows):
            partnered.add(b + 1)
            iso = np.hstack([iso, _isometry(nxt[0], nxt[1], basis.dimension)])
        shifted = np.zeros_like(iso)
        shifted[moved] = iso
        act = iso.T @ shifted
        assert np.max(np.abs(shifted - iso @ act)) <= 1e-12  # the columns span T's image
        cos = act[0, 0]
        if iso.shape[1] == d:
            assert abs(abs(cos) - 1.0) <= 1e-12
            assert np.max(np.abs(act - cos * np.eye(d))) <= 1e-12
            continue
        rotations += 1
        m = steps * np.arccos(cos) / (2 * np.pi)
        assert 0 < round(m) < steps / 2 and abs(m - round(m)) <= 1e-9
        sin = np.sin(2 * np.pi * round(m) / steps)
        want = np.kron([[cos, -sin], [sin, cos]], np.eye(d))
        assert np.max(np.abs(act - want)) <= 1e-12
    assert rotations > 0 and len(partnered) == rotations


@pytest.mark.parametrize("model, lattice, largest", [
    (xxz(0.6), chain(8), 7), (j1j2(1.0, 0.3), chain(8), 7),
    (ladder_model(0.6), ladder(8), 14), (transverse_ising(0.8), chain(8), 18)],
    ids=lambda v: getattr(v, "family", str(v)))
def test_largest_full_space_blocks_at_eight_sites(model, lattice, largest):
    blocks = HamiltonianAction(model, enumerate_sector(lattice, None)).blocks()
    assert max(len(mat) for _, _, mat in blocks) == largest


def test_a_z_field_shares_no_sector_matrix():
    model = general_xyz(0.8, 0.8, 1.3, 0.3)
    full = enumerate_sector(chain(6), None)
    blocks = HamiltonianAction(model, full).blocks()
    # a block shares its matrix only with the partner that follows it, in
    # its own sector
    partners = [m for m in range(1, len(blocks)) if blocks[m][2] is blocks[m - 1][2]]
    assert len({id(mat) for _, _, mat in blocks}) == len(blocks) - len(partners) == 26
    assert all(_block_sector(*blocks[m][:2], True) == _block_sector(*blocks[m - 1][:2], True)
               for m in partners)
    # no spin inversion anywhere: the orbit tables hold 12 rows, one per
    # translation and reflection, and Sz = 0 splits in 8 blocks, not 12
    assert all(len(rows) == 12 for rows, _, _ in blocks)
    by_up = {}
    for rows, coefs, mat in blocks:
        by_up.setdefault(_block_sector(rows, coefs, True), []).append((rows, coefs, mat))
    assert [len(by_up[up]) for up in range(7)] == [1, 6, 7, 8, 7, 6, 1]
    for up, sector_blocks in by_up.items():
        covered = np.concatenate([rows[coefs != 0] for rows, coefs, _ in sector_blocks])
        assert np.array_equal(np.unique(covered),
                              enumerate_sector(chain(6), 2 * up - 6).configs)
    # the field splits the mirror images: the Sz = -1 blocks are not the +1 ones
    for (_, _, minus), (_, _, plus) in zip(by_up[2], by_up[4]):
        assert minus.shape == plus.shape and not np.array_equal(minus, plus)
    dense = orc.hamiltonian_dense(model, full)
    for rows, coefs, mat in blocks:
        iso = _isometry(rows, coefs, full.dimension)
        assert np.max(np.abs(iso.T @ dense @ iso - mat)) <= 1e-13


def test_a_zero_coupling_reuses_the_block_layout(monkeypatch, fresh_bases):
    # zz and anti parts stay in the layout at amplitude 0, so Delta = 0
    # needs no second layout on a basis that already has one for 0.5
    import spinqpt.models as models
    layout, built = models._layout, []

    def counted(*args):
        built.append(args)
        return layout(*args)
    monkeypatch.setattr(models, "_layout", counted)
    full = enumerate_sector(chain(8), None)
    HamiltonianAction(xxz(0.5), full).blocks()
    blocks = HamiltonianAction(xxz(0.0), full).blocks()
    assert len(built) == 1
    energies = np.sort(np.concatenate([np.linalg.eigvalsh(mat) for _, _, mat in blocks]))
    exact = np.linalg.eigvalsh(orc.hamiltonian_dense(xxz(0.0), full))
    assert np.max(np.abs(energies - exact)) <= 1e-12


def test_blocks_a_term_couples_are_refused(monkeypatch, fresh_bases):
    # a site swap that is no symmetry of the ring splits each sector into
    # blocks that H couples; the layout checks W^T T W and refuses them
    import spinqpt.models as models
    monkeypatch.setattr(models, "_reflection",
                        lambda lattice: np.array([1, 0, 2, 3, 4, 5]))
    with pytest.raises(ValueError, match="couples two symmetry blocks"):
        HamiltonianAction(xxz(0.5), enumerate_sector(chain(6), None)).blocks()


def test_cached_layout_arrays_are_read_only():
    # every later solve on the basis shares the layout, so a caller that
    # writes to a block's orbit table must fail rather than corrupt it
    full = enumerate_sector(chain(6), None)
    for rows, coefs, _ in HamiltonianAction(xxz(0.5), full).blocks():
        with pytest.raises(ValueError, match="read-only"):
            rows[:, [0, -1]] = rows[:, [-1, 0]]
        with pytest.raises(ValueError, match="read-only"):
            coefs[0] = 0.0
