import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle as orc
from spinqpt.lattice import chain, ladder, enumerate_sector, popcount
from spinqpt.models import (HamiltonianAction, ResourceLimitError,
                            apply_hamiltonian, general_xyz, hamiltonian_dense,
                            j1j2, ladder_model, sector_matrices,
                            transverse_ising, xxz)

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

def test_conserved_quantities():
    # the full space splits into N + 1 Sz sectors when the model conserves
    # Sz (per model: xyz with jx == jy does), else into two parity sectors
    full = enumerate_sector(chain(4), None)
    assert len(sector_matrices(xxz(0.3), full)) == 5
    assert len(sector_matrices(general_xyz(1.0, 1.0, 0.5), full)) == 5
    assert len(sector_matrices(transverse_ising(1.0), full)) == 2
    assert len(sector_matrices(general_xyz(1.0, 0.5, 0.5), full)) == 2


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
    mat = hamiltonian_dense(model, basis)
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
    mat = hamiltonian_dense(ladder_model(0.7), basis)
    ref = orc.h_ladder(n, 0.7)[np.ix_(basis.configs, basis.configs)]
    assert np.allclose(mat, ref.real, atol=1e-13)


def test_dense_exactly_symmetric_all_families():
    for model, lat in [(xxz(0.5), chain(6)), (j1j2(1.0, 0.4), chain(6)),
                       (transverse_ising(0.8), chain(6)),
                       (general_xyz(0.9, 0.3, -0.5, h=0.2), chain(6)),
                       (ladder_model(0.7), ladder(6))]:
        mat = hamiltonian_dense(model, enumerate_sector(lat, None))
        assert np.max(np.abs(mat - mat.T)) == 0.0


def test_dense_agrees_with_apply_on_unit_vectors():
    basis = enumerate_sector(chain(6), 0)
    model = xxz(1.0)
    mat = hamiltonian_dense(model, basis)
    action = HamiltonianAction(model, basis)
    for k in range(basis.dimension):
        e = np.zeros(basis.dimension)
        e[k] = 1.0
        assert np.array_equal(mat[:, k], action(e))


def test_xxz_trace_zero():
    mat = hamiltonian_dense(xxz(0.8), enumerate_sector(chain(4), None))
    assert abs(np.trace(mat)) < 1e-13


def test_dense_cap_enforced():
    with pytest.raises(ResourceLimitError):
        hamiltonian_dense(xxz(1.0), enumerate_sector(chain(8), None), cap=100)


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
        a = hamiltonian_dense(general_xyz(1.0, 1.0, delta), basis)
        b = hamiltonian_dense(xxz(delta), basis)
        assert np.array_equal(a, b)
    for lam in (0.5, 1.0):
        a = hamiltonian_dense(general_xyz(-lam, 0.0, 0.0, h=-0.5), basis)
        b = hamiltonian_dense(transverse_ising(lam), basis)
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
           "xyz": lambda: orc.h_xyz(n, p.get("jx"), p.get("jy"), p.get("jz"),
                                    p.get("h"))}[model.family]()
    assert np.max(np.abs(ref.imag)) < 1e-14
    return ref.real


@pytest.mark.parametrize("model, n, sector", [  # sector: 2Sz, or "even"/"odd" popcount
    (j1j2(1.0, 0.6), 4, None),                     # duplicated NNN bonds
    (j1j2(1.0, 0.6), 4, 0),
    (xxz(-0.7), 5, None),                          # odd full-space chain
    (transverse_ising(0.8), 5, None),
    (general_xyz(0.9, 0.3, -0.5, h=0.4), 5, None),  # aligned flips and a field
    (xxz(1.3), 6, 2),
    (j1j2(1.0, 0.35), 6, -2),
    (transverse_ising(0.8), 5, "even"),            # parity sectors with a field
    (transverse_ising(0.8), 5, "odd"),
    (general_xyz(0.9, 0.3, -0.5, h=0.4), 5, "even"),
    (general_xyz(0.9, 0.3, -0.5, h=0.4), 5, "odd"),
])
def test_dense_matches_oracle_on_basis(model, n, sector):
    if sector in ("even", "odd"):
        basis = enumerate_sector(chain(n), None, popcount_parity=int(sector == "odd"))
    else:
        basis = enumerate_sector(chain(n), sector)
    ref = _oracle_matrix(model, n)[np.ix_(basis.configs, basis.configs)]
    assert np.allclose(hamiltonian_dense(model, basis), ref, atol=1e-13)


def test_actions_on_one_basis_share_cached_terms():
    basis = enumerate_sector(chain(8), 0)
    assert enumerate_sector(chain(8), 0) is basis
    a = HamiltonianAction(j1j2(1.0, 0.2), basis)
    b = HamiltonianAction(j1j2(1.0, 0.7), basis)
    assert len(a.terms) == len(b.terms) == 2
    assert all(ta is tb for (_, ta), (_, tb) in zip(a.terms, b.terms))
    # nearest-neighbour flips serve every chain family on the basis
    assert HamiltonianAction(xxz(0.5), basis).terms[0][1] is a.terms[0][1]
