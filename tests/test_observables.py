import numpy as np
import pytest

import oracle as orc
from spinqpt.lattice import chain, ladder, enumerate_sector, lift_to_full
from spinqpt.models import (HamiltonianAction, j1j2, ladder_model, transverse_ising, xxz,
                            general_xyz)
from spinqpt.eigensolver import dense_spectrum
from spinqpt.analysis import SolverOptions, solve_model
from spinqpt.observables import (bond_averaged_correlators, collective_apply,
                                 correlator, label_state, level_labels, parity,
                                 rearranged_sum_rule, structure_factor,
                                 sum_rule_residual, total_spin,
                                 transition_weights, two_site_rdm)

SQ2 = np.sqrt(2.0)


def singlet_state(n=2):
    basis = enumerate_sector(chain(n), None)
    vec = np.zeros(basis.dimension)
    vec[0b01] = 1.0 / SQ2
    vec[0b10] = -1.0 / SQ2
    return basis, vec


def ground(model, n, lat=None):
    basis = enumerate_sector(lat or chain(n), None)
    sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(model, basis)))
    return basis, sol


# --- reduced density matrices ----------------------------------------------

def test_singlet_rdm():
    basis, vec = singlet_state()
    rho = two_site_rdm(basis, vec, 0, 1)
    expect = np.zeros((4, 4))
    expect[1, 1] = expect[2, 2] = 0.5
    expect[1, 2] = expect[2, 1] = -0.5
    assert np.allclose(rho, expect, atol=1e-14)


def test_product_state_rdm_is_projector():
    basis = enumerate_sector(chain(4), None)
    vec = np.zeros(16)
    vec[0b1111] = 1.0
    rho = two_site_rdm(basis, vec, 1, 3)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0  # both up
    assert np.allclose(rho, expect, atol=1e-14)


def test_rdm_matches_oracle_heisenberg():
    basis, sol = ground(xxz(1.0), 4)
    _, g = sol.ground()
    rho = two_site_rdm(basis, g, 0, 1)
    _, psi = orc.ground_state(orc.h_xxz(4, 1.0))
    ref = orc.rdm_pair(psi, 0, 1, 4)
    assert np.max(np.abs(ref.imag)) < 1e-12
    assert np.allclose(rho, ref.real, atol=1e-10)
    total = sum(correlator(basis, g, ax, 0, 1) for ax in "xyz")
    assert total == pytest.approx(-0.5, abs=1e-12)


def test_rdm_validation():
    basis = enumerate_sector(chain(4), None)
    with pytest.raises(ValueError):
        two_site_rdm(basis, np.ones(16), 0, 1)  # unnormalized
    vec = np.zeros(16)
    vec[3] = 1.0
    with pytest.raises(ValueError):
        two_site_rdm(basis, vec, 2, 2)
    with pytest.raises(ValueError):
        two_site_rdm(basis, vec, 0, 7)


def test_rdm_works_in_sector_basis():
    basis = enumerate_sector(chain(6), 0)
    model = xxz(0.4)
    sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(model, basis)))
    _, g = sol.ground()
    rho = two_site_rdm(basis, g, 0, 1)
    full, lifted = lift_to_full(basis, g)
    rho_full = two_site_rdm(full, lifted, 0, 1)
    assert np.allclose(rho, rho_full, atol=1e-13)


# --- correlators -------------------------------------------------------------

def test_singlet_z_correlator():
    basis, vec = singlet_state()
    assert correlator(basis, vec, "z", 0, 1) == pytest.approx(-0.25, abs=1e-14)


def test_neel_x_correlator_vanishes():
    basis = enumerate_sector(chain(4), None)
    vec = np.zeros(16)
    vec[0b0101] = 1.0
    assert correlator(basis, vec, "x", 0, 1) == pytest.approx(0.0, abs=1e-14)


def test_heisenberg_correlators_per_axis():
    # frozen: each axis gives -1/6 so the sum is E0/N = -1/2
    basis, sol = ground(xxz(1.0), 4)
    _, g = sol.ground()
    for ax in "xyz":
        assert correlator(basis, g, ax, 0, 1) == pytest.approx(-1.0 / 6.0, abs=1e-10)


def test_correlator_bounds_random_states():
    rng = np.random.RandomState(11)
    basis = enumerate_sector(chain(6), None)
    for _ in range(25):
        vec = rng.standard_normal(basis.dimension)
        vec /= np.linalg.norm(vec)
        for ax in "xyz":
            assert abs(correlator(basis, vec, ax, 0, 3)) <= 0.25 + 1e-12


# --- quantum numbers ---------------------------------------------------------

def test_total_spin_examples():
    basis, vec = singlet_state()
    s, s_sq = total_spin(basis, vec)
    assert s == 0.0 and abs(s_sq) < 1e-12
    up = np.zeros(4)
    up[0b11] = 1.0
    s, s_sq = total_spin(basis, up)
    assert s == 1.0 and s_sq == pytest.approx(2.0, abs=1e-12)


def test_first_excited_multiplet_heisenberg_n8():
    basis, sol = ground(xxz(1.0), 8)
    for c in (1, 2, 3):
        s, _ = total_spin(basis, sol.vectors[:, c])
        assert s == 1.0
    s, _ = total_spin(basis, sol.vectors[:, 0])
    assert s == 0.0


def test_total_spin_mixed_label():
    basis, _ = singlet_state()
    vec = np.zeros(4)
    vec[0b11] = vec[0b01] = 1.0 / SQ2  # superposes S=1 and mixed-S content
    s, s_sq = total_spin(basis, vec)
    assert s is None
    assert s_sq == pytest.approx(orc.total_spin_sq(
        np.array([0, 1 / SQ2, 0, 1 / SQ2]), 2), abs=1e-12)


@pytest.mark.parametrize("n, sz", [(5, None), (6, None), (6, 0), (6, 2), (7, -1)])
def test_total_spin_matches_oracle_on_random_states(n, sz):
    # full-space draws mix every Sz sector; sector draws are lifted first
    basis = enumerate_sector(chain(n), sz)
    rng = np.random.RandomState(10 * n + (sz or 0))
    for _ in range(3):
        vec = rng.standard_normal(basis.dimension)
        vec /= np.linalg.norm(vec)
        _, lifted = lift_to_full(basis, vec)
        _, s_sq = total_spin(basis, vec)
        assert s_sq == pytest.approx(orc.total_spin_sq(lifted, n), abs=1e-12)


def test_parity_examples():
    basis = enumerate_sector(chain(4), None)
    vec = np.zeros(16)
    vec[0b1111] = 1.0
    assert parity(basis, vec) == 1
    vec = np.zeros(16)
    vec[0b1110] = 1.0  # one flipped spin
    assert parity(basis, vec) == -1


def test_parity_ising_ferro_ground_state():
    basis, sol = ground(transverse_ising(2.0), 8)
    assert parity(basis, sol.vectors[:, 0]) == 1
    assert parity(basis, sol.vectors[:, 1]) == -1


def test_parity_rejects_sector_basis():
    basis = enumerate_sector(chain(4), 0)
    vec = np.zeros(basis.dimension)
    vec[0] = 1.0
    with pytest.raises(ValueError):
        parity(basis, vec)


def test_label_state_bundle():
    # N=6, Sz=0 means three down spins, so the flip parity is -1
    basis, sol = ground(xxz(1.0), 6)
    lab = label_state(basis, sol.vectors[:, 0])
    assert lab.sz_twice == 0 and lab.total_spin == 0.0 and lab.parity == -1


# --- collective operators ----------------------------------------------------

def test_uniform_z_is_eigenoperator():
    basis = enumerate_sector(chain(6), None)
    rng = np.random.RandomState(5)
    sector = enumerate_sector(chain(6), 2)
    vec = rng.standard_normal(sector.dimension)
    vec /= np.linalg.norm(vec)
    _, lifted = lift_to_full(sector, vec)
    out = collective_apply(basis, lifted, "z", 0.0)
    assert np.allclose(out, 1.0 * lifted, atol=1e-13)  # Sz = sz_twice / 2 = 1


def test_staggered_z_on_neel():
    basis = enumerate_sector(chain(4), None)
    vec = np.zeros(16)
    vec[0b0101] = 1.0
    out = collective_apply(basis, vec, "z", np.pi)
    # sum_j (-1)^j s_j^z gives +1/2 per site on the Neel state
    assert out[0b0101] == pytest.approx(2.0, abs=1e-14)
    assert np.count_nonzero(out) == 1


def test_uniform_x_twice_on_up_pair():
    basis = enumerate_sector(chain(2), None)
    vec = np.zeros(4)
    vec[0b11] = 1.0
    once = collective_apply(basis, vec, "x", 0.0)
    twice = collective_apply(basis, once, "x", 0.0)
    assert twice[0b11] == pytest.approx(0.5, abs=1e-14)


def test_collective_xy_require_full_basis():
    basis = enumerate_sector(chain(4), 0)
    vec = np.zeros(basis.dimension)
    vec[0] = 1.0
    with pytest.raises(ValueError):
        collective_apply(basis, vec, "x", 0.0)


def test_y_companion_squared_norm_matches_oracle():
    # |B psi|^2 must equal |A_y psi|^2 from the complex oracle operator
    n = 4
    basis = enumerate_sector(chain(n), None)
    rng = np.random.RandomState(9)
    vec = rng.standard_normal(16)
    vec /= np.linalg.norm(vec)
    out = collective_apply(basis, vec, "y", np.pi)
    a_y = sum((-1.0) ** j * orc.site_op(orc.SY, j, n) for j in range(n))
    ref = a_y @ vec
    assert np.vdot(ref, ref).real == pytest.approx(out @ out, abs=1e-12)


# --- transition weights and sum rules ---------------------------------------

def test_uniform_z_weights_concentrate_on_ground():
    basis, sol = ground(xxz(0.5), 6)
    _, g = sol.ground()
    tw = transition_weights(basis, g, sol, "uniform_z")
    assert tw.weights[0] == pytest.approx(0.0, abs=1e-12)  # Sz=0 ground state
    assert np.sum(tw.weights) == pytest.approx(0.0, abs=1e-12)
    assert np.all(tw.excitation_energies >= -1e-10)


def test_weight_completeness():
    basis, sol = ground(transverse_ising(1.0), 6)
    _, g = sol.ground()
    for tag in ("uniform_x", "staggered_y", "uniform_z"):
        tw = transition_weights(basis, g, sol, tag)
        axis = tag.split("_")[1]
        mom = 0.0 if tag.startswith("uniform") else np.pi
        amped = collective_apply(basis, g, axis, mom)
        assert tw.total_weight == pytest.approx(amped @ amped, abs=1e-11)


def test_staggered_z_dominant_weight_on_triplet():
    basis, sol = ground(xxz(1.0), 8)
    _, g = sol.ground()
    tw = transition_weights(basis, g, sol, "staggered_z")
    top = int(np.argmax(tw.weights))
    s, _ = total_spin(basis, sol.vectors[:, top])
    assert s == 1.0
    assert tw.weights[top] > 0.5 * tw.total_weight


def test_transition_weights_need_full_spectrum():
    basis = enumerate_sector(chain(6), None)
    model = xxz(0.5)
    sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(model, basis)))
    partial = type(sol)(sol.energies[:4], sol.vectors[:, :4], sol.residuals[:4])
    with pytest.raises(ValueError):
        transition_weights(basis, sol.vectors[:, 0], partial, "staggered_z")


@pytest.mark.parametrize("model,tag", [
    (xxz(0.5), "staggered_z"),
    (transverse_ising(1.0), "uniform_x"),
    (j1j2(1.0, 0.4), "staggered_y"),
    (general_xyz(0.8, 0.3, -0.2, h=0.1), "uniform_y"),
])
def test_sum_rule_identity(model, tag):
    rep = sum_rule_residual(model, chain(8), tag)
    assert rep.residual <= 1e-10


def test_sum_rule_ladder():
    rep = sum_rule_residual(ladder_model(0.5), ladder(8), "staggered_x")
    assert rep.residual <= 1e-10


def test_rearranged_forms():
    rep = rearranged_sum_rule(xxz(1.0), chain(8))
    assert rep.j_value == 3.0
    assert rep.residual <= 1e-10
    rep = rearranged_sum_rule(transverse_ising(1.0), chain(8))
    assert rep.j_value == -1.0
    assert rep.residual <= 1e-10
    with pytest.raises(ValueError):
        rearranged_sum_rule(j1j2(1.0, 0.2), chain(8))


# --- structure factor --------------------------------------------------------

def test_structure_factor_neel_maximum():
    basis = enumerate_sector(chain(4), None)
    vec = np.zeros(16)
    vec[0b0101] = 1.0
    assert structure_factor(basis, vec, "z", np.pi) == pytest.approx(1.0, abs=1e-13)


def test_structure_factor_polarized_cancels():
    basis = enumerate_sector(chain(6), None)
    vec = np.zeros(64)
    vec[0b111111] = 1.0
    assert structure_factor(basis, vec, "z", np.pi) == pytest.approx(0.0, abs=1e-13)


def test_structure_factor_afm_peak_at_pi():
    basis, sol = ground(xxz(1.0), 8)
    _, g = sol.ground()
    at_pi = structure_factor(basis, g, "z", np.pi)
    at_zero = structure_factor(basis, g, "z", 0.0)
    assert at_pi > at_zero


def test_sum_rule_master_grid():
    # the module's master check: residuals at roundoff across a small
    # parameter grid for every family at dense-feasible size
    cases = [
        (lambda p: xxz(p), chain(8), (-0.5, 0.5, 1.5), "staggered_x"),
        (lambda p: j1j2(1.0, p), chain(8), (0.2, 0.4, 0.6), "staggered_z"),
        (lambda p: transverse_ising(p), chain(8), (0.5, 1.0, 1.5), "uniform_y"),
        (lambda p: ladder_model(p), ladder(8), (-0.5, 0.0, 0.5), "staggered_y"),
        (lambda p: general_xyz(1.0, p, -0.3, h=0.2), chain(8), (-0.7, 0.4), "uniform_x"),
    ]
    for make, lat, grid, tag in cases:
        for p in grid:
            rep = sum_rule_residual(make(p), lat, tag)
            assert rep.residual <= 1e-10, (make(p).describe(), tag, rep.residual)


def test_su2_isotropy_of_heisenberg_ground_state():
    basis = enumerate_sector(chain(8), None)
    sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(xxz(1.0), basis)))
    _, g = sol.ground()
    vals = [correlator(basis, g, ax, 0, 1) for ax in "xyz"]
    assert max(vals) - min(vals) <= 1e-9
    s, _ = total_spin(basis, g)
    assert s == 0.0


def test_bond_averaged_matches_single_bond_when_invariant():
    basis = enumerate_sector(chain(6), None)
    model = xxz(0.5)
    sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(model, basis)))
    _, g = sol.ground()
    avg = bond_averaged_correlators(model, basis, g, kind="nn")
    single = [correlator(basis, g, ax, 0, 1) for ax in "xyz"]
    assert np.allclose(avg, single, atol=1e-10)


@pytest.mark.parametrize("model, lattice, kind", [
    (ladder_model(0.5), ladder(8), "nn"),
    (xxz(1.0), chain(6), "nnn"),
])
def test_bond_average_over_a_kind_the_model_lacks_is_rejected(model, lattice, kind):
    basis = enumerate_sector(lattice, 0)
    vec = np.ones(basis.dimension) / np.sqrt(basis.dimension)
    with pytest.raises(ValueError, match=f"no '{kind}' bonds"):
        bond_averaged_correlators(model, basis, vec, kind=kind)


# --- labels read from a dense level's symmetry block --------------------------

@pytest.mark.parametrize("model, lattice, sz_twice, cutoff", [
    pytest.param(xxz(-1.0), chain(8), None, 512, id="xxz-ferro-edge"),
    pytest.param(xxz(0.6), chain(8), None, 512, id="xxz-0.6"),
    pytest.param(xxz(1.0), chain(8), None, 512, id="xxz-heisenberg"),
    pytest.param(j1j2(1.0, 0.3), chain(8), None, 512, id="j1j2"),
    pytest.param(ladder_model(0.6), ladder(8), None, 512, id="ladder-8"),
    # the field leaves the parity groups without spin inversion
    pytest.param(transverse_ising(0.8), chain(8), None, 512, id="ising"),
    # parity groups split by spin inversion, under which Sz is odd
    pytest.param(general_xyz(0.8, 1.2, 0.9), chain(6), None, 512, id="xyz-h0-6"),
    pytest.param(general_xyz(0.8, 1.2, 0.9), chain(8), None, 512, id="xyz-h0-8"),
    pytest.param(general_xyz(0.8, 1.2, 0.9, 0.3), chain(8), None, 512, id="xyz-field"),
    pytest.param(xxz(0.6), chain(7), None, 512, id="xxz-odd-7"),
    pytest.param(transverse_ising(0.8), chain(7), None, 512, id="ising-odd-7"),
    pytest.param(j1j2(1.0, 0.3), chain(10), 0, 300, id="j1j2-sz0-10"),
])
def test_block_labels_match_the_lifted_vectors(model, lattice, sz_twice, cutoff):
    basis = enumerate_sector(lattice, sz_twice)
    sol = solve_model(model, basis, basis.dimension, SolverOptions(dense_cutoff=cutoff))
    assert sol.block_levels is not None and sol.vectors.shape[1] == sol.k
    parity_groups = model.family in ("ising", "xyz")  # both flip aligned pairs here
    blocks = HamiltonianAction(model, basis).labels()
    assert all(block.parity_group == parity_groups for block in blocks)
    labels = level_labels(basis, sol)
    for c, got in enumerate(labels):
        ref = label_state(basis, sol.vectors[:, c])
        assert (got.sz_twice, got.total_spin, got.parity) == \
            (ref.sz_twice, ref.total_spin, ref.parity), c
        assert abs(got.s_squared - ref.s_squared) <= 1e-12 * max(1.0, abs(ref.s_squared))
    # on parity groups some levels mix Sz sectors
    assert parity_groups == any(lab.sz_twice is None for lab in labels)
