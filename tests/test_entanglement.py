import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle as orc
from spinqpt.entanglement import (ising_closed_form, spin_flip, validate_rdm,
                                  wootters_concurrence, xxz_closed_form)

SQ2 = np.sqrt(2.0)

SINGLET_RDM = np.array([[0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.5, -0.5, 0.0],
                        [0.0, -0.5, 0.5, 0.0],
                        [0.0, 0.0, 0.0, 0.0]])


def werner(p):
    return p * SINGLET_RDM + (1.0 - p) * np.eye(4) / 4.0


def test_spin_flip_fixes_singlet():
    assert np.allclose(spin_flip(SINGLET_RDM), SINGLET_RDM, atol=1e-14)


def test_spin_flip_fixes_maximally_mixed():
    assert np.allclose(spin_flip(np.eye(4) / 4.0), np.eye(4) / 4.0, atol=1e-14)


def test_spin_flip_swaps_polarized_projectors():
    up = np.zeros((4, 4))
    up[0, 0] = 1.0
    down = np.zeros((4, 4))
    down[3, 3] = 1.0
    assert np.allclose(spin_flip(up), down, atol=1e-14)


def test_wootters_singlet_maximal():
    c = wootters_concurrence(SINGLET_RDM)
    assert c.value == pytest.approx(1.0, abs=1e-10)
    assert c.method == "wootters"


def test_wootters_product_zero():
    up = np.zeros((4, 4))
    up[0, 0] = 1.0
    assert wootters_concurrence(up).value == pytest.approx(0.0, abs=1e-12)


def test_wootters_werner_frozen_value():
    # closed form max(0, (3p-1)/2) at p = 0.8 gives 0.7
    c = wootters_concurrence(werner(0.8))
    assert c.value == pytest.approx(0.7, abs=1e-10)
    # independent 4x4 brute-force eigen-oracle agrees
    assert orc.concurrence(werner(0.8)) == pytest.approx(0.7, abs=1e-10)
    # below the separability threshold the clamp engages
    c = wootters_concurrence(werner(0.2))
    assert c.value == 0.0 and c.raw < 0.0


def test_wootters_matches_oracle_on_random_mixtures():
    rng = np.random.RandomState(21)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        rho = a @ a.T
        rho /= np.trace(rho)
        mine = wootters_concurrence(rho).value
        ref = orc.concurrence(rho.astype(complex))
        assert mine == pytest.approx(ref, abs=1e-9)


def test_wootters_complex_path():
    # conjugation by a complex local unitary leaves concurrence unchanged
    theta = 0.7
    u = np.array([[np.cos(theta), 1j * np.sin(theta)],
                  [1j * np.sin(theta), np.cos(theta)]])
    big = np.kron(u, np.eye(2))
    rho = big @ werner(0.8) @ big.conj().T
    c = wootters_concurrence(rho)
    assert c.value == pytest.approx(0.7, abs=1e-10)


def test_wootters_rejects_invalid():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(4))  # trace 4
    bad = SINGLET_RDM.copy()
    bad[0, 3] = 0.3  # not Hermitian-consistent / not PSD
    with pytest.raises(ValueError):
        wootters_concurrence(bad + bad.T - np.diag(np.diag(bad)) * 0)
    with pytest.raises(ValueError):
        validate_rdm(np.eye(3) / 3.0)


def test_xxz_closed_form_examples():
    assert xxz_closed_form(-0.75).value == pytest.approx(1.0)
    c = xxz_closed_form(-0.5)
    assert c.value == pytest.approx(0.5)
    assert c.method == "xxz_closed"
    c = xxz_closed_form(0.75)
    assert c.value == 0.0 and c.raw == pytest.approx(-2.0)


def test_ising_closed_form_examples():
    c = ising_closed_form(0.0, 0.0, 0.25)
    assert c.value == 0.0 and c.raw == pytest.approx(-1.0)
    # singlet correlators sit outside the form's validity domain: the
    # formula gives 0 where Wootters gives 1 (documented divergence)
    c = ising_closed_form(-0.25, -0.25, -0.25)
    assert c.raw == pytest.approx(0.0, abs=1e-14)
    assert wootters_concurrence(SINGLET_RDM).value == pytest.approx(1.0, abs=1e-10)


def _random_so2(rng):
    t = rng.uniform(0, 2 * np.pi)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_local_orthogonal_invariance(seed):
    rng = np.random.RandomState(seed)
    a = rng.standard_normal((4, 4))
    rho = a @ a.T
    rho /= np.trace(rho)
    u = np.kron(_random_so2(rng), _random_so2(rng))
    rotated = u @ rho @ u.T
    c0 = wootters_concurrence(rho).value
    c1 = wootters_concurrence(rotated).value
    assert c1 == pytest.approx(c0, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_concurrence_always_in_unit_interval(seed):
    rng = np.random.RandomState(seed)
    a = rng.standard_normal((4, 4))
    rho = a @ a.T
    rho /= np.trace(rho)
    c = wootters_concurrence(rho)
    assert 0.0 <= c.value <= 1.0
    assert c.value == max(0.0, min(1.0, c.raw))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.one_of(st.none(), st.floats(-12.0, -6.0)))
@example(3068636, None)  # smallest eigenvalue 5.4e-9 as drawn
def test_local_orthogonal_invariance_near_singular(seed, log_smallest):
    # the smallest eigenvalue of rho is set to 10**log_smallest; square
    # roots of near-zero eigenvalues must not amplify rounding in C
    rng = np.random.RandomState(seed)
    a = rng.standard_normal((4, 4))
    rho = a @ a.T
    rho /= np.trace(rho)
    u = np.kron(_random_so2(rng), _random_so2(rng))
    if log_smallest is not None:
        evals, vecs = np.linalg.eigh(rho)
        evals[0] = 10.0 ** log_smallest
        rho = (vecs * evals) @ vecs.T
        rho = 0.5 * (rho + rho.T) / np.trace(rho)
    c0 = wootters_concurrence(rho).raw
    c1 = wootters_concurrence(u @ rho @ u.T).raw
    assert c1 == pytest.approx(c0, abs=1e-11)
