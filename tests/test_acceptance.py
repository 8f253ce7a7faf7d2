"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with ``pytest -s`` to see them inline).

Numeric targets are cross-checked against tests/oracle.py, an
independent Kronecker-product diagonalization written before the main
build.
"""

import time
from math import comb

import numpy as np
import pytest

import oracle as orc
from spinqpt import analysis
from spinqpt.lattice import chain, ladder, enumerate_sector, index_of, popcount
from spinqpt.models import (HamiltonianAction, apply_hamiltonian,
                            general_xyz, j1j2, ladder_model, transverse_ising, xxz)
from spinqpt.eigensolver import dense_spectrum, lanczos_lowest_k
from spinqpt.observables import (PAIR_OPS, correlator, sum_rule_residual,
                                 rearranged_sum_rule, total_spin, two_site_rdm)
from spinqpt.entanglement import wootters_concurrence, xxz_closed_form
from spinqpt.analysis import (GridSpec, SolverOptions, classify,
                              detect_crossings, derivative, locate_extrema,
                              scaling_study, sweep)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_sum_rule_identity():
    """Double-commutator identity residuals at or below 1e-10, N=8."""
    started = time.monotonic()
    lat = chain(8)
    worst = 0.0
    for delta in (-0.5, 0.5, 1.0, 2.0):
        model = xxz(delta)
        for tag in ("staggered_x", "staggered_y", "staggered_z"):
            rep = sum_rule_residual(model, lat, tag)
            worst = max(worst, rep.residual)
            assert rep.residual <= 1e-10, (delta, tag, rep.residual)
        re_rep = rearranged_sum_rule(model, lat)
        assert re_rep.j_value == 2.0 + delta
        assert re_rep.residual <= 1e-10
        worst = max(worst, re_rep.residual)
    for lam in (0.5, 1.0, 2.0):
        model = transverse_ising(lam)
        for tag in ("uniform_x", "uniform_y", "uniform_z"):
            rep = sum_rule_residual(model, lat, tag)
            worst = max(worst, rep.residual)
            assert rep.residual <= 1e-10, (lam, tag, rep.residual)
        re_rep = rearranged_sum_rule(model, lat)
        assert re_rep.j_value == -lam
        assert re_rep.residual <= 1e-10
        worst = max(worst, re_rep.residual)
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    report(1, f"21 identity + 7 rearranged residuals, worst {worst:.2e}, "
              f"{elapsed:.1f}s (budget 60s)")


def test_criterion_2_lanczos_dense_oracle_equivalence():
    """Lanczos lowest-4 equals dense spectra to 1e-9 across random draws."""
    started = time.monotonic()
    rng = np.random.RandomState(0xACCE)
    worst = 0.0
    checked = 0

    def check(model, basis, seed):
        nonlocal worst, checked
        dense = dense_spectrum(orc.one_block(orc.hamiltonian_dense(model, basis)))
        action = HamiltonianAction(model, basis)
        lanc = lanczos_lowest_k(action, basis.dimension, 4, seed=seed)
        diff = float(np.max(np.abs(lanc.energies - dense.energies[:4])))
        worst = max(worst, diff)
        checked += 1
        assert diff <= 1e-9, (model.describe(), diff)

    sz0_chain = enumerate_sector(chain(10), 0)
    sz0_ladder = enumerate_sector(ladder(10), 0)
    full_10 = enumerate_sector(chain(10), None)
    for draw in range(20):
        check(xxz(rng.uniform(-2, 2)), sz0_chain, seed=draw)
        check(j1j2(1.0, rng.uniform(-2, 2)), sz0_chain, seed=draw)
        check(ladder_model(rng.uniform(-2, 2)), sz0_ladder, seed=draw)
        check(transverse_ising(rng.uniform(1e-3, 2)), full_10, seed=draw)
        check(general_xyz(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(-2, 2)),
              full_10, seed=draw)
    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    report(2, f"{checked} solves across 5 families (N=10), worst "
              f"|dE| {worst:.2e}, {elapsed:.1f}s (budget 120s)")


@pytest.fixture(scope="module")
def canonical_sweeps():
    opts = SolverOptions()
    return {
        "xxz_wide": sweep("xxz", {}, GridSpec("delta", -2.0, 2.0, 0.02),
                          chain(8), k_levels=4, space="full", options=opts),
        "j1j2": sweep("j1j2", {"j1": 1.0}, GridSpec("j2", 0.3, 0.7, 0.005),
                      chain(8), k_levels=4, space="full", options=opts),
        "ladder": sweep("ladder", {"j_leg": 1.0},
                        GridSpec("j_rung", -1.0, 1.0, 0.01), ladder(8),
                        k_levels=6, pairs=("leg", "rung"), space="full",
                        options=opts),
        "ising": sweep("ising", {}, GridSpec("lam", 0.2, 2.0, 0.01),
                       chain(8), k_levels=4, space="full", options=opts),
    }


def test_criterion_3_table_crossing_structure(canonical_sweeps):
    """Level-crossing locations of the four desk-scale models at N=8."""
    started = time.monotonic()

    gs = [e for e in detect_crossings(canonical_sweeps["xxz_wide"], 0, 1)
          if e.kind == "true_crossing"]
    assert len(gs) == 1
    assert abs(gs[0].location - (-1.0)) <= 1e-3
    es = [e for e in detect_crossings(canonical_sweeps["xxz_wide"], 1, 2)
          if e.kind == "true_crossing" and e.location > 0]
    assert len(es) == 1
    assert abs(es[0].location - 1.0) <= 1e-6

    gs_j = [e for e in detect_crossings(canonical_sweeps["j1j2"], 0, 1)
            if e.kind == "true_crossing"]
    assert len(gs_j) == 1
    assert abs(gs_j[0].location - 0.5) <= 1e-6

    gs_l = [e for e in detect_crossings(canonical_sweeps["ladder"], 0, 1)
            if e.kind == "true_crossing"]
    assert gs_l == []
    ladder_es = []
    for a in range(1, 5):
        ladder_es += [e for e in detect_crossings(canonical_sweeps["ladder"], a, a + 1)
                      if e.kind == "true_crossing"]
    assert ladder_es, "expected an excited-state crossing for the ladder"
    assert min(abs(e.location) for e in ladder_es) <= 1e-6

    for pair in ((0, 1), (1, 2)):
        assert detect_crossings(canonical_sweeps["ising"], *pair) == []

    elapsed = time.monotonic() - started
    assert elapsed <= 300.0
    report(3, f"xxz GS {gs[0].location:+.7f}, xxz ES {es[0].location:+.7f}, "
              f"j1j2 GS {gs_j[0].location:.7f}, ladder ES at "
              f"{min(ladder_es, key=lambda e: abs(e.location)).location:+.2e}, "
              f"ising none; {elapsed:.1f}s (budget 300s)")


def test_criterion_4_type_classification(canonical_sweeps):
    """Types I / II / III for J1-J2, XXZ, Ising; stable under grid halving."""
    xxz_sweep = sweep("xxz", {}, GridSpec("delta", 0.0, 2.0, 0.01), chain(8),
                      k_levels=4, space="full")
    assert classify(canonical_sweeps["j1j2"]).type == "I"
    assert classify(xxz_sweep).type == "II"
    assert classify(canonical_sweeps["ising"]).type == "III"

    halved = {
        "I": classify(sweep("j1j2", {"j1": 1.0},
                            GridSpec("j2", 0.3, 0.7, 0.0025), chain(8),
                            k_levels=4, space="full")).type,
        "II": classify(sweep("xxz", {}, GridSpec("delta", 0.0, 2.0, 0.005),
                             chain(8), k_levels=4, space="full")).type,
        "III": classify(sweep("ising", {}, GridSpec("lam", 0.2, 2.0, 0.005),
                              chain(8), k_levels=4, space="full")).type,
    }
    assert halved == {"I": "I", "II": "II", "III": "III"}
    report(4, "j1j2 -> I, xxz -> II, ising -> III, unchanged under halving")


def test_criterion_5_concurrence_curves():
    """Fig.-1 shapes at N=8, cross-checked against the dense oracle."""
    res = sweep("j1j2", {"j1": 1.0}, GridSpec("j2", 0.0, 1.0, 0.005), chain(8),
                k_levels=2, space="full")
    grid = res.grid
    conc = res.concurrence()
    event = [e for e in detect_crossings(res, 0, 1) if e.kind == "true_crossing"][0]
    step = res.grid_spec.step
    below = np.where(grid <= event.location - 0.5 * step)[0][-1]
    above = np.where(grid >= event.location + 0.5 * step)[0][0]
    jump = abs(conc[above] - conc[below])
    assert jump > 0.05

    # independent oracle at the straddling points
    for idx in (below, above):
        ref = orc.nn_concurrence_ground(orc.h_j1j2(8, 1.0, grid[idx]), 8)
        assert conc[idx] == pytest.approx(ref, abs=1e-8)

    # flat and maximal near J2 = 0
    argmax = int(np.argmax(conc))
    assert grid[argmax] <= step + 1e-12
    head = conc[grid <= 0.2 + 1e-12]
    assert head.max() - head.min() <= 0.01

    res_x = sweep("xxz", {}, GridSpec("delta", 0.0, 2.0, 0.01), chain(8),
                  k_levels=2, space="full")
    arg = int(np.argmax(res_x.concurrence()))
    assert abs(res_x.grid[arg] - 1.0) <= 0.01 + 1e-12
    ref = orc.nn_concurrence_ground(orc.h_xxz(8, 1.0), 8)
    at_one = res_x.concurrence()[np.argmin(np.abs(res_x.grid - 1.0))]
    assert at_one == pytest.approx(ref, abs=1e-9)
    assert at_one == pytest.approx(0.412773352234, abs=1e-9)  # frozen oracle value

    report(5, f"j1j2 jump {jump:.3f} at {event.location:.6f}, flat head "
              f"spread {head.max() - head.min():.4f}, xxz argmax at "
              f"{res_x.grid[arg]:.2f} with C {at_one:.6f}")


def test_criterion_6_wootters_vs_closed_form():
    """General Wootters equals the correlator closed form on XXZ ground states."""
    worst = 0.0
    compared = 0
    for n in (6, 8, 10):
        basis = enumerate_sector(chain(n), 0)
        for delta in np.arange(-0.9, 2.0001, 0.05):
            sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(xxz(float(delta)), basis)))
            _, g = sol.ground()
            rho = two_site_rdm(basis, g, 0, 1)
            general = wootters_concurrence(rho)
            total = sum(correlator(basis, g, ax, 0, 1) for ax in "xyz")
            closed = xxz_closed_form(total)
            if closed.raw > 1e-6:
                diff = abs(general.value - closed.value)
                worst = max(worst, diff)
                compared += 1
                assert diff <= 1e-8, (n, delta, diff)
    assert compared > 100
    report(6, f"{compared} grid points compared, worst |dC| {worst:.2e}")


def test_criterion_7_isotropic_point_quantum_numbers():
    """Singlet ground state and threefold degenerate S=1 multiplet at Delta=1."""
    basis = enumerate_sector(chain(8), None)
    sol = dense_spectrum(orc.one_block(orc.hamiltonian_dense(xxz(1.0), basis)))
    s0, _ = total_spin(basis, sol.vectors[:, 0])
    assert s0 == 0.0
    spread = float(sol.energies[3] - sol.energies[1])
    assert spread <= 1e-9
    assert sol.energies[4] - sol.energies[3] > 1e-3  # multiplet ends at 3
    spins = []
    for c in (1, 2, 3):
        s, _ = total_spin(basis, sol.vectors[:, c])
        spins.append(s)
    assert spins == [1.0, 1.0, 1.0]
    report(7, f"ground S=0, first multiplet S=1 x3 with spread {spread:.1e}")


def test_criterion_8_derivative_minima_and_scaling(monkeypatch):
    """Finite-size drift of derivative extrema for Ising and J1-J2."""
    started = time.monotonic()
    # the study's own sweeps, which are sweep("ising", {}, grid, chain(n),
    # k_levels=2), so the minima below are checked without solving again
    swept = {}

    def recorded(family, *args, **kwargs):
        result = sweep(family, *args, **kwargs)
        swept[family, args[2].n_sites] = result
        return result

    monkeypatch.setattr(analysis, "sweep", recorded)
    ising = scaling_study("ising", {}, GridSpec("lam", 0.2, 2.0, 0.01),
                          [6, 8, 10, 12], 1, k_levels=2)
    assert [e.n_sites for e in ising.entries] == [6, 8, 10, 12]
    locs = [e.location for e in ising.entries]
    assert all(b < a for a, b in zip(locs, locs[1:])), locs

    # single interior minimum per size
    for n in (6, 8, 10, 12):
        res = swept["ising", n]
        gi, d1 = derivative(res.grid, res.concurrence(), 1)
        minima = [e for e in locate_extrema(gi, d1) if e.kind == "min"]
        assert len(minima) == 1, (n, minima)

    j1j2_res = scaling_study("j1j2", {"j1": 1.0}, GridSpec("j2", 0.2, 0.7, 0.01),
                             [8, 12, 16], 2, k_levels=2)
    assert [e.n_sites for e in j1j2_res.entries] == [8, 12, 16]

    elapsed = time.monotonic() - started
    assert elapsed <= 900.0
    report(8, f"ising d1 minima at {[round(l, 4) for l in locs]} (monotone), "
              f"j1j2 d2 minima at "
              f"{[round(e.location, 4) for e in j1j2_res.entries]}, "
              f"fit intercept {ising.intercept:.4f}, {elapsed:.0f}s (budget 900s)")


def test_criterion_9_randomized_invariant_suite():
    """>= 1000 randomized invariant checks with zero violations."""
    rng = np.random.RandomState(0x17A7)
    checks = 0

    # 300 random states: RDM trace / symmetry / PSD, concurrence and
    # correlator bounds
    for _ in range(300):
        n = int(rng.randint(4, 9))
        basis = enumerate_sector(chain(n), None)
        vec = rng.standard_normal(basis.dimension)
        vec /= np.linalg.norm(vec)
        i, j = rng.choice(n, size=2, replace=False)
        rho = two_site_rdm(basis, vec, int(i), int(j))
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.T)) == 0.0
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        c = wootters_concurrence(rho)
        assert 0.0 <= c.value <= 1.0
        for ax in "xyz":
            assert abs(float(np.sum(rho * PAIR_OPS[ax]))) <= 0.25 + 1e-12
        checks += 1

    # 250 basis round trips
    for _ in range(250):
        n = int(rng.randint(2, 13))
        sectors = list(range(-n, n + 1, 2))
        sz = int(sectors[rng.randint(len(sectors))])
        basis = enumerate_sector(chain(n), sz)
        assert basis.dimension == comb(n, (n + sz) // 2)
        if basis.dimension:
            k = int(rng.randint(basis.dimension))
            assert index_of(basis, int(basis.configs[k])) == k
        checks += 1

    # 200 linearity checks
    families = [lambda r: xxz(r.uniform(-2, 2)),
                lambda r: j1j2(1.0, r.uniform(-2, 2)),
                lambda r: transverse_ising(r.uniform(1e-3, 2)),
                lambda r: general_xyz(r.uniform(-2, 2), r.uniform(-2, 2),
                                      r.uniform(-2, 2), r.uniform(-2, 2))]
    basis6 = enumerate_sector(chain(6), None)
    for _ in range(200):
        model = families[rng.randint(len(families))](rng)
        action = HamiltonianAction(model, basis6)
        a, b = rng.uniform(-2, 2, size=2)
        u = rng.standard_normal(basis6.dimension)
        v = rng.standard_normal(basis6.dimension)
        err = np.max(np.abs(action(a * u + b * v) - a * action(u) - b * action(v)))
        assert err <= 1e-10 * max(1.0, abs(a) + abs(b)) * 10
        checks += 1

    # 100 exact hermiticity checks
    for _ in range(100):
        model = families[rng.randint(len(families))](rng)
        n = int(rng.choice([4, 6]))
        mat = HamiltonianAction(model, enumerate_sector(chain(n), None)).matrix.toarray()
        assert np.max(np.abs(mat - mat.T)) == 0.0
        checks += 1

    # 100 sector-preservation checks
    conserving = [lambda r: xxz(r.uniform(-2, 2)),
                  lambda r: j1j2(1.0, r.uniform(-2, 2))]
    full8 = enumerate_sector(chain(8), None)
    pops = popcount(full8.configs)
    for _ in range(100):
        model = conserving[rng.randint(2)](rng)
        m = int(rng.choice([-2, 0, 2]))
        sector = enumerate_sector(chain(8), m)
        vec = np.zeros(full8.dimension)
        vec[sector.configs] = rng.standard_normal(sector.dimension)
        out = apply_hamiltonian(model, full8, vec)
        assert np.max(np.abs(out[pops != (8 + m) // 2])) == 0.0
        checks += 1

    # 50 determinism checks under a fixed seed
    basis_det = enumerate_sector(chain(8), 0)
    for trial in range(50):
        model = xxz(float(rng.uniform(-2, 2)))
        action = HamiltonianAction(model, basis_det)
        a = lanczos_lowest_k(action, basis_det.dimension, 2, seed=trial)
        b = lanczos_lowest_k(action, basis_det.dimension, 2, seed=trial)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.vectors, b.vectors)
        checks += 1

    assert checks >= 1000
    report(9, f"{checks} randomized invariant checks, zero violations")
