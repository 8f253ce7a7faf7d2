import dataclasses

import numpy as np
import pytest

from spinqpt.eigensolver import ConvergenceError
from spinqpt.lattice import chain, ladder
from spinqpt.models import BOND_PAIRS, FAMILY_TABLE
from spinqpt.analysis import (GridSpec, PointConfig, SolverOptions, build_model, classify,
                              derivative, detect_crossings, fit_inverse_size,
                              locate_extrema, parse_space, resolve_pairs,
                              scaling_study, space_name, sweep)


# --- grids and model building ------------------------------------------------

def test_grid_values_uniform():
    grid = GridSpec("delta", 0.0, 1.0, 0.25)
    assert grid.count == 5
    assert np.allclose(grid.values(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec("delta", 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        GridSpec("delta", 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        GridSpec("delta", 0.0, 1.0, 0.3)  # step does not divide the span


def test_build_model_dispatch():
    assert build_model("xxz", {"delta": 0.5}).describe() == "xxz(delta=0.5)"
    assert build_model("j1j2", {"j2": 0.3}).param("j1") == 1.0
    with pytest.raises(ValueError):
        build_model("kagome", {})


def test_build_model_rejects_a_parameter_the_family_lacks():
    with pytest.raises(ValueError, match="xxz has no parameter j2"):
        build_model("xxz", {"delta": 0.5, "j2": 0.5})
    with pytest.raises(ValueError, match="xxz has no parameter j2"):
        sweep("xxz", {"j2": 0.5}, GridSpec("delta", 0.0, 1.0, 0.5), chain(4))


def test_resolve_pairs():
    assert resolve_pairs(chain(6), ("nn",)) == {"nn": (0, 1)}
    assert resolve_pairs(ladder(8), ("rung", "leg")) == {"rung": (0, 1), "leg": (0, 2)}
    assert resolve_pairs(chain(6), ("2-5",)) == {"2-5": (2, 5)}
    with pytest.raises(ValueError):
        resolve_pairs(chain(6), ("rung",))
    with pytest.raises(ValueError):
        resolve_pairs(chain(4), ("0-9",))
    for token in ("0-1-2", "0-x"):
        with pytest.raises(ValueError, match=f"unknown pair token '{token}'"):
            resolve_pairs(chain(6), (token,))


@pytest.mark.parametrize("sz_twice", [None, 0, 2, -2, 3])
def test_parse_space_inverts_space_name(sz_twice):
    assert parse_space(space_name(sz_twice)) == sz_twice
    if sz_twice is not None:
        assert parse_space(str(sz_twice)) == sz_twice
    for name in ("auto", "sz", "sz:", "sz:x"):
        with pytest.raises(ValueError):
            parse_space(name)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("make", [chain, ladder])
def test_pair_names_are_first_bonds_of_the_bond_table(make, n):
    lattice = make(n)
    own = {kind for fam in FAMILY_TABLE.values() if fam.geometry == lattice.geometry
           for kind in fam.bond_kinds}
    other = {kind for fam in FAMILY_TABLE.values() for kind in fam.bond_kinds} - own
    assert own and other
    for kind in own:
        assert resolve_pairs(lattice, (kind,)) == {kind: BOND_PAIRS[kind](lattice)[0]}
    for kind in other:
        with pytest.raises(ValueError):
            resolve_pairs(lattice, (kind,))


def test_nnn_names_the_next_nearest_pair_on_a_chain():
    assert resolve_pairs(chain(6), ("nn", "nnn")) == {"nn": (0, 1), "nnn": (0, 2)}


@pytest.mark.parametrize("space", ["sz:0", "sz:2", "sz"])
def test_sweep_space_takes_only_auto_full_or_sz0(space):
    with pytest.raises(ValueError, match="auto, full or sz0"):
        sweep("xxz", {}, GridSpec("delta", 1.0, 1.0, 0.1), chain(6), k_levels=2,
              space=space)


# --- derivatives -------------------------------------------------------------

def test_derivative_exact_for_quadratic():
    g = np.arange(-1.0, 1.0001, 0.1)
    gi, d = derivative(g, g ** 2, 1)
    assert np.max(np.abs(d - 2.0 * gi)) <= 1e-12


def test_second_derivative_exact_for_cubic():
    g = np.arange(-1.0, 1.0001, 0.1)
    gi, d = derivative(g, g ** 3, 2)
    assert np.max(np.abs(d - 6.0 * gi)) <= 1e-10


def test_derivative_of_constant_is_zero():
    g = np.arange(0.0, 1.0001, 0.05)
    for order in (1, 2, 3, 4):
        _, d = derivative(g, np.full_like(g, 3.7), order)
        assert np.max(np.abs(d)) == 0.0


def test_derivative_validation():
    g = np.arange(0.0, 1.0001, 0.1)
    with pytest.raises(ValueError):
        derivative(g, g, 5)
    with pytest.raises(ValueError):
        derivative(g[:4], g[:4], 2)
    bad = g.copy()
    bad[3] += 0.02
    with pytest.raises(ValueError):
        derivative(bad, bad, 1)


def test_locate_extrema_quadratic():
    g = np.arange(0.0, 1.0001, 0.01)
    vals = -(g - 0.3) ** 2
    found = locate_extrema(g, vals)
    assert len(found) == 1
    assert found[0].kind == "max"
    assert found[0].location == pytest.approx(0.3, abs=1e-6)


def test_locate_extrema_offgrid_quadratic():
    g = np.arange(0.0, 1.0001, 0.01)
    vals = (g - 0.3456) ** 2
    found = locate_extrema(g, vals)
    assert found[0].kind == "min"
    assert found[0].location == pytest.approx(0.3456, abs=1e-6)


def test_locate_extrema_monotone_empty():
    g = np.arange(0.0, 1.0001, 0.01)
    assert locate_extrema(g, np.exp(g)) == []


def test_locate_extrema_needs_three_points():
    with pytest.raises(ValueError):
        locate_extrema(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


# --- fits ---------------------------------------------------------------------

def test_fit_inverse_size_exact():
    sizes = [6, 8, 10, 12]
    locs = [1.0 + 2.0 / n for n in sizes]
    intercept, slope, resid = fit_inverse_size(sizes, locs)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert resid <= 1e-12


def test_size_independent_kink_extrapolates_to_itself():
    # synthetic concurrence C(g) = -|g - g0| s(N) with g0 on-grid: its
    # second derivative has a spike minimum at g0 for every N
    g0 = 0.30
    grid = np.arange(0.0, 0.6001, 0.01)
    locations = []
    for n, s in ((8, 1.0), (12, 2.0), (16, 3.5)):
        series = -np.abs(grid - g0) * s
        gi, d2 = derivative(grid, series, 2)
        mins = [e for e in locate_extrema(gi, d2) if e.kind == "min"]
        assert mins
        dominant = max(mins, key=lambda e: abs(e.value))
        locations.append(dominant.location)
    intercept, slope, resid = fit_inverse_size([8, 12, 16], locations)
    assert intercept == pytest.approx(g0, abs=1e-6)
    assert abs(slope) <= 1e-6


# --- sweeps -------------------------------------------------------------------

def test_sweep_records_structure():
    res = sweep("xxz", {}, GridSpec("delta", 0.8, 1.2, 0.1), chain(6),
                k_levels=3, pairs=("nn",))
    assert len(res.points) == 5
    assert res.config.space == "full"
    for p in res.points:
        assert p.flag is None
        assert len(p.energies) == 3
        assert np.all(np.diff(p.energies) >= -1e-12)
        rec = p.pairs["nn"]
        assert 0.0 <= rec.concurrence <= 1.0
        assert abs(rec.cxx) <= 0.25 + 1e-12
    assert res.concurrence().shape == (5,)


@pytest.mark.parametrize("family, grid, lattice, expected", [
    ("xxz", GridSpec("delta", 0.5, 0.5, 0.1), chain(10), "sz0"),
    ("j1j2", GridSpec("j2", 0.2, 0.2, 0.1), chain(10), "sz0"),
    ("ladder", GridSpec("j_rung", 0.5, 0.5, 0.1), ladder(10), "sz0"),
    ("ising", GridSpec("lam", 0.5, 0.5, 0.1), chain(10), "full"),
    ("xyz", GridSpec("jz", 0.5, 0.5, 0.1), chain(10), "full"),
    ("xxz", GridSpec("delta", 0.5, 0.5, 0.1), chain(9), "full"),
])
def test_auto_space_follows_family_sz_symmetry(family, grid, lattice, expected):
    # at N >= 10 the choice rests on the family's Sz symmetry and the
    # parity of N; the solver's dense cutoff plays no part in it
    res = sweep(family, {}, grid, lattice, k_levels=2, pairs=("0-1",),
                options=SolverOptions(dense_cutoff=256))
    assert res.config.space == expected
    assert not res.flagged


def test_dense_cutoff_picks_the_solver_not_the_space():
    grid = GridSpec("j2", 0.2, 0.4, 0.1)
    big = sweep("j1j2", {"j1": 1.0}, grid, chain(10), k_levels=3,
                options=SolverOptions(dense_cutoff=2048))
    assert big.config.space == "sz0"
    lanczos = sweep("j1j2", {"j1": 1.0}, grid, chain(8), k_levels=3,
                    options=SolverOptions(dense_cutoff=1))
    dense = sweep("j1j2", {"j1": 1.0}, grid, chain(8), k_levels=3)
    assert lanczos.config.space == dense.config.space == "full"
    for level in range(3):
        assert np.max(np.abs(lanczos.energy(level) - dense.energy(level))) <= 1e-10
    assert np.max(np.abs(lanczos.concurrence() - dense.concurrence())) <= 1e-8


def test_concurrence_of_a_pair_the_sweep_did_not_compute_raises():
    res = sweep("xxz", {}, GridSpec("delta", 0.5, 0.6, 0.1), chain(6), k_levels=2,
                pairs=("0-2",))
    with pytest.raises(ValueError, match="not among this sweep's pairs 0-2"):
        res.concurrence("nn")


def test_sweep_requires_two_levels():
    # the last two ask for more levels than the space has, dense and Lanczos
    for n, k_levels, cutoff in ((6, 1, 512), (2, 6, 512), (2, 6, 1)):
        with pytest.raises(ValueError):
            sweep("xxz", {}, GridSpec("delta", 0.8, 1.2, 0.1), chain(n),
                  k_levels=k_levels, options=SolverOptions(dense_cutoff=cutoff))


def test_sweep_sector_space_matches_full_ground_state():
    grid = GridSpec("j2", 0.2, 0.4, 0.1)
    full = sweep("j1j2", {"j1": 1.0}, grid, chain(8), k_levels=2, space="full")
    sector = sweep("j1j2", {"j1": 1.0}, grid, chain(8), k_levels=2, space="sz0")
    assert np.allclose(full.energy(0), sector.energy(0), atol=1e-10)
    assert np.allclose(full.concurrence(), sector.concurrence(), atol=1e-8)


@pytest.mark.parametrize("threads, cpus, workers", [
    (64, 3, 3), (64, 16, 5), (4, 16, 4), (2, 1, None), (4, None, None)])
def test_sweep_pool_is_capped_by_points_and_cpus(threads, cpus, workers, monkeypatch):
    import spinqpt.analysis as analysis
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
    grid = GridSpec("delta", 0.9, 1.1, 0.05)
    res = sweep("xxz", {}, grid, chain(4), k_levels=2, threads=threads)
    assert started == ([] if workers is None else [workers])
    serial = sweep("xxz", {}, grid, chain(4), k_levels=2)
    assert np.array_equal(res.energy(0), serial.energy(0))
    assert np.array_equal(res.concurrence(), serial.concurrence())


def test_sweep_parallel_matches_serial():
    grid = GridSpec("delta", 0.9, 1.1, 0.05)
    serial = sweep("xxz", {}, grid, chain(6), k_levels=2)
    parallel = sweep("xxz", {}, grid, chain(6), k_levels=2, threads=2)
    assert np.array_equal(serial.energy(0), parallel.energy(0))
    assert np.array_equal(serial.concurrence(), parallel.concurrence())


# (family, fixed parameters, grid, pairs, spaces) at N = 8: every family, xxz
# through its ninefold ground level at Delta = -1, j1j2 through the twofold
# Majumdar-Ghosh point, and xyz with a field through h = 0, where the
# field term, and so the block layout, drops out
BATCHED_SWEEPS = (
    ("xxz", {}, GridSpec("delta", -1.25, -0.8, 0.05), ("nn",), ("full", "sz0")),
    ("j1j2", {"j1": 1.0}, GridSpec("j2", 0.3, 0.75, 0.05), ("nn", "nnn"), ("full", "sz0")),
    ("ladder", {"j_leg": 1.0}, GridSpec("j_rung", 0.5, 1.4, 0.1), ("leg", "rung"),
     ("full", "sz0")),
    ("ising", {}, GridSpec("lam", 0.6, 1.5, 0.1), ("nn",), ("full",)),
    ("xyz", {"jy": 0.6}, GridSpec("jz", 0.1, 1.9, 0.2), ("nn",), ("full",)),
    ("xyz", {}, GridSpec("h", -0.5, 0.5, 0.125), ("nn", "0-2"), ("full", "sz0")),
)


def _same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.g == b.g and a.flag is None and b.flag is None
        assert np.array_equal(a.energies, b.energies)
        assert a.labels == b.labels and a.pairs == b.pairs
        assert a.gs_multiplicity == b.gs_multiplicity


@pytest.mark.parametrize("family, fixed, grid, pairs, spaces", BATCHED_SWEEPS)
def test_batched_sweep_points_equal_single_solves(family, fixed, grid, pairs, spaces,
                                                   monkeypatch):
    import spinqpt.analysis as analysis
    from spinqpt.lattice import enumerate_sector
    from spinqpt.models import HamiltonianAction
    lattice = FAMILY_TABLE[family].lattice(8)
    multiplicities = set()
    for space in spaces:
        basis = enumerate_sector(lattice, 0 if space == "sz0" else None)
        model = build_model(family, {**fixed, grid.name: grid.stop})
        # batches of three points, so the grid spans several: each point
        # holds its block matrices, their eigenvectors and 10 lifted levels
        point = 2 * HamiltonianAction(model, basis).block_entries + 10 * basis.dimension
        monkeypatch.setattr(analysis, "BATCH_BYTES", 3 * 8 * point)
        res = sweep(family, fixed, grid, lattice, k_levels=10, pairs=pairs, space=space)
        cfg = res.config
        _same_points(res.points, [
            analysis._observe_point(cfg, g, analysis.solve_model(cfg.model_at(g), basis, 10,
                                                                 cfg.options), basis)
            for g in grid.values()])
        multiplicities |= {p.gs_multiplicity for p in res.points}
    if family == "xxz":
        assert 9 in multiplicities
    if family == "j1j2":
        assert 2 in multiplicities


def test_batched_sweep_parallel_matches_serial():
    # ising blocks are large, so both runs span several batches, split differently
    grid = GridSpec("lam", 0.2, 2.1, 0.1)
    serial = sweep("ising", {}, grid, chain(8), k_levels=4)
    parallel = sweep("ising", {}, grid, chain(8), k_levels=4, threads=2)
    _same_points(parallel.points, serial.points)


def test_batched_levels_hold_their_own_vectors(monkeypatch):
    # a kept level's block vector is a copy: it keeps at most k vectors
    # alive, never a block's whole eigenvector stack
    import spinqpt.analysis as analysis
    real = analysis._solve
    batches = []

    def recorded(actions, k, options, energies_only=False):
        solutions = real(actions, k, options, energies_only)
        batches.append((k, solutions))
        return solutions

    monkeypatch.setattr(analysis, "_solve", recorded)
    sweep("xxz", {}, GridSpec("delta", -1.0, 2.0, 0.1), chain(8), k_levels=4, space="full")
    assert max(len(solutions) for _, solutions in batches) > 1
    for k, solutions in batches:
        for sol in solutions:
            assert len(sol.block_levels) == k
            for _, vec in sol.block_levels:
                assert vec.base is None or vec.base.size <= k * len(vec)


# --- crossings and classification ---------------------------------------------

@pytest.fixture(scope="module")
def xxz_sweep_n6():
    return sweep("xxz", {}, GridSpec("delta", -1.5, 1.5, 0.05), chain(6),
                 k_levels=4, pairs=("nn",))


def test_detect_ground_state_crossing(xxz_sweep_n6):
    events = detect_crossings(xxz_sweep_n6, 0, 1)
    true = [e for e in events if e.kind == "true_crossing"]
    assert len(true) == 1
    assert true[0].location == pytest.approx(-1.0, abs=1e-6)


def test_detect_excited_crossing(xxz_sweep_n6):
    events = detect_crossings(xxz_sweep_n6, 1, 2)
    locs = sorted(round(e.location, 5) for e in events
                  if e.kind == "true_crossing")
    assert any(abs(l - 1.0) <= 1e-6 for l in locs)


def test_detect_validates_levels(xxz_sweep_n6):
    with pytest.raises(ValueError):
        detect_crossings(xxz_sweep_n6, 2, 1)
    with pytest.raises(ValueError):
        detect_crossings(xxz_sweep_n6, 0, 9)


def test_classify_needs_three_levels():
    res = sweep("xxz", {}, GridSpec("delta", 0.9, 1.1, 0.05), chain(6), k_levels=2)
    with pytest.raises(ValueError):
        classify(res)


def test_classify_type_ii_xxz_n6():
    res = sweep("xxz", {}, GridSpec("delta", 0.0, 2.0, 0.02), chain(6), k_levels=4)
    report = classify(res)
    assert report.type == "II"
    assert report.es_lc and not report.gs_lc
    assert report.evidence.argmax_location == pytest.approx(1.0, abs=0.05)


def test_classify_type_i_j1j2_n6():
    # the 6-ring has its dimer crossing away from 0.5; detect, then classify
    res = sweep("j1j2", {"j1": 1.0}, GridSpec("j2", 0.3, 0.9, 0.01), chain(6),
                k_levels=4)
    report = classify(res)
    assert report.type == "I"
    assert report.evidence.jump is not None and report.evidence.jump > 0.05


def test_scaling_study_ising_small():
    res = scaling_study("ising", {}, GridSpec("lam", 0.4, 1.6, 0.02), [6, 8], 1,
                        k_levels=2)
    assert [e.n_sites for e in res.entries] == [6, 8]
    assert res.intercept is not None
    locs = [e.location for e in res.entries]
    assert locs[1] < locs[0]  # drift toward the critical point


def test_xxz_concurrence_continuous_across_isotropic_point():
    # Table-I "maximum, not singular": no adjacent jump above 0.05 on a
    # 0.01 grid through Delta = 1
    res = sweep("xxz", {}, GridSpec("delta", 0.5, 1.5, 0.01), chain(8),
                k_levels=2, space="full")
    conc = res.concurrence()
    assert np.max(np.abs(np.diff(conc))) <= 0.05


def test_sweep_flags_failed_points_and_continues(monkeypatch):
    # every Lanczos solve fails; the sweep must flag those points and
    # keep going
    import spinqpt.analysis as analysis

    def fail(*args, **kwargs):
        raise ConvergenceError("synthetic Lanczos failure")
    monkeypatch.setattr(analysis, "lanczos_lowest_k", fail)
    res = sweep("xxz", {}, GridSpec("delta", 0.4, 0.6, 0.1), chain(10),
                k_levels=2, space="sz0", options=SolverOptions(dense_cutoff=8))
    assert len(res.points) == 3
    assert len(res.flagged) == 3
    assert np.all(np.isnan(res.concurrence()))


def test_lanczos_sweep_holds_one_operator_at_a_time(monkeypatch):
    # each grid point's action holds its sparse operator once solved, so a
    # Lanczos sweep must let go of a point's action before the next solve,
    # and before the point is observed
    import weakref
    import spinqpt.analysis as analysis
    real_action, real_lanczos = analysis.HamiltonianAction, analysis.lanczos_lowest_k
    real_observe = analysis._observe_point
    alive, counts, observed = weakref.WeakSet(), [], []

    def tracked(*args):
        action = real_action(*args)
        alive.add(action)
        return action

    def counted(apply, dim, k, **kwargs):
        counts.append(len(alive))
        return real_lanczos(apply, dim, k, **kwargs)

    def observe(*args):
        observed.append(len(alive))
        return real_observe(*args)

    monkeypatch.setattr(analysis, "HamiltonianAction", tracked)
    monkeypatch.setattr(analysis, "lanczos_lowest_k", counted)
    monkeypatch.setattr(analysis, "_observe_point", observe)
    res = sweep("xxz", {}, GridSpec("delta", 0.4, 0.7, 0.1), chain(10),
                k_levels=2, space="sz0", options=SolverOptions(dense_cutoff=8))
    assert not res.flagged
    assert counts == [1] * len(res.points)
    assert observed == [0] * len(res.points)


def test_detect_skips_flagged_segments():
    good = sweep("xxz", {}, GridSpec("delta", 0.8, 1.2, 0.01), chain(6),
                 k_levels=3, space="full")
    # corrupt one interior point as if its solve had failed
    good.points[10].flag = "synthetic failure"
    events = detect_crossings(good, 1, 2)
    assert any(e.kind == "true_crossing" and abs(e.location - 1.0) < 1e-6
               for e in events)


def test_flat_gap_with_last_bit_noise_has_no_dips(monkeypatch):
    import spinqpt.analysis as analysis
    res = sweep("xxz", {}, GridSpec("delta", -1.9, -1.5, 0.02), chain(6),
                k_levels=3, space="full")
    base = 1.0 - 1.0 / np.sqrt(2.0)
    ulp = np.spacing(base)
    noise = [0, -1, 1, -1, 0, 1, -1, -1, 1, 0, -1, 1, 0, -1, 1, 1, -1, 0, -1, 1, 0]
    assert len(noise) == len(res.points)
    for p, k in zip(res.points, noise):
        p.energies = np.array([-1.0, 0.0, base + k * ulp])
    refined = []

    def no_refinement(*args, **kwargs):
        refined.append(args)
        raise AssertionError("a flat gap must not be refined")

    monkeypatch.setattr(analysis, "solve_probes", no_refinement)
    assert detect_crossings(res, 1, 2) == []
    assert refined == []


def test_crossing_candidates_on_a_piecewise_linear_gap(monkeypatch):
    import types
    import spinqpt.analysis as analysis
    from spinqpt.observables import StateLabels

    # gap between levels 0 and 1 on the grid 0, 0.1, ..., 3.5: an isolated
    # touch at 0.3, a closed stretch 0.75..1.25, a closed stretch
    # 1.65..2.25 broken by a flagged point at 2.0, an open dip at 2.6
    # between levels of the same spin, one at 2.9 between levels of
    # different spin, and a touch two grid points wide at 3.2..3.3
    knots = [(0, 1), (2, 1), (3, 0), (4, 1), (6.5, 1), (7.5, 0), (12.5, 0),
             (13.5, 1), (15.5, 1), (16.5, 0), (22.5, 0), (23.5, 1), (25, 1),
             (26, 0.3), (27, 1), (28, 1), (29, 0.4), (30, 1), (31, 1), (32, 0),
             (33, 0), (34, 1), (35, 1)]
    xs, ys = (np.array(v, dtype=float) for v in zip(*knots))

    def gap(g):
        return float(np.interp(10.0 * g, xs, ys))

    def labels(s0, s1):
        return [StateLabels(0, s0, None, s0 * (s0 + 1)),
                StateLabels(0, s1, None, s1 * (s1 + 1))]

    grid = GridSpec("delta", 0.0, 3.5, 0.1)
    points = []
    for i, g in enumerate(grid.values()):
        if i == 20:
            points.append(analysis.SweepPoint(g, np.full(2, np.nan), [], {},
                                              flag="synthetic failure"))
        else:
            spins = (1.0, 1.0) if i in (25, 27) else (0.0, 1.0)
            points.append(analysis.SweepPoint(g, np.array([0.0, gap(g)]),
                                              labels(*spins), {}))
    cfg = analysis.PointConfig("xxz", (), "delta", chain(4), None, 2, (),
                               SolverOptions())
    res = analysis.SweepResult(cfg, grid, points)
    solves = []

    def piecewise_linear(cfg, values, k):
        solves.extend(values)
        return [np.array([0.0, gap(g)]) for g in values]

    monkeypatch.setattr(analysis, "solve_probes", piecewise_linear)
    events = detect_crossings(res, 0, 1)
    g = grid.values()
    assert [(e.kind, e.bracket) for e in events] == [
        ("true_crossing", (g[2], g[4])),
        ("true_crossing", (g[7], g[8])), ("true_crossing", (g[12], g[13])),
        ("true_crossing", (g[16], g[17])), ("true_crossing", (g[22], g[23])),
        ("avoided", (g[25], g[27])), ("true_crossing", (g[31], g[34]))]
    assert [e.location for e in events[:-1]] == pytest.approx(
        [0.3, 0.75, 1.25, 1.65, 2.25, 2.6], abs=1e-8)
    assert 3.2 - 1e-8 <= events[-1].location <= 3.3 + 1e-8
    assert events[-2].min_gap == pytest.approx(0.3, abs=1e-8)
    assert all(e.min_gap <= 1e-8 for e in events[:-2] + events[-1:])
    assert len(solves) == 277


def test_sweep_flags_a_bad_point_and_continues(monkeypatch):
    import spinqpt.analysis as analysis
    real = analysis._solve

    def unnormalized_at_one(actions, k, options, energies_only=False):
        solutions = real(actions, k, options, energies_only)
        for action, sol in zip(actions, solutions):
            if abs(action.model.param("delta") - 1.0) < 1e-12:
                sol.vectors[:, 0] *= 2.0
        return solutions

    monkeypatch.setattr(analysis, "_solve", unnormalized_at_one)
    res = sweep("xxz", {}, GridSpec("delta", 0.9, 1.1, 0.05), chain(6), k_levels=2)
    assert len(res.points) == 5
    assert [p.g for p in res.flagged] == [pytest.approx(1.0)]
    assert "not normalized" in res.flagged[0].flag
    assert np.isnan(res.concurrence()[2])
    assert not np.isnan(np.delete(res.concurrence(), 2)).any()


def test_refinement_solves_each_probe_once_for_every_level_pair(monkeypatch):
    # at Delta = -1 the ferromagnetic multiplet meets five level pairs at
    # once; their refinements probe the same points
    import spinqpt.analysis as analysis
    res = sweep("xxz", {}, GridSpec("delta", -2.0, 0.0, 0.05), chain(6),
                k_levels=6, space="full")
    real = analysis.solve_probes
    probes = []

    def recorded(cfg, values, k):
        probes.extend(values)
        return real(cfg, values, k)

    monkeypatch.setattr(analysis, "solve_probes", recorded)
    report = classify(res)
    shared = list(probes)
    assert shared and len(set(shared)) == len(shared)
    # per-pair refinement: each pair on a copy of the sweep that shares nothing
    probes.clear()
    per_pair = []
    for a in range(res.k_levels - 1):
        per_pair.extend(detect_crossings(dataclasses.replace(res), a, a + 1))
    assert len(probes) > len(shared)
    assert per_pair == report.evidence.gs_events + report.evidence.es_events
    assert any(e.kind == "true_crossing" for e in per_pair)


def test_sweep_flags_a_lapack_failure_and_continues(monkeypatch):
    import spinqpt.analysis as analysis
    real_solve = analysis._solve
    real_eigh = np.linalg.eigh
    current = []  # the grid values being solved: every dense point is a batch's

    def noting_batch(actions, k, options, energies_only=False):
        current[:] = [action.model.param("delta") for action in actions]
        return real_solve(actions, k, options, energies_only)

    def failing_at_one(mat):
        if any(abs(g - 1.0) < 1e-12 for g in current):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(mat)

    monkeypatch.setattr(analysis, "_solve", noting_batch)
    monkeypatch.setattr(np.linalg, "eigh", failing_at_one)
    res = sweep("xxz", {}, GridSpec("delta", 0.9, 1.1, 0.05), chain(6), k_levels=2)
    assert len(res.points) == 5
    assert [p.g for p in res.flagged] == [pytest.approx(1.0)]
    assert "did not converge" in res.flagged[0].flag
    assert not np.isnan(np.delete(res.concurrence(), 2)).any()
    # the failed batch's other points, re-solved one per batch, are the
    # points an unpatched sweep gives
    monkeypatch.undo()
    clean = sweep("xxz", {}, GridSpec("delta", 0.9, 1.1, 0.05), chain(6), k_levels=2)
    _same_points(res.points[:2] + res.points[3:], clean.points[:2] + clean.points[3:])


def test_lanczos_refinement_asks_each_probe_for_its_pair_only(monkeypatch):
    # a Lanczos solve grows with the levels asked, so probes stay at b + 1
    import spinqpt.analysis as analysis
    res = sweep("xxz", {}, GridSpec("delta", -2.0, 0.0, 0.05), chain(6),
                k_levels=4, space="full", options=SolverOptions(dense_cutoff=32))
    real = analysis.lanczos_lowest_k
    asked = []

    def recorded(apply, dim, k, **kwargs):
        asked.append(k)
        return real(apply, dim, k, **kwargs)

    monkeypatch.setattr(analysis, "lanczos_lowest_k", recorded)
    events = detect_crossings(res, 0, 1)
    assert events and set(asked) == {2}
    asked.clear()
    detect_crossings(res, 1, 2)
    assert asked and set(asked) == {3}


def _sequential_probes(res, pairs):
    """Refine every candidate cell of ``pairs`` one search at a time, each
    probe solved alone by ``solve_points`` and once per sweep; returns the
    probe values in solve order and the levels kept for each (g, k)."""
    import spinqpt.analysis as analysis
    from spinqpt.eigensolver import degeneracy_tolerance
    cfg = res.config
    deg = degeneracy_tolerance(analysis._spectral_width(res))
    k = analysis.enumerate_sector(cfg.lattice, cfg.sz_twice).dimension
    grid = res.grid
    ordered = np.sort([res.energy(n) for n in range(res.k_levels)], axis=0)
    solved, levels = [], {}
    for a, b in pairs:
        gap = ordered[b] - ordered[a]
        for inside, outside, dip in analysis._candidates(gap, deg):
            i, j = sorted((inside, outside))
            steps = (analysis._golden_min(grid[i], grid[j], analysis.REFINE_TOL) if dip else
                     analysis._bisect_boundary(grid[inside], grid[outside],
                                               float(gap[inside]), deg, analysis.REFINE_TOL))
            reply = None
            while True:
                try:
                    g = steps.send(reply)
                except StopIteration:
                    break
                if (g, k) not in levels:
                    solved.append(g)
                    (_, sol), = analysis.solve_points(cfg, [g], k, energies_only=True)
                    levels[g, k] = np.sort(sol.energies)[:cfg.k_levels]
                reply = float(levels[g, k][b] - levels[g, k][a])
    return solved, levels


def test_lockstep_probes_equal_a_sequential_run(monkeypatch):
    # classify refines every cell of every level pair in rounds; it solves
    # the probes, and keeps the levels, of one search at a time, and each
    # round makes one dense_spectra call per block layout among its values
    import spinqpt.analysis as analysis
    from spinqpt.models import HamiltonianAction
    res = sweep("xxz", {}, GridSpec("delta", -2.0, 0.0, 0.05), chain(6),
                k_levels=6, space="full")
    pairs = [(a, a + 1) for a in range(res.k_levels - 1)]
    solved, levels = _sequential_probes(res, pairs)
    real_probes, real_spectra = analysis.solve_probes, analysis.dense_spectra
    rounds = []  # per round: its probe values and its dense_spectra calls

    def recorded_round(cfg, values, k):
        rounds.append((list(values), []))
        return real_probes(cfg, values, k)

    def recorded_call(blocks, **kwargs):
        rounds[-1][1].append(len(blocks[0][2]))
        return real_spectra(blocks, **kwargs)

    monkeypatch.setattr(analysis, "solve_probes", recorded_round)
    monkeypatch.setattr(analysis, "dense_spectra", recorded_call)
    classify(res)
    probes = [g for values, _ in rounds for g in values]
    assert len(probes) == len(solved) and sorted(probes) == sorted(solved)
    assert res._probes.keys() == levels.keys()
    assert all(np.array_equal(res._probes[key], levels[key]) for key in levels)
    assert len(rounds) < len(probes)
    # every round holds one layout here; a round of values across the z
    # field's zero holds two, so it makes two calls
    assert all(calls == [len(values)] for values, calls in rounds)
    cfg = PointConfig("xyz", (("jy", 0.6),), "h", chain(6), None, 3, (), SolverOptions())
    basis = analysis.enumerate_sector(cfg.lattice, None)
    values = [-0.1, 0.0, 0.1, 0.2]
    rounds.append(([], []))
    got = analysis.solve_probes(cfg, values, basis.dimension)
    assert rounds[-1][1] == [3, 1]
    assert len({HamiltonianAction(cfg.model_at(g), basis).keys for g in values}) == 2
    for g, out in zip(values, got):
        (_, sol), = analysis.solve_points(cfg, [g], basis.dimension, energies_only=True)
        assert np.array_equal(out, np.sort(sol.energies)[:cfg.k_levels])


def test_dense_probes_across_a_layout_change_match_per_pair_detection():
    # the z field's zero drops the field term, and so changes the block
    # layout, at the grid point h = 0, inside the cells refined around it
    import spinqpt.analysis as analysis
    from spinqpt.models import HamiltonianAction
    res = sweep("xyz", {"jy": 0.6}, GridSpec("h", -0.5, 0.5, 0.05), chain(8), k_levels=4)
    basis = analysis.enumerate_sector(res.config.lattice, None)
    keys = {HamiltonianAction(res.config.model_at(g), basis).keys for g in res.grid}
    assert len(keys) == 2
    report = classify(res)
    per_pair = []
    for a in range(res.k_levels - 1):
        per_pair.extend(detect_crossings(dataclasses.replace(res), a, a + 1))
    assert per_pair == report.evidence.gs_events + report.evidence.es_events
    assert report.type == "II"
    assert sorted(e.kind for e in per_pair) == ["true_crossing", "unresolved"]
    assert all(e.bracket[0] < 0.0 < e.bracket[1] for e in per_pair)
    assert min(g for g, _ in res._probes) < 0.0 < max(g for g, _ in res._probes)


def test_a_failed_probe_ends_its_search_not_the_run(monkeypatch):
    # j1j2 at N = 6: the ground pair crosses at J2 = 0.5 (type I), and
    # levels 1 and 2 touch at 0.25 and 1.  LAPACK fails on one probe of
    # the touch at 0.25: that search alone ends, as an unresolved event
    import spinqpt.analysis as analysis
    res = sweep("j1j2", {"j1": 1.0}, GridSpec("j2", 0.0, 1.0, 0.02), chain(6), k_levels=4)
    real_probes = analysis.solve_probes
    probes = []

    def recorded(cfg, values, k):
        probes.extend(values)
        return real_probes(cfg, values, k)

    monkeypatch.setattr(analysis, "solve_probes", recorded)
    clean = classify(dataclasses.replace(res))
    clean_probes = list(probes)
    touch = [g for g in clean_probes if 0.24 < g < 0.26]
    failing = touch[9]  # the touch's tenth probe, its bracket well inside the cell

    real_stacked, real_eigvalsh = analysis.stacked_blocks, np.linalg.eigvalsh
    current, attempts = [], []

    def noting(actions):
        current[:] = [action.model.param("j2") for action in actions]
        return real_stacked(actions)

    def failing_at(mat):
        if failing in current:
            attempts.append(len(current))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvalsh(mat)

    monkeypatch.setattr(analysis, "stacked_blocks", noting)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_at)
    probes.clear()
    report = classify(res)
    # its round failed as a batch and was re-solved probe by probe; the
    # failure is kept, so no search solves that value again
    assert attempts[0] > 1 and attempts[1:] == [1]
    assert isinstance(res._probes[failing, 2 ** 6], ConvergenceError)  # dense: every level
    assert probes.count(failing) == 1 and set(probes) <= set(clean_probes)
    assert {g for g in set(clean_probes) - set(probes)} <= set(touch)
    touched = clean.evidence.es_events[0]
    assert touched.bracket == (pytest.approx(0.24), pytest.approx(0.26))
    event = report.evidence.es_events[0]
    assert (event.level_pair, event.kind) == ((1, 2), "unresolved")
    assert 0.24 < event.bracket[0] <= failing <= event.bracket[1] < 0.26
    assert event.location == 0.5 * (event.bracket[0] + event.bracket[1])
    assert touched.min_gap <= event.min_gap <= 1e-3
    # the rest of the report is the unpatched run's
    evidence = dataclasses.replace(clean.evidence,
                                   es_events=[event, *clean.evidence.es_events[1:]])
    assert report == dataclasses.replace(clean, evidence=evidence)


@pytest.mark.parametrize("family, fixed, swept, lattice, g", [
    ("xxz", (), "delta", chain(8), -1.0),  # the kept levels all lie in the N + 1 multiplet
    ("xxz", (), "delta", chain(8), -1.5),  # a twofold ground level
    ("xxz", (), "delta", chain(8), 1.0),
    ("j1j2", (("j1", 1.0),), "j2", chain(8), 0.5),  # the twofold Majumdar-Ghosh ground
    ("ladder", (("j_leg", 1.0),), "j_rung", ladder(8), 0.4),
    ("ising", (), "lam", chain(8), 0.9),
    ("xyz", (("jx", 0.8), ("jy", 1.2), ("jz", 0.9)), "h", chain(8), 0.0),
])
def test_dense_batch_of_one_lifts_every_level(family, fixed, swept, lattice, g):
    import spinqpt.analysis as analysis
    from spinqpt.eigensolver import dense_spectrum
    from spinqpt.models import HamiltonianAction
    pairs = (("a", (0, 1)), ("b", (0, 2)), ("c", (1, 5)))
    cfg = PointConfig(family, fixed, swept, lattice, None, 6, pairs, SolverOptions())
    basis = analysis.enumerate_sector(lattice, None)
    point, = analysis._sweep_chunk(cfg, np.array([g]))
    sol = analysis.solve_model(cfg.model_at(g), basis, cfg.k_levels, cfg.options)
    lifted = analysis._observe_point(cfg, g, sol, basis)
    assert point.flag is None and sol.vectors.shape[1] == cfg.k_levels  # every level lifted
    assert np.array_equal(point.energies, lifted.energies)
    assert point.pairs == lifted.pairs
    assert point.gs_multiplicity == lifted.gs_multiplicity
    # a batch of one is bitwise the one-matrix solve of the action's own blocks
    alone = dense_spectrum(HamiltonianAction(cfg.model_at(g), basis).blocks(),
                           levels=cfg.k_levels)
    assert np.array_equal(alone.vectors, sol.vectors)
    assert np.array_equal(alone.residuals, sol.residuals)
