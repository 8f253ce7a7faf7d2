import dataclasses

import numpy as np
import pytest

from spinqpt.eigensolver import ConvergenceError
from spinqpt.lattice import chain, ladder
from spinqpt.models import BOND_PAIRS, FAMILY_TABLE
from spinqpt.analysis import (GridSpec, SolverOptions, build_model, classify,
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

    monkeypatch.setattr(analysis, "solve_levels", no_refinement)
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

    def piecewise_linear(cfg, g, k, **kwargs):
        solves.append(g)
        return types.SimpleNamespace(energies=np.array([0.0, gap(g)])), None

    monkeypatch.setattr(analysis, "solve_levels", piecewise_linear)
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
    real = analysis.solve_levels

    def unnormalized_at_one(cfg, g, k, **kwargs):
        sol, basis = real(cfg, g, k, **kwargs)
        if abs(g - 1.0) < 1e-12:
            sol.vectors[:, 0] *= 2.0
        return sol, basis

    monkeypatch.setattr(analysis, "solve_levels", unnormalized_at_one)
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
    real = analysis.solve_levels
    probes = []

    def recorded(cfg, g, k, **kwargs):
        probes.append(g)
        return real(cfg, g, k, **kwargs)

    monkeypatch.setattr(analysis, "solve_levels", recorded)
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
    real_solve, real_eigh = analysis.solve_levels, np.linalg.eigh
    current = []

    def noting(cfg, g, k, **kwargs):
        current[:] = [g]
        return real_solve(cfg, g, k, **kwargs)

    def failing_at_one(mat):
        if abs(current[0] - 1.0) < 1e-12:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(mat)

    monkeypatch.setattr(analysis, "solve_levels", noting)
    monkeypatch.setattr(np.linalg, "eigh", failing_at_one)
    res = sweep("xxz", {}, GridSpec("delta", 0.9, 1.1, 0.05), chain(6), k_levels=2)
    assert len(res.points) == 5
    assert [p.g for p in res.flagged] == [pytest.approx(1.0)]
    assert "did not converge" in res.flagged[0].flag
    assert not np.isnan(np.delete(res.concurrence(), 2)).any()


def test_lanczos_refinement_asks_each_probe_for_its_pair_only(monkeypatch):
    # a Lanczos solve grows with the levels asked, so probes stay at b + 1
    import spinqpt.analysis as analysis
    res = sweep("xxz", {}, GridSpec("delta", -2.0, 0.0, 0.05), chain(6),
                k_levels=4, space="full", options=SolverOptions(dense_cutoff=32))
    real = analysis.solve_levels
    asked = []

    def recorded(cfg, g, k, **kwargs):
        asked.append(k)
        return real(cfg, g, k, **kwargs)

    monkeypatch.setattr(analysis, "solve_levels", recorded)
    events = detect_crossings(res, 0, 1)
    assert events and set(asked) == {2}
    asked.clear()
    detect_crossings(res, 1, 2)
    assert asked and set(asked) == {3}
