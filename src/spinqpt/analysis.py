"""Parameter sweeps, level-crossing detection, derivatives of the
concurrence, transition-type classification, and finite-size drift of
derivative extrema.

Crossings are found on the sorted level curves of a sweep.  Because the
solvers resolve degenerate multiplets exactly, a crossing shows up in
the gap of an adjacent level pair either as a degenerate run that ends
(two levels locked at zero gap on one side, split on the other) or as an
interior dip that touches zero.  ``_candidates`` lists the grid cells to
refine, within each stretch of solved points: a cell around an isolated
touch (a run of one or two degenerate points) or an open dip, searched
for the gap minimum by golden section, and the cell at each end of a
longer run, where the "gap below tolerance" boundary is bisected.  Every
cell is refined in one loop.  A probe value is solved once per sweep,
energies only; a dense probe solves every level of the sweep and serves
each level pair, a Lanczos one asks for the levels its pair needs.  A
refined gap at or below the degeneracy tolerance is a true crossing; a
dip that stays open between levels carrying the same quantum numbers is
an avoided crossing, and one between levels of different symmetry is no
event.
"""

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, SectorBasis, enumerate_sector
from .models import (BOND_PAIRS, FAMILY_TABLE, ModelSpec, HamiltonianAction,
                     build_model, family_spec, sector_matrices)
from .eigensolver import (EigenSolution, dense_spectrum, degeneracy_tolerance,
                          lanczos_lowest_k, ConvergenceError)
from .observables import StateLabels, label_state, pair_correlators, two_site_rdm
from .entanglement import wootters_concurrence

DEFAULT_SEED = 0x5EED
# width to which crossing refinement brackets a gap minimum or boundary
REFINE_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.start, self.stop, self.step)):
            raise ValueError("grid start, stop and step must be finite")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.stop < self.start:
            raise ValueError("grid must be increasing")
        n = (self.stop - self.start) / self.step
        if abs(n - round(n)) > 1e-8:
            raise ValueError("grid step must divide the grid span")

    @property
    def count(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True)
class SolverOptions:
    """How ``solve_model`` solves one point.  The sum rules' full-spectrum
    cap is not here: it is ``models.DENSE_CAP_DEFAULT``."""
    tol: float = 1e-10           # Lanczos residual tolerance, relative to the width
    seed: int = DEFAULT_SEED     # Lanczos start vectors
    dense_cutoff: int = 512      # spaces of this dimension or less use LAPACK


def resolve_pairs(lattice: LatticeSpec, pairs) -> dict[str, tuple[int, int]]:
    """Map pair names to site pairs: a bond kind of the lattice's geometry
    (nn, nnn on chains; rung, leg on ladders) names its first bond in
    ``BOND_PAIRS``, and 'i-j' or a tuple names two sites."""
    kinds = {kind for fam in FAMILY_TABLE.values() if fam.geometry == lattice.geometry
             for kind in fam.bond_kinds}
    out = {}
    for token in pairs:
        if isinstance(token, tuple):
            out[f"{token[0]}-{token[1]}"] = token
        elif token in kinds:
            out[token] = BOND_PAIRS[token](lattice)[0]
        elif token in BOND_PAIRS:
            raise ValueError(f"{token} pairs do not exist on a {lattice.geometry}")
        elif re.fullmatch(r"\d+-\d+", str(token)):
            i, j = (int(p) for p in str(token).split("-"))
            out[f"{i}-{j}"] = (i, j)
        else:
            raise ValueError(f"unknown pair token {token!r}")
    for name, (i, j) in out.items():
        if not (0 <= i < lattice.n_sites and 0 <= j < lattice.n_sites and i != j):
            raise ValueError(f"pair {name} outside lattice")
    return out


@dataclass(frozen=True)
class PointConfig:
    """Everything needed to solve one parameter point; picklable so sweep
    grid points can run in worker processes."""
    family: str
    fixed_params: tuple
    swept_name: str
    lattice: LatticeSpec
    sz_twice: int | None        # the solved space: None (full) or 0 (Sz = 0)
    k_levels: int
    pair_items: tuple           # ((name, (i, j)), ...)
    options: SolverOptions

    @property
    def space(self) -> str:
        return space_name(self.sz_twice)

    def model_at(self, g: float) -> ModelSpec:
        params = dict(self.fixed_params)
        params[self.swept_name] = g
        return build_model(self.family, params)


def space_name(sz_twice: int | None) -> str:
    """How outputs spell a solved space: "full", "sz0", or "sz:<m>" for 2 Sz = m."""
    if sz_twice is None:
        return "full"
    return "sz0" if sz_twice == 0 else f"sz:{sz_twice}"


def parse_space(name: str) -> int | None:
    """The ``sz_twice`` a space name spells, inverting ``space_name``; a bare
    integer m reads as "sz:<m>".  Any other name raises ValueError."""
    if name == "full":
        return None
    if name == "sz0":
        return 0
    return int(name.removeprefix("sz:"))


def _choose_space(family, lattice, space) -> int | None:
    """The ``sz_twice`` a sweep solves for ``space`` "auto", "full" or "sz0"."""
    if space == "auto":
        # Sz = 0 for an Sz-conserving family at even N >= 10; a family that
        # may cross between symmetry classes along a sweep stays in the full space
        sz0 = (family_spec(family).sz_conserved and lattice.n_sites % 2 == 0
               and lattice.n_sites >= 10)
        return 0 if sz0 else None
    if space not in ("full", "sz0"):
        raise ValueError(f"space must be auto, full or sz0, not {space!r}")
    return 0 if space == "sz0" else None


def solve_model(model: ModelSpec, basis: SectorBasis, k: int,
                options: SolverOptions, *, energies_only: bool = False) -> EigenSolution:
    """Lowest k levels of one model on one basis, dense or Lanczos by size;
    k below 1 or above the dimension raises ValueError on both paths.

    The dense path solves each symmetry sector of the basis on its own.
    Residuals are taken with the matrix-free operator on both paths.
    ``energies_only`` lets the dense path skip eigenvectors, residuals
    and the operator; Lanczos produces vectors either way.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > basis.dimension:
        raise ValueError(f"k={k} exceeds dimension {basis.dimension}")
    if not _dense(basis, options):
        return lanczos_lowest_k(HamiltonianAction(model, basis), basis.dimension, k,
                                tol=options.tol, seed=options.seed)
    blocks = sector_matrices(model, basis)
    return dense_spectrum(blocks, levels=k, vectors=not energies_only,
                          apply=None if energies_only else HamiltonianAction(model, basis))


def _dense(basis: SectorBasis, options: SolverOptions) -> bool:
    """Whether ``solve_model`` solves on ``basis`` with LAPACK."""
    return basis.dimension <= options.dense_cutoff


def solve_levels(cfg: PointConfig, g: float, k: int, *,
                 energies_only: bool = False) -> tuple[EigenSolution, SectorBasis]:
    """Lowest k levels of a sweep's model at one parameter value."""
    basis = enumerate_sector(cfg.lattice, cfg.sz_twice)
    return solve_model(cfg.model_at(g), basis, k, cfg.options,
                       energies_only=energies_only), basis


@dataclass
class PairRecord:
    sites: tuple[int, int]
    cxx: float
    cyy: float
    czz: float
    concurrence_raw: float
    concurrence: float


@dataclass
class SweepPoint:
    g: float
    energies: np.ndarray
    labels: list[StateLabels]
    pairs: dict[str, PairRecord]
    flag: str | None = None
    gs_multiplicity: int = 1


@dataclass
class SweepResult:
    config: PointConfig
    grid_spec: GridSpec
    points: list[SweepPoint]
    # (g, k) -> the lowest levels by value, energies only, of the k solved
    # at g by crossing refinement, shared by every level pair of this sweep
    _probes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def grid(self) -> np.ndarray:
        return np.array([p.g for p in self.points])

    @property
    def k_levels(self) -> int:
        return self.config.k_levels

    @property
    def pair_names(self) -> list[str]:
        return [name for name, _ in self.config.pair_items]

    def energy(self, level: int) -> np.ndarray:
        return np.array([p.energies[level] if p.flag is None else np.nan
                         for p in self.points])

    def concurrence(self, pair: str | None = None, raw: bool = False) -> np.ndarray:
        pair = pair or self.pair_names[0]
        if pair not in self.pair_names:
            raise ValueError(f"pair {pair!r} is not among this sweep's pairs "
                             f"{', '.join(self.pair_names)}")
        key = "concurrence_raw" if raw else "concurrence"
        return np.array([getattr(p.pairs[pair], key) if p.flag is None else np.nan
                         for p in self.points])

    @property
    def flagged(self) -> list[SweepPoint]:
        return [p for p in self.points if p.flag is not None]


def _sweep_point(cfg: PointConfig, g: float) -> SweepPoint:
    """One grid point; a point whose solve or observables fail is flagged
    with the message, and the sweep carries on."""
    try:
        sol, basis = solve_levels(cfg, g, cfg.k_levels)
    except ConvergenceError as err:
        flag = str(err)
    else:
        try:
            return _observe_point(cfg, g, sol, basis)
        except ValueError as err:  # an invalid state or RDM at this point only
            flag = str(err)
    return SweepPoint(g, np.full(cfg.k_levels, np.nan), [], {}, flag=flag)


def _observe_point(cfg: PointConfig, g: float, sol: EigenSolution, basis) -> SweepPoint:
    labels = [label_state(basis, sol.vectors[:, c]) for c in range(sol.k)]
    # a degenerate ground level has no preferred eigenvector; pair
    # observables then come from the ensemble over the solved part of the
    # multiplet, which is invariant under mixing within the degenerate
    # subspace only when the whole multiplet lies within the k levels
    deg = degeneracy_tolerance(float(sol.energies[-1] - sol.energies[0]))
    mult = int(np.sum(sol.energies - sol.energies[0] <= deg)) if sol.k > 1 else 1
    pairs = {}
    for name, sites in cfg.pair_items:
        rho = sum(two_site_rdm(basis, sol.vectors[:, c], *sites)
                  for c in range(mult)) / mult
        conc = wootters_concurrence(rho)
        pairs[name] = PairRecord(sites, *pair_correlators(rho), conc.raw, conc.value)
    return SweepPoint(g, sol.energies.copy(), labels, pairs,
                      gs_multiplicity=mult)


def sweep(family: str, fixed_params: dict, swept: GridSpec, lattice: LatticeSpec,
          k_levels: int = 3, pairs=("nn",), space: str = "auto",
          options: SolverOptions = SolverOptions(), threads: int = 1) -> SweepResult:
    """Solve the lowest levels and pair entanglement across a coupling grid."""
    if k_levels < 2:
        raise ValueError("crossing analysis needs at least two levels")
    pair_map = resolve_pairs(lattice, pairs)
    cfg = PointConfig(family=family, fixed_params=tuple(sorted(fixed_params.items())),
                      swept_name=swept.name, lattice=lattice,
                      sz_twice=_choose_space(family, lattice, space),
                      k_levels=k_levels, pair_items=tuple(pair_map.items()),
                      options=options)
    values = swept.values()
    workers = min(threads, len(values), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_point, [cfg] * len(values), values))
    else:
        points = [_sweep_point(cfg, g) for g in values]
    return SweepResult(cfg, swept, points)


# ---------------------------------------------------------------------------
# level crossings

@dataclass
class CrossingEvent:
    level_pair: tuple[int, int]
    location: float
    bracket: tuple[float, float]
    kind: str  # "true_crossing" | "avoided" | "unresolved"
    min_gap: float


def _spectral_width(sweep_result: SweepResult) -> float:
    lo, hi = np.inf, -np.inf
    for p in sweep_result.points:
        if p.flag is None:
            lo = min(lo, p.energies[0])
            hi = max(hi, p.energies[-1])
    return hi - lo if hi > lo else 0.0


def _labels_agree(la: StateLabels, lb: StateLabels):
    """True/False when both states carry resolved quantum numbers, else None."""
    if la.total_spin is None or lb.total_spin is None:
        return None
    same = la.total_spin == lb.total_spin
    if la.sz_twice is not None and lb.sz_twice is not None:
        same = same and la.sz_twice == lb.sz_twice
    if la.parity is not None and lb.parity is not None:
        same = same and la.parity == lb.parity
    return same


def detect_crossings(sweep_result: SweepResult, a: int, b: int) -> list[CrossingEvent]:
    """Crossing events between sorted levels ``a`` and ``b`` (a < b)."""
    if not 0 <= a < b < sweep_result.k_levels:
        raise ValueError(f"levels ({a}, {b}) not contained in the sweep")
    cfg = sweep_result.config
    deg = degeneracy_tolerance(_spectral_width(sweep_result))

    # levels count by value here, while a dense solve lists the members of
    # a degenerate multiplet in block order and keeps the first k so listed.
    # LAPACK returns every level at one cost, so a dense probe takes them
    # all and serves every pair with the lowest k_levels by value; a
    # Lanczos solve grows with the levels asked, so it asks for b + 1
    basis = enumerate_sector(cfg.lattice, cfg.sz_twice)
    k = basis.dimension if _dense(basis, cfg.options) else b + 1

    def gap_at(g: float) -> float:
        levels = sweep_result._probes.get((g, k))
        if levels is None:
            sol, _ = solve_levels(cfg, g, k, energies_only=True)
            levels = sweep_result._probes[g, k] = np.sort(sol.energies)[:cfg.k_levels]
        return float(levels[b] - levels[a])

    grid = sweep_result.grid
    ordered = np.sort([sweep_result.energy(n) for n in range(sweep_result.k_levels)],
                      axis=0)
    gap = ordered[b] - ordered[a]
    events: list[CrossingEvent] = []
    for inside, outside, dip in _candidates(gap, deg):
        i, j = sorted((inside, outside))
        if dip:
            loc, min_gap = _golden_min(gap_at, grid[i], grid[j], REFINE_TOL)
            slope = (max(gap[i], gap[j]) - min_gap) / (grid[j] - grid[i])
            touch_tol = max(deg, 4.0 * slope * REFINE_TOL)
        else:
            loc, min_gap = _bisect_boundary(gap_at, grid[inside], grid[outside],
                                            float(gap[inside]), deg, REFINE_TOL)
            touch_tol = deg
        event = _make_event(sweep_result, (a, b), loc, i, j, min_gap, touch_tol)
        if event is not None:
            events.append(event)
    events.sort(key=lambda e: e.location)
    return events


def _runs(mask) -> list[tuple[int, int]]:
    """``(start, end)`` of every maximal run of True in ``mask``, end inclusive."""
    edges = np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0)
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    (np.flatnonzero(edges == -1) - 1).tolist()))


def _candidates(gap: np.ndarray, deg: float) -> list[tuple[int, int, bool]]:
    """Grid cells to refine, as ``(inside, outside, dip)`` point indices.

    The gap is split at unsolved (NaN) points.  In each solved segment,
    a degenerate run of one or two points with split levels on both
    sides is an isolated touch, and a point below both neighbours by more
    than ``deg``, none of the three degenerate, is an open dip; either
    gives ``(left, right, True)``, the cell around it for a golden-section
    search.  Each end of a longer run that meets split levels gives
    ``(run end, split neighbour, False)`` for bisection; a run that meets
    the segment's end gives nothing there.
    """
    cells = []
    for s, e in _runs(~np.isnan(gap)):
        seg = gap[s:e + 1]
        closed = seg <= deg
        for r0, r1 in _runs(closed):
            left, right = r0 > 0, r1 < e - s
            if left and right and r1 - r0 <= 1:
                cells.append((s + r0 - 1, s + r1 + 1, True))
                continue
            if left:
                cells.append((s + r0, s + r0 - 1, False))
            if right:
                cells.append((s + r1, s + r1 + 1, False))
        # a dip must clear its neighbours by more than the tolerance, or
        # last-bit noise on a flat gap would pass for one
        mid = seg[1:-1]
        dips = (~(closed[:-2] | closed[1:-1] | closed[2:])
                & (mid < seg[:-2] - deg) & (mid < seg[2:] - deg))
        cells.extend((s + i, s + i + 2, True) for i in np.flatnonzero(dips).tolist())
    return cells


def _make_event(sweep_result, pair, loc, i, j, min_gap, touch_tol):
    """The event refined in the cell from grid point ``i`` to ``j``, or
    None for a dip between unrelated levels.

    ``touch_tol`` absorbs the refinement resolution: a transversal
    crossing probed down to a bracket of width w still shows a residual
    gap of order slope * w, which must not demote it to "avoided".
    """
    below, above = sweep_result.points[i], sweep_result.points[j]
    lab_b = tuple(below.labels[n] for n in pair)
    lab_a = tuple(above.labels[n] for n in pair)
    if min_gap <= touch_tol:
        kind = "true_crossing"
    else:
        agree_b, agree_a = _labels_agree(*lab_b), _labels_agree(*lab_a)
        if agree_b is None or agree_a is None:
            kind = "unresolved"
        elif agree_b and agree_a:
            kind = "avoided"
        else:
            # levels of different symmetry passing near each other; the
            # gap stays open, so there is nothing to report
            return None
    return CrossingEvent(level_pair=pair, location=loc, bracket=(below.g, above.g),
                         kind=kind, min_gap=min_gap)


def _golden_min(f, lo, hi, tol):
    """Golden-section minimum of a unimodal gap; returns (location, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        cand = (c, fc) if fc <= fd else (d, fd)
        if cand[1] < best[1]:
            best = cand
    return best


def _bisect_boundary(gap_at, g_true, g_false, min_gap, deg, tol):
    """Bisect the point where the gap leaves the degeneracy tolerance,
    starting from the sweep's own gap ``min_gap`` at ``g_true``."""
    while abs(g_false - g_true) > tol:
        mid = 0.5 * (g_true + g_false)
        gm = gap_at(mid)
        if gm <= deg:
            g_true = mid
            min_gap = min(min_gap, gm)
        else:
            g_false = mid
    return 0.5 * (g_true + g_false), min_gap


# ---------------------------------------------------------------------------
# derivatives and extrema

def derivative(grid: np.ndarray, values: np.ndarray, order: int):
    """Iterated central differences, O(step^2) accurate per application;
    the grid loses one point per side per order."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if order < 1 or order > 4:
        raise ValueError("derivative order must be between 1 and 4")
    if len(grid) != len(values):
        raise ValueError("grid and values must have equal length")
    if len(grid) <= 2 * order:
        raise ValueError("series too short for the requested order")
    steps = np.diff(grid)
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("derivative requires a uniform grid")
    for _ in range(order):
        values = (values[2:] - values[:-2]) / (2.0 * h)
        grid = grid[1:-1]
    return grid, values


@dataclass(frozen=True)
class Extremum:
    location: float
    value: float
    kind: str  # "min" | "max"


def locate_extrema(grid: np.ndarray, values: np.ndarray) -> list[Extremum]:
    """Interior slope sign changes, refined by quadratic interpolation."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(grid) < 3:
        raise ValueError("need at least three points")
    out = []
    slopes = np.diff(values)
    for i in range(1, len(values) - 1):
        left, right = slopes[i - 1], slopes[i]
        if left > 0 > right:
            kind = "max"
        elif left < 0 < right:
            kind = "min"
        else:
            continue
        denom = values[i - 1] - 2.0 * values[i] + values[i + 1]
        h = grid[i] - grid[i - 1]
        offset = 0.5 * h * (values[i - 1] - values[i + 1]) / denom
        loc = grid[i] + offset
        val = values[i] - 0.125 * (values[i - 1] - values[i + 1]) ** 2 / denom
        out.append(Extremum(float(loc), float(val), kind))
    return out


def _derivative_extrema(grid: np.ndarray, conc: np.ndarray, order: int):
    """Extrema of the ``order``-th derivative of the solved points of
    ``conc``, or None when too few points are solved for it."""
    valid = ~np.isnan(conc)
    if valid.sum() <= 2 * order + 2:
        return None
    return locate_extrema(*derivative(grid[valid], conc[valid], order))


# ---------------------------------------------------------------------------
# classification

@dataclass
class TransitionEvidence:
    gs_events: list
    es_events: list
    jump: float | None = None
    jump_location: float | None = None
    jump_tol: float | None = None
    argmax_location: float | None = None
    argmax_value: float | None = None
    derivative_order: int | None = None
    derivative_extrema: list = field(default_factory=list)


@dataclass
class TransitionReport:
    type: str  # "I" | "II" | "III" | "none"
    gs_lc: bool
    es_lc: bool
    concurrence_behavior: str
    space: str  # the space the sweep solved, as ``space_name`` spells it
    evidence: TransitionEvidence


def classify(sweep_result: SweepResult, *, jump_tol: float | None = None,
             max_derivative_order: int = 4, pair: str | None = None) -> TransitionReport:
    """Decide transition type I / II / III / none from one sweep.

    I:   ground-state true crossing with a concurrence jump above
         ``jump_tol`` (default: ten times the median adjacent jump).
    II:  an excited-state true crossing whose location lies within two
         grid steps of the concurrence maximum.
    III: otherwise, some derivative of order <= ``max_derivative_order``
         has an interior extremum.
    """
    if sweep_result.k_levels < 3:
        raise ValueError("classification needs at least three levels")
    grid = sweep_result.grid
    step = sweep_result.grid_spec.step
    conc = sweep_result.concurrence(pair)
    valid = ~np.isnan(conc)
    if valid.sum() < 5:
        raise ValueError("too few valid sweep points to classify")

    adjacent = np.abs(np.diff(conc[valid]))
    tol = jump_tol if jump_tol is not None \
        else max(10.0 * float(np.median(adjacent)), 1e-8)

    gs_events = detect_crossings(sweep_result, 0, 1)
    es_events = []
    for a in range(1, sweep_result.k_levels - 1):
        es_events.extend(detect_crossings(sweep_result, a, a + 1))
    gs_true = [e for e in gs_events if e.kind == "true_crossing"]
    es_true = [e for e in es_events if e.kind == "true_crossing"]
    evidence = TransitionEvidence(gs_events=gs_events, es_events=es_events,
                                  jump_tol=tol)

    def report(kind, behavior):
        return TransitionReport(kind, bool(gs_true), bool(es_true), behavior,
                                sweep_result.config.space, evidence)

    # Type I: concurrence jumps across a ground-state crossing
    for event in gs_true:
        below = np.where(valid & (grid <= event.location - 0.5 * step))[0]
        above = np.where(valid & (grid >= event.location + 0.5 * step))[0]
        if not len(below) or not len(above):
            continue
        jump = abs(conc[above[0]] - conc[below[-1]])
        if jump > tol:
            evidence.jump = float(jump)
            evidence.jump_location = event.location
            return report("I", "discontinuous")

    # Type II: excited-state crossing pinned to the concurrence maximum
    arg = int(np.nanargmax(conc))
    evidence.argmax_location = float(grid[arg])
    evidence.argmax_value = float(conc[arg])
    for event in es_true:
        if abs(grid[arg] - event.location) <= 2.0 * step + 1e-12:
            return report("II", "continuous, maximum at the crossing")

    # Type III: extremum in some low-order derivative
    for order in range(1, max_derivative_order + 1):
        extrema = _derivative_extrema(grid, conc, order)
        if extrema is None:
            break
        if extrema:
            evidence.derivative_order = order
            evidence.derivative_extrema = extrema
            return report("III", f"continuous, extremum in derivative of order {order}")

    return report("none", "featureless")


# ---------------------------------------------------------------------------
# finite-size drift of derivative extrema

@dataclass
class ScalingEntry:
    n_sites: int
    location: float
    value: float
    space: str  # the space this size's sweep solved


@dataclass
class ScalingResult:
    derivative_order: int
    extremum_kind: str
    entries: list[ScalingEntry]
    skipped: list[tuple[int, str]]
    intercept: float | None
    slope: float | None
    residual_norm: float | None


def fit_inverse_size(sizes, locations):
    """Least-squares fit location = intercept + slope / N."""
    x = 1.0 / np.asarray(sizes, dtype=float)
    y = np.asarray(locations, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return float(intercept), float(slope), float(np.linalg.norm(resid))


def scaling_study(family: str, fixed_params: dict, swept: GridSpec,
                  sizes, derivative_order: int, *, pairs=("nn",),
                  k_levels: int = 2, space: str = "auto",
                  extremum_kind: str = "min", use_raw: bool = False,
                  options: SolverOptions = SolverOptions(),
                  threads: int = 1) -> ScalingResult:
    """Track the dominant derivative extremum of the concurrence with N.

    Differentiates the clamped concurrence by default (``use_raw`` flips
    to the unclamped value) and fits extremum locations against 1/N.
    """
    sizes = list(sizes)
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"each size may appear once, not {sizes}")
    entries = []
    skipped = []
    for n in sizes:
        lattice = family_spec(family).lattice(n)
        result = sweep(family, fixed_params, swept, lattice, k_levels=k_levels,
                       pairs=pairs, space=space, options=options, threads=threads)
        extrema = _derivative_extrema(result.grid, result.concurrence(raw=use_raw),
                                      derivative_order)
        if extrema is None:
            skipped.append((n, "too few valid points"))
            continue
        extrema = [e for e in extrema if e.kind == extremum_kind]
        if not extrema:
            skipped.append((n, f"no interior {extremum_kind}imum"))
            continue
        dominant = max(extrema, key=lambda e: abs(e.value))
        entries.append(ScalingEntry(n, dominant.location, dominant.value,
                                    result.config.space))
    if len(entries) >= 2:
        intercept, slope, resid = fit_inverse_size(
            [e.n_sites for e in entries], [e.location for e in entries])
    else:
        intercept = slope = resid = None
    return ScalingResult(derivative_order, extremum_kind, entries, skipped,
                         intercept, slope, resid)
