"""Ground-state observables: reduced density matrices, correlators,
quantum-number labels, collective-mode operators and their sum rules.

All state vectors are real.  Collective operators along y are handled
through their real companion: A_y = i B with B real antisymmetric, so
B|psi> carries all the information needed for overlaps (|<n|A|0>|^2 =
|<n|B|0>|^2) and for the double-commutator expectation, which reduces to
the same real formula as in the symmetric x/z cases.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import SectorBasis, enumerate_sector
from .models import (BOND_PAIRS, FAMILY_TABLE, BlockLabels, ModelSpec,
                     HamiltonianAction, _check_geometry, family_spec)
from .eigensolver import EigenSolution, dense_spectrum

NORM_TOL = 1e-10
# how far an expectation may sit from a quantum number and still carry its label
QUANTIZATION_TOL = 1e-6
# the largest full basis the sum rules solve for its whole spectrum
DENSE_CAP_DEFAULT = 4096


class ResourceLimitError(RuntimeError):
    """Raised when a full spectrum would exceed ``DENSE_CAP_DEFAULT``."""


# two-site operators s^a (x) s^a over the pair basis (uu, ud, du, dd)
_OP_XX = 0.25 * np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
_OP_YY = 0.25 * np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
_OP_ZZ = 0.25 * np.diag([1.0, -1.0, -1.0, 1.0])
PAIR_OPS = {"x": _OP_XX, "y": _OP_YY, "z": _OP_ZZ}


def _check_normalized(vec):
    nrm = math.sqrt(float(vec.dot(vec)))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: |v| = {nrm!r}")


def _pair_groups(basis: SectorBasis, i: int, j: int):
    """For the sites (i, j): each configuration's environment (all bits
    but i, j) as an index into the sorted distinct environments, its
    local state in the (uu, ud, du, dd) order, and the number of
    environments; cached on the basis per pair."""
    def build():
        bit_i, bit_j = (basis.configs >> i) & 1, (basis.configs >> j) & 1
        envs, inv = np.unique(basis.configs & ~((1 << i) | (1 << j)), return_inverse=True)
        local = (1 - bit_i) * 2 + (1 - bit_j)
        return inv, local, len(envs)
    return basis.cached(("pair_groups", i, j), build)


def two_site_rdm(basis: SectorBasis, vec: np.ndarray, i: int, j: int) -> np.ndarray:
    """Reduced density matrix of sites (i, j) in the (uu, ud, du, dd) order.

    Configurations sharing an environment (all bits except i, j) are
    grouped; the RDM is the Gram matrix of the grouped amplitude table.
    """
    if i == j:
        raise ValueError("need two distinct sites")
    n = basis.n_sites
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"sites ({i}, {j}) outside lattice of {n}")
    _check_normalized(vec)
    inv, local, count = _pair_groups(basis, i, j)
    table = np.zeros((count, 4))
    table[inv, local] = vec
    return table.T @ table


def pair_correlators(rho: np.ndarray) -> tuple[float, float, float]:
    """(cxx, cyy, czz) of a two-site RDM: <s^a s^a> = tr(rho s^a s^a)."""
    return tuple(float(np.sum(rho * PAIR_OPS[ax])) for ax in "xyz")


def correlator(basis: SectorBasis, vec: np.ndarray, axis: str, i: int, j: int) -> float:
    """<psi| s_i^axis s_j^axis |psi> via the two-site RDM."""
    return dict(zip("xyz", pair_correlators(two_site_rdm(basis, vec, i, j))))[axis]


def bond_averaged_correlators(model: ModelSpec, basis: SectorBasis, vec: np.ndarray,
                              kind: str = "nn"):
    """Per-axis correlators averaged over all bonds of one kind of the
    model; a kind the model does not have raises ValueError."""
    fam = family_spec(model.family)
    _check_geometry(fam, basis.lattice)
    if kind not in fam.bond_kinds:
        raise ValueError(f"{fam.name} model has no {kind!r} bonds")
    pairs = BOND_PAIRS[kind](basis.lattice)
    acc = np.zeros(3)
    for i, j in pairs:
        acc += pair_correlators(two_site_rdm(basis, vec, i, j))
    return acc / len(pairs)


def _raising_flips(basis: SectorBasis):
    """All single flips s_i^+ on the basis, site after site: the basis
    index of each configuration with site i down and the configuration
    the flip takes it to; cached on the basis."""
    def build():
        # filled in place, so building allocates little beyond what is kept
        count = int(np.sum(basis.n_sites - basis.popcounts))
        src, dst = np.empty(count, np.int32), np.empty(count, np.int32)
        at = 0
        for i in range(basis.n_sites):
            down = np.flatnonzero(((basis.configs >> i) & 1) == 0)
            src[at:at + len(down)] = down
            dst[at:at + len(down)] = basis.configs[down] | (1 << i)
            at += len(down)
        return src, dst
    return basis.cached("s_plus", build)


def _spin_label(s_sq: float):
    """(S, <S^2>) with S = None when <S^2> is not quantized."""
    s = 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * s_sq)))
    s_half = round(2.0 * s) / 2.0
    if abs(s_half * (s_half + 1.0) - s_sq) <= QUANTIZATION_TOL:
        return s_half, s_sq
    return None, s_sq


def total_spin(basis: SectorBasis, vec: np.ndarray):
    """(S, <S^2>) with S = None when <S^2> is not quantized.

    Uses S^2 = S^- S^+ + Sz^2 + Sz, so <S^2> = |S^+ psi|^2 + <Sz (Sz + 1)>.
    S^+ psi is one scatter of the cached single flips into a buffer
    indexed by configuration, which also holds states of mixed Sz.
    """
    _check_normalized(vec)
    n = basis.n_sites
    src, dst = _raising_flips(basis)
    # bincount adds in array order, so each configuration sums its flips
    # site after site, as one scatter per site would
    raised = np.bincount(dst, weights=vec[src], minlength=2 ** n)
    sz = basis.popcounts - 0.5 * n
    return _spin_label(float(raised @ raised) + float(np.sum(sz * (sz + 1.0) * vec * vec)))


def parity(basis: SectorBasis, vec: np.ndarray):
    """Global spin-flip parity prod_i(2 s_i^z): +1, -1, or None for mixed."""
    if basis.sz_twice is not None:
        raise ValueError("parity labels are defined on the full basis only")
    _check_normalized(vec)
    signs = basis.cached("parity_signs",
                         lambda: 1.0 - 2.0 * ((basis.n_sites - basis.popcounts) % 2))
    expect = float(np.sum(signs * vec * vec))
    if abs(expect) > 1.0 - QUANTIZATION_TOL:
        return 1 if expect > 0 else -1
    return None


def _sz_label(mean: float, var: float):
    """2<Sz> as an integer label, or None when its variance says the
    state mixes sectors."""
    return int(round(mean)) if var <= QUANTIZATION_TOL else None


def sz_twice_label(basis: SectorBasis, vec: np.ndarray):
    """2<Sz> as an integer label, or None when the state mixes sectors."""
    if basis.sz_twice is not None:
        return basis.sz_twice
    _check_normalized(vec)
    szt = basis.cached("sz_twice", lambda: 2.0 * basis.popcounts - basis.n_sites)
    mean = float(np.sum(szt * vec * vec))
    return _sz_label(mean, float(np.sum(szt * szt * vec * vec)) - mean * mean)


@dataclass(frozen=True)
class StateLabels:
    sz_twice: int | None
    total_spin: float | None
    parity: int | None
    s_squared: float


def label_state(basis: SectorBasis, vec: np.ndarray,
                block: BlockLabels | None = None) -> StateLabels:
    """The quantum numbers of one level: ``vec`` is its vector in
    ``basis``, or with ``block`` its vector in that symmetry block of
    ``basis`` (``models.HamiltonianAction.labels``).

    In a block, <S^2> is v^T S^2_b v.  On a popcount group 2Sz is
    2 popcount - N and the parity (-1)^(N - popcount), on the full basis
    only; on a parity group the parity is the group's, and 2<Sz> and its
    variance come from Sz and Sz^2 in the block, with the same tolerance
    as on a vector.
    """
    if block is None:
        s, s_sq = total_spin(basis, vec)
        par = parity(basis, vec) if basis.sz_twice is None else None
        return StateLabels(sz_twice=sz_twice_label(basis, vec), total_spin=s,
                           parity=par, s_squared=s_sq)
    _check_normalized(vec)
    s, s_sq = _spin_label(float(vec.dot(block.s_squared.dot(vec))))
    n = basis.n_sites
    par = 1 - 2 * ((n - block.group) % 2) if basis.sz_twice is None else None
    if block.parity_group:
        mean = 2.0 * float(vec.dot(block.sz.dot(vec)))
        sz = _sz_label(mean, 4.0 * float(vec.dot(block.sz_squared.dot(vec))) - mean * mean)
    else:
        sz = 2 * block.group - n
    return StateLabels(sz_twice=sz, total_spin=s, parity=par, s_squared=s_sq)


def level_labels(basis: SectorBasis, solution: EigenSolution) -> list[StateLabels]:
    """``label_state`` of every level of a solve on ``basis``
    (``analysis.solve_model``): from the level's symmetry block and that
    block's label terms, which a dense solve keeps
    (``EigenSolution.block_levels`` and ``block_labels``), else from its
    vector."""
    if solution.block_levels is None:
        return [label_state(basis, solution.vectors[:, c]) for c in range(solution.k)]
    blocks = solution.block_labels
    return [label_state(basis, vec, blocks[b]) for b, vec in solution.block_levels]


# ---------------------------------------------------------------------------
# collective operators and sum rules

OPERATOR_TAGS = ("staggered_x", "staggered_y", "staggered_z",
                 "uniform_x", "uniform_y", "uniform_z")


def _parse_tag(tag: str):
    try:
        mode, axis = tag.split("_")
    except ValueError:
        raise ValueError(f"unknown operator tag {tag!r}")
    if mode not in ("staggered", "uniform") or axis not in "xyz":
        raise ValueError(f"unknown operator tag {tag!r}")
    return axis, (np.pi if mode == "staggered" else 0.0)


def collective_apply(basis: SectorBasis, vec: np.ndarray, axis: str,
                     momentum: float) -> np.ndarray:
    """Apply sum_j e^{i j q} s_j^axis (q = 0 or pi) to a state.

    For axis y the returned vector is the real companion B|psi> with
    A_y = i B; overlap magnitudes and norms are unaffected.  x and y
    change total Sz, so they require the full basis.
    """
    if momentum not in (0.0, np.pi):
        raise ValueError("momentum must be 0 or pi")
    phases = np.ones(basis.n_sites) if momentum == 0.0 else \
        np.array([(-1.0) ** j for j in range(basis.n_sites)])
    if axis == "z":
        diag = np.zeros(basis.dimension)
        for j in range(basis.n_sites):
            diag += phases[j] * (basis.site_bits(j) - 0.5)
        return diag * vec
    if not basis.is_full:
        raise ValueError(f"collective s^{axis} leaves the Sz sector; "
                         "lift the state to the full basis first")
    out = np.zeros_like(vec)
    for j in range(basis.n_sites):
        target = basis.configs ^ (1 << j)
        if axis == "x":
            out[target] += (0.5 * phases[j]) * vec
        else:  # y companion: up -> down carries +, down -> up carries -
            sign = 2.0 * basis.site_bits(j) - 1.0
            out[target] += (0.5 * phases[j]) * sign * vec
    return out


@dataclass
class TransitionWeights:
    operator_tag: str
    excitation_energies: np.ndarray  # E_n - E_0, all >= 0 up to roundoff
    weights: np.ndarray              # |<n| A |0>|^2

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def transition_weights(basis: SectorBasis, ground: np.ndarray,
                       solution: EigenSolution, operator_tag: str) -> TransitionWeights:
    """Weights |<n|A|0>|^2 against a complete eigenbasis."""
    axis, momentum = _parse_tag(operator_tag)
    if solution.vectors.shape[0] != solution.k:
        raise ValueError("transition weights need the full spectrum of the "
                         "space containing A|0>")
    amped = collective_apply(basis, ground, axis, momentum)
    if solution.vectors.shape[0] != amped.shape[0]:
        raise ValueError("solution basis does not match the operator's space")
    overlaps = solution.vectors.T @ amped
    exc = solution.energies - solution.energies[0]
    return TransitionWeights(operator_tag, exc, overlaps ** 2)


@dataclass
class SumRuleReport:
    operator_tag: str
    lhs: float           # <0|[A,[H,A]]|0> by operator application
    rhs: float           # 2 sum_n (E_n - E_0) |<0|A|n>|^2
    # the full spectrum the right side was summed over, and the operator
    # the left side applied, for reuse
    solution: EigenSolution | None = field(default=None, repr=False, compare=False)
    action: HamiltonianAction | None = field(default=None, repr=False, compare=False)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _full_solution(model: ModelSpec, lattice, solution, action=None):
    """The full basis, the full spectrum of H and ``action``, H on that
    basis: the spectrum is solved from ``action``, built if None, unless
    ``solution`` is given, and ``action`` stays None when neither needs
    it; spaces above ``DENSE_CAP_DEFAULT`` raise before any solve."""
    basis = enumerate_sector(lattice, None)
    if basis.dimension > DENSE_CAP_DEFAULT:
        raise ResourceLimitError(f"sum rules need the full spectrum; "
                                 f"dim {basis.dimension} > cap {DENSE_CAP_DEFAULT}")
    if solution is None:
        if action is None:
            action = HamiltonianAction(model, basis)
        solution = dense_spectrum(action.blocks())
    return basis, solution, action


def sum_rule_residual(model: ModelSpec, lattice, operator_tag: str,
                      solution: EigenSolution | None = None,
                      action: HamiltonianAction | None = None) -> SumRuleReport:
    """Double-commutator identity check for one collective operator.

    The left side never materializes A or [H, A]: with u = B|0> and the
    real companion B it is 2(<u|H|u> - <u|B H|0>), identical in form for
    symmetric (x, z) and antisymmetric (y companion) operators.
    ``solution`` is the full spectrum of ``model`` on the full basis and
    ``action`` its operator there, as carried by an earlier report; each
    is built when omitted.
    """
    basis, sol, action = _full_solution(model, lattice, solution, action)
    if action is None:
        action = HamiltonianAction(model, basis)
    axis, momentum = _parse_tag(operator_tag)
    e0, ground = sol.ground()
    u = collective_apply(basis, ground, axis, momentum)
    lhs = 2.0 * (u @ action(u) - u @ collective_apply(basis, action(ground), axis, momentum))
    tw = transition_weights(basis, ground, sol, operator_tag)
    rhs = 2.0 * float(tw.excitation_energies @ tw.weights)
    return SumRuleReport(operator_tag, float(lhs), rhs, solution=sol, action=action)


@dataclass
class RearrangedSumRule:
    """The per-model rearrangement relating bond correlators to the
    ground-state energy plus collective-mode weights (``rearranged`` in
    the family table):

    xxz:   -sum_a <s^a s^a>            = E0/(JN) + (1/NJ) sum w,  J = 2 + Delta
    ising: <s^x s^x> - <s^y s^y> - <s^z s^z>
                                       = -E0/(JN) - (1/NJ) sum w, J = -lambda
    """
    family: str
    j_value: float
    correlator_side: float
    spectrum_side: float

    @property
    def residual(self) -> float:
        return abs(self.correlator_side - self.spectrum_side)


def rearranged_sum_rule(model: ModelSpec, lattice,
                        solution: EigenSolution | None = None) -> RearrangedSumRule:
    """Both sides of the per-model rearrangement; ``solution`` as in
    ``sum_rule_residual``."""
    basis, sol, _ = _full_solution(model, lattice, solution)
    n = lattice.n_sites
    e0, ground = sol.ground()
    cxx, cyy, czz = bond_averaged_correlators(model, basis, ground, kind="nn")

    fam = family_spec(model.family)
    if fam.rearranged is None:
        names = [spec.name for spec in FAMILY_TABLE.values() if spec.rearranged]
        raise ValueError(f"rearranged sum rule is defined for {' and '.join(names)}")
    j, corr_side, sign = fam.rearranged(model.as_dict(), cxx, cyy, czz)
    if j == 0.0:
        raise ValueError("rearranged form is singular at J = 0")

    weight_sum = 0.0
    for tag in fam.operators:
        tw = transition_weights(basis, ground, sol, tag)
        weight_sum += float(tw.excitation_energies @ tw.weights)
    spec_side = sign * (e0 / (j * n) + weight_sum / (n * j))
    return RearrangedSumRule(model.family, j, corr_side, spec_side)


def structure_factor(basis: SectorBasis, vec: np.ndarray, axis: str,
                     momentum: float) -> float:
    """(1/N) |A_q |psi>|^2, a finite-size probe of (quasi) long-range order."""
    _check_normalized(vec)
    amped = collective_apply(basis, vec, axis, momentum)
    return float(amped @ amped) / basis.n_sites
