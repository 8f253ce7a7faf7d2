"""Hamiltonian families and their sparse action on state vectors.

Five families are supported, all with periodic boundaries and spin-1/2
operators s^a = sigma^a / 2:

* ``j1j2``   H = sum_i (J1 s_i.s_{i+1} + J2 s_i.s_{i+2})
* ``xxz``    H = sum_i (sx sx + sy sy + Delta sz sz)
* ``ising``  H = -sum_i (lambda sx sx + sz/2)
* ``ladder`` H = J_leg sum_legs s.s + J_rung sum_rungs s.s
* ``xyz``    H = sum_i (Jx sx sx + Jy sy sy + Jz sz sz) + h sum_i sz

Each family is declared once, in ``FAMILY_TABLE`` (lattice, bond kinds,
parameters with their defaults and command-line spellings, couplings, z
field, Sz symmetry, sum-rule data), and each bond kind's site pairs once,
in ``BOND_PAIRS``; the two together are the only description of a model.
Model building, symmetry checks, the sweep space, the sum rules and the
command line all read them.  ``HamiltonianAction`` holds a model's
terms on one basis, their keys built once: it applies H as one sparse
product, and gives the dense blocks of H on symmetry-adapted states
(``blocks``: popcount groups of the basis, popcount parity groups of
the full basis where H does not conserve Sz, split by the real irreps
of the lattice translations, the reflection and spin inversion) and
their label terms (``labels``).
``stacked_blocks`` gives the blocks of several actions with the same
terms at once, each block's matrices stacked, for a batched solve.
Three things are cached per basis (``SectorBasis.cached``): each
operator term; for a set of nonzero flip terms one merged CSR pattern
of the diagonal and every flip; and for the whole set of a model's
terms one block layout, every term projected into all blocks by one
sparse product.

Every family is real symmetric in the sz product basis: sy sy only ever
appears pairwise and contributes real matrix elements, so state vectors
stay real throughout.

A bond with couplings (cx, cy, cz) acting on a configuration gives a
diagonal element cz/4 (aligned pair) or -cz/4 (anti-aligned), plus an
off-diagonal element to the double-flipped configuration: (cx + cy)/4
when the pair is anti-aligned and (cx - cy)/4 when aligned.  Aligned
flips change total Sz, so they only occur for families with cx != cy,
which are solved in the full basis.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import sparse

from .lattice import LatticeSpec, SectorBasis

# largest asymmetry |A - A^T|, relative to max(1, max|A|), a block may carry
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: tuple  # sorted (name, value) pairs

    def param(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    def as_dict(self) -> dict:
        return dict(self.params)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})"


def _spec(family, **params):
    return ModelSpec(family, tuple(sorted(params.items())))


def j1j2(j1: float = 1.0, j2: float = 0.0) -> ModelSpec:
    return _spec("j1j2", j1=float(j1), j2=float(j2))


def xxz(delta: float) -> ModelSpec:
    return _spec("xxz", delta=float(delta))


def transverse_ising(lam: float) -> ModelSpec:
    if lam <= 0:
        raise ValueError("ising coupling must be positive")
    return _spec("ising", lam=float(lam))


def ladder_model(j_rung: float, j_leg: float = 1.0) -> ModelSpec:
    return _spec("ladder", j_rung=float(j_rung), j_leg=float(j_leg))


def general_xyz(jx: float, jy: float, jz: float, h: float = 0.0) -> ModelSpec:
    return _spec("xyz", jx=float(jx), jy=float(jy), jz=float(jz), h=float(h))


@dataclass(frozen=True)
class Param:
    """One family parameter; a ``default`` of None marks it required."""
    name: str
    default: float | None = None
    sweepable: bool = False
    alias: str | None = None  # command-line flag and sweep name, if not ``name``
    flag: str | None = None   # command-line flag alone, if it differs again

    @property
    def cli_flag(self) -> str:
        return "--" + (self.flag or (self.alias or self.name).replace("_", "-"))


@dataclass(frozen=True)
class Family:
    """Everything the toolkit knows about one model family."""
    name: str
    geometry: str                   # "chain" | "ladder"
    bond_kinds: tuple               # in operator-term order
    params: tuple                   # Param entries
    make: Callable                  # the public constructor, by parameter name
    couplings: Callable             # (params dict, bond kind) -> (cx, cy, cz)
    field: Callable | None = None   # params dict -> signed coefficient of sum_i s_i^z
    sz_conserved: bool = True       # at every parameter value
    pairs: tuple = ("nn",)          # default pairs for pair observables
    operators: tuple = ("staggered_x", "staggered_y", "staggered_z")  # sum-rule set
    # rearranged sum rule (observables.RearrangedSumRule), when it has one:
    # (params, nn-bond cxx, cyy, czz) -> (J, correlator side, sign)
    rearranged: Callable | None = None

    def lattice(self, n_sites: int) -> LatticeSpec:
        return LatticeSpec(self.geometry, n_sites)


FAMILY_TABLE = {spec.name: spec for spec in (
    Family("xxz", "chain", ("nn",), (Param("delta", sweepable=True),), xxz,
           couplings=lambda p, kind: (1.0, 1.0, p["delta"]),
           rearranged=lambda p, x, y, z: (2.0 + p["delta"], -(x + y + z), 1.0)),
    Family("j1j2", "chain", ("nn", "nnn"),
           (Param("j1", 1.0), Param("j2", 0.0, sweepable=True)), j1j2,
           couplings=lambda p, kind: (p["j1"] if kind == "nn" else p["j2"],) * 3),
    Family("ising", "chain", ("nn",),
           (Param("lam", sweepable=True, alias="lambda"),), transverse_ising,
           couplings=lambda p, kind: (-p["lam"], 0.0, 0.0),
           field=lambda p: -0.5, sz_conserved=False,
           operators=("uniform_x", "uniform_y", "uniform_z"),
           rearranged=lambda p, x, y, z: (-p["lam"], x - y - z, -1.0)),
    Family("ladder", "ladder", ("leg", "rung"),
           (Param("j_rung", sweepable=True), Param("j_leg", 1.0)), ladder_model,
           couplings=lambda p, kind: (p["j_leg"] if kind == "leg" else p["j_rung"],) * 3,
           pairs=("leg", "rung")),
    Family("xyz", "chain", ("nn",),
           (Param("jx", 1.0, sweepable=True), Param("jy", 1.0, sweepable=True),
            Param("jz", 1.0, sweepable=True), Param("h", 0.0, sweepable=True, flag="hz")),
           general_xyz,
           couplings=lambda p, kind: (p["jx"], p["jy"], p["jz"]),
           field=lambda p: p["h"], sz_conserved=False),
)}


def family_spec(name: str) -> Family:
    if name not in FAMILY_TABLE:
        raise ValueError(f"unknown model family {name!r}")
    return FAMILY_TABLE[name]


def build_model(family: str, params: dict) -> ModelSpec:
    """A family's model from a parameter dict; a parameter left out takes its
    default or, when required, raises KeyError.  A name the family does not
    have, or a value that is not finite, raises ValueError."""
    fam = family_spec(family)
    stray = sorted(set(params) - {p.name for p in fam.params})
    if stray:
        raise ValueError(f"{fam.name} has no parameter {', '.join(stray)}")
    values = {p.name: params[p.name] if p.default is None
              else params.get(p.name, p.default) for p in fam.params}
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{fam.name} parameter {name} must be finite, not {value}")
    return fam.make(**values)


# bond kind -> its site pairs on a lattice, one per literal summand
BOND_PAIRS = {
    "nn": lambda lat: [(i, (i + 1) % lat.n_sites) for i in range(lat.n_sites)],
    # the literal sum over i keeps duplicated NNN pairs on 4-site rings
    "nnn": lambda lat: [(i, (i + 2) % lat.n_sites) for i in range(lat.n_sites)],
    "leg": lambda lat: [(2 * k + base, (2 * (k + 1) + base) % lat.n_sites)
                        for k in range(lat.rungs) for base in (0, 1)],
    "rung": lambda lat: [(2 * k, 2 * k + 1) for k in range(lat.rungs)],
}


def _check_geometry(fam: Family, lattice: LatticeSpec) -> None:
    if lattice.geometry != fam.geometry:
        raise ValueError(f"{fam.name} model requires a {fam.geometry} lattice")


def _z_field(fam: Family, params: dict) -> float:
    """The coefficient of sum_i s_i^z, 0.0 for a family without a field."""
    return fam.field(params) if fam.field else 0.0


def _model_terms(model: ModelSpec, lattice: LatticeSpec):
    """``(amplitude, pairs, part)`` for the terms of H on ``lattice``, in
    operator-term order: per bond kind, its bonds' "zz", "anti" and
    "aligned" parts (see ``_term``) scaled by cz/4, (cx + cy)/4 and
    (cx - cy)/4, then the z field as part "field" with ``pairs`` None.
    Zz and anti parts stay at amplitude 0, keeping the block layout; a
    zero aligned part or field, which would change the blocks, is not."""
    fam = family_spec(model.family)
    params = model.as_dict()
    for kind in fam.bond_kinds:
        pairs = tuple(BOND_PAIRS[kind](lattice))
        cx, cy, cz = fam.couplings(params, kind)
        yield 0.25 * cz, pairs, "zz"
        yield 0.25 * (cx + cy), pairs, "anti"
        if cx != cy:
            yield 0.25 * (cx - cy), pairs, "aligned"
    h = _z_field(fam, params)
    if h != 0.0:  # every field is along z
        yield h, None, "field"


def _flips(basis: SectorBasis, pairs: tuple, part: str):
    """Per bond of ``pairs``, in order: which configurations of ``basis``
    the "anti" or "aligned" part flips (a boolean mask), and the basis
    index of each one's double flip.  A flip is its own inverse and keeps
    the pair's alignment, so its term is symmetric: row r holds, bond by
    bond, the flip of r where r is in the mask."""
    if part == "aligned" and basis.sz_twice is not None:
        raise ValueError("a bond with cx != cy does not conserve Sz; "
                         "solve it in the full basis")
    for i, j in pairs:
        aligned, target = basis.pair_table(i, j)
        yield (aligned if part == "aligned" else ~aligned), target


def _term(basis: SectorBasis, pairs: tuple | None, part: str):
    """One coupling-free operator term of the bonds ``pairs`` on ``basis``.

    ``part`` is "zz" (diagonal: sum over bonds of +1 for an aligned pair,
    -1 for an anti-aligned one), "field" (diagonal: sum_i s_i^z, for
    ``pairs`` None), "anti" or "aligned" (CSR matrix summing the double
    flips of anti-aligned or aligned pairs, ``_flips``; duplicated bonds
    give entries of 2).  Terms are cached on the basis, keyed by the bond
    list, so every family and parameter value over one basis shares them.
    """
    def build():
        if part == "field":
            return basis.popcounts - 0.5 * basis.n_sites
        if part == "zz":
            return sum(np.where(basis.pair_table(i, j)[0], 1.0, -1.0) for i, j in pairs)
        rows, cols = [], []
        for mask, target in _flips(basis, pairs, part):
            src = np.flatnonzero(mask)
            rows.append(target[src].astype(np.int32))
            cols.append(src.astype(np.int32))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        dim = basis.dimension
        return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    return basis.cached((pairs, part), build)


def _pattern(basis: SectorBasis, keys: tuple) -> tuple:
    """The CSR pattern of a diagonal plus the off-diagonal terms ``keys``
    ((pairs, part) each, "anti" or "aligned"), built from the bonds'
    flips (``_flips``): each row holds its diagonal entry first, then
    each term's entries, bond by bond, one per flip.  A duplicated bond
    keeps both its entries, which the product sums, so every entry of a
    term has the term's amplitude as its value.  Returns the CSR index
    arrays ``(indptr, indices)`` and per row the length of each of its
    runs, 1 for the diagonal and then each term's count, so H's values are
    ``np.repeat`` of [diagonal, amplitudes] per row by ``lengths``.  The
    index arrays are int32 and read-only; the build takes O(dim) memory
    besides them."""
    dim = basis.dimension
    lengths = np.ones((dim, 1 + len(keys)), dtype=np.int32)
    for t, key in enumerate(keys, 1):
        lengths[:, t] = sum(mask.astype(np.int32) for mask, _ in _flips(basis, *key))
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(lengths.sum(axis=1), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    free = indptr[:-1].copy()  # each row's next free position
    indices[free] = np.arange(dim)
    free += 1
    for key in keys:
        for mask, target in _flips(basis, *key):
            rows = np.flatnonzero(mask)
            indices[free[rows]] = target[rows]
            free[rows] += 1
    for arr in (indptr, indices):
        arr.setflags(write=False)
    return indptr, indices, lengths


class HamiltonianAction:
    """H of one model on one basis: H|v> as one sparse product, and the
    dense symmetry blocks and their label terms.

    Every family is linear in its couplings: H is the sum of the model's
    terms (``_model_terms``), each an amplitude read from ``FAMILY_TABLE``
    times a coupling-free term of the basis.  Their keys and amplitudes
    are built once here, and every part of a solve reads them from the
    action: the block layout (``blocks``), its label terms (``labels``)
    and the operator (``matrix``).  H|v> is ``matrix @ v`` for one vector
    or a block of columns: one CSR product on a pattern cached on the
    basis per set of nonzero off-diagonal term keys (``_pattern``),
    whose values, filled once per action, are the diagonal (zz terms and
    fields) and each flip's amplitude; each row sums its diagonal first,
    then each term's flips bond by bond.  At N = 16, Sz = 0 (j1j2, dim
    12 870, 232 518 entries) one product takes about 0.14 ms (2-core
    Xeon, one BLAS thread), against 0.18 ms for two term products and
    four vector passes; in a traced scaling16 run H|v> is 47% of wall
    and the Lanczos solver's own code 50%.  A bond kind with cx != cy
    raises ValueError on an Sz sector once H is applied or its blocks
    are built.
    """

    def __init__(self, model: ModelSpec, basis: SectorBasis):
        self.model = model
        self.basis = basis
        self.dim = basis.dimension
        _check_geometry(family_spec(model.family), basis.lattice)
        terms = list(_model_terms(model, basis.lattice))
        self.amps = tuple(amp for amp, _, _ in terms)
        self.keys = tuple((pairs, part) for _, pairs, part in terms)
        # (amplitude, key) of each nonzero off-diagonal term
        self._flip_terms = [(amp, key) for amp, key in zip(self.amps, self.keys)
                            if amp != 0.0 and key[1] in ("anti", "aligned")]

    def diagonal(self) -> np.ndarray:
        """H's diagonal: its zz terms and field, each times its amplitude."""
        diag = np.zeros(self.dim)
        for amp, (pairs, part) in zip(self.amps, self.keys):
            if amp != 0.0 and part in ("zz", "field"):
                diag += amp * _term(self.basis, pairs, part)
        return diag

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """H on the basis as one CSR matrix on the cached ``_pattern``."""
        keys = tuple(key for _, key in self._flip_terms)
        indptr, indices, lengths = self.basis.cached(("pattern", keys),
                                                     lambda: _pattern(self.basis, keys))
        runs = np.empty(lengths.shape)  # per row: the diagonal, then each amplitude
        runs[:, 0] = self.diagonal()
        runs[:, 1:] = [amp for amp, _ in self._flip_terms]
        return sparse.csr_matrix((np.repeat(runs.ravel(), lengths.ravel()), indices, indptr),
                                 shape=(self.dim, self.dim))

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError("vector does not match basis dimension")
        return self.matrix @ vec

    def _block_layout(self) -> "_Layout":
        """The ``_Layout`` of this action's terms, cached on the basis by
        their keys."""
        return self.basis.cached(("layout", self.keys),
                                 lambda: _layout(self.basis, self.keys))

    def blocks(self) -> list:
        """``(rows, coefs, dense H)`` per symmetry block of the basis, for
        ``dense_spectrum``: block column a is the state sum_t coefs[t, a]
        |rows[t, a]> of the basis.

        The basis's configurations group by popcount (ascending) when the
        model conserves Sz, else by popcount mod 2 (even first), which
        every model conserves; only labels the basis holds form groups,
        so an Sz sector basis is one group.  Each group splits by the
        real irreps of the group of the lattice translations (by a site
        on a chain, by a rung on a ladder), the reflection and, on a
        group it maps to itself (Sz = 0, or a parity group at even N)
        when the model has no z field, spin inversion
        (``_symmetry_blocks``): one block per reflection and inversion
        sign at momentum 0 and pi, and per inversion sign at each
        momentum between, a block and its partner.  At N = 8 the largest
        full-space blocks are 7 for xxz and j1j2, 14 for the ladder and
        18 for ising.  The blocks, with each operator term cached on the
        basis projected by one sparse product W^T T W, form one
        ``_Layout`` cached on the basis, so a new parameter value costs
        one product and one scatter for all blocks together; a zz or anti
        term of amplitude 0 keeps its place in the layout.  An entry of
        W^T T W coupling two blocks beyond 1e-12 of the term's largest
        entry means a symmetry used is none of H's and raises ValueError,
        and so does a partner block that differs from its first block;
        this is the only check that H commutes with the translations, the
        reflection and spin inversion.  The layout also checks, once,
        that the blocks cover the basis and are symmetric.  The layout's
        arrays are read-only.

        A partner block follows its first block and holds the very same
        matrix object.  Without a z field, spin inversion maps Sz = -m
        onto Sz = +m and commutes with H and the lattice symmetries, so on
        the full basis each -m block is a +m block with its rows inverted
        and the very same matrix object; only the Sz >= 0 blocks are
        built, and a solver can recognize a repeated block by identity.
        """
        layout, stacks = _stacked_matrices([self])
        mats = [stack[0] for stack in stacks]
        return [(rows, coefs, mats[m]) for rows, coefs, m in layout.blocks]

    @property
    def block_entries(self) -> int:
        """How many entries the distinct matrices of ``blocks()`` hold."""
        return self._block_layout().size

    def labels(self) -> tuple:
        """``BlockLabels`` per block of ``blocks()``, in its order, built
        once per layout and cached on the basis.

        S^2 = 3N/4 + sum_{i<j} 2 s_i.s_j is the all-pairs bond list's
        "zz" part at amplitude 1/2 plus its "anti" part at amplitude 1,
        Sz is the "field" term and Sz^2 = N/4 + zz/2; each is a
        coupling-free term cached on the basis (``_term``) and projected
        by the layout's W.  Only the entries inside a block are kept, and
        none is refused: Sz is odd under spin inversion, so on a parity
        group that inversion splits it couples the f = +1 and f = -1
        blocks and is 0 inside each.
        """
        return self.basis.cached(("labels", self.keys),
                                 lambda: _block_labels(self.basis, self._block_layout()))


def stacked_blocks(actions) -> list:
    """``blocks()`` of P actions on one basis with the same term keys, at
    once: ``(rows, coefs, stack)`` per block, with ``stack`` the (P, d, d)
    block matrices of the actions in order, for ``dense_spectra``.  A
    block listed twice holds the same stack object."""
    layout, stacks = _stacked_matrices(actions)
    return [(rows, coefs, stacks[m]) for rows, coefs, m in layout.blocks]


def _stacked_matrices(actions) -> tuple:
    """The layout the ``actions`` share and each of its matrices as a
    (P, d, d) stack, one matrix per action in order."""
    first = actions[0]
    if any(a.basis is not first.basis or a.keys != first.keys for a in actions):
        raise ValueError("stacked blocks need one basis and the same term keys")
    layout = first._block_layout()
    values = np.zeros((len(actions), layout.size))
    for row, action in zip(values, actions):
        # one (terms,) @ (terms, entries) product per action: a product of
        # all the actions' amplitudes at once can round differently, and
        # then a point's levels would depend on the points solved with it
        row[layout.index] = np.array(action.amps) @ layout.weights
    return layout, [values[:, start:start + d * d].reshape(-1, d, d)
                    for start, d in layout.spans]


def apply_hamiltonian(model: ModelSpec, basis: SectorBasis, vec: np.ndarray) -> np.ndarray:
    """H|vec> for one-off use; hot loops should hold a HamiltonianAction."""
    return HamiltonianAction(model, basis)(vec)


def _reflection(lattice: LatticeSpec) -> np.ndarray | None:
    """The lattice reflection as a site permutation (site i goes to
    ``perm[i]``): i -> -i mod N on a chain; on a ladder, rung k -> -k mod
    N/2 with the leg kept.  None when it moves no site.  Whether H
    commutes with it is checked by ``_layout``."""
    site = np.arange(lattice.n_sites)
    if lattice.geometry == "chain":
        perm = -site % lattice.n_sites
    else:
        perm = 2 * (-(site // 2) % lattice.rungs) + site % 2
    return None if np.array_equal(perm, site) else perm


def _translation(lattice: LatticeSpec) -> tuple:
    """``(steps, shift)``: the lattice's translations T^t, t = 0 ...
    steps - 1, move every bit of a configuration up by ``shift`` * t,
    cyclically: by one site on a chain, by one rung (two sites) on a
    ladder.  Whether H commutes with them is checked by ``_layout``."""
    if lattice.geometry == "chain":
        return lattice.n_sites, 1
    return lattice.rungs, 2


def _irreps(steps: int, t, a, b, reflect: bool, invert: bool) -> list:
    """The real irreps of the group of elements T^t R^a F^b (arrays ``t``,
    ``a``, ``b`` over its elements), in block order: per momentum k =
    2 pi m / steps, m = 0 ... steps // 2, and then per sign of the
    reflection (1-D irreps only) and of spin inversion.  Each is
    ``(first, second)``: the first row D_1j(g) of the irrep's matrices,
    (elements, d), and for a 2-D irrep the second row, else None.

    At k = 0 and k = pi the irrep is 1-D, chi = e^{ikt} r^a f^b.  Between
    them T^t is the rotation by kt, R is diag(1, -1) and F is f: the irrep
    is real and absolutely irreducible, as it needs the reflection, which
    every lattice with more than two translations has."""
    irreps = []
    for m in range(steps // 2 + 1):
        one_d = 2 * m % steps == 0
        for r in (1, -1) if reflect and one_d else (1,):
            for f in (1, -1) if invert else (1,):
                sign = f ** b
                if one_d:
                    chi = sign * r ** a * (-1) ** (2 * m * t // steps)
                    irreps.append((chi[:, None].astype(float), None))
                    continue
                c, s = np.cos(2 * np.pi * m * t / steps), np.sin(2 * np.pi * m * t / steps)
                mirror = 1 - 2 * a  # D(R)^a = diag(1, -1)^a
                irreps.append((sign[:, None] * np.stack([c, -s * mirror], axis=1),
                               sign[:, None] * np.stack([s, c * mirror], axis=1)))
    return irreps


def _symmetry_blocks(lattice: LatticeSpec, configs: np.ndarray, invert: bool) -> list:
    """The blocks of the ascending configurations ``configs`` under the
    translations and reflection of ``lattice`` and, with ``invert``, spin
    inversion, one ``(rows, coefs)`` entry per real irrep that has
    columns here (in ``_irreps`` order): ``coefs`` holds one coefficient
    array for a 1-D irrep, and two for a 2-D one, the block of its first
    row and then its partner of the second row, on which H is the same
    matrix; the two share ``rows``.  Block column a is the state
    sum_t coefs[t, a] |configs[rows[t, a]]> over up to 4N rows, one per
    group element; a repeated row carries coefficient 0.

    Every configuration c has an orbit {g c}; the smallest index of each
    orbit is its representative.  With D the irrep's matrices, row i of
    column j of a representative is the state P_ij c = sum_g D_ij(g) |g c>
    (Sandvik, AIP Conf. Proc. 1297, 135 (2010), the semi-momentum states
    with reflection parity).  The P_1j c of one representative have Gram
    matrix (|G| / d) sum_{s fixing c} D(s): zero, a projector of rank 1
    (one column, the j of the larger norm) or a multiple of 1 (both
    columns), so the kept columns are orthonormal once each is
    normalized.  P_2j c with the same j is the partner column:
    P_1j'^T H P_1j = P_2j'^T H P_2j for every H the group commutes with.
    Columns come in ascending order of representative, then j.
    """
    n = lattice.n_sites
    steps, shift = _translation(lattice)
    perm, full = _reflection(lattice), (1 << n) - 1
    images = [configs]  # R^a F^b c, in the order (a, b) = (0, 0), (1, 0), (0, 1), (1, 1)
    if perm is not None:
        images.append(sum(((configs >> i) & 1) << int(p) for i, p in enumerate(perm)))
    if invert:
        images += [img ^ full for img in images]
    images = np.array([((img << (shift * t)) | (img >> (n - shift * t))) & full
                       for img in images for t in range(steps)])  # T^t R^a F^b c
    index = np.searchsorted(configs, images)
    if np.any(np.take(configs, index, mode="clip") != images):
        raise ValueError("a translation, the reflection or spin inversion "
                         "would leave the sector")
    element = np.arange(len(images))
    reflect = perm is not None
    t, a, b = element % steps, element // steps % (1 + reflect), element // steps // (1 + reflect)
    orbit = index[:, index.min(axis=0) == np.arange(len(configs))]  # representatives' orbits
    same = orbit.T[:, :, None] == orbit.T[:, None, :]  # (representative, element, element)
    first = ~np.any(np.tril(same, -1), axis=2)  # no earlier element gives the configuration
    irreps = _irreps(steps, t, a, b, reflect, invert)
    # sum_g D_ij(g) |g c> for every row i, column j of every irrep, and every
    # representative c, each configuration's coefficients summed on its first element
    states = (same @ np.hstack([row for pair in irreps for row in pair if row is not None])
              * first[:, :, None])
    states[np.abs(states) < 1e-12] = 0.0
    norms = np.einsum("rgc,rgc->rc", states, states)
    blocks, start = [], 0
    for first_row, second_row in irreps:
        d = first_row.shape[1]
        cols = start + np.arange(d)
        start += d if second_row is None else 2 * d
        norm = norms[:, cols]
        take = norm > 0.5  # nonzero squared norms are at least 1
        if d == 2:  # both columns where the Gram matrix has rank 2, else the longer
            cross = np.einsum("rg,rg->r", states[:, :, cols[0]], states[:, :, cols[1]])
            rank_two = norm.prod(axis=1) - cross ** 2 > 0.5 * norm.prod(axis=1)
            take &= rank_two[:, None] | (np.arange(2) == np.argmax(norm, axis=1)[:, None])
        rep, j = np.nonzero(take)
        if not len(rep):
            continue
        coefs = [states[rep, :, cols[j]].T / np.sqrt(norm[rep, j])]
        if second_row is not None:
            coefs.append(states[rep, :, cols[j] + d].T / np.sqrt(norms[rep, cols[j] + d]))
        blocks.append((orbit[:, rep], tuple(coefs)))
    return blocks


@dataclass(frozen=True)
class _Layout:
    """Every symmetry block of one basis for one list of operator terms:
    with values[index] = amplitudes @ weights in a zeroed buffer of
    ``size``, matrix m is values[start:start + d * d] as d x d, for
    (start, d) = spans[m]; ``blocks`` holds (rows, coefs, m) in order,
    and ``groups`` each block's popcount, or popcount mod 2 where
    ``parity_groups``.  Row t of ``weights`` is term t projected as
    W^T T W, with W the blocks ``columns`` ((rows, coefs) each) side by
    side (``_isometry``) and ``owners`` the matrix of each (``_layout``).
    Its arrays are read-only, since every solve on the basis shares
    them."""
    index: np.ndarray
    weights: np.ndarray  # (terms, len(index)): each term's block entries
    size: int
    spans: tuple
    blocks: tuple
    groups: tuple
    parity_groups: bool
    columns: tuple
    owners: tuple


def _project(basis: SectorBasis, iso, spans: tuple, owners: tuple, key: tuple):
    """The term ``key`` ((pairs, part), cached on ``basis``) projected as
    W^T T W, where ``iso`` (W) holds side by side the blocks whose
    matrices are ``owners`` (indices into ``spans``), a matrix's first
    block first and then its partner, if it has one.  Entries within
    1e-12 of 0, relative to the term's largest entry, are rounding and
    dropped.  Returns the entries inside the first block of each matrix,
    as (places in a value buffer laid out as in ``_Layout``, values), and
    what is wrong, or None: an entry between two blocks, a partner block
    that differs from its first block by more than that rounding, or
    blocks that are not symmetric to ``SYMMETRY_TOL``."""
    starts, widths = np.array(spans).T
    owners = np.array(owners)
    source = np.diff(owners, prepend=-1) > 0  # each matrix's first block
    sizes = widths[owners]
    block = np.repeat(np.arange(len(owners)), sizes)  # the block of each column of W
    local = np.arange(len(block)) - (np.cumsum(sizes) - sizes)[block]
    term = _term(basis, *key)
    term = sparse.diags(term) if isinstance(term, np.ndarray) else term
    proj = (iso.T @ term @ iso).tocoo()
    largest = np.abs(proj.data).max(initial=0.0)
    real = np.abs(proj.data) > 1e-12 * largest  # the rest is rounding of W^T T W
    row, col, data = proj.row[real], proj.col[real], proj.data[real]
    at = block[row]
    inside = at == block[col]
    m = owners[at]
    flat = starts[m] + local[row] * widths[m] + local[col]
    kept, partner = inside & source[at], inside & ~source[at]
    # the value buffer, the partners' buffer, and each place's mirror image
    place = np.repeat(np.arange(len(spans)), widths ** 2)  # the matrix of each place
    mine, theirs = np.zeros(len(place)), np.zeros(len(place))
    mine[flat[kept]], theirs[flat[partner]] = data[kept], data[partner]
    offset, width = np.arange(len(place)) - starts[place], widths[place]
    mirror = starts[place] + offset % width * width + offset // width
    shared = np.isin(place, owners[~source])
    if not inside.all():
        fault = ("H couples two symmetry blocks: a translation, the reflection "
                 "or spin inversion is not a symmetry of the model")
    elif np.any(np.abs(mine - theirs)[shared] > 1e-12 * largest):
        fault = "a partner block of H differs from its first block"
    elif np.max(np.abs(mine - mine[mirror])) > SYMMETRY_TOL * max(1.0, largest):
        fault = "a term of H is not symmetric in the blocks"
    else:
        fault = None
    return flat[kept], data[kept], fault


def _isometry(columns: tuple, dim: int) -> sparse.csr_matrix:
    """W: the blocks ``columns`` ((rows, coefs) each) side by side, as a
    sparse matrix of ``dim`` rows."""
    sizes = [rows.shape[1] for rows, _ in columns]
    entries = []  # (coefficient, row, column) of W, block by block
    for (rows, coefs), offset in zip(columns, np.cumsum(sizes) - sizes):
        t, a = np.nonzero(coefs)
        entries.append((coefs[t, a], rows[t, a], offset + a))
    data, rows, cols = map(np.concatenate, zip(*entries))
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, sum(sizes)))


def _check_cover(rows, coefs, dim: int) -> None:
    """Raise unless the block columns cover rows 0 ... dim - 1 exactly once:
    each row's squared coefficients add up to 1."""
    flat = np.concatenate(rows, axis=None)
    if flat.min() < 0 or flat.max() >= dim or np.max(np.abs(np.bincount(
            flat, np.concatenate(coefs, axis=None) ** 2, dim) - 1.0)) > 1e-12:
        raise ValueError("block rows must cover 0 ... dim - 1 exactly once")


def _block_matrices(values: np.ndarray, spans: tuple) -> list:
    """The matrices of a value buffer laid out as in ``_Layout``."""
    return [values[start:start + d * d].reshape(d, d) for start, d in spans]


def _layout(basis: SectorBasis, keys: tuple) -> _Layout:
    """The ``_Layout`` of ``basis`` for the terms ``keys`` ((pairs, part)
    each, cached on ``basis``), with W every block's isometry side by
    side, partner blocks included (a mirrored Sz block is not).  An entry
    of W^T T W between two blocks, beyond rounding, means a translation,
    the reflection or spin inversion is no symmetry of the terms and
    raises ValueError.  So do a partner block whose matrix is not its
    first block's, blocks that do not cover every row once
    (``_check_cover``) and a term whose blocks are not symmetric, so every
    combination of the terms is symmetric; these are the only checks of
    the blocks ``dense_spectrum`` solves."""
    n, configs = basis.n_sites, basis.configs
    parts = {part for _, part in keys}
    no_field, conserves_sz = "field" not in parts, "aligned" not in parts
    labels = basis.popcounts if conserves_sz else basis.popcounts % 2
    groups = np.unique(labels)
    mirrored = no_field and conserves_sz and basis.is_full
    per_group, columns, owners = {}, [], []
    for label in groups[::-1].tolist():  # Sz >= 0 first, so every mirror has its source
        if mirrored and 2 * label < n:
            per_group[label] = [(rows ^ ((1 << n) - 1), coefs, m)
                                for rows, coefs, m in per_group[n - label]]
            continue
        members = np.flatnonzero(labels == label)
        invert = no_field and (2 * label == n if conserves_sz else n % 2 == 0)
        per_group[label] = []
        for rows, shared in _symmetry_blocks(basis.lattice, configs[members], invert):
            m = owners[-1] + 1 if owners else 0
            rows = members[rows].astype(np.int32)
            for coefs in shared:
                per_group[label].append((rows, coefs, m))
                columns.append((rows, coefs))
                owners.append(m)
    widths = np.array([rows.shape[1] for rows, _ in columns])[np.diff(owners, prepend=-1) > 0]
    starts = np.cumsum(widths ** 2) - widths ** 2
    spans = tuple(zip(starts.tolist(), widths.tolist()))
    iso = _isometry(columns, basis.dimension)
    flats, values = [], []
    for key in keys:
        flat, vals, fault = _project(basis, iso, spans, owners, key)
        if fault:
            raise ValueError(fault)
        flats.append(flat)
        values.append(vals)
    index = np.unique(np.concatenate(flats))
    weights = np.zeros((len(keys), len(index)))
    for t, (flat, vals) in enumerate(zip(flats, values)):
        weights[t, np.searchsorted(index, flat)] = vals
    blocks = tuple(b for label in groups.tolist() for b in per_group[label])
    _check_cover([rows for rows, _, _ in blocks], [coefs for _, coefs, _ in blocks],
                 basis.dimension)
    for arr in (index, weights, *(a for rows, coefs, _ in blocks for a in (rows, coefs))):
        arr.setflags(write=False)
    return _Layout(index, weights, int(np.sum(widths ** 2)), spans, blocks,
                   tuple(label for label in groups.tolist() for _ in per_group[label]),
                   not conserves_sz, tuple(columns), tuple(owners))


@dataclass(frozen=True, eq=False)
class BlockLabels:
    """What the quantum numbers of a level in one symmetry block are read
    from: the block's ``group`` (the popcount of its configurations, or
    the popcount mod 2 where ``parity_group``), S^2 in the block, and on
    a parity group Sz and Sz^2 in the block (None on a popcount group,
    where Sz is the group's).  Its arrays are read-only."""
    group: int
    parity_group: bool
    s_squared: np.ndarray
    sz: np.ndarray | None = None
    sz_squared: np.ndarray | None = None


def _block_labels(basis: SectorBasis, layout: _Layout) -> tuple:
    """``BlockLabels`` per block of ``layout`` on ``basis``
    (``HamiltonianAction.labels``)."""
    n = basis.n_sites
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    label_keys = [(pairs, "zz"), (pairs, "anti")]
    if layout.parity_groups:
        label_keys.append((None, "field"))
    terms, iso = [], _isometry(layout.columns, basis.dimension)
    for key in label_keys:
        flat, vals, _ = _project(basis, iso, layout.spans, layout.owners, key)
        values = np.zeros(layout.size)
        values[flat] = vals
        terms.append(_block_matrices(values, layout.spans))
    zz, anti, field = terms + [None] * (3 - len(terms))
    per_block = []
    for m, (_, d) in enumerate(layout.spans):
        eye = np.eye(d)
        mats = [0.75 * n * eye + 0.5 * zz[m] + anti[m]]
        if field is not None:
            mats += [field[m], 0.25 * n * eye + 0.5 * zz[m]]
        for mat in mats:
            mat.setflags(write=False)
        per_block.append(mats)
    return tuple(BlockLabels(group, layout.parity_groups, *per_block[m])
                 for (_, _, m), group in zip(layout.blocks, layout.groups))
