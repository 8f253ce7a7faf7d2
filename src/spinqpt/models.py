"""Hamiltonian families and their matrix-free action on state vectors.

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
command line all read them.  ``HamiltonianAction`` scales the terms
cached on the basis by each bond kind's couplings.  ``sector_matrices``
gives LAPACK the dense blocks of H on symmetry-adapted states: popcount
groups of the basis (popcount parity groups of the full basis where H
does not conserve Sz) split by the lattice reflection and spin
inversion.  Two things are cached per basis (``SectorBasis.cached``):
each operator term, and for the whole set of a model's terms one block
layout, every term projected into all blocks by one sparse product.

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
from typing import Callable

import numpy as np
from scipy import sparse

from .lattice import LatticeSpec, SectorBasis


class ResourceLimitError(RuntimeError):
    """Raised when a dense construction would exceed the configured cap."""


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


def _term(basis: SectorBasis, pairs: tuple | None, part: str):
    """One coupling-free operator term of the bonds ``pairs`` on ``basis``.

    ``part`` is "zz" (diagonal: sum over bonds of +1 for an aligned pair,
    -1 for an anti-aligned one), "field" (diagonal: sum_i s_i^z, for
    ``pairs`` None), "anti" or "aligned" (CSR matrix summing the double
    flips of anti-aligned or aligned pairs; duplicated bonds give entries
    of 2).  Terms are cached on the basis, keyed by the bond list, so
    every family and parameter value over one basis shares them.
    """
    if part == "aligned" and basis.sz_twice is not None:
        raise ValueError("a bond with cx != cy does not conserve Sz; "
                         "solve it in the full basis")

    def build():
        if part == "field":
            return basis.popcounts - 0.5 * basis.n_sites
        if part == "zz":
            return sum(np.where(basis.pair_table(i, j)[0], 1.0, -1.0) for i, j in pairs)
        rows, cols = [], []
        for i, j in pairs:
            aligned, target = basis.pair_table(i, j)
            src = np.flatnonzero(aligned if part == "aligned" else ~aligned)
            rows.append(target[src].astype(np.int32))
            cols.append(src.astype(np.int32))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        dim = basis.dimension
        return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    return basis.cached((pairs, part), build)


def _apply(diag, terms, vec):
    out = diag[:, None] * vec if vec.ndim == 2 else diag * vec
    for amp, term in terms:
        out += amp * (term @ vec)
    return out


class HamiltonianAction:
    """Matrix-free H|v> for one (model, basis).

    Every family is linear in its couplings: H = sum over bond kinds of
    coefficient x cached term, plus a diagonal (zz terms and fields),
    with coefficients read from ``FAMILY_TABLE``.  Building one for a new
    parameter value only combines the terms cached on the basis.  A
    bond kind with cx != cy raises ValueError on an Sz sector.
    """

    def __init__(self, model: ModelSpec, basis: SectorBasis):
        self.model = model
        self.basis = basis
        self.dim = basis.dimension
        _check_geometry(family_spec(model.family), basis.lattice)

        diag = np.zeros(basis.dimension)
        terms = []  # (amplitude, CSR term shared through the basis cache)
        for amp, pairs, part in _model_terms(model, basis.lattice):
            if amp == 0.0:
                continue
            term = _term(basis, pairs, part)
            if isinstance(term, np.ndarray):  # zz or field: diagonal
                diag += amp * term
            else:
                terms.append((amp, term))
        self.diag = diag
        self.terms = terms

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError("vector does not match basis dimension")
        return _apply(self.diag, self.terms, vec)


def apply_hamiltonian(model: ModelSpec, basis: SectorBasis, vec: np.ndarray) -> np.ndarray:
    """H|vec> for one-off use; hot loops should hold a HamiltonianAction."""
    return HamiltonianAction(model, basis)(vec)


DENSE_CAP_DEFAULT = 4096


def hamiltonian_dense(model: ModelSpec, basis: SectorBasis,
                      cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Dense real-symmetric matrix of H on the whole basis, the oracle the
    symmetry blocks of ``sector_matrices`` are checked against."""
    if basis.dimension > cap:
        raise ResourceLimitError(
            f"dimension {basis.dimension} exceeds dense cap {cap}")
    action = HamiltonianAction(model, basis)
    mat = np.diag(action.diag)
    for amp, term in action.terms:
        rows = np.repeat(np.arange(basis.dimension), np.diff(term.indptr))
        mat[rows, term.indices] += amp * term.data
    return mat


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


def _symmetry_blocks(lattice: LatticeSpec, configs: np.ndarray, invert: bool) -> list:
    """The blocks of the ascending configurations ``configs`` under the
    reflection of ``lattice`` and, with ``invert``, spin inversion, as
    ``(rows, coefs)`` pairs: block column a is the state sum_t coefs[t, a]
    |configs[rows[t, a]]> over up to four rows (one per group element; a
    repeated row carries coefficient 0).

    Every configuration c has an orbit {c, Rc, Fc, RFc}; the smallest
    index of each orbit is its representative.  A block is one character
    (r, f) = (+-1, +-1) of the group; its columns are the representatives
    whose stabilizer the character keeps (Rc = c needs r = 1, RFc = c
    needs rf = 1), in ascending order, and column a is sum_g chi(g) |g c>
    / sqrt(orbit size), coefficients +-1, +-1/sqrt(2) or +-1/2.  Blocks
    come in the order (r, f) = (1, 1), (1, -1), (-1, 1), (-1, -1),
    without the ones that are empty; with neither symmetry the one block
    is ``configs`` itself.
    """
    perm = _reflection(lattice)
    images, elements = [configs], [(0, 0)]  # group elements as powers of (R, F)
    if perm is not None:
        images.append(sum(((configs >> i) & 1) << int(p) for i, p in enumerate(perm)))
        elements.append((1, 0))
    if invert:
        images += [img ^ ((1 << lattice.n_sites) - 1) for img in images]
        elements += [(a, 1) for a, _ in elements]
    images = np.array(images)
    index = np.searchsorted(configs, images)
    if np.any(np.take(configs, index, mode="clip") != images):
        raise ValueError("the reflection or spin inversion would leave the sector")
    orbit = index[:, index.min(axis=0) == np.arange(len(configs))]  # representatives' orbits
    first = np.array([np.all(orbit[:t] != orbit[t], axis=0) for t in range(len(orbit))])
    norm = np.sqrt(first.sum(axis=0))
    fixes = orbit == orbit[0]  # which elements fix each representative
    blocks = []
    for r in (1, -1) if perm is not None else (1,):
        for f in (1, -1) if invert else (1,):
            chi = np.array([r ** a * f ** b for a, b in elements])
            cols = np.all(fixes <= (chi == 1)[:, None], axis=0)
            if cols.any():
                coefs = np.where(first[:, cols], chi[:, None], 0) / norm[cols]
                blocks.append((orbit[:, cols], coefs))
    return blocks


@dataclass(frozen=True)
class _Layout:
    """Every symmetry block of one basis for one list of operator terms:
    with values[index] = amplitudes @ weights in a zeroed buffer of
    ``size``, matrix m is values[start:start + d * d] as d x d, for
    (start, d) = spans[m]; ``blocks`` holds (rows, coefs, m) in order.
    Row t of ``weights`` is term t projected as W^T T W (``_layout``).
    Its arrays are read-only, since every solve on the basis shares them."""
    index: np.ndarray
    weights: np.ndarray  # (terms, len(index)): each term's block entries
    size: int
    spans: tuple
    blocks: tuple


def _layout(basis: SectorBasis, keys: tuple) -> _Layout:
    """The ``_Layout`` of ``basis`` for the terms ``keys`` ((pairs, part)
    each, cached on ``basis``), with W every distinct block's isometry
    side by side.  An entry of W^T T W between two blocks, beyond
    rounding, means the reflection or spin inversion is no symmetry of
    the terms and raises ValueError."""
    n, configs = basis.n_sites, basis.configs
    parts = {part for _, part in keys}
    no_field, conserves_sz = "field" not in parts, "aligned" not in parts
    labels = basis.popcounts if conserves_sz else basis.popcounts % 2
    groups = np.unique(labels)
    mirrored = no_field and conserves_sz and basis.is_full
    per_group, isometries = {}, []
    for label in groups[::-1].tolist():  # Sz >= 0 first, so every mirror has its source
        if mirrored and 2 * label < n:
            per_group[label] = [(rows ^ ((1 << n) - 1), coefs, m)
                                for rows, coefs, m in per_group[n - label]]
            continue
        members = np.flatnonzero(labels == label)
        invert = no_field and (2 * label == n if conserves_sz else n % 2 == 0)
        per_group[label] = []
        for rows, coefs in _symmetry_blocks(basis.lattice, configs[members], invert):
            per_group[label].append((members[rows], coefs, len(isometries)))
            isometries.append((members[rows], coefs))
    widths = np.array([rows.shape[1] for rows, _ in isometries])
    offsets, starts = np.cumsum(widths) - widths, np.cumsum(widths ** 2) - widths ** 2
    block = np.repeat(np.arange(len(widths)), widths)  # the block of each column of W
    local = np.arange(len(block)) - offsets[block]
    entries = []  # (coefficient, row, column) of W, block by block
    for (rows, coefs), offset in zip(isometries, offsets):
        t, a = np.nonzero(coefs)
        entries.append((coefs[t, a], rows[t, a], offset + a))
    data, rows, cols = map(np.concatenate, zip(*entries))
    iso = sparse.csr_matrix((data, (rows, cols)), shape=(basis.dimension, len(block)))
    flats, values = [], []
    for pairs, part in keys:
        term = _term(basis, pairs, part)
        term = sparse.diags(term) if isinstance(term, np.ndarray) else term
        proj = (iso.T @ term @ iso).tocoo()
        inside = block[proj.row] == block[proj.col]
        if np.any(np.abs(proj.data[~inside]) > 1e-12 * np.abs(proj.data).max(initial=0.0)):
            raise ValueError("H couples two symmetry blocks: the reflection or "
                             "spin inversion is not a symmetry of the model")
        i, j, m = proj.row[inside], proj.col[inside], block[proj.row[inside]]
        flats.append(starts[m] + local[i] * widths[m] + local[j])
        values.append(proj.data[inside])
    index = np.unique(np.concatenate(flats))
    weights = np.zeros((len(keys), len(index)))
    for t, (flat, vals) in enumerate(zip(flats, values)):
        weights[t, np.searchsorted(index, flat)] = vals
    blocks = tuple(b for label in groups.tolist() for b in per_group[label])
    for arr in (index, weights, *(a for rows, coefs, _ in blocks for a in (rows, coefs))):
        arr.setflags(write=False)
    return _Layout(index, weights, int(np.sum(widths ** 2)),
                   tuple(zip(starts.tolist(), widths.tolist())), blocks)


def sector_matrices(model: ModelSpec, basis: SectorBasis) -> list:
    """``(rows, coefs, dense H)`` per symmetry block of ``basis``, for
    ``dense_spectrum``: block column a is the state sum_t coefs[t, a]
    |rows[t, a]> of the basis.

    The basis's configurations group by popcount (ascending) when the
    model conserves Sz, else by popcount mod 2 (even first), which every
    model conserves; only labels the basis holds form groups, so an Sz
    sector basis is one group.  Each group splits by the lattice
    reflection, and by spin inversion on a group it maps to itself
    (Sz = 0, or a parity group at even N) when the model has no z field
    (``_symmetry_blocks``).  The blocks, with each operator term cached
    on ``basis`` (those ``HamiltonianAction`` applies) projected by one
    sparse product W^T T W, form one ``_Layout`` cached on the basis, so
    a new parameter value costs one product and one scatter for all
    blocks together; a zz or anti term of amplitude 0 keeps its place
    in the layout.  An entry of W^T T W coupling two blocks beyond 1e-12
    of the term's largest entry means a symmetry used is none of H's and
    raises ValueError; this is the only check that H commutes with the
    reflection and spin inversion.  The layout's arrays are read-only.

    Without a z field, spin inversion maps Sz = -m onto Sz = +m and
    commutes with H and the reflection, so on the full basis each -m
    block is a +m block with its rows inverted and the very same matrix
    object; only the Sz >= 0 blocks are built, and a solver can recognize
    a repeated block by identity.
    """
    _check_geometry(family_spec(model.family), basis.lattice)
    terms = list(_model_terms(model, basis.lattice))
    keys = tuple((pairs, part) for _, pairs, part in terms)
    layout = basis.cached(("layout", keys), lambda: _layout(basis, keys))
    values = np.zeros(layout.size)
    values[layout.index] = np.array([amp for amp, _, _ in terms]) @ layout.weights
    mats = [values[start:start + d * d].reshape(d, d) for start, d in layout.spans]
    return [(rows, coefs, mats[m]) for rows, coefs, m in layout.blocks]
