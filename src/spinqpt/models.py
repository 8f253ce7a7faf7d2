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
cached on the basis by each bond kind's couplings.

Every family is real symmetric in the sz product basis: sy sy only ever
appears pairwise and contributes real matrix elements, so state vectors
stay real throughout.

A bond with couplings (cx, cy, cz) acting on a configuration gives a
diagonal element cz/4 (aligned pair) or -cz/4 (anti-aligned), plus an
off-diagonal element to the double-flipped configuration: (cx + cy)/4
when the pair is anti-aligned and (cx - cy)/4 when aligned.  Aligned
flips change total Sz, so they only occur for families with cx != cy,
which are solved in the full basis or its spin-flip parity sectors.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .lattice import LatticeSpec, SectorBasis, enumerate_sector


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
    have raises ValueError."""
    fam = family_spec(family)
    stray = sorted(set(params) - {p.name for p in fam.params})
    if stray:
        raise ValueError(f"{fam.name} has no parameter {', '.join(stray)}")
    return fam.make(**{p.name: params[p.name] if p.default is None
                       else params.get(p.name, p.default) for p in fam.params})


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


def _conserves_sz(model: ModelSpec) -> bool:
    """Whether ``model`` conserves Sz: cx == cy on every bond kind.  This
    is per model, not per family (xyz with jx == jy conserves it)."""
    fam = family_spec(model.family)
    params = model.as_dict()
    return all(cx == cy for cx, cy, _ in (fam.couplings(params, kind)
                                          for kind in fam.bond_kinds))


def _term(basis: SectorBasis, pairs: tuple, part: str):
    """One coupling-free operator term of the bonds ``pairs`` on ``basis``.

    ``part`` is "zz" (diagonal: sum over bonds of +1 for an aligned pair,
    -1 for an anti-aligned one), "anti" or "aligned" (CSR matrix summing
    the double flips of anti-aligned or aligned pairs; duplicated bonds
    give entries of 2).  Terms are cached on the basis, keyed by the bond
    list, so every family and parameter value over one basis shares them.
    """
    key = (pairs, part)
    hit = basis._term_cache.get(key)
    if hit is not None:
        return hit
    if part == "aligned" and basis.sz_twice is not None:
        raise ValueError("a bond with cx != cy does not conserve Sz; "
                         "solve it in the full basis or a parity sector")
    dim = basis.dimension
    if part == "zz":
        term = np.zeros(dim)
        for i, j in pairs:
            aligned, _ = basis.pair_table(i, j)
            term += np.where(aligned, 1.0, -1.0)
        term.setflags(write=False)  # shared by every caller of the basis
    else:
        rows, cols = [], []
        for i, j in pairs:
            aligned, target = basis.pair_table(i, j)
            src = np.flatnonzero(aligned if part == "aligned" else ~aligned)
            rows.append(target[src].astype(np.int32))
            cols.append(src.astype(np.int32))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        term = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    basis._term_cache[key] = term
    return term


def _add_bonds(basis, pairs, couplings, diag, terms):
    """Add bonds with couplings (cx, cy, cz) as a diagonal plus scaled terms."""
    cx, cy, cz = couplings
    if cz != 0.0:
        diag += (0.25 * cz) * _term(basis, pairs, "zz")
    for amp, part in ((0.25 * (cx + cy), "anti"), (0.25 * (cx - cy), "aligned")):
        if amp != 0.0:
            terms.append((amp, _term(basis, pairs, part)))


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
        fam = family_spec(model.family)
        _check_geometry(fam, basis.lattice)
        params = model.as_dict()

        diag = np.zeros(basis.dimension)
        terms = []  # (amplitude, CSR term shared through the basis cache)
        for kind in fam.bond_kinds:
            pairs = tuple(BOND_PAIRS[kind](basis.lattice))
            _add_bonds(basis, pairs, fam.couplings(params, kind), diag, terms)
        h = _z_field(fam, params)
        if h != 0.0:  # every field is along z
            for site in range(basis.n_sites):
                diag += h * (basis.site_bits(site) - 0.5)
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
    """Dense real-symmetric matrix of H, for oracles and full-spectrum sums."""
    if basis.dimension > cap:
        raise ResourceLimitError(
            f"dimension {basis.dimension} exceeds dense cap {cap}")
    action = HamiltonianAction(model, basis)
    mat = np.diag(action.diag)
    for amp, term in action.terms:
        rows = np.repeat(np.arange(basis.dimension), np.diff(term.indptr))
        mat[rows, term.indices] += amp * term.data
    return mat


def sector_matrices(model: ModelSpec, basis: SectorBasis,
                    cap: int = DENSE_CAP_DEFAULT) -> list:
    """``(rows, dense H)`` per symmetry sector of ``basis``, for
    ``dense_spectrum``: the full basis splits into Sz sectors when the
    model conserves Sz, else into the two parity sectors, by ascending
    popcount (mod 2), and a sector's configurations are its rows there.
    Spin-flip parity prod_i(2 s_i^z) commutes with every bond (double
    flips) and with z fields, so every model conserves it.

    Without a z field, spin inversion maps Sz = -m onto Sz = +m and
    reverses the ascending order of the configurations, so H(-m) is
    H(+m) with rows and columns reversed, exactly.  The -m entry is then
    the +m matrix object itself, paired with the -m configurations in
    descending order; only the Sz >= 0 matrices are built, and a solver
    can recognize a repeated block by identity.
    """
    if not basis.is_full:
        return [(np.arange(basis.dimension), hamiltonian_dense(model, basis, cap))]
    n = basis.n_sites
    if not _conserves_sz(model):
        sectors = [enumerate_sector(basis.lattice, None, popcount_parity=p) for p in (0, 1)]
        return [(sector.configs, hamiltonian_dense(model, sector, cap)) for sector in sectors]
    mirrored = _z_field(family_spec(model.family), model.as_dict()) == 0.0
    blocks = [None] * (n + 1)  # by number of up spins
    for up in range(n, -1, -1):  # Sz >= 0 first, so every mirror has its source
        sector = enumerate_sector(basis.lattice, 2 * up - n)
        if mirrored and 2 * up < n:
            blocks[up] = (sector.configs[::-1], blocks[n - up][1])
        else:
            blocks[up] = (sector.configs, hamiltonian_dense(model, sector, cap))
    return blocks
