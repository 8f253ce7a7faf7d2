"""Hamiltonian families and their matrix-free action on state vectors.

Five families are supported, all with periodic boundaries and spin-1/2
operators s^a = sigma^a / 2:

* ``j1j2``   H = sum_i (J1 s_i.s_{i+1} + J2 s_i.s_{i+2})
* ``xxz``    H = sum_i (sx sx + sy sy + Delta sz sz)
* ``ising``  H = -sum_i (lambda sx sx + sz/2)
* ``ladder`` H = J_leg sum_legs s.s + J_rung sum_rungs s.s
* ``xyz``    H = sum_i (Jx sx sx + Jy sy sy + Jz sz sz) + h sum_i sz

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

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lattice import LatticeSpec, SectorBasis

FAMILIES = ("j1j2", "xxz", "ising", "ladder", "xyz")


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
class Bond:
    i: int
    j: int
    kind: str  # "nn" | "nnn" | "leg" | "rung"


@dataclass(frozen=True)
class FieldTerm:
    site: int
    axis: str
    strength: float


@dataclass(frozen=True)
class CouplingGraph:
    """One bond / field entry per literal summand of the Hamiltonian.

    Field strengths are the coefficients as written inside the family's
    defining sum; the ising family's overall minus sign is applied by
    the coupling resolution, not stored here.
    """

    bonds: tuple
    fields: tuple


def coupling_graph(model: ModelSpec, lattice: LatticeSpec) -> CouplingGraph:
    fam = model.family
    n = lattice.n_sites
    if fam == "ladder":
        if lattice.geometry != "ladder":
            raise ValueError("ladder model requires a ladder lattice")
        bonds = []
        rungs = lattice.rungs
        for k in range(rungs):
            for base in (0, 1):
                bonds.append(Bond(2 * k + base, (2 * (k + 1) + base) % n, "leg"))
        for k in range(rungs):
            bonds.append(Bond(2 * k, 2 * k + 1, "rung"))
        return CouplingGraph(tuple(bonds), ())
    if lattice.geometry != "chain":
        raise ValueError(f"{fam} model requires a chain lattice")
    bonds = [Bond(i, (i + 1) % n, "nn") for i in range(n)]
    fields = []
    if fam == "j1j2":
        # literal sum over i keeps duplicated NNN pairs on 4-site rings
        bonds += [Bond(i, (i + 2) % n, "nnn") for i in range(n)]
    elif fam == "ising":
        fields = [FieldTerm(i, "z", 0.5) for i in range(n)]
    elif fam == "xyz":
        h = model.param("h")
        if h != 0.0:
            fields = [FieldTerm(i, "z", h) for i in range(n)]
    elif fam != "xxz":
        raise ValueError(f"unknown family {fam!r}")
    return CouplingGraph(tuple(bonds), tuple(fields))


def bond_couplings(model: ModelSpec, kind: str) -> tuple[float, float, float]:
    """(cx, cy, cz) multiplying s^a s^a on a bond, signs included."""
    fam = model.family
    if fam == "j1j2":
        j = model.param("j1") if kind == "nn" else model.param("j2")
        return (j, j, j)
    if fam == "xxz":
        return (1.0, 1.0, model.param("delta"))
    if fam == "ising":
        return (-model.param("lam"), 0.0, 0.0)
    if fam == "ladder":
        j = model.param("j_leg") if kind == "leg" else model.param("j_rung")
        return (j, j, j)
    if fam == "xyz":
        return (model.param("jx"), model.param("jy"), model.param("jz"))
    raise ValueError(f"unknown family {fam!r}")


def field_coefficient(model: ModelSpec, term: FieldTerm) -> float:
    """Coefficient of s^z_site in H (the ising family carries a global -1)."""
    if term.axis != "z":
        raise ValueError("only z-axis fields occur in these families")
    sign = -1.0 if model.family == "ising" else 1.0
    return sign * term.strength


@dataclass(frozen=True)
class ConservedQuantities:
    sz_conserved: bool
    parity_conserved: bool


def conserved_quantities(model: ModelSpec) -> ConservedQuantities:
    """U(1) and global spin-flip parity symmetries of a family.

    Sz is conserved whenever cx == cy on every bond; the parity operator
    prod_i(2 s_i^z) commutes with all pair couplings (double flips) and
    with z fields, so it is conserved for every family here.
    """
    if model.family == "xyz":
        sz = model.param("jx") == model.param("jy")
    else:
        sz = model.family != "ising"
    return ConservedQuantities(sz_conserved=sz, parity_conserved=True)


def _term(basis: SectorBasis, pairs: tuple, part: str, cache: bool = True):
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
    if part == "aligned" and not basis.is_full:
        raise ValueError("aligned pair flips leave the Sz sector; "
                         "use the full basis")
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
    if cache:
        basis._term_cache[key] = term
    return term


def _add_bonds(basis, pairs, couplings, diag, terms, cache=True):
    """Add bonds with couplings (cx, cy, cz) as a diagonal plus scaled terms."""
    cx, cy, cz = couplings
    if cz != 0.0:
        diag += (0.25 * cz) * _term(basis, pairs, "zz", cache)
    for amp, part in ((0.25 * (cx + cy), "anti"), (0.25 * (cx - cy), "aligned")):
        if amp != 0.0:
            terms.append((amp, _term(basis, pairs, part, cache)))


def _apply(diag, terms, vec):
    out = diag[:, None] * vec if vec.ndim == 2 else diag * vec
    for amp, term in terms:
        out += amp * (term @ vec)
    return out


def apply_pair_coupling(basis: SectorBasis, i: int, j: int, cx, cy, cz, vec, out=None):
    """Accumulate (cx sx sx + cy sy sy + cz sz sz)_{ij} |vec> into ``out``.

    ``vec`` may be a vector ``(dim,)`` or a block of columns ``(dim, m)``.
    Aligned double flips (needed when cx != cy) require the full basis.
    Builds the pair's terms without caching them.
    """
    diag = np.zeros(basis.dimension)
    terms = []
    _add_bonds(basis, ((i, j),), (cx, cy, cz), diag, terms, cache=False)
    if out is None:
        return _apply(diag, terms, vec)
    out += _apply(diag, terms, vec)
    return out


class HamiltonianAction:
    """Matrix-free H|v> for one (model, basis).

    Every family is linear in its couplings: H = sum over bond kinds of
    coefficient x cached term, plus a diagonal (zz terms and fields).
    Building one for a new parameter value only combines the terms
    cached on the basis.
    """

    def __init__(self, model: ModelSpec, basis: SectorBasis):
        sym = conserved_quantities(model)
        if not sym.sz_conserved and not basis.is_full:
            raise ValueError(f"{model.family} does not conserve Sz; "
                             "solve it in the full basis")
        self.model = model
        self.basis = basis
        graph = coupling_graph(model, basis.lattice)
        self.graph = graph
        self.dim = basis.dimension

        diag = np.zeros(basis.dimension)
        terms = []  # (amplitude, CSR term shared through the basis cache)
        for kind in dict.fromkeys(b.kind for b in graph.bonds):
            pairs = tuple((b.i, b.j) for b in graph.bonds if b.kind == kind)
            _add_bonds(basis, pairs, bond_couplings(model, kind), diag, terms)
        for term in graph.fields:
            coeff = field_coefficient(model, term)
            bits = basis.site_bits(term.site)
            diag += coeff * (bits - 0.5)
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
