"""Spin-1/2 configuration bases for periodic chains and two-leg ladders.

Configurations are integer bitmasks: bit ``i`` set means spin-up at site
``i``.  A basis is the full ``2**n`` space or one sector of it of fixed
total Sz (popcount), stored as a sorted array so that membership lookups
are binary searches.

Ladder site convention: sites ``2k`` and ``2k+1`` form rung ``k``; the
two legs are the even- and odd-indexed site sequences.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the underlying lattice; boundaries are always periodic."""

    geometry: str  # "chain" | "ladder"
    n_sites: int

    def __post_init__(self):
        if self.geometry not in ("chain", "ladder"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if self.geometry == "ladder" and self.n_sites % 2 != 0:
            raise ValueError("ladder needs an even number of sites")

    @property
    def rungs(self) -> int:
        if self.geometry != "ladder":
            raise ValueError("rungs are only defined for ladders")
        return self.n_sites // 2


def chain(n_sites: int) -> LatticeSpec:
    return LatticeSpec("chain", n_sites)


def ladder(n_sites: int) -> LatticeSpec:
    return LatticeSpec("ladder", n_sites)


@dataclass(eq=False)
class SectorBasis:
    """Ordered set of configurations spanning the full space or one Sz
    sector of it.

    ``sz_twice`` is twice the total-Sz eigenvalue (an integer so that odd
    chains need no half-integers), ``None`` for the full space.  Spin-flip
    parity has no basis of its own: ``spinqpt.models`` groups the full
    basis by popcount parity where H does not conserve Sz.  ``configs``
    is strictly increasing, which makes ``index_of`` a binary search and
    enumeration order reproducible by construction.  Bases come from
    ``enumerate_sector``, which hands every caller the same read-only
    instance per (lattice, sector).  Everything built from a basis alone
    is kept on it through ``cached``: the operator terms, the merged
    operator patterns, the dense block layouts and the blocks' label
    terms of ``spinqpt.models``, the flip
    table, label arrays and pair groupings of ``spinqpt.observables``.
    """

    lattice: LatticeSpec
    sz_twice: int | None
    configs: np.ndarray

    _cache: dict = field(default_factory=dict, repr=False)

    def cached(self, key, build):
        """``build()``, run once per ``key`` and kept on the basis.  An
        ndarray result, or each ndarray of a tuple result, is made
        read-only, since every caller of the basis shares it."""
        if key not in self._cache:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    @property
    def dimension(self) -> int:
        return len(self.configs)

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    @property
    def is_full(self) -> bool:
        return self.sz_twice is None

    @cached_property
    def popcounts(self) -> np.ndarray:
        """Number of up spins of every configuration."""
        counts = popcount(self.configs)
        counts.setflags(write=False)
        return counts

    def pair_table(self, i: int, j: int):
        """Flip targets and alignment for the site pair ``(i, j)``.

        Returns ``(aligned, target)`` where ``aligned[c]`` is True when
        bits i and j agree and ``target[c]`` is the basis index of the
        double-flipped configuration.  A basis that is not the full space
        is an Sz sector, where only anti-aligned flips stay inside, and
        ``target`` is 0 where ``aligned``; a flip target that is not a
        member of the sector raises ValueError.  Tables are not kept:
        operator terms built from them are cached instead.
        """
        flipped = self.configs ^ ((1 << i) | (1 << j))
        aligned = ((self.configs >> i) & 1) == ((self.configs >> j) & 1)
        if self.is_full:
            return aligned, flipped
        target = np.searchsorted(self.configs, flipped)
        target[aligned], flipped[aligned] = 0, self.configs[0]  # they change Sz
        if np.any(np.take(self.configs, target, mode="clip") != flipped):
            raise ValueError(f"double flips of sites ({i}, {j}) leave the sector")
        return aligned, target

    def site_bits(self, i: int) -> np.ndarray:
        return ((self.configs >> i) & 1).astype(np.int64)


@lru_cache(maxsize=32)
def enumerate_sector(lattice: LatticeSpec, sz_twice: int | None) -> SectorBasis:
    """Enumerate all configurations of the sector ``sz_twice`` in ascending
    bitmask order; with ``sz_twice`` None it is the full space.

    The basis is built once per (lattice, sector) and shared, together
    with the operator terms cached on it; its arrays are read-only.
    """
    n = lattice.n_sites
    configs = np.arange(2 ** n, dtype=np.int64)
    if sz_twice is not None:
        if abs(sz_twice) > n or (n + sz_twice) % 2 != 0:
            raise ValueError(f"sz_twice={sz_twice} impossible for {n} spins")
        configs = configs[popcount(configs) == (n + sz_twice) // 2]
    configs.setflags(write=False)
    return SectorBasis(lattice, sz_twice, configs)


def popcount(configs) -> np.ndarray:
    """Number of set bits, vectorized over an int64 array."""
    return np.bitwise_count(np.asarray(configs, dtype=np.uint64)).astype(np.int64)


def index_of(basis: SectorBasis, config: int) -> int:
    """Rank of ``config`` inside the basis; raises if it is not a member."""
    pos = int(np.searchsorted(basis.configs, config))
    if pos == basis.dimension or basis.configs[pos] != config:
        raise KeyError(f"configuration {config:#x} not in sector")
    return pos


def lift_to_full(basis: SectorBasis, vec: np.ndarray) -> tuple[SectorBasis, np.ndarray]:
    """Embed a sector vector into the full 2**n space."""
    if basis.is_full:
        return basis, vec
    full = enumerate_sector(basis.lattice, None)
    out = np.zeros(full.dimension, dtype=float)
    out[basis.configs] = vec
    return full, out
