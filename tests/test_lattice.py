import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import comb

from spinqpt.lattice import (chain, ladder, enumerate_sector, index_of,
                             lift_to_full, popcount, LatticeSpec, SectorBasis)


def test_sector_dimensions():
    assert enumerate_sector(chain(4), 0).dimension == comb(4, 2)
    assert enumerate_sector(chain(8), None).dimension == 256
    basis = enumerate_sector(chain(2), 2)
    assert basis.dimension == 1
    assert basis.configs.tolist() == [0b11]


def test_configs_strictly_increasing():
    for basis in (enumerate_sector(chain(10), 0), enumerate_sector(chain(10), None)):
        assert np.all(np.diff(basis.configs) > 0)


def test_sector_dimensions_sum_to_full_space():
    for n in (2, 4, 6, 9):
        lat = chain(n)
        total = sum(enumerate_sector(lat, m).dimension
                    for m in range(-n, n + 1, 2))
        assert total == 2 ** n


def test_index_of_endpoints():
    basis = enumerate_sector(chain(6), 0)
    assert index_of(basis, int(basis.configs[0])) == 0
    assert index_of(basis, int(basis.configs[-1])) == basis.dimension - 1


def test_index_of_rejects_nonmember():
    basis = enumerate_sector(chain(6), 0)
    with pytest.raises(KeyError):
        index_of(basis, 0b111111)  # popcount 6, not in the Sz=0 sector


def test_round_trip_all_ranks():
    basis = enumerate_sector(chain(6), 0)
    for k in range(basis.dimension):
        assert index_of(basis, int(basis.configs[k])) == k


def test_invalid_sector_rejected():
    with pytest.raises(ValueError):
        enumerate_sector(chain(4), 1)  # odd parity on an even chain
    with pytest.raises(ValueError):
        enumerate_sector(chain(4), 6)  # exceeds the number of spins


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec("chain", 1)
    with pytest.raises(ValueError):
        ladder(7)
    with pytest.raises(ValueError):
        LatticeSpec("triangle", 4)
    assert ladder(8).rungs == 4


def test_enumeration_reproducible():
    a = enumerate_sector(chain(10), 2)
    b = enumerate_sector(chain(10), 2)
    assert np.array_equal(a.configs, b.configs)


def test_popcount_matches_python():
    vals = np.array([0, 1, 0b1011, 2 ** 12 - 1, 0b1000000000001])
    assert popcount(vals).tolist() == [bin(v).count("1") for v in vals]


def test_lift_to_full_preserves_amplitudes():
    basis = enumerate_sector(chain(4), 0)
    vec = np.arange(1.0, basis.dimension + 1)
    full, lifted = lift_to_full(basis, vec)
    assert full.dimension == 16
    assert np.linalg.norm(lifted) == np.linalg.norm(vec)
    for k, c in enumerate(basis.configs):
        assert lifted[c] == vec[k]


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_index_round_trip_property(n, data):
    lat = chain(n)
    szs = [m for m in range(-n, n + 1, 2)]
    sz = data.draw(st.sampled_from(szs))
    basis = enumerate_sector(lat, sz)
    if basis.dimension == 0:
        return
    k = data.draw(st.integers(min_value=0, max_value=basis.dimension - 1))
    assert index_of(basis, int(basis.configs[k])) == k
    assert basis.dimension == comb(n, (n + sz) // 2)


def test_cached_builds_once_per_key_and_is_read_only():
    basis = SectorBasis(chain(3), None, np.arange(8))  # not shared with other tests
    calls = []

    def build():
        calls.append(1)
        return np.arange(basis.dimension, dtype=float)

    first = basis.cached("test-cached", build)
    assert basis.cached("test-cached", build) is first
    assert basis.cached("test-cached", build) is first
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first[0] = 1.0
    other = basis.cached("test-cached-other", build)
    assert other is not first and len(calls) == 2
