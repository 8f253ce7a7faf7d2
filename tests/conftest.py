import pytest

from spinqpt.lattice import enumerate_sector


@pytest.fixture
def fresh_bases():
    """Clear ``enumerate_sector``'s cache before and after the test, so a
    test that patches the bond lists or the symmetries neither reads a
    basis built before it nor leaves one, with its cached terms and
    layouts, to the tests after it."""
    enumerate_sector.cache_clear()
    yield
    enumerate_sector.cache_clear()
