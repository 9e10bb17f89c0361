import pytest

from gravortex import build_grid


@pytest.fixture
def fresh_grids():
    """Empty the per-process grid cache, so the test sees grids that no other test read."""
    build_grid.cache_clear()
