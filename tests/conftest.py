import pytest

from lagdeconv import TimeGrid, laguerre, wavelet2d
from lagdeconv.laguerre import tabulate_basis

# Grid long and fine enough that phi_0..phi_9 have decayed inside [0, T] and
# the composite quadrature resolves them; the Gram matrix is then within
# ~2e-8 of the identity, comfortably inside every 1e-6 tolerance below.
ORACLE_N = 16384
ORACLE_T = 100.0


@pytest.fixture(scope="session")
def oracle_grid() -> TimeGrid:
    return TimeGrid(n=ORACLE_N, T=ORACLE_T)


@pytest.fixture(scope="session")
def oracle_basis(oracle_grid):
    return tabulate_basis(10, oracle_grid)


@pytest.fixture(scope="session")
def short_grid() -> TimeGrid:
    # the benchmark's own grid: badly under-resolves the higher basis orders
    return TimeGrid(n=32, T=5.0)


# Every table the package keeps between calls, each an lru_cache.
CACHES = (laguerre._basis, wavelet2d._matrix, wavelet2d._product)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture
def cold():
    """Empty caches at the start and the end of the test, so it counts its
    own builds and leaves nothing it built under a patch to later tests.
    The fixture's value clears them again within the test."""
    clear_caches()
    yield clear_caches
    clear_caches()
