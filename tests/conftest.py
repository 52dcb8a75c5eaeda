import pytest
from hypothesis import HealthCheck, settings

from eivpcr import _blas

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def blas_count():
    """Reader of the process's OpenBLAS thread count, set to 2 (never more)
    for the test and put back afterwards."""
    found = _blas._openblas()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, put = found.get_threads, found.set_threads
    saved = get()
    put(2)
    try:
        yield get
    finally:
        put(saved)
