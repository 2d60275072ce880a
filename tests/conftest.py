"""Fixtures shared by the test modules."""

import pytest

from cliffordprolate.special import scipy_extension


@pytest.fixture
def fresh_loader():
    """Clear the scipy extension loader's cache before and after the test, so
    that a test can force it onto the file or the fallback path."""
    scipy_extension.cache_clear()
    yield
    scipy_extension.cache_clear()
