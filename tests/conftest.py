"""Fixtures shared by the test modules."""

import pytest

from diskbands import bessel


@pytest.fixture
def cold_zeros():
    # no cached zero and no walk, before and after: a test that breaks the
    # kernel must not leave a walk made with it behind
    bessel._zero_value.cache_clear()
    bessel._WALKS.clear()
    yield
    bessel._zero_value.cache_clear()
    bessel._WALKS.clear()
