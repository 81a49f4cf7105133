import pathlib

import pytest

from qhadamard import make_field, skew_regular_qhm

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

_S_CACHE = {}
# The library keeps one context per prime (``field.context``).
field = make_field


def skew_regular(p):
    if p not in _S_CACHE:
        _S_CACHE[p] = skew_regular_qhm(field(p))
    return _S_CACHE[p]


@pytest.fixture
def fixtures_dir():
    return FIXTURES
