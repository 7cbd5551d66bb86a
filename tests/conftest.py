import pytest

from skewbrace.enumeration import enumerate_all
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import catalog_group, dihedral_group, elementary_abelian_group

_ENUM_CACHE: dict = {}


@pytest.fixture(scope="session")
def corpus():
    """Factory returning cached iso-class representatives for one order."""

    def get(order: int):
        if order not in _ENUM_CACHE:
            _ENUM_CACHE[order] = list(enumerate_all(order).classes)
        return _ENUM_CACHE[order]

    return get


@pytest.fixture(scope="session")
def brace_corpus(corpus):
    """Every class of order <= 12 and the family braces of the analyze benchmark."""
    out = [B for order in range(1, 13) for B in corpus(order)]
    out += [two_power_brace(n) for n in (4, 5, 6)]
    out += [odd_p_cyclic_brace(p, n) for p, n in ((3, 2), (3, 3), (5, 2))]
    out.append(odd_p_nonabelian_brace(3, 2))
    for G in (dihedral_group(6), elementary_abelian_group(2, 4)):
        out += [trivial_brace(G), almost_trivial_brace(G)]
    return out


@pytest.fixture(scope="session")
def b4():
    return two_power_brace(2)


@pytest.fixture(scope="session")
def b8():
    return two_power_brace(3)


@pytest.fixture(scope="session")
def b9():
    return odd_p_cyclic_brace(3, 2)


@pytest.fixture(scope="session")
def b27_cyclic():
    return odd_p_cyclic_brace(3, 3)


@pytest.fixture(scope="session")
def b27_nonabelian():
    return odd_p_nonabelian_brace(3, 2)


@pytest.fixture(scope="session")
def s3_group():
    return catalog_group(6, 1)


@pytest.fixture(scope="session")
def trivial_s3(s3_group):
    return trivial_brace(s3_group)


@pytest.fixture(scope="session")
def almost_trivial_s3(s3_group):
    return almost_trivial_brace(s3_group)
