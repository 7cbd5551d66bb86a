import pytest

from legacy_oracles import enumerate_on_additive_legacy
from skewbrace.enumeration import _brace_classes, enumerate_all
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    catalog_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    semidirect_product,
)

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
def order_16_groups() -> dict[str, FiniteGroup]:
    """The 14 groups of order 16, built from the library's constructors."""
    z2, z4, z8 = cyclic_group(2), cyclic_group(4), cyclic_group(8)
    ident4 = tuple(range(4))

    def z8_by(m):
        return semidirect_product(z8, z2, [tuple(range(8)), tuple(m * i % 8 for i in range(8))])

    # (Z4 x Z2) x| Z2 acting by (a, b) -> (a + 2b, b); (a, b) is a + 4b.
    shear = tuple((a + 2 * b) % 4 + 4 * b for b in range(2) for a in range(4))
    return {
        "Z16": cyclic_group(16),
        "Z8xZ2": direct_product(z8, z2),
        "Z4xZ4": direct_product(z4, z4),
        "Z4xZ2^2": direct_product(z4, elementary_abelian_group(2, 2)),
        "Z2^4": elementary_abelian_group(2, 4),
        "D16": dihedral_group(8),
        "Q16": dicyclic_group(4),
        "SD16": z8_by(3),
        "M16": z8_by(5),
        "Z4:Z4": semidirect_product(z4, z4, [ident4, (0, 3, 2, 1)] * 2),
        "Z2^2:Z4": semidirect_product(elementary_abelian_group(2, 2), z4, [ident4, (0, 2, 1, 3)] * 2),
        "D4xZ2": direct_product(dihedral_group(4), z2),
        "Q8xZ2": direct_product(dicyclic_group(2), z2),
        "Pauli": semidirect_product(direct_product(z4, z2), z2, [tuple(range(8)), shear]),
    }


@pytest.fixture(scope="session")
def legacy_listing_16(order_16_groups):
    """Factory returning the labelled braces on the named order-16 group from
    the legacy search over all of Aut(G), computed once per session."""
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            cache[name] = enumerate_on_additive_legacy(order_16_groups[name], bound=16)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def order_16_classes(order_16_groups):
    """Factory returning _brace_classes(G, bound=16), the class representatives
    and the labelled count, on the named order-16 group, computed once per
    session.  Callers must not mutate the returned list."""
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            cache[name] = _brace_classes(order_16_groups[name], bound=16)
        return cache[name]

    return get


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
