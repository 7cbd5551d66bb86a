"""Braces with a cyclic group in the finite case, against classical counts
that share no code with the lambda-search.  The sources are cited as
recalled; the counts were also computed with this library.

- Rump, "Classification of cyclic braces", J. Pure Appl. Algebra 209
  (2007): for p odd, Z_{p^k} carries exactly k brace classes.
- Kohl, "Classification of the Hopf Galois structures on prime power
  radical extensions", J. Algebra 207 (1998): for p odd, a cyclic extension
  of degree p^k has p^(k-1) Hopf-Galois structures, all of cyclic type.  In
  the Hopf-Galois dictionary (Guarnieri-Vendramin 2017) these are the
  p^(k-1) labelled braces on Z_{p^k}, and no brace with a cyclic circle
  group has a non-cyclic additive group.
- Byott, "Uniqueness of Hopf Galois structure for separable field
  extensions", Comm. Algebra 24 (1996): there is exactly one structure iff
  gcd(n, phi(n)) = 1, and then every group of order n is cyclic.
- Byott, "Hopf-Galois structures on almost cyclic field extensions of
  2-power degree", J. Algebra 318 (2007): for n >= 3 a cyclic extension of
  degree 2^n has 2^(n-2) Hopf-Galois structures of each of the cyclic,
  dihedral and generalized quaternion types, and none of any other type.
  A Galois extension with group Gamma has sum |Aut(Gamma)| / |Aut(B)|
  structures of type N, over the classes B with (B,+) = N and (B,o) = Gamma;
  |Aut(B)| is the stabiliser of B's lambda in Aut(N).
"""

from math import gcd

import pytest

from skewbrace.enumeration import _AutGroup, _brace, _brace_classes, _orbits, enumerate_all
from skewbrace.groups import (
    catalog_group,
    catalog_names,
    catalog_size,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    elementary_abelian_group,
)

PRIME_POWERS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("p, k", PRIME_POWERS, ids=[f"Z{p**k}" for p, k in PRIME_POWERS])
def test_rump_and_kohl_counts_on_cyclic_p_groups(p, k):
    classes, labelled = _brace_classes(cyclic_group(p**k), bound=p**k)
    assert (len(classes), labelled) == (k, p ** (k - 1))
    assert all(B.mul.is_cyclic() for B in classes)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_no_cyclic_circle_group_on_elementary_abelian_p_squared(p):
    classes, labelled = _brace_classes(elementary_abelian_group(p, 2), bound=p * p)
    assert (len(classes), labelled) == (2, p * p)
    assert not any(B.mul.is_cyclic() for B in classes)


def test_byott_one_brace_on_z_n_when_gcd_n_phi_n_is_1():
    orders = [n for n in range(1, 65) if gcd(n, phi(n)) == 1]
    assert len(orders) == 23
    for n in orders:
        classes, labelled = _brace_classes(cyclic_group(n), bound=n)
        assert (len(classes), labelled) == (1, 1), n


@pytest.mark.parametrize("n", range(1, 16))
def test_one_class_of_order_n_iff_gcd_n_phi_n_is_1(n):
    assert (len(enumerate_all(n).classes) == 1) == (gcd(n, phi(n)) == 1)


def _automorphism_count(B) -> int:
    """|Aut(B)| of a brace with a cyclic circle group, by brute force: an
    automorphism of (B, o) sends g^i to g^(ik) for a generator g and a k prime
    to n, and it is one of B when it is additive as well."""
    n, powers = B.order, [0]
    g = B.mul.element_orders.index(n)
    for _ in range(n - 1):
        powers.append(B.circ(powers[-1], g))
    maps = ({powers[i]: powers[i * k % n] for i in range(n)} for k in range(n) if gcd(k, n) == 1)
    return sum(all(f[B.plus(a, b)] == B.plus(f[a], f[b]) for a in range(n) for b in range(n))
               for f in maps)


def _cyclic_circle_structures(G) -> int:
    """The sum of phi(|G|) / |Stab| over the Aut(G)-orbits of braces on G with a
    cyclic circle group, with each stabiliser as _orbits reports it; that
    stabiliser is also checked against the brute-force |Aut(B)|."""
    aut, total = _AutGroup(G), 0
    for orbit, stab in _orbits(G, aut):
        B = _brace(G, aut, orbit[0])
        if B.mul.is_cyclic():
            assert stab == _automorphism_count(B) and phi(G.order) % stab == 0
            total += phi(G.order) // stab
    return total


def test_byott_cyclic_extensions_of_degree_8_and_32():
    # Degree 8 over every group of the order; degree 32 on its three types.
    by_name = {name: _cyclic_circle_structures(catalog_group(8, i))
               for i, name in enumerate(catalog_names(8))}
    assert len(by_name) == catalog_size(8)
    assert by_name == {"Z8": 2, "Z4xZ2": 0, "Z2xZ2xZ2": 0, "D4": 2, "Q8": 2}
    for G in (cyclic_group(32), dihedral_group(16), dicyclic_group(8)):
        assert _cyclic_circle_structures(G) == 8


def test_byott_cyclic_extensions_of_degree_16(order_16_groups, order_16_classes):
    # The class search of the order-16 fixture, shared with its other users;
    # each class is one orbit, whose stabiliser is Aut(B).
    counts = {}
    for name in order_16_groups:
        cyclic = [B for B in order_16_classes(name)[0] if B.mul.is_cyclic()]
        counts[name] = sum(phi(16) // _automorphism_count(B) for B in cyclic)
    assert {name for name, c in counts.items() if c} == {"Z16", "D16", "Q16"}
    assert counts["Z16"] == counts["D16"] == counts["Q16"] == 4
