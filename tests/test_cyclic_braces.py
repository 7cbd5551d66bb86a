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
"""

from math import gcd

import pytest

from skewbrace.enumeration import _brace_classes, enumerate_all
from skewbrace.groups import cyclic_group, elementary_abelian_group

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
