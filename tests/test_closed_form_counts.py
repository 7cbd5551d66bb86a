"""Skew brace classes of orders p^2 and pq, against closed-form counts that
share no code with the lambda-search.  The sources are cited as recalled.

- Order p^2: every group of order p^2 is abelian, and Z_{p^2} and
  Z_p x Z_p each carry exactly 2 brace classes, 4 in all (Bachiller,
  "Classification of braces of order p^3", J. Pure Appl. Algebra 219
  (2015), recalls the braces of order p^2).
- Order pq, p > q primes (Acri-Bonatto, "Skew braces of size pq",
  Comm. Algebra 48 (2020)): when q divides p - 1 there are 2q + 2 classes,
  2 of them on Z_pq and so 2q on Z_p x| Z_q; otherwise Z_pq is the only
  group of order pq and carries 1 class.
"""

import pytest

from skewbrace.enumeration import _brace_classes
from skewbrace.groups import cyclic_group, elementary_abelian_group, semidirect_product

P_SQUARED = [2, 3, 5, 7]
PQ = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (17, 2), (7, 3), (13, 3), (19, 3), (11, 5),
      (5, 3), (11, 3)]


def _classes(G) -> int:
    return len(_brace_classes(G, bound=G.order)[0])


def _nonabelian_pq(p: int, q: int):
    """Z_p x| Z_q, the generator of Z_q acting by multiplication by a unit u of
    order q mod p."""
    u = next(u for u in range(2, p) if pow(u, q, p) == 1)
    return semidirect_product(cyclic_group(p), cyclic_group(q),
                              [[pow(u, h, p) * c % p for c in range(p)] for h in range(q)])


@pytest.mark.parametrize("p", P_SQUARED)
def test_order_p_squared_has_two_classes_on_each_group(p):
    assert [_classes(cyclic_group(p * p)), _classes(elementary_abelian_group(p, 2))] == [2, 2]


@pytest.mark.parametrize("p, q", PQ, ids=[f"{p}x{q}" for p, q in PQ])
def test_order_pq_counts(p, q):
    on_cyclic = _classes(cyclic_group(p * q))
    if (p - 1) % q:
        assert on_cyclic == 1
        return
    G = _nonabelian_pq(p, q)
    assert not G.is_abelian()
    assert [on_cyclic, _classes(G)] == [2, 2 * q]


def test_most_pq_cases_have_a_nonabelian_group():
    # 10 of the 12 orders pq have q | p - 1, so their count is not the
    # single class that Z_pq carries when no other group exists.
    assert sum((p - 1) % q == 0 for p, q in PQ) == 10
