"""The skew-brace laws of the four exact-rational variants, proved by
evaluating `rational._kernels` on a finite grid.

The lemma.  Alon, "Combinatorial Nullstellensatz", Combin. Probab. Comput. 8
(1999), Lemma 2.1: let P in F[x_1, ..., x_m] have degree at most d_i in x_i,
and let S_i be a subset of F with |S_i| > d_i.  If P vanishes on
S_1 x ... x S_m, then P = 0.

The premise.  The kernels branch only on the parity of a reduced numerator
(the signed sums of `_sum_ops` and their inverse; the gcd branch of a sum
changes how the sum is reduced, not its value).  The variants that branch
forbid 2, so denominators are odd and that parity is a ring homomorphism
from Z_P onto F2: every value computed from (a, b, c) by the operations has
a parity fixed by the parities of a, b and c.  So on each parity class of (a, b, c), every
operation is a polynomial of degree at most 1 in each variable: x + y or
x - y for a2a, c1 and c2, and x + y + kxy for a2b, which does not branch.
Both sides of associativity, of skew left distributivity and of the lambda
law, and the identity and inverse laws of a2a, c1 and c2, keep degree at
most 1 in each of a, b and c.  For a2b they have degree at most 2 in k.

The proof.  GRID holds two points of each numerator parity, so each parity
class meets it in a 2 x 2 x 2 grid, and every law vanishes there exactly
when it holds on the whole class.  The three a2b specs have three distinct
k, so each a2b law holds as a polynomial in k too, which proves a2b for
every valid (m1, m2).

What the grid does not prove.  The a2b inverse x^-1 = -x/(1 + kx) is not a
polynomial; its law is one line of algebra:
x o (-x/(1 + kx)) = (x(1 + kx) - x - kx^2)/(1 + kx) = 0.  Closure is one line
too: a forbidden p divides m2 - m1 and not m2, so k = (m1 - m2)/m2 lies in
pZ_(p), and 1 + kx is a unit of Z_P for every x in Z_P; the other variants
only add and negate.  The grid still evaluates both, and every kernel result
passes the membership check of `element`.

The sampled tests in test_rational.py stay: they also test the premise.
"""

from fractions import Fraction
from itertools import product

import pytest

from skewbrace.rational import LocalizedDomain, RationalBraceSpec, _kernels

ZERO = (0, 1)
GRID = ((0, 1), (-2, 7), (1, 1), (3, 7))    # two points of each numerator parity

BRANCHING_SPECS = [("a2a", (2,), None, None, None), ("c1", (2,), None, None, 1),
                   ("c2", (2,), None, None, 1)]
A2B_SPECS = [("a2b", (3,), 1, 4, None), ("a2b", (2,), 1, 3, None), ("a2b", (3,), 5, 2, None)]


def laws(k):
    """The laws that axiom_sample_check samples, each a predicate on reduced pairs."""
    circ, circ_inverse, add, add_inverse, lam = (
        k.circ, k.circ_inverse, k.add, k.add_inverse, k.lam)
    return {
        "circle associativity": lambda a, b, c: circ(circ(a, b), c) == circ(a, circ(b, c)),
        "additive associativity": lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)),
        "distributivity": lambda a, b, c:
            circ(a, add(b, c)) == add(add(circ(a, b), add_inverse(a)), circ(a, c)),
        "lambda homomorphism": lambda a, b, c: lam(circ(a, b), c) == lam(a, lam(b, c)),
        "circle identity": lambda a: circ(a, ZERO) == a == circ(ZERO, a),
        "additive identity": lambda a: add(a, ZERO) == a == add(ZERO, a),
        "circle inverse": lambda a: circ(a, circ_inverse(a)) == ZERO == circ(circ_inverse(a), a),
        "additive inverse": lambda a: add(a, add_inverse(a)) == ZERO == add(add_inverse(a), a),
    }


def grid_failures(variant, forbidden, m1, m2, x):
    k = _kernels(RationalBraceSpec(variant, LocalizedDomain(forbidden), m1=m1, m2=m2, x=x))
    points = [k.element(*p) for p in GRID]
    return [(name, args) for name, law in laws(k).items()
            for args in product(points, repeat=law.__code__.co_argcount) if not law(*args)]


def test_grid_has_two_points_of_each_parity():
    assert len(set(GRID)) == 4
    assert sorted(n % 2 for n, _d in GRID) == [0, 0, 1, 1]


def test_a2b_specs_have_three_distinct_k():
    assert len({Fraction(m1 - m2, m2) for _v, _s, m1, m2, _x in A2B_SPECS}) == 3


@pytest.mark.parametrize("args", BRANCHING_SPECS + A2B_SPECS, ids=lambda a: f"{a[0]}-{a[2]}-{a[3]}")
def test_laws_hold_on_the_grid(args):
    assert grid_failures(*args) == []
