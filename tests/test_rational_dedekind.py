"""The a2a brace is not Dedekind, proved with exact arithmetic.

The result.  The paper states that every hypermultipermutational Dedekind
skew brace whose additive group is torsion-free is trivial.  Among the four
rational variants it speaks about a2a alone:

- a2a has rational addition, so (B,+) is torsion-free.  Its lambda is
  lambda_a(b) = (-1)^phi(a) b, phi the numerator parity, so ker lambda = 2X,
  the members with an even numerator.  (B,+) is abelian, so Soc(B) = 2X.
  B/2X has order 2, so it is a trivial brace and equals its own socle: a2a
  has multipermutation level 2.  lambda_1 = -id, so a2a is not trivial, and
  the result says that a2a is not Dedekind.
- a2b has rational addition too, but ker lambda = {0}, so Soc(a2b) = {0}
  and a2b is not hypermultipermutational.  (`dedekind_witness` shows that it
  is not Dedekind either.)
- In c1 and c2, 1 + 1 = 0, so their additive groups have torsion.

The witness.  Y is the set of members whose reduced numerator is divisible
by 3, that is, whose 3-adic valuation is at least 1.  Y is an additive
subgroup: the valuation of y1 - y2 is at least the smaller of theirs.  By
the parity-branch argument of test_rational_grid.py, every a2a operation is
a polynomial of degree at most 1 in each variable on each parity class, so
an identity between two of them that holds on a 2 x 2 grid of each class
holds on the whole class (Alon's Lemma 2.1).  The grid shows
x o y = x + (-1)^phi(x) y, that the circle inverse of x is -x for even and x
for odd phi, and lambda_x(y) = (-1)^phi(x) y.  Each maps Y into Y, as Y is
an additive subgroup: Y is a sub-skew brace and a left ideal.  But
1 o 3 o 1^-1 = -1 is not in Y, so Y is not normal in (B,o), and not an
ideal.
"""

from fractions import Fraction
from itertools import product

import pytest

from skewbrace.rational import (
    LocalizedDomain,
    RationalBraceSpec,
    _kernels,
    add,
    circ,
    circ_inverse,
    y_membership,
)
from test_rational_grid import A2B_SPECS, GRID

A2A = RationalBraceSpec("a2a", LocalizedDomain((2,)))
ONE = (1, 1)
Y_POINTS = ((0, 1), (3, 1), (-6, 5), (9, 7), (-3, 1), (12, 11))    # members of Y


def even(a):
    return a[0] % 2 == 0


def test_a2a_operations_are_signed_sums_on_each_parity_class():
    k = _kernels(A2A)
    points = [k.element(*p) for p in GRID]
    for a, b in product(points, repeat=2):
        signed_b = b if even(a) else k.add_inverse(b)
        assert k.circ(a, b) == k.add(a, signed_b)
        assert k.lam(a, b) == signed_b
    for a in points:
        assert k.circ_inverse(a) == (k.add_inverse(a) if even(a) else a)


def test_y_is_a_left_ideal_but_not_an_ideal_of_a2a():
    k = _kernels(A2A)
    assert all(y_membership(A2A, 3, Fraction(*y)) for y in Y_POINTS)
    for y1, y2 in product(Y_POINTS, repeat=2):
        for value in (k.add(y1, y2), k.add_inverse(y1), k.circ(y1, y2), k.circ_inverse(y1)):
            assert y_membership(A2A, 3, Fraction(*value))
    for a, y in product(GRID, Y_POINTS):
        assert y_membership(A2A, 3, Fraction(*k.lam(k.element(*a), y)))
    conjugate = circ(A2A, circ(A2A, 1, 3), circ_inverse(A2A, 1))
    assert conjugate == -1
    assert y_membership(A2A, 3, 3) and not y_membership(A2A, 3, conjugate)


def test_kernel_of_lambda_is_2x_for_a2a():
    # lambda_a is the identity for even phi(a) and -id otherwise (the signed
    # sums above), and lambda_a(1) tells the two apart.
    k = _kernels(A2A)
    for a in (k.element(*p) for p in GRID):
        assert (k.lam(a, ONE) == ONE) == even(a)
        if even(a):     # a = x + x for the member x = a/2: the denominator is odd
            assert k.add(k.element(a[0] // 2, a[1]), k.element(a[0] // 2, a[1])) == a


@pytest.mark.parametrize("args", A2B_SPECS, ids=lambda a: f"{a[0]}-{a[2]}-{a[3]}")
def test_kernel_of_lambda_is_zero_for_a2b(args):
    # lambda_a(b) = b + kab has degree at most 1 in each variable and a2b does
    # not branch, so agreement on the grid proves it; then lambda_a(1) = 1 + ka
    # is 1 only at a = 0, as k != 0.
    variant, forbidden, m1, m2, _x = args
    spec = RationalBraceSpec(variant, LocalizedDomain(forbidden), m1=m1, m2=m2)
    k, ratio = _kernels(spec), Fraction(m1 - m2, m2)
    assert ratio != 0
    points = [k.element(*p) for p in GRID]
    for a, b in product(points, repeat=2):
        assert Fraction(*k.lam(a, b)) == Fraction(*b) * (1 + ratio * Fraction(*a))
    assert [k.lam(a, ONE) == ONE for a in points] == [a == (0, 1) for a in points]


@pytest.mark.parametrize("variant", ["c1", "c2"])
def test_c1_and_c2_have_additive_torsion(variant):
    spec = RationalBraceSpec(variant, LocalizedDomain((2,)), x=1)
    assert add(spec, 1, 1) == 0
