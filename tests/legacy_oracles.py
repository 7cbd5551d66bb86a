"""Oracles for the numpy kernels: the implementations they replaced, kept
verbatim, plus a brute-force distributivity loop.

`_validate_brace` held six n^3 arrays at once, `build_solution` checked the
braid relation in a Python triple loop and `is_bi_skew` looped over all
triples of the swapped axiom.  They stay here, unchanged, so the differential
tests can compare the kernels against them.
"""

from __future__ import annotations

import numpy as np

from skewbrace.errors import BraidFailureError, DegenerateError, DistributivityError
from skewbrace.groups import FiniteGroup
from skewbrace.ybe import SetSolution, _check_perms


def first_distributivity_failure_brute(at, mt, neg):
    """First (a, b, c) in lexicographic order with a o (b+c) != (a o b) - a + (a o c)."""
    n = len(at)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mt[a][at[b][c]] != at[at[mt[a][b]][neg[a]]][mt[a][c]]:
                    return a, b, c
    return None


def validate_brace_legacy(add: FiniteGroup, mul: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Check all brace axioms and return the lambda table lam[a][b] = -a + a o b."""
    n = add.order
    A = np.array(add.table, dtype=np.int64)
    M = np.array(mul.table, dtype=np.int64)
    neg = np.array(add.inverse, dtype=np.int64)
    rng = np.arange(n)

    # skew left distributivity, all triples
    lhs = M[:, A]                               # lhs[a,b,c] = a o (b+c)
    partial = A[M, neg[:, None]]                # partial[a,b] = (a o b) - a
    rhs = A[partial[:, :, None], M[:, None, :]] # rhs[a,b,c] = (a o b) - a + (a o c)
    if not np.array_equal(lhs, rhs):
        a, b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
        raise DistributivityError(a, b, c)

    lam = A[neg[:, None], M]                    # lam[a,b] = -a + (a o b)
    # each lambda_a is a bijection
    if not np.all(np.sort(lam, axis=1) == rng):
        bad = int(np.nonzero(np.any(np.sort(lam, axis=1) != rng, axis=1))[0][0])
        raise DistributivityError(bad, 0, 0)
    # each lambda_a is an additive homomorphism
    lam_of_sum = lam[:, A]                            # [a,b,c] = lam_a(b+c)
    sum_of_lam = A[lam[:, :, None], lam[:, None, :]]  # [a,b,c] = lam_a(b)+lam_a(c)
    if not np.array_equal(lam_of_sum, sum_of_lam):
        raise DistributivityError(*(int(v) for v in np.argwhere(lam_of_sum != sum_of_lam)[0]))
    # lambda is a homomorphism from (B,o) to Aut(B,+)
    lam_of_prod = lam[M]                              # [a,b,c] = lam_{a o b}(c)
    composed = lam[rng[:, None, None], lam[None, :, :]]
    if not np.array_equal(lam_of_prod, composed):
        raise DistributivityError(*(int(v) for v in np.argwhere(lam_of_prod != composed)[0]))
    # the three defining identities
    lam_inv = np.empty_like(lam)
    for a in range(n):
        lam_inv[a, lam[a]] = rng
    if not np.array_equal(A, M[rng[:, None], lam_inv]):
        raise DistributivityError(0, 0, 0)
    if not np.array_equal(M, A[rng[:, None], lam]):
        raise DistributivityError(0, 0, 0)
    minv = np.array(mul.inverse, dtype=np.int64)
    if not np.array_equal(neg, lam[rng, minv]):
        raise DistributivityError(0, 0, 0)
    return tuple(tuple(int(x) for x in row) for row in lam)


def build_solution_legacy(lambda_perms, rho_perms) -> SetSolution:
    """Validate non-degeneracy and the braid relation on all triples."""
    n = len(lambda_perms)
    if len(rho_perms) != n:
        raise DegenerateError("rho", len(rho_perms))
    lam = _check_perms("lambda", lambda_perms, n)
    rho = _check_perms("rho", rho_perms, n)
    sol = SetSolution(n, lam, rho)

    def r12(t):
        u, v = sol.r(t[0], t[1])
        return (u, v, t[2])

    def r23(t):
        u, v = sol.r(t[1], t[2])
        return (t[0], u, v)

    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                if r12(r23(r12(t))) != r23(r12(r23(t))):
                    raise BraidFailureError(x, y, z)
    return sol


def is_bi_skew_legacy(B) -> bool:
    """Whether swapping the two operations again yields a skew brace."""
    at, mt = B.add.table, B.mul.table
    minv = B.mul.inverse
    n = B.order
    for a in range(n):
        for b in range(n):
            ab = at[a][b]
            for c in range(n):
                if at[a][mt[b][c]] != mt[mt[ab][minv[a]]][at[a][c]]:
                    return False
    return True
