"""Finite set-theoretic Yang-Baxter solutions.

A solution is a pair of permutation families (lambda_x, rho_y) with
r(x, y) = (lambda_x(y), rho_y(x)) satisfying the braid relation
r12 r23 r12 = r23 r12 r23.  build_solution checks it on every triple; the
solution of a skew brace and retractions satisfy it by theorem unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braces import SkewBrace
from .errors import BraidFailureError, DegenerateError, IllDefinedRetractionError
from .groups import TABLE_MAX_ORDER, _check_bound, _first_failure


@dataclass(frozen=True)
class SetSolution:
    size: int
    lambda_perms: tuple[tuple[int, ...], ...]
    rho_perms: tuple[tuple[int, ...], ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.lambda_perms[x][y], self.rho_perms[y][x]


def _check_perms(side: str, perms, n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for x, p in enumerate(perms):
        row = tuple(int(v) for v in p)
        if len(row) != n or sorted(row) != list(range(n)):
            raise DegenerateError(side, x)
        out.append(row)
    return tuple(out)


def _first_braid_failure(lam, rho) -> tuple[int, int, int] | None:
    """The lexicographically first (x, y, z) with r12 r23 r12 != r23 r12 r23."""
    import numpy as np

    n = len(lam)
    L = np.array(lam, dtype=np.intp)            # L[x, y] = lambda_x(y)
    R = np.array(rho, dtype=np.intp).T.copy()   # R[x, y] = rho_y(x)
    flat_l, flat_r = L.ravel(), R.ravel()

    def failures(lo, hi):
        # r12 r23 r12: (x,y,z) -> (u,v,z) -> (u,w,R[v,z]) -> (L[u,w], R[u,w], R[v,z])
        v = R[lo:hi]
        uw = L[lo:hi, :, None] * n + L[v]
        # r23 r12 r23: (x,y,z) -> (x,p,q) -> (L[x,p], s, q) -> (L[x,p], L[s,q], R[s,q])
        sq = np.take(v, L, axis=1) * n + R
        return (
            (flat_l[uw] != np.take(L[lo:hi], L, axis=1))
            | (flat_r[uw] != flat_l[sq])
            | (R[v] != flat_r[sq])
        )

    return _first_failure(n, failures)


def build_solution(lambda_perms, rho_perms) -> SetSolution:
    """Validate non-degeneracy and the braid relation on all triples; more
    than TABLE_MAX_ORDER rows raise BoundExceededError before any is read."""
    n = len(lambda_perms)
    _check_bound(n, TABLE_MAX_ORDER, "build_solution")
    if len(rho_perms) != n:
        raise DegenerateError("rho", len(rho_perms))
    lam = _check_perms("lambda", lambda_perms, n)
    rho = _check_perms("rho", rho_perms, n)
    bad = _first_braid_failure(lam, rho)
    if bad is not None:
        raise BraidFailureError(*bad)
    return SetSolution(n, lam, rho)


def from_brace(B: SkewBrace) -> SetSolution:
    """The solution attached to a skew brace:
    r(a, b) = (lambda_a(b), lambda_a(b)^-1 o a o b), a non-degenerate solution
    for every skew brace (Guarnieri-Vendramin, Math. Comp. 86 (2017), Thm 3.1)."""
    n = B.order
    lam = B.lam
    mt = B.mul.table
    minv = B.mul.inverse
    rho = tuple(
        tuple(mt[mt[minv[lam[x][y]]][x]][y] for x in range(n))
        for y in range(n)
    )
    return SetSolution(n, lam, rho)


def twist_solution(n: int) -> SetSolution:
    """r(x, y) = (y, x): every permutation is the identity."""
    if n < 1:
        raise ValueError("twist solution needs n >= 1")
    ident = tuple(range(n))
    return build_solution([ident] * n, [ident] * n)


@dataclass(frozen=True)
class SolutionPredicates:
    involutive: bool
    diagonal_fixing: bool


def predicates(sol: SetSolution) -> SolutionPredicates:
    n = sol.size
    involutive = all(
        sol.r(*sol.r(x, y)) == (x, y) for x in range(n) for y in range(n)
    )
    diagonal = all(sol.r(x, x) == (x, x) for x in range(n))
    return SolutionPredicates(involutive, diagonal)


def retract(sol: SetSolution) -> tuple[SetSolution, tuple[int, ...]]:
    """Quotient by x ~ y iff lambda_x = lambda_y and rho_x = rho_y.

    Returns the retracted solution and the class map; classes are labeled by
    their minimal representative in sorted order.  The induced map is checked
    across all class members; once well defined, it is a solution unchecked:
    the class map is onto and commutes with r, so the braid relation carries
    over, and each induced lambda and rho maps a finite set onto itself.
    """
    n = sol.size
    keys: dict[tuple, list[int]] = {}
    for x in range(n):
        keys.setdefault((sol.lambda_perms[x], sol.rho_perms[x]), []).append(x)
    classes = sorted(keys.values(), key=lambda c: c[0])
    cls = [0] * n
    for i, members in enumerate(classes):
        for x in members:
            cls[x] = i
    m = len(classes)
    reps = [c[0] for c in classes]
    lam = tuple(tuple(cls[sol.lambda_perms[i][j]] for j in reps) for i in reps)
    rho = tuple(tuple(cls[sol.rho_perms[i][j]] for j in reps) for i in reps)
    for i in range(m):
        for j in range(m):
            for x in classes[i]:
                for y in classes[j]:
                    u, v = sol.r(x, y)
                    if cls[u] != lam[cls[x]][cls[y]] or cls[v] != rho[cls[y]][cls[x]]:
                        raise IllDefinedRetractionError(
                            f"induced map differs across class members at ({x},{y})"
                        )
    return SetSolution(m, lam, rho), tuple(cls)


def multipermutation_level(sol: SetSolution, max_steps: int | None = None) -> int | None:
    """Number of retractions needed to reach a single point, or None if the
    size sequence stabilizes above 1."""
    limit = sol.size if max_steps is None else max_steps
    if limit < 1:
        raise ValueError("max_steps must be >= 1")
    current = sol
    for step in range(limit + 1):
        if current.size == 1:
            return step
        nxt, _ = retract(current)
        if nxt.size == current.size:
            return None
        current = nxt
    return None
