"""Finite set-theoretic Yang-Baxter solutions.

A solution is a pair of permutation families (lambda_x, rho_y) with
r(x, y) = (lambda_x(y), rho_y(x)) satisfying the braid relation
r12 r23 r12 = r23 r12 r23.  build_solution decides it by three identities
over pairs (_braid_holds); the solution of a skew brace and retractions
satisfy it by theorem unchecked.

Every check runs on numpy arrays of the two families: the permutation check,
the braid relation, the predicates and the well-definedness of a retraction.
A scan runs only after an array check has failed, to name the first witness:
the braid scan walks x in order, one n x n slab of (y, z) per x, and stops at
the first x that fails, so it names the lexicographically first failing
triple in (x + 1) slabs; a retraction reads its witness pair off the mask of
its own check.  A SetSolution holds its families as tuple rows and as the
read-only intp arrays that every check reads, made once by its maker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braces import SkewBrace
from .errors import BraidFailureError, DegenerateError, IllDefinedRetractionError, SchemaError
from .groups import TABLE_MAX_ORDER, _check_bound, _integer_array, _tuple_rows

# Entries in one chunk of _braid_holds: the name tuples of a block of rows, and
# the tuples composed at once, each come to about this many.  The value was
# tuned on the n^3 scans that once shared it: 2^15 was the fastest of
# 2^12..2^20 at orders 32-256 (2-core Xeon, numpy 2.4).
_BLOCK_ELEMS = 1 << 15


@dataclass(frozen=True)
class SetSolution:
    """r(x, y) = (lambda_x(y), rho_y(x)) on 0..size-1, with the tuple rows
    lambda_perms[x][y] = lambda_x(y) and rho_perms[y][x] = rho_y(x).

    The solution also keeps its families as read-only intp arrays,
    L[x, y] = lambda_x(y) and R[x, y] = rho_y(x), which every check reads;
    they take no part in equality, hashing or repr.  The constructor checks
    that size is an int or numpy integer >= 0, not a bool, and keeps it as
    an int (SchemaError("size") otherwise), then that lambda and rho are
    each size rows of permutations of 0..size-1 (rho's row count first, then
    each family by _check_perms), raising DegenerateError or
    NonIntegerEntryError, and keeps the checked arrays and their tuple rows;
    it does not check the braid relation, which build_solution adds.
    from_brace and retract hand over the arrays they built (_accepted),
    from_brace with the lambda array its brace keeps (SkewBrace.L), and
    these become the solution's own.
    """

    size: int
    lambda_perms: tuple[tuple[int, ...], ...]
    rho_perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        import numpy as np

        size = self.size
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 0:
            raise SchemaError("size", f"expected a non-negative integer, got {size!r}")
        n = int(size)
        if len(self.rho_perms) != n:
            raise DegenerateError("rho", min(n, len(self.rho_perms)))
        lam = _check_perms("lambda", self.lambda_perms, n)
        rho = _check_perms("rho", self.rho_perms, n)
        self.__dict__.update(size=n, lambda_perms=_tuple_rows(lam), rho_perms=_tuple_rows(rho))
        self._keep(lam, rho)

    @classmethod
    def _accepted(cls, lambda_perms, rho_perms, lam, rho) -> SetSolution:
        """The solution on tuple rows and their intp arrays lam[x, y] =
        lambda_x(y) and rho[y, x] = rho_y(x), which a theorem makes a
        solution, unchecked; lam and rho become the solution's own."""
        sol = cls.__new__(cls)
        sol.__dict__.update(size=len(lam), lambda_perms=lambda_perms, rho_perms=rho_perms)
        sol._keep(lam, rho)
        return sol

    def _keep(self, lam, rho) -> None:
        # The frozen dataclass refuses setattr; L and R are no dataclass fields.
        lam.flags.writeable = rho.flags.writeable = False
        self.__dict__.update(L=lam, R=rho.T)

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.lambda_perms[x][y], self.rho_perms[y][x]


def _check_perms(side: str, perms, n: int):
    """perms as an n x n intp array whose n rows are permutations of 0..n-1.

    Entries that are neither ints nor numpy integers raise
    NonIntegerEntryError; the checks run on the array, and the row scan runs
    only to name the first row that is not a permutation, or else the first
    missing or extra row.
    """
    import numpy as np

    rows, arr = _integer_array(perms, side)
    if arr is None or len(arr) != n or not (np.sort(arr, axis=1) == np.arange(n)).all():
        raise DegenerateError(side, next((x for x, row in enumerate(rows)
                                          if len(row) != n or sorted(row) != list(range(n))),
                                         min(n, len(rows))))
    return arr


def _first_braid_failure(L, rho) -> tuple[int, int, int] | None:
    """The lexicographically first (x, y, z) with r12 r23 r12 != r23 r12 r23,
    for the arrays L[x, y] = lambda_x(y) and rho[y, x] = rho_y(x), by one
    n x n slab of (y, z) per x in order, stopping at the first x that fails."""
    import numpy as np

    n = len(L)
    R = np.ascontiguousarray(rho.T)             # R[x, y] = rho_y(x)
    flat_l, flat_r = L.ravel(), R.ravel()
    for x in range(n):
        # r12 r23 r12: (x,y,z) -> (u,v,z) -> (u,w,R[v,z]) -> (L[u,w], R[u,w], R[v,z])
        v = R[x]
        uw = L[x, :, None] * n + L[v]
        # r23 r12 r23: (x,y,z) -> (x,p,q) -> (L[x,p], s, q) -> (L[x,p], L[s,q], R[s,q])
        sq = v[L] * n + R
        bad = (flat_l[uw] != L[x][L]) | (flat_r[uw] != flat_l[sq]) | (R[v] != flat_r[sq])
        if bad.any():
            return (x, *divmod(int(bad.argmax()), n))
    return None


def _first_names(rows):
    """Each row of a 2-D array named by the index of the first row equal to
    it, as an intp array."""
    import numpy as np

    first: dict[bytes, int] = {}
    return np.array([first.setdefault(r.tobytes(), x) for x, r in enumerate(rows)], dtype=np.intp)


def _braid_holds(lam, rho) -> bool:
    """Whether r(x, y) = (lambda_x(y), rho_y(x)) satisfies the braid relation,
    for the arrays lam[x, y] = lambda_x(y) and rho[y, x] = rho_y(x) of two
    families of permutations.

    Soloviev's criterion (Math. Res. Lett. 7 (2000)): with
    x <| y = lambda_y(rho_{lambda_x^-1(y)}(x)) and phi_z(x) = x <| z, a left
    non-degenerate r is a solution iff
      (i)   lambda_x lambda_y = lambda_{lambda_x(y)} lambda_{rho_y(x)}  for all x, y,
      (ii)  phi_z phi_y = phi_{phi_z(y)} phi_z                          for all y, z,
      (iii) lambda_x phi_z = phi_{lambda_x(z)} lambda_x                 for all x, z.
    Each identity compares two composites of two permutations at a pair, so
    it is settled once for each distinct 4-tuple of permutations.  F stacks
    the lambda_x and the phi_z, each permutation is named by the first row
    of F equal to it, and each distinct tuple of names (a, b, c, d) is
    checked once: F_a F_b = F_c F_d on all n points.  That costs
    O(n^2 + K n) for K distinct tuples, against n^3 for the triples; the
    solution of a brace has few distinct lambda_x and phi_z, since lambda
    factors through B / Ker lambda.  The pairs of a block of rows, and the
    tuples of a chunk, come to about _BLOCK_ELEMS entries each.
    """
    import numpy as np

    n = len(lam)
    F = np.concatenate((lam, np.empty_like(lam)))    # F[x] = lambda_x, F[n + z] = phi_z
    # phi_z(x) = lambda_z(rho_w(x)) at z = lambda_x(w)
    F[n:][lam, np.arange(n)[:, None]] = np.take(lam, lam * n + rho.T)
    ln, pn = _first_names(F).reshape(2, n)
    shape, step = (2 * n,) * 4, max(1, _BLOCK_ELEMS // max(1, 3 * n))
    for lo in range(0, n, step):
        s = slice(lo, lo + step)
        names = (                   # the names (a, b, c, d) of each pair of the block
            (ln[s, None], ln, ln[lam[s]], ln[rho.T[s]]),        # (i) at (x, y)
            (pn[s, None], pn, pn[F[n:][s]], pn[s, None]),       # (ii) at (z, y)
            (ln[s, None], pn, pn[lam[s]], ln[s, None]),         # (iii) at (x, z)
        )
        # Each distinct tuple once, by a sort: np.unique's hash path pages in
        # about 1.6 MB of code on first use.
        codes = np.sort(np.concatenate([np.ravel_multi_index(t, shape).ravel() for t in names]))
        tuples = codes[np.diff(codes, prepend=-1) != 0]
        for t in range(0, len(tuples), step):
            a, b, c, d = np.unravel_index(tuples[t:t + step], shape)
            if (np.take(F, a[:, None] * n + F[b]) != np.take(F, c[:, None] * n + F[d])).any():
                return False
    return True


def build_solution(lambda_perms, rho_perms) -> SetSolution:
    """The SetSolution of the rows, which checks non-degeneracy, once it
    satisfies the braid relation (by _braid_holds); more than TABLE_MAX_ORDER
    rows raise BoundExceededError before any is read.  A failure names the
    lexicographically first failing triple, found by the scan of
    _first_braid_failure."""
    n = len(lambda_perms)
    _check_bound(n, TABLE_MAX_ORDER, "build_solution")
    sol = SetSolution(n, lambda_perms, rho_perms)
    if not _braid_holds(sol.L, sol.R.T):
        raise BraidFailureError(*_first_braid_failure(sol.L, sol.R.T))
    return sol


def from_brace(B: SkewBrace) -> SetSolution:
    """The solution attached to a skew brace:
    r(a, b) = (lambda_a(b), lambda_a(b)^-1 o a o b), a non-degenerate solution
    for every skew brace (Guarnieri-Vendramin, Math. Comp. 86 (2017), Thm 3.1)."""
    import numpy as np

    M = B.mul.array
    minv = np.array(B.mul.inverse, dtype=np.intp)
    x = np.arange(B.order)
    rho = M[M[minv[B.L.T], x], x[:, None]]  # rho[y, x] = rho_y(x)
    return SetSolution._accepted(B.lam, _tuple_rows(rho), B.L, rho)


def twist_solution(n: int) -> SetSolution:
    """r(x, y) = (y, x): every permutation is the identity."""
    if n < 1:
        raise ValueError("twist solution needs n >= 1")
    return build_solution([range(n)] * n, [range(n)] * n)


@dataclass(frozen=True)
class SolutionPredicates:
    involutive: bool
    diagonal_fixing: bool


def predicates(sol: SetSolution) -> SolutionPredicates:
    """Whether r o r is the identity, and whether r(x, x) = (x, x) for all x."""
    import numpy as np

    L, R = sol.L, sol.R                     # r(x, y) = (L[x, y], R[x, y])
    x = np.arange(sol.size)
    involutive = bool((L[L, R] == x[:, None]).all() and (R[L, R] == x).all())
    diagonal = bool((L[x, x] == x).all() and (R[x, x] == x).all())
    return SolutionPredicates(involutive, diagonal)


def retract(sol: SetSolution) -> tuple[SetSolution, tuple[int, ...]]:
    """Quotient by x ~ y iff lambda_x = lambda_y and rho_x = rho_y.

    Returns the retracted solution and the class map; classes are labeled by
    their minimal representative in sorted order.  The induced map is checked
    across all class members at once, on arrays; a failure names the first
    pair (x, y) at which it differs, ordered by (class of x, class of y, x, y).
    Once well defined, it is a solution unchecked: the class map is onto and
    commutes with r, so the braid relation carries over, and each induced
    lambda and rho maps a finite set onto itself.
    """
    import numpy as np

    L, R = sol.L, sol.R                     # r(x, y) = (L[x, y], R[x, y])
    # x is named by the first point with its (lambda_x, rho_x) = (L[x], R[:, x]);
    # C[x] is the rank of that name, so classes are labeled in sorted order.
    reps, C = np.unique(_first_names(np.concatenate((L, R.T), axis=1)), return_inverse=True)
    lam = C[L[np.ix_(reps, reps)]]          # lam[i, j]: lambda of class i at class j
    rho = C[R.T[np.ix_(reps, reps)]]        # rho[j, i]: rho of class j at class i
    x, y = np.nonzero((C[L] != lam[C[:, None], C]) | (C[R] != rho[C, C[:, None]]))
    if len(x):
        first = np.lexsort((y, x, C[y], C[x]))[0]
        raise IllDefinedRetractionError(
            f"induced map differs across class members at ({x[first]},{y[first]})")
    return SetSolution._accepted(_tuple_rows(lam), _tuple_rows(rho), lam, rho), tuple(C.tolist())


def multipermutation_level(sol: SetSolution) -> int | None:
    """Number of retractions needed to reach a single point, or None if the
    size sequence stabilizes above 1.  A retraction that does not shrink the
    size ends the loop, so fewer than sol.size are made."""
    current, steps = sol, 0
    while current.size > 1:
        nxt, _ = retract(current)
        if nxt.size == current.size:
            return None
        current, steps = nxt, steps + 1
    return steps
