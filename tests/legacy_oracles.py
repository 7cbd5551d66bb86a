"""Oracles for the rewritten hot paths: the implementations they replaced,
kept verbatim, plus brute-force distributivity and associativity loops.

`_validate_brace` held six n^3 arrays at once, `build_solution` checked the
braid relation in a Python triple loop, and later in a numpy scan of all
triples, and `is_bi_skew` looped over all triples of the swapped axiom.  The
three closures (`subgroup_closure`, `brace_closure`, `ideal_generated`) each
had a worklist of their own, both lattices joined every pair of found
members, and `automorphisms`,
`group_isomorphism` and `are_isomorphic` each backtracked over generator
images and re-verified every map on all n^2 pairs, `quotient_group` renumbered
its cosets by an identity relabelling and `quotient_brace` re-checked its
projection on all n^2 pairs.  The exact-rational layer computed on
`fractions.Fraction` values and re-checked the domain membership of every
argument and result of every operation.  `enumerate --additive --up-to-iso`
compared each found brace with every representative through `are_isomorphic`,
and the upper central and socle series classified the kernel, socle and
centre of every quotient, starting with the quotient by {0}.  The closure
engine multiplied each new element with every member in both argument orders,
the lattice joined every found member with every atom it lacked, and
`is_dedekind` classified that whole lattice.  Later the one join step,
`_joins`, skipped only the coset x + M of each x it joined and the joins of
prime index, so `_lattice` closed each multiple kx of x, and each x in a
found cover of prime index, again.  `is_supersoluble` searched
the quotient braces by memoized backtracking, and `derived_series` took the
abelianizer of an induced sub-brace at every step; later it formed the star
product and the additive commutator of every pair of each term, and the star
series every star product of a term with B.  `classify_substructure`
and `three_of_four_ideal` checked each flag on every element of B, and
`_prime_order_ideals` classified the span of each element of prime order;
every oracle here that flags a set uses these copies, so none shares the
generator rule that replaced them.  The lambda-search closed its assigned set
under every ordered pair of members, and later, in two passes, multiplied the
members from the newest branch by every branched element and the older
members by the newest one; and `orbit_representatives` marked each
Aut(G)-orbit by relabelling the circle table through every automorphism.
`FiniteGroup` found each element order by a power loop of its own, and
`elementary_abelian_group` and `dihedral_group` built their tables from
multiplication formulas of their own, and `_semidirect` filled its table
entry by entry.  The
brace classes on an additive group came from the labelled search over all of
Aut(G) and an orbit step that conjugated lambda-index tuples through the
composition table of Aut(G); that labelled search, with its composition
table of all of Aut(G), listed the labelled braces until they became the
union of the class orbits.  The socle and the centre were Ker(lambda)
met with the centres of the two groups, each scanned over all n^2 pairs,
and the star series had a descending loop of its own.
`FiniteGroup.generating_set` ran the closure engine from the seed 0..n-1 on
every call, `braces._generators` did the same on both tables of a brace,
and `SkewBrace` built its lambda table from the tuple rows.  They stay here,
renamed with a `_legacy` suffix and otherwise unchanged, so the differential
tests can compare the new code against them.  The tables of a validating
call were read entry by entry: `normalize_table` coerced each entry with
`int()` and checked each row's length and range in Python, the group check
and the distributivity check each made their own array of a table,
`_check_perms` sorted every row of a solution in Python, `predicates`,
the rho of `from_brace` and the well-definedness check of `retract` made one
call or lookup per pair, and the `two_power` and `odd_p_cyclic` families
built their tables as nested lists.  `_generator_maps` derived its maps
along a BFS of its own over the generating set, and the `odd_p_nonabelian`
family built the modular group table and its lambda and circle rows in
Python loops.  The CLI's `make_parser` built every command's arguments, in
one hand-written block per command, on every `main` call.  `_tuple_rows`
took the rows of every table from an object array of the n ints, and
`storage._write_object` encoded every table row with a `json.dumps` call
and opened a table's bracket with its first row, so an empty table lost it.
The brute-force
brace count,
the list of every Cayley table of an order and the relabelling of a table,
which only the tests use, live here too.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from itertools import product

import numpy as np

from skewbrace.braces import (
    SkewBrace,
    SubStructure,
    build_brace,
    ideal_generated,
    induced_sub_brace,
    kernel_of_lambda,
    quotient_brace,
    star_span,
)
from skewbrace.cli import (
    DEFAULT_SEED,
    _cmd_analyze,
    _cmd_construct,
    _cmd_dedekind,
    _cmd_enumerate,
    _cmd_iso,
    _cmd_rational,
    _cmd_verify,
    _cmd_ybe_check,
    _cmd_ybe_from_brace,
    _cmd_ybe_level,
    _cmd_ybe_retract,
)
from skewbrace.enumeration import (
    ENUMERATION_MAX_ORDER,
    IsoCertificate,
    _AutGroup,
    _brace,
    _element_profile,
    _search_lambda,
    are_isomorphic,
)
from skewbrace.errors import (
    BadParamsError,
    BadPrimeError,
    BoundExceededError,
    BraceError,
    BraidFailureError,
    DegenerateError,
    DistributivityError,
    DomainViolationError,
    IdentityMismatchError,
    IllDefinedRetractionError,
    InvalidSpecError,
    NonIntegerEntryError,
    NotAGroupError,
    NotAnIdealError,
    NotASubgroupError,
    NotNormalError,
)
from skewbrace.families import FAMILY_TAGS
from skewbrace.groups import (
    TABLE_MAX_ORDER,
    Automorphism,
    FiniteGroup,
    _check_bound,
    _check_group,
    _closure,
    _is_prime,
    _prime_divisors,
    automorphisms,
    catalog_group,
    catalog_size,
    find_identity,
    is_normal,
    is_subgroup,
    max_order_bound,
    subgroup_closure,
)
from skewbrace.rational import _SMALL_PRIMES, RationalBraceSpec, SampleReport, WitnessReport
from skewbrace.series import DerivedSeries, IdealChain, StarSeries
from skewbrace.ybe import SetSolution, SolutionPredicates


class CosetMismatchError(BraceError):
    """The error `quotient_brace` raised when its coset and projection checks
    failed; the library dropped it with those checks, which cannot fail."""


def first_distributivity_failure_brute(at, mt, neg):
    """First (a, b, c) in lexicographic order with a o (b+c) != (a o b) - a + (a o c)."""
    n = len(at)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mt[a][at[b][c]] != at[at[mt[a][b]][neg[a]]][mt[a][c]]:
                    return a, b, c
    return None


def first_associativity_failure_brute(t):
    """First (i, j, k) in lexicographic order with (i*j)*k != i*(j*k)."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    return i, j, k
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
    lam = _check_perms_legacy("lambda", lambda_perms, n)
    rho = _check_perms_legacy("rho", rho_perms, n)
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


def build_solution_scan_legacy(lambda_perms, rho_perms) -> SetSolution:
    """Validate non-degeneracy and the braid relation on all triples; more
    than TABLE_MAX_ORDER rows raise BoundExceededError before any is read.
    Each family's first entry that is neither an int nor a numpy integer is
    refused before its rows are checked, as the library does; the braid
    relation is compared on all n^3 triples at once
    (_first_braid_failure_legacy)."""
    n = len(lambda_perms)
    _check_bound(n, TABLE_MAX_ORDER, "build_solution")
    if len(rho_perms) != n:
        raise DegenerateError("rho", len(rho_perms))
    lam, rho = (_check_integer_perms_legacy(side, perms, n)
                for side, perms in (("lambda", lambda_perms), ("rho", rho_perms)))
    bad = _first_braid_failure_legacy(lam, rho)
    if bad is not None:
        raise BraidFailureError(*bad)
    return SetSolution(n, lam, rho)


def _check_integer_perms_legacy(side: str, perms, n: int) -> tuple[tuple[int, ...], ...]:
    """_check_perms_legacy, once no entry, in row order, is other than an int
    or a numpy integer (NonIntegerEntryError names the first)."""
    for i, row in enumerate(perms):
        for j, v in enumerate(row):
            if type(v) is not int and not isinstance(v, np.integer):
                raise NonIntegerEntryError(side, i, j, v)
    return _check_perms_legacy(side, perms, n)


def _first_braid_failure_legacy(lam, rho) -> tuple[int, int, int] | None:
    """The lexicographically first (x, y, z) with r12 r23 r12 != r23 r12 r23,
    for lam[x][y] = lambda_x(y) and rho[y][x] = rho_y(x): both composites on
    all n^3 triples as numpy arrays, and the first True of their difference
    in C order."""
    n = len(lam)
    L = np.array(lam, dtype=np.intp).reshape(n, n)
    R = np.array(rho, dtype=np.intp).reshape(n, n).T       # R[x, y] = rho_y(x)

    def r12(t):
        return L[t[0], t[1]], R[t[0], t[1]], t[2]

    def r23(t):
        return t[0], L[t[1], t[2]], R[t[1], t[2]]

    t = tuple(np.indices((n, n, n), dtype=np.intp))
    bad = np.any([u != v for u, v in zip(r12(r23(r12(t))), r23(r12(r23(t))))], axis=0)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(bad.argmax()), bad.shape))


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


def subgroup_closure_legacy(G: FiniteGroup, seed) -> tuple[int, ...]:
    """Smallest subgroup of G containing seed (closure under product and inverse)."""
    t = G.table
    members = {0}
    queue = [s for s in set(seed)]
    members.update(queue)
    while queue:
        x = queue.pop()
        for y in (G.inverse[x],):
            if y not in members:
                members.add(y)
                queue.append(y)
        for y in list(members):
            for z in (t[x][y], t[y][x]):
                if z not in members:
                    members.add(z)
                    queue.append(z)
    return tuple(sorted(members))


def subgroup_lattice_legacy(G: FiniteGroup, bound: int | None = None) -> list[tuple[int, ...]]:
    """All subgroups of G, generated by closing singletons and joining pairs."""
    _check_bound(G.order, bound, "subgroup_lattice")
    found = {frozenset({0})}
    found.update(frozenset(subgroup_closure_legacy(G, [x])) for x in range(G.order))
    frontier = set(found)
    while frontier:
        fresh = set()
        for s in frontier:
            for u in list(found):
                if s <= u or u <= s:
                    continue
                j = frozenset(subgroup_closure_legacy(G, s | u))
                if j not in found and j not in fresh:
                    fresh.add(j)
        found |= fresh
        frontier = fresh
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def _bfs_derivations(G: FiniteGroup, gens) -> list[tuple[int, int, int]]:
    """(element, parent, generator-slot) triples covering the group, BFS from 0."""
    seen = {0}
    out: list[tuple[int, int, int]] = []
    queue = [0]
    while queue:
        e = queue.pop(0)
        for slot, g in enumerate(gens):
            e2 = G.table[e][g]
            if e2 not in seen:
                seen.add(e2)
                out.append((e2, e, slot))
                queue.append(e2)
    return out


def automorphisms_legacy(G: FiniteGroup, bound: int | None = None) -> list[Automorphism]:
    """The full automorphism group, by backtracking on images of a generating set.

    Every found map is re-verified as a table homomorphism, and the returned
    set is checked to be closed under composition and inverse.
    """
    _check_bound(G.order, bound, "automorphisms")
    n = G.order
    t = G.table
    gens = G.generating_set()
    if not gens:
        return [Automorphism(tuple(range(n)))]
    derivations = _bfs_derivations(G, gens)
    candidates = [
        [x for x in range(n) if G.element_orders[x] == G.element_orders[g]]
        for g in gens
    ]
    found: list[Automorphism] = []
    for images in product(*candidates):
        perm = [-1] * n
        perm[0] = 0
        ok = True
        for slot, g in enumerate(gens):
            if perm[g] == -1:
                perm[g] = images[slot]
            elif perm[g] != images[slot]:
                ok = False
                break
        if not ok:
            continue
        for e, parent, slot in derivations:
            v = t[perm[parent]][images[slot]]
            if perm[e] == -1:
                perm[e] = v
            elif perm[e] != v:
                ok = False
                break
        if not ok or sorted(perm) != list(range(n)):
            continue
        if all(perm[t[i][j]] == t[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            found.append(Automorphism(tuple(perm)))
    perms = {a.perm for a in found}
    assert tuple(range(n)) in perms
    for a in found:
        inv = [0] * n
        for i, v in enumerate(a.perm):
            inv[v] = i
        assert tuple(inv) in perms, "automorphism set not closed under inverse"
        for b in found:
            comp = tuple(a.perm[b.perm[i]] for i in range(n))
            assert comp in perms, "automorphism set not closed under composition"
    return sorted(found, key=lambda a: a.perm)


def group_isomorphism_legacy(G: FiniteGroup, H: FiniteGroup) -> tuple[int, ...] | None:
    """A table-preserving bijection G -> H fixing 0, or None.

    Refutes quickly on the element-order multiset, then backtracks over images
    of a generating set of G.
    """
    if G.order != H.order:
        return None
    if sorted(G.element_orders) != sorted(H.element_orders):
        return None
    n = G.order
    gens = G.generating_set()
    if not gens:
        return tuple(range(n))
    derivations = _bfs_derivations(G, gens)
    by_order: dict[int, list[int]] = {}
    for x in range(n):
        by_order.setdefault(H.element_orders[x], []).append(x)
    candidates = [by_order.get(G.element_orders[g], []) for g in gens]
    tG, tH = G.table, H.table
    for images in product(*candidates):
        perm = [-1] * n
        perm[0] = 0
        ok = True
        for slot, g in enumerate(gens):
            if perm[g] == -1:
                perm[g] = images[slot]
            elif perm[g] != images[slot]:
                ok = False
                break
        if not ok:
            continue
        for e, parent, slot in derivations:
            v = tH[perm[parent]][images[slot]]
            if perm[e] == -1:
                perm[e] = v
            elif perm[e] != v:
                ok = False
                break
        if not ok or sorted(perm) != list(range(n)):
            continue
        if all(
            perm[tG[i][j]] == tH[perm[i]][perm[j]] for i in range(n) for j in range(n)
        ):
            return tuple(perm)
    return None


def classify_substructure_legacy(B: SkewBrace, elems) -> SubStructure:
    """Compute the four flags directly from the definitions.

    Sets that are not closed come back with every flag false rather than as
    errors, so lattice searches can probe arbitrary subsets.
    """
    s = set(elems)
    members = tuple(sorted(s))
    if 0 not in s:
        return SubStructure(members, False, False, False, False)
    add_sub = is_subgroup(B.add, s)
    mul_sub = is_subgroup(B.mul, s)
    sub_brace = add_sub and mul_sub
    lam_invariant = add_sub and all(
        B.lam[b][x] in s for b in range(B.order) for x in s
    )
    left_ideal = add_sub and lam_invariant
    add_normal = all(B.add.conjugate(g, x) in s for g in range(B.order) for x in s)
    strong = left_ideal and add_normal
    mul_normal = all(B.mul.conjugate(g, x) in s for g in range(B.order) for x in s)
    ideal = strong and mul_normal
    return SubStructure(members, sub_brace, left_ideal, strong, ideal)


def three_of_four_ideal_legacy(B: SkewBrace, elems) -> tuple[bool, tuple[int, ...] | None]:
    """Test whether some three of the four ideal conditions hold on a subgroup.

    Conditions: (1) additively normal, (2) lambda-invariant, (3)
    multiplicatively normal, (4) S * B contained in S.  Returns the first
    satisfied 3-subset (1-based labels).  Any three of the four make the
    subgroup an ideal, so a true result certifies an ideal.
    """
    s = set(elems)
    if not (is_subgroup(B.add, s) or is_subgroup(B.mul, s)):
        raise NotASubgroupError(
            "expected an additive or multiplicative subgroup of the brace"
        )
    conds = {
        1: all(B.add.conjugate(g, x) in s for g in range(B.order) for x in s),
        2: all(B.lam[b][x] in s for b in range(B.order) for x in s),
        3: all(B.mul.conjugate(g, x) in s for g in range(B.order) for x in s),
        4: set(star_span(B, s, range(B.order))) <= s,
    }
    held = tuple(k for k in (1, 2, 3, 4) if conds[k])
    return (True, held) if len(held) >= 3 else (False, None)


def elementary_abelian_group_legacy(p: int, k: int) -> FiniteGroup:
    n = p**k
    def add(i, j):
        out, mult = 0, 1
        for _ in range(k):
            out += ((i % p + j % p) % p) * mult
            i //= p
            j //= p
            mult *= p
        return out
    return FiniteGroup([[add(i, j) for j in range(n)] for i in range(n)])


def dihedral_group_legacy(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: rotations 0..m-1, reflections m..2m-1."""
    n = 2 * m
    def mul(a, b):
        i1, j1 = a % m, a // m
        i2, j2 = b % m, b // m
        if j1 == 0:
            return ((i1 + i2) % m) + m * j2
        return ((i1 - i2) % m) + m * ((1 + j2) % 2)
    return FiniteGroup([[mul(a, b) for b in range(n)] for a in range(n)])


def semidirect_table_legacy(N: FiniteGroup, H: FiniteGroup, acts) -> list[list[int]]:
    """The table of `_semidirect(N, H, acts)`, one entry per (a, h, c, d)."""
    n, m = N.order, H.order
    size = n * m
    table = [[0] * size for _ in range(size)]
    for a, h, c, d in product(range(n), range(m), range(n), range(m)):
        table[h * n + a][d * n + c] = H.table[h][d] * n + N.table[a][acts[h][c]]
    return table


def _prime_order_ideals_legacy(B: SkewBrace) -> list[SubStructure]:
    primes = set().union(*(_prime_divisors(o) for o in B.add.element_orders))
    seen = set()
    out = []
    for x in range(1, B.order):
        if B.add.element_orders[x] not in primes:
            continue
        s = frozenset(subgroup_closure(B.add, [x]))
        if s in seen:
            continue
        seen.add(s)
        sub = classify_substructure_legacy(B, s)
        if sub.is_ideal:
            out.append(sub)
    return sorted(out, key=lambda t: t.elements)


def brace_closure_legacy(B: SkewBrace, seed) -> tuple[int, ...]:
    """Smallest sub-skew brace containing seed (closure under both operations)."""
    members = {0} | set(seed)
    queue = list(members - {0})
    at, mt = B.add.table, B.mul.table
    while queue:
        x = queue.pop()
        for y in (B.add.inverse[x], B.mul.inverse[x]):
            if y not in members:
                members.add(y)
                queue.append(y)
        for y in list(members):
            for z in (at[x][y], at[y][x], mt[x][y], mt[y][x]):
                if z not in members:
                    members.add(z)
                    queue.append(z)
    return tuple(sorted(members))


def sub_skew_braces_legacy(B: SkewBrace, bound: int | None = None) -> list[SubStructure]:
    """The complete lattice of sub-skew braces.

    Generated by closing every singleton, then repeatedly closing unions of
    pairs until a fixpoint; exponential subset enumeration is never used.
    """
    limit = max_order_bound() if bound is None else bound
    if B.order > limit:
        raise BoundExceededError(f"sub_skew_braces: order {B.order} exceeds {limit}")
    found = {frozenset({0})}
    found.update(frozenset(brace_closure_legacy(B, [x])) for x in range(B.order))
    frontier = set(found)
    while frontier:
        fresh = set()
        for s in frontier:
            for u in list(found):
                if s <= u or u <= s:
                    continue
                j = frozenset(brace_closure_legacy(B, s | u))
                if j not in found and j not in fresh:
                    fresh.add(j)
        found |= fresh
        frontier = fresh
    subs = [classify_substructure_legacy(B, s) for s in found]
    return sorted(subs, key=lambda t: (t.size, t.elements))


def ideal_generated_legacy(B: SkewBrace, seed) -> SubStructure:
    """Smallest ideal containing seed: fixpoint closure under both operations,
    inverses, lambda images and both conjugations."""
    members = {0} | set(seed)
    queue = list(members - {0})
    at, mt = B.add.table, B.mul.table
    n = B.order
    while queue:
        x = queue.pop()
        new = {B.add.inverse[x], B.mul.inverse[x]}
        for y in list(members):
            new.update((at[x][y], at[y][x], mt[x][y], mt[y][x]))
        for b in range(n):
            new.add(B.lam[b][x])
            new.add(B.add.conjugate(b, x))
            new.add(B.mul.conjugate(b, x))
        for z in new:
            if z not in members:
                members.add(z)
                queue.append(z)
    sub = classify_substructure_legacy(B, members)
    assert sub.is_ideal, "closure under all ideal operations must yield an ideal"
    return sub


def are_isomorphic_legacy(B1: SkewBrace, B2: SkewBrace) -> IsoCertificate:
    """Brace isomorphism test: invariant refutation, then backtracking over
    images of an additive generating set; any found bijection is re-verified
    on both tables before being returned."""
    if B1.order != B2.order:
        return IsoCertificate(False, None, "order")
    if group_isomorphism_legacy(B1.add, B2.add) is None:
        return IsoCertificate(False, None, "additive group type")
    if group_isomorphism_legacy(B1.mul, B2.mul) is None:
        return IsoCertificate(False, None, "multiplicative group type")
    n = B1.order
    prof1 = [_element_profile(B1, a) for a in range(n)]
    prof2 = [_element_profile(B2, a) for a in range(n)]
    if sorted(prof1) != sorted(prof2):
        return IsoCertificate(False, None, "lambda/star signature")
    for name, f in (
        ("kernel size", lambda B: len(kernel_of_lambda(B))),
        ("socle size", lambda B: len(_kernel_socle_centre_legacy(B)[1])),
        ("centre size", lambda B: len(_kernel_socle_centre_legacy(B)[2])),
    ):
        if f(B1) != f(B2):
            return IsoCertificate(False, None, name)

    gens = B1.add.generating_set()
    if not gens:
        return IsoCertificate(True, tuple(range(n)), None)
    by_profile: dict[tuple, list[int]] = {}
    for x in range(n):
        by_profile.setdefault(prof2[x], []).append(x)
    t1a, t2a = B1.add.table, B2.add.table
    t1m, t2m = B1.mul.table, B2.mul.table

    derivations = _bfs_derivations(B1.add, gens)

    def extend(images):
        perm = [-1] * n
        perm[0] = 0
        for slot, g in enumerate(gens):
            if perm[g] == -1:
                perm[g] = images[slot]
            elif perm[g] != images[slot]:
                return None
        for e, parent, slot in derivations:
            v = t2a[perm[parent]][images[slot]]
            if perm[e] == -1:
                perm[e] = v
            elif perm[e] != v:
                return None
        if sorted(perm) != list(range(n)):
            return None
        for i in range(n):
            pi = perm[i]
            for j in range(n):
                if perm[t1a[i][j]] != t2a[pi][perm[j]]:
                    return None
                if perm[t1m[i][j]] != t2m[pi][perm[j]]:
                    return None
        return tuple(perm)

    candidates = [by_profile.get(prof1[g], []) for g in gens]
    for images in product(*candidates):
        perm = extend(images)
        if perm is not None:
            return IsoCertificate(True, perm, None)
    return IsoCertificate(False, None, "no generator image assignment extends")


def quotient_group_legacy(G: FiniteGroup, subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup: (group on cosets, projection). Coset of 0 is 0."""
    s = set(subgroup)
    if not is_subgroup(G, s):
        raise NotNormalError(0, min(s - {0}) if s - {0} else 0)
    witness = is_normal(G, s)
    if witness is not None:
        raise NotNormalError(*witness)
    t = G.table
    cosets: list[tuple[int, ...]] = []
    proj = [-1] * G.order
    for a in range(G.order):
        if proj[a] >= 0:
            continue
        coset = tuple(sorted(t[a][x] for x in s))
        cosets.append(coset)
        for e in coset:
            proj[e] = len(cosets) - 1
    order_key = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    relabel = {old: new for new, old in enumerate(order_key)}
    proj = [relabel[p] for p in proj]
    reps = [0] * len(cosets)
    for e in range(G.order - 1, -1, -1):
        reps[proj[e]] = e
    m = len(cosets)
    qtable = [[proj[t[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    return FiniteGroup(qtable), tuple(proj)


def quotient_brace_legacy(B: SkewBrace, ideal) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient by an ideal: (brace on cosets, projection).  Coset of 0 is 0.

    Asserts that additive and multiplicative coset partitions coincide before
    building; CosetMismatchError would signal a logic bug.
    """
    if isinstance(ideal, SubStructure):
        sub = ideal
    else:
        sub = classify_substructure_legacy(B, ideal)
    if not sub.is_ideal:
        raise NotAnIdealError(f"{list(sub.elements)} is not an ideal")
    s = sub.elements
    at, mt = B.add.table, B.mul.table
    add_cosets = {frozenset(at[a][x] for x in s) for a in range(B.order)}
    mul_cosets = {frozenset(mt[a][x] for x in s) for a in range(B.order)}
    if add_cosets != mul_cosets:
        raise CosetMismatchError(
            "additive and multiplicative cosets differ for a verified ideal"
        )
    cosets = sorted((tuple(sorted(c)) for c in add_cosets), key=lambda c: c[0])
    proj = [-1] * B.order
    for i, c in enumerate(cosets):
        for e in c:
            proj[e] = i
    m = len(cosets)
    reps = [c[0] for c in cosets]
    qadd = [[proj[at[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    qmul = [[proj[mt[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    Q = build_brace(qadd, qmul)
    for a in range(B.order):
        for b in range(B.order):
            if proj[at[a][b]] != Q.add.table[proj[a]][proj[b]]:
                raise CosetMismatchError("projection does not preserve addition")
            if proj[mt[a][b]] != Q.mul.table[proj[a]][proj[b]]:
                raise CosetMismatchError("projection does not preserve multiplication")
    return Q, tuple(proj)


def _parity_legacy(q: Fraction) -> int:
    """Parity of the reduced numerator; the denominator is odd whenever 2 is
    forbidden, so this is the X -> X/2X coordinate."""
    return q.numerator % 2


def membership_legacy(spec: RationalBraceSpec, q) -> bool:
    return Fraction(q) in spec.domain


def _require_legacy(spec: RationalBraceSpec, *values) -> None:
    for v in values:
        if v not in spec.domain:
            raise DomainViolationError(f"{v} is outside the domain")


def circ_legacy(spec: RationalBraceSpec, a, b) -> Fraction:
    """The multiplicative operation of the variant."""
    a, b = Fraction(a), Fraction(b)
    _require_legacy(spec, a, b)
    if spec.variant == "a2a":
        out = a + b if _parity_legacy(a) == 0 else a - b
    elif spec.variant == "a2b":
        out = a + b - a * b + spec.ratio * a * b
    else:
        out = a + b
    _require_legacy(spec, out)
    return out


def circ_inverse_legacy(spec: RationalBraceSpec, a) -> Fraction:
    a = Fraction(a)
    _require_legacy(spec, a)
    if spec.variant == "a2a":
        out = -a if _parity_legacy(a) == 0 else a
    elif spec.variant == "a2b":
        den = 1 - a + spec.ratio * a
        assert den != 0, "circle inverse denominator cannot vanish in a valid spec"
        out = -a / den
    else:
        out = -a
    _require_legacy(spec, out)
    assert circ_legacy(spec, a, out) == 0
    return out


def add_legacy(spec: RationalBraceSpec, a, b) -> Fraction:
    """The additive operation of the variant."""
    a, b = Fraction(a), Fraction(b)
    _require_legacy(spec, a, b)
    if spec.variant == "c1":
        out = a + b if _parity_legacy(a) == 0 else a - b
    elif spec.variant == "c2":
        out = b + a if _parity_legacy(b) == 0 else b - a
    else:
        out = a + b
    _require_legacy(spec, out)
    return out


def add_inverse_legacy(spec: RationalBraceSpec, a) -> Fraction:
    a = Fraction(a)
    _require_legacy(spec, a)
    if spec.variant in ("c1", "c2"):
        out = a if _parity_legacy(a) == 1 else -a
    else:
        out = -a
    assert add_legacy(spec, a, out) == 0 == add_legacy(spec, out, a)
    return out


def lambda_apply_legacy(spec: RationalBraceSpec, a, b) -> Fraction:
    """lambda_a(b) = -a + (a o b), evaluated with the variant's operations."""
    return add_legacy(spec, add_inverse_legacy(spec, a), circ_legacy(spec, a, b))


def star_rat_legacy(spec: RationalBraceSpec, a, b) -> Fraction:
    """a * b = lambda_a(b) - b, evaluated with the variant's addition."""
    return add_legacy(spec, lambda_apply_legacy(spec, a, b), add_inverse_legacy(spec, b))


def sample_elements_legacy(
    spec: RationalBraceSpec,
    rng: random.Random,
    numerator_bound: int = 10000,
    exclude: tuple[int, ...] = (),
) -> Fraction:
    """One pseudo-random domain element: numerator uniform in [-N, N],
    denominator a product of at most three allowed primes below 50."""
    allowed = [
        p for p in _SMALL_PRIMES if p not in spec.domain.forbidden and p not in exclude
    ]
    den = 1
    for _ in range(rng.randint(0, 3)):
        den *= rng.choice(allowed)
    q = Fraction(rng.randint(-numerator_bound, numerator_bound), den)
    assert q in spec.domain
    return q


def axiom_sample_check_legacy(spec: RationalBraceSpec, seed: int, count: int) -> SampleReport:
    """Sample `count` triples and check the group axioms of the circle
    operation (and of the addition for c1/c2), skew left distributivity and
    the lambda homomorphism law on each."""
    rng = random.Random(seed)
    checks = {"group_circ": 0, "group_add": 0, "distributivity": 0, "lambda_hom": 0}
    for i in range(count):
        a = sample_elements_legacy(spec, rng)
        b = sample_elements_legacy(spec, rng)
        c = sample_elements_legacy(spec, rng)
        try:
            if circ_legacy(spec, circ_legacy(spec, a, b), c) != circ_legacy(spec, a, circ_legacy(spec, b, c)):
                return SampleReport(spec.variant, i + 1, False, f"circle associativity at {(a, b, c)}", checks)
            if circ_legacy(spec, a, 0) != a or circ_legacy(spec, Fraction(0), a) != a:
                return SampleReport(spec.variant, i + 1, False, f"circle identity at {a}", checks)
            circ_inverse_legacy(spec, a)
            checks["group_circ"] += 1
            if add_legacy(spec, add_legacy(spec, a, b), c) != add_legacy(spec, a, add_legacy(spec, b, c)):
                return SampleReport(spec.variant, i + 1, False, f"additive associativity at {(a, b, c)}", checks)
            if add_legacy(spec, a, 0) != a or add_legacy(spec, Fraction(0), a) != a:
                return SampleReport(spec.variant, i + 1, False, f"additive identity at {a}", checks)
            add_inverse_legacy(spec, a)
            checks["group_add"] += 1
            lhs = circ_legacy(spec, a, add_legacy(spec, b, c))
            rhs = add_legacy(spec, add_legacy(spec, circ_legacy(spec, a, b), add_inverse_legacy(spec, a)), circ_legacy(spec, a, c))
            if lhs != rhs:
                return SampleReport(spec.variant, i + 1, False, f"distributivity at {(a, b, c)}", checks)
            checks["distributivity"] += 1
            if lambda_apply_legacy(spec, circ_legacy(spec, a, b), c) != lambda_apply_legacy(spec, a, lambda_apply_legacy(spec, b, c)):
                return SampleReport(spec.variant, i + 1, False, f"lambda homomorphism at {(a, b, c)}", checks)
            checks["lambda_hom"] += 1
        except DomainViolationError as exc:
            return SampleReport(spec.variant, i + 1, False, f"closure: {exc}", checks)
    return SampleReport(spec.variant, count, True, None, checks)


def y_membership_legacy(spec: RationalBraceSpec, p: int, q) -> bool:
    """The witness sub-skew brace Y = pX: domain members with numerator
    divisible by p (the denominator is then automatically coprime to p)."""
    q = Fraction(q)
    return q in spec.domain and q.numerator % p == 0


def dedekind_witness_legacy(spec: RationalBraceSpec, p: int, samples: int = 200, seed: int = 1729) -> WitnessReport:
    """Exhibit the non-left-ideal Y = pX inside an a2b brace.

    Requires p prime, not forbidden, and not dividing m2*(m1 - m2).  Verifies
    on seeded samples that Y is an additive subgroup closed under the circle
    operation and circle inverses, then checks exactly that
    lambda_(1/p^2)(p) = (p^2 m2 - m2 + m1)/(m2 p) lies outside Y.
    """
    if spec.variant != "a2b":
        raise InvalidSpecError("the Dedekind witness is defined for variant a2b")
    if not _is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if p in spec.domain.forbidden:
        raise BadPrimeError(f"{p} is a forbidden prime")
    if (spec.m2 * (spec.m1 - spec.m2)) % p == 0:
        raise BadPrimeError(f"{p} divides m2*(m1 - m2)")
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        # Y = pX for the sub-ring X of members with p-free denominators
        y1 = p * sample_elements_legacy(spec, rng, numerator_bound=1000, exclude=(p,))
        y2 = p * sample_elements_legacy(spec, rng, numerator_bound=1000, exclude=(p,))
        if not (y_membership_legacy(spec, p, y1) and y_membership_legacy(spec, p, y2)):
            ok = False
            break
        if not y_membership_legacy(spec, p, y1 + y2) or not y_membership_legacy(spec, p, -y1):
            ok = False
            break
        if not y_membership_legacy(spec, p, circ_legacy(spec, y1, y2)):
            ok = False
            break
        if not y_membership_legacy(spec, p, circ_inverse_legacy(spec, y1)):
            ok = False
            break
    a = Fraction(1, p * p)
    violating = lambda_apply_legacy(spec, a, Fraction(p))
    expected = Fraction(p * p * spec.m2 - spec.m2 + spec.m1, spec.m2 * p)
    assert violating == expected, "closed form of the violating element disagrees"
    assert y_membership_legacy(spec, p, Fraction(p)) and a in spec.domain
    return WitnessReport(
        prime=p,
        violating=violating,
        violating_in_domain=violating in spec.domain,
        violating_in_y=y_membership_legacy(spec, p, violating),
        subgroup_samples_ok=ok,
    )


def up_to_iso_legacy(braces) -> list[SkewBrace]:
    """The `--up-to-iso` loop of `cli._cmd_enumerate`."""
    reps: list[SkewBrace] = []
    for b in braces:
        if not any(are_isomorphic(b, r).isomorphic for r in reps):
            reps.append(b)
    return reps


def _ascend_legacy(B: SkewBrace, centre_of) -> IdealChain:
    steps = [classify_substructure_legacy(B, {0})]
    while True:
        current = set(steps[-1].elements)
        if len(current) == B.order:
            return IdealChain(tuple(steps), True)
        Q, proj = quotient_brace(B, steps[-1])
        target = set(centre_of(Q))
        lifted = {e for e in range(B.order) if proj[e] in target}
        if lifted == current:
            return IdealChain(tuple(steps), False)
        steps.append(classify_substructure_legacy(B, lifted))


def upper_central_series_legacy(B: SkewBrace) -> IdealChain:
    """Iterated centres through quotients; terminal iff B is centrally nilpotent."""
    return _ascend_legacy(B, lambda Q: _kernel_socle_centre_legacy(Q)[2])


def upper_socle_series_legacy(B: SkewBrace) -> IdealChain:
    """Iterated socles through quotients; terminal iff the multipermutation
    level is finite, and then the level is the chain length."""
    return _ascend_legacy(B, lambda Q: _kernel_socle_centre_legacy(Q)[1])


def _kernel_socle_centre_legacy(B: SkewBrace) -> tuple[set[int], set[int], set[int]]:
    """(Ker lambda, socle, centre) as bare sets.

    Soc(B) = Ker(lambda) meet Z(B,+); Z(B) = Soc(B) meet Z(B,o).  The socle
    and the centre are ideals.
    """
    ker = set(kernel_of_lambda(B))
    soc = ker & _center_legacy(B.add)
    cen = soc & _center_legacy(B.mul)
    return ker, soc, cen


def _center_legacy(G: FiniteGroup) -> set[int]:
    """The elements of G that commute with every element."""
    t, n = G.table, G.order
    return {a for a in range(n) if all(t[a][b] == t[b][a] for b in range(n))}


def star_series_legacy(B: SkewBrace, side: str = "left") -> StarSeries:
    """Iterated star products: left nests B*(B*(...)), right nests ((...)*B)*B."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    full = tuple(range(B.order))
    steps = [full]
    current = full
    while True:
        if side == "left":
            nxt = star_span(B, full, current)
        else:
            nxt = star_span(B, current, full)
        if nxt == current:
            break
        steps.append(nxt)
        current = nxt
        if current == (0,):
            break
    return StarSeries(tuple(steps), steps[-1] == (0,))


def _closure_legacy(seed, tables, maps=(), closed=frozenset({0})) -> set[int]:
    """Smallest set containing 0, closed and seed that is closed under every
    binary table (both argument orders) and every unary map.

    closed must already be closed under these operations, so only the elements
    outside it are queued.  No inverse step is needed: a finite set closed
    under a group product is a subgroup.
    """
    members = {0, *closed}
    queue = [x for x in set(seed) if x not in members]
    members.update(queue)
    while queue:
        x = queue.pop()
        new = {m[x] for m in maps}
        for t in tables:
            row = t[x]
            new.update(row[y] for y in members)
            new.update(t[y][x] for y in members)
        new -= members
        members |= new
        queue.extend(new)
    return members


def _lattice_legacy(tables) -> set[frozenset]:
    """Every subset closed under the tables, as the joins of atoms found from {0}.

    The atoms are the closures of single elements; each closed set is the join
    of the atoms it contains, so joining every found member with every atom it
    lacks finds them all.
    """
    def close(seed, closed):
        return frozenset(_closure_legacy(seed, tables, (), closed))

    bottom = frozenset({0})
    atoms = {close((x,), bottom) for x in range(1, len(tables[0]))}
    found = {bottom}
    frontier = [bottom]
    while frontier:
        s = frontier.pop()
        for atom in atoms:
            if not atom <= s:
                j = close(atom, s)
                if j not in found:
                    found.add(j)
                    frontier.append(j)
    return found



def _joins_coset_legacy(tables, member, xs):
    """Yield M v x = _closure((x,), tables, (), member) for the x of xs
    outside the member M, skipping an x that gives a join already yielded.

    M is a subgroup of tables[0], so an x in x' + M for an earlier x' has
    the join M v x', and an x in an earlier join J of prime index |J|/|M|
    has J as its join, as J covers M (Lagrange).  Two x that these rules do
    not relate may still yield the same join.
    """
    t, members = tables[0], member[0]
    skip = set(members)
    for x in xs:
        if x not in skip:
            join = _closure((x,), tables, (), member)
            skip.update(t[x][m] for m in members)
            if _is_prime(len(join[0]) // len(members)):
                skip |= join[0]
            yield join


def _lattice_coset_legacy(tables) -> list[tuple[frozenset, tuple]]:
    """Every subset closed under the tables, as its _closure pair, found from
    {0} by joining each member, from its generator lists, with each x of
    1..n-1 that _joins does not skip.  Nothing is lost: a member S is M v x
    for a lower cover M and any x in S outside M, and a skipped x has the
    join of an x that is not skipped.
    """
    bottom = _closure((), tables)
    found = {bottom[0]: bottom}
    frontier = [bottom]
    while frontier:
        for join in _joins_coset_legacy(tables, frontier.pop(), range(1, len(tables[0]))):
            if join[0] not in found:
                found[join[0]] = join
                frontier.append(join)
    return list(found.values())

def generating_set_legacy(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy minimal generating set: smallest element outside the closure so far."""
    gens: list[int] = []
    closed = {0}
    while len(closed) < G.order:
        g = min(set(range(G.order)) - closed)
        gens.append(g)
        closed = _closure_legacy((g,), (G.table,), (), closed)
    return tuple(gens)


def generating_set_closure_legacy(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy minimal generating set: smallest element outside the closure so far."""
    return _closure(range(G.order), (G.table,))[1][0]


def _generators_legacy(B: SkewBrace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generating sets of (B,+) and of (B,o), from one closure of B."""
    return _closure(range(B.order), (B.add.table, B.mul.table))[1]


def _lambda_table_legacy(add: FiniteGroup, mul: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """lam[a][b] = -a + a o b."""
    at, neg = add.table, add.inverse
    return tuple(tuple(map(at[neg[a]].__getitem__, row)) for a, row in enumerate(mul.table))


def is_dedekind_legacy(B: SkewBrace, bound: int | None = None) -> tuple[bool, SubStructure | None]:
    """Whether every sub-skew brace is an ideal; the first non-ideal is the witness."""
    for sub in sub_skew_braces_legacy(B, bound=bound):
        if not sub.is_ideal:
            return False, sub
    return True, None


def _abelianizer_legacy(C: SkewBrace) -> tuple[int, ...]:
    """Smallest ideal of C with abelian quotient: generated by all star values
    and all additive commutators, so the quotient is a trivial brace on an
    abelian group."""
    gens = {C.star(a, b) for a in range(C.order) for b in range(C.order)}
    gens |= {C.add.commutator(a, b) for a in range(C.order) for b in range(C.order)}
    return ideal_generated(C, gens).elements


def derived_series_legacy(B: SkewBrace) -> DerivedSeries:
    """Iterate the abelianizer on induced sub-braces; soluble iff it reaches {0}."""
    steps = [tuple(range(B.order))]
    while True:
        current = steps[-1]
        if current == (0,):
            break
        C, carrier = induced_sub_brace(B, current)
        local = _abelianizer_legacy(C)
        nxt = tuple(sorted(carrier[i] for i in local))
        if nxt == current:
            break
        steps.append(nxt)
    return DerivedSeries(tuple(steps), steps[-1] == (0,))


def _descend_legacy(B: SkewBrace, step) -> tuple[tuple[int, ...], ...]:
    """B = S_0 > S_1 > ..., S_(k+1) = step(S_k) while it shrinks, until {0}."""
    steps = [tuple(range(B.order))]
    while steps[-1] != (0,):
        nxt = step(steps[-1])
        if nxt == steps[-1]:
            break
        steps.append(nxt)
    return tuple(steps)


def derived_series_pairwise_legacy(B: SkewBrace) -> DerivedSeries:
    """B = D_0 > D_1 > ... with D_(k+1) the additive subgroup generated by
    the star products and the additive commutators of all pairs of D_k."""
    def step(D):
        gens = {B.star(a, b) for a in D for b in D}
        return subgroup_closure(B.add, gens | {B.add.commutator(a, b) for a in D for b in D})

    steps = _descend_legacy(B, step)
    return DerivedSeries(steps, steps[-1] == (0,))


def is_supersoluble_legacy(B: SkewBrace) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Finite supersolubility: an ascending ideal chain with prime-order factors.

    Returns the certificate chain (element sets from {0} up to B) when it
    exists.  Recursion on quotients is memoized on exact table pairs; ties
    between candidate prime ideals are broken by the smallest element set.
    """
    memo: dict = {}

    def rec(C: SkewBrace):
        key = (C.add.table, C.mul.table)
        if key in memo:
            return memo[key]
        if C.order == 1:
            res = (True, ((0,),))
        else:
            res = (False, None)
            for ideal in _prime_order_ideals_legacy(C):
                Q, proj = quotient_brace(C, ideal)
                ok, sub = rec(Q)
                if ok:
                    chain = [(0,)]
                    for qstep in sub:
                        qset = set(qstep)
                        chain.append(
                            tuple(sorted(e for e in range(C.order) if proj[e] in qset))
                        )
                    res = (True, tuple(chain))
                    break
        memo[key] = res
        return res

    return rec(B)


def _search_lambda_legacy(G: FiniteGroup, auts, element_order) -> list[tuple[int, ...]]:
    """All lambda assignments on G as tuples of indices into auts = Aut(G)."""
    n = G.order
    index = {p: i for i, p in enumerate(auts)}
    k = len(auts)
    comp = [[index[tuple(p[q[i]] for i in range(n))] for q in auts] for p in auts]
    table = G.table
    order = list(element_order) if element_order is not None else list(range(n))

    lam: list[int | None] = [None] * n
    lam[0] = index[tuple(range(n))]
    assigned = [0]
    results: list[tuple[int, ...]] = []

    def close(start: int) -> bool:
        qi = start
        while qi < len(assigned):
            c_new = assigned[qi]
            for d in list(assigned):
                for a, b in ((c_new, d), (d, c_new)):
                    la = lam[a]
                    c = table[a][auts[la][b]]
                    v = comp[la][lam[b]]
                    if lam[c] is None:
                        lam[c] = v
                        assigned.append(c)
                    elif lam[c] != v:
                        return False
            qi += 1
        return True

    def undo(mark: int) -> None:
        while len(assigned) > mark:
            lam[assigned.pop()] = None

    def rec() -> None:
        free = next((e for e in order if lam[e] is None), None)
        if free is None:
            results.append(tuple(lam))  # type: ignore[arg-type]
            return
        for v in range(k):
            mark = len(assigned)
            lam[free] = v
            assigned.append(free)
            if close(mark):
                rec()
            undo(mark)

    mark0 = len(assigned)
    if close(0):
        rec()
    else:
        undo(mark0)
    return sorted(results)


def _search_lambda_two_pass_legacy(G: FiniteGroup, auts, comp, element_order) -> list[tuple[int, ...]]:
    """All lambda assignments on G with values in auts, a subgroup of Aut(G)
    listed identity first, as tuples of indices into auts; comp[i][j] is the
    index of auts[i] o auts[j].

    The search branches on the first free element of element_order and closes
    the assigned set J under x -> x o g for the branched elements g only.  That
    is exact: every member of J is a left-nested o-word in the branched set S,
    as 0 o g = g when lambda_0 = id.  If lambda_{x o g} = lambda_x lambda_g for
    all x in J and g in S, then since each lambda_x is additive, every
    lambda_{x o y} = lambda_x lambda_y gives (x o y) o g = x o (y o g); so by
    induction on the word y the functional equation holds on all of J x J and
    J is o-closed.  Closing under all pairs of J therefore meets a conflict
    exactly when this closure does, and otherwise reaches the same J with the
    same values.
    """
    table = G.table
    order = list(element_order) if element_order is not None else range(G.order)

    lam: list[int | None] = [0] + [None] * (G.order - 1)
    assigned = [0]
    branched: list[int] = []
    results: list[tuple[int, ...]] = []

    def close(mark: int) -> bool:
        # Members before mark already met every older branched element; the
        # loop also visits the members it appends.
        for qi, x in enumerate(assigned):
            lx = lam[x]
            for g in branched if qi >= mark else branched[-1:]:
                c = table[x][auts[lx][g]]
                v = comp[lx][lam[g]]
                if lam[c] is None:
                    lam[c] = v
                    assigned.append(c)
                elif lam[c] != v:
                    return False
        return True

    def rec() -> None:
        free = next((e for e in order if lam[e] is None), None)
        if free is None:
            results.append(tuple(lam))  # type: ignore[arg-type]
            return
        branched.append(free)
        for v in range(len(auts)):
            mark = len(assigned)
            lam[free] = v
            assigned.append(free)
            if close(mark):
                rec()
            while len(assigned) > mark:
                lam[assigned.pop()] = None
        branched.pop()

    rec()
    return sorted(results)


def orbit_representatives_legacy(G: FiniteGroup, braces) -> list[SkewBrace]:
    """The first member of each Aut(G)-orbit in braces, which lie on the additive
    table G: one per isomorphism class, since an isomorphism of braces on G is an
    automorphism of (G, +).  On the sorted output of enumerate_on_additive, which
    holds whole orbits, the first member of each orbit is its least."""
    auts = [a.perm for a in automorphisms(G)]
    seen: set = set()
    reps = []
    for brace in braces:
        if brace.mul.table not in seen:
            seen.update(_relabeled_mul(brace.mul.table, p) for p in auts)
            reps.append(brace)
    return reps


def element_orders_legacy(t) -> tuple[int, ...]:
    """The element orders of the group table t, by the power loop of
    `FiniteGroup._fill`."""
    n = len(t)
    orders = [1] * n
    for i in range(1, n):
        cur, k = i, 1
        while cur != 0 and k <= n:     # bounded: a non-group table cannot hang
            cur = t[cur][i]
            k += 1
        orders[i] = k
    return tuple(orders)


def _aut_tables_legacy(G: FiniteGroup) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Aut(G) as sorted permutations, so the identity has index 0, and comp,
    where comp[p][q] is the index of p o q (x -> p[q[x]]).  An automorphism is
    fixed by its images of G.generating_set(), so comp is looked up by them."""
    auts = [a.perm for a in automorphisms(G)]
    gens = G.generating_set()
    index = {tuple(p[g] for g in gens): i for i, p in enumerate(auts)}
    return auts, [[index[tuple(p[q[g]] for g in gens)] for q in auts] for p in auts]


def orbit_representatives_tuples_legacy(G: FiniteGroup, braces) -> list[SkewBrace]:
    """The first member of each Aut(G)-orbit in braces, which lie on the additive
    table G: one per isomorphism class, since an isomorphism of braces on G is an
    automorphism of (G, +).  On the sorted output of enumerate_on_additive, which
    holds whole orbits, the first member of each orbit is its least.

    Each brace is taken as its tuple of lambda indices into Aut(G).  An
    automorphism s sends lambda to the tuple whose entry at s(a) is
    s lambda_a s^-1 (Guarnieri-Vendramin 2017, Sec. 4), which costs n lookups
    in the composition table; tuples and circle tables on G correspond one to
    one, so the tuples mark the same orbits."""
    auts, comp = _aut_tables_legacy(G)
    index = {p: i for i, p in enumerate(auts)}
    inv = [row.index(0) for row in comp]
    seen: set = set()
    reps = []
    for brace in braces:
        lam = tuple(index[row] for row in brace.lam)
        if lam not in seen:
            # With t = s^-1, the image's entry at b is s lambda_{t(b)} t.
            seen.update(tuple(comp[comp[s][lam[auts[t][b]]]][t] for b in range(G.order))
                        for s, t in enumerate(inv))
            reps.append(brace)
    return reps


def enumerate_on_additive_legacy(
    G: FiniteGroup,
    element_order=None,
    bound: int | None = None,
) -> list[SkewBrace]:
    """All skew braces whose additive group is exactly G (no iso-dedup).

    element_order optionally fixes the branching order of the backtracker;
    the result set is independent of it.
    """
    _check_bound(G.order, ENUMERATION_MAX_ORDER if bound is None else bound,
                 "enumerate_on_additive")
    aut = _AutGroup(G)
    everything = range(len(aut.array))
    # Row by row, so that no k x k x r array is held at once.
    comp = [aut.products([p], everything)[0].tolist() for p in everything]
    braces = [_brace(G, aut, lam)
              for lam in _search_lambda(G, aut.array.tolist(), comp, element_order)]
    braces.sort(key=lambda b: b.mul.table)
    return braces


def brace_classes_legacy(G: FiniteGroup, bound: int | None = None) -> tuple[list[SkewBrace], int]:
    """The classes on G and the labelled count as `enumerate_all` and
    `enumerate --additive --up-to-iso` took them: every labelled brace, then
    the first member of each orbit in the sorted list."""
    found = enumerate_on_additive_legacy(G, bound=bound)
    return orbit_representatives_tuples_legacy(G, found), len(found)


def _relabeled_mul(mul, perm) -> tuple[tuple[int, ...], ...]:
    n = len(mul)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        row = mul[a]
        for b in range(n):
            out[pa][perm[b]] = perm[row[b]]
    return tuple(tuple(r) for r in out)


def brute_force_brace_count(add_table, all_mul_tables) -> int:
    """Independent oracle: count multiplication tables forming a skew brace
    with the given additive table, by testing distributivity directly."""
    n = len(add_table)
    neg = [add_table[i].index(0) for i in range(n)]
    count = 0
    for mul in all_mul_tables:
        ok = True
        for a in range(n):
            ra, na = mul[a], neg[a]
            for b in range(n):
                ab = add_table[ra[b]][na]
                for c in range(n):
                    if ra[add_table[b][c]] != add_table[ab][ra[c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def all_group_tables(order: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every Cayley table of the given order with identity 0, generated by
    relabeling the catalog representatives through all permutations fixing 0."""
    from itertools import permutations

    tables: set = set()
    for idx in range(catalog_size(order)):
        base = catalog_group(order, idx).table
        for rest in permutations(range(1, order)):
            perm = (0,) + rest
            tables.add(_relabeled_mul(base, perm))
    return sorted(tables)


def normalize_table_legacy(rows) -> tuple[tuple[int, ...], ...]:
    """Coerce to a square tuple-of-tuples with entries in 0..n-1."""
    table = tuple(tuple(map(int, row)) for row in rows)
    n = len(table)
    if n == 0:
        raise NotAGroupError("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroupError("table not square", witness=i)
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            raise NotAGroupError("entry out of range", witness=(i, x))
    return table


def finite_group_legacy(table) -> FiniteGroup:
    """`FiniteGroup(table)`: the table normalized, then checked on an array
    made from the tuple rows."""
    t = normalize_table_legacy(table)
    _check_group(t, np.array(t, dtype=np.intp))
    return FiniteGroup._trusted(t)


def build_brace_legacy(add_table, mul_table) -> SkewBrace:
    """`build_brace`, whose group and distributivity checks each made their
    own arrays of the normalized tables."""
    for rows in (add_table, mul_table):
        _check_bound(len(rows), TABLE_MAX_ORDER, "build_brace")
    at = normalize_table_legacy(add_table)
    mt = normalize_table_legacy(mul_table)
    e_add, e_mul = find_identity(at), find_identity(mt)
    if e_add is not None and e_mul is not None and (e_add != 0 or e_mul != 0):
        raise IdentityMismatchError(
            f"identities sit at indices {e_add} (add) and {e_mul} (mul), expected 0"
        )
    _check_group(at, np.array(at, dtype=np.intp))
    _check_group(mt, np.array(mt, dtype=np.intp))
    return SkewBrace(FiniteGroup._trusted(at), FiniteGroup._trusted(mt))


def two_power_brace_legacy(n: int) -> SkewBrace:
    N = 2**n
    add = [[(i + j) % N for j in range(N)] for i in range(N)]
    mul = [[(i + j) % N if i % 2 == 0 else (i - j) % N for j in range(N)] for i in range(N)]
    return build_brace(add, mul)


def odd_p_cyclic_brace_legacy(p: int, n: int) -> SkewBrace:
    N = p**n
    add = [[(i + j) % N for j in range(N)] for i in range(N)]
    mul = [[(i + j + p * i * j) % N for j in range(N)] for i in range(N)]
    return build_brace(add, mul)


def _check_perms_legacy(side: str, perms, n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for x, p in enumerate(perms):
        row = tuple(int(v) for v in p)
        if len(row) != n or sorted(row) != list(range(n)):
            raise DegenerateError(side, x)
        out.append(row)
    return tuple(out)


def from_brace_legacy(B: SkewBrace) -> SetSolution:
    n = B.order
    lam = B.lam
    mt = B.mul.table
    minv = B.mul.inverse
    rho = tuple(
        tuple(mt[mt[minv[lam[x][y]]][x]][y] for x in range(n))
        for y in range(n)
    )
    return SetSolution(n, lam, rho)


def predicates_legacy(sol: SetSolution) -> SolutionPredicates:
    n = sol.size
    involutive = all(
        sol.r(*sol.r(x, y)) == (x, y) for x in range(n) for y in range(n)
    )
    diagonal = all(sol.r(x, x) == (x, x) for x in range(n))
    return SolutionPredicates(involutive, diagonal)


def retract_legacy(sol: SetSolution) -> tuple[SetSolution, tuple[int, ...]]:
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


def _generator_maps_legacy(G: FiniteGroup, target: FiniteGroup, key, target_key):
    """Yield every isomorphism G -> target that sends each generator g of G to
    an x with target_key[x] == key[g], in the product order of the candidates.

    Each map is derived along one BFS over the generating set from the images
    of the generators.  A bijection with f(x*g) = f(x)*f(g) for every x and
    every generator g is a homomorphism, by induction on word length.
    """
    n = G.order
    tG, tT = G.table, target.table
    gens = G.generating_set()
    derivation: list[tuple[int, int, int]] = []
    seen = {0}
    queue = [0]
    for e in queue:
        for slot, g in enumerate(gens):
            e2 = tG[e][g]
            if e2 not in seen:
                seen.add(e2)
                derivation.append((e2, e, slot))
                queue.append(e2)
    candidates = [[x for x in range(n) if target_key[x] == key[g]] for g in gens]
    for images in product(*candidates):
        f = [0] * n
        for e, parent, slot in derivation:
            f[e] = tT[f[parent]][images[slot]]
        if len(set(f)) == n and all(
            f[tG[x][g]] == tT[f[x]][images[slot]]
            for slot, g in enumerate(gens)
            for x in range(n)
        ):
            yield tuple(f)


def _modular_group_table_legacy(p: int, n: int) -> list[list[int]]:
    # element j*y + i*x encoded as j*p^n + i; conjugation -y + x + y = (1+p^(n-1)) x
    N = p**n
    u = 1 + p ** (n - 1)
    upow = [pow(u, j, N) for j in range(p)]
    table = [[0] * (N * p) for _ in range(N * p)]
    for j1 in range(p):
        for i1 in range(N):
            row = table[j1 * N + i1]
            for j2 in range(p):
                for i2 in range(N):
                    row[j2 * N + i2] = ((j1 + j2) % p) * N + (upow[j2] * i1 + i2) % N
    return table


def odd_p_nonabelian_brace_legacy(p: int, n: int, bound: int | None = None) -> SkewBrace:
    if not _is_prime(p) or p == 2:
        raise BadParamsError("odd_p_nonabelian requires an odd prime p")
    if not isinstance(n, int) or n < 2:
        raise BadParamsError("odd_p_nonabelian requires an integer exponent n >= 2")
    _check_bound(p ** (n + 1), bound, "odd_p_nonabelian")
    N = p**n
    add = FiniteGroup(_modular_group_table_legacy(p, n))
    size = N * p
    x = 1
    neg_x = add.inverse[x]
    conj_by_x = tuple(add.op(add.op(neg_x, z), x) for z in range(size))
    lam_rows = [tuple(range(size))]
    for _ in range(1, p):
        prev = lam_rows[-1]
        lam_rows.append(tuple(conj_by_x[prev[z]] for z in range(size)))
    mul = [[add.op(a, lam_rows[a // N][b]) for b in range(size)] for a in range(size)]
    return SkewBrace(add, FiniteGroup(mul))


def make_parser_legacy() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Construct, verify, classify and analyze skew braces and"
        " their Yang-Baxter solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a group/brace/solution JSON file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="full structural report for a brace")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dedekind", help="test whether every sub-skew brace is an ideal")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("construct", help="build a brace from a named family")
    p.add_argument("--family", choices=FAMILY_TAGS, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--group", help="base group JSON (trivial/almost_trivial)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="enumerate braces of a given order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--additive", help="cyclic, elab, or a catalog index")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("iso", help="test two braces for isomorphism")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("ybe", help="Yang-Baxter solution commands")
    ysub = p.add_subparsers(dest="ybe_command", required=True)
    y = ysub.add_parser("from-brace", help="solution attached to a brace")
    y.add_argument("file")
    y.add_argument("--out")
    y.set_defaults(func=_cmd_ybe_from_brace)
    y = ysub.add_parser("check", help="validate a solution file")
    y.add_argument("file")
    y.set_defaults(func=_cmd_ybe_check)
    y = ysub.add_parser("retract", help="apply k retraction steps")
    y.add_argument("file")
    y.add_argument("--steps", type=int, default=1)
    y.add_argument("--out")
    y.set_defaults(func=_cmd_ybe_retract)
    y = ysub.add_parser("level", help="multipermutation level of a solution")
    y.add_argument("file")
    y.set_defaults(func=_cmd_ybe_level)

    p = sub.add_parser("rational", help="exact-rational brace checks")
    p.add_argument("--variant", choices=("a2a", "a2b", "c1", "c2"), required=True)
    p.add_argument("--forbidden", default="", help="comma-separated forbidden primes")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--x", help="distinguished element, e.g. 1 or 3/5")
    p.add_argument("--sample", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--witness-prime", type=int)
    p.set_defaults(func=_cmd_rational)

    return parser


def _tuple_rows_legacy(arr) -> tuple[tuple[int, ...], ...]:
    """A square array with entries in 0..n-1 as tuple rows whose entries are
    the n ints of one object array (arr.tolist() makes an int per entry, and
    Python shares only the ints up to 256)."""
    ints = np.array(range(len(arr)), dtype=object)
    return tuple(map(tuple, ints[arr].tolist()))


def _write_object_legacy(doc: dict, path: str) -> None:
    """Write doc as json.dump writes it, a line of text.  json.dumps runs the C
    encoder (json.dump runs the pure-Python one) on one row of each table,
    a tuple of rows, at a time, so the text of a whole table is never held."""
    with open(path, "w") as fh:
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            if isinstance(value, tuple):
                for i, row in enumerate(value):
                    fh.write((", " if i else "[") + json.dumps(row))
                fh.write("]")
            else:
                fh.write(json.dumps(value))
            sep = ", "
        fh.write("}\n")
