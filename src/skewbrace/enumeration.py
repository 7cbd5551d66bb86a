"""Exhaustive enumeration of skew braces of small order, and isomorphism testing.

Enumeration runs per additive group: backtrack over assignments of an
automorphism lambda_a to each element, propagating the functional equation
lambda_{a + lambda_a(b)} = lambda_a lambda_b from a growing assigned set by
right multiplication with the branched elements, and pruning on the first
conflict.  A complete assignment solves the functional equation, so its
circle table a o b = a + lambda_a(b) is a skew brace (Guarnieri-Vendramin
2017, Prop. 1.9) and is built without re-validation;
LambdaAssignment.to_brace, which takes lambda rows from callers, validates
them.  From the search through the dedup a brace is its tuple of indices into
Aut(G), and the isomorphism classes on G are the Aut(G)-orbits of these
tuples (ibid., Sec. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braces import SkewBrace, _kernel_socle_centre
from .groups import (
    FiniteGroup,
    _check_bound,
    _generator_maps,
    automorphisms,
    catalog_group,
    catalog_names,
    catalog_size,
    group_isomorphism,
)

ENUMERATION_MAX_ORDER = 15


@dataclass(frozen=True)
class LambdaAssignment:
    """A complete lambda map on a base group, one row per element."""

    group: FiniteGroup
    perms: tuple[tuple[int, ...], ...]

    def to_brace(self) -> SkewBrace:
        """The brace with a o b = a + lambda_a(b), validated: the circle table
        must be a group and skew distributive, which together are equivalent
        to the functional equation (Guarnieri-Vendramin 2017, Prop. 1.9)."""
        return SkewBrace(self.group, FiniteGroup(_circle_table(self.group, self.perms)))


def _circle_table(G: FiniteGroup, perms) -> list[list[int]]:
    """a o b = a + lambda_a(b) for the lambda rows perms."""
    t = G.table
    return [[t[a][x] for x in perms[a]] for a in range(G.order)]


def _aut_tables(G: FiniteGroup) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Aut(G) as sorted permutations, so the identity has index 0, and comp,
    where comp[p][q] is the index of p o q (x -> p[q[x]]).  An automorphism is
    fixed by its images of G.generating_set(), so comp is looked up by them."""
    auts = [a.perm for a in automorphisms(G)]
    gens = G.generating_set()
    index = {tuple(p[g] for g in gens): i for i, p in enumerate(auts)}
    return auts, [[index[tuple(p[q[g]] for g in gens)] for q in auts] for p in auts]


def _search_lambda(G: FiniteGroup, auts, comp, element_order) -> list[tuple[int, ...]]:
    """All lambda assignments on G as tuples of indices into auts = Aut(G), whose
    composition table is comp (see _aut_tables).

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


def enumerate_on_additive(
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
    auts, comp = _aut_tables(G)
    braces = []
    for lam_idx in _search_lambda(G, auts, comp, element_order):
        mul = _circle_table(G, [auts[i] for i in lam_idx])
        # The search yields only solutions of the functional equation.
        braces.append(SkewBrace._trusted(G, FiniteGroup._trusted(mul)))
    braces.sort(key=lambda b: b.mul.table)
    return braces


def _relabeled_mul(mul, perm) -> tuple[tuple[int, ...], ...]:
    n = len(mul)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        row = mul[a]
        for b in range(n):
            out[pa][perm[b]] = perm[row[b]]
    return tuple(tuple(r) for r in out)


def orbit_representatives(G: FiniteGroup, braces) -> list[SkewBrace]:
    """The first member of each Aut(G)-orbit in braces, which lie on the additive
    table G: one per isomorphism class, since an isomorphism of braces on G is an
    automorphism of (G, +).  On the sorted output of enumerate_on_additive, which
    holds whole orbits, the first member of each orbit is its least.

    Each brace is taken as its tuple of lambda indices into Aut(G).  An
    automorphism s sends lambda to the tuple whose entry at s(a) is
    s lambda_a s^-1 (Guarnieri-Vendramin 2017, Sec. 4), which costs n lookups
    in the composition table; tuples and circle tables on G correspond one to
    one, so the tuples mark the same orbits."""
    auts, comp = _aut_tables(G)
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


@dataclass(frozen=True)
class EnumerationResult:
    order: int
    classes: tuple[SkewBrace, ...]
    counts: dict
    labeled_counts: dict

    def total_classes(self) -> int:
        return len(self.classes)


def enumerate_all(order: int, bound: int | None = None) -> EnumerationResult:
    """Iso-class representatives of all skew braces of the given order; braces
    over different catalog groups have non-isomorphic additive groups."""
    _check_bound(order, ENUMERATION_MAX_ORDER if bound is None else bound, "enumerate_all")
    names = catalog_names(order)
    classes: list[SkewBrace] = []
    counts: dict[tuple[str, str], int] = {}
    labeled: dict[str, int] = {}
    catalog = [catalog_group(order, idx) for idx in range(catalog_size(order))]
    for idx, G in enumerate(catalog):
        found = enumerate_on_additive(G, bound=bound)
        labeled[names[idx]] = len(found)
        for rep in orbit_representatives(G, found):
            classes.append(rep)
            mul_name = _iso_type_name(rep.mul, catalog, names)
            key = (names[idx], mul_name)
            counts[key] = counts.get(key, 0) + 1
    classes.sort(key=lambda b: (b.add.table, b.mul.table))
    return EnumerationResult(order, tuple(classes), counts, labeled)


def _iso_type_name(G: FiniteGroup, catalog: list[FiniteGroup], names: list[str]) -> str:
    for H, name in zip(catalog, names):
        if group_isomorphism(H, G) is not None:
            return name
    return f"unknown-{G.order}"


@dataclass(frozen=True)
class IsoCertificate:
    isomorphic: bool
    bijection: tuple[int, ...] | None
    refuted_by: str | None


def _element_profile(B: SkewBrace, a: int) -> tuple:
    n = B.order
    perm = B.lam[a]
    seen = tuple(range(n))
    k, cur = 1, perm
    while cur != seen:
        cur = tuple(perm[cur[i]] for i in range(n))
        k += 1
    star_row = sorted(B.add.element_orders[B.star(a, b)] for b in range(n))
    star_col = sorted(B.add.element_orders[B.star(b, a)] for b in range(n))
    return (
        B.add.element_orders[a],
        B.mul.element_orders[a],
        k,
        B.add.element_orders[B.star(a, a)],
        tuple(star_row),
        tuple(star_col),
    )


def are_isomorphic(B1: SkewBrace, B2: SkewBrace) -> IsoCertificate:
    """Brace isomorphism test: invariant refutation, then a search over the
    additive isomorphisms that respect the element profiles on a generating
    set; the first that also preserves the circle table is returned."""
    if B1.order != B2.order:
        return IsoCertificate(False, None, "order")
    if group_isomorphism(B1.add, B2.add) is None:
        return IsoCertificate(False, None, "additive group type")
    if group_isomorphism(B1.mul, B2.mul) is None:
        return IsoCertificate(False, None, "multiplicative group type")
    n = B1.order
    prof1 = [_element_profile(B1, a) for a in range(n)]
    prof2 = [_element_profile(B2, a) for a in range(n)]
    if sorted(prof1) != sorted(prof2):
        return IsoCertificate(False, None, "lambda/star signature")
    # Equal profiles give equal kernel sizes: lambda_a has order 1 exactly on ker lambda.
    sets1, sets2 = _kernel_socle_centre(B1), _kernel_socle_centre(B2)
    for name, i in (("socle size", 1), ("centre size", 2)):
        if len(sets1[i]) != len(sets2[i]):
            return IsoCertificate(False, None, name)

    t1m, t2m = B1.mul.table, B2.mul.table
    for perm in _generator_maps(B1.add, B2.add, prof1, prof2):
        if all(perm[t1m[i][j]] == t2m[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return IsoCertificate(True, perm, None)
    return IsoCertificate(False, None, "no generator image assignment extends")


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
