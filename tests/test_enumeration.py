import itertools
import random

import numpy as np
import pytest

from legacy_oracles import (
    _aut_tables_legacy,
    _relabeled_mul,
    _search_lambda_legacy,
    _search_lambda_two_pass_legacy,
    all_group_tables,
    brace_classes_legacy,
    brute_force_brace_count,
    enumerate_on_additive_legacy,
    orbit_representatives_legacy,
    orbit_representatives_tuples_legacy,
    up_to_iso_legacy,
)
from skewbrace.braces import build_brace
from skewbrace import enumeration
from skewbrace.enumeration import (
    LambdaAssignment,
    are_isomorphic,
    enumerate_all,
    enumerate_on_additive,
    _AutGroup,
    _brace_classes,
    _search_lambda,
)
from skewbrace.errors import (
    BoundExceededError,
    BraceError,
    DegenerateError,
    NotAGroupError,
    OutOfCatalogError,
)
from skewbrace.families import trivial_brace
from skewbrace.groups import (
    FiniteGroup,
    automorphisms,
    catalog_group,
    catalog_names,
    catalog_size,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    group_isomorphism,
    _generator_maps,
    _prime_power,
)
from test_kernels import relabel
from test_relabelling import relabellings


class TestBraceClasses:
    """The class routine (a lambda-search with values in a Sylow subgroup of
    Aut(G), then whole Aut(G)-orbits) against the labelled search over all of
    Aut(G) with the orbit step it replaced."""

    def test_catalog_groups_match_legacy_path(self):
        for order in range(1, 16):
            for idx in range(catalog_size(order)):
                G = catalog_group(order, idx)
                assert _brace_classes(G) == brace_classes_legacy(G)

    def test_order_16_small_aut_groups_match_legacy_path(self, order_16_groups,
                                                          legacy_listing_16, order_16_classes):
        # Class and labelled counts of Guarnieri-Vendramin, Math. Comp. 86 (2017).
        expected = {"Z16": (8, 16), "Z8xZ2": (66, 160), "Z4xZ4": (83, 880),
                    "Z4xZ2^2": (161, 3152), "D16": (80, 304), "Q16": (80, 304),
                    "SD16": (144, 288), "M16": (66, 160), "Z4:Z4": (190, 640),
                    "Z2^2:Z4": (191, 656), "D4xZ2": (227, 1488), "Q8xZ2": (118, 2096),
                    "Pauli": (152, 800)}
        for name, (classes, labelled) in expected.items():
            G, found = order_16_groups[name], legacy_listing_16(name)
            reps, count = order_16_classes(name)
            # brace_classes_legacy(G, bound=16), on the shared legacy listing
            assert (reps, count) == (orbit_representatives_tuples_legacy(G, found), len(found))
            assert (len(reps), count) == (classes, labelled)

    def test_elementary_abelian_16(self, order_16_classes):
        # Z2^4 carries 39 classes and 62,896 labelled braces (Guarnieri-Vendramin,
        # Math. Comp. 86 (2017)); |Aut| = 20160, too many for the labelled search.
        reps, count = order_16_classes("Z2^4")
        assert (len(reps), count) == (39, 62896)
        assert [b.mul.table for b in reps] == sorted(b.mul.table for b in reps)
        assert all(build_brace(b.add.table, b.mul.table) == b for b in reps)

    def test_sylow_subgroups(self, order_16_groups):
        cases = [(elementary_abelian_group(2, 3), 2, 8), (elementary_abelian_group(2, 4), 2, 64),
                 (direct_product(cyclic_group(4), elementary_abelian_group(2, 2)), 2, 64),
                 (elementary_abelian_group(3, 2), 3, 3), (cyclic_group(9), 3, 3),
                 (order_16_groups["Pauli"], 2, 16)]
        for G, p, size in cases:
            aut = _AutGroup(G)
            P = aut.sylow(p)
            assert len(P) == size and P[0] == 0 and P == sorted(P)
            assert set(aut.products(P, P).ravel().tolist()) == set(P)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            _brace_classes(cyclic_group(16))


class TestEnumerateOnAdditive:
    def test_z4_has_exactly_two(self):
        found = enumerate_on_additive(cyclic_group(4))
        assert len(found) == 2
        muls = {b.mul.table for b in found}
        assert cyclic_group(4).table in muls  # the trivial brace

    def test_z2_single(self):
        assert len(enumerate_on_additive(cyclic_group(2))) == 1

    def test_klein_four_contains_cyclic_multiplication(self):
        found = enumerate_on_additive(elementary_abelian_group(2, 2))
        assert any(b.mul.is_cyclic() for b in found)

    def test_all_validate(self):
        for b in enumerate_on_additive(cyclic_group(6)):
            assert build_brace(b.add.table, b.mul.table) == b

    def test_element_order_invariance(self, order_16_groups, legacy_listing_16):
        # The union of the class orbits against the labelled search over all of
        # Aut(G) it replaced, with the default branching order and shuffled ones:
        # the same circle tables and lambda rows, in the same order.  The
        # branching order decides which elements the search closes over.
        rng = random.Random(20240808)
        cases = [(catalog_group(n, k), None, enumerate_on_additive_legacy(catalog_group(n, k)))
                 for n in range(1, 16) for k in range(catalog_size(n))]
        cases += [(order_16_groups[name], 16, legacy_listing_16(name))
                  for name in ("Z8xZ2", "M16", "SD16", "D16", "Q16")]
        for G, bound, legacy in cases:
            expected = [(b.mul.table, b.lam) for b in legacy]
            orders = [None]
            for _ in range(3):
                orders.append(list(range(G.order)))
                rng.shuffle(orders[-1])
            for order in orders:
                found = enumerate_on_additive(G, element_order=order, bound=bound)
                assert [(b.mul.table, b.lam) for b in found] == expected

    def test_search_and_orbits_match_legacy_at_order_16(self, order_16_groups, legacy_listing_16,
                                                        order_16_classes):
        for name in ("Z8xZ2", "M16", "SD16", "D16", "Q16"):
            G = order_16_groups[name]
            auts, comp = _aut_tables_legacy(G)
            aut = _AutGroup(G)
            everything = range(len(auts))
            assert np.array_equal(aut.array, auts)
            assert aut.products(everything, everything).tolist() == comp
            assert _search_lambda(G, auts, comp, None) == _search_lambda_legacy(G, auts, None)
            found = legacy_listing_16(name)
            reps, count = order_16_classes(name)
            assert reps == orbit_representatives_legacy(G, found)
            # The orbits of the representatives partition the labelled list: by
            # orbit-stabiliser their sizes |Aut(G)| / |Stab(rep)| add up to it.
            stabs = [sum(all(p[t[a][b]] == t[p[a]][p[b]] for a in range(16) for b in range(16))
                         for p in auts) for t in (rep.mul.table for rep in reps)]
            assert sum(len(auts) // s for s in stabs) == len(found) == count

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_on_additive(cyclic_group(16))


def test_automorphisms_come_out_in_lexicographic_order(order_16_groups):
    """The lemma of _generator_maps, which automorphisms and _AutGroup rely
    on instead of sorting: the maps come out sorted, and the big-endian
    codes of their generator images increase strictly.  On the catalog
    groups up to order 15, the 14 groups of order 16 and three seeded
    relabellings of each, which move the greedy generators."""
    rng = random.Random(55)
    groups = [catalog_group(order, idx) for order in range(1, 16)
              for idx in range(catalog_size(order))] + list(order_16_groups.values())
    groups += [relabel(G, perm) for G in groups for perm in relabellings(G.order, rng)]
    assert len(groups) == 4 * (28 + 14)
    for G in groups:
        eo = G.element_orders
        maps = list(_generator_maps(G, G, eo, eo))
        assert maps == sorted(maps)
        assert (np.diff(_AutGroup(G)._codes) > 0).all()


def _value_sets(aut: _AutGroup, rng: random.Random) -> list[list[int]]:
    """The value set that _orbits searches with, all of Aut(G) when it has at
    most 200 members, and the subgroups generated by one and by two random
    automorphisms: each sorted, so identity first."""
    k, n = aut.array.shape
    pk = _prime_power(n)
    sets = [aut.sylow(pk[0]) if pk else list(range(k))]
    if k <= 200:
        sets.append(list(range(k)))
    for r in (1, 2):
        gens = [rng.randrange(k) for _ in range(r)]
        inside, frontier = {0}, [0]
        while frontier:
            frontier = list(set(aut.products(frontier, gens).ravel().tolist()) - inside)
            inside.update(frontier)
        sets.append(sorted(inside))
    return sets


class TestSearchClose:
    """close walks only from the new branched element; the pass that also
    multiplied every older member by it is gone (see _search_lambda)."""

    def test_search_matches_two_pass_close(self, order_16_groups):
        rng = random.Random(40)
        groups = [catalog_group(order, idx) for order in range(1, 16)
                  for idx in range(catalog_size(order))]
        groups += [order_16_groups[name] for name in ("Z8xZ2", "M16", "SD16", "D16", "Q16")]
        for G in groups:
            aut = _AutGroup(G)
            orders = [None]
            for _ in range(3):
                orders.append(rng.sample(range(G.order), G.order))
            for values in _value_sets(aut, rng):
                auts = aut.array[values].tolist()
                comp = np.searchsorted(values, aut.products(values, values)).tolist()
                for order in orders:
                    assert (_search_lambda(G, auts, comp, order)
                            == _search_lambda_two_pass_legacy(G, auts, comp, order))

    def test_walk_from_the_new_element_reaches_the_rest_of_the_group(self):
        # On every subgroup K of S4 and every F outside it: right multiplication
        # by generators of K and by F, expanding no element of K, reaches from F
        # exactly L - K, where L = <K, F>.
        identity = (0, 1, 2, 3)
        elements = sorted(itertools.permutations(range(4)))

        def mul(x, y):
            return tuple(x[i] for i in y)

        def generated(gens):
            members, frontier = {identity}, [identity]
            while frontier:
                frontier = list({mul(x, g) for x in frontier for g in gens} - members)
                members.update(frontier)
            return frozenset(members)

        # Every subgroup of S4 is generated by two elements.
        subgroups = {generated((a, b)) for a in elements for b in elements}
        assert len(subgroups) == 30
        pairs = 0
        for K in subgroups:
            gens: list = []
            for x in sorted(K):
                if x not in generated(gens):
                    gens.append(x)
            for F in set(elements) - K:
                steps = gens + [F]
                reached, frontier = {F}, [F]
                while frontier:
                    frontier = list({mul(y, g) for y in frontier for g in steps} - reached - K)
                    reached.update(frontier)
                assert reached == generated(steps) - K
                pairs += 1
        assert pairs == 577


class TestLambdaAssignment:
    def test_invalid_assignment_rejected(self):
        # Every assignment of rows from Aut(Z4) = {id, -1}: to_brace builds a
        # brace exactly when lambda_0 = id and the functional equation
        # lambda_{a + lambda_a(b)} = lambda_a lambda_b holds, and rejects the
        # rest because the circle table is not a group.
        g = cyclic_group(4)
        t = g.table
        neg = tuple((-i) % 4 for i in range(4))
        ident = tuple(range(4))
        valid = 0
        for perms in itertools.product((ident, neg), repeat=4):
            solves = perms[0] == ident and all(
                perms[t[a][perms[a][b]]] == tuple(perms[a][perms[b][i]] for i in range(4))
                for a in range(4)
                for b in range(4)
            )
            if solves:
                valid += 1
                LambdaAssignment(g, perms).to_brace()
            else:
                with pytest.raises(NotAGroupError):
                    LambdaAssignment(g, perms).to_brace()
        assert valid == 2  # the trivial brace and the sign brace

    def test_invalid_assignment_to_brace_carries_witness(self):
        # Neither assignment solves the functional equation (the first fails at
        # (a, b) = (1, 1), the second has lambda_0 != id); to_brace rejects
        # each with a real witness.
        g = cyclic_group(4)
        neg = tuple((-i) % 4 for i in range(4))
        ident = tuple(range(4))
        # lambda_2 = -1: column 1 of the circle table is (1, 2, 1, 0), so the
        # table, whose rows are permutations, is not associative:
        # (1 o 1) o 1 = 2 o 1 = 1 but 1 o (1 o 1) = 1 o 2 = 3
        with pytest.raises(BraceError) as exc:
            LambdaAssignment(g, (ident, ident, neg, ident)).to_brace()
        assert exc.value.witness == (1, 1, 1)
        # lambda_0 = -1: 0 o 1 = 3, so 0 is not the identity at 1
        with pytest.raises(BraceError) as exc:
            LambdaAssignment(g, (neg, ident, ident, ident)).to_brace()
        assert exc.value.witness == 1

    def test_rows_are_counted_and_checked_as_permutations(self, b8):
        # -1 for 7 in every row, too few or too many rows, and a constant row
        minus = [tuple(x - 8 if x == 7 else x for x in row) for row in b8.lam]
        constant = [*b8.lam[:3], (0,) * 8, *b8.lam[4:]]
        for rows, x in ((minus, 0), (b8.lam[:5], 5), (b8.lam + b8.lam[:1], 8), (constant, 3)):
            with pytest.raises(DegenerateError) as exc:
                LambdaAssignment(b8.add, rows).to_brace()
            assert (exc.value.side, exc.value.x) == ("lambda", x)
        assert LambdaAssignment(b8.add, b8.lam).to_brace() == b8

    def test_parity_assignment_builds_sign_brace(self, b4):
        g = cyclic_group(4)
        neg = tuple((-i) % 4 for i in range(4))
        ident = tuple(range(4))
        assert LambdaAssignment(g, (ident, neg, ident, neg)).to_brace() == b4


class TestEnumerateAll:
    def test_small_class_counts(self, corpus):
        assert len(corpus(1)) == 1
        assert len(corpus(2)) == 1
        assert len(corpus(3)) == 1
        assert len(corpus(4)) == 4
        assert len(corpus(5)) == 1
        assert len(corpus(6)) == 6

    def test_counts_keyed_by_group_types(self):
        result = enumerate_all(4)
        assert result.counts[("Z4", "Z4")] == 1
        assert result.counts[("Z4", "Z2xZ2")] == 1
        assert result.counts[("Z2xZ2", "Z2xZ2")] == 1
        assert result.counts[("Z2xZ2", "Z4")] == 1

    def test_circle_groups_named_by_sorted_element_orders(self):
        # enumerate_all looks each circle group up by its sorted element
        # orders, which tell the catalog groups of each order 1..15 apart.
        for order in range(1, 16):
            catalog = [catalog_group(order, idx) for idx in range(catalog_size(order))]
            assert len({tuple(sorted(G.element_orders)) for G in catalog}) == len(catalog)
        for order in (8, 12):
            catalog = [catalog_group(order, idx) for idx in range(catalog_size(order))]
            names, result = catalog_names(order), enumerate_all(order)
            counts: dict = {}
            for B in result.classes:
                add, mul = (next(name for H, name in zip(catalog, names)
                                 if group_isomorphism(H, G) is not None) for G in (B.add, B.mul))
                counts[add, mul] = counts.get((add, mul), 0) + 1
            assert counts == result.counts

    def test_representatives_pairwise_non_isomorphic(self, corpus):
        reps = corpus(6)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not are_isomorphic(reps[i], reps[j]).isomorphic

    @pytest.mark.parametrize("order", (16, 21, 22))
    def test_orders_beyond_the_catalog_are_refused(self, monkeypatch, order):
        # the family fallback lists only some groups of these orders (three of
        # the fourteen of order 16, none of order 21), so a census there is partial
        def build(*args):
            raise AssertionError("a group was built")

        monkeypatch.setattr(enumeration, "catalog_group", build)
        with pytest.raises(OutOfCatalogError, match=rf"^enumerate_all: order {order} is beyond"
                                                    r" the catalog of all groups \(orders up to 15\)"):
            enumerate_all(order, bound=order)
        with pytest.raises(BoundExceededError, match=rf"^enumerate_all: order {order} exceeds bound 15$"):
            enumerate_all(order)

    def test_every_found_brace_matches_a_representative(self):
        result = enumerate_all(4)
        for G in (cyclic_group(4), elementary_abelian_group(2, 2)):
            for b in enumerate_on_additive(G):
                assert any(are_isomorphic(b, rep).isomorphic for rep in result.classes)

    def test_orbit_representatives_match_pairwise_dedup(self):
        """On every catalog group of order <= 15 the orbit representatives are the
        classes and representatives that the pairwise are_isomorphic dedup picks,
        and each is the least member of its Aut(G)-orbit."""
        for order in range(1, 16):
            for idx in range(catalog_size(order)):
                G = catalog_group(order, idx)
                reps, _ = _brace_classes(G)
                assert reps == up_to_iso_legacy(enumerate_on_additive_legacy(G))
                auts = [a.perm for a in automorphisms(G)]
                for rep in reps:
                    assert rep.mul.table == min(_relabeled_mul(rep.mul.table, p) for p in auts)


class TestBruteForceOracle:
    def test_order_4_against_search(self):
        tables = all_group_tables(4)
        assert len(tables) == 4  # three labelings of Z4-type, one Klein
        brute = sum(brute_force_brace_count(t, tables) for t in tables)
        legacy = sum(len(enumerate_on_additive_legacy(FiniteGroup(t))) for t in tables)
        search = sum(len(enumerate_on_additive(FiniteGroup(t))) for t in tables)
        assert brute == legacy == search == 10

    def test_labeled_counts_scale_with_automorphisms(self):
        # |found on a relabeled table| is independent of the labeling
        base = cyclic_group(4).table
        relabeled = _relabeled_mul(base, (0, 3, 2, 1))
        assert len(enumerate_on_additive_legacy(FiniteGroup(relabeled))) == 2
        assert len(enumerate_on_additive(FiniteGroup(relabeled))) == 2


class TestAreIsomorphic:
    def test_refutes_trivial_vs_sign(self, b4):
        cert = are_isomorphic(trivial_brace(cyclic_group(4)), b4)
        assert not cert.isomorphic and cert.refuted_by is not None

    def test_relabeled_copy_found(self, b9):
        rng = random.Random(7)
        perm = [0] + rng.sample(range(1, 9), 8)
        copy = build_brace(
            _relabeled_mul(b9.add.table, perm), _relabeled_mul(b9.mul.table, perm)
        )
        cert = are_isomorphic(b9, copy)
        assert cert.isomorphic
        f = cert.bijection
        for a in range(9):
            for b in range(9):
                assert f[b9.plus(a, b)] == copy.plus(f[a], f[b])
                assert f[b9.circ(a, b)] == copy.circ(f[a], f[b])

    def test_identical_braces(self, b8):
        cert = are_isomorphic(b8, b8)
        assert cert.isomorphic

    def test_different_orders(self, b4, b8):
        assert are_isomorphic(b4, b8).refuted_by == "order"
