import random
import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_oracles import element_orders_legacy, first_associativity_failure_brute
from skewbrace.errors import (
    BoundExceededError,
    NotAGroupError,
    NotAnActionError,
    NotASubgroupError,
    NotNormalError,
    OutOfCatalogError,
)
from skewbrace.families import odd_p_cyclic_brace, odd_p_nonabelian_brace, two_power_brace
from skewbrace.groups import (
    Automorphism,
    FiniteGroup,
    _greedy_generators,
    alternating_group_4,
    automorphisms,
    build_group,
    catalog_group,
    catalog_names,
    catalog_size,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_isomorphism,
    is_automorphism,
    is_normal,
    is_subgroup,
    quaternion_group,
    quotient_group,
    semidirect_product,
    subgroup_closure,
    subgroup_lattice,
)

# a Latin square with identity 0 that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def brute_force_automorphisms(G):
    """Oracle: all bijections fixing 0 that preserve the table."""
    out = []
    for rest in permutations(range(1, G.order)):
        p = (0,) + rest
        if all(
            p[G.table[i][j]] == G.table[p[i]][p[j]]
            for i in range(G.order)
            for j in range(G.order)
        ):
            out.append(p)
    return out


def brute_force_group_iso(G, H):
    if G.order != H.order:
        return False
    for rest in permutations(range(1, G.order)):
        p = (0,) + rest
        if all(
            p[G.table[i][j]] == H.table[p[i]][p[j]]
            for i in range(G.order)
            for j in range(G.order)
        ):
            return True
    return False


class TestBuildGroup:
    def test_z2(self):
        g = build_group([[0, 1], [1, 0]])
        assert g.order == 2 and g.inverse == (0, 1)

    def test_repeated_row_rejected(self):
        # the duplicated row breaks column bijectivity, surfaced through the
        # identity axiom (t[1][0] != 1)
        with pytest.raises(NotAGroupError) as exc:
            build_group([[0, 1], [0, 1]])
        assert "identity" in str(exc.value)

    def test_bad_column_rejected(self):
        # identity 0 and permutation rows, but 1 twice in column 1: such a
        # table is a group exactly when it is associative, so it is rejected
        # by its first failing triple
        t = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotAGroupError) as exc:
            build_group(t)
        assert exc.value.reason == "associativity fails"
        assert exc.value.witness == (1, 1, 1)
        assert t[t[1][1]][1] != t[1][t[1][1]]

    def test_wrong_identity_rejected(self):
        with pytest.raises(NotAGroupError) as exc:
            build_group([[1, 0], [0, 1]])
        assert "identity" in str(exc.value)

    def test_nonassociative_loop_rejected(self):
        with pytest.raises(NotAGroupError) as exc:
            build_group(NONASSOC_LOOP)
        assert exc.value.reason == "associativity fails"
        a, b, c = exc.value.witness
        t = NONASSOC_LOOP
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_table_whose_walk_needs_too_many_generators_is_rejected(self):
        # Identity 0 and permutation rows, but the greedy walk from 0 needs
        # more than 5.bit_length() = 3 generators, which no group of order 5
        # does, so no Light's test runs; the full scan names the triple.
        t = [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (2, 0, 1, 3, 4), (3, 1, 0, 2, 4), (4, 3, 1, 0, 2)]
        assert _greedy_generators(tuple(t)) is None
        with pytest.raises(NotAGroupError) as exc:
            build_group(t)
        assert exc.value.reason == "associativity fails"
        assert exc.value.witness == (1, 2, 1) == first_associativity_failure_brute(t)

    def test_ragged_rejected(self):
        with pytest.raises(NotAGroupError):
            build_group([[0, 1], [1]])

    def test_s3_catalog_table_has_six_automorphisms(self):
        s3 = catalog_group(6, 1)
        oracle = brute_force_automorphisms(s3)
        assert len(oracle) == 6
        assert sorted(a.perm for a in automorphisms(s3)) == sorted(oracle)

    def test_derived_data(self):
        z6 = cyclic_group(6)
        assert z6.element_orders == (1, 6, 3, 2, 3, 6)
        assert z6.is_cyclic() and z6.is_abelian()

    def test_power_is_k_mod_the_order_products(self):
        # a^k is k products of a, or -k of its inverse, for every k in
        # -2n..2n; 10^30 is checked by squaring, and takes at most o - 1
        # products, where a loop of 10^30 products would never end.
        def repeated(G, a, k):
            b, out = (a if k >= 0 else G.inverse[a]), 0
            for _ in range(abs(k)):
                out = G.table[out][b]
            return out

        def by_squaring(G, a, k):
            out = 0
            for bit in bin(k)[2:]:
                out = G.table[out][out]
                if bit == "1":
                    out = G.table[out][a]
            return out

        for n in range(1, 16):
            for i in range(catalog_size(n)):
                G = catalog_group(n, i)
                for a in range(n):
                    assert [G.power(a, k) for k in range(-2 * n, 2 * n + 1)] == [
                        repeated(G, a, k) for k in range(-2 * n, 2 * n + 1)]
                    assert G.power(a, -1) == G.inverse[a]
                    assert G.power(a, 10**30) == by_squaring(G, a, 10**30)

    def test_element_orders_match_power_loop(self):
        # The constructor walks each cyclic subgroup once; the legacy loop
        # raises every element to successive powers.
        orders = [*range(1, 17), 27, 32, 64, 81, 125, 128, 243, 256]
        groups = [catalog_group(n, k) for n in orders for k in range(catalog_size(n))]
        braces = [two_power_brace(n) for n in range(2, 9)]
        braces += [odd_p_cyclic_brace(3, n) for n in range(1, 6)]
        braces += [odd_p_nonabelian_brace(3, n) for n in (2, 3)]
        groups += [G for B in braces for G in (B.add, B.mul)]
        assert len(groups) == 79
        for G in groups:
            assert G.element_orders == element_orders_legacy(G.table)


def test_elementary_abelian_group_refuses_a_prime_above_the_table_bound():
    # 1031 is prime: the bound on |p| refuses it before p^k is computed
    with pytest.raises(BoundExceededError) as exc:
        elementary_abelian_group(1031, 1)
    assert str(exc.value) == "elementary_abelian_group: |p| above 1024 gives an order above bound 1024"


class TestCatalog:
    def test_order_4(self):
        assert catalog_group(4, 0).is_cyclic()
        g = catalog_group(4, 1)
        assert not g.is_cyclic() and g.is_abelian()

    def test_order_6_nonabelian(self):
        assert not catalog_group(6, 1).is_abelian()

    def test_order_8_classes_pairwise_non_isomorphic(self):
        groups = [catalog_group(8, k) for k in range(catalog_size(8))]
        assert len(groups) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                assert not brute_force_group_iso(groups[i], groups[j])

    def test_every_catalog_group_validates(self):
        for order in range(1, 16):
            for k in range(catalog_size(order)):
                g = catalog_group(order, k)
                assert build_group(g.table).order == order

    def test_out_of_catalog(self):
        with pytest.raises(OutOfCatalogError):
            catalog_group(6, 2)
        with pytest.raises(OutOfCatalogError):
            catalog_group(21, 1)
        with pytest.raises(OutOfCatalogError):
            catalog_group(0, 0)

    def test_orders_above_the_table_bound_are_refused_before_factoring(self):
        assert catalog_size(1024) == 3
        for order in (1025, 10**23 - 1):
            for query in (catalog_size, catalog_names, lambda n: catalog_group(n, 0)):
                with pytest.raises(BoundExceededError, match=f"^catalog: order {order} exceeds"):
                    query(order)

    def test_larger_orders_via_families(self):
        assert catalog_group(16, 0).is_cyclic()
        assert "D8" in catalog_names(16)
        assert catalog_group(27, 0).order == 27

    def test_cyclic_group_first_beyond_the_catalog(self):
        # Every order above the catalog lists Z_n at index 0, also where
        # n is not a prime power: Z22 before D11, and Z21 alone.
        assert catalog_names(16) == ["Z16", "Z2^4", "D8"]
        assert catalog_names(21) == ["Z21"]
        assert catalog_names(22) == ["Z22", "D11"]
        assert catalog_names(27) == ["Z27", "Z3^3"]
        for n in range(16, 40):
            G = catalog_group(n, 0)
            assert G.order == n and G.is_cyclic()
            assert catalog_names(n)[0] == f"Z{n}"


class TestSubgroups:
    def test_closure_examples(self):
        z8 = cyclic_group(8)
        assert subgroup_closure(z8, [2]) == (0, 2, 4, 6)
        assert subgroup_closure(z8, []) == (0,)
        s3 = catalog_group(6, 1)
        involution = next(x for x in range(6) if s3.element_orders[x] == 2)
        assert len(subgroup_closure(s3, [involution])) == 2

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_closure_idempotent_and_monotone(self, a, b):
        z8 = cyclic_group(8)
        small = subgroup_closure(z8, [a])
        big = subgroup_closure(z8, [a, b])
        assert set(small) <= set(big)
        assert subgroup_closure(z8, small) == small

    def test_lattice_of_z8(self):
        assert subgroup_lattice(cyclic_group(8)) == [
            (0,),
            (0, 4),
            (0, 2, 4, 6),
            (0, 1, 2, 3, 4, 5, 6, 7),
        ]

    def test_lattice_entries_are_subgroups(self):
        g = catalog_group(8, 3)
        for s in subgroup_lattice(g):
            assert is_subgroup(g, s)


class TestQuotients:
    def test_z8_mod_2z(self):
        q, proj = quotient_group(cyclic_group(8), [0, 4])
        assert q.order == 4 and q.is_cyclic()
        assert proj[0] == 0

    def test_projection_is_surjective_homomorphism(self):
        g = dihedral_group(4)
        centre = [x for x in range(8) if all(g.op(x, y) == g.op(y, x) for y in range(8))]
        q, proj = quotient_group(g, centre)
        assert set(proj) == set(range(q.order))
        for a in range(8):
            for b in range(8):
                assert proj[g.op(a, b)] == q.op(proj[a], proj[b])
        kernel = [x for x in range(8) if proj[x] == 0]
        assert sorted(kernel) == sorted(centre)

    def test_not_normal(self):
        s3 = catalog_group(6, 1)
        involution = next(x for x in range(6) if s3.element_orders[x] == 2)
        with pytest.raises(NotNormalError) as exc:
            quotient_group(s3, subgroup_closure(s3, [involution]))
        g, x = exc.value.witness
        assert s3.conjugate(g, x) not in subgroup_closure(s3, [involution])

    def test_non_subgroup_witness_escapes(self):
        g = cyclic_group(4)
        with pytest.raises(NotASubgroupError) as exc:
            quotient_group(g, [0, 1])
        a, b = exc.value.witness
        assert {a, b} <= {0, 1} and g.op(a, b) not in {0, 1}
        with pytest.raises(NotASubgroupError) as exc:
            quotient_group(g, [2])
        assert exc.value.witness == 0

    def test_quotient_by_whole_group(self):
        g = catalog_group(6, 1)
        q, _ = quotient_group(g, range(6))
        assert q.order == 1


def test_is_normal_on_generators_names_the_witness_of_every_g():
    """is_normal conjugates by the generating set G keeps; on 43,686 subsets
    it names the witness that conjugating by every g names: every subset of
    each catalog group of order <= 10, and 3000 seeded random subsets of
    each catalog group of order 11..15 and of D8, Q8 x Z2 and D12."""
    def every_g(G, elems):
        s = set(elems)
        return next(((g, x) for g in range(G.order) for x in s if G.conjugate(g, x) not in s), None)

    rng = random.Random(2024)
    groups = [catalog_group(n, i) for n in range(1, 16) for i in range(catalog_size(n))]
    groups += [dihedral_group(8), direct_product(quaternion_group(), cyclic_group(2)),
               dihedral_group(12)]
    checked = 0
    for G in groups:
        n = G.order
        subsets = ([[x for x in range(n) if mask >> x & 1] for mask in range(1 << n)] if n <= 10
                   else [[x for x in range(n) if rng.random() < 0.5] for _ in range(3000)])
        for elems in subsets:
            assert is_normal(G, elems) == every_g(G, elems)
        checked += len(subsets)
    assert checked == 43_686


@pytest.mark.parametrize("bad", [5, -2])
@pytest.mark.parametrize("call", [is_subgroup, is_normal, quotient_group],
                         ids=["is_subgroup", "is_normal", "quotient_group"])
def test_elements_outside_the_group_raise_value_error(call, bad):
    # 5 is past the end of a table row, and -2 would index a row from its end.
    with pytest.raises(ValueError, match=f"element {bad} is outside 0..3"):
        call(cyclic_group(4), [0, bad])


@pytest.mark.parametrize("bad", [True, 1.5, np.float64(1.5), np.True_, "1"], ids=repr)
@pytest.mark.parametrize("call", [subgroup_closure, is_subgroup, is_normal, quotient_group],
                         ids=["subgroup_closure", "is_subgroup", "is_normal", "quotient_group"])
def test_elements_that_are_not_integers_raise_value_error(call, bad):
    # as a table entry would be: before, subgroup_closure(Z4, [True]) gave
    # (0, True, 2, 3) and 1.5 raised TypeError inside the closure
    with pytest.raises(ValueError, match=f"^element {re.escape(repr(bad))} is not an integer$"):
        call(cyclic_group(4), [0, bad])


def test_numpy_integer_elements_are_read_as_ints():
    G = cyclic_group(4)
    got = subgroup_closure(G, [np.int64(2)])
    assert got == (0, 2) and all(type(x) is int for x in got)
    assert is_subgroup(G, np.array([0, 2])) and is_normal(G, np.array([0, 2])) is None


class TestSemidirect:
    def test_trivial_action_is_direct_product(self):
        z3, z4 = cyclic_group(3), cyclic_group(4)
        ident = Automorphism(tuple(range(3)))
        assert semidirect_product(z3, z4, [ident] * 4) == direct_product(z3, z4)

    def test_z9_by_z3_multiplication_by_4(self):
        z9, z3 = cyclic_group(9), cyclic_group(3)
        acts = [
            Automorphism(tuple(pow(4, j, 9) * i % 9 for i in range(9)))
            for j in range(3)
        ]
        g = semidirect_product(z9, z3, acts)
        assert g.order == 27 and not g.is_abelian()

    def test_z3_by_z2_inversion_is_dihedral(self):
        z3 = cyclic_group(3)
        acts = [Automorphism((0, 1, 2)), Automorphism((0, 2, 1))]
        g = semidirect_product(z3, cyclic_group(2), acts)
        assert group_isomorphism(g, catalog_group(6, 1)) is not None

    def test_bad_action_rejected(self):
        z9, z3 = cyclic_group(9), cyclic_group(3)
        mult4 = Automorphism(tuple(4 * i % 9 for i in range(9)))
        ident = Automorphism(tuple(range(9)))
        with pytest.raises(NotAnActionError):
            semidirect_product(z9, z3, [ident, mult4, ident])

    def test_action_of_the_wrong_length_rejected(self):
        z3 = cyclic_group(3)
        with pytest.raises(NotAnActionError) as exc:
            semidirect_product(z3, cyclic_group(2), [(0, 1, 2)] * 3)
        assert exc.value.witness == ("length", 3)

    def test_action_by_a_non_automorphism_rejected(self):
        z3 = cyclic_group(3)
        with pytest.raises(NotAnActionError) as exc:
            semidirect_product(z3, cyclic_group(2), [(0, 1, 2), (0, 1, 1)])
        assert exc.value.witness == ("not an automorphism", 1)


class TestAutomorphisms:
    def test_aut_z2_is_trivial(self):
        assert len(automorphisms(cyclic_group(2))) == 1

    def test_aut_z8_matches_unit_multipliers(self):
        z8 = cyclic_group(8)
        oracle = sorted(
            tuple(u * i % 8 for i in range(8)) for u in (1, 3, 5, 7)
        )
        assert sorted(a.perm for a in automorphisms(z8)) == oracle

    def test_aut_klein_four(self):
        v4 = elementary_abelian_group(2, 2)
        assert len(automorphisms(v4)) == 6
        assert len(brute_force_automorphisms(v4)) == 6

    def test_known_sizes(self):
        assert len(automorphisms(quaternion_group())) == 24
        assert len(automorphisms(alternating_group_4())) == 24

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            automorphisms(cyclic_group(6), bound=4)

    def test_is_automorphism_matches_all_pairs(self):
        # every catalog group up to order 15: all permutations up to order 6,
        # else 200 seeded ones (half of them fixing 0) and every automorphism
        rng = random.Random(53)
        for n in range(1, 16):
            for k in range(catalog_size(n)):
                G = catalog_group(n, k)
                t, auts = G.table, [a.perm for a in automorphisms(G)]
                if n <= 6:
                    perms = list(permutations(range(n)))
                else:
                    perms = [tuple(rng.sample(range(n), n)) for _ in range(100)]
                    perms += [(0, *rng.sample(range(1, n), n - 1)) for _ in range(100)] + auts
                got = [is_automorphism(G, p) for p in perms]
                assert got == [all(p[t[i][j]] == t[p[i]][p[j]] for i in range(n) for j in range(n))
                               for p in perms]
                if n <= 6:
                    assert sum(got) == len(auts)
                assert not is_automorphism(G, range(n + 1))
                assert not is_automorphism(G, [*range(n - 1), n])


class TestGroupIsomorphism:
    def test_refutes_different_types(self):
        assert group_isomorphism(cyclic_group(4), elementary_abelian_group(2, 2)) is None

    def test_refutes_different_orders(self):
        assert group_isomorphism(cyclic_group(4), cyclic_group(8)) is None

    def test_finds_relabeling(self):
        d4 = dihedral_group(4)
        perm = (0, 3, 5, 1, 7, 2, 6, 4)
        relabeled = [[0] * 8 for _ in range(8)]
        for a in range(8):
            for b in range(8):
                relabeled[perm[a]][perm[b]] = perm[d4.table[a][b]]
        f = group_isomorphism(d4, FiniteGroup(relabeled))
        assert f is not None
        g = FiniteGroup(relabeled)
        assert all(
            f[d4.table[i][j]] == g.table[f[i]][f[j]] for i in range(8) for j in range(8)
        )
