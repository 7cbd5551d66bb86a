from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from legacy_oracles import quotient_brace_legacy
from skewbrace.braces import (
    SubStructure,
    brace_closure,
    brace_predicates,
    build_brace,
    classify_substructure,
    ideal_generated,
    induced_sub_brace,
    is_bi_skew,
    kernel_of_lambda,
    lambda_semidirect,
    opposite_brace,
    quotient_brace,
    socle_and_centre,
    star_span,
    sub_skew_braces,
    three_of_four_ideal,
)
from skewbrace.errors import (
    BoundExceededError,
    DistributivityError,
    IdentityMismatchError,
    NotAGroupError,
    NotAnIdealError,
    NotASubgroupError,
)
from skewbrace.groups import catalog_group, cyclic_group, dihedral_group, subgroup_closure
from skewbrace.families import trivial_brace
from skewbrace.ybe import build_solution
from test_groups import NONASSOC_LOOP


def lambda_row_oracle(add_table, mul_table, a):
    """lambda_a computed straight from the raw tables: -a + (a o b)."""
    n = len(add_table)
    neg_a = add_table[a].index(0)
    return tuple(add_table[neg_a][mul_table[a][b]] for b in range(n))


def is_closed_subset(B, subset):
    s = set(subset)
    if 0 not in s:
        return False
    return all(
        B.add.table[a][b] in s and B.mul.table[a][b] in s for a in s for b in s
    ) and all(B.add.inverse[a] in s and B.mul.inverse[a] in s for a in s)


class TestBuildBrace:
    def test_trivial_on_z4(self):
        z4 = cyclic_group(4)
        b = build_brace(z4.table, z4.table)
        assert b.is_trivial()

    def test_sign_brace_on_z8(self, b8):
        assert b8.order == 8
        for a in range(8):
            assert b8.lam[a] == lambda_row_oracle(b8.add.table, b8.mul.table, a)

    def test_identity_mismatch(self):
        z4 = cyclic_group(4)
        # Klein four group relabeled so its identity sits at index 1
        v4 = [[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]]
        with pytest.raises(IdentityMismatchError):
            build_brace(z4.table, v4)

    def test_klein_multiplication_on_z4_is_the_sign_brace(self, b4):
        # the unique Klein table with identity 0 pairs with Z4 addition
        z4 = cyclic_group(4)
        v4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        assert build_brace(z4.table, v4) == b4

    def test_distributivity_failure(self):
        z4 = cyclic_group(4)
        # Z4 relabeled through (0 2 1 3): a group, but not a brace with Z4 addition
        relabeled = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
        with pytest.raises(DistributivityError) as exc:
            build_brace(z4.table, relabeled)
        # the first failing triple: 2 o (1+1) = 2 o 2 = 1, but
        # (2 o 1) - 2 + (2 o 1) = 3 + 2 + 3 = 0 in Z4
        assert exc.value.witness == (2, 1, 1)

    def test_order_mismatch(self):
        with pytest.raises(IdentityMismatchError):
            build_brace(cyclic_group(2).table, cyclic_group(3).table)

    def test_errors_in_order_shape_identity_axioms(self):
        z4, not_assoc = cyclic_group(4).table, NONASSOC_LOOP
        # not_assoc with 0 and 1 swapped: its identity sits at 1
        swap = [1, 0, 2, 3, 4]
        moved = [[0] * 5 for _ in range(5)]
        for a in range(5):
            for b in range(5):
                moved[swap[a]][swap[b]] = swap[not_assoc[a][b]]
        with pytest.raises(NotAGroupError, match="entry out of range"):
            build_brace(not_assoc, [[0] * 5] * 4 + [[0, 0, 0, 0, 5]])
        with pytest.raises(IdentityMismatchError):
            build_brace(moved, not_assoc)
        with pytest.raises(NotAGroupError, match="associativity fails"):
            build_brace(not_assoc, z4)
        with pytest.raises(NotAGroupError, match="row is not a permutation"):
            build_brace(z4, [[0, 1, 2, 3], [1, 1, 1, 1], [2, 3, 0, 1], [3, 2, 1, 0]])


def test_tables_above_the_bound_raise_before_they_are_read():
    # 1025 references to one row: nothing of order 1025 is built
    row = list(range(1025))
    rows = [row] * 1025
    z2 = cyclic_group(2).table
    for call, what in ((lambda: build_brace(rows, rows), "build_brace"),
                       (lambda: build_brace(z2, rows), "build_brace"),
                       (lambda: build_solution(rows, rows), "build_solution")):
        with pytest.raises(BoundExceededError) as exc:
            call()
        assert str(exc.value) == f"{what}: order 1025 exceeds bound 1024"


def test_sub_brace_lattice_bound_names_itself(b8, monkeypatch):
    # the shared bound check: the same text as every other bound
    with pytest.raises(BoundExceededError) as exc:
        sub_skew_braces(b8, bound=4)
    assert str(exc.value) == "sub_skew_braces: order 8 exceeds bound 4"
    monkeypatch.setenv("BRACE_MAX_ORDER", "7")
    with pytest.raises(BoundExceededError) as exc:
        sub_skew_braces(b8)
    assert str(exc.value) == "sub_skew_braces: order 8 exceeds bound 7"


class TestStar:
    def test_trivial_brace_star_vanishes(self, trivial_s3):
        assert all(
            trivial_s3.star(a, b) == 0 for a in range(6) for b in range(6)
        )

    def test_b9_star(self, b9):
        # lambda_1 is multiplication by 4, so 1*1 = 4 - 1 = 3
        assert lambda_row_oracle(b9.add.table, b9.mul.table, 1)[1] == 4
        assert b9.star(1, 1) == 3

    def test_b8_star(self, b8):
        assert b8.star(1, 1) == 6

    def test_star_identities_exhaustive(self, b8, b9, almost_trivial_s3):
        from skewbrace.families import two_power_brace

        for B in (b8, b9, almost_trivial_s3, two_power_brace(4)):
            n = B.order
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        lhs = B.star(a, B.plus(b, c))
                        rhs = B.plus(
                            B.plus(B.plus(B.star(a, b), b), B.star(a, c)), B.neg(b)
                        )
                        assert lhs == rhs
                        lhs2 = B.star(B.circ(a, b), c)
                        rhs2 = B.plus(
                            B.plus(B.star(a, B.star(b, c)), B.star(b, c)), B.star(a, c)
                        )
                        assert lhs2 == rhs2

    def test_star_span_examples(self, b8, b9, trivial_s3):
        assert star_span(trivial_s3, range(6), range(6)) == (0,)
        # oracle: all pairwise stars, then additive closure
        stars9 = {b9.star(a, b) for a in range(9) for b in range(9)}
        assert star_span(b9, range(9), range(9)) == subgroup_closure(b9.add, stars9)
        assert star_span(b9, range(9), range(9)) == (0, 3, 6)
        assert star_span(b8, range(8), range(8)) == (0, 2, 4, 6)

    def test_star_span_is_ideal(self, b8, b9, almost_trivial_s3):
        for B in (b8, b9, almost_trivial_s3):
            span = star_span(B, range(B.order), range(B.order))
            assert classify_substructure(B, span).is_ideal


class TestSubBraceLattice:
    def test_b4_by_exhaustive_subsets(self, b4):
        oracle = sorted(
            tuple(sorted(s))
            for r in range(1, 5)
            for s in combinations(range(4), r)
            if is_closed_subset(b4, s)
        )
        got = sorted(s.elements for s in sub_skew_braces(b4))
        assert got == sorted(set(oracle))
        assert len(got) == 3

    def test_b8_by_exhaustive_subsets(self, b8):
        oracle = {
            tuple(sorted(s))
            for r in range(1, 9)
            for s in combinations(range(8), r)
            if is_closed_subset(b8, s)
        }
        got = {s.elements for s in sub_skew_braces(b8)}
        assert got == oracle
        assert len(got) == 4

    def test_trivial_prime_order(self):
        b = trivial_brace(cyclic_group(5))
        assert len(sub_skew_braces(b)) == 2

    def test_flag_chain_consistency(self, b8, b9, almost_trivial_s3, trivial_s3):
        for B in (b8, b9, almost_trivial_s3, trivial_s3):
            for s in sub_skew_braces(B):
                if s.is_ideal:
                    assert s.is_strong_left_ideal
                if s.is_strong_left_ideal:
                    assert s.is_left_ideal
                if s.is_left_ideal:
                    assert s.is_sub_brace


class TestClassify:
    def test_ideal_in_b4(self, b4):
        s = classify_substructure(b4, [0, 2])
        assert s.is_ideal

    def test_zero_is_ideal_everywhere(self, b8, b9, almost_trivial_s3):
        for B in (b8, b9, almost_trivial_s3):
            assert classify_substructure(B, [0]).is_ideal

    def test_mult_subgroup_in_almost_trivial_s3(self, almost_trivial_s3, s3_group):
        involution = next(x for x in range(6) if s3_group.element_orders[x] == 2)
        s = classify_substructure(almost_trivial_s3, [0, involution])
        assert s.is_sub_brace and not s.is_ideal and not s.is_left_ideal

    def test_non_closed_gets_all_false(self, b8):
        s = classify_substructure(b8, [0, 1])
        assert not (s.is_sub_brace or s.is_left_ideal or s.is_ideal)


class TestThreeOfFour:
    def test_known_ideal_holds_all_four(self, b8):
        ok, held = three_of_four_ideal(b8, [0, 2, 4, 6])
        assert ok and held == (1, 2, 3, 4)

    def test_b4_example(self, b4):
        ok, held = three_of_four_ideal(b4, [0, 2])
        assert ok and set((1, 2, 4)) <= set(held)
        assert classify_substructure(b4, [0, 2]).is_ideal

    def test_order_two_subgroup_fails(self, almost_trivial_s3, s3_group):
        involution = next(x for x in range(6) if s3_group.element_orders[x] == 2)
        ok, held = three_of_four_ideal(almost_trivial_s3, [0, involution])
        assert not ok and held is None

    def test_not_a_subgroup(self, b8):
        with pytest.raises(NotASubgroupError):
            three_of_four_ideal(b8, [0, 1, 2])


class TestIdealGenerated:
    def test_zero(self, b9):
        assert ideal_generated(b9, [0]).elements == (0,)

    def test_b4_whole(self, b4):
        assert ideal_generated(b4, [1]).elements == (0, 1, 2, 3)

    def test_b8_even(self, b8):
        assert ideal_generated(b8, [2]).elements == (0, 2, 4, 6)

    def test_minimality(self, b8):
        # the result is contained in every ideal of the lattice containing the seed
        target = ideal_generated(b8, [4]).elements
        for s in sub_skew_braces(b8):
            if s.is_ideal and 4 in s.elements:
                assert set(target) <= set(s.elements)


class TestQuotient:
    def test_b8_mod_evens(self, b8):
        q, proj = quotient_brace(b8, classify_substructure(b8, [0, 2, 4, 6]))
        assert q.order == 2 and q.is_trivial()
        assert proj[0] == 0

    def test_b9_mod_socle(self, b9):
        q, _ = quotient_brace(b9, classify_substructure(b9, [0, 3, 6]))
        assert q.order == 3 and q.is_trivial() and q.add.is_abelian()

    def test_quotient_by_whole(self, b9):
        q, _ = quotient_brace(b9, classify_substructure(b9, range(9)))
        assert q.order == 1

    def test_substructure_flags_are_not_trusted(self):
        # a SubStructure is classified by its set, as an element list is: a
        # non-normal subgroup of D3, or an element out of range, flagged as an
        # ideal, is refused
        B = trivial_brace(dihedral_group(3))
        with pytest.raises(NotAnIdealError, match=r"^\[0, 3\] is not an ideal$"):
            quotient_brace(B, SubStructure((0, 3), True, True, True, True))
        with pytest.raises(ValueError, match="^element 7 is outside 0..5$"):
            quotient_brace(B, SubStructure((0, 7), True, True, True, True))

    def test_substructure_of_an_ideal_gives_the_legacy_quotient(self, b8, b9):
        for B in (b8, b9):
            ideals = [s for s in sub_skew_braces(B) if s.is_ideal]
            assert len(ideals) > 2
            for s in ideals:
                assert quotient_brace(B, s) == quotient_brace(B, s.elements) \
                    == quotient_brace_legacy(B, s)

    def test_projection_preserves_operations(self, b8):
        ideal = classify_substructure(b8, [0, 4])
        q, proj = quotient_brace(b8, ideal)
        for a in range(8):
            for b in range(8):
                assert proj[b8.plus(a, b)] == q.plus(proj[a], proj[b])
                assert proj[b8.circ(a, b)] == q.circ(proj[a], proj[b])

    def test_rejects_non_ideal(self, almost_trivial_s3, s3_group):
        involution = next(x for x in range(6) if s3_group.element_orders[x] == 2)
        with pytest.raises(NotAnIdealError):
            quotient_brace(almost_trivial_s3, [0, involution])

    def test_coset_partitions_coincide_for_ideals(self, b8, b9, almost_trivial_s3):
        for B in (b8, b9, almost_trivial_s3):
            for s in sub_skew_braces(B):
                if not s.is_ideal:
                    continue
                adds = {frozenset(B.plus(a, x) for x in s.elements) for a in range(B.order)}
                muls = {frozenset(B.circ(a, x) for x in s.elements) for a in range(B.order)}
                assert adds == muls


class TestSocleCentre:
    def test_trivial_abelian_socle_is_everything(self):
        b = trivial_brace(cyclic_group(6))
        ker, soc, cen = socle_and_centre(b)
        assert soc.elements == cen.elements == tuple(range(6))

    def test_b8(self, b8):
        ker, soc, cen = socle_and_centre(b8)
        assert ker.elements == (0, 2, 4, 6)
        assert soc.elements == (0, 2, 4, 6)
        assert cen.elements == (0, 4)

    def test_b9(self, b9):
        # lambda_a is multiplication by 1 + 3a, trivial exactly on multiples of 3
        ker, soc, cen = socle_and_centre(b9)
        assert soc.elements == (0, 3, 6)
        assert cen.elements == (0, 3, 6)
        assert kernel_of_lambda(b9) == (0, 3, 6)


class TestSquareZeroGeneration:
    def test_square_zero_elements_generate_trivial_sub_braces(
        self, b4, b8, b9, trivial_s3, almost_trivial_s3
    ):
        for B in (b4, b8, b9, trivial_s3, almost_trivial_s3):
            for b in range(B.order):
                if B.star(b, b) != 0:
                    continue
                add_closure = set(subgroup_closure(B.add, [b]))
                mul_closure = set(subgroup_closure(B.mul, [b]))
                full = set(brace_closure(B, [b]))
                assert add_closure == mul_closure == full
                sub, _ = induced_sub_brace(B, full)
                assert sub.is_trivial()


class TestOppositeAndPredicates:
    def test_opposite_of_trivial_abelian_is_same(self):
        b = trivial_brace(cyclic_group(4))
        assert opposite_brace(b) == b

    def test_opposite_validates_on_nonabelian(self, almost_trivial_s3):
        assert opposite_brace(almost_trivial_s3).is_trivial()

    def test_b8_predicates(self, b8):
        p = brace_predicates(b8)
        assert p.bi_skew and p.abelian_type
        assert not p.trivial and not p.almost_trivial

    def test_nonabelian_order_27_is_bi_skew(self, b27_nonabelian):
        assert is_bi_skew(b27_nonabelian)

    def test_bi_skew_agrees_with_swapped_validation(self, b9, b27_cyclic):
        # two routes: the axiom check and the full validator on swapped tables
        assert is_bi_skew(b9)
        build_brace(b9.mul.table, b9.add.table)
        assert not is_bi_skew(b27_cyclic)
        with pytest.raises(DistributivityError):
            build_brace(b27_cyclic.mul.table, b27_cyclic.add.table)

    def test_almost_trivial_flags(self, almost_trivial_s3, trivial_s3):
        p = brace_predicates(almost_trivial_s3)
        assert p.almost_trivial and not p.trivial and not p.abelian_type
        q = brace_predicates(trivial_s3)
        assert q.trivial and not q.abelian_type


class TestLambdaSemidirect:
    def commutator_oracle(self, G, x, y):
        return G.op(G.op(G.op(x, y), G.inverse[x]), G.inverse[y])

    def test_trivial_brace_gives_direct_product(self):
        b = trivial_brace(cyclic_group(3))
        g = lambda_semidirect(b)
        assert g.order == 9 and g.is_abelian()

    def test_b4_commutator_identity(self, b4):
        g = lambda_semidirect(b4)
        assert g.order == 16
        n = 4
        for a in range(n):
            for b in range(n):
                got = self.commutator_oracle(g, a * n, b)
                assert got == b4.star(a, b)

    def test_b9_order(self, b9):
        assert lambda_semidirect(b9).order == 81

    def test_size_bound(self, b8):
        from skewbrace.errors import BoundExceededError

        with pytest.raises(BoundExceededError):
            lambda_semidirect(b8, bound=10)


class TestHomomorphismLaw:
    @given(st.integers(0, 8), st.integers(0, 8))
    def test_lambda_multiplicative(self, a, b):
        from skewbrace.families import odd_p_cyclic_brace

        B = odd_p_cyclic_brace(3, 2)
        left = B.lam[B.circ(a, b)]
        right = tuple(B.lam[a][B.lam[b][i]] for i in range(9))
        assert left == right
