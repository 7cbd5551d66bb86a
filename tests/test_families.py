from math import comb

import pytest

from legacy_oracles import odd_p_nonabelian_brace_legacy
from skewbrace.braces import is_bi_skew, socle_and_centre, star_span
from skewbrace.errors import BadParamsError, BoundExceededError
from skewbrace.families import (
    FAMILY_MAX_ORDER,
    almost_trivial_brace,
    build_family,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    odd_p_nonabelian_labels,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import catalog_group, cyclic_group, group_isomorphism, subgroup_closure
from skewbrace.series import central_class, is_dedekind, multipermutation_level, upper_socle_series


class TestOrderBudget:
    def test_admits_the_orders_in_use(self):
        # two_power up to n = 8, 3^4 and 5^3 are built today; 512 is the next target
        assert max(2**8, 3**4, 5**3, 512) <= FAMILY_MAX_ORDER

    @pytest.mark.parametrize("build, message", [
        (lambda: two_power_brace(11), "two_power: order 2048 exceeds bound 1024"),
        (lambda: two_power_brace(40), "two_power: order 1099511627776 exceeds bound 1024"),
        (lambda: odd_p_cyclic_brace(3, 7), "odd_p_cyclic: order 2187 exceeds bound 1024"),
        (lambda: odd_p_cyclic_brace(3, 30), f"odd_p_cyclic: order {3**30} exceeds bound 1024"),
    ])
    def test_larger_orders_refused_before_any_table(self, build, message):
        with pytest.raises(BoundExceededError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: two_power_brace(10**5000), "two_power: exponent above 1024"),
        (lambda: odd_p_cyclic_brace(10**5000 + 1, 1), "odd_p_cyclic: p above 1024"),
        (lambda: odd_p_cyclic_brace(1025, 1), "odd_p_cyclic: p above 1024"),
        (lambda: odd_p_cyclic_brace(3, 1025), "odd_p_cyclic: exponent above 1024"),
        (lambda: odd_p_nonabelian_brace(10**5000 + 1, 2), "odd_p_nonabelian: p above 1024"),
        (lambda: odd_p_nonabelian_brace(3, 1024), "odd_p_nonabelian: exponent above 1024"),
    ])
    def test_huge_parameters_refused_by_a_printable_message(self, build, message):
        # neither p^n nor a p or n too long for str() is formatted, and a
        # large p is refused before trial division, non-prime or not
        with pytest.raises(BoundExceededError) as exc:
            build()
        assert str(exc.value) == f"{message} gives an order above bound 1024"

    def test_exponents_up_to_the_bound_print_the_order(self):
        with pytest.raises(BoundExceededError) as exc:
            odd_p_cyclic_brace(3, 1024)
        assert str(exc.value) == f"odd_p_cyclic: order {3**1024} exceeds bound 1024"

    def test_odd_p_nonabelian_capped_whatever_the_brace_bound(self, monkeypatch):
        monkeypatch.setenv("BRACE_MAX_ORDER", "5000")
        with pytest.raises(BoundExceededError) as exc:
            odd_p_nonabelian_brace(3, 6)
        assert str(exc.value) == "odd_p_nonabelian: order 2187 exceeds bound 1024"


class TestTwoPower:
    def test_n2_multiplicative_involutions(self):
        b = two_power_brace(2)
        assert all(b.circ(a, a) == 0 for a in range(4))
        assert not b.mul.is_cyclic()

    def test_n3_socle_two_steps(self, b8):
        chain = upper_socle_series(b8)
        assert chain.terminal and chain.length == 2

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            two_power_brace(1)
        with pytest.raises(BadParamsError):
            two_power_brace(0)

    def test_bi_skew_all_small_exponents(self):
        for n in (2, 3, 4, 5, 6):
            assert is_bi_skew(two_power_brace(n))


class TestOddPCyclic:
    def test_32_values(self, b9):
        assert b9.circ(1, 1) == 5
        assert socle_and_centre(b9)[0].elements == (0, 3, 6)

    def test_31_trivial(self):
        assert odd_p_cyclic_brace(3, 1).is_trivial()

    def test_33_level_3(self, b27_cyclic):
        assert multipermutation_level(b27_cyclic) == 3

    def test_power_formula_against_oracle(self):
        # independent route: iterate the circle table directly; 1 has order N
        for p in (3, 5, 7):
            for n in (1, 2, 3):
                B = odd_p_cyclic_brace(p, n)
                N = p**n
                value = 0
                for length in range(N + 1):
                    expected = sum(pow(1 + p, i, p * N) for i in range(length)) % N
                    assert value == expected
                    value = B.circ(value, 1)
                assert B.mul.element_orders[1] == N

    def test_generator_sets_match(self, b9):
        add_gens = {a for a in range(9) if b9.add.element_orders[a] == 9}
        mul_gens = {a for a in range(9) if b9.mul.element_orders[a] == 9}
        assert add_gens == mul_gens

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            odd_p_cyclic_brace(2, 2)
        with pytest.raises(BadParamsError):
            odd_p_cyclic_brace(9, 1)
        with pytest.raises(BadParamsError):
            odd_p_cyclic_brace(3, 0)


class TestOddPNonabelian:
    def test_order_and_groups(self, b27_nonabelian):
        b = b27_nonabelian
        assert b.order == 27
        assert not b.add.is_abelian() and not b.mul.is_abelian()
        assert group_isomorphism(b.add, b.mul) is not None

    def test_centre_is_generated_by_pn_minus_1_x(self, b27_nonabelian):
        # p^(n-1) x = 3x sits at index 3
        _, _, cen = socle_and_centre(b27_nonabelian)
        assert cen.elements == tuple(subgroup_closure(b27_nonabelian.add, [3]))
        assert cen.size == 3

    def test_class_2_and_dedekind(self, b27_nonabelian):
        assert central_class(b27_nonabelian) == 2
        assert is_dedekind(b27_nonabelian)[0]

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2)])
    def test_theorem_properties(self, p, n):
        b = odd_p_nonabelian_brace(p, n)
        N = p**n
        assert not b.add.is_abelian() and not b.mul.is_abelian()
        assert group_isomorphism(b.add, b.mul) is not None
        y = N
        for k in range(p + 1):
            shift = (-comb(k, 2) * p ** (n - 1)) % N
            assert b.mul.power(y, k) == b.add.op(b.add.power(y, k), shift)
        assert central_class(b) == 2

    def test_conjugation_relation(self, b27_nonabelian):
        # -y + x + y = (1 + p^(n-1)) x with x at index 1 and y at index 9
        b = b27_nonabelian
        x, y = 1, 9
        got = b.add.op(b.add.op(b.add.inverse[y], x), y)
        assert got == 4  # (1 + 3) x

    def test_bad_params(self, monkeypatch):
        with pytest.raises(BadParamsError):
            odd_p_nonabelian_brace(2, 2)
        with pytest.raises(BadParamsError):
            odd_p_nonabelian_brace(3, 1)
        # Only FAMILY_MAX_ORDER caps the family: order 81 builds above the
        # default BRACE_MAX_ORDER of 64.
        monkeypatch.delenv("BRACE_MAX_ORDER", raising=False)
        assert odd_p_nonabelian_brace(3, 3).order == 81

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)])
    def test_formula_tables_match_legacy_loops(self, p, n):
        b = odd_p_nonabelian_brace(p, n)
        old = odd_p_nonabelian_brace_legacy(p, n, bound=p ** (n + 1))
        assert b.add.table == old.add.table and b.mul.table == old.mul.table

    def test_labels(self):
        labels = odd_p_nonabelian_labels(3, 2)
        assert labels[0] == "0" and labels[1] == "1x"
        assert labels[9] == "1y" and labels[13] == "1y+4x"
        assert len(labels) == 27


class TestTrivialAndAlmostTrivial:
    def test_trivial_on_z6(self):
        b = trivial_brace(cyclic_group(6))
        _, soc, cen = socle_and_centre(b)
        assert soc.elements == cen.elements == tuple(range(6))

    def test_almost_trivial_star_span_is_commutator_subgroup(self, almost_trivial_s3, s3_group):
        span = star_span(almost_trivial_s3, range(6), range(6))
        commutators = {
            s3_group.commutator(a, b) for a in range(6) for b in range(6)
        }
        assert set(span) == set(subgroup_closure(s3_group, commutators))
        assert len(span) == 3

    def test_almost_trivial_on_abelian_equals_trivial(self):
        g = cyclic_group(5)
        assert almost_trivial_brace(g) == trivial_brace(g)


class TestDispatch:
    def test_tags(self):
        assert build_family("two_power", n=2).order == 4
        assert build_family("odd_p_cyclic", p=3, n=1).order == 3
        assert build_family("trivial", group=cyclic_group(4)).is_trivial()

    def test_missing_params(self):
        with pytest.raises(BadParamsError):
            build_family("two_power")
        with pytest.raises(BadParamsError):
            build_family("trivial")
        with pytest.raises(BadParamsError):
            build_family("unknown_family", n=2)
