import random
from fractions import Fraction
from itertools import combinations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewbrace.errors import BadPrimeError, BoundExceededError, DomainViolationError, InvalidSpecError
from skewbrace import rational
from skewbrace.rational import (
    M_MAX,
    PRIME_MAX,
    SAMPLE_MAX,
    LocalizedDomain,
    RationalBraceSpec,
    add,
    add_inverse,
    axiom_sample_check,
    circ,
    circ_inverse,
    dedekind_witness,
    lambda_apply,
    membership,
    sample_elements,
    star_rat,
    y_membership,
)


@pytest.fixture(scope="module")
def a2a():
    return RationalBraceSpec("a2a", LocalizedDomain((2,)))


@pytest.fixture(scope="module")
def a2b():
    return RationalBraceSpec("a2b", LocalizedDomain((3,)), m1=1, m2=4)


@pytest.fixture(scope="module")
def c1():
    return RationalBraceSpec("c1", LocalizedDomain((2,)), x=Fraction(1))


@pytest.fixture(scope="module")
def c2():
    return RationalBraceSpec("c2", LocalizedDomain((2,)), x=Fraction(1))


class TestMembership:
    def test_examples(self, a2b, a2a):
        assert membership(a2b, Fraction(1, 2))
        assert not membership(a2b, Fraction(1, 3))
        assert not membership(a2b, Fraction(5, 6))
        assert membership(a2a, Fraction(7, 5))
        assert not membership(a2a, Fraction(1, 2))

    @given(st.integers(-1000, 1000), st.integers(1, 400))
    def test_membership_is_denominator_primality(self, num, den):
        spec = RationalBraceSpec("a2b", LocalizedDomain((3,)), m1=1, m2=4)
        q = Fraction(num, den)
        assert membership(spec, q) == (q.denominator % 3 != 0)


class TestCirc:
    def test_a2b_values(self, a2b):
        assert circ(a2b, 1, 1) == Fraction(5, 4)
        assert circ(a2b, 0, Fraction(7, 2)) == Fraction(7, 2)
        assert circ(a2b, 1, -4) == 0

    def test_a2a_sign_rule(self, a2a):
        assert circ(a2a, 2, 5) == 7
        assert circ(a2a, 1, 5) == -4
        assert circ(a2a, Fraction(1, 3), Fraction(1, 5)) == Fraction(2, 15)

    def test_inverse_values(self, a2b, a2a):
        assert circ_inverse(a2b, 1) == -4
        assert circ_inverse(a2b, 0) == 0
        assert circ_inverse(a2a, 1) == 1
        assert circ_inverse(a2a, 6) == -6

    def test_domain_violation(self, a2b):
        with pytest.raises(DomainViolationError):
            circ(a2b, Fraction(1, 3), 1)


class TestAdd:
    def test_c1_values(self, c1):
        assert add(c1, 1, 1) == 0
        assert add(c1, 2, 4) == 6
        assert add(c1, add(c1, 1, 2), 1) == -2

    def test_c2_is_opposite_of_c1(self, c1, c2):
        rng = random.Random(0)
        for _ in range(300):
            u = sample_elements(c1, rng)
            v = sample_elements(c1, rng)
            assert add(c2, u, v) == add(c1, v, u)

    def test_even_part_agrees_with_circ(self, c1):
        rng = random.Random(1)
        for _ in range(200):
            b = 2 * sample_elements(c1, rng)
            d = 2 * sample_elements(c1, rng)
            assert add(c1, b, d) == circ(c1, b, d)

    def test_x_acts_by_inversion(self, c1):
        rng = random.Random(2)
        x = Fraction(1)
        for _ in range(200):
            d = 2 * sample_elements(c1, rng)
            assert add(c1, add(c1, x, d), x) == -d


class TestLambdaAndStar:
    def test_lambda_identity_at_zero(self, a2a, a2b, c1, c2):
        for spec in (a2a, a2b, c1, c2):
            probe = Fraction(7) if spec.variant in ("a2a", "c1", "c2") else Fraction(7, 5)
            assert lambda_apply(spec, 0, probe) == probe

    def test_a2a_parity_rule(self, a2a):
        assert lambda_apply(a2a, 2, 5) == 5
        assert lambda_apply(a2a, 1, 5) == -5

    def test_a2b_values(self, a2b):
        assert lambda_apply(a2b, 1, 1) == Fraction(1, 4)
        assert star_rat(a2b, 1, 1) == Fraction(-3, 4)

    def test_kernel_shapes(self, a2a, a2b, c1, c2):
        rng = random.Random(3)
        probes = [sample_elements(a2a, rng) for _ in range(20)]
        for _ in range(100):
            a = sample_elements(a2a, rng)
            in_kernel = all(lambda_apply(a2a, a, b) == b for b in probes)
            assert in_kernel == (a.numerator % 2 == 0)
        for _ in range(100):
            a = sample_elements(a2b, rng)
            if a != 0:
                assert lambda_apply(a2b, a, 1) != 1
        for _ in range(100):
            a = sample_elements(c1, rng)
            in_kernel = all(lambda_apply(c1, a, b) == b for b in probes)
            assert in_kernel == (a.numerator % 2 == 0)
        for _ in range(100):
            a = sample_elements(c2, rng)
            if a != 0:
                odd = next(b for b in probes if b.numerator % 2 == 1)
                assert lambda_apply(c2, a, odd) != odd


class TestAxiomSampling:
    @pytest.mark.parametrize("variant", ["a2a", "a2b", "c1", "c2"])
    def test_passes(self, variant, a2a, a2b, c1, c2):
        spec = {"a2a": a2a, "a2b": a2b, "c1": c1, "c2": c2}[variant]
        report = axiom_sample_check(spec, seed=42, count=500)
        assert report.passed, report.failure
        assert report.samples == 500
        assert "confidence" in report.describe()

    def test_deterministic_in_seed(self, a2b):
        r1 = axiom_sample_check(a2b, seed=5, count=50)
        r2 = axiom_sample_check(a2b, seed=5, count=50)
        assert r1.checks == r2.checks

    @pytest.mark.parametrize("count", (SAMPLE_MAX + 1, 10**23))
    def test_count_above_the_bound_refused_before_any_draw(self, a2a, a2b, count):
        with mock.patch.object(rational, "_sampler", side_effect=AssertionError):
            with pytest.raises(BoundExceededError, match=f"^sample count exceeds bound {SAMPLE_MAX}$"):
                axiom_sample_check(a2a, seed=1, count=count)
            with pytest.raises(BoundExceededError, match=f"^sample count exceeds bound {SAMPLE_MAX}$"):
                dedekind_witness(a2b, 5, samples=count)


class TestParameterBound:
    """|m1| and m2 of an a2b spec are bounded by M_MAX before any arithmetic,
    so every integer a message or report prints has far fewer than the 4300
    digits that str() of an int accepts."""

    # (m1, m2, a forbidden prime dividing m2 - m1): 3 | 10^1000 - 1, and
    # 17 = (10^8 + 1) / 5882353 divides 10^1000 + 1 as 1000 / 8 is odd.
    AT_BOUND = [(M_MAX, 1, 3), (-M_MAX, 1, 17), (1, M_MAX, 3)]

    @pytest.mark.parametrize("m1, m2, p", AT_BOUND, ids=("m1", "-m1", "m2"))
    def test_the_bound_passes_and_one_above_exceeds(self, m1, m2, p):
        spec = RationalBraceSpec("a2b", LocalizedDomain((p,)), m1, m2)
        assert axiom_sample_check(spec, seed=1, count=20).passed
        assert "is not in Y" in dedekind_witness(spec, 7, samples=10).describe()
        above = (m1 + (m1 > 0) - (m1 < 0), m2) if abs(m1) == M_MAX else (m1, m2 + 1)
        name = "|m1|" if abs(m1) == M_MAX else "m2"
        with pytest.raises(BoundExceededError) as exc:
            RationalBraceSpec("a2b", LocalizedDomain((p,)), *above)
        assert str(exc.value) == f"a2b: {name} exceeds bound 10^1000"

    def test_a_huge_m1_is_refused_before_arithmetic(self):
        with pytest.raises(BoundExceededError, match=r"^a2b: \|m1\| exceeds bound 10\^1000$"):
            RationalBraceSpec("a2b", LocalizedDomain((3,)), -(10**5000 + 1), 5)


class TestInvalidSpecs:
    def test_m2_minus_m1_unit(self):
        with pytest.raises(InvalidSpecError):
            RationalBraceSpec("a2b", LocalizedDomain((3,)), m1=1, m2=2)

    def test_empty_forbidden_for_a2b(self):
        with pytest.raises(InvalidSpecError):
            RationalBraceSpec("a2b", LocalizedDomain(()), m1=1, m2=4)

    def test_forbidden_prime_away_from_difference(self):
        with pytest.raises(InvalidSpecError):
            RationalBraceSpec("a2b", LocalizedDomain((5,)), m1=1, m2=4)

    def test_a2a_requires_2_forbidden(self):
        with pytest.raises(InvalidSpecError):
            RationalBraceSpec("a2a", LocalizedDomain((3,)))

    def test_c1_rejects_even_numerator_x(self):
        with pytest.raises(InvalidSpecError):
            RationalBraceSpec("c1", LocalizedDomain((2,)), x=Fraction(2))

    def test_non_coprime(self):
        with pytest.raises(InvalidSpecError):
            RationalBraceSpec("a2b", LocalizedDomain((3,)), m1=2, m2=8)

    def test_non_prime_forbidden(self):
        with pytest.raises(InvalidSpecError):
            LocalizedDomain((4,))

    def test_forbidden_prime_above_the_bound(self):
        # PRIME_MAX + 1 = 73 * 137 * 99990001: refused by the bound before the
        # trial division that would refuse it as a non-prime
        with pytest.raises(BoundExceededError,
                           match=f"^forbidden prime {PRIME_MAX + 1} exceeds bound {PRIME_MAX}$"):
            LocalizedDomain((4, 2, PRIME_MAX + 1))

    def test_largest_prime_below_the_bound_is_accepted(self):
        assert LocalizedDomain((999_999_999_989, 2)).forbidden == (2, 999_999_999_989)

    def test_forbidden_primes_above_the_bound_together(self):
        # isqrt(999_999_999_989) = 999_999: with 2 the roots sum to the bound
        # isqrt(PRIME_MAX) (accepted above), with 2 and 3 to one past it
        with pytest.raises(BoundExceededError,
                           match=r"^forbidden primes: their square roots sum past bound 1000000$"):
            LocalizedDomain((999_999_999_989, 3, 2))

    def test_valid_a2b_ratio_lies_in_domain(self):
        # The spec no longer checks that m1/m2 lies in the domain: every
        # forbidden prime divides m2 - m1, so with (m1, m2) = 1 none divides m2.
        primes = (2, 3, 5, 7, 11, 13)
        forbidden_sets = [(p,) for p in primes] + list(combinations(primes, 2))
        domains = [LocalizedDomain(forbidden) for forbidden in forbidden_sets]
        valid = 0
        for m1 in range(-40, 41):
            for m2 in range(1, 41):
                for domain in domains:
                    try:
                        spec = RationalBraceSpec("a2b", domain, m1=m1, m2=m2)
                    except InvalidSpecError:
                        continue
                    valid += 1
                    assert Fraction(m1, m2) in spec.domain
        assert valid > 1000


class TestDedekindWitness:
    def test_97_over_20(self, a2b):
        w = dedekind_witness(a2b, 5)
        assert w.violating == Fraction(97, 20)
        assert w.violating_in_domain and not w.violating_in_y
        assert w.subgroup_samples_ok

    def test_witness_matches_lambda(self, a2b):
        w = dedekind_witness(a2b, 5)
        assert w.violating == lambda_apply(a2b, Fraction(1, 25), 5)

    # The a2b specs of the rational benchmark: (forbidden primes, m1, m2).
    @pytest.mark.parametrize("forbidden, m1, m2", [((3,), 1, 4), ((5,), 2, 7), ((2,), 3, 5), ((7,), 3, 10)])
    def test_closed_form(self, forbidden, m1, m2):
        spec = RationalBraceSpec("a2b", LocalizedDomain(forbidden), m1=m1, m2=m2)
        checked = 0
        for p in (5, 7, 11):
            if p in forbidden or m2 * (m1 - m2) % p == 0:
                with pytest.raises(BadPrimeError):
                    dedekind_witness(spec, p, samples=0)
                continue
            w = dedekind_witness(spec, p, samples=20)
            assert w.violating == Fraction(p * p * m2 - m2 + m1, m2 * p)
            assert w.violating == lambda_apply(spec, Fraction(1, p * p), p)
            assert y_membership(spec, p, p) and membership(spec, Fraction(1, p * p))
            checked += 1
        assert checked

    def test_y_rule(self, a2b):
        assert y_membership(a2b, 5, Fraction(5))
        assert y_membership(a2b, 5, Fraction(10, 7))
        assert not y_membership(a2b, 5, Fraction(97, 20))
        assert not y_membership(a2b, 5, Fraction(1, 3))  # outside the domain

    def test_bad_primes(self, a2b):
        with pytest.raises(BadPrimeError):
            dedekind_witness(a2b, 3)  # forbidden
        with pytest.raises(BadPrimeError):
            dedekind_witness(a2b, 2)  # divides m2
        with pytest.raises(BadPrimeError):
            dedekind_witness(a2b, 6)  # not prime

    def test_wrong_variant(self, c1):
        with pytest.raises(InvalidSpecError):
            dedekind_witness(c1, 5)

    def test_witness_prime_above_the_bound(self, a2b):
        with pytest.raises(BoundExceededError,
                           match=f"^witness prime {PRIME_MAX + 1} exceeds bound {PRIME_MAX}$"):
            dedekind_witness(a2b, PRIME_MAX + 1, samples=0)


class TestClosure:
    @pytest.mark.parametrize("variant", ["a2a", "a2b", "c1", "c2"])
    def test_operations_stay_in_domain(self, variant, a2a, a2b, c1, c2):
        spec = {"a2a": a2a, "a2b": a2b, "c1": c1, "c2": c2}[variant]
        rng = random.Random(11)
        for _ in range(300):
            u = sample_elements(spec, rng)
            v = sample_elements(spec, rng)
            for value in (
                circ(spec, u, v),
                circ_inverse(spec, u),
                add(spec, u, v),
                add_inverse(spec, u),
                lambda_apply(spec, u, v),
                star_rat(spec, u, v),
            ):
                assert membership(spec, value)
