"""Differential tests of the exact-rational layer on reduced int pairs against
the Fraction implementation it replaced (tests/legacy_oracles.py).

The public primitives must return the same Fractions and raise the same
exceptions with the same messages; the sampler must draw the same stream; the
axiom checks must give equal reports.  On specs forced past validation the
kernels test no membership of their results, which the legacy code tested
after each operation: there the new outcome is the legacy one with only the
inputs checked, and the failure strings are compared.  The oracle shares no
kernel code: it computes with Fraction and tests membership through
LocalizedDomain.
"""

import random

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legacy_oracles import (
    add_inverse_legacy,
    add_legacy,
    axiom_sample_check_legacy,
    circ_inverse_legacy,
    circ_legacy,
    dedekind_witness_legacy,
    lambda_apply_legacy,
    membership_legacy,
    sample_elements_legacy,
    star_rat_legacy,
    y_membership_legacy,
)
from skewbrace._common import _is_prime, _prime_divisors
from skewbrace.errors import DomainViolationError, InvalidSpecError
from skewbrace.rational import (
    _SMALL_PRIMES,
    LocalizedDomain,
    RationalBraceSpec,
    SampleReport,
    WitnessReport,
    _kernels,
    _sampler,
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

SRC = Path(__file__).resolve().parent.parent / "src"


def spec(variant, forbidden, m1=None, m2=None, x=None):
    return RationalBraceSpec(variant, LocalizedDomain(forbidden), m1=m1, m2=m2, x=x)


# the specs of the `rational` benchmark workload (two of its eleven ops share one)
BENCH_SPECS = (
    spec("a2a", (2,)),
    spec("a2a", (2, 3)),
    spec("a2b", (3,), 1, 4),
    spec("a2b", (5,), 2, 7),
    spec("a2b", (2,), 3, 5),
    spec("a2b", (7,), 3, 10),
    spec("c1", (2,), x=1),
    spec("c1", (2, 3), x=Fraction(3, 5)),
    spec("c2", (2,), x=1),
    spec("c2", (2, 5), x=Fraction(-7, 3)),
)


def forced(variant, forbidden, m1=None, m2=None):
    """A spec that skips validation, so that the sampler meets failing axioms."""
    out = object.__new__(RationalBraceSpec)
    fields = {"variant": variant, "domain": LocalizedDomain(forbidden), "m1": m1, "m2": m2,
              "x": Fraction(1) if variant in ("c1", "c2") else None}
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def outcome(fn, *args):
    """('ok', value, type) or ('raised', exception type, message)."""
    try:
        value = fn(*args)
    except Exception as exc:  # the exception type and text are what is compared
        return "raised", type(exc), str(exc)
    return "ok", value, type(value)


# specs that skip validation: the sampler meets failing axioms, and kernel
# results leave the domain (a2b with a forbidden prime outside m2 - m1), which
# the kernels, proved closed on valid specs only, do not test
FORCED = [forced(v, fb) for v in ("a2a", "c1", "c2") for fb in ((), (3,), (3, 5))] + [
    forced("a2b", fb, m1, m2)
    for m1, m2 in ((1, 4), (2, 7), (3, 5), (1, 2), (1, 3))
    for fb in ((), (2,), (5,), (7,), (2, 3))
]

# denominators with and without forbidden primes, so inputs fall on both sides
denominators = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=4).map(prod)
fractions = st.builds(Fraction, st.integers(-10**6, 10**6), denominators)
values = st.one_of(fractions, st.integers(-10**4, 10**4))


@st.composite
def operands(draw):
    """(a, b): b independent of a, or sharing a factor of a's denominator, or -a,
    so that sums meet every branch of the Henrici reduction, and cancel to 0."""
    a = Fraction(draw(values))
    kind = draw(st.sampled_from(("independent", "shared", "cancel")))
    if kind == "cancel":
        return a, -a
    if kind == "shared":
        return a, Fraction(draw(st.integers(-10**6, 10**6)), a.denominator * draw(denominators))
    return a, draw(values)


BINARY = ((circ, circ_legacy), (add, add_legacy), (lambda_apply, lambda_apply_legacy),
          (star_rat, star_rat_legacy))
UNARY = ((circ_inverse, circ_inverse_legacy), (add_inverse, add_inverse_legacy),
         (membership, membership_legacy))


def free(s):
    """s with nothing forbidden: the legacy oracle on it tests no membership."""
    return forced(s.variant, (), s.m1, s.m2)


def zero_denominator(x):
    """The pair a2b's circ_inverse returns at the root x of 1 + kx, which no
    valid spec has as a member: -x k_d over 0, reduced to the sign of x."""
    return 1 if x > 0 else -1, 0


def legacy_outcome(old, s, *args):
    """The legacy outcome on s with only the inputs tested for membership, as
    the kernels test them: on a forced a2b spec a result may leave the
    domain, and where circ_inverse_legacy asserts that 1 + kx cannot vanish
    (true of valid specs only), the public function meets the pair
    zero_denominator and Fraction refuses it."""
    if any(Fraction(v) not in s.domain for v in args):
        return outcome(old, s, *args)
    got = outcome(old, free(s), *args)
    if got[:2] == ("raised", AssertionError):
        n, d = zero_denominator(Fraction(args[0]))
        return "raised", ZeroDivisionError, f"Fraction({n}, {d})"
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BENCH_SPECS + tuple(FORCED)), operands())
def test_primitives_match_legacy(s, ab):
    # on every spec the constructor accepts the outcomes are the legacy ones
    # as they stand; legacy_outcome changes only those of forced specs
    a, b = ab
    want = outcome if s in BENCH_SPECS else legacy_outcome
    for new, old in BINARY:
        assert outcome(new, s, a, b) == want(old, s, a, b), new.__name__
    for new, old in UNARY:
        assert outcome(new, s, a) == want(old, s, a), new.__name__
    for p in (5, 7):
        assert outcome(y_membership, s, p, a) == outcome(y_membership_legacy, s, p, a)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BENCH_SPECS + tuple(FORCED)), operands())
@example(spec("a2b", (3,), 1, 4), (Fraction(1, 6), Fraction(1, 6)))
@example(spec("a2b", (3,), 1, 4), (Fraction(1, 3), Fraction(0)))
def test_every_kernel_result_is_reduced(s, ab):
    # reduced pairs fed to the kernels as they are, members or not: each
    # operation returns its exact value as a reduced pair, and none tests
    # membership, as no entry point hands them a non-member.  The value is
    # the legacy one on the same spec with nothing forbidden, which tests no
    # membership; at the root of 1 + kx, where circ_inverse_legacy asserts,
    # circ_inverse returns zero_denominator.
    k = _kernels(s)
    pairs = [Fraction(v).as_integer_ratio() for v in ab]
    ops = [(k.circ, circ_legacy, pairs), (k.add, add_legacy, pairs),
           (k.circ_inverse, circ_inverse_legacy, pairs[:1]),
           (k.add_inverse, add_inverse_legacy, pairs[:1])]
    for new, old, args in ops:
        want = outcome(old, free(s), *ab[:len(args)])
        if want[:2] == ("raised", AssertionError):
            want = "ok", zero_denominator(Fraction(ab[0])), tuple
        elif want[0] == "ok":
            want = "ok", want[1].as_integer_ratio(), tuple
        assert outcome(new, *args) == want, (new.__name__, args)


@st.composite
def a2b_members(draw):
    """A valid a2b spec, |m1| and m2 at most 60 and S a nonempty set of primes
    of m2 - m1, and two members: denominators from the primes below 14 that S
    misses and those of m2, which S always misses."""
    m2 = draw(st.integers(1, 60))
    m1 = draw(st.integers(-60, 60).filter(
        lambda m1: m1 and gcd(m1, m2) == 1 and m2 - m1 not in (0, 1, -1)))
    forbidden = draw(st.sets(st.sampled_from(sorted(_prime_divisors(m2 - m1))), min_size=1))
    allowed = sorted({2, 3, 5, 7, 11, 13}.union(_prime_divisors(m2)) - forbidden)
    members = st.builds(Fraction, st.integers(-10**4, 10**4),
                        st.lists(st.sampled_from(allowed), max_size=4).map(prod))
    return spec("a2b", tuple(forbidden), m1, m2), draw(members), draw(members)


@settings(max_examples=150, deadline=None)
@given(a2b_members())
@example((spec("a2b", (3,), 1, 4), Fraction(4, 5), Fraction(-4, 5)))
def test_a2b_circle_results_of_members_are_members(sab):
    # the closure that _ring_ops proves from the spec's preconditions, and so
    # does not test: a reduced pair with a positive denominator in the domain
    s, a, b = sab
    k = _kernels(s)
    pa, pb = a.as_integer_ratio(), b.as_integer_ratio()
    for n, d in (k.circ(pa, pb), k.circ_inverse(pa)):
        assert d > 0 and gcd(n, d) == 1 and Fraction(n, d) in s.domain, (s, a, b)


def test_out_of_domain_message():
    s = spec("a2b", (3,), 1, 4)
    for fn in (circ, add, lambda_apply, star_rat):
        with pytest.raises(DomainViolationError, match=r"^1/3 is outside the domain$"):
            fn(s, 1, Fraction(1, 3))


def spec_id(s):
    return f"{s.variant}{s.domain.forbidden}"


@pytest.mark.parametrize("s", BENCH_SPECS, ids=spec_id)
def test_sampler_draws_the_legacy_stream(s):
    # the axiom check's draws, then the witness path's (numerator bound 1000,
    # the witness prime excluded), 10^4 each from one generator per side
    cases = [(10000, ()), (1000, (5,))] if s.variant == "a2b" else [(10000, ())]
    for seed, (bound, exclude) in enumerate(cases):
        old, new = random.Random(seed), random.Random(seed)
        draw = _sampler(s, new, _kernels(s).element, bound, exclude)
        for _ in range(10_000):
            assert Fraction(*draw()) == sample_elements_legacy(s, old, bound, exclude)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("bound", (0, 1, 1000, 10000))
@pytest.mark.parametrize("size", (1, 2, 4, 8, 14, 15))
def test_sampler_rejection_edges_draw_the_legacy_stream(size, bound):
    # `size` allowed primes, the last ones below 50.  A draw below n takes
    # n.bit_length() bits, so n a power of two (sizes 1, 2, 4 and 8, and the
    # numerator bound 0, where n = 1) is redrawn half the time, and 15 one
    # time in 16
    s = forced("a2a", _SMALL_PRIMES[:15 - size])
    old, new = random.Random(size + bound), random.Random(size + bound)
    draw = _sampler(s, new, _kernels(s).element, bound)
    for _ in range(2000):
        assert Fraction(*draw()) == sample_elements_legacy(s, old, bound)
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("size", (1, 2, 4, 13))
def test_sampler_exclude_draws_the_legacy_stream(size):
    # the witness path: the forbidden primes and the excluded one, 47, leave
    # `size` allowed primes
    s = forced("a2b", _SMALL_PRIMES[:14 - size], 1, 4)
    old, new = random.Random(size), random.Random(size)
    draw = _sampler(s, new, _kernels(s).element, 1000, (47,))
    for _ in range(2000):
        assert Fraction(*draw()) == sample_elements_legacy(s, old, 1000, (47,))
    assert new.getstate() == old.getstate()


NO_PRIME_LEFT = "^no prime below 50 is left to sample denominators from$"


def test_no_prime_left_to_sample_is_refused_before_any_draw():
    s = spec("a2a", _SMALL_PRIMES)
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(InvalidSpecError, match=NO_PRIME_LEFT):
        _sampler(s, rng, _kernels(s).element)
    with pytest.raises(InvalidSpecError, match=NO_PRIME_LEFT):
        sample_elements(s, rng)
    assert rng.getstate() == state
    # before, a count of 0 passed and a positive count failed or not by seed
    for count in (0, 5):
        with pytest.raises(InvalidSpecError, match=NO_PRIME_LEFT):
            axiom_sample_check(s, 1, count)
    # the witness prime 47 is the only prime below 50 that is not forbidden:
    # the axiom sample draws its denominators from 47, and the witness, which
    # draws nothing, is N/(m2 47) with N = 47^2 m2 - (m2 - m1)
    m2 = prod(_SMALL_PRIMES[:-1]) + 1
    witness = spec("a2b", _SMALL_PRIMES[:-1], 1, m2)
    assert axiom_sample_check(witness, 1, 20).passed
    violating = Fraction(28886737020327428449, 614889782588491457)
    assert violating == Fraction(47 * 47 * m2 - (m2 - 1), m2 * 47)
    assert dedekind_witness(witness, 47) == WitnessReport(47, violating)
    with pytest.raises(InvalidSpecError, match=NO_PRIME_LEFT):
        _sampler(witness, rng, _kernels(witness).element, 1000, (47,))
    assert rng.getstate() == state


def test_negative_numerator_bound_is_refused_before_any_draw():
    s = spec("a2a", (2,))
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(InvalidSpecError, match="^the numerator bound must be non-negative, got -1$"):
        sample_elements(s, rng, numerator_bound=-1)
    assert rng.getstate() == state
    assert sample_elements(s, rng, numerator_bound=0) == 0


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5, 1729))
@pytest.mark.parametrize("s", BENCH_SPECS, ids=spec_id)
def test_sample_reports_match_legacy(s, seed):
    # the benchmark's 300 samples; equal reports include equal checks dicts
    report = axiom_sample_check(s, seed, 300)
    assert report == axiom_sample_check_legacy(s, seed, 300)
    assert report.passed and report.checks == dict.fromkeys(report.checks, 300)


def test_forced_invalid_specs_fail_like_legacy():
    # the one change: where legacy met a value outside the domain, always an
    # a2b circle result on a spec whose forbidden primes do not all divide
    # m2 - m1, the kernels compute on and the laws, polynomial identities,
    # hold, so the sampler reports a pass
    kinds, closures = set(), 0
    for s in FORCED:
        for seed in (1, 2):
            report, legacy = axiom_sample_check(s, seed, 100), axiom_sample_check_legacy(s, seed, 100)
            if not legacy.passed and legacy.failure.startswith("closure: "):
                closures += 1
                assert s.variant == "a2b" and any((s.m2 - s.m1) % p for p in s.domain.forbidden)
                assert report == SampleReport("a2b", 100, True, None, dict.fromkeys(report.checks, 100))
                continue
            assert report == legacy, (s, seed)
            if not report.passed:
                kinds.add(report.failure.split(" at ")[0])
    assert kinds == {"circle associativity", "additive associativity", "distributivity"}
    assert closures == 34


def legacy_agrees(s, p, **sampling):
    """dedekind_witness(s, p) against the legacy oracle: the same prime and
    witness, and the three legacy flags at the values that their proofs in
    the docstring of dedekind_witness give."""
    legacy, new = dedekind_witness_legacy(s, p, **sampling), dedekind_witness(s, p)
    return ((new.prime, new.violating) == (legacy.prime, legacy.violating)
            and (legacy.violating_in_domain, legacy.violating_in_y, legacy.subgroup_samples_ok)
            == (True, False, True))


@pytest.mark.parametrize("seed", (1729, 5))
@pytest.mark.parametrize("p", (5, 7))
def test_witness_reports_match_legacy(p, seed):
    assert legacy_agrees(spec("a2b", (3,), 1, 4), p, seed=seed)


def witness_grid():
    """Every valid a2b spec with 0 < m2 < 30 and |m1| <= 30, with S the least
    prime of m2 - m1 and then all its primes, and every prime p below 54 that
    dedekind_witness accepts: 18,502 cases."""
    for m2 in range(1, 30):
        for m1 in range(-30, 31):
            d = m2 - m1
            if m1 == 0 or gcd(m1, m2) != 1 or d in (0, 1, -1):
                continue
            primes = tuple(sorted(_prime_divisors(d)))
            for forbidden in sorted({primes[:1], primes}):
                for p in range(2, 54):
                    if _is_prime(p) and p not in forbidden and m2 * (m1 - m2) % p:
                        yield forbidden, m1, m2, p


def test_witness_matches_legacy_on_the_spec_grid():
    # 120 cases of the grid, each with 20 legacy closure samples
    cases = list(witness_grid())
    assert len(cases) == 18502
    for forbidden, m1, m2, p in random.Random(26).sample(cases, 120):
        assert legacy_agrees(spec("a2b", forbidden, m1, m2), p, samples=20), (forbidden, m1, m2, p)


def test_missing_circle_inverse_is_a_domain_violation():
    # 1 + kx = 0 at x = m2/(m2 - m1), reduced as gcd(m2 - m1, m2) = gcd(m1, m2)
    # = 1: a forbidden prime divides its denominator, so element refuses it
    for s in BENCH_SPECS[2:6]:
        root = Fraction(s.m2, s.m2 - s.m1)
        assert 1 + Fraction(s.m1 - s.m2, s.m2) * root == 0
        with pytest.raises(DomainViolationError, match=f"^{root} is outside the domain$"):
            circ_inverse(s, root)
    # with nothing forbidden, 4/3 is a member and 1 + kx = 1 - (3/4)(4/3) = 0:
    # the kernel returns the pair (1, 0), which Fraction refuses
    s = forced("a2b", (), 1, 4)
    assert _kernels(s).circ_inverse((4, 3)) == (1, 0)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        circ_inverse(s, Fraction(4, 3))


def test_negative_sample_counts_are_rejected():
    s = spec("a2b", (3,), 1, 4)
    with pytest.raises(InvalidSpecError, match="non-negative"):
        axiom_sample_check(s, 1, -5)
    assert axiom_sample_check(s, 1, 0).describe() == "a2b: pass at the confidence of 0 samples"


def test_ten_thousand_samples_per_variant_in_under_two_seconds():
    # a fresh interpreter, so no earlier test warms or slows the run
    script = (
        "import time\n"
        "from fractions import Fraction\n"
        "from skewbrace.rational import LocalizedDomain, RationalBraceSpec, axiom_sample_check\n"
        "for s in (RationalBraceSpec('a2a', LocalizedDomain((2,))),\n"
        "          RationalBraceSpec('a2b', LocalizedDomain((3,)), m1=1, m2=4),\n"
        "          RationalBraceSpec('c1', LocalizedDomain((2,)), x=Fraction(1)),\n"
        "          RationalBraceSpec('c2', LocalizedDomain((2,)), x=Fraction(1))):\n"
        "    t = time.perf_counter(); r = axiom_sample_check(s, 42, 10_000)\n"
        "    print(s.variant, r.passed, time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = out.stdout.splitlines()
    assert len(lines) == 4
    for line in lines:
        variant, passed, seconds = line.split()
        assert passed == "True", variant
        assert float(seconds) < 2.0, f"{variant}: 10^4 samples took {float(seconds):.2f} s"
