"""Differential tests of the exact-rational layer on reduced int pairs against
the Fraction implementation it replaced (tests/legacy_oracles.py).

The public primitives must return the same Fractions and raise the same
exceptions with the same messages; the sampler must draw the same stream; the
axiom checks must give equal reports, also on specs forced past validation,
where the failure strings are compared.  The oracle shares no kernel code: it
computes with Fraction and tests membership through LocalizedDomain.
"""

import random

import os
import subprocess
import sys
from fractions import Fraction
from math import prod
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
from skewbrace.errors import DomainViolationError, InvalidSpecError
from skewbrace.rational import (
    _SMALL_PRIMES,
    LocalizedDomain,
    RationalBraceSpec,
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
# results leave the domain (a2b with a forbidden prime outside m2 - m1)
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


def legacy_outcome(old, *args):
    """The legacy outcome, except that where circ_inverse_legacy asserts that 1 + kx
    cannot vanish (true of valid specs only), the kernels raise DomainViolationError."""
    got = outcome(old, *args)
    if got[:2] == ("raised", AssertionError):
        x = Fraction(args[1])
        return "raised", DomainViolationError, f"{x} has no circle inverse: 1 + kx = 0"
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BENCH_SPECS + tuple(FORCED)), operands())
def test_primitives_match_legacy(s, ab):
    a, b = ab
    for new, old in BINARY:
        assert outcome(new, s, a, b) == outcome(old, s, a, b), new.__name__
    for new, old in UNARY:
        assert outcome(new, s, a) == legacy_outcome(old, s, a), new.__name__
    for p in (5, 7):
        assert outcome(y_membership, s, p, a) == outcome(y_membership_legacy, s, p, a)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BENCH_SPECS + tuple(FORCED)), operands())
@example(spec("a2b", (3,), 1, 4), (Fraction(1, 6), Fraction(1, 6)))
@example(spec("a2b", (3,), 1, 4), (Fraction(1, 3), Fraction(0)))
def test_every_kernel_result_is_reduced_and_checked(s, ab):
    # reduced pairs fed to the kernels as they are, members or not: each
    # operation returns its exact value as a reduced pair.  a2b's circ and
    # circ_inverse raise if it is not a member; the sums and negations test
    # no membership, as those of members are members, and no entry point
    # hands them a non-member.  The value is the legacy one on the same spec
    # with nothing forbidden, which tests no membership.
    free = forced(s.variant, (), s.m1, s.m2)
    k = _kernels(s)
    pairs = [Fraction(v).as_integer_ratio() for v in ab]
    ring = s.variant == "a2b"
    ops = [(k.circ, circ_legacy, pairs, ring), (k.add, add_legacy, pairs, False),
           (k.circ_inverse, circ_inverse_legacy, pairs[:1], ring),
           (k.add_inverse, add_inverse_legacy, pairs[:1], False)]
    for new, old, args, checked in ops:
        want = legacy_outcome(old, free, *ab[:len(args)])
        if checked and want[0] == "ok" and want[1] not in s.domain:
            want = "raised", DomainViolationError, f"{want[1]} is outside the domain"
        elif want[0] == "ok":
            want = "ok", want[1].as_integer_ratio(), tuple
        assert outcome(new, *args) == want, (new.__name__, args)


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
    # the witness prime 47 is the only prime below 50 that is not forbidden
    witness = spec("a2b", _SMALL_PRIMES[:-1], 1, prod(_SMALL_PRIMES[:-1]) + 1)
    assert axiom_sample_check(witness, 1, 20).passed
    with pytest.raises(InvalidSpecError, match=NO_PRIME_LEFT):
        dedekind_witness(witness, 47)
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
    kinds = set()
    for s in FORCED:
        for seed in (1, 2):
            report = axiom_sample_check(s, seed, 100)
            assert report == axiom_sample_check_legacy(s, seed, 100), (s, seed)
            if not report.passed:
                kinds.add(report.failure.split(" at ")[0].split(":")[0])
    assert kinds == {"circle associativity", "additive associativity", "distributivity", "closure"}


@pytest.mark.parametrize("seed", (1729, 5))
@pytest.mark.parametrize("p", (5, 7))
def test_witness_reports_match_legacy(p, seed):
    s = spec("a2b", (3,), 1, 4)
    assert dedekind_witness(s, p, seed=seed) == dedekind_witness_legacy(s, p, seed=seed)


def test_missing_circle_inverse_is_a_domain_violation():
    # with nothing forbidden, 4/3 is a member and 1 + kx = 1 - (3/4)(4/3) = 0
    s = forced("a2b", (), 1, 4)
    with pytest.raises(DomainViolationError, match="has no circle inverse"):
        circ_inverse(s, Fraction(4, 3))


def test_negative_sample_counts_are_rejected():
    s = spec("a2b", (3,), 1, 4)
    with pytest.raises(InvalidSpecError, match="non-negative"):
        axiom_sample_check(s, 1, -5)
    with pytest.raises(InvalidSpecError, match="non-negative"):
        dedekind_witness(s, 5, samples=-1)
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
