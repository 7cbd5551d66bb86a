"""Exact-arithmetic skew braces on localized subgroups of the rationals.

The additive carrier is Z_P: fractions whose reduced denominator avoids a
finite forbidden prime set S.  Four variants are supported:

  a2a  circle is x o y = x + (-1)^phi(x) y with phi the numerator parity
       (requires 2 in S); kernel of lambda is 2X.
  a2b  circle is x o y = x + y - xy + (m1/m2) xy for a fixed fraction m1/m2
       (coprime, m2 > 0, m2 - m1 not in {0, 1, -1}, S inside the primes of
       m2 - m1 and nonempty); kernel of lambda is {0}.
  c1   circle is rational addition; the new addition is a + b for even
       numerator a and a - b otherwise (dihedral-style), kernel 2X.
  c2   the opposite of c1 (operand roles swapped), kernel {0}.

Arithmetic runs on reduced (numerator, denominator) int pairs, one table row of
four operations per variant.  Each operation reduces its result in line; a sum
takes the gcd of the two denominators first (Henrici), and when it is 1 the sum
is reduced as it stands.  Membership is tested on inputs and draws only
(element): a sum or a negation of members is a member, and the a2b spec's
preconditions make its circle results members too (_ring_ops).  So every
value is reduced once; the public functions take ints or Fractions and return
Fractions.  Axioms are verified by seeded sampling, drawn straight from
random.getrandbits by CPython's rejection rule, so a seed draws the elements
that randint and choice draw.  Each sample is one pass that computes each value
once, in a fixed order, and the verdict is reported as "pass at the confidence
of k samples", never as proved.  The a2b Dedekind witness samples nothing: its
preconditions prove that Y = pX is a sub-skew brace and that the one element
it computes, lambda_(1/p^2)(p), lies in the domain and outside Y.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod

from ._common import _is_prime, _printable
from .errors import BadPrimeError, BoundExceededError, DomainViolationError, InvalidSpecError

VARIANTS = ("a2a", "a2b", "c1", "c2")

# Largest forbidden or witness prime, checked before _is_prime runs: its trial
# division up to the square root takes about 0.1 s at this bound.  The square
# roots of the forbidden primes, which bound their trial divisions, may sum to
# at most isqrt(PRIME_MAX), so a forbidden list costs no more than one prime.
PRIME_MAX = 10**12

# Largest sample count of axiom_sample_check, checked before the first draw:
# at this bound one call takes about 1-2 s.
SAMPLE_MAX = 100_000

# Largest |m1| and m2 of an a2b spec, checked before any arithmetic.  Below it
# every integer a message or report prints stays far under the 4300 digits
# that str() of an int accepts: |m2 - m1| < 2*10^1000, and the numerator of the
# Dedekind witness is below p^2 m2 + |m1| for p <= PRIME_MAX.
M_MAX = 10**1000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class LocalizedDomain:
    """Fractions whose reduced denominator avoids the forbidden primes."""

    forbidden: tuple[int, ...]

    def __post_init__(self):
        primes = tuple(sorted(set(int(p) for p in self.forbidden)))
        if primes and primes[-1] > PRIME_MAX:
            raise BoundExceededError(f"forbidden prime {_printable(primes[-1])} exceeds bound {PRIME_MAX}")
        if sum(isqrt(p) for p in primes if p > 0) > isqrt(PRIME_MAX):
            raise BoundExceededError(f"forbidden primes: their square roots sum past bound {isqrt(PRIME_MAX)}")
        for p in primes:
            if not _is_prime(p):
                raise InvalidSpecError(f"forbidden set contains non-prime {_printable(p)}")
        object.__setattr__(self, "forbidden", primes)

    def __contains__(self, q) -> bool:
        q = Fraction(q)
        return all(q.denominator % p != 0 for p in self.forbidden)


@dataclass(frozen=True)
class RationalBraceSpec:
    """Parameters for one exact-rational brace variant, validated on build."""

    variant: str
    domain: LocalizedDomain
    m1: int | None = None
    m2: int | None = None
    x: Fraction | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidSpecError(f"variant must be one of {VARIANTS}")
        s = self.domain.forbidden
        if self.variant in ("a2a", "c1", "c2"):
            if 2 not in s:
                raise InvalidSpecError(
                    "the domain must not be 2-divisible: 2 must be forbidden"
                )
        if self.variant == "a2b":
            if self.m1 is None or self.m2 is None:
                raise InvalidSpecError("a2b requires m1 and m2")
            for name, m in (("|m1|", abs(self.m1)), ("m2", self.m2)):
                if m > M_MAX:
                    raise BoundExceededError(f"a2b: {name} exceeds bound 10^1000")
            if self.m1 == 0:
                raise InvalidSpecError("m1/m2 must be a non-zero rational")
            if self.m2 <= 0:
                raise InvalidSpecError("m2 > 0 is required")
            if gcd(self.m1, self.m2) != 1:
                raise InvalidSpecError("(m1, m2) = 1 is required")
            d = self.m2 - self.m1
            if d in (0, 1, -1):
                raise InvalidSpecError("m2 - m1 != 0, +1, -1 is required")
            if not s:
                raise InvalidSpecError(
                    "the forbidden set must be nonempty: the domain must not be"
                    " (m2-m1)-divisible"
                )
            for p in s:
                if d % p:
                    raise InvalidSpecError(
                        f"forbidden prime {p} does not divide m2 - m1 = {d}: the"
                        " domain must be p-divisible for primes away from m1 - m2"
                    )
            # A forbidden prime divides m2 - m1 and so, as (m1, m2) = 1, not
            # m2: m1/m2 lies in the domain.
        if self.variant in ("c1", "c2"):
            if self.x is None:
                raise InvalidSpecError("c1/c2 require the distinguished element x")
            object.__setattr__(self, "x", Fraction(self.x))
            if self.x not in self.domain:
                raise InvalidSpecError("x must lie in the domain")
            if self.x == 0:
                raise InvalidSpecError("x must be non-zero")
            if self.x.numerator % 2 == 0:
                raise InvalidSpecError(
                    "x must have no square root: its reduced numerator must be odd"
                )

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.m1, self.m2)


def _sum_ops(signed=False, swapped=False):
    """a + b, or signed, a + (-1)^phi(a) b with phi the numerator parity (the
    a2a circle, the c1 sum; swapped, b + (-1)^phi(b) a, the c2 sum), and its
    inverse.  A sum takes g = gcd(ad, bd) first (Henrici; Knuth, TAOCP 2,
    4.5.1): for g = 1 the sum of two reduced pairs is reduced as it stands,
    else only its gcd with g is left to divide out.  A negation keeps the
    reduced denominator, so it is reduced as it stands.

    No result is tested for membership: the reduced denominator of a sum or
    a negation divides ad * bd, or ad, so when a and b are members, whose
    denominators share no forbidden prime, so is the result, whatever the
    spec.  Every pair the kernels meet is a member: inputs and draws pass
    through element, the constants 0 and, in dedekind_witness, 1/p^2 and p
    (p not forbidden) are members, and every other pair is a kernel result,
    a member by this proof or by that of _ring_ops."""
    def add(a, b):
        if swapped:
            a, b = b, a
        (an, ad), (bn, bd) = a, b
        if signed and an % 2:
            bn = -bn
        g = gcd(ad, bd)
        if g == 1:
            n, d = an * bd + bn * ad, ad * bd
        else:
            s = ad // g
            n, d = an * (bd // g) + bn * s, s * bd
            g = gcd(n, g)
            n, d = n // g, d // g
        return n, d

    def neg(a):
        return a[0] if signed and a[0] % 2 else -a[0], a[1]

    return add, neg


def _ring_ops(spec: RationalBraceSpec):
    """a2b: x o y = x + y + kxy, k = (m1 - m2)/m2 reduced once; x^-1 = -x/(1 + kx).

    No result is tested for membership, as the spec's preconditions make every
    result of members a member.  RationalBraceSpec accepts an a2b spec only
    when gcd(m1, m2) = 1, S is nonempty and every forbidden p divides
    m2 - m1.  So k is kn/kd with kn = m1 - m2 and kd = m2, already reduced,
    and every forbidden p divides kn and not kd.  For members a = a0/a1 and
    b = b0/b1, and each forbidden p:

    - circ: the unreduced denominator a1 b1 kd is a product of three
      p-units, so the reduced one is too.
    - circ_inverse: the denominator kd a1 + kn a0 is kd a1 modulo p, a
      p-unit.  So it is not 0, as S is nonempty (1 + kx never vanishes), and
      the reduced denominator, which divides it, is a p-unit too."""
    kn, kd = Fraction(spec.m1 - spec.m2, spec.m2).as_integer_ratio()

    def circ(a, b):
        (an, ad), (bn, bd) = a, b
        n, d = (an * bd + bn * ad) * kd + kn * an * bn, ad * bd * kd
        g = gcd(n, d)
        return n // g, d // g

    def circ_inverse(a):
        n, d = -a[0] * kd, kd * a[1] + kn * a[0]
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        return n // g, d // g

    return circ, circ_inverse


# variant -> spec -> (circ, circ_inverse, add, add_inverse) on reduced pairs
_OPS = {
    "a2a": lambda spec: _sum_ops(signed=True) + _sum_ops(),
    "a2b": lambda spec: _ring_ops(spec) + _sum_ops(),
    "c1": lambda spec: _sum_ops() + _sum_ops(signed=True),
    "c2": lambda spec: _sum_ops() + _sum_ops(signed=True, swapped=True),
}
_Kernels = namedtuple("_Kernels", "element circ circ_inverse add add_inverse lam")


def _kernels(spec: RationalBraceSpec) -> _Kernels:
    """element(n, d) (n/d for d > 0 as a reduced pair, DomainViolationError
    unless it is a member), the spec's row of _OPS and lambda.  Every
    operation takes reduced pairs of members and reduces its result, a
    member, in line, once, as element would (_sum_ops, _ring_ops).  So
    element is the one membership test, the gate for inputs and draws."""
    modulus = prod(spec.domain.forbidden)

    def element(n, d):
        g = gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
        if gcd(d, modulus) != 1:
            # str(Fraction(n, d)), each int shown by _printable, so that a
            # refusal prints a fraction of any size
            shown = _printable(n) if d == 1 else f"{_printable(n)}/{_printable(d)}"
            raise DomainViolationError(f"{shown} is outside the domain")
        return n, d

    circ, circ_inverse, add, add_inverse = _OPS[spec.variant](spec)

    def lam(a, b):  # lambda_a(b) = -a + (a o b)
        return add(add_inverse(a), circ(a, b))

    return _Kernels(element, circ, circ_inverse, add, add_inverse, lam)


def _public(spec: RationalBraceSpec, run, *values) -> Fraction:
    """run(kernels, *pairs) on the values, each converted and checked, as a Fraction."""
    k, qs = _kernels(spec), [Fraction(v) for v in values]
    return Fraction(*run(k, *(k.element(q.numerator, q.denominator) for q in qs)))


def membership(spec: RationalBraceSpec, q) -> bool:
    return Fraction(q) in spec.domain


def circ(spec: RationalBraceSpec, a, b) -> Fraction:
    """The multiplicative operation of the variant."""
    return _public(spec, lambda k, a, b: k.circ(a, b), a, b)


def circ_inverse(spec: RationalBraceSpec, a) -> Fraction:
    return _public(spec, lambda k, a: k.circ_inverse(a), a)


def add(spec: RationalBraceSpec, a, b) -> Fraction:
    """The additive operation of the variant."""
    return _public(spec, lambda k, a, b: k.add(a, b), a, b)


def add_inverse(spec: RationalBraceSpec, a) -> Fraction:
    return _public(spec, lambda k, a: k.add_inverse(a), a)


def lambda_apply(spec: RationalBraceSpec, a, b) -> Fraction:
    """lambda_a(b) = -a + (a o b), evaluated with the variant's operations."""
    return _public(spec, lambda k, a, b: k.lam(a, b), a, b)


def star_rat(spec: RationalBraceSpec, a, b) -> Fraction:
    """a * b = lambda_a(b) - b, evaluated with the variant's addition."""
    return _public(spec, lambda k, a, b: k.add(k.lam(a, b), k.add_inverse(b)), a, b)


def _sampler(spec: RationalBraceSpec, rng, element, numerator_bound=10000, exclude=()):
    """sample_elements on reduced pairs, drawn straight from rng.getrandbits.
    Each draw follows CPython's rule for randrange(n) and for choice from n
    items: take k = n.bit_length() bits and redraw while the value is >= n.  So
    each seed draws the elements that randint(0, 3), choice(allowed) and
    randint(-N, N) draw, and leaves the generator in the same state."""
    allowed = [p for p in _SMALL_PRIMES if p not in spec.domain.forbidden and p not in exclude]
    if not allowed:
        raise InvalidSpecError("no prime below 50 is left to sample denominators from")
    if numerator_bound < 0:
        raise InvalidSpecError(
            f"the numerator bound must be non-negative, got {_printable(numerator_bound)}")
    getrandbits, m, w = rng.getrandbits, len(allowed), 2 * numerator_bound + 1
    km, kw = m.bit_length(), w.bit_length()

    def draw():
        while (r := getrandbits(3)) >= 4:
            pass
        den = 1
        for _ in range(r):
            while (i := getrandbits(km)) >= m:
                pass
            den *= allowed[i]
        while (n := getrandbits(kw)) >= w:
            pass
        return element(n - numerator_bound, den)

    return draw


def sample_elements(spec: RationalBraceSpec, rng: random.Random, numerator_bound: int = 10000,
                    exclude: tuple[int, ...] = ()) -> Fraction:
    """One pseudo-random domain element: numerator uniform in [-N, N],
    denominator a product of at most three allowed primes below 50."""
    return Fraction(*_sampler(spec, rng, _kernels(spec).element, numerator_bound, exclude)())


@dataclass
class SampleReport:
    variant: str
    samples: int
    passed: bool
    failure: str | None = None
    checks: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.passed:
            return f"{self.variant}: pass at the confidence of {self.samples} samples"
        return f"{self.variant}: FAIL after {self.samples} samples: {self.failure}"


def _fractions(*qs) -> tuple[Fraction, ...]:
    return tuple(Fraction(*q) for q in qs)


def axiom_sample_check(spec: RationalBraceSpec, seed: int, count: int) -> SampleReport:
    """Sample `count` triples and check the group axioms of the circle
    operation (and of the addition for c1/c2), skew left distributivity and
    the lambda homomorphism law on each.

    Each sample is one pass that computes each value once, in a fixed order.
    No value leaves the domain (_sum_ops, _ring_ops), so a failure names a
    law that fails.  A count above SAMPLE_MAX is refused by a message that does not print it, so
    that a count of any size is refused at once."""
    if count < 0:
        raise InvalidSpecError(f"the sample count must be non-negative, got {_printable(count)}")
    if count > SAMPLE_MAX:
        raise BoundExceededError(f"sample count exceeds bound {SAMPLE_MAX}")
    k = _kernels(spec)
    circ, circ_inverse, add, add_inverse = k.circ, k.circ_inverse, k.add, k.add_inverse
    zero = (0, 1)
    draw = _sampler(spec, random.Random(seed), k.element)
    checks = {"group_circ": 0, "group_add": 0, "distributivity": 0, "lambda_hom": 0}

    def failed(i, failure):
        return SampleReport(spec.variant, i + 1, False, failure, checks)

    for i in range(count):
        a, b, c = draw(), draw(), draw()
        ab = circ(a, b)
        abc = circ(ab, c)
        bc = circ(b, c)
        if abc != circ(a, bc):
            return failed(i, f"circle associativity at {_fractions(a, b, c)}")
        if circ(a, zero) != a or circ(zero, a) != a:
            return failed(i, f"circle identity at {Fraction(*a)}")
        if circ(a, circ_inverse(a)) != zero:
            return failed(i, f"circle inverse at {Fraction(*a)}")
        checks["group_circ"] += 1
        ab_c = add(add(a, b), c)
        b_c = add(b, c)
        if ab_c != add(a, b_c):
            return failed(i, f"additive associativity at {_fractions(a, b, c)}")
        if add(a, zero) != a or add(zero, a) != a:
            return failed(i, f"additive identity at {Fraction(*a)}")
        na = add_inverse(a)
        if not add(a, na) == zero == add(na, a):
            return failed(i, f"additive inverse at {Fraction(*a)}")
        checks["group_add"] += 1
        if circ(a, b_c) != add(add(ab, na), circ(a, c)):
            return failed(i, f"distributivity at {_fractions(a, b, c)}")
        checks["distributivity"] += 1
        # lambda_(a o b)(c) against lambda_a(lambda_b(c)), lambda_x(y) = -x + (x o y)
        if add(add_inverse(ab), abc) != add(na, circ(a, add(add_inverse(b), bc))):
            return failed(i, f"lambda homomorphism at {_fractions(a, b, c)}")
        checks["lambda_hom"] += 1
    return SampleReport(spec.variant, count, True, None, checks)


@dataclass(frozen=True)
class WitnessReport:
    """A sub-skew brace of an a2b brace that fails to be a left ideal."""

    prime: int
    violating: Fraction

    def describe(self) -> str:
        return (
            f"Y = {{multiples of {self.prime}}} is a sub-skew brace but"
            f" lambda_(1/{self.prime}^2)({self.prime}) = {self.violating} is not in Y:"
            " not a left ideal, so the brace is not Dedekind"
        )


def _check_prime(p: int) -> None:
    """Refuse p unless it is a prime up to PRIME_MAX, the bound first, as
    _is_prime's trial division grows with p."""
    if p > PRIME_MAX:
        raise BoundExceededError(f"witness prime {_printable(p)} exceeds bound {PRIME_MAX}")
    if not _is_prime(p):
        raise BadPrimeError(f"{_printable(p)} is not prime")


def y_membership(spec: RationalBraceSpec, p: int, q) -> bool:
    """The witness sub-skew brace Y = pX, p prime: domain members with
    numerator divisible by p (the denominator is then automatically coprime
    to p)."""
    _check_prime(p)
    q = Fraction(q)
    return q in spec.domain and q.numerator % p == 0


def dedekind_witness(spec: RationalBraceSpec, p: int) -> WitnessReport:
    """Exhibit the non-left-ideal Y = pX inside an a2b brace, X the members
    with p-free denominators.

    Requires p prime, not forbidden, and not dividing m2*(m1 - m2).  With
    k = (m1 - m2)/m2 and N = p^2 m2 - (m2 - m1), the witness is
    lambda_(1/p^2)(p) = p(1 + k/p^2) = N/(m2 p).  The preconditions prove
    what is left to check, so nothing is sampled:

    - The witness is in the domain.  gcd(N, m2) = gcd(m1, m2) = 1, and p does
      not divide N, as it does not divide m2 - m1.  So the reduced
      denominator is m2 p.  A forbidden prime divides m2 - m1, so not m2, and
      p is not forbidden.
    - The witness is not in Y: p does not divide N.
    - Y is a sub-skew brace: closed under +, -, o and the o-inverse.  k and
      1 + kx are p-units, so x + y, -x, x + y + kxy and -x/(1 + kx) keep p in
      their numerators.  And -x/(1 + kx) is a member (_ring_ops).
    """
    if spec.variant != "a2b":
        raise InvalidSpecError("the Dedekind witness is defined for variant a2b")
    _check_prime(p)
    if p in spec.domain.forbidden:
        raise BadPrimeError(f"{p} is a forbidden prime")
    if (spec.m2 * (spec.m1 - spec.m2)) % p == 0:
        raise BadPrimeError(f"{p} divides m2*(m1 - m2)")
    return WitnessReport(p, Fraction(*_kernels(spec).lam((1, p * p), (p, 1))))
