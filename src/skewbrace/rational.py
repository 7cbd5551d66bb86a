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

Elements are fractions.Fraction values; every operation checks membership of
its arguments and result.  Axioms are verified by seeded sampling, reported
as "pass at the confidence of k samples", never as proved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BadPrimeError, DomainViolationError, InvalidSpecError
from .groups import _is_prime, _prime_divisors

VARIANTS = ("a2a", "a2b", "c1", "c2")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class LocalizedDomain:
    """Fractions whose reduced denominator avoids the forbidden primes."""

    forbidden: tuple[int, ...]

    def __post_init__(self):
        primes = tuple(sorted(set(int(p) for p in self.forbidden)))
        for p in primes:
            if not _is_prime(p):
                raise InvalidSpecError(f"forbidden set contains non-prime {p}")
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
            from math import gcd

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
            dprimes = _prime_divisors(d)
            for p in s:
                if p not in dprimes:
                    raise InvalidSpecError(
                        f"forbidden prime {p} does not divide m2 - m1 = {d}: the"
                        " domain must be p-divisible for primes away from m1 - m2"
                    )
            if Fraction(self.m1, self.m2) not in self.domain:
                raise InvalidSpecError("m1/m2 must lie in the domain")
        if self.variant in ("c1", "c2"):
            if self.x is None:
                raise InvalidSpecError("c1/c2 require the distinguished element x")
            object.__setattr__(self, "x", Fraction(self.x))
            if self.x not in self.domain:
                raise InvalidSpecError("x must lie in the domain")
            if self.x == 0:
                raise InvalidSpecError("x must be non-zero")
            if _parity(self.x) == 0:
                raise InvalidSpecError(
                    "x must have no square root: its reduced numerator must be odd"
                )

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.m1, self.m2)


def _parity(q: Fraction) -> int:
    """Parity of the reduced numerator; the denominator is odd whenever 2 is
    forbidden, so this is the X -> X/2X coordinate."""
    return q.numerator % 2


def membership(spec: RationalBraceSpec, q) -> bool:
    return Fraction(q) in spec.domain


def _require(spec: RationalBraceSpec, *values) -> None:
    for v in values:
        if v not in spec.domain:
            raise DomainViolationError(f"{v} is outside the domain")


def circ(spec: RationalBraceSpec, a, b) -> Fraction:
    """The multiplicative operation of the variant."""
    a, b = Fraction(a), Fraction(b)
    _require(spec, a, b)
    if spec.variant == "a2a":
        out = a + b if _parity(a) == 0 else a - b
    elif spec.variant == "a2b":
        out = a + b - a * b + spec.ratio * a * b
    else:
        out = a + b
    _require(spec, out)
    return out


def circ_inverse(spec: RationalBraceSpec, a) -> Fraction:
    a = Fraction(a)
    _require(spec, a)
    if spec.variant == "a2a":
        out = -a if _parity(a) == 0 else a
    elif spec.variant == "a2b":
        den = 1 - a + spec.ratio * a
        assert den != 0, "circle inverse denominator cannot vanish in a valid spec"
        out = -a / den
    else:
        out = -a
    _require(spec, out)
    assert circ(spec, a, out) == 0
    return out


def add(spec: RationalBraceSpec, a, b) -> Fraction:
    """The additive operation of the variant."""
    a, b = Fraction(a), Fraction(b)
    _require(spec, a, b)
    if spec.variant == "c1":
        out = a + b if _parity(a) == 0 else a - b
    elif spec.variant == "c2":
        out = b + a if _parity(b) == 0 else b - a
    else:
        out = a + b
    _require(spec, out)
    return out


def add_inverse(spec: RationalBraceSpec, a) -> Fraction:
    a = Fraction(a)
    _require(spec, a)
    if spec.variant in ("c1", "c2"):
        out = a if _parity(a) == 1 else -a
    else:
        out = -a
    assert add(spec, a, out) == 0 == add(spec, out, a)
    return out


def lambda_apply(spec: RationalBraceSpec, a, b) -> Fraction:
    """lambda_a(b) = -a + (a o b), evaluated with the variant's operations."""
    return add(spec, add_inverse(spec, a), circ(spec, a, b))


def star_rat(spec: RationalBraceSpec, a, b) -> Fraction:
    """a * b = lambda_a(b) - b, evaluated with the variant's addition."""
    return add(spec, lambda_apply(spec, a, b), add_inverse(spec, b))


def sample_elements(
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


@dataclass
class SampleReport:
    variant: str
    samples: int
    passed: bool
    failure: str | None = None
    checks: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.passed:
            return (
                f"{self.variant}: pass at the confidence of {self.samples} samples"
            )
        return f"{self.variant}: FAIL after {self.samples} samples: {self.failure}"


def axiom_sample_check(spec: RationalBraceSpec, seed: int, count: int) -> SampleReport:
    """Sample `count` triples and check the group axioms of the circle
    operation (and of the addition for c1/c2), skew left distributivity and
    the lambda homomorphism law on each."""
    rng = random.Random(seed)
    checks = {"group_circ": 0, "group_add": 0, "distributivity": 0, "lambda_hom": 0}
    for i in range(count):
        a = sample_elements(spec, rng)
        b = sample_elements(spec, rng)
        c = sample_elements(spec, rng)
        try:
            if circ(spec, circ(spec, a, b), c) != circ(spec, a, circ(spec, b, c)):
                return SampleReport(spec.variant, i + 1, False, f"circle associativity at {(a, b, c)}", checks)
            if circ(spec, a, 0) != a or circ(spec, Fraction(0), a) != a:
                return SampleReport(spec.variant, i + 1, False, f"circle identity at {a}", checks)
            circ_inverse(spec, a)
            checks["group_circ"] += 1
            if add(spec, add(spec, a, b), c) != add(spec, a, add(spec, b, c)):
                return SampleReport(spec.variant, i + 1, False, f"additive associativity at {(a, b, c)}", checks)
            if add(spec, a, 0) != a or add(spec, Fraction(0), a) != a:
                return SampleReport(spec.variant, i + 1, False, f"additive identity at {a}", checks)
            add_inverse(spec, a)
            checks["group_add"] += 1
            lhs = circ(spec, a, add(spec, b, c))
            rhs = add(spec, add(spec, circ(spec, a, b), add_inverse(spec, a)), circ(spec, a, c))
            if lhs != rhs:
                return SampleReport(spec.variant, i + 1, False, f"distributivity at {(a, b, c)}", checks)
            checks["distributivity"] += 1
            if lambda_apply(spec, circ(spec, a, b), c) != lambda_apply(spec, a, lambda_apply(spec, b, c)):
                return SampleReport(spec.variant, i + 1, False, f"lambda homomorphism at {(a, b, c)}", checks)
            checks["lambda_hom"] += 1
        except DomainViolationError as exc:
            return SampleReport(spec.variant, i + 1, False, f"closure: {exc}", checks)
    return SampleReport(spec.variant, count, True, None, checks)


@dataclass(frozen=True)
class WitnessReport:
    """A sub-skew brace of an a2b brace that fails to be a left ideal."""

    prime: int
    violating: Fraction
    violating_in_domain: bool
    violating_in_y: bool
    subgroup_samples_ok: bool

    def describe(self) -> str:
        return (
            f"Y = {{multiples of {self.prime}}} is a sub-skew brace but"
            f" lambda_(1/{self.prime}^2)({self.prime}) = {self.violating} is not in Y:"
            " not a left ideal, so the brace is not Dedekind"
        )


def y_membership(spec: RationalBraceSpec, p: int, q) -> bool:
    """The witness sub-skew brace Y = pX: domain members with numerator
    divisible by p (the denominator is then automatically coprime to p)."""
    q = Fraction(q)
    return q in spec.domain and q.numerator % p == 0


def dedekind_witness(spec: RationalBraceSpec, p: int, samples: int = 200, seed: int = 1729) -> WitnessReport:
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
        y1 = p * sample_elements(spec, rng, numerator_bound=1000, exclude=(p,))
        y2 = p * sample_elements(spec, rng, numerator_bound=1000, exclude=(p,))
        if not (y_membership(spec, p, y1) and y_membership(spec, p, y2)):
            ok = False
            break
        if not y_membership(spec, p, y1 + y2) or not y_membership(spec, p, -y1):
            ok = False
            break
        if not y_membership(spec, p, circ(spec, y1, y2)):
            ok = False
            break
        if not y_membership(spec, p, circ_inverse(spec, y1)):
            ok = False
            break
    a = Fraction(1, p * p)
    violating = lambda_apply(spec, a, Fraction(p))
    expected = Fraction(p * p * spec.m2 - spec.m2 + spec.m1, spec.m2 * p)
    assert violating == expected, "closed form of the violating element disagrees"
    assert y_membership(spec, p, Fraction(p)) and a in spec.domain
    return WitnessReport(
        prime=p,
        violating=violating,
        violating_in_domain=violating in spec.domain,
        violating_in_y=y_membership(spec, p, violating),
        subgroup_samples_ok=ok,
    )
