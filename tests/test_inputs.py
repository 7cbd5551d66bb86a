"""Hostile integers are refused at once, by the documented exception and a
one-line message: a message shows an int too long for str() by its sign and
bit length, and the explicit group constructors refuse an order above
TABLE_MAX_ORDER before they build anything.

argparse reads no int of more than 4300 digits, so ints that long reach these
messages only through library calls."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from skewbrace.braces import classify_substructure, lambda_semidirect
from skewbrace.enumeration import enumerate_all, enumerate_on_additive
from skewbrace.errors import (
    BadPrimeError,
    BoundExceededError,
    DomainViolationError,
    InvalidSpecError,
    OutOfCatalogError,
    SchemaError,
)
from skewbrace.families import two_power_brace
from skewbrace.groups import (
    automorphisms,
    catalog_group,
    catalog_size,
    cyclic_group,
    subgroup_closure,
    subgroup_lattice,
)
from skewbrace.rational import (
    LocalizedDomain,
    RationalBraceSpec,
    add,
    axiom_sample_check,
    circ,
    circ_inverse,
    dedekind_witness,
    lambda_apply,
    sample_elements,
    star_rat,
)
from skewbrace.series import analyze, is_dedekind
from skewbrace.ybe import SetSolution
from test_cli import SRC, cap_address_space

HUGE = 10**5000             # 16610 bits, beyond the 4300 digits str() prints
SHOWN = "<16610-bit integer>"
SPEC = RationalBraceSpec("a2b", LocalizedDomain((3,)), m1=1, m2=4)
G = cyclic_group(4)
B = two_power_brace(2)

HUGE_INTEGER_CASES = [
    (lambda: axiom_sample_check(SPEC, 1, -HUGE), InvalidSpecError,
     f"the sample count must be non-negative, got -{SHOWN}"),
    (lambda: axiom_sample_check(SPEC, 1, HUGE), BoundExceededError, "sample count exceeds bound 100000"),
    (lambda: dedekind_witness(SPEC, HUGE), BoundExceededError,
     f"witness prime {SHOWN} exceeds bound 1000000000000"),
    (lambda: dedekind_witness(SPEC, -HUGE), BadPrimeError, f"-{SHOWN} is not prime"),
    (lambda: LocalizedDomain((HUGE,)), BoundExceededError,
     f"forbidden prime {SHOWN} exceeds bound 1000000000000"),
    (lambda: LocalizedDomain((-HUGE,)), InvalidSpecError, f"forbidden set contains non-prime -{SHOWN}"),
    (lambda: sample_elements(SPEC, random.Random(1), numerator_bound=-HUGE), InvalidSpecError,
     f"the numerator bound must be non-negative, got -{SHOWN}"),
    (lambda: enumerate_all(HUGE), BoundExceededError, f"enumerate_all: order {SHOWN} exceeds bound 15"),
    (lambda: catalog_size(HUGE), BoundExceededError, f"catalog: order {SHOWN} exceeds bound 1024"),
    (lambda: catalog_size(-HUGE), OutOfCatalogError, f"no groups of order -{SHOWN}"),
    (lambda: analyze(B, bound=-HUGE), BoundExceededError, f"analyze: order 4 exceeds bound -{SHOWN}"),
    (lambda: is_dedekind(B, bound=-HUGE), BoundExceededError,
     f"is_dedekind: order 4 exceeds bound -{SHOWN}"),
    (lambda: subgroup_lattice(G, bound=-HUGE), BoundExceededError,
     f"subgroup_lattice: order 4 exceeds bound -{SHOWN}"),
    (lambda: automorphisms(G, bound=-HUGE), BoundExceededError,
     f"automorphisms: order 4 exceeds bound -{SHOWN}"),
    (lambda: enumerate_on_additive(G, bound=-HUGE), BoundExceededError,
     f"enumerate_on_additive: order 4 exceeds bound -{SHOWN}"),
    (lambda: lambda_semidirect(B, bound=-HUGE), BoundExceededError,
     f"lambda_semidirect: size 16 exceeds bound -{SHOWN}"),
    (lambda: catalog_group(4, HUGE), OutOfCatalogError,
     f"order 4 has catalog indices 0..1, got {SHOWN}"),
    (lambda: subgroup_closure(G, [HUGE]), ValueError, f"element {SHOWN} is outside 0..3"),
    (lambda: classify_substructure(B, [HUGE]), ValueError, f"element {SHOWN} is outside 0..3"),
    (lambda: SetSolution(-HUGE, [], []), SchemaError,
     f"bad or missing field 'size': expected a non-negative integer, got -{SHOWN}"),
    # the largest int str() prints is printed as it is, the next one is not
    (lambda: catalog_size(10**4300 - 1), BoundExceededError,
     f"catalog: order {10**4300 - 1} exceeds bound 1024"),
    (lambda: catalog_size(10**4300), BoundExceededError,
     "catalog: order <14285-bit integer> exceeds bound 1024"),
    # a fraction outside the domain, shown as its two ints are
    (lambda: circ(SPEC, Fraction(1, 3 * HUGE), 1), DomainViolationError,
     "1/<16612-bit integer> is outside the domain"),
    (lambda: circ_inverse(SPEC, Fraction(1, 3 * HUGE)), DomainViolationError,
     "1/<16612-bit integer> is outside the domain"),
    (lambda: add(SPEC, Fraction(HUGE, 3), 1), DomainViolationError,
     f"{SHOWN}/3 is outside the domain"),
    (lambda: lambda_apply(SPEC, Fraction(HUGE, 3), 1), DomainViolationError,
     f"{SHOWN}/3 is outside the domain"),
    (lambda: star_rat(SPEC, 1, Fraction(1, 3 * HUGE)), DomainViolationError,
     "1/<16612-bit integer> is outside the domain"),
]


@pytest.mark.parametrize("call, error, message", HUGE_INTEGER_CASES,
                         ids=[str(i) for i in range(len(HUGE_INTEGER_CASES))])
def test_a_huge_integer_is_refused_by_a_printable_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# Each call is timed in one fresh process under the 1 GB address-space cap
# of test_cli, so that a constructor that built its table anyway would fail
# there, not exhaust the machine.
CONSTRUCTOR_CHILD = """
import time
from skewbrace.errors import BoundExceededError
from skewbrace.groups import cyclic_group, dicyclic_group, dihedral_group, elementary_abelian_group
for build, args in ((cyclic_group, (10**8,)), (dihedral_group, (10**8,)),
                    (dicyclic_group, (10**8,)), (elementary_abelian_group, (2, 40))):
    start = time.perf_counter()
    try:
        build(*args)
    except BoundExceededError as exc:
        print(f"{time.perf_counter() - start:.4f} {exc}")
"""


def test_constructors_refuse_an_order_above_the_table_bound_at_once():
    done = subprocess.run([sys.executable, "-c", CONSTRUCTOR_CHILD],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=20, preexec_fn=cap_address_space)
    assert done.returncode == 0, done.stderr
    lines = [line.split(" ", 1) for line in done.stdout.splitlines()]
    assert [message for _, message in lines] == [
        "cyclic_group: order 100000000 exceeds bound 1024",
        "dihedral_group: order 200000000 exceeds bound 1024",
        "dicyclic_group: order 400000000 exceeds bound 1024",
        "elementary_abelian_group: order 1099511627776 exceeds bound 1024",
    ]
    assert all(float(seconds) < 0.1 for seconds, _ in lines)
