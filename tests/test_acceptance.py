"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
All checks are exact (no numeric tolerances anywhere).
"""

import time
from fractions import Fraction

import pytest

from legacy_oracles import all_group_tables, brute_force_brace_count
from skewbrace.braces import (
    brace_closure,
    classify_substructure,
    induced_sub_brace,
    is_bi_skew,
    lambda_semidirect,
    socle_and_centre,
    sub_skew_braces,
    three_of_four_ideal,
)
from skewbrace.enumeration import _brace_classes, enumerate_all, enumerate_on_additive
from skewbrace.families import (
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    two_power_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_isomorphism,
    quaternion_group,
    subgroup_closure,
    subgroup_lattice,
)
from skewbrace.rational import (
    LocalizedDomain,
    RationalBraceSpec,
    add,
    add_inverse,
    axiom_sample_check,
    circ,
    circ_inverse,
    dedekind_witness,
    lambda_apply,
    sample_elements,
    y_membership,
)
from skewbrace.series import (
    is_dedekind,
    is_supersoluble,
    upper_central_series,
    upper_socle_series,
)
from skewbrace.ybe import (
    build_solution,
    from_brace,
    multipermutation_level,
    predicates,
    retract,
    twist_solution,
)


def _report(number: int, title: str, failures: list, started: float) -> None:
    verdict = "PASS" if not failures else "FAIL"
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number:>2} [{verdict}] {title} ({elapsed:.1f}s)")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {number}: {failures}"


def _constructed_extras():
    return [
        two_power_brace(4),          # order 16, cyclic additive group
        odd_p_cyclic_brace(3, 3),    # order 27, both groups cyclic
        odd_p_nonabelian_brace(3, 2) # order 27, nonabelian groups
    ]


def test_criterion_01_dedekind_implies_centrally_nilpotent(corpus):
    started = time.time()
    failures = []
    pool = [B for order in range(1, 13) for B in corpus(order)]
    pool += _constructed_extras()
    checked = 0
    for B in pool:
        dedekind, _ = is_dedekind(B)
        if not dedekind:
            continue
        checked += 1
        chain = upper_central_series(B)
        if not chain.terminal:
            failures.append(f"dedekind brace of order {B.order} is not centrally nilpotent")
    if checked < 20:
        failures.append(f"only {checked} Dedekind braces found, corpus looks wrong")
    _report(1, f"Dedekind => centrally nilpotent ({checked} braces, orders <=12 +16+27)", failures, started)


# Dedekind classes on each group of order 16; 122 of the 186 have a
# non-abelian additive group, the case the abelian-type results leave open.
DEDEKIND_16 = {"Z16": 8, "Z8xZ2": 22, "Z4xZ4": 14, "Z4xZ2^2": 17, "Z2^4": 3,
               "D16": 4, "Q16": 4, "SD16": 0, "M16": 14, "Z4:Z4": 24, "Z2^2:Z4": 2,
               "D4xZ2": 12, "Q8xZ2": 38, "Pauli": 24}


def test_criterion_01_dedekind_implies_centrally_nilpotent_at_order_16(order_16_groups,
                                                                       order_16_classes):
    started = time.time()
    failures, dedekind, classes = [], {}, 0
    for name in order_16_groups:
        reps = order_16_classes(name)[0]
        classes += len(reps)
        found = [B for B in reps if is_dedekind(B)[0]]
        dedekind[name] = len(found)
        failures += [f"dedekind brace on {name} is not centrally nilpotent"
                     for B in found if not upper_central_series(B).terminal]
    if (classes, dedekind) != (1605, DEDEKIND_16):
        failures.append(f"{classes} classes with Dedekind counts {dedekind}")
    non_abelian = sum(c for name, c in dedekind.items()
                      if not order_16_groups[name].is_abelian())
    if (sum(dedekind.values()), non_abelian) != (186, 122):
        failures.append(f"{sum(dedekind.values())} Dedekind classes, {non_abelian} of non-abelian type")
    _report(1, f"Dedekind => centrally nilpotent at order 16 ({sum(dedekind.values())} of"
            f" {classes} classes, {non_abelian} of non-abelian type)", failures, started)


# (classes, Dedekind, centrally nilpotent, Dedekind of non-abelian type) on
# P x Q for a 2-group P and an odd prime order Q: the Dedekind and centrally
# nilpotent counts are the products of those on the factors.
COMPOSITE = {("Q8", "Z3"): (24, 8, 8, 8), ("D4", "Z3"): (41, 5, 12, 5),
             ("D4", "Z5"): (46, 5, 12, 5), ("Z4", "Z5"): (6, 2, 2, 0)}
FACTORS = {"Q8": quaternion_group(), "D4": dihedral_group(4), "Z4": cyclic_group(4),
           "Z3": cyclic_group(3), "Z5": cyclic_group(5)}
FACTOR_COUNTS = {"Q8": (8, 8), "D4": (5, 12), "Z4": (2, 2), "Z3": (1, 1), "Z5": (1, 1)}


def test_criterion_01_dedekind_implies_centrally_nilpotent_at_composite_orders():
    started = time.time()
    failures = []

    def counts(G):
        classes = _brace_classes(G, bound=G.order)[0]
        dedekind = [B for B in classes if is_dedekind(B)[0]]
        nilpotent = [B for B in classes if upper_central_series(B).terminal]
        failures.extend(f"dedekind brace on a group of order {G.order} is not centrally nilpotent"
                        for B in dedekind if B not in nilpotent)
        return len(classes), len(dedekind), len(nilpotent), sum(not B.is_abelian_type()
                                                                 for B in dedekind)

    factor = {name: counts(G)[1:3] for name, G in FACTORS.items()}
    if factor != FACTOR_COUNTS:
        failures.append(f"(Dedekind, centrally nilpotent) on the factors: {factor}")
    for (p, q), expected in COMPOSITE.items():
        got = counts(direct_product(FACTORS[p], FACTORS[q]))
        if got != expected:
            failures.append(f"{p}x{q}: {got} != {expected}")
        if got[1:3] != tuple(a * b for a, b in zip(factor[p], factor[q])):
            failures.append(f"{p}x{q}: counts {got[1:3]} are not those of {p} times those of {q}")
    non_abelian = sum(c[3] for c in COMPOSITE.values())
    _report(1, f"Dedekind => centrally nilpotent at orders 20-40 ({non_abelian} Dedekind"
            " classes of non-abelian type)", failures, started)


def test_criterion_02_prime_power_cyclic_implies_dedekind(corpus):
    started = time.time()
    failures = []
    pool = [B for order in (4, 8, 9) for B in corpus(order)]
    pool.append(odd_p_cyclic_brace(3, 3))
    checked = 0
    for B in pool:
        if not (B.add.is_cyclic() or B.mul.is_cyclic()):
            continue
        checked += 1
        ok, witness = is_dedekind(B)
        if not ok:
            failures.append(
                f"order {B.order} brace with a cyclic group is not Dedekind,"
                f" witness {list(witness.elements)}"
            )
    _report(2, f"cyclic group + prime power order => Dedekind ({checked} braces)", failures, started)


def test_criterion_03_odd_prime_power_cyclic_partner(corpus):
    started = time.time()
    failures = []
    pool = list(corpus(9)) + [odd_p_cyclic_brace(3, 3), odd_p_nonabelian_brace(3, 2)]
    checked = 0
    for B in pool:
        add_cyc, mul_cyc = B.add.is_cyclic(), B.mul.is_cyclic()
        if not (add_cyc or mul_cyc):
            continue
        checked += 1
        if not (add_cyc and mul_cyc):
            failures.append(f"order {B.order}: one group cyclic but not the other")
            continue
        n = B.order
        add_gens = {a for a in range(n) if B.add.element_orders[a] == n}
        mul_gens = {a for a in range(n) if B.mul.element_orders[a] == n}
        if add_gens != mul_gens:
            failures.append(f"order {B.order}: generator sets differ")
    _report(3, f"odd prime power: cyclic partner + equal generator sets ({checked} braces)", failures, started)


def test_criterion_04_cyclic_implies_supersoluble(corpus):
    started = time.time()
    failures = []
    checked = 0
    for order in (4, 6, 8, 9, 12):
        for B in corpus(order):
            if B.add.is_cyclic() or B.mul.is_cyclic():
                checked += 1
                ok, chain = is_supersoluble(B)
                if not ok:
                    failures.append(f"order {order} brace with cyclic group not supersoluble")
                else:
                    sizes = [len(c) for c in chain]
                    for small, big in zip(sizes, sizes[1:]):
                        if big % small != 0 or big // small not in (2, 3, 5, 7, 11):
                            failures.append(f"order {order}: non-prime factor in certificate")
    # The order-3-ideal check covers the braces arising in the source claim:
    # order 6 or 12 with a cyclic group.  Unscoped it is false at order 12
    # (braces built on the alternating group have no order-3 ideal).
    for order in (6, 12):
        for B in corpus(order):
            if not (B.add.is_cyclic() or B.mul.is_cyclic()):
                continue
            ideals3 = [
                s for s in sub_skew_braces(B) if s.size == 3 and s.is_ideal
            ]
            if not ideals3:
                failures.append(f"order {order} brace without an ideal of order 3")
    _report(4, f"cyclic group => supersoluble ({checked} braces); cyclic orders 6/12 have an order-3 ideal", failures, started)


def test_criterion_05_sign_and_odd_cyclic_families():
    started = time.time()
    failures = []
    for n in (1, 2, 3):
        B = odd_p_cyclic_brace(3, n)
        chain = upper_socle_series(B)
        if not (chain.terminal and chain.length == n):
            failures.append(f"odd_p_cyclic(3,{n}): level {chain.length} != {n}")
        if not is_dedekind(B)[0]:
            failures.append(f"odd_p_cyclic(3,{n}): not Dedekind")
        # bi-skew exactly for n <= 2; the n = 3 witness (1,1,1) is checked below
        if is_bi_skew(B) != (n <= 2):
            failures.append(f"odd_p_cyclic(3,{n}): is_bi_skew is {not n <= 2}, expected {n <= 2}")
    # B is now odd_p_cyclic_brace(3, 3); its swapped axiom
    # a + (b o c) = (a + b) o a^-1 o (a + c) fails at a = b = c = 1,
    # straight from a o b = a + b + 3ab mod 27: 6 on the left, 24 on the right
    def circ27(x, y):
        return (x + y + 3 * x * y) % 27
    inv1 = next(x for x in range(27) if circ27(1, x) == 0)
    lhs, rhs = (1 + circ27(1, 1)) % 27, circ27(circ27(2, inv1), 2)
    if (inv1, lhs, rhs) != (20, 6, 24):
        failures.append(f"odd_p_cyclic(3,3): witness (1,1,1) gives inverse {inv1}, sides {lhs} and {rhs}")
    if any(B.circ(x, y) != circ27(x, y) for x in range(27) for y in range(27)):
        failures.append("odd_p_cyclic(3,3): multiplication is not a + b + 3ab")
    b8 = two_power_brace(3)
    soc = upper_socle_series(b8)
    if not (soc.terminal and soc.length == 2):
        failures.append("two_power(3): second socle term is not everything")
    # central class pinned to the iterated-centre oracle (chain of length 3)
    ucs = upper_central_series(b8)
    oracle_sizes = _centre_chain_sizes_oracle(b8)
    if ucs.sizes() != oracle_sizes:
        failures.append(f"two_power(3): central series {ucs.sizes()} != oracle {oracle_sizes}")
    if not (ucs.terminal and ucs.length == 3):
        failures.append(f"two_power(3): central class {ucs.length} != pinned oracle value 3")
    _report(5, "sign/odd-cyclic families: level n, Dedekind, bi-skew exactly for n ≤ 2; two_power(3) class pinned to 3", failures, started)


def _centre_chain_sizes_oracle(B):
    chain = [frozenset({0})]
    while True:
        z = chain[-1]
        nxt = frozenset(
            a for a in range(B.order)
            if all(
                B.star(a, b) in z
                and B.add.commutator(a, b) in z
                and B.mul.commutator(a, b) in z
                for b in range(B.order)
            )
        )
        if nxt == z:
            return tuple(len(c) for c in chain)
        chain.append(nxt)


def test_criterion_06_nonabelian_order_27():
    started = time.time()
    failures = []
    B = odd_p_nonabelian_brace(3, 2)
    if B.order != 27:
        failures.append("order is not 27")
    if B.add.is_abelian() or B.mul.is_abelian():
        failures.append("groups are abelian")
    if group_isomorphism(B.add, B.mul) is None:
        failures.append("additive and multiplicative groups not isomorphic")
    chain = upper_central_series(B)
    if not (chain.terminal and chain.length == 2):
        failures.append(f"central class {chain.length} != 2")
    centre = socle_and_centre(B)[2]
    if centre.size != 3:
        failures.append(f"|Z(B)| = {centre.size} != 3")
    if not is_dedekind(B)[0]:
        failures.append("not Dedekind")
    _report(6, "nonabelian order-27 family: class 2, |Z|=3, Dedekind", failures, started)


def test_criterion_07_generation_and_three_of_four(corpus):
    started = time.time()
    failures = []
    pool = [B for order in range(1, 9) for B in corpus(order)]
    for B in pool:
        for b in range(B.order):
            if B.star(b, b) != 0:
                continue
            add_cl = set(subgroup_closure(B.add, [b]))
            mul_cl = set(subgroup_closure(B.mul, [b]))
            full = set(brace_closure(B, [b]))
            if not (add_cl == mul_cl == full):
                failures.append(f"order {B.order}: closures of square-zero {b} differ")
                continue
            sub, _ = induced_sub_brace(B, full)
            if not sub.is_trivial():
                failures.append(f"order {B.order}: sub-brace of square-zero {b} not trivial")
        subsets = {s for s in subgroup_lattice(B.add)}
        subsets.update(subgroup_lattice(B.mul))
        for s in subsets:
            ok, held = three_of_four_ideal(B, s)
            if ok and not classify_substructure(B, s).is_ideal:
                failures.append(f"order {B.order}: three-of-four {held} on {sorted(s)} but not an ideal")
    _report(7, f"square-zero generation + three-of-four => ideal (orders <=8, {len(pool)} braces)", failures, started)


def test_criterion_08_semidirect_commutator_identity(corpus):
    started = time.time()
    failures = []
    pool = [B for order in range(1, 10) for B in corpus(order)]
    for B in pool:
        n = B.order
        G = lambda_semidirect(B)
        for a in range(n):
            for b in range(n):
                left = G.commutator(a * n, b)
                if left != B.star(a, b):
                    failures.append(f"order {n}: commutator != star at ({a},{b})")
    _report(8, f"[(0,a),(b,0)] = (a*b, 0) exhaustively ({len(pool)} braces, orders <=9)", failures, started)


def test_criterion_09_ybe_suite(corpus):
    started = time.time()
    failures = []
    pool = [B for order in range(1, 13) for B in corpus(order)]
    for B in pool:
        sol = from_brace(B)
        try:
            build_solution(sol.lambda_perms, sol.rho_perms)
        except Exception as exc:
            failures.append(f"order {B.order}: r_B fails validation: {exc}")
            continue
        if predicates(sol).involutive != B.add.is_abelian():
            failures.append(f"order {B.order}: involutive != abelian type")
    for n in (1, 2, 3, 5, 8):
        expected = 0 if n == 1 else 1
        if multipermutation_level(twist_solution(n)) != expected:
            failures.append(f"twist({n}): level != {expected}")
    for p, n, brace in (("b9", 2, odd_p_cyclic_brace(3, 2)), ("b8", 2, two_power_brace(3))):
        sol = from_brace(brace)
        steps = 0
        cur = sol
        while cur.size > 1:
            nxt, _ = retract(cur)
            if nxt.size == cur.size:
                steps = None
                break
            cur = nxt
            steps += 1
        if steps != n or multipermutation_level(sol) != n:
            failures.append(f"{p}: level != {n} (direct iteration gave {steps})")
    _report(9, f"YBE suite over {len(pool)} braces: braid, involutive<=>abelian, levels", failures, started)


def test_criterion_10_enumeration_cross_checks(corpus):
    started = time.time()
    failures = []
    for order in range(1, 7):
        tables = all_group_tables(order)
        brute = sum(brute_force_brace_count(t, tables) for t in tables)
        searched = sum(len(enumerate_on_additive(FiniteGroup(t))) for t in tables)
        if brute != searched:
            failures.append(f"order {order}: brute-force {brute} != search {searched}")
    result = enumerate_all(8)
    if result.total_classes() < 39:
        failures.append(f"order 8: {result.total_classes()} classes < 39")
    bad = [k for k in result.counts if k == ("Z2xZ2xZ2", "Z8")]
    if bad:
        failures.append("order 8: found elementary-abelian-additive, cyclic-multiplicative brace")
    _report(
        10,
        f"enumeration: brute-force match (orders <=6), order 8 has {result.total_classes()} classes,"
        " none elab-additive cyclic-multiplicative",
        failures,
        started,
    )


def test_criterion_11_rational_braces():
    started = time.time()
    failures = []
    import random

    specs = {
        "a2a": RationalBraceSpec("a2a", LocalizedDomain((2,))),
        "a2b": RationalBraceSpec("a2b", LocalizedDomain((3,)), m1=1, m2=4),
        "c1": RationalBraceSpec("c1", LocalizedDomain((2,)), x=Fraction(1)),
        "c2": RationalBraceSpec("c2", LocalizedDomain((2,)), x=Fraction(1)),
    }
    for name, spec in specs.items():
        report = axiom_sample_check(spec, seed=42, count=10_000)
        if not report.passed:
            failures.append(f"{name}: {report.failure}")
    rng = random.Random(99)
    probes = [sample_elements(specs["a2a"], rng) for _ in range(12)]
    for _ in range(400):
        a = sample_elements(specs["a2a"], rng)
        if all(lambda_apply(specs["a2a"], a, b) == b for b in probes) != (a.numerator % 2 == 0):
            failures.append(f"a2a: kernel is not 2X at {a}")
            break
    for _ in range(400):
        a = sample_elements(specs["a2b"], rng)
        if a != 0 and lambda_apply(specs["a2b"], a, 1) == 1:
            failures.append(f"a2b: kernel contains {a} != 0")
            break
    for _ in range(400):
        a = sample_elements(specs["c1"], rng)
        if all(lambda_apply(specs["c1"], a, b) == b for b in probes) != (a.numerator % 2 == 0):
            failures.append(f"c1: kernel is not 2X at {a}")
            break
    odd_probe = next(b for b in probes if b.numerator % 2 == 1)
    for _ in range(400):
        a = sample_elements(specs["c2"], rng)
        if a != 0 and lambda_apply(specs["c2"], a, odd_probe) == odd_probe:
            failures.append(f"c2: kernel contains {a} != 0")
            break
    witness = dedekind_witness(specs["a2b"], 5)
    if witness.violating != Fraction(97, 20):
        failures.append(f"witness {witness.violating} != 97/20")
    # the proofs of dedekind_witness: the reduced denominator is m2 p, so the
    # witness is in the domain, and p does not divide its numerator, so it is
    # not in Y
    if witness.violating.denominator != 4 * 5 or witness.violating.numerator % 5 == 0:
        failures.append("witness element membership wrong")
    # and Y = 5X is closed under +, -, o and the o-inverse, as k = -3/4 and
    # 1 + ky are 5-units for y in Y
    a2b = specs["a2b"]
    for _ in range(200):
        y1, y2 = (5 * sample_elements(a2b, rng, 1000, (5,)) for _ in range(2))
        if not all(y_membership(a2b, 5, y) for y in (add(a2b, y1, y2), add_inverse(a2b, y1),
                                                   circ(a2b, y1, y2), circ_inverse(a2b, y1))):
            failures.append(f"Y is not closed at {(y1, y2)}")
            break
    _report(11, "rational braces: 10^4-sample axioms, kernels, 97/20 witness", failures, started)
