"""Relabelling invariance: a brace moved along a permutation σ of its index
set that fixes 0, and rebuilt by build_brace, is the same brace.  The greedy
generating sets that every check and search iterates change with the labels,
so each layer must give the σ-image of its answer on B, or the same count.

The braces are those of the `analyze` benchmark (bench/workloads.py), all of
order at most 64, each under three seeded relabellings.
"""

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from skewbrace import enumeration, families, groups
from skewbrace._common import _is_prime
from skewbrace.braces import build_brace, classify_substructure, sub_skew_braces
from skewbrace.enumeration import _brace_classes, are_isomorphic
from skewbrace.groups import catalog_group, catalog_size
from skewbrace.series import _lattice_supersoluble, analyze
from skewbrace.ybe import from_brace, multipermutation_level, retract
from test_kernels import relabel

ROOT = Path(__file__).resolve().parent.parent


def analyze_braces():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pkg = SimpleNamespace(families=families, groups=groups, enumeration=enumeration)
    return [B for _, B in workloads._analyze_inputs(pkg, False)]


def relabellings(n: int, rng: random.Random, count: int = 3):
    """count seeded permutations of 0..n-1 that fix 0."""
    rest = list(range(1, n))
    for _ in range(count):
        rng.shuffle(rest)
        yield [0, *rest]


@pytest.fixture(scope="module")
def relabelled():
    """(B, σ, σB) for each analyze brace and three σ with σ(0) = 0."""
    rng, cases = random.Random(24), []
    for B in analyze_braces():
        assert B.order <= 64
        for perm in relabellings(B.order, rng):
            C = build_brace(relabel(B.add, perm).table, relabel(B.mul, perm).table)
            cases.append((B, perm, C))
    assert len(cases) == 3 * 122
    return cases


def retract_sizes(sol):
    """The sizes of sol and its retractions, until a retraction keeps the size."""
    sizes = [sol.size]
    while True:
        sol, _ = retract(sol)
        if sol.size == sizes[-1]:
            return sizes
        sizes.append(sol.size)


def test_solution_is_the_image_and_keeps_its_retractions(relabelled):
    for B, s, C in relabelled:
        sol, image = from_brace(B), from_brace(C)
        n = B.order
        assert all(image.lambda_perms[s[x]][s[y]] == s[sol.lambda_perms[x][y]]
                   and image.rho_perms[s[y]][s[x]] == s[sol.rho_perms[y][x]]
                   for x in range(n) for y in range(n)), B
        assert multipermutation_level(image) == multipermutation_level(sol), B
        assert retract_sizes(image) == retract_sizes(sol), B


def test_isomorphism_found_preserves_both_tables(relabelled):
    for B, _, C in relabelled:
        cert = are_isomorphic(B, C)
        f, n = cert.bijection, B.order
        assert cert.isomorphic and sorted(f) == list(range(n)), B
        for src, dst in ((B.add.table, C.add.table), (B.mul.table, C.mul.table)):
            assert all(f[src[a][b]] == dst[f[a]][f[b]] for a in range(n) for b in range(n)), B


def test_supersoluble_chain_is_valid_on_the_relabelled_brace(relabelled):
    # The chain is a certificate that depends on the labels (AnalysisReport):
    # only whether it exists is compared with B, and the chain itself is
    # checked against the definition.
    found = 0
    for B, _, C in relabelled:
        ok, chain = _lattice_supersoluble(C, sub_skew_braces(C))
        assert ok == _lattice_supersoluble(B, sub_skew_braces(B))[0], B
        if not ok:
            assert chain is None
            continue
        found += 1
        assert chain[0] == (0,) and chain[-1] == tuple(range(C.order)), B
        for lower, upper in zip(chain, chain[1:]):
            index, rest = divmod(len(upper), len(lower))
            assert set(lower) < set(upper) and rest == 0 and _is_prime(index), B
        assert all(classify_substructure(C, term).is_ideal for term in chain), B
    assert found > 0


def test_analyze_report_is_the_image_but_for_its_certificates(relabelled):
    # ker_lambda, socle and centre move with the labels; the Dedekind witness
    # is a least non-ideal of the same size; every other field is equal.
    for B, s, C in relabelled:
        want, got = analyze(B).to_dict(), analyze(C).to_dict()
        for name in ("ker_lambda", "socle", "centre"):
            assert sorted(s[x] for x in want.pop(name)) == got.pop(name), (B, name)
        w, v = (d.pop("dedekind_witness") for d in (want, got))
        want.pop("supersoluble_chain_sizes"), got.pop("supersoluble_chain_sizes")
        assert got == want, B
        assert (w is None) == (v is None), B
        if v is not None:
            sub = classify_substructure(C, v)
            assert len(v) == len(w) and sub.is_sub_brace and not sub.is_ideal, B


def test_class_counts_of_relabelled_catalog_groups():
    rng, checked = random.Random(12), 0
    for n in range(4, 13):
        for i in range(catalog_size(n)):
            G = catalog_group(n, i)
            want = _brace_classes(G)
            (perm,) = relabellings(n, rng, 1)
            classes, labelled = _brace_classes(relabel(G, perm))
            assert (len(classes), labelled) == (len(want[0]), want[1]), (n, i)
            checked += 1
    assert checked == sum(catalog_size(n) for n in range(4, 13))
