"""The four benchmark workloads: inputs made during set-up, and the CLI ops run on them.

Every op is one ``skewbrace`` command line.  ``$WORK`` in an op stands for the
run's work directory and ``$SEED`` for a fresh per-execution seed drawn from the
benchmark seed, so an op's text is also its key in ``reference.json``.  Each
workload has a main op list, run in seeded order once per pass, and a tiny op
list that serves as warm-up and as the self-check's fast mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    out: str | None = None      # file or directory the op writes, digested against the reference

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object               # (package, work_dir, tiny) -> (main ops, tiny ops)
    nominal_pass_s: float       # about one pass of the main ops; sets the passes per run


TINY_ANALYZE = ("enum04_00", "two_power_n4", "trivial_D6")


def _analyze_inputs(pkg, tiny: bool):
    fam, grp = pkg.families, pkg.groups
    for order in (4,) if tiny else (4, 6, 8, 9, 10, 12, 14):
        for i, brace in enumerate(pkg.enumeration.enumerate_all(order).classes):
            yield f"enum{order:02d}_{i:02d}", brace
    for n in (4,) if tiny else (4, 5, 6):
        yield f"two_power_n{n}", fam.two_power_brace(n)
    if not tiny:
        for p, n in ((3, 2), (3, 3), (5, 2)):
            yield f"odd_p_cyclic_{p}_{n}", fam.odd_p_cyclic_brace(p, n)
        yield "odd_p_nonabelian_3_2", fam.odd_p_nonabelian_brace(3, 2)
    bases = [("D6", grp.dihedral_group(6))]
    if not tiny:
        bases.append(("Z2^4", grp.elementary_abelian_group(2, 4)))
    for gname, G in bases:
        yield f"trivial_{gname}", fam.trivial_brace(G)
        yield f"almost_trivial_{gname}", fam.almost_trivial_brace(G)


def setup_analyze(pkg, work: str, tiny: bool):
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    ops, tiny_ops = [], []
    for name, brace in _analyze_inputs(pkg, tiny):
        pkg.storage.save_brace(brace, os.path.join(work, "inputs", f"{name}.json"))
        ops.append(Op(("analyze", f"$WORK/inputs/{name}.json", "--format", "json")))
        if name in TINY_ANALYZE:
            tiny_ops.append(ops[-1])
    return ops, tiny_ops


def _enumerate_op(order: int, *extra: str) -> Op:
    tag = "-".join([str(order)] + [e.strip("-") for e in extra])
    out = f"$WORK/out/enumerate-{tag}"
    return Op(("enumerate", "--order", str(order), *extra, "--format", "json", "--out", out), out)


def setup_enumerate(pkg, work: str, tiny: bool):
    ops = [_enumerate_op(n) for n in range(4, 16)]
    ops += [_enumerate_op(n, "--additive", "elab", "--up-to-iso") for n in (4, 8, 9)]
    return ops, [ops[0], ops[1], ops[-3]]


# (family, p, n) for the builders with parameters, (family, group file) for the rest.
# Orders 32 and 49 are built by the set-up for the braid checks below; building
# them here too would put two more millisecond ops under the median.
CONSTRUCT = (
    ("two_power", None, 6), ("two_power", None, 7), ("two_power", None, 8),
    ("odd_p_cyclic", 3, 3), ("odd_p_cyclic", 3, 4), ("odd_p_cyclic", 5, 3),
    ("odd_p_nonabelian", 3, 2),
    ("trivial", "Z3^4"), ("almost_trivial", "D32"),
)
# Braces whose attached solution is checked by `ybe from-brace` and `ybe level`.
# Order 128 is left out: its two braid checks take about 3 s each, which would
# leave room for a single pass per run.  The three braces of order 81 cost the same
# braid check each, so the tail rank of a run (its 11th slowest op, after the
# two order-256 constructions of two passes) falls inside a group of 12
# like-sized ops instead of on the edge of a small one.  Of the 29 ops of a
# pass, 12 take under 0.1 s and the next five (the order-125 construction and
# the four braid checks at order 49) take about 0.2 s, so the median of two
# passes falls in the middle of those ten ops rather than on the edge of a gap.
SOLUTIONS = (
    ("two_power", None, 5), ("two_power", None, 6),
    ("odd_p_cyclic", 3, 3), ("odd_p_cyclic", 7, 2), ("odd_p_cyclic", 3, 4),
    ("odd_p_nonabelian", 3, 2), ("trivial", "Z49"),
    ("almost_trivial", "D32"), ("trivial", "Z3^4"), ("trivial", "Z9xZ9"),
)
TINY_ORDER = 27


def _groups(pkg) -> dict:
    """Base groups of the trivial and almost-trivial braces: name -> (order, builder)."""
    grp = pkg.groups
    return {"Z49": (49, lambda: grp.cyclic_group(49)),
            "D32": (64, lambda: grp.dihedral_group(32)),
            "Z3^4": (81, lambda: grp.elementary_abelian_group(3, 4)),
            "Z9xZ9": (81, lambda: grp.direct_product(grp.cyclic_group(9), grp.cyclic_group(9)))}


def _tag(spec) -> str:
    return "_".join(str(x) for x in spec if x is not None)


def _order(spec, groups) -> int:
    family, a, *rest = spec
    if family == "two_power":
        return 2 ** rest[0]
    if family == "odd_p_cyclic":
        return a ** rest[0]
    if family == "odd_p_nonabelian":
        return a ** (rest[0] + 1)
    return groups[a][0]


def _solution_doc(pkg, B):
    # The solution attached to B, r(a, b) = (lam_a(b), lam_a(b)^-1 o a o b), written
    # without the braid check so that set-up stays cheap; `ybe level` checks it.
    n, mt, minv = B.order, B.mul.table, B.mul.inverse
    rho = tuple(tuple(mt[mt[minv[B.lam[x][y]]][x]][y] for x in range(n)) for y in range(n))
    return pkg.ybe.SetSolution(n, B.lam, rho)


def setup_ybe_large(pkg, work: str, tiny: bool):
    groups = _groups(pkg)
    for d in ("groups", "inputs"):
        os.makedirs(os.path.join(work, d), exist_ok=True)
    for name, (order, make) in groups.items():
        if not tiny or order == TINY_ORDER:
            pkg.storage.save_group(make(), os.path.join(work, "groups", f"{name}.json"))
    ops, tiny_ops = [], []
    for spec in CONSTRUCT:
        if tiny and _order(spec, groups) != TINY_ORDER:
            continue
        out = f"$WORK/out/{_tag(spec)}.json"
        if len(spec) == 3:
            family, p, n = spec
            params = (("--p", str(p)) if p is not None else ()) + ("--n", str(n))
        else:
            family, params = spec[0], ("--group", f"$WORK/groups/{spec[1]}.json")
        ops.append(Op(("construct", "--family", family, *params, "--out", out), out))
        if _order(spec, groups) == TINY_ORDER:
            tiny_ops.append(ops[-1])
    for spec in SOLUTIONS:
        if tiny and _order(spec, groups) != TINY_ORDER:
            continue
        family = spec[0]
        if len(spec) == 3:
            B = pkg.families.build_family(family, p=spec[1], n=spec[2])
        else:
            B = pkg.families.build_family(family, group=groups[spec[1]][1]())
        brace_path = f"inputs/{_tag(spec)}.json"
        pkg.storage.save_brace(B, os.path.join(work, brace_path))
        pkg.storage.save_solution(_solution_doc(pkg, B), os.path.join(work, brace_path + ".sol"))
        ops.append(Op(("ybe", "from-brace", f"$WORK/{brace_path}")))
        ops.append(Op(("ybe", "level", f"$WORK/{brace_path}.sol")))
        if _order(spec, groups) == TINY_ORDER:
            tiny_ops += ops[-2:]
    return ops, tiny_ops


RATIONAL = (
    ("a2a", "--forbidden", "2"),
    ("a2a", "--forbidden", "2,3"),
    ("a2b", "--forbidden", "3", "--m1", "1", "--m2", "4", "--witness-prime", "5"),
    ("a2b", "--forbidden", "3", "--m1", "1", "--m2", "4", "--witness-prime", "7"),
    ("a2b", "--forbidden", "5", "--m1", "2", "--m2", "7"),
    ("a2b", "--forbidden", "2", "--m1", "3", "--m2", "5"),
    ("a2b", "--forbidden", "7", "--m1", "3", "--m2", "10"),
    ("c1", "--forbidden", "2", "--x", "1"),
    ("c1", "--forbidden", "2,3", "--x=3/5"),
    ("c2", "--forbidden", "2", "--x", "1"),
    ("c2", "--forbidden", "2,5", "--x=-7/3"),
)
RATIONAL_SAMPLES = 300
TINY_SAMPLES = 20


def _rational_op(spec, samples: int) -> Op:
    variant, *rest = spec
    return Op(("rational", "--variant", variant, *rest, "--sample", str(samples), "--seed", "$SEED"))


def setup_rational(pkg, work: str, tiny: bool):
    ops = [] if tiny else [_rational_op(spec, RATIONAL_SAMPLES) for spec in RATIONAL]
    first_of_variant = {spec[0]: spec for spec in reversed(RATIONAL)}
    return ops, [_rational_op(spec, TINY_SAMPLES) for spec in first_of_variant.values()]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("analyze", setup_analyze, 1.6),
    Workload("enumerate", setup_enumerate, 1.6),
    Workload("ybe-large", setup_ybe_large, 8.0),
    Workload("rational", setup_rational, 1.65),
)}
