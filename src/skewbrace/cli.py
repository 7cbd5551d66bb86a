"""Command-line front end.

Exit codes: 0 success / predicate true, 1 predicate false, 2 input or
validation error, 3 bound exceeded.  Randomized commands take --seed and
default to the documented constant 1729 for reproducibility.  The
BRACE_MAX_ORDER environment variable overrides the default order bound of
search-heavy operations.

main builds its parser from the COMMANDS table on every call, with one
ArgumentParser per level of the dispatch path: the root, the command that
its argv names and, under ybe, the subcommand.  Every other command is
registered with its name and help line and no parser, as argparse cannot
dispatch to it.  So a call that names a command builds two parsers, and one
that names a ybe subcommand three.

A command loads only the layers it runs: each handler imports what it calls.
This module loads the standard library, errors, _common (the family tags) and
storage, which imports a layer only in the loader that validates with it, so
`rational` and `--help` load no table code, and numpy loads with the first
table check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

from ._common import FAMILY_TAGS
from .errors import BoundExceededError, BraceError, InvalidSpecError
from .storage import (
    _read_object,
    load_brace,
    load_group,
    load_solution,
    save_brace,
    save_solution,
    sniff_kind,
)

if TYPE_CHECKING:
    from .groups import FiniteGroup

DEFAULT_SEED = 1729


def _check_out_path(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise BraceError(f"output directory does not exist: {parent}")


def _cmd_verify(args) -> int:
    doc = _read_object(args.file)    # decoded once, for the sniff and the load
    kind = sniff_kind(doc)
    if kind == "brace":
        B = load_brace(doc)
        print(f"valid skew brace of order {B.order}")
    elif kind == "group":
        G = load_group(doc)
        print(f"valid group of order {G.order}")
    else:
        load_solution(doc)
        print("valid solution")
    return 0


def _cmd_analyze(args) -> int:
    from .series import analyze

    B = load_brace(args.file)
    report = analyze(B)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0


def _cmd_dedekind(args) -> int:
    from .series import is_dedekind

    B = load_brace(args.file)
    ok, witness = is_dedekind(B)
    if ok:
        print(f"dedekind: every sub-skew brace of this order-{B.order} brace is an ideal")
        return 0
    print(f"not dedekind: sub-skew brace {list(witness.elements)} is not an ideal")
    return 1


def _cmd_construct(args) -> int:
    from .families import build_family, odd_p_nonabelian_labels

    group = load_group(args.group) if args.group else None
    B = build_family(args.family, p=args.p, n=args.n, group=group)
    _check_out_path(args.out)
    labels = None
    if args.family == "odd_p_nonabelian":
        labels = odd_p_nonabelian_labels(args.p, args.n)
    save_brace(B, args.out, labels=labels)
    print(f"wrote {args.family} brace of order {B.order} to {args.out}")
    return 0


def _additive_group(order: int, selector: str) -> FiniteGroup:
    """The group --additive selects.  Resolving the selector builds no table, so
    the enumeration bound is checked before an N x N table is built."""
    from .enumeration import ENUMERATION_MAX_ORDER
    from .groups import (_catalog_builder, _check_bound, _prime_power, catalog_size,
                         elementary_abelian_group)

    if selector == "elab":
        catalog_size(order)     # orders below 1 fail as for the other selectors
        pk = _prime_power(order)
        if pk is None:
            raise BraceError(f"no elementary abelian group of order {order} in the catalog")
        build = functools.partial(elementary_abelian_group, *pk)
    elif selector == "cyclic" or selector.isdecimal():
        build = _catalog_builder(order, 0 if selector == "cyclic" else int(selector))
    else:
        raise BraceError(f"--additive {selector!r} is not cyclic, elab or a catalog index")
    # The check and message of enumerate_on_additive.
    _check_bound(order, ENUMERATION_MAX_ORDER, "enumerate_on_additive")
    return build()


def _cmd_enumerate(args) -> int:
    from .enumeration import _brace_classes, enumerate_all, enumerate_on_additive

    if args.additive is not None:
        G = _additive_group(args.order, args.additive)
        if args.up_to_iso:
            braces, found = _brace_classes(G)
            counts = {"order": args.order, "found": found, "classes": len(braces)}
        else:
            braces = enumerate_on_additive(G)
            counts = {"order": args.order, "found": len(braces)}
    else:
        result = enumerate_all(args.order)
        braces = list(result.classes)
        counts = {
            "order": args.order,
            "classes": len(braces),
            "by_type": {f"{a}|{m}": v for (a, m), v in sorted(result.counts.items())},
            "labeled_per_additive": result.labeled_counts,
        }
    os.makedirs(args.out, exist_ok=True)     # after the search, so a refused run writes nothing
    for i, b in enumerate(braces):
        save_brace(b, os.path.join(args.out, f"brace_{i:03d}.json"))
    summary_path = os.path.join(args.out, "counts." + ("json" if args.format == "json" else "csv" if args.format == "csv" else "txt"))
    with open(summary_path, "w") as fh:
        if args.format == "json":
            json.dump(counts, fh, indent=2)
            fh.write("\n")
        elif args.format == "csv":
            fh.write("key,value\n")
            for k, v in _flatten(counts):
                fh.write(f"{k},{v}\n")
        else:
            for k, v in _flatten(counts):
                fh.write(f"{k:<30} {v}\n")
    print(f"wrote {len(braces)} braces and {summary_path}")
    return 0


def _flatten(doc, prefix=""):
    out = []
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.extend(_flatten(v, key + "."))
        else:
            out.append((key, v))
    return out


def _cmd_iso(args) -> int:
    from .enumeration import are_isomorphic

    B1, B2 = load_brace(args.file1), load_brace(args.file2)
    cert = are_isomorphic(B1, B2)
    if cert.isomorphic:
        print(f"isomorphic via {list(cert.bijection)}")
        return 0
    print(f"not isomorphic (refuted by: {cert.refuted_by})")
    return 1


def _cmd_ybe_from_brace(args) -> int:
    from .ybe import from_brace, predicates

    B = load_brace(args.file)
    sol = from_brace(B)
    if args.out:
        _check_out_path(args.out)
        save_solution(sol, args.out)
    p = predicates(sol)
    print(f"solution of size {sol.size}; involutive={p.involutive} diagonal_fixing={p.diagonal_fixing}")
    return 0


def _cmd_ybe_check(args) -> int:
    from .ybe import predicates

    sol = load_solution(args.file)
    p = predicates(sol)
    print(f"valid solution of size {sol.size}; involutive={p.involutive} diagonal_fixing={p.diagonal_fixing}")
    return 0


def _cmd_ybe_retract(args) -> int:
    from .groups import TABLE_MAX_ORDER
    from .ybe import retract

    if args.steps < 0:
        raise BraceError(f"--steps {args.steps} is negative")
    if args.steps > TABLE_MAX_ORDER:
        raise BoundExceededError(f"ybe retract: --steps {args.steps} exceeds bound {TABLE_MAX_ORDER}")
    sol = load_solution(args.file)
    sizes = [sol.size]
    for _ in range(args.steps):
        # A step that keeps the size returns sol itself, labels included.
        if len(sizes) < 2 or sizes[-1] != sizes[-2]:
            sol, _cls = retract(sol)
        sizes.append(sol.size)
    if args.out:
        _check_out_path(args.out)
        save_solution(sol, args.out)
    print("sizes: " + " -> ".join(str(s) for s in sizes))
    return 0


def _cmd_ybe_level(args) -> int:
    from .ybe import multipermutation_level

    level = multipermutation_level(load_solution(args.file))
    print(f"multipermutation level: {'none' if level is None else level}")
    return 0


def _parse_fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidSpecError(
            f"--x {text!r} is not a fraction with a non-zero denominator") from None


def _cmd_rational(args) -> int:
    from .rational import LocalizedDomain, RationalBraceSpec, axiom_sample_check, dedekind_witness

    try:
        forbidden = tuple(int(p) for p in args.forbidden.split(",") if p)
    except ValueError:
        raise InvalidSpecError(
            f"--forbidden {args.forbidden!r} is not a comma-separated list of integers") from None
    spec = RationalBraceSpec(
        variant=args.variant,
        domain=LocalizedDomain(forbidden),
        m1=args.m1,
        m2=args.m2,
        x=_parse_fraction(args.x) if args.x else None,
    )
    report = axiom_sample_check(spec, seed=args.seed, count=args.sample)
    # Both run before anything is printed, so a refused witness prints nothing.
    w = (None if args.witness_prime is None
         else dedekind_witness(spec, args.witness_prime, seed=args.seed))
    print(report.describe())
    if w is not None:
        print(w.describe())
        if w.violating_in_y or not w.subgroup_samples_ok:
            return 1
    return 0 if report.passed else 1


# name -> (help, handler, {flag: add_argument keywords}).  A handler of None
# marks a command whose table holds its subcommands in the same form.
COMMANDS = {
    "verify": ("validate a group/brace/solution JSON file", _cmd_verify, {"file": {}}),
    "analyze": ("full structural report for a brace", _cmd_analyze,
                {"file": {}, "--format": {"choices": ("text", "json"), "default": "text"}}),
    "dedekind": ("test whether every sub-skew brace is an ideal", _cmd_dedekind, {"file": {}}),
    "construct": ("build a brace from a named family", _cmd_construct, {
        "--family": {"choices": FAMILY_TAGS, "required": True},
        "--p": {"type": int}, "--n": {"type": int},
        "--group": {"help": "base group JSON (trivial/almost_trivial)"},
        "--out": {"required": True}}),
    "enumerate": ("enumerate braces of a given order", _cmd_enumerate, {
        "--order": {"type": int, "required": True},
        "--additive": {"help": "cyclic, elab, or a catalog index"},
        "--up-to-iso": {"action": "store_true"},
        "--format": {"choices": ("text", "json", "csv"), "default": "text"},
        "--out": {"required": True}}),
    "iso": ("test two braces for isomorphism", _cmd_iso, {"file1": {}, "file2": {}}),
    "ybe": ("Yang-Baxter solution commands", None, {
        "from-brace": ("solution attached to a brace", _cmd_ybe_from_brace,
                       {"file": {}, "--out": {}}),
        "check": ("validate a solution file", _cmd_ybe_check, {"file": {}}),
        "retract": ("apply k retraction steps", _cmd_ybe_retract,
                    {"file": {}, "--steps": {"type": int, "default": 1}, "--out": {}}),
        "level": ("multipermutation level of a solution", _cmd_ybe_level, {"file": {}})}),
    "rational": ("exact-rational brace checks", _cmd_rational, {
        "--variant": {"choices": ("a2a", "a2b", "c1", "c2"), "required": True},
        "--forbidden": {"default": "", "help": "comma-separated forbidden primes"},
        "--m1": {"type": int}, "--m2": {"type": int},
        "--x": {"help": "distinguished element, e.g. 1 or 3/5"},
        "--sample": {"type": int, "default": 1000},
        "--seed": {"type": int, "default": DEFAULT_SEED},
        "--witness-prime": {"type": int}}),
}


def make_parser(argv) -> argparse.ArgumentParser:
    """The parser that main(argv) runs on argv.  Every command of COMMANDS is
    registered with its help, so usage, help and choice errors list them all,
    but only the commands named in argv get a parser, with their arguments,
    handler and -h: argparse parses argv with the one subparser it dispatches
    to, whose name is an element of argv."""
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Construct, verify, classify and analyze skew braces and"
        " their Yang-Baxter solutions.",
    )
    _add_commands(parser, "command", COMMANDS, argv)
    return parser


def _add_commands(parser, dest: str, table: dict, argv) -> None:
    # A command that argv does not name maps to None: argparse reads only the
    # parser it dispatches to, and takes usage, help and choice errors from the
    # names and help lines that add_parser registers for every command.
    sub = parser.add_subparsers(
        dest=dest, required=True, prog=parser.prog,
        parser_class=lambda add_help, **kw: argparse.ArgumentParser(**kw) if add_help else None)
    for name, (help_, handler, arguments) in table.items():
        p = sub.add_parser(name, help=help_, add_help=name in argv)
        if name in argv and handler is None:
            _add_commands(p, f"{name}_command", arguments, argv)
        elif name in argv:
            for flag, kwargs in arguments.items():
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=handler)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except BraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
