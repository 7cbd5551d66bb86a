"""What a fresh `skewbrace` process loads, that the names the CLI and the
layers share are defined once, and that the lazily resolved names are the ones
the package exported when it imported every module up front.

The checks of sys.modules run in a fresh interpreter, because this test
process has loaded every module already.
"""

import ast
import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewbrace
from skewbrace.families import two_power_brace
from skewbrace.storage import save_brace

SRC = Path(__file__).resolve().parent.parent / "src"

# The finite-table layers and numpy: the CLI's import and its rational and help
# paths load none of them.
TABLE_CODE = ("numpy", *(f"skewbrace.{m}" for m in (
    "groups", "braces", "families", "ybe", "enumeration", "series")))

SUBMODULES = ("braces", "cli", "enumeration", "errors", "families", "groups", "rational",
              "series", "storage", "ybe")

# The package's export list from when it imported every submodule up front:
# (public name, submodule, name in the submodule).
EXPORTS = [
    *((name, "braces", name) for name in (
        "SkewBrace", "SubStructure", "brace_closure", "brace_predicates", "build_brace",
        "classify_substructure", "ideal_generated", "induced_sub_brace", "is_bi_skew",
        "kernel_of_lambda", "lambda_semidirect", "opposite_brace", "quotient_brace",
        "socle_and_centre", "star_span", "sub_skew_braces", "three_of_four_ideal")),
    *((name, "enumeration", name) for name in (
        "EnumerationResult", "IsoCertificate", "LambdaAssignment", "are_isomorphic",
        "enumerate_all", "enumerate_on_additive")),
    *((name, "families", name) for name in (
        "almost_trivial_brace", "build_family", "odd_p_cyclic_brace", "odd_p_nonabelian_brace",
        "trivial_brace", "two_power_brace")),
    *((name, "groups", name) for name in (
        "Automorphism", "FiniteGroup", "automorphisms", "build_group", "catalog_group",
        "catalog_names", "catalog_size", "cyclic_group", "dihedral_group", "direct_product",
        "elementary_abelian_group", "group_isomorphism", "quaternion_group", "quotient_group",
        "semidirect_product", "subgroup_closure", "subgroup_lattice")),
    *((name, "rational", name) for name in (
        "LocalizedDomain", "RationalBraceSpec", "axiom_sample_check", "circ", "circ_inverse",
        "dedekind_witness", "lambda_apply", "membership", "star_rat")),
    *((name, "series", name) for name in (
        "AnalysisReport", "IdealChain", "analyze", "central_class", "derived_series",
        "is_dedekind", "is_supersoluble", "star_series", "upper_central_series",
        "upper_socle_series")),
    ("brace_multipermutation_level", "series", "multipermutation_level"),
    *((name, "ybe", name) for name in (
        "SetSolution", "build_solution", "from_brace", "multipermutation_level", "predicates",
        "retract", "twist_solution")),
]

# sha256 of `skewbrace analyze` on two_power_brace(3), as printed when the
# package imported every module up front.
ANALYZE_B8_SHA256 = {
    "json": "828614a72e505ad6ba679a3284b2b3a5368042f8a8914bce79c94e316b5bf997",
    "text": "d81593817326c74c8ca4865963f34faad492a8a6d288db2bf6cb7cf1a0265b78",
}


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    )


def loaded_after(code: str, modules) -> list[str]:
    """The given modules that are in sys.modules after code runs in a fresh
    interpreter."""
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))\n")
    return json.loads(run_fresh("-c", script).stdout.splitlines()[-1])


def test_cli_and_storage_imports_load_no_layer():
    # the import that bench/run.py times for setup_s
    modules = (*TABLE_CODE, "skewbrace.rational", "dataclasses")
    assert loaded_after("import skewbrace.cli, skewbrace.storage", modules) == []


def test_family_ybe_and_storage_imports_load_no_numpy():
    modules = ("numpy", "skewbrace.enumeration", "skewbrace.series", "skewbrace.rational")
    assert loaded_after("import skewbrace.families, skewbrace.ybe, skewbrace.storage",
                        modules) == []


def test_rational_command_loads_no_table_code():
    code = ("from skewbrace.cli import main\n"
            "assert main(['rational', '--variant', 'a2a', '--forbidden', '2', '--sample', '20']) == 0\n"
            "assert main(['rational', '--variant', 'a2b', '--forbidden', '3', '--m1', '1', '--m2', '4',"
            " '--sample', '20', '--witness-prime', '5']) == 0")
    assert loaded_after(code, TABLE_CODE) == []


def test_help_loads_no_table_code():
    code = ("from skewbrace.cli import main\n"
            "try:\n    main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0\n")
    assert loaded_after(code, (*TABLE_CODE, "skewbrace.rational")) == []


def defined_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_shared_names_are_defined_once():
    # skewbrace._common imports only functools; every other module imports them from it
    shared = ("FAMILY_TAGS", "_is_prime", "_prime_divisors")
    found = sorted((name, path.name) for path in (SRC / "skewbrace").glob("*.py")
                   for name in defined_names(ast.parse(path.read_text())) if name in shared)
    assert found == [(name, "_common.py") for name in shared]


def module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's own statements, those under `if
    TYPE_CHECKING:` included, and not inside a function."""
    names = set(dir(builtins))
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted((SRC / "skewbrace").glob("*.py")), ids=lambda p: p.name)
def test_annotations_name_module_level_names(path):
    # A layer imported only inside a function still has its classes named in
    # annotations, imported under TYPE_CHECKING, so a type checker resolves them.
    tree = ast.parse(path.read_text())
    annotations = [arg.annotation for node in ast.walk(tree) if isinstance(node, ast.arguments)
                   for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs,
                               node.vararg, node.kwarg) if arg and arg.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    used = {n.id for ann in annotations for n in ast.walk(ann) if isinstance(n, ast.Name)}
    assert used - module_level_names(tree) == set()


@pytest.mark.parametrize("fmt", sorted(ANALYZE_B8_SHA256))
def test_analyze_output_is_unchanged(tmp_path, fmt):
    path = tmp_path / "b8.json"
    save_brace(two_power_brace(3), str(path))
    out = run_fresh("-m", "skewbrace.cli", "analyze", str(path), "--format", fmt).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_B8_SHA256[fmt]


def test_every_export_resolves_to_its_submodule_object():
    # A fresh interpreter, so `from skewbrace import X` runs before the
    # submodule that defines X has been imported.
    script = (
        "import importlib, json, sys\n"
        "bad = []\n"
        "for name, module, attr in json.loads(sys.argv[1]):\n"
        "    ns = {}\n"
        "    exec(f'from skewbrace import {name}', ns)\n"
        "    import skewbrace\n"
        "    owner = importlib.import_module(f'skewbrace.{module}')\n"
        "    if not ns[name] is getattr(skewbrace, name) is getattr(owner, attr):\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))\n"
    )
    assert json.loads(run_fresh("-c", script, json.dumps(EXPORTS)).stdout) == []


def test_all_and_dir_list_the_exports_and_submodules():
    expected = {name for name, _, _ in EXPORTS} | set(SUBMODULES)
    assert len(EXPORTS) == 73
    assert set(skewbrace.__all__) == expected
    assert expected <= set(dir(skewbrace))
    for module in SUBMODULES:
        assert getattr(skewbrace, module).__name__ == f"skewbrace.{module}"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        skewbrace.no_such_name
