"""The source line counter in tools/src_lines.py, the one-shot timer in
tools/oneshot.py and the hostile-input sweep in tools/hostile_inputs.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"
ONESHOT = ROOT / "tools" / "oneshot.py"
HOSTILE = ROOT / "tools" / "hostile_inputs.py"


def load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_docstring_and_comment_lines():
    source = '''"""Module
docstring."""

# a comment
x = 1  # code with a comment


class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        s = """not a docstring"""
        return s
'''
    # 15 lines: 4 blank, 5 docstring, 1 comment-only, 5 code
    assert load_tool().count(source) == (15, 5, 5, 1)


def test_totals_match_the_modules(capsys):
    tool = load_tool()
    root = TOOL.parent.parent / "src" / "skewbrace"
    tool.main([str(root)])
    rows = capsys.readouterr().out.splitlines()
    modules = [list(map(int, r.split()[1:])) for r in rows[1:-1]]
    assert len(modules) == len(list(root.glob("*.py")))
    assert list(map(int, rows[-1].split()[1:])) == [sum(col) for col in zip(*modules)]


def fake_tree(root: Path) -> Path:
    """A source tree whose `skewbrace` prints 'fake' and exits 5 on any argv."""
    package = root / "src" / "skewbrace"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import sys\nprint('fake')\nsys.exit(5)\n")
    return root


def test_oneshot_times_help_on_both_trees(capsys, tmp_path):
    fake = fake_tree(tmp_path)
    load_tool(ONESHOT).main(["--runs", "1", str(ROOT), str(fake), "--", "--help"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "skewbrace --help"
    assert [line.split()[:2] for line in lines[1:3]] == [["base", "median"], ["change", "median"]]
    assert lines[1].endswith(f"exit [0]   ({ROOT})")
    assert lines[2].endswith(f"exit [5]   ({fake})")
    assert lines[3] == "  output: DIFFERS on both trees"


def test_oneshot_keeps_the_sides_apart_on_one_tree(tmp_path):
    tree = str(fake_tree(tmp_path))
    times, outcomes = load_tool(ONESHOT).compare((tree, tree), ["--help"], 3)
    assert [len(side) for side in times] == [3, 3]
    assert outcomes == ({(5, "fake\n")}, {(5, "fake\n")})


def test_hostile_inputs_sample_passes():
    # one case per kind of fault the sweep has found or guards against; the
    # whole sweep runs in CI
    tool = load_tool(HOSTILE)
    cases = tool.cases()
    names = [
        f"enumerate --order {10**23 - 1} --additive elab --out OUT",
        "verify F <5000-digit>",
        "ybe check F <nested>",
        "analyze F <not-UTF-8>",
        "construct --family trivial --group F --out OUT <string-rows>",
        f"rational --variant a2a --forbidden 2 --sample {10**23}",
        f"rational --variant a2b --forbidden 3 --m1 -{'9' * 4300} --m2 5 --sample 10",
    ]
    assert len(cases) == 17 * 10 + 8 * 9
    assert {name: tool.run_case(*cases[name]) for name in names} == dict.fromkeys(names)
