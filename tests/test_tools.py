"""The source line counter in tools/src_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
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
