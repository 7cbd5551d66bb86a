import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from math import prod

import numpy as np
import pytest

from legacy_oracles import (
    _write_object_legacy,
    brace_classes_legacy,
    enumerate_on_additive_legacy,
    make_parser_legacy,
)
from skewbrace import braces, cli, enumeration, storage
from skewbrace.cli import main
from skewbrace.enumeration import ENUMERATION_MAX_ORDER
from skewbrace.errors import BraceError, SchemaError
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import FiniteGroup, catalog_group, catalog_size, cyclic_group, dihedral_group
from skewbrace.rational import _SMALL_PRIMES, PRIME_MAX, SAMPLE_MAX
from skewbrace.storage import (
    load_brace,
    load_solution,
    save_brace,
    save_group,
    save_solution,
)
from skewbrace.ybe import SetSolution, from_brace, retract

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every command that reads a file, with F for the file and OUT for an output.
FILE_ARGVS = [
    ("verify", "F"), ("analyze", "F"), ("dedekind", "F"), ("iso", "F", "F"),
    ("construct", "--family", "trivial", "--group", "F", "--out", "OUT"),
    ("ybe", "from-brace", "F"), ("ybe", "check", "F"), ("ybe", "retract", "F"),
    ("ybe", "level", "F"),
]

# `enumerate --additive` inputs that fail before any search: exit code and message.
ADDITIVE_BOUND_CASES = [
    (16, "cyclic", 3, "enumerate_on_additive: order 16 exceeds bound 15"),
    (16, "elab", 3, "enumerate_on_additive: order 16 exceeds bound 15"),
    (17, "elab", 3, "enumerate_on_additive: order 17 exceeds bound 15"),
    (16, "2", 3, "enumerate_on_additive: order 16 exceeds bound 15"),
    (18, "elab", 2, "no elementary abelian group of order 18 in the catalog"),
    (21, "cyclic", 3, "enumerate_on_additive: order 21 exceeds bound 15"),
    (21, "elab", 2, "no elementary abelian group of order 21 in the catalog"),
    (16, "5", 2, "order 16 has catalog indices 0..2, got 5"),
    (1, "elab", 2, "no elementary abelian group of order 1 in the catalog"),
]


@pytest.fixture
def b8_file(tmp_path, b8):
    path = tmp_path / "b8.json"
    save_brace(b8, str(path))
    return str(path)


@pytest.fixture
def trivial_s3_file(tmp_path, trivial_s3):
    path = tmp_path / "ts3.json"
    save_brace(trivial_s3, str(path))
    return str(path)


def cap_address_space():
    """preexec_fn of a fresh CLI process: a runaway allocation fails in the
    child, not on the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestStorage:
    def test_brace_round_trip(self, tmp_path, b9):
        path = tmp_path / "b9.json"
        save_brace(b9, str(path))
        loaded = load_brace(str(path))
        assert loaded.add.table == b9.add.table
        assert loaded.mul.table == b9.mul.table

    def test_solution_round_trip(self, tmp_path, b9):
        sol = from_brace(b9)
        path = tmp_path / "sol.json"
        save_solution(sol, str(path))
        assert load_solution(str(path)) == sol

    def test_missing_mul_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 2, "add": [[0, 1], [1, 0]]}')
        with pytest.raises(SchemaError) as exc:
            load_brace(str(path))
        assert exc.value.field == "mul"

    def test_ragged_solution(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"size": 2, "lambda": [[0, 1], [0]], "rho": [[0, 1], [1, 0]]}')
        with pytest.raises(SchemaError):
            load_solution(str(path))

    def test_labels_preserved(self, tmp_path, b9):
        path = tmp_path / "b9.json"
        save_brace(b9, str(path), labels=[str(i) for i in range(9)])
        doc = json.loads(path.read_text())
        assert doc["labels"][3] == "3"

    def test_files_are_the_text_json_dump_writes(self, tmp_path):
        # the writer encodes one table row at a time from the entry strings
        # str(0)..str(n-1); the text must stay what json.dump and the old
        # per-row json.dumps writer give, at every digit width
        def dump_text(doc):
            with open(tmp_path / "want.json", "w") as fh:
                json.dump(doc, fh)
                fh.write("\n")
            return (tmp_path / "want.json").read_text()

        def legacy_text(doc):
            _write_object_legacy(doc, str(tmp_path / "want.json"))
            return (tmp_path / "want.json").read_text()

        family = [trivial_brace(cyclic_group(1)), trivial_brace(cyclic_group(2)),
                  almost_trivial_brace(dihedral_group(5)), odd_p_cyclic_brace(11, 1),
                  almost_trivial_brace(dihedral_group(50)), trivial_brace(cyclic_group(101)),
                  two_power_brace(8)]
        assert [B.order for B in family] == [1, 2, 10, 11, 100, 101, 256]
        for B in family:
            n, sol = B.order, from_brace(B)
            retracted = retract(sol)[0]
            labels = [f"{i}x" for i in range(n)]
            cases = [
                (lambda p: save_group(B.mul, p), {"order": n, "table": B.mul.table}),
                (lambda p: save_brace(B, p), {"order": n, "add": B.add.table, "mul": B.mul.table}),
                (lambda p: save_brace(B, p, labels=labels),
                 {"order": n, "add": B.add.table, "mul": B.mul.table, "labels": labels}),
            ]
            cases += [(lambda p, S=S: save_solution(S, p),
                       {"size": S.size, "lambda": S.lambda_perms, "rho": S.rho_perms})
                      for S in (sol, retracted)]
            for save, doc in cases:
                save(str(tmp_path / "got.json"))
                got = (tmp_path / "got.json").read_text()
                assert got == dump_text(doc) == legacy_text(doc)

    @pytest.mark.parametrize("entry", [1, -1, 3, True, np.int64(1)], ids=repr)
    @pytest.mark.parametrize("rows", ["tuple", "list", "range", "array"])
    def test_constructed_solution_files_are_the_legacy_text(self, tmp_path, entry, rows):
        # SetSolution(n, lambda, rho) refuses rows that are not permutations
        # of ints; any rows it takes are written as the old writer wrote
        # their tuple rows of ints
        rho = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        lam = [[0, 1, 2], [2, entry, 0], [1, 2, 0]]
        wrap = {"tuple": tuple, "list": list, "range": lambda row: range(3) if row[0] == 2 else row,
                "array": lambda row: np.array(row) if row[0] == 2 else tuple(row)}[rows]
        lam = tuple(map(wrap, lam))
        # np.array turns True into 1, and range(3) replaces the row
        if rows != "range" and (entry in (-1, 3) or (entry is True and rows != "array")):
            with pytest.raises(BraceError):
                SetSolution(3, lam, rho)
            return
        S = SetSolution(3, lam, rho)
        plain = tuple(tuple(int(v) for v in row) for row in lam)
        _write_object_legacy({"size": 3, "lambda": plain, "rho": rho}, str(tmp_path / "want.json"))
        save_solution(S, str(tmp_path / "got.json"))
        assert (tmp_path / "got.json").read_text() == (tmp_path / "want.json").read_text()

    def test_an_empty_table_is_written_as_json_dump_writes_it(self, tmp_path):
        # the old writer opened a table's bracket with its first row, so
        # SetSolution(0, (), ()), which build_solution([], []) also builds,
        # got '"lambda": ]'
        path = tmp_path / "empty.json"
        save_solution(SetSolution(0, (), ()), str(path))
        assert path.read_text() == '{"size": 0, "lambda": [], "rho": []}\n'

    @pytest.mark.parametrize("B", [trivial_brace(cyclic_group(1)), odd_p_cyclic_brace(3, 2),
                                   odd_p_cyclic_brace(3, 4)], ids=lambda B: f"order{B.order}")
    def test_json_dumps_calls_per_file(self, tmp_path, monkeypatch, B):
        # one json.dumps call per key and per non-table value, whatever the
        # order: no table row goes through json.dumps
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(storage.json, "dumps", lambda obj: calls.append(obj) or dumps(obj))
        path = str(tmp_path / "f.json")
        saves = [(lambda: save_group(B.add, path), 2 + 1),
                 (lambda: save_brace(B, path), 3 + 1),
                 (lambda: save_brace(B, path, labels=list(map(str, range(B.order)))), 4 + 2),
                 (lambda: save_solution(from_brace(B), path), 3 + 1),
                 (lambda: save_solution(retract(from_brace(B))[0], path), 3 + 1),
                 (lambda: save_solution(SetSolution(B.order, list(map(list, B.lam)),
                                                    list(map(list, from_brace(B).rho_perms))),
                                        path), 3 + 1)]
        for save, count in saves:
            calls.clear()
            save()
            assert len(calls) == count


class TestExitCodes:
    def test_verify_valid(self, b8_file):
        assert main(["verify", b8_file]) == 0

    def test_verify_decodes_its_file_once(self, tmp_path, monkeypatch, capsys, b9):
        files = {"brace": (save_brace, b9), "group": (save_group, b9.mul),
                 "solution": (save_solution, from_brace(b9))}
        for kind, (save, obj) in files.items():
            save(obj, str(tmp_path / f"{kind}.json"))
        loads = []
        load = json.load
        monkeypatch.setattr(storage.json, "load", lambda fh: loads.append(fh.name) or load(fh))
        for kind in files:
            path = str(tmp_path / f"{kind}.json")
            assert main(["verify", path]) == 0
            assert loads == [path]
            loads.clear()
        assert capsys.readouterr().out.splitlines() == [
            "valid skew brace of order 9", "valid group of order 9", "valid solution"]

    def test_dedekind_true(self, b8_file):
        assert main(["dedekind", b8_file]) == 0

    def test_dedekind_false_prints_witness(self, trivial_s3_file, capsys):
        assert main(["dedekind", trivial_s3_file]) == 1
        out = capsys.readouterr().out
        assert "not dedekind" in out and "[0," in out

    def test_dedekind_above_the_lattice_bound(self, tmp_path, capsys):
        # is_dedekind closes only the n one-generated sub-braces, so it is
        # bounded by the table bound (1024), not by the lattice's order bound 64.
        path = str(tmp_path / "b1024.json")
        assert main(["construct", "--family", "two_power", "--n", "10", "--out", path]) == 0
        assert main(["dedekind", path]) == 0
        assert capsys.readouterr().out.endswith(
            "dedekind: every sub-skew brace of this order-1024 brace is an ideal\n")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"order": 2, ')
        assert main(["verify", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", FILE_ARGVS)
    def test_deeply_nested_json(self, tmp_path, capsys, argv):
        # the decoder's recursion gives out; one line and exit 2, as for
        # malformed JSON, not a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out.json"
        argv = [str(path) if a == "F" else str(out) if a == "OUT" else a for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: bad or missing field 'document': nested too deeply to decode\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", FILE_ARGVS)
    def test_overlong_number_literal(self, tmp_path, capsys, argv):
        # int() refuses more than 4300 digits; one line and exit 2, not a
        # ValueError traceback.  An interpreter without that limit decodes
        # the number, and the validators refuse the document.
        path = tmp_path / "long.json"
        path.write_text('{"order": ' + "9" * 5000 + "}")
        out = tmp_path / "out.json"
        argv = [str(path) if a == "F" else str(out) if a == "OUT" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 2, "add": [[0, 1], [1, 0]]}')
        assert main(["verify", str(path)]) == 2

    @pytest.mark.parametrize("doc, field", [
        ('{"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 1.7], ["1", 0.2]]}', "mul"),
        ('{"size": 2, "lambda": [[0, 1.9], [0, 1]], "rho": [[0, 1], [0, 1]]}', "lambda"),
        ('{"order": 2, "table": [[0, true], [true, 0]]}', "table"),
    ])
    def test_non_integer_entries_refused(self, tmp_path, capsys, doc, field):
        # int() would truncate each entry to a valid structure of order 2
        path = tmp_path / "fractional.json"
        path.write_text(doc)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad or missing field {field!r}: row 0 has a non-integer entry\n"

    @pytest.mark.parametrize("doc, field", [
        ('{"order": true, "table": [[0]]}', "order"),
        ('{"order": true, "add": [[0]], "mul": [[0]]}', "order"),
        ('{"size": true, "lambda": [[0]], "rho": [[0]]}', "size"),
    ])
    def test_bool_size_refused(self, tmp_path, capsys, doc, field):
        # a JSON true would pass as the size 1 of a one-row table
        path = tmp_path / "bool.json"
        path.write_text(doc)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad or missing field {field!r}: expected an integer\n"

    def test_invalid_brace(self, tmp_path):
        path = tmp_path / "notgroup.json"
        path.write_text(
            '{"order": 2, "add": [[0, 1], [0, 1]], "mul": [[0, 1], [1, 0]]}'
        )
        assert main(["verify", str(path)]) == 2

    def test_missing_file(self):
        assert main(["verify", "/nonexistent/nowhere.json"]) == 2

    def _assert_one_error_line(self, rc, capsys):
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_additive_selector(self, tmp_path, capsys):
        rc = main(["enumerate", "--order", "8", "--additive", "foo",
                   "--out", str(tmp_path / "out")])
        self._assert_one_error_line(rc, capsys)

    def test_directory_as_input(self, tmp_path, capsys):
        self._assert_one_error_line(main(["analyze", str(tmp_path)]), capsys)

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"order": 1, "table": [[0]], "name": "\xe9"}')
        self._assert_one_error_line(main(["verify", str(path)]), capsys)

    def test_bound_exceeded(self, tmp_path, monkeypatch, b8):
        monkeypatch.setenv("BRACE_MAX_ORDER", "4")
        path = tmp_path / "b8.json"
        save_brace(b8, str(path))
        assert main(["analyze", str(path)]) == 3

    @pytest.mark.parametrize("value, reason", [
        ("1e3", "is not an integer"), ("64.0", "is not an integer"),
        ("sixty-four", "is not an integer"),
        ("0", "is below 1: no structure meets it"), ("-5", "is below 1: no structure meets it"),
    ])
    def test_malformed_bound_exits_2(self, tmp_path, monkeypatch, capsys, b8, value, reason):
        # A value that is not an integer must not pass as the default bound of 64,
        # and one below 1 must not turn every search into a bound failure (exit 3).
        monkeypatch.setenv("BRACE_MAX_ORDER", value)
        path = tmp_path / "b8.json"
        save_brace(b8, str(path))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: BRACE_MAX_ORDER={value!r} {reason}\n"

    def test_enumerate_beyond_the_bound_exits_3(self, tmp_path, capsys):
        assert main(["enumerate", "--order", "16", "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "bound exceeded: enumerate_all: order 16 exceeds bound 15\n"

    def test_table_bound_exits_3(self, tmp_path, monkeypatch, capsys, b8):
        path = tmp_path / "b8.json"
        save_brace(b8, str(path))
        monkeypatch.setattr(braces, "TABLE_MAX_ORDER", 4)
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == "bound exceeded: build_brace: order 8 exceeds bound 4\n"

    @pytest.mark.parametrize("command", [["verify"], ["construct", "--family", "trivial", "--group"]],
                             ids=["verify", "construct"])
    def test_group_table_bound_exits_3(self, tmp_path, capsys, command):
        # Z_1100 is a group, but its table has more rows than the loaders take.
        n = 1100
        path = tmp_path / "z1100.json"
        path.write_text(json.dumps({"order": n, "table": [[(i + j) % n for j in range(n)]
                                                          for i in range(n)]}))
        out = tmp_path / "out.json"
        argv = [*command, str(path)] + (["--out", str(out)] if command[0] == "construct" else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bound exceeded: build_group: order 1100 exceeds bound 1024\n"
        assert not out.exists()

    def test_iso_exit_codes(self, tmp_path, b9):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_brace(b9, str(p1))
        save_brace(trivial_brace(catalog_group(9, 0)), str(p2))
        assert main(["iso", str(p1), str(p1)]) == 0
        assert main(["iso", str(p1), str(p2)]) == 1


class TestAnalyzeRendering:
    def test_text_and_json_agree(self, b8_file, capsys):
        assert main(["analyze", b8_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["analyze", b8_file, "--format", "text"]) == 0
        text = capsys.readouterr().out
        for key, value in doc.items():
            assert key in text
        assert doc["central_class"] == 3
        assert doc["dedekind"] is True
        assert f"central_class" in text and " 3" in text


class TestConstruct:
    def test_construct_and_reload(self, tmp_path):
        out = tmp_path / "b27.json"
        rc = main([
            "construct", "--family", "odd_p_cyclic", "--p", "3", "--n", "3",
            "--out", str(out),
        ])
        assert rc == 0
        assert load_brace(str(out)) == odd_p_cyclic_brace(3, 3)

    def test_nonabelian_labels_written(self, tmp_path):
        out = tmp_path / "b27n.json"
        rc = main([
            "construct", "--family", "odd_p_nonabelian", "--p", "3", "--n", "2",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["labels"][9] == "1y"

    def test_trivial_from_group_file(self, tmp_path):
        gpath = tmp_path / "g.json"
        save_group(catalog_group(6, 1), str(gpath))
        out = tmp_path / "t.json"
        rc = main(["construct", "--family", "trivial", "--group", str(gpath), "--out", str(out)])
        assert rc == 0
        assert load_brace(str(out)).is_trivial()

    def test_bad_params(self, tmp_path):
        rc = main([
            "construct", "--family", "two_power", "--n", "1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("params, order", [
        (("--family", "two_power", "--n", "40"), 2**40),
        (("--family", "odd_p_cyclic", "--p", "3", "--n", "30"), 3**30),
    ])
    def test_order_beyond_family_budget(self, tmp_path, capsys, params, order):
        start = time.perf_counter()
        rc = main(["construct", *params, "--out", str(tmp_path / "x.json")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"bound exceeded: {params[1]}: order {order} exceeds bound 1024\n"
        assert elapsed < 1.0
        assert not (tmp_path / "x.json").exists()

    def test_odd_p_nonabelian_above_the_brace_bound(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BRACE_MAX_ORDER", raising=False)
        out = tmp_path / "b81n.json"
        rc = main(["construct", "--family", "odd_p_nonabelian", "--p", "3", "--n", "3",
                   "--out", str(out)])
        assert rc == 0
        assert load_brace(str(out)) == odd_p_nonabelian_brace(3, 3)

    def test_odd_p_nonabelian_beyond_family_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BRACE_MAX_ORDER", "5000")
        rc = main(["construct", "--family", "odd_p_nonabelian", "--p", "3", "--n", "6",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "bound exceeded: odd_p_nonabelian: order 2187 exceeds bound 1024\n")
        assert not (tmp_path / "x.json").exists()

    # A p or an exponent above the bound is refused before the order p^n is
    # computed or p is tested for primality, by a message that prints
    # neither: 2^1000000 has more digits than str() converts, trial division
    # of BIG runs for minutes, and 2^(10^20) cannot be held.  So a non-prime
    # p above 1024 exits 3, not 2.  Each case runs in a fresh process with a
    # timeout and a capped address space, so that a regression fails
    # instead of hanging the suite or exhausting memory.
    HUGE = 10**20
    HUGE_FAMILY_CASES = [
        (("two_power", "--n", "1000000"), "two_power: exponent"),
        (("two_power", "--n", str(HUGE)), "two_power: exponent"),
        (("odd_p_cyclic", "--p", "99999999999999999999999", "--n", "1"), "odd_p_cyclic: p"),
        (("odd_p_cyclic", "--p", "1025", "--n", "1"), "odd_p_cyclic: p"),
        (("odd_p_cyclic", "--p", "3", "--n", str(HUGE)), "odd_p_cyclic: exponent"),
        (("odd_p_nonabelian", "--p", "99999999999999999999999", "--n", "2"), "odd_p_nonabelian: p"),
        (("odd_p_nonabelian", "--p", "3", "--n", str(HUGE)), "odd_p_nonabelian: exponent"),
    ]

    @pytest.mark.parametrize("params, what", HUGE_FAMILY_CASES,
                             ids=("two_power-1e6", "two_power-1e20", "cyclic-big-p",
                                  "cyclic-nonprime-p", "cyclic-1e20", "nonabelian-big-p",
                                  "nonabelian-1e20"))
    def test_huge_family_parameters_refused_at_once(self, tmp_path, params, what):
        out = tmp_path / "x.json"
        done = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "construct", "--family", *params,
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=20, preexec_fn=cap_address_space)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"bound exceeded: {what} above 1024 gives an order above bound 1024\n")
        assert not out.exists()

    def test_bad_out_dir(self):
        rc = main([
            "construct", "--family", "two_power", "--n", "2",
            "--out", "/no/such/dir/x.json",
        ])
        assert rc == 2


class TestEnumerateCommand:
    @pytest.mark.parametrize("argv, code", [
        (("--order", "99"), 3),
        (("--order", "8", "--additive", "bogus"), 2),
    ])
    def test_refused_run_leaves_no_out_directory(self, tmp_path, capsys, argv, code):
        out = tmp_path / "enum"
        assert main(["enumerate", *argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_up_to_iso_with_counts(self, tmp_path, capsys):
        out = tmp_path / "enum"
        rc = main(["enumerate", "--order", "6", "--format", "csv", "--out", str(out)])
        assert rc == 0
        files = sorted(os.listdir(out))
        assert "counts.csv" in files
        braces = [f for f in files if f.startswith("brace_")]
        assert len(braces) == 6
        body = (out / "counts.csv").read_text()
        assert "classes,6" in body

    def test_single_additive_group(self, tmp_path):
        out = tmp_path / "enum4"
        rc = main([
            "enumerate", "--order", "4", "--additive", "cyclic",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "counts.json").read_text())
        assert doc["found"] == 2

    def test_additive_with_iso_dedup(self, tmp_path):
        out = tmp_path / "enum4e"
        rc = main([
            "enumerate", "--order", "4", "--additive", "elab", "--up-to-iso",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "counts.json").read_text())
        assert doc["found"] == 4 and doc["classes"] == 2

    def test_elementary_abelian_selector(self, tmp_path):
        out = tmp_path / "enum8e"
        rc = main([
            "enumerate", "--order", "8", "--additive", "elab",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        first = json.loads((out / "brace_000.json").read_text())
        assert all(first["add"][j][j] == 0 for j in range(8))  # exponent 2
        # no elementary abelian group of order 6 exists
        assert main(["enumerate", "--order", "6", "--additive", "elab", "--out", str(tmp_path / "x")]) == 2

    def test_files_match_legacy_class_path(self, tmp_path, monkeypatch, capsys):
        # Every file of the enumerate ops of the benchmark, and the labelled
        # listings on the cyclic group and on catalog index 1, from the class
        # orbits and from the labelled search with the orbit step they replaced.
        runs = [["--order", str(n)] for n in range(4, 16)]
        runs += [["--order", str(n), "--additive", "elab", *iso]
                 for n in (4, 8, 9) for iso in ([], ["--up-to-iso"])]
        runs += [["--order", str(n), "--additive", "cyclic"] for n in range(4, 16)]
        runs += [["--order", str(n), "--additive", "1"] for n in range(4, 16) if catalog_size(n) > 1]

        def written(root):
            for i, argv in enumerate(runs):
                assert main(["enumerate", *argv, "--format", "json", "--out", str(root / str(i))]) == 0
            out = capsys.readouterr().out.replace(str(root), "<out>")
            return out, {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        new = written(tmp_path / "new")
        calls = Counter()

        def counted(name, legacy):
            def run(*args, **kwargs):
                calls[name] += 1
                return legacy(*args, **kwargs)
            return run

        # The enumerate handler reads both names from enumeration at call time.
        monkeypatch.setattr(enumeration, "_brace_classes",
                            counted("_brace_classes", brace_classes_legacy))
        monkeypatch.setattr(enumeration, "enumerate_on_additive",
                            counted("enumerate_on_additive", enumerate_on_additive_legacy))
        assert written(tmp_path / "legacy") == new
        # The legacy path ran for every group of every run, so the match is not vacuous.
        iso_runs = sum("--up-to-iso" in argv for argv in runs)
        assert calls == {
            "_brace_classes": sum(catalog_size(n) for n in range(4, 16)) + iso_runs,
            "enumerate_on_additive": sum("--additive" in argv for argv in runs) - iso_runs,
        }

    @pytest.mark.parametrize("selector", ["cyclic", "elab", "0"])
    def test_additive_selector_at_a_huge_order_exits_3_at_once(self, selector, tmp_path):
        # the catalog refuses the order before it is factored: 10^23 - 1 has
        # no small prime factor, and its trial division ran past 10 s
        order, out = 10**23 - 1, tmp_path / "enum"
        done = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "enumerate", "--order", str(order),
             "--additive", selector, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=20, preexec_fn=cap_address_space)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", f"bound exceeded: catalog: order {order} exceeds bound 1024\n")
        assert not out.exists()

    @pytest.mark.parametrize("order, selector, code, message", ADDITIVE_BOUND_CASES,
                             ids=[f"{o}-{s}" for o, s, _, _ in ADDITIVE_BOUND_CASES])
    def test_additive_selector_resolved_before_any_table_is_built(
            self, order, selector, code, message, tmp_path, monkeypatch, capsys):
        fill = FiniteGroup._fill

        def bounded_fill(G, table, arr, gens):
            if len(table) > ENUMERATION_MAX_ORDER:
                raise AssertionError(f"built a group of order {len(table)}")
            fill(G, table, arr, gens)

        monkeypatch.setattr(FiniteGroup, "_fill", bounded_fill)
        rc = main(["enumerate", "--order", str(order), "--additive", selector,
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == code and err.count("\n") == 1
        assert err.startswith("bound exceeded: " if code == 3 else "error: ")
        assert message in err


class TestYbeCommands:
    def test_from_brace_check_level(self, tmp_path, b8_file, capsys):
        sol_path = tmp_path / "sol.json"
        assert main(["ybe", "from-brace", b8_file, "--out", str(sol_path)]) == 0
        assert main(["ybe", "check", str(sol_path)]) == 0
        assert main(["ybe", "level", str(sol_path)]) == 0
        out = capsys.readouterr().out
        assert "multipermutation level: 2" in out

    def test_retract_sizes(self, tmp_path, b9, capsys):
        sol_path = tmp_path / "sol9.json"
        save_solution(from_brace(b9), str(sol_path))
        assert main(["ybe", "retract", str(sol_path), "--steps", "2"]) == 0
        assert "9 -> 3 -> 1" in capsys.readouterr().out

    def test_retract_steps_2_output(self, tmp_path, b9, capsys):
        sol_path = tmp_path / "sol9.json"
        save_solution(from_brace(b9), str(sol_path))
        assert main(["ybe", "retract", str(sol_path), "--steps", "2"]) == 0
        assert capsys.readouterr() == ("sizes: 9 -> 3 -> 1\n", "")

    @pytest.mark.parametrize("steps", [0, 1, 3, 7, 1024])
    def test_retract_past_the_fixpoint_matches_every_step_retracted(
            self, tmp_path, b9, almost_trivial_s3, capsys, steps):
        """Stdout and --out equal those of retracting all the steps, for a
        solution that retracts to a point and for one that stops above 1."""
        for B in (b9, almost_trivial_s3):
            sol_path, out = tmp_path / "sol.json", tmp_path / "out.json"
            want = tmp_path / "want.json"
            sol = from_brace(B)
            save_solution(sol, str(sol_path))
            sizes = [sol.size]
            for _ in range(steps):
                sol, _cls = retract(sol)
                sizes.append(sol.size)
            save_solution(sol, str(want))
            assert main(["ybe", "retract", str(sol_path), "--steps", str(steps),
                         "--out", str(out)]) == 0
            expected = "sizes: " + " -> ".join(map(str, sizes)) + "\n"
            assert capsys.readouterr().out == expected
            assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("steps, code, message", [
        (-1, 2, "error: --steps -1 is negative\n"),
        (1025, 3, "bound exceeded: ybe retract: --steps 1025 exceeds bound 1024\n"),
        (10**9, 3, "bound exceeded: ybe retract: --steps 1000000000 exceeds bound 1024\n"),
    ])
    def test_retract_refuses_steps_out_of_range(self, tmp_path, b9, capsys, steps, code, message):
        sol_path = tmp_path / "sol9.json"
        save_solution(from_brace(b9), str(sol_path))
        assert main(["ybe", "retract", str(sol_path), "--steps", str(steps)]) == code
        assert capsys.readouterr() == ("", message)

    def test_check_rejects_broken(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"size": 2, "lambda": [[0, 1], [1, 0]], "rho": [[0, 0], [1, 0]]}'
        )
        assert main(["ybe", "check", str(path)]) == 2


class TestRationalCommand:
    def test_pass_with_witness(self, capsys):
        rc = main([
            "rational", "--variant", "a2b", "--forbidden", "3",
            "--m1", "1", "--m2", "4", "--sample", "100",
            "--witness-prime", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "97/20" in out and "pass at the confidence of 100 samples" in out

    def test_invalid_spec_exit_2(self):
        rc = main([
            "rational", "--variant", "a2b", "--forbidden", "3",
            "--m1", "1", "--m2", "2", "--sample", "10",
        ])
        assert rc == 2

    @pytest.mark.parametrize("bad", [
        ("--sample", "-5"),
        ("--x", "1/0"),
        ("--forbidden", "x"),
    ])
    def test_bad_arguments_exit_2_with_error_line(self, bad, capsys):
        argv = ["rational", "--variant", "c1", "--forbidden", "2", "--x", "1", "--sample", "10"]
        rc = main(argv + list(bad))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("--variant", "a2b", "--forbidden", "3", "--m1", "1", "--m2", "4", "--witness-prime", "2"),
         "2 divides m2*(m1 - m2)"),
        (("--variant", "a2b", "--forbidden", "3", "--m1", "1", "--m2", "4", "--witness-prime", "4"),
         "4 is not prime"),
        (("--variant", "a2b", "--forbidden", "3", "--m1", "1", "--m2", "4", "--witness-prime", "3"),
         "3 is a forbidden prime"),
        (("--variant", "a2a", "--forbidden", "2", "--witness-prime", "3"),
         "the Dedekind witness is defined for variant a2b"),
    ])
    def test_refused_witness_prints_no_report(self, argv, message, capsys):
        rc = main(["rational", *argv, "--sample", "20"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    # every prime below 50 forbidden, or all but 47 forbidden and 47 the witness
    # prime: the sampler refuses before any draw, also for --sample 0
    NO_PRIME_LEFT = [
        ("--variant", "a2a", "--forbidden", ",".join(map(str, _SMALL_PRIMES))),
        ("--variant", "a2b", "--forbidden", ",".join(map(str, _SMALL_PRIMES[:-1])), "--m1", "1",
         "--m2", str(prod(_SMALL_PRIMES[:-1]) + 1), "--witness-prime", "47"),
    ]

    @pytest.mark.parametrize("sample", ("5", "0"))
    @pytest.mark.parametrize("argv", NO_PRIME_LEFT, ids=("forbidden", "witness"))
    def test_no_prime_left_to_sample_exits_2(self, argv, sample, capsys):
        for seed in ("1", "2", "1729"):
            rc = main(["rational", *argv, "--sample", sample, "--seed", seed])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert captured.err == "error: no prime below 50 is left to sample denominators from\n"

    # Trial division of BIG, or of m2 - m1 = 3^3 * 11111111111111111111111,
    # would run for minutes or more, and of each prime near PRIME_MAX for about
    # 0.1 s.  Each case runs in a fresh process with a timeout, so that a
    # regression fails instead of hanging the suite.
    BIG = "99999999999999999999999"
    BIG_INTEGER_CASES = [
        (("--variant", "a2a", "--forbidden", f"2,{BIG}"),
         3, "", f"bound exceeded: forbidden prime {BIG} exceeds bound {PRIME_MAX}\n"),
        (("--variant", "a2a", "--forbidden", "2,999999999989,999999999961,999999999959"),
         3, "", "bound exceeded: forbidden primes: their square roots sum past bound 1000000\n"),
        (("--variant", "a2b", "--forbidden", "3", "--m1", "1", "--m2", "4", "--witness-prime", BIG),
         3, "", f"bound exceeded: witness prime {BIG} exceeds bound {PRIME_MAX}\n"),
        (("--variant", "a2b", "--forbidden", "3", "--m1", "1", "--m2", "299999999999999999999998"),
         0, "a2b: pass at the confidence of 50 samples\n", ""),
    ]

    @pytest.mark.parametrize("argv, code, out, err", BIG_INTEGER_CASES,
                             ids=("forbidden", "forbidden-sum", "witness", "a2b-difference"))
    def test_big_integers_answer_at_once(self, argv, code, out, err):
        done = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "rational", *argv, "--sample", "50"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=20)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)

    # |m1| or m2 above M_MAX is refused before any arithmetic, by a message that
    # prints neither: m2 - m1, or the numerator of the Dedekind witness, would
    # otherwise have more digits than str() of an int accepts.  N = 10^4300 - 1
    # is the largest magnitude argparse's int() reads.
    N = "9" * 4300
    HUGE_A2B_CASES = [
        (("--forbidden", "3", "--m1", f"-{N}", "--m2", "5"), "|m1|"),
        (("--forbidden", "2", "--m1", "1", "--m2", N, "--witness-prime", "7"), "m2"),
    ]

    @pytest.mark.parametrize("argv, name", HUGE_A2B_CASES, ids=("m1", "m2-witness"))
    def test_a2b_parameters_above_the_bound_exit_3_at_once(self, argv, name):
        done = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "rational", "--variant", "a2b", *argv,
             "--sample", "10"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=20, preexec_fn=cap_address_space)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", f"bound exceeded: a2b: {name} exceeds bound 10^1000\n")

    # A count above SAMPLE_MAX is refused before the first draw, by a message
    # that does not print it: 10^6 samples would run for about 15 s, and a
    # count of 10^23 never ends.
    @pytest.mark.parametrize("count", ("1000000", str(10**23)), ids=("1e6", "1e23"))
    def test_sample_count_above_the_bound_exits_3_at_once(self, count):
        done = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "rational", "--variant", "a2a",
             "--forbidden", "2", "--sample", count],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=20, preexec_fn=cap_address_space)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", f"bound exceeded: sample count exceeds bound {SAMPLE_MAX}\n")

    def test_c1_run(self, capsys):
        rc = main([
            "rational", "--variant", "c1", "--forbidden", "2", "--x", "1",
            "--sample", "50", "--seed", "5",
        ])
        assert rc == 0


# argv that end in argparse (help, usage or a parse error), run against both
# parsers at two terminal widths: at 40 columns the root usage wraps its list
# of every command.
PARSE_ONLY_CASES = [
    (), ("-h",), ("--help",), ("--he",), ("frobnicate",), ("--bogus",),
    ("frobnicate", "-h"), ("-h", "analyze"), ("ybe", "frobnicate"),
    *((command, "-h") for command in cli.COMMANDS),
    *(("ybe", command, "-h") for command in cli.COMMANDS["ybe"][2]),
    ("construct", "--out", "x.json"), ("enumerate", "--order", "4"), ("rational",), ("ybe",),
    ("iso", "b8.json"), ("verify",),
    ("analyze", "b8.json", "--format", "xml"), ("construct", "--family", "nope", "--out", "x.json"),
    ("rational", "--variant", "zz"),
    ("enumerate", "--order", "four", "--out", "o"), ("ybe", "retract", "sol.json", "--steps", "x"),
    ("rational", "--variant", "a2a", "--sample", "1.5"), ("enumerate", "--o", "4"),
    ("analyze", "b8.json", "--bogus"),
    ("--", "analyze", "b8.json"), ("--", "ybe", "level", "sol.json"),
    ("ybe", "lev"), ("ybe", "ybe"),
]

# argv run against both parsers, from a directory holding b8.json and sol.json.
PARSER_CASES = [
    *PARSE_ONLY_CASES,
    ("enumerate", "--ord", "4", "--out", "o"),
    ("rational", "--var", "a2a", "--sample", "20"), ("analyze", "--form", "json", "b8.json"),
    ("analyze", "--", "b8.json"),
    ("analyze", "verify"), ("verify", "analyze"), ("analyze", "analyze"),
    ("verify", "b8.json"), ("dedekind", "b8.json"), ("iso", "b8.json", "b8.json"),
    ("ybe", "from-brace", "b8.json"), ("ybe", "check", "sol.json"),
    ("ybe", "retract", "sol.json", "--steps", "2"),
    ("construct", "--family", "two_power", "--n", "2", "--out", "b4.json"),
]


class TestParserTable:
    """main builds its parser from cli.COMMANDS, giving a parser only to the
    commands that argv names; stdout, stderr and the exit code of every case
    equal those of the parser with every command built in full."""

    @pytest.fixture
    def files(self, b8, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_brace(b8, "b8.json")
        save_solution(from_brace(b8), "sol.json")

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return code, *capsys.readouterr()

    def _match_legacy(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        got = self._run(argv, capsys)
        monkeypatch.setattr(cli, "make_parser", lambda argv: make_parser_legacy())
        assert got == self._run(argv, capsys)
        return got

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
    def test_outputs_match_legacy_parser(self, argv, files, monkeypatch, capsys):
        self._match_legacy(argv, "80", monkeypatch, capsys)

    @pytest.mark.parametrize("argv", PARSE_ONLY_CASES, ids=" ".join)
    def test_parse_only_outputs_match_legacy_parser_at_40_columns(self, argv, files, monkeypatch,
                                                                   capsys):
        assert self._match_legacy(argv, "40", monkeypatch, capsys)[0][0] == "SystemExit"

    def test_only_the_named_command_gets_arguments(self):
        # A command that argv does not name has no parser at all: argparse
        # cannot dispatch to it, and its name and help line are all that
        # usage, help and choice errors read.
        sub = cli.make_parser(["verify", "b8.json"])._subparsers._group_actions[0]
        sizes = {name: None if p is None else len(p._actions) for name, p in sub.choices.items()}
        assert sizes == {name: 2 if name == "verify" else None for name in cli.COMMANDS}
        assert [a.dest for a in sub._choices_actions] == list(cli.COMMANDS)

    def test_every_parser_on_the_dispatch_path_keeps_its_help(self):
        paths = [[name] for name in cli.COMMANDS if name != "ybe"]
        paths += [["ybe", name] for name in cli.COMMANDS["ybe"][2]]
        for path in paths:
            parser = cli.make_parser(path)
            for name in path:
                assert "-h" in parser._option_string_actions
                choices = parser._subparsers._group_actions[0].choices
                assert [n for n, p in choices.items() if p is not None] == [name]
                parser = choices[name]
            assert "-h" in parser._option_string_actions

    def test_parsers_built_per_call(self, files, monkeypatch, capsys):
        # One ArgumentParser per level of the dispatch path: the root, the
        # command and, under ybe, the subcommand.
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        expected = {(): 1, ("-h",): 1, ("frobnicate",): 1}
        expected.update({(name, "-h"): 2 for name in cli.COMMANDS})
        expected.update({("ybe", name, "-h"): 3 for name in cli.COMMANDS["ybe"][2]})
        expected.update({("analyze", "b8.json", "--format", "json"): 2,
                         ("ybe", "level", "sol.json"): 3})
        counts = {}
        for argv in expected:
            built.clear()
            self._run(argv, capsys)
            counts[argv] = len(built)
        assert counts == expected


def test_console_script_resolves_to_entry():
    # The [project.scripts] line of pyproject.toml, read without tomllib
    # (absent on Python 3.10): `skewbrace = "module:function"`.
    text = open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8").read()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.replace('"', "").replace(" ", "").split("=", 1)
                   for line in section.splitlines() if line.strip())
    module, function = scripts["skewbrace"].split(":")
    assert getattr(importlib.import_module(module), function) is cli.entry
