"""Run the command line on hostile inputs and flag every case it mishandles.

Each case runs in a fresh `python -m skewbrace.cli` process, one at a time,
with its address space capped at 1 GB and a 10 s timeout.  The cases:

  * every integer flag of `construct`, `enumerate` (alone and with
    `--additive cyclic`, `elab` and `0`), `ybe retract --steps` and
    `rational`, at 0, -1, 1, 1024, 1025, 10^6, 10^23, 10^23 - 1 and
    +-(10^4300 - 1), the largest magnitude argparse's int() reads; the a2b
    flags --m1 and --m2 also with 3 forbidden, and --m2 with a witness
    prime, so that a message printing m2 - m1 or the witness is reached;
  * hostile files (100,000 nested '[', a 5000-digit number, NaN, Infinity,
    bytes that are not UTF-8, an order of 10^30, "order": true and rows
    given as strings), each fed to every command that reads a file.

A case is flagged when its exit code is outside {0, 1, 2, 3}, when its
stderr holds a traceback or more than one line, or when it times out.  The
tool prints each flagged case and a count, and exits 1 if any is flagged.
Uses the standard library only.

Usage: python tools/hostile_inputs.py
"""

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_LIMIT = 1 << 30
TIMEOUT_S = 10
# 10^23 - 1 (23 nines) has no small prime factor: trial division of it hangs.
# 10^4300 - 1 has the most digits that int() of a string and str() of an int accept.
VALUES = ("0", "-1", "1", "1024", "1025", str(10**6), str(10**23), str(10**23 - 1),
          "-" + "9" * 4300, "9" * 4300)

# Command lines with one integer flag set to V; OUT is an output path.
INTEGER_ARGVS = [
    ("construct", "--family", "two_power", "--n", "V", "--out", "OUT"),
    ("construct", "--family", "odd_p_cyclic", "--p", "V", "--n", "2", "--out", "OUT"),
    ("construct", "--family", "odd_p_cyclic", "--p", "3", "--n", "V", "--out", "OUT"),
    ("construct", "--family", "odd_p_nonabelian", "--p", "V", "--n", "2", "--out", "OUT"),
    ("construct", "--family", "odd_p_nonabelian", "--p", "3", "--n", "V", "--out", "OUT"),
    ("enumerate", "--order", "V", "--out", "OUT"),
    *(("enumerate", "--order", "V", "--additive", selector, "--out", "OUT")
      for selector in ("cyclic", "elab", "0")),
    ("ybe", "retract", "F", "--steps", "V"),
    ("rational", "--variant", "a2b", "--forbidden", "2", "--m1", "V", "--m2", "5", "--sample", "10"),
    ("rational", "--variant", "a2b", "--forbidden", "2", "--m1", "1", "--m2", "V", "--sample", "10"),
    ("rational", "--variant", "a2b", "--forbidden", "3", "--m1", "V", "--m2", "5", "--sample", "10"),
    ("rational", "--variant", "a2b", "--forbidden", "2", "--m1", "1", "--m2", "V", "--sample", "10",
     "--witness-prime", "7"),
    ("rational", "--variant", "a2a", "--forbidden", "2", "--sample", "V"),
    ("rational", "--variant", "a2a", "--forbidden", "2", "--sample", "10", "--seed", "V"),
    ("rational", "--variant", "a2a", "--forbidden", "2", "--sample", "10", "--witness-prime", "V"),
]

# Every command that reads a file F.
FILE_ARGVS = [
    ("verify", "F"), ("analyze", "F"), ("dedekind", "F"), ("iso", "F", "F"),
    ("construct", "--family", "trivial", "--group", "F", "--out", "OUT"),
    ("ybe", "from-brace", "F"), ("ybe", "check", "F"), ("ybe", "retract", "F"),
    ("ybe", "level", "F"),
]

# A valid solution of size 2, the file of `ybe retract --steps V`.
SOLUTION = b'{"size": 2, "lambda": [[1, 0], [1, 0]], "rho": [[1, 0], [1, 0]]}'


def _every_kind(order: str, row: str) -> bytes:
    """A document with the fields of a group, a brace and a solution, each
    table made of the rows row, so every loader reaches them."""
    rows = f"[{row}, {row}]"
    return (f'{{"order": {order}, "size": {order}, "table": {rows}, "add": {rows}, '
            f'"mul": {rows}, "lambda": {rows}, "rho": {rows}}}').encode()


DOCUMENTS = {
    "nested": b"[" * 100_000,
    "5000-digit": b'{"order": ' + b"9" * 5000 + b"}",
    "NaN": _every_kind("2", "[0, NaN]"),
    "Infinity": _every_kind("2", "[Infinity, 0]"),
    "not-UTF-8": b'{"order": 1, "table": [[0]]}\xff\xfe',
    "order-1e30": _every_kind(str(10**30), "[0, 1]"),
    "order-true": _every_kind("true", "[0, 1]"),
    "string-rows": _every_kind("2", '"01"'),
}


def cases() -> dict[str, tuple[tuple[str, ...], bytes | None]]:
    """Every case by name: its argv, in which F is the input file and OUT an
    output path, and the bytes of F, or None when argv reads no file."""
    out = {}
    for argv in INTEGER_ARGVS:
        for value in VALUES:
            filled = tuple(value if a == "V" else a for a in argv)
            out[" ".join(filled)] = (filled, SOLUTION if "F" in argv else None)
    for name, document in DOCUMENTS.items():
        for argv in FILE_ARGVS:
            out[f"{' '.join(argv)} <{name}>"] = (argv, document)
    return out


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_case(argv, document: bytes | None = None) -> str | None:
    """Run one case in a fresh process; why it is flagged, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input.json", Path(tmp) / "out"
        if document is not None:
            path.write_bytes(document)
        argv = [str(path) if a == "F" else str(out) if a == "OUT" else a for a in argv]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "skewbrace.cli", *argv], env=env, capture_output=True,
                text=True, errors="replace", timeout=TIMEOUT_S, preexec_fn=_cap_address_space)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    if done.returncode not in (0, 1, 2, 3):
        return f"exit {done.returncode}"
    if "Traceback" in done.stderr:
        return "traceback on stderr"
    if len(done.stderr.splitlines()) > 1:
        return f"{len(done.stderr.splitlines())} lines on stderr"
    return None


def main() -> int:
    flagged = 0
    all_cases = cases()
    for name, (argv, document) in all_cases.items():
        why = run_case(argv, document)
        if why is not None:
            flagged += 1
            print(f"FLAGGED  {name}: {why}", flush=True)
    print(f"{len(all_cases)} cases, {flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
