"""Time one-shot `skewbrace` commands: each run is a fresh interpreter, as a
user's shell starts it, against two source trees.

For every command the two trees run in turn, interleaved, and the tree that
runs first alternates from round to round, so a drift of the machine falls on
both alike.  The wall time of each run includes the interpreter's start-up and
every import.  For each command and tree the tool prints the median and the
quartiles of the wall times in milliseconds, the exit code, and whether the
two trees printed the same stdout and stderr.  Uses the standard library only.

Usage: python tools/oneshot.py [--runs N] BASE CHANGE -- COMMAND [COMMAND ...]

BASE and CHANGE are checkouts (directories holding src/skewbrace); each
COMMAND is one quoted argument string, as after `skewbrace`, and the `--`
keeps one that starts with a dash from being read as an option, for example
    python tools/oneshot.py --runs 11 ../parent . -- "--help" "rational --variant a2a --forbidden 2"
The bytecode cache is left as the environment sets it; set
PYTHONDONTWRITEBYTECODE=1 and remove src/skewbrace/__pycache__ to time a
start that compiles every module it loads.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time


def run_once(tree: str, argv: list[str]) -> tuple[float, int, str]:
    """(wall seconds, exit code, stdout + stderr) of one fresh `skewbrace` run."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "skewbrace.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return time.perf_counter() - started, done.returncode, done.stdout + done.stderr


def compare(trees: tuple[str, str], argv: list[str], runs: int):
    """Per side (0 base, 1 change), the wall times of one command and the set
    of its (exit code, output) pairs.  The sides are kept by position, so a
    tree compared with itself still gets two sides of `runs` runs each."""
    times = ([], [])
    outcomes = (set(), set())
    for r in range(runs):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            seconds, code, output = run_once(trees[side], argv)
            times[side].append(seconds)
            outcomes[side].add((code, output))
    return times, outcomes


def summary(times: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return (f"median {statistics.median(times) * 1e3:7.1f} ms"
            f"   quartiles {q1 * 1e3:7.1f} - {q3 * 1e3:7.1f} ms")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Time one-shot skewbrace commands on two trees.")
    parser.add_argument("--runs", type=int, default=11, help="runs per tree and command")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("commands", nargs="+")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = (args.base, args.change)
    for command in args.commands:
        times, outcomes = compare(trees, shlex.split(command), args.runs)
        print(f"skewbrace {command}")
        for side, label in enumerate(("base", "change")):
            codes = sorted({code for code, _ in outcomes[side]})
            print(f"  {label:<7}{summary(times[side])}   exit {codes}   ({trees[side]})")
        same = outcomes[0] == outcomes[1]
        print(f"  output: {'same' if same else 'DIFFERS'} on both trees")


if __name__ == "__main__":
    main(sys.argv[1:])
