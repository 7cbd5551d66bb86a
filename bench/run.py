"""Closed-loop benchmark of the skewbrace CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-check
    python3 bench/run.py --record-reference

One client runs a workload's ops back to back, each one a ``skewbrace`` command
line passed to ``skewbrace.cli.main`` in this process with stdout and stderr
captured.  Every op's exit code, output and written files are compared with
``reference.json``; a mismatch, an exception or an unexpected exit counts as a
failed op and never stops the run.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json, its
timings in reference time (see ``calibrate.py``).
With ``--trace 1`` it runs part of the same op list untraced and then traced,
and prints the per-layer metrics measured by ``tracing.Tracer``.  The last line
of stdout is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1729
SETUP_REPEATS = 3
TRACE_PASS_SHARE = 0.25     # passes run untraced and then traced in a --trace 1 run
TAIL_BEYOND = 10            # op_tail_ms: highest percentile with this many ops beyond it
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "skewbrace")


class ProgramError(Exception):
    """The program under test cannot be loaded from this checkout."""


def load_program():
    """Import skewbrace from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skewbrace", "__init__.py")):
        raise ProgramError(f"no skewbrace sources under {src}")
    sys.path.insert(0, src)
    import skewbrace
    import skewbrace.cli
    import skewbrace.storage
    if not os.path.abspath(skewbrace.__file__).startswith(src + os.sep):
        raise ProgramError(f"skewbrace was imported from {skewbrace.__file__}, not {src}")
    return skewbrace


IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import skewbrace, skewbrace.cli, skewbrace.storage; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the program, timed inside it."""
    child = subprocess.run([sys.executable, "-c", IMPORT_TIMER, os.path.join(ROOT, "src")],
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout)


def load_reference() -> dict:
    if not os.path.isfile(REFERENCE_PATH):
        raise ProgramError(f"missing {REFERENCE_PATH}")
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            h.update(fh.read())
        return h.hexdigest()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def execute(pkg, op, work: str, seed: int) -> tuple[float, dict]:
    """Run one op; returns (latency in seconds, observed outcome)."""
    argv = [a.replace("$WORK", work).replace("$SEED", str(seed)) for a in op.argv]
    out_path = op.out.replace("$WORK", work) if op.out else None
    if out_path:
        shutil.rmtree(out_path, ignore_errors=True)
        if os.path.isfile(out_path):
            os.remove(out_path)
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        try:
            rc = pkg.cli.main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = f"raised {exc!r}"
        latency = time.perf_counter() - started
    outcome = {
        "rc": rc,
        "stdout": stdout.getvalue().replace(work, "$WORK"),
        "stderr": stderr.getvalue().replace(work, "$WORK"),
        "out_sha256": _digest(out_path) if out_path else None,
    }
    return latency, outcome


def mismatch(outcome: dict, ref: dict | None) -> str | None:
    if ref is None:
        return "no reference"
    for field in ("rc", "stdout", "stderr", "out_sha256"):
        if outcome[field] != ref.get(field):
            return f"{field} differs: got {str(outcome[field])[:120]!r}"
    return None


def run_ops(pkg, schedule, work: str, rng: random.Random, refs: dict, probe, tracer=None):
    """Run ops in order; returns (reference latencies of passing ops, all reference
    latencies, failures, wall seconds of all ops)."""
    ok_lat, all_lat, failures, wall = [], [], [], 0.0
    for i, op in enumerate(schedule):
        if tracer is not None:
            tracer.op_id = i
        latency, outcome = execute(pkg, op, work, rng.randrange(1, 2**31))
        wall += latency
        latency = probe.reference(latency)
        all_lat.append(latency)
        reason = mismatch(outcome, refs.get(op.key))
        if reason is None:
            ok_lat.append(latency)
        else:
            failures.append(f"{op.key}: {reason}")
    return ok_lat, all_lat, failures, wall


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n    # too few ops: the maximum
    return xs[rank - 1], 100.0 * rank / n, n


def build_schedule(ops, passes: int, rng: random.Random) -> list:
    schedule = []
    for _ in range(passes):
        order = list(ops)
        rng.shuffle(order)
        schedule += order
    return schedule


def run_workload(pkg, name: str, seed: int, seconds: float, trace: bool,
                 refs: dict, tiny: bool = False, log=print) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    base = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{name}")
    shutil.rmtree(base, ignore_errors=True)
    try:
        # Imported only now, so that numpy's import time stays in the program's import.
        from calibrate import SpeedProbe
        probe = SpeedProbe()
        setup_times, warm_failures = [], []
        for rep in range(1 if tiny or trace else SETUP_REPEATS):
            import_ref_s = probe.reference(import_seconds())
            work = os.path.join(base, f"setup{rep}")
            started = time.perf_counter()
            ops, tiny_ops = workload.setup(pkg, work, tiny)
            warm_failures += run_ops(pkg, tiny_ops, work, rng, refs, probe)[2]
            setup_times.append(import_ref_s + probe.reference(time.perf_counter() - started))
        if tiny:
            ops, passes = tiny_ops, 1
        else:
            passes = max(1, round(seconds / workload.nominal_pass_s))
        if trace:
            passes = max(1, round(passes * TRACE_PASS_SHARE))
        gc.collect()
        gc.freeze()     # what set-up made lives on; keep it out of the collector's scans
        ok_lat, all_lat, failures, wall = run_ops(pkg, build_schedule(ops, passes, rng), work, rng,
                                                  refs, probe)
        attempted = len(all_lat)
        ops_per_s = len(ok_lat) / sum(all_lat)
        lines = [f"workload {name}  seed {seed}  {passes} pass(es) of {len(ops)} ops"
                 f"  trace {int(trace)}"]
        if trace:
            tracer = Tracer()
            tracer.install(pkg)
            try:
                t_ok, t_all, t_fail, _ = run_ops(pkg, build_schedule(ops, passes, rng), work, rng,
                                                 refs, probe, tracer)
            finally:
                tracer.uninstall()
            attempted += len(t_all)
            failures += t_fail
            traced_ops_per_s = len(t_ok) / sum(t_all)
            metrics = tracer.metrics(ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0)
            units = {m: spec[0] for m, spec in PER_LAYER.items()}
            share, claim, parts = tracer.dominance(name)
            trace_dir = os.path.join(WORK_ROOT, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{name}-seed{seed}{'-tiny' if tiny else ''}.jsonl.gz")
            spans = tracer.write(trace_path)
            lines.append(f"  {spans} spans written to {os.path.relpath(trace_path, ROOT)}")
            lines.append(f"  dominant layers {parts}: {100 * share:.1f}% of traced op time"
                         f" (claim > {100 * claim:.0f}%): {'confirmed' if share > claim else 'NOT confirmed'}")
            for metric, value in metrics.items():
                lines.append(f"  {metric:<28} {value:.6g} {units[metric]}")
        else:
            latency_ms = [1000 * x for x in ok_lat] or [0.0]
            tail_ms, pct, count = tail(latency_ms)
            metrics = {
                "ops_per_s": ops_per_s,
                "op_p50_ms": statistics.median(latency_ms),
                "op_tail_ms": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup_times),
            }
            units = {"ops_per_s": "ops/ref_s", "op_p50_ms": "ref_ms", "op_tail_ms": "ref_ms",
                     "peak_rss_mb": "MB", "setup_s": "s"}
            notes = {"ops_per_s": f"(wall clock: {len(ok_lat) / wall:.4g} ops/s)",
                     "op_tail_ms": f"(p{pct:.2f} of {count} ops)",
                     "setup_s": f"(reference seconds: median of {len(setup_times)} set-ups,"
                                f" each a fresh import and the inputs and warm-up)"}
            for metric, value in metrics.items():
                lines.append(f"  {metric:<12} {value:.6g} {units[metric]} {notes.get(metric, '')}")
            lines.append(f"  {'fail_ratio':<12} {len(failures) / attempted:.6g} ratio"
                         f" ({len(failures)} of {attempted})")
        for failure in (warm_failures + failures)[:20]:
            lines.append(f"  FAILED {failure}")
        for line in lines:
            log(line)
        return {
            "correct": not (failures or warm_failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }
    finally:
        gc.unfreeze()
        shutil.rmtree(base, ignore_errors=True)


def record_reference(pkg) -> None:
    """Write reference.json from the program as it is now: every main and tiny op, once."""
    refs = {}
    rng = random.Random(DEFAULT_SEED)
    for name, workload in WORKLOADS.items():
        base = os.path.join(WORK_ROOT, f"record-{os.getpid()}-{name}")
        try:
            ops, tiny_ops = workload.setup(pkg, base, False)
            for op in ops + tiny_ops:
                refs[op.key] = execute(pkg, op, base, rng.randrange(1, 2**31))[1]
        finally:
            shutil.rmtree(base, ignore_errors=True)
        print(f"recorded {name}: {len(ops)} ops + {len(tiny_ops)} tiny ops")
    with open(REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                    for k, v in sorted(refs.items())) + "\n}\n")


def self_check(pkg, refs: dict) -> list[str]:
    """Tiny mode: every workload emits every named metric, and a wrong reference fails an op."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    quiet = lambda line: None  # noqa: E731
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(pkg, name, DEFAULT_SEED, 1, bool(trace), refs, True, quiet)
            if set(res["metrics"]) != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(res['metrics']) ^ wanted[trace])}"
                                " differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{name} trace {trace}: {res['failed']} ops failed")
        broken = {key: dict(ref, stdout="deliberately wrong\n") for key, ref in refs.items()}
        res = run_workload(pkg, name, DEFAULT_SEED, 1, False, broken, True, quiet)
        if res["correct"] or res["failed"] != res["attempted"]:
            problems.append(f"{name}: a wrong reference was not counted as a failure")
        print(f"self-check {name}: {'ok' if not problems else 'problems so far'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.record_reference):
        parser.error("one of --workload, --self-check or --record-reference is required")
    try:
        pkg = load_program()
        if args.record_reference:
            record_reference(pkg)
            return 0
        refs = load_reference()
    except (ProgramError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        problems = self_check(pkg, refs)
        for p in problems:
            print(f"self-check FAILED: {p}")
        return 1 if problems else 0
    result = run_workload(pkg, args.workload, args.seed, args.seconds, bool(args.trace), refs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
