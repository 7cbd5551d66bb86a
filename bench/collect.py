"""Run the benchmark once per seed, one process per run, and summarise the spread.

Usage, from the root of a checkout:

    python3 bench/collect.py --workloads analyze,rational --seeds 1-10 [--out FILE]

Each run prints every end-to-end metric with its unit, and fail_ratio.  For
each workload and end-to-end metric it then prints the median of the runs, the
first and third quartile (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  ``--out`` also writes every run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "mem_gb": round(mem / 2**30, 1),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in parse_seeds(args.seeds):
            res = run_once([sys.executable] + spec["command"][1:], workload, seed, spec["run_seconds"])
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
            runs[seed] = {m: v["value"] for m, v in res["metrics"].items()}
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{m}={v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items())
                  + f"  fail_ratio={res['failed'] / res['attempted']:.4g} ratio", flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs.values()]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(values), "bound": bound}
            print(f"  {metric:<12} median {summary[metric]['median']:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {summary[metric]['spread']:.4f}  (bound {bound}, bound/3 {bound / 3:.4f})")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
