#!/usr/bin/env python3
"""Benchmark of the hostility package.

One workload run:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

prints the environment stamp, the input properties and the named figures,
then as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced pass (see layer_trace.py). End-to-end
times are in reference seconds, wall seconds scaled by the host's speed
at the time (see workloads.py); wall-time figures are printed beside them.

Every workload, untraced and traced, with a readable report:

    python3 perfbench/run.py --all --seed 1 --seconds 30

It imports src/hostility of the source tree it sits in, never an
installed copy, and writes only under that tree's .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# This process and every command it starts run on one CPU with one BLAS
# thread, set before numpy loads: the reference loop that scales each
# timing (workloads.reference_s) then runs on the CPU the timed work ran
# on, and no figure depends on the thread setting of whoever runs it.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import layer_trace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("stage1_items_per_s", "items/s"),
    ("stage2_items_per_s", "items/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_package():
    """Import hostility from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hostility" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hostility package under {src}")
    sys.path.insert(0, str(src))
    import hostility

    if Path(hostility.__file__).resolve().parent != (src / "hostility").resolve():
        raise ImportError(f"hostility imported from {hostility.__file__}, not {src}")


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_stamp() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": workloads.source_digest(ROOT),
        "nproc": os.cpu_count(),
        "cpu_used": CPU,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    work = ROOT / ".perfbench_work" / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = workloads.Bench(ROOT, work, seed, seconds)
    run, traced = workloads.WORKLOADS[workload]
    try:
        if trace:
            values = traced(bench)
            units = {name: unit for name, unit, _ in layer_trace.PER_LAYER}
            named = {}
        else:
            result = run(bench)
            values = dict(result.metrics, peak_rss_mb=bench.peak_rss_mb)
            units = dict(END_TO_END)
            named = dict(result.named)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = bench.ops
    named["fail_ratio"] = (ops.failed / ops.attempted if ops.attempted else 1.0, "ratio")
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment_stamp(),
        "inputs": bench.inputs_props,
        "named": named,
        "notes": bench.notes,
        "problems": ops.problems[:20],
    }
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    line = {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": metrics,
    }
    for problem in ops.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in named.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print("report: " + json.dumps(report))
    print(json.dumps(line))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    table: dict[str, dict[str, dict]] = {}
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: failed\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            report = json.loads(next(ln for ln in lines if ln.startswith("report: "))[8:])
            ok = ok and result["correct"]
            table.setdefault(workload, {})[f"t{trace}"] = {"result": result, "report": report}
    print(f"seed {seed}, {seconds} s per run")
    print("\nend-to-end (tracing off)")
    for workload, runs in table.items():
        if "t0" not in runs:
            continue
        result, report = runs["t0"]["result"], runs["t0"]["report"]
        print(f"  {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, (value, unit) in report["named"].items():
            print(f"    {name:28s} {value:12.6g} {unit}")
        for name, m in result["metrics"].items():
            print(f"    {name:28s} {m['value']:12.6g} {m['unit']}")
        for name, props in report["inputs"].items():
            print(f"    inputs[{name}] {json.dumps(props)}")
    names = [w for w in table if "t1" in table[w]]
    print("\nper layer (traced pass)")
    print(f"  {'metric':40s} {'unit':15s}" + "".join(f"{w:>15s}" for w in names))
    for name, unit, _ in layer_trace.PER_LAYER:
        cells = "".join(f"{table[w]['t1']['result']['metrics'][name]['value']:15.6g}" for w in names)
        print(f"  {name:40s} {unit:15s}{cells}")
    if table:
        env = next(iter(table.values()))
        print("\nenvironment " + json.dumps(next(iter(env.values()))["report"]["env"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload and print a report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args.seed, args.seconds)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, workloads.SetupError) as exc:
        traceback.print_exc()
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
