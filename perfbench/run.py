"""Benchmark of gridzeta: one workload per run, each in fresh interpreters.

    python3 perfbench/run.py --workload theta_sheets --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports gridzeta from ./src.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones: set-up time as the
median over SETUP_SAMPLES fresh interpreters, and throughput, latency and
peak memory of one fresh interpreter that runs the ops for --seconds.  With
--trace 1 one traced interpreter reports the per-layer metrics and writes
its spans to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
TIMEOUT_S = 170.0  # for the whole run, every interpreter it starts included
# One BLAS/OpenMP thread: with two OpenBLAS threads on a 2-core machine a
# 16x16 grid log-determinant took 0.27 s against 4.5 ms on one.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {"setup.import_s": "s", "setup.import_scipy_s": "s", "setup.warmup_s": "s"}
    for layer in LAYERS:
        units[f"{layer}.calls_per_op"] = "count"
        units[f"{layer}.self_ms_per_op"] = "ms"
    units["trace.op_ms"] = "ms"
    units["trace.coverage_pct"] = "%"
    return units


class BenchError(Exception):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root: str, args, deadline: float, extra=()) -> tuple[float, float, dict | None]:
    """Start one worker; return (set-up seconds, its speed factor, final JSON or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        *extra,
    ]
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - launched))[0]:
            raise BenchError("worker did not get ready in time")
        line = proc.stdout.readline()
        ready = time.perf_counter()
        if not line.startswith("READY "):
            raise BenchError(f"worker did not get ready: {line!r}")
        _, gen_s, factor = line.split()
        setup_s = ready - launched - float(gen_s)
        rest, _ = proc.communicate(timeout=max(0.0, deadline - ready))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, float(factor), (json.loads(lines[-1]) if lines else None)


def import_scipy_seconds(root: str, deadline: float) -> float:
    """Time spent importing scipy modules during `import gridzeta`, from
    `python -X importtime` (sum of the self times of scipy.* modules)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gridzeta"],
        cwd=root, env=worker_env(root), capture_output=True, text=True,
        timeout=max(0.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise BenchError("import gridzeta failed")
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            total_us += int(m.group(1))
    return total_us * 1e-6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.perf_counter() + TIMEOUT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gridzeta", "__init__.py")):
        print("run from the root of a gridzeta checkout: src/gridzeta is missing", file=sys.stderr)
        return 2
    # byte-compile first, so no set-up sample pays for it
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.tsv")
            _, _, res = run_worker(root, args, deadline, ("--trace-file", trace_file))
            values = dict(res["per_layer"])
            values["setup.import_scipy_s"] = import_scipy_seconds(root, deadline) / res["setup_speed_factor"]
            units = per_layer_units()
            print(f"speed factor {res['speed_factor']:.4f}; spans in {os.path.relpath(trace_file, root)}")
        else:
            # Set-up samples go before and after the measuring interpreter,
            # so their median spans the run rather than one burst of it.
            before = SETUP_SAMPLES // 2
            samples = [run_worker(root, args, deadline, ("--setup-only",)) for _ in range(before)]
            samples.append(run_worker(root, args, deadline))
            samples += [run_worker(root, args, deadline, ("--setup-only",)) for _ in range(SETUP_SAMPLES - before - 1)]
            res = samples[before][2]
            values = dict(res["end_to_end"], setup_s=statistics.median(s / f for s, f, _ in samples))
            units = END_TO_END_UNITS
            unscaled = dict(res["unscaled"], setup_s=statistics.median(s for s, _, _ in samples))
            print(f"speed factor {res['speed_factor']:.4f}; unscaled: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError, TypeError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload:>17} {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
