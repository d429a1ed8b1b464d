"""One fresh interpreter: set up, then run a workload's ops for a while.

Run by run.py, never imported.  Protocol on stdout:

* ``READY <seconds> <factor>`` once set-up is done: the time spent making
  inputs and gauging the interpreter's speed before that point, which run.py
  subtracts from set-up, and the speed factor (see speed.py) to scale it by;
* one JSON object with the run's results, as the last line.

Set-up is `import gridzeta` plus one untimed warm-up op, so lazy caches
(such as the order-1024 F coefficients) are built before timing starts.
With --setup-only the process exits after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from speed import WINDOW, SpeedGauge
from workloads import WORKLOADS


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-file", default=None, help="trace the ops and write the spans here")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile q (0 < q <= 100) of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(times, tail_percentile) -> dict:
    times = sorted(times)
    if not times:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0}
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * percentile(times, 50.0),
        "op_tail_ms": 1e3 * percentile(times, tail_percentile),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t_gen = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    warmup = workload.warmup_spec()
    setup_gauge = SpeedGauge("interpreter")  # set-up is interpreter-bound everywhere
    setup_gauge.sample(WINDOW)
    gen_s = time.perf_counter() - t_gen

    t_import = time.perf_counter()
    import gridzeta as gz

    import_s = time.perf_counter() - t_import
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(gz.__file__).startswith(src + os.sep):
        print(f"gridzeta imported from {gz.__file__}, not from {src}", file=sys.stderr)
        return 1
    workload.prepare(gz)

    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(gz)
        result, warmup_s = tracer.run_op(0, workload.run_op, gz, warmup)
    else:
        t0 = time.perf_counter()
        result = workload.run_op(gz, warmup)
        warmup_s = time.perf_counter() - t0
    print(f"READY {gen_s!r} {setup_gauge.factor()!r}", flush=True)
    if args.setup_only:
        return 0

    warmup_bad = workload.check(gz, warmup, result)
    for msg in warmup_bad:
        print(f"warm-up check failed: {msg}", file=sys.stderr)

    times: list[float] = []  # op times scaled to nominal speed
    raw_times: list[float] = []
    attempted = failed = wrong = 0
    gauge = SpeedGauge(workload.speed_kernel)
    gauge.sample(WINDOW)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for spec in workload.next_round():
            attempted += 1
            try:
                if tracer:
                    result, dt = tracer.run_op(attempted, workload.run_op, gz, spec)
                else:
                    t0 = time.perf_counter()
                    result = workload.run_op(gz, spec)
                    dt = time.perf_counter() - t0
            except Exception:  # an op that raises is counted, and the run goes on
                failed += 1
                print(f"op {spec} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            raw_times.append(dt)
            times.append(dt / gauge.factor())
            gauge.after_op(dt)
            bad = workload.check(gz, spec, result)
            if bad:
                failed += 1
                wrong += 1
                for msg in bad:
                    print(f"check failed: {msg}", file=sys.stderr)

    out = {
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and not warmup_bad,
    }
    out["speed_factor"] = gauge.run_factor()
    out["setup_speed_factor"] = setup_gauge.factor()
    if tracer:
        # the traced run scales its times like the untraced one, by the run's median factor
        scale = 1.0 / gauge.run_factor()
        layers = tracer.layer_metrics(len(times) + 1)  # the warm-up op is traced too
        out["per_layer"] = {
            "setup.import_s": import_s / setup_gauge.factor(),
            "setup.warmup_s": warmup_s / setup_gauge.factor(),
            **{k: v * scale if k.endswith("_ms_per_op") or k == "trace.op_ms" else v for k, v in layers.items()},
        }
        tracer.write(args.trace_file)
    else:
        out["end_to_end"] = summarize(times, workload.tail_percentile)
        out["end_to_end"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["unscaled"] = summarize(raw_times, workload.tail_percentile)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
