"""One workload in one fresh process: set up, time whole passes, check every
output, and print a JSON summary as the last line of standard output.

Started by run.py with the checkout's ``src`` as the only entbound on the
path.  ``--t0`` is the CLOCK_MONOTONIC reading taken just before this
process was spawned, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _environment() -> str:
    import numpy as np
    import scipy

    from entbound import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ.get(v, "unset") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return (
        f"env: python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"kernel {kernels.kernel_name()}, blas {blas.get('name')} {blas.get('version')}, "
        f"nproc {len(os.sched_getaffinity(0))}, "
        + ", ".join(f"{k}={v}" for k, v in threads.items())
    )


def _iterations(output) -> int:
    """Solver iterations behind one output: a MeasureResult, or a compute
    document from the CLI (sweeps report none)."""
    if hasattr(output, "iterations"):
        return int(output.iterations)
    if isinstance(output, dict):
        return sum(int(rec["iterations"]) for rec in output.get("measures", ()))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import entbound as eb

    src = Path(args.src).resolve()
    if src not in Path(eb.__file__).resolve().parents:
        raise SystemExit(f"entbound was imported from {eb.__file__}, not from {src}")

    import layers
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](eb, args.seed, Path(args.workdir))
    wl.warmup()
    setup_s = _now() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    counts = layers.install(tracer) if tracer else None
    passes, op_times, outputs, raised = [], [], [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    # whole passes until the next one would end after --seconds (at least one)
    while True:
        out, err = {}, {}
        t_pass = time.perf_counter()
        for op in wl.ops:
            t = time.perf_counter()
            try:
                out[op.label] = op.call()
            except Exception as exc:  # a raising operation is recorded as failed, the pass goes on
                err[op.label] = f"raised {type(exc).__name__}: {exc}"
            op_times.append(time.perf_counter() - t)
        passes.append(time.perf_counter() - t_pass)
        outputs.append(out)
        raised.append(err)
        if time.perf_counter() - start + statistics.median(passes) > args.seconds:
            break
    cpu_s = time.process_time() - cpu0
    if tracer:
        tracer.uninstall()

    failures, check_failed = [], 0
    for n, (out, err) in enumerate(zip(outputs, raised)):
        bad = wl.check(out)
        check_failed += len(bad)
        for label, msgs in sorted({**err, **{k: "; ".join(v) for k, v in bad.items()}}.items()):
            failures.append(f"pass {n}: {label}: {msgs}")

    op_sorted = sorted(op_times)
    summary = {
        "setup_s": setup_s,
        "passes": len(passes),
        "pass_s": statistics.median(passes),
        "op_p50_s": statistics.median(op_times),
        "op_p95_s": op_sorted[min(len(op_sorted) - 1, int(0.95 * len(op_sorted)))],
        "ops_per_pass": len(wl.ops),
        "iterations_per_pass": sum(_iterations(o) for o in outputs[0].values()),
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": len(wl.ops) * len(passes),
        "failed": len(failures),
        "correct": check_failed == 0,
        "failures": failures,
    }
    if tracer:
        summary["layers"] = layers.metrics(tracer, counts, cpu_s)
        summary["absent"] = tracer.absent
        summary["wrapped_calls"] = sum(span.calls for span in tracer.spans.values())
    print(_environment())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
