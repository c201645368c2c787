"""entbound benchmark: run one workload, or all of them, and print every
metric by name with its unit.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in a fresh child process (child.py) with the checkout's
``src`` as the only entbound on the path, and with ENTBOUND_SOLVER_TOL,
ENTBOUND_PURE_NUMPY and the BLAS thread variables removed, so the figures
do not depend on the invoking shell.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
WORKLOADS = ("corpus", "tensor6", "cli")  # as in workloads.py, which imports numpy
# set-up is timed in this many set-up-only children plus the measuring child
SETUP_ONLY_CHILDREN = 3
CHILD_TIMEOUT_S = 170.0
DROPPED_ENV = (
    "ENTBOUND_SOLVER_TOL",
    "ENTBOUND_PURE_NUMPY",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--src", str(SRC), "--workdir", str(WORKDIR / workload),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child process timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child process exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """The contract's result object for one workload, plus its info lines."""
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_CHILDREN):
            setups.append(_run_child(workload, seed, seconds, 0, True, deadline)[1]["setup_s"])
    info, res = _run_child(workload, seed, seconds, trace, False, deadline)
    setups.append(res["setup_s"])
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        info.append(f"absent: {', '.join(res['absent']) or 'none'}; wrapped calls: {res['wrapped_calls']}")
    else:
        metrics = {
            "pass_s": {"value": res["pass_s"], "unit": "s"},
            "op_p50_s": {"value": res["op_p50_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info.append(
        f"{workload}: seed {seed}, {res['passes']} pass(es) of {res['ops_per_pass']} operations, "
        f"pass_s {res['pass_s']:.3f}, op_p95_s {res['op_p95_s']:.4f}, cpu_s {res['cpu_s']:.3f}, "
        f"solver iterations per pass {res['iterations_per_pass']}, "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    info += [f"FAILED {line}" for line in res["failures"]]
    return {
        "info": info,
        "result": {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "entbound" / "__init__.py").is_file():
        print(f"error: no entbound sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so no child pays for it inside set-up
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (SRC, HERE)):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.workload:
            out = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(out["info"]))
            for name, m in out["result"]["metrics"].items():
                print(f"{name} = {m['value']:.6g} {m['unit']}")
            print(json.dumps(out["result"]))
            return 0
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                out = run_workload(workload, args.seed, args.seconds, trace, time.monotonic() + CHILD_TIMEOUT_S)
                print("\n".join(out["info"]))
                res = out["result"]
                for name, m in res["metrics"].items():
                    print(f"{workload} {'per-layer' if trace else 'end-to-end'} {name} = {m['value']:.6g} {m['unit']}")
                print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
                results[f"{workload}{'.trace' if trace else ''}"] = res
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
