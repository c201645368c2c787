"""Value gate: how far a change moves the measures' values, against how far
the parent's own rounding moves them.

    python3 tools/value_gate.py --change src --parent /path/to/parent/src

Runs e_w, e0 (det_distill_one_copy), w0, fgamma (fidelity_ppt, k = 2) and
w_dual at gaps 1e-8 and 1e-10 on a fixed state set: the `corpus` states of
seeds 1-3, the 30 stress states, sigma_r(0.05k), rho_alpha(0.025k), Phi(2),
Phi(3), the antisymmetric state, five sigma_r x rho_alpha states and the
two-copy rho_alpha(0.3), rho_alpha(0.5), Phi(2), sigma_r(0.5) and
random_state(2, 2, 2, 77).

The change runs once.  The parent runs as is and on the same states
conjugated by a local basis reversal (index i -> d - 1 - i) of both factors,
of A's alone and of B's alone.  A reversal leaves every value exactly
unchanged, so the parent's moves under the three reversals measure its own
rounding spread.  Each run is one subprocess on one BLAS thread with only
its source tree on the path.

Per measure and gap it prints the largest move against the parent (the
larger of the primal and dual value moves) for the change and for each
reversal, the calls moved by more than 1e-9, each run's largest distance to
the parent's gap-1e-10 values, and failures; per gap, total iterations; per
run, the calls identical to the parent's in primal, dual, iterations and
stop rule, and the KKT jitter rungs its factors used (the `kkt_jitter` of
every solve's trace rows); and every call whose status or stop rule differs
from the parent's.

A run whose package has measures.evaluate_many also solves the sigma_r and
rho_alpha grids of e_w, e0, w0 and fgamma through it, one batch per grid,
measure and gap, and reports how many of those calls are identical to the
same run's solo calls.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GAPS = (1e-8, 1e-10)
MEASURES = ("e_w", "e0", "w0", "fgamma", "w_dual")
REVERSALS = ("both", "a", "b")
MOVED = 1e-9
JOBS = 2  # runs at once, each on one BLAS thread
CORPUS_DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))


def _states(eb, np):
    """(name, state) pairs of the fixed state set."""
    out = []
    for seed in (1, 2, 3):  # perfbench's corpus workload
        for i in range(40):
            d_a, d_b = CORPUS_DIMS[i % 5]
            rank = 1 + i % (d_a * d_b - 1)
            out.append((f"c{seed}-{i:02d}", eb.random_state(d_a, d_b, rank, (seed * 1000 + i) % 2**63)))
    for i in range(30):  # tests/test_stress.py's corpus
        d_a, d_b = CORPUS_DIMS[i % 5]
        out.append((f"stress{i:02d}", eb.random_state(d_a, d_b, 1 + i % (d_a * d_b - 1), 7000 + i)))
    out += [(f"sigma{0.05 * k:.2f}", eb.sigma_r(0.05 * k)) for k in range(1, 20)]
    out += [(f"rho{0.025 * k:.3f}", eb.rho_alpha(0.025 * k)) for k in range(1, 21)]
    out += [("phi2", eb.max_entangled(2)), ("phi3", eb.max_entangled(3)), ("antisym", eb.antisym_state())]
    pairs = [(0.35, 0.25), (0.5, 0.3), (0.65, 0.42)]
    rng = np.random.default_rng(1)  # perfbench's tensor6 workload, seed 1
    for i in range(2):
        lo, hi = i / 2, (i + 1) / 2
        pairs.append((0.2 + 0.6 * float(rng.uniform(lo, hi)), 0.15 + 0.35 * float(rng.uniform(lo, hi))))
    out += [(f"sigma{r:.4f}xrho{a:.4f}", eb.tensor_state(eb.sigma_r(r), eb.rho_alpha(a))) for r, a in pairs]
    two = [
        ("rho0.3", eb.rho_alpha(0.3)),
        ("rho0.5", eb.rho_alpha(0.5)),
        ("phi2", eb.max_entangled(2)),
        ("sigma0.5", eb.sigma_r(0.5)),
        ("random77", eb.random_state(2, 2, 2, 77)),
    ]
    out += [(f"{name}^2", eb.kron_power_state(rho, 2)) for name, rho in two]
    return out


def _reversed(eb, np, rho, reversal):
    """rho conjugated by the basis reversal of A's factor, B's or both."""
    d_a, d_b = rho.d_a, rho.d_b
    pa = np.arange(d_a)[::-1] if reversal in ("both", "a") else np.arange(d_a)
    pb = np.arange(d_b)[::-1] if reversal in ("both", "b") else np.arange(d_b)
    perm = (pa[:, None] * d_b + pb[None, :]).ravel()
    return eb.make_state(rho.mat[np.ix_(perm, perm)], d_a, d_b)


def _worker(reversal):
    """Solve every call of the set in this process; print one JSON object:
    the calls' records and the count of factors per KKT jitter rung."""
    import numpy as np

    import entbound as eb
    from entbound import measures

    rungs = collections.Counter()
    solve = measures.solve

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        rungs.update(f"{row['kkt_jitter']:g}" for row in sol.trace[1:])  # the first row follows no step
        return sol

    measures.solve = counted

    calls = {
        "e_w": eb.e_w,
        "e0": eb.det_distill_one_copy,
        "w0": eb.w0,
        "fgamma": lambda rho, cfg: eb.fidelity_ppt(rho, 2.0, cfg),
        "w_dual": eb.w_dual,
    }
    def record(r):
        if isinstance(r, eb.EntboundError):
            stop = re.search(r"stop rule ([\w-]+)", str(r))
            return {"error": type(r).__name__, "stop": stop.group(1) if stop else type(r).__name__}
        return {"p": r.primal_value, "d": r.dual_value, "it": r.iterations, "stop": "optimal"}

    out = {}
    for name, rho in _states(eb, np):
        if reversal != "none":
            rho = _reversed(eb, np, rho, reversal)
        for gap in GAPS:
            cfg = eb.SolverConfig(gap_tol=gap)
            for measure in MEASURES:
                try:
                    rec = record(calls[measure](rho, cfg))
                except eb.EntboundError as exc:
                    rec = record(exc)
                out[f"{name}|{measure}|{gap:g}"] = rec

    # the sigma_r and rho_alpha grids again, each grid in one batch call
    batch = None
    if hasattr(measures, "evaluate_many"):
        grids = {}
        for name, rho in _states(eb, np):
            family = re.fullmatch(r"(sigma|rho)[\d.]+", name)
            if family:
                grids.setdefault(family.group(1), []).append((name, rho))
        fns = {"e_w": (eb.e_w, {}), "e0": (eb.det_distill_one_copy, {}), "w0": (eb.w0, {}), "fgamma": (eb.fidelity_ppt, {"k": 2.0})}
        batch = [0, 0]
        for grid in grids.values():
            names, rhos = zip(*grid)
            for gap in GAPS:
                cfg = eb.SolverConfig(gap_tol=gap)
                for measure, (fn, kw) in fns.items():
                    for name, r in zip(names, measures.evaluate_many(fn, rhos, cfg, **kw)):
                        batch[0] += record(r) == out[f"{name}|{measure}|{gap:g}"]
                        batch[1] += 1
    print(json.dumps({"calls": out, "rungs": rungs, "batch": batch}))


def _run(src, reversal):
    env = {k: v for k, v in os.environ.items() if k != "ENTBOUND_SOLVER_TOL"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", reversal], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _report_runs(runs, rungs, batch):
    """Per run, the calls identical to the parent's, the batch calls
    identical to its own solo calls, and the jitter rungs."""
    parent = runs["parent"]
    names = ["change", *REVERSALS]
    same = {name: sum(runs[name][k] == parent[k] for k in parent) for name in names}
    print(
        "calls identical to the parent's in primal, dual, iterations and stop rule: "
        + ", ".join(f"{name} {same[name]} of {len(parent)}" for name in names)
    )
    print(
        "batch calls identical to the same run's solo calls: "
        + ", ".join(
            f"{name} " + ("no batch entry" if batch[name] is None else f"{batch[name][0]} of {batch[name][1]}")
            for name in ["parent", *names]
        )
    )
    for name in ["parent", *names]:
        counts = sorted(rungs[name].items(), key=lambda kv: float(kv[0]))
        print(f"KKT jitter rungs, {name}: " + (", ".join(f"{r}: {n}" for r, n in counts) or "none"))


def _solved(rec):
    return "error" not in rec


def _ratio(a, b):
    return f"{a / b:.6g}x" if b else "from 0"


def _move(a, b):
    return max(abs(a["p"] - b["p"]), abs(a["d"] - b["d"]))


def _report(runs):
    parent = runs["parent"]
    names = ["change", *REVERSALS]

    def keys(measure, gap):
        return [k for k in parent if k.endswith(f"|{measure}|{gap:g}")]

    def ref(k):  # the parent's gap-1e-10 call for the same state and measure
        return parent[k.rsplit("|", 1)[0] + f"|{GAPS[-1]:g}"]

    out_of_spread = []
    print(f"{len(parent)} calls per run; moves are max(|d primal|, |d dual|) against the parent")
    head = "measure  gap    | largest move: change / both A B | >1e-9: change / both A B"
    print(head + " | to parent@1e-10: change / parent both A B | failures: change / parent both A B")
    for measure in MEASURES:
        for gap in GAPS:
            ks = keys(measure, gap)
            mv, cnt, dist, fail = {}, {}, {}, {}
            for name in ["parent", *names]:
                run = runs[name]
                moves = [_move(run[k], parent[k]) for k in ks if _solved(run[k]) and _solved(parent[k])]
                mv[name] = max(moves, default=0.0)
                cnt[name] = sum(m > MOVED for m in moves)
                to_ref = [_move(run[k], ref(k)) for k in ks if _solved(run[k]) and _solved(ref(k))]
                dist[name] = max(to_ref, default=0.0)
                fail[name] = sum(not _solved(run[k]) for k in ks)
            spread = max(mv[r] for r in REVERSALS)
            flag = "" if mv["change"] <= spread else f"  OUTSIDE the move spread ({_ratio(mv['change'], spread)})"
            if gap == GAPS[-1]:  # the reference itself: the distance is the move
                ref_col = "-"
            else:
                far = max(dist[r] for r in ("parent", *REVERSALS))
                ref_col = f"{dist['change']:.3e} / " + " ".join(f"{dist[r]:.3e}" for r in ("parent", *REVERSALS))
                flag += "" if dist["change"] <= far else f"  FARTHER from the reference ({_ratio(dist['change'], far)})"
            if flag:
                out_of_spread.append(f"{measure}@{gap:g}")
            print(
                f"{measure:7s} {gap:<6g} | {mv['change']:.2e} / " + " ".join(f"{mv[r]:.2e}" for r in REVERSALS)
                + f" | {cnt['change']} / " + " ".join(str(cnt[r]) for r in REVERSALS)
                + f" | {ref_col} | {fail['change']} / " + " ".join(str(fail[r]) for r in ("parent", *REVERSALS))
                + flag
            )

    for gap in GAPS:
        its = {
            name: sum(rec["it"] for k, rec in runs[name].items() if k.endswith(f"|{gap:g}") and _solved(rec))
            for name in ["parent", *names]
        }
        lo, hi = min(its[r] for r in ("parent", *REVERSALS)), max(its[r] for r in ("parent", *REVERSALS))
        inside = "inside" if lo <= its["change"] <= hi else "OUTSIDE"
        print(
            f"iterations at gap {gap:g}: change {its['change']}, parent {its['parent']}, "
            + ", ".join(f"{r} {its[r]}" for r in REVERSALS)
            + f"; change {inside} the range {lo}-{hi}"
        )

    for name in ["parent", *names]:
        failed = [f"{k} ({rec['stop']})" for k, rec in runs[name].items() if not _solved(rec)]
        print(f"failed calls, {name}: " + (", ".join(failed) or "none"))
    new_failures = [k for k in parent if _solved(parent[k]) and not _solved(runs["change"][k])]
    print(f"calls that fail on the change and pass on the parent: {len(new_failures)}")
    for k in new_failures:
        print(f"  {k}: {runs['change'][k]['stop']}")
    print("calls whose stop rule differs from the parent's (change, then reversals):")
    for k in parent:
        stops = [runs[name][k]["stop"] for name in names]
        if stops[0] != parent[k]["stop"]:
            also = any(s != parent[k]["stop"] for s in stops[1:])
            print(f"  {k}: parent {parent[k]['stop']}, change {stops[0]}, reversals {stops[1:]}"
                  + ("" if also else "  (no reversal changes it)"))
    print("measure x gap pairs outside the reversal spread: " + (", ".join(out_of_spread) or "none"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--change", type=Path, help="the change's src directory")
    ap.add_argument("--parent", type=Path, help="the parent's src directory")
    ap.add_argument("--worker", choices=("none", *REVERSALS), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return _worker(args.worker)
    if not (args.change and args.parent):
        ap.error("--change and --parent are required")
    plan = {"change": (args.change, "none"), "parent": (args.parent, "none")}
    plan.update({r: (args.parent, r) for r in REVERSALS})
    with ThreadPoolExecutor(JOBS) as pool:
        futures = {name: pool.submit(_run, src.resolve(), rev) for name, (src, rev) in plan.items()}
        results = {name: f.result() for name, f in futures.items()}
    runs = {name: res["calls"] for name, res in results.items()}
    _report(runs)
    _report_runs(runs, {name: res["rungs"] for name, res in results.items()}, {name: res.get("batch") for name, res in results.items()})


if __name__ == "__main__":
    main()
