"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the checks on their outputs.

Each workload is a closed loop with one caller: an operation starts when
the previous one returns.  Operations look the package's functions up by
module attribute at call time (``measures.e_w``, ``cli.main``), so the
traced run sees them through the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles


@dataclass
class Op:
    label: str
    call: Callable[[], Any]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], Any]
    # outputs by op label (ops that raised are missing) -> failures by label
    check: Callable[[dict], dict[str, list[str]]]


# ---------------------------------------------------------------------------
# corpus: many small complex-mode SDPs

CORPUS_DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))
CORPUS_STATES = 40
CORPUS_K = 2.0


def corpus(eb, seed: int, workdir: Path) -> Workload:
    """Seeded complex random states; dims cycle 2x2, 2x3, 3x3, 2x4, 3x4 and
    ranks cycle through 1..n-1, so every state has a kernel and e0/w0 pin it."""
    from entbound import measures

    cases = []
    for i in range(CORPUS_STATES):
        d_a, d_b = CORPUS_DIMS[i % len(CORPUS_DIMS)]
        rank = 1 + i % (d_a * d_b - 1)
        rho = eb.random_state(d_a, d_b, rank, (seed * 1000 + i) % 2**63)
        cases.append((f"s{i:02d}-{d_a}x{d_b}-rank{rank}", rho))

    ops = []
    for name, rho in cases:
        ops += [
            Op(f"{name}/en", lambda rho=rho: measures.log_negativity(rho)),
            Op(f"{name}/witness", lambda rho=rho: measures.npt_witness_bound(rho)),
            Op(f"{name}/e_w", lambda rho=rho: measures.e_w(rho)),
            Op(f"{name}/e0", lambda rho=rho: measures.det_distill_one_copy(rho)),
            Op(f"{name}/w0", lambda rho=rho: measures.w0(rho)),
            Op(f"{name}/fgamma", lambda rho=rho: measures.fidelity_ppt(rho, k=CORPUS_K)),
        ]

    def check(out: dict) -> dict[str, list[str]]:
        bad = {}
        for name, rho in cases:
            mat, d_a, d_b = rho.mat, rho.d_a, rho.d_b
            en = oracles.log_negativity(mat, d_a, d_b)
            got = {key: out.get(f"{name}/{key}") for key in ("en", "witness", "e_w", "e0", "w0", "fgamma")}
            found = {}
            if got["en"] is not None:
                found["en"] = oracles.check_en(got["en"].value_log2, mat, d_a, d_b)
            ew = got["e_w"]
            if ew is not None:
                found["e_w"] = oracles.check_ew_witness(
                    ew.value_log2, ew.witness.mat, mat, d_a, d_b
                ) + oracles.check_at_most(ew.value_log2, en, "e_w <= en")
            if got["witness"] is not None and ew is not None:
                value, wit = got["witness"]
                found["witness"] = oracles.check_npt_witness(
                    value, wit.mat, 2.0 ** ew.value_log2, mat, d_a, d_b
                )
            e0 = got["e0"]
            if e0 is not None:
                found["e0"] = oracles.check_e0_witness(e0.value_log2, e0.witness.mat, mat, d_a, d_b)
                if ew is not None:
                    found["e0"] += oracles.check_at_most(e0.value_log2, ew.value_log2, "e0 <= e_w")
                if oracles.support_projector(mat)[1] == 1:
                    found["e0"] += oracles.check_equal(
                        e0.value_log2,
                        oracles.pure_one_copy_rate(mat, d_a, d_b),
                        "e0 vs -log2 of the largest squared Schmidt coefficient",
                    )
            if got["w0"] is not None and e0 is not None:
                found["w0"] = oracles.check_equal(got["w0"].value_log2, e0.value_log2, "w0 vs e0")
            fg = got["fgamma"]
            if fg is not None:
                found["fgamma"] = oracles.check_fgamma_witness(
                    fg.value_log2, CORPUS_K, fg.witness.mat, mat, d_a, d_b
                )
            for key, msgs in found.items():
                if msgs:
                    bad[f"{name}/{key}"] = msgs
        return bad

    warm = eb.random_state(2, 2, 2, (seed * 1000 + CORPUS_STATES) % 2**63)
    return Workload(ops=ops, warmup=lambda: measures.e_w(warm), check=check)


# ---------------------------------------------------------------------------
# tensor6: few large real-mode SDPs

TENSOR_STATES = 2


def tensor6(eb, seed: int, workdir: Path) -> Workload:
    """sigma_r(r) (2x2) tensor rho_alpha(a) (3x3), regrouped to 6x6.  State i
    draws r and a from the i-th of TENSOR_STATES equal slices of
    r in (0.2, 0.8) and a in (0.15, 0.5), so each pass spans both ranges."""
    from entbound import measures

    rng = np.random.default_rng(seed)
    cases = []
    for i in range(TENSOR_STATES):
        lo, hi = i / TENSOR_STATES, (i + 1) / TENSOR_STATES
        r = 0.2 + 0.6 * float(rng.uniform(lo, hi))
        a = 0.15 + 0.35 * float(rng.uniform(lo, hi))
        sig, rh = eb.sigma_r(r), eb.rho_alpha(a)
        big = eb.tensor_state(sig, rh)
        # closed-form additivity of the log-negativity, from the benchmark's
        # own partial transpose: a wrong regrouping in tensor_state shows here
        en = oracles.log_negativity(sig.mat, 2, 2) + oracles.log_negativity(rh.mat, 3, 3)
        if abs(oracles.log_negativity(big.mat, 6, 6) - en) > oracles.CLOSED_TOL:
            raise RuntimeError(f"tensor_state(sigma_r({r}), rho_alpha({a})) breaks en additivity")
        cases.append((f"t{i}-sigma{r:.4f}-rho{a:.4f}", sig, rh, big, en))

    ops = []
    for name, _, _, big, _ in cases:
        ops += [
            Op(f"{name}/e_w", lambda big=big: measures.e_w(big)),
            Op(f"{name}/e0", lambda big=big: measures.det_distill_one_copy(big)),
            Op(f"{name}/w0", lambda big=big: measures.w0(big)),
        ]

    factor_ew = {}  # e_w(sigma) + e_w(rho) by case, solved once, outside the timed pass

    def check(out: dict) -> dict[str, list[str]]:
        bad = {}
        for name, sig, rh, big, en in cases:
            mat = big.mat
            ew, e0, w0 = (out.get(f"{name}/{key}") for key in ("e_w", "e0", "w0"))
            found = {}
            if ew is not None:
                if name not in factor_ew:
                    factor_ew[name] = measures.e_w(sig).value_log2 + measures.e_w(rh).value_log2
                found["e_w"] = (
                    oracles.check_ew_witness(ew.value_log2, ew.witness.mat, mat, 6, 6)
                    + oracles.check_equal(ew.value_log2, factor_ew[name], "e_w vs e_w(sigma) + e_w(rho)")
                    + oracles.check_at_most(ew.value_log2, en, "e_w <= en")
                )
            if e0 is not None:
                found["e0"] = oracles.check_e0_witness(e0.value_log2, e0.witness.mat, mat, 6, 6)
                if ew is not None:
                    found["e0"] += oracles.check_at_most(e0.value_log2, ew.value_log2, "e0 <= e_w")
            if w0 is not None and e0 is not None:
                found["w0"] = oracles.check_equal(w0.value_log2, e0.value_log2, "w0 vs e0")
            for key, msgs in found.items():
                if msgs:
                    bad[f"{name}/{key}"] = msgs
        return bad

    warm = cases[0][1]
    return Workload(ops=ops, warmup=lambda: measures.e_w(warm), check=check)


# ---------------------------------------------------------------------------
# cli: the user-facing path through argument parsing, state files and output

CLI_COMPUTE = "ew,en,e0,w0,witness,fgamma:k=1.5"
CLI_SWEEP = "ew,en,e0,fgamma:k=1.5,witness"
CLI_K = 1.5
CLI_SWEEPS = 2  # per family
# A 3x3 rho_alpha compute call takes about 0.3 s and a 2x2 sigma_r call about
# 0.2 s.  With rho_alpha calls the majority, the median operation falls inside
# their cluster instead of at the edge between the two, where it would jump.
CLI_STEPS = {"rho_alpha": 16, "sigma_r": 7}


def _state_doc(rho, name: str) -> dict:
    return {
        "dims": [rho.d_a, rho.d_b],
        "name": name,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.mat],
    }


def _vector_doc(d: int, name: str) -> dict:
    vec = [[0.0, 0.0] for _ in range(d * d)]
    for i in range(d):
        vec[i * d + i] = [1.0, 0.0]
    return {"dims": [d, d], "name": name, "vector": vec}


def _invoke(argv: list[str]) -> str:
    from entbound import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"entbound {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _closed_forms(kind: str, param) -> list[tuple[str, str, float]]:
    """(measure, relation, value) facts from the paper for a named state."""
    if kind == "rho_alpha":
        s = math.sqrt(param * (1.0 - param))
        facts = [
            ("en", "==", math.log2(1.0 + 4.0 / 3.0 * s)),
            ("ew", "<=", math.log2(1.0 + s)),
        ]
        if param == 0.5:
            # the paper's headline state: E_W = e0 = log2(3/2) < E_N = log2(5/3)
            facts += [("ew", "==", math.log2(1.5)), ("e0", "==", math.log2(1.5))]
        return facts
    if kind == "max_entangled":
        return [(m, "==", math.log2(param)) for m in ("ew", "en", "e0", "w0")] + [
            ("fgamma:k=1.5", "==", 0.0)
        ]
    if kind == "antisym":
        # F = 1 at k = 1.5: Q = P_sym / 4 + P_anti has ||Q^PT|| = 5/8 < 1/k
        return [
            ("ew", "==", math.log2(5.0 / 3.0)),
            ("en", "==", math.log2(5.0 / 3.0)),
            ("fgamma:k=1.5", "==", 0.0),
        ]
    return []


def _check_compute(doc: dict, kind: str, param, mat, d_a: int, d_b: int) -> list[str]:
    vals = {rec["measure"]: float(rec["value_log2"]) for rec in doc["measures"]}
    missing = [m for m in CLI_COMPUTE.split(",") if m not in vals]
    if missing:
        return [f"compute output lacks {missing}"]
    ew, en, e0 = vals["ew"], vals["en"], vals["e0"]
    out = oracles.check_en(en, mat, d_a, d_b)
    out += oracles.check_equal(vals["w0"], e0, "w0 vs e0")
    out += oracles.check_order(e0, ew, en)
    out += oracles.check_equal(
        vals["witness"], math.log2(oracles.npt_witness_value(mat, d_a, d_b)), "witness vs closed form", oracles.CLOSED_TOL
    )
    out += oracles.check_at_most(vals["witness"], ew, "witness <= e_w")
    fg = vals["fgamma:k=1.5"]
    out += oracles.check_at_most(fg, 0.0, "fgamma <= 0 (F <= 1)")
    out += oracles.check_at_most(-math.log2(CLI_K), fg, "fgamma >= log2(1/k) (Q = I/k)")
    for measure, rel, want in _closed_forms(kind, param):
        tol = oracles.CLOSED_TOL if measure == "en" else oracles.SDP_TOL
        if rel == "==":
            out += oracles.check_equal(vals[measure], want, f"{measure} vs closed form", tol)
        else:
            out += oracles.check_at_most(vals[measure], want, f"{measure} vs closed-form bound", tol)
    if kind == "sigma_r" and not en - ew > 1e-4:
        out.append(f"sigma_r({param}): E_N - E_W = {en - ew:.3e} is not > 1e-4")
    return out


def cli_workload(eb, seed: int, workdir: Path) -> Workload:
    """compute --format json on named-family state files written during set-up,
    plus sweeps over both families whose grid points are the computed states.
    The first rho_alpha sweep ends at the paper's headline state rho(0.5)."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    # (family, lo, hi) for each sweep; lo and hi stay inside the family's domain
    # so the CLI clips nothing and its grid equals np.linspace(lo, hi, steps)
    sweeps = []
    for s in range(CLI_SWEEPS):
        hi = 0.5 if s == 0 else float(rng.uniform(0.3, 0.49))
        sweeps.append(("rho_alpha", float(rng.uniform(0.03, 0.2)), hi))
        sweeps.append(("sigma_r", float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.6, 0.95))))

    files = []  # (label, kind, param, rho)
    family = {"rho_alpha": eb.rho_alpha, "sigma_r": eb.sigma_r}
    for s, (fam, lo, hi) in enumerate(sweeps):
        for j, param in enumerate(np.linspace(lo, hi, CLI_STEPS[fam])):
            param = float(param)
            files.append((f"sweep{s}-{fam}-{j}", fam, param, family[fam](param)))
    files.append(("max_entangled-2", "max_entangled", 2, eb.max_entangled(2)))
    files.append(("max_entangled-3", "max_entangled", 3, eb.max_entangled(3)))
    files.append(("antisym", "antisym", None, eb.antisym_state()))

    paths = {}
    for label, kind, param, rho in files:
        doc = _vector_doc(param, label) if kind == "max_entangled" else _state_doc(rho, label)
        path = workdir / f"{label}.json"
        path.write_text(json.dumps(doc))
        paths[label] = str(path)

    def compute(label):
        return json.loads(_invoke(["compute", "--state", paths[label], "--measures", CLI_COMPUTE, "--format", "json"]))

    def sweep(s):
        fam, lo, hi = sweeps[s]
        csv_path = workdir / f"sweep{s}.csv"
        _invoke([
            "sweep", "--family", fam, "--from", repr(lo), "--to", repr(hi),
            "--steps", str(CLI_STEPS[fam]), "--measures", CLI_SWEEP, "--out", str(csv_path),
        ])
        with open(csv_path, newline="") as fh:
            return list(csv.DictReader(fh))

    ops = [Op(f"compute/{label}", lambda label=label: compute(label)) for label, *_ in files]
    ops += [Op(f"sweep/{s}-{sweeps[s][0]}", lambda s=s: sweep(s)) for s in range(len(sweeps))]

    params = {label: param for label, _, param, _ in files}

    def check(out: dict) -> dict[str, list[str]]:
        bad = {}
        for label, kind, param, rho in files:
            doc = out.get(f"compute/{label}")
            if doc is not None:
                msgs = _check_compute(doc, kind, param, rho.mat, rho.d_a, rho.d_b)
                if msgs:
                    bad[f"compute/{label}"] = msgs
        for s, (fam, lo, hi) in enumerate(sweeps):
            key = f"sweep/{s}-{fam}"
            rows = out.get(key)
            if rows is None:
                continue
            msgs = []
            if len(rows) != CLI_STEPS[fam]:
                msgs.append(f"{len(rows)} CSV rows, expected {CLI_STEPS[fam]}")
            for j, row in enumerate(rows[:CLI_STEPS[fam]]):
                label = f"sweep{s}-{fam}-{j}"
                msgs += oracles.check_equal(float(row["param"]), params[label], f"row {j} param", 1e-11)
                doc = out.get(f"compute/{label}")
                if doc is None:
                    continue
                vals = {rec["measure"]: float(rec["value_log2"]) for rec in doc["measures"]}
                for measure in CLI_SWEEP.split(","):
                    msgs += oracles.check_equal(
                        float(row[measure]), vals[measure], f"row {j} {measure} vs compute/{label}", oracles.CLOSED_TOL
                    )
            if msgs:
                bad[key] = msgs
        return bad

    def warmup():
        return compute("max_entangled-2")

    return Workload(ops=ops, warmup=warmup, check=check)


WORKLOADS = {"corpus": corpus, "tensor6": tensor6, "cli": cli_workload}
