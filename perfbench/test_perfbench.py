"""Self-test of the benchmark's oracles, checks and tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

Every checker must reject a wrong output (a witness scaled by 1.01, a value
shifted by 1e-5, e0 and e_w swapped), the benchmark's own partial
transpose must match a hand-worked case, and the tracer must report a
wrapped name that does not exist as absent and keep running.  The checks
run on real program outputs, so this takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import entbound as eb  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from entbound.linalg import HermitianMatrix  # noqa: E402
from tracing import Tracer  # noqa: E402

SHIFT = 1e-5


def test_ptranspose_of_phi2_has_eigenvalue_minus_half():
    phi = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            phi[i, j] = 0.5
    pt = oracles.ptranspose(phi, 2, 2)
    # Phi(2)^PT = SWAP / 2: the |01>, |10> block becomes [[0, 1/2], [1/2, 0]]
    want = np.array([[0.5, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0.5]])
    assert np.array_equal(pt.real, want)
    assert np.allclose(oracles.eigs(pt), [-0.5, 0.5, 0.5, 0.5])
    assert oracles.log_negativity(phi, 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_ptranspose_acts_on_b_only():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(oracles.ptranspose(np.kron(a, b), 2, 3), np.kron(a, b.T))


def test_tracer_reports_absent_names_and_keeps_running():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    assert tracer.install(mod, "outer", "mod.outer")
    assert tracer.install(mod, "inner", "mod.inner")
    assert not tracer.install(mod, "_gone", "mod._gone")
    assert mod.outer(1) == 4 and mod.outer(2) == 6
    assert tracer.absent == ["mod._gone"]
    outer_span, inner_span = tracer.spans["mod.outer"], tracer.spans["mod.inner"]
    assert (outer_span.calls, inner_span.calls) == (2, 2)
    assert outer_span.child_s == pytest.approx(inner_span.incl_s)
    assert 0.0 <= outer_span.self_s <= outer_span.incl_s
    assert tracer.span("mod._gone").calls == 0
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner


def _run(wl, labels):
    ops = {op.label: op for op in wl.ops}
    return {label: ops[label].call() for label in labels}


def _shifted(res, delta=SHIFT):
    return dataclasses.replace(res, value_log2=res.value_log2 + delta)


def _scaled(res, factor=1.01):
    return dataclasses.replace(res, witness=HermitianMatrix(factor * res.witness.mat))


def _rejects(wl, out, label):
    bad = wl.check(out)
    return label in bad


@pytest.fixture(scope="module")
def corpus_case(tmp_path_factory):
    wl = workloads.corpus(eb, 3, tmp_path_factory.mktemp("corpus"))
    # s01 (2x3, rank 2) and s00 (2x2, rank 1, the Schmidt-coefficient check)
    labels = [op.label for op in wl.ops if op.label.startswith(("s00-", "s01-"))]
    return wl, _run(wl, labels)


def test_corpus_accepts_program_outputs(corpus_case):
    wl, out = corpus_case
    assert wl.check(out) == {}


def test_corpus_rejects_wrong_outputs(corpus_case):
    wl, out = corpus_case
    for state in ("s00-2x2-rank1", "s01-2x3-rank2"):
        for key in ("en", "e_w", "e0", "w0", "fgamma"):
            label = f"{state}/{key}"
            for delta in (SHIFT, -SHIFT):
                assert _rejects(wl, {**out, label: _shifted(out[label], delta)}, label), (label, delta)
        for key in ("e_w", "e0", "fgamma"):
            label = f"{state}/{key}"
            assert _rejects(wl, {**out, label: _scaled(out[label])}, label), label
        label = f"{state}/witness"
        value, wit = out[label]
        assert _rejects(wl, {**out, label: (value * 1.01, wit)}, label)
        assert _rejects(wl, {**out, label: (value, HermitianMatrix(1.01 * wit.mat))}, label)
        assert _rejects(wl, {**out, label: (value + SHIFT, wit)}, label)
        # e0 and e_w swapped
        ew, e0 = out[f"{state}/e_w"], out[f"{state}/e0"]
        assert e0.value_log2 < ew.value_log2 - 1e-3
        swapped = {
            **out,
            f"{state}/e_w": dataclasses.replace(ew, value_log2=e0.value_log2),
            f"{state}/e0": dataclasses.replace(e0, value_log2=ew.value_log2),
        }
        bad = wl.check(swapped)
        assert f"{state}/e_w" in bad and f"{state}/e0" in bad


def test_tensor6_checks(tmp_path):
    wl = workloads.tensor6(eb, 5, tmp_path)
    labels = [op.label for op in wl.ops if op.label.startswith("t0-")]
    out = _run(wl, labels)
    assert wl.check(out) == {}
    name = labels[0].split("/")[0]
    for key in ("e_w", "e0", "w0"):
        label = f"{name}/{key}"
        for delta in (SHIFT, -SHIFT):
            assert _rejects(wl, {**out, label: _shifted(out[label], delta)}, label), (label, delta)
    for key in ("e_w", "e0"):
        label = f"{name}/{key}"
        assert _rejects(wl, {**out, label: _scaled(out[label])}, label), label
    ew, e0 = out[f"{name}/e_w"], out[f"{name}/e0"]
    swapped = {
        **out,
        f"{name}/e_w": dataclasses.replace(ew, value_log2=e0.value_log2),
        f"{name}/e0": dataclasses.replace(e0, value_log2=ew.value_log2),
    }
    bad = wl.check(swapped)
    assert f"{name}/e_w" in bad and f"{name}/e0" in bad


def _with_value(doc, measure, fn):
    doc = json.loads(json.dumps(doc))
    for rec in doc["measures"]:
        if rec["measure"] == measure:
            rec["value_log2"] = fn(rec["value_log2"])
    return doc


def test_cli_checks(tmp_path):
    wl = workloads.cli_workload(eb, 2, tmp_path)
    sweep = next(op.label for op in wl.ops if op.label.startswith("sweep/0-"))
    family = sweep.split("-", 1)[1]
    assert family == "rho_alpha"  # the sweep that ends at rho(0.5)
    labels = [
        op.label for op in wl.ops
        if op.label.startswith(f"compute/sweep0-{family}-")
        or op.label in ("compute/max_entangled-2", "compute/max_entangled-3", "compute/antisym")
    ] + [sweep]
    out = _run(wl, labels)
    assert wl.check(out) == {}
    for label in labels[:-1]:
        for measure in workloads.CLI_COMPUTE.split(","):
            for delta in (SHIFT, -SHIFT):
                wrong = _with_value(out[label], measure, lambda v: v + delta)
                # a grid state's value may be caught as a sweep row mismatch
                assert wl.check({**out, label: wrong}), (label, measure, delta)
    rows = [dict(r) for r in out[sweep]]
    rows[1]["ew"] = repr(float(rows[1]["ew"]) + SHIFT)
    assert _rejects(wl, {**out, sweep: rows}, sweep)
    # e0 and e_w swapped where they differ
    swapped = 0
    for label in labels[:-1]:
        vals = {rec["measure"]: rec["value_log2"] for rec in out[label]["measures"]}
        if vals["e0"] < vals["ew"] - 1e-4:
            wrong = _with_value(out[label], "ew", lambda v: vals["e0"])
            wrong = _with_value(wrong, "e0", lambda v: vals["ew"])
            assert _rejects(wl, {**out, label: wrong}, label), label
            swapped += 1
    assert swapped


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    emitted = {name: unit for name, (_, unit) in layers.metrics(Tracer(), layers.Counters(), 0.0).items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == emitted


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
