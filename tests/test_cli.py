"""Command line behavior: verbs, formats, exit codes, error reporting."""

import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entbound
from entbound import cli, measures, states
from entbound.cli import main
from entbound.errors import ConsistencyError, DomainError, NumericError, SolverError


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def bell_file(tmp_path):
    return write_json(
        tmp_path,
        "bell.json",
        {"dims": [2, 2], "vector": [[1, 0], [0, 0], [0, 0], [1, 0]], "name": "bell"},
    )


def first_err_line(capsys):
    return capsys.readouterr().err.splitlines()[0]


def test_compute_text_output(tmp_path, capsys):
    code = main(["compute", "--state", bell_file(tmp_path), "--measures", "en,ew"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "state: bell [2x2]"
    values = {}
    for line in out[1:]:
        tok = line.split()[0]
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        values[tok] = fields
    assert abs(float(values["en"]["value_log2"]) - 1.0) <= 1e-9
    assert abs(float(values["ew"]["value_log2"]) - 1.0) <= 1e-6
    assert int(values["en"]["iterations"]) == 0
    assert int(values["ew"]["iterations"]) > 0


def test_compute_json_output(tmp_path, capsys):
    code = main(
        ["compute", "--state", bell_file(tmp_path), "--measures", "en,fgamma:k=2",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "bell"
    assert doc["dims"] == [2, 2]
    by_tok = {m["measure"]: m for m in doc["measures"]}
    assert abs(by_tok["en"]["value_log2"] - 1.0) <= 1e-9
    assert abs(by_tok["fgamma:k=2"]["value_log2"]) <= 1e-6
    assert set(by_tok["en"]) == {"measure", "value_log2", "primal", "dual", "gap", "iterations"}


def test_compute_matrix_form(tmp_path, capsys):
    eye = [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]
    path = write_json(tmp_path, "mixed.json", {"dims": [2, 2], "matrix": eye})
    code = main(["compute", "--state", path, "--measures", "en"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # file name is the fallback when no name field is present
    assert out[0] == "state: mixed.json [2x2]"
    assert abs(float(out[1].split("value_log2=")[1].split()[0])) <= 1e-12


_SOLVES_WITHOUT_SCIPY = """
import sys
import entbound as eb
from entbound import cli, measures

rho = eb.rho_alpha(0.3)
for value in (measures.e_w(rho), measures.det_distill_one_copy(rho), measures.w0(rho),
              measures.fidelity_ppt(rho, k=2.0)):
    assert value.iterations > 0
assert cli.main(["compute", "--state", sys.argv[1], "--measures", "ew,en,e0,w0,witness,fgamma:k=1.5"]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_solves_and_the_cli_do_not_import_scipy(tmp_path):
    # a fresh interpreter, since this test module's neighbours import scipy
    src = str(Path(entbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _SOLVES_WITHOUT_SCIPY, bell_file(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_compute_accepts_w0_but_sweep_rejects_it(tmp_path, capsys):
    path = bell_file(tmp_path)
    assert main(["compute", "--state", path, "--measures", "w0"]) == 0
    capsys.readouterr()
    code = main(
        ["sweep", "--family", "sigma_r", "--from", "0.2", "--to", "0.8",
         "--steps", "2", "--measures", "w0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert first_err_line(capsys) == "ERROR 2: usage"


def test_usage_errors_exit_two(tmp_path, capsys):
    path = bell_file(tmp_path)
    cases = [
        [],
        ["compute", "--state", path, "--measures", "bogus"],
        ["compute", "--state", path, "--measures", "en,en"],
        ["compute", "--state", path, "--measures", "en,,ew"],
        ["compute", "--state", path, "--measures", "fgamma"],
        ["compute", "--state", path, "--measures", "fgamma:k=abc"],
        ["compute", "--state", path, "--measures", "fgamma:k=0.5"],
        ["verify", "--suite", "bogus"],
    ]
    for argv in cases:
        assert main(argv) == 2
        assert first_err_line(capsys).startswith("ERROR 2: ")


def test_compute_refuses_an_oversized_state_as_usage(tmp_path, capsys):
    # a 110-dim state exceeds every SDP measure's capacity rule
    vec = [[1.0, 0.0]] + [[0.0, 0.0]] * 109
    path = write_json(tmp_path, "big.json", {"dims": [10, 11], "vector": vec})
    for measure in ("ew", "e0", "w0", "fgamma:k=2"):
        assert main(["compute", "--state", path, "--measures", measure]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "ERROR 2: usage"
        assert "cap" in err[1]


def test_solver_tol_env(tmp_path, capsys, monkeypatch):
    path = bell_file(tmp_path)
    monkeypatch.setenv("ENTBOUND_SOLVER_TOL", "banana")
    assert main(["compute", "--state", path, "--measures", "en"]) == 2
    assert first_err_line(capsys) == "ERROR 2: usage"
    monkeypatch.setenv("ENTBOUND_SOLVER_TOL", "-1e-9")
    assert main(["compute", "--state", path, "--measures", "en"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("ENTBOUND_SOLVER_TOL", "1e-7")
    assert main(["compute", "--state", path, "--measures", "ew"]) == 0
    monkeypatch.setenv("ENTBOUND_SOLVER_TOL", "1e-5")
    assert main(["compute", "--state", path, "--measures", "ew"]) == 0


def test_state_file_parse_errors(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"dims": [2, 2], "vector": [[1, 0]')
    assert main(["compute", "--state", str(bad), "--measures", "en"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "ERROR 2: parse"
    assert "line 1, column" in err

    cases = [
        {"dims": [2, 2], "vector": [[1, 0]] * 4, "extra": 1},
        {"dims": [2], "vector": [[1, 0]] * 4},
        {"dims": [2, 2]},
        {"dims": [2, 2], "vector": [[1, 0]] * 3},
        {"dims": [2, 2], "vector": [[1, 0]] * 4, "matrix": []},
        {"dims": [2, 2], "vector": [[1, 0], [0, 0], [0, 0], "x"]},
        # every row is checked before the 160000 x 160000 matrix is allocated
        {"dims": [400, 400], "matrix": [[]] * 160000},
    ]
    for i, doc in enumerate(cases):
        path = write_json(tmp_path, f"bad{i}.json", doc)
        assert main(["compute", "--state", path, "--measures", "en"]) == 2
        assert first_err_line(capsys) == "ERROR 2: parse"

    assert main(["compute", "--state", str(tmp_path / "missing.json"), "--measures", "en"]) == 2
    assert first_err_line(capsys) == "ERROR 2: parse"

    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe\x00")  # not UTF-8
    assert main(["compute", "--state", str(latin), "--measures", "en"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "ERROR 2: parse"
    assert str(latin) in err[1]


def test_a_state_that_cannot_be_allocated_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # the vector form's n x n outer product stands in for an allocation
    # that fails
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(np, "outer", no_memory)
    assert main(["compute", "--state", bell_file(tmp_path), "--measures", "en"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "ERROR 2: parse"
    assert "a state of dims 2x2 cannot be allocated" in err[1]


def test_entries_beyond_float_range_are_parse_errors(tmp_path, capsys):
    # JSON integer literals have no size limit; float() of 1 followed by 400
    # zeros overflows
    big = 10**400
    docs = [
        {"dims": [1, 2], "matrix": [[[big, 0], [0, 0]], [[0, 0], [0, 0]]]},
        {"dims": [1, 2], "vector": [[1, 0], [0, -big]]},
    ]
    for i, doc in enumerate(docs):
        path = tmp_path / f"big{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", "--state", str(path), "--measures", "en"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "ERROR 2: parse"
        assert ("matrix entry (0,0)" if i == 0 else "vector entry 1") in err[1]


def test_invalid_states_exit_three(tmp_path, capsys):
    herm = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # not Hermitian
    off = [[[0.7, 0], [0, 0]], [[0, 0], [0.7, 0]]]  # trace 1.4
    neg = [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
    zero_vec = {"dims": [1, 2], "vector": [[0, 0], [0, 0]]}
    nan_mat = [[[float("nan"), 0], [0, 0]], [[0, 0], [0.5, 0]]]
    inf_vec = {"dims": [1, 2], "vector": [[float("inf"), 0], [1, 0]]}
    tiny_vec = {"dims": [1, 2], "vector": [[1e-13, 0], [0, 0]]}  # norm under 1e-12
    docs = [
        {"dims": [1, 2], "matrix": herm},
        {"dims": [1, 2], "matrix": off},
        {"dims": [1, 2], "matrix": neg},
        zero_vec,
        {"dims": [1, 2], "matrix": nan_mat},
        inf_vec,
        tiny_vec,
    ]
    for i, doc in enumerate(docs):
        path = write_json(tmp_path, f"inv{i}.json", doc)
        assert main(["compute", "--state", path, "--measures", "en"]) == 3
        assert first_err_line(capsys) == "ERROR 3: invalid-state"


@pytest.mark.parametrize("big", [1e200, 1e308])
def test_vectors_with_an_overflowing_norm_are_normalized(tmp_path, capsys, big):
    # finite entries describe a Bell state even where |v| leaves float range
    path = write_json(tmp_path, "big.json", {"dims": [2, 2], "vector": [[big, 0], [0, 0], [0, 0], [big, 0]]})
    assert main(["compute", "--state", path, "--measures", "en", "--format", "json"]) == 0
    (en,) = json.loads(capsys.readouterr().out)["measures"]
    assert abs(en["value_log2"] - 1.0) <= 1e-12


def test_vector_normalization_ignores_a_power_of_two_scale(tmp_path, capsys):
    vec = [[0.3, 0.1], [-0.2, 0.0], [0.0, 0.7], [0.05, -0.4]]
    outputs = []
    for k in (0, 600, -30):
        doc = {"dims": [2, 2], "vector": [[2.0**k * re, 2.0**k * im] for re, im in vec], "name": "v"}
        path = write_json(tmp_path, f"v{k}.json", doc)
        assert main(["compute", "--state", path, "--measures", "en", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


# entries a state file may hold: any float (huge, tiny, subnormal, inf, nan)
# and integers up to beyond float range
_ENTRY = st.one_of(
    st.floats(),
    st.sampled_from([1e308, -1e308, 1e-320, 5e-324, 10**400, -(10**400)]),
    st.integers(-(10**3), 10**3),
)
_PAIR = st.lists(_ENTRY, min_size=2, max_size=2)


@st.composite
def _state_docs(draw):
    """A JSON state file of dims up to 3x3: a vector, a matrix of any
    entries, or the maximally mixed state with a few entries and their
    mirrors replaced."""
    d_a, d_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = d_a * d_b
    form = draw(st.sampled_from(["vector", "matrix", "mixed"]))
    if form == "vector":
        return {"dims": [d_a, d_b], "vector": draw(st.lists(_PAIR, min_size=n, max_size=n))}
    if form == "matrix":
        row = st.lists(_PAIR, min_size=n, max_size=n)
        return {"dims": [d_a, d_b], "matrix": draw(st.lists(row, min_size=n, max_size=n))}
    mat = [[[1.0 / n if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
    for i, j, (re, im) in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _PAIR), max_size=3)):
        mat[i][j] = [re, 0.0 if i == j else im]
        mat[j][i] = [re, 0.0 if i == j else -im]
    return {"dims": [d_a, d_b], "matrix": mat}


@settings(derandomize=True, deadline=None)
@given(st.one_of(st.binary(max_size=64), _state_docs().map(lambda doc: json.dumps(doc).encode())))
@example(b"\xff\xfe\x00")
@example(b'{"dims": [1, 1], "vector": [[' + b"9" * 5000 + b", 0]]}")
@example(b"[" * 100_000 + b"]" * 100_000)
@example(json.dumps({"dims": [2, 2], "vector": [[1e308, 1e308], [0, 0], [0, 0], [1e308, -1e308]]}).encode())
def test_state_file_loader_fuzz(raw):
    # whatever the file holds, compute exits 0, 2 or 3, and an error's first
    # line names its code and kind; pytest's settings fail any warning on the way
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/state.json"
        with open(path, "wb") as fh:
            fh.write(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["compute", "--state", path, "--measures", "en"])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().splitlines()[0] == {2: "ERROR 2: parse", 3: "ERROR 3: invalid-state"}[code]


def test_sweep_csv_shape_and_stability(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--family", "sigma_r", "--from", "0", "--to", "1",
            "--steps", "5", "--measures", "en,ew"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")

    lines = data.decode().splitlines()
    assert lines[0] == "param,en,ew"
    assert len(lines) == 6
    params = [float(row.split(",")[0]) for row in lines[1:]]
    # both endpoints sit strictly inside the open domain
    assert abs(params[0] - 1e-6) <= 1e-12
    assert abs(params[-1] - 0.999999) <= 1e-12
    for row in lines[1:]:
        _, en, ew = (float(c) for c in row.split(","))
        assert ew <= en + 1e-7


_SWEEP_ALL = "ew,en,e0,fgamma:k=1.5,witness"


@pytest.mark.parametrize("family, hi", [("sigma_r", 0.9), ("rho_alpha", 0.5)])
def test_sweep_cells_equal_the_library_values(family, hi, tmp_path, monkeypatch):
    # the grid's SDP measures are solved in lockstep, and every cell is still
    # the value the library gives on its state alone; so is every cell of a
    # sweep solved a few rows at a time
    argv = ["sweep", "--family", family, "--from", "0.1", "--to", str(hi), "--steps", "5", "--measures", _SWEEP_ALL]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    make = getattr(states, family)
    want = ["param," + _SWEEP_ALL]
    for param in np.linspace(0.1, hi, 5):
        rho = make(float(param))
        values = [
            measures.e_w(rho).value_log2,
            measures.log_negativity(rho).value_log2,
            measures.det_distill_one_copy(rho).value_log2,
            measures.fidelity_ppt(rho, 1.5).value_log2,
            math.log2(measures.npt_witness_bound(rho)[0]),
        ]
        want.append(",".join(cli._fmt(v) for v in [param, *values]))
    assert (tmp_path / "a.csv").read_text().splitlines() == want
    monkeypatch.setattr(cli, "_SWEEP_ROWS", 2)
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_text().splitlines() == want


def test_sweep_reports_the_first_failure_in_row_order(tmp_path, capsys, monkeypatch):
    # the grid's measures are solved column by column, yet the failure
    # reported is the first in row order, then in the --measures order
    real = measures.evaluate_many

    def failing(rows):
        def evaluate_many(measure, states_, config=None, **kw):
            out = real(measure, states_, config, **kw)
            name = inspect.unwrap(measure).__name__
            for row, exc in rows.get(name, ()):
                out[row] = exc
            return out

        return evaluate_many

    argv = ["sweep", "--family", "rho_alpha", "--from", "0.1", "--to", "0.5", "--steps", "5",
            "--measures", _SWEEP_ALL, "--out", str(tmp_path / "s.csv")]
    for rows, want in (
        (
            {"det_distill_one_copy": [(1, SolverError("e0 failed"))], "fidelity_ppt": [(3, ConsistencyError("f failed"))]},
            "sweep aborted at param 0.2 (e0): e0 failed",
        ),
        (
            {"fidelity_ppt": [(2, NumericError("f failed"))], "e_w": [(2, SolverError("ew failed"))]},
            "sweep aborted at param 0.3 (ew): ew failed",
        ),
    ):
        monkeypatch.setattr(measures, "evaluate_many", failing(rows))
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == ["ERROR 4: solver-failure", want]
    # a package error other than a solver failure keeps its own exit code
    monkeypatch.setattr(measures, "evaluate_many", failing({"e_w": [(4, DomainError("k out of range"))]}))
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["ERROR 2: usage", "k out of range"]


def test_sweep_rho_alpha_closed_form(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--family", "rho_alpha", "--from", "0.1", "--to", "0.5",
                 "--steps", "3", "--measures", "en", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        alpha, en = (float(c) for c in row.split(","))
        want = np.log2(1 + (4 / 3) * np.sqrt(alpha * (1 - alpha)))
        assert abs(en - want) <= 1e-9
    assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.3, 0.5]


def test_sweep_significant_digits(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["sweep", "--family", "rho_alpha", "--from", "1/3", "--to", "0.5",
                 "--steps", "2", "--measures", "en", "--out", str(out)]) == 2
    assert main(["sweep", "--family", "rho_alpha", "--from", "0.333333333333",
                 "--to", "0.5", "--steps", "2", "--measures", "en",
                 "--out", str(out)]) == 0
    first = out.read_text().splitlines()[1].split(",")[0]
    assert first == "0.333333333333"
    assert len(first.replace("0.", "")) == 12


def test_sweep_fgamma_header_token(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["sweep", "--family", "sigma_r", "--from", "0.4", "--to", "0.6",
                 "--steps", "2", "--measures", "fgamma:k=1.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,fgamma:k=1.5"
    for row in lines[1:]:
        assert float(row.split(",")[1]) <= 1e-9


def test_sweep_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "f.csv")
    base = ["sweep", "--family", "sigma_r", "--measures", "en", "--out", out]
    assert main(base + ["--from", "0.2", "--to", "0.8", "--steps", "1"]) == 2
    assert main(base + ["--from", "0.8", "--to", "0.2", "--steps", "4"]) == 2
    assert main(base + ["--from", "2", "--to", "3", "--steps", "4"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--family", "nope", "--from", "0", "--to", "1",
                 "--steps", "2", "--measures", "en", "--out", out]) == 2
    capsys.readouterr()
    # grids numpy cannot allocate: 711 PiB, past any address space, so the
    # request fails at once even where memory is overcommitted (10**13 steps,
    # 72.8 TiB, could be granted there and then filled); past numpy's index
    # range; and a count whose steps - 1 overflows
    for steps in (10**17, 10**20, 2**63 - 1):
        assert main(base + ["--from", "0.1", "--to", "0.9", "--steps", str(steps)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "ERROR 2: usage"
        assert err[1].startswith(f"--steps {steps} ")


def test_verify_duality_suite(capsys):
    code = main(["verify", "--suite", "duality"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-1] == "50/50 checks passed"
    assert all(line.startswith("PASS [duality/") for line in out[:-1])


def test_verify_reports_a_raising_check_as_fail(capsys, monkeypatch):
    from entbound import measures
    from entbound.errors import SolverError

    real_w_dual = measures.w_dual
    calls = []

    def flaky_w_dual(rho, config=None):
        calls.append(rho)
        if len(calls) == 8:
            raise SolverError("w_dual: solver finished with status numeric-failure")
        return real_w_dual(rho, config=config)

    monkeypatch.setattr(measures, "w_dual", flaky_w_dual)
    code = main(["verify", "--suite", "duality"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-1] == "49/50 checks passed"
    rows = out[:-1]
    assert sum(line.startswith("PASS [duality/") for line in rows) == 49
    fails = [line for line in rows if line.startswith("FAIL [duality/")]
    assert len(fails) == 1
    assert "state#7" in fails[0]
    assert "measured nan" in fails[0]
    assert "SolverError: w_dual: solver finished with status numeric-failure" in fails[0]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    assert "compute" in capsys.readouterr().out
