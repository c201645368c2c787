"""Command-line front end: compute measures for a state file, sweep the
built-in one-parameter families to CSV, and run the verification suites.

Exit codes: 0 success, 2 usage or parse error, 3 invalid state, 4 solver
failure. Every error path prints a machine-parsable first line
``ERROR <code>: <kind>`` to stderr, followed by a human-readable detail line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys

import numpy as np

from . import measures, states
from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    EntboundError,
    InvalidDimsError,
    InvalidStateError,
    NumericError,
    SolverError,
)
from .linalg import BipartiteState, make_state
from .measures import MeasureResult
from .sdp import SolverConfig
from .suites import SUITE_NAMES, run_suite

SWEEP_MEASURES = ("en", "ew", "e0", "fgamma", "witness")
COMPUTE_MEASURES = SWEEP_MEASURES + ("w0",)

_FAMILIES = {
    # family -> (domain low, domain high, high end inclusive)
    "sigma_r": (0.0, 1.0, False),
    "rho_alpha": (0.0, 0.5, True),
}
_EDGE_CLIP = 1e-6


class CliError(Exception):
    """Carries the exit code and the machine-parsable error kind."""

    def __init__(self, code: int, kind: str, detail: str = ""):
        super().__init__(detail or kind)
        self.code = code
        self.kind = kind
        self.detail = detail


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(2, "usage", f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="entbound",
        description="Bounds on distillable entanglement for bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{compute,sweep,verify}")

    pc = sub.add_parser("compute", help="compute measures for a state file")
    pc.add_argument("--state", required=True, help="path to a JSON state file")
    pc.add_argument(
        "--measures",
        required=True,
        help="comma-separated list from: " + ", ".join(COMPUTE_MEASURES),
    )
    pc.add_argument("--format", choices=("text", "json"), default="text")

    ps = sub.add_parser("sweep", help="sweep a state family and write CSV")
    ps.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    ps.add_argument("--from", dest="from_", required=True, type=float)
    ps.add_argument("--to", dest="to", required=True, type=float)
    ps.add_argument("--steps", required=True, type=int)
    ps.add_argument(
        "--measures",
        required=True,
        help="comma-separated list from: " + ", ".join(SWEEP_MEASURES),
    )
    ps.add_argument("--out", required=True, help="output CSV path")

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", required=True, help="one of: " + ", ".join(SUITE_NAMES + ("all",)))
    return parser


def _config_from_env() -> SolverConfig | None:
    raw = os.environ.get("ENTBOUND_SOLVER_TOL")
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(2, "usage", f"ENTBOUND_SOLVER_TOL must be a number, got {raw!r}")
    if not math.isfinite(tol) or tol <= 0:
        raise CliError(2, "usage", f"ENTBOUND_SOLVER_TOL must be a positive finite number, got {raw!r}")
    return SolverConfig(gap_tol=tol)


def _parse_measures(raw: str, allowed: tuple, context: str) -> list[tuple[str, str, float | None]]:
    """Split a comma-separated measure list into (token, kind, k) triples."""
    tokens = [t.strip() for t in raw.split(",")]
    if any(not t for t in tokens):
        raise CliError(2, "usage", f"empty entry in --measures list {raw!r}")
    parsed = []
    seen = set()
    for tok in tokens:
        if tok.startswith("fgamma"):
            kind = "fgamma"
            prefix = "fgamma:k="
            if not tok.startswith(prefix):
                raise CliError(2, "usage", f"measure {tok!r}: the fidelity level is passed as fgamma:k=<value>")
            try:
                k = float(tok[len(prefix):])
            except ValueError:
                raise CliError(2, "usage", f"measure {tok!r}: k must be a number")
            if not math.isfinite(k) or k < 1.0:
                raise CliError(2, "usage", f"measure {tok!r}: k must be a finite number >= 1")
        else:
            kind, k = tok, None
        if kind not in allowed:
            raise CliError(2, "usage", f"unknown measure {tok!r} for {context}; expected one of: " + ", ".join(allowed))
        if tok in seen:
            raise CliError(2, "usage", f"measure {tok!r} requested twice")
        seen.add(tok)
        parsed.append((tok, kind, k))
    return parsed


def _number_pair(entry, where: str, path: str) -> complex:
    ok = (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    )
    if not ok:
        raise CliError(2, "parse", f"{path}: {where} must be a [re, im] pair of numbers")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise CliError(2, "parse", f"{path}: {where} is out of floating-point range") from None


def _load_state(path: str) -> tuple[BipartiteState, str]:
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, "parse", f"cannot read state file {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, "parse", f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits, deep nesting
        raise CliError(2, "parse", f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError(2, "parse", f"{path}: top level must be an object")
    unknown = sorted(set(doc) - {"dims", "matrix", "vector", "name"})
    if unknown:
        raise CliError(2, "parse", f"{path}: unknown fields {unknown}")

    dims = doc.get("dims")
    dims_ok = (
        isinstance(dims, list)
        and len(dims) == 2
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    )
    if not dims_ok:
        raise CliError(2, "parse", f"{path}: field 'dims' must be [d_A, d_B] with positive integers")
    if ("matrix" in doc) == ("vector" in doc):
        raise CliError(2, "parse", f"{path}: exactly one of 'matrix' or 'vector' is required")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise CliError(2, "parse", f"{path}: field 'name' must be a string")

    d_a, d_b = dims
    try:
        state = _build_state(doc, path, d_a, d_b)
    except (InvalidStateError, InvalidDimsError) as exc:
        raise CliError(3, "invalid-state", f"{path}: {exc}")
    except MemoryError:
        raise CliError(2, "parse", f"{path}: a state of dims {d_a}x{d_b} cannot be allocated")
    return state, (name if name else pathlib.Path(path).name)


def _build_state(doc: dict, path: str, d_a: int, d_b: int) -> BipartiteState:
    n = d_a * d_b
    if "matrix" in doc:
        rows = doc["matrix"]
        if not isinstance(rows, list) or len(rows) != n:
            raise CliError(2, "parse", f"{path}: field 'matrix' must have {n} rows for dims {d_a}x{d_b}")
        for i, row in enumerate(rows):  # before the n x n allocation
            if not isinstance(row, list) or len(row) != n:
                raise CliError(2, "parse", f"{path}: matrix row {i} must have {n} entries")
        mat = np.zeros((n, n), dtype=np.complex128)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                mat[i, j] = _number_pair(entry, f"matrix entry ({i},{j})", path)
        return make_state(mat, d_a, d_b)
    entries = doc["vector"]
    if not isinstance(entries, list) or len(entries) != n:
        raise CliError(2, "parse", f"{path}: field 'vector' must have {n} entries for dims {d_a}x{d_b}")
    vec = np.array(
        [_number_pair(e, f"vector entry {i}", path) for i, e in enumerate(entries)],
        dtype=np.complex128,
    )
    with np.errstate(over="ignore"):  # a norm beyond float range is above the floor
        norm = float(np.linalg.norm(vec))
    if not (np.all(np.isfinite(vec)) and norm > 1e-12):
        raise CliError(3, "invalid-state", f"{path}: vector needs finite entries and norm > 1e-12, got {norm:.3e}")
    # scaling by a power of two is exact: psi is vec / norm to the bit for
    # normal-range entries, and finite where that norm overflows
    vec = vec * 2.0 ** -math.frexp(float(np.max(np.abs(vec.view(float)))))[1]
    psi = vec / np.linalg.norm(vec)
    return make_state(np.outer(psi, psi.conj()), d_a, d_b)


# token kind -> the name of its function on measures, looked up at call
# time, so that a wrapper installed there (a tracer's) is what runs; the
# witness is this module's _witness
_MEASURES = {
    "en": "log_negativity",
    "ew": "e_w",
    "e0": "det_distill_one_copy",
    "fgamma": "fidelity_ppt",
    "witness": None,
    "w0": "w0",
}
# A sweep solves this many rows at a time, so that what it holds (states,
# problems, results) stays bounded however many steps it takes
_SWEEP_ROWS = 32


def _witness(state: BipartiteState, config: SolverConfig | None = None) -> MeasureResult:
    """The closed-form NPT witness bound (measures.npt_witness_bound)."""
    bound, witness = measures.npt_witness_bound(state)
    return MeasureResult(
        value_log2=math.log2(bound),
        primal_value=bound,
        dual_value=bound,
        gap=0.0,
        witness=witness,
        iterations=0,
    )


def _measure(kind: str, k):
    """The measure a token names and its keyword arguments."""
    name = _MEASURES[kind]
    return (_witness if name is None else getattr(measures, name)), ({} if k is None else {"k": k})


def _fmt(x: float) -> str:
    val = float(x)
    if val == 0.0:
        val = 0.0  # normalize -0.0 for byte-stable output
    return f"{val:.12g}"


def _cmd_compute(args, config) -> int:
    tokens = _parse_measures(args.measures, COMPUTE_MEASURES, "compute")
    state, name = _load_state(args.state)
    records = []
    for tok, kind, k in tokens:
        measure, kw = _measure(kind, k)
        records.append((tok, measure(state, config=config, **kw)))
    if args.format == "json":
        doc = {
            "name": name,
            "dims": [state.d_a, state.d_b],
            "measures": [
                {
                    "measure": tok,
                    "value_log2": res.value_log2,
                    "primal": res.primal_value,
                    "dual": res.dual_value,
                    "gap": res.gap,
                    "iterations": res.iterations,
                }
                for tok, res in records
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"state: {name} [{state.d_a}x{state.d_b}]")
        width = max(len(tok) for tok, _ in records)
        for tok, res in records:
            print(
                f"{tok:<{width}}  value_log2={_fmt(res.value_log2)}"
                f"  primal={_fmt(res.primal_value)}  dual={_fmt(res.dual_value)}"
                f"  gap={res.gap:.3e}  iterations={res.iterations}"
            )
    return 0


def _cmd_sweep(args, config) -> int:
    tokens = _parse_measures(args.measures, SWEEP_MEASURES, "sweep")
    if args.steps < 2:
        raise CliError(2, "usage", f"--steps must be >= 2, got {args.steps}")
    lo_dom, hi_dom, hi_closed = _FAMILIES[args.family]
    if not args.from_ < args.to:
        raise CliError(2, "usage", f"--from must be strictly below --to, got {args.from_!r} and {args.to!r}")
    lo = max(args.from_, lo_dom + _EDGE_CLIP)
    hi = min(args.to, hi_dom if hi_closed else hi_dom - _EDGE_CLIP)
    if not lo < hi:
        dom = f"({lo_dom}, {hi_dom}{']' if hi_closed else ')'}"
        raise CliError(2, "usage", f"sweep range [{args.from_}, {args.to}] does not fit the {args.family} domain {dom}")

    family = states.sigma_r if args.family == "sigma_r" else states.rho_alpha
    try:
        grid = np.linspace(lo, hi, args.steps)
    except (MemoryError, ValueError, IndexError) as exc:  # past memory, or past numpy's index range
        raise CliError(2, "usage", f"--steps {args.steps} makes a grid numpy cannot allocate: {exc}")
    lines = ["param," + ",".join(tok for tok, _, _ in tokens)]
    for start in range(0, len(grid), _SWEEP_ROWS):
        params = [float(param) for param in grid[start : start + _SWEEP_ROWS]]
        states_ = [family(param) for param in params]
        columns = []
        for _, kind, k in tokens:
            measure, kw = _measure(kind, k)
            columns.append(measures.evaluate_many(measure, states_, config, **kw))
        for row, param in enumerate(params):
            cells = [_fmt(param)]
            # the first failure in row order, as a sweep computed cell by cell meets it
            for (tok, _, _), column in zip(tokens, columns):
                res = column[row]
                if isinstance(res, (SolverError, NumericError, ConsistencyError)):
                    raise CliError(4, "solver-failure", f"sweep aborted at param {_fmt(param)} ({tok}): {res}")
                if isinstance(res, EntboundError):
                    raise res
                cells.append(_fmt(res.value_log2))
            lines.append(",".join(cells))
    out = pathlib.Path(args.out)
    try:
        with open(out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CliError(2, "usage", f"cannot write {out}: {exc}")
    print(f"wrote {out} ({len(grid)} rows)")
    return 0


def _cmd_verify(args, config) -> int:
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise CliError(
            2, "usage",
            f"unknown suite {args.suite!r}; expected one of: " + ", ".join(SUITE_NAMES + ("all",)),
        )
    results = run_suite(args.suite, config)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} [{r.suite}/{r.group}] {r.name}: measured {r.measured:.6e}, bound {r.bound:.6e}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(2, "usage", "a command is required: compute, sweep, or verify")
        config = _config_from_env()
        try:
            if args.command == "compute":
                return _cmd_compute(args, config)
            if args.command == "sweep":
                return _cmd_sweep(args, config)
            return _cmd_verify(args, config)
        except CliError:
            raise
        except (SolverError, NumericError, ConsistencyError) as exc:
            raise CliError(4, "solver-failure", str(exc))
        except CapacityError as exc:
            raise CliError(2, "usage", str(exc))
        except (InvalidStateError, InvalidDimsError) as exc:
            raise CliError(3, "invalid-state", str(exc))
        except DomainError as exc:
            raise CliError(2, "usage", str(exc))
    except CliError as err:
        print(f"ERROR {err.code}: {err.kind}", file=sys.stderr)
        if err.detail:
            print(err.detail, file=sys.stderr)
        return err.code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
