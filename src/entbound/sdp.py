"""Declarative SDP modeling layer over Hermitian matrix variables.

A problem holds named Hermitian variables, a real-linear objective
sum_i Re tr(C_i X_i) + constant, affine matrix inequalities
D + L(X_1..X_k) >= 0 built from identity / partial-transpose / trace-scaled
terms, and affine scalar equalities. The engine in ipm.py solves the
compiled form; solve() and check_certificate() are the public entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimsError, InvalidStateError
from .linalg import HermitianMatrix, checked_hermitian, is_finite_real, is_integer

VALID_KINDS = ("hermitian", "hermitian-psd")


def _check_coeff(coeff, what: str) -> None:
    if not is_finite_real(coeff):
        raise InvalidStateError(f"{what} must be a finite real number, got {coeff!r}")


def _check_dim(dim, what: str, least: int = 1) -> None:
    if not (is_integer(dim) and dim >= least):
        raise InvalidDimsError(f"{what} must be an integer >= {least}, got {dim!r}")


@dataclass(frozen=True)
class LinTerm:
    """coeff * X_var, optionally partially transposed over pt_dims first."""

    var: str
    coeff: float = 1.0
    pt_dims: tuple[int, int] | None = None

    def __post_init__(self):
        _check_coeff(self.coeff, f"LinTerm coeff for {self.var!r}")
        if self.pt_dims is not None:
            if not (isinstance(self.pt_dims, (tuple, list)) and len(self.pt_dims) == 2):
                raise InvalidDimsError(f"LinTerm pt_dims must be a pair (d_A, d_B), got {self.pt_dims!r}")
            for d in self.pt_dims:
                _check_dim(d, "LinTerm pt_dims entry")


@dataclass(frozen=True)
class TraceTerm:
    """coeff * Re tr(probe @ X_var) * gain: a scalar functional times a constant."""

    var: str
    probe: np.ndarray
    gain: np.ndarray
    coeff: float = 1.0

    def __post_init__(self):
        _check_coeff(self.coeff, f"TraceTerm coeff for {self.var!r}")
        object.__setattr__(self, "probe", checked_hermitian(self.probe, "TraceTerm probe"))
        object.__setattr__(self, "gain", checked_hermitian(self.gain, "TraceTerm gain"))


@dataclass(frozen=True)
class PsdConstraint:
    """const + sum(terms) >= 0 in the PSD order."""

    dim: int
    terms: tuple
    const: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        _check_dim(self.dim, f"constraint '{self.label}' dim", least=0)
        if self.const is None:
            object.__setattr__(self, "const", np.zeros((self.dim, self.dim), dtype=np.complex128))
        else:
            c = checked_hermitian(self.const, f"constraint '{self.label}' constant")
            if c.shape[0] != self.dim:
                raise InvalidDimsError(
                    f"constraint '{self.label}' constant dim {c.shape[0]} != {self.dim}"
                )
            object.__setattr__(self, "const", c)
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class EqConstraint:
    """sum_t coeff_t * Re tr(probe_t @ X_var_t) = rhs."""

    terms: tuple  # of (var, probe ndarray)
    rhs: float
    label: str = ""

    def __post_init__(self):
        _check_coeff(self.rhs, f"equality '{self.label}' rhs")
        checked = tuple((v, checked_hermitian(p, f"equality '{self.label}' probe")) for v, p in self.terms)
        object.__setattr__(self, "terms", checked)


@dataclass
class SdpProblem:
    sense: str
    variables: list  # of (name, dim, kind)
    objective: list  # of (name, C ndarray)
    constraints: list = field(default_factory=list)
    equalities: list = field(default_factory=list)
    constant: float = 0.0
    # variable name -> symmetric boolean (dim, dim) mask with a True diagonal:
    # the variable is restricted to the marked entries (linalg.symmetry_pattern)
    patterns: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise InvalidStateError(f"sense must be 'max' or 'min', got {self.sense!r}")
        _check_coeff(self.constant, "problem constant")
        dims: dict[str, int] = {}
        for name, dim, kind in self.variables:
            if name in dims:
                raise InvalidStateError(f"duplicate variable name {name!r}")
            if kind not in VALID_KINDS:
                raise InvalidStateError(f"variable {name!r} kind must be one of {VALID_KINDS}")
            _check_dim(dim, f"variable {name!r} dim")
            dims[name] = dim
        self.objective = [
            (name, self._obj_coeff(name, C, dims)) for name, C in self.objective
        ]
        for con in self.constraints:
            for t in con.terms:
                if t.var not in dims:
                    raise InvalidStateError(f"constraint '{con.label}' references unknown variable {t.var!r}")
                if isinstance(t, LinTerm):
                    if dims[t.var] != con.dim:
                        raise InvalidDimsError(
                            f"constraint '{con.label}': variable {t.var!r} dim {dims[t.var]} != {con.dim}"
                        )
                    if t.pt_dims is not None and t.pt_dims[0] * t.pt_dims[1] != dims[t.var]:
                        raise InvalidDimsError(
                            f"constraint '{con.label}': pt_dims {t.pt_dims} do not factor dim {dims[t.var]}"
                        )
                else:
                    if t.probe.shape[0] != dims[t.var]:
                        raise InvalidDimsError(
                            f"constraint '{con.label}': probe dim {t.probe.shape[0]} != variable dim"
                        )
                    if t.gain.shape[0] != con.dim:
                        raise InvalidDimsError(
                            f"constraint '{con.label}': gain dim {t.gain.shape[0]} != {con.dim}"
                        )
        for eq in self.equalities:
            for v, p in eq.terms:
                if v not in dims:
                    raise InvalidStateError(f"equality '{eq.label}' references unknown variable {v!r}")
                if p.shape[0] != dims[v]:
                    raise InvalidDimsError(f"equality '{eq.label}': probe dim mismatch for {v!r}")
        self.patterns = {name: self._pattern(name, mask, dims) for name, mask in self.patterns.items()}

    @staticmethod
    def _pattern(name, mask, dims):
        if name not in dims:
            raise InvalidStateError(f"pattern given for unknown variable {name!r}")
        arr = np.asarray(mask)
        if arr.shape != (dims[name], dims[name]):
            raise InvalidDimsError(f"pattern for {name!r} has shape {arr.shape}, not {(dims[name],) * 2}")
        if arr.dtype != bool or not (np.array_equal(arr, arr.T) and arr.diagonal().all()):
            raise InvalidStateError(f"pattern for {name!r} must be a symmetric boolean mask with a True diagonal")
        return arr

    @staticmethod
    def _obj_coeff(name, C, dims):
        if name not in dims:
            raise InvalidStateError(f"objective references unknown variable {name!r}")
        arr = checked_hermitian(C, f"objective coefficient for {name!r}")
        if arr.shape[0] != dims[name]:
            raise InvalidDimsError(f"objective coefficient for {name!r} has wrong dim")
        return arr


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-9
    max_iterations: int = 200

    def __post_init__(self):
        tols = (self.gap_tol, self.feas_tol)
        if not all(is_finite_real(t) and t > 0 for t in tols):
            raise InvalidStateError(f"solver tolerances must be finite and positive, got {tols}")
        if not (is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise InvalidStateError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")


@dataclass
class SdpSolution:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    assignments: dict
    iterations: int
    # the rule that ended the solve: optimal, stalled, mu-floor, non-finite,
    # kkt-factor, numeric-error, infeasible, unbounded, max-iterations, or at
    # iteration 0 static-infeasible or no-cone
    stop: str
    dual_blocks: tuple = ()
    eq_duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # one dict per iterate evaluated: iteration, mu, objectives, relgap, pinf,
    # dinf, residual_slack, and the alpha_p, alpha_d, sigma that led to it
    trace: tuple = ()


@dataclass
class CertificateReport:
    constraint_residuals: list
    eq_residuals: list
    max_residual: float
    primal_value: float
    dual_value: float
    gap: float
    dual_feas_residual: float
    dual_psd_min: float
    ok: bool
    failures: list


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve with the in-tree interior-point engine; see ipm.py."""
    from . import ipm

    cfg = config or SolverConfig()
    comp = ipm.compile_problem(problem)
    raw = ipm.run(comp, cfg)
    assignments = {name: HermitianMatrix(X) for name, X in raw["assignments"].items()}
    return SdpSolution(
        status=raw["status"],
        primal_value=raw["primal_value"],
        dual_value=raw["dual_value"],
        gap=abs(raw["primal_value"] - raw["dual_value"]),
        assignments=assignments,
        iterations=raw["iterations"],
        stop=raw["stop"],
        dual_blocks=tuple(raw["dual_blocks"]),
        eq_duals=raw["eq_duals"],
        trace=tuple(raw["trace"]),
    )


def check_certificate(
    problem: SdpProblem, solution: SdpSolution, config: SolverConfig | None = None
) -> CertificateReport:
    """Re-evaluate every residual and both objectives from the assignments alone."""
    from . import ipm

    cfg = config or SolverConfig()
    comp = ipm.compile_problem(problem)
    xs = {name: solution.assignments[name].mat for name, _, _ in problem.variables}

    con_res = []
    for blk in comp.blocks:
        mat = ipm.block_matrix(blk, xs)
        lmin = float(np.linalg.eigvalsh(mat)[0])
        con_res.append(max(0.0, -lmin))
    eq_res = []
    for eq in problem.equalities:
        val = sum(float(np.real(np.trace(p @ xs[v]))) for v, p in eq.terms)
        eq_res.append(abs(val - eq.rhs))

    primal = comp.constant + sum(
        float(np.real(np.trace(C @ xs[name]))) for name, C in problem.objective
    )

    dual_feas = 0.0
    dual_psd_min = 0.0
    dual = float("nan")
    if solution.dual_blocks:
        zs = [np.asarray(z) for z in solution.dual_blocks]
        lam = np.asarray(solution.eq_duals, dtype=float)
        dobj_lin = sum(float(np.real(np.trace(z @ blk.const))) for z, blk in zip(zs, comp.blocks))
        if lam.size:
            dobj_lin += float(lam @ comp.b)
        dual = comp.sense_mult * dobj_lin + comp.constant
        adj = comp.c.copy()
        for st in comp.stacks:
            adj += ipm.gather_block(st, np.array([zs[p] for p in st.pos]))
        if lam.size:
            adj -= comp.A.T @ lam
        dual_feas = float(np.max(np.abs(adj))) if adj.size else 0.0
        dual_psd_min = min(
            (float(np.linalg.eigvalsh(z)[0]) for z in zs), default=0.0
        )

    gap = abs(primal - dual)
    max_res = max(con_res + eq_res, default=0.0)
    failures = []
    for i, r in enumerate(con_res):
        if r > cfg.feas_tol:
            label = comp.blocks[i].label or f"constraint[{i}]"
            failures.append(f"{label}: PSD violation {r:.3e} > {cfg.feas_tol:.0e}")
    for i, r in enumerate(eq_res):
        if r > cfg.feas_tol:
            failures.append(f"equality[{i}]: residual {r:.3e} > {cfg.feas_tol:.0e}")
    if gap > cfg.gap_tol * max(1.0, abs(primal)):
        failures.append(f"gap {gap:.3e} exceeds {cfg.gap_tol:.0e}*max(1,|primal|)")
    return CertificateReport(
        constraint_residuals=con_res,
        eq_residuals=eq_res,
        max_residual=max_res,
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        dual_feas_residual=dual_feas,
        dual_psd_min=dual_psd_min,
        ok=not failures,
        failures=failures,
    )
