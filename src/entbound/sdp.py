"""Declarative SDP modeling layer over Hermitian matrix variables.

A problem holds named Hermitian variables, a real-linear objective
sum_i Re tr(C_i X_i) + constant, affine matrix inequalities
D + L(X_1..X_k) >= 0 built from identity / partial-transpose / trace-scaled
terms, and affine scalar equalities.  solve() hands it to ipm.py, which
alone knows the compiled form.  check_certificate() evaluates both sides
from the model terms and the solution's matrices over every entry, so it
certifies the unrestricted program even when the solve ran on a pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimsError, InvalidStateError
from .linalg import HermitianMatrix, checked_hermitian, hermitize, is_finite_real, is_integer, ptranspose_arr

VALID_KINDS = ("hermitian", "hermitian-psd")


def _check_coeff(coeff, what: str) -> None:
    if not is_finite_real(coeff):
        raise InvalidStateError(f"{what} must be a finite real number, got {coeff!r}")


def _check_dim(dim, what: str, least: int = 1) -> None:
    if not (is_integer(dim) and dim >= least):
        raise InvalidDimsError(f"{what} must be an integer >= {least}, got {dim!r}")


def _entries(items, ok, what: str) -> tuple:
    """items as a tuple; InvalidStateError names the first entry ok refuses."""
    try:
        items = tuple(items)
    except TypeError:
        raise InvalidStateError(f"{what} must be a sequence, got {items!r}") from None
    bad = [item for item in items if not ok(item)]
    if bad:
        raise InvalidStateError(f"{what}: malformed entry {bad[0]!r}")
    return items


def _named(size: int):
    """The test for a size-tuple that starts with a variable name (a str)."""
    return lambda item: isinstance(item, (tuple, list)) and len(item) == size and isinstance(item[0], str)


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
        _check_dim(self.dim, f"constraint '{self.label}' dim")
        if self.const is None:
            object.__setattr__(self, "const", np.zeros((self.dim, self.dim), dtype=np.complex128))
        else:
            c = checked_hermitian(self.const, f"constraint '{self.label}' constant")
            if c.shape[0] != self.dim:
                raise InvalidDimsError(
                    f"constraint '{self.label}' constant dim {c.shape[0]} != {self.dim}"
                )
            object.__setattr__(self, "const", c)
        terms = _entries(self.terms, lambda t: isinstance(t, (LinTerm, TraceTerm)), f"constraint '{self.label}' terms")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class EqConstraint:
    """sum_t coeff_t * Re tr(probe_t @ X_var_t) = rhs."""

    terms: tuple  # of (var, probe ndarray)
    rhs: float
    label: str = ""

    def __post_init__(self):
        _check_coeff(self.rhs, f"equality '{self.label}' rhs")
        terms = _entries(self.terms, _named(2), f"equality '{self.label}' terms")
        checked = tuple((v, checked_hermitian(p, f"equality '{self.label}' probe")) for v, p in terms)
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
        for name, dim, kind in _entries(self.variables, _named(3), "variables"):
            if name in dims:
                raise InvalidStateError(f"duplicate variable name {name!r}")
            if kind not in VALID_KINDS:
                raise InvalidStateError(f"variable {name!r} kind must be one of {VALID_KINDS}")
            _check_dim(dim, f"variable {name!r} dim")
            dims[name] = dim
        self.objective = [
            (name, self._obj_coeff(name, C, dims)) for name, C in _entries(self.objective, _named(2), "objective")
        ]
        for con in _entries(self.constraints, lambda c: isinstance(c, PsdConstraint), "constraints"):
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
        for eq in _entries(self.equalities, lambda e: isinstance(e, EqConstraint), "equalities"):
            for v, p in eq.terms:
                if v not in dims:
                    raise InvalidStateError(f"equality '{eq.label}' references unknown variable {v!r}")
                if p.shape[0] != dims[v]:
                    raise InvalidDimsError(f"equality '{eq.label}': probe dim mismatch for {v!r}")
        self.patterns = {name: self._pattern(name, mask, dims) for name, mask in self.patterns.items()}

    def blocks(self) -> list:
        """The PSD blocks in the order of SdpSolution.dual_blocks: the
        constraints, then X >= 0 for each hermitian-psd variable."""
        return list(self.constraints) + [
            PsdConstraint(dim=dim, terms=(LinTerm(name),), label=f"{name} >= 0")
            for name, dim, kind in self.variables if kind == "hermitian-psd"
        ]

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
    # one dual matrix per PSD block, in the order of SdpProblem.blocks(): the
    # constraints, then X >= 0 for each hermitian-psd variable
    dual_blocks: tuple = ()
    eq_duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # one dict per iterate evaluated: iteration, mu, objectives, relgap, pinf,
    # dinf, residual_slack, and the alpha_p, alpha_d, sigma and kkt_jitter
    # (the jitter rung of the Newton matrix's factor, relative to its largest
    # diagonal entry) of the step that led to it, NaN on the first row
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


def _tr(a, b) -> float:
    return float(np.real(np.trace(a @ b)))


def block_matrix(con: PsdConstraint, xs: dict) -> np.ndarray:
    """const + terms of one PSD block at explicit variable matrices."""
    mat = con.const.copy()
    for t in con.terms:
        X = np.asarray(xs[t.var], dtype=np.complex128)
        if isinstance(t, LinTerm):
            mat = mat + t.coeff * (X if t.pt_dims is None else ptranspose_arr(X, *t.pt_dims))
        else:
            mat = mat + t.coeff * _tr(t.probe, X) * t.gain
    return hermitize(mat)


def _dual_residual(problem: SdpProblem, zs, lam) -> dict:
    """sense C + sum_j F_j*(Z_j) - sum_r lam_r P_r for each variable, with F*
    taken term by term from the model: coeff Z (or Z^PT) for a LinTerm and
    coeff Re tr(gain Z) probe for a TraceTerm."""
    sense = 1.0 if problem.sense == "max" else -1.0
    res = {name: np.zeros((dim, dim), dtype=np.complex128) for name, dim, _ in problem.variables}
    for name, C in problem.objective:
        res[name] += sense * C
    for con, Z in zip(problem.blocks(), zs):
        for t in con.terms:
            if isinstance(t, LinTerm):
                res[t.var] += t.coeff * (Z if t.pt_dims is None else ptranspose_arr(Z, *t.pt_dims))
            else:
                res[t.var] += (t.coeff * _tr(t.gain, Z)) * t.probe
    for eq, lr in zip(problem.equalities, lam):
        for v, p in eq.terms:
            res[v] -= lr * p
    return res


def check_certificate(
    problem: SdpProblem, solution: SdpSolution, config: SolverConfig | None = None
) -> CertificateReport:
    """Re-evaluate every residual and both objectives from the model and the
    solution's matrices alone.  Assignments, dual blocks or equality
    multipliers whose count or shapes differ from the problem's raise
    InvalidDimsError."""
    cfg = config or SolverConfig()
    blocks = problem.blocks()
    zs = [np.asarray(z, dtype=np.complex128) for z in solution.dual_blocks]
    lam = np.asarray(solution.eq_duals, dtype=float)
    shapes = [(con.dim, con.dim) for con in blocks]
    if [z.shape for z in zs] != shapes:
        raise InvalidDimsError(f"dual blocks have shapes {[z.shape for z in zs]}, the PSD blocks {shapes}")
    if lam.shape != (len(problem.equalities),):
        raise InvalidDimsError(f"{lam.size} equality multipliers for {len(problem.equalities)} equalities")
    xs = {name: x.mat for name, x in solution.assignments.items()}
    want = {name: (dim, dim) for name, dim, _ in problem.variables}
    if {name: x.shape for name, x in xs.items()} != want:
        raise InvalidDimsError(f"assignments {sorted(xs)} do not match the variables' shapes {want}")

    con_res = [max(0.0, -float(np.linalg.eigvalsh(block_matrix(con, xs))[0])) for con in blocks]
    eq_res = [abs(sum(_tr(p, xs[v]) for v, p in eq.terms) - eq.rhs) for eq in problem.equalities]
    primal = problem.constant + sum(_tr(C, xs[name]) for name, C in problem.objective)
    dobj_lin = sum(_tr(z, con.const) for z, con in zip(zs, blocks))
    dobj_lin += float(lam @ np.array([eq.rhs for eq in problem.equalities], dtype=float))
    dual = (1.0 if problem.sense == "max" else -1.0) * dobj_lin + problem.constant
    res = _dual_residual(problem, zs, lam)
    dual_feas = max((float(np.max(np.abs(r))) for r in res.values()), default=0.0)
    dual_psd_min = min((float(np.linalg.eigvalsh(z)[0]) for z in zs), default=0.0)

    gap = abs(primal - dual)
    max_res = max(con_res + eq_res, default=0.0)
    failures = []
    for i, r in enumerate(con_res):
        if r > cfg.feas_tol:
            label = blocks[i].label or f"constraint[{i}]"
            failures.append(f"{label}: PSD violation {r:.3e} > {cfg.feas_tol:.0e}")
    for i, r in enumerate(eq_res):
        if r > cfg.feas_tol:
            failures.append(f"equality[{i}]: residual {r:.3e} > {cfg.feas_tol:.0e}")
    # the solver's own dual stop rule: max(feas_tol, 10 gap_tol) times 1 + the
    # largest objective coordinate, at most sqrt(2) times cmax below
    cmax = sum(float(np.max(np.abs(C))) for _, C in problem.objective)
    dual_tol = max(cfg.feas_tol, 10.0 * cfg.gap_tol) * (1.0 + np.sqrt(2.0) * cmax)
    if not dual_feas <= dual_tol:
        failures.append(f"dual residual {dual_feas:.3e} > {dual_tol:.1e}")
    if dual_psd_min < -cfg.feas_tol:
        failures.append(f"dual blocks: PSD violation {-dual_psd_min:.3e} > {cfg.feas_tol:.0e}")
    # a nan gap fails too
    if not gap <= cfg.gap_tol * max(1.0, abs(primal)):
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
