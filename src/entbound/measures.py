"""Entanglement bound computations on bipartite states.

Every SDP-backed quantity returns a MeasureResult carrying the certified
primal and dual objective values, their gap, the log2 value in ebits, the
optimizing matrix when one exists, and the interior-point iteration count.
Clamps applied to certified values are the theorem-backed ones only
(W >= 1 since R = I is feasible, fidelities live in [0, 1], mu* <= 1
since R = I is feasible for the distillation program).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, EntboundError, SolverError
from .linalg import (
    RANK_TOL,
    ZERO_ENTRY_ATOL,
    BipartiteState,
    HermitianMatrix,
    hermitize,
    is_finite_real,
    is_integer,
    negative_projector,
    op_norm_arr,
    partial_transpose,
    ptranspose_arr,
    symmetry_classes,
    symmetry_pattern,
    trace_norm_arr,
)
from .sdp import (
    EqConstraint,
    LinTerm,
    PsdConstraint,
    SdpProblem,
    SolverConfig,
    TraceTerm,
    check_capacity,
    solve,
    solve_many,
)
from .states import kron_power_state

PRIMAL_DUAL_AGREE_TOL = 1e-6
_ADDITIVITY_TOL = 1e-5


@dataclass(frozen=True)
class MeasureResult:
    value_log2: float
    primal_value: float
    dual_value: float
    gap: float
    witness: HermitianMatrix | None = None
    iterations: int = 0


def _checked(sol, what: str):
    """sol, or the SolverError of a solve that did not end optimal."""
    if sol.status != "optimal":
        detail = f": {sol.stop_detail}" if sol.stop_detail else ""
        msg = f"{what}: solver finished with status {sol.status} (stop rule {sol.stop}{detail})"
        if sol.trace:
            row = sol.trace[-1]
            msg += "; last iterate {iteration}: relgap {relgap:.3e}, pinf {pinf:.3e}, dinf {dinf:.3e}".format(**row)
        raise SolverError(msg)
    return sol


def _evaluate(program, rho, config, *args) -> MeasureResult:
    """An SDP measure's three steps: build its problem (program), solve it,
    finish its result.  program returns the result itself when no solve
    is needed, else (what, problem, finish)."""
    step = program(rho, config, *args)
    if isinstance(step, MeasureResult):
        return step
    what, problem, finish = step
    return finish(_checked(solve(problem, config), what))


def _eye(n):
    return np.eye(n, dtype=np.complex128)


def log_negativity(rho: BipartiteState, config: SolverConfig | None = None) -> MeasureResult:
    """log2 of the trace norm of the partial transpose; closed form, no SDP."""
    tn = trace_norm_arr(ptranspose_arr(rho.mat, rho.dims.d_a, rho.dims.d_b))
    value = max(1.0, tn)  # trace norm >= |trace| = 1 for any state
    return MeasureResult(
        value_log2=math.log2(value), primal_value=tn, dual_value=tn, gap=0.0
    )


def _log2_at_least_one(value: float) -> float:
    return math.log2(max(1.0, value))


def _result(sol, witness, log2_of=_log2_at_least_one, dual_value=None) -> MeasureResult:
    """MeasureResult of one solve; log2_of maps the midpoint of the primal
    and dual values (dual_value overrides the solver's) to value_log2."""
    dual = sol.dual_value if dual_value is None else dual_value
    return MeasureResult(
        value_log2=log2_of(0.5 * (sol.primal_value + dual)),
        primal_value=sol.primal_value,
        dual_value=dual,
        gap=abs(sol.primal_value - dual),
        witness=witness,
        iterations=sol.iterations,
    )


def _full_rank_result(n: int) -> MeasureResult:
    """e0 and w0 of a full-rank state: R = I is forced and |I^PT| = 1."""
    return MeasureResult(0.0, 1.0, 1.0, 0.0, HermitianMatrix(_eye(n)), 0)


def _w_max_form(rho: BipartiteState) -> SdpProblem:
    """max Re tr(rho^PT R) over -I <= R <= I with R^PT >= 0; the dual
    blocks of its first two constraints are the min form's (U, V)."""
    n = rho.dims.total
    variables = [("R", n, "hermitian")]
    check_capacity(variables)
    pt_dims = (rho.dims.d_a, rho.dims.d_b)
    rho_pt = ptranspose_arr(rho.mat, *pt_dims)
    return SdpProblem(
        sense="max",
        variables=variables,
        objective=[("R", rho_pt)],
        constraints=[
            PsdConstraint(dim=n, const=_eye(n), terms=(LinTerm("R", -1.0),), label="I - R"),
            PsdConstraint(dim=n, const=_eye(n), terms=(LinTerm("R", 1.0),), label="I + R"),
            PsdConstraint(dim=n, terms=(LinTerm("R", 1.0, pt_dims),), label="R pt"),
        ],
        patterns={"R": symmetry_pattern(rho_pt, *pt_dims)},
    )


def w_dual(rho: BipartiteState, config: SolverConfig | None = None) -> MeasureResult:
    """min tr(U + V) over U, V >= 0 with (U - V)^PT >= rho; the witness is
    the minimizing X = (U - V)^PT, which dominates rho."""
    return _evaluate(_w_dual_program, rho, config)


def _w_dual_program(rho: BipartiteState, config: SolverConfig | None):
    n = rho.dims.total
    variables = [("U", n, "hermitian-psd"), ("V", n, "hermitian-psd")]
    check_capacity(variables)
    pt_dims = (rho.dims.d_a, rho.dims.d_b)
    eye = _eye(n)
    pattern = symmetry_pattern(ptranspose_arr(rho.mat, *pt_dims), *pt_dims)
    problem = SdpProblem(
        sense="min",
        variables=variables,
        objective=[("U", eye), ("V", eye)],
        constraints=[
            PsdConstraint(
                dim=n,
                const=-rho.mat,
                terms=(LinTerm("U", 1.0, pt_dims), LinTerm("V", -1.0, pt_dims)),
                label="(U-V) pt >= rho",
            ),
        ],
        patterns={"U": pattern, "V": pattern},
    )

    def finish(sol):
        x = ptranspose_arr(sol.assignments["U"].mat - sol.assignments["V"].mat, *pt_dims)
        return _result(sol, HermitianMatrix(x))

    return "w_dual", problem, finish


def _neg_part(mat: np.ndarray) -> float:
    return max(0.0, -float(np.linalg.eigvalsh(mat)[0]))


def e_w(rho: BipartiteState, config: SolverConfig | None = None) -> MeasureResult:
    """log2 W from one solve of the max form, certified from both sides.

    The lower side is the primal value tr(rho^PT R).  The upper side is
    the min-form objective tr(U + V) at the dual blocks (U, V) of I - R and
    I + R, checked here without the solver: with d_U, d_V, d_E the negative
    parts of the smallest eigenvalues of U, V and (U - V)^PT - rho, every
    feasible R has tr(rho^PT R) <= tr(U + V) + 2n(d_U + d_V) + n d_E,
    because |R| <= I and tr R^PT = tr R <= n.  The two sides must agree to
    PRIMAL_DUAL_AGREE_TOL, or to ten times the solver's relative gap
    tolerance when that is looser, since the solve stops at that gap."""
    return _evaluate(_e_w_program, rho, config)


def _e_w_program(rho: BipartiteState, config: SolverConfig | None):
    config = config or SolverConfig()
    problem = _w_max_form(rho)

    def finish(sol):
        n = rho.dims.total
        u, v = sol.dual_blocks[0], sol.dual_blocks[1]
        excess = ptranspose_arr(u - v, rho.dims.d_a, rho.dims.d_b) - rho.mat
        upper = (
            float(np.trace(u + v).real)
            + 2 * n * (_neg_part(u) + _neg_part(v))
            + n * _neg_part(excess)
        )
        tol = max(PRIMAL_DUAL_AGREE_TOL, 10.0 * config.gap_tol * max(1.0, abs(sol.primal_value)))
        if abs(upper - sol.primal_value) > tol:
            raise ConsistencyError(
                f"W certificate sides disagree: max-form {sol.primal_value!r} vs "
                f"min-form {upper!r} (|diff| {abs(upper - sol.primal_value):.3e} > {tol:.3e})"
            )
        return _result(sol, sol.assignments["R"], dual_value=upper)

    return "e_w", problem, finish


def fidelity_ppt(rho: BipartiteState, k: float, config: SolverConfig | None = None) -> MeasureResult:
    """Best overlap with a k-level maximally entangled target over PPT
    operations: max Re tr(rho Q), 0 <= Q <= I, -(1/k)I <= Q^PT <= (1/k)I."""
    return _evaluate(_fidelity_ppt_program, rho, config, k)


def _fidelity_ppt_program(rho: BipartiteState, config: SolverConfig | None, k: float):
    if not (is_finite_real(k) and k >= 1.0):
        raise DomainError(f"fidelity_ppt requires a finite k >= 1, got {k!r}")
    n = rho.dims.total
    variables = [("Q", n, "hermitian-psd")]
    check_capacity(variables)
    pt_dims = (rho.dims.d_a, rho.dims.d_b)
    eye = _eye(n)
    inv_k = 1.0 / float(k)
    problem = SdpProblem(
        sense="max",
        variables=variables,
        objective=[("Q", rho.mat)],
        constraints=[
            PsdConstraint(dim=n, const=eye, terms=(LinTerm("Q", -1.0),), label="I - Q"),
            PsdConstraint(
                dim=n, const=inv_k * eye, terms=(LinTerm("Q", -1.0, pt_dims),), label="k upper"
            ),
            PsdConstraint(
                dim=n, const=inv_k * eye, terms=(LinTerm("Q", 1.0, pt_dims),), label="k lower"
            ),
        ],
        patterns={"Q": symmetry_pattern(rho.mat, *pt_dims)},
    )

    def finish(sol):
        return _result(sol, sol.assignments["Q"], lambda f: math.log2(min(1.0, max(1e-300, f))))

    return "fidelity_ppt", problem, finish


def npt_witness_bound(rho: BipartiteState) -> tuple[float, HermitianMatrix]:
    """Closed-form feasible witness R = I - P_minus / max(lam, 1/2) where
    P_minus projects onto the negative eigenspace of rho^PT and lam is the
    operator norm of P_minus^PT. Returns (tr(rho^PT R), R); the value lower
    bounds the max-form W program and exceeds 1 exactly on NPPT states."""
    pt = partial_transpose(rho.rho, rho.dims)
    pminus = negative_projector(pt).mat
    n = rho.dims.total
    lam = op_norm_arr(ptranspose_arr(pminus, rho.dims.d_a, rho.dims.d_b))
    r = _eye(n) - pminus / max(lam, 0.5)
    value = float(np.real(np.trace(pt.mat @ r)))
    return value, HermitianMatrix(r)


def _support_pinning(rho: BipartiteState, labels: np.ndarray, scale: str | None = None):
    """(P, equalities): the support projector P of rho and the equalities
    that fix R to the identity on span(P), or to t I when scale names the
    variable t; None for a full-rank state.  R lives on the symmetry
    pattern, block-diagonal on the classes labels numbers, so each class
    block of rho gets its own eigh and each equality probes R within one
    class: a support diagonal, or a cross part with a later support or a
    kernel vector.  The support keeps eigenvalues above RANK_TOL times
    rho's largest.  Real rho drops the imaginary-direction probes: they
    constrain nothing on real symmetric matrices, a restriction that is
    lossless for real data."""
    mat, n = rho.mat, rho.dims.total
    real = float(np.max(np.abs(mat.imag))) <= ZERO_ENTRY_ATOL
    classes = []
    for idx in (np.flatnonzero(labels == label) for label in range(labels.max() + 1)):
        block = mat[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(block.real if real else block)
        full = np.zeros((n, len(idx)), dtype=np.complex128)
        full[idx] = vecs
        classes.append((vals, full))
    cutoff = RANK_TOL * max(max(float(vals[-1]) for vals, _ in classes), 0.0)
    splits = [(vecs[:, vals > cutoff], vecs[:, vals <= cutoff]) for vals, vecs in classes]
    supp = np.hstack([s for s, _ in splits])
    if supp.shape[1] == n:
        return None
    label = "R pinned on support" if scale is None else f"R pinned to {scale} on support"

    def pin(probe, diagonal=False):
        # tr(probe R) is 1 (or t) on the support's diagonal and 0 elsewhere
        if diagonal and scale is not None:
            return EqConstraint(terms=(("R", probe), (scale, -np.ones((1, 1)))), rhs=0.0, label=label)
        return EqConstraint(terms=(("R", probe),), rhs=float(diagonal), label=label)

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    equalities = []
    for cls_supp, cls_ker in splits:
        for i in range(cls_supp.shape[1]):
            vi = cls_supp[:, i]
            equalities.append(pin(np.outer(vi, vi.conj()), diagonal=True))
            for w in [*cls_supp[:, i + 1 :].T, *cls_ker.T]:
                cross = np.outer(vi, w.conj())
                equalities.append(pin((cross + cross.conj().T) * inv_sqrt2))
                if not real:
                    equalities.append(pin(1j * (cross - cross.conj().T) * inv_sqrt2))
    return hermitize(supp @ supp.conj().T), equalities


def det_distill_one_copy(rho: BipartiteState, config: SolverConfig | None = None) -> MeasureResult:
    """One-copy deterministic distillation rate: with P the support projector,
    minimize mu subject to P <= R <= I and -mu I <= R^PT <= mu I, then report
    -log2 of the optimum.

    P <= R <= I pinches R to the identity on the support, so the feasible set
    has no interior as written.  The pinch is imposed here as explicit
    equalities, with the two sandwich constraints replaced by R >= 0 and
    I + P - R >= 0; on the pinned set these are equivalent and the reduced
    problem is strictly feasible."""
    return _evaluate(_det_distill_one_copy_program, rho, config)


def _det_distill_one_copy_program(rho: BipartiteState, config: SolverConfig | None):
    n = rho.dims.total
    pt_dims = (rho.dims.d_a, rho.dims.d_b)
    variables = [("R", n, "hermitian-psd"), ("mu", 1, "hermitian")]
    check_capacity(variables)
    labels = symmetry_classes(rho.mat, *pt_dims)
    pinning = _support_pinning(rho, labels)
    if pinning is None:
        return _full_rank_result(n)
    p_supp, equalities = pinning
    eye = _eye(n)
    one = np.array([[1.0]], dtype=np.complex128)
    problem = SdpProblem(
        sense="min",
        variables=variables,
        objective=[("mu", one)],
        constraints=[
            PsdConstraint(
                dim=n,
                const=eye + p_supp,
                terms=(LinTerm("R", -1.0),),
                label="slack off support",
            ),
            PsdConstraint(
                dim=n,
                terms=(TraceTerm("mu", one, eye), LinTerm("R", -1.0, pt_dims)),
                label="mu upper",
            ),
            PsdConstraint(
                dim=n,
                terms=(TraceTerm("mu", one, eye), LinTerm("R", 1.0, pt_dims)),
                label="mu lower",
            ),
        ],
        equalities=equalities,
        patterns={"R": labels[:, None] == labels[None, :]},
    )

    def finish(sol):
        # mu* is at most 1 (R = I attains it) and at least 1/n (trace bound on
        # the operator norm of R^PT given R >= P).  The floor sits at half that
        # proven bound, so it only guards the log and never moves a value the
        # solver certifies.
        return _result(sol, sol.assignments["R"], lambda mu: -math.log2(min(1.0, max(0.5 / n, mu))))

    return "det_distill_one_copy", problem, finish


def w0(rho: BipartiteState, config: SolverConfig | None = None) -> MeasureResult:
    """max Re tr(rho R) over 0 <= R <= tr(rho R) I with -I <= R^PT <= I;
    log2 of the optimum matches det_distill_one_copy.

    Since tr(rho (tI - R)) = 0 at t = tr(rho R), every feasible R equals t I
    on the support of rho and the set has no interior.  The scale t becomes
    an explicit variable, the pinch becomes equalities, and the cap turns
    into t(I + P) - R >= 0, which is strictly feasible on the pinned set."""
    return _evaluate(_w0_program, rho, config)


def _w0_program(rho: BipartiteState, config: SolverConfig | None):
    n = rho.dims.total
    pt_dims = (rho.dims.d_a, rho.dims.d_b)
    variables = [("R", n, "hermitian-psd"), ("t", 1, "hermitian")]
    check_capacity(variables)
    labels = symmetry_classes(rho.mat, *pt_dims)
    pinning = _support_pinning(rho, labels, scale="t")
    if pinning is None:
        return _full_rank_result(n)
    p_supp, equalities = pinning
    eye = _eye(n)
    one = np.array([[1.0]], dtype=np.complex128)
    problem = SdpProblem(
        sense="max",
        variables=variables,
        objective=[("t", one)],
        constraints=[
            PsdConstraint(
                dim=n,
                terms=(TraceTerm("t", one, eye + p_supp), LinTerm("R", -1.0)),
                label="slack off support",
            ),
            PsdConstraint(dim=n, const=eye, terms=(LinTerm("R", -1.0, pt_dims),), label="pt upper"),
            PsdConstraint(dim=n, const=eye, terms=(LinTerm("R", 1.0, pt_dims),), label="pt lower"),
        ],
        equalities=equalities,
        patterns={"R": labels[:, None] == labels[None, :]},
    )

    def finish(sol):
        return _result(sol, sol.assignments["R"])

    return "w0", problem, finish


# the SDP measures by function, with the program step of each
_PROGRAMS = {
    w_dual: _w_dual_program,
    e_w: _e_w_program,
    det_distill_one_copy: _det_distill_one_copy_program,
    w0: _w0_program,
    fidelity_ppt: _fidelity_ppt_program,
}


def _caught(fn, *args, **kwargs):
    """fn's value, or the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except EntboundError as exc:
        return exc


def evaluate_many(measure, states, config: SolverConfig | None = None, **kw) -> list:
    """measure(rho, config=config, **kw) for every state: per state, in
    order, its MeasureResult or the package error it raised.  The SDP
    measures w_dual, e_w, det_distill_one_copy, w0 and fidelity_ppt build every
    problem first and solve them together (sdp.solve_many), each result bit
    for bit what the one-state call returns; any other measure is called
    state by state."""
    program = _PROGRAMS.get(inspect.unwrap(measure))
    if program is None:
        return [_caught(measure, rho, config=config, **kw) for rho in states]
    steps = [_caught(program, rho, config, **kw) for rho in states]
    pending = [i for i, step in enumerate(steps) if isinstance(step, tuple)]
    sols = solve_many([steps[i][1] for i in pending], config)
    for i, sol in zip(pending, sols):
        what, _, finish = steps[i]
        steps[i] = sol if isinstance(sol, EntboundError) else _caught(lambda: finish(_checked(sol, what)))
    return steps


def multi_copy(
    measure, rho: BipartiteState, n: int, config: SolverConfig | None = None
) -> MeasureResult:
    """Evaluate a measure on the regrouped n-fold tensor power of rho, after
    the capacity rule on one variable of the composite's dimension."""
    if not (is_integer(n) and 1 <= n <= 3):
        raise DomainError(f"multi_copy supports integer 1 <= n <= 3, got {n!r}")
    check_capacity([(f"rho^{n}", rho.dims.total**n, "hermitian")])
    big = kron_power_state(rho, n)
    result = measure(big, config=config)
    if measure is e_w and n >= 2:
        single = e_w(rho, config=config)
        expect = n * single.value_log2
        if abs(result.value_log2 - expect) > _ADDITIVITY_TOL:
            raise ConsistencyError(
                f"E_W additivity violated on {n} copies: {result.value_log2!r} vs "
                f"{expect!r} (tol {_ADDITIVITY_TOL})"
            )
    return result

