import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from entbound import ipm, measures, sdp
from entbound.errors import CapacityError, InvalidDimsError, InvalidStateError, NumericError, SolverError
from entbound.linalg import HermitianMatrix, hermitize, make_state, ptranspose_arr, symmetry_pattern
from entbound.sdp import (
    EqConstraint,
    LinTerm,
    PsdConstraint,
    SdpProblem,
    SolverConfig,
    TraceTerm,
    check_certificate,
    solve,
)
from entbound.states import (
    antisym_state,
    kron_power_state,
    max_entangled,
    random_state,
    rho_alpha,
    sigma_r,
    tensor_state,
)


def eye(n):
    return np.eye(n, dtype=complex)


def diag_lp(costs, bound):
    """min sum c_i x_ii s.t. X >= 0, x_ii = bound: a diagonal LP in SDP form."""
    n = len(costs)
    probes = []
    for i in range(n):
        p = np.zeros((n, n))
        p[i, i] = 1.0
        probes.append(p)
    return SdpProblem(
        sense="min",
        variables=[("X", n, "hermitian-psd")],
        objective=[("X", np.diag(np.asarray(costs, dtype=float)))],
        equalities=[EqConstraint(terms=(("X", p),), rhs=bound) for p in probes],
    )


def test_diagonal_lp_with_equalities():
    sol = solve(diag_lp([1.0, 2.0, 3.0], 0.5))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 3.0) < 1e-6
    assert np.allclose(np.diag(sol.assignments["X"].mat).real, 0.5, atol=1e-7)


def test_dependent_equality_rows():
    # the same pin stated twice: the duplicate row adds no constraint
    problem = diag_lp([1.0, 2.0, 3.0], 0.5)
    problem.equalities.append(problem.equalities[0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 3.0) < 1e-6
    assert check_certificate(problem, sol).ok


def test_equalities_fixing_every_coordinate():
    # the null space of the equality rows is empty: y = A+ b from the start
    problem = SdpProblem(
        sense="min",
        variables=[("x", 1, "hermitian-psd")],
        objective=[("x", np.eye(1))],
        equalities=[EqConstraint(terms=(("x", np.eye(1)),), rhs=0.25)],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 0.25) < 1e-7


def test_max_step_rejects_indefinite_iterate():
    # an indefinite iterate is caught once per iteration, in the scaling
    with pytest.raises(NumericError):
        ipm._nt_scaling(np.diag([1.0, -1.0]).astype(complex), eye(2))
    with pytest.raises(NumericError):
        ipm._max_step(np.ones(2), np.full((2, 2), np.nan, dtype=complex))


def test_pinned_offdiagonal_equality():
    # min tr X s.t. X >= 0 and 2 Re x01 = 1; optimum is the rank-1 matrix
    # [[.5,.5],[.5,.5]] with trace 1
    probe = np.array([[0.0, 1.0], [1.0, 0.0]])
    problem = SdpProblem(
        sense="min",
        variables=[("X", 2, "hermitian-psd")],
        objective=[("X", eye(2))],
        equalities=[EqConstraint(terms=(("X", probe),), rhs=1.0)],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert np.allclose(sol.assignments["X"].mat, 0.5 * np.ones((2, 2)), atol=1e-5)


def test_trace_norm_as_sdp():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = (a + a.conj().T) / 2
    problem = SdpProblem(
        sense="max",
        variables=[("R", 4, "hermitian")],
        objective=[("R", mat)],
        constraints=[
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("R", -1.0),)),
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("R", 1.0),)),
        ],
    )
    sol = solve(problem)
    want = float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - want) < 1e-6 * max(1.0, want)


def test_w_type_program_on_bell_state():
    phi = max_entangled(2)
    rho_pt = ptranspose_arr(phi.mat, 2, 2)
    problem = SdpProblem(
        sense="max",
        variables=[("R", 4, "hermitian")],
        objective=[("R", rho_pt)],
        constraints=[
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("R", -1.0),)),
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("R", 1.0),)),
            PsdConstraint(dim=4, terms=(LinTerm("R", 1.0, (2, 2)),)),
        ],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 2.0) < 1e-6


def test_trace_term_scalar_coupling():
    # max tr(rho Q) s.t. 0 <= Q <= t I and t = 1/2 via a scalar variable
    rho = np.diag([0.7, 0.3]).astype(complex)
    problem = SdpProblem(
        sense="max",
        variables=[("Q", 2, "hermitian-psd"), ("t", 1, "hermitian")],
        objective=[("Q", rho)],
        constraints=[
            PsdConstraint(
                dim=2,
                terms=(TraceTerm("t", np.eye(1), np.eye(2)), LinTerm("Q", -1.0)),
                label="Q below t*I",
            ),
        ],
        equalities=[EqConstraint(terms=(("t", np.eye(1)),), rhs=0.5)],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 0.5) < 1e-7


_TRACE_KEYS = {
    "iteration", "mu", "primal_value", "dual_value", "pobj_lin", "dobj_lin", "relgap",
    "pinf", "dinf", "residual_slack", "alpha_p", "alpha_d", "sigma", "kkt_jitter",
}


def test_weak_duality_holds_on_every_iterate():
    phi = max_entangled(2)
    rho_pt = ptranspose_arr(phi.mat, 2, 2)
    problem = SdpProblem(
        sense="max",
        variables=[("R", 4, "hermitian")],
        objective=[("R", rho_pt)],
        constraints=[
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("R", -1.0),)),
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("R", 1.0),)),
            PsdConstraint(dim=4, terms=(LinTerm("R", 1.0, (2, 2)),)),
        ],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert len(sol.trace) >= 5
    assert [row["iteration"] for row in sol.trace] == list(range(1, sol.iterations + 1))
    assert all(set(row) == _TRACE_KEYS for row in sol.trace)
    # the step that led to each later row was solved on one jitter rung
    assert np.isnan(sol.trace[0]["kkt_jitter"])
    assert all(row["kkt_jitter"] in (0.0, 1e-14, 1e-12, 1e-10, 1e-8) for row in sol.trace[1:])
    for info in sol.trace:
        scale = 1.0 + abs(info["pobj_lin"]) + abs(info["dobj_lin"])
        assert info["pobj_lin"] <= info["dobj_lin"] + info["residual_slack"] + 1e-8 * scale


def test_a_wrapped_kkt_solver_costs_only_the_jitter_record(monkeypatch):
    # a wrapper of _factor_kkt's solver that sets no __wrapped__ hides the
    # jitter rung from the trace and nothing else
    factor = ipm._factor_kkt

    def wrapped_factor(Mr):
        solver = factor(Mr)
        return None if solver is None else (lambda r: solver(r))

    want = solve(diag_lp([2.0, 1.0], 1.0))
    monkeypatch.setattr(ipm, "_factor_kkt", wrapped_factor)
    sol = solve(diag_lp([2.0, 1.0], 1.0))
    assert sol.status == "optimal"
    assert (sol.primal_value, sol.iterations) == (want.primal_value, want.iterations)
    assert all(np.isnan(row["kkt_jitter"]) for row in sol.trace)


def test_determinism_across_repeat_solves():
    cfg = SolverConfig()
    vals = [solve(diag_lp([2.0, 1.0], 1.0), cfg).primal_value for _ in range(2)]
    assert abs(vals[0] - vals[1]) <= 10 * cfg.gap_tol


@pytest.fixture
def caller_blas_threads():
    """Set the caller's BLAS thread count of every OpenBLAS copy; the counts
    found are restored afterwards."""
    if not ipm._openblas():
        pytest.skip("no OpenBLAS thread control found")
    saved = ipm._blas_threads()
    yield lambda n: ipm._set_blas_threads([n] * len(saved))
    ipm._set_blas_threads(saved)


def test_results_do_not_depend_on_the_callers_blas_threads(caller_blas_threads, monkeypatch):
    # without the limit, OpenBLAS splits the 3x4 state's products across
    # threads and its values change in the last bits
    states = [rho_alpha(0.3), random_state(3, 3, 2, 7017), random_state(3, 4, 5, 7004)]
    runs = {}
    for n in (1, 2):
        caller_blas_threads(n)
        runs[n] = [
            (r.value_log2, r.primal_value, r.dual_value, r.iterations)
            for rho in states
            for r in (measures.e_w(rho), measures.det_distill_one_copy(rho))
        ]
        assert set(ipm._blas_threads()) == {n}
    assert runs[1] == runs[2]

    def fail(S, Z):
        raise RuntimeError("scaling failed")

    monkeypatch.setattr(ipm, "_nt_scaling", fail)
    with pytest.raises(RuntimeError):
        measures.e_w(states[0])
    assert set(ipm._blas_threads()) == {2}
    assert ipm._blas_depth == 0


def test_nested_solves_restore_the_callers_blas_threads(caller_blas_threads, monkeypatch):
    caller_blas_threads(2)
    seen = []
    assemble = ipm._assemble_M

    def nested(comp, Vs):
        seen.append(ipm._blas_threads())
        if len(seen) == 1:
            measures.e_w(rho_alpha(0.3))
            seen.append(ipm._blas_threads())
        return assemble(comp, Vs)

    monkeypatch.setattr(ipm, "_assemble_M", nested)
    assert solve(diag_lp([2.0, 1.0], 1.0)).status == "optimal"
    assert all(set(s) == {1} for s in seen)
    assert set(ipm._blas_threads()) == {2}


def test_concurrent_solves_restore_the_callers_blas_threads(caller_blas_threads):
    caller_blas_threads(2)
    errors = []

    def work():
        try:
            for _ in range(5):
                assert solve(diag_lp([2.0, 1.0], 1.0)).status == "optimal"
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert set(ipm._blas_threads()) == {2}
    assert ipm._blas_depth == 0


def test_large_reduced_newton_matrix_is_factored_on_the_callers_threads(caller_blas_threads, monkeypatch):
    # the whole solve runs on the caller's threads from the threshold on, and
    # on one thread below it; the state has no symmetry, so the e0 program
    # keeps more coordinates than equality rows
    caller_blas_threads(2)
    rho = random_state(3, 3, 2, 7017)
    comp = ipm.compile_problem(_measure_program(measures.det_distill_one_copy, rho))
    order = comp.m - comp.A.shape[0]
    assemble, factor = ipm._assemble_M, ipm._factor_kkt

    def spy(name, fn):
        def wrapped(*args):
            seen[name].update(ipm._blas_threads())
            return fn(*args)

        return wrapped

    monkeypatch.setattr(ipm, "_assemble_M", spy("assemble", assemble))
    monkeypatch.setattr(ipm, "_factor_kkt", spy("factor", factor))
    for threshold, threads in ((order, 2), (order + 1, 1)):
        monkeypatch.setattr(ipm, "_THREADED_ORDER", threshold)
        seen = {"assemble": set(), "factor": set()}
        measures.det_distill_one_copy(rho)
        assert seen == {"assemble": {threads}, "factor": {threads}}
        assert set(ipm._blas_threads()) == {2}


def test_small_solve_beside_a_large_one_runs_on_one_thread(caller_blas_threads, monkeypatch):
    # a small solve started while a solve on the caller's threads factors
    # its Newton matrix still runs on one thread
    caller_blas_threads(2)
    monkeypatch.setattr(ipm, "_THREADED_ORDER", 10)
    large = threading.get_ident()
    factor = ipm._factor_kkt
    small_seen = set()
    statuses = []

    def beside(Mr):
        if threading.get_ident() != large:
            small_seen.update(ipm._blas_threads())
        elif not statuses:
            t = threading.Thread(target=lambda: statuses.append(solve(diag_lp([2.0, 1.0], 1.0)).status))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
        return factor(Mr)

    monkeypatch.setattr(ipm, "_factor_kkt", beside)
    assert measures.det_distill_one_copy(random_state(3, 3, 2, 7017)).iterations > 0
    assert statuses == ["optimal"]
    assert small_seen == {1}
    assert set(ipm._blas_threads()) == {2}


def test_solve_without_blas_thread_control(monkeypatch):
    expected = measures.e_w(rho_alpha(0.3))
    monkeypatch.setattr(ipm, "_openblas", lambda: ())
    r = measures.e_w(rho_alpha(0.3))
    assert (r.value_log2, r.iterations) == (expected.value_log2, expected.iterations)


def test_certificate_accepts_clean_solution():
    problem = diag_lp([1.0, 2.0, 3.0], 0.5)
    sol = solve(problem)
    report = check_certificate(problem, sol)
    assert report.ok, report.failures
    assert report.max_residual <= 1e-9
    assert report.dual_feas_residual <= 1e-6
    assert report.dual_psd_min >= -1e-9


def test_certificate_flags_perturbed_assignment():
    problem = diag_lp([1.0, 2.0, 3.0], 0.5)
    sol = solve(problem)
    moved = HermitianMatrix(sol.assignments["X"].mat + 0.01 * np.eye(3))
    broken = replace(sol, assignments={"X": moved})
    report = check_certificate(problem, broken)
    assert not report.ok
    assert any("equality" in f or "gap" in f for f in report.failures)


def test_certificate_flags_psd_violation():
    problem = diag_lp([1.0, 1.0], 1.0)
    sol = solve(problem)
    bad = sol.assignments["X"].mat - 2.0 * np.eye(2)
    report = check_certificate(problem, replace(sol, assignments={"X": HermitianMatrix(bad)}))
    assert not report.ok
    assert any("PSD" in f for f in report.failures)


def test_certificate_refuses_a_solution_of_the_wrong_count_or_shape():
    problem = measures._w_max_form(rho_alpha(0.3))
    sol = solve(problem)
    assert len(sol.dual_blocks) == len(problem.blocks()) == 3
    with pytest.raises(InvalidDimsError, match="dual blocks"):
        check_certificate(problem, replace(sol, dual_blocks=sol.dual_blocks[:2]))
    with pytest.raises(InvalidDimsError, match="dual blocks"):
        check_certificate(problem, replace(sol, dual_blocks=(np.eye(2),) + sol.dual_blocks[1:]))
    with pytest.raises(InvalidDimsError, match="equality multipliers"):
        check_certificate(problem, replace(sol, eq_duals=np.zeros(1)))
    # the primal side is held to the same rule
    for xs in ({}, {"R": HermitianMatrix(np.eye(4))}):
        with pytest.raises(InvalidDimsError, match="assignments"):
            check_certificate(problem, replace(sol, assignments=xs))


def test_certificate_fails_a_solve_without_a_dual():
    # no PSD block at all: the solve stops at no-cone before any dual exists
    problem = SdpProblem(
        sense="max",
        variables=[("x", 1, "hermitian")],
        objective=[("x", np.eye(1))],
        equalities=[EqConstraint(terms=(("x", np.eye(1)),), rhs=1.0)],
    )
    sol = solve(problem)
    assert (sol.stop, sol.dual_blocks) == ("no-cone", ())
    report = check_certificate(problem, sol)
    assert not report.ok
    assert any("gap" in f for f in report.failures)
    # a non-finite multiplier gives a non-finite gap, which fails too
    report = check_certificate(problem, replace(sol, eq_duals=np.array([np.nan])))
    assert np.isnan(report.gap)
    assert any("gap nan" in f for f in report.failures)


def test_certificate_checks_the_unrestricted_program():
    # rho_alpha(0.3)'s own pattern keeps a certificate of the whole program;
    # a diagonal-only pattern solves, but its dual is not feasible there
    problem = measures._w_max_form(rho_alpha(0.3))
    report = check_certificate(problem, solve(problem))
    assert report.ok, report.failures
    assert report.dual_feas_residual <= 1e-9
    diag = replace(problem, patterns={"R": np.eye(9, dtype=bool)})
    sol = solve(diag)
    assert sol.status == "optimal"
    report = check_certificate(diag, sol)
    assert report.dual_feas_residual > 0.1
    assert not report.ok
    assert any("dual residual" in f for f in report.failures)


@pytest.mark.parametrize("real", [True, False])
def test_blocks_of_different_sizes_in_one_program(real):
    # max tr(C1 X) + tr(C2 Y) over 0 <= X <= I (2x2) and 0 <= Y <= I (3x3):
    # the sum of the positive eigenvalues of C1 and C2
    rng = np.random.default_rng(31)
    C1, C2 = _random_hermitian(rng, 2, real), _random_hermitian(rng, 3, real)
    problem = SdpProblem(
        sense="max",
        variables=[("X", 2, "hermitian-psd"), ("Y", 3, "hermitian-psd")],
        objective=[("X", C1), ("Y", C2)],
        constraints=[
            PsdConstraint(dim=2, const=eye(2), terms=(LinTerm("X", -1.0),)),
            PsdConstraint(dim=3, const=eye(3), terms=(LinTerm("Y", -1.0),)),
        ],
    )
    assert ipm.compile_problem(problem).real_mode == real
    want = sum(float(np.sum(np.clip(np.linalg.eigvalsh(C), 0.0, None))) for C in (C1, C2))
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - want) <= 1e-7 * max(1.0, abs(want))
    report = check_certificate(problem, sol)
    assert report.ok, report.failures


def test_infeasible_problem_is_reported():
    # X >= 0 together with -I - X >= 0 (X <= -I) cannot hold
    problem = SdpProblem(
        sense="max",
        variables=[("X", 2, "hermitian-psd")],
        objective=[("X", eye(2))],
        constraints=[
            PsdConstraint(dim=2, const=-eye(2), terms=(LinTerm("X", -1.0),)),
        ],
    )
    sol = solve(problem)
    assert sol.status == "infeasible"


def test_statically_infeasible_equality():
    # inconsistent equality systems are found before the first iteration
    cases = [
        # a probe with no gradient on any coordinate: 0 = 1
        [(np.zeros((2, 2)), 1.0)],
        # x = 0.25 together with x = 0.5
        [(np.eye(1), 0.25), (np.eye(1), 0.5)],
        # diagonal pins that contradict a trace pin
        [(np.diag([1.0, 0.0]), 0.3), (np.diag([0.0, 1.0]), 0.3), (np.eye(2), 1.0)],
    ]
    for pins in cases:
        n = pins[0][0].shape[0]
        problem = SdpProblem(
            sense="min",
            variables=[("X", n, "hermitian-psd")],
            objective=[("X", eye(n))],
            equalities=[EqConstraint(terms=(("X", probe),), rhs=rhs) for probe, rhs in pins],
        )
        sol = solve(problem)
        assert sol.status == "infeasible"
        assert sol.iterations == 0


def test_split_equalities_invariants():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3, 8))
    # rank 3: a duplicated row and a combination of two others
    A = np.vstack([rows, rows[1], rows[0] + 2.0 * rows[2]])
    eq = ipm._split_equalities(A)
    assert eq.s.size == 3 and eq.N.shape == (8, 5)
    assert np.max(np.abs(eq.N.T @ eq.N - np.eye(5))) <= 1e-14
    b = A @ rng.standard_normal(8)
    assert np.max(np.abs(A @ eq.pinv(b) - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(A @ eq.extend(rng.standard_normal(5)))) <= 1e-12
    v = A.T @ rng.standard_normal(5)
    assert np.max(np.abs(A.T @ eq.pinv_t(v) - v)) <= 1e-12 * np.max(np.abs(v))
    assert ipm._split_equalities(np.zeros((0, 8))).N is None


def test_factor_kkt_solves_badly_scaled_and_singular_matrices():
    # Mr = diag(s) Q diag(lam) Q^T diag(s): eigenvalues from 1 down to 1e-12
    # and a diagonal from about 1e-8 up to 1e8, factored without equilibration
    k = 40
    rng = np.random.default_rng(17)
    Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    s = np.logspace(-4, 4, k)
    Mr = s[:, None] * (Q * np.logspace(0, -12, k)) @ Q.T * s[None, :]
    Mr = 0.5 * (Mr + Mr.T)
    g = rng.standard_normal(k)
    z = ipm._factor_kkt(Mr)(g)
    backward = np.abs(Mr @ z - g) / (np.abs(Mr) @ np.abs(z) + np.abs(g))
    assert np.max(backward) <= 1e-14

    # a singular matrix factors on a jitter rung above 0, a positive
    # definite one on rung 0, and a negative definite one not at all
    singular = np.diag([2.0, 1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        sla.cho_factor(singular)
    kkt = ipm._factor_kkt(singular)
    assert kkt.jitter > 0.0
    z = kkt(np.array([2.0, 1.0, 0.0]))
    assert np.all(np.isfinite(z)) and np.allclose(z[:2], 1.0)
    assert ipm._factor_kkt(np.array([[2.0, 1.0], [1.0, 2.0]])).jitter == 0.0
    assert ipm._factor_kkt(-np.eye(3)) is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gap_tol": np.inf},
        {"gap_tol": 0.0},
        {"gap_tol": True},
        {"feas_tol": np.nan},
        {"feas_tol": -1e-9},
        {"max_iterations": 2.5},
        {"max_iterations": 0},
        {"max_iterations": True},
    ],
)
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidStateError):
        SolverConfig(**kwargs)


def test_zero_gradient_trivial_equality_is_dropped():
    # same probe with rhs 0 is vacuous; the solver must ignore the row
    problem = SdpProblem(
        sense="min",
        variables=[("X", 2, "hermitian-psd")],
        objective=[("X", eye(2))],
        equalities=[
            EqConstraint(terms=(("X", np.zeros((2, 2))),), rhs=0.0),
            EqConstraint(terms=(("X", np.eye(2)),), rhs=1.0),
        ],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert sol.eq_duals.shape == (2,)


def test_imaginary_probe_equality_in_complex_mode():
    # an imaginary-direction probe constrains the skew coordinate: the minimal
    # trace PSD completion of a pinned off-diagonal imaginary part is 1
    probe = np.array([[0.0, 1j], [-1j, 0.0]])
    problem = SdpProblem(
        sense="min",
        variables=[("X", 2, "hermitian-psd")],
        objective=[("X", eye(2))],
        equalities=[EqConstraint(terms=(("X", probe),), rhs=1.0)],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7


def test_unbounded_problem_is_reported():
    problem = SdpProblem(
        sense="max",
        variables=[("t", 1, "hermitian")],
        objective=[("t", np.eye(1))],
        constraints=[
            PsdConstraint(dim=1, terms=(TraceTerm("t", np.eye(1), np.eye(1)),)),
        ],
    )
    sol = solve(problem, SolverConfig(max_iterations=400))
    assert sol.status == "unbounded"


def test_capacity_cap_raises():
    with pytest.raises(CapacityError, match="cap"):
        solve(
            SdpProblem(
                sense="min",
                variables=[("X", 200, "hermitian-psd")],
                objective=[("X", eye(200))],
            )
        )


def test_model_validation_rejects_bad_sense_and_dupes():
    with pytest.raises(InvalidStateError):
        SdpProblem(sense="argmax", variables=[("X", 2, "hermitian")], objective=[])
    with pytest.raises(InvalidStateError):
        SdpProblem(
            sense="max",
            variables=[("X", 2, "hermitian"), ("X", 3, "hermitian")],
            objective=[],
        )


def test_model_validation_rejects_non_finite_data():
    with pytest.raises(InvalidStateError, match="non-finite"):
        SdpProblem(
            sense="max",
            variables=[("X", 2, "hermitian-psd")],
            objective=[("X", np.diag([np.nan, 1.0]))],
        )


def _one_block_problem(**changes):
    base = dict(
        sense="max",
        variables=[("X", 2, "hermitian-psd")],
        objective=[("X", eye(2))],
        constraints=[PsdConstraint(dim=2, const=eye(2), terms=(LinTerm("X", -1.0),))],
    )
    return SdpProblem(**{**base, **changes})


@pytest.mark.parametrize("constant", [np.nan, np.inf, "1", True])
def test_model_validation_rejects_bad_constant(constant):
    assert _one_block_problem().constant == 0.0
    with pytest.raises(InvalidStateError, match="constant"):
        _one_block_problem(constant=constant)


@pytest.mark.parametrize("coeff", [np.nan, -np.inf, "2", True])
def test_model_validation_rejects_bad_term_coeff(coeff):
    with pytest.raises(InvalidStateError, match="coeff"):
        LinTerm("X", coeff)
    with pytest.raises(InvalidStateError, match="coeff"):
        TraceTerm("X", eye(2), eye(2), coeff)


@pytest.mark.parametrize("pt_dims", [(2.5, 1.6), (4,), (True, 4), (2, 0), 4])
def test_model_validation_rejects_bad_pt_dims(pt_dims):
    assert LinTerm("X", 1.0, (np.int64(2), 2)).pt_dims == (2, 2)
    with pytest.raises(InvalidDimsError, match="pt_dims"):
        LinTerm("X", 1.0, pt_dims)


@pytest.mark.parametrize("dim", [2.0, "2", True])
def test_model_validation_rejects_non_integer_dims(dim):
    with pytest.raises(InvalidDimsError, match="dim"):
        _one_block_problem(variables=[("X", dim, "hermitian-psd")])
    with pytest.raises(InvalidDimsError, match="dim"):
        PsdConstraint(dim=dim, terms=())


def test_model_validation_rejects_an_empty_constraint_block():
    # min x over a 1x1 PSD x with x = 1 and a 0x0 block is refused by the
    # model, not left to fail in compile_problem
    with pytest.raises(InvalidDimsError, match="dim"):
        SdpProblem(
            sense="min",
            variables=[("x", 1, "hermitian-psd")],
            objective=[("x", eye(1))],
            constraints=[PsdConstraint(dim=0, terms=())],
            equalities=[EqConstraint(terms=(("x", eye(1)),), rhs=1.0)],
        )


_EYE2 = np.eye(2, dtype=bool)


@pytest.mark.parametrize(
    "patterns, error",
    [
        ({"Y": _EYE2}, InvalidStateError),
        ({"X": np.eye(3, dtype=bool)}, InvalidDimsError),
        ({"X": np.array([[True, True], [False, True]])}, InvalidStateError),
        ({"X": np.array([[True, False], [False, False]])}, InvalidStateError),
        ({"X": np.eye(2)}, InvalidStateError),
    ],
    ids=["unknown-variable", "wrong-shape", "asymmetric", "false-diagonal", "not-boolean"],
)
def test_model_validation_rejects_bad_patterns(patterns, error):
    assert np.array_equal(_one_block_problem(patterns={"X": _EYE2}).patterns["X"], _EYE2)
    with pytest.raises(error, match="pattern"):
        _one_block_problem(patterns=patterns)


@pytest.mark.parametrize(
    "build, item",
    [
        (lambda: EqConstraint(terms=(("X",),), rhs=0.0), r"\('X',\)"),
        (lambda: EqConstraint(terms=5, rhs=0.0), "5"),
        (lambda: PsdConstraint(dim=2, terms=5), "5"),
        (lambda: _one_block_problem(constraints=[PsdConstraint(dim=2, terms=(object(),))]), "object"),
        (lambda: SdpProblem("max", [("X", 2)], []), r"\('X', 2\)"),
        (lambda: SdpProblem("max", [("X", 2, "hermitian")], [("X",)]), r"\('X',\)"),
        (lambda: SdpProblem("max", [(["X"], 2, "hermitian")], []), r"\['X'\]"),
        (lambda: _one_block_problem(constraints=[5]), "5"),
        (lambda: _one_block_problem(equalities=[(("X", eye(2)),)]), "array"),
    ],
    ids=[
        "eq-term-too-short",
        "eq-terms-not-a-sequence",
        "psd-terms-not-a-sequence",
        "psd-term-not-a-term",
        "variable-too-short",
        "objective-too-short",
        "variable-name-not-a-str",
        "constraint-not-a-psd-constraint",
        "equality-not-an-eq-constraint",
    ],
)
def test_model_validation_rejects_malformed_structure(build, item):
    with pytest.raises(InvalidStateError, match=item):
        build()


@pytest.mark.parametrize("rhs", [np.nan, np.inf, "1"])
def test_model_validation_rejects_bad_equality_rhs(rhs):
    with pytest.raises(InvalidStateError, match="rhs"):
        EqConstraint(terms=(("X", eye(2)),), rhs=rhs)


def test_solver_tolerance_contract_on_optimal():
    cfg = SolverConfig(gap_tol=1e-9)
    problem = diag_lp([1.0, 2.0], 0.25)
    sol = solve(problem, cfg)
    assert sol.status == "optimal"
    assert sol.gap <= cfg.gap_tol * max(1.0, abs(sol.primal_value))
    report = check_certificate(problem, sol, cfg)
    assert report.max_residual <= cfg.feas_tol


class _Captured(Exception):
    pass


def _measure_program(measure, rho):
    """The SdpProblem a measure hands to solve, captured before any solve."""

    def capture(problem, config=None):
        raise _Captured(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "solve", capture)
        with pytest.raises(_Captured) as caught:
            measure(rho)
    return caught.value.args[0]


@pytest.mark.parametrize("measure", [measures.det_distill_one_copy, measures.w0], ids=["e0", "w0"])
@pytest.mark.parametrize(
    "rho",
    [
        pytest.param(rho_alpha(0.3), id="rho_alpha"),
        pytest.param(random_state(3, 3, 2, 7017), id="rs3x3"),
        pytest.param(random_state(2, 4, 3, 7003), id="rs2x4"),
        pytest.param(max_entangled(2), id="phi2"),
    ],
)
def test_equality_pinned_programs_certify(measure, rho):
    # the least-squares multiplier must stay a valid dual certificate
    problem = _measure_program(measure, rho)
    assert problem.equalities
    sol = solve(problem)
    report = check_certificate(problem, sol)
    assert report.ok, report.failures
    assert max(report.eq_residuals) <= 1e-12
    assert report.dual_feas_residual <= 1e-7


def _x_plus_pt_program(real):
    """X + X^PT >= 0 with unequal coefficients: two LinTerms of one variable
    in one block."""
    c = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    if not real:
        c[0, 1], c[1, 0] = 1j, -1j
    return SdpProblem(
        sense="max",
        variables=[("X", 4, "hermitian")],
        objective=[("X", c)],
        constraints=[
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("X", 0.5), LinTerm("X", -2.0, (2, 2)))),
        ],
    )


def _random_hermitian(rng, n, real):
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T).astype(complex)


def _trace_term_program(real):
    """0.5 X + tr(P X) K >= -I: a TraceTerm on a 4x4 variable, so its probe
    has more than one coordinate."""
    rng = np.random.default_rng(11)
    P, K = _random_hermitian(rng, 4, real), _random_hermitian(rng, 4, real)
    return SdpProblem(
        sense="max",
        variables=[("X", 4, "hermitian")],
        objective=[("X", eye(4))],
        constraints=[
            PsdConstraint(dim=4, const=eye(4), terms=(LinTerm("X", 0.5), TraceTerm("X", P, K))),
        ],
    )


def _mixed_size_program(real):
    """max tr(C X) + tr(D Y) over -I <= X <= I (2x2) and -I <= Y <= I (3x3),
    the blocks interleaved by size as 2, 3, 2, 3, and a trace term of Y in
    the last 2x2 block: two stacks whose blocks alternate in constraint
    order."""
    rng = np.random.default_rng(5)
    C, D, P = _random_hermitian(rng, 2, real), _random_hermitian(rng, 3, real), _random_hermitian(rng, 3, real)
    return SdpProblem(
        sense="max",
        variables=[("X", 2, "hermitian"), ("Y", 3, "hermitian")],
        objective=[("X", C), ("Y", D)],
        constraints=[
            PsdConstraint(dim=2, const=eye(2), terms=(LinTerm("X", -1.0),), label="I - X"),
            PsdConstraint(dim=3, const=eye(3), terms=(LinTerm("Y", -1.0),), label="I - Y"),
            PsdConstraint(dim=2, const=eye(2), terms=(LinTerm("X", 1.0),), label="I + X"),
            PsdConstraint(dim=3, const=eye(3), terms=(LinTerm("Y", 1.0),), label="I + Y"),
            PsdConstraint(dim=2, const=4.0 * eye(2), terms=(LinTerm("X", 1.0), TraceTerm("Y", P, 0.1 * eye(2)))),
        ],
    )


def _state(real):
    return rho_alpha(0.3) if real else random_state(2, 3, 2, 8101)


def _phased_rho_alpha():
    """rho_alpha(0.3) conjugated by the diagonal local phase unitary with
    phases (0, 0.7, 1.9) x (0.3, -1.1, 2.5): complex data on a pattern that
    keeps some off-diagonal entries of R, not all."""
    u = np.exp(1j * np.add.outer([0.0, 0.7, 1.9], [0.3, -1.1, 2.5]).ravel())
    return make_state(u[:, None] * rho_alpha(0.3).mat * u.conj(), 3, 3)


_TENSOR6 = tensor_state(sigma_r(0.4), rho_alpha(0.3))


# e_w's max form, w_dual's two-variable (U - V)^PT block, e0's TraceTerm
# blocks (mu upper / mu lower) on 1x1 variables, a block with two terms on
# one variable, a TraceTerm on a 4x4 variable and blocks of two sizes, each
# real and complex; e_w's max form on a complex pattern that drops some
# off-diagonal pairs (m = 15), which checks that each imaginary coordinate
# meets its own entry; the split tensor6 e_w and e0 programs; and the
# rho_alpha and phased programs split into their class blocks down to one
# row (split order 1)
_PROGRAMS = (
    [
        pytest.param(build, real, None, id=f"{name}-{'real' if real else 'complex'}")
        for name, build in (
            ("e_w", lambda real: measures._w_max_form(_state(real))),
            ("w_dual", lambda real: _measure_program(measures.w_dual, _state(real))),
            ("e0", lambda real: _measure_program(measures.det_distill_one_copy, _state(real))),
            ("x_plus_pt", _x_plus_pt_program),
            ("trace_term", _trace_term_program),
            ("mixed_sizes", _mixed_size_program),
        )
        for real in (True, False)
    ]
    + [pytest.param(lambda real: measures._w_max_form(_phased_rho_alpha()), False, None, id="e_w_phased-complex")]
    + [
        pytest.param(lambda real: measures._w_max_form(_TENSOR6), True, None, id="e_w_tensor6-real"),
        pytest.param(
            lambda real: _measure_program(measures.det_distill_one_copy, _TENSOR6), True, None, id="e0_tensor6-real"
        ),
    ]
    + [
        pytest.param(build, real, 1, id=f"{name}-split")
        for name, build, real in (
            ("e_w", lambda real: measures._w_max_form(rho_alpha(0.3)), True),
            ("w_dual", lambda real: _measure_program(measures.w_dual, rho_alpha(0.3)), True),
            ("e0", lambda real: _measure_program(measures.det_distill_one_copy, rho_alpha(0.3)), True),
            ("w0", lambda real: _measure_program(measures.w0, rho_alpha(0.3)), True),
            ("e_w_phased", lambda real: measures._w_max_form(_phased_rho_alpha()), False),
        )
    ]
)


def _compiled(build, real, split, monkeypatch):
    """The program and its compiled form, split from `split` rows on when
    given; every split-eligible constraint must then have class blocks."""
    if split is not None:
        monkeypatch.setattr(ipm, "_SPLIT_ORDER", split)
    problem = build(real)
    comp = ipm.compile_problem(problem)
    assert comp.real_mode == real
    if split is not None:
        assert sum(st.pos.size for st in comp.stacks) > len(problem.blocks())
    return problem, comp


def _class_stacks(comp, mats):
    """The stacks of comp's class blocks cut from one matrix per constraint."""
    return [np.array([mats[p][np.ix_(r, r)] for p, r in zip(st.pos, st.rows)]) for st in comp.stacks]


def _hermitian_stack(rng, nb, n, real, psd=False):
    a = rng.standard_normal((nb, n, n))
    if not real:
        a = a + 1j * rng.standard_normal((nb, n, n))
    ah = np.swapaxes(a.conj(), -1, -2)
    return a @ ah + 0.1 * np.eye(n) if psd else a + ah


@pytest.mark.parametrize("build, real, split", _PROGRAMS)
def test_assemble_M_matches_dense_oracle(build, real, split, monkeypatch):
    problem, comp = _compiled(build, real, split, monkeypatch)
    blocks = problem.blocks()
    rng = np.random.default_rng(2024)
    Vs = [_hermitian_stack(rng, len(st.pos), st.n, real, psd=True) for st in comp.stacks]

    # M[i,k] = sum_j Re tr(F_ji V_j F_jk V_j), each F_ji evaluated densely
    # from the model terms (partial transposes by ptranspose_arr) at the
    # i-th unit coordinate, constant removed, and V_j the constraint's class
    # blocks put back in place
    units = [ipm.assignments_from(comp, e) for e in np.eye(comp.m)]
    want = np.zeros((comp.m, comp.m))
    for blk, Vj in zip(blocks, ipm.full_blocks(comp, Vs)):
        FV = np.array([(sdp.block_matrix(blk, xs) - blk.const) @ Vj for xs in units])
        want += np.einsum("iab,kba->ik", FV, FV).real

    got = ipm._assemble_M(comp, Vs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("build, real, split", _PROGRAMS)
def test_gather_block_is_the_adjoint_of_apply_block(build, real, split, monkeypatch):
    # one scatter images every block of a stack as the dense model terms
    # do, with nothing between class blocks, and one gather is its adjoint
    problem, comp = _compiled(build, real, split, monkeypatch)
    blocks = problem.blocks()
    rng = np.random.default_rng(7)
    y = rng.standard_normal(comp.m)
    xs = ipm.assignments_from(comp, y)
    images = [ipm.apply_block(st, y) for st in comp.stacks]
    for blk, F in zip(blocks, ipm.full_blocks(comp, images)):
        want = sdp.block_matrix(blk, xs) - blk.const
        assert np.max(np.abs(F - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    for blk, C in zip(blocks, ipm.full_blocks(comp, [st.const for st in comp.stacks])):
        assert np.array_equal(C, blk.const.real if real else blk.const)
    for st, img in zip(comp.stacks, images):
        X = _hermitian_stack(rng, len(st.pos), st.n, False)
        lhs = float(y @ ipm.gather_block(st, X))
        rhs = float(np.real(np.sum(img * np.swapaxes(X, -1, -2))))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        # the gather sees only the Hermitian part of its argument, so the
        # loop's right-hand-side stacks need no symmetrizing
        X = rng.standard_normal(X.shape) if real else rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
        got, want = ipm.gather_block(st, X), ipm.gather_block(st, hermitize(X))
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("build, real, split", _PROGRAMS)
def test_model_dual_residual_matches_the_stacked_gathers(build, real, split, monkeypatch):
    # the certificate check's term-by-term dual residual, in the solver's
    # coordinates, is c + the sum of the stacks' gathers - A^T lam: the
    # gathers read only the class blocks of each dual matrix
    problem, comp = _compiled(build, real, split, monkeypatch)
    rng = np.random.default_rng(13)
    zs = [_hermitian_stack(rng, 1, con.dim, real)[0] for con in problem.blocks()]
    lam = rng.standard_normal(len(problem.equalities))
    res = sdp._dual_residual(problem, zs, lam)
    got = np.concatenate([ipm._hvec(res[name], *comp.bases[name]) for name in comp.var_names])
    want = comp.c + sum(ipm.gather_block(st, Z) for st, Z in zip(comp.stacks, _class_stacks(comp, zs)))
    want -= comp.A.T @ lam
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_w_dual_terms_collide_in_the_scatter():
    # U and V enter (U - V)^PT at the same entries, so the image's scatter
    # sums colliding entries; the adjoint test above checks their values
    comp = ipm.compile_problem(_measure_program(measures.w_dual, _state(False)))
    (st,) = comp.stacks
    assert np.unique(st.flat).size < st.flat.size


def test_tensor6_constraints_split_into_their_symmetry_classes():
    # each class is a clique of the pattern, so the class blocks' squared
    # sizes add up to the kept entries of R (240 of 1296) in every block
    kept = int(symmetry_pattern(_TENSOR6.mat, 6, 6).sum())
    assert kept == int(symmetry_pattern(ptranspose_arr(_TENSOR6.mat, 6, 6), 6, 6).sum()) == 240
    rho_classes, pt_classes = [8] * 3 + [4] * 3, [12] + [4] * 6
    for measure, want in (
        (measures.e_w, [pt_classes, pt_classes, rho_classes]),
        (measures.det_distill_one_copy, [rho_classes, pt_classes, pt_classes, rho_classes]),
        (measures.w0, [rho_classes, pt_classes, pt_classes, rho_classes]),
    ):
        problem = measures._w_max_form(_TENSOR6) if measure is measures.e_w else _measure_program(measure, _TENSOR6)
        comp = ipm.compile_problem(problem)
        sizes = [sorted(st.n for st in comp.stacks for p in st.pos if p == q) for q in range(len(want))]
        assert sizes == [sorted(w) for w in want]
        assert all(sum(k * k for k in ks) == kept for ks in sizes)
        assert sorted(st.n for st in comp.stacks) == [4, 8, 12]
        # one Schur kernel batch per stack and pair of terms' coordinates,
        # not one per class block
        assert sum(len(st.groups) for st in comp.stacks) == 4


def _same_arrays(a, b) -> bool:
    """a and b hold equal values of equal types, arrays with equal dtypes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same_arrays(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_arrays(a[k], b[k]) for k in a)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(_same_arrays(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return type(a) is type(b) and a == b


_SMALL_STATES = [
    *(random_state(d_a, d_b, 2, 1000 + d_a * d_b) for d_a, d_b in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))),
    rho_alpha(0.3),
    sigma_r(0.5),
    max_entangled(2),
    max_entangled(3),
    antisym_state(),
]


@pytest.mark.parametrize("rho", _SMALL_STATES, ids=lambda rho: f"{rho.dims.d_a}x{rho.dims.d_b}")
def test_small_programs_compile_as_if_unsplit(rho, monkeypatch):
    # every corpus and cli program (at most 12 rows) stays below the split
    # order, so it compiles to the very arrays of an unsplit compile
    measures_ = (measures.w_dual, measures.det_distill_one_copy, measures.w0, lambda r: measures.fidelity_ppt(r, 1.5))
    programs = [measures._w_max_form(rho)] + [_measure_program(measure, rho) for measure in measures_]
    comps = [ipm.compile_problem(problem) for problem in programs]
    monkeypatch.setattr(ipm, "_SPLIT_ORDER", 10**6)
    for problem, comp in zip(programs, comps):
        assert _same_arrays(comp, ipm.compile_problem(problem))


@pytest.mark.parametrize("real", [True, False])
def test_mixed_block_sizes_keep_the_constraint_order(real):
    problem = _mixed_size_program(real)
    comp = ipm.compile_problem(problem)
    assert [(st.n, list(st.pos)) for st in comp.stacks] == [(2, [0, 2, 4]), (3, [1, 3])]
    sol = solve(problem)
    assert sol.status == "optimal"
    assert [z.shape for z in sol.dual_blocks] == [(2, 2), (3, 3), (2, 2), (3, 3), (2, 2)]
    report = check_certificate(problem, sol)
    assert report.ok, report.failures
    # stationarity in Y pairs the 3x3 blocks in order: D = Z(I - Y) - Z(I + Y)
    # plus the trace term's 0.1 tr(Z_4) P
    rng = np.random.default_rng(5)
    _, D, P = (_random_hermitian(rng, k, real) for k in (2, 3, 3))
    z = sol.dual_blocks
    got = z[1] - z[3] - 0.1 * np.trace(z[4]).real * P
    assert np.max(np.abs(got - D)) <= 1e-6 * np.max(np.abs(D))


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("real", [True, False])
def test_nt_scaling_diagonalizes_the_scaled_point(n, real):
    rng = np.random.default_rng(100 * n + real)

    def pd():
        a = rng.standard_normal((n, n))
        if not real:
            a = a + 1j * rng.standard_normal((n, n))
        return (a @ a.conj().T + 0.1 * np.eye(n)).astype(complex)

    S, Z = pd(), pd()
    sc = ipm._nt_scaling(S, Z)
    scale = max(np.max(np.abs(S)), np.max(np.abs(Z)))
    D = np.diag(sc.d)
    assert np.all(sc.d > 0)
    assert np.max(np.abs(sc.Gi @ S @ sc.Gi.conj().T - D)) <= 1e-12 * scale
    assert np.max(np.abs(sc.G.conj().T @ Z @ sc.G - D)) <= 1e-12 * scale
    assert np.max(np.abs(sc.Gi @ sc.G - np.eye(n))) <= 1e-12
    assert np.max(np.abs(sc.V @ S @ sc.V - Z)) <= 1e-12 * scale

    # _pull_back returns Giᴴ W Gi for the W with (W D + D W)/2 = T, so
    # Gᴴ (.) G takes it back to W
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = a + a.conj().T
    W = sc.G.conj().T @ ipm._pull_back(sc, T) @ sc.G
    assert np.max(np.abs((W @ D + D @ W) / 2 - T)) <= 1e-12 * np.max(np.abs(T))

    Sinv = np.linalg.inv(S)
    assert np.max(np.abs(ipm._pull_back(sc, 2.5 * np.eye(n)) - 2.5 * Sinv)) <= 1e-10 * np.max(np.abs(Sinv))


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("real", [True, False])
def test_max_step_of_the_scaled_direction_is_the_largest_feasible_step(n, real):
    # S + t dS >= 0 exactly when diag(d) + t Gi dS Giᴴ >= 0, and likewise for
    # Z with Gᴴ dZ G; the largest t is 1 / -λmin of the pencil (dS, S)
    rng = np.random.default_rng(10 * n + real)

    def herm():
        a = rng.standard_normal((n, n))
        if not real:
            a = a + 1j * rng.standard_normal((n, n))
        return (a + a.conj().T).astype(complex)

    def pd():
        a = herm()
        return a @ a + 0.1 * np.eye(n)

    for _ in range(5):
        S, Z, dS, dZ = pd(), pd(), herm(), herm()
        sc = ipm._nt_scaling(S, Z)
        dSt, dZt = ipm._scale(sc, dS, dZ)
        for X, dX, dXt in ((S, dS, dSt), (Z, dZ, dZt)):
            lmin = sla.eigvalsh(-dX, X)[-1]
            want = 1.0 / lmin if lmin > 0 else np.inf
            got = ipm._max_step(sc.d, dXt)
            if np.isinf(want):
                assert np.isinf(got)
            else:
                assert abs(got - want) <= 1e-10 * want
        # a direction inside the cone never leaves it
        for dPt in ipm._scale(sc, dS @ dS, dZ @ dZ):
            assert np.isinf(ipm._max_step(sc.d, dPt))


@pytest.mark.parametrize("real", [True, False])
def test_stacked_numerics_agree_with_each_slice(real):
    # a (nb, n, n) stack is nb independent blocks: every helper of the loop
    # gives, slice by slice, what it gives on each 2-D slice
    rng = np.random.default_rng(31 + real)
    nb, n = 3, 4
    S, Z = _hermitian_stack(rng, nb, n, real, psd=True), _hermitian_stack(rng, nb, n, real, psd=True)
    dS, dZ, T = (_hermitian_stack(rng, nb, n, real) for _ in range(3))
    sc = ipm._nt_scaling(S, Z)
    dSt, dZt = ipm._scale(sc, dS, dZ)
    target, worst = ipm._gondzio_target(sc, dSt, dZt, 0.5, 0.5, 1.0)
    slices = [ipm._nt_scaling(S[k], Z[k]) for k in range(nb)]

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))

    for k, sk in enumerate(slices):
        assert all(close(getattr(sc, f)[k], getattr(sk, f)) for f in ("V", "G", "Gi", "d"))
        dSk, dZk = ipm._scale(sk, dS[k], dZ[k])
        assert close(dSt[k], dSk) and close(dZt[k], dZk)
        assert close(ipm._pull_back(sc, T)[k], ipm._pull_back(sk, T[k]))
        assert close(target[k], ipm._gondzio_target(sk, dSk, dZk, 0.5, 0.5, 1.0)[0])
    assert worst == max(ipm._gondzio_target(sk, *ipm._scale(sk, dS[k], dZ[k]), 0.5, 0.5, 1.0)[1] for k, sk in enumerate(slices))
    # the step length of a stack is the shortest of its slices'
    for dXt in (dSt, dZt):
        want = min(ipm._max_step(sk.d, dXt[k]) for k, sk in enumerate(slices))
        assert abs(ipm._max_step(sc.d, dXt) - want) <= 1e-12 * want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stacked_numerics_reject_one_bad_slice():
    rng = np.random.default_rng(3)
    S, Z = _hermitian_stack(rng, 3, 3, False, psd=True), _hermitian_stack(rng, 3, 3, False, psd=True)
    ipm._nt_scaling(S, Z)
    indefinite = S.copy()
    indefinite[1] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NumericError):
        ipm._nt_scaling(indefinite, Z)
    for bad in (np.nan, np.inf):
        broken = Z.copy()
        broken[2, 0, 1] = broken[2, 1, 0] = bad
        with pytest.raises(NumericError):
            ipm._nt_scaling(S, broken)
        dXt = _hermitian_stack(rng, 3, 3, False)
        dXt[1, 2, 2] = bad
        with pytest.raises(NumericError):
            ipm._max_step(np.ones((3, 3)), dXt)


def _check_basis_order(n, i, j, u):
    # the Schur kernel's invariant: the diagonal, then the other real-part
    # coordinates (u real), then one imaginary coordinate (u imaginary) per
    # off-diagonal one, imaginary coordinate k on the entry of coordinate n + k
    ne = np.count_nonzero(u.real)
    assert np.array_equal(i[:n], np.arange(n)) and np.array_equal(j[:n], np.arange(n))
    assert np.all(i[n:] < j[n:])
    assert not np.any(u[:ne].imag) and np.all(u[:ne].real > 0)
    assert not np.any(u[ne:].real) and np.all(u[ne:].imag > 0)
    assert np.array_equal(i[ne:], i[n : n + u.size - ne]) and np.array_equal(j[ne:], j[n : n + u.size - ne])


@pytest.mark.parametrize("real_mode", [True, False])
def test_coordinate_basis_is_orthonormal(real_mode):
    for n in (1, 2, 3, 5):
        i, j, u = ipm._basis_pairs(n, real_mode)
        k = n * (n + 1) // 2 if real_mode else n * n
        E = np.array([ipm._unhvec(e, i, j, u, n) for e in np.eye(k)])
        assert np.allclose(E, E.conj().transpose(0, 2, 1), atol=0)
        if real_mode:
            assert not np.any(E.imag)
        assert np.max(np.abs(np.einsum("aij,bji->ab", E, E).real - np.eye(k))) <= 1e-15
        assert np.max(np.abs(np.array([ipm._hvec(Eb, i, j, u) for Eb in E]) - np.eye(k))) <= 1e-15
        _check_basis_order(n, i, j, u)
        assert np.count_nonzero(u.real) == n * (n + 1) // 2
    if not real_mode:
        # a pattern keeps or drops an entry's two coordinates together
        comp = ipm.compile_problem(measures._w_max_form(_phased_rho_alpha()))
        i, j, u = comp.bases["R"]
        assert not comp.real_mode and (u.size, np.count_nonzero(u.real)) == (15, 12)
        _check_basis_order(9, i, j, u)


def test_pattern_restricts_the_compiled_coordinates():
    # rho_alpha's phases leave 12 of 45 real coordinates of R and, with mu,
    # 13 coordinates under 6 pinning rows: a diagonal and a support-kernel
    # row in each of the three two-index classes that hold its support
    comp = ipm.compile_problem(_measure_program(measures.det_distill_one_copy, rho_alpha(0.3)))
    assert (comp.m, comp.A.shape[0]) == (13, 6)
    # a state without symmetry gets the full pattern, which compiles exactly
    # like no pattern at all
    problem = measures._w_max_form(random_state(3, 3, 2, 7017))
    assert problem.patterns["R"].all()
    full, bare = ipm.compile_problem(problem), ipm.compile_problem(replace(problem, patterns={}))
    assert full.m == bare.m == 81
    for name in full.bases:
        assert all(np.array_equal(a, b) for a, b in zip(full.bases[name], bare.bases[name]))


@pytest.mark.parametrize("measure", [measures.det_distill_one_copy, measures.w0], ids=["e0", "w0"])
@pytest.mark.parametrize(
    "rho, rows",
    [
        pytest.param(rho_alpha(0.3), 6, id="rho_alpha"),
        pytest.param(tensor_state(sigma_r(0.4), rho_alpha(0.3)), 45, id="tensor6"),
        pytest.param(kron_power_state(rho_alpha(0.5), 2), 36, id="two-copy"),
        pytest.param(random_state(3, 4, 2, 1007), 44, id="rs3x4"),
    ],
)
def test_pinning_rows_have_full_row_rank(measure, rho, rows):
    # pinned per symmetry class, no row depends on the others (one global
    # eigh gave 24, 201 and 693 rows of ranks 6, 45 and 36)
    A = ipm.compile_problem(_measure_program(measure, rho)).A
    assert A.shape[0] == np.linalg.matrix_rank(A) == rows


def test_iteration_cap_names_its_stop_rule():
    cfg = SolverConfig(max_iterations=2)
    sol = solve(measures._w_max_form(rho_alpha(0.3)), cfg)
    assert (sol.status, sol.stop) == ("numeric-failure", "max-iterations")
    # the error also gives the residuals of the iterate the solve returned
    (best,) = [row for row in sol.trace if row["iteration"] == sol.iterations]
    with pytest.raises(SolverError, match="stop rule max-iterations") as err:
        measures.e_w(rho_alpha(0.3), cfg)
    want = f"best iterate {sol.iterations}: relgap {best['relgap']:.3e}, pinf {best['pinf']:.3e}, dinf {best['dinf']:.3e}"
    assert want in str(err.value)


def test_kkt_factor_failure_names_its_stop_rule(monkeypatch):
    assert solve(diag_lp([2.0, 1.0], 1.0)).stop == "optimal"
    monkeypatch.setattr(ipm, "_factor_kkt", lambda Mr: None)
    sol = solve(measures._w_max_form(rho_alpha(0.3)))
    assert (sol.status, sol.stop) == ("numeric-failure", "kkt-factor")
    with pytest.raises(SolverError, match="stop rule kkt-factor"):
        measures.e_w(rho_alpha(0.3))
