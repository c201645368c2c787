"""Values and cross-checks for the entanglement measures."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbound import ipm, measures
from entbound.errors import CapacityError, ConsistencyError, DomainError, SolverError
from entbound.linalg import make_state, op_norm_arr, ptranspose_arr, trace_norm_arr
from entbound.measures import (
    det_distill_one_copy,
    e_w,
    evaluate_many,
    fidelity_ppt,
    log_negativity,
    multi_copy,
    npt_witness_bound,
    w0,
    w_dual,
)
from entbound.sdp import SolverConfig
from entbound.states import (
    antisym_state,
    max_entangled,
    random_pure_state,
    random_separable,
    random_state,
    rho_alpha,
    sigma_r,
    tensor_state,
)


def product_pure(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
    v = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    vec = np.kron(u, v)
    return make_state(np.outer(vec, vec.conj()), d_a, d_b)


def pt_min_eig(rho):
    pt = ptranspose_arr(rho.mat, rho.dims.d_a, rho.dims.d_b)
    return float(np.linalg.eigvalsh(pt)[0])


def test_log_negativity_max_entangled():
    for d in (2, 3, 4):
        res = log_negativity(max_entangled(d))
        assert abs(res.value_log2 - np.log2(d)) <= 1e-12
        assert res.iterations == 0
        assert res.gap == 0.0


def test_log_negativity_ppt_is_zero():
    for i in range(5):
        rho = random_separable(2, 2, terms=4, seed=600 + i)
        assert 0.0 <= log_negativity(rho).value_log2 <= 1e-12


def test_log_negativity_rho_alpha_closed_form():
    for alpha in (0.05, 0.2, 0.35, 0.5):
        res = log_negativity(rho_alpha(alpha))
        want = np.log2(1 + (4 / 3) * np.sqrt(alpha * (1 - alpha)))
        assert abs(res.value_log2 - want) <= 1e-10


# The W max form ("w_primal") is solved by e_w, whose value is its primal value.


def test_w_primal_bell():
    res = e_w(max_entangled(2))
    assert abs(2 ** res.value_log2 - 2.0) <= 1e-7


def test_w_primal_ppt_state_is_one():
    for i in range(4):
        rho = random_separable(2, 3, terms=4, seed=620 + i)
        assert abs(2 ** e_w(rho).value_log2 - 1.0) <= 1e-7


def test_w_primal_range_and_witness_feasibility():
    for i in range(6):
        rho = random_state(2, 3, rank=(i % 6) + 1, seed=640 + i)
        res = e_w(rho)
        value = 2 ** res.value_log2
        pt = ptranspose_arr(rho.mat, 2, 3)
        assert value >= 1.0 - 1e-9
        assert value <= trace_norm_arr(pt) + 1e-7
        r = res.witness.mat
        assert op_norm_arr(r) <= 1.0 + 1e-7
        assert np.linalg.eigvalsh(ptranspose_arr(r, 2, 3))[0] >= -1e-7
        assert abs(np.real(np.trace(pt @ r)) - res.primal_value) <= 1e-6


def test_w_dual_matches_primal():
    for i, (d_a, d_b) in enumerate(((2, 2), (2, 3), (3, 3))):
        rho = random_state(d_a, d_b, rank=2, seed=660 + i)
        ew = e_w(rho)
        vp = 2 ** ew.value_log2
        wd = w_dual(rho)
        vd = 2 ** wd.value_log2
        assert abs(vp - vd) <= 1e-7
        # e_w's min-form side, read off the max-form dual blocks
        assert abs(ew.dual_value - wd.dual_value) <= 1e-7


def test_w_dual_rho_alpha_feasible_point_bound():
    # X = rho + sqrt(a(1-a))/3 (|00><00|+|11><11|+|22><22|) is feasible, so
    # the optimum never exceeds 1 + sqrt(a(1-a)); equality is only pinned
    # down at alpha = 1/2
    for alpha in (0.1, 0.3, 0.5):
        value = 2 ** w_dual(rho_alpha(alpha)).value_log2
        assert value <= 1 + np.sqrt(alpha * (1 - alpha)) + 1e-6
    assert abs(2 ** w_dual(rho_alpha(0.5)).value_log2 - 1.5) <= 1e-5


def test_e_w_rho_half():
    res = e_w(rho_alpha(0.5))
    assert abs(res.value_log2 - np.log2(1.5)) <= 1e-5
    assert res.gap <= 1e-6
    assert res.witness is not None


def test_e_w_product_pure_is_zero():
    for i in range(3):
        res = e_w(product_pure(2, 2, seed=680 + i))
        assert abs(res.value_log2) <= 1e-6


def test_e_w_never_exceeds_log_negativity():
    for r in (0.3, 0.7):
        rho = sigma_r(r)
        ew = e_w(rho).value_log2
        en = log_negativity(rho).value_log2
        assert ew <= en + 1e-9


def test_e_w_positive_iff_nppt():
    for i in range(4):
        sep = random_separable(2, 2, terms=4, seed=700 + i)
        assert pt_min_eig(sep) >= -1e-8
        assert e_w(sep).value_log2 <= 1e-6
    for rho in (sigma_r(0.5), max_entangled(2), random_state(3, 3, rank=2, seed=710)):
        assert pt_min_eig(rho) < -1e-8
        assert e_w(rho).value_log2 > 1e-6


def test_chain_at_rho_half_has_strict_gap():
    rho = rho_alpha(0.5)
    det = det_distill_one_copy(rho).value_log2
    ew = e_w(rho).value_log2
    en = log_negativity(rho).value_log2
    assert abs(det - np.log2(1.5)) <= 1e-5
    assert abs(ew - np.log2(1.5)) <= 1e-5
    assert abs(en - np.log2(5 / 3)) <= 1e-6
    assert en - ew > 1e-3


def test_fidelity_at_k_one_is_one():
    for rho in (rho_alpha(0.3), random_state(2, 3, rank=3, seed=720), max_entangled(3)):
        res = fidelity_ppt(rho, 1.0)
        assert abs(2 ** res.value_log2 - 1.0) <= 1e-8


def test_fidelity_rho_half_at_three_halves():
    res = fidelity_ppt(rho_alpha(0.5), 1.5)
    assert abs(2 ** res.value_log2 - 1.0) <= 1e-6


def test_fidelity_bell_at_k_two():
    res = fidelity_ppt(max_entangled(2), 2.0)
    assert abs(2 ** res.value_log2 - 1.0) <= 1e-6


def test_fidelity_monotone_in_k():
    rho = random_state(3, 3, rank=4, seed=730)
    values = [2 ** fidelity_ppt(rho, k).value_log2 for k in (1.0, 1.3, 1.8, 2.5)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-7


def test_fidelity_ppt_state_capped_by_inverse_k():
    # tr(sigma Q) = tr(sigma^PT Q^PT) <= |Q^PT|_inf |sigma^PT|_1 = 1/k
    for k in (2.0, 3.0):
        for i in range(3):
            sig = random_separable(2, 2, terms=4, seed=740 + i)
            assert 2 ** fidelity_ppt(sig, k).value_log2 <= 1 / k + 1e-6


def test_fidelity_rejects_k_below_one():
    rho = max_entangled(2)
    with pytest.raises(DomainError):
        fidelity_ppt(rho, 0.5)
    with pytest.raises(DomainError):
        fidelity_ppt(rho, 0.999)
    with pytest.raises(DomainError):
        fidelity_ppt(rho, float("nan"))
    with pytest.raises(DomainError):
        fidelity_ppt(rho, float("inf"))
    with pytest.raises(DomainError):
        fidelity_ppt(rho, "2")
    with pytest.raises(DomainError):
        fidelity_ppt(rho, True)


def test_fidelity_stays_in_unit_interval():
    for i in range(4):
        rho = random_state(2, 2, rank=(i % 4) + 1, seed=760 + i)
        value = 2 ** fidelity_ppt(rho, 1.7).value_log2
        assert -1e-9 <= value <= 1.0 + 1e-9


def test_npt_witness_bound_bell():
    value, r = npt_witness_bound(max_entangled(2))
    assert abs(value - 2.0) <= 1e-12
    assert op_norm_arr(r.mat) <= 1.0 + 1e-12
    assert np.linalg.eigvalsh(ptranspose_arr(r.mat, 2, 2))[0] >= -1e-12


def test_npt_witness_bound_ppt_is_one():
    for i in range(3):
        sig = random_separable(3, 3, terms=5, seed=780 + i)
        value, r = npt_witness_bound(sig)
        assert abs(value - 1.0) <= 1e-10
        assert np.allclose(r.mat, np.eye(9))


def test_npt_witness_bound_lower_bounds_solver():
    found = 0
    for i in range(6):
        rho = random_state(3, 3, rank=2, seed=800 + i)
        if np.linalg.eigvalsh(ptranspose_arr(rho.mat, 3, 3))[0] >= -1e-8:
            continue
        found += 1
        value, _ = npt_witness_bound(rho)
        assert value > 1.0
        assert value <= 2 ** e_w(rho).value_log2 + 1e-7
    assert found >= 3


def test_det_max_entangled():
    for d in (2, 3):
        res = det_distill_one_copy(max_entangled(d))
        assert abs(res.value_log2 - np.log2(d)) <= 1e-6


def test_det_product_pure_is_zero():
    res = det_distill_one_copy(product_pure(2, 3, seed=820))
    assert abs(res.value_log2) <= 1e-6


def test_det_full_rank_short_circuits():
    # e0 and w0 of a full-rank state force R = I and need no solve
    rho = random_state(2, 2, rank=4, seed=830)
    for measure in (det_distill_one_copy, w0):
        res = measure(rho)
        assert res.value_log2 == 0.0
        assert res.iterations == 0


def test_det_at_least_support_projector_bound():
    for i in range(4):
        rho = random_state(2, 3, rank=2, seed=840 + i)
        res = det_distill_one_copy(rho)
        supp = rho.mat @ np.linalg.pinv(rho.mat)  # projector onto the range
        lower = -np.log2(op_norm_arr(ptranspose_arr(supp, 2, 3)))
        assert res.value_log2 >= lower - 1e-6
        assert res.value_log2 >= -1e-9


def test_w0_matches_det_on_log_scale():
    cases = [max_entangled(2), rho_alpha(0.5)]
    cases += [random_state(2, 2, rank=2, seed=860 + i) for i in range(3)]
    cases += [random_state(2, 3, rank=3, seed=870 + i) for i in range(2)]
    # equality-pinned programs whose endgame stalled under a bordered
    # saddle-point KKT solve
    cases += [
        random_state(d_a, d_b, rank=rank, seed=seed)
        for d_a, d_b, rank, seed in (
            (3, 3, 3, 3302),
            (3, 3, 2, 7017),
            (3, 4, 2, 7034),
            (3, 3, 2, 7057),
            (3, 3, 2, 7052),
        )
    ]
    for rho in cases:
        a = w0(rho).value_log2
        b = det_distill_one_copy(rho).value_log2
        assert abs(a - b) <= 1e-6


def test_w0_values():
    assert abs(2 ** w0(max_entangled(2)).value_log2 - 2.0) <= 1e-5
    assert abs(2 ** w0(rho_alpha(0.5)).value_log2 - 1.5) <= 1e-4
    assert abs(2 ** w0(product_pure(2, 2, seed=880)).value_log2 - 1.0) <= 1e-6


def test_multi_copy_e_w_additive():
    res = multi_copy(e_w, max_entangled(2), 2)
    assert abs(res.value_log2 - 2.0) <= 1e-5
    single = e_w(sigma_r(0.5)).value_log2
    pair = e_w(tensor_state(sigma_r(0.5), rho_alpha(0.5))).value_log2
    assert abs(pair - single - np.log2(1.5)) <= 1e-5


def test_multi_copy_of_one_copy_solves_once(monkeypatch):
    # one copy is the state itself, so there is no additivity to check
    solves = []

    def counted(problem, config=None):
        solves.append(problem)
        return solve(problem, config)

    solve = measures.solve
    monkeypatch.setattr(measures, "solve", counted)
    res = multi_copy(e_w, rho_alpha(0.3), 1)
    assert len(solves) == 1
    assert abs(res.value_log2 - e_w(rho_alpha(0.3)).value_log2) <= 1e-12


def test_multi_copy_reports_broken_e_w_additivity(monkeypatch):
    # a composite that is not the two-fold power of the state breaks
    # additivity: Phi(2) x sigma_r(0.5) stands in for Phi(2)^2
    monkeypatch.setattr(measures, "kron_power_state", lambda rho, n: tensor_state(rho, sigma_r(0.5)))
    with pytest.raises(ConsistencyError, match="E_W additivity violated on 2 copies"):
        multi_copy(e_w, max_entangled(2), 2)


def test_multi_copy_rejects_out_of_range_n():
    rho = max_entangled(2)
    with pytest.raises(DomainError):
        multi_copy(e_w, rho, 0)
    with pytest.raises(DomainError):
        multi_copy(e_w, rho, 4)
    with pytest.raises(DomainError):
        multi_copy(e_w, rho, 1.5)
    with pytest.raises(DomainError):
        multi_copy(e_w, rho, True)


def test_multi_copy_capacity_limits():
    with pytest.raises(CapacityError):
        # the 729-dim composite is refused before it is built, even for a
        # closed-form measure
        multi_copy(log_negativity, rho_alpha(0.3), 3)
    with pytest.raises(CapacityError):
        # the 81-dim composite fits one variable, but the min form's two
        # variables of that dimension do not
        multi_copy(w_dual, rho_alpha(0.3), 2)


_SDP_MEASURES = {
    "e_w": e_w,
    "w_dual": w_dual,
    "fgamma": lambda rho: fidelity_ppt(rho, 2.0),
    "e0": det_distill_one_copy,
    "w0": w0,
}


@pytest.mark.parametrize("measure", _SDP_MEASURES.values(), ids=_SDP_MEASURES.keys())
def test_sdp_measures_refuse_an_oversized_state_first(measure, monkeypatch):
    # the capacity rule comes before the state's symmetry classes, whose
    # cost grows as n^2 (d_A + d_B), and so before any pinning row or solve
    def reached(*args, **kwargs):
        raise AssertionError("work on the state began before the capacity rule")

    for name in ("symmetry_classes", "symmetry_pattern", "_support_pinning"):
        monkeypatch.setattr(measures, name, reached)
    monkeypatch.setattr(ipm, "run", reached)
    with pytest.raises(CapacityError):
        measure(random_state(10, 11, rank=1, seed=950))  # 110-dim


def test_e_w_solves_once(monkeypatch):
    calls = []
    real = measures.solve

    def counted(problem, config=None):
        calls.append(problem.sense)
        return real(problem, config)

    monkeypatch.setattr(measures, "solve", counted)
    e_w(rho_alpha(0.3))
    assert calls == ["max"]


def test_e_w_rejects_a_halved_dual_certificate(monkeypatch):
    real = measures.solve

    def halved(problem, config=None):
        sol = real(problem, config)
        return replace(sol, dual_blocks=tuple(0.5 * z for z in sol.dual_blocks))

    monkeypatch.setattr(measures, "solve", halved)
    with pytest.raises(ConsistencyError):
        e_w(rho_alpha(0.5))


def test_e_w_certificate_rejects_the_pattern_of_rho(monkeypatch):
    # R pairs with rho^PT; restricting it to the pattern of rho instead drops
    # entries the optimum needs, and the full-program numpy check sees that
    pattern = measures.symmetry_pattern

    def pattern_of_rho(rho_pt, d_a, d_b):
        return pattern(ptranspose_arr(rho_pt, d_a, d_b), d_a, d_b)

    monkeypatch.setattr(measures, "symmetry_pattern", pattern_of_rho)
    rho = rho_alpha(0.5)
    problem = measures._w_max_form(rho)
    assert np.array_equal(problem.patterns["R"], pattern(rho.mat, 3, 3))
    with pytest.raises(ConsistencyError, match="W certificate sides disagree"):
        e_w(rho)


def test_local_phases_leave_the_bounds_unchanged():
    # conjugating by a diagonal local unitary leaves every measure fixed but
    # makes the data complex, and the programs then run on patterns that keep
    # an imaginary coordinate beside some off-diagonal entries only
    u = np.exp(1j * np.add.outer([0.0, 0.7, 1.9], [0.3, -1.1, 2.5]).ravel())
    rho = rho_alpha(0.3)
    phased = make_state(u[:, None] * rho.mat * u.conj(), 3, 3)
    assert np.any(phased.mat.imag)
    for f in (e_w, det_distill_one_copy, w0, lambda r: fidelity_ppt(r, 2)):
        assert abs(f(phased).value_log2 - f(rho).value_log2) <= 1e-9


def test_e_w_sides_agree_to_a_loose_gap_tolerance():
    # the solve stops at a 1e-5 relative gap, so the two certificate sides
    # differ by more than PRIMAL_DUAL_AGREE_TOL but within 10x the gap
    res = e_w(rho_alpha(0.3), SolverConfig(gap_tol=1e-5))
    assert res.primal_value <= res.dual_value <= res.primal_value + 1e-4


def test_multi_copy_det_superadditive_on_rho_half():
    res = multi_copy(det_distill_one_copy, rho_alpha(0.5), 2)
    assert res.value_log2 >= 2 * np.log2(1.5) - 1e-5


def test_witness_tight_when_bound_matches_log_negativity():
    # R^PT psd and tr(rho^PT R) = |rho^PT|_1 whenever the two bounds agree
    for rho in (max_entangled(2), max_entangled(3), antisym_state()):
        ew = e_w(rho)
        en = log_negativity(rho)
        assert abs(ew.value_log2 - en.value_log2) <= 1e-6
        r = ew.witness.mat
        pt = ptranspose_arr(rho.mat, rho.dims.d_a, rho.dims.d_b)
        assert np.linalg.eigvalsh(ptranspose_arr(r, rho.dims.d_a, rho.dims.d_b))[0] >= -1e-7
        assert abs(np.real(np.trace(pt @ r)) - trace_norm_arr(pt)) <= 1e-6


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_sandwich_on_random_low_rank_states(seed):
    rho = random_state(2, 2, rank=2, seed=seed)
    ew = e_w(rho).value_log2
    en = log_negativity(rho).value_log2
    nw = np.log2(max(1.0, npt_witness_bound(rho)[0]))
    assert -1e-9 <= nw <= ew + 1e-7
    assert ew <= en + 1e-7


def _same_result(a, b) -> bool:
    """Two MeasureResults equal bit for bit, witnesses included."""
    if a.witness is None or b.witness is None:
        return a == b
    return replace(a, witness=None) == replace(b, witness=None) and np.array_equal(a.witness.mat, b.witness.mat)


# a full-rank state takes e0's and w0's shortcut, without a solve
_EVALUATE_STATES = [rho_alpha(a) for a in (0.1, 0.3, 0.5)] + [
    sigma_r(0.6),
    random_state(2, 3, 2, 31),
    random_state(2, 3, 2, 32),
    random_state(2, 2, 4, 33),
]


@pytest.mark.parametrize(
    "measure, kw",
    [(e_w, {}), (det_distill_one_copy, {}), (w0, {}), (fidelity_ppt, {"k": 1.5}), (log_negativity, {})],
    ids=["e_w", "e0", "w0", "fgamma", "en"],
)
def test_evaluate_many_returns_each_calls_result(measure, kw):
    got = evaluate_many(measure, _EVALUATE_STATES, **kw)
    want = [measure(rho, **kw) for rho in _EVALUATE_STATES]
    assert all(_same_result(a, b) for a, b in zip(got, want))
    cfg = SolverConfig(gap_tol=1e-10)
    got = evaluate_many(measure, _EVALUATE_STATES, cfg, **kw)
    assert all(_same_result(a, measure(rho, config=cfg, **kw)) for a, rho in zip(got, _EVALUATE_STATES))


def test_evaluate_many_returns_each_states_error(monkeypatch):
    big = random_state(10, 11, rank=1, seed=950)
    got = evaluate_many(e_w, [rho_alpha(0.3), big, sigma_r(0.5)])
    assert isinstance(got[1], CapacityError)
    assert _same_result(got[0], e_w(rho_alpha(0.3))) and _same_result(got[2], e_w(sigma_r(0.5)))
    assert all(isinstance(r, DomainError) for r in evaluate_many(fidelity_ppt, [rho_alpha(0.3)] * 2, k=0.5))
    # a solve that does not end optimal, or a result that fails its check,
    # is its state's error
    assert all(isinstance(r, SolverError) for r in evaluate_many(e_w, [rho_alpha(0.3)], SolverConfig(max_iterations=2)))
    monkeypatch.setattr(measures, "_neg_part", lambda mat: 1.0)
    assert all(isinstance(r, ConsistencyError) for r in evaluate_many(e_w, [rho_alpha(0.3), sigma_r(0.5)]))
