"""Zero-failure gate on a seeded stress corpus of random states."""

from entbound.errors import EntboundError
from entbound.measures import det_distill_one_copy, e_w, fidelity_ppt, log_negativity, w0
from entbound.sdp import SolverConfig
from entbound.states import random_state

DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))
TOL = 1e-6


def stress_corpus():
    """30 states: dims cycle 2x2, 2x3, 3x3, 2x4, 3x4, rank 1 + i mod (n - 1),
    seeds 7000-7029, so every state is rank-deficient and e0/w0 pin its kernel."""
    for i in range(30):
        d_a, d_b = DIMS[i % len(DIMS)]
        rank = 1 + i % (d_a * d_b - 1)
        yield f"#{i} {d_a}x{d_b} rank {rank}", random_state(d_a, d_b, rank, 7000 + i)


def stress_problems(config):
    problems = []
    for name, rho in stress_corpus():
        try:
            ew_res = e_w(rho, config)
            e0 = det_distill_one_copy(rho, config).value_log2
            w0_ = w0(rho, config).value_log2
            fidelity_ppt(rho, 2.0, config)
        except EntboundError as exc:
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        en = log_negativity(rho).value_log2
        ew = ew_res.value_log2
        if ew_res.gap > TOL or ew_res.dual_value < ew_res.primal_value - 1e-9:
            problems.append(
                f"{name}: e_w certificate primal {ew_res.primal_value!r}, "
                f"dual {ew_res.dual_value!r}, gap {ew_res.gap:.3e}"
            )
        if abs(e0 - w0_) > TOL:
            problems.append(f"{name}: |e0 - w0| = {abs(e0 - w0_):.3e}")
        if e0 > ew + TOL or ew > en + TOL:
            problems.append(f"{name}: e0 {e0!r}, e_w {ew!r}, en {en!r} out of order")
    return problems


def test_stress_corpus_solves_every_measure():
    problems = stress_problems(None)
    assert not problems, "\n".join(problems)


def test_stress_corpus_solves_every_measure_at_tight_gap():
    # the safeguards that pay at tight tolerances (the mu_needed floor,
    # iterative refinement, the jittered KKT factor retry) must keep this at zero
    problems = stress_problems(SolverConfig(gap_tol=1e-10))
    assert not problems, "\n".join(problems)
