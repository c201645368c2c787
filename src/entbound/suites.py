"""Named verification suites: seeded corpora of states checked against
closed forms, cross-solver identities, and monotonicity properties.

Each suite returns a flat list of CheckResult records so callers (the CLI's
verify command and the test suite) can render or assert on them uniformly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import measures, states
from .errors import EntboundError
from .linalg import ptranspose_arr, trace_norm_arr
from .sdp import SolverConfig

SUITE_NAMES = ("paper-values", "duality", "additivity", "monotonicity", "sandwich")

_DIMS_CYCLE = ((2, 2), (2, 3), (3, 3))


@dataclass(frozen=True)
class CheckResult:
    suite: str
    group: str
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""


def _check(suite, group, name, evaluate, bound, holds):
    """Run one check.  evaluate() returns (measured, detail); a package error
    raised inside it becomes a FAIL row naming the error, so one failed solve
    does not hide the remaining checks of the suite."""
    try:
        measured, detail = evaluate()
    except EntboundError as exc:
        return CheckResult(suite, group, name, False, math.nan, float(bound), f"{type(exc).__name__}: {exc}")
    return CheckResult(suite, group, name, bool(holds(measured, bound)), float(measured), float(bound), detail)


def _leq(suite, group, name, evaluate, bound):
    return _check(suite, group, name, evaluate, bound, operator.le)


def _gt(suite, group, name, evaluate, bound):
    return _check(suite, group, name, evaluate, bound, operator.gt)


def _schmidt_squares(psi: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Squared Schmidt coefficients of a pure state, via SVD of the
    coefficient matrix; the independent oracle for distillation exactness."""
    coeff = psi.reshape(d_a, d_b)
    s = np.linalg.svd(coeff, compute_uv=False)
    return s**2


def _dominant_vector(rho) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho.mat)
    return vecs[:, -1]


def suite_paper_values(config: SolverConfig | None = None) -> list[CheckResult]:
    """Exact values and curves with a closed form, plus the qualitative
    bound-separation sweep and the pure-state / support-only exactness
    properties of the deterministic distillation rate."""
    out = []
    s = "paper-values"

    rho_half = states.rho_alpha(0.5)

    def exact(value_log2, expect, label):
        def evaluate():
            v = value_log2()
            return abs(v - expect), f"{label} = {v:.8f}"
        return evaluate

    out.append(
        _leq(s, "paper-exact-values", "E_W(rho(0.5)) = log2(3/2)",
             exact(lambda: measures.e_w(rho_half, config=config).value_log2, math.log2(1.5), "E_W"),
             1e-5)
    )
    out.append(
        _leq(s, "paper-exact-values", "E_N(rho(0.5)) = log2(5/3)",
             exact(lambda: measures.log_negativity(rho_half).value_log2, math.log2(5.0 / 3.0), "E_N"),
             1e-6)
    )
    out.append(
        _leq(s, "paper-exact-values", "one-copy rate of rho(0.5) = log2(3/2)",
             exact(lambda: measures.det_distill_one_copy(rho_half, config=config).value_log2,
                   math.log2(1.5), "rate"),
             1e-5)
    )

    for i in range(1, 11):
        alpha = 0.05 * i
        rho = states.rho_alpha(alpha)
        root = math.sqrt(alpha * (1.0 - alpha))
        out.append(
            _leq(s, "en-curve", f"E_N(rho({alpha:.2f})) closed form",
                 exact(lambda: measures.log_negativity(rho).value_log2,
                       math.log2(1.0 + (4.0 / 3.0) * root), "E_N"),
                 1e-6)
        )

        def ew_curve():
            v = measures.e_w(rho, config=config).value_log2
            return v - math.log2(1.0 + root), f"E_W = {v:.8f}"

        out.append(
            _leq(s, "ew-curve-bound", f"E_W(rho({alpha:.2f})) <= log2(1+sqrt(a(1-a)))",
                 ew_curve, 1e-6)
        )

    def fidelity_named():
        f = 2.0 ** measures.fidelity_ppt(rho_half, 1.5, config=config).value_log2
        return abs(f - 1.0), f"F = {f:.10f}"

    out.append(_leq(s, "fidelity-named", "F(rho(0.5), k=1.5) = 1", fidelity_named, 1e-6))
    for i in range(10):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        rho = states.random_state(d_a, d_b, rank=d_a * d_b, seed=3000 + i)

        def fidelity_k1():
            f = 2.0 ** measures.fidelity_ppt(rho, 1.0, config=config).value_log2
            return abs(f - 1.0), f"dims {d_a}x{d_b}"

        out.append(_leq(s, "fidelity-k1", f"F(random#{i}, k=1) = 1", fidelity_k1, 1e-8))
    for i in range(5):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        rho = states.random_state(d_a, d_b, rank=d_a * d_b, seed=3100 + i)

        def fidelity_monotone():
            fvals = [2.0 ** measures.fidelity_ppt(rho, k, config=config).value_log2
                     for k in (1.0, 1.25, 1.5, 2.0)]
            worst = max(fvals[j + 1] - fvals[j] for j in range(3))
            return worst, "F(k): " + ", ".join(f"{v:.6f}" for v in fvals)

        out.append(
            _leq(s, "fidelity-monotone", f"F(random#{i}, k) non-increasing",
                 fidelity_monotone, 1e-7)
        )

    sig = states.antisym_state()
    out.append(
        _leq(s, "antisym", "E_W(antisym 3x3) = log2(5/3)",
             exact(lambda: measures.e_w(sig, config=config).value_log2, math.log2(5.0 / 3.0), "E_W"),
             1e-5)
    )
    out.append(
        _leq(s, "antisym", "E_N(antisym 3x3) = log2(5/3)",
             exact(lambda: measures.log_negativity(sig).value_log2, math.log2(5.0 / 3.0), "E_N"),
             1e-5)
    )

    for i in range(19):
        r = 0.05 * (i + 1)
        sr = states.sigma_r(r)

        def separation():
            gap = measures.log_negativity(sr).value_log2 - measures.e_w(sr, config=config).value_log2
            return gap, f"gap = {gap:.6f}"

        out.append(_gt(s, "fig1-separation", f"E_N - E_W gap at r={r:.2f}", separation, 1e-4))

    pure_cases = [("Phi(2)", states.max_entangled(2)), ("Phi(3)", states.max_entangled(3))]
    for i in range(10):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        pure_cases.append((f"pure#{i}", states.random_pure_state(d_a, d_b, seed=3200 + i)))
    for name, psi_state in pure_cases:
        vec = _dominant_vector(psi_state)
        sq = _schmidt_squares(vec, psi_state.dims.d_a, psi_state.dims.d_b)
        expect = -math.log2(float(np.max(sq)))

        def pure_exact():
            got = measures.det_distill_one_copy(psi_state, config=config).value_log2
            return abs(got - expect), f"rate = {got:.8f}, oracle = {expect:.8f}"

        out.append(
            _leq(s, "pure-exact", f"one-copy rate of {name} matches Schmidt oracle",
                 pure_exact, 1e-6)
        )

    for i in range(5):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        rho = states.random_state(d_a, d_b, rank=min(3, d_a * d_b - 1), seed=3300 + i)
        vals, vecs = np.linalg.eigh(rho.mat)
        keep = vals > 1e-9
        vecs = vecs[:, keep]
        rng = np.random.default_rng(3300 + i + 7)
        w = rng.dirichlet(np.ones(int(np.sum(keep))))
        remat = (vecs * w) @ vecs.conj().T
        reweighted = states.make_state(remat, d_a, d_b)

        def support_only():
            base = measures.det_distill_one_copy(rho, config=config).value_log2
            moved = measures.det_distill_one_copy(reweighted, config=config).value_log2
            return abs(base - moved), f"{base:.9f} vs {moved:.9f}"

        out.append(
            _leq(s, "support-only", f"rate of reweighted random#{i} unchanged",
                 support_only, 1e-6)
        )
    return out


def suite_duality(config: SolverConfig | None = None) -> list[CheckResult]:
    """e_w's max-form value and the separately solved min-form program
    w_dual agree on a seeded corpus (strong duality)."""
    out = []
    for i in range(50):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        rank = (i % (d_a * d_b)) + 1
        rho = states.random_state(d_a, d_b, rank=rank, seed=1000 + i)

        def duality():
            wp = measures.e_w(rho, config=config)
            wd = measures.w_dual(rho, config=config)
            gap = abs(2.0**wp.value_log2 - 2.0**wd.value_log2)
            return gap, f"dims {d_a}x{d_b} rank {rank}, W = {2.0**wp.value_log2:.9f}"

        out.append(_leq("duality", "duality", f"primal = dual on state#{i}", duality, 1e-7))
    return out


def suite_additivity(config: SolverConfig | None = None) -> list[CheckResult]:
    """E_W is additive across tensor products on seeded 2x2 pairs."""
    out = []
    for i in range(20):
        a = states.random_state(2, 2, rank=(i % 4) + 1, seed=2000 + 2 * i)
        b = states.random_state(2, 2, rank=((i + 2) % 4) + 1, seed=2001 + 2 * i)

        def additivity():
            ea = measures.e_w(a, config=config).value_log2
            eb = measures.e_w(b, config=config).value_log2
            eab = measures.e_w(states.tensor_state(a, b), config=config).value_log2
            return abs(eab - ea - eb), f"{eab:.8f} vs {ea:.8f} + {eb:.8f}"

        out.append(
            _leq("additivity", "additivity", f"E_W(a x b) = E_W(a) + E_W(b), pair#{i}",
                 additivity, 1e-5)
        )
    phi = states.max_entangled(2)

    def phi_pair():
        e2 = measures.e_w(states.tensor_state(phi, phi), config=config).value_log2
        return abs(e2 - 2.0), f"E_W = {e2:.8f}"

    out.append(_leq("additivity", "additivity", "E_W(Phi(2) x Phi(2)) = 2", phi_pair, 1e-5))
    return out


def suite_monotonicity(config: SolverConfig | None = None) -> list[CheckResult]:
    """E_W does not increase on average under seeded local channels."""
    out = []
    for i in range(30):
        rho = states.random_state(2, 2, rank=(i % 4) + 1, seed=4000 + i)
        ch = states.random_local_channel(2, 2, n_a=2, n_b=2, seed=4500 + i)

        def monotonicity():
            base = measures.e_w(rho, config=config).value_log2
            ensemble = states.apply_local_channel(rho, ch)
            avg = sum(
                p * measures.e_w(post, config=config).value_log2
                for p, post in ensemble.members
            )
            return avg - base, f"avg = {avg:.8f}, before = {base:.8f}"

        out.append(
            _leq("monotonicity", "monotonicity", f"average E_W after channel#{i}",
                 monotonicity, 1e-5)
        )
    return out


def suite_sandwich(config: SolverConfig | None = None) -> list[CheckResult]:
    """Witness bound <= W <= trace norm of the partial transpose on a seeded
    corpus; E_W vanishes on separable states; the witness bound detects every
    clearly NPT state."""
    out = []
    s = "sandwich"
    for i in range(50):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        rank = (i % (d_a * d_b)) + 1
        rho = states.random_state(d_a, d_b, rank=rank, seed=5000 + i)
        nw, _ = measures.npt_witness_bound(rho)
        pt = ptranspose_arr(rho.mat, d_a, d_b)
        tn = trace_norm_arr(pt)

        def chain():
            w = 2.0 ** measures.e_w(rho, config=config).value_log2
            violation = max(1.0 - nw, nw - w, w - tn)
            return violation, f"witness = {nw:.8f}, W = {w:.8f}, trace norm = {tn:.8f}"

        out.append(
            _leq(s, "sandwich-chain", f"1 <= witness <= W <= |rho^PT|_1 on state#{i}", chain, 1e-7)
        )
        pt_min = float(np.linalg.eigvalsh(pt)[0])
        if pt_min < -1e-6:
            out.append(
                _gt(s, "nppt-witness", f"witness bound exceeds 1 on NPT state#{i}",
                    lambda: (nw, f"witness = {nw:.12f}, min PT eigenvalue = {pt_min:.3e}"),
                    1.0 + 1e-9)
            )
    for i in range(10):
        d_a, d_b = _DIMS_CYCLE[i % 3]
        sep = states.random_separable(d_a, d_b, terms=4, seed=5100 + i)

        def separable_zero():
            ew = measures.e_w(sep, config=config).value_log2
            return ew, f"E_W = {ew:.2e}"

        out.append(_leq(s, "separable-zero", f"E_W(separable#{i}) = 0", separable_zero, 1e-6))
    return out


_SUITES = {
    "paper-values": suite_paper_values,
    "duality": suite_duality,
    "additivity": suite_additivity,
    "monotonicity": suite_monotonicity,
    "sandwich": suite_sandwich,
}


def run_suite(name: str, config: SolverConfig | None = None) -> list[CheckResult]:
    """Run one named suite, or every suite for name = 'all'."""
    if name == "all":
        results = []
        for suite_name in SUITE_NAMES:
            results.extend(_SUITES[suite_name](config))
        return results
    if name not in _SUITES:
        raise KeyError(name)
    return _SUITES[name](config)
