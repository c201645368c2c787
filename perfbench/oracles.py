"""Reference computations and output checks, made apart from entbound.

Nothing here calls into the package: the partial transpose, trace norm,
support projector and Schmidt coefficients are computed from the raw
density matrix with numpy alone, and every check compares a program output
with one of those, with a closed form from the paper, or with a property
the SDP method must have (witness feasibility, attainment of the reported
value, the ordering e0 <= e_w <= en).  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# SDP-backed values: the solver stops at a relative gap of 1e-8 and primal
# residuals of 1e-9, so a correct output sits far inside 1e-6, while a value
# shifted by 1e-5 in log2 (a relative change of 6.9e-6) falls outside it.
SDP_TOL = 1e-6
# closed forms (trace norms, the rho_alpha log-negativity) are exact to rounding
CLOSED_TOL = 1e-9


def ptranspose(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Partial transpose over B: entry (i k, j l) moves to (i l, j k)."""
    n = d_a * d_b
    out = np.empty((n, n), dtype=np.result_type(mat, np.complex128))
    for i in range(d_a):
        for j in range(d_a):
            out[i * d_b:(i + 1) * d_b, j * d_b:(j + 1) * d_b] = mat[
                i * d_b:(i + 1) * d_b, j * d_b:(j + 1) * d_b
            ].T
    return out


def eigs(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.abs(eigs(mat))))


def op_norm(mat: np.ndarray) -> float:
    return float(np.max(np.abs(eigs(mat))))


def log_negativity(rho: np.ndarray, d_a: int, d_b: int) -> float:
    return math.log2(trace_norm(ptranspose(rho, d_a, d_b)))


def support_projector(rho: np.ndarray) -> tuple[np.ndarray, int]:
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    keep = vals > 1e-10 * float(vals[-1])
    sup = vecs[:, keep]
    return sup @ sup.conj().T, int(np.sum(keep))


def pure_one_copy_rate(rho: np.ndarray, d_a: int, d_b: int) -> float:
    """-log2 of the largest squared Schmidt coefficient of a rank-1 state."""
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    psi = vecs[:, -1]
    s = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False)
    return -math.log2(float(s[0]) ** 2)


def npt_witness_value(rho: np.ndarray, d_a: int, d_b: int) -> float:
    """tr(rho^PT R) for the closed-form witness R = I - P/max(||P^PT||, 1/2),
    P the projector onto the eigenvectors of rho^PT with eigenvalue below
    -1e-9 max|eig|: 1 + (sum of |negative eigenvalues|) / max(||P^PT||, 1/2)."""
    vals, vecs = np.linalg.eigh(ptranspose(rho, d_a, d_b))
    neg = vals < -1e-9 * float(np.max(np.abs(vals)))
    p_neg = vecs[:, neg] @ vecs[:, neg].conj().T
    lam = op_norm(ptranspose(p_neg, d_a, d_b)) if neg.any() else 0.0
    return 1.0 - float(np.sum(vals[neg])) / max(lam, 0.5)


def check_equal(got: float, want: float, what: str, tol: float = SDP_TOL) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{what}: got {got!r}, expected {want!r} (tol {tol:.1e})"]
    return []


def check_at_most(lo: float, hi: float, what: str, tol: float = SDP_TOL) -> list[str]:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi + tol):
        return [f"{what}: {lo!r} > {hi!r} (tol {tol:.1e})"]
    return []


def check_en(value: float, rho, d_a, d_b) -> list[str]:
    return check_equal(value, log_negativity(rho, d_a, d_b), "en vs log2 of the trace norm of rho^PT", CLOSED_TOL)


def check_ew_witness(value: float, R: np.ndarray, rho, d_a, d_b) -> list[str]:
    """R is feasible for max Re tr(rho^PT R), -I <= R <= I, R^PT >= 0, and
    attains 2^value."""
    w = 2.0 ** value
    ev = eigs(R)
    out = []
    if ev[0] < -1 - SDP_TOL or ev[-1] > 1 + SDP_TOL:
        out.append(f"e_w witness spectrum [{ev[0]:.9g}, {ev[-1]:.9g}] leaves [-1, 1]")
    pt_min = float(eigs(ptranspose(R, d_a, d_b))[0])
    if pt_min < -SDP_TOL:
        out.append(f"e_w witness has R^PT min eigenvalue {pt_min:.3e} < 0")
    reached = float(np.real(np.trace(ptranspose(rho, d_a, d_b) @ R)))
    return out + check_equal(reached, w, "tr(rho^PT R) vs 2^e_w", SDP_TOL * w)


def check_e0_witness(value: float, R: np.ndarray, rho, d_a, d_b) -> list[str]:
    """P <= R <= I on the support projector P, and ||R^PT|| = 2^-value."""
    mu = 2.0 ** -value
    proj, _ = support_projector(rho)
    out = []
    lo = float(eigs(R - proj)[0])
    hi = float(eigs(R)[-1])
    if lo < -SDP_TOL:
        out.append(f"e0 witness violates P <= R (min eigenvalue of R - P {lo:.3e})")
    if hi > 1 + SDP_TOL:
        out.append(f"e0 witness violates R <= I (max eigenvalue {hi:.9g})")
    norm = op_norm(ptranspose(R, d_a, d_b))
    return out + check_equal(norm, mu, "||R^PT|| vs 2^-e0", SDP_TOL * mu)


def check_fgamma_witness(value: float, k: float, Q: np.ndarray, rho, d_a, d_b) -> list[str]:
    """0 <= Q <= I, ||Q^PT|| <= 1/k, and tr(rho Q) = F = 2^value."""
    f = 2.0 ** value
    ev = eigs(Q)
    out = []
    if ev[0] < -SDP_TOL or ev[-1] > 1 + SDP_TOL:
        out.append(f"fgamma witness spectrum [{ev[0]:.9g}, {ev[-1]:.9g}] leaves [0, 1]")
    norm = op_norm(ptranspose(Q, d_a, d_b))
    out += check_at_most(norm, 1.0 / k, "||Q^PT|| vs 1/k")
    reached = float(np.real(np.trace(rho @ Q)))
    return out + check_equal(reached, f, "tr(rho Q) vs F", SDP_TOL * f)


def check_npt_witness(value: float, R: np.ndarray, w: float, rho, d_a, d_b) -> list[str]:
    """The closed-form witness is feasible for the W program, its value is
    tr(rho^PT R), and it does not exceed W."""
    out = []
    ev = eigs(R)
    if ev[0] < -1 - CLOSED_TOL or ev[-1] > 1 + CLOSED_TOL:
        out.append(f"NPT witness spectrum [{ev[0]:.9g}, {ev[-1]:.9g}] leaves [-1, 1]")
    pt_min = float(eigs(ptranspose(R, d_a, d_b))[0])
    if pt_min < -CLOSED_TOL:
        out.append(f"NPT witness has R^PT min eigenvalue {pt_min:.3e} < 0")
    reached = float(np.real(np.trace(ptranspose(rho, d_a, d_b) @ R)))
    out += check_equal(value, reached, "NPT witness value vs tr(rho^PT R)", CLOSED_TOL)
    return out + check_at_most(value, w, "NPT witness value vs W", SDP_TOL * w)


def check_order(e0: float, ew: float, en: float) -> list[str]:
    return check_at_most(e0, ew, "e0 <= e_w") + check_at_most(ew, en, "e_w <= en")
