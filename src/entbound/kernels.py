"""Schur-complement assembly kernel for the interior-point solver.

Per iteration the solver forms M[a,b] = sum_j Re tr(F_ja V_j F_jb V_j) by
the svec / symmetric-Kronecker formula of SDPT3 (Toh, Todd & Tütüncü,
Optim. Methods Softw. 11, 1999).  A structural term c X or c X^Γ of a block
enters it as c E_a, E_a = u_a |i_a><j_a| + conj(u_a) |j_a><i_a|, for each
coordinate a of X (the partial transpose only remaps (i_a, j_a)).  A
variable's real-part coordinates (u = r > 0, diagonal first) come before
its imaginary ones (u = i r), imaginary k on the entry of real-part n + k,
so each V product is formed once per entry, not per coordinate (Fujisawa,
Kojima & Nakata, Math. Program. 79, 1997).  For terms t and s, with α and
β the sums over a stack's blocks of c_t c_s V[i_t, j_s] ∘ V[i_s, j_t]ᵀ and
c_t c_s V[i_t, i_s] ∘ conj V[j_t, j_s] on their real-part entries, and
R = 2 r_t r_sᵀ, M[sl_t, sl_s] is, on

    real rows, real columns            R ∘ Re(α + β)
    real rows, imaginary columns       R ∘ (Im α − Im β)
    imaginary rows, real columns       R ∘ (Im α + Im β)
    imaginary rows, imaginary columns  R ∘ Re(β − α)

the imaginary slices taking R, α and β from row or column n on.  With real
data only the first slice exists, computed in float64.
"""

from __future__ import annotations

import numpy as np


def kernel_name() -> str:
    return "numpy"


def schur_stack(M, V, groups) -> None:
    """Add the entry-pair terms of every block k of a stack, Re tr(F_a V_k
    F_b V_k), into M in place.  V is the (nb, n, n) stack, groups one
    (slice_t, slice_s, R, entries) per pair of variables, entries one
    (block, c_t c_s, same term, i_t, j_t, i_s, j_s) per pair of terms."""
    n = V.shape[-1]
    cV = np.conj(V)
    for sl_t, sl_s, R, entries in groups:
        alpha = beta = 0.0
        for b, cc, same, i_t, j_t, i_s, j_s in entries:
            Vi_t = V[b][i_t]
            X = Vi_t[:, j_s]
            alpha = alpha + cc * X * (X if same else V[b][i_s][:, j_t]).T
            beta = beta + cc * Vi_t[:, i_s] * cV[b][j_t][:, j_s]
        t0, s0 = sl_t.start, sl_s.start
        t1, s1 = t0 + R.shape[0], s0 + R.shape[1]  # the first imaginary row and column
        S = R * (alpha + beta)
        M[t0:t1, s0:s1] += S.real
        if t1 < sl_t.stop or s1 < sl_s.stop:
            D = R * (beta - alpha)
            M[t0:t1, s1 : sl_s.stop] -= D.imag[:, n:]
            M[t1 : sl_t.stop, s0:s1] += S.imag[n:]
            M[t1 : sl_t.stop, s1 : sl_s.stop] += D.real[n:, n:]
