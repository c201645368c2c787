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
data only the first slice exists, computed in float64.  A batch is blocks
of one constraint that share their local entry pairs: a whole constraint is
a batch of one block, and the class blocks of a split one that share theirs
form one batch.
"""

from __future__ import annotations

import numpy as np


def kernel_name() -> str:
    return "numpy"


def schur_stack(M, V, groups) -> None:
    """Add the entry-pair terms of every block k of a stack, Re tr(F_a V_k
    F_b V_k), into M in place.  V is the (nb, n, n) stack, groups one
    (targets, imaginary, R, entries) per pair of terms' coordinates, entries
    one (c_t c_s, x, y, p, q) per pair of terms: the flat stack positions of
    V[i_t, j_s], V[i_s, j_t]ᵀ (None for the same term), V[i_t, i_s] and
    V[j_t, j_s] over a batch of blocks.  targets holds the flat positions in
    M of the real-real, real-imaginary, imaginary-real and
    imaginary-imaginary parts."""
    n = V.shape[-1]
    Vf, cVf, Mf = V.reshape(-1), np.conj(V).reshape(-1), M.reshape(-1)
    for (re_re, re_im, im_re, im_im), imaginary, R, entries in groups:
        alpha = beta = 0.0
        for cc, x, y, p, q in entries:
            X = Vf[x]
            alpha = alpha + cc * X * (np.swapaxes(X, -1, -2) if y is None else Vf[y])
            beta = beta + cc * Vf[p] * cVf[q]
        S = R * (alpha + beta)
        Mf[re_re] += S.real
        if imaginary:
            D = R * (beta - alpha)
            Mf[re_im] -= D.imag[..., n:]
            Mf[im_re] += S.imag[..., n:, :]
            Mf[im_im] += D.real[..., n:, n:]
