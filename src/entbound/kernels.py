"""Schur-complement assembly kernel for the interior-point solver.

Per iteration the solver forms M[a,b] = sum_j Re tr(F_ja V_j F_jb V_j).
Every structural term of a constraint block is c X or c X^Γ of one
variable, so coordinate a of that variable enters the block as the entry
pair c E_a with E_a = u_a |i_a><j_a| + conj(u_a) |j_a><i_a|; the partial
transpose only remaps (i_a, j_a).  For two terms t and s of a block, with
u and w their pair weights times their coefficients, the four products of
tr(E_a V E_b V) form two complex-conjugate pairs, so

    M[sl_t, sl_s] += 2 Re[(ū w̄ᵀ) ∘ V[i_t, j_s] ∘ V[i_s, j_t]ᵀ
                          + (ū wᵀ) ∘ V[i_t, i_s] ∘ conj V[j_t, j_s]]

with every V[x, y] an outer gather over the two terms' index arrays: the
svec / symmetric-Kronecker Schur formula of SDPT3 (Toh, Todd & Tütüncü,
Optim. Methods Softw. 11, 1999).  With real data the weights and V are
real and the same expression runs in float64.
"""

from __future__ import annotations

import numpy as np


def kernel_name() -> str:
    return "numpy"


def schur_pairs(M, V, lterms) -> None:
    """Add one block's entry-pair terms Re tr(F_a V F_b V) into M in place.

    lterms holds (variable slice, coeff, i, j, u) per term; V is the block's
    scaling matrix, real when the weights u are.
    """
    terms = [(sl, coeff * u, V[i], np.conj(V[j]), i, j) for sl, coeff, i, j, u in lterms]
    for sl_t, u, Vi_t, cVj_t, i_t, j_t in terms:
        ubar = np.conj(u)[:, None]
        for sl_s, w, Vi_s, _, i_s, j_s in terms:
            P = np.conj(w) * (Vi_t[:, j_s] * Vi_s[:, j_t].T) + w * (Vi_t[:, i_s] * cVj_t[:, j_s])
            M[sl_t, sl_s] += 2.0 * (ubar * P).real
