"""Schur-complement assembly kernel for the interior-point solver.

Per iteration the solver forms M[i,k] = sum_j Re tr(F_ji V_j F_jk V_j) where
each F_ji is a sparse Hermitian coefficient matrix with at most a couple of
nonzero entries. Expanded entrywise, each pair (e, f) of entry slots of a
block contributes u_e u_f V[c_e, r_f] V[c_f, r_e] to every (i, k) at once, so
the kernel is a short loop over slot pairs around vectorized numpy gathers.

Entry layout: block j stacks per-coordinate sparse representations
rows/cols/vals of shape (n_blocks, m, width) with per-entry counts cnts
(n_blocks, m); vstack holds each block's scaling matrix padded to the largest
block dimension.
"""

from __future__ import annotations

import numpy as np


def kernel_name() -> str:
    return "numpy"


def schur_accumulate(M, vstack, rows, cols, vals, cnts) -> None:
    """Accumulate all blocks' structured Schur contributions into M in place."""
    m = M.shape[0]
    for j in range(vstack.shape[0]):
        width = int(cnts[j].max()) if m else 0
        v = vstack[j]
        for e in range(width):
            ue = vals[j, :, e]
            re_ = rows[j, :, e]
            ce = cols[j, :, e]
            for f in range(width):
                uf = vals[j, :, f]
                rf = rows[j, :, f]
                cf = cols[j, :, f]
                # tr term: u_e u_f V[c_e, r_f] V[c_f, r_e], outer over (i, k)
                x1 = v[ce[:, None], rf[None, :]]
                x2 = v[cf[None, :], re_[:, None]]
                M += ((ue[:, None] * uf[None, :]) * x1 * x2).real


def gather_inner(block_mat, rows, cols, vals, cnts) -> np.ndarray:
    """Per-coordinate inner products Re tr(F_i A) for one block.

    rows/cols/vals are that block's (m, width) entry arrays; cnts its counts.
    """
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0])
    picked = vals * block_mat[cols, rows]
    if cnts is not None:
        mask = np.arange(rows.shape[1])[None, :] < cnts[:, None]
        picked = np.where(mask, picked, 0.0)
    return picked.real.sum(axis=1)
