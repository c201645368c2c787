"""Interior-point engine behind sdp.solve.

Compiles a modeled problem onto an orthonormal Hermitian coordinate basis
(one real coordinate per matrix entry degree of freedom), then runs an
infeasible-start primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step. Dense and deterministic,
sized for matrix variables up to ~100 rows total.

Blocks have at most ~100 rows, where OpenBLAS's one thread per core is
slower, not faster, so a program whose reduced Newton matrix has fewer than
_THREADED_ORDER rows runs on one BLAS thread and its result does not depend
on the core count; a larger one runs wholly on the caller's threads.  Every
iterate the loop evaluates leaves one row in the returned trace, and the
result names the stop rule that ended the loop.

The equalities A y = b are solved once (the null-space method of Nocedal
& Wright, Numerical Optimization, §16.2): y starts at A⁺b, every step lies
in null(A), and an inconsistent system is infeasible at iteration 0. The
multiplier λ is not iterated but read off each dual point as the
least-squares (Aᵀ)⁺(c + Σ F*(Z)), which the Newton direction never sees.

The NT scaling takes the G form of Todd, Toh & Tütüncü, "On the
Nesterov-Todd direction in semidefinite programming", SIAM J. Optim. 8
(1998): with S = LS LSᴴ, Z = LZ LZᴴ and LZᴴ LS = U diag(d) Wᴴ,
G = LS W d^{-1/2} has the inverse d^{-1/2} Uᴴ LZᴴ and the scaled point
G⁻¹ S G⁻ᴴ = Gᴴ Z G = diag(d) is diagonal, so the corrector terms'
Lyapunov equations are solved entrywise.  Each Newton direction is scaled
once, to dS̃ = Gi dS Giᴴ and dZ̃ = Gᴴ dZ G, and every step length and
corrector product is taken from that pair in the scaled space: S + t dS ⪰ 0
exactly when diag(d) + t dS̃ ⪰ 0, and the complementarity product of the
tentative point is (D + t dS̃)(D + t' dZ̃) with D = diag(d).

Coordinate a of a variable is one entry pair (i_a, j_a, u_a), the basis
matrix E_a = u_a |i_a><j_a| + conj(u_a) |j_a><i_a|.  compile_problem turns
each block of SdpProblem.blocks(), or each class block of a split one
(below), straight into its place in the stack of its size; this compiled
layout is known to this module alone.  Every structural term c X or c X^PT
becomes the variable's entry pairs with (i, j) remapped by the partial
transpose, and that one format drives the Schur assembly
(kernels.schur_stack, once per stack).  A trace term c tr(P X) K is kept
beside it as (slots, variable slice, c, p, K), with p the coordinates of P
on that slice, so its rank-one updates touch only the slice's rows and
columns.

S, Z, the NT scaling, the scaled directions, the step lengths and the
corrector targets take one stacked numpy call per (nb, n, n) stack.  Each
stack's entry pairs are flattened once to (block, i, j, weight,
coordinate) arrays: its image (apply_block) is one scatter and its adjoint
(gather_block) one gather.  The image is exactly Hermitian (half +
half†), and S and Z are sums of images, constants and dual directions dZ.
Hermitian parts are taken only where a reader needs one: the NT matrix V,
the Gondzio product P (eigh) and dZ.  Other products may carry rounding
skew: a right-hand-side stack G is read only by gather_block and the dZ
formula, which both see its Hermitian part alone, and _max_step's eigvalsh
reads one triangle.

When every datum in the problem is real, variables are restricted to real
symmetric coordinates and the loop runs in float64. The imaginary
coordinates decouple exactly in that case (conjugating any solution by
entrywise complex conjugation preserves feasibility and objective), so the
restriction is lossless and the reduced dual certificates remain
certificates for the full problem.

A variable with a symmetry pattern (SdpProblem.patterns) keeps only the
coordinates whose entry pair the pattern marks.  The pattern stands for a
group under which the program is invariant, and it spans the algebra that
group fixes: the NT scaling, the Newton direction and every iterate stay in
that algebra, so nothing after compile_problem reads it.

That algebra is block-diagonal on the pattern's classes (Gatermann &
Parrilo, J. Pure Appl. Algebra 192 (2004)), so a constraint of at least
_SPLIT_ORDER rows is split into class blocks: the connected components of
the entries its entry pairs, constant and trace gains reach, which on a
pattern are its classes.  Each class block joins the stack of its size
with local indices, so the NT scaling, the step lengths, the corrector
products and the Schur assembly run on blocks of those sizes (σ_r⊗ρ_α's
36-row blocks on blocks of 12, 8 and 4 rows), and the Schur kernel forms
sum_b m_b² entries per constraint instead of m².  Every stack costs its
own numpy calls, so smaller constraints stay whole: splitting lost at 9,
16 and 24 rows and won at 36.  The iterates are the same up to rounding:
each class block keeps its constraint's constant norm for the starting
point and the primal residual, which takes each constraint's Frobenius
norm over all its blocks, and the dual blocks are put back together as
n×n matrices.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import inspect
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from . import kernels
from .errors import CapacityError, InvalidStateError, NumericError
from .linalg import ZERO_ENTRY_ATOL, dagger, hermitize
from .sdp import LinTerm, SdpProblem

# Cap on the total variable dimension, counted as 2 * dim per variable. Keeps
# dense Schur assembly and factorization tractable.
EMBEDDED_DIM_CAP = 208

# Constraints of at least this many rows are split into their class blocks.
# Every stack costs its own numpy calls per iteration, so splitting small
# blocks loses.  Measured on 2 cores (process CPU time per e_w, e0 or w0,
# interleaved rounds, each program split everywhere against nowhere):
# splitting loses at 9 rows (rho_alpha(0.3)), at 16 (Phi(2)^2,
# sigma_r(0.4) x Phi(2)) and on one of two 24-row states, and wins at 36
# (sigma_r(0.4) x rho_alpha(0.3), Phi(2) x rho_alpha(0.3)); see
# BENCH_19_class_blocks.json for the figures.
_SPLIT_ORDER = 30

_RT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# coordinate basis


def _basis_pairs(n: int, real_mode: bool):
    """Entry pairs (i, j, u) of an orthonormal Hermitian basis of dimension n.

    Coordinate a is the matrix E_a = u_a |i_a><j_a| + conj(u_a) |j_a><i_a|:
    diagonal units first (u = 1/2), then the real (u = sqrt(1/2)) and, unless
    real_mode, the imaginary (u = i sqrt(1/2)) off-diagonal pairs, each in
    lexicographic order, as kernels.schur_stack needs.  u is real in real_mode.
    """
    p, q = np.triu_indices(n, 1)
    offs = (1.0,) if real_mode else (1.0, 1j)
    i = np.concatenate([np.arange(n), *(p for _ in offs)])
    j = np.concatenate([np.arange(n), *(q for _ in offs)])
    return i, j, np.concatenate([np.full(n, 0.5), *(np.full(p.size, w / _RT2) for w in offs)])


def _hvec(X, i, j, u):
    """Coordinates Re tr(E_a X) = Re(u_a X[j_a, i_a] + conj(u_a) X[i_a, j_a])."""
    return np.real(u * X[j, i] + np.conj(u) * X[i, j])


def _unhvec(yv, i, j, u, n):
    """sum_a yv_a E_a, the adjoint of _hvec."""
    X = np.zeros((n, n), dtype=np.complex128)
    np.add.at(X, (i, j), u * yv)
    return X + X.conj().T


def _pt_map(i, j, d_a, d_b):
    """Entry (i, j) of a d_a x d_b bipartite matrix moved by the partial
    transpose on the second factor."""
    return (i // d_b) * d_b + j % d_b, (j // d_b) * d_b + i % d_b


# ---------------------------------------------------------------------------
# compiled form


@dataclass
class BlockStack:
    """The blocks of one size n as one (nb, n, n) stack, in constraint order.
    A block is a whole constraint or one class block of a split one: block b
    holds rows[b] of constraint pos[b].  Entry e of their flattened entry
    pairs adds w_e y[coord_e] at stack position flat_e = (b, i, j) and its
    conjugate at flat_t_e = (b, j, i), with w = coeff * u.  A trace term
    keeps its constraint's blocks here as (blocks, slice, coeff, p, gains,
    constraint)."""

    n: int
    m: int
    pos: np.ndarray  # the blocks' constraints, indices into SdpProblem.blocks()
    rows: np.ndarray  # (nb, n)
    const: np.ndarray  # (nb, n, n), in the loop's dtype
    flat: np.ndarray
    flat_t: np.ndarray
    w: np.ndarray
    coord: np.ndarray
    groups: tuple  # kernels.schur_stack's (_schur_groups)
    tterms: tuple


def _class_labels(con, lterms, tterms) -> np.ndarray:
    """Each row's class block, numbered in order of least row: the connected
    components of the entries a constraint's entry pairs, constant and trace
    gains reach.  A constraint below _SPLIT_ORDER rows is one block."""
    n = con.dim
    if n < _SPLIT_ORDER:
        return np.zeros(n, int)
    adj = (con.const != 0) | np.eye(n, dtype=bool)
    for *_, K in tterms:
        adj |= K != 0
    for _, i, j, _, _ in lterms:
        adj[i, j] = adj[j, i] = True
    # label propagation rather than scipy.sparse.csgraph, whose import costs
    # every process about 90 ms and 5 MB
    label = np.arange(n)
    while True:  # every row takes the least label among its neighbours
        nxt = np.where(adj, label, n).min(axis=1)
        if np.array_equal(nxt, label):
            return np.unique(label, return_inverse=True)[1]
        label = nxt


def _targets(co_t, co_s, kr_t, kr_s, m):
    """The flat positions in M where kernels.schur_stack adds a pair of
    terms, one row of coordinates per block of a batch: real-part rows (a
    term's first kr coordinates) against real-part columns, real against
    imaginary, imaginary against real and imaginary against imaginary."""
    rows = co_t[:, :kr_t, None], co_t[:, kr_t:, None]
    cols = co_s[:, None, :kr_s], co_s[:, None, kr_s:]
    return tuple(r * m + c for r in rows for c in cols)


def _schur_groups(batches, n, m) -> tuple:
    """kernels.schur_stack's groups from (blocks, terms) batches, the blocks
    of one constraint that share their local entry pairs, with the terms'
    coordinates one row per block.  A batch's entries gather from the
    flattened stack at precomputed positions.  A term's real-part entries,
    those with real u, come first in its basis (_basis_pairs) and so in
    every class block."""

    def flat(b, rows, cols):
        return ((b * n)[:, None, None] + rows) * n + cols

    groups = {}
    for b, lt in batches:
        terms = []
        for c, i, j, u, coord in lt:
            real = u.real != 0
            terms.append((c, i[real], j[real], np.abs(u[real]), coord))
        for t, (c_t, i_t, j_t, r_t, co_t) in enumerate(terms):
            for s, (c_s, i_s, j_s, r_s, co_s) in enumerate(terms):
                key = (co_t.shape, co_s.shape, co_t.tobytes(), co_s.tobytes())
                if key not in groups:
                    imag = co_t.shape[1] > r_t.size or co_s.shape[1] > r_s.size
                    groups[key] = (_targets(co_t, co_s, r_t.size, r_s.size, m), imag, 2.0 * np.outer(r_t, r_s), [])
                i_tc, j_tc = i_t[:, None], j_t[:, None]
                y = None if t == s else flat(b, i_s, j_tc)
                groups[key][3].append((c_t * c_s, flat(b, i_tc, j_s), y, flat(b, i_tc, i_s), flat(b, j_tc, j_s)))
    return tuple(groups.values())


def _constraint_terms(con, bases, var_slices, real_mode):
    """A constraint's LinTerms as their variable's entry pairs, moved by the
    partial transpose, (coeff, i, j, u, coordinates), and its TraceTerms as
    the coordinates of their probe, (slice, coeff, p, K)."""
    lterms, tterms = [], []
    for t in con.terms:
        sl, (i, j, u) = var_slices[t.var], bases[t.var]
        if not isinstance(t, LinTerm):
            tterms.append((sl, float(t.coeff), _hvec(t.probe, i, j, u), t.gain.real if real_mode else t.gain))
            continue
        if t.pt_dims is not None:
            i, j = _pt_map(i, j, *t.pt_dims)
        lterms.append((float(t.coeff), i, j, u, np.arange(sl.start, sl.stop)))
    return lterms, tterms


class _Block(NamedTuple):
    """Rows of constraint p as one block of a stack, with its constant and
    terms in local indices (_constraint_terms' formats)."""

    p: int
    rows: np.ndarray
    const: np.ndarray
    lterms: list
    tterms: list


def _slices(counts) -> list:
    """Consecutive slices of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [slice(a, b) for a, b in zip([0] + ends, ends)]


def _split(p, con, lterms, tterms) -> list:
    """The class blocks (_Block) of constraint p, each term restricted to
    its entry pairs in the block, in basis order.  Every entry pair lands in
    exactly one block."""
    label = _class_labels(con, lterms, tterms)
    count = np.bincount(label)
    if count.size == 1:
        return [_Block(p, np.arange(con.dim), con.const, lterms, tterms)]
    order = np.argsort(label, kind="stable")
    loc = np.empty_like(order)
    loc[order] = np.arange(order.size) - (np.cumsum(count) - count)[label[order]]
    parts = []
    for c, i, j, u, coord in lterms:
        o = np.argsort(label[i], kind="stable")
        arrays = [x[o] for x in (loc[i], loc[j], u, coord)]
        parts.append([(c, *(x[k] for x in arrays)) for k in _slices(np.bincount(label[i], minlength=count.size))])
    blocks = []
    for b, k in enumerate(_slices(count)):
        rows = order[k]
        ix = np.ix_(rows, rows)
        tt = [(sl, c, pv, K[ix]) for sl, c, pv, K in tterms]
        blocks.append(_Block(p, rows, con.const[ix], [lt[b] for lt in parts], tt))
    return blocks


def _stack(blocks, m, real_mode) -> BlockStack:
    """The stack of blocks (_Block) of one size.  The blocks of one
    constraint that share their local entry pairs form one batch of the
    Schur kernel, and each trace term spans all its constraint's blocks
    here."""
    n = blocks[0].rows.size
    ent = [(b, coeff * u, i, j, coord) for b, blk in enumerate(blocks) for coeff, i, j, u, coord in blk.lterms]
    batches, tparts = {}, {}
    for b, blk in enumerate(blocks):
        local = tuple(a.tobytes() for _, i, j, u, _ in blk.lterms for a in (i, j, u))
        batches.setdefault((blk.p, *local), []).append(b)
        for k, term in enumerate(blk.tterms):
            tparts.setdefault((blk.p, k), []).append((b, term))
    schur = []
    for bs in batches.values():
        lt = blocks[bs[0]].lterms
        coords = [np.array([blocks[b].lterms[k][4] for b in bs]) for k in range(len(lt))]
        schur.append((np.array(bs), [(*term[:4], co) for term, co in zip(lt, coords)]))
    tterms = []
    for (p, _), parts in tparts.items():
        sl, coeff, pv, _ = parts[0][1]
        bs, K = np.array([b for b, _ in parts]), np.array([term[3] for _, term in parts])
        tterms.append((bs, sl, coeff, pv, K, p))

    def cat(parts):
        return np.concatenate(parts) if parts else np.zeros(0, int)

    const = np.array([blk.const for blk in blocks])
    pos = np.array([blk.p for blk in blocks])
    return BlockStack(
        n=n,
        m=m,
        pos=pos,
        rows=np.array([blk.rows for blk in blocks]),
        const=const.real.copy() if real_mode else const,
        flat=cat([(b * n + i) * n + j for b, _, i, j, _ in ent]),
        flat_t=cat([(b * n + j) * n + i for b, _, i, j, _ in ent]),
        w=cat([w for _, w, _, _, _ in ent]),
        coord=cat([coord for _, _, _, _, coord in ent]),
        groups=_schur_groups(schur, n, m),
        tterms=tuple(tterms),
    )


@dataclass
class Compiled:
    var_names: list
    var_dims: dict
    var_slices: dict
    bases: dict  # variable name -> (i, j, u)
    m: int
    c: np.ndarray
    sense_mult: float
    constant: float
    stacks: list  # one BlockStack per block size, in order of first appearance
    dims: list  # the constraints' orders, in SdpProblem.blocks() order
    dnorm: np.ndarray  # the constraints' constants' spectral norms
    A: np.ndarray
    b: np.ndarray
    real_mode: bool
    static_infeasible: bool = False


def _problem_is_real(problem: SdpProblem) -> bool:
    def _real(arr):
        return float(np.max(np.abs(np.imag(arr)))) <= ZERO_ENTRY_ATOL if arr.size else True

    for _, C in problem.objective:
        if not _real(C):
            return False
    for con in problem.constraints:
        if not _real(con.const):
            return False
        for t in con.terms:
            if not isinstance(t, LinTerm) and not (_real(t.probe) and _real(t.gain)):
                return False
    for eq in problem.equalities:
        if any(not _real(p) for _, p in eq.terms):
            return False
    return True


def check_capacity(variables) -> None:
    """Refuse (name, dim, kind) variables beyond EMBEDDED_DIM_CAP."""
    embedded = sum(2 * dim for _, dim, _ in variables)
    if embedded > EMBEDDED_DIM_CAP:
        raise CapacityError(
            f"total variable dimension, counted as 2 * dim per variable, is {embedded}, "
            f"exceeding the solver cap of {EMBEDDED_DIM_CAP}"
        )


def compile_problem(problem: SdpProblem) -> Compiled:
    if not problem.variables:
        raise InvalidStateError("problem has no variables")
    check_capacity(problem.variables)

    real_mode = _problem_is_real(problem)
    var_names = [name for name, _, _ in problem.variables]
    var_dims = {name: dim for name, dim, _ in problem.variables}
    bases = {}
    var_slices = {}
    off = 0
    for name, dim, _ in problem.variables:
        i, j, u = _basis_pairs(dim, real_mode)
        if name in problem.patterns:
            keep = problem.patterns[name][i, j]
            i, j, u = i[keep], j[keep], u[keep]
        bases[name] = (i, j, u)
        mv = i.size
        var_slices[name] = slice(off, off + mv)
        off += mv
    m = off

    c_user = np.zeros(m)
    for name, C in problem.objective:
        c_user[var_slices[name]] += _hvec(C, *bases[name])
    sense_mult = 1.0 if problem.sense == "max" else -1.0
    c = sense_mult * c_user

    cons = problem.blocks()
    static_infeasible = any(
        not con.terms and float(np.linalg.eigvalsh(con.const)[0]) < -1e-12 for con in cons
    )
    dnorm = np.array([float(np.linalg.norm(con.const, 2)) for con in cons])
    by_size = {}
    for p, con in enumerate(cons):
        for blk in _split(p, con, *_constraint_terms(con, bases, var_slices, real_mode)):
            by_size.setdefault(blk.rows.size, []).append(blk)
    stacks = [_stack(blocks, m, real_mode) for blocks in by_size.values()]

    p = len(problem.equalities)
    A = np.zeros((p, m))
    b = np.zeros(p)
    for r, eq in enumerate(problem.equalities):
        for v, probe in eq.terms:
            A[r, var_slices[v]] += _hvec(probe, *bases[v])
        b[r] = eq.rhs

    return Compiled(
        var_names=var_names,
        var_dims=var_dims,
        var_slices=var_slices,
        bases=bases,
        m=m,
        c=c,
        sense_mult=sense_mult,
        constant=problem.constant,
        stacks=stacks,
        dims=[con.dim for con in cons],
        dnorm=dnorm,
        A=A,
        b=b,
        real_mode=real_mode,
        static_infeasible=static_infeasible,
    )


# ---------------------------------------------------------------------------
# evaluation helpers


def apply_block(st: BlockStack, y: np.ndarray) -> np.ndarray:
    """Structural + trace-term image F_j(y) of every block of a stack, without
    the constants: one scatter of the flattened entry pairs."""
    v = st.w * y[st.coord]
    half = np.bincount(st.flat, v.real, st.const.size)
    if np.iscomplexobj(v):
        half = half + 1j * np.bincount(st.flat, v.imag, st.const.size)
    half = half.reshape(st.const.shape)
    mat = (half + dagger(half)).astype(st.const.dtype, copy=False)
    for b, sl, coeff, pv, K, _ in st.tterms:
        mat[b] += (coeff * float(pv @ y[sl])) * K
    return mat


def _gather_lterms(st: BlockStack, X: np.ndarray) -> np.ndarray:
    """The entry-pair part of gather_block: one gather of the flattened
    entry pairs."""
    Xf = X.reshape(-1)
    out = np.bincount(st.coord, np.real(st.w * Xf[st.flat_t] + np.conj(st.w) * Xf[st.flat]), st.m)
    return out.astype(float, copy=False)  # bincount of no entries is integer


def gather_block(st: BlockStack, X: np.ndarray) -> np.ndarray:
    """Adjoint of apply_block: the vector of sum_j <F_ja, X_j> over all
    coordinates for a stack X of the blocks' matrices."""
    out = _gather_lterms(st, X)
    for b, sl, coeff, pv, K, _ in st.tterms:
        out[sl] += (coeff * _trace(K @ X[b])) * pv
    return out


def _trace(X) -> float:
    """Re tr X, summed over the blocks of a stack."""
    return float(np.real(np.trace(X, axis1=-2, axis2=-1)).sum())


def full_blocks(comp: Compiled, Xs) -> list:
    """One matrix per constraint, in SdpProblem.blocks() order, from one
    stack per block size: each block at its rows, zero between class
    blocks."""
    out = [np.zeros((n, n), dtype=Xs[0].dtype) for n in comp.dims]
    for st, X in zip(comp.stacks, Xs):
        for p, rows, Xb in zip(st.pos, st.rows, X):
            out[p][np.ix_(rows, rows)] = Xb
    return out


def assignments_from(comp: Compiled, y: np.ndarray) -> dict:
    return {
        name: _unhvec(y[comp.var_slices[name]], *comp.bases[name], comp.var_dims[name])
        for name in comp.var_names
    }


# ---------------------------------------------------------------------------
# numerics


def _eigh(mat):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


@dataclass
class _Scaling:
    """The NT scaling of each block of a stack at the current iterate, shared
    by every direction of the iteration, in the G form of Todd, Toh &
    Tütüncü: the scaling matrices G and their inverses Gi, with
    G⁻¹ S G⁻ᴴ = Gᴴ Z G = diag(d), and the NT matrices V = Giᴴ Gi (V S V = Z)."""

    V: np.ndarray
    G: np.ndarray
    Gi: np.ndarray
    d: np.ndarray


def _nt_scaling(S, Z) -> _Scaling:
    """G from two Cholesky factors and one SVD (module docstring), on
    (..., n, n) stacks of S and Z."""
    try:
        LS = np.linalg.cholesky(S)
        LZ = np.linalg.cholesky(Z)
        U, d, Wh = np.linalg.svd(dagger(LZ) @ LS)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"NT scaling failed: {exc}") from exc
    if not np.all(d[..., -1] > 0.0):
        raise NumericError("iterate lost positive definiteness")
    rd = 1.0 / np.sqrt(d)
    G = (LS @ dagger(Wh)) * rd[..., None, :]
    Gi = rd[..., :, None] * (dagger(U) @ dagger(LZ))
    return _Scaling(hermitize(dagger(Gi) @ Gi), G, Gi, d)


def _scale(sc: _Scaling, dS, dZ):
    """The scaled pair (Gi dS Giᴴ, Gᴴ dZ G) of a direction: S + t dS and
    Z + t dZ map to diag(d) + t times each."""
    return sc.Gi @ dS @ dagger(sc.Gi), dagger(sc.G) @ dZ @ sc.G


def _pull_back(sc: _Scaling, T):
    """Right-hand-side term for a scaled-space target T: solve the Lyapunov
    equation (W D + D W)/2 = T against the diagonal scaled point
    D = diag(d) entrywise, W = 2T / (d_i + d_j), and map W back to the dual
    space as Giᴴ W Gi.  For T = c I this is c S⁻¹."""
    W = 2.0 * T / (sc.d[..., :, None] + sc.d[..., None, :])
    return dagger(sc.Gi) @ W @ sc.Gi


def _second_order_term(sc: _Scaling, dSt, dZt):
    """Mehrotra correction: the pulled-back product of the predictor's
    scaled pair."""
    return _pull_back(sc, dSt @ dZt)


def _gondzio_target(sc: _Scaling, dSt, dZt, ap, ad, smu):
    """Product-space correction herding the tentative complementarity
    eigenvalues, those of (D + ap dSt)(D + ad dZt) with D = diag(d), into
    [0.1 smu, 10 smu], pulled back like the Mehrotra term.  Returns the
    extra target and the largest outlier magnitude over the stack."""
    D = sc.d[..., :, None] * np.eye(sc.d.shape[-1])
    P = hermitize((D + ap * dSt) @ (D + ad * dZt))
    pe, Pu = _eigh(P)
    lo, hi = 0.1 * smu, 10.0 * smu
    t = np.where(pe < lo, lo - pe, np.where(pe > hi, hi - pe, 0.0))
    if not np.any(t):
        return np.zeros_like(P), 0.0
    return _pull_back(sc, (Pu * t[..., None, :]) @ dagger(Pu)), float(np.max(np.abs(t)))


def _max_step(d, dXt):
    """Largest t with diag(d) + t dXt >= 0 in every block of a stack, the
    step length of a scaled direction; inf when dXt >= 0."""
    if not np.all(np.isfinite(dXt)):
        raise NumericError("step length computation failed: non-finite direction")
    r = 1.0 / np.sqrt(d)
    try:
        lmin = float(np.min(np.linalg.eigvalsh(r[..., :, None] * dXt * r[..., None, :])[..., 0]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"step length computation failed: {exc}") from exc
    if lmin >= -1e-16:
        return np.inf
    return 1.0 / (-lmin)


def _assemble_M(comp: Compiled, Vs):
    """M[a, b] = sum_j Re tr(F_ja V_j F_jb V_j) from one stack of NT
    matrices V per block size."""
    M = np.zeros((comp.m, comp.m))
    for st, V in zip(comp.stacks, Vs):
        kernels.schur_stack(M, V, st.groups)
        for b, sl, coeff, pv, K, _ in st.tterms:
            VKV = np.zeros_like(V)
            VKV[b] = V[b] @ K @ V[b]
            w = _gather_lterms(st, VKV)
            M[sl] += coeff * np.outer(pv, w)
            M[:, sl] += coeff * np.outer(w, pv)
        # two trace terms of one constraint span the same blocks
        for b, sr, cr, pr, Kr, con_r in st.tterms:
            for _, ss, cs, ps, Ks, con_s in st.tterms:
                if con_r == con_s:
                    t = _trace(Kr @ V[b] @ Ks @ V[b])
                    M[sr, ss] += (cr * cs * t) * np.outer(pr, ps)
    return M


@dataclass
class _EqSplit:
    """One SVD of the equality matrix, A = Ur diag(s) Vrᵀ, plus an
    orthonormal basis N of its null space.  The rank is read off the
    singular values, so linearly dependent equality rows are allowed.
    When A has rank 0 (in particular with no equalities at all) the null
    space is every coordinate, N is None and stands for the identity."""

    Ur: np.ndarray
    s: np.ndarray
    Vr: np.ndarray
    N: np.ndarray | None

    def pinv(self, x):
        """A⁺ x: the least-norm y with A y as close to x as possible."""
        return self.Vr @ ((self.Ur.T @ x) / self.s)

    def pinv_t(self, v):
        """(Aᵀ)⁺ v: the least-squares multipliers l for Aᵀ l = v."""
        return self.Ur @ ((self.Vr.T @ v) / self.s)

    def reduce(self, M):
        """NᵀMN, M restricted to the null space of A."""
        return M if self.N is None else self.N.T @ M @ self.N

    def restrict(self, v):
        """Nᵀ v."""
        return v if self.N is None else self.N.T @ v

    def extend(self, z):
        """N z."""
        return z if self.N is None else self.N @ z


def _split_equalities(A) -> _EqSplit:
    p, m = A.shape
    try:
        U, s, Vt = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of the equality matrix failed: {exc}") from exc
    tol = max(p, m) * np.finfo(float).eps * float(np.max(s, initial=0.0))
    r = int(np.sum(s > tol))
    return _EqSplit(Ur=U[:, :r], s=s[:r], Vr=Vt[:r].T, N=Vt[r:].T if r else None)


def _factor_kkt(Mr):
    """Factor the reduced Newton matrix Mr = NᵀMN and return the solver of
    Mr z = r, or None when no jittered Cholesky factor exists.  The solver's
    jitter attribute is the rung it was factored on.  Equalities
    are eliminated (dy = N z) rather than bordered: Mr stays positive
    definite, whereas an LU solve of the saddle system [[M, Aᵀ], [A, 0]]
    loses the dual equation in the endgame and stalls the iterates.

    Mr is factored as it is: Cholesky's error is small relative to
    sqrt(M_ii M_jj), so equilibrating Mr first changes only rounding.  A
    failed factor retries on a ladder of jitters relative to Mr's largest
    diagonal entry.  Up to four refinement steps against Mr matter once mu
    pushes Mr's conditioning toward the float64 cliff near convergence."""
    k = Mr.shape[0]
    dscale = max(float(np.max(np.diag(Mr), initial=0.0)), 1e-300)
    for jit in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        try:
            ch = sla.cho_factor(Mr + (jit * dscale) * np.eye(k), lower=True, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            continue
        base = functools.partial(sla.cho_solve, ch, check_finite=False)

        def solve(g, base=base):
            z = base(g)
            if not np.all(np.isfinite(z)):
                raise NumericError("KKT solve produced non-finite step")
            gscale = max(float(np.max(np.abs(g), initial=0.0)), 1e-300)
            prev = np.inf
            for _ in range(4):
                r = g - Mr @ z
                rnorm = float(np.max(np.abs(r), initial=0.0))
                if rnorm <= 1e-15 * gscale or rnorm >= prev:
                    break
                prev = rnorm
                e = base(r)
                if not np.all(np.isfinite(e)):
                    break
                z = z + e
            return z

        solve.jitter = jit
        return solve
    return None


# ---------------------------------------------------------------------------
# BLAS threads

# Programs whose reduced Newton matrix has at least this many rows run on the
# caller's BLAS threads, smaller ones on one.  Measured on 2 cores (medians of
# 3 to 6 solves): one thread wins end to end on the tensor6 benchmark (orders
# 466 and 666).  On a real 64-dim two-copy state (m = 2080) two threads take
# e0 (order 1541) from 18.1 to 16.9 s and leave e_w (order 2080) at 13.2 s;
# they take the two-copy e0 of rho(0.5) (order 2629) from 49.6 to 39.3 s.
_THREADED_ORDER = 1500

# The thread count is process-global, so its bookkeeping is too.
_blas_lock = threading.Lock()
_blas_depth = 0  # solves running in this process
_blas_caller = ()  # the thread counts the outermost solve found


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS copies numpy and
    scipy link (the scipy-openblas builds of their wheels), looked up once
    through ctypes.  Empty when neither exports them."""
    found = []
    for module, symbol in (
        ("numpy.linalg._umath_linalg", "scipy_openblas_{}_num_threads64_"),
        ("scipy.linalg._fblas", "scipy_openblas_{}_num_threads"),
    ):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return tuple(found)


def _blas_threads() -> tuple:
    return tuple(get() for get, _ in _openblas())


def _set_blas_threads(counts) -> None:
    for (_, set_), n in zip(_openblas(), counts):
        set_(n)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread.  The limit is process-global while
    any such solve runs: the outermost entry saves the caller's counts and the
    last exit restores them, so nested solves, and solves from several Python
    threads, leave the counts as they found them."""
    global _blas_depth, _blas_caller
    with _blas_lock:
        if _blas_depth == 0:
            _blas_caller = _blas_threads()
            _set_blas_threads([1] * len(_blas_caller))
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                _set_blas_threads(_blas_caller)


# ---------------------------------------------------------------------------
# the solver loop


def run(comp: Compiled, cfg) -> dict:
    """Pick the BLAS thread policy once.  The equality row count stands in for
    rank(A), whose SVD must run under the policy.  The measures' pinning
    rows are independent, since they pin R per symmetry class; dependent
    rows a model program poses only make the order look smaller."""
    with contextlib.nullcontext() if comp.m - comp.A.shape[0] >= _THREADED_ORDER else _one_blas_thread():
        return _iterate(comp, cfg)


def _inners(X, Y):
    """Re <X_j, Y_j> for every block j of two stacks."""
    return np.real(np.sum(X.conj() * Y, axis=(-2, -1)))


def _iterate(comp: Compiled, cfg) -> dict:
    stacks = comp.stacks
    Ntot = sum(st.const.shape[0] * st.n for st in stacks)

    A = comp.A
    b = comp.b

    def user_vals(pobj_lin, dobj_lin):
        return comp.sense_mult * pobj_lin + comp.constant, comp.sense_mult * dobj_lin + comp.constant

    def result(status, stop, snap):
        pv, dv = user_vals(snap["pobj"], snap["dobj"])
        return {
            "status": status,
            "stop": stop,
            "primal_value": pv,
            "dual_value": dv,
            "assignments": assignments_from(comp, snap["y"]),
            "iterations": snap["it"],
            "dual_blocks": full_blocks(comp, snap["Z"]),
            "eq_duals": snap["lam"],
            "trace": trace,
        }

    trace = []  # one row per evaluated iterate
    eq = _split_equalities(A)  # A is fixed for the whole run
    binf = 1.0 + float(np.max(np.abs(b), initial=0.0))
    y = eq.pinv(b)
    # every block starts from its constraint's constant norm
    S = [np.maximum(1.0, comp.dnorm[st.pos])[:, None, None] * np.eye(st.n, dtype=st.const.dtype) for st in stacks]
    zscale = max(1.0, float(np.max(np.abs(comp.c))))
    Z = [np.full(st.pos.shape + (1, 1), zscale) * np.eye(st.n, dtype=st.const.dtype) for st in stacks]

    snap0 = {"y": y, "lam": np.zeros(b.size), "Z": Z, "pobj": float("nan"), "dobj": float("nan"), "it": 0}
    if comp.static_infeasible or float(np.max(np.abs(A @ y - b), initial=0.0)) > cfg.feas_tol * binf:
        return result("infeasible", "static-infeasible", snap0)
    if not stacks:
        # No cone at all: the problem is a pure linear program over equalities;
        # out of scope for the measures here, treat as numeric failure.
        return result("numeric-failure", "no-cone", snap0)

    znorm0 = sum(float(Zk.diagonal(0, -2, -1).real.sum()) for Zk in Z) + 1.0
    cinf = 1.0 + float(np.max(np.abs(comp.c)))
    mu0 = None

    best = None
    best_score = np.inf
    best_it = 0
    status = "numeric-failure"
    stop = "max-iterations"  # the rule that ended the loop
    it_done = 0
    last_step = dict.fromkeys(("alpha_p", "alpha_d", "sigma", "kkt_jitter"), float("nan"))

    for it in range(1, cfg.max_iterations + 1):
        it_done = it
        Rp = [st.const + apply_block(st, y) - Sk for st, Sk in zip(stacks, S)]
        adjZ = sum(gather_block(st, Zk) for st, Zk in zip(stacks, Z))
        lam = eq.pinv_t(comp.c + adjZ)
        rd = -comp.c - adjZ + A.T @ lam

        mu = sum(float(_inners(Zk, Sk).sum()) for Zk, Sk in zip(Z, S)) / Ntot
        if mu0 is None:
            mu0 = mu
        pobj_lin = float(comp.c @ y)
        dobj_lin = sum(float(_inners(Zk, st.const).sum()) for st, Zk in zip(stacks, Z)) + float(lam @ b)

        # each constraint's Frobenius norm, over all its blocks
        sq = sum(
            np.bincount(st.pos, (Rk.conj() * Rk).real.sum(axis=(-2, -1)), comp.dnorm.size)
            for st, Rk in zip(stacks, Rp)
        )
        pinf = float(np.max(np.sqrt(sq) / (1.0 + comp.dnorm)))
        dinf = float(np.max(np.abs(rd))) / cinf
        pu, du = user_vals(pobj_lin, dobj_lin)
        relgap = abs(pobj_lin - dobj_lin) / max(1.0, abs(pu), abs(du))

        if not (np.isfinite(mu) and np.isfinite(pobj_lin) and np.isfinite(dobj_lin)):
            stop = "non-finite"
            break
        slack = sum((float(np.abs(_inners(Zk, Rk)).sum()) for Zk, Rk in zip(Z, Rp)), abs(float(rd @ y)))
        trace.append(
            {
                "iteration": it,
                "mu": mu,
                "primal_value": pu,
                "dual_value": du,
                "pobj_lin": pobj_lin,
                "dobj_lin": dobj_lin,
                "relgap": relgap,
                "pinf": pinf,
                "dinf": dinf,
                "residual_slack": slack,
                **last_step,
            }
        )

        # y and Z are rebound, never changed in place, so the snapshot
        # needs no copies
        snap = {"y": y, "lam": lam, "Z": Z, "pobj": pobj_lin, "dobj": dobj_lin, "it": it}

        score = max(relgap, pinf, dinf)
        if score < best_score:
            best_score = score
            best = snap
            best_it = it

        # The primal assignments and the gap carry the reported guarantees, so
        # they are held to feas_tol/gap_tol exactly. The dual residual is an
        # internal optimality diagnostic; on degenerate instances it bottoms
        # out near sqrt(eps) regardless of step count, so it gets a floor of
        # 10x the gap tolerance rather than feas_tol.
        dual_stop = max(cfg.feas_tol, 10.0 * cfg.gap_tol)
        if pinf <= cfg.feas_tol and dinf <= dual_stop and relgap <= cfg.gap_tol:
            best = snap
            status = stop = "optimal"
            break
        if it - best_it >= 30:
            # no progress on any residual for a long stretch: the iterates are
            # orbiting a noise floor, burning more steps will not help
            stop = "stalled"
            break

        znorm = sum(float(Zk.diagonal(0, -2, -1).real.sum()) for Zk in Z) + float(np.sum(np.abs(lam)))
        if znorm > 1e7 * znorm0:
            ray_res = float(np.max(np.abs(adjZ - A.T @ lam))) / znorm
            if ray_res <= 1e-8 and dobj_lin / znorm < -1e-8:
                status = stop = "infeasible"
                break
        if float(np.max(np.abs(y))) > 1e7 and pinf <= 1e-6 and pobj_lin > 1e7 * max(1.0, abs(comp.constant)):
            status = stop = "unbounded"
            break
        if mu < 1e-14 * max(1.0, mu0):
            stop = "mu-floor"
            break

        try:
            sc = [_nt_scaling(Sk, Zk) for Sk, Zk in zip(S, Z)]
            M = _assemble_M(comp, [s.V for s in sc])
            M = eq.reduce(M)  # frees the full M before the factor
            kkt = _factor_kkt(M)
            if kkt is None:
                stop = "kkt-factor"
                break
            VRV = [s.V @ Rk @ s.V for s, Rk in zip(sc, Rp)]

            def direction(G, tau):
                """Newton direction for the right-hand-side stacks G on the
                current factorization, its scaled pairs and the damped step
                lengths.  dZ is rebuilt from G: G already folds in -V Rp V,
                so only the linear part of dS may be scaled back out; using
                dS itself would double-count Rp and leak sum_j F*(V Rp V)
                into the dual residual every step."""
                g = -rd + sum(gather_block(st, Gk) for st, Gk in zip(stacks, G))
                dy = eq.extend(kkt(eq.restrict(g)))
                dS = [Rk + apply_block(st, dy) for st, Rk in zip(stacks, Rp)]
                dZ = [hermitize(Gk - s.V @ (dSk - Rk) @ s.V) for s, Gk, dSk, Rk in zip(sc, G, dS, Rp)]
                scaled = [_scale(s, dSk, dZk) for s, dSk, dZk in zip(sc, dS, dZ)]
                ap = min(1.0, tau * min(_max_step(s.d, t[0]) for s, t in zip(sc, scaled)))
                ad = min(1.0, tau * min(_max_step(s.d, t[1]) for s, t in zip(sc, scaled)))
                return dy, dS, dZ, scaled, ap, ad

            # predictor: pure Newton step toward feasibility and zero product
            Ga = [-Zk - VRVk for Zk, VRVk in zip(Z, VRV)]
            _, dS_a, dZ_a, scaled_a, ap_a, ad_a = direction(Ga, 1.0)
            mu_aff = sum(
                float(_inners(Zk + ad_a * dZk, Sk + ap_a * dSk).sum()) for Zk, dZk, Sk, dSk in zip(Z, dZ_a, S, dS_a)
            ) / Ntot
            mu_aff = max(mu_aff, 0.0)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.1
            # never aim below the barrier level the gap tolerance needs:
            # overshooting just wrecks the Newton system's conditioning
            mu_needed = 0.3 * cfg.gap_tol * max(1.0, abs(pu), abs(du)) / Ntot
            if mu > 0:
                sigma = min(0.99, max(sigma, mu_needed / mu))

            # corrector: recenter and absorb the second-order product term
            Gc = [
                _pull_back(s, (sigma * mu) * np.eye(st.n)) - Zk - VRVk - _second_order_term(s, *sa)
                for st, s, Zk, VRVk, sa in zip(stacks, sc, Z, VRV, scaled_a)
            ]
            tau = 0.98  # share of the way to the cone boundary a corrector step takes
            dy, dS, dZ, scaled, ap, ad = direction(Gc, tau)

            # extra centrality correctors: when the step is short, herd the
            # outlier complementarity products back toward sigma*mu and
            # re-solve on the same factorization; degenerate endgames often
            # recover a full step this way when a single corrector stalls.
            for _ in range(3):
                if min(ap, ad) >= 0.85:
                    break
                smu = sigma * mu
                targets = [
                    _gondzio_target(s, *t, min(1.0, ap + 0.3), min(1.0, ad + 0.3), smu) for s, t in zip(sc, scaled)
                ]
                if max(out for _, out in targets) <= 1e-16 * max(smu, 1e-300):
                    break
                Gg = [Gk + Tk for Gk, (Tk, _) in zip(Gc, targets)]
                dy2, dS2, dZ2, scaled2, ap2, ad2 = direction(Gg, tau)
                if min(ap2, ad2) < min(ap, ad) + 0.02:
                    break
                dy, dS, dZ, scaled, ap, ad, Gc = dy2, dS2, dZ2, scaled2, ap2, ad2, Gg
        except NumericError:
            stop = "numeric-error"
            break

        y = y + ap * dy
        S = [Sk + ap * dSk for Sk, dSk in zip(S, dS)]
        Z = [Zk + ad * dZk for Zk, dZk in zip(Z, dZ)]
        # a tracer may wrap the solver; unwrap follows __wrapped__ to it, and
        # a wrapper without one costs only this diagnostic
        jitter = getattr(inspect.unwrap(kkt), "jitter", float("nan"))
        last_step = {"alpha_p": ap, "alpha_d": ad, "sigma": sigma, "kkt_jitter": jitter}

    if best is None:
        best = snap0
        best["it"] = it_done
    return result(status, stop, best)
