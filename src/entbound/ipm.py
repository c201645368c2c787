"""Interior-point engine behind sdp.solve.

Compiles a modeled problem onto an orthonormal Hermitian coordinate basis
(one real coordinate per matrix entry degree of freedom), then runs an
infeasible-start primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step. Dense and deterministic,
sized for matrix variables up to ~100 rows total.

Blocks have at most ~100 rows, where OpenBLAS's one thread per core is
slower, not faster; threads pay only once the Newton matrix has about a
thousand rows (see _THREADED_ORDER).  So a program whose reduced Newton matrix has fewer
than _THREADED_ORDER rows runs on one BLAS thread and its result does not
depend on the core count; a larger one runs wholly on the caller's threads.
Every iterate the loop evaluates leaves one row in the returned trace, except
one that stops it as non-finite; the result names the stop rule that ended the
loop and returns the last iterate that left a row, or the start at iteration
0, so a ray stop returns the grown iterate that is its certificate.

The equalities A y = b are solved once (the null-space method of Nocedal
& Wright, Numerical Optimization, §16.2): y starts at A⁺b, every step lies
in null(A), and an inconsistent system is infeasible at iteration 0. The
multiplier λ is not iterated but read off each dual point as the
least-squares (Aᵀ)⁺(c + Σ F*(Z)), which the Newton direction never sees.

The NT scaling takes the G form of Todd, Toh & Tütüncü, "On the
Nesterov-Todd direction in semidefinite programming", SIAM J. Optim. 8
(1998): with S = LS LSᴴ, Z = LZ LZᴴ and LZᴴ LS = U diag(d) Wᴴ,
Gi = d^{-1/2} Uᴴ LZᴴ scales the iterate to Gi S Giᴴ = D = diag(d) with
Z = Giᴴ D Gi, and V = Giᴴ Gi.  A Newton direction aims at a scaled
complementarity target T, whose Lyapunov equation (W D + D W)/2 = T is
solved entrywise.  Its right-hand side is Giᴴ W(T) Gi − Z − V Rp V, and as
V dS V = Giᴴ dS̃ Gi with dS̃ = Gi dS Giᴴ, its scaled dual direction is
exactly dZ̃ = W(T) − D − dS̃.  Every step length and corrector product is
taken from (dS̃, dZ̃): S + t dS ⪰ 0 exactly when D + t dS̃ ⪰ 0, and the
tentative complementarity product is (D + t dS̃)(D + t' dZ̃).  Only the
step taken forms dZ = Giᴴ dZ̃ Gi, once per iteration.

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
corrector targets take one stacked numpy call per (K, nb, n, n) stack, K
programs of nb blocks each (below; K = 1 for one solve).  Each stack's
entry pairs are flattened once to (block, i, j, weight, coordinate)
arrays: its image (apply_block) is one scatter and its adjoint
(gather_block) one gather.  The image is exactly Hermitian (half +
half†), and S and Z are sums of images, constants and dual directions dZ.
Hermitian parts are taken only where a reader needs one: the NT matrix V,
the Gondzio product P (eigh), the Mehrotra product in the corrector's
target, which keeps dZ̃ as Hermitian as dS̃ for _max_step's eigvalsh (it
reads one triangle), and the one dZ per iteration.  A right-hand-side stack
may carry rounding skew: gather_block sees its Hermitian part alone.

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
pattern are its classes.  One mask per class cuts the entry pairs, in basis
order, to local indices; trace terms stay whole until the stack of each
size cuts their gains to its blocks' rows.  So the NT scaling, the step
lengths, the corrector products and the Schur assembly run on blocks of
the class sizes (σ_r⊗ρ_α's 36-row blocks on blocks of 12, 8 and 4 rows),
and the Schur kernel forms sum_b m_b² entries per constraint instead of
m².  The iterates are the same up to rounding: each class block keeps its
constraint's constant norm for the starting point and the primal
residual, which takes each constraint's Frobenius norm over all its
blocks, and the dual blocks are put back together as n×n matrices.

One loop solves K compiled programs of one layout in lockstep (run_batch;
run is the case K = 1).  A layout (layout()) is everything compiled that
is not data: m, each stack's blocks, entry pairs and Schur groups, the
trace terms' blocks, slices and coefficients, and A's shape.  The
constants, c, A and b, the trace terms' p and gains, the sense and the
constant are each program's own.  Every array the loop holds has a
leading program axis: each stack is (K, nb, n, n), y is (K, m), the Newton
matrices are (K, m, m) and a per-program scalar broadcasts as (K, 1, 1, 1).
Memory stays program-major, so the image and adjoint (bincounts with
program offsets) and the Schur kernel index the batch flat, and the NT
scaling, the corrector and Gondzio products and the step lengths' eigvalsh
run once over the batch.  Each program's KKT factor, its jitter rung and
solves, its scalars, stop rules and trace rows stay its own, and every sum
over a program's blocks or coordinates is taken as its solve alone takes
it (stacked (1 x m) @ (m x 1) products for its dot products), so each
program ends bit for bit as it does alone.  A program that stops leaves
the batch with its snapshot.  A stacked cholesky, svd, eigh or eigvalsh
raises for the whole batch when one block fails, so a NumericError in a
batch of several sends every program still going on alone from that
iteration's iterate; only the failing one then stops numeric-error, with
the error's message as its stop detail.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import InvalidStateError, NumericError
from .linalg import ZERO_ENTRY_ATOL, dagger, hermitize
from .sdp import LinTerm, SdpProblem, check_capacity

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
    """The blocks of one size n of K programs of one layout as one (K, nb,
    n, n) stack, each program's in constraint order.  A block is a whole
    constraint or one class block of a split one: block b holds rows[b] of
    constraint pos[b].  Entry e of the flattened entry pairs adds
    w_e y[coord_e] at flat stack position flat_e = (k, b, i, j) and its
    conjugate at flat_t_e = (k, b, j, i), with w = coeff * u and y the
    programs' (K, m) coordinates flattened.  A trace term keeps all its
    constraint's blocks here as (blocks, slice, coeff, p, gains), p (K, l)
    and its gains (K, blocks, n, n), cut to each block's rows.  A compiled
    program is the stack of K = 1 (_batch stacks K of them)."""

    n: int
    m: int  # one program's coordinates
    pos: np.ndarray  # (nb,): the blocks' constraints, indices into SdpProblem.blocks()
    rows: np.ndarray  # (nb, n)
    const: np.ndarray  # (K, nb, n, n), in the loop's dtype
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
    """kernels.schur_stack's (targets, R, entries) groups from (blocks,
    terms) batches, the blocks of one constraint that share their local
    entry pairs, with the terms' coordinates one row per block.  A batch's
    entries gather from the flattened stack at precomputed positions.  A
    term's real-part entries, those with real u, come first in its basis
    (_basis_pairs) and so in every class block."""

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
                    groups[key] = (_targets(co_t, co_s, r_t.size, r_s.size, m), 2.0 * np.outer(r_t, r_s), [])
                i_tc, j_tc = i_t[:, None], j_t[:, None]
                y = None if t == s else flat(b, i_s, j_tc)
                groups[key][2].append((c_t * c_s, flat(b, i_tc, j_s), y, flat(b, i_tc, i_s), flat(b, j_tc, j_s)))
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
    entry pairs in local indices (_constraint_terms' formats).  Trace terms
    stay whole, on all the constraint's rows, until _stack cuts their gains
    to the block's rows."""

    p: int
    rows: np.ndarray
    const: np.ndarray
    lterms: list
    tterms: list


def _split(p, con, lterms, tterms) -> list:
    """The class blocks (_Block) of constraint p.  One mask per class cuts
    each LinTerm to its entry pairs there in basis order, so real-part
    entries still come first; trace terms pass whole, on all rows."""
    label = _class_labels(con, lterms, tterms)
    blocks = []
    for k in range(label.max() + 1):
        inside = label == k
        rows, loc = np.flatnonzero(inside), np.cumsum(inside) - 1
        lt = []
        for c, i, j, u, coord in lterms:
            m = inside[i]
            lt.append((c, loc[i[m]], loc[j[m]], u[m], coord[m]))
        blocks.append(_Block(p, rows, con.const[np.ix_(rows, rows)], lt, tterms))
    return blocks


def _stack(blocks, m, real_mode) -> BlockStack:
    """The stack of blocks (_Block) of one size.  The blocks of one
    constraint that share their local entry pairs form one batch of the
    Schur kernel, and each trace term spans all its constraint's blocks
    here, its gain cut to each block's rows."""
    n = blocks[0].rows.size
    ent = [(b, coeff * u, i, j, coord) for b, blk in enumerate(blocks) for coeff, i, j, u, coord in blk.lterms]
    pos, rows = np.array([blk.p for blk in blocks]), np.array([blk.rows for blk in blocks])
    batches = {}
    for b, blk in enumerate(blocks):
        local = tuple(a.tobytes() for _, i, j, u, _ in blk.lterms for a in (i, j, u))
        batches.setdefault((blk.p, *local), []).append(b)
    schur = []
    for bs in batches.values():
        lt = blocks[bs[0]].lterms
        coords = [np.array([blocks[b].lterms[k][4] for b in bs]) for k in range(len(lt))]
        schur.append((np.array(bs), [(*term[:4], co) for term, co in zip(lt, coords)]))
    tterms = []
    for p in dict.fromkeys(pos.tolist()):
        bs = np.flatnonzero(pos == p)
        r = rows[bs]
        tterms += [
            (bs, sl, coeff, pv[None], K[r[:, :, None], r[:, None, :]][None]) for sl, coeff, pv, K in blocks[bs[0]].tterms
        ]

    def cat(parts):
        return np.concatenate(parts) if parts else np.zeros(0, int)

    const = np.array([[blk.const for blk in blocks]])
    return BlockStack(
        n=n,
        m=m,
        pos=pos,
        rows=rows,
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
    var_dims: dict  # variable name -> order, in the problem's variable order
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


def compile_problem(problem: SdpProblem) -> Compiled:
    if not problem.variables:
        raise InvalidStateError("problem has no variables")
    check_capacity(problem.variables)

    real_mode = _problem_is_real(problem)
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
        static_infeasible=static_infeasible,
    )


# ---------------------------------------------------------------------------
# evaluation helpers


def apply_block(st: BlockStack, y: np.ndarray) -> np.ndarray:
    """Structural + trace-term image F_j(y) of every block of a stack, without
    the constants, for the (K, m) coordinates y of its K programs: one
    scatter of the flattened entry pairs."""
    v = st.w * y.reshape(-1)[st.coord]
    half = np.bincount(st.flat, v.real, st.const.size)
    if v.dtype.kind == "c":
        half = half + 1j * np.bincount(st.flat, v.imag, st.const.size)
    half = half.reshape(st.const.shape)
    mat = (half + dagger(half)).astype(st.const.dtype, copy=False)
    for b, sl, coeff, P, K in st.tterms:
        if len(P) == 1:  # one program: its scale in Python floats, the cheaper form
            mat[0, b] += (coeff * float(P[0] @ y[0, sl])) * K[0]
        else:  # (1 x l) @ (l x 1) per program: the dot product of one program's solve
            mat[:, b] += (coeff * (y[:, None, sl] @ P[..., None]))[..., None] * K
    return mat


def _gather_lterms(st: BlockStack, X: np.ndarray) -> np.ndarray:
    """The entry-pair part of gather_block: one gather of the flattened
    entry pairs."""
    Xf = X.reshape(-1)
    # w.conj(), not np.conj(w): a real w is then not copied
    out = np.bincount(st.coord, (st.w * Xf[st.flat_t] + st.w.conj() * Xf[st.flat]).real, len(st.const) * st.m)
    return out.astype(float, copy=False).reshape(-1, st.m)  # bincount of no entries is integer


def gather_block(st: BlockStack, X: np.ndarray) -> np.ndarray:
    """Adjoint of apply_block: the (K, m) sums over the blocks j of
    <F_ja, X_j> for the (K, nb, n, n) stack X of the blocks' matrices."""
    out = _gather_lterms(st, X)
    for b, sl, coeff, P, K in st.tterms:
        if len(P) == 1:  # one program, as in apply_block
            out[0, sl] += (coeff * float(np.real(np.trace(K[0] @ X[0, b], axis1=-2, axis2=-1)).sum())) * P[0]
        else:
            tr = (K @ X[:, b]).trace(axis1=-2, axis2=-1).real.sum(axis=1)
            out[:, sl] += (coeff * tr)[:, None] * P
    return out


def full_blocks(comp: Compiled, Xs) -> list:
    """One matrix per constraint, in SdpProblem.blocks() order, from one
    program's (nb, n, n) stack per block size: each block at its rows, zero
    between class blocks."""
    out = [np.zeros((n, n), dtype=Xs[0].dtype) for n in comp.dims]
    for st, X in zip(comp.stacks, Xs):
        for p, rows, Xb in zip(st.pos, st.rows, X):
            out[p][np.ix_(rows, rows)] = Xb
    return out


def assignments_from(comp: Compiled, y: np.ndarray) -> dict:
    return {
        name: _unhvec(y[comp.var_slices[name]], *comp.bases[name], comp.var_dims[name])
        for name in comp.var_dims
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
    Tütüncü: the matrices Gi with Gi S Giᴴ = diag(d) and Z = Giᴴ diag(d) Gi,
    and the NT matrices V = Giᴴ Gi (V S V = Z)."""

    V: np.ndarray
    Gi: np.ndarray
    d: np.ndarray


def _nt_scaling(S, Z) -> _Scaling:
    """Gi from two Cholesky factors and one SVD (module docstring), on
    (..., n, n) stacks of S and Z."""
    try:
        LS = np.linalg.cholesky(S)
        LZ = np.linalg.cholesky(Z)
        U, d, _ = np.linalg.svd(dagger(LZ) @ LS)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"NT scaling failed: {exc}") from exc
    if not (d[..., -1] > 0.0).all():
        raise NumericError("iterate lost positive definiteness")
    Gi = (1.0 / np.sqrt(d))[..., :, None] * (dagger(U) @ dagger(LZ))
    return _Scaling(hermitize(dagger(Gi) @ Gi), Gi, d)


def _lyapunov(d, T):
    """W(T) = 2T / (d_i + d_j), the entrywise solution of (W D + D W)/2 = T
    against the diagonal scaled point D = diag(d): the scaled dual direction
    a complementarity target T asks for.  For T = c I, Giᴴ W Gi = c S⁻¹."""
    return 2.0 * T / (d[..., :, None] + d[..., None, :])


def _second_order_term(dSt, dZt):
    """Mehrotra correction: the Hermitian part of the predictor's scaled
    product, so that the corrector's target, and with it dZ̃, is Hermitian."""
    return hermitize(dSt @ dZt)


def _gondzio_target(D, dSt, dZt, ap, ad, smu):
    """Scaled-space correction herding the tentative complementarity
    eigenvalues, those of (D + ap dSt)(D + ad dZt) with D the diagonal
    scaled point, into [0.1 smu, 10 smu]: the extra target, zero when no
    eigenvalue lies outside.  ap and ad are scalars or one per program, as
    (K, 1, 1, 1), and smu a scalar or one per program, as (K, 1, 1)."""
    P = hermitize((D + ap * dSt) @ (D + ad * dZt))
    pe, Pu = _eigh(P)
    lo, hi = 0.1 * smu, 10.0 * smu
    t = np.where(pe < lo, lo - pe, np.where(pe > hi, hi - pe, 0.0))
    return (Pu * t[..., None, :]) @ dagger(Pu)


def _max_step(d, dXt):
    """Largest t with diag(d) + t dXt >= 0 in every block of a program, the
    step length of a scaled direction; inf when dXt >= 0.  On the (K, nb,
    n, n) stack of K programs' blocks, with d (K, nb, n), the list of their
    K steps: one eigvalsh over all the blocks, then the least over each
    program's."""
    if not np.isfinite(dXt).all():
        raise NumericError("step length computation failed: non-finite direction")
    r = 1.0 / np.sqrt(d)
    try:
        lmin = np.linalg.eigvalsh(r[..., :, None] * dXt * r[..., None, :])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"step length computation failed: {exc}") from exc
    return [np.inf if x >= -1e-16 else 1.0 / -x for x in lmin.min(axis=-1).tolist()]


def _assemble_M(comp, Vs):
    """The (K, m, m) Newton matrices M[k, a, b] = sum_j Re tr(F_ja V_kj F_jb
    V_kj) from one (K, nb, n, n) stack of NT matrices V per block size, for
    comp's stacks (a Compiled, K = 1, or the _Batch of K programs).  A
    trace term c tr(P X) K adds c p ⊗ gather_block(V K V) to its rows: V K
    V is zero off its constraint's blocks, so the gather's trace part is the
    term's products with every trace term of its constraint, itself
    included.  Its columns take c (the entry pairs' part of that gather) ⊗
    p."""
    K, m = len(Vs[0]), comp.m
    M = np.zeros((K, m, m))
    for st, V in zip(comp.stacks, Vs):
        kernels.schur_stack(M, V, st.groups)
        for b, sl, coeff, P, Kg in st.tterms:
            VKV = np.zeros_like(V)
            if K == 1:  # one program, as in apply_block
                VKV[0, b] = V[0, b] @ Kg[0] @ V[0, b]
                M[0, sl] += coeff * np.outer(P[0], gather_block(st, VKV)[0])
                M[0, :, sl] += coeff * np.outer(_gather_lterms(st, VKV)[0], P[0])
                continue
            VKV[:, b] = V[:, b] @ Kg @ V[:, b]
            M[:, sl] += coeff * (P[:, :, None] * gather_block(st, VKV)[:, None, :])
            M[:, :, sl] += coeff * (_gather_lterms(st, VKV)[:, :, None] * P[:, None, :])
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


def _numpy_blas(*names):
    """The named functions of the OpenBLAS that numpy links (the
    scipy-openblas build of its wheels), looked up through ctypes, or None
    when numpy links another BLAS."""
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
        return tuple(getattr(lib, name) for name in names)
    except (ImportError, OSError, AttributeError):
        return None


@functools.cache
def _lapack():
    """LAPACK's dpotrf and dpotrs in numpy's OpenBLAS (64-bit integers), or
    None."""
    fns = _numpy_blas("scipy_dpotrf_64_", "scipy_dpotrs_64_")
    if fns:
        potrf, potrs = fns
        i64 = ctypes.POINTER(ctypes.c_int64)
        potrf.argtypes = [ctypes.c_char_p, i64, ctypes.c_void_p, i64, i64]
        potrs.argtypes = [ctypes.c_char_p, i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p, i64, i64]
        potrf.restype = potrs.restype = None
    return fns


def _cholesky_solver(M):
    """The solver g ↦ M⁻¹g of the symmetric positive definite M, or None
    when M has no Cholesky factor: LAPACK's dpotrf and dpotrs, which scipy's
    cho_factor and cho_solve call, in numpy's OpenBLAS.  Where numpy links
    another LAPACK, whose triangular solves numpy does not expose, the
    inverse of the Cholesky factor of D M D, D = diag(M)^-1/2, is formed
    once instead: 4 to 11 times dpotrf's cost at orders 36 to 1000, and after
    _factor_kkt's refinement a componentwise backward error of at most
    1.1e-14 against dpotrs's 7.5e-16 (330 test matrices, orders 1 to 289)."""
    lapack = _lapack()
    if lapack is None:
        dg = np.diag(M)
        if not (dg > 0.0).all():
            return None
        d = 1.0 / np.sqrt(dg)
        try:
            Li = np.linalg.inv(np.linalg.cholesky(d[:, None] * M * d)) * d
        except np.linalg.LinAlgError:
            return None
        return lambda g: Li.T @ (Li @ g)
    potrf, potrs = lapack
    k = M.shape[0]
    if M.shape != (k, k):
        raise ValueError(f"Cholesky factor of a {M.shape} array")
    # column-major, so that LAPACK's lower triangle is M's, as in scipy
    C = np.array(M, dtype=np.float64, order="F")
    n, one, info = ctypes.c_int64(k), ctypes.c_int64(1), ctypes.c_int64()
    ld = ctypes.c_int64(max(1, k))  # LAPACK refuses 0 even at order 0
    potrf(b"L", n, C.ctypes.data, ld, info)
    if info.value:
        return None

    def solve(g):
        z = np.array(g, dtype=np.float64)
        if z.shape != (k,):
            raise ValueError(f"right-hand side of shape {z.shape} for order {k}")
        potrs(b"L", n, one, C.ctypes.data, ld, z.ctypes.data, ld, info)
        return z

    return solve


def _factor_kkt(Mr, jitter):
    """Factor Mr + jitter·max(diag Mr)·I, for the reduced Newton matrix
    Mr = NᵀMN, and return the solver of Mr z = r, or None when that matrix
    has no Cholesky factor.  Equalities are eliminated (dy = N z) rather
    than bordered: Mr stays positive definite, whereas an LU solve of the
    saddle system [[M, Aᵀ], [A, 0]] loses the dual equation in the endgame
    and stalls the iterates.

    Mr is factored as it is: Cholesky's error is small relative to
    sqrt(M_ii M_jj), so equilibrating Mr first changes only rounding.  Up
    to four refinement steps against Mr itself, not the jittered matrix,
    matter once mu pushes Mr's conditioning toward the float64 cliff near
    convergence.  On the value gate's 2,020 calls, no refinement moved e_w
    at gap 1e-10 by 1.4e-8 (43 times the basis reversals' spread) and took
    12,315 gap-1e-10 iterations against 11,904-11,992; one unconditional
    step took 12,047 and left a w_dual solve at max-iterations."""
    dscale = max(float(np.diag(Mr).max(initial=0.0)), 1e-300)
    if not np.isfinite(dscale):
        # an infinite pivot zeroes its coordinate of every solve, hiding itself
        raise NumericError("KKT matrix has a non-finite diagonal")
    base = _cholesky_solver(Mr + (jitter * dscale) * np.eye(Mr.shape[0]) if jitter else Mr)
    if base is None:
        return None

    # ndarray methods rather than np.max / np.all: a solve is a few
    # microseconds of arithmetic, and those wrappers cost as much
    def solve(g):
        z = base(g)
        if not np.isfinite(z).all():
            raise NumericError("KKT solve produced non-finite step")
        gscale = max(float(np.abs(g).max(initial=0.0)), 1e-300)
        prev = np.inf
        for _ in range(4):
            r = g - Mr @ z
            rnorm = float(np.abs(r).max(initial=0.0))
            if rnorm <= 1e-15 * gscale or rnorm >= prev:
                break
            prev = rnorm
            e = base(r)
            if not np.isfinite(e).all():
                break
            z = z + e
        return z

    return solve


# ---------------------------------------------------------------------------
# BLAS threads

# Programs whose reduced Newton matrix has at least this many rows run on the
# caller's BLAS threads, smaller ones on one, where results do not depend on
# the core count.  No benchmark program comes near (tensor6's orders are 94 to
# 138).  Measured on 2 cores on random_state(d_A, d_B, 3, 7001), one solve per
# fresh process, median wall time on two threads over one, two to six runs
# each: from order 1000 up two threads win every program (e_w 0.95 at 1024,
# 0.84 at 1225, 0.92 at 1296, 0.89 at 1764; e0 0.73 at 1025, 0.76 at 1090,
# 0.65 at 1522); below it they tie (e_w 0.98-1.03 from 400 to 625, e0
# 1.00-1.04 from 290 to 442) except e0 at 485 and 626 (0.92, 0.93).
_THREADED_ORDER = 1000

# The thread count is process-global, so its bookkeeping is too.
_blas_lock = threading.Lock()
_blas_depth = 0  # solves running in this process
_blas_caller = None  # the thread count the outermost solve found


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    fns = _numpy_blas("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
    if fns:
        get, set_ = fns
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
    return fns


def _blas_threads():
    """numpy's OpenBLAS thread count, or None without thread control."""
    fns = _openblas()
    return fns[0]() if fns else None


def _set_blas_threads(n) -> None:
    fns = _openblas()
    if fns and n is not None:
        fns[1](n)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one thread of numpy's OpenBLAS.  The limit is
    process-global while any such solve runs: the outermost entry saves the
    caller's count and the last exit restores it, so nested solves, and
    solves from several Python threads, leave the count as they found it."""
    global _blas_depth, _blas_caller
    with _blas_lock:
        if _blas_depth == 0:
            _blas_caller = _blas_threads()
            _set_blas_threads(1)
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

# Programs of one layout run in lockstep at most this many at a time, which
# bounds the batch's memory: each program keeps a few dozen stacks alive.
_LOCKSTEP = 32


def layout(comp: Compiled) -> tuple:
    """Everything compiled that is not data, as a key: programs with equal
    keys run in lockstep (run_batch).  It holds m, the constraints' orders,
    A's shape and, per stack, its block size, dtype, blocks, entry pairs,
    Schur groups and trace terms' blocks, slices and coefficients.  The
    constants, c, A, b, the trace terms' p and gains, the sense and the
    constant are each program's own."""

    def key(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.shape, x.tobytes()
        if isinstance(x, (tuple, list)):
            return tuple(key(v) for v in x)
        if isinstance(x, slice):
            return x.start, x.stop
        return x

    stacks = [
        (st.n, st.const.dtype, st.pos, st.rows, st.flat, st.flat_t, st.coord, st.w, st.groups,
         [(b, sl, coeff) for b, sl, coeff, _, _ in st.tterms])
        for st in comp.stacks
    ]
    return key((comp.m, comp.dims, comp.A.shape, stacks))


def _tiled(a, step, K):
    """K copies of the index array a along its first axis, copy k offset
    by k step."""
    return (a + step * np.arange(K).reshape((K,) + (1,) * a.ndim)).reshape((K * a.shape[0],) + a.shape[1:])


def _stacked(parts) -> BlockStack:
    """The stack of K programs from their stacks of one block size."""
    st, K = parts[0], len(parts)
    size = st.const.size
    groups = tuple(
        (
            tuple(_tiled(t, st.m * st.m, K) for t in targets),
            R,
            [(cc, *(None if a is None else _tiled(a, size, K) for a in xypq)) for cc, *xypq in entries],
        )
        for targets, R, entries in st.groups
    )
    tterms = tuple(
        (b, sl, coeff, *(np.concatenate([p.tterms[t][f] for p in parts]) for f in (3, 4)))
        for t, (b, sl, coeff, _, _) in enumerate(st.tterms)
    )
    return BlockStack(
        n=st.n,
        m=st.m,
        pos=st.pos,
        rows=st.rows,
        const=np.concatenate([p.const for p in parts]),
        flat=_tiled(st.flat, size, K),
        flat_t=_tiled(st.flat_t, size, K),
        w=np.tile(st.w, K),
        coord=_tiled(st.coord, st.m, K),
        groups=groups,
        tterms=tterms,
    )


class _Batch(NamedTuple):
    """K programs of one layout as the loop reads them: their stacks, their
    objectives c (K, m), constraint norms dnorm (K, constraints) and, per
    stack, each block's place in dnorm.ravel()."""

    m: int
    stacks: list
    c: np.ndarray
    dnorm: np.ndarray
    pos: list


def _batch(comps) -> _Batch:
    lead, K = comps[0], len(comps)
    stacks = lead.stacks if K == 1 else [_stacked(parts) for parts in zip(*(c.stacks for c in comps))]
    pos = [(st.pos + lead.dnorm.size * np.arange(K)[:, None]).reshape(-1) for st in lead.stacks]
    return _Batch(lead.m, stacks, np.array([c.c for c in comps]), np.array([c.dnorm for c in comps]), pos)


def _per_program(values, ndim=4):
    """values[k] for program k, against arrays of ndim axes with a leading
    program axis: the value itself for one program, else the (K, 1, ...)
    array."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * (ndim - 1))


def _per_run(v):
    """Each program's sum of its row of v, summed as its solve alone sums
    it, as floats."""
    return v.reshape(len(v), -1).sum(axis=1).tolist()


def _steps(sc, dXt):
    """Each program's step length over all its stacks (_max_step)."""
    return [min(per_stack) for per_stack in zip(*(_max_step(s.d, X) for s, X in zip(sc, dXt)))]


def _pick(take, new, old):
    """new for the programs take, old for the others: arrays with a leading
    program axis, or lists of them."""
    K = len(new[0])
    if len(take) == K:
        return new
    mask = np.zeros(K, bool)
    mask[take] = True

    def pick(a, b):
        return np.where(mask.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)

    return tuple(
        pick(x, o) if isinstance(x, np.ndarray) else [pick(a, b) for a, b in zip(x, o)] for x, o in zip(new, old)
    )


def run(comp: Compiled, cfg) -> dict:
    """Solve one program: run_batch of one, raising the NumericError its
    start raised."""
    (out,) = run_batch([comp], cfg)
    if isinstance(out, NumericError):
        raise out
    return out


def run_batch(comps, cfg) -> list:
    """Solve programs of one layout (layout()) in lockstep, _LOCKSTEP at a
    time: per program, in order, its result, or the NumericError its start
    raised.  Each is bit for bit what the program's run returns or raises.

    Pick the BLAS thread policy once.  The equality row count stands in for
    rank(A), whose SVD must run under the policy.  The measures' pinning
    rows are independent, since they pin R per symmetry class; dependent
    rows a model program poses only make the order look smaller."""
    lead, out = comps[0], []
    with contextlib.nullcontext() if lead.m - lead.A.shape[0] >= _THREADED_ORDER else _one_blas_thread():
        # a badly scaled program overflows to inf or nan, which the checks
        # that name them (_max_step, the KKT solve, non-finite) then meet
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(0, len(comps), _LOCKSTEP):
                out += _solve(comps[i : i + _LOCKSTEP], cfg)
    return out


def _inners(X, Y):
    """Re <X_j, Y_j> for every block j of two stacks."""
    return (X.conj() * Y).sum(axis=(-2, -1)).real


class _Run:
    """One program's solve: its compiled form and equality split, and the
    record it returns (trace, the iterate returned, the step that led to
    it), its result once it stops."""

    def __init__(self, comp, eq, y, Z):
        self.comp, self.eq = comp, eq
        self.trace = []  # one row per evaluated iterate with finite measures
        # the iterate returned, the last one that left a trace row or the start:
        # (iteration, y, the batch's Z and the program's place on its axis, lam, pobj, dobj)
        self.snap = (0, y, Z, 0, np.zeros(comp.b.size), float("nan"), float("nan"))
        self.last_step = dict.fromkeys(("alpha_p", "alpha_d", "sigma", "kkt_jitter"), float("nan"))
        self.result = None
        self.cinf = 1.0 + float(np.max(np.abs(comp.c)))
        self.ynorm0 = 1.0 + float(np.max(np.abs(y), initial=0.0))
        self.znorm0 = sum(float(Zk.diagonal(0, -2, -1).real.sum()) for Zk in Z) + 1.0

    def finish(self, status, stop, detail=""):
        it, y, Z, k, lam, pobj, dobj = self.snap
        comp = self.comp
        self.result = {
            "status": status,
            "stop": stop,
            "stop_detail": detail,
            "primal_value": comp.sense_mult * pobj + comp.constant,
            "dual_value": comp.sense_mult * dobj + comp.constant,
            "assignments": assignments_from(comp, y),
            "iterations": it,
            "dual_blocks": full_blocks(comp, [X[k] for X in Z]),
            "eq_duals": lam,
            "trace": self.trace,
        }


def _solve(comps, cfg) -> list:
    """Start every program (iteration 0), then iterate those still going
    in lockstep."""
    out, starts = [], []
    for comp in comps:
        try:
            eq = _split_equalities(comp.A)  # A is fixed for the whole run
            y = eq.pinv(comp.b)
            if not np.all(np.isfinite(y)):
                raise NumericError("equality start A⁺b is not finite")
        except NumericError as exc:
            out.append(exc)
            continue
        # every block starts from its constraint's constant norm; (1, nb, n, n) stacks
        dtype = [st.const.dtype for st in comp.stacks]
        S = [
            np.maximum(1.0, comp.dnorm[st.pos])[None, :, None, None] * np.eye(st.n, dtype=t)
            for st, t in zip(comp.stacks, dtype)
        ]
        zscale = max(1.0, float(np.max(np.abs(comp.c))))
        Z = [np.full((1,) + st.pos.shape + (1, 1), zscale) * np.eye(st.n, dtype=t) for st, t in zip(comp.stacks, dtype)]
        r = _Run(comp, eq, y, Z)
        out.append(r)
        binf = 1.0 + float(np.max(np.abs(comp.b), initial=0.0))
        if comp.static_infeasible or float(np.max(np.abs(comp.A @ y - comp.b), initial=0.0)) > cfg.feas_tol * binf:
            r.finish("infeasible", "static-infeasible")
        elif not comp.stacks:
            # No cone at all: the problem is a pure linear program over equalities;
            # out of scope for the measures here, treat as numeric failure.
            r.finish("numeric-failure", "no-cone")
        else:
            starts.append((r, y, S, Z))
    if starts:
        runs, ys, Ss, Zs = zip(*starts)
        stack = [np.concatenate(parts) for parts in zip(*Ss)], [np.concatenate(parts) for parts in zip(*Zs)]
        _iterate(list(runs), np.array(ys), *stack, 1, cfg)
    return [r.result if isinstance(r, _Run) else r for r in out]


def _iterate(runs, y, S, Z, start, cfg) -> None:
    """The loop, over runs of one layout in lockstep from iteration start
    at the iterate (y, S, Z): y is (K, m), S and Z one (K, nb, n, n) stack
    per block size.  Sums over a program's blocks and coordinates are taken
    as its solve alone takes them; the KKT factors and solves, the scalars
    and the stop rules are each run's own.  A run that stops leaves the
    batch.  A NumericError in a batch of several (one failing block fails a
    stacked cholesky, svd, eigh or eigvalsh) sends every run still going on
    alone from that iteration's iterate, where only the failing one stops
    numeric-error."""
    lead = runs[0].comp
    m, Ntot = lead.m, sum(st.pos.size * st.n for st in lead.stacks)
    batch = _batch([r.comp for r in runs])
    for it in range(start, cfg.max_iterations + 1):
        K, stacks = len(runs), batch.stacks
        Rp = [st.const + apply_block(st, y) - Sk for st, Sk in zip(stacks, S)]
        adjZ = sum(gather_block(st, Zk) for st, Zk in zip(stacks, Z))
        # per program, each sum over its blocks taken as its solve alone takes it
        inner = [_per_run(_inners(Zk, Sk)) for Zk, Sk in zip(Z, S)]
        pobj = (batch.c[:, None, :] @ y[:, :, None]).reshape(K).tolist()  # one dot product per program
        zc = [_per_run(_inners(Zk, st.const)) for st, Zk in zip(stacks, Z)]
        # each constraint's Frobenius norm, over all its blocks (inf on a diverging iterate)
        sq = sum(
            np.bincount(pk, (Rk.conj() * Rk).real.sum(axis=(-2, -1)).reshape(-1), batch.dnorm.size)
            for pk, Rk in zip(batch.pos, Rp)
        ).reshape(K, -1)
        pinf = (np.sqrt(sq) / (1.0 + batch.dnorm)).max(axis=1).tolist()
        ynorm = np.abs(y).max(axis=1).tolist()
        slack = [_per_run(np.abs(_inners(Zk, Rk))) for Zk, Rk in zip(Z, Rp)]
        zdiag = [_per_run(Zk.diagonal(0, -2, -1).real) for Zk in Z]
        rd = np.zeros((K, m))
        for k, r in enumerate(runs):
            if r.result is not None:  # stopped on its KKT factor
                continue
            comp = r.comp
            lam = r.eq.pinv_t(comp.c + adjZ[k])
            rd[k] = -comp.c - adjZ[k] + comp.A.T @ lam
            mu_k, pobj_lin, pinf_k, ynorm_k = sum(part[k] for part in inner) / Ntot, pobj[k], pinf[k], ynorm[k]
            dobj_lin = sum(part[k] for part in zc) + float(lam @ comp.b)
            dinf = float(np.abs(rd[k]).max()) / r.cinf
            pu, du = comp.sense_mult * pobj_lin + comp.constant, comp.sense_mult * dobj_lin + comp.constant
            relgap = abs(pobj_lin - dobj_lin) / max(1.0, abs(pu), abs(du))

            # 2 max|y|: the assignments' m + m† must stay finite too
            if not all(map(math.isfinite, (mu_k, pobj_lin, dobj_lin, pinf_k, dinf, 2.0 * ynorm_k))):
                r.finish("numeric-failure", "non-finite")
                continue
            r.trace.append(
                {
                    "iteration": it,
                    "mu": mu_k,
                    "primal_value": pu,
                    "dual_value": du,
                    "pobj_lin": pobj_lin,
                    "dobj_lin": dobj_lin,
                    "relgap": relgap,
                    "pinf": pinf_k,
                    "dinf": dinf,
                    "residual_slack": sum((part[k] for part in slack), abs(float(rd[k] @ y[k]))),
                    **r.last_step,
                }
            )

            # y and Z are rebound, never changed in place, so the snapshot
            # needs no copies
            r.snap = (it, y[k], Z, k, lam, pobj_lin, dobj_lin)

            if pinf_k <= cfg.feas_tol and dinf <= cfg.dual_stop and relgap <= cfg.gap_tol:
                r.finish("optimal", "optimal")
                continue

            # ray tests: an iterate grown 1e7-fold is, at unit size, a near-certificate of
            # infeasibility (Z, with a near-zero dual residual) or of unboundedness (y:
            # F(y) = S - C + Rp with S PSD, so F(y/ynorm) is within (|C| + |Rp|)/ynorm of PSD)
            znorm = sum(part[k] for part in zdiag) + float(np.abs(lam).sum())
            if znorm > 1e7 * r.znorm0:
                ray_res = float(np.abs(adjZ[k] - comp.A.T @ lam).max()) / znorm
                if ray_res <= 1e-8 and dobj_lin / znorm < -1e-8:
                    r.finish("infeasible", "infeasible")
                    continue
            if ynorm_k > 1e7 * r.ynorm0:
                ray_res = float((comp.dnorm + np.sqrt(sq[k])).max()) / ynorm_k
                if ray_res <= 1e-8 and pobj_lin / ynorm_k > 1e-8:
                    r.finish("unbounded", "unbounded")
                    continue
            r.mu, r.scale = mu_k, max(1.0, abs(pu), abs(du))

        keep = [k for k, r in enumerate(runs) if r.result is None]
        if not keep:
            return
        if len(keep) < K:
            runs, y, rd = [runs[k] for k in keep], y[keep], rd[keep]
            S, Z, Rp = ([X[keep] for X in Xs] for Xs in (S, Z, Rp))
            batch = _batch([r.comp for r in runs])
            K, stacks = len(runs), batch.stacks

        try:
            sc = [_nt_scaling(Sk, Zk) for Sk, Zk in zip(S, Z)]
            # each program's reduced Newton matrix; the full ones go before the factors
            Mr = [r.eq.reduce(Mk) for r, Mk in zip(runs, _assemble_M(batch, [s.V for s in sc]))]
            kkt, jitters = [], []
            for r, Mk in zip(runs, Mr):
                # a failed factor retries once, jittered by 1e-14 of Mr's largest diagonal
                # entry: 1,201 of 20,137 value-gate steps did; 1e-12 to 1e-8 never fired
                for jitter in (0.0, 1e-14):
                    solver = _factor_kkt(Mk, jitter)
                    if solver is not None:
                        break
                else:
                    r.finish("numeric-failure", "kkt-factor")
                kkt.append(solver)
                jitters.append(jitter)
            live = [k for k, r in enumerate(runs) if r.result is None]
            # the predictor's right-hand side, which every target adds to
            rhs_a = [-Zk - s.V @ Rk @ s.V for s, Zk, Rk in zip(sc, Z, Rp)]
            D = [s.d[..., :, None] * np.eye(st.n) for st, s in zip(stacks, sc)]

            def direction(T, tau, solved):
                """Newton directions toward the scaled targets T (None: the
                predictor's zero target) on the current factors, dy = 0 for
                the programs not solved: dy, dS, the scaled pair (dS̃, dZ̃)
                and the damped step lengths."""
                if T is None:
                    rhs, E = rhs_a, [-Dk for Dk in D]
                else:
                    W = [_lyapunov(s.d, Tk) for s, Tk in zip(sc, T)]
                    rhs = [dagger(s.Gi) @ Wk @ s.Gi + Hk for s, Wk, Hk in zip(sc, W, rhs_a)]
                    E = [Wk - Dk for Wk, Dk in zip(W, D)]  # dZ̃ = E − dS̃
                g = -rd + sum(gather_block(st, Hk) for st, Hk in zip(stacks, rhs))
                dy = np.zeros((K, m))
                for k in solved:
                    eq = runs[k].eq
                    dy[k] = eq.extend(kkt[k](eq.restrict(g[k])))
                dS = [Rk + apply_block(st, dy) for st, Rk in zip(stacks, Rp)]
                dSt = [s.Gi @ dSk @ dagger(s.Gi) for s, dSk in zip(sc, dS)]
                dZt = [Ek - dStk for Ek, dStk in zip(E, dSt)]
                ap = [min(1.0, tau * step) for step in _steps(sc, dSt)]
                ad = [min(1.0, tau * step) for step in _steps(sc, dZt)]
                return dy, dS, dSt, dZt, ap, ad

            # predictor: pure Newton step toward feasibility and zero product
            _, _, dSt_a, dZt_a, ap_a, ad_a = direction(None, 1.0, live)
            p, a = _per_program(ap_a), _per_program(ad_a)
            mu_aff = [_per_run(_inners(Dk + a * dZk, Dk + p * dSk)) for Dk, dZk, dSk in zip(D, dZt_a, dSt_a)]
            sigma, smu = [0.0] * K, [0.0] * K
            for k in live:
                mu = runs[k].mu
                aff = max(sum(part[k] for part in mu_aff) / Ntot, 0.0)
                sigma[k] = min(1.0, max(0.0, aff / mu)) ** 3 if mu > 0 else 0.1
                # never aim below the barrier level the gap tolerance needs:
                # overshooting just wrecks the Newton system's conditioning
                mu_needed = 0.3 * cfg.gap_tol * runs[k].scale / Ntot
                if mu > 0:
                    sigma[k] = min(0.99, max(sigma[k], mu_needed / mu))
                smu[k] = sigma[k] * mu

            # corrector: recenter and absorb the second-order product term
            sm, sm_eig = _per_program(smu), _per_program(smu, 3)  # against stacks, and their eigenvalues
            Tc = [sm * np.eye(st.n) - _second_order_term(dSk, dZk) for st, dSk, dZk in zip(stacks, dSt_a, dZt_a)]
            tau = 0.98  # share of the way to the cone boundary a corrector step takes
            dy, dS, dSt, dZt, ap, ad = direction(Tc, tau, live)

            # extra centrality correctors: when the step is short, herd the
            # outlier complementarity products back toward sigma*mu and
            # re-solve on the same factorization; degenerate endgames often
            # recover a full step this way when a single corrector stalls.
            want = live
            for _ in range(3):
                want = [k for k in want if min(ap[k], ad[k]) < 0.85]
                if not want:
                    break
                p, a = (_per_program([min(1.0, x + 0.3) for x in xs]) for xs in (ap, ad))
                targets = [_gondzio_target(Dk, dSk, dZk, p, a, sm_eig) for Dk, dSk, dZk in zip(D, dSt, dZt)]
                Tg = [Tk + Hk for Tk, Hk in zip(Tc, targets)]
                dy2, dS2, dSt2, dZt2, ap2, ad2 = direction(Tg, tau, want)
                want = [k for k in want if not min(ap2[k], ad2[k]) < min(ap[k], ad[k]) + 0.02]
                if want:
                    dy, dS, dSt, dZt, Tc = _pick(want, (dy2, dS2, dSt2, dZt2, Tg), (dy, dS, dSt, dZt, Tc))
                    for k in want:
                        ap[k], ad[k] = ap2[k], ad2[k]
            dZ = [hermitize(dagger(s.Gi) @ dZk @ s.Gi) for s, dZk in zip(sc, dZt)]
        except NumericError as exc:
            if K == 1:
                runs[0].finish("numeric-failure", "numeric-error", str(exc))
                return
            for k, r in enumerate(runs):
                if r.result is None:  # a run stopped on its KKT factor stays stopped
                    r.trace.pop()
                    _iterate([r], y[k : k + 1], [X[k : k + 1] for X in S], [X[k : k + 1] for X in Z], it, cfg)
            return

        if len(live) < K:  # a run stopped on its KKT factor keeps its iterate
            ap, ad = ([x if r.result is None else 0.0 for x, r in zip(xs, runs)] for xs in (ap, ad))
        p, a = _per_program(ap), _per_program(ad)
        y = y + _per_program(ap, 2) * dy
        S = [Sk + p * dSk for Sk, dSk in zip(S, dS)]
        Z = [Zk + a * dZk for Zk, dZk in zip(Z, dZ)]
        for k in live:
            runs[k].last_step = {"alpha_p": ap[k], "alpha_d": ad[k], "sigma": sigma[k], "kkt_jitter": jitters[k]}

    for r in runs:
        if r.result is None:
            r.finish("numeric-failure", "max-iterations")
