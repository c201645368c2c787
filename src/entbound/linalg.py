"""Dense complex linear algebra for bipartite operators.

Composite index convention: |a>_A |b>_B maps to row a*d_B + b (row-major).
All logarithms elsewhere in the package are base 2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimsError, InvalidStateError, NumericError

HERMITICITY_ATOL = 1e-12
RANK_TOL = 1e-9
# an entry or imaginary part at most this large counts as zero when the
# solver picks its coordinates (real mode, symmetry pattern)
ZERO_ENTRY_ATOL = 1e-13


def _as_complex(mat, what: str = "matrix") -> np.ndarray:
    """mat as a square complex array with finite entries."""
    try:
        arr = np.asarray(mat, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidStateError(f"{what} is not an array of complex floats: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidDimsError(f"{what} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError(f"{what} has non-finite entries")
    return arr


def is_integer(x) -> bool:
    """x is an integer (numpy integers included) and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """x is a finite real number (numpy scalars included) and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def dagger(mat: np.ndarray) -> np.ndarray:
    """m†, over the last two axes of a stack of matrices."""
    return np.swapaxes(mat.conj(), -1, -2)


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return (m + m†)/2, slice by slice on a stack of matrices, without
    validating how asymmetric m was."""
    return 0.5 * (mat + dagger(mat))


def checked_hermitian(mat, what: str = "matrix") -> np.ndarray:
    """mat as a square complex array, symmetrized after checking that no
    entry of |m - m†| exceeds 1e-12; InvalidStateError names `what`."""
    arr = _as_complex(mat, what)
    asym = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if asym > HERMITICITY_ATOL:
        raise InvalidStateError(
            f"{what} is not Hermitian: max |m - m†| = {asym:.3e} > {HERMITICITY_ATOL:.0e}"
        )
    return hermitize(arr)


class HermitianMatrix:
    """Square complex matrix certified Hermitian at construction.

    Entries with |m - m†| above 1e-12 (per entry) are rejected; smaller
    asymmetry is removed by symmetrization so it cannot drift through
    downstream arithmetic.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat):
        sym = checked_hermitian(mat)
        sym.setflags(write=False)
        self._mat = sym

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class BipartiteDims:
    d_a: int
    d_b: int

    def __post_init__(self):
        if not all(is_integer(d) and d >= 1 for d in (self.d_a, self.d_b)):
            raise InvalidDimsError(f"subsystem dims must be integers >= 1, got {(self.d_a, self.d_b)}")

    @property
    def total(self) -> int:
        return self.d_a * self.d_b


TRACE_ATOL = 1e-8
PSD_ATOL = 1e-9


@dataclass(frozen=True)
class BipartiteState:
    """Validated density operator on A⊗B."""

    rho: HermitianMatrix
    dims: BipartiteDims

    def __post_init__(self):
        if self.rho.dim != self.dims.total:
            raise InvalidDimsError(
                f"state dim {self.rho.dim} != d_A*d_B = {self.dims.total}"
            )
        tr = float(np.real(np.trace(self.rho.mat)))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvalidStateError(f"trace(rho) = {tr!r}, off by {abs(tr - 1.0):.3e} > {TRACE_ATOL:.0e}")
        lmin = float(np.linalg.eigvalsh(self.rho.mat)[0])
        if lmin < -PSD_ATOL:
            raise InvalidStateError(f"rho is not PSD: min eigenvalue = {lmin:.3e} < -{PSD_ATOL:.0e}")

    @property
    def mat(self) -> np.ndarray:
        return self.rho.mat

    @property
    def d_a(self) -> int:
        return self.dims.d_a

    @property
    def d_b(self) -> int:
        return self.dims.d_b


def make_state(mat, d_a: int, d_b: int) -> BipartiteState:
    """Wrap a raw array as a validated BipartiteState."""
    return BipartiteState(HermitianMatrix(mat), BipartiteDims(d_a, d_b))


def ptranspose_arr(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Partial transpose over the B factor of a raw (d_a*d_b)-dim array."""
    n = d_a * d_b
    if mat.shape != (n, n):
        raise InvalidDimsError(f"matrix shape {mat.shape} does not match dims {(d_a, d_b)}")
    return (
        mat.reshape(d_a, d_b, d_a, d_b)
        .transpose(0, 3, 2, 1)
        .reshape(n, n)
    )


def partial_transpose(m: HermitianMatrix, dims: BipartiteDims) -> HermitianMatrix:
    """Transpose the B indices: output[(a,b),(c,d)] = m[(a,d),(c,b)]."""
    if m.dim != dims.total:
        raise InvalidDimsError(f"matrix dim {m.dim} != d_A*d_B = {dims.total}")
    return HermitianMatrix(ptranspose_arr(m.mat, dims.d_a, dims.d_b))


def symmetry_pattern(mat, d_a: int, d_b: int) -> np.ndarray:
    """Entries that every diagonal local unitary D_A ⊗ D_B fixing mat leaves
    unchanged, as a symmetric boolean mask with a True diagonal.

    Index p = (a, b) has the character c_p = e_a + f_b in Z^(d_A+d_B), and
    D_A ⊗ D_B = diag(exp(iθ·c_p)) multiplies entry (p, q) by exp(iθ·χ) with
    χ = c_p − c_q.  The connected group fixing mat is the θ orthogonal to L,
    the span of χ over the entries above ZERO_ENTRY_ATOL, and averaging over
    it keeps exactly the entries with χ in L (Gatermann & Parrilo, J. Pure
    Appl. Algebra 192 (2004)).  One projection of every c_p onto L's
    complement decides all n² pairs: χ is in L when both ends project alike."""
    dims = BipartiteDims(d_a, d_b)
    arr = _as_complex(mat)
    n = dims.total
    if arr.shape[0] != n:
        raise InvalidDimsError(f"matrix dim {arr.shape[0]} != d_A*d_B = {n}")
    idx = np.arange(n)
    chars = np.zeros((n, d_a + d_b))
    chars[idx, idx // d_b] = 1.0
    chars[idx, d_a + idx % d_b] = 1.0
    p, q = np.nonzero(np.abs(arr) > ZERO_ENTRY_ATOL)
    _, s, vt = np.linalg.svd(chars[p] - chars[q], full_matrices=False)
    span = vt[s > 1e-9 * s.max(initial=0.0)]
    outside = chars - (chars @ span.T) @ span
    # characters are integer vectors, so a χ outside L is far from it
    return np.abs(outside[:, None, :] - outside[None, :, :]).max(axis=2) < 1e-6


def eigh_desc(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with eigenvalues sorted descending."""
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        res = float(np.linalg.norm(mat - mat.conj().T))
        raise NumericError(f"eigendecomposition failed (asymmetry residual {res:.3e}): {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def trace_norm_arr(mat: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def op_norm_arr(mat: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(mat)
    return float(np.max(np.abs(vals)))


def negative_projector(m: HermitianMatrix) -> HermitianMatrix:
    """Projector onto eigenvectors with eigenvalue < -RANK_TOL * max|eig|; zero for PSD input."""
    vals, vecs = eigh_desc(m.mat)
    cutoff = RANK_TOL * float(np.max(np.abs(vals))) if vals.size else 0.0
    keep = vecs[:, vals < -cutoff]
    if keep.shape[1] == 0:
        return HermitianMatrix(np.zeros_like(m.mat))
    return HermitianMatrix(keep @ keep.conj().T)
