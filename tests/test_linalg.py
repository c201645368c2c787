import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbound.errors import InvalidDimsError, InvalidStateError
from entbound.linalg import (
    BipartiteDims,
    HermitianMatrix,
    eigh_desc,
    hermitize,
    make_state,
    negative_projector,
    op_norm_arr,
    partial_transpose,
    ptranspose_arr,
    symmetry_pattern,
    trace_norm_arr,
)
from entbound.states import antisym_state, max_entangled, random_state, rho_alpha, sigma_r, tensor_state


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_hermitian_matrix_symmetrizes_small_noise():
    base = random_hermitian(4, 0)
    noisy = base + 1e-14 * np.triu(np.ones((4, 4)), k=1)
    m = HermitianMatrix(noisy)
    assert np.max(np.abs(m.mat - m.mat.conj().T)) == 0.0


def test_hermitize_symmetrizes_each_matrix_of_a_stack():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    got = hermitize(stack)
    assert got.shape == (2, 3, 3)
    for g, m in zip(got, stack):
        assert np.array_equal(g, hermitize(m))
        assert np.array_equal(g, 0.5 * (m + m.conj().T))


def test_hermitian_matrix_rejects_large_asymmetry():
    mat = np.eye(3, dtype=complex)
    mat[0, 1] = 0.5
    with pytest.raises(InvalidStateError, match="not Hermitian"):
        HermitianMatrix(mat)


def test_hermitian_matrix_is_immutable():
    m = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.mat[0, 0] = 3.0


def test_partial_transpose_matches_index_reshuffle():
    d_a, d_b = 2, 3
    mat = random_hermitian(d_a * d_b, 1)
    got = ptranspose_arr(mat, d_a, d_b)
    blocks = mat.reshape(d_a, d_b, d_a, d_b)
    want = blocks.transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
    assert np.array_equal(got, want)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_partial_transpose_is_an_involution(seed):
    rng = np.random.default_rng(seed)
    d_a, d_b = rng.choice([2, 3]), rng.choice([2, 3])
    mat = random_hermitian(d_a * d_b, seed)
    twice = ptranspose_arr(ptranspose_arr(mat, d_a, d_b), d_a, d_b)
    assert np.array_equal(twice, mat)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rho = random_state(2, 3, rank=4, seed=7)
    pt = partial_transpose(rho.rho, rho.dims)
    assert abs(np.trace(pt.mat) - 1.0) < 1e-12
    assert np.max(np.abs(pt.mat - pt.mat.conj().T)) == 0.0


def test_bell_partial_transpose_spectrum():
    phi = max_entangled(2)
    pt = ptranspose_arr(phi.mat, 2, 2)
    vals = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_trace_norm_and_op_norm_agree_with_eigenvalues():
    mat = random_hermitian(5, 3)
    vals = np.linalg.eigvalsh(mat)
    assert abs(trace_norm_arr(mat) - np.sum(np.abs(vals))) < 1e-10
    assert abs(op_norm_arr(mat) - np.max(np.abs(vals))) < 1e-10


def test_eigh_desc_orders_descending():
    vals, vecs = eigh_desc(random_hermitian(6, 4))
    assert np.all(np.diff(vals) <= 0)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - random_hermitian(6, 4))) < 1e-10


def test_negative_projector_catches_negative_eigenspace():
    mat = np.diag([1.0, -0.5, -0.2, 0.0])
    p = negative_projector(HermitianMatrix(mat)).mat
    assert np.allclose(np.diag(p), [0, 1, 1, 0], atol=1e-12)


def test_make_state_validates_trace():
    with pytest.raises(InvalidStateError, match="trace"):
        make_state(np.eye(4) / 3.0, 2, 2)


def test_make_state_validates_psd():
    mat = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(InvalidStateError, match="PSD"):
        make_state(mat, 2, 2)


def test_make_state_rejects_non_finite_entries():
    with pytest.raises(InvalidStateError, match="non-finite"):
        make_state(np.diag([np.nan, 0.5, 0.5, 0.0]), 2, 2)
    with pytest.raises(InvalidStateError, match="non-finite"):
        HermitianMatrix(np.diag([np.inf, 1.0]))


@pytest.mark.parametrize(
    "mat, d_a, d_b",
    [([[10**400, 0], [0, 0]], 2, 1), ([[1.0, 0.0], [0.0]], 2, 1), ("abc", 1, 1)],
)
def test_make_state_rejects_non_numeric_input(mat, d_a, d_b):
    # an integer beyond float range, ragged rows, a string
    with pytest.raises(InvalidStateError, match="not an array of complex floats"):
        make_state(mat, d_a, d_b)


def test_make_state_validates_dims_product():
    with pytest.raises(InvalidDimsError):
        make_state(np.eye(4) / 4.0, 2, 3)
    with pytest.raises(InvalidDimsError):
        make_state(np.eye(4) / 4.0, 2.5, 1.6)  # 2.5 * 1.6 = 4
    assert make_state(np.eye(4) / 4.0, np.int64(2), 2).dims.total == 4


def test_bipartite_dims_reject_nonpositive():
    with pytest.raises(InvalidDimsError):
        BipartiteDims(0, 2)
    with pytest.raises(InvalidDimsError):
        BipartiteDims(True, 2)


def test_symmetry_pattern_of_a_random_state_keeps_every_entry():
    assert symmetry_pattern(random_state(3, 4, 2, 7004).mat, 3, 4).sum() == 144


@pytest.mark.parametrize(
    "rho, kept",
    [
        (rho_alpha(0.5), 15),
        (tensor_state(sigma_r(0.5), rho_alpha(0.3)), 240),
    ],
    ids=["rho_alpha", "sigma_r x rho_alpha"],
)
def test_symmetry_pattern_kept_entries(rho, kept):
    assert symmetry_pattern(rho.mat, rho.d_a, rho.d_b).sum() == kept


def test_symmetry_patterns_of_a_state_and_its_partial_transpose_differ():
    rho = rho_alpha(0.5)
    mask = symmetry_pattern(rho.mat, 3, 3)
    mask_pt = symmetry_pattern(ptranspose_arr(rho.mat, 3, 3), 3, 3)
    assert not np.array_equal(mask, mask_pt)
    # the partial transpose only moves entries, so it moves the pattern too
    assert np.array_equal(mask_pt, ptranspose_arr(mask, 3, 3))


@pytest.mark.parametrize(
    "mat, d_a, d_b",
    [
        (rho_alpha(0.3).mat, 3, 3),
        (ptranspose_arr(rho_alpha(0.3).mat, 3, 3), 3, 3),
        (sigma_r(0.5).mat, 2, 2),
        (antisym_state().mat, 3, 3),
        (max_entangled(3).mat, 3, 3),
        (tensor_state(sigma_r(0.35), rho_alpha(0.25)).mat, 6, 6),
        (np.diag(np.arange(1.0, 7.0)), 2, 3),
        (np.zeros((4, 4)), 2, 2),
    ],
    ids=["rho_alpha", "rho_alpha-pt", "sigma_r", "antisym", "phi3", "tensor6", "diagonal", "zero"],
)
def test_symmetry_pattern_is_an_algebra_holding_the_matrix(mat, d_a, d_b):
    mask = symmetry_pattern(mat, d_a, d_b)
    assert mask.dtype == bool
    assert np.array_equal(mask, mask.T)
    assert mask.diagonal().all()
    assert mask[np.abs(mat) > 1e-13].all()
    # products of matrices on the pattern stay on it
    rng = np.random.default_rng(3)
    x, y = (np.where(mask, rng.standard_normal(mask.shape), 0.0) for _ in range(2))
    assert np.all((x @ y)[~mask] == 0.0)


def test_symmetry_pattern_rejects_mismatched_dims():
    with pytest.raises(InvalidDimsError):
        symmetry_pattern(np.eye(4), 2, 3)
