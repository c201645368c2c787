import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbound.errors import DomainError, InvalidDimsError
from entbound.linalg import ptranspose_arr
from entbound.states import (
    LocalKrausChannel,
    StateEnsemble,
    antisym_state,
    apply_local_channel,
    kron_power_state,
    max_entangled,
    random_local_channel,
    random_pure_state,
    random_separable,
    random_state,
    rho_alpha,
    sigma_r,
    tensor_state,
)


def assert_valid_state(rho):
    assert abs(np.trace(rho.mat).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho.mat)[0] > -1e-9
    assert np.max(np.abs(rho.mat - rho.mat.conj().T)) == 0.0


def test_max_entangled_is_rank_one_uniform():
    for d in (2, 3, 4):
        phi = max_entangled(d)
        assert_valid_state(phi)
        vals = np.sort(np.linalg.eigvalsh(phi.mat))[::-1]
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.max(np.abs(vals[1:])) < 1e-12
        # reduced state is maximally mixed
        red = phi.mat.reshape(d, d, d, d).trace(axis1=1, axis2=3)
        assert np.allclose(red, np.eye(d) / d, atol=1e-12)


def test_max_entangled_rejects_bad_dim():
    with pytest.raises(DomainError):
        max_entangled(1)


def test_sigma_r_family():
    st3 = sigma_r(0.3)
    assert st3.d_a == 2 and st3.d_b == 2
    assert_valid_state(st3)
    assert np.sum(np.linalg.eigvalsh(st3.mat) > 1e-9) == 2
    with pytest.raises(DomainError):
        sigma_r(0.0)
    with pytest.raises(DomainError):
        sigma_r(1.0)


def test_rho_alpha_family():
    ra = rho_alpha(0.25)
    assert ra.d_a == 3 and ra.d_b == 3
    assert_valid_state(ra)
    with pytest.raises(DomainError):
        rho_alpha(0.0)
    with pytest.raises(DomainError):
        rho_alpha(0.6)


def test_antisym_state_lives_on_antisymmetric_subspace():
    sig = antisym_state()
    assert sig.d_a == 3 and sig.d_b == 3
    assert_valid_state(sig)
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1.0
    assert np.max(np.abs(swap @ sig.mat + sig.mat)) < 1e-12
    vals = np.sort(np.linalg.eigvalsh(sig.mat))[::-1]
    assert np.allclose(vals[:3], 1.0 / 3.0, atol=1e-12)
    assert np.max(np.abs(vals[3:])) < 1e-12


def test_random_state_is_seed_deterministic():
    a = random_state(2, 3, rank=2, seed=5)
    b = random_state(2, 3, rank=2, seed=5)
    c = random_state(2, 3, rank=2, seed=6)
    assert np.array_equal(a.mat, b.mat)
    assert not np.array_equal(a.mat, c.mat)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_state_respects_rank_and_validity(seed):
    rng = np.random.default_rng(seed)
    d_a, d_b = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
    rank = int(rng.integers(1, d_a * d_b + 1))
    rho = random_state(d_a, d_b, rank=rank, seed=seed)
    assert_valid_state(rho)
    vals = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    assert np.sum(vals > 1e-9) == rank


def test_random_state_rejects_bad_rank():
    with pytest.raises(DomainError):
        random_state(2, 2, rank=5, seed=0)
    with pytest.raises(DomainError):
        random_state(2, 2, rank=0, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: max_entangled(2.5),
        lambda: random_state(2, 2, 1.5, seed=1),
        lambda: random_separable(2, 2, 1.5, seed=1),
        lambda: rho_alpha("0.3"),
        lambda: sigma_r("0.3"),
    ],
    ids=["max_entangled", "random_state", "random_separable", "rho_alpha", "sigma_r"],
)
def test_state_constructors_reject_non_numeric_parameters(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("seed", ["x", 1.5, -1, None, True])
@pytest.mark.parametrize(
    "make",
    [
        lambda seed: random_state(2, 2, 1, seed),
        lambda seed: random_separable(2, 2, 2, seed),
        lambda seed: random_local_channel(2, 2, 1, 1, seed),
    ],
    ids=["random_state", "random_separable", "random_local_channel"],
)
def test_random_generators_require_a_non_negative_integer_seed(make, seed):
    with pytest.raises(DomainError, match="seed"):
        make(seed)


def test_random_state_rejects_non_integer_dims():
    with pytest.raises(InvalidDimsError):
        random_state(2.5, 2, 1, seed=1)


def test_random_pure_state_is_pure():
    psi = random_pure_state(3, 3, seed=9)
    assert_valid_state(psi)
    assert abs(np.trace(psi.mat @ psi.mat).real - 1.0) < 1e-10


def test_random_separable_is_ppt():
    for seed in range(6):
        sep = random_separable(2, 3, terms=4, seed=seed)
        assert_valid_state(sep)
        pt = ptranspose_arr(sep.mat, 2, 3)
        assert np.linalg.eigvalsh(pt)[0] > -1e-10


def test_tensor_state_dims_and_spectrum():
    a = random_state(2, 2, rank=2, seed=21)
    b = random_state(2, 2, rank=3, seed=22)
    ab = tensor_state(a, b)
    assert ab.d_a == 4 and ab.d_b == 4
    assert_valid_state(ab)
    va = np.linalg.eigvalsh(a.mat)
    vb = np.linalg.eigvalsh(b.mat)
    want = np.sort(np.outer(va, vb).ravel())
    got = np.sort(np.linalg.eigvalsh(ab.mat))
    assert np.max(np.abs(got - want)) < 1e-10


def test_kron_power_matches_tensor():
    rho = random_state(2, 2, rank=2, seed=31)
    two = kron_power_state(rho, 2)
    ref = tensor_state(rho, rho)
    assert np.max(np.abs(two.mat - ref.mat)) < 1e-12
    with pytest.raises(DomainError):
        kron_power_state(rho, True)


def _identity_channel():
    return LocalKrausChannel(kraus_a=(np.eye(2),), kraus_b=(np.eye(2),), pairing=((0, 0),))


def test_local_kraus_channel_validates_completeness():
    good = _identity_channel()
    assert isinstance(good, LocalKrausChannel)
    with pytest.raises(DomainError, match="complete"):
        LocalKrausChannel(
            kraus_a=(0.5 * np.eye(2),), kraus_b=(np.eye(2),), pairing=((0, 0),)
        )
    with pytest.raises(DomainError, match="pairing"):
        LocalKrausChannel(
            kraus_a=(np.eye(2),), kraus_b=(np.eye(2),), pairing=((0, 3),)
        )


def test_identity_channel_fixes_state():
    rho = random_state(2, 2, rank=3, seed=41)
    ens = apply_local_channel(rho, _identity_channel())
    assert len(ens.members) == 1
    p, post = ens.members[0]
    assert abs(p - 1.0) < 1e-12
    assert np.max(np.abs(post.mat - rho.mat)) < 1e-12


def test_apply_local_channel_probabilities_sum_to_one():
    rho = random_state(2, 2, rank=4, seed=43)
    ch = random_local_channel(2, 2, n_a=2, n_b=2, seed=44)
    ens = apply_local_channel(rho, ch)
    total = sum(p for p, _ in ens.members)
    assert abs(total - 1.0) < 1e-9
    for p, post in ens.members:
        assert p > 0
        assert_valid_state(post)


def test_random_local_channel_is_seed_deterministic():
    c1 = random_local_channel(2, 2, n_a=2, n_b=2, seed=7)
    c2 = random_local_channel(2, 2, n_a=2, n_b=2, seed=7)
    for k1, k2 in zip(c1.kraus_a, c2.kraus_a):
        assert np.array_equal(k1, k2)


@pytest.mark.parametrize(
    "args, error",
    [
        ((2, 2, 0, 2), DomainError),
        ((2, 2, 1.5, 2), DomainError),
        ((2.5, 2, 1, 2), InvalidDimsError),
        ((0, 2, 1, 2), InvalidDimsError),
    ],
    ids=["no-kraus-elements", "non-integer-count", "non-integer-dim", "zero-dim"],
)
def test_random_local_channel_rejects_bad_sizes(args, error):
    with pytest.raises(error):
        random_local_channel(*args, seed=1)


@pytest.mark.parametrize(
    "kraus_a, pairing",
    [
        ((np.diag([np.nan, 1.0]),), ((0, 0),)),
        (("ab",), ((0, 0),)),
        ((np.eye(2),), ((0.5, 0),)),
        ((np.eye(2),), ((0,),)),
    ],
    ids=["nan-element", "string-element", "non-integer-index", "short-pair"],
)
def test_local_kraus_channel_rejects_bad_elements_and_pairings(kraus_a, pairing):
    with pytest.raises(DomainError):
        LocalKrausChannel(kraus_a=kraus_a, kraus_b=(np.eye(2),), pairing=pairing)


@pytest.mark.parametrize("prob", [float("nan"), "0.5"], ids=["nan", "string"])
def test_state_ensemble_rejects_non_numeric_probabilities(prob):
    phi = max_entangled(2)
    with pytest.raises(DomainError):
        StateEnsemble(((prob, phi), (0.5, phi)))


_I2 = np.eye(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LocalKrausChannel((_I2,), (_I2,), 5),
        lambda: LocalKrausChannel(5, (_I2,), ((0, 0),)),
        lambda: StateEnsemble(5),
        lambda: StateEnsemble(((1.0,),)),
        lambda: apply_local_channel(sigma_r(0.5), "x"),
    ],
    ids=["pairing-not-a-sequence", "kraus-family-not-a-sequence", "members-not-a-sequence",
         "member-not-a-pair", "channel-not-a-channel"],
)
def test_malformed_containers_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()
