"""Constructors for the named bipartite states and families used throughout,
plus seeded random state/channel generators for property-test corpora."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimsError, InvalidStateError
from .linalg import BipartiteDims, BipartiteState, _as_complex, is_finite_real, is_integer, make_state

_COMPLETENESS_ATOL = 1e-10
_PROB_ATOL = 1e-9
_OUTCOME_CUTOFF = 1e-12


def _check_integer(x, what: str, least: int) -> None:
    if not (is_integer(x) and x >= least):
        raise DomainError(f"{what} must be an integer >= {least}, got {x!r}")


def _as_tuple(items, what: str) -> tuple:
    try:
        return tuple(items)
    except TypeError as exc:
        raise DomainError(f"{what} must be a sequence, got {items!r}") from exc


def max_entangled(d: int) -> BipartiteState:
    """Phi(d) = (1/d) sum_{i,j} |ii><jj| on d tensor d."""
    _check_integer(d, "max_entangled d", 2)
    psi = np.zeros(d * d, dtype=np.complex128)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return make_state(np.outer(psi, psi.conj()), d, d)


def sigma_r(r: float) -> BipartiteState:
    """Rank-2 mixture r|v0><v0| + (1-r)|v1><v1| on 2 tensor 2,
    v0 = (|10> - |11>)/sqrt2, v1 = (|00> + |10> + |11>)/sqrt3."""
    if not (is_finite_real(r) and 0.0 < r < 1.0):
        raise DomainError(f"sigma_r requires a real 0 < r < 1, got {r!r}")
    v0 = np.array([0.0, 0.0, 1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0)
    v1 = np.array([1.0, 0.0, 1.0, 1.0], dtype=np.complex128) / np.sqrt(3.0)
    mat = r * np.outer(v0, v0.conj()) + (1.0 - r) * np.outer(v1, v1.conj())
    return make_state(mat, 2, 2)


def rho_alpha(alpha: float) -> BipartiteState:
    """Rank-3 family on 3 tensor 3: equal mixture of
    |psi_m> = sqrt(alpha)|m,m+1> + sqrt(1-alpha)|m+1,m>, indices mod 3."""
    if not (is_finite_real(alpha) and 0.0 < alpha <= 0.5):
        raise DomainError(f"rho_alpha requires a real 0 < alpha <= 0.5, got {alpha!r}")
    mat = np.zeros((9, 9), dtype=np.complex128)
    a, b = np.sqrt(alpha), np.sqrt(1.0 - alpha)
    for m in range(3):
        mm = (m + 1) % 3
        psi = np.zeros(9, dtype=np.complex128)
        psi[3 * m + mm] = a
        psi[3 * mm + m] = b
        mat += np.outer(psi, psi.conj()) / 3.0
    return make_state(mat, 3, 3)


def antisym_state() -> BipartiteState:
    """Normalized projector onto the 3-dimensional antisymmetric subspace
    of 3 tensor 3 (span of |ij> - |ji| for i < j)."""
    mat = np.zeros((9, 9), dtype=np.complex128)
    for i in range(3):
        for j in range(i + 1, 3):
            v = np.zeros(9, dtype=np.complex128)
            v[3 * i + j] = 1.0 / np.sqrt(2.0)
            v[3 * j + i] = -1.0 / np.sqrt(2.0)
            mat += np.outer(v, v.conj()) / 3.0
    return make_state(mat, 3, 3)


def random_state(d_a: int, d_b: int, rank: int, seed: int) -> BipartiteState:
    """Ginibre-induced random state of the requested rank; deterministic per seed."""
    n = BipartiteDims(d_a, d_b).total
    if not (is_integer(rank) and 1 <= rank <= n):
        raise DomainError(f"rank must be an integer in [1, {n}], got {rank!r}")
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
    mat = g @ g.conj().T
    return make_state(mat / np.trace(mat).real, d_a, d_b)


def random_pure_state(d_a: int, d_b: int, seed: int) -> BipartiteState:
    return random_state(d_a, d_b, 1, seed)


def random_separable(d_a: int, d_b: int, terms: int, seed: int) -> BipartiteState:
    """Convex mixture of random product pure states; PPT by construction."""
    BipartiteDims(d_a, d_b)  # checks the dims before they size any array
    _check_integer(terms, "terms", 1)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(terms))
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=np.complex128)
    for t in range(terms):
        a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        v = np.kron(a, b)
        mat += probs[t] * np.outer(v, v.conj())
    return make_state(mat, d_a, d_b)


@dataclass(frozen=True)
class LocalKrausChannel:
    """Product-form Kraus families with outcomes labeled by index pairs.

    Each side is complete on its own: sum K^dag K = I within 1e-10. The
    pairing selects which (A outcome, B outcome) combinations are kept as
    joint outcomes; total outcome probability is validated at apply time.
    """

    kraus_a: tuple
    kraus_b: tuple
    pairing: tuple

    def __post_init__(self):
        for attr, side in (("kraus_a", "A"), ("kraus_b", "B")):
            try:
                ks = tuple(
                    _as_complex(k, f"side {side} Kraus element")
                    for k in _as_tuple(getattr(self, attr), f"side {side} Kraus family")
                )
            except InvalidStateError as exc:  # non-numeric or non-finite entries
                raise DomainError(str(exc)) from exc
            if not ks:
                raise DomainError(f"side {side} has no Kraus elements")
            d = ks[0].shape[0]
            if d == 0 or any(k.shape != (d, d) for k in ks):
                raise InvalidDimsError(f"side {side} Kraus elements must share a square shape")
            total = sum(k.conj().T @ k for k in ks)
            dev = float(np.max(np.abs(total - np.eye(d))))
            if dev > _COMPLETENESS_ATOL:
                raise DomainError(f"side {side} Kraus family not complete (deviation {dev:.3e})")
            object.__setattr__(self, attr, ks)
        object.__setattr__(self, "pairing", _as_tuple(self.pairing, "pairing"))
        for pair in self.pairing:
            if not (
                isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(is_integer, pair))
                and 0 <= pair[0] < len(self.kraus_a) and 0 <= pair[1] < len(self.kraus_b)
            ):
                raise DomainError(f"pairing {pair!r} is not a pair of indices into the Kraus families")

    @property
    def d_a(self) -> int:
        return self.kraus_a[0].shape[0]

    @property
    def d_b(self) -> int:
        return self.kraus_b[0].shape[0]


@dataclass(frozen=True)
class StateEnsemble:
    members: tuple  # of (probability, BipartiteState)

    def __post_init__(self):
        object.__setattr__(self, "members", _as_tuple(self.members, "ensemble members"))
        total = 0.0
        for member in self.members:
            if not (isinstance(member, (tuple, list)) and len(member) == 2):
                raise DomainError(f"ensemble member {member!r} is not a (probability, state) pair")
            prob, state = member
            if not (is_finite_real(prob) and prob >= 0):
                raise DomainError(f"ensemble probability {prob!r} is not a finite real number >= 0")
            if not isinstance(state, BipartiteState):
                raise DomainError("ensemble members must be BipartiteState values")
            total += prob
        if abs(total - 1.0) > _PROB_ATOL:
            raise DomainError(f"ensemble probabilities sum to {total}, not 1")


def apply_local_channel(rho: BipartiteState, ch: LocalKrausChannel) -> StateEnsemble:
    """Outcome ensemble of (K_A tensor K_B) rho (.)^dag over the channel pairing.

    Outcomes below probability 1e-12 are dropped; the kept probabilities must
    still total 1 (the pairing has to cover a trace-preserving family)."""
    if not isinstance(ch, LocalKrausChannel):
        raise DomainError(f"apply_local_channel needs a LocalKrausChannel, got {ch!r}")
    if (ch.d_a, ch.d_b) != (rho.dims.d_a, rho.dims.d_b):
        raise DomainError(
            f"channel acts on {ch.d_a}x{ch.d_b}, state is {rho.dims.d_a}x{rho.dims.d_b}"
        )
    members = []
    total = 0.0
    for ia, ib in ch.pairing:
        op = np.kron(ch.kraus_a[ia], ch.kraus_b[ib])
        out = op @ rho.mat @ op.conj().T
        prob = float(np.trace(out).real)
        total += prob
        if prob < _OUTCOME_CUTOFF:
            continue
        members.append((prob, make_state(out / prob, rho.dims.d_a, rho.dims.d_b)))
    if abs(total - 1.0) > _PROB_ATOL:
        raise DomainError(
            f"channel pairing keeps total probability {total:.12g}; it must be trace preserving"
        )
    return StateEnsemble(tuple(members))


def random_local_channel(d_a: int, d_b: int, n_a: int, n_b: int, seed: int) -> LocalKrausChannel:
    """Random trace-preserving local Kraus families with full outcome pairing."""
    BipartiteDims(d_a, d_b)
    _check_integer(n_a, "Kraus count n_a", 1)
    _check_integer(n_b, "Kraus count n_b", 1)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)

    def family(d, n):
        gs = [
            (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
            for _ in range(n)
        ]
        total = sum(g.conj().T @ g for g in gs)
        w, u = np.linalg.eigh(total)
        inv_half = (u / np.sqrt(w)) @ u.conj().T
        return tuple(g @ inv_half for g in gs)

    pairing = tuple((i, j) for i in range(n_a) for j in range(n_b))
    return LocalKrausChannel(kraus_a=family(d_a, n_a), kraus_b=family(d_b, n_b), pairing=pairing)


def tensor_state(a: BipartiteState, b: BipartiteState) -> BipartiteState:
    """Tensor product regrouped so both A factors precede both B factors."""
    da1, db1 = a.dims.d_a, a.dims.d_b
    da2, db2 = b.dims.d_a, b.dims.d_b
    big = np.kron(a.mat, b.mat)
    big = big.reshape(da1, db1, da2, db2, da1, db1, da2, db2)
    big = big.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    n = da1 * db1 * da2 * db2
    return make_state(big.reshape(n, n), da1 * da2, db1 * db2)


def kron_power_state(rho: BipartiteState, n: int) -> BipartiteState:
    """n-fold tensor power with (A...A)(B...B) subsystem regrouping."""
    _check_integer(n, "kron power n", 1)
    out = rho
    for _ in range(n - 1):
        out = tensor_state(out, rho)
    return out
