"""Brute-force ground truth in the full 2^N space.

Everything here is deliberately direct: dense density matrices, one Pauli
transform of the full matrix, reshape-based partial traces and partial
transposes.  Nothing reads the compact Dicke-basis code paths, so they can be
checked against it entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pauli import (
    IDENTITY_2,
    MAX_FULL_QUBITS,
    SIGMA,
    dicke_basis_matrix,
    pauli_string_stack,
)
from .states import BlochDirection, SymmetricState, product_state

IMAG_ATOL = 1e-10
DENSITY_ATOL = 1e-10

# Row a, column 2*r + c holds (I, X, Y, Z)[a][c, r], so contracting it with
# M[r, c] gives Tr[M sigma_a] on one qubit.
_PAULI_TRACE_MAP = (
    np.concatenate([IDENTITY_2[None], SIGMA]).transpose(0, 2, 1).reshape(4, 4)
)


class ConsistencyError(ArithmeticError):
    """A quantity that must be real (or otherwise exact) came out wrong."""


@dataclass
class FullState:
    """Dense 2^N x 2^N density matrix on the computational basis.

    A complex array given as the matrix is taken over, not copied: it is made
    read-only in place, so the caller must not write to it afterwards.  Any
    other input is converted to a new complex array.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n_qubits)
        if not 1 <= n <= MAX_FULL_QUBITS:
            raise ValueError(
                f"full-space states support 1..{MAX_FULL_QUBITS} qubits, got {n}"
            )
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.shape != (1 << n, 1 << n):
            raise ValueError(
                f"matrix must be ({1 << n}, {1 << n}), got {matrix.shape}"
            )
        matrix.setflags(write=False)
        self.n_qubits = n
        self.matrix = matrix


@dataclass
class SeparableEnsemble:
    """Convex mixture of coherent product states: weights plus one direction each."""

    weights: np.ndarray
    directions: tuple[BlochDirection, ...]
    seed: int

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size != len(self.directions):
            raise ValueError("need one weight per direction")
        if weights.min() < 0.0 or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        weights.setflags(write=False)
        self.weights = weights
        self.directions = tuple(self.directions)
        self.seed = int(self.seed)


def embed_full(rho: SymmetricState) -> FullState:
    """Expand a Dicke-basis state into the full computational space."""
    n = rho.n_qubits
    if n > MAX_FULL_QUBITS:
        raise ValueError(
            f"full-space embedding capped at {MAX_FULL_QUBITS} qubits, got {n}"
        )
    basis = dicke_basis_matrix(n)
    return FullState(n, basis @ rho.dicke_matrix @ basis.conj().T)


def project_to_dicke(fs: FullState) -> SymmetricState:
    """Compress a symmetric-subspace-supported full state back to the Dicke basis."""
    basis = dicke_basis_matrix(fs.n_qubits)
    compact = basis.conj().T @ fs.matrix @ basis
    leak = abs(float(np.trace(compact).real) - float(np.trace(fs.matrix).real))
    if leak > 1e-9:
        raise ConsistencyError(
            f"state leaks weight {leak:g} outside the symmetric subspace"
        )
    return SymmetricState(fs.n_qubits, compact)


def pauli_transform(matrix: np.ndarray) -> np.ndarray:
    """Every Pauli expectation Tr[M (s_1 x ... x s_m)] of a 2^m x 2^m matrix.

    Returns a real (4,) * m array indexed 0 = identity, 1 = x, 2 = y, 3 = z
    per qubit, leftmost qubit first.  The matrix is contracted one qubit at a
    time against (I, X, Y, Z), O(m 4^m) in total, between two buffers the size
    of the matrix, so the working memory is twice the matrix plus the result.
    """
    m = np.asarray(matrix)
    dim = m.shape[0] if m.ndim == 2 else 0
    n = dim.bit_length() - 1
    if n < 1 or m.shape != (1 << n, 1 << n):
        raise ValueError(f"need a 2^m x 2^m matrix with m >= 1, got shape {m.shape}")
    # (r_1..r_m, c_1..c_m) -> (r_1 c_1, ..., r_m c_m): one length-4 axis per qubit
    order = np.arange(2 * n).reshape(2, n).T.ravel()
    values = np.empty((4,) * n, dtype=complex)
    np.copyto(values.reshape((2,) * (2 * n)), m.reshape((2,) * (2 * n)).transpose(order))
    spare = np.empty_like(values)
    for _ in range(n):
        # contract the leading qubit; its Pauli axis is appended at the end
        np.matmul(values.reshape(4, -1).T, _PAULI_TRACE_MAP.T, out=spare.reshape(-1, 4))
        values, spare = spare, values
    del spare  # free it before the real part is copied out
    residual = float(np.abs(values.imag).max())
    if residual > IMAG_ATOL:
        raise ConsistencyError(
            f"Pauli expectations should be real, got imaginary part {residual:g}"
        )
    return np.ascontiguousarray(values.real)


def correlation_tensor_oracle(fs: FullState, order: int) -> np.ndarray:
    """Order-l moment array: the x/y/z entries of the first l qubits' transform."""
    n = fs.n_qubits
    if not 1 <= order <= n:
        raise ValueError(f"order must lie in 1..{n}, got {order}")
    return pauli_transform(ptrace_full(fs, order).matrix)[(slice(1, None),) * order]


def covariance_oracle(fs: FullState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(c_block, a_block) of the 2k-order variance matrix, by direct expectations."""
    n = fs.n_qubits
    if 2 * k > n:
        raise ValueError(f"group size {k} needs at least {2 * k} qubits, got {n}")
    t2k = correlation_tensor_oracle(fs, 2 * k).reshape(3**k, 3**k)
    tk = correlation_tensor_oracle(fs, k).reshape(-1)
    c_block = t2k - np.outer(tk, tk)
    rho_k = ptrace_full(fs, k).matrix
    strings = pauli_string_stack(k)
    # gram[i, j] = Tr[rho_k s_i s_j]
    gram = np.einsum("ab,ibc,jca->ij", rho_k, strings, strings, optimize=True)
    sym = (gram + gram.T) / 2.0
    if np.abs(sym.imag).max() > IMAG_ATOL:
        raise ConsistencyError("symmetrized intra-group moments should be real")
    a_block = sym.real - np.outer(tk, tk)
    return c_block, a_block


def ptrace_full(fs: FullState, n_keep: int) -> FullState:
    """Partial trace keeping the first n_keep qubits (any choice works by symmetry)."""
    n = fs.n_qubits
    if not 1 <= n_keep <= n:
        raise ValueError(f"n_keep must lie in 1..{n}, got {n_keep}")
    if n_keep == n:
        return FullState(n, fs.matrix)
    dim_keep = 1 << n_keep
    dim_rest = 1 << (n - n_keep)
    block = fs.matrix.reshape(dim_keep, dim_rest, dim_keep, dim_rest)
    return FullState(n_keep, np.einsum("arbr->ab", block))


def ppt_min_eigenvalue(rho2: FullState) -> float:
    """Minimum eigenvalue of the partial transpose (second qubit) of a 2-qubit state."""
    if rho2.n_qubits != 2:
        raise ValueError(f"PPT check needs a two-qubit state, got {rho2.n_qubits}")
    m = rho2.matrix
    if np.abs(m - m.conj().T).max() > DENSITY_ATOL:
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > DENSITY_ATOL:
        raise ValueError("matrix does not have unit trace")
    if np.linalg.eigvalsh(m)[0] < -DENSITY_ATOL:
        raise ValueError("matrix is not positive semidefinite")
    transposed = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(transposed)[0])


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for independent parallel samples."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def sample_separable(
    n_qubits: int, terms: int, seed: int
) -> tuple[SeparableEnsemble, SymmetricState]:
    """Random fully separable symmetric state: convex mix of coherent states.

    Directions are uniform on the sphere (area measure), weights uniform on
    the simplex; every draw is fixed by the seed.
    """
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    if terms < 1:
        raise ValueError(f"need at least one mixture term, got {terms}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights = rng.dirichlet(np.ones(terms)) if terms > 1 else np.ones(1)
    thetas = np.arccos(1.0 - 2.0 * rng.random(terms))
    phis = 2.0 * np.pi * rng.random(terms)
    directions = tuple(BlochDirection(t, p) for t, p in zip(thetas, phis))
    matrix = np.zeros((n_qubits + 1, n_qubits + 1), dtype=complex)
    for weight, direction in zip(weights, directions):
        matrix += weight * product_state(n_qubits, direction).dicke_matrix
    ensemble = SeparableEnsemble(weights, directions, seed)
    return ensemble, SymmetricState(n_qubits, matrix)


def random_symmetric_state(
    n_qubits: int, rank: int | None = None, seed: int | np.random.Generator = 0
) -> SymmetricState:
    """Random density matrix on the symmetric subspace (Ginibre construction)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim = n_qubits + 1
    r = dim if rank is None else max(1, int(rank))
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    matrix = g @ g.conj().T
    return SymmetricState(n_qubits, matrix / np.trace(matrix).real)


def su2_from_rotation(r_matrix: np.ndarray) -> np.ndarray:
    """The 2x2 unitary whose conjugation action realizes the SO(3) rotation.

    Convention: U^dag sigma_i U = sum_j R[i, j] sigma_j, so moment columns
    transform as T' = R T when the state is conjugated by U on every qubit.
    """
    # scipy is imported here, not at module scope, so that importing symcov
    # (and the CLI, which never rotates) loads numpy only.
    from scipy.spatial.transform import Rotation

    rotvec = Rotation.from_matrix(np.asarray(r_matrix, dtype=float)).as_rotvec()
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-15:
        return np.eye(2, dtype=complex)
    axis = rotvec / angle
    n_dot_sigma = sum(axis[i] * SIGMA[i] for i in range(3))
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * n_dot_sigma


def rotated_symmetric_state(rho: SymmetricState, r_matrix: np.ndarray) -> SymmetricState:
    """Apply the same local rotation to every qubit, via full-space conjugation."""
    u = su2_from_rotation(r_matrix)
    u_all = np.eye(1, dtype=complex)
    for _ in range(rho.n_qubits):
        u_all = np.kron(u_all, u)
    full = embed_full(rho)
    return project_to_dicke(FullState(rho.n_qubits, u_all @ full.matrix @ u_all.conj().T))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random SO(3) matrix from a random rotation vector."""
    from scipy.spatial.transform import Rotation

    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi)
    return Rotation.from_rotvec(angle * axis).as_matrix()
