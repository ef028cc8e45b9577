"""Pauli matrices, Pauli-string stacks, and the Dicke-to-computational embedding.

Axis encoding is fixed everywhere: x -> 0, y -> 1, z -> 2, leftmost axis most
significant in base-3 multi-index codes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

AXES = ("x", "y", "z")

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Stack indexed by axis code 0..2.
SIGMA = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
SIGMA.setflags(write=False)

# Dense 2^n matrices get big fast; 4096 x 4096 is the largest we ever build.
MAX_FULL_QUBITS = 12


@lru_cache(maxsize=None)
def pauli_string_stack(k: int) -> np.ndarray:
    """All 3^k Pauli strings on k qubits as a (3^k, 2^k, 2^k) stack, base-3 ordered."""
    if k < 1:
        raise ValueError(f"string length must be >= 1, got {k}")
    if k == 1:
        return SIGMA
    prev = pauli_string_stack(k - 1)
    # kron(prev[i], SIGMA[j]) lands at stack position i*3 + j
    out = np.einsum("iab,jcd->ijacbd", prev, SIGMA)
    out = out.reshape(3**k, 2**k, 2**k)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def dicke_basis_matrix(n: int) -> np.ndarray:
    """(2^n, n+1) matrix whose column p is the Dicke vector with p excitations.

    Column p is the normalized uniform superposition of the C(n, p)
    computational strings holding exactly p ones.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if n > MAX_FULL_QUBITS:
        raise ValueError(
            f"full-space embedding capped at {MAX_FULL_QUBITS} qubits, got {n}"
        )
    dim = 1 << n
    pops = np.array([bin(i).count("1") for i in range(dim)])
    basis = np.zeros((dim, n + 1), dtype=complex)
    basis[np.arange(dim), pops] = 1.0 / np.sqrt([comb(n, int(p)) for p in pops])
    basis.setflags(write=False)
    return basis


def dicke_to_computational(dicke_matrix: np.ndarray) -> np.ndarray:
    """Embed an operator on the symmetric subspace into the full 2^n space."""
    n = dicke_matrix.shape[0] - 1
    basis = dicke_basis_matrix(n)
    return basis @ dicke_matrix @ basis.conj().T
