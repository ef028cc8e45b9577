"""Correlation moments of symmetric states and their multi-index layouts.

The order-l tensor holds all 3^l expectation values of l-fold Pauli products.
Multi-indices encode to integers in base 3 with x -> 0, y -> 1, z -> 2 and the
leftmost axis most significant, which coincides with C-order flattening of the
(3, ..., 3) value array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ._pauli import AXES, MAX_FULL_QUBITS, SIGMA, dicke_basis_matrix
from .states import SymmetricState, reduced_state

IMAG_ATOL = 1e-10
# Qubits per side of one embedding tile: a 2^9 x 2^9 complex tile is 4 MB.
TILE_QUBITS = 9

_AXIS_CODE = {a: i for i, a in enumerate(AXES)}


@dataclass(frozen=True)
class MultiIndex:
    """Ordered tuple of Cartesian axes addressing one tensor entry."""

    axes: tuple[str, ...]

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if not axes:
            raise ValueError("multi-index needs at least one axis")
        for a in axes:
            if a not in _AXIS_CODE:
                raise ValueError(f"axis must be one of {AXES}, got {a!r}")
        object.__setattr__(self, "axes", axes)

    @property
    def rank(self) -> int:
        return len(self.axes)

    def code(self) -> int:
        out = 0
        for a in self.axes:
            out = 3 * out + _AXIS_CODE[a]
        return out

    @classmethod
    def from_code(cls, rank: int, code: int) -> "MultiIndex":
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if not 0 <= code < 3**rank:
            raise ValueError(f"code must lie in 0..{3**rank - 1}, got {code}")
        axes = []
        for _ in range(rank):
            axes.append(AXES[code % 3])
            code //= 3
        return cls(tuple(reversed(axes)))

    @classmethod
    def from_string(cls, text: str) -> "MultiIndex":
        return cls(tuple(text))

    def __str__(self) -> str:
        return "".join(self.axes)


@dataclass
class CorrelationTensor:
    """Order-l moment array; values has shape (3,) * order and real entries."""

    order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        order = int(self.order)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        values = np.array(self.values, dtype=float)
        if values.shape != (3,) * order:
            raise ValueError(
                f"values must have shape {(3,) * order}, got {values.shape}"
            )
        values.setflags(write=False)
        self.order = order
        self.values = values

    def value_at(self, index: MultiIndex) -> float:
        if index.rank != self.order:
            raise ValueError(f"index rank {index.rank} != tensor order {self.order}")
        return float(self.values[tuple(_AXIS_CODE[a] for a in index.axes)])


def correlation_tensor(rho: SymmetricState, order: int) -> CorrelationTensor:
    """All order-l Pauli moments of the state.

    Reduces to l qubits in the Dicke basis and embeds into the 2^l
    computational space one 2^9 x 2^9 tile at a time: the tile for leading
    row and column bit patterns (a, b) of the l - 9 leading qubits is
    V_a r V_b^dagger, with V_a the rows of the embedding whose leading bits
    are a.  Each tile's 9 trailing qubits are contracted against the Pauli
    stack, then the leading qubits of the stacked results, last qubit first.
    Working memory is a few tiles plus 4^(l-9) x 3^9 partial sums, about
    14 MB at l = 10 and under 64 MB at l = 12.  For l <= 9 there is one tile
    and the arithmetic is that of a single full embedding.  Orders above
    ``MAX_FULL_QUBITS`` are refused.
    """
    n = rho.n_qubits
    if not 1 <= order <= n:
        raise ValueError(f"order must lie in 1..{n}, got {order}")
    if order > MAX_FULL_QUBITS:
        raise ValueError(
            f"moment order {order} exceeds the largest supported order {MAX_FULL_QUBITS}"
        )
    basis = dicke_basis_matrix(order)
    rows = basis @ reduced_state(rho, order).dicke_matrix
    cols = basis.conj().T
    lead = max(0, order - TILE_QUBITS)
    tail = order - lead
    side = 1 << tail
    block = np.empty((1 << lead, 1 << lead) + (3,) * tail, dtype=complex)
    for a in range(1 << lead):
        for b in range(1 << lead):
            tile = rows[a * side : (a + 1) * side] @ cols[:, b * side : (b + 1) * side]
            tile = tile.reshape((2,) * (2 * tail))
            for remaining in range(tail, 0, -1):
                tile = _trace_pair(tile, remaining)
            block[a, b] = tile
    # rebinding block at each step frees the larger array before the next one
    block = block.reshape((2,) * (2 * lead) + (3,) * tail)
    for remaining in range(lead, 0, -1):
        block = _trace_pair(block, remaining)
    values = block.transpose(tuple(range(order - 1, -1, -1)))
    worst_imag = float(np.abs(values.imag).max())
    if worst_imag > IMAG_ATOL:
        raise ArithmeticError(
            f"moment tensor should be real; residual imaginary part {worst_imag:g}"
        )
    return CorrelationTensor(order, values.real)


def _trace_pair(block: np.ndarray, remaining: int) -> np.ndarray:
    """Contract the last of the first r = remaining qubit pairs with sigma[i, b, a].

    The block's first 2r axes are r row qubits a_0..a_{r-1} then r column
    qubits b_0..b_{r-1}; a_{r-1} and b_{r-1} are traced out and the new Pauli
    axis i goes last.
    """
    return np.tensordot(block, SIGMA, axes=([remaining - 1, 2 * remaining - 1], [2, 1]))


def moment_column(tensor: CorrelationTensor) -> np.ndarray:
    """Flatten to the 3^l column in base-3 index order."""
    return tensor.values.reshape(-1).copy()


def moment_matrix(tensor: CorrelationTensor) -> np.ndarray:
    """Reshape an even-order tensor to the 3^k x 3^k matrix T[i, j] = T[i || j]."""
    if tensor.order % 2 != 0:
        raise ValueError(f"moment matrix needs even order, got {tensor.order}")
    side = 3 ** (tensor.order // 2)
    return tensor.values.reshape(side, side).copy()


def tensor_to_payload(tensor: CorrelationTensor) -> dict[str, Any]:
    """Serialize to {"order": l, "encoding": "base3-xyz", "values": [...]}."""
    return {
        "order": tensor.order,
        "encoding": "base3-xyz",
        "values": [float(v) for v in moment_column(tensor)],
    }


def tensor_from_payload(payload: dict[str, Any]) -> CorrelationTensor:
    """Inverse of :func:`tensor_to_payload`."""
    if payload.get("encoding") != "base3-xyz":
        raise ValueError(f"unknown tensor encoding {payload.get('encoding')!r}")
    order = int(payload["order"])
    values = np.asarray(payload["values"], dtype=float)
    if values.size != 3**order:
        raise ValueError(f"expected {3**order} values, got {values.size}")
    return CorrelationTensor(order, values.reshape((3,) * order))
