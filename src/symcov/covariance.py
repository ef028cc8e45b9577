"""Inter-group covariance matrices and the negativity criterion.

For two disjoint groups of k qubits each, the covariance block is

    C[i, j] = T2k[i, j] - Tk[i] * Tk[j]

with T2k the order-2k moment matrix and Tk the order-k moment column.  For a
fully separable symmetric state C is positive semidefinite, so any negative
eigenvalue (or negative principal minor) certifies entanglement across the
2k-qubit partition.  The certificate is sufficient for every k and also
necessary for k = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from ._pauli import dicke_to_computational, pauli_string_stack
from .states import SymmetricState, reduced_state
from .tensors import MultiIndex, correlation_tensor, moment_column, moment_matrix

SYMMETRY_ATOL = 1e-10
IMAG_ATOL = 1e-10
DEFAULT_TOL = 1e-9


class CovarianceMatrix:
    """Blocks of the order-2k variance matrix for two k-qubit groups.

    c_block holds the inter-group covariances, a_block the (identical)
    intra-group blocks built from symmetrized second moments.  Either block
    may be given as an array, checked here for shape and symmetry.  a_block
    may instead be a zero-argument builder: it then runs on the first read of
    ``a_block``, gets the same checks, and its result is cached, so a caller
    that reads only C never pays for A.  Both blocks are read-only.
    """

    def __init__(
        self,
        k: int,
        c_block: np.ndarray,
        a_block: Union[np.ndarray, Callable[[], np.ndarray]],
    ) -> None:
        k = int(k)
        if k < 1:
            raise ValueError(f"group size must be >= 1, got {k}")
        self.k = k
        self.c_block = _checked_block("c_block", c_block, k)
        self._a_builder: Optional[Callable[[], np.ndarray]] = None
        if callable(a_block):
            self._a_builder = a_block
        else:
            self._a_block = _checked_block("a_block", a_block, k)

    @property
    def a_block(self) -> np.ndarray:
        """The intra-group block; a builder given for it runs on the first read."""
        if self._a_builder is not None:
            self._a_block = _checked_block("a_block", self._a_builder(), self.k)
            self._a_builder = None
        return self._a_block


def _checked_block(name: str, block: Any, k: int) -> np.ndarray:
    """A read-only float copy of a 3^k x 3^k symmetric block; ValueError otherwise."""
    side = 3**k
    out = np.array(block, dtype=float)
    if out.shape != (side, side):
        raise ValueError(f"{name} must be ({side}, {side}), got {out.shape}")
    if np.abs(out - out.T).max() > SYMMETRY_ATOL:
        raise ValueError(f"{name} is not symmetric")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MinorCertificate:
    """Principal minor witnessing negativity: row/column codes plus the minor value."""

    indices: tuple[int, ...]
    value: float

    def index_strings(self, k: int) -> list[str]:
        return [str(MultiIndex.from_code(k, i)) for i in self.indices]


@dataclass
class WitnessCertificate:
    """Real vector X with X^T C X < 0."""

    vector: np.ndarray
    value: float

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=float)
        vector.setflags(write=False)
        self.vector = vector


Certificate = Union[MinorCertificate, WitnessCertificate]


@dataclass
class NegativityReport:
    """Outcome of the negativity test for one state and one group size."""

    n_qubits: int
    k: int
    min_eigenvalue: float
    entangled: bool
    certificate: Optional[Certificate]
    tolerance: float


def covariance_matrix(rho: SymmetricState, k: int) -> CovarianceMatrix:
    """Assemble the covariance blocks for group size k (needs 2k <= N).

    The inter-group block comes straight from moment arithmetic and is built
    here.  The intra-group block is built on the first read of ``a_block``
    (see :func:`_intra_group_block`); the negativity test never reads it.
    """
    n = rho.n_qubits
    if k < 1:
        raise ValueError(f"group size must be >= 1, got {k}")
    if 2 * k > n:
        raise ValueError(f"group size {k} needs at least {2 * k} qubits, got {n}")
    t_col = moment_column(correlation_tensor(rho, k))
    t_mat = moment_matrix(correlation_tensor(rho, 2 * k))
    c_block = t_mat - np.outer(t_col, t_col)
    c_block = (c_block + c_block.T) / 2.0
    return CovarianceMatrix(k, c_block, lambda: _intra_group_block(rho, k, t_col))


def _intra_group_block(rho: SymmetricState, k: int, t_col: np.ndarray) -> np.ndarray:
    """A[i, j] = Re Tr[rho_k {s_i, s_j}] / 2 - Tk[i] Tk[j] on the k-qubit reduction.

    Operator products on a shared group need the reduction embedded in the
    2^k space.  The Gram matrix Tr[rho_k s_i s_j] is one complex matrix
    product: the strings are Hermitian, so s_j[b, a] = conj(s_j[a, b]).
    """
    rho_k = dicke_to_computational(reduced_state(rho, k).dicke_matrix)
    strings = pauli_string_stack(k)
    m = strings.shape[0]
    products = np.matmul(rho_k, strings)
    gram = products.reshape(m, -1) @ strings.reshape(m, -1).conj().T
    sym = (gram + gram.T) / 2.0
    worst_imag = float(np.abs(sym.imag).max())
    if worst_imag > IMAG_ATOL:
        raise ArithmeticError(
            f"intra-group moments should be real; residual imaginary part {worst_imag:g}"
        )
    return sym.real - np.outer(t_col, t_col)


def full_variance(cm: CovarianceMatrix) -> np.ndarray:
    """The assembled 2*3^k variance matrix [[A, C], [C^T, A]]; PSD by construction."""
    return np.block([[cm.a_block, cm.c_block], [cm.c_block.T, cm.a_block]])


def rotate(cm: CovarianceMatrix, r_matrix: np.ndarray) -> CovarianceMatrix:
    """Conjugate both blocks by the k-fold Kronecker power of a rotation R.

    The rotated A block is built when it is read, as in covariance_matrix.
    """
    r = np.asarray(r_matrix, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if np.abs(r.T @ r - np.eye(3)).max() > 1e-10:
        raise ValueError("rotation matrix is not orthogonal")
    if abs(np.linalg.det(r) - 1.0) > 1e-10:
        raise ValueError("rotation matrix must have determinant +1")
    big = np.eye(1)
    for _ in range(cm.k):
        big = np.kron(big, r)
    return CovarianceMatrix(cm.k, big @ cm.c_block @ big.T, lambda: big @ cm.a_block @ big.T)


def min_eigenvalue(cm: CovarianceMatrix) -> float:
    """Smallest eigenvalue of the inter-group block (symmetric eigensolver)."""
    return float(np.linalg.eigvalsh(cm.c_block)[0])


def principal_minor_search(
    cm: CovarianceMatrix, max_order: int, tol: float = DEFAULT_TOL
) -> Optional[MinorCertificate]:
    """First negative principal minor in cost order: all 1x1, then 2x2, and so on.

    A returned certificate is re-evaluated from the stored block before being
    trusted.  Returning None only means no negative minor was found up to
    max_order; it does not certify positivity.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    c = cm.c_block
    side = c.shape[0]
    diag = np.diagonal(c)
    negative = np.flatnonzero(diag < -tol)
    if negative.size:
        i = int(negative[0])
        return MinorCertificate((i,), float(c[i, i]))
    if max_order >= 2:
        # Every 2x2 minor at once; triu_indices is row-major, the order
        # itertools.combinations would visit the pairs in.
        rows, cols = np.triu_indices(side, 1)
        minors = diag[rows] * diag[cols] - c[rows, cols] * c[cols, rows]
        for hit in np.flatnonzero(minors < -tol):
            certificate = _checked_minor(c, (int(rows[hit]), int(cols[hit])))
            if certificate is not None:
                return certificate
    for order in range(3, min(max_order, side) + 1):
        for idx in itertools.combinations(range(side), order):
            if np.linalg.det(c[np.ix_(idx, idx)]) < -tol:
                certificate = _checked_minor(c, idx)
                if certificate is not None:
                    return certificate
    return None


def _checked_minor(c: np.ndarray, idx: tuple[int, ...]) -> Optional[MinorCertificate]:
    """Re-evaluate a candidate minor from the block; None unless truly negative."""
    check = float(np.linalg.det(c[np.ix_(idx, idx)]))
    return MinorCertificate(idx, check) if check < 0.0 else None


def test_entanglement(
    rho: SymmetricState, k: int, tol: float = DEFAULT_TOL
) -> NegativityReport:
    """Negativity test of the inter-group covariance block.

    Runs the cheap minor search first (orders 1 and 2) to surface an
    experimentally small certificate, then the eigensolver as the definitive
    decision.  The verdict uses a scale-aware cutoff tol * max(1, max|C|), so
    rounding noise on a large matrix cannot fake a detection; a negative
    verdict is reported with the minor certificate when one fired, otherwise
    with the minimizing eigenvector as witness.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    cm = covariance_matrix(rho, k)
    cutoff = tol * max(1.0, float(np.abs(cm.c_block).max()))
    minor = principal_minor_search(cm, max_order=2, tol=cutoff)
    eigvals, eigvecs = np.linalg.eigh(cm.c_block)
    lam = float(eigvals[0])
    entangled = lam < -cutoff
    certificate: Optional[Certificate] = None
    if entangled:
        if minor is not None and minor.value < 0.0:
            certificate = minor
        else:
            vec = eigvecs[:, 0]
            certificate = WitnessCertificate(vec, float(vec @ cm.c_block @ vec))
    return NegativityReport(
        n_qubits=rho.n_qubits,
        k=k,
        min_eigenvalue=lam,
        entangled=entangled,
        certificate=certificate,
        tolerance=cutoff,
    )


# keep pytest from collecting the operation as a test when imported
test_entanglement.__test__ = False  # type: ignore[attr-defined]


def report_to_payload(report: NegativityReport) -> dict[str, Any]:
    """Serialize a report to the documented JSON layout."""
    certificate: Optional[dict[str, Any]] = None
    if isinstance(report.certificate, MinorCertificate):
        certificate = {
            "type": "minor",
            "indices": report.certificate.index_strings(report.k),
            "value": report.certificate.value,
        }
    elif isinstance(report.certificate, WitnessCertificate):
        certificate = {
            "type": "eigenvector",
            "indices": [],
            "value": report.certificate.value,
            "vector": [float(v) for v in report.certificate.vector],
        }
    return {
        "n_qubits": report.n_qubits,
        "k": report.k,
        "min_eigenvalue": report.min_eigenvalue,
        "entangled": report.entangled,
        "certificate": certificate,
        "tolerance": report.tolerance,
    }
