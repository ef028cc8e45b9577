"""Symmetric N-qubit density matrices in the compact Dicke basis.

A state lives on the (N+1)-dimensional symmetric subspace; row/column index
p counts excitations, so p = 0 is the all-zeros product state and p = N the
all-ones one.  All constructors return valid density matrices (Hermitian,
unit trace, positive semidefinite); :func:`validate` reports defects without
raising, for use as a diagnostic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import comb, lgamma
from typing import Any, Callable

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10
# Imaginary residual, as a Frobenius norm, below which validate solves the
# real part only; far below |PSD_EIG_FLOOR|, it cannot move the verdict.
_REAL_SOLVE_ATOL = 1e-4 * abs(PSD_EIG_FLOOR)
PURITY_ATOL = 1e-10

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BlochDirection:
    """Direction of a single-qubit pure state: polar theta, azimuth phi.

    Angles must be finite and are canonicalized on construction to theta in
    [0, pi] and phi in [0, 2*pi).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (np.isfinite(theta) and np.isfinite(phi)):
            raise ValueError(f"Bloch angles must be finite, got theta={theta}, phi={phi}")
        theta %= TWO_PI
        if theta > np.pi:
            theta = TWO_PI - theta
            phi += np.pi
        phi %= TWO_PI
        if phi >= TWO_PI:  # x % 2pi rounds up to 2pi itself for tiny negative x
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def amplitudes(self) -> np.ndarray:
        """(cos(theta/2), e^{i phi} sin(theta/2)) in the {|0>, |1>} basis."""
        return np.array(
            [np.cos(self.theta / 2.0), np.exp(1j * self.phi) * np.sin(self.theta / 2.0)]
        )


@dataclass
class SymmetricState:
    """Density matrix restricted to the symmetric (Dicke) subspace of N qubits."""

    n_qubits: int
    dicke_matrix: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n_qubits)
        if n < 1:
            raise ValueError(f"need at least one qubit, got {n}")
        matrix = np.array(self.dicke_matrix, dtype=complex)
        if matrix.shape != (n + 1, n + 1):
            raise ValueError(
                f"dicke_matrix must be ({n + 1}, {n + 1}), got {matrix.shape}"
            )
        matrix.setflags(write=False)
        self.n_qubits = n
        self.dicke_matrix = matrix

    def purity(self) -> float:
        m = self.dicke_matrix
        return float(np.trace(m @ m).real)

    def is_pure(self, atol: float = PURITY_ATOL) -> bool:
        return self.purity() >= 1.0 - atol


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic of the three density-matrix invariants; never raised, only read."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    psd_ok: bool

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def _pure(n_qubits: int, amplitudes: np.ndarray) -> SymmetricState:
    vec = np.asarray(amplitudes, dtype=complex)
    return SymmetricState(n_qubits, np.outer(vec, vec.conj()))


def dicke_state(n_qubits: int, p: int) -> SymmetricState:
    """Projector onto the Dicke basis vector with p excitations."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if not 0 <= p <= n_qubits:
        raise ValueError(f"excitation count must lie in 0..{n_qubits}, got {p}")
    vec = np.zeros(n_qubits + 1)
    vec[p] = 1.0
    return _pure(n_qubits, vec)


def ghz_state(n_qubits: int) -> SymmetricState:
    """Projector onto (|0...0> + |1...1>)/sqrt(2)."""
    if n_qubits < 2:
        raise ValueError(f"GHZ state needs at least two qubits, got {n_qubits}")
    vec = np.zeros(n_qubits + 1)
    vec[0] = vec[n_qubits] = 1.0 / np.sqrt(2.0)
    return _pure(n_qubits, vec)


def w_state(n_qubits: int) -> SymmetricState:
    """Projector onto the single-excitation Dicke vector (the W state)."""
    if n_qubits < 2:
        raise ValueError(f"W state needs at least two qubits, got {n_qubits}")
    return dicke_state(n_qubits, 1)


def product_state(n_qubits: int, direction: BlochDirection) -> SymmetricState:
    """Projector onto the N-fold tensor power of one pure qubit state.

    In the Dicke basis the amplitude at p excitations is
    sqrt(C(N, p)) * cos(theta/2)^(N-p) * (e^{i phi} sin(theta/2))^p.
    Magnitudes are formed in log space, so C(N, p) never has to fit a float
    or an integer array; the poles theta = 0 and theta = pi are exact.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    n = n_qubits
    cos_half = np.cos(direction.theta / 2.0)
    sin_half = np.sin(direction.theta / 2.0)  # 0.0 also for subnormal theta
    vec = np.zeros(n + 1, dtype=complex)
    if sin_half == 0.0:
        vec[0] = 1.0
    elif direction.theta == np.pi:
        vec[n] = np.exp(1j * n * direction.phi)
    else:
        p = np.arange(n + 1)
        log_fact = np.array([lgamma(q + 1) for q in range(n + 1)])
        log_mag = (
            0.5 * (log_fact[n] - log_fact - log_fact[::-1])
            + (n - p) * np.log(cos_half)
            + p * np.log(sin_half)
        )
        vec = np.exp(log_mag - log_mag.max() + 1j * p * direction.phi)
        vec /= np.linalg.norm(vec)
    return _pure(n, vec)


def maximally_mixed_state(n_qubits: int) -> SymmetricState:
    """The maximally disordered symmetric state: identity on the subspace over N+1."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    return SymmetricState(n_qubits, np.eye(n_qubits + 1) / (n_qubits + 1))


def noisy_mixture(psi: SymmetricState, x: float) -> SymmetricState:
    """(1-x)/(N+1) * P_N + x * psi, for pure psi and mixing weight x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {x}")
    if not psi.is_pure():
        raise ValueError(
            f"noisy_mixture requires a pure state, got purity {psi.purity():.12f}"
        )
    n = psi.n_qubits
    matrix = (1.0 - x) / (n + 1) * np.eye(n + 1) + x * psi.dicke_matrix
    return SymmetricState(n, matrix)


def reduced_state(rho: SymmetricState, n_keep: int) -> SymmetricState:
    """Partial trace down to n_keep qubits, entirely within the Dicke basis.

    Under a (n_keep, N - n_keep) split the N-qubit Dicke vector with p
    excitations carries amplitude sqrt(C(n_keep, q) C(N - n_keep, p - q) / C(N, p))
    on the pair (q, p - q), so the reduction is a weighted sum of shifted
    diagonals of the input matrix and costs O(N^3).
    """
    n = rho.n_qubits
    if not 1 <= n_keep <= n:
        raise ValueError(f"n_keep must lie in 1..{n}, got {n_keep}")
    if n_keep == n:
        return SymmetricState(n, rho.dicke_matrix)
    traced = n - n_keep
    split = np.zeros((n_keep + 1, traced + 1))
    for q in range(n_keep + 1):
        for r in range(traced + 1):
            split[q, r] = np.sqrt(
                comb(n_keep, q) * comb(traced, r) / comb(n, q + r)
            )
    m = rho.dicke_matrix
    shifts = np.arange(traced + 1)
    out = np.empty((n_keep + 1, n_keep + 1), dtype=complex)
    for q in range(n_keep + 1):
        for qp in range(n_keep + 1):
            out[q, qp] = np.sum(split[q] * split[qp] * m[q + shifts, qp + shifts])
    return SymmetricState(n_keep, out)


def validate(rho: SymmetricState) -> ValidationReport:
    """Measure the Hermiticity, trace and positivity defects of a state.

    Purely diagnostic: works on any SymmetricState, including deliberately
    broken ones, and never raises.  The minimum eigenvalue is taken on the
    Hermitian part of the matrix.

    The Hermitian part is first conjugated by the diagonal phase of its
    column at the largest diagonal entry, which makes a pure state's matrix
    real.  When the imaginary part left over has a Frobenius norm
    far below the PSD floor, it bounds the eigenvalue shift (Weyl), so the
    cheaper real solve is used; otherwise the complex one, on the matrix as
    given.
    """
    m = rho.dicke_matrix
    herm_defect = float(np.abs(m - m.conj().T).max())
    trace_defect = float(abs(np.trace(m) - 1.0))
    hermitian_part = (m + m.conj().T) / 2.0
    pivot = int(np.argmax(hermitian_part.diagonal().real))
    # np.angle, not col / |col|: the reciprocal of a subnormal entry overflows
    phase = np.exp(1j * np.angle(hermitian_part[:, pivot]))
    gauged = phase.conj()[:, None] * hermitian_part * phase[None, :]
    if np.linalg.norm(gauged.imag) <= _REAL_SOLVE_ATOL:
        hermitian_part = gauged.real
    min_eig = float(np.linalg.eigvalsh(hermitian_part)[0])
    return ValidationReport(
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
        hermitian_ok=herm_defect <= HERMITICITY_ATOL,
        trace_ok=trace_defect <= TRACE_ATOL,
        psd_ok=min_eig >= PSD_EIG_FLOOR,
    )


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------

# The keys each family's description may carry; any other key is refused.
_DESCRIPTION_KEYS = {
    "ghz": {"family", "n_qubits"},
    "w": {"family", "n_qubits"},
    "dicke": {"family", "n_qubits", "p"},
    "product": {"family", "n_qubits", "theta", "phi"},
    "noisy": {"family", "x", "base"},
}


def _integer_field(desc: dict[str, Any], key: str) -> int:
    """An integer-valued description field; floats and booleans are refused."""
    value = desc[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _real_field(desc: dict[str, Any], key: str) -> float:
    """A real-valued description field; booleans and strings are refused."""
    value = desc[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key!r} must be a real number, got {value!r}")
    return float(value)


def _description_family(desc: Any) -> str:
    """The family of a description that is an object with known family and keys."""
    if not isinstance(desc, dict):
        raise ValueError(f"state description must be an object, got {type(desc)}")
    try:
        family = desc["family"]
    except KeyError:
        raise ValueError("state description is missing the 'family' key") from None
    if not isinstance(family, str) or family not in _DESCRIPTION_KEYS:
        raise ValueError(f"unknown family {family!r}")
    unknown = [key for key in desc if key not in _DESCRIPTION_KEYS[family]]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in a {family!r} description")
    return family


def _noisy_base(desc: dict[str, Any]) -> Any:
    """The base of a noisy description, refused unless it names a pure family."""
    if "base" not in desc:
        raise ValueError("noisy description needs a 'base' state")
    base = desc["base"]
    if _description_family(base) == "noisy":
        raise ValueError(
            "a noisy description's base must be a ghz, w, dicke or product "
            "description, not another noisy one"
        )
    return base


def state_from_description(desc: dict[str, Any]) -> SymmetricState:
    """Build a state from the family-description document used by the CLI.

    Families: {"family": "ghz"|"w"|"dicke", "n_qubits": N, "p": int},
    {"family": "product", "n_qubits": N, "theta": float, "phi": float},
    {"family": "noisy", "x": float, "base": <ghz, w, dicke or product description>}.
    N and p must be integers; floats and booleans are refused, not truncated.
    x, theta and phi must be real numbers; booleans and strings are refused.
    Keys a family does not take are refused, not ignored.
    """
    family = _description_family(desc)
    if family == "noisy":
        base = _noisy_base(desc)
        if "x" not in desc or desc["x"] is None:
            raise ValueError("noisy description needs a mixing parameter 'x'")
        return noisy_mixture(state_from_description(base), _real_field(desc, "x"))
    try:
        n = _integer_field(desc, "n_qubits")
    except KeyError:
        raise ValueError(f"family {family!r} needs 'n_qubits'") from None
    if family == "ghz":
        return ghz_state(n)
    if family == "w":
        return w_state(n)
    if family == "dicke":
        if "p" not in desc:
            raise ValueError("dicke description needs an excitation count 'p'")
        return dicke_state(n, _integer_field(desc, "p"))
    if "theta" not in desc:
        raise ValueError("product description needs a polar angle 'theta'")
    phi = _real_field(desc, "phi") if "phi" in desc else 0.0
    return product_state(n, BlochDirection(_real_field(desc, "theta"), phi))


def state_to_payload(rho: SymmetricState) -> dict[str, Any]:
    """Serialize to {"n_qubits": N, "dicke_matrix": row-major [re, im] pairs}."""
    flat = rho.dicke_matrix.reshape(-1)
    return {
        "n_qubits": rho.n_qubits,
        "dicke_matrix": [[float(z.real), float(z.imag)] for z in flat],
    }


def state_from_payload(payload: dict[str, Any]) -> SymmetricState:
    """Inverse of :func:`state_to_payload`."""
    n = int(payload["n_qubits"])
    pairs = payload["dicke_matrix"]
    if len(pairs) != (n + 1) ** 2:
        raise ValueError(
            f"dicke_matrix must hold {(n + 1) ** 2} entries, got {len(pairs)}"
        )
    flat = np.array([complex(re, im) for re, im in pairs])
    return SymmetricState(n, flat.reshape(n + 1, n + 1))


def noisy_family(
    base: SymmetricState,
) -> Callable[[float], SymmetricState]:
    """One-parameter family x -> noisy_mixture(base, x), for threshold scans."""
    return lambda x: noisy_mixture(base, x)
