"""Threshold scans over one-parameter state families.

Given a family x -> state on [0, 1] and a scalar detector (least eigenvalue
of the covariance block, one of its diagonal entries, or a bare moment-matrix
diagonal), locate the smallest x at which the detector turns negative: grid
sweep first to bracket the sign change, then bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .covariance import covariance_matrix, min_eigenvalue
from .states import SymmetricState
from .tensors import MultiIndex, correlation_tensor, moment_matrix

DETECTOR_KINDS = ("min_eig", "diag", "moment_diag")

# Detector values carry rounding noise around 1e-15; a grid point only counts
# as negative when it clears this floor.
SIGN_EPS = 1e-12


@dataclass(frozen=True)
class Detector:
    """Scalar negativity detector.

    kind "min_eig": least eigenvalue of the covariance block C.
    kind "diag": diagonal entry C[i, i] at the given multi-index.
    kind "moment_diag": bare moment-matrix diagonal T2k[i, i]; since
    C[i, i] = T2k[i, i] - Tk[i]^2 <= T2k[i, i], a negative moment diagonal is
    still a sound entanglement certificate and is the single observable the
    closed-form noisy-state thresholds refer to.
    """

    kind: str
    k: int
    index: Optional[MultiIndex] = None

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"detector kind must be one of {DETECTOR_KINDS}")
        if int(self.k) < 1:
            raise ValueError(f"group size must be >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if self.kind in ("diag", "moment_diag"):
            if self.index is None:
                raise ValueError(f"detector kind {self.kind!r} needs an index")
            if self.index.rank != self.k:
                raise ValueError(
                    f"index rank {self.index.rank} must equal group size {self.k}"
                )


@dataclass
class ScanResult:
    """Outcome of a threshold scan.

    threshold is the bracket midpoint after bisection (None when the detector
    never goes negative on the grid); the bracket endpoints satisfy
    detector >= 0 at x_lo and detector < 0 at x_hi, re-verified on emission.
    A family already negative at x = 0 degenerates to threshold 0 with the
    empty bracket (0, 0).
    """

    detector: Detector
    threshold: Optional[float]
    bracket: Optional[tuple[float, float]]
    resolution: Optional[float]
    smooth: bool
    family: Optional[dict[str, Any]] = None


def detector_value(rho: SymmetricState, detector: Detector) -> float:
    """Evaluate the detector on one state."""
    if 2 * detector.k > rho.n_qubits:
        raise ValueError(
            f"group size {detector.k} needs at least {2 * detector.k} qubits, "
            f"got {rho.n_qubits}"
        )
    if detector.kind == "min_eig":
        return min_eigenvalue(covariance_matrix(rho, detector.k))
    code = detector.index.code()
    if detector.kind == "diag":
        return float(covariance_matrix(rho, detector.k).c_block[code, code])
    t2k = moment_matrix(correlation_tensor(rho, 2 * detector.k))
    return float(t2k[code, code])


def _grid_is_smooth(values: np.ndarray) -> bool:
    """Flag families whose grid profile jumps far beyond the typical slope."""
    steps = np.abs(np.diff(values))
    typical = float(np.median(steps))
    if typical <= 0.0:
        return True
    return bool(steps.max() < 10.0 * typical)


def _bracket_sign_change(
    value: Callable[[float], float], tol: float, grid: int
) -> tuple[Optional[tuple[float, float]], bool]:
    """Bracket the first x in [0, 1] where value turns negative, and grid smoothness.

    A uniform grid keeps the smallest sign-change bracket, bisection shrinks
    it below tol or to adjacent floats, and both ends are re-evaluated before
    the bracket is returned.  The bracket is None when no grid point is
    negative and (0, 0) when x = 0 already is.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if grid < 8:
        raise ValueError(f"grid must have at least 8 points, got {grid}")
    xs = np.linspace(0.0, 1.0, grid)
    values = np.array([value(x) for x in xs])
    smooth = _grid_is_smooth(values)
    negative = np.flatnonzero(values < -SIGN_EPS)
    if negative.size == 0:
        return None, smooth
    first = int(negative[0])
    if first == 0:
        return (0.0, 0.0), smooth
    lo, hi = float(xs[first - 1]), float(xs[first])
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if value(mid) < -SIGN_EPS:
            hi = mid
        else:
            lo = mid
    if value(lo) < -SIGN_EPS or value(hi) >= -SIGN_EPS:
        raise ArithmeticError(
            f"bracket signs failed re-verification at ({lo}, {hi})"
        )
    return (lo, hi), smooth


def scan_threshold(
    family: Callable[[float], SymmetricState],
    detector: Detector,
    tol: float = 1e-6,
    grid: int = 64,
    family_desc: Optional[dict[str, Any]] = None,
) -> ScanResult:
    """Find where the detector first turns negative along the family.

    A uniform grid over [0, 1] guards against non-monotone profiles (the
    smallest sign-change bracket is kept and the profile smoothness is
    recorded); bisection then shrinks the bracket below tol, or to float
    resolution when tol is finer.  Returns a result with threshold None when
    no grid point is negative.
    """
    bracket, smooth = _bracket_sign_change(
        lambda x: detector_value(family(x), detector), tol, grid
    )
    if bracket is None:
        return ScanResult(detector, None, None, None, smooth, family_desc)
    lo, hi = bracket
    return ScanResult(
        detector,
        threshold=(lo + hi) / 2.0,
        bracket=bracket,
        resolution=hi - lo,
        smooth=smooth,
        family=family_desc,
    )


@dataclass(frozen=True)
class AnalyticThresholds:
    """Closed-form noisy-state thresholds for N qubits (N even).

    ghz_diag: mixing weight above which the noisy GHZ diagonal entry at
    (x, ..., x, y) turns negative, 1/N^2.
    w_diag: same for the noisy W moment diagonal at (z, ..., z), 1/(N+2).
    w_pair: published closed form N^2/(N^2 + 12) for the two-qubit
    entanglement of a noisy W state; direct computation disagrees with it for
    N > 2, so it is carried for comparison and flagged downstream.
    """

    n_qubits: int
    ghz_diag: float
    w_diag: float
    w_pair: float


def analytic_thresholds(n_qubits: int) -> AnalyticThresholds:
    """Evaluate the three closed-form thresholds for even N."""
    if n_qubits < 2 or n_qubits % 2 != 0:
        raise ValueError(f"closed forms need even N >= 2, got {n_qubits}")
    n = float(n_qubits)
    return AnalyticThresholds(
        n_qubits=n_qubits,
        ghz_diag=1.0 / n**2,
        w_diag=1.0 / (n + 2.0),
        w_pair=n**2 / (n**2 + 12.0),
    )


def detector_to_payload(detector: Detector) -> dict[str, Any]:
    return {
        "kind": detector.kind,
        "k": detector.k,
        "index": None if detector.index is None else str(detector.index),
    }


def scan_to_payload(
    result: ScanResult, reference_value: Optional[float] = None, tol: float = 1e-6
) -> dict[str, Any]:
    """Serialize a scan result, optionally comparing against a reference value."""
    agrees = None
    if reference_value is not None:
        agrees = (
            result.threshold is not None
            and abs(result.threshold - reference_value) <= tol
        )
    return {
        "family": result.family,
        "detector": detector_to_payload(result.detector),
        "threshold": result.threshold,
        "bracket": None if result.bracket is None else list(result.bracket),
        "resolution": result.resolution,
        "smooth": result.smooth,
        "reference_value": reference_value,
        "agrees": agrees,
    }
