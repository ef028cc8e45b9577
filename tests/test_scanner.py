"""Detectors, threshold scans and the closed-form threshold table."""

import numpy as np
import pytest

from symcov.scanner import (
    Detector,
    analytic_thresholds,
    detector_value,
    scan_threshold,
    scan_to_payload,
)
from symcov.states import ghz_state, maximally_mixed_state, noisy_family, noisy_mixture, w_state
from symcov.tensors import MultiIndex


def test_detector_ghz4_xy_diagonal():
    det = Detector("diag", 2, MultiIndex(("x", "y")))
    assert detector_value(ghz_state(4), det) == pytest.approx(-1.0)


def test_detector_noisy_ghz4_vanishes_at_threshold():
    det = Detector("diag", 2, MultiIndex(("x", "y")))
    rho = noisy_mixture(ghz_state(4), 1.0 / 16.0)
    assert abs(detector_value(rho, det)) <= 1e-12


def test_detector_maximally_mixed_nonnegative():
    for k in (1, 2):
        det = Detector("min_eig", k)
        assert detector_value(maximally_mixed_state(4), det) >= -1e-12


def test_moment_diag_detector_noisy_w4():
    det = Detector("moment_diag", 2, MultiIndex(("z", "z")))
    value = detector_value(noisy_mixture(w_state(4), 0.2), det)
    assert value == pytest.approx(0.8 / 5.0 - 0.2, abs=1e-12)


def test_detector_validation():
    with pytest.raises(ValueError):
        Detector("diag", 2)  # missing index
    with pytest.raises(ValueError):
        Detector("diag", 2, MultiIndex(("x",)))  # rank mismatch
    with pytest.raises(ValueError):
        Detector("median_eig", 1)
    with pytest.raises(ValueError):
        detector_value(ghz_state(2), Detector("min_eig", 2))


def test_scan_noisy_ghz2():
    result = scan_threshold(noisy_family(ghz_state(2)), Detector("min_eig", 1), tol=1e-6)
    assert result.threshold == pytest.approx(0.25, abs=1e-6)
    lo, hi = result.bracket
    assert result.resolution <= 1e-6
    assert lo < result.threshold < hi or lo <= result.threshold <= hi


def test_scan_bracket_signs():
    det = Detector("min_eig", 1)
    family = noisy_family(w_state(2))
    result = scan_threshold(family, det, tol=1e-5)
    lo, hi = result.bracket
    assert detector_value(family(lo), det) >= -1e-12
    assert detector_value(family(hi), det) < 0.0


def test_scan_stops_at_float_resolution():
    # a tolerance below float spacing ends bisection on adjacent floats
    det = Detector("min_eig", 1)
    family = noisy_family(ghz_state(2))
    result = scan_threshold(family, det, tol=1e-300)
    lo, hi = result.bracket
    assert lo < hi
    assert np.nextafter(lo, 1.0) == hi
    assert result.threshold == pytest.approx(0.25, abs=1e-12)
    assert detector_value(family(lo), det) >= -1e-12
    assert detector_value(family(hi), det) < -1e-12


def test_scan_returns_none_when_never_negative():
    # pairwise covariance of a noisy GHZ_6 stays PSD for every mixing weight
    result = scan_threshold(noisy_family(ghz_state(6)), Detector("min_eig", 1), tol=1e-4, grid=16)
    assert result.threshold is None
    assert result.bracket is None


def test_scan_diag_detector_hits_closed_form():
    det = Detector("diag", 2, MultiIndex(("x", "y")))
    result = scan_threshold(noisy_family(ghz_state(4)), det, tol=1e-6)
    assert result.threshold == pytest.approx(1.0 / 16.0, abs=1e-6)


def test_scan_validates_arguments():
    family = noisy_family(ghz_state(2))
    with pytest.raises(ValueError):
        scan_threshold(family, Detector("min_eig", 1), tol=0.0)
    with pytest.raises(ValueError):
        scan_threshold(family, Detector("min_eig", 1), grid=4)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_scan_rejects_non_finite_tolerance(tol):
    # NaN would skip bisection and return the grid bracket as a threshold
    with pytest.raises(ValueError, match="finite and positive"):
        scan_threshold(noisy_family(ghz_state(2)), Detector("min_eig", 1), tol=tol)


def test_analytic_thresholds_n4():
    forms = analytic_thresholds(4)
    assert forms.ghz_diag == pytest.approx(1.0 / 16.0)
    assert forms.w_diag == pytest.approx(1.0 / 6.0)
    assert forms.w_pair == pytest.approx(16.0 / 28.0)


def test_analytic_thresholds_n2_and_large_n():
    assert analytic_thresholds(2).ghz_diag == pytest.approx(0.25)
    # the pair closed form crawls toward 1 as N grows
    assert analytic_thresholds(20).w_pair == pytest.approx(400.0 / 412.0)


def test_analytic_thresholds_rejects_odd_n():
    with pytest.raises(ValueError):
        analytic_thresholds(5)
    with pytest.raises(ValueError):
        analytic_thresholds(0)


def test_scan_payload_roundtrip():
    det = Detector("min_eig", 1)
    result = scan_threshold(
        noisy_family(ghz_state(2)), det, tol=1e-5,
        family_desc={"family": "noisy", "base": {"family": "ghz", "n_qubits": 2}},
    )
    payload = scan_to_payload(result, reference_value=0.25, tol=1e-4)
    assert payload["detector"] == {"kind": "min_eig", "k": 1, "index": None}
    assert payload["agrees"] is True
    assert payload["reference_value"] == 0.25
    assert payload["family"]["family"] == "noisy"
    assert len(payload["bracket"]) == 2

    none_payload = scan_to_payload(result)
    assert none_payload["reference_value"] is None
    assert none_payload["agrees"] is None


def test_scan_profile_is_smooth_for_noisy_families():
    result = scan_threshold(noisy_family(w_state(4)), Detector("min_eig", 2), tol=1e-4, grid=32)
    assert result.smooth
