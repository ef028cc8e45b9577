"""Covariance blocks, the variance matrix, rotations and the negativity test."""

import functools
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from symcov import covariance, oracle
from symcov.cli import main
from symcov.covariance import (
    CovarianceMatrix,
    MinorCertificate,
    WitnessCertificate,
    covariance_matrix,
    full_variance,
    min_eigenvalue,
    principal_minor_search,
    report_to_payload,
    rotate,
    test_entanglement,
)
from symcov.scanner import Detector, detector_value
from symcov.states import (
    BlochDirection,
    ghz_state,
    maximally_mixed_state,
    noisy_mixture,
    product_state,
    w_state,
)
from symcov.tensors import MultiIndex


def test_ghz2_c_block_is_bell_correlation_matrix():
    cm = covariance_matrix(ghz_state(2), 1)
    assert_allclose(cm.c_block, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_w4_c_block_diagonal():
    cm = covariance_matrix(w_state(4), 1)
    assert_allclose(cm.c_block, np.diag([0.5, 0.5, -0.25]), atol=1e-12)


def test_product_states_have_zero_inter_group_covariance(rng):
    for _ in range(5):
        n = int(rng.integers(2, 8))
        direction = BlochDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rho = product_state(n, direction)
        for k in range(1, n // 2 + 1):
            cm = covariance_matrix(rho, k)
            assert np.abs(cm.c_block).max() <= 1e-12


def _bloch_vector(direction: BlochDirection) -> np.ndarray:
    theta, phi = direction.theta, direction.phi
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


@pytest.mark.parametrize("n", [4, 9, 50, 200])
def test_separable_covariance_is_the_covariance_of_directions(n):
    # The paper's reason C >= 0: a mixture of coherent states sum_i w_i |n_i><n_i|^N
    # has moment column t_i = n_i^(x k) per term, so C is the covariance of the
    # t_i under the weights, sum_i w_i t_i t_i^T - tbar tbar^T, exactly.  One
    # term is a single product state, whose C is 0 (checked up to N = 200, k = 5).
    for k in range(1, min(5, n // 2) + 1):
        for terms in (1, 3, 5):
            ensemble, rho = oracle.sample_separable(n, terms, seed=1000 * n + 10 * k + terms)
            t = np.array([
                functools.reduce(np.kron, [_bloch_vector(d)] * k) for d in ensemble.directions
            ])
            t_bar = ensemble.weights @ t
            expected = (t.T * ensemble.weights) @ t - np.outer(t_bar, t_bar)
            assert_allclose(covariance_matrix(rho, k).c_block, expected, rtol=0, atol=1e-13)


def test_covariance_matches_oracle(rng):
    for _ in range(4):
        n = int(rng.integers(2, 7))
        rho = oracle.random_symmetric_state(n, seed=rng)
        fs = oracle.embed_full(rho)
        for k in range(1, n // 2 + 1):
            cm = covariance_matrix(rho, k)
            c_ref, a_ref = oracle.covariance_oracle(fs, k)
            assert_allclose(cm.c_block, c_ref, atol=1e-10)
            assert_allclose(cm.a_block, a_ref, atol=1e-10)


@pytest.mark.parametrize("k", [4, 5])
def test_covariance_matches_oracle_large_groups(k):
    # k = 5 is where the Gram-matrix product is largest (243 strings of 32 x 32)
    for seed in (41, 42):
        rho = oracle.random_symmetric_state(10, seed=seed)
        cm = covariance_matrix(rho, k)
        c_ref, a_ref = oracle.covariance_oracle(oracle.embed_full(rho), k)
        assert_allclose(cm.c_block, c_ref, atol=1e-10)
        assert_allclose(cm.a_block, a_ref, atol=1e-10)


def test_a_block_is_built_once_and_cached():
    cm = covariance_matrix(w_state(6), 2)
    first = cm.a_block
    assert cm.a_block is first
    with pytest.raises(ValueError):
        first[0, 0] = 5.0


def test_a_block_builder_runs_on_first_read_only():
    calls = []

    def build():
        calls.append(1)
        return np.eye(3)

    cm = CovarianceMatrix(1, np.eye(3), build)
    assert calls == []
    assert_allclose(cm.a_block, np.eye(3))
    assert_allclose(cm.a_block, np.eye(3))
    assert calls == [1]


@pytest.mark.parametrize("bad", ["shape", "asymmetric"])
@pytest.mark.parametrize("block", ["c", "a"])
def test_explicit_blocks_are_checked_at_construction(block, bad):
    wrong = np.eye(4) if bad == "shape" else np.triu(np.ones((3, 3)))
    blocks = {"c": np.eye(3), "a": np.eye(3), block: wrong}
    with pytest.raises(ValueError, match=f"{block}_block"):
        CovarianceMatrix(1, blocks["c"], blocks["a"])


@pytest.mark.parametrize("bad", ["shape", "asymmetric"])
def test_built_a_block_is_checked_on_read(bad):
    wrong = np.eye(4) if bad == "shape" else np.triu(np.ones((3, 3)))
    cm = CovarianceMatrix(1, np.eye(3), lambda: wrong)
    with pytest.raises(ValueError, match="a_block"):
        cm.a_block


def test_covariance_rejects_oversized_group():
    with pytest.raises(ValueError):
        covariance_matrix(ghz_state(4), 3)
    with pytest.raises(ValueError):
        covariance_matrix(ghz_state(4), 0)


def test_full_variance_structure_and_psd():
    cm = covariance_matrix(ghz_state(2), 1)
    v = full_variance(cm)
    assert v.shape == (6, 6)
    assert_allclose(v[:3, :3], cm.a_block)
    assert_allclose(v[:3, 3:], cm.c_block)
    assert_allclose(v[3:, :3], cm.c_block.T)
    assert_allclose(v[3:, 3:], cm.a_block)
    assert np.linalg.eigvalsh(v)[0] >= -1e-9


def test_full_variance_psd_for_random_states(rng):
    for _ in range(8):
        n = int(rng.integers(2, 8))
        rho = oracle.random_symmetric_state(n, seed=rng)
        for k in range(1, n // 2 + 1):
            cm = covariance_matrix(rho, k)
            assert np.linalg.eigvalsh(cm.a_block)[0] >= -1e-9
            assert np.linalg.eigvalsh(full_variance(cm))[0] >= -1e-9


def test_rotate_identity_is_noop():
    cm = covariance_matrix(w_state(4), 2)
    rotated = rotate(cm, np.eye(3))
    assert_allclose(rotated.c_block, cm.c_block)
    assert_allclose(rotated.a_block, cm.a_block)


def test_rotate_quarter_turn_about_z_swaps_xx_and_yy():
    # x -> y relabeling on the Bell correlation matrix
    r = Rotation.from_rotvec([0.0, 0.0, np.pi / 2]).as_matrix()
    cm = covariance_matrix(ghz_state(2), 1)
    rotated = rotate(cm, r)
    assert_allclose(rotated.c_block, np.diag([-1.0, 1.0, 1.0]), atol=1e-12)


def test_rotate_preserves_spectrum(rng):
    rho = oracle.random_symmetric_state(6, seed=rng)
    cm = covariance_matrix(rho, 2)
    r = oracle.random_rotation(rng)
    before = np.linalg.eigvalsh(cm.c_block)
    after = np.linalg.eigvalsh(rotate(cm, r).c_block)
    assert_allclose(before, after, atol=1e-9)


def test_rotate_rejects_non_rotations():
    cm = covariance_matrix(ghz_state(2), 1)
    with pytest.raises(ValueError):
        rotate(cm, 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        rotate(cm, np.diag([1.0, 1.0, -1.0]))


def test_min_eigenvalue_examples():
    assert min_eigenvalue(covariance_matrix(ghz_state(2), 1)) == pytest.approx(-1.0)
    assert min_eigenvalue(covariance_matrix(w_state(4), 1)) == pytest.approx(-0.25)
    for k in (1, 2):
        assert min_eigenvalue(covariance_matrix(maximally_mixed_state(4), k)) >= -1e-12


def test_minor_search_ghz4_finds_xy_diagonal():
    cert = principal_minor_search(covariance_matrix(ghz_state(4), 2), max_order=2)
    assert isinstance(cert, MinorCertificate)
    assert cert.indices == (1,)
    assert cert.index_strings(2) == ["xy"]
    assert cert.value == pytest.approx(-1.0)


def test_minor_search_w6_finds_z_diagonal():
    cert = principal_minor_search(covariance_matrix(w_state(6), 1), max_order=2)
    assert cert is not None
    assert cert.indices == (2,)
    assert cert.value == pytest.approx(-4.0 / 36.0)


def test_minor_search_identity_returns_none():
    cm = CovarianceMatrix(1, np.eye(3), np.eye(3))
    assert principal_minor_search(cm, max_order=3) is None


def test_minor_search_second_order_certificate():
    c = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cm = CovarianceMatrix(1, c, np.eye(3))
    cert = principal_minor_search(cm, max_order=2)
    assert cert is not None
    assert cert.indices == (0, 1)
    assert cert.value == pytest.approx(-3.0)
    # re-evaluating the minor from the stored block reproduces the value
    sub = cm.c_block[np.ix_(cert.indices, cert.indices)]
    assert np.linalg.det(sub) == pytest.approx(cert.value, abs=1e-10)


def test_minor_search_respects_max_order():
    c = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cm = CovarianceMatrix(1, c, np.eye(3))
    assert principal_minor_search(cm, max_order=1) is None


def _literal_minor_search(c, tol):
    """Orders 1 and 2 as a plain loop over itertools.combinations."""
    side = c.shape[0]
    for i in range(side):
        if c[i, i] < -tol:
            return (i,), float(c[i, i])
    for rows in itertools.combinations(range(side), 2):
        i, j = rows
        if c[i, i] * c[j, j] - c[i, j] * c[j, i] < -tol:
            check = float(np.linalg.det(c[np.ix_(rows, rows)]))
            if check < 0.0:
                return rows, check
    return None


def _plant_negative_pairs(c, pairs):
    """Copy of c whose 2x2 minors on the given index pairs are negative."""
    c = c.copy()
    for i, j in pairs:
        c[i, j] = c[j, i] = 1.5 * np.sqrt(c[i, i] * c[j, j])
    return c


def _parity_blocks(rng, k):
    """Random symmetric 3^k blocks for the minor-search parity test."""
    side = 3**k
    g = rng.standard_normal((side, max(2, side // 2)))
    psd = g @ g.T / g.shape[1]
    yield psd  # no negative minor
    pairs = [sorted(rng.choice(side, size=2, replace=False)) for _ in range(3)]
    yield _plant_negative_pairs(psd, pairs)
    h = rng.standard_normal((side, side))
    generic = (h + h.T) / 2.0
    yield generic  # a negative diagonal entry is likely
    np.fill_diagonal(generic, np.abs(np.diagonal(generic)) + 0.1)
    yield generic  # many negative 2x2 minors; the first in row-major order wins
    # unit vectors in a plane: every 2x2 minor is sin^2 of an angle, so many
    # are small but positive, plus one negative pair at the end of the order
    angles = rng.uniform(0.0, np.pi, side)
    planar = np.cos(angles[:, None] - angles[None, :])
    yield _plant_negative_pairs(planar, [(side - 2, side - 1)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_minor_search_matches_literal_loop(rng, k):
    for c in _parity_blocks(rng, k):
        cm = CovarianceMatrix(k, c, np.eye(3**k))
        # a negative tol admits positive 2x2 candidates, which the det
        # re-check must reject before the search moves on
        for tol in (1e-9, -0.05):
            expected = _literal_minor_search(cm.c_block, tol)
            cert = principal_minor_search(cm, max_order=2, tol=tol)
            if expected is None:
                assert cert is None
            else:
                assert cert is not None
                assert (cert.indices, cert.value) == expected


def test_eigen_path_when_minors_stay_positive():
    # diagonal and 2x2 principal minors all nonnegative, eigenvalue negative
    v = np.ones(3) / np.sqrt(3.0)
    c = np.eye(3) - 1.1 * np.outer(v, v)
    cm = CovarianceMatrix(1, c, np.eye(3))
    assert principal_minor_search(cm, max_order=2) is None
    assert min_eigenvalue(cm) == pytest.approx(-0.1)
    assert principal_minor_search(cm, max_order=3) is not None


def test_entanglement_ghz6_top_partition():
    report = test_entanglement(ghz_state(6), 3)
    assert report.entangled
    assert report.min_eigenvalue == pytest.approx(-4.0, abs=1e-9)
    assert report.certificate is not None


def test_entanglement_ghz6_pairwise_negative():
    report = test_entanglement(ghz_state(6), 1)
    assert not report.entangled
    assert report.certificate is None
    assert report.min_eigenvalue >= -1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_entanglement_w6_all_partitions(k):
    report = test_entanglement(w_state(6), k)
    assert report.entangled


def test_entanglement_certificate_soundness():
    for n, k in [(4, 2), (6, 2), (6, 3)]:
        report = test_entanglement(w_state(n), k)
        cm = covariance_matrix(w_state(n), k)
        cert = report.certificate
        if isinstance(cert, WitnessCertificate):
            quad = cert.vector @ cm.c_block @ cert.vector
            assert quad == pytest.approx(cert.value, abs=1e-10)
            assert cert.value < 0.0
        else:
            sub = cm.c_block[np.ix_(cert.indices, cert.indices)]
            assert np.linalg.det(sub) == pytest.approx(cert.value, abs=1e-10)
            assert cert.value < 0.0


def test_entanglement_rejects_bad_arguments():
    with pytest.raises(ValueError):
        test_entanglement(ghz_state(6), 4)
    with pytest.raises(ValueError):
        test_entanglement(ghz_state(6), 1, tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_entanglement_rejects_non_finite_tolerance(tol):
    # a NaN cutoff would never detect and an infinite one never could
    with pytest.raises(ValueError, match="finite and positive"):
        test_entanglement(w_state(6), 2, tol=tol)


def test_report_payload_minor():
    payload = report_to_payload(test_entanglement(ghz_state(4), 2))
    assert payload["n_qubits"] == 4
    assert payload["k"] == 2
    assert payload["entangled"] is True
    assert payload["certificate"]["type"] == "minor"
    assert payload["certificate"]["indices"] == ["xy"]
    assert payload["certificate"]["value"] == pytest.approx(-1.0)


def test_report_payload_eigenvector():
    from symcov.covariance import NegativityReport

    cert = WitnessCertificate(np.array([1.0, 0.0, 0.0]), -0.5)
    report = NegativityReport(4, 1, -0.5, True, cert, 1e-9)
    payload = report_to_payload(report)
    assert payload["certificate"]["type"] == "eigenvector"
    assert payload["certificate"]["indices"] == []
    assert payload["certificate"]["vector"] == [1.0, 0.0, 0.0]


def test_report_payload_none_certificate():
    payload = report_to_payload(test_entanglement(ghz_state(6), 1))
    assert payload["certificate"] is None
    assert payload["entangled"] is False


def test_theorem_on_separable_samples_quick():
    worst = 0.0
    for i in range(60):
        n = (2, 4, 6)[i % 3]
        _, rho = oracle.sample_separable(n, (i % 4) + 1, oracle.derive_seed(5, i))
        for k in range(1, n // 2 + 1):
            worst = min(worst, min_eigenvalue(covariance_matrix(rho, k)))
    assert worst >= -1e-9


def test_k1_matches_ppt_verdict_quick(rng):
    for _ in range(60):
        n = int(rng.integers(2, 7))
        rho = oracle.random_symmetric_state(n, rank=int(rng.integers(1, n + 2)), seed=rng)
        c_min = min_eigenvalue(covariance_matrix(rho, 1))
        ppt_min = oracle.ppt_min_eigenvalue(oracle.ptrace_full(oracle.embed_full(rho), 2))
        c_verdict = c_min < -1e-9
        ppt_verdict = ppt_min < -1e-9
        if c_verdict != ppt_verdict:
            assert abs(c_min) <= 1e-7 and abs(ppt_min) <= 1e-7


def test_covariance_matrix_blocks_are_readonly():
    cm = covariance_matrix(ghz_state(2), 1)
    with pytest.raises(ValueError):
        cm.c_block[0, 0] = 5.0


@pytest.fixture
def a_block_unbuildable(monkeypatch):
    """Make building any intra-group block raise."""

    def refuse(k):
        raise AssertionError(f"the A block was built (k = {k})")

    monkeypatch.setattr(covariance, "pauli_string_stack", refuse)


NOISY_W10 = noisy_mixture(w_state(10), 0.8)

CERTIFY_PATH = {
    "test_entanglement": lambda: [test_entanglement(NOISY_W10, k) for k in range(1, 6)],
    "min_eig": lambda: detector_value(NOISY_W10, Detector("min_eig", 2)),
    "diag": lambda: detector_value(NOISY_W10, Detector("diag", 2, MultiIndex.from_string("zz"))),
}


@pytest.mark.parametrize("step", sorted(CERTIFY_PATH))
def test_certify_path_never_builds_a_block(a_block_unbuildable, step):
    CERTIFY_PATH[step]()


def test_validate_theorem_never_builds_a_block(a_block_unbuildable, capsys):
    assert main(["validate-theorem", "--n", "6", "--samples", "3", "--seed", "2"]) == 0


def test_reading_a_block_builds_it(a_block_unbuildable):
    with pytest.raises(AssertionError, match="was built"):
        covariance_matrix(NOISY_W10, 1).a_block
