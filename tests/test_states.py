"""Constructors, partial traces and serialization of symmetric states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from symcov import oracle
from symcov.states import (
    BlochDirection,
    SymmetricState,
    dicke_state,
    ghz_state,
    maximally_mixed_state,
    noisy_mixture,
    product_state,
    reduced_state,
    state_from_description,
    state_from_payload,
    state_to_payload,
    validate,
    w_state,
)

ALL_N = range(2, 8)


def test_dicke_state_single_qubit_ground():
    assert_allclose(dicke_state(1, 0).dicke_matrix, [[1, 0], [0, 0]])


def test_dicke_state_projector_position():
    rho = dicke_state(4, 2)
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    assert_allclose(rho.dicke_matrix, expected)


@pytest.mark.parametrize("n,p", [(3, 4), (3, -1), (1, 2)])
def test_dicke_state_rejects_bad_excitations(n, p):
    with pytest.raises(ValueError):
        dicke_state(n, p)


def test_ghz_state_entries():
    rho = ghz_state(2)
    expected = np.zeros((3, 3))
    for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        expected[r, c] = 0.5
    assert_allclose(rho.dicke_matrix, expected, atol=1e-15)

    corners = ghz_state(4).dicke_matrix
    assert_allclose(corners[0, 0], 0.5)
    assert_allclose(corners[0, 4], 0.5)
    assert_allclose(corners[4, 0], 0.5)
    assert_allclose(corners[4, 4], 0.5)
    assert np.count_nonzero(np.abs(corners) > 1e-15) == 4


@pytest.mark.parametrize("n", ALL_N)
def test_ghz_state_is_pure(n):
    assert ghz_state(n).purity() == pytest.approx(1.0, abs=1e-12)


def test_ghz_state_needs_two_qubits():
    with pytest.raises(ValueError):
        ghz_state(1)


def test_w_state_is_single_excitation_dicke():
    assert_allclose(w_state(3).dicke_matrix, dicke_state(3, 1).dicke_matrix)
    assert_allclose(w_state(2).dicke_matrix, np.diag([0.0, 1.0, 0.0]))
    assert w_state(6).purity() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        w_state(1)


def test_product_state_poles():
    assert_allclose(
        product_state(3, BlochDirection(0.0)).dicke_matrix,
        dicke_state(3, 0).dicke_matrix,
        atol=1e-15,
    )
    assert_allclose(
        product_state(2, BlochDirection(np.pi)).dicke_matrix,
        dicke_state(2, 2).dicke_matrix,
        atol=1e-15,
    )


def test_product_state_equator_amplitudes():
    rho = product_state(2, BlochDirection(np.pi / 2, 0.0))
    vec = np.array([0.5, 1.0 / np.sqrt(2.0), 0.5])
    assert_allclose(rho.dicke_matrix, np.outer(vec, vec), atol=1e-15)


def test_product_state_matches_binomial_formula(rng):
    # the log-space amplitudes agree with sqrt(C(N, p)) a0^(N-p) a1^p
    # wherever that direct formula still fits in floats
    from math import comb

    for n in range(1, 61):
        thetas = [0.0, 5e-324, np.pi, 1e-9, np.pi - 1e-9, *rng.uniform(0.0, np.pi, 4)]
        for theta in thetas:
            d = BlochDirection(theta, rng.uniform(0.0, 2.0 * np.pi))
            a0, a1 = d.amplitudes()
            p = np.arange(n + 1)
            weights = np.sqrt([float(comb(n, int(q))) for q in p])
            vec = weights * a0 ** (n - p) * a1**p
            assert_allclose(
                product_state(n, d).dicke_matrix, np.outer(vec, vec.conj()), atol=1e-12
            )


@pytest.mark.parametrize(
    "n, theta", [(68, 0.0), (68, 1.0), (68, np.pi), (200, 1.0), (2000, 1.0)]
)
def test_product_state_large_n_is_valid(n, theta):
    # C(N, p) overflows uint64 from N = 68 on
    assert validate(product_state(n, BlochDirection(theta, 0.3))).ok


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)
def test_product_state_populations_are_binomial(n, theta, phi):
    # diagonal of the Dicke matrix must match the binomial law with
    # success probability sin^2(theta/2)
    rho = product_state(n, BlochDirection(theta, phi))
    prob = np.sin(theta / 2.0) ** 2
    from math import comb

    expected = [
        comb(n, p) * prob**p * (1.0 - prob) ** (n - p) for p in range(n + 1)
    ]
    assert_allclose(np.diag(rho.dicke_matrix).real, expected, atol=1e-12)
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


@given(
    theta=st.floats(min_value=-10.0, max_value=10.0),
    phi=st.floats(min_value=-10.0, max_value=10.0),
)
def test_bloch_direction_canonicalization(theta, phi):
    d = BlochDirection(theta, phi)
    assert 0.0 <= d.theta <= np.pi
    assert 0.0 <= d.phi < 2 * np.pi


def test_bloch_direction_fold_preserves_state():
    # theta beyond pi points at the same physical direction after folding
    a = product_state(3, BlochDirection(np.pi / 3, 0.4))
    b = product_state(3, BlochDirection(-np.pi / 3, 0.4 + np.pi))
    assert_allclose(a.dicke_matrix, b.dicke_matrix, atol=1e-12)


def test_noisy_mixture_limits():
    psi = w_state(4)
    assert_allclose(noisy_mixture(psi, 1.0).dicke_matrix, psi.dicke_matrix)
    assert_allclose(
        noisy_mixture(psi, 0.0).dicke_matrix, np.eye(5) / 5.0, atol=1e-15
    )


def test_noisy_mixture_ghz2_entries():
    rho = noisy_mixture(ghz_state(2), 0.5)
    m = rho.dicke_matrix
    assert m[0, 0] == pytest.approx(1 / 6 + 1 / 4)
    assert m[2, 2] == pytest.approx(1 / 6 + 1 / 4)
    assert m[1, 1] == pytest.approx(1 / 6)
    assert m[0, 2] == pytest.approx(1 / 4)


def test_noisy_mixture_rejects_bad_inputs():
    with pytest.raises(ValueError):
        noisy_mixture(ghz_state(2), 1.5)
    with pytest.raises(ValueError):
        noisy_mixture(ghz_state(2), -0.1)
    with pytest.raises(ValueError):
        noisy_mixture(maximally_mixed_state(3), 0.5)


@pytest.mark.parametrize("n", range(3, 7))
def test_reduced_w_state_weights(n):
    rho = reduced_state(w_state(n), 2)
    expected = np.diag([(n - 2) / n, 2 / n, 0.0])
    assert_allclose(rho.dicke_matrix, expected, atol=1e-12)
    # cross-check against the full-space partial trace
    fs = oracle.ptrace_full(oracle.embed_full(w_state(n)), 2)
    assert_allclose(
        oracle.embed_full(rho).matrix, fs.matrix, atol=1e-12
    )


def test_reduced_state_identity():
    rho = noisy_mixture(ghz_state(5), 0.4)
    assert_allclose(reduced_state(rho, 5).dicke_matrix, rho.dicke_matrix)


def test_reduced_state_sequential_consistency(rng):
    rho = oracle.random_symmetric_state(7, seed=rng)
    direct = reduced_state(rho, 2)
    via_intermediate = reduced_state(reduced_state(rho, 4), 2)
    assert_allclose(direct.dicke_matrix, via_intermediate.dicke_matrix, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_reduced_maximally_mixed_stays_maximally_mixed(n):
    for keep in range(1, n + 1):
        got = reduced_state(maximally_mixed_state(n), keep)
        assert_allclose(got.dicke_matrix, np.eye(keep + 1) / (keep + 1), atol=1e-12)
    # full-space oracle agrees
    fs = oracle.embed_full(maximally_mixed_state(n))
    for keep in {1, n // 2, n - 1}:
        reduced_full = oracle.ptrace_full(fs, keep)
        embedded = oracle.embed_full(reduced_state(maximally_mixed_state(n), keep))
        assert_allclose(reduced_full.matrix, embedded.matrix, atol=1e-12)


def test_reduced_state_preserves_trace_and_psd(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        rho = oracle.random_symmetric_state(n, seed=rng)
        keep = int(rng.integers(1, n + 1))
        report = validate(reduced_state(rho, keep))
        assert report.ok, report


def test_reduced_state_rejects_bad_range():
    with pytest.raises(ValueError):
        reduced_state(ghz_state(4), 0)
    with pytest.raises(ValueError):
        reduced_state(ghz_state(4), 5)


def test_constructor_invariants_all_hold():
    states = [
        dicke_state(5, 3),
        ghz_state(6),
        w_state(4),
        product_state(5, BlochDirection(1.1, 2.2)),
        noisy_mixture(ghz_state(4), 0.3),
        maximally_mixed_state(7),
    ]
    for rho in states:
        report = validate(rho)
        assert report.ok, report


def test_validate_flags_trace_violation():
    rho = SymmetricState(2, 2.0 * np.eye(3) / 3.0)
    report = validate(rho)
    assert not report.trace_ok
    assert report.trace_defect == pytest.approx(1.0)


def test_validate_flags_hermiticity_violation():
    m = np.eye(3) / 3.0
    m = m.astype(complex)
    m[0, 1] += 1e-6
    report = validate(SymmetricState(2, m))
    assert not report.hermitian_ok
    assert report.hermiticity_defect == pytest.approx(1e-6)


def test_validate_flags_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.1])
    report = validate(SymmetricState(2, m))
    assert not report.psd_ok
    assert report.min_eigenvalue == pytest.approx(-0.1)


def test_validate_accepts_valid_state():
    assert validate(noisy_mixture(w_state(5), 0.7)).ok


def test_validate_keeps_imaginary_part():
    # phi != 0 gives a complex matrix, which takes the complex eigensolve
    rho = product_state(6, BlochDirection(1.0, 0.7))
    assert np.abs(rho.dicke_matrix.imag).max() > 0.1
    assert validate(rho).ok
    # the real part alone is PSD here; the Hermitian matrix is not
    m = np.array([[0.5, 0.6j], [-0.6j, 0.5]])
    report = validate(SymmetricState(1, m))
    assert report.min_eigenvalue == pytest.approx(-0.1)
    assert not report.psd_ok


@pytest.mark.parametrize("phi", [0.3, 2.5])
def test_validate_pure_complex_state_matches_complex_solve(phi):
    # the phase gauge makes a pure state real; the spectrum must not move
    rho = product_state(40, BlochDirection(1.0, phi))
    report = validate(rho)
    m = rho.dicke_matrix
    expected = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
    assert report.ok
    assert report.min_eigenvalue == pytest.approx(expected, abs=1e-13)


def test_validate_mixed_complex_state_keeps_complex_solve(rng):
    # no diagonal phase makes a generic mixed state real: the complex solve
    # runs on the matrix as given, so the value is exactly the direct one
    for _ in range(3):
        rho = oracle.random_symmetric_state(6, rank=3, seed=rng)
        m = rho.dicke_matrix
        expected = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        assert validate(rho).min_eigenvalue == expected


def test_validate_subnormal_phases():
    tiny = 5e-324
    m = np.array([[1.0, tiny * 1j], [-tiny * 1j, 0.0]])
    report = validate(SymmetricState(1, m))
    assert np.isfinite(report.min_eigenvalue)
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-300)


def test_state_payload_roundtrip(rng):
    rho = oracle.random_symmetric_state(4, seed=rng)
    payload = state_to_payload(rho)
    assert payload["n_qubits"] == 4
    assert len(payload["dicke_matrix"]) == 25
    back = state_from_payload(payload)
    assert_allclose(back.dicke_matrix, rho.dicke_matrix)


def test_state_from_description_families():
    assert_allclose(
        state_from_description({"family": "ghz", "n_qubits": 3}).dicke_matrix,
        ghz_state(3).dicke_matrix,
    )
    assert_allclose(
        state_from_description({"family": "dicke", "n_qubits": 4, "p": 2}).dicke_matrix,
        dicke_state(4, 2).dicke_matrix,
    )
    nested = {
        "family": "noisy",
        "x": 0.25,
        "base": {"family": "w", "n_qubits": 4},
    }
    assert_allclose(
        state_from_description(nested).dicke_matrix,
        noisy_mixture(w_state(4), 0.25).dicke_matrix,
    )
    product = state_from_description(
        {"family": "product", "n_qubits": 2, "theta": np.pi / 2, "phi": 0.0}
    )
    assert_allclose(product.dicke_matrix, product_state(2, BlochDirection(np.pi / 2)).dicke_matrix)


# a noisy description that is a pure state (x = 1), as a base for nesting
NOISY_GHZ4_PURE = {"family": "noisy", "x": 1, "base": {"family": "ghz", "n_qubits": 4}}


@pytest.mark.parametrize(
    "desc",
    [
        {"family": "unknown", "n_qubits": 2},
        {"n_qubits": 2},
        {"family": "dicke", "n_qubits": 3},
        {"family": "noisy", "base": {"family": "ghz", "n_qubits": 2}},
        {"family": "noisy", "x": 0.5},
        {"family": "product", "n_qubits": 2},
        {"family": "ghz", "n_qubits": 4.7},
        {"family": "ghz", "n_qubits": 4.0},
        {"family": "w", "n_qubits": True},
        {"family": "dicke", "n_qubits": 4, "p": 1.9},
        {"family": "dicke", "n_qubits": 4, "p": False},
        {"family": "product", "n_qubits": 2, "theta": float("nan")},
        {"family": "product", "n_qubits": 2, "theta": 0.5, "phi": float("inf")},
        {"family": "product", "n_qubits": 2, "theta": True},
        {"family": "product", "n_qubits": 2, "theta": "1.0"},
        {"family": "product", "n_qubits": 2, "theta": 0.5, "phi": False},
        {"family": "product", "n_qubits": 2, "theta": 0.5, "phi": "0"},
        {"family": "noisy", "x": True, "base": {"family": "w", "n_qubits": 4}},
        {"family": "noisy", "x": "0.5", "base": {"family": "w", "n_qubits": 4}},
        {"family": "w", "n_qubits": 4, "x": 0.5},
        {"family": "ghz", "n_qubits": 4, "p": 1},
        {"family": "dicke", "n_qubits": 4, "p": 1, "theta": 0.5},
        {"family": "product", "n_qubits": 2, "theta": 0.5, "x": 0.5},
        {"family": "noisy", "x": 0.5, "n_qubits": 4, "base": {"family": "w", "n_qubits": 4}},
        {"family": "noisy", "x": 0.5, "base": {"family": "w", "n_qubits": 4, "phi": 0.1}},
        {"family": ["w"], "n_qubits": 4},
        {"family": "noisy", "x": 0.5, "base": NOISY_GHZ4_PURE},
        {"family": "noisy", "x": 0.5, "base": {**NOISY_GHZ4_PURE, "x": 0.3}},
        {"family": "noisy", "x": 0.5, "base": {"family": "noisy", "base": {"family": "w", "n_qubits": 4}}},
    ],
)
def test_state_from_description_rejects_malformed(desc):
    with pytest.raises(ValueError):
        state_from_description(desc)


def test_state_from_description_refuses_nested_noisy():
    desc = {"family": "noisy", "x": 0.5, "base": {**NOISY_GHZ4_PURE, "x": 0.3}}
    with pytest.raises(ValueError, match="must be a ghz, w, dicke or product description"):
        state_from_description(desc)


def test_state_from_description_names_unknown_key():
    with pytest.raises(ValueError, match="unknown key 'x' in a 'w' description"):
        state_from_description({"family": "w", "n_qubits": 4, "x": 0.5})


def test_state_from_description_accepts_integer_reals():
    # 0 and 1 are real numbers; only bool and str are refused
    assert_allclose(
        state_from_description({"family": "product", "n_qubits": 3, "theta": 0}).dicke_matrix,
        product_state(3, BlochDirection(0.0)).dicke_matrix,
    )
    assert_allclose(
        state_from_description(
            {"family": "product", "n_qubits": 3, "theta": 1, "phi": 0}
        ).dicke_matrix,
        product_state(3, BlochDirection(1.0)).dicke_matrix,
    )
    w4 = {"family": "w", "n_qubits": 4}
    for x in (0, 1):
        assert_allclose(
            state_from_description({"family": "noisy", "x": x, "base": w4}).dicke_matrix,
            noisy_mixture(w_state(4), float(x)).dicke_matrix,
        )


@pytest.mark.parametrize("n_qubits", [True, 1.7, 1.0, "1", None])
def test_state_from_payload_refuses_non_integer_n_qubits(n_qubits):
    payload = {"n_qubits": n_qubits, "dicke_matrix": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
    with pytest.raises(ValueError, match="'n_qubits' must be an integer"):
        state_from_payload(payload)


@pytest.mark.parametrize("n_qubits", [2.9, 2.0, np.float64(2.0), True])
def test_symmetric_state_refuses_non_integer_n_qubits(n_qubits):
    with pytest.raises(ValueError, match="'n_qubits' must be an integer"):
        SymmetricState(n_qubits, np.eye(3) / 3.0)


@pytest.mark.parametrize("n_qubits", [np.int64(2), np.int32(2), np.uint8(2)])
def test_numpy_integer_n_qubits_stay_valid(n_qubits):
    rho = SymmetricState(n_qubits, np.eye(3) / 3.0)
    assert rho.n_qubits == 2 and type(rho.n_qubits) is int
    back = state_from_payload({**state_to_payload(rho), "n_qubits": n_qubits})
    assert back.n_qubits == 2
    assert_allclose(back.dicke_matrix, rho.dicke_matrix)


def test_symmetric_state_shape_check():
    with pytest.raises(ValueError):
        SymmetricState(3, np.eye(3))
