"""The brute-force reference implementations validate themselves here."""

import functools
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symcov import oracle
from symcov.covariance import covariance_matrix
from symcov.states import dicke_state, ghz_state, maximally_mixed_state, w_state
from symcov.tensors import correlation_tensor

PAULI_2x2 = (
    np.eye(2),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def test_embed_single_excitation_pair():
    fs = oracle.embed_full(dicke_state(2, 1))
    vec = np.zeros(4)
    vec[1] = vec[2] = 1.0 / np.sqrt(2.0)
    assert_allclose(fs.matrix, np.outer(vec, vec), atol=1e-12)


def test_embed_ghz3():
    fs = oracle.embed_full(ghz_state(3))
    vec = np.zeros(8)
    vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
    assert_allclose(fs.matrix, np.outer(vec, vec), atol=1e-12)


def test_embed_preserves_trace(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        rho = oracle.random_symmetric_state(n, seed=rng)
        fs = oracle.embed_full(rho)
        assert np.trace(fs.matrix).real == pytest.approx(1.0, abs=1e-12)


def _swap_qubits(matrix: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    block = matrix.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    perm[i], perm[j] = perm[j], perm[i]
    perm[n + i], perm[n + j] = perm[n + j], perm[n + i]
    return block.transpose(perm).reshape(matrix.shape)


def test_embedded_states_are_permutation_invariant(rng):
    n = 5
    fs = oracle.embed_full(oracle.random_symmetric_state(n, seed=rng))
    for i in range(n):
        for j in range(i + 1, n):
            swapped = _swap_qubits(fs.matrix, n, i, j)
            assert np.abs(swapped - fs.matrix).max() <= 1e-10


def test_pauli_expectation_identity_string(rng):
    n = 4
    fs = oracle.embed_full(oracle.random_symmetric_state(n, seed=rng))
    assert oracle.pauli_transform(fs.matrix)[(0,) * n] == pytest.approx(1.0, abs=1e-12)


def test_pauli_expectation_ghz2_yy():
    fs = oracle.embed_full(ghz_state(2))
    assert oracle.pauli_transform(fs.matrix)[2, 2] == pytest.approx(-1.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_pauli_expectation_w_all_z(n):
    fs = oracle.embed_full(w_state(n))
    assert oracle.pauli_transform(fs.matrix)[(3,) * n] == pytest.approx(-1.0)


def test_pauli_expectation_rejects_wrong_length():
    for bad in (np.eye(6), np.eye(8)[:, :4], np.ones(8), np.eye(1)):
        with pytest.raises(ValueError):
            oracle.pauli_transform(bad)


def test_pauli_transform_matches_literal_kron(rng):
    # Hermitian but not permutation-symmetric, so a swapped qubit or slot shows
    for n in range(1, 5):
        dim = 1 << n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        matrix = g + g.conj().T
        values = oracle.pauli_transform(matrix)
        assert values.shape == (4,) * n
        for codes in itertools.product(range(4), repeat=n):
            string = functools.reduce(np.kron, (PAULI_2x2[c] for c in codes))
            literal = complex(np.trace(matrix @ string))
            assert abs(literal.imag) <= 1e-12
            assert values[codes] == pytest.approx(literal.real, abs=1e-12)


def test_pauli_transform_rejects_non_hermitian_input():
    with pytest.raises(oracle.ConsistencyError):
        oracle.pauli_transform(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_oracle_tensor_matches_compact_path(rng):
    rho = oracle.random_symmetric_state(5, seed=rng)
    fs = oracle.embed_full(rho)
    for order in (1, 2, 3):
        assert_allclose(
            oracle.correlation_tensor_oracle(fs, order),
            correlation_tensor(rho, order).values,
            atol=1e-10,
        )


def test_order_12_oracle_memory_stays_bounded():
    # the 12-qubit matrix is 256 MiB: the state keeps it without a copy, and
    # the transform adds one reordered copy and one buffer of the same size
    tracemalloc.start()
    try:
        fs = oracle.embed_full(w_state(12))
        oracle.correlation_tensor_oracle(fs, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800 * 2**20


def test_full_state_takes_over_a_complex_matrix():
    matrix = np.eye(4, dtype=complex) / 4.0
    fs = oracle.FullState(2, matrix)
    assert fs.matrix is matrix and not matrix.flags.writeable
    real = np.eye(4) / 4.0
    assert oracle.FullState(2, real).matrix is not real and real.flags.writeable


def test_ptrace_full_matches_dicke_reduction(rng):
    from symcov.states import reduced_state

    for _ in range(5):
        n = int(rng.integers(3, 8))
        rho = oracle.random_symmetric_state(n, seed=rng)
        keep = int(rng.integers(1, n))
        via_full = oracle.ptrace_full(oracle.embed_full(rho), keep)
        via_dicke = oracle.embed_full(reduced_state(rho, keep))
        assert_allclose(via_full.matrix, via_dicke.matrix, atol=1e-11)


def test_ppt_bell_state():
    vec = np.zeros(4)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    fs = oracle.FullState(2, np.outer(vec, vec))
    assert oracle.ppt_min_eigenvalue(fs) == pytest.approx(-0.5)


def test_ppt_product_state_nonnegative(rng):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    vec = np.kron(a, b)
    fs = oracle.FullState(2, np.outer(vec, vec.conj()))
    assert oracle.ppt_min_eigenvalue(fs) >= -1e-12


def test_ppt_w4_pair_reduction():
    fs = oracle.ptrace_full(oracle.embed_full(w_state(4)), 2)
    assert oracle.ppt_min_eigenvalue(fs) == pytest.approx((1.0 - np.sqrt(2.0)) / 4.0)


def test_ppt_rejects_invalid_density_matrix():
    with pytest.raises(ValueError):
        oracle.ppt_min_eigenvalue(oracle.FullState(2, 2.0 * np.eye(4) / 4.0 * 4.0))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        oracle.ppt_min_eigenvalue(oracle.FullState(2, bad))
    with pytest.raises(ValueError):
        oracle.ppt_min_eigenvalue(oracle.embed_full(ghz_state(3)))


def test_sample_separable_is_deterministic():
    ens_a, rho_a = oracle.sample_separable(5, 4, seed=99)
    ens_b, rho_b = oracle.sample_separable(5, 4, seed=99)
    assert np.array_equal(ens_a.weights, ens_b.weights)
    assert ens_a.directions == ens_b.directions
    assert np.array_equal(rho_a.dicke_matrix, rho_b.dicke_matrix)
    _, rho_c = oracle.sample_separable(5, 4, seed=100)
    assert not np.allclose(rho_a.dicke_matrix, rho_c.dicke_matrix)


def test_sample_separable_single_term_has_zero_covariance():
    _, rho = oracle.sample_separable(4, 1, seed=3)
    for k in (1, 2):
        assert np.abs(covariance_matrix(rho, k).c_block).max() <= 1e-12


def test_sample_separable_weights_form_distribution():
    ens, rho = oracle.sample_separable(6, 7, seed=11)
    assert ens.weights.min() >= 0.0
    assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
    from symcov.states import validate

    assert validate(rho).ok


def test_derive_seed_is_deterministic_and_spread():
    assert oracle.derive_seed(7, 0) == oracle.derive_seed(7, 0)
    seeds = {oracle.derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100


def test_su2_conjugation_matches_rotation(rng):
    from symcov._pauli import SIGMA

    for _ in range(6):
        r = oracle.random_rotation(rng)
        u = oracle.su2_from_rotation(r)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        for i in range(3):
            lhs = u.conj().T @ SIGMA[i] @ u
            rhs = sum(r[i, j] * SIGMA[j] for j in range(3))
            assert_allclose(lhs, rhs, atol=1e-12)


def test_import_loads_no_scipy(rng):
    # scipy is only for the rotation helpers, imported when they are called
    import symcov

    src = os.path.dirname(os.path.dirname(os.path.abspath(symcov.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, symcov, symcov.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    u = oracle.su2_from_rotation(oracle.random_rotation(rng))
    assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_rotated_state_first_moments_transform_linearly(rng):
    rho = oracle.random_symmetric_state(4, seed=rng)
    r = oracle.random_rotation(rng)
    rotated = oracle.rotated_symmetric_state(rho, r)
    t_before = correlation_tensor(rho, 1).values
    t_after = correlation_tensor(rotated, 1).values
    assert_allclose(t_after, r @ t_before, atol=1e-11)


def test_rotated_state_stays_valid(rng):
    from symcov.states import validate

    rho = oracle.random_symmetric_state(5, seed=rng)
    rotated = oracle.rotated_symmetric_state(rho, oracle.random_rotation(rng))
    assert validate(rotated).ok


def test_random_symmetric_state_is_valid(rng):
    from symcov.states import validate

    for rank in (1, 3, None):
        rho = oracle.random_symmetric_state(6, rank=rank, seed=rng)
        assert validate(rho).ok
    pure = oracle.random_symmetric_state(6, rank=1, seed=rng)
    assert pure.purity() == pytest.approx(1.0, abs=1e-12)


def test_project_to_dicke_inverts_embedding(rng):
    rho = oracle.random_symmetric_state(4, seed=rng)
    back = oracle.project_to_dicke(oracle.embed_full(rho))
    assert_allclose(back.dicke_matrix, rho.dicke_matrix, atol=1e-12)


def test_embed_full_respects_qubit_cap():
    # the cap fires before the matrix shape is even inspected
    with pytest.raises(ValueError):
        oracle.FullState(13, np.eye(2))


def test_maximally_mixed_has_psd_covariance():
    for n in (4, 6):
        fs = oracle.embed_full(maximally_mixed_state(n))
        for k in range(1, n // 2 + 1):
            c_ref, _ = oracle.covariance_oracle(fs, k)
            assert np.linalg.eigvalsh(c_ref)[0] >= -1e-10
