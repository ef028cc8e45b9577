"""Correlation tensors, multi-index encoding and moment layouts."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from symcov import oracle
from symcov._pauli import SIGMA, dicke_basis_matrix
from symcov.states import ghz_state, reduced_state, w_state
from symcov.tensors import (
    CorrelationTensor,
    MultiIndex,
    correlation_tensor,
    moment_column,
    moment_matrix,
    tensor_from_payload,
    tensor_to_payload,
)


@given(rank=st.integers(min_value=1, max_value=6), data=st.data())
def test_multi_index_code_roundtrip(rank, data):
    code = data.draw(st.integers(min_value=0, max_value=3**rank - 1))
    idx = MultiIndex.from_code(rank, code)
    assert idx.rank == rank
    assert idx.code() == code
    assert MultiIndex.from_string(str(idx)).code() == code


def test_multi_index_encoding_is_base3_leftmost_significant():
    assert MultiIndex(("x", "y")).code() == 1
    assert MultiIndex(("y", "x")).code() == 3
    assert MultiIndex(("z", "z", "z")).code() == 26


def test_multi_index_rejects_bad_axes():
    with pytest.raises(ValueError):
        MultiIndex(("x", "q"))
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex.from_code(2, 9)


def test_w4_first_order_moments():
    t = correlation_tensor(w_state(4), 1)
    assert_allclose(t.values, [0.0, 0.0, 0.5], atol=1e-12)


def test_w4_second_order_moments():
    m = moment_matrix(correlation_tensor(w_state(4), 2))
    assert_allclose(m, np.diag([0.5, 0.5, 0.0]), atol=1e-12)


def test_ghz4_fourth_order_entries():
    t = correlation_tensor(ghz_state(4), 4)
    assert t.value_at(MultiIndex(("x", "y", "x", "y"))) == pytest.approx(-1.0)
    assert t.value_at(MultiIndex(("z", "z", "z", "z"))) == pytest.approx(1.0)


def test_ghz2_moment_matrix_is_bell_correlation_matrix():
    m = moment_matrix(correlation_tensor(ghz_state(2), 2))
    assert_allclose(m, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_correlation_tensor_order_bounds():
    with pytest.raises(ValueError):
        correlation_tensor(w_state(3), 0)
    with pytest.raises(ValueError):
        correlation_tensor(w_state(3), 4)
    with pytest.raises(ValueError, match="moment order 13 exceeds the largest supported order 12"):
        correlation_tensor(w_state(20), 13)


def test_moment_column_layout():
    t = CorrelationTensor(1, np.array([0.1, 0.2, 0.3]))
    assert_allclose(moment_column(t), [0.1, 0.2, 0.3])
    values = np.arange(9.0).reshape(3, 3)
    t2 = CorrelationTensor(2, values)
    col = moment_column(t2)
    # encoding order: xx, xy, xz, yx, ...
    assert col[MultiIndex(("x", "y")).code()] == values[0, 1]
    assert col[MultiIndex(("z", "x")).code()] == values[2, 0]


def test_moment_matrix_column_consistency():
    t = correlation_tensor(ghz_state(4), 4)
    assert_allclose(moment_matrix(t).reshape(-1), moment_column(t))


def test_moment_matrix_rejects_odd_order():
    with pytest.raises(ValueError):
        moment_matrix(correlation_tensor(w_state(4), 3))


def test_moment_matrix_is_symmetric(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        rho = oracle.random_symmetric_state(n, seed=rng)
        for k in range(1, n // 2 + 1):
            m = moment_matrix(correlation_tensor(rho, 2 * k))
            assert np.abs(m - m.T).max() <= 1e-12


def test_permutation_symmetry(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rho = oracle.random_symmetric_state(n, seed=rng)
        order = int(rng.integers(2, min(n, 4) + 1))
        values = correlation_tensor(rho, order).values
        for perm in itertools.permutations(range(order)):
            assert np.abs(np.transpose(values, perm) - values).max() <= 1e-10


def test_marginal_consistency(rng):
    rho = oracle.random_symmetric_state(6, seed=rng)
    for order in (1, 2, 3):
        direct = correlation_tensor(rho, order).values
        via_marginal = correlation_tensor(reduced_state(rho, 4), order).values
        assert_allclose(direct, via_marginal, atol=1e-12)


def test_entries_bounded(rng):
    for _ in range(6):
        n = int(rng.integers(2, 8))
        rho = oracle.random_symmetric_state(n, seed=rng)
        order = int(rng.integers(1, n + 1))
        values = correlation_tensor(rho, order).values
        assert np.abs(values).max() <= 1.0 + 1e-10


def test_matches_full_space_oracle(rng):
    for _ in range(4):
        n = int(rng.integers(2, 6))
        rho = oracle.random_symmetric_state(n, seed=rng)
        fs = oracle.embed_full(rho)
        for order in range(1, n + 1):
            assert_allclose(
                correlation_tensor(rho, order).values,
                oracle.correlation_tensor_oracle(fs, order),
                atol=1e-10,
            )


def _one_block_tensor(rho, order):
    """Order-l moments from the whole 2^l x 2^l embedding, contracted last pair first."""
    basis = dicke_basis_matrix(order)
    full = basis @ reduced_state(rho, order).dicke_matrix @ basis.conj().T
    block = full.reshape((2,) * (2 * order))
    for remaining in range(order, 0, -1):
        block = np.tensordot(
            block, SIGMA, axes=([remaining - 1, 2 * remaining - 1], [2, 1])
        )
    return block.transpose(tuple(range(order - 1, -1, -1))).real


@pytest.mark.parametrize("n", [10, 16, 24])
def test_tiles_match_one_block_contraction_bitwise(n):
    rho = oracle.random_symmetric_state(n, seed=n)
    for order in range(1, 11):
        assert_array_equal(correlation_tensor(rho, order).values, _one_block_tensor(rho, order))


def test_tiled_orders_match_full_space_oracle():
    rho = oracle.random_symmetric_state(12, seed=12)
    fs = oracle.embed_full(rho)
    for order in (10, 11, 12):
        assert_allclose(
            correlation_tensor(rho, order).values,
            oracle.correlation_tensor_oracle(fs, order),
            atol=1e-10,
        )


@pytest.mark.parametrize("n", [16, 30])
def test_contracting_two_slots_lowers_the_order(n):
    # sum_a sigma_a x sigma_a = 2 SWAP - 1 is the identity on two symmetric
    # qubits, so tracing T_{l+2} over its last two slots gives T_l
    rho = oracle.random_symmetric_state(n, seed=n)
    for order in (8, 9, 10):
        high = correlation_tensor(rho, order + 2).values
        assert_allclose(
            np.trace(high, axis1=-2, axis2=-1),
            correlation_tensor(rho, order).values,
            atol=1e-12,
        )


def test_order_12_working_memory_stays_bounded():
    rho = oracle.random_symmetric_state(12, seed=3)
    dicke_basis_matrix(12)  # the cached embedding is not working memory
    tracemalloc.start()
    try:
        correlation_tensor(rho, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_tensor_payload_roundtrip():
    t = correlation_tensor(w_state(4), 2)
    payload = tensor_to_payload(t)
    assert payload["order"] == 2
    assert payload["encoding"] == "base3-xyz"
    assert len(payload["values"]) == 9
    back = tensor_from_payload(payload)
    assert_allclose(back.values, t.values)


def test_tensor_payload_rejects_unknown_encoding():
    with pytest.raises(ValueError):
        tensor_from_payload({"order": 1, "encoding": "other", "values": [0, 0, 0]})
