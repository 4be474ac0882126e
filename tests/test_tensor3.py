"""Tensor container and multilinear primitive checks.

Derived expectations are recomputed by brute-force triple loops so the
fast implementations are checked against an independent path.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca.tensor3 import (
    check_tensor3,
    contract_vec,
    fold,
    frob_norm,
    khatri_rao,
    matricize,
    mode_mult,
    outer3,
    qnorm3,
    tensor3,
)


def linear_tensor():
    # x(i,j,k) = i + 2j + 4k on a 2x2x2 grid
    x = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                x[i, j, k] = i + 2 * j + 4 * k
    return x


def random_tensor(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestConstructor:
    def test_flat_values_mode1_fastest(self):
        x = tensor3(np.arange(8.0), (2, 2, 2))
        npt.assert_array_equal(
            x, np.array([[[0, 4], [2, 6]], [[1, 5], [3, 7]]], dtype=float))

    def test_rejects_nan_and_inf(self):
        bad = np.ones((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            check_tensor3(bad)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            tensor3(bad)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            tensor3(np.arange(7.0), (2, 2, 2))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (5, 1, 3), (1, 1, 6)])
    def test_flat_values_give_a_c_contiguous_tensor_of_the_same_bits(
            self, shape):
        # the solvers' contractions take reshape views of a C-contiguous x
        values = np.random.default_rng(3).standard_normal(int(np.prod(shape)))
        x = tensor3(values, shape)
        assert x.flags.c_contiguous and x.shape == shape
        want = values.reshape(shape, order="F")
        assert x.tobytes() == np.ascontiguousarray(want).tobytes()
        assert x.ravel(order="F").tobytes() == values.tobytes()


class TestMatricize:
    def test_mode1_linear_example(self):
        m = matricize(linear_tensor(), 1)
        npt.assert_array_equal(m, [[0, 2, 4, 6], [1, 3, 5, 7]])

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_fold_inverts_matricize(self, mode):
        x = random_tensor((3, 4, 5))
        npt.assert_array_equal(fold(matricize(x, mode), mode, x.shape), x)

    def test_mode2_matches_triple_loop(self):
        x = random_tensor((3, 4, 5), seed=1)
        n, p, q = x.shape
        expected = np.zeros((p, n * q))
        for i in range(n):
            for j in range(p):
                for k in range(q):
                    expected[j, i + n * k] = x[i, j, k]
        npt.assert_array_equal(matricize(x, 2), expected)

    def test_mode3_matches_triple_loop(self):
        x = random_tensor((3, 4, 5), seed=2)
        n, p, q = x.shape
        expected = np.zeros((q, n * p))
        for i in range(n):
            for j in range(p):
                for k in range(q):
                    expected[k, i + n * j] = x[i, j, k]
        npt.assert_array_equal(matricize(x, 3), expected)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            matricize(random_tensor((2, 2, 2)), 4)


class TestFold:
    def test_zero_matrix(self):
        npt.assert_array_equal(
            fold(np.zeros((2, 4)), 1, (2, 2, 2)), np.zeros((2, 2, 2)))

    def test_round_trip_linear_example_mode3(self):
        x = linear_tensor()
        npt.assert_array_equal(fold(matricize(x, 3), 3, x.shape), x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 1, (2, 2, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*(st.integers(1, 6) for _ in range(3))),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_fold_inverts_matricize_over_shapes(self, shape, mode, seed):
        x = random_tensor(shape, seed=seed)
        m = matricize(x, mode)
        assert m.shape == (shape[mode - 1], x.size // shape[mode - 1])
        npt.assert_array_equal(fold(m, mode, shape), x)


class TestModeMult:
    def test_identity(self):
        x = random_tensor((3, 4, 5), seed=3)
        npt.assert_array_equal(mode_mult(x, np.eye(3), 1), x)

    def test_zero_matrix(self):
        x = random_tensor((3, 4, 5), seed=4)
        out = mode_mult(x, np.zeros((2, 3)), 1)
        assert out.shape == (2, 4, 5)
        npt.assert_array_equal(out, np.zeros((2, 4, 5)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((2, 3))
        expected = np.zeros((2, 4, 5))
        for a in range(2):
            for j in range(4):
                for k in range(5):
                    expected[a, j, k] = sum(
                        m[a, i] * x[i, j, k] for i in range(3))
        npt.assert_allclose(mode_mult(x, m, 1), expected, atol=1e-12)

    def test_equals_fold_of_matricized_product(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((6, 4))
        direct = mode_mult(x, m, 2)
        via_unfold = fold(m @ matricize(x, 2), 2, (3, 6, 5))
        npt.assert_allclose(direct, via_unfold, atol=1e-12)

    def test_commutes_across_modes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 4))
        left = mode_mult(mode_mult(x, a, 1), b, 2)
        right = mode_mult(mode_mult(x, b, 2), a, 1)
        npt.assert_allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_mult(random_tensor((3, 4, 5)), np.zeros((2, 4)), 1)


class TestContractVec:
    def test_rank_one_identity(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(3)
        v = rng.standard_normal(4)
        w = rng.standard_normal(5)
        u, v, w = (t / np.linalg.norm(t) for t in (u, v, w))
        x = outer3(u, v, w, 7.0)
        m = contract_vec(x, v, 2)
        npt.assert_allclose(contract_vec(m, w, 2), 7.0 * u, atol=1e-12)

    def test_all_three_contractions_give_weight(self):
        rng = np.random.default_rng(9)
        u, v, w = (rng.standard_normal(d) for d in (3, 4, 5))
        u, v, w = (t / np.linalg.norm(t) for t in (u, v, w))
        x = outer3(u, v, w, 11.0)
        scalar = contract_vec(contract_vec(x, v, 2), w, 2) @ u
        npt.assert_allclose(scalar, 11.0, atol=1e-12)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 5))
        v = rng.standard_normal(4)
        expected = np.zeros((3, 5))
        for i in range(3):
            for k in range(5):
                expected[i, k] = sum(v[j] * x[i, j, k] for j in range(4))
        npt.assert_allclose(contract_vec(x, v, 2), expected, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contract_vec(random_tensor((3, 4, 5)), np.ones(3), 2)


class TestKhatriRao:
    def test_single_column_kronecker(self):
        out = khatri_rao(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        npt.assert_array_equal(out.ravel(), [3, 4, 6, 8])

    def test_basis_columns(self):
        a = np.eye(3)[:, [0, 2]]
        b = np.eye(2)[:, [1, 0]]
        out = khatri_rao(a, b)
        expected = np.zeros((6, 2))
        expected[0 * 2 + 1, 0] = 1.0
        expected[2 * 2 + 0, 1] = 1.0
        npt.assert_array_equal(out, expected)

    def test_matches_per_column_kron(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 2))
        out = khatri_rao(a, b)
        for k in range(2):
            npt.assert_allclose(out[:, k], np.kron(a[:, k], b[:, k]),
                                atol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestOuter3:
    def test_basis_vectors(self):
        e = np.eye(3)[:, 0]
        x = outer3(e, np.eye(2)[:, 0], np.eye(2)[:, 0], 5.0)
        assert x[0, 0, 0] == 5.0
        assert np.count_nonzero(x) == 1

    def test_zero_vector(self):
        x = outer3(np.zeros(3), np.ones(2), np.ones(2))
        npt.assert_array_equal(x, np.zeros((3, 2, 2)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(12)
        u, v, w = (rng.standard_normal(d) for d in (3, 4, 5))
        x = outer3(u, v, w, 2.5)
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    assert x[i, j, k] == pytest.approx(
                        2.5 * u[i] * v[j] * w[k], abs=1e-13)


class TestNorms:
    def test_all_ones(self):
        assert frob_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8))

    def test_zero(self):
        assert frob_norm(np.zeros((2, 2, 2))) == 0.0

    def test_rank_one_multiplicativity(self):
        rng = np.random.default_rng(13)
        u, v, w = (rng.standard_normal(d) for d in (3, 4, 5))
        u, v, w = (t / np.linalg.norm(t) for t in (u, v, w))
        assert frob_norm(outer3(u, v, w, -9.0)) == pytest.approx(9.0)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matricization_preserves_norm(self, mode):
        x = random_tensor((3, 4, 5), seed=14)
        assert frob_norm(x) ** 2 == pytest.approx(
            np.sum(matricize(x, mode) ** 2), rel=1e-12)


class TestQnorm3:
    def test_identity_operators_reduce_to_frobenius(self):
        x = random_tensor((3, 4, 5), seed=15)
        qn = qnorm3(x, np.eye(3), np.eye(4), np.eye(5))
        assert qn == pytest.approx(frob_norm(x), rel=0, abs=1e-12)

    def test_zero_tensor(self):
        assert qnorm3(np.zeros((2, 2, 2)), np.eye(2), np.eye(2),
                      np.eye(2)) == 0.0

    def test_diagonal_scaling(self):
        x = random_tensor((3, 4, 5), seed=16)
        qn = qnorm3(x, 4 * np.eye(3), 4 * np.eye(4), 4 * np.eye(5))
        assert qn == pytest.approx(8.0 * frob_norm(x), rel=1e-12)

    def test_negative_form_raises(self):
        x = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            qnorm3(x, -np.eye(2), np.eye(2), np.eye(2))


def test_contraction_consistent_with_matricized_khatri_rao():
    # x contracted by v (mode 2) and w (mode 3) equals the mode-1
    # unfolding times the Khatri-Rao column built with the mode-2 index
    # running fastest, i.e. kron(w, v) under this fiber order.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 4, 5))
    v = rng.standard_normal(4)
    w = rng.standard_normal(5)
    direct = contract_vec(contract_vec(x, w, 3), v, 2)
    via_unfold = matricize(x, 1) @ khatri_rao(w[:, None], v[:, None])[:, 0]
    npt.assert_allclose(direct, via_unfold, rtol=1e-12, atol=1e-12)
