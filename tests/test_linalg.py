import numpy as np
import numpy.testing as npt
import pytest

import linalg
from srngate.errors import DimensionError


def matmul_reference(a, b):
    """Triple-loop reference multiply, independent of numpy's matmul."""
    r, k = a.shape
    k2, c = b.shape
    assert k == k2
    out = np.zeros((r, c))
    for i in range(r):
        for j in range(c):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def kahan_dot(a, b):
    """Compensated-summation dot product used as an extended-precision oracle."""
    s = 0.0
    c = 0.0
    for x, y in zip(a, b):
        term = x * y - c
        t = s + term
        c = (t - s) - term
        s = t
    return s


class TestMatmul:
    def test_identity_left(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((2, 2))
        npt.assert_array_equal(linalg.matmul(np.eye(2), m), m)

    def test_identity_right(self):
        a = linalg.mat([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(linalg.matmul(a, np.eye(2)), a)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        npt.assert_allclose(linalg.matmul(a, b), matmul_reference(a, b), rtol=1e-13)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            linalg.matmul(np.zeros((3, 4)), np.zeros((3, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((4, 5))
            b = rng.standard_normal((5, 3))
            c = rng.standard_normal((3, 6))
            left = linalg.matmul(linalg.matmul(a, b), c)
            right = linalg.matmul(a, linalg.matmul(b, c))
            npt.assert_allclose(left, right, rtol=1e-10)


class TestRowVecMat:
    def test_basis_vector_selects_row(self):
        m = linalg.mat([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(linalg.row_vec_mat(np.array([1.0, 0.0]), m), m[0])
        npt.assert_array_equal(linalg.row_vec_mat(np.array([0.0, 1.0]), m), m[1])

    def test_identity(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(5)
        npt.assert_array_equal(linalg.row_vec_mat(v, np.eye(5)), v)

    def test_matches_matmul_reshape(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        m = rng.standard_normal((6, 4))
        expected = linalg.matmul(v[None, :], m)[0]
        npt.assert_allclose(linalg.row_vec_mat(v, m), expected, rtol=1e-14)

    def test_batched_rows(self):
        rng = np.random.default_rng(5)
        vs = rng.standard_normal((7, 6))
        m = rng.standard_normal((6, 4))
        out = linalg.row_vec_mat(vs, m)
        for i in range(7):
            npt.assert_allclose(out[i], linalg.row_vec_mat(vs[i], m), rtol=1e-13)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.row_vec_mat(np.zeros(3), np.zeros((4, 2)))


class TestScaleColsBy:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 5))
        npt.assert_array_equal(linalg.scale_cols_by(m, np.ones(5)), m)

    def test_all_zeros_annihilates(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 5))
        npt.assert_array_equal(linalg.scale_cols_by(m, np.zeros(5)), np.zeros((3, 5)))

    def test_matches_explicit_diagonal(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((4, 6))
        d = rng.standard_normal(6)
        npt.assert_allclose(
            linalg.scale_cols_by(m, d), linalg.matmul(m, np.diag(d)), rtol=1e-14
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.scale_cols_by(np.zeros((3, 5)), np.zeros(4))


class TestDotNorm:
    def test_dot_zero_vector(self):
        assert linalg.dot(np.array([1.0, -2.0, 3.0]), np.zeros(3)) == 0.0

    def test_dot_self_is_squared_norm(self):
        assert linalg.dot(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 25.0

    def test_dot_matches_kahan(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal(257)
            b = rng.standard_normal(257)
            npt.assert_allclose(linalg.dot(a, b), kahan_dot(a, b), rtol=1e-12)

    def test_dot_length_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.dot(np.zeros(3), np.zeros(4))

    def test_norm2_zero(self):
        assert linalg.norm2(np.zeros(3)) == 0.0

    def test_norm2_pythagorean(self):
        assert linalg.norm2(np.array([3.0, 4.0])) == 5.0

    def test_norm2_squared_matches_dot(self):
        rng = np.random.default_rng(10)
        for size in (2, 100, 10000):
            v = rng.standard_normal(size)
            npt.assert_allclose(linalg.norm2(v) ** 2, linalg.dot(v, v), rtol=1e-12)


class TestPlumbing:
    def test_outer(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0, 5.0])
        npt.assert_array_equal(linalg.outer(a, b), [[3, 4, 5], [6, 8, 10]])

    def test_add_sub_axpy(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3))
        npt.assert_array_equal(linalg.add(x, y), x + y)
        npt.assert_array_equal(linalg.sub(x, y), x - y)
        npt.assert_allclose(linalg.axpy(0.5, x, y), 0.5 * x + y, rtol=1e-15)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.add(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_emap(self):
        v = np.array([-1.0, 0.0, 2.0])
        npt.assert_array_equal(linalg.emap(np.abs, v), [1.0, 0.0, 2.0])

    def test_results_stay_finite(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 8)) * 100
        b = rng.standard_normal((8, 8)) * 100
        v = rng.standard_normal(8) * 100
        assert np.isfinite(linalg.matmul(a, b)).all()
        assert np.isfinite(linalg.row_vec_mat(v, a)).all()
        assert np.isfinite(linalg.scale_cols_by(a, v)).all()
        assert np.isfinite(linalg.outer(v, v)).all()
