import numpy as np
import pytest
from conftest import crandn, hermitian_pd
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import is_hermitian, is_toeplitz

from arspec.errors import SingularityError
from arspec.linalg import (
    exchange_conj,
    exchange_transpose,
    max_rel_diff,
    solve_hermitian_dense,
)


def random_toeplitz(rng, n):
    gen = crandn(rng, 2 * n - 1)  # diagonals -(n-1)..(n-1)
    idx = np.arange(n)
    return gen[(idx[:, None] - idx[None, :]) + n - 1]


class TestExchangeConj:
    def test_identity(self):
        eye = np.eye(3, dtype=complex)
        assert np.array_equal(exchange_conj(eye), eye)

    def test_2x2_by_definition(self):
        m = np.array([[1 + 1j, 2], [3, 4]], dtype=complex)
        expected = np.array([[4, 3], [2, 1 - 1j]], dtype=complex)
        assert np.array_equal(exchange_conj(m), expected)

    def test_involution_exact(self):
        rng = np.random.default_rng(0)
        m = crandn(rng, 5, 5)
        assert np.array_equal(exchange_conj(exchange_conj(m)), m)

    def test_toeplitz_gives_conjugate_transpose(self):
        # J T^* J = T^H for any Toeplitz T
        rng = np.random.default_rng(1)
        t = random_toeplitz(rng, 4)
        assert np.allclose(exchange_conj(t), t.conj().T, rtol=0, atol=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            exchange_conj(np.ones((2, 3)))


class TestExchangeTranspose:
    def test_identity(self):
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(exchange_transpose(eye), eye)

    def test_toeplitz_invariant(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 8):
            t = random_toeplitz(rng, n)
            assert np.array_equal(exchange_transpose(t), t)

    def test_involution(self):
        rng = np.random.default_rng(3)
        m = crandn(rng, 3, 3)
        assert np.array_equal(exchange_transpose(exchange_transpose(m)), m)

    def test_entry_definition(self):
        rng = np.random.default_rng(4)
        m = crandn(rng, 4, 4)
        out = exchange_transpose(m)
        n = 4
        for i in range(n):
            for j in range(n):
                assert out[i, j] == m[n - 1 - j, n - 1 - i]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            exchange_transpose(np.ones((3, 1)))


class TestStructurePredicates:
    def test_hermitian(self):
        m = np.array([[1.0, 2 - 1j], [2 + 1j, 3.0]])
        assert is_hermitian(m)
        assert not is_hermitian(m + np.array([[0, 1e-6], [0, 0]]))
        assert is_hermitian(m + np.array([[0, 1e-6], [0, 0]]), tol=1e-5)

    def test_toeplitz(self):
        rng = np.random.default_rng(5)
        t = random_toeplitz(rng, 5)
        assert is_toeplitz(t)
        t[3, 1] += 1e-8
        assert not is_toeplitz(t, tol=1e-12)
        assert is_toeplitz(t, tol=1e-6)


class TestSolveHermitianDense:
    def test_identity_system(self):
        rng = np.random.default_rng(6)
        b = crandn(rng, 4, 2)
        x = solve_hermitian_dense(np.eye(4, dtype=complex), b)
        assert np.allclose(x, b, rtol=0, atol=1e-15)

    def test_diagonal_system(self):
        a = np.diag([2.0, 4.0]).astype(complex)
        x = solve_hermitian_dense(a, np.array([2.0, 4.0], dtype=complex))
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-15)

    def test_random_hpd_residual(self):
        rng = np.random.default_rng(7)
        a = hermitian_pd(rng, 6)
        b = crandn(rng, 6, 3)
        x = solve_hermitian_dense(a, b)
        residual = np.linalg.norm(a @ x - b)
        bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert residual <= bound

    def test_sizes_up_to_32(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 13, 32):
            a = hermitian_pd(rng, n)
            b = crandn(rng, n)
            x = solve_hermitian_dense(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b) * 10

    def test_right_side_solve(self):
        rng = np.random.default_rng(9)
        a = hermitian_pd(rng, 5)
        b = crandn(rng, 3, 5)
        x = solve_hermitian_dense(a.T, b.T).T
        assert np.linalg.norm(x @ a - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_small_leading_pivot_swaps_rows(self, side):
        # Positive definite (det 0.0075), but |a[1, 0]| > |a[0, 0]|, so the
        # LU solve pivots column 0 on row 1. A right solve x a = b is the
        # left solve on transposes; a.T is Hermitian and pivots the same way.
        a = np.array([[0.01, 0.03 - 0.04j], [0.03 + 0.04j, 1.0]])
        b = np.array([[1.0, 2j], [3.0, -1.0]])
        if side == "left":
            x = solve_hermitian_dense(a, b)
            ref = np.linalg.solve(a, b)
        else:
            x = solve_hermitian_dense(a.T, b.T).T
            ref = np.linalg.solve(a.T, b.T).T
        assert np.allclose(x, ref, rtol=1e-14, atol=0)

    def test_indefinite_matrix_raises(self):
        # Hermitian with det < 0: no Cholesky factor, so no verdict to pass.
        a = np.array([[1e-3, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularityError, match="not positive definite"):
            solve_hermitian_dense(a, np.array([1.0, 0.0], dtype=complex))

    def test_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularityError):
            solve_hermitian_dense(a, np.array([1.0, 0.0], dtype=complex))

    def test_near_singular_pivot_floor(self):
        a = np.diag([1.0, 1e-14]).astype(complex)
        with pytest.raises(SingularityError):
            solve_hermitian_dense(a, np.array([1.0, 1.0], dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_hermitian_dense(np.eye(3, dtype=complex), np.ones(4, dtype=complex))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 17),
        rhs=st.integers(0, 3),
        e=st.integers(-400, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=17, rhs=3, e=-400, seed=0)
    @example(n=17, rhs=0, e=400, seed=1)
    def test_power_of_two_scale_gives_the_same_bits(self, n, rhs, e, seed):
        # LU with partial pivoting only compares, divides and subtracts
        # products of a scaled and an unscaled factor: a power-of-two scale
        # of both sides, kept inside the normal range, cancels exactly.
        rng = np.random.default_rng(seed)
        a = hermitian_pd(rng, n)
        b = crandn(rng, n) if rhs == 0 else crandn(rng, n, rhs)
        x = solve_hermitian_dense(a, b)
        scaled = solve_hermitian_dense(2.0**e * a, 2.0**e * b)
        assert np.array_equal(scaled.view(np.uint64), x.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 17),
        col=st.integers(0, 16),
        e=st.integers(-400, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=17, col=16, e=-400, seed=0)
    @example(n=2, col=0, e=400, seed=1)
    def test_pivot_under_the_floor_raises_at_every_scale(self, n, col, e, seed):
        # a = L D L^H with a well-conditioned unit lower L and one pivot
        # D[col] = 1e-14, a hundredth of the floor relative to max|diag a|.
        rng = np.random.default_rng(seed)
        col %= n
        low = np.eye(n) + np.tril(crandn(rng, n, n), -1) / (2 * n)
        d = np.ones(n)
        d[col] = 1e-14
        a = (low * d) @ low.conj().T
        with pytest.raises(SingularityError, match=f"at column {col} below floor"):
            solve_hermitian_dense(2.0**e * a, 2.0**e * crandn(rng, n))


class TestDenseOperatorIdentities:
    # products/sums/adjoints are numpy's native operators; the contracts the
    # estimators rely on are pinned here.

    def test_identity_multiply(self):
        rng = np.random.default_rng(10)
        m = crandn(rng, 3, 3)
        assert np.allclose(np.eye(3) @ m, m, rtol=0, atol=0)

    def test_adjoint_of_product(self):
        rng = np.random.default_rng(11)
        a = crandn(rng, 3, 3)
        b = crandn(rng, 3, 3)
        lhs = (a @ b).conj().T
        rhs = b.conj().T @ a.conj().T
        assert max_rel_diff(lhs, rhs) <= 1e-15

    def test_associativity(self):
        rng = np.random.default_rng(12)
        a, b, c = (crandn(rng, 4, 4) for _ in range(3))
        assert max_rel_diff((a @ b) @ c, a @ (b @ c)) <= 1e-12


class TestMaxRelDiff:
    def test_zero_on_equal(self):
        assert max_rel_diff(np.ones(3), np.ones(3)) == 0.0

    def test_both_zero(self):
        assert max_rel_diff(np.zeros(2), np.zeros(2)) == 0.0

    def test_unequal_shapes_are_inf(self):
        # A truncated history must never pass: no broadcasting.
        assert max_rel_diff(np.ones((3, 2, 2)), np.ones((1, 2, 2))) == np.inf
        assert max_rel_diff([1.0, 1.0, 1.0], [1.0]) == np.inf

    def test_scale_invariant(self):
        a = np.array([1.0, 2.0])
        assert abs(max_rel_diff(a, a * (1 + 1e-8)) - 1e-8) < 1e-12

    def test_non_finite_input_is_infinite(self):
        assert max_rel_diff([1, np.nan], [1, 2]) == np.inf
        assert max_rel_diff([1, 2], [np.inf, 2]) == np.inf
        # a running maximum no longer swallows the NaN
        assert max(0.0, max_rel_diff([np.nan], [np.nan])) == np.inf
