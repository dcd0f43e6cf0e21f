import numpy as np
import pytest
from conftest import crandn
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    autocorr_direct,
    block_autocorr_direct,
    block_toeplitz_matrix,
    build_data_matrices,
    is_hermitian,
    is_toeplitz,
    toeplitz_matrix,
)

from arspec.autocorr import (
    estimate_autocorr_1d,
    estimate_block_autocorr_2d,
)


def autocorr_brute(x, max_lag):
    """Independent double-loop lag sums over the zero-padded signal."""
    n = len(x)
    r = np.zeros(max_lag + 1, dtype=complex)
    for t in range(max_lag + 1):
        for k in range(n):
            if 0 <= k + t < n:
                r[t] += x[k + t] * np.conj(x[k])
    return r


def block_autocorr_brute(x, n1, n2):
    """Quadruple-loop evaluation of R_k[i, j] = sum x(m+k, u-i) x*(m, u-j)."""
    rows, cols = x.shape

    def val(a, b):
        if 0 <= a < rows and 0 <= b < cols:
            return x[a, b]
        return 0.0

    p = n2 + 1
    out = np.zeros((n1 + 1, p, p), dtype=complex)
    for k in range(n1 + 1):
        for i in range(p):
            for j in range(p):
                acc = 0.0 + 0.0j
                for m in range(rows):
                    for u in range(cols + n2):
                        acc += val(m + k, u - i) * np.conj(val(m, u - j))
                out[k, i, j] = acc
    return out


class TestAutocorr1D:
    def test_single_impulse(self):
        r = estimate_autocorr_1d([1.0, 0.0, 0.0], 2)
        assert np.allclose(r, [1.0, 0.0, 0.0], rtol=0, atol=0)

    def test_two_samples(self):
        r = estimate_autocorr_1d([1.0, 1.0], 1)
        assert r[0] == 2.0
        assert r[1] == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        x = crandn(rng, 20)
        r = estimate_autocorr_1d(x, 15)
        ref = autocorr_brute(x, 15)
        assert np.abs(r - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_r0_real_nonnegative(self):
        rng = np.random.default_rng(0)
        x = crandn(rng, 11)
        r = estimate_autocorr_1d(x, 5)
        assert r[0].imag == 0.0
        assert r[0].real >= 0.0

    def test_hermitian_symmetry_under_reversal_and_conjugation(self):
        # reversal alone or conjugation alone conjugate every lag; doing
        # both restores the original lags
        rng = np.random.default_rng(1)
        x = crandn(rng, 16)
        r = estimate_autocorr_1d(x, 9)
        r_rev = estimate_autocorr_1d(x[::-1], 9)
        r_conj = estimate_autocorr_1d(x.conj(), 9)
        r_both = estimate_autocorr_1d(x[::-1].conj(), 9)
        assert np.abs(r_rev - r.conj()).max() <= 1e-13 * np.abs(r).max()
        assert np.abs(r_conj - r.conj()).max() <= 1e-13 * np.abs(r).max()
        assert np.abs(r_both - r).max() <= 1e-13 * np.abs(r).max()

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_autocorr_1d([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            estimate_autocorr_1d([1.0, 2.0], -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            estimate_autocorr_1d([1.0, np.nan], 1)

    # The FFT lags err by about eps * r_0 in absolute terms: over 20,000
    # random draws of N <= 300, with tones and offsets, the worst was 5.0.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        size=st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
        n_rec=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), tone=st.floats(0, 100),
    )
    # N + max_lag of 251 and 293, primes, and of 298 = 2 * 149
    @example(size=(200, 51), n_rec=2, seed=1, tone=0.0)
    @example(size=(293, 0), n_rec=1, seed=2, tone=10.0)
    @example(size=(150, 148), n_rec=3, seed=3, tone=1.0)
    def test_matches_direct_sums_within_eps_r0(self, size, n_rec, seed, tone):
        n, max_lag = size
        rng = np.random.default_rng(seed)
        x = crandn(rng, n_rec, n) + tone * np.exp(2j * np.pi * rng.random() * np.arange(n))
        r = estimate_autocorr_1d(x, max_lag)
        ref = autocorr_direct(x, max_lag)
        assert r.shape == ref.shape == (n_rec, max_lag + 1)
        assert (np.abs(r - ref) <= 8 * np.finfo(float).eps * ref[:, :1].real).all()

    def test_each_record_keeps_its_own_scale(self):
        # One exponent for the whole stack would square the small record's
        # spectrum to zero.
        x = crandn(np.random.default_rng(12), 37).view(float)
        stack = np.stack([np.ldexp(x, e) for e in (400, 0, -400)]).view(complex)
        r = estimate_autocorr_1d(stack, 20)
        for row, record in zip(r, stack):
            assert np.array_equal(row, estimate_autocorr_1d(record, 20))
        assert np.array_equal(r[2].view(float), np.ldexp(r[1].view(float), -800))

    def test_toeplitz_assembly_hermitian(self):
        rng = np.random.default_rng(2)
        x = crandn(rng, 12)
        r = estimate_autocorr_1d(x, 6)
        mat = toeplitz_matrix(r)
        assert is_hermitian(mat, tol=1e-13 * np.abs(r).max())
        assert is_toeplitz(mat, tol=0.0)


class TestBuildDataMatrices:
    def test_single_row_shift(self):
        x = np.array([[1.0 + 1j, 2.0]])
        out = build_data_matrices(x, 1)
        expected = np.array([[[1 + 1j, 2, 0], [0, 1 + 1j, 2]]])
        assert np.array_equal(out, expected)

    def test_zero_channel_order_is_row(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 3, 4)
        out = build_data_matrices(x, 0)
        assert out.shape == (3, 1, 4)
        assert np.array_equal(out[:, 0, :], x)

    def test_rows_are_successive_right_shifts(self):
        rng = np.random.default_rng(4)
        x = crandn(rng, 3, 3)
        out = build_data_matrices(x, 2)
        assert out.shape == (3, 3, 5)
        for k in range(3):
            for i in range(2):
                assert np.array_equal(out[k, i + 1, 1:], out[k, i, :-1])
                assert out[k, i + 1, 0] == 0.0

    def test_zero_fill_outside_support(self):
        rng = np.random.default_rng(5)
        x = crandn(rng, 2, 3)
        out = build_data_matrices(x, 2)
        for k in range(2):
            for i in range(3):
                for j in range(5):
                    expected = x[k, j - i] if 0 <= j - i <= 2 else 0.0
                    assert out[k, i, j] == expected

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            build_data_matrices(np.ones((2, 3)), 3)


class TestBlockAutocorr2D:
    def test_total_energy_block(self):
        rng = np.random.default_rng(6)
        x = crandn(rng, 3, 4)
        blocks = estimate_block_autocorr_2d(x, 0, 0)
        assert blocks.shape == (1, 1, 1)
        assert abs(blocks[0, 0, 0] - np.sum(np.abs(x) ** 2)) <= 1e-13 * np.sum(
            np.abs(x) ** 2
        )

    def test_channel_order_zero_reduces_to_1d_lags(self):
        # single-column grid: blocks are the 1D lags of the column sequence
        rng = np.random.default_rng(7)
        col = crandn(rng, 6)
        x = col[:, None]
        blocks = estimate_block_autocorr_2d(x, 3, 0)
        r = estimate_autocorr_1d(col, 3)
        assert np.abs(blocks[:, 0, 0] - r).max() <= 1e-13 * np.abs(r).max()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        x = crandn(rng, 4, 4)
        blocks = estimate_block_autocorr_2d(x, 2, 1)
        ref = block_autocorr_brute(x, 2, 1)
        assert np.abs(blocks - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matches_matrix_product_form(self):
        rng = np.random.default_rng(9)
        x = crandn(rng, 5, 4)
        n1, n2 = 3, 2
        blocks = estimate_block_autocorr_2d(x, n1, n2)
        data = build_data_matrices(x, n2)
        rows = data.shape[0]
        for k in range(n1 + 1):
            ref = sum(data[m + k] @ data[m].conj().T for m in range(rows - k))
            assert np.abs(blocks[k] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_blocks_exactly_toeplitz(self):
        rng = np.random.default_rng(10)
        x = crandn(rng, 5, 5)
        blocks = estimate_block_autocorr_2d(x, 2, 2)
        for k in range(3):
            for d in range(-2, 3):
                diag = np.diagonal(blocks[k], offset=d)
                assert np.array_equal(diag, np.full_like(diag, diag[0]))

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_direct_sums_up_to_the_wrap_boundary(self, rows, cols, seed, data):
        # Every lag up to (N1-1, N2-1), where a transform one row or column
        # short would wrap.
        n1 = data.draw(st.integers(0, rows - 1), label="n1")
        n2 = data.draw(st.integers(0, cols - 1), label="n2")
        x = crandn(np.random.default_rng(seed), rows, cols)
        blocks = estimate_block_autocorr_2d(x, n1, n2)
        ref = block_autocorr_direct(x, n1, n2)
        assert blocks.shape == ref.shape
        assert np.abs(blocks - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_stacked_matrix_hermitian_block_toeplitz(self):
        rng = np.random.default_rng(11)
        x = crandn(rng, 6, 4)
        blocks = estimate_block_autocorr_2d(x, 3, 1)
        big = block_toeplitz_matrix(blocks, 3)
        assert is_hermitian(big, tol=1e-12 * np.abs(big).max())
        p = 2
        for i in range(2):
            for j in range(2):
                assert np.array_equal(
                    big[i * p : (i + 1) * p, j * p : (j + 1) * p],
                    big[(i + 1) * p : (i + 2) * p, (j + 1) * p : (j + 2) * p],
                )

    def test_order_out_of_range(self):
        x = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError):
            estimate_block_autocorr_2d(x, 3, 0)
        with pytest.raises(ValueError):
            estimate_block_autocorr_2d(x, 0, 3)
