"""Biased (zero-padded) autocorrelation estimates: 1D lags and 2D blocks.

All lag sums are UNNORMALIZED: ``r_t = sum_k x(k+t) conj(x(k))`` over every
index pair that exists, i.e. over the zero-padded signal, with no ``1/N`` or
``1/(N-t)`` factor. The recursion coefficients downstream are ratios of lag
sums, so the scale cancels, and this exact windowing convention is what
makes the zero-padded lattice estimators agree with the autocorrelation
route to machine precision. Unbiased and covariance-method variants are
deliberately not provided.

Every lag, 1D and 2D, comes from one zero-padded FFT correlation: each
transformed axis is padded to the 5-smooth length at or above the signal's
length plus its largest lag, so no lag wraps. Its error is about
``eps * r_0`` in absolute terms, not relative to each lag, and it takes no
BLAS dot, so its bits do not depend on the BLAS thread count. For 2D
signals the channel embedding stacks each signal row into shifted,
zero-filled copies, the data matrix ``X(k)`` of row ``k``: its row ``i``,
column ``j`` holds ``x(k, j-i)``, and zero where ``j-i`` is outside ``[0,
N2-1]``. Its lag blocks are Hermitian Toeplitz-block-Toeplitz.
"""

import numpy as np

__all__ = [
    "estimate_autocorr_1d",
    "estimate_block_autocorr_2d",
]


def as_signals_1d(x) -> np.ndarray:
    """Validate and convert a ``(B, N)`` stack of 1D complex signals, one
    per row, each as :func:`as_signal_1d` wants it."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"signal must be a nonempty 1D array, got shape {x.shape[1:]}")
    if not np.isfinite(x).all():
        raise ValueError("signal contains NaN or Inf samples")
    return x


def as_signal_1d(x) -> np.ndarray:
    """Validate and convert a 1D complex signal (finite, length >= 1)."""
    return as_signals_1d(np.asarray(x)[None])[0]


def as_grid_2d(x) -> np.ndarray:
    """Validate and convert a 2D complex grid (finite, both dims >= 1)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"grid must be a nonempty 2D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("grid contains NaN or Inf samples")
    return x


def _smooth_length(n: int) -> int:
    """The smallest 5-smooth length ``2^a 3^b 5^c`` at or above ``n``."""
    best, five = 1 << (n - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            # the least power of two that takes ``odd`` to ``n`` or above
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _correlation(x: np.ndarray, lengths: tuple) -> np.ndarray:
    """Circular lag table ``c(t) = sum_k x(k+t) conj(x(k))`` over the last
    ``len(lengths)`` axes of ``x``, each zero-padded to the 5-smooth length
    at or above its entry of ``lengths``: lag ``t`` sits at index ``t`` and
    lag ``-t`` at that length minus ``t``. Leading axes are separate records.
    """
    axes = tuple(range(-len(lengths), 0))
    shape = [_smooth_length(n) for n in lengths]
    spec = np.fft.fftn(x, shape, axes)
    # |spec|^2 overflows long before the lags do: square each record's
    # spectrum scaled by 2^-e, its largest component's binary exponent, and
    # scale its lags back by 2^(2e). Powers of two are exact, so normal
    # values keep their bits.
    parts = spec.view(float)
    peak = np.maximum(parts.max(axes, keepdims=True), -parts.min(axes, keepdims=True))
    e = np.frexp(peak)[1]
    np.ldexp(parts, -e, out=parts)
    table = np.fft.ifftn(spec * spec.conj(), shape, axes)
    parts = table.view(float)
    np.ldexp(parts, 2 * e, out=parts)
    return table


def estimate_autocorr_1d(x, max_lag: int) -> np.ndarray:
    """Lags ``r_0 .. r_max_lag`` of the biased, unnormalized autocorrelation.

    ``r_t = sum_{k=0}^{N-1-t} x(k+t) conj(x(k))``; negative lags are implied
    by ``r_{-t} = conj(r_t)``. ``r_0`` is real and nonnegative. ``x`` is one
    signal or a ``(B, N)`` stack of them; the lags run along the last axis.
    """
    x = np.asarray(x)
    stack = as_signals_1d(x) if x.ndim == 2 else as_signal_1d(x)[None]
    n = stack.shape[1]
    if not 0 <= max_lag <= n - 1:
        raise ValueError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    r = _correlation(stack, (n + max_lag,))[:, : max_lag + 1].copy()
    r[:, 0] = r[:, 0].real
    return r if x.ndim == 2 else r[0]


def estimate_block_autocorr_2d(x, n1: int, n2: int) -> np.ndarray:
    """Lag blocks ``R_0 .. R_n1`` of the shifted-row embedding.

    Equals ``R_k = sum_m X(m+k) X(m)^H`` with ``X(m) = 0`` outside
    ``[0, N1-1]`` (zero padding along the row dimension, matching the
    extended error supports of the zero-padded lattice estimators), but is
    computed from the lag formula

        ``R_k[i, j] = sum_{m,u} x(m+k, u-i) conj(x(m, u-j))``

    which depends on ``(k, i-j)`` only: one FFT correlation over a
    ``(N1+n1, N2+n2)`` grid, where no lag up to ``(n1, n2)`` wraps, gives
    them all, and each block is gathered from it by ``i-j``, so it is exactly
    Toeplitz. Shape ``(n1+1, n2+1, n2+1)``; ``R_{-k} = R_k^H`` gives the rest.
    """
    x = as_grid_2d(x)
    rows, cols = x.shape
    if not 0 <= n1 <= rows - 1:
        raise ValueError(f"n1 must be in [0, {rows - 1}], got {n1}")
    if not 0 <= n2 <= cols - 1:
        raise ValueError(f"n2 must be in [0, {cols - 1}], got {n2}")

    # rho[k, d + n2] = sum_{m,v} x(m+k, v-d) conj(x(m, v)), d = i - j
    table = _correlation(x, (rows + n1, cols + n2))
    rho = table[: n1 + 1, (n2 - np.arange(2 * n2 + 1)) % table.shape[1]]

    p = n2 + 1
    diff = np.arange(p)[:, None] - np.arange(p)[None, :]
    return rho[:, diff + n2]
