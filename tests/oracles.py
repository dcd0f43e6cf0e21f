"""Dense oracles the tests check the order recursions against.

The library never assembles the normal equations, tests a matrix for
structure or evaluates a backward prediction error; these helpers do all
three, for the tests only. They also hold the direct-sum forms of the two
2D correlations the library takes by FFT: the lag blocks and the
quarter-plane residual, the writer of the 2D signal CSV that the CLI
only reads, and the 1D Burg lattice as it was before its stages were fused
into one chunked sweep. :func:`exact_levinson` solves the normal
equations with no rounding at all, so a route's distance from it is its
own error.
"""

import math
from fractions import Fraction

import numpy as np

from arspec.ar1d import LatticeBatch, _finish, _stage, _stops
from arspec.autocorr import as_grid_2d, as_signal_1d
from arspec.errors import DegenerateSignalError, NumericalError
from arspec.io import write_csv


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return m


def toeplitz_matrix(lags, size: int | None = None) -> np.ndarray:
    """Hermitian Toeplitz matrix ``M[i, j] = r_{i-j}`` from lags ``r_0..``.

    ``r_{-t}`` is taken as ``conj(r_t)``. Used to assemble the dense normal
    equations that serve as the oracle for the order recursions.
    """
    lags = np.asarray(lags, dtype=complex)
    if lags.ndim != 1 or lags.size < 1:
        raise ValueError("lags must be a nonempty 1D array")
    n = lags.size if size is None else size
    if n < 1 or n > lags.size:
        raise ValueError(f"size must be in [1, {lags.size}], got {n}")
    idx = np.arange(n)
    d = idx[:, None] - idx[None, :]
    m = lags[np.abs(d)]
    return np.where(d >= 0, m, m.conj())


def block_toeplitz_matrix(blocks, order: int | None = None) -> np.ndarray:
    """Stacked Hermitian block-Toeplitz matrix with ``(i, j)`` block
    ``R_{j-i}``, assembled from nonnegative lag blocks (``R_{-k} = R_k^H``),
    for the dense solve of the block normal equations.
    """
    blocks = np.asarray(blocks, dtype=complex)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"blocks must have shape (n+1, p, p), got {blocks.shape}")
    n = blocks.shape[0] if order is None else order
    if n < 1 or n > blocks.shape[0]:
        raise ValueError(f"order must be in [1, {blocks.shape[0]}], got {n}")
    p = blocks.shape[1]
    big = np.empty((n * p, n * p), dtype=complex)
    for i in range(n):
        for j in range(n):
            k = j - i
            blk = blocks[k] if k >= 0 else blocks[-k].conj().T
            big[i * p : (i + 1) * p, j * p : (j + 1) * p] = blk
    return big


def is_hermitian(m, tol: float = 0.0) -> bool:
    """True iff ``max |m[i, j] - conj(m[j, i])| <= tol``."""
    m = _square(m)
    return bool(np.abs(m - m.conj().T).max(initial=0.0) <= tol)


def is_toeplitz(m, tol: float = 0.0) -> bool:
    """True iff the entries depend only on i - j, within ``tol``."""
    m = _square(m)
    n = m.shape[0]
    dev = 0.0
    for d in range(-(n - 1), n):
        diag = np.diagonal(m, offset=-d)
        if diag.size > 1:
            dev = max(dev, float(np.abs(diag - diag[0]).max()))
    return dev <= tol


def backward_prediction_residual(x, coeffs) -> np.ndarray:
    """Backward prediction error ``x(k-n) + sum_l conj(a_l) x(k+l-n)`` on
    the zero-padded support, length ``N + order``."""
    x = as_signal_1d(x)
    filt = np.concatenate([[1.0 + 0.0j], np.asarray(coeffs, dtype=complex)])
    return np.convolve(filt[::-1].conj(), x)


def block_autocorr_direct(x, n1: int, n2: int) -> np.ndarray:
    """Lag blocks of :func:`arspec.autocorr.estimate_block_autocorr_2d`, one
    direct lag sum per ``(k, i - j)``."""
    x = as_grid_2d(x)
    rows, cols = x.shape
    # rho[k, d] = sum_{m,v} x(m+k, v-d) conj(x(m, v)), d = i - j
    rho = np.empty((n1 + 1, 2 * n2 + 1), dtype=complex)
    for k in range(n1 + 1):
        for d in range(-n2, n2 + 1):
            lo, hi = max(-d, 0), cols - max(d, 0)
            rho[k, d + n2] = np.sum(x[k:, lo:hi] * x[: rows - k, lo + d : hi + d].conj())

    p = n2 + 1
    diff = np.arange(p)[:, None] - np.arange(p)[None, :]
    return rho[:, diff + n2]


def quarter_plane_residual_direct(x, c) -> np.ndarray:
    """:func:`arspec.ar2d.quarter_plane_residual` of the filter taps ``c``,
    one shifted add per tap."""
    x = as_grid_2d(x)
    c = np.asarray(c, dtype=complex)
    rows, cols = x.shape
    out = np.zeros((rows + c.shape[0] - 1, cols + c.shape[1] - 1), dtype=complex)
    for (l1, l2), tap in np.ndenumerate(c):
        out[l1 : l1 + rows, l2 : l2 + cols] += tap * x
    return out


def write_signal_2d_csv(path, x) -> None:
    """Write the grid ``x`` as the 2D signal CSV that
    :func:`arspec.io.read_signal_2d_csv` reads: header ``k,t,re,im``, one row
    per sample, each number as its ``repr``."""
    x = np.asarray(x, dtype=complex)
    index = np.indices(x.shape).reshape(2, -1).T.tolist()
    rows = ([*i, z.real, z.imag] for i, z in zip(index, x.reshape(-1).tolist()))
    write_csv(path, ["k", "t", "re", "im"], rows)


def burg_lattice_unfused(x: np.ndarray, order: int, padded: bool) -> LatticeBatch:
    """:func:`arspec.ar1d._burg_lattice` with whole-window sums: per stage,
    one ``np.vecdot`` per moment over the stage's window, then four passes
    of the update over the errors, the last stage's included."""
    n_rec, n = x.shape
    power = np.vecdot(x, x).real
    if np.count_nonzero(power) < n_rec:
        raise DegenerateSignalError("signal has zero energy")
    overflow = ~(power <= 0.5 * np.finfo(float).max)
    if np.count_nonzero(overflow):
        raise NumericalError(
            f"signal energy {power[np.argmax(overflow)]:.3e} overflows the lattice sums"
        )

    span = n + order if padded else n
    ef = np.zeros((n_rec, span + 1), dtype=complex)
    ef[:, 1 : n + 1] = x
    eb = ef.copy()
    eb_next = np.zeros_like(ef)
    batch = LatticeBatch.start(power, order)
    conj = batch.coeffs[:, :0]
    live = np.ones(n_rec, dtype=bool)
    for m in range(1, order + 1):
        lo, hi = (1, n + m + 1) if padded else (m + 1, n + 1)
        f = ef[:, lo:hi]
        b = eb[:, lo - 1 : hi - 1]
        denom = 0.5 * (np.vecdot(f, f).real + np.vecdot(b, b).real)
        denom[~live] = 1.0
        if np.count_nonzero(denom) < n_rec:
            raise DegenerateSignalError(f"zero error energy at order {m}")
        low = denom < np.finfo(float).tiny
        if not padded and np.count_nonzero(low):
            r = int(np.argmax(low))
            raise NumericalError(
                f"error energy {denom[r]:.3e} below the normal double range at order {m}"
            )
        kcol, conj = _stage(batch, m, -np.vecdot(b, f), denom, conj, live)
        new_b = np.multiply(kcol.conj(), f, out=eb_next[:, lo:hi])
        new_b += b
        f += np.multiply(kcol, b, out=b)
        eb, eb_next = eb_next, eb
        live = _stops(batch, m, kcol[:, 0], live)
        if not np.count_nonzero(live):
            break
    return _finish(batch, live)


def _mul(a: tuple, b: tuple) -> tuple:
    """The product of two Gaussian rationals, ``(re, im)`` pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], a[1] + b[1]


def exact_levinson(x, order: int) -> list[list[tuple]]:
    """Levinson's recursion in exact arithmetic: the coefficients
    ``a_1 .. a_m`` of every stage ``m`` in ``[1, order]``, each an
    ``(re, im)`` pair of :class:`fractions.Fraction`.

    The lags are the exact biased lags ``r_t = sum_k x(k+t) conj(x(k))`` of
    the record's binary samples, so the stages solve the normal equations
    that the floating-point routes approximate. Raises
    ``ZeroDivisionError`` where an error power is exactly zero.
    """
    x = [(Fraction(z.real), Fraction(z.imag)) for z in as_signal_1d(x).tolist()]
    if not 1 <= order <= len(x) - 1:
        raise ValueError(f"order must be in [1, {len(x) - 1}], got {order}")
    lags = []
    for t in range(order + 1):
        r = (Fraction(0), Fraction(0))
        for k in range(len(x) - t):
            r = _add(r, _mul(x[k + t], (x[k][0], -x[k][1])))
        lags.append(r)
    power, a, stages = lags[0][0], [], []
    for m in range(1, order + 1):
        delta = lags[m]
        for j, coeff in enumerate(a, 1):
            delta = _add(delta, _mul(coeff, lags[m - j]))
        k = (-delta[0] / power, -delta[1] / power)
        a = [_add(c, _mul(k, (d[0], -d[1]))) for c, d in zip(a, a[::-1])] + [k]
        power *= 1 - k[0] ** 2 - k[1] ** 2
        stages.append(a)
    return stages


def exact_deviation(coeffs, exact: list[tuple]) -> float:
    """``max |coeffs - exact| / max |exact|`` for one stage, computed exactly
    and rounded once."""
    gap = max(
        (Fraction(c.real) - e[0]) ** 2 + (Fraction(c.imag) - e[1]) ** 2
        for c, e in zip(np.asarray(coeffs).tolist(), exact, strict=True)
    )
    return math.sqrt(gap / max(e[0] ** 2 + e[1] ** 2 for e in exact))
