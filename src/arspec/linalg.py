"""Dense complex linear algebra for small lattice-recursion problems.

Everything operates on plain numpy arrays in ``complex128``; there is no
single-precision path because the equivalence checks downstream demand
agreement near 1e-10. Products, sums, scaling and conjugate transposes are
numpy's native operators (``@``, ``+``, ``*``, ``.conj().T``); this module
adds only the pieces that carry domain meaning:

* the exchange (anti-diagonal) transforms, applied as index reversals and
  never materialized as permutation matrices,
* a partially pivoted LU solver with an explicit pivot floor, used as the
  brute-force oracle against the order recursions.
"""

import math

import numpy as np

from .errors import NumericalError, SingularityError

__all__ = [
    "exchange_conj",
    "exchange_transpose",
    "max_rel_diff",
    "solve_hermitian_dense",
]

#: Pivots below this fraction of the largest |diagonal| entry are treated
#: as singular.
PIVOT_FLOOR_SCALE = 1e-12


def _square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def exchange_conj(m) -> np.ndarray:
    """Conjugate-reverse a square matrix: ``out[i, j] = conj(m[n-1-i, n-1-j])``.

    Involutive: applying it twice returns the original matrix exactly.
    """
    return _square(m)[::-1, ::-1].conj()


def exchange_transpose(m) -> np.ndarray:
    """Anti-transpose a square matrix: ``out[i, j] = m[n-1-j, n-1-i]``.

    Leaves every Toeplitz matrix unchanged (entries depend on i - j only).
    """
    return _square(m)[::-1, ::-1].T


def max_rel_diff(a, b) -> float:
    """Largest entrywise deviation between ``a`` and ``b``, relative to the
    larger of the two magnitudes (0.0 when both are exactly zero).

    ``inf`` when either input holds a non-finite entry, so that a running
    ``max`` over many comparisons cannot swallow a NaN.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    # max propagates NaN, and |z| is infinite when a part of z is.
    peaks = (np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    if not all(map(math.isfinite, peaks)):
        return math.inf
    scale = max(peaks)
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - b).max(initial=0.0) / scale)


def solve_hermitian_dense(a, b, side: str = "left") -> np.ndarray:
    """Solve ``a @ x = b`` (``side="left"``) or ``x @ a = b`` (``side="right"``).

    ``a`` is expected Hermitian (the caller's promise; the factorization
    itself is a general partially pivoted LU, which keeps near-singular
    sample correlation matrices from silently producing garbage). A pivot
    smaller than ``PIVOT_FLOOR_SCALE`` times the largest |diagonal| entry
    of ``a`` raises :class:`SingularityError`; a non-finite entry of ``a``
    raises :class:`NumericalError`.
    """
    a = _square(a, "coefficient matrix")
    b = np.asarray(b, dtype=complex)
    if side == "right":
        # x a = b  <=>  a^T x^T = b^T; the transpose of a Hermitian matrix
        # is still Hermitian.
        return solve_hermitian_dense(a.T, b.T, side="left").T
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not np.isfinite(a).all():
        raise NumericalError(f"coefficient matrix {a.shape} holds a non-finite entry")

    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")

    n = a.shape[0]
    lu = a.copy()
    x = b.copy()
    floor = PIVOT_FLOOR_SCALE * np.abs(np.diag(a)).max(initial=0.0)

    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        piv = lu[p, k]
        if abs(piv) <= floor:
            raise SingularityError(
                f"pivot {abs(piv):.3e} at column {k} below floor {floor:.3e}"
            )
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            x[[k, p]] = x[[p, k]]
        factors = lu[k + 1 :, k] / piv
        lu[k + 1 :, k + 1 :] -= np.outer(factors, lu[k, k + 1 :])
        x[k + 1 :] -= np.outer(factors, x[k])
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]

    return x[:, 0] if vector_rhs else x
