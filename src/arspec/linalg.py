"""Dense complex linear algebra for small lattice-recursion problems.

Everything operates on plain numpy arrays in ``complex128``; there is no
single-precision path because the equivalence checks downstream demand
agreement near 1e-10. Products, sums, scaling and conjugate transposes are
numpy's native operators (``@``, ``+``, ``*``, ``.conj().T``); this module
adds only the pieces that carry domain meaning:

* the exchange (anti-diagonal) transforms, applied as index reversals and
  never materialized as permutation matrices,
* the one solve of the 2D order recursions, ``A = -N D^{-1}`` for a
  Hermitian denominator ``D``, through LAPACK, with a Cholesky verdict
  against an explicit pivot floor.
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

    ``inf`` when the shapes differ or an entry is not finite, so that a
    running ``max`` cannot swallow a truncated history or a NaN.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    # max propagates NaN, and |z| is infinite when a part of z is.
    peaks = (np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    if not all(map(math.isfinite, peaks)):
        return math.inf
    scale = max(peaks)
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - b).max(initial=0.0) / scale)


def solve_hermitian_dense(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for a Hermitian positive definite ``a``.

    ``b`` is one right-hand side (a vector) or several (the columns of a
    matrix). The verdict comes from the Cholesky factor ``L`` of ``a``: its
    pivots are ``|L_kk|^2``, and one at or below ``PIVOT_FLOOR_SCALE``
    times the largest |diagonal| entry of ``a``, or an ``a`` that is not
    positive definite, raises :class:`SingularityError`. The solution is
    LAPACK's partially pivoted LU (``np.linalg.solve``); numpy exposes
    neither the LU pivots nor a triangular solve, hence two factorizations.
    ``a``'s symmetry is taken on trust. A non-finite entry of ``a`` raises
    :class:`NumericalError`.
    """
    a = _square(a, "coefficient matrix")
    b = np.asarray(b, dtype=complex)
    if not np.isfinite(a).all():
        raise NumericalError(f"coefficient matrix {a.shape} holds a non-finite entry")
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")

    floor = PIVOT_FLOOR_SCALE * np.abs(a.diagonal()).max(initial=0.0)
    try:
        pivots = np.abs(np.linalg.cholesky(a).diagonal()) ** 2
        if (low := pivots <= floor).any():
            k = int(low.argmax())
            raise SingularityError(
                f"pivot {pivots[k]:.3e} at column {k} below floor {floor:.3e}"
            )
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"coefficient matrix {a.shape}: {exc}") from exc
