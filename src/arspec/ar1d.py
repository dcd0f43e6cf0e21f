"""One-dimensional AR estimators: Levinson recursion and the Burg lattice.

Three routes to the prediction coefficients of ``x(k) + sum_l a_l x(k-l) =
w(k)``:

* :func:`levinson` solves the Toeplitz normal equations order-recursively
  from a biased autocorrelation sequence.
* :func:`burg_classic` and :func:`burg_modified` are one Burg lattice run
  over two supports. Each stage takes Burg's symmetric reflection
  coefficient, with the half-sum energy denominator that keeps its
  magnitude at or below one, over its forward window against the backward
  window delayed by one sample. :func:`burg_classic` is the textbook
  finite-sample lattice, whose error supports shrink by one sample per
  order. :func:`burg_modified` runs over zero-padded error signals whose
  supports GROW by one sample per order (``e_b(-1) = 0`` and the forward
  error past its last nonzero value are kept as explicit zeros). Under that
  convention the forward and backward error energies are equal, and the
  lattice reproduces the Levinson coefficients on the biased
  autocorrelation, so the two routes cross-check each other to machine
  precision.

All three populate a per-order history so a single run at order ``n``
yields the models of every intermediate order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autocorr import as_signal_1d
from .errors import DegenerateSignalError, NumericalError, SingularityError

__all__ = [
    "ArModel1D",
    "ErrorSignals1D",
    "LatticeStage",
    "backward_prediction_residual",
    "burg_classic",
    "burg_modified",
    "levinson",
    "prediction_residual",
    "residual_mse",
]

#: |reflection| within this distance of 1 means the signal is perfectly
#: predictable at that order; the recursion stops instead of dividing by a
#: vanishing error power.
UNIT_CIRCLE_TOL = 1e-14

#: Levinson denominator floor, relative to r_0.
POWER_FLOOR_SCALE = 1e-14


@dataclass
class ErrorSignals1D:
    """Forward/backward prediction errors with an explicit support.

    ``forward[i]`` is the forward error at time ``k_min + i`` (same for
    ``backward``). Classic Burg keeps ``[order, N-1]``; the zero-padded
    variant keeps ``[0, N+order-1]``, with the boundary samples
    ``e_b(-1) = 0`` and ``e_f(N+order) = 0`` implied outside the arrays.
    """

    forward: np.ndarray
    backward: np.ndarray
    k_min: int
    k_max: int


@dataclass
class LatticeStage:
    """Snapshot after completing one recursion order."""

    order: int
    coeffs: np.ndarray
    error_power: float
    reflection: complex
    errors: ErrorSignals1D | None = None


@dataclass
class ArModel1D:
    """AR prediction coefficients ``a_1..a_order`` plus error power.

    ``error_power`` is the unnormalized prediction-error power (same scale
    as the unnormalized lag sums: ``P_0 = r_0 = sum |x|^2``). ``history``
    holds one :class:`LatticeStage` per completed order. ``early_stop`` is
    set when the recursion ended before the requested order because a
    reflection coefficient reached the unit circle.
    """

    order: int
    coeffs: np.ndarray
    error_power: float
    history: list[LatticeStage]
    early_stop: bool = False


def _extend(coeffs: np.ndarray, m: int, reflection: complex) -> None:
    """Order-update ``a_l <- a_l + k conj(a_{m-l})`` of ``coeffs[:m-1]`` in
    place, then set ``a_m = k``."""
    prev = coeffs[: m - 1]
    prev += reflection * prev[::-1].conj()
    coeffs[m - 1] = reflection


def levinson(r, order: int) -> ArModel1D:
    """Solve the Toeplitz normal equations by order recursion.

    Parameters
    ----------
    r : array_like
        Autocorrelation lags ``r_0 .. r_max`` with ``max >= order`` and
        ``r_0 > 0`` (see :func:`arspec.autocorr.estimate_autocorr_1d`).
    order : int
        Requested prediction order, at least 1.

    The stage-``n`` reflection coefficient is ``-(r_n + sum r_{n-l} a_l) /
    P_{n-1}`` with ``P_0 = r_0`` and ``P_n = P_{n-1} (1 - |k_n|^2)``.

    Raises
    ------
    DegenerateSignalError
        If ``r_0 <= 0``.
    SingularityError
        If the error power falls below ``1e-14 r_0`` (perfectly predictable
        input) before a unit-circle reflection is seen.
    NumericalError
        If the final error power is not finite (a non-finite k makes it so).
    """
    r = np.asarray(r, dtype=complex)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if r.ndim != 1 or r.size < order + 1:
        raise ValueError(f"need lags r_0..r_{order}, got {r.size} lags")
    r0 = r[0].real
    if r0 <= 0.0:
        raise DegenerateSignalError(f"r_0 must be positive, got {r0}")

    coeffs = np.zeros(order, dtype=complex)
    power = r0
    history: list[LatticeStage] = []
    early = False
    for m in range(1, order + 1):
        if power <= POWER_FLOOR_SCALE * r0:
            raise SingularityError(
                f"prediction-error power {power:.3e} vanished at order {m}"
            )
        delta = r[m] + (r[m - 1 : 0 : -1] @ coeffs[: m - 1] if m > 1 else 0.0)
        k = -delta / power
        _extend(coeffs, m, k)
        power = power * (1.0 - (k * k.conjugate()).real)
        history.append(LatticeStage(m, coeffs[:m].copy(), power, complex(k)))
        if abs(k) >= 1.0 - UNIT_CIRCLE_TOL and m < order:
            early = True
            break
    if not math.isfinite(power):
        raise NumericalError(f"non-finite prediction-error power {power} at order {m}")
    return ArModel1D(m, coeffs[:m], power, history, early)


def _burg_lattice(x, order: int, padded: bool, keep_errors: bool) -> ArModel1D:
    """The Burg lattice of both 1D estimators, over either support.

    The errors live in one buffer per direction indexed by time plus one,
    so slot 0 is ``e_b(-1) = 0`` and stays zero. Stage ``m`` pairs the
    forward errors on its window, ``[m, N-1]`` when shrinking and
    ``[0, N+m-1]`` when ``padded``, with the backward errors on the same
    window delayed by one sample, and updates both in place on the forward
    window, which is the support of the order-``m`` errors.
    """
    x = as_signal_1d(x)
    n = x.size
    if not 1 <= order <= n - 1:
        raise ValueError(f"order must be in [1, {n - 1}], got {order}")
    power = np.vdot(x, x).real
    if power == 0.0:
        raise DegenerateSignalError("signal has zero energy")

    ef = np.zeros(n + 1 + (order if padded else 0), dtype=complex)
    ef[1 : n + 1] = x
    eb = ef.copy()
    coeffs = np.zeros(order, dtype=complex)
    history: list[LatticeStage] = []
    early = False
    for m in range(1, order + 1):
        lo, hi = (1, n + m + 1) if padded else (m + 1, n + 1)
        f = ef[lo:hi]
        b = eb[lo - 1 : hi - 1]
        denom = 0.5 * (np.vdot(f, f).real + np.vdot(b, b).real)
        if denom == 0.0:
            raise DegenerateSignalError(f"zero error energy at order {m}")
        k = -np.vdot(b, f) / denom
        _extend(coeffs, m, k)
        # The backward update reads the old forward errors: write f last.
        new_f = f + k * b
        eb[lo:hi] = b + k.conjugate() * f
        f[:] = new_f
        power = power * (1.0 - (k * k.conjugate()).real)
        errors = None
        if keep_errors:
            errors = ErrorSignals1D(f.copy(), eb[lo:hi].copy(), lo - 1, hi - 2)
        history.append(LatticeStage(m, coeffs[:m].copy(), power, complex(k), errors))
        if abs(k) >= 1.0 - UNIT_CIRCLE_TOL and m < order:
            early = True
            break
    if not math.isfinite(power):
        raise NumericalError(f"non-finite prediction-error power {power} at order {m}")
    return ArModel1D(m, coeffs[:m], power, history, early)


def burg_classic(x, order: int, keep_errors: bool = False) -> ArModel1D:
    """Finite-sample Burg lattice with shrinking error supports.

    At stage ``m`` the reflection coefficient is estimated over the common
    support ``k in [m, N-1]``:

        ``k_m = -sum e_f(k) conj(e_b(k-1)) /
                (0.5 sum (|e_f(k)|^2 + |e_b(k-1)|^2))``

    which bounds ``|k_m| <= 1``; the error signals are then updated on the
    same window, losing one sample per order. ``error_power`` follows the
    ``P_m = P_{m-1} (1 - |k_m|^2)`` recursion from ``P_0 = sum |x|^2``.
    """
    return _burg_lattice(x, order, padded=False, keep_errors=keep_errors)


def burg_modified(x, order: int, keep_errors: bool = False) -> ArModel1D:
    """Zero-padded Burg lattice; reproduces :func:`levinson` exactly.

    The error signals start as the signal itself on ``[0, N-1]`` and gain
    one sample per order instead of losing one; the recursion runs until
    the last nonzero value with ``e_b(-1) = 0`` and ``e_f`` zero past its
    support. The stage-``m`` reflection coefficient is Burg's symmetric one,

        ``k_m = -sum_k e_f(k) conj(e_b(k-1)) /
                (0.5 sum_k (|e_f(k)|^2 + |e_b(k-1)|^2))``

    with both sums over the full extended support ``k in [0, N+m-1]``.
    Under zero padding the forward and backward error energies are equal at
    every stage, so the half-sum equals either energy.

    The resulting coefficients equal ``levinson(estimate_autocorr_1d(x,
    order), order)`` up to rounding: the extended sums turn the lattice
    moments into biased lag sums with no boundary truncation.
    """
    return _burg_lattice(x, order, padded=True, keep_errors=keep_errors)


def prediction_residual(x, coeffs) -> np.ndarray:
    """Forward prediction error ``x(k) + sum_l a_l x(k-l)`` on the
    zero-padded support, length ``N + order``."""
    x = as_signal_1d(x)
    filt = np.concatenate([[1.0 + 0.0j], np.asarray(coeffs, dtype=complex)])
    return np.convolve(filt, x)


def backward_prediction_residual(x, coeffs) -> np.ndarray:
    """Backward prediction error ``x(k-n) + sum_l conj(a_l) x(k+l-n)`` on
    the zero-padded support, length ``N + order``."""
    x = as_signal_1d(x)
    filt = np.concatenate([[1.0 + 0.0j], np.asarray(coeffs, dtype=complex)])
    return np.convolve(filt[::-1].conj(), x)


def residual_mse(x, model: ArModel1D | LatticeStage, support: str = "window") -> float:
    """Mean squared forward-prediction error, normalized by ``N``.

    ``support="window"`` sums ``|x(k) + sum_l a_l x(k-l)|^2`` over the data
    window ``k in [0, N-1]`` with ``x(k) = 0`` for ``k < 0``.
    ``support="full"`` sums over the entire zero-padded residual,
    ``k in [0, N+order-1]`` (zero values for samples outside the record on
    both sides); for coefficients from the zero-padded lattice this equals
    the recursion's error power over ``N`` and is exactly nonincreasing in
    the order, whereas the windowed sum can fluctuate slightly through the
    dropped tail. Any model order is accepted, and ``model`` may be a
    :class:`LatticeStage` of a history; only its ``coeffs`` are read.
    """
    x = as_signal_1d(x)
    res = prediction_residual(x, model.coeffs)
    if support == "window":
        res = res[: x.size]
    elif support != "full":
        raise ValueError(f"support must be 'window' or 'full', got {support!r}")
    return float(np.sum(np.abs(res) ** 2) / x.size)
