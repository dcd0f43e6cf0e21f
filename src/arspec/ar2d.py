"""Two-dimensional AR estimators via the multichannel embedding.

The 2D signal is stacked into shifted, zero-filled data matrices (one per
row index; see :func:`arspec.autocorr.build_data_matrices`), which turns 2D
linear prediction into multichannel prediction with coefficient MATRICES
``A_1..A_n1`` of size ``(n2+1) x (n2+1)``. Three estimators are provided:

* :func:`wwra` - the multichannel order recursion (Whittle, Wiggins,
  Robinson) specialized to the Toeplitz-block-Toeplitz correlation of the
  2D embedding, where the backward coefficients are the exchange-conjugates
  of the forward ones and only one recursion is needed. The backward error
  power is updated by the cheap recurrence ``P <- P + J A_nn^* J Delta``
  (the exchange-conjugate of the forward increment ``A_nn Delta^H``)
  instead of re-evaluating its defining sum each stage.
* :func:`burg2d_classic` and :func:`burg2d_modified` - one block Burg
  lattice run over two supports. Each stage takes the symmetric update
  ``A = -[Pfb + J Pfb^T J][Pb + J Pf^* J]^{-1}`` (J the exchange matrix),
  which minimizes the summed forward+backward error trace, with the
  moments taken over the stage's forward window against the backward
  window delayed by one row index. The classic lattice's supports shrink
  by one row per order. The modified lattice's supports grow over
  zero-padded rows; its coefficient matrices then equal :func:`wwra`
  applied to the zero-padded block autocorrelation, to machine precision,
  and its moment matrices satisfy ``Pb = J Pf^* J`` and
  ``Pfb = J Pfb^T J`` at every stage, so the symmetric update coincides
  with the plain ``A = -Pfb Pb^{-1}``.

A quarter-plane scalar prediction filter is recovered from any of the
models by :func:`extract_quarter_plane_filter`; the extraction is pinned by
a self-validating contract (the scalar filter must reproduce component 0 of
the forward error block exactly).
"""

from dataclasses import dataclass

import numpy as np

from .autocorr import as_grid_2d, build_data_matrices
from .errors import DegenerateSignalError, NumericalError
from .linalg import exchange_conj, exchange_transpose, solve_hermitian_dense

__all__ = [
    "ArModel2D",
    "BlockStage",
    "ErrorSignals2D",
    "QuarterPlaneFilter",
    "burg2d_classic",
    "burg2d_modified",
    "extract_quarter_plane_filter",
    "quarter_plane_residual",
    "residual_mse_2d",
    "wwra",
]


@dataclass
class ErrorSignals2D:
    """Per-stage forward/backward error blocks with explicit support.

    ``forward[i]`` is the ``(n2+1) x (N2+n2)`` forward error block at row
    index ``k_min + i``. The zero-padded variant starts at ``k_min = 0``
    and grows one block per order (boundary blocks are zero); the classic
    variant starts at ``k_min = order``.
    """

    forward: np.ndarray
    backward: np.ndarray
    k_min: int
    k_max: int


@dataclass
class BlockStage:
    """Snapshot after one 2D recursion stage.

    Every lattice stage records four moments of its order-``m`` errors over
    their current support, rows ``[m, N1-1]`` for the classic lattice and
    ``[0, N1+m-1]`` for the zero-padded one:

    * ``error_power = sum e_b(k) e_b(k)^H``;
    * ``forward_power = sum e_f(k) e_f(k)^H``;
    * ``cross_power = sum e_f(k) e_b(k-1)^H`` over the rows ``k`` where both
      errors lie in the support;
    * ``criterion = tr forward_power + tr error_power``, the trace the
      symmetric update minimizes.

    :func:`wwra` stages record ``error_power`` only.
    """

    order: int
    coeffs: np.ndarray
    reflection: np.ndarray | None
    error_power: np.ndarray
    forward_power: np.ndarray | None = None
    cross_power: np.ndarray | None = None
    criterion: float | None = None
    errors: ErrorSignals2D | None = None


@dataclass
class ArModel2D:
    """Multichannel AR model: coefficient matrices plus backward error power.

    ``coeffs`` has shape ``(order, n2+1, n2+1)``; ``error_power`` is the
    (unnormalized) backward error-power matrix ``P_b``. ``sample_terms``
    records how many row-index terms the ``P_b`` sum ran over, so a
    comparable noise power can be extracted; it is ``None`` when the model
    came straight from lag blocks and the caller did not say.
    """

    order: int
    channel_order: int
    coeffs: np.ndarray
    error_power: np.ndarray
    history: list[BlockStage]
    sample_terms: int | None = None


@dataclass
class QuarterPlaneFilter:
    """Scalar quarter-plane prediction filter ``c(l1, l2)``, ``c(0,0) = 1``.

    ``coeffs`` has shape ``(n1+1, n2+1)`` with the top row
    ``[1, 0, ..., 0]``; ``noise_power`` is the extracted prediction-error
    variance.
    """

    coeffs: np.ndarray
    noise_power: float

    @property
    def order1(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def order2(self) -> int:
        return self.coeffs.shape[1] - 1


def _extend_block(coeffs: np.ndarray, m: int, a_nn: np.ndarray) -> None:
    """Order-update ``A_l <- A_l + A_nn J A_{m-l}^* J`` of ``coeffs[:m-1]``
    in place, then set ``A_m = A_nn``."""
    prev = coeffs[: m - 1]
    prev += a_nn @ prev[::-1, ::-1, ::-1].conj()
    coeffs[m - 1] = a_nn


def _gram(lead: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """``sum_k lead(k) lag(k)^H`` over the blocks of two channel-major
    ``(p, rows * width)`` windows."""
    return lead @ lag.conj().T


def wwra(blocks, order: int, sample_terms: int | None = None) -> ArModel2D:
    """Multichannel Levinson recursion on Toeplitz-block-Toeplitz lags.

    Parameters
    ----------
    blocks : array_like
        Lag blocks ``R_0 .. R_max`` of shape ``(max+1, p, p)`` with
        ``max >= order``; each block must be (numerically) Toeplitz and the
        stack Hermitian block-Toeplitz, as produced by
        :func:`arspec.autocorr.estimate_block_autocorr_2d`.
    order : int
        Requested order ``n1 >= 1``.
    sample_terms : int, optional
        Number of row-index terms behind the lag sums (``N1 + order`` for
        the zero-padded convention); stored on the model for noise-power
        extraction.

    Stage ``n`` computes ``Delta_n = R_n + sum_l A_l R_{n-l}``, the new
    coefficient ``A_nn = -Delta_n P^{-1}``, the order update of all
    previous coefficients through the exchange-conjugate of their reversal,
    and the backward error-power recurrence
    ``P <- P + J A_nn^* J Delta_n``, which reproduces the defining sum
    ``R_0 + sum_l J A_l^* J R_l`` exactly.

    Raises :class:`arspec.errors.SingularityError` if ``P`` is singular
    within the pivot tolerance at any stage, and
    :class:`arspec.errors.NumericalError` if the result is not finite.
    """
    blocks = np.asarray(blocks, dtype=complex)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"blocks must have shape (n+1, p, p), got {blocks.shape}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if blocks.shape[0] < order + 1:
        raise ValueError(f"need lag blocks R_0..R_{order}, got {blocks.shape[0]}")

    p = blocks.shape[1]
    coeffs = np.zeros((order, p, p), dtype=complex)
    power = blocks[0].copy()
    history: list[BlockStage] = []
    for m in range(1, order + 1):
        delta = blocks[m].copy()
        if m > 1:
            delta += np.einsum("lij,ljk->ik", coeffs[: m - 1], blocks[m - 1 : 0 : -1])
        a_nn = -solve_hermitian_dense(power, delta, side="right")
        _extend_block(coeffs, m, a_nn)
        # Backward-power increment. Note the exchange-conjugate: the plain
        # forward increment A Delta^H updates the FORWARD power and only
        # coincides with this for scalar blocks; using it here breaks the
        # agreement with both the defining sum for P and the lattice route.
        power = power + exchange_conj(a_nn) @ delta
        history.append(BlockStage(m, coeffs[:m].copy(), a_nn, power.copy()))
    if not (np.isfinite(coeffs).all() and np.isfinite(power).all()):
        raise NumericalError(f"non-finite coefficients or error power at order {order}")
    return ArModel2D(order, p - 1, coeffs, power, history, sample_terms)


def _burg2d_lattice(
    x, order: int, channel_order: int, padded: bool, keep_errors: bool
) -> ArModel2D:
    """The block Burg lattice of both 2D estimators, over either support.

    The error blocks live channel-major in one ``(p, rows * width)`` buffer
    per direction, row ``k`` at block ``k + 1``, so block 0 is
    ``e_b(-1) = 0`` and stays zero. Stage ``m`` pairs the forward errors on
    its window, rows ``[m, N1-1]`` when shrinking and ``[0, N1+m-1]`` when
    ``padded``, with the backward errors on the same window delayed by one
    row, and updates both in place on the forward window, which is the
    support of the order-``m`` errors. Each moment is one matmul over a
    window.
    """
    x = as_grid_2d(x)
    data = build_data_matrices(x, channel_order)
    n1_len, p, width = data.shape
    if not 0 <= order <= n1_len - 1:
        raise ValueError(f"order must be in [0, {n1_len - 1}], got {order}")
    # The 1D lattice's rule: an energy that rounds to zero is no energy.
    if order >= 1 and not np.vecdot(x.ravel(), x.ravel()).real:
        raise DegenerateSignalError("grid has zero energy")

    ef = np.zeros((p, (n1_len + 1 + (order if padded else 0)) * width), dtype=complex)
    ef[:, width : (n1_len + 1) * width] = data.transpose(1, 0, 2).reshape(p, -1)
    eb = ef.copy()
    coeffs = np.zeros((order, p, p), dtype=complex)
    history: list[BlockStage] = []
    for m in range(order + 1):
        lo, hi = (1, n1_len + m + 1) if padded else (m + 1, n1_len + 1)
        f = ef[:, lo * width : hi * width]
        b = eb[:, lo * width : hi * width]
        a_nn = None
        if m:
            numer = pfb + exchange_transpose(pfb)
            # A zero cross moment already minimizes the criterion at A = 0;
            # do not insist on inverting a (possibly rank-deficient)
            # denominator.
            if not np.any(numer):
                a_nn = np.zeros((p, p), dtype=complex)
            else:
                a_nn = -solve_hermitian_dense(pb + exchange_conj(pf), numer, side="right")
            _extend_block(coeffs, m, a_nn)
            # The backward update reads the old forward errors: write f last.
            b_prev = eb[:, (lo - 1) * width : (hi - 1) * width]
            new_f = f + a_nn @ b_prev
            b[:] = b_prev + exchange_conj(a_nn) @ f
            f[:] = new_f
        pf, pb, pfb = _gram(f, f), _gram(b, b), _gram(f[:, width:], b[:, :-width])
        errors = None
        if keep_errors:
            errors = ErrorSignals2D(
                *(e.reshape(p, -1, width).transpose(1, 0, 2).copy() for e in (f, b)),
                lo - 1,
                hi - 2,
            )
        criterion = float((pf.trace() + pb.trace()).real)
        history.append(
            BlockStage(m, coeffs[:m].copy(), a_nn, pb, pf, pfb, criterion, errors)
        )
        if not padded:
            # The next stage's shrinking windows drop the first forward and
            # the last backward block; padded windows only add zero blocks.
            pf, pb = _gram(f[:, width:], f[:, width:]), _gram(b[:, :-width], b[:, :-width])
    power = history[-1].error_power
    if not (np.isfinite(coeffs).all() and np.isfinite(power).all()):
        raise NumericalError(f"non-finite coefficients or error power at order {order}")
    return ArModel2D(order, channel_order, coeffs, power, history, hi - lo)


def burg2d_classic(
    x, order: int, channel_order: int, keep_errors: bool = False
) -> ArModel2D:
    """Finite-sample 2D Burg lattice with shrinking supports.

    The error blocks start as the data matrices on ``k in [0, N1-1]``; at
    stage ``m`` the sample moments are taken over the common window
    ``k in [m, N1-1]`` (forward errors against backward errors delayed by
    one), the coefficient matrix comes from the symmetric update

        ``A = -[Pfb + J Pfb^T J] [Pb + J Pf^* J]^{-1}``

    and the errors are updated on the same window, losing one block per
    order. Each stage records the minimized criterion
    ``tr(Pf + J Pb^* J)`` evaluated over the new support; the sequence is
    nonincreasing in the stage.
    """
    return _burg2d_lattice(x, order, channel_order, padded=False, keep_errors=keep_errors)


def burg2d_modified(
    x, order: int, channel_order: int, keep_errors: bool = False
) -> ArModel2D:
    """Zero-padded 2D Burg lattice; reproduces :func:`wwra` exactly.

    The error blocks are extended one row index per order (``e_b(-1) = 0``,
    forward error zero past its last nonzero block) and the stage
    coefficient comes from the same symmetric update as
    :func:`burg2d_classic`, with every moment summed over the full extended
    support. There the moments satisfy the exchange symmetries
    ``Pb = J Pf^* J`` and ``Pfb = J Pfb^T J``, so the update equals the
    plain ``A = -[sum_k e_f(k) e_b(k-1)^H] [sum_k e_b(k) e_b(k)^H]^{-1}``
    up to rounding.

    The output coefficient matrices match
    ``wwra(estimate_block_autocorr_2d(x, order, channel_order), order)``
    to machine precision.
    """
    return _burg2d_lattice(x, order, channel_order, padded=True, keep_errors=keep_errors)
def extract_quarter_plane_filter(model: ArModel2D) -> QuarterPlaneFilter:
    """Recover the scalar quarter-plane filter from a multichannel model.

    ``c(l1, :)`` is row 0 of ``A_{l1}`` (the component predicting the top
    entry of the stacked channel vector); ``c(0, 0) = 1`` and the rest of
    row 0 is zero. The choice is pinned by a validation contract: applying
    the scalar filter to the zero-padded signal reproduces component 0 of
    the forward error block at every sample (see
    :func:`quarter_plane_residual`).

    ``noise_power`` is ``Re P_b[0, 0]`` divided by the model's
    ``sample_terms`` (left unnormalized when unknown), making it comparable
    to :func:`residual_mse_2d`.
    """
    p = model.channel_order + 1
    c = np.zeros((model.order + 1, p), dtype=complex)
    c[0, 0] = 1.0
    for l1 in range(1, model.order + 1):
        c[l1] = model.coeffs[l1 - 1][0, :]
    pb00 = float(model.error_power[0, 0].real)
    terms = model.sample_terms if model.sample_terms else 1
    return QuarterPlaneFilter(c, pb00 / terms)


def quarter_plane_residual(x, filt: QuarterPlaneFilter) -> np.ndarray:
    """Residual ``sum_{l1,l2} c(l1,l2) x(k-l1, t-l2)`` over the zero-padded
    plane, shape ``(N1+n1, N2+n2)``."""
    x = as_grid_2d(x)
    c = filt.coeffs
    rows, cols = x.shape
    out = np.zeros((rows + c.shape[0] - 1, cols + c.shape[1] - 1), dtype=complex)
    for l1 in range(c.shape[0]):
        for l2 in range(c.shape[1]):
            if c[l1, l2] != 0.0:
                out[l1 : l1 + rows, l2 : l2 + cols] += c[l1, l2] * x
    return out


def residual_mse_2d(x, filt: QuarterPlaneFilter) -> float:
    """Mean squared filter residual over the grid (zero-padded past)."""
    x = as_grid_2d(x)
    res = quarter_plane_residual(x, filt)[: x.shape[0], : x.shape[1]]
    return float(np.mean(np.abs(res) ** 2))
