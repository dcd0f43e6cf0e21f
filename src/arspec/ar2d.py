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
  which minimizes the summed forward+backward error trace. All three
  moments come from one real Gram per stage, over the stage's forward
  window stacked on the backward window delayed by one row index, so
  ``Pf`` and ``Pb`` are exactly Hermitian. The classic lattice's supports
  shrink by one row per order; the products of the two blocks that drop
  out complete its recorded ``Pf`` and ``Pb``. :func:`burg2d_classic`
  takes the same moments from the lag blocks instead, through a carried
  table of block forms of its coefficients minus the edge blocks its window
  drops, and hands a grid to the lattice when a stage denominator's
  Cholesky pivots fall below ``2 R_0[0,0] / FAST_BURG_BOUND``. The modified lattice's
  supports grow over zero-padded rows; its coefficient matrices then equal
  :func:`wwra` applied to the zero-padded block autocorrelation, to
  machine precision, and its moments satisfy ``Pb = J Pf^* J`` and
  ``Pfb = J Pfb^T J`` at every stage, so the symmetric update coincides
  with the plain ``A = -Pfb Pb^{-1}``.

A stage keeps its coefficients and moments, not its error blocks: those
are functions of the coefficients over the data matrices ``X(k)``, zero
outside ``[0, N1-1]``: ``e_f(k) = X(k) + sum_l A_l X(k-l)`` and
``e_b(k) = X(k-m) + sum_l J A_l^* J X(k-m+l)`` at order ``m``. The lattices
take an order ``n1`` in ``[1, N1-1]``.

A quarter-plane scalar prediction filter is recovered from any of the
models by :func:`extract_quarter_plane_filter`; the extraction is pinned by
a self-validating contract: the scalar filter reproduces component 0 of
the forward error block, to rounding.
"""

from dataclasses import dataclass

import numpy as np

from .ar1d import FAST_BURG_BOUND
from .autocorr import as_grid_2d, build_data_matrices, estimate_block_autocorr_2d
from .errors import DegenerateSignalError, NumericalError
from .linalg import exchange_conj, exchange_transpose, solve_hermitian_dense

__all__ = [
    "ArModel2D",
    "BlockStage",
    "QuarterPlaneFilter",
    "burg2d_classic",
    "burg2d_modified",
    "extract_quarter_plane_filter",
    "quarter_plane_residual",
    "residual_mse_2d",
    "wwra",
]


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
    error_power: np.ndarray
    forward_power: np.ndarray | None = None
    cross_power: np.ndarray | None = None
    criterion: float | None = None


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


def _finish(coeffs: np.ndarray, history: list[BlockStage], sample_terms: int | None) -> ArModel2D:
    """The model ending in the last stage; :class:`NumericalError` if its
    coefficients or final error power are not finite, or its error power has
    a diagonal entry below the smallest normal double, where the stages'
    sums have lost their precision."""
    power = history[-1].error_power
    if not (np.isfinite(coeffs).all() and np.isfinite(power).all()):
        raise NumericalError(f"non-finite coefficients or error power at order {len(coeffs)}")
    if np.diagonal(power).real.min() < np.finfo(float).tiny:
        raise NumericalError(f"error power below the normal double range at order {len(coeffs)}")
    return ArModel2D(len(coeffs), coeffs.shape[1] - 1, coeffs, power, history, sample_terms)


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

    Raises :class:`arspec.errors.DegenerateSignalError` if a diagonal
    entry of ``R_0`` is not positive (a grid whose energy rounds to zero),
    :class:`arspec.errors.SingularityError` if ``P`` is singular within the
    pivot tolerance at any stage, and :class:`arspec.errors.NumericalError`
    if the result is not finite.
    """
    blocks = np.asarray(blocks, dtype=complex)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"blocks must have shape (n+1, p, p), got {blocks.shape}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if blocks.shape[0] < order + 1:
        raise ValueError(f"need lag blocks R_0..R_{order}, got {blocks.shape[0]}")
    diag = blocks[0].diagonal().real
    if np.count_nonzero(diag <= 0.0):
        raise DegenerateSignalError(
            f"R_0 diagonal must be positive, got {diag[np.argmax(diag <= 0.0)]}"
        )

    p = blocks.shape[1]
    coeffs = np.zeros((order, p, p), dtype=complex)
    power = blocks[0]
    history: list[BlockStage] = []
    for m in range(1, order + 1):
        delta = blocks[m].copy()
        if m > 1:
            delta += np.einsum("lij,ljk->ik", coeffs[: m - 1], blocks[m - 1 : 0 : -1])
        a_nn = -solve_hermitian_dense(power.T, delta.T).T
        _extend_block(coeffs, m, a_nn)
        # Backward-power increment. Note the exchange-conjugate: the plain
        # forward increment A Delta^H updates the FORWARD power and only
        # coincides with this for scalar blocks; using it here breaks the
        # agreement with both the defining sum for P and the lattice route.
        power = power + exchange_conj(a_nn) @ delta
        history.append(BlockStage(m, coeffs[:m].copy(), power))
    return _finish(coeffs, history, sample_terms)


def grid_for_order(x, order: int, channel_order: int) -> np.ndarray:
    """``x``, a grid that :func:`as_grid_2d` accepts, checked for a run at
    orders ``(order, channel_order)``: ``order`` in ``[1, N1-1]`` and
    ``channel_order`` in ``[0, N2-1]``."""
    x = as_grid_2d(x)
    if not 1 <= order <= x.shape[0] - 1:
        raise ValueError(f"order must be in [1, {x.shape[0] - 1}], got {order}")
    if not 0 <= channel_order <= x.shape[1] - 1:
        raise ValueError(f"n2 must be in [0, {x.shape[1] - 1}], got {channel_order}")
    return x


def _gram(r: np.ndarray) -> np.ndarray:
    """``u @ u^H`` for the rows ``Re u_0, Im u_0, Re u_1, ...`` of ``r``; exactly
    Hermitian, since numpy computes ``r @ r.T`` as a symmetric rank-k update."""
    g = r @ r.T
    out = np.empty((len(r) // 2, len(r) // 2), dtype=complex)
    np.add(g[0::2, 0::2], g[1::2, 1::2], out=out.real)
    np.subtract(g[1::2, 0::2], g[0::2, 1::2], out=out.imag)
    return out


def _fill(out: np.ndarray, x: np.ndarray, width: int) -> None:
    """Write the data matrices ``X(k)`` of the grid rows ``x`` into the zeroed
    ``(2p, len(x) * width)`` real rows ``out``, laid out as by
    :func:`_put_real`: rows ``2i`` and ``2i+1`` of block ``k`` take ``Re
    x(k)`` and ``Im x(k)`` at columns ``[i, i+N2)``."""
    rows, cols = x.shape
    for i, line in enumerate(out.reshape(len(out) // 2, 2, rows, width)):
        line[0, :, i : i + cols] = x.real
        line[1, :, i : i + cols] = x.imag


def _put_real(out: np.ndarray, blocks: np.ndarray) -> None:
    """Write the ``(n, p, width)`` complex blocks into the ``(2p, n * width)``
    real rows ``out``, channel ``i``'s real part over its imaginary part."""
    n, p, width = blocks.shape
    out.reshape(p, 2, n, width)[:] = blocks.view(float).reshape(n, p, width, 2).transpose(1, 3, 0, 2)


def _coefficient(pf: np.ndarray, pb: np.ndarray, pfb: np.ndarray) -> np.ndarray:
    """The symmetric update ``A = -[Pfb + J Pfb^T J] [Pb + J Pf^* J]^{-1}``."""
    numer = pfb + exchange_transpose(pfb)
    # A zero cross moment already minimizes the criterion at A = 0; do not
    # insist on inverting a (possibly rank-deficient) denominator.
    if not np.any(numer):
        return np.zeros_like(numer)
    denom = pb + exchange_conj(pf)
    return -solve_hermitian_dense(denom.T, numer.T).T


def _chunk_blocks(width: int) -> int:
    """Column blocks per chunk of a lattice step: as many whole blocks of
    ``width`` columns as span at most 512 columns, and at least one."""
    return max(1, 512 // width)


def _advance(a_nn: np.ndarray, buf: np.ndarray, blocks: slice, width: int) -> None:
    """One lattice step in place on the column blocks ``[blocks.start,
    blocks.stop)`` of the real error buffer ``buf``, or of each buffer in a
    stack of them: ``e_f(k) += A D(k)`` in block ``k``, and ``D(k) + J A^* J
    e_f(k)`` into block ``k + 1``.

    The step walks the window from its last chunk of whole blocks
    (:func:`_chunk_blocks`) to its first. It takes both products of a chunk
    into a scratch allocated once, adds ``A D(k)`` to ``e_f(k)`` and writes
    the new ``D`` one block ahead, over the old ``D`` of the chunk above,
    which has already been read. Each column of a product is a sum over the
    same ``2p`` terms as in one product over the whole window; BLAS may
    still round a chunk's last, partial tile of columns differently.

    A chunk spans at most 512 columns. At ``p = 17`` in blocks of 144
    columns, chunks of 3 to 6 blocks ran fastest (2-vCPU VM, 2 MiB L2):
    one OpenBLAS product of 432 to 864 columns took 34-36 ns per column,
    and of 1152 or more, 46-57 ns on one thread; below 3 blocks the calls
    per chunk dominated. OpenBLAS keeps a product of at most 512 columns on
    one thread up to ``p = 16``, so there the step's bits do not depend on
    the thread count. The 1D lattice's 128 KiB slices would give a 48x40
    grid at ``p = 6`` a scratch of 30 of its 55 blocks; 512 columns give 11.
    """
    p = len(a_nn)
    # Real forms of J A^* J on e_f and of A on D (rows 2i, 2i+1: conj(A[i]), 1j conj(A[i])).
    upd = np.empty((2, 2 * p, 2 * p))
    pairs = upd[1].view(complex).reshape(p, 2, p)
    np.multiply(np.conjugate(a_nn, out=pairs[:, 0]), 1j, out=pairs[:, 1])
    upd[0] = upd[1, ::-1, ::-1]
    lo, hi = blocks.start, blocks.stop
    step = _chunk_blocks(width)
    stack = buf.shape[:-2]
    ef, d = buf[..., : 2 * p, :], buf[..., 2 * p :, :]
    scratch = np.empty((*stack, 2, 2 * p, min(step, hi - lo) * width))
    for start in reversed(range(lo, hi, step)):
        a, b = start * width, min(start + step, hi) * width
        prods = scratch[..., : b - a]
        np.matmul(upd, buf[..., a:b].reshape(*stack, 2, 2 * p, b - a), out=prods)
        bwd = prods[..., 0, :, :]
        ef[..., a:b] += prods[..., 1, :, :]
        bwd += d[..., a:b]
        d[..., a + width : b + width] = bwd


def _record(history: list, coeffs: np.ndarray, full: np.ndarray, pfb: np.ndarray) -> None:
    """Append the lattice stage ``m = len(history)``: its coefficients
    ``coeffs[:m]``, ``Pf`` and ``Pb`` from the diagonal blocks of ``full``,
    the cross moment ``pfb`` and the criterion, the trace of ``full``.

    Raises :class:`NumericalError` if the criterion overflows while every
    diagonal entry is finite. A non-finite entry is left to :func:`_finish`.
    """
    m, p = len(history), len(pfb)
    # The trace sums 2p entries near the grid's energy, and can overflow
    # where none of them does.
    with np.errstate(over="ignore"):
        criterion = float(full.trace().real)
    if np.isinf(criterion) and np.isfinite(full.diagonal()).all():
        raise NumericalError(f"criterion (the error-power trace) overflows at order {m}")
    history.append(BlockStage(m, coeffs[:m].copy(), full[p:, p:], full[:p, :p], pfb, criterion))


def _burg2d_lattice(x, order: int, channel_order: int, padded: bool) -> ArModel2D:
    """The block Burg lattice of both 2D estimators, over either support.

    The errors live in one real ``(4p, blocks * width)`` buffer: column
    block ``k`` holds ``e_f(k)`` over ``D(k) = e_b(k-1)``, each channel as
    its real row over its imaginary row, so ``D(0) = e_b(-1) = 0``. The
    order-0 errors, the data matrices ``X(k)``, are filled into it straight
    from the grid (:func:`_fill`), and never built on their own. Stage
    ``m`` updates them on its window, rows ``[m, N1-1]`` when shrinking and
    ``[0, N1+m-1]`` when ``padded``, by two real ``(2p x 2p)`` matmuls per
    chunk of blocks, in place from the last chunk to the first
    (:func:`_advance`): ``e_f(k)`` in block ``k``, ``e_b(k)`` into ``k + 1``.
    One Gram over the next window, a row shorter or longer, gives the next
    stage's ``Pf``, ``Pb`` and ``Pfb``, which under zero padding are also
    this stage's. On shrinking supports this stage's ``Pf`` and ``Pb`` add
    the products of the dropped first ``e_f`` and last ``e_b`` blocks:
    positive semidefinite terms, so nothing cancels.
    """
    x = grid_for_order(x, order, channel_order)
    n1_len, p, width = len(x), channel_order + 1, x.shape[1] + channel_order
    # The 1D lattice's rule: an energy that rounds to zero is no energy.
    if not np.vecdot(x.ravel(), x.ravel()).real:
        raise DegenerateSignalError("grid has zero energy")

    buf = np.zeros((4 * p, (n1_len + 1 + (order if padded else 0)) * width))
    _fill(buf[: 2 * p, : n1_len * width], x, width)
    buf[2 * p :, width : (n1_len + 1) * width] = buf[: 2 * p, : n1_len * width]
    coeffs = np.zeros((order, p, p), dtype=complex)
    history: list[BlockStage] = []
    lo, hi = 0, n1_len
    for m in range(order + 1):
        if m:
            _extend_block(coeffs, m, _coefficient(pf, pb, pfb))
            _advance(coeffs[m - 1], buf, slice(lo, hi), width)
        lo, hi = (lo, hi + 1) if padded else (lo + 1, hi)
        mom = full = _gram(buf[:, lo * width : hi * width])
        pf, pb, pfb = mom[:p, :p], mom[p:, p:], mom[:p, p:]
        if not padded:
            first = buf[: 2 * p, (lo - 1) * width : lo * width]
            last = buf[2 * p :, hi * width : (hi + 1) * width]
            full = mom + _gram(np.concatenate((first, last)))
        _record(history, coeffs, full, pfb)
    return _finish(coeffs, history, n1_len + order if padded else n1_len - order)


def _burg2d_from_lags(x: np.ndarray, order: int, channel_order: int) -> ArModel2D:
    """The model of the shrinking-support lattice from the lag blocks; raises
    :class:`NumericalError` with the reason the grid leaves this route, or a
    failed Cholesky's ``LinAlgError`` (see :func:`burg2d_classic`).

    Stage ``m`` takes the moments of its order-``m`` errors over the
    zero-padded support from one table of block forms of its taps ``A_0 =
    I, A_1 .. A_m``, ``G_i = sum_j R_{j-i} A_j^H`` for ``i`` in ``[-(n1+1),
    n1+1]``: ``Pf = sum_i A_i G_i``, ``Pb = J Pf^* J`` and ``Pfb = sum_i A_i
    J G_{m+1-i}^* J``, as ``R_t J = J R_t^T``. Built as ``G_i = R_{-i}``, the
    table follows each order update by persymmetry, ``G'_i = G_i + J
    G_{m+1-i}^* J A_nn^H``. Every complex product, the per-tap ones of the
    new edge blocks too, has inner dimension ``p``, so the route's bits do
    not depend on the BLAS thread count.
    The window moments subtract the Gram of the edge errors, kept in the
    lattice's real layout in one stack of two buffers: block ``k`` of the
    head holds ``e_f(k)`` over ``D(k) = e_b(k-1)`` for ``k`` in ``[0, m]``,
    and block ``k`` of the tail the same at row ``N1 + k``. A lattice step
    carries both edges to the next order in place, which needs one new
    block per edge from the data: ``e_f(m)`` at the head and ``e_b(N1-1)``
    at the tail.
    """
    # The denominator after the last stage is then zero.
    if order == len(x) - 1:
        raise NumericalError(f"the last window is empty at order {order}")
    n1_len, p, width = len(x), channel_order + 1, x.shape[1] + channel_order
    # The new edge blocks read only the first and the last order + 1 data
    # matrices, stacked as X(order) .. X(0) and X(N1-1) .. X(N1-1-order).
    early, late = (build_data_matrices(rows, channel_order)
                   for rows in (x[order::-1], x[::-1][: order + 1]))
    lags = estimate_block_autocorr_2d(x, order + 1, channel_order)
    r0 = lags[0, 0, 0].real
    floor = 2.0 * r0 / FAST_BURG_BOUND
    if not (floor >= np.finfo(float).tiny and r0 <= 0.5 * np.finfo(float).max):
        raise NumericalError(f"R_0[0,0] = {r0:.3e} is out of the lag route's range")
    # g[order + 1 + i] holds G_i for i in [-(order + 1), order + 1]; A = [I] gives G_i = R_{-i}.
    g = np.concatenate((lags[::-1], lags[1:].conj().transpose(0, 2, 1)))

    # edges[0] is the head, edges[1] the tail.
    span = (order + 1) * width
    edges = np.zeros((2, 4 * p, span))
    _fill(edges[0, : 2 * p, :width], x[:1], width)
    _fill(edges[1, 2 * p :, :width], x[-1:], width)
    taps = np.zeros((order + 1, p, p), dtype=complex)  # I, A_1 .. A_order
    taps[0] = np.eye(p)
    coeffs = taps[1:]
    history: list[BlockStage] = []
    for m in range(order + 1):
        ar, cr = taps[: m + 1], taps[m::-1, ::-1, ::-1].conj()
        if m:
            _advance(coeffs[m - 1], edges, slice(0, m), width)
            _put_real(edges[0, : 2 * p, m * width : (m + 1) * width],
                      (ar @ early[order - m :]).sum(0)[None])
            _put_real(edges[1, 2 * p :, :width], (cr @ late[: m + 1]).sum(0)[None])
        head, tail = edges
        pf_pad = (ar @ g[order + 1 : order + m + 2]).sum(0)
        mom = np.empty((2 * p, 2 * p), dtype=complex)
        # (Pf + Pf^H) / 2 is exactly Hermitian: an entry rounds the
        # conjugates of the terms of its mirror entry.
        mom[:p, :p] = (pf_pad + pf_pad.conj().T) * 0.5
        mom[p:, p:] = exchange_conj(mom[:p, :p])
        mom[:p, p:] = (ar @ g[order + m + 2 : order + 1 : -1, ::-1, ::-1].conj()).sum(0)
        mom[p:, :p] = mom[:p, p:].conj().T
        mom -= _gram(head[:, : (m + 1) * width]) + _gram(tail[:, : (m + 1) * width])
        pf, pb, pfb = mom[:p, :p], mom[p:, p:], mom[:p, p:]
        first = head[: 2 * p, m * width : (m + 1) * width]
        full = mom + _gram(np.concatenate((first, tail[2 * p :, :width])))
        if not np.isfinite(full).all():
            raise NumericalError(f"non-finite moments at order {m}")
        # The next stage's denominator, also after the last stage: it bounds
        # the window moments this stage records.
        pivots = np.abs(np.linalg.cholesky(pb + exchange_conj(pf)).diagonal()) ** 2
        if not pivots.min() >= floor:
            raise NumericalError(f"pivot {pivots.min():.3e} under floor {floor:.3e} at order {m}")
        _record(history, coeffs, full, pfb)
        if m < order:
            a_nn = _coefficient(pf, pb, pfb)
            # G of the order-(m+1) taps, where the mirror m + 1 - i is in the table.
            g[m + 1 :] += g[: m : -1, ::-1, ::-1].conj() @ a_nn.conj().T
            _extend_block(coeffs, m + 1, a_nn)
    return _finish(coeffs.copy(), history, n1_len - order)


def burg2d_classic(x, order: int, channel_order: int) -> ArModel2D:
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

    The moments come from the lag blocks
    ``estimate_block_autocorr_2d(x, n1 + 1, n2)`` and work the size of the
    edges per stage, not from passes over the error blocks (Andersen 1974;
    Vos 2013, in block form; see :func:`_burg2d_from_lags`). Each window
    moment is a difference of sums of the size of ``R_0``, so a grid stays
    on this route only while ``R_0[0,0]`` is a normal double at most half
    the largest one, every moment is finite, and every stage denominator
    ``Pb + J Pf^* J`` has its smallest Cholesky pivot at or above
    ``2 R_0[0,0] / FAST_BURG_BOUND``. That includes the denominator after
    the last stage, which bounds the moments the last stage records, and
    which is zero at ``n1 = N1 - 1``. The route raises to hand any other
    grid to the error-block lattice, which recomputes it in full and gives
    it its bits and errors. On 128x128 grids of two plane waves in noise
    at ``n1 = n2 = 16`` the coefficients match the lattice's within 1.1e-13
    relative, ``Pf`` and ``Pb`` within 1.4e-14 and ``Pfb`` within 7.6e-13, in
    about a third of its time.
    """
    x = grid_for_order(x, order, channel_order)
    # Near the ends of the double range the forms may overflow or lose
    # their scale; the route then raises to hand the grid to the lattice,
    # so a warning would be noise.
    try:
        with np.errstate(all="ignore"):
            return _burg2d_from_lags(x, order, channel_order)
    except (NumericalError, np.linalg.LinAlgError):
        return _burg2d_lattice(x, order, channel_order, padded=False)


def burg2d_modified(x, order: int, channel_order: int) -> ArModel2D:
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
    return _burg2d_lattice(x, order, channel_order, padded=True)


def extract_quarter_plane_filter(model: ArModel2D) -> QuarterPlaneFilter:
    """Recover the scalar quarter-plane filter from a multichannel model.

    ``c(l1, :)`` is row 0 of ``A_{l1}`` (the component predicting the top
    entry of the stacked channel vector); ``c(0, 0) = 1`` and the rest of
    row 0 is zero. The choice is pinned by a validation contract: applying
    the scalar filter to the zero-padded signal reproduces component 0 of
    the forward error block at every sample, to rounding (see
    :func:`quarter_plane_residual`).

    ``noise_power`` is ``Re P_b[0, 0]`` divided by the model's
    ``sample_terms`` (left unnormalized when unknown), making it comparable
    to :func:`residual_mse_2d`.
    """
    c = np.zeros((model.order + 1, model.channel_order + 1), dtype=complex)
    c[0, 0] = 1.0
    c[1:] = model.coeffs[:, 0]
    return QuarterPlaneFilter(c, float(model.error_power[0, 0].real) / (model.sample_terms or 1))


def quarter_plane_residual(x, filt: QuarterPlaneFilter) -> np.ndarray:
    """Residual ``sum_{l1,l2} c(l1,l2) x(k-l1, t-l2)`` over the zero-padded
    plane: the full linear convolution, shape ``(N1+n1, N2+n2)``, by one FFT."""
    x = as_grid_2d(x)
    c = filt.coeffs
    shape = np.add(x.shape, c.shape) - 1
    return np.fft.ifft2(np.fft.fft2(x, shape) * np.fft.fft2(c, shape))


def residual_mse_2d(x, filt: QuarterPlaneFilter) -> float:
    """Mean squared filter residual over the grid (zero-padded past)."""
    x = as_grid_2d(x)
    res = quarter_plane_residual(x, filt)[: x.shape[0], : x.shape[1]]
    return float(np.mean(np.abs(res) ** 2))
