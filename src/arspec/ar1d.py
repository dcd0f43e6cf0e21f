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

:func:`burg_classic` computes the classic lattice's reflections from the
biased lags instead of the error signals (Andersen 1974, *Geophysics*;
Vos, "A Fast Implementation of Burg's Method", 2013): one FFT correlation
for all the lags plus O(order) work per stage, where the lattice makes
several passes over its error signals per stage. Its window sums are
differences of sums of size ``r_0``, so a record stays on that route only
while every half-sum denominator stays above ``r_0 / FAST_BURG_BOUND``
(30), and then carries up to about that bound times the lattice's
rounding error; any other record is recomputed on the error-signal
lattice and gets its bits, stops and errors.

All three populate a per-order history so a single run at order ``n``
yields the models of every intermediate order. A stage keeps its
coefficients, not its error signals: those are functions of the
coefficients on the zero-padded support, the forward error
:func:`prediction_residual` and the backward error
``x(k-n) + sum_l conj(a_l) x(k+l-n)``, of which the classic lattice's
stage ``m`` sees ``[m, N-1]``.

The recursions run batch-first: :func:`levinson_batch`,
:func:`burg_classic_batch` and :func:`burg_modified_batch` take a
``(B, N)`` stack of equal-length records (``(B, L)`` lag sequences for
Levinson), validate it once, reduce along the last axis with ``np.vecdot``
and return a :class:`LatticeBatch` of stacked stages. Each takes a stage
with one call of :func:`_stage`, the one stage rule: it records the
reflection, coefficients and error power of every record, and stops each
record whose ``|k|`` reaches ``1 - UNIT_CIRCLE_TOL``. A record stops on its
own; from then on its reflection is 0, its denominators are masked and it
gets no more stages, and the degenerate, singular and non-finite checks
look at the records still running.
:func:`levinson`, :func:`burg_classic` and :func:`burg_modified` run a
batch of one and wrap its stages as :class:`LatticeStage` views. A stage's
error power stops at 0 where ``|k|^2`` rounds past 1.

The error-signal lattice makes one sweep over its errors per stage, in
chunks of ``CHUNK`` (8192) samples of the next stage's window: it updates a
chunk, then adds the chunk's share of the next stage's three moments while
the chunk is still in cache. Three chunk slices of 128 KiB fit in a 2 MiB
L2 cache, where a long record's error buffers (1.6 MB each at N=1e5) do
not. A dot of at most 8192 samples also runs on one OpenBLAS thread
(OpenBLAS splits a complex dot of more than 10000 samples), so the
lattice's bits do not depend on the BLAS thread count. A record whose
windows fit in one chunk (``N + order <= 8192`` zero-padded, ``N <= 8192``
shrinking) gets one dot per moment per stage, as an unchunked lattice does.
"""

from dataclasses import dataclass

import numpy as np

from .autocorr import as_signal_1d, as_signals_1d, estimate_autocorr_1d
from .errors import DegenerateSignalError, NumericalError, SingularityError

__all__ = [
    "ArModel1D",
    "LatticeBatch",
    "LatticeStage",
    "burg_classic",
    "burg_classic_batch",
    "burg_modified",
    "burg_modified_batch",
    "levinson",
    "levinson_batch",
    "prediction_residual",
    "residual_mse",
]

#: |reflection| within this distance of 1 means the signal is perfectly
#: predictable at that order; the recursion stops instead of dividing by a
#: vanishing error power.
UNIT_CIRCLE_TOL = 1e-14

#: Levinson denominator floor, relative to r_0.
POWER_FLOOR_SCALE = 1e-14

#: The autocorrelation route of :func:`burg_classic` keeps a record while
#: its half-sum denominators stay above ``r_0 / FAST_BURG_BOUND``.
FAST_BURG_BOUND = 30.0

#: Samples per column chunk of a Burg lattice stage's sweep over its errors
#: (see :func:`_burg_lattice` for the size).
CHUNK = 8192


@dataclass
class LatticeStage:
    """One completed recursion order; ``coeffs`` is a view into the
    :class:`LatticeBatch` that computed it."""

    order: int
    coeffs: np.ndarray
    error_power: float
    reflection: complex


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


@dataclass
class LatticeBatch:
    """The stages of one 1D recursion run over a batch of ``B`` records.

    Row ``b`` of ``coeffs`` packs the coefficients of every stage of record
    ``b``, stage after stage: stage ``m`` holds its ``m`` coefficients from
    offset ``m (m - 1) / 2`` on (``starts``), and its reflection coefficient
    is the last of them. ``powers[b, m]`` is the error power after stage
    ``m`` (``powers[b, 0]`` is ``P_0``). ``stages[b]`` counts the stages
    record ``b`` completed; entries past it belong to no stage.
    """

    coeffs: np.ndarray
    powers: np.ndarray
    stages: np.ndarray

    @classmethod
    def start(cls, power: np.ndarray, order: int) -> "LatticeBatch":
        """An empty batch whose records start from the powers ``P_0``."""
        powers = np.zeros((power.size, order + 1))
        powers[:, 0] = power
        return cls(
            np.zeros((power.size, order * (order + 1) // 2), dtype=complex),
            powers,
            np.full(power.size, order),
        )

    @property
    def starts(self) -> np.ndarray:
        """Offset of each stage's coefficients in a row of ``coeffs``."""
        m = np.arange(self.powers.shape[1] - 1)
        return m * (m + 1) // 2

    @property
    def reflections(self) -> np.ndarray:
        """``(B, order)``: the reflection coefficient of every stage."""
        return self.coeffs[:, self.starts + np.arange(self.powers.shape[1] - 1)]

    def model(self, b: int) -> ArModel1D:
        """Record ``b`` as a model whose stages are views into the batch."""
        m = int(self.stages[b])
        row = self.coeffs[b]
        coeffs = [row[j * (j + 1) // 2 : (j + 1) * (j + 2) // 2] for j in range(m)]
        reflections = row[[j * (j + 3) // 2 for j in range(m)]].tolist()
        powers = self.powers[b, 1 : m + 1].tolist()
        history = list(map(LatticeStage, range(1, m + 1), coeffs, powers, reflections))
        return ArModel1D(m, coeffs[-1], powers[-1], history, m < self.powers.shape[1] - 1)


def stack_for_order(x, order: int) -> np.ndarray:
    """``x``, a ``(B, N)`` stack of records that
    :func:`~arspec.autocorr.as_signals_1d` accepts, checked for an
    order-``order`` run: ``order`` in ``[1, N-1]``."""
    x = as_signals_1d(x)
    if not 1 <= order <= x.shape[1] - 1:
        raise ValueError(f"order must be in [1, {x.shape[1] - 1}], got {order}")
    return x


def _stage(batch: LatticeBatch, m: int, num, den, conj: np.ndarray, live: np.ndarray) -> tuple:
    """Record stage ``m`` of every record, whose reflection is ``num / den``,
    and end at stage ``m`` every record whose ``|k|`` reaches ``1 -
    UNIT_CIRCLE_TOL``.

    ``conj`` holds the conjugated stage ``m - 1`` coefficients. A record
    that ``live`` marks stopped keeps ``k = 0``, its slot's start value, so
    its coefficients and power stay unchanged. Returns the reflections as a
    ``(B, 1)`` column, the conjugated stage ``m`` coefficients and the new
    live mask.
    """
    lo = m * (m - 1) // 2
    row = batch.coeffs[:, lo : lo + m]
    kcol = row[:, m - 1 :]
    np.divide(num, den, out=kcol[:, 0], where=live)
    np.add(batch.coeffs[:, lo - m + 1 : lo], kcol * conj[:, ::-1], out=row[:, :-1])
    # |k|^2 by vecdot, which rounds as the product of complex scalars
    # k * conj(k) does; numpy's SIMD product of complex arrays may not.
    factor = 1.0 - np.vecdot(kcol, kcol).real
    # At the unit circle |k|^2 may round past 1: the power stops at 0, but
    # a non-finite k still gives a non-finite power.
    np.maximum(factor, 0.0, out=factor, where=factor > -np.inf)
    powers = batch.powers.T
    np.multiply(powers[m - 1], factor, out=powers[m])
    # np.hypot rounds as abs() of a complex scalar does; np.abs need not.
    hit = np.hypot(kcol.real, kcol.imag)[:, 0] >= 1.0 - UNIT_CIRCLE_TOL
    if np.count_nonzero(hit):
        batch.stages[hit] = m
        live = live & ~hit
    return kcol, row.conj(), live


def _finish(batch: LatticeBatch, live: np.ndarray) -> LatticeBatch:
    """Raise :class:`NumericalError` for a record whose final error power
    is not finite (a non-finite k makes it so), or, unless the record
    stopped at the unit circle, is below the normal double range, where
    the recursion's rounding no longer tracks its scale."""
    final = batch.powers[np.arange(len(batch.stages)), batch.stages]
    bad = ~np.isfinite(final)
    if np.count_nonzero(bad):
        b = int(np.argmax(bad))
        raise NumericalError(
            f"non-finite prediction-error power {final[b]} at order {batch.stages[b]}"
        )
    subnormal = live & (0.0 < final) & (final < np.finfo(float).tiny)
    if np.count_nonzero(subnormal):
        b = int(np.argmax(subnormal))
        raise NumericalError(
            f"prediction-error power {final[b]:.3e} below the normal double range "
            f"at order {batch.stages[b]}"
        )
    return batch


def levinson_batch(r, order: int) -> LatticeBatch:
    """Solve the Toeplitz normal equations of each row of ``r`` by order
    recursion.

    Parameters
    ----------
    r : array_like
        A ``(B, L)`` stack of autocorrelation lags ``r_0 .. r_{L-1}``, one
        sequence per row, with ``L > order`` and ``r_0 > 0`` (see
        :func:`arspec.autocorr.estimate_autocorr_1d`).
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
        If the final error power is not finite (a non-finite k makes it so),
        or is below the normal double range in a record that did not stop at
        the unit circle.
    """
    r = np.asarray(r, dtype=complex)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if r.ndim != 2 or r.shape[1] < order + 1:
        n_lags = np.prod(r.shape[1:], dtype=int)
        raise ValueError(f"need lags r_0..r_{order}, got {n_lags} lags")
    r = r[:, : order + 1]
    r0 = r[:, 0].real
    if np.count_nonzero(r0 <= 0.0):
        raise DegenerateSignalError(f"r_0 must be positive, got {r0[np.argmax(r0 <= 0.0)]}")
    batch = LatticeBatch.start(r0, order)
    powers = batch.powers.T
    floor = POWER_FLOOR_SCALE * r0
    lags = r.T
    conj = batch.coeffs[:, :0]
    live = np.ones(len(r0), dtype=bool)
    for m in range(1, order + 1):
        delta = lags[m] + np.vecdot(conj, r[:, m - 1 : 0 : -1])
        kcol, conj, live = _stage(batch, m, -delta, powers[m - 1], conj, live)
        if m == order or not np.count_nonzero(live):
            break
        vanished = live & (powers[m] <= floor)
        if np.count_nonzero(vanished):
            raise SingularityError(
                f"prediction-error power {powers[m, np.argmax(vanished)]:.3e} "
                f"vanished at order {m + 1}"
            )
    return _finish(batch, live)


def levinson(r, order: int) -> ArModel1D:
    """The model of the one lag sequence ``r``; see :func:`levinson_batch`."""
    return levinson_batch(np.asarray(r)[None], order).model(0)


def _chunk_sum(sums: list):
    """The sum of the per-chunk sums ``sums``; one chunk's sum as it is, so
    that a window of one chunk keeps the signs of its zeros."""
    return sums[0] if len(sums) == 1 else np.add.reduce(sums)


def _sweep(ef, eb, eb_next, window: tuple, kcol=None, update: tuple = (0, 0)) -> tuple:
    """One pass over the errors: the stage update on the slots ``update``,
    then the next stage's moments over its ``window``.

    Chunk by chunk of the window, the update first runs up to the chunk's
    end, which the backward errors of the chunk, one slot behind it, also
    need: ``e_b' = e_b + conj(k) e_f`` into ``eb_next``, then ``e_f += k
    e_b`` in place, with ``k e_b`` written over the spent ``e_b``. The
    chunk's share of ``sum |e_f|^2``, ``sum |e_b'|^2`` and ``sum conj(e_b')
    e_f`` follows while the chunk is still in cache. Without ``kcol`` there
    is no update, and the moments read ``eb_next``. Returns the three
    moments.
    """
    lo, hi = window
    done, stop = update
    kconj = None if kcol is None else kcol.conj()
    sums = []
    for c0 in range(lo, hi, CHUNK):
        c1 = min(c0 + CHUNK, hi)
        top = min(c1, stop)
        if done < top:
            f, b = ef[:, done:top], eb[:, done - 1 : top - 1]
            new_b = np.multiply(kconj, f, out=eb_next[:, done:top])
            new_b += b
            # The backward update read the old forward errors: update f last.
            f += np.multiply(kcol, b, out=b)
            done = top
        f, b = ef[:, c0:c1], eb_next[:, c0 - 1 : c1 - 1]
        sums.append((np.vecdot(f, f), np.vecdot(b, b), np.vecdot(b, f)))
    ff, bb, bf = _chunk_sum(sums)
    return ff.real, bb.real, bf


def _burg_lattice(x: np.ndarray, order: int, padded: bool) -> LatticeBatch:
    """The Burg error-signal lattice over a ``(B, N)`` stack of records, over
    either support: :func:`burg_modified_batch` runs it, and
    :func:`burg_classic_batch` hands it the records it does not keep.

    The errors live in buffers indexed by time plus one, so slot 0 is
    ``e_b(-1) = 0`` and stays zero. Stage ``m`` pairs the forward errors on
    its window, ``[m, N-1]`` when shrinking and ``[0, N+m-1]`` when
    ``padded``, with the backward errors on the same window delayed by one
    sample. It updates the forward errors in place on that window, which is
    the support of the order-``m`` errors, and writes the new backward
    errors there in a second buffer, which then takes the first one's place.

    Each stage makes one :func:`_sweep` over its errors, in chunks of the
    next stage's window of ``CHUNK`` samples: the update of a chunk, then
    its share of the next stage's moments, while the chunk is in cache.
    The three buffers of a record of 1e5 samples take 4.8 MB, beyond a
    2 MiB L2; three chunk slices of 8192 samples take 384 KiB, and a dot
    of 8192 samples stays on one BLAS thread. On a 2-vCPU VM with a 2 MiB
    L2, at N=1e5 and order 400, chunks of 2^13 ran fastest of 2^11 to 2^15
    under two BLAS threads; under one, 2^14 ran 7% faster, but its dots
    would split across threads. The last stage makes no update, since
    nothing reads it, and a batch whose records have all stopped makes no
    more sweeps. ``P_0`` and the stage-1 moments are chunked sums too. A
    window of one chunk thus gets one ``np.vecdot`` per moment, and a
    longer one a sum of per-chunk dots.
    """
    n_rec, n = x.shape
    chunks = (x[:, c0 : c0 + CHUNK] for c0 in range(0, n, CHUNK))
    power = _chunk_sum([np.vecdot(c, c) for c in chunks]).real
    if np.count_nonzero(power) < n_rec:
        raise DegenerateSignalError("signal has zero energy")
    # Each stage's half-sum denominator is at most 2 P_0, so this one check
    # keeps every denominator finite (an infinite one would give k = 0).
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

    def window(m: int) -> tuple:
        return (1, n + m + 1) if padded else (m + 1, n + 1)

    ff, bb, bf = _sweep(ef, None, eb, window(1))
    for m in range(1, order + 1):
        denom = 0.5 * (ff + bb)
        # A stopped record may have no error energy left.
        denom[~live] = 1.0
        if np.count_nonzero(denom) < n_rec:
            raise DegenerateSignalError(f"zero error energy at order {m}")
        # A window energy below the normal range has lost its relative
        # precision, and the quotient may leave the unit disk or overflow.
        # The zero-padded lattice's energies are its error powers, which
        # _finish checks.
        low = denom < np.finfo(float).tiny
        if not padded and np.count_nonzero(low):
            b = int(np.argmax(low))
            raise NumericalError(
                f"error energy {denom[b]:.3e} below the normal double range at order {m}"
            )
        kcol, conj, live = _stage(batch, m, -bf, denom, conj, live)
        if m == order or not np.count_nonzero(live):
            break
        ff, bb, bf = _sweep(ef, eb, eb_next, window(m + 1), kcol, window(m))
        eb, eb_next = eb_next, eb
    return _finish(batch, live)


def burg_classic_batch(x, order: int) -> LatticeBatch:
    """Finite-sample Burg lattice with shrinking error supports, over each
    record of a ``(B, N)`` stack; ``order`` is in ``[1, N-1]``.

    At stage ``m`` the reflection coefficient is estimated over the common
    support ``k in [m, N-1]``:

        ``k_m = -sum e_f(k) conj(e_b(k-1)) /
                (0.5 sum (|e_f(k)|^2 + |e_b(k-1)|^2))``

    which bounds ``|k_m| <= 1``; the error signals are then updated on the
    same window, losing one sample per order. ``error_power`` follows the
    ``P_m = P_{m-1} (1 - |k_m|^2)`` recursion from ``P_0 = sum |x|^2``,
    stopping at 0 where ``|k_m|^2`` rounds past 1.

    The sums come from the biased lags ``r_0 .. r_order`` and O(order) work
    per stage (Andersen 1974, *Geophysics*; Vos, "A Fast Implementation
    of Burg's Method", 2013), not from several passes over the error
    signals per stage. Stage ``m`` needs the energies and the cross term
    of the order-``m-1`` errors, whose coefficients are ``A = [1, a_1 ..
    a_{m-1}]``, over the window ``[m, N-1]``. Over the zero-padded support
    they are Toeplitz forms of ``A``: with ``g_i = sum_j conj(A_j)
    r_{j-i}``, both energies are ``sum_i A_i g_i`` and the cross term is
    ``sum_i A_i conj(g_{m-i})``.
    The window sums subtract the padded errors outside it: ``e_f(0..m-1)``
    and ``e_b(-1..m-2)`` at the head, ``e_f(N..N+m-1)`` and
    ``e_b(N-1..N+m-2)`` at the tail. The lattice recursion carries these
    edge errors to the next order, which needs one new sample per edge, and
    persymmetry carries ``g``, one table over ``[-order, order]`` built from
    the lags: ``g'_i = g_i + conj(k) conj(g_{m-i})`` on the ``i`` whose
    mirror is in it, all a later stage reads. So a stage costs a few
    O(order) products after one FFT correlation for the lags. That pays on
    long records only; the README's ``arspec.ar1d`` row gives the measured
    times.

    Each window sum is a difference of sums of size ``r_0``, so its
    relative error grows like ``r_0 / D_m`` for the half-sum denominator
    ``D_m``, which lies in ``(0, r_0]`` in exact arithmetic. A record stays
    on this route while ``r_0 / FAST_BURG_BOUND`` and ``2 r_0`` are normal
    doubles and ``r_0 / FAST_BURG_BOUND <= D_m <= r_0``; it also leaves once
    ``D_m (1 - |k_m|^2)``, the bound on the next denominator, falls below
    ``r_0 / FAST_BURG_BOUND``, which a reflection near the unit circle
    does. A record that leaves is recomputed in full by :func:`_burg_lattice`,
    so every stop, error and degenerate record gets the lattice's handling
    and bits; :func:`_finish` checks the records that stay, as the lattice
    checks its own. Their coefficients match the lattice's within 1e-12
    relative on records of up to 200 samples (1.2e-12 to 3.2e-12 at N=1e5,
    order 400, on the benchmark's two-tone records of seeds 1-5, where the
    lattice is 1.5e-14 to 1.6e-13 from a long-double lattice).
    """
    x = stack_for_order(x, order)
    n_rec, n = x.shape
    r = estimate_autocorr_1d(x, order)
    r0 = r[:, 0].real
    batch = LatticeBatch.start(r0, order)
    floor = r0 / FAST_BURG_BOUND
    fast = (floor >= np.finfo(float).tiny) & (r0 <= 0.5 * np.finfo(float).max)
    # g[:, order + i] holds g_i for i in [-order, order]; A = [1] gives g_i = r_{-i}.
    g = np.concatenate((r[:, :0:-1], r.conj()), axis=1)
    # The edge errors by direction and edge: edges[0, 0, :, i] = e_f(i),
    # edges[1, 0, :, i] = e_b(i-1), edges[0, 1, :, i] = e_f(N+i) and
    # edges[1, 1, :, i] = e_b(N-1+i). Each stage builds the next ones in a
    # new array; a slot it does not write, e_f(N+m) or e_b(-1), stays zero.
    edges = np.zeros((2, 2, n_rec, 1), dtype=complex)
    edges[0, 0, :, 0] = x[:, 0]
    edges[1, 1, :, 0] = x[:, -1]
    a = conj = batch.coeffs[:, :0]
    # Near the top of the double range the forms may overflow; the guard
    # then hands the record to the lattice, so the warning would be noise.
    with np.errstate(all="ignore"):
        for m in range(1, order + 1):
            f, b = edges
            form = g[:, order] + np.vecdot(conj, g[:, order + 1 : order + m])
            cross = (g[:, order + m] + np.vecdot(a, g[:, order + m - 1 : order : -1])).conj()
            den = form.real - 0.5 * np.vecdot(edges, edges).real.sum((0, 1))
            fast &= (floor <= den) & (den <= r0)
            num = np.vecdot(b, f).sum(0) - cross
            # A kept record has floor <= den <= r_0, and a reflection at the
            # unit circle has 1 - |k|^2 <= 2e-14, so the guard below drops
            # the record, and the lattice that recomputes it overwrites its
            # stop: the route ignores the stop mask.
            kcol, new_conj, _ = _stage(batch, m, num, den, conj, fast)
            fast &= floor <= den * (1.0 - np.vecdot(kcol, kcol).real)
            if m == order or not np.count_nonzero(fast):
                break
            # The order-m edge errors, one new sample per edge.
            new_a = new_conj.conj()
            edges = np.zeros((2, 2, n_rec, m + 1), dtype=complex)
            edges[0, ..., :m] = f + kcol * b
            edges[1, ..., 1:] = b + kcol.conj() * f
            edges[0, 0, :, m] = x[:, m] + np.vecdot(new_conj, x[:, m - 1 :: -1])
            edges[1, 1, :, 0] = x[:, n - 1 - m] + np.vecdot(new_a, x[:, n - m :])
            # g of the order-m coefficients, where the mirror m - i is in the table.
            g[:, m:] += kcol.conj() * g[:, : m - 1 : -1].conj()
            a, conj = new_a, new_conj
    slow = ~fast
    if np.count_nonzero(slow):
        lattice = _burg_lattice(x[slow], order, padded=False)
        batch.coeffs[slow] = lattice.coeffs
        batch.powers[slow] = lattice.powers
        batch.stages[slow] = lattice.stages
    return _finish(batch, fast)


def burg_classic(x, order: int) -> ArModel1D:
    """The model of the one record ``x``; see :func:`burg_classic_batch`."""
    return burg_classic_batch(np.asarray(x)[None], order).model(0)


def burg_modified_batch(x, order: int) -> LatticeBatch:
    """Zero-padded Burg lattice over each record of a ``(B, N)`` stack,
    ``order`` in ``[1, N-1]``; reproduces :func:`levinson_batch` exactly.

    The error signals start as the signal itself on ``[0, N-1]`` and gain
    one sample per order instead of losing one; the recursion runs until
    the last nonzero value with ``e_b(-1) = 0`` and ``e_f`` zero past its
    support. The stage-``m`` reflection coefficient is Burg's symmetric one,

        ``k_m = -sum_k e_f(k) conj(e_b(k-1)) /
                (0.5 sum_k (|e_f(k)|^2 + |e_b(k-1)|^2))``

    with both sums over the full extended support ``k in [0, N+m-1]``.
    Under zero padding the forward and backward error energies are equal at
    every stage, so the half-sum equals either energy.

    The resulting coefficients equal ``levinson_batch(estimate_autocorr_1d(x,
    order), order)``'s up to rounding: the extended sums turn the lattice
    moments into biased lag sums with no boundary truncation.
    """
    return _burg_lattice(stack_for_order(x, order), order, padded=True)


def burg_modified(x, order: int) -> ArModel1D:
    """The model of the one record ``x``; see :func:`burg_modified_batch`."""
    return burg_modified_batch(np.asarray(x)[None], order).model(0)


def prediction_residual(x, coeffs) -> np.ndarray:
    """Forward prediction error ``x(k) + sum_l a_l x(k-l)`` on the
    zero-padded support, length ``N + order``."""
    x = as_signal_1d(x)
    filt = np.concatenate([[1.0 + 0.0j], np.asarray(coeffs, dtype=complex)])
    return np.convolve(filt, x)


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
