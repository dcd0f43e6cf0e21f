import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from conftest import crandn, hermitian_pd
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _put_real,
    advance_two_buffers,
    block_toeplitz_matrix,
    build_data_matrices,
    fill_from_data_matrices,
    quarter_plane_residual_direct,
)

from arspec import ar2d
from arspec.ar1d import burg_classic, burg_modified, levinson
from arspec.ar2d import (
    QuarterPlaneFilter,
    burg2d_classic,
    burg2d_modified,
    extract_quarter_plane_filter,
    quarter_plane_residual,
    residual_mse_2d,
    wwra,
)
from arspec.autocorr import (
    estimate_autocorr_1d,
    estimate_block_autocorr_2d,
)
from arspec.errors import DegenerateSignalError, NumericalError, SingularityError
from arspec.linalg import exchange_conj, exchange_transpose, max_rel_diff, solve_hermitian_dense
from arspec.siggen import Lcg32


def dense_block_solve(blocks, order):
    """Row-form normal equations solved through the dense oracle."""
    p = blocks.shape[1]
    big = block_toeplitz_matrix(blocks, order)
    rhs = -np.concatenate([blocks[d].conj().T for d in range(1, order + 1)], axis=0)
    sol = solve_hermitian_dense(big, rhs)
    return np.stack([sol[i * p : (i + 1) * p].conj().T for i in range(order)])


def error_blocks(x, coeffs, n2):
    """The forward and backward error blocks of the coefficient matrices
    ``coeffs`` (order ``m``) from their definitions over the data matrices
    ``X(k)``, zero outside ``[0, N1-1]``: ``e_f(k) = X(k) + sum_l A_l X(k-l)``
    and ``e_b(k) = X(k-m) + sum_l J A_l^* J X(k-m+l)``, each ``(N1+m, p,
    N2+n2)`` over rows ``0 .. N1+m-1``."""
    data = build_data_matrices(x, n2)
    m = len(coeffs)
    pad = np.zeros((m, *data.shape[1:]), dtype=complex)
    padded = np.concatenate([pad, data, pad])  # X(k) is padded[k + m]
    terms = list(enumerate(coeffs, 1))
    ef, eb = [], []
    for k in range(data.shape[0] + m):
        ef.append(padded[k + m] + sum(a @ padded[k + m - l] for l, a in terms))
        eb.append(padded[k] + sum(exchange_conj(a) @ padded[k + l] for l, a in terms))
    return np.array(ef), np.array(eb)


def synth_quarter_plane(coeffs, rows, cols, seed):
    """Drive the in-class quarter-plane recursion with seeded white noise."""
    w = Lcg32(seed).complex_normal(rows * cols).reshape(rows, cols)
    x = np.zeros((rows, cols), dtype=complex)
    n1, n2 = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    for k in range(rows):
        for t in range(cols):
            acc = w[k, t]
            for l1 in range(n1 + 1):
                for l2 in range(n2 + 1):
                    if l1 == 0 and l2 == 0:
                        continue
                    if k - l1 >= 0 and t - l2 >= 0 and coeffs[l1, l2] != 0:
                        acc -= coeffs[l1, l2] * x[k - l1, t - l2]
            x[k, t] = acc
    return x


class TestWwra:
    def test_scalar_blocks_reduce_to_levinson(self):
        rng = np.random.default_rng(40)
        x = crandn(rng, 16)
        r = estimate_autocorr_1d(x, 10)
        model = wwra(r[:, None, None], 10)
        ref = levinson(r, 10)
        for st_w, st_l in zip(model.history, ref.history):
            assert max_rel_diff(st_w.coeffs[:, 0, 0], st_l.coeffs) <= 1e-12
            assert max_rel_diff(st_w.error_power[0, 0], st_l.error_power) <= 1e-12

    def test_first_order_closed_form(self):
        rng = np.random.default_rng(41)
        x = crandn(rng, 5, 4)
        blocks = estimate_block_autocorr_2d(x, 1, 1)
        model = wwra(blocks, 1)
        expected = -solve_hermitian_dense(blocks[0].T, blocks[1].T).T
        assert max_rel_diff(model.coeffs[0], expected) <= 1e-13

    def test_matches_dense_block_solve(self):
        rng = np.random.default_rng(42)
        x = crandn(rng, 6, 6)
        blocks = estimate_block_autocorr_2d(x, 3, 2)
        model = wwra(blocks, 3)
        ref = dense_block_solve(blocks, 3)
        assert max_rel_diff(model.coeffs, ref) <= 1e-8

    def test_block_normal_equation_residual(self):
        rng = np.random.default_rng(43)
        x = crandn(rng, 7, 5)
        order = 3
        blocks = estimate_block_autocorr_2d(x, order, 1)
        model = wwra(blocks, order)
        big = block_toeplitz_matrix(blocks, order)
        row = np.concatenate(list(model.coeffs), axis=1)
        rhs = np.concatenate([blocks[d] for d in range(1, order + 1)], axis=1)
        resid = np.linalg.norm(row @ big + rhs)
        assert resid <= 1e-9 * np.linalg.norm(rhs)

    def test_power_recurrence_matches_defining_sum(self):
        rng = np.random.default_rng(44)
        x = crandn(rng, 8, 6)
        blocks = estimate_block_autocorr_2d(x, 4, 2)
        model = wwra(blocks, 4)
        for st in model.history:
            direct = blocks[0].copy()
            for l in range(1, st.order + 1):
                direct += exchange_conj(st.coeffs[l - 1]) @ blocks[l]
            assert max_rel_diff(st.error_power, direct) <= 1e-10

    def test_singular_base_block_raises(self):
        # A positive diagonal, so the singular R_0 reaches the solve.
        blocks = np.ones((2, 2, 2), dtype=complex)
        blocks[1] = np.eye(2)
        with pytest.raises(SingularityError):
            wwra(blocks, 1)

    @pytest.mark.parametrize("scale", [0.0, 1e-165, 1e-200])
    def test_grid_without_energy_is_degenerate(self, scale):
        # Like levinson's r_0: a zero R_0 diagonal raises before any solve.
        x = scale * crandn(np.random.default_rng(79), 5, 5)
        with pytest.raises(DegenerateSignalError, match="R_0 diagonal must be positive, got 0.0"):
            wwra(estimate_block_autocorr_2d(x, 2, 1), 2)

    def test_usage_errors(self):
        blocks = np.ones((2, 1, 1), dtype=complex)
        with pytest.raises(ValueError):
            wwra(blocks, 0)
        with pytest.raises(ValueError):
            wwra(blocks, 2)

    def test_blocks_that_are_not_square_are_rejected(self):
        message = r"^blocks must have shape \(n\+1, p, p\), got \(3, 2, 3\)$"
        with pytest.raises(ValueError, match=message):
            wwra(np.zeros((3, 2, 3)), 1)


class TestBurg2dClassic:
    def test_single_column_reduces_to_burg_classic(self):
        rng = np.random.default_rng(45)
        col = crandn(rng, 10)
        model = burg2d_classic(col[:, None], 6, 0)
        ref = burg_classic(col, 6)
        for st2, st1 in zip(model.history[1:], ref.history):
            assert max_rel_diff(st2.coeffs[:, 0, 0], st1.coeffs) <= 1e-12
            assert abs(st2.coeffs[-1, 0, 0] - st1.reflection) <= 1e-12 * abs(
                st1.reflection
            )

    def test_first_stage_hand_unrolled(self):
        rng = np.random.default_rng(46)
        x = crandn(rng, 2, 2)
        n2 = 1
        model = burg2d_classic(x, 1, n2)
        data = build_data_matrices(x, n2)
        # stage-0 errors are the data matrices; moments over k = 1..N1-1
        f = data[1:]
        b = data[:-1]
        pfb = sum(fm @ bm.conj().T for fm, bm in zip(f, b))
        pf = sum(fm @ fm.conj().T for fm in f)
        pb = sum(bm @ bm.conj().T for bm in b)
        numer = pfb + exchange_transpose(pfb)
        denom = pb + exchange_conj(pf)
        expected = -solve_hermitian_dense(denom.T, numer.T).T
        assert max_rel_diff(model.coeffs[0], expected) <= 1e-12

    def test_trace_criterion_nonincreasing(self):
        rng = np.random.default_rng(47)
        x = crandn(rng, 6, 6)
        model = burg2d_classic(x, 4, 2)
        crits = [st.criterion for st in model.history]
        assert all(c is not None for c in crits)
        assert all(crits[i + 1] <= crits[i] + 1e-12 for i in range(len(crits) - 1))

    @pytest.mark.parametrize("estimator", [burg2d_classic, burg2d_modified])
    def test_every_stage_records_moments_of_its_errors(self, estimator):
        rng = np.random.default_rng(53)
        classic = estimator is burg2d_classic
        # (rows, cols, order, n2, draws): after the 7x5 grids at order 3,
        # n2 = 0, order N1-1 (the last classic support is one row), a 2-row
        # grid and a single-column grid.
        cases = [(7, 5, 3, 2, 20), (7, 5, 3, 0, 5), (7, 5, 6, 2, 5)]
        cases += [(2, 5, 1, 2, 5), (7, 1, 3, 0, 5)]
        for rows, cols, order, n2, draws in cases:
            for _ in range(draws):
                x = crandn(rng, rows, cols)
                model = estimator(x, order, n2)
                assert model.sample_terms == (rows - order if classic else rows + order)
                for st in model.history:
                    ef, eb = error_blocks(x, st.coeffs, n2)
                    if classic:
                        # The classic support is rows [m, N1-1].
                        ef, eb = ef[st.order : rows], eb[st.order : rows]
                    pf = sum(f @ f.conj().T for f in ef)
                    pb = sum(b @ b.conj().T for b in eb)
                    # Empty on a one-row classic support: start from a zero block.
                    start = np.zeros((n2 + 1, n2 + 1), dtype=complex)
                    pfb = sum((f @ b.conj().T for f, b in zip(ef[1:], eb[:-1])), start)
                    assert max_rel_diff(st.forward_power, pf) <= 1e-13
                    assert max_rel_diff(st.error_power, pb) <= 1e-13
                    assert max_rel_diff(st.cross_power, pfb) <= 1e-13
                    assert abs(st.criterion - np.trace(pf + pb).real) <= 1e-13 * st.criterion

    @pytest.mark.parametrize("estimator", [burg2d_classic, burg2d_modified])
    def test_stage_powers_are_exactly_hermitian(self, estimator):
        # solve_hermitian_dense takes its denominator's symmetry on trust: its
        # Cholesky verdict reads one triangle and its LU solve the whole
        # matrix. The lattices' powers keep it bit for bit, not only to
        # rounding, so both see the same matrix.
        rng = np.random.default_rng(84)
        for rows, cols, order, n2 in [(8, 6, 3, 2), (40, 40, 6, 6), (7, 1, 3, 0)]:
            model = estimator(crandn(rng, rows, cols), order, n2)
            for st in model.history:
                assert np.array_equal(st.forward_power, st.forward_power.conj().T)
                assert np.array_equal(st.error_power, st.error_power.conj().T)

    def test_impulse_grid_gives_zero_coefficients(self):
        x = np.zeros((5, 4), dtype=complex)
        x[2, 1] = 1.0
        model = burg2d_classic(x, 2, 1)
        assert np.abs(model.coeffs).max() == 0.0

    def test_zero_grid_rejected(self):
        with pytest.raises(DegenerateSignalError):
            burg2d_classic(np.zeros((4, 4), dtype=complex), 2, 1)

    def test_order_range(self):
        x = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError):
            burg2d_classic(x, 3, 1)


def _plane_waves(rng, rows: int, cols: int, noise: float) -> np.ndarray:
    """Two unit plane waves at random frequencies and phases plus white
    noise of standard deviation ``noise``."""
    k, t = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    x = noise * crandn(rng, rows, cols)
    for _ in range(2):
        f1, f2, phase = rng.uniform(-0.5, 0.5, 3)
        x += np.exp(2j * np.pi * (f1 * k + f2 * t + phase))
    return x


def _grid_lattice_spy(monkeypatch) -> list:
    """Route ``ar2d._burg2d_lattice`` through a spy; returns the list that
    collects the ``padded`` flag of each call."""
    seen = []
    lattice = ar2d._burg2d_lattice

    def spy(x, order, channel_order, padded):
        seen.append(padded)
        return lattice(x, order, channel_order, padded)

    monkeypatch.setattr(ar2d, "_burg2d_lattice", spy)
    return seen


def _assert_same_stages(model, ref, tol: float) -> None:
    assert len(model.history) == len(ref.history)
    assert model.sample_terms == ref.sample_terms
    for got, want in zip(model.history, ref.history):
        assert got.order == want.order
        for field in ("coeffs", "forward_power", "error_power", "cross_power"):
            assert max_rel_diff(getattr(got, field), getattr(want, field)) <= tol, field
        assert abs(got.criterion - want.criterion) <= tol * want.criterion


class TestFastClassic:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        rows=st.integers(2, 20),
        cols=st.integers(1, 8),
        order=st.integers(1, 19),
        n2=st.integers(0, 7),
        waves=st.booleans(),
        noise=st.sampled_from([0.0] + [10.0**e for e in range(-15, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=8, cols=8, order=3, n2=2, waves=True, noise=0.0, seed=1)
    @example(rows=12, cols=8, order=4, n2=3, waves=True, noise=1.0, seed=2)
    def test_matches_the_lattice(self, rows, cols, order, n2, waves, noise, seed):
        # Without waves the grid is complex noise of unit variance.
        order, n2 = min(order, rows - 1), min(n2, cols - 1)
        rng = np.random.default_rng(seed)
        x = _plane_waves(rng, rows, cols, noise) if waves else crandn(rng, rows, cols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ref = ar2d._burg2d_lattice(x, order, n2, padded=False)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    burg2d_classic(x, order, n2)
                return
            model = burg2d_classic(x, order, n2)
        _assert_same_stages(model, ref, 1e-12)
        assert max_rel_diff(model.coeffs, ref.coeffs) <= 1e-12
        assert max_rel_diff(model.error_power, ref.error_power) <= 1e-12

    def test_a_tripped_grid_gets_the_lattice_bits(self, monkeypatch):
        # The noiseless 8x8 plane wave is perfectly predictable at order 1:
        # its denominators fall to rounding level, far below the guard.
        k, t = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        x = np.exp(2j * np.pi * (0.2 * k + 0.1 * t))
        seen = _grid_lattice_spy(monkeypatch)
        model = burg2d_classic(x, 3, 1)
        assert seen == [False]
        ref = ar2d._burg2d_lattice(x, 3, 1, padded=False)
        assert np.array_equal(model.coeffs, ref.coeffs)
        assert np.array_equal(model.error_power, ref.error_power)
        for got, want in zip(model.history, ref.history, strict=True):
            for field in ("coeffs", "forward_power", "error_power", "cross_power"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert got.criterion == want.criterion

    def test_overflowing_sums_leave_quietly(self, monkeypatch):
        # At an energy of 0.49 * max the recorded criterion, near 2 tr R_0,
        # overflows for two channels: the grid leaves, and the route warns
        # of nothing. (The lattice then raises NumericalError for that
        # criterion, so the spy stops short of it.)
        x = crandn(np.random.default_rng(97), 6, 6)
        x *= np.sqrt(0.49 * np.finfo(float).max / np.vdot(x, x).real)
        left = []

        def lattice(*args, **kwargs):
            left.append(args)
            return "lattice"

        monkeypatch.setattr(ar2d, "_burg2d_lattice", lattice)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert burg2d_classic(x, 3, 1) == "lattice"
        assert len(left) == 1

    def test_top_of_the_range_stays_quiet_on_one_channel(self, monkeypatch):
        # With one channel nothing overflows at 0.49 * max: the route keeps
        # the grid and agrees with the lattice, and neither warns.
        x = crandn(np.random.default_rng(97), 6, 6)
        x *= np.sqrt(0.49 * np.finfo(float).max / np.vdot(x, x).real)
        seen = _grid_lattice_spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = burg2d_classic(x, 3, 0)
            assert seen == []
            ref = ar2d._burg2d_lattice(x, 3, 0, padded=False)
        _assert_same_stages(model, ref, 1e-12)

    def test_fast_route_is_taken(self, monkeypatch):
        # A reduced lattice_2d grid: two unit plane waves in unit noise.
        x = _plane_waves(np.random.default_rng(98), 48, 40, 1.0)
        seen = _grid_lattice_spy(monkeypatch)
        model = burg2d_classic(x, 8, 6)
        assert seen == []
        assert len(model.history) == 9 and model.sample_terms == 40


def _three_lattices(x, n2: int) -> list:
    """The shrinking and the zero-padded lattice of ``x`` at order ``N1 - 1``
    and the lag route at ``N1 - 2``; a raised error stands for its model."""
    runs = []
    for run in (lambda: ar2d._burg2d_lattice(x, len(x) - 1, n2, padded=False),
                lambda: ar2d._burg2d_lattice(x, len(x) - 1, n2, padded=True),
                lambda: ar2d._burg2d_from_lags(x, len(x) - 2, n2)):
        try:
            with np.errstate(all="ignore"):
                runs.append(run())
        except (NumericalError, np.linalg.LinAlgError) as exc:
            runs.append(repr(exc))
    return runs


class TestInPlaceStep:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        chunk=st.integers(1, 3),
        extra=st.integers(2, 4),
        cols=st.integers(1, 12),
        n2=st.integers(0, 5),
        waves=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(chunk=2, extra=2, cols=5, n2=3, waves=False, seed=1)
    @example(chunk=1, extra=3, cols=12, n2=4, waves=True, seed=2)
    def test_matches_the_two_buffer_step(self, chunk, extra, cols, n2, waves, seed):
        # A chunk spans `chunk` blocks. The shrinking lattice's windows run
        # from N1 - 1 = 2 chunk + extra - 1 blocks down to one, so they span
        # one block, exactly one and two chunks, and those plus a block; the
        # lag route's run from one up to N1 - 2, the padded lattice's from
        # N1 + 1 up.
        rows, n2 = 2 * chunk + extra, min(n2, cols - 1)
        width = cols + n2
        rng = np.random.default_rng(seed)
        x = _plane_waves(rng, rows, cols, 0.1) if waves else crandn(rng, rows, cols)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ar2d, "_chunk_blocks", lambda width: chunk)
            got = _three_lattices(x, n2)
            mp.setattr(ar2d, "_advance", advance_two_buffers)
            want = _three_lattices(x, n2)
        # With one column a one-block chunk is a matrix-vector product,
        # which BLAS may round differently from that column inside a
        # matrix product; there the step must agree to rounding.
        same = np.array_equal if width > 1 else (lambda a, b: max_rel_diff(a, b) <= 1e-13)
        for model, ref in zip(got, want, strict=True):
            if isinstance(ref, str):
                assert model == ref
                continue
            assert same(model.coeffs, ref.coeffs)
            assert same(model.error_power, ref.error_power)
            for stage, ref_stage in zip(model.history, ref.history, strict=True):
                for field in ("coeffs", "forward_power", "error_power", "cross_power"):
                    assert same(getattr(stage, field), getattr(ref_stage, field)), field
                assert same(stage.criterion, ref_stage.criterion)


class TestRealForm:
    # The lattice step and the lag route's edge blocks both apply taps to
    # blocks in the real layout through their real forms.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 6),
        taps=st.integers(1, 3),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=1, taps=1, width=1, seed=0)
    def test_acts_as_the_taps_do_on_the_real_layout(self, p, taps, width, seed):
        rng = np.random.default_rng(seed)
        a, blocks = crandn(rng, taps, p, p), crandn(rng, taps, p, width)
        form = ar2d._real_form(a)
        assert form.shape == (taps, 2 * p, 2 * p)
        for tap, block, product in zip(form, blocks, a @ blocks, strict=True):
            x, want = np.empty((2 * p, width)), np.empty((2 * p, width))
            _put_real(x, block[None])
            _put_real(want, product[None])
            # Each entry is a sum of 2p real products, which both sides round.
            bound = 8 * p * np.finfo(float).eps * (np.abs(tap) @ np.abs(x))
            assert (np.abs(tap @ x - want) <= bound).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.integers(1, 6), taps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_reversed_is_the_form_of_the_exchange_conjugate(self, p, taps, seed):
        a = crandn(np.random.default_rng(seed), taps, p, p)
        flipped = np.stack([exchange_conj(tap) for tap in a])
        assert np.array_equal(ar2d._real_form(a)[..., ::-1, ::-1], ar2d._real_form(flipped))


def _model_bytes(model) -> bytes:
    """Every array and criterion of ``model`` and its stages, as bytes."""
    parts = [model.coeffs, model.error_power]
    for stage in model.history:
        parts += [stage.coeffs, stage.forward_power, stage.error_power, stage.cross_power,
                  np.float64(stage.criterion)]
    return b"".join(np.asarray(a).tobytes() for a in parts)


@st.composite
def lattice_runs(draw) -> tuple:
    """A grid of 2 to 7 rows and 1 to 6 columns, an order in ``[1, N1-1]``
    and a channel order in ``[0, N2-1]``, each edge of a range drawn often;
    one grid in five is zero or scaled to the edge of the double range."""
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    order = draw(st.sampled_from([1, rows - 1]) | st.integers(1, rows - 1))
    n2 = draw(st.sampled_from([0, cols - 1]) | st.integers(0, cols - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _plane_waves(rng, rows, cols, 0.1) if draw(st.booleans()) else crandn(rng, rows, cols)
    if draw(st.integers(0, 4)) == 0:
        x *= draw(st.sampled_from([0.0, 1e-160, 1e155]))
    return x, order, n2


class TestFill:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(run=lattice_runs())
    @example(run=(np.ones((2, 1), dtype=complex), 1, 0))
    @example(run=(crandn(np.random.default_rng(5), 4, 5), 3, 4))
    def test_matches_the_fill_by_data_matrices(self, run):
        # Both lattices, and the lag route where its order allows, with the
        # grid written straight into the buffer and with the data matrices
        # built and copied: the same bytes, or the same error.
        x, order, n2 = run
        routes = [lambda: ar2d._burg2d_lattice(x, order, n2, padded=False),
                  lambda: ar2d._burg2d_lattice(x, order, n2, padded=True)]
        if order < len(x) - 1:
            routes.append(lambda: ar2d._burg2d_from_lags(x, order, n2))

        def outcomes():
            for route in routes:
                try:
                    with np.errstate(all="ignore"):
                        yield _model_bytes(route())
                except (NumericalError, np.linalg.LinAlgError) as exc:
                    yield repr(exc)

        got = list(outcomes())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ar2d, "_fill", fill_from_data_matrices)
            want = list(outcomes())
        assert got == want


def _traced_peak(x, n1: int, n2: int) -> int:
    """The ``tracemalloc`` peak of ``burg2d_modified(x, n1, n2)``, after a
    first call has done the allocations that happen only once."""
    burg2d_modified(x, n1, n2)
    tracemalloc.start()
    try:
        burg2d_modified(x, n1, n2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBurg2dModified:
    def test_single_column_reduces_to_burg_modified(self):
        rng = np.random.default_rng(48)
        col = crandn(rng, 10)
        model = burg2d_modified(col[:, None], 6, 0)
        ref = burg_modified(col, 6)
        for st2, st1 in zip(model.history[1:], ref.history):
            assert max_rel_diff(st2.coeffs[:, 0, 0], st1.coeffs) <= 1e-12

    def test_impulse_grid_gives_zero_coefficients(self):
        x = np.zeros((6, 5), dtype=complex)
        x[3, 2] = 2.0 - 1.0j
        model = burg2d_modified(x, 3, 2)
        assert np.abs(model.coeffs).max() == 0.0

    def test_matches_wwra_every_stage(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 8, 8)
        model = burg2d_modified(x, 3, 2)
        ww = wwra(estimate_block_autocorr_2d(x, 3, 2), 3)
        for st_w, st_m in zip(ww.history, model.history[1:]):
            assert max_rel_diff(st_w.coeffs, st_m.coeffs) <= 1e-9
        assert max_rel_diff(ww.error_power, model.error_power) <= 1e-9

    def test_exchange_symmetries_of_moments(self):
        rng = np.random.default_rng(49)
        x = crandn(rng, 7, 6)
        model = burg2d_modified(x, 3, 2)
        for st in model.history:
            dev_b = max_rel_diff(st.error_power, exchange_conj(st.forward_power))
            dev_c = max_rel_diff(st.cross_power, exchange_transpose(st.cross_power))
            assert dev_b <= 1e-10
            assert dev_c <= 1e-10

    def test_symmetrized_update_is_equivalent(self):
        rng = np.random.default_rng(50)
        x = crandn(rng, 8, 5)
        plain = burg2d_modified(x, 3, 1)
        # recomputing both update forms from the stored moments, which are
        # the next stage's moments under zero padding
        for st, nxt in zip(plain.history[:-1], plain.history[1:]):
            a_plain = -solve_hermitian_dense(st.error_power.T, st.cross_power.T).T
            a_sym = -solve_hermitian_dense(
                (st.error_power + exchange_conj(st.forward_power)).T,
                (st.cross_power + exchange_transpose(st.cross_power)).T,
            ).T
            assert max_rel_diff(a_plain, a_sym) <= 1e-10
            assert max_rel_diff(nxt.coeffs[-1], a_sym) <= 1e-12

    def test_zero_grid_rejected(self):
        with pytest.raises(DegenerateSignalError):
            burg2d_modified(np.zeros((4, 4), dtype=complex), 1, 1)

    def test_working_set_is_one_error_buffer(self):
        # The stage loop adds only chunk-sized scratch to the buffer, which
        # is filled from the grid. Two error buffers exceed the bound by half.
        rows, cols, n1, n2 = 48, 40, 6, 5
        x = crandn(np.random.default_rng(51), rows, cols)
        p, width = n2 + 1, cols + n2
        buffer = 4 * p * (rows + 1 + n1) * width * 8
        data = rows * p * width * 16
        assert _traced_peak(x, n1, n2) <= 1.1 * (buffer + data)

    def test_fill_adds_nothing_to_the_buffer(self):
        # At n2 = 3 a chunk spans 7 of the 131 blocks, so the fill sets the
        # peak: data matrices built beside the buffer take it to 1.49 times.
        rows, cols, n1, n2 = 128, 64, 2, 3
        x = crandn(np.random.default_rng(52), rows, cols)
        buffer = 4 * (n2 + 1) * (rows + 1 + n1) * (cols + n2) * 8
        assert _traced_peak(x, n1, n2) <= 1.25 * buffer

    def test_empty_grid_rejected(self):
        message = r"^grid must be a nonempty 2D array, got shape \(0, 3\)$"
        with pytest.raises(ValueError, match=message):
            burg2d_modified(np.zeros((0, 3)), 1, 0)


class TestQuarterPlaneFilter:
    def test_order_zero_is_refused(self):
        # Every 2D estimator takes an order in [1, N1-1]; wwra refuses 0 too.
        x = np.ones((4, 3), dtype=complex)
        for lattice in (burg2d_classic, burg2d_modified):
            with pytest.raises(ValueError, match=r"order must be in \[1, 3\], got 0"):
                lattice(x, 0, 1)

    def test_single_column_matches_1d_coefficients(self):
        rng = np.random.default_rng(53)
        col = crandn(rng, 9)
        model = burg2d_modified(col[:, None], 4, 0)
        filt = extract_quarter_plane_filter(model)
        ref = burg_modified(col, 4)
        assert max_rel_diff(filt.coeffs[1:, 0], ref.coeffs) <= 1e-12
        assert filt.coeffs[0, 0] == 1.0

    def test_filter_reproduces_forward_error_component(self):
        rng = np.random.default_rng(54)
        x = crandn(rng, 6, 6)
        model = burg2d_modified(x, 2, 1)
        filt = extract_quarter_plane_filter(model)
        res = quarter_plane_residual(x, filt)
        forward, _ = error_blocks(x, model.coeffs, 1)
        scale = np.abs(x).max()
        for k in range(res.shape[0]):
            assert np.abs(res[k] - forward[k][0]).max() <= 1e-10 * scale

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_residual_matches_tap_sums_up_to_the_wrap_boundary(self, rows, cols, seed, data):
        # Filters up to N1 x N2 taps, where a transform one row or column
        # short would wrap.
        n1 = data.draw(st.integers(0, rows - 1), label="n1")
        n2 = data.draw(st.integers(0, cols - 1), label="n2")
        rng = np.random.default_rng(seed)
        x = crandn(rng, rows, cols)
        c = crandn(rng, n1 + 1, n2 + 1)
        res = quarter_plane_residual(x, QuarterPlaneFilter(c, 1.0))
        ref = quarter_plane_residual_direct(x, c)
        assert res.shape == ref.shape == (rows + n1, cols + n2)
        assert np.abs(res - ref).max() <= 1e-13 * np.abs(x).max() * np.abs(c).sum()

    def test_filter_contract_holds_for_wwra_models(self):
        # same contract, coefficients straight from the lag-block recursion
        rng = np.random.default_rng(55)
        x = crandn(rng, 6, 5)
        n1, n2 = 2, 2
        ww = wwra(estimate_block_autocorr_2d(x, n1, n2), n1, sample_terms=6 + n1)
        filt = extract_quarter_plane_filter(ww)
        res = quarter_plane_residual(x, filt)
        forward, _ = error_blocks(x, ww.coeffs, n2)
        for k in range(res.shape[0]):
            assert np.abs(res[k] - forward[k][0]).max() <= 1e-9 * np.abs(x).max()

    def test_noise_power_normalization(self):
        rng = np.random.default_rng(56)
        x = crandn(rng, 6, 4)
        model = burg2d_modified(x, 2, 1)
        filt = extract_quarter_plane_filter(model)
        assert model.sample_terms == 6 + 2
        expected = model.error_power[0, 0].real / model.sample_terms
        assert abs(filt.noise_power - expected) <= 1e-15 * abs(expected)


class TestResidualMse2d:
    def test_unit_impulse_filter(self):
        rng = np.random.default_rng(57)
        x = crandn(rng, 5, 5)
        filt = QuarterPlaneFilter(np.array([[1.0 + 0.0j]]), 1.0)
        assert abs(residual_mse_2d(x, filt) - np.mean(np.abs(x) ** 2)) <= 1e-14

    def test_in_class_synthesis_recovers_noise_power(self):
        f1, f2 = 0.2, -0.15
        c_true = np.array(
            [
                [1.0, 0.0],
                [-0.55 * np.exp(2j * np.pi * f1), -0.35 * np.exp(2j * np.pi * (f1 + f2))],
            ]
        )
        x = synth_quarter_plane(c_true, 24, 24, seed=9)
        model = burg2d_modified(x, 1, 1)
        filt = extract_quarter_plane_filter(model)
        mse = residual_mse_2d(x, filt)
        noise_power = 1.0  # unit-variance driving noise
        assert 0.5 * noise_power <= mse <= 1.5 * noise_power

    def test_exact_filter_leaves_only_noise(self):
        c_true = np.array([[1.0, 0.0], [0.4 + 0.1j, -0.2 + 0.3j]])
        x = synth_quarter_plane(c_true, 16, 16, seed=2)
        w = Lcg32(2).complex_normal(16 * 16).reshape(16, 16)
        filt = QuarterPlaneFilter(c_true, 1.0)
        assert abs(residual_mse_2d(x, filt) - np.mean(np.abs(w) ** 2)) <= 1e-12

    def test_mse_nonincreasing_in_row_order(self):
        rng = np.random.default_rng(4)
        x = crandn(rng, 10, 10)
        # Order 0 predicts nothing: its filter is the unit impulse.
        mses = [residual_mse_2d(x, QuarterPlaneFilter(np.eye(1, 2, dtype=complex), 0.0))]
        for n1 in range(1, 4):
            filt = extract_quarter_plane_filter(burg2d_modified(x, n1, 1))
            mses.append(residual_mse_2d(x, filt))
        assert all(mses[i + 1] <= mses[i] + 1e-12 for i in range(len(mses) - 1))


class TestScalarReductions:
    def test_all_three_estimators_on_single_column_grids(self):
        rng = np.random.default_rng(58)
        col = crandn(rng, 12)
        grid = col[:, None]
        order = 5

        ww = wwra(estimate_block_autocorr_2d(grid, order, 0), order)
        lev = levinson(estimate_autocorr_1d(col, order), order)
        assert max_rel_diff(ww.coeffs[:, 0, 0], lev.coeffs) <= 1e-12

        mod2 = burg2d_modified(grid, order, 0)
        mod1 = burg_modified(col, order)
        assert max_rel_diff(mod2.coeffs[:, 0, 0], mod1.coeffs) <= 1e-12

        cls2 = burg2d_classic(grid, order, 0)
        cls1 = burg_classic(col, order)
        assert max_rel_diff(cls2.coeffs[:, 0, 0], cls1.coeffs) <= 1e-12


#: The six estimators, each on its own seeded record (1D) or grid (2D).
_RECORD = Lcg32(3).complex_normal(20)
_GRID = Lcg32(4).complex_normal(36).reshape(6, 6)
SCALED_ESTIMATORS = {
    "levinson": lambda s: levinson(estimate_autocorr_1d(s * _RECORD, 5), 5),
    "burg_classic": lambda s: burg_classic(s * _RECORD, 5),
    "burg_modified": lambda s: burg_modified(s * _RECORD, 5),
    "wwra": lambda s: wwra(estimate_block_autocorr_2d(s * _GRID, 2, 1), 2),
    "burg2d_classic": lambda s: burg2d_classic(s * _GRID, 2, 1),
    "burg2d_modified": lambda s: burg2d_modified(s * _GRID, 2, 1),
}


@pytest.mark.parametrize("scale", [1e-160, 1e155])
@pytest.mark.parametrize("method", SCALED_ESTIMATORS)
def test_non_finite_estimate_raises(method, scale):
    # Lags beyond the double range (underflow or overflow) make the result
    # non-finite; the estimator raises instead of returning it. Under 1e-160
    # the 2D estimators overflow inside LAPACK's solve, which numpy does not
    # report, and the classic 1D lattice stops at its first window energy
    # below the normal range, before it divides, so no warning may escape
    # there; everywhere else numpy warns.
    quiet = method in ("burg_classic", "wwra", "burg2d_classic", "burg2d_modified") and scale < 1.0
    with pytest.raises(NumericalError), nullcontext() if quiet else pytest.warns(RuntimeWarning):
        SCALED_ESTIMATORS[method](scale)


def _top_of_the_range_grid() -> np.ndarray:
    """A 6x6 noise grid whose energy is 0.49 times the largest double."""
    x = crandn(np.random.default_rng(97), 6, 6)
    return x * np.sqrt(0.49 * np.finfo(float).max / np.vdot(x, x).real)


@pytest.mark.parametrize("n2", [1, 2])
@pytest.mark.parametrize("lattice", [burg2d_classic, burg2d_modified])
def test_criterion_overflow_raises_quietly(lattice, n2):
    # Each of the 2p diagonal entries of the criterion's trace is near the
    # energy, so with two or more channels the trace overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"criterion \(the error-power trace\) overflows"):
            lattice(_top_of_the_range_grid(), 3, n2)


def test_one_channel_at_the_top_of_the_range_is_returned_quietly():
    # TestFastClassic covers burg2d_classic on this grid.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = burg2d_modified(_top_of_the_range_grid(), 3, 0)
    assert all(np.isfinite(stage.criterion) for stage in model.history)


@pytest.mark.parametrize("scale", [1e-165, 1e-200])
@pytest.mark.parametrize("lattice", [burg2d_classic, burg2d_modified])
def test_energy_that_rounds_to_zero_is_degenerate(lattice, scale):
    # A nonzero grid whose energy underflows: like the 1D lattices, raise
    # instead of returning zero coefficients with zero noise power.
    x = scale * crandn(np.random.default_rng(79), 5, 5)
    assert np.any(x)
    with pytest.raises(DegenerateSignalError, match="grid has zero energy"):
        lattice(x, 2, 1)


@pytest.mark.parametrize("method", ["wwra", "burg2d_classic", "burg2d_modified"])
def test_subnormal_energy_gives_non_finite_result(method):
    # At 1e-158 the moments are subnormal: the order-1 solve overflows inside
    # LAPACK, with no warning, and the final check names the non-finite
    # result.
    x = 1e-158 * crandn(np.random.default_rng(79), 5, 5)
    fit = {
        "wwra": lambda: wwra(estimate_block_autocorr_2d(x, 1, 1), 1),
        "burg2d_classic": lambda: burg2d_classic(x, 1, 1),
        "burg2d_modified": lambda: burg2d_modified(x, 1, 1),
    }[method]
    message = "non-finite coefficients or error power at order 1"
    with pytest.raises(NumericalError, match=message):
        fit()



#: A 6x6 grid whose order-(3, 2) fits reach both ends of the double range.
_RANGE_GRID = Lcg32(2, substream=3).complex_normal(36).reshape(6, 6)


def test_wwra_agrees_near_the_top_of_the_double_range():
    # |fft2(x)|^2 overflows at 1e153 where the lag sums do not; the lags
    # square a power-of-two-scaled spectrum, so wwra keeps its answer.
    big, unit = (wwra(estimate_block_autocorr_2d(s * _RANGE_GRID, 3, 2), 3) for s in (1e153, 1.0))
    assert max_rel_diff(big.coeffs, unit.coeffs) <= 1e-14


def test_subnormal_final_error_power_raises():
    # At 1e-155 the final error power's smallest diagonal entry is 3.7e-309,
    # subnormal, and the coefficients are 26% off; at 3e-155 it is normal and
    # the model agrees with the unscaled one.
    with pytest.raises(NumericalError, match="below the normal double range at order 3"):
        burg2d_modified(1e-155 * _RANGE_GRID, 3, 2)
    small, unit = (burg2d_modified(s * _RANGE_GRID, 3, 2) for s in (3e-155, 1.0))
    assert max_rel_diff(small.coeffs, unit.coeffs) <= 1e-13


def test_final_error_power_of_the_smallest_normal_double_is_returned():
    # With R_1 = 0 the coefficient is 0 and P stays R_0 exactly: the
    # smallest normal double passes, and the next double down raises.
    tiny = np.finfo(float).tiny
    model = wwra(np.array([[[tiny]], [[0.0]]]), 1)
    assert model.error_power[0, 0] == tiny
    with pytest.raises(NumericalError, match="below the normal double range at order 1"):
        wwra(np.array([[[np.nextafter(tiny, 0.0)]], [[0.0]]]), 1)


@pytest.mark.parametrize("p, zero", [(1, True), (3, False)])
def test_first_wwra_stage_is_one_solve_of_the_first_lag(p, zero):
    # At order 1 the recursion adds nothing to R_1: A_1 = -R_1 R_0^{-1} bit
    # for bit, the signs of a zero lag's parts included.
    rng = np.random.default_rng(11)
    r0 = hermitian_pd(rng, p)
    r1 = np.full((p, p), complex(-0.0, -0.0)) if zero else crandn(rng, p, p)
    want = -solve_hermitian_dense(r0.T, r1.T).T
    assert wwra(np.array([r0, r1]), 1).coeffs[0].tobytes() == want.tobytes()


class TestLagRouteGuards:
    """The lag route's guards at their boundaries, on lag blocks set exactly
    (a grid's FFT lags are not exact): a one-channel grid whose only
    nonzero samples are ``x0`` in its first row and ``last`` in its last,
    with the lags ``R_0 = r0`` and ``R_1 = R_2 = 0``."""

    @staticmethod
    def _route(monkeypatch, x0, r0, last=0.0):
        x = np.zeros((4, 1), dtype=complex)
        x[0, 0], x[-1, 0] = x0, last
        lags = np.zeros((3, 1, 1), dtype=complex)
        lags[0] = r0
        monkeypatch.setattr(ar2d, "estimate_block_autocorr_2d", lambda *args: lags)
        with np.errstate(all="ignore"):
            return ar2d._burg2d_from_lags(x, 1, 0)

    @pytest.mark.parametrize("r0, toward", [(15 * np.finfo(float).tiny, 0.0),
                                            (0.5 * np.finfo(float).max, np.inf)])
    def test_range_includes_both_ends(self, monkeypatch, r0, toward):
        # At 15 tiny the pivot floor 2 R_0 / 30 is the smallest normal double.
        self._route(monkeypatch, np.sqrt(r0), r0)
        with pytest.raises(NumericalError, match="out of the lag route's range"):
            self._route(monkeypatch, np.sqrt(r0), np.nextafter(r0, toward))

    def test_pivot_on_the_floor_stays(self, monkeypatch):
        # The floor is 2 * 15 / 30 = 1. With |x0|^2 = 29 every window has
        # Pf = 15 - 29 and Pb = 15, so every denominator is exactly 1; a
        # last sample of 2^-20 takes 2^-40 off it.
        self._route(monkeypatch, 5 + 2j, 15.0)
        with pytest.raises(NumericalError, match="under floor 1.000e[+]00 at order 0"):
            self._route(monkeypatch, 5 + 2j, 15.0, last=2.0**-20)
