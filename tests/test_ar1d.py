import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import crandn
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    backward_prediction_residual,
    burg_lattice_unfused,
    toeplitz_matrix,
    write_signal_2d_csv,
)

from arspec.ar1d import (
    ArModel1D,
    _burg_lattice,
    burg_classic,
    burg_classic_batch,
    burg_modified,
    burg_modified_batch,
    levinson,
    levinson_batch,
    prediction_residual,
    residual_mse,
)
from arspec.autocorr import estimate_autocorr_1d
from arspec import ar1d, ar2d
from arspec.errors import DegenerateSignalError, NumericalError, SingularityError
from arspec.io import write_signal_csv
from arspec.linalg import max_rel_diff, solve_hermitian_dense
from arspec.siggen import Lcg32, SynthConfig, gen_noisy_sinusoid


def forward_error_def(x, coeffs, k):
    """e^f(k) literally from the definition, indices must be in range."""
    out = x[k]
    for l, a in enumerate(coeffs, start=1):
        out += a * x[k - l]
    return out


def backward_error_def(x, coeffs, k):
    """e^b(k) literally from the definition, indices must be in range."""
    m = len(coeffs)
    out = x[k - m]
    for l, a in enumerate(coeffs, start=1):
        out += np.conj(a) * x[k + l - m]
    return out


def burg_reflection_def(x, coeffs, padded):
    """Burg's half-sum reflection of the stage after ``coeffs``, from the
    definitional errors of ``coeffs`` on that stage's window: ``[m, N-1]``
    for the classic lattice, ``[0, N+m-1]`` when ``padded``."""
    m, n = len(coeffs) + 1, len(x)
    ef = prediction_residual(x, coeffs)
    eb = backward_prediction_residual(x, coeffs)
    if padded:
        f, b = np.append(ef, 0.0), np.insert(eb, 0, 0.0)
    else:
        f, b = ef[m:n], eb[m - 1 : n - 1]
    return -np.vdot(b, f) / (0.5 * (np.vdot(f, f).real + np.vdot(b, b).real))


def reflection_records():
    """40 complex normal records of 8 to 200 samples and a near-noiseless
    N=20 sinusoid, which leaves the fast classic route."""
    rng = np.random.default_rng(25)
    records = [crandn(rng, n) for n in (8, 20, 64) * 13 + (200,)]
    return [*records, gen_noisy_sinusoid(SynthConfig(20, 0.25, 0.0, 60.0, 1))]


def assert_reflections_match_definition(estimator, padded):
    """Every stage's reflection, at order N/2 of each of
    :func:`reflection_records`, within 1e-11 of :func:`burg_reflection_def`."""
    for x in reflection_records():
        model = estimator(x, x.size // 2)
        assert model.order == x.size // 2
        prev = np.zeros(0, dtype=complex)
        for st in model.history:
            assert abs(st.reflection - burg_reflection_def(x, prev, padded)) <= 1e-11
            prev = st.coeffs


def burg_classic_oracle(x, order):
    """Step-by-step reference: materializes the error arrays from the
    definitions at every stage instead of updating them recursively."""
    n = len(x)
    coeffs = np.zeros(0, dtype=complex)
    stages = []
    for m in range(1, order + 1):
        num = 0.0 + 0.0j
        den = 0.0
        for k in range(m, n):
            f = forward_error_def(x, coeffs, k)
            b = backward_error_def(x, coeffs, k - 1)
            num -= f * np.conj(b)
            den += 0.5 * (abs(f) ** 2 + abs(b) ** 2)
        refl = num / den
        coeffs = np.concatenate([coeffs + refl * coeffs[::-1].conj(), [refl]])
        stages.append(coeffs.copy())
    return stages


def lags_from_reflections(reflections):
    """Lag sequence whose Levinson recursion produces the given reflection
    coefficients (r_0 = 1)."""
    r = [1.0 + 0.0j]
    coeffs = np.zeros(0, dtype=complex)
    power = 1.0
    for m, k in enumerate(reflections, start=1):
        partial = sum(r[m - l] * coeffs[l - 1] for l in range(1, m))
        r.append(-k * power - partial)
        coeffs = np.concatenate([coeffs + k * coeffs[::-1].conj(), [k]])
        power *= 1.0 - abs(k) ** 2
    return np.array(r)


class TestLevinson:
    def test_white_autocorrelation(self):
        model = levinson(np.array([1.0, 0.0]), 1)
        assert model.coeffs[0] == 0.0
        assert model.error_power == 1.0

    def test_order_one_direct(self):
        model = levinson(np.array([2.0, 1.0]), 1)
        assert model.coeffs[0] == -0.5
        assert model.error_power == 1.5

    def test_exact_ar1_autocorrelation(self):
        model = levinson(np.array([1.0, 0.5, 0.25]), 2)
        assert np.allclose(model.coeffs, [-0.5, 0.0], rtol=0, atol=1e-15)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(20)
        x = crandn(rng, 20)
        order = 15
        r = estimate_autocorr_1d(x, order)
        model = levinson(r, order)
        big = toeplitz_matrix(r, order)
        a_dense = solve_hermitian_dense(big, -r[1 : order + 1])
        assert max_rel_diff(model.coeffs, a_dense) <= 1e-9

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(21)
        x = crandn(rng, 24)
        order = 10
        r = estimate_autocorr_1d(x, order)
        model = levinson(r, order)
        big = toeplitz_matrix(r, order)
        rhs = r[1 : order + 1]
        resid = np.linalg.norm(big @ model.coeffs + rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)

    def test_power_history_nonincreasing(self):
        rng = np.random.default_rng(22)
        x = crandn(rng, 32)
        model = levinson(estimate_autocorr_1d(x, 20), 20)
        powers = [st.error_power for st in model.history]
        assert all(powers[i + 1] <= powers[i] for i in range(len(powers) - 1))
        assert all(p >= 0.0 for p in powers)

    def test_power_recursion_definition(self):
        model = levinson(np.array([2.0, 1.0, 0.5]), 2)
        p = 2.0
        for st in model.history:
            p = p * (1.0 - abs(st.reflection) ** 2)
            assert abs(st.error_power - p) <= 1e-15 * p

    def test_nonpositive_r0_rejected(self):
        with pytest.raises(DegenerateSignalError):
            levinson(np.array([0.0, 1.0]), 1)
        with pytest.raises(DegenerateSignalError):
            levinson(np.array([-1.0, 0.0]), 1)

    def test_unit_circle_reflection_stops_early(self):
        # all-ones lags: constant signal, perfectly predictable at order 1
        model = levinson(np.ones(4, dtype=complex), 3)
        assert model.early_stop
        assert model.order == 1
        assert model.coeffs[0] == -1.0

    def test_vanishing_power_raises(self):
        # four reflections close to (but measurably off) the unit circle
        # drive the power through the 1e-14 r_0 floor without ever
        # tripping the unit-circle stop
        k = 1.0 - 1e-4
        r = lags_from_reflections([-k] * 4 + [-0.5])
        with pytest.raises(SingularityError):
            levinson(r, 5)
        # The floor guards the next stage's denominator, so a last stage
        # may end below it.
        model = levinson(r, 4)
        assert model.order == 4 and not model.early_stop
        assert 0.0 < model.error_power <= 1e-14 * r[0].real

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            levinson(np.array([1.0, 0.5]), 0)
        with pytest.raises(ValueError):
            levinson(np.array([1.0, 0.5]), 2)


class TestBurgClassic:
    def test_alternating_signal(self):
        model = burg_classic(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert abs(model.coeffs[0] - 1.0) <= 1e-15

    def test_constant_signal(self):
        model = burg_classic(np.array([1.0, 1.0, 1.0]), 1)
        assert abs(model.coeffs[0] + 1.0) <= 1e-15

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(7)
        x = crandn(rng, 20)
        model = burg_classic(x, 3)
        oracle = burg_classic_oracle(x, 3)
        for st, ref in zip(model.history, oracle):
            assert max_rel_diff(st.coeffs, ref) <= 1e-12

    def test_reflection_magnitudes_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = crandn(rng, 16)
            model = burg_classic(x, 12)
            for st in model.history:
                assert abs(st.reflection) <= 1.0 + 1e-14

    def test_error_recursion_consistency(self, monkeypatch):
        seen = _lattice_spy(monkeypatch)
        assert_reflections_match_definition(burg_classic, padded=False)
        # Both routes are checked: only the sinusoid went to the lattice.
        assert len(seen) == 1 and np.array_equal(seen[0], reflection_records()[-1][None])

    def test_unit_reflection_stops_early(self):
        model = burg_classic(np.array([1.0, -1.0, 1.0, -1.0]), 2)
        assert model.early_stop
        assert model.order == 1

    def test_zero_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            burg_classic(np.zeros(6, dtype=complex), 2)

    def test_subnormal_window_energy_raises_before_dividing(self):
        # This record's energy at 1e-155, 7.7e-309, is subnormal. The lattice
        # used to divide by ever smaller window energies, warn five times and
        # end in a power of -inf at order 11.
        x = 1e-155 * Lcg32(1, substream=7).complex_normal(64)
        message = "error energy 7.616e-309 below the normal double range at order 1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                burg_classic(x, 20)

    def test_subnormal_floor_hands_the_record_to_the_lattice(self):
        # r_0 = 3.1e-308 is normal but r_0 / 30 is not. The lag route used
        # to keep this record and return a subnormal power of 1.9e-308, with
        # coefficients 2.3e-14 off the unscaled model.
        x = 2e-155 * Lcg32(1, substream=7).complex_normal(64)
        with pytest.raises(NumericalError) as raised:
            burg_classic(x, 20)
        assert str(raised.value) == (
            "error energy 2.221e-308 below the normal double range at order 11"
        )

    def test_error_energy_that_runs_out_is_degenerate(self):
        # The shrinking window at order 3 holds only the zero samples.
        with pytest.raises(DegenerateSignalError, match="zero error energy at order 3"):
            burg_classic([0, 1, 0, 0], 3)

    def test_order_range(self):
        x = np.ones(5, dtype=complex)
        with pytest.raises(ValueError):
            burg_classic(x, 0)
        with pytest.raises(ValueError):
            burg_classic(x, 5)


class TestBurgModified:
    def test_two_sample_record(self):
        model = burg_modified(np.array([1.0, 1.0]), 1)
        assert abs(model.coeffs[0] + 0.5) <= 1e-15
        ref = levinson(np.array([2.0, 1.0]), 1)
        assert model.coeffs[0] == ref.coeffs[0]

    def test_impulse_gives_zero_coefficients(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        model = burg_modified(x, 5)
        assert np.abs(model.coeffs).max() == 0.0

    def test_equals_levinson_at_every_order(self):
        rng = np.random.default_rng(42)
        x = crandn(rng, 20)
        mod = burg_modified(x, 15)
        lev = levinson(estimate_autocorr_1d(x, 15), 15)
        for st_m, st_l in zip(mod.history, lev.history):
            assert max_rel_diff(st_m.coeffs, st_l.coeffs) <= 1e-10
        assert abs(mod.error_power - lev.error_power) <= 1e-10 * lev.error_power

    def test_error_recursion_consistency(self):
        assert_reflections_match_definition(burg_modified, padded=True)

    def test_forward_backward_energy_equal_each_stage(self):
        rng = np.random.default_rng(28)
        x = crandn(rng, 20)
        model = burg_modified(x, 14)
        # Over the zero-padded support the two residual energies of any
        # coefficients are equal; each must be the recursion's error power.
        for st in model.history:
            for residual in (prediction_residual, backward_prediction_residual):
                energy = np.sum(np.abs(residual(x, st.coeffs)) ** 2)
                assert abs(st.error_power - energy) <= 1e-11 * energy

    def test_power_matches_extended_residual_energy(self):
        rng = np.random.default_rng(29)
        x = crandn(rng, 16)
        model = burg_modified(x, 8)
        for st in model.history:
            energy = np.sum(np.abs(prediction_residual(x, st.coeffs)) ** 2)
            assert abs(st.error_power - energy) <= 1e-11 * energy

    def test_zero_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            burg_modified(np.zeros(5, dtype=complex), 2)


SUBNORMAL_FITS = {
    "levinson": lambda x: levinson(estimate_autocorr_1d(x, 20), 20),
    "burg-mod": lambda x: burg_modified(x, 20),
}


@pytest.mark.parametrize("method", SUBNORMAL_FITS)
def test_subnormal_final_error_power_raises(method):
    # At 1e-155 the order-20 power of this record is 5.6e-309, a subnormal,
    # and both models used to drift by 3e-14 to 6e-14 without a word.
    fit = SUBNORMAL_FITS[method]
    x = Lcg32(1, substream=7).complex_normal(64)
    message = "5.594e-309 below the normal double range at order 20"
    with pytest.raises(NumericalError, match=message):
        fit(1e-155 * x)
    assert max_rel_diff(fit(3e-155 * x).coeffs, fit(x).coeffs) <= 1e-13


def test_stopped_record_may_end_subnormal():
    # k_1 is within 1e-14 of the unit circle: the recursion stops there,
    # and its final power, 2e-310, is the stop's and not a drift.
    model = levinson(1e-295 * np.array([1.0, 1.0 - 1e-15, 0.5]), 2)
    assert model.early_stop and model.order == 1
    assert 0.0 < model.error_power < np.finfo(float).tiny


class TestResidualMse:
    def test_zero_coefficients_give_mean_energy(self):
        rng = np.random.default_rng(30)
        x = crandn(rng, 9)
        model = ArModel1D(2, np.zeros(2, dtype=complex), 1.0, [])
        assert abs(residual_mse(x, model) - np.mean(np.abs(x) ** 2)) <= 1e-14

    def test_hand_computed_window(self):
        model = ArModel1D(1, np.array([-1.0 + 0.0j]), 1.0, [])
        assert residual_mse(np.array([1.0, 1.0]), model) == 0.5

    def test_full_support_counts_the_tail(self):
        model = ArModel1D(1, np.array([-1.0 + 0.0j]), 1.0, [])
        # residual [1, 0, -1]: window drops the tail sample
        assert residual_mse(np.array([1.0, 1.0]), model, support="full") == 1.0

    def test_order_exceeding_length_is_fine(self):
        rng = np.random.default_rng(31)
        x = crandn(rng, 4)
        model = ArModel1D(6, crandn(rng, 6), 1.0, [])
        assert residual_mse(x, model) >= 0.0

    def test_full_support_mse_equals_power_over_n(self):
        rng = np.random.default_rng(32)
        x = crandn(rng, 15)
        model = burg_modified(x, 9)
        for st in model.history:
            sub = ArModel1D(st.order, st.coeffs, st.error_power, [])
            assert (
                abs(residual_mse(x, sub, support="full") - st.error_power / 15)
                <= 1e-12 * st.error_power / 15
            )

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            residual_mse(np.ones(3), ArModel1D(0, np.zeros(0, complex), 1.0, []), "both")


def assert_same_model(batched: ArModel1D, single: ArModel1D):
    """Equal stage counts; coefficients, powers and reflections within
    1e-15 relative, stage by stage."""
    assert batched.order == single.order
    assert batched.early_stop == single.early_stop
    assert len(batched.history) == len(single.history)
    for b, s in zip(batched.history, single.history):
        assert b.order == s.order
        assert max_rel_diff(b.coeffs, s.coeffs) <= 1e-15
        assert abs(b.error_power - s.error_power) <= 1e-15 * abs(s.error_power)
        assert abs(b.reflection - s.reflection) <= 1e-15 * abs(s.reflection)


class TestBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        n_rec=st.integers(1, 5),
        n=st.integers(2, 40),
        order=st.integers(1, 39),
        padded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        sine=st.integers(-1, 4),
    )
    # A noiseless N=20 sinusoid among random records: the classic lattice
    # stops it at order 1, at the unit circle, and runs on with the others.
    @example(n_rec=4, n=20, order=15, padded=False, seed=5, sine=1)
    def test_each_record_matches_its_single_call(self, n_rec, n, order, padded, seed, sine):
        order = min(order, n - 1)
        x = crandn(np.random.default_rng(seed), n_rec, n)
        if sine >= 0:
            x[sine % n_rec] = gen_noisy_sinusoid(SynthConfig(n, 0.25, 0.0, None, 1))
        single = burg_modified if padded else burg_classic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = (burg_modified_batch if padded else burg_classic_batch)(x, order)
            lattice = _burg_lattice(x, order, padded)
            for b in range(n_rec):
                assert_bitwise_model(batch.model(b), single(x[b], order))
                alone = _burg_lattice(x[b : b + 1], order, padded).model(0)
                assert_same_model(lattice.model(b), alone)
            lags = estimate_autocorr_1d(x, order)
            for b in range(n_rec):
                assert np.array_equal(lags[b], estimate_autocorr_1d(x[b], order))
            try:
                singles = [levinson(lags[b], order) for b in range(n_rec)]
            except SingularityError:
                with pytest.raises(SingularityError):
                    levinson_batch(lags, order)
                return
            recursion = levinson_batch(lags, order)
            for b in range(n_rec):
                assert_bitwise_model(recursion.model(b), singles[b])

    @pytest.mark.parametrize(
        "batch, single",
        [(burg_classic_batch, burg_classic), (burg_modified_batch, burg_modified)],
    )
    def test_bad_stack_raises_as_a_single_record_does(self, batch, single):
        x = crandn(np.random.default_rng(97), 3, 8)
        bad = x.copy()
        bad[1, 2] = np.nan
        for stack, order, record in (
            (bad, 3, bad[1]),  # a non-finite row
            (x, 8, x[0]),  # an order outside [1, N-1]
            (x, 0, x[0]),
            (x[None], 3, x),  # not a (B, N) stack
            (x[0], 3, x[0, 0]),
        ):
            with pytest.raises(ValueError) as want:
                single(record, order)
            with pytest.raises(ValueError) as got:
                batch(stack, order)
            assert str(got.value) == str(want.value)

    def test_bad_lags_raise_as_a_single_sequence_does(self):
        r = estimate_autocorr_1d(crandn(np.random.default_rng(98), 3, 8), 4)
        for stack, order, lags in (
            (r, 0, r[0]),  # an order below 1
            (r, 5, r[0]),  # too few lags
            (r[None], 2, r),  # not a (B, L) stack
            (r[0], 2, r[0, 0]),
        ):
            with pytest.raises(ValueError) as want:
                levinson(lags, order)
            with pytest.raises(ValueError) as got:
                levinson_batch(stack, order)
            assert str(got.value) == str(want.value)

    def test_sinusoid_stops_alone(self):
        x = crandn(np.random.default_rng(90), 3, 20)
        x[1] = gen_noisy_sinusoid(SynthConfig(20, 0.25, 0.0, None, 1))
        batch = _burg_lattice(x, 6, padded=False)
        assert batch.stages.tolist() == [6, 1, 6]
        assert abs(batch.reflections[1, 0]) >= 1.0 - 1e-14
        assert not batch.reflections[1, 1:].any()

    def test_stopped_record_with_zero_error_energy(self):
        # The alternating record reaches k = 1 at order 1, which leaves its
        # classic-support errors exactly zero; beside a running record that
        # zero energy is not degenerate.
        x = crandn(np.random.default_rng(93), 2, 8)
        x[0] = [1.0, -1.0] * 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _burg_lattice(x, 4, padded=False)
        assert batch.stages.tolist() == [1, 4]
        assert_same_model(batch.model(0), burg_classic(x[0], 4))
        assert_same_model(batch.model(1), burg_classic(x[1], 4))

    def test_levinson_stop_is_per_record(self):
        # all-ones lags (a constant signal) stop at order 1 with a vanishing
        # power, which must not count against the record beside them
        lags = np.ones((2, 7), dtype=complex)
        lags[1] = estimate_autocorr_1d(crandn(np.random.default_rng(92), 12), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = levinson_batch(lags, 6)
        assert batch.stages.tolist() == [1, 6]
        assert_same_model(batch.model(0), levinson(lags[0], 6))
        assert_same_model(batch.model(1), levinson(lags[1], 6))

    @pytest.mark.parametrize("padded", [False, True])
    def test_zero_record_in_a_batch_is_degenerate(self, padded):
        x = crandn(np.random.default_rng(91), 3, 12)
        x[2] = 0.0
        with pytest.raises(DegenerateSignalError):
            (burg_modified_batch if padded else burg_classic_batch)(x, 4)
        with pytest.raises(DegenerateSignalError):
            levinson_batch(estimate_autocorr_1d(x, 4), 4)


def _sinusoid(rng, n: int, noise: float, real: bool) -> np.ndarray:
    """A unit sinusoid at a random frequency and phase plus white noise of
    standard deviation ``noise``, complex or real."""
    k = np.arange(n)
    z = np.exp(1j * (2.0 * np.pi * rng.uniform(-0.5, 0.5) * k + rng.uniform(0.0, 2.0 * np.pi)))
    z += noise * crandn(rng, n)
    return z.real + 0j if real else z


def _lattice_spy(monkeypatch) -> list:
    """Route ``ar1d._burg_lattice`` through a spy; returns the list that
    collects the stacks it is given."""
    seen = []
    real = ar1d._burg_lattice

    def spy(x, *args, **kwargs):
        seen.append(x.copy())
        return real(x, *args, **kwargs)

    monkeypatch.setattr(ar1d, "_burg_lattice", spy)
    return seen


def assert_bitwise_model(got: ArModel1D, want: ArModel1D):
    assert (got.order, got.early_stop, got.error_power) == (
        want.order, want.early_stop, want.error_power
    )
    for g, w in zip(got.history, want.history, strict=True):
        assert np.array_equal(g.coeffs, w.coeffs)
        assert (g.error_power, g.reflection) == (w.error_power, w.reflection)


class TestFastClassic:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 80),
        order=st.integers(1, 79),
        kind=st.sampled_from(["complex", "real", "sinusoid", "real-sinusoid"]),
        noise=st.sampled_from([0.0] + [10.0**e for e in range(-15, 0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=20, order=19, kind="sinusoid", noise=0.0, seed=1)
    @example(n=2, order=1, kind="real", noise=0.1, seed=3)
    def test_matches_the_lattice(self, n, order, kind, noise, seed):
        order = min(order, n - 1)
        rng = np.random.default_rng(seed)
        if kind == "complex":
            x = crandn(rng, n)
        elif kind == "real":
            x = rng.standard_normal(n) + 0j
        else:
            x = _sinusoid(rng, n, noise, kind == "real-sinusoid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ref = _burg_lattice(x[None], order, padded=False).model(0)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    burg_classic(x, order)
                return
            model = burg_classic(x, order)
        assert (model.order, model.early_stop) == (ref.order, ref.early_stop)
        assert len(model.history) == len(ref.history)
        for got, want in zip(model.history, ref.history):
            assert max_rel_diff(got.coeffs, want.coeffs) <= 1e-12
            assert abs(got.error_power - want.error_power) <= 1e-12 * want.error_power

    def test_a_tripped_record_gets_the_lattice_bits(self, monkeypatch):
        # The paper's record (N=20, 30 dB) leaves the fast route at order 2.
        x = gen_noisy_sinusoid(SynthConfig(20, 0.25, 0.0, 30.0, 1))
        seen = _lattice_spy(monkeypatch)
        batch = burg_classic_batch(x[None], 19)
        assert len(seen) == 1 and np.array_equal(seen[0], x[None])
        ref = _burg_lattice(x[None], 19, padded=False)
        assert np.array_equal(batch.coeffs, ref.coeffs)
        assert np.array_equal(batch.powers, ref.powers)
        assert np.array_equal(batch.stages, ref.stages)

    def test_mixed_batch_equals_each_record_alone(self, monkeypatch):
        rng = np.random.default_rng(94)
        x = crandn(rng, 6, 24)
        x[1] = gen_noisy_sinusoid(SynthConfig(24, 0.25, 0.0, 30.0, 1))
        x[3] = gen_noisy_sinusoid(SynthConfig(24, 0.3, 0.0, None, 1))
        x[4] = rng.standard_normal(24)
        seen = _lattice_spy(monkeypatch)
        batch = burg_classic_batch(x, 15)
        # Only the two sinusoids go to the lattice, as one sub-batch.
        assert len(seen) == 1 and np.array_equal(seen[0], x[[1, 3]])
        for b in range(len(x)):
            assert_bitwise_model(batch.model(b), burg_classic(x[b], 15))

    def test_overflowing_sums_leave_quietly(self):
        # Near the top of the double range the lag forms overflow where the
        # lattice's sums do not: the record goes to the lattice, silently.
        x = crandn(np.random.default_rng(96), 64)
        x *= np.sqrt(0.49 * np.finfo(float).max / np.vdot(x, x).real)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = burg_classic(x, 63)
            ref = _burg_lattice(x[None], 63, padded=False).model(0)
        assert_bitwise_model(model, ref)

    def test_fast_route_is_taken(self, monkeypatch):
        # A reduced lattice_1d record: two unit tones in noise of variance 0.1.
        rng = np.random.default_rng(95)
        k = np.arange(4096)
        x = np.exp(2j * np.pi * 0.11 * k) + np.exp(2j * np.pi * (-0.23 * k + 0.4))
        x += np.sqrt(0.05) * crandn(rng, k.size)

        def refuse(*args, **kwargs):
            raise AssertionError("the record left the fast route")

        monkeypatch.setattr(ar1d, "_burg_lattice", refuse)
        model = burg_classic(x, 64)
        assert model.order == 64 and not model.early_stop
        assert len(model.history) == 64
        assert all(abs(st.reflection) < 1.0 for st in model.history)


def _sweep_batch(rng, n: int, n_rec: int, first: str, scale: float) -> np.ndarray:
    """``n_rec`` records of complex noise times ``scale``, the first replaced
    by a noiseless sinusoid, a zero record or a unit impulse at ``k = 1``."""
    x = crandn(rng, n_rec, n)
    if first == "sinusoid":
        x[0] = _sinusoid(rng, n, 0.0, False)
    elif first in ("zero", "impulse"):
        x[0] = 0.0
        x[0, 1] = first == "impulse"
    return scale * x


#: Over 6000 random batches of the property below, the chunked sums moved
#: a stage's coefficients by at most 4.3e-14 relative to the larger of
#: them, and its error power by at most 1.1e-13 of the stage's input power.
CHUNKED_SUM_BOUND = 1e-12


def _chunked_lattice(x: np.ndarray, order: int, padded: bool, chunk: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ar1d, "CHUNK", chunk)
        return _burg_lattice(x, order, padded)


class TestChunkedSweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        chunk=st.sampled_from([1, 3, 7, 64]),
        padded=st.booleans(),
        n=st.integers(2, 40),
        order=st.integers(1, 39),
        n_rec=st.integers(1, 3),
        first=st.sampled_from(["noise", "sinusoid", "zero", "impulse"]),
        scale=st.sampled_from([1.0, 1e-155]),
        seed=st.integers(0, 2**32 - 1),
    )
    # The impulse's error energy runs out at order 3 on the shrinking support.
    @example(chunk=1, padded=False, n=4, order=3, n_rec=1, first="impulse", scale=1.0, seed=0)
    # A noiseless sinusoid stops at order 1 on the shrinking support, alone.
    @example(chunk=3, padded=False, n=30, order=12, n_rec=3, first="sinusoid", scale=1.0, seed=1)
    def test_matches_the_unfused_lattice(self, chunk, padded, n, order, n_rec, first, scale, seed):
        x = _sweep_batch(np.random.default_rng(seed), n, n_rec, first, scale)
        order = min(order, n - 1)
        try:
            want = burg_lattice_unfused(x, order, padded)
        # Near the bottom of the range the zero-padded lattice may warn
        # first, which the suite turns into an error.
        except (NumericalError, RuntimeWarning) as exc:
            with pytest.raises(type(exc)) as raised:
                _chunked_lattice(x, order, padded, chunk)
            assert str(raised.value) == str(exc)
            return
        got = _chunked_lattice(x, order, padded, chunk)
        assert np.array_equal(got.stages, want.stages)
        if (n + order if padded else n) <= chunk:
            # Every window is one chunk: the same dots, the same bits.
            assert np.array_equal(got.coeffs, want.coeffs)
            assert np.array_equal(got.powers, want.powers)
            return
        for b, stages in enumerate(want.stages):
            for m in range(1, stages + 1):
                stage = slice(m * (m - 1) // 2, m * (m + 1) // 2)
                deviation = max_rel_diff(got.coeffs[b, stage], want.coeffs[b, stage])
                assert deviation <= CHUNKED_SUM_BOUND
                drift = abs(got.powers[b, m] - want.powers[b, m])
                assert drift <= CHUNKED_SUM_BOUND * want.powers[b, m - 1]

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    @pytest.mark.parametrize(
        "padded, message",
        [
            (True, "prediction-error power 5.594e-309 below the normal double range at order 20"),
            (False, "error energy 7.616e-309 below the normal double range at order 1"),
        ],
    )
    def test_subnormal_record_raises_the_same_error(self, chunk, padded, message):
        x = 1e-155 * Lcg32(1, substream=7).complex_normal(64)[None]
        for lattice in (burg_lattice_unfused, partial(_chunked_lattice, chunk=chunk)):
            with pytest.raises(NumericalError) as raised:
                lattice(x, 20, padded)
            assert str(raised.value) == message

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path, monkeypatch):
        # Every estimator, 1D and 2D, and est1d/est2d through the CLI. OpenBLAS
        # splits a dot of more than 10000 samples, and a large complex matrix
        # product, across threads; the 1D lattice's dots are at most CHUNK
        # samples, the lags take no dot at all, and the complex products of
        # the 2D lag route have inner dimension p. The tone leaves
        # burg_classic_batch's lag route for the shrinking lattice; the noise
        # record and the grid stay on theirs. The 48x40 grid's blocks of 50
        # columns leave a partial tile in a whole-window product, which
        # OpenBLAS splits across threads; the lattice's chunks stay on one.
        # The 6x90 grid at n2 = 20 (p = 21) is the largest channel count the
        # README promises; on that grid OpenBLAS splits a lattice step's
        # product across threads from p = 24, and the Gram from 4p = 100
        # rows. At order 5 = N1 - 1 burg2d_classic hands the grid to the
        # shrinking lattice.
        # The second run places allocations between the calls, which must
        # not move a bit either.
        script = (
            "import hashlib, sys, numpy as np\n"
            "from arspec import ar1d, ar2d, cli\n"
            "from arspec.autocorr import estimate_autocorr_1d, estimate_block_autocorr_2d\n"
            "from arspec.siggen import Lcg32\n"
            "signal, grid_csv, out = sys.argv[1:]\n"
            "x = Lcg32(3).complex_normal(20000)\n"
            "tone = np.exp(2j * np.pi * 0.1 * np.arange(20000)) + 1e-3 * x\n"
            "grid = Lcg32(4).complex_normal(16384).reshape(128, 128)\n"
            "odd = Lcg32(5).complex_normal(1920).reshape(48, 40)\n"
            "wide = Lcg32(6).complex_normal(540).reshape(6, 90)\n"
            "def sha(*parts):\n"
            "    return hashlib.sha256(b''.join(np.asarray(a).tobytes() for a in parts)).hexdigest()\n"
            "def digests():\n"
            "    for batch in (ar1d.burg_modified_batch(x[None], 8),\n"
            "                  ar1d.burg_classic_batch(tone[None], 8),\n"
            "                  ar1d._burg_lattice(tone[None], 8, padded=False),\n"
            "                  ar1d.levinson_batch(estimate_autocorr_1d(x[None], 8), 8),\n"
            "                  ar1d.burg_classic_batch(x[None], 8)):\n"
            "        yield sha(batch.coeffs, batch.powers, batch.stages)\n"
            "    for model in (ar2d.wwra(estimate_block_autocorr_2d(grid, 16, 16), 16),\n"
            "                  ar2d.burg2d_classic(grid, 16, 16),\n"
            "                  ar2d.burg2d_modified(grid, 16, 16),\n"
            "                  ar2d.burg2d_modified(odd, 16, 10),\n"
            "                  ar2d.burg2d_classic(wide, 5, 20),\n"
            "                  ar2d.burg2d_modified(wide, 5, 20)):\n"
            "        yield sha(model.coeffs, model.error_power)\n"
            "    for argv in (['est1d', '--method', 'levinson', '--order', '8', '--in', signal],\n"
            "                 ['est1d', '--method', 'burg', '--order', '8', '--in', signal],\n"
            "                 ['est2d', '--method', 'burg2d', '--n1', '16', '--n2', '16',\n"
            "                  '--in', grid_csv]):\n"
            "        assert cli.main([*argv, '--out', out]) == 0\n"
            "        for path in (out, out + '.filter.json')[: 1 + (argv[0] == 'est2d')]:\n"
            "            with open(path, 'rb') as f:\n"
            "                yield hashlib.sha256(f.read()).hexdigest()\n"
            "first, held = list(digests()), []\n"
            "for n, digest in enumerate(digests()):\n"
            "    held.append(np.empty(1 + 7919 * (n % 5)))\n"
            "    print(digest, first[n])\n"
        )
        signal, grid_csv = tmp_path / "signal.csv", tmp_path / "grid.csv"
        write_signal_csv(signal, Lcg32(3).complex_normal(20000))
        write_signal_2d_csv(grid_csv, Lcg32(4).complex_normal(16384).reshape(128, 128))
        src = str(Path(ar1d.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            argv = [str(signal), str(grid_csv), str(tmp_path / f"model{threads}.json")]
            run = subprocess.run(
                [sys.executable, "-c", script, *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert run.returncode == 0, run.stderr
            pairs = [line.split() for line in run.stdout.splitlines()]
            assert len(pairs) == 15
            assert all(again == first for again, first in pairs)
            digests.append([first for _, first in pairs])
        _, classic, lattice, *_ = digests[0]
        assert classic == lattice
        assert digests[0] == digests[1]
        # The noise record and the grid never reach the lattices.
        monkeypatch.setattr(ar1d, "_burg_lattice", None)
        burg_classic_batch(Lcg32(3).complex_normal(20000)[None], 8)
        monkeypatch.setattr(ar2d, "_burg2d_lattice", None)
        ar2d.burg2d_classic(Lcg32(4).complex_normal(16384).reshape(128, 128), 16, 16)
