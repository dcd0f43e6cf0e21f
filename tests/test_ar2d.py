import numpy as np
import pytest
from conftest import crandn

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
    block_toeplitz_matrix,
    build_data_matrices,
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
        expected = -solve_hermitian_dense(blocks[0], blocks[1], side="right")
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
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[1] = np.eye(2)
        with pytest.raises(SingularityError):
            wwra(blocks, 1)

    def test_usage_errors(self):
        blocks = np.ones((2, 1, 1), dtype=complex)
        with pytest.raises(ValueError):
            wwra(blocks, 0)
        with pytest.raises(ValueError):
            wwra(blocks, 2)


class TestBurg2dClassic:
    def test_single_column_reduces_to_burg_classic(self):
        rng = np.random.default_rng(45)
        col = crandn(rng, 10)
        model = burg2d_classic(col[:, None], 6, 0)
        ref = burg_classic(col, 6)
        for st2, st1 in zip(model.history[1:], ref.history):
            assert max_rel_diff(st2.coeffs[:, 0, 0], st1.coeffs) <= 1e-12
            assert abs(st2.reflection[0, 0] - st1.reflection) <= 1e-12 * abs(
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
        expected = -solve_hermitian_dense(denom, numer, side="right")
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
        x = crandn(rng, 7, 5)
        model = estimator(x, 3, 2, keep_errors=True)
        for st in model.history:
            ef, eb = st.errors.forward, st.errors.backward
            pf = sum(f @ f.conj().T for f in ef)
            pb = sum(b @ b.conj().T for b in eb)
            pfb = sum(f @ b.conj().T for f, b in zip(ef[1:], eb[:-1]))
            assert max_rel_diff(st.forward_power, pf) <= 1e-13
            assert max_rel_diff(st.error_power, pb) <= 1e-13
            assert max_rel_diff(st.cross_power, pfb) <= 1e-13
            assert abs(st.criterion - np.trace(pf + pb).real) <= 1e-13 * st.criterion

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
            a_plain = -solve_hermitian_dense(st.error_power, st.cross_power, side="right")
            a_sym = -solve_hermitian_dense(
                st.error_power + exchange_conj(st.forward_power),
                st.cross_power + exchange_transpose(st.cross_power),
                side="right",
            )
            assert max_rel_diff(a_plain, a_sym) <= 1e-10
            assert max_rel_diff(nxt.reflection, a_sym) <= 1e-12

    def test_error_supports_grow(self):
        rng = np.random.default_rng(51)
        x = crandn(rng, 5, 4)
        model = burg2d_modified(x, 3, 1, keep_errors=True)
        for st in model.history:
            err = st.errors
            assert err.k_min == 0
            assert err.k_max == 5 + st.order - 1
            assert err.forward.shape == (5 + st.order, 2, 5)

    def test_forward_error_matches_definition(self):
        rng = np.random.default_rng(52)
        x = crandn(rng, 6, 5)
        n1, n2 = 2, 1
        model = burg2d_modified(x, n1, n2, keep_errors=True)
        data = build_data_matrices(x, n2)
        rows = data.shape[0]
        final = model.history[-1]
        padded = np.concatenate(
            [data, np.zeros((n1, data.shape[1], data.shape[2]), dtype=complex)]
        )
        for k in range(rows + n1):
            ref = padded[k].copy()
            for l in range(1, n1 + 1):
                if k - l >= 0:
                    ref += final.coeffs[l - 1] @ padded[k - l]
            assert np.abs(final.errors.forward[k] - ref).max() <= 1e-12 * np.abs(x).max()

    def test_zero_grid_rejected(self):
        with pytest.raises(DegenerateSignalError):
            burg2d_modified(np.zeros((4, 4), dtype=complex), 1, 1)


class TestQuarterPlaneFilter:
    def test_order_zero_model_is_unit_impulse(self):
        model = burg2d_modified(np.ones((4, 3), dtype=complex), 0, 1)
        filt = extract_quarter_plane_filter(model)
        assert filt.coeffs.shape == (1, 2)
        assert filt.coeffs[0, 0] == 1.0
        assert filt.coeffs[0, 1] == 0.0

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
        model = burg2d_modified(x, 2, 1, keep_errors=True)
        filt = extract_quarter_plane_filter(model)
        res = quarter_plane_residual(x, filt)
        forward = model.history[-1].errors.forward
        scale = np.abs(x).max()
        for k in range(res.shape[0]):
            assert np.abs(res[k] - forward[k][0]).max() <= 1e-10 * scale

    def test_filter_contract_holds_for_wwra_models(self):
        # same contract, coefficients straight from the lag-block recursion
        rng = np.random.default_rng(55)
        x = crandn(rng, 6, 5)
        n1, n2 = 2, 2
        ww = wwra(estimate_block_autocorr_2d(x, n1, n2), n1, sample_terms=6 + n1)
        filt = extract_quarter_plane_filter(ww)
        res = quarter_plane_residual(x, filt)
        mod = burg2d_modified(x, n1, n2, keep_errors=True)
        forward = mod.history[-1].errors.forward
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
        mses = []
        for n1 in range(4):
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
    # non-finite; the estimator raises instead of returning it.
    with pytest.raises(NumericalError), pytest.warns(RuntimeWarning):
        SCALED_ESTIMATORS[method](scale)


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
    # At 1e-158 the moments are subnormal: the order-1 solve overflows, and
    # the final check names the non-finite result.
    x = 1e-158 * crandn(np.random.default_rng(79), 5, 5)
    fit = {
        "wwra": lambda: wwra(estimate_block_autocorr_2d(x, 1, 1), 1),
        "burg2d_classic": lambda: burg2d_classic(x, 1, 1),
        "burg2d_modified": lambda: burg2d_modified(x, 1, 1),
    }[method]
    message = "non-finite coefficients or error power at order 1"
    with pytest.raises(NumericalError, match=message), pytest.warns(RuntimeWarning):
        fit()
