import tracemalloc

import numpy as np
import pytest
from conftest import crandn
from oracles import write_spectrum_csv_per_cell

from arspec.ar1d import ArModel1D, levinson
from arspec.ar2d import QuarterPlaneFilter, burg2d_modified, extract_quarter_plane_filter
from arspec.io import write_spectrum_csv
from arspec.linalg import max_rel_diff
from arspec.siggen import Lcg32
from arspec.spectrum import ar_spectrum_1d, ar_spectrum_2d, frequency_grid, log10_power


def direct_power(taps, noise_power, shape):
    """``noise_power / |C|^2`` by a direct DTFT sum over the library grid.

    Each phase is first reduced to the integer ``((j - n//2) l) mod n`` of
    its axis, so the reference is exact for taps past the grid size.
    """
    taps = np.asarray(taps, dtype=complex)
    den = np.zeros(shape, dtype=complex)
    for j in np.ndindex(*shape):
        for l in np.ndindex(*taps.shape):
            turns = sum((jj - n // 2) * ll % n / n for jj, ll, n in zip(j, l, shape))
            den[j] += taps[l] * np.exp(-2j * np.pi * turns)
    return noise_power / np.abs(den) ** 2


class TestFrequencyGrid:
    def test_covers_half_open_interval(self):
        for n in (2, 7, 64, 1024):
            f = frequency_grid(n)
            assert f.size == n
            assert f.min() >= -0.5
            assert f.max() < 0.5
            assert np.allclose(np.diff(f), 1.0 / n, rtol=0, atol=0)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            frequency_grid(1)


class TestArSpectrum1D:
    def test_order_zero_flat(self):
        model = ArModel1D(0, np.zeros(0, dtype=complex), 1.0, [])
        grid = ar_spectrum_1d(model, 64)
        assert np.allclose(grid.power, 1.0, rtol=0, atol=0)
        assert not grid.pole_mask.any()

    def test_order_one_hand_value(self):
        model = ArModel1D(1, np.array([-0.5 + 0.0j]), 1.0, [])
        grid = ar_spectrum_1d(model, 1024)
        # f = 0 sits at bin nfreq//2
        assert grid.power[512] == 4.0

    def test_real_coefficients_symmetric(self):
        model = ArModel1D(2, np.array([0.5 + 0.0j, -0.25 + 0.0j]), 2.0, [])
        grid = ar_spectrum_1d(model, 512)
        body = grid.power[1:]  # bin 0 (f = -0.5) has no mirror in the grid
        assert np.abs(body - body[::-1]).max() <= 1e-12 * body.max()

    def test_scaling_error_power(self):
        rng = np.random.default_rng(60)
        coeffs = 0.3 * crandn(rng, 3)
        m1 = ArModel1D(3, coeffs, 1.0, [])
        m2 = ArModel1D(3, coeffs, 2.5, [])
        g1 = ar_spectrum_1d(m1, 128)
        g2 = ar_spectrum_1d(m2, 128)
        assert max_rel_diff(g2.power, 2.5 * g1.power) <= 1e-15
        assert np.argmax(g1.power) == np.argmax(g2.power)

    def test_pole_flagged_not_clipped(self):
        # zeros of 1 - z^-1 at f = 0 (bin nfreq/2) and of 1 + z^-1 at
        # f = -0.5 (bin 0); on 1024 bins the FFT evaluates both exactly, on
        # 1000 bins |C| at f = -0.5 is a rounding error near 1e-16
        for nfreq in (1024, 1000):
            for a, pole in ((-1.0, nfreq // 2), (1.0, 0)):
                model = ArModel1D(1, np.array([a + 0.0j]), 1.0, [])
                grid = ar_spectrum_1d(model, nfreq)
                assert np.flatnonzero(grid.pole_mask).tolist() == [pole]
                assert np.isinf(grid.power[pole])
                assert np.isfinite(grid.power[~grid.pole_mask]).all()

    def test_order_past_grid_matches_direct_sum(self):
        coeffs = 0.2 * crandn(np.random.default_rng(64), 15)
        grid = ar_spectrum_1d(ArModel1D(15, coeffs, 1.5, []), 8)
        reference = direct_power(np.concatenate([[1.0], coeffs]), 1.5, (8,))
        assert max_rel_diff(grid.power, reference) <= 1e-12

    def test_riemann_sum_approximates_total_power(self):
        # exact AR(1) lags with r_0 = 1: the spectrum integrates back to r_0
        model = levinson(np.array([1.0, 0.5]), 1)
        grid = ar_spectrum_1d(model, 1024)
        assert abs(np.mean(grid.power) - 1.0) <= 0.05


class TestArSpectrum2D:
    def test_unit_impulse_flat(self):
        filt = QuarterPlaneFilter(np.array([[1.0 + 0.0j]]), 1.0)
        grid = ar_spectrum_2d(filt, 16, 8)
        assert grid.power.shape == (16, 8)
        assert np.allclose(grid.power, 1.0, rtol=0, atol=0)

    def test_filter_larger_than_grid_matches_direct_sum(self):
        coeffs = 0.2 * crandn(np.random.default_rng(65), 5, 4)
        coeffs[0] = [1.0, 0.0, 0.0, 0.0]
        grid = ar_spectrum_2d(QuarterPlaneFilter(coeffs, 0.7), 4, 3)
        assert grid.power.shape == (4, 3)
        assert max_rel_diff(grid.power, direct_power(coeffs, 0.7, (4, 3))) <= 1e-12

    def test_separable_filter_outer_product(self):
        a = np.array([1.0, -0.4 + 0.2j])
        b = np.array([1.0, 0.3 - 0.5j])
        filt = QuarterPlaneFilter(np.outer(a, b), 1.0)
        grid = ar_spectrum_2d(filt, 32, 48)
        g1 = ar_spectrum_1d(ArModel1D(1, a[1:], 1.0, []), 32)
        g2 = ar_spectrum_1d(ArModel1D(1, b[1:], 1.0, []), 48)
        assert max_rel_diff(grid.power, np.outer(g1.power, g2.power)) <= 1e-12

    def test_synthesis_roundtrip_localizes_peak(self):
        # in-class quarter-plane pole at (0.2, -0.15); frozen seed verified
        # to land the estimated argmax within one bin of the true filter's
        f1, f2 = 0.2, -0.15
        c_true = np.array(
            [
                [1.0, 0.0],
                [-0.55 * np.exp(2j * np.pi * f1), -0.35 * np.exp(2j * np.pi * (f1 + f2))],
            ]
        )
        true_grid = ar_spectrum_2d(QuarterPlaneFilter(c_true, 1.0), 64, 64)
        ti, tj = np.unravel_index(np.argmax(true_grid.power), true_grid.power.shape)
        assert abs(true_grid.frequencies[ti] - f1) <= 1.0 / 64
        assert abs(true_grid.frequencies2[tj] - f2) <= 1.0 / 64

        w = Lcg32(0).complex_normal(32 * 32).reshape(32, 32)
        x = np.zeros((32, 32), dtype=complex)
        for k in range(32):
            for t in range(32):
                acc = w[k, t]
                if k >= 1:
                    acc -= c_true[1, 0] * x[k - 1, t]
                    if t >= 1:
                        acc -= c_true[1, 1] * x[k - 1, t - 1]
                x[k, t] = acc
        filt = extract_quarter_plane_filter(burg2d_modified(x, 1, 1))
        grid = ar_spectrum_2d(filt, 64, 64)
        ei, ej = np.unravel_index(np.argmax(grid.power), grid.power.shape)
        assert abs(ei - ti) <= 1
        assert abs(ej - tj) <= 1


def test_log10_power_policy():
    power = np.array([0.0, -1.0, np.inf, 1e-300, 2.5, 100.0])
    logs = log10_power(power)
    assert logs[:3].tolist() == [-np.inf, -np.inf, np.inf]
    assert max_rel_diff(logs[3:], [-300.0, np.log10(2.5), 2.0]) <= 1e-15


class TestDft:
    """The transform convention the exact-SNR synthesis of
    :mod:`arspec.siggen` rests on: ``numpy.fft``'s unnormalized forward DFT
    and its inverse carrying ``1/N``."""

    def test_impulse_transforms_to_ones(self):
        assert np.allclose(np.fft.fft([1.0, 0.0, 0.0, 0.0]), np.ones(4), rtol=0, atol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(61)
        x = crandn(rng, 20)
        back = np.fft.ifft(np.fft.fft(x))
        assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()

    def test_parseval(self):
        rng = np.random.default_rng(62)
        x = crandn(rng, 16)
        spec = np.fft.fft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spec) ** 2) / 16
        assert abs(time_energy - freq_energy) <= 1e-12 * time_energy

    def test_single_bin_line(self):
        n = 8
        k = np.arange(n)
        x = np.exp(2j * np.pi * 3 * k / n)
        spec = np.fft.fft(x)
        assert abs(spec[3] - n) <= 1e-12 * n
        others = np.delete(np.abs(spec), 3)
        assert others.max() <= 1e-12 * n

    @pytest.mark.parametrize("n", [1, 2, 17, 97])
    def test_matches_direct_sum(self, n):
        x = crandn(np.random.default_rng(63), n)
        k = np.arange(n)
        kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
        assert max_rel_diff(np.fft.fft(x), kernel @ x) <= 1e-12
        assert max_rel_diff(np.fft.ifft(x), (kernel.conj() @ x) / n) <= 1e-12


def _model_1d(order: int, seed: int, power: float = 1.3) -> ArModel1D:
    return ArModel1D(order, 0.2 * crandn(np.random.default_rng(seed), order), power, [])


def _filter_2d(seed: int) -> QuarterPlaneFilter:
    coeffs = 0.2 * crandn(np.random.default_rng(seed), 3, 2)
    coeffs[0, 0] = 1.0
    return QuarterPlaneFilter(coeffs, 0.8)


class TestSpectrumCsv:
    @pytest.mark.parametrize(
        "grid, cells",
        [
            pytest.param(ar_spectrum_1d(_model_1d(3, 70), 2), b"", id="1d-2"),
            pytest.param(ar_spectrum_1d(_model_1d(3, 71), 3), b"", id="1d-3"),
            pytest.param(ar_spectrum_1d(_model_1d(15, 72), 1024), b"", id="1d-1024"),
            pytest.param(ar_spectrum_2d(_filter_2d(73), 128, 128), b"", id="2d-128x128"),
            # non-square grids: swapped axes would label the rows wrongly
            pytest.param(ar_spectrum_2d(_filter_2d(74), 5, 8), b"", id="2d-5x8"),
            pytest.param(ar_spectrum_2d(_filter_2d(75), 8, 5), b"", id="2d-8x5"),
            # taps [1, -1] put a pole at f = 0: inf in power and log10_power
            pytest.param(
                ar_spectrum_1d(ArModel1D(1, np.array([-1.0 + 0.0j]), 1.0, []), 7),
                b",inf,inf\n",
                id="1d-pole",
            ),
            pytest.param(
                ar_spectrum_2d(QuarterPlaneFilter(np.array([[1.0, -1.0 + 0.0j]]), 1.0), 5, 8),
                b",inf,inf\n",
                id="2d-pole",
            ),
            pytest.param(
                ar_spectrum_1d(_model_1d(2, 76, power=0.0), 6), b",0.0,-inf\n", id="zero-power"
            ),
        ],
    )
    def test_bytes_match_one_repr_per_cell(self, tmp_path, grid, cells):
        write_spectrum_csv(tmp_path / "got.csv", grid)
        write_spectrum_csv_per_cell(tmp_path / "want.csv", grid)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert cells in got

    def test_working_set_is_bounded(self, tmp_path):
        # log10_power peaks near 2 * power.nbytes. Two frequency planes as
        # large as the grid, or the grid as Python floats, would pass 3.
        grid = ar_spectrum_2d(_filter_2d(77), 512, 512)
        tracemalloc.start()
        try:
            write_spectrum_csv(tmp_path / "s.csv", grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * grid.power.nbytes
