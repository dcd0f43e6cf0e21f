import math

import numpy as np
import pytest

from arspec.linalg import max_rel_diff
from arspec.siggen import Lcg32, SynthConfig, gen_noisy_sinusoid, phase_sweep


def realized_snr_db(cfg: SynthConfig, x: np.ndarray) -> float:
    clean = gen_noisy_sinusoid(
        SynthConfig(cfg.n, cfg.freq, cfg.phase, None, cfg.seed)
    )
    noise = x - clean
    return 10.0 * math.log10(
        np.vdot(clean, clean).real / np.vdot(noise, noise).real
    )


class TestLcg32:
    def test_stream_matches_documented_recurrence(self):
        # independent integer-arithmetic oracle for the documented LCG
        state = (7 + 0x9E3779B9 * 3) % 2**32
        expected = []
        for _ in range(5):
            state = (1664525 * state + 1013904223) % 2**32
            expected.append((state + 0.5) / 2**32)
        rng = Lcg32(7, substream=3)
        got = [rng.uniform() for _ in range(5)]
        assert got == expected

    def test_normals_follow_box_muller(self):
        oracle = Lcg32(11)
        u1, u2 = oracle.uniform(), oracle.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        expected = (radius * math.cos(2 * math.pi * u2), radius * math.sin(2 * math.pi * u2))
        assert Lcg32(11).normal_pair() == expected

    def test_complex_normal_unit_variance(self):
        samples = Lcg32(1).complex_normal(20000)
        assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.05

    def test_substreams_differ(self):
        a = Lcg32(5, substream=0).complex_normal(8)
        b = Lcg32(5, substream=1).complex_normal(8)
        assert not np.array_equal(a, b)


class TestGenNoisySinusoid:
    def test_noiseless_pure_exponential(self):
        cfg = SynthConfig(20, 0.25, 0.0, None, 1)
        x = gen_noisy_sinusoid(cfg)
        k = np.arange(20)
        assert np.array_equal(x, np.exp(2j * np.pi * 0.25 * k))
        assert int(np.argmax(np.abs(np.fft.fft(x)))) == 5

    def test_exact_snr(self):
        cfg = SynthConfig(20, 0.25, 0.3, 30.0, 4)
        x = gen_noisy_sinusoid(cfg)
        assert abs(realized_snr_db(cfg, x) - 30.0) <= 1e-9

    def test_exact_snr_other_levels(self):
        for snr in (-3.0, 0.0, 10.0, 45.0):
            cfg = SynthConfig(16, 0.1, 1.0, snr, 2)
            x = gen_noisy_sinusoid(cfg)
            assert abs(realized_snr_db(cfg, x) - snr) <= 1e-9

    @pytest.mark.parametrize("n", [97, 4096])
    def test_exact_snr_prime_and_long_records(self, n):
        cfg = SynthConfig(n, 0.237, 0.4, 10.0, 5)
        x = gen_noisy_sinusoid(cfg)
        assert abs(realized_snr_db(cfg, x) - 10.0) <= 1e-9

    @pytest.mark.parametrize("n", [97, 4096])
    def test_noise_is_the_scaled_inverse_dft_of_the_stream(self, n):
        cfg = SynthConfig(n, 0.237, 0.4, 10.0, 5)
        x = gen_noisy_sinusoid(cfg, substream=3)
        clean = gen_noisy_sinusoid(SynthConfig(n, 0.237, 0.4, None, 5))
        w = Lcg32(5, substream=3).complex_normal(n)
        # |scale * ifft(w)|^2 / |clean|^2 = 10^(-10 dB / 10) by Parseval
        scale = math.sqrt(n * np.vdot(clean, clean).real / (np.vdot(w, w).real * 10.0))
        assert max_rel_diff(x - clean, scale * np.fft.ifft(w)) <= 1e-15

    def test_determinism(self):
        cfg = SynthConfig(20, 0.25, 0.0, 30.0, 1)
        assert np.array_equal(gen_noisy_sinusoid(cfg), gen_noisy_sinusoid(cfg))

    def test_seed_changes_noise_only(self):
        cfg1 = SynthConfig(20, 0.25, 0.0, 30.0, 1)
        cfg2 = SynthConfig(20, 0.25, 0.0, 30.0, 2)
        x1, x2 = gen_noisy_sinusoid(cfg1), gen_noisy_sinusoid(cfg2)
        assert not np.array_equal(x1, x2)
        clean = gen_noisy_sinusoid(SynthConfig(20, 0.25, 0.0, None, 1))
        # both decompose against the same sinusoid at the exact 30 dB ratio
        for x in (x1, x2):
            ratio = np.vdot(clean, clean).real / np.vdot(x - clean, x - clean).real
            assert abs(10 * math.log10(ratio) - 30.0) <= 1e-9

    def test_non_bin_frequency_supported(self):
        cfg = SynthConfig(20, 0.237, 0.5, 30.0, 3)
        x = gen_noisy_sinusoid(cfg)
        assert x.size == 20
        assert abs(realized_snr_db(cfg, x) - 30.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_noisy_sinusoid(SynthConfig(1, 0.25))
        with pytest.raises(ValueError):
            gen_noisy_sinusoid(SynthConfig(8, 0.5))
        with pytest.raises(ValueError):
            gen_noisy_sinusoid(SynthConfig(8, 0.25, snr_db=math.inf))
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="phase"):
                gen_noisy_sinusoid(SynthConfig(8, 0.25, phase=phase))

    @pytest.mark.parametrize("snr_db", [3100.0, -4000.0, 3080.0])
    def test_noise_scale_outside_the_double_range_raises(self, snr_db):
        # 10^310 overflows, 10^-400 rounds to 0, and 10^308 times the noise
        # energy overflows: each raises without a float warning.
        with pytest.raises(ValueError, match=f"^snr_db={snr_db} puts the noise scale"):
            gen_noisy_sinusoid(SynthConfig(8, 0.25, snr_db=snr_db))


class TestPhaseSweep:
    def test_single_step(self):
        cfg = SynthConfig(8, 0.1, 0.7, None, 1)
        sigs = phase_sweep(cfg, 1)
        assert len(sigs) == 1
        # base phase is overridden to 0
        assert np.array_equal(sigs[0], gen_noisy_sinusoid(SynthConfig(8, 0.1, 0.0, None, 1)))

    def test_noiseless_phase_factor_identity(self):
        cfg = SynthConfig(8, 0.1, 0.0, None, 1)
        sigs = phase_sweep(cfg, 4)
        for j, x in enumerate(sigs):
            factor = np.exp(2j * np.pi * j / 4)
            assert np.abs(x - factor * sigs[0]).max() <= 1e-14

    def test_every_step_hits_exact_snr(self):
        cfg = SynthConfig(20, 0.25, 0.0, 30.0, 1)
        sigs = phase_sweep(cfg, 100)
        assert len(sigs) == 100
        for j, x in enumerate(sigs):
            phase = 2 * math.pi * j / 100
            ref = SynthConfig(20, 0.25, phase, 30.0, 1)
            assert abs(realized_snr_db(ref, x) - 30.0) <= 1e-9

    def test_steps_use_independent_substreams(self):
        cfg = SynthConfig(12, 0.2, 0.0, 20.0, 1)
        sigs = phase_sweep(cfg, 3)
        clean = [
            gen_noisy_sinusoid(SynthConfig(12, 0.2, 2 * math.pi * j / 3, None, 1))
            for j in range(3)
        ]
        noises = [x - c for x, c in zip(sigs, clean)]
        assert not np.allclose(noises[0], noises[1], atol=1e-12)
        assert not np.allclose(noises[1], noises[2], atol=1e-12)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            phase_sweep(SynthConfig(8, 0.1), 0)
