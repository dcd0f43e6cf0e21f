import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from arspec import siggen
from arspec.cli import main
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


def _seed_reaching(state: int, steps: int) -> int:
    """The seed whose stream, at substream 0, reaches ``state`` on its
    ``steps``-th draw: the recurrence run backwards."""
    for _ in range(steps):
        state = (state - 1013904223) * pow(1664525, -1, 2**32) % 2**32
    return state


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

    @pytest.mark.parametrize(
        "seed, substream, phase_state",
        [
            pytest.param(seed, substream, None, id=f"{substream}-{seed}")
            for substream in (0, 3, 2**20)
            for seed in (0, 1, 7, 2**32 - 1)
        ]
        # Seeds whose first block puts a phase 2 pi u2 next to 0, pi and 2 pi,
        # at its first, middle and last sample.
        + [
            pytest.param(_seed_reaching(0, 2), 0, 0, id="phase-0"),
            pytest.param(_seed_reaching(2**31, 4096), 0, 2**31, id="phase-pi"),
            pytest.param(_seed_reaching(2**32 - 1, 8192), 0, 2**32 - 1, id="phase-2pi"),
        ],
    )
    def test_complex_normal_is_the_scalar_stream(self, seed, substream, phase_state):
        # Counts on both sides of the 4096-sample block boundaries.
        if phase_state is not None:
            rng = Lcg32(seed, substream)
            states = [int(rng.uniform() * 2**32) for _ in range(2 * 4096)]
            assert phase_state in states[1::2]
        oracle = Lcg32(seed, substream)
        want = np.array([complex(*oracle.normal_pair()) / math.sqrt(2.0) for _ in range(8195)])
        for n in (0, 1, 2, 4095, 4096, 4097, 8195):
            rng = Lcg32(seed, substream)
            got = rng.complex_normal(n)
            assert np.array_equal(got.view(np.uint64), want[:n].view(np.uint64))
            after = Lcg32(seed, substream)
            for _ in range(2 * n):
                after.uniform()
            assert rng.uniform() == after.uniform()

    def test_stream_bytes_are_frozen(self):
        digest = hashlib.sha256(Lcg32(1).complex_normal(4096).tobytes()).hexdigest()
        assert digest == "ea9dc765026f45ef4d45fbec79d84fc25d27b2d3b5d0c1a91b37fad63cdee1a7"

    def test_gen_csv_is_frozen(self, tmp_path):
        out = tmp_path / "sig.csv"
        assert main(["gen", "--n", "20", "--seed", "1", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "d415db74d9d74c9646d1b7ac92f25523fafecaa890669d030b0199036f678ff9"

    def test_working_set_is_bounded(self):
        # 16 blocks: drawn at once, these samples would take 8 MiB besides
        # the 1 MiB output. Tracing every Python float the draw makes slows
        # it about 30 times, so the draw stays this small.
        tracemalloc.start()
        try:
            out = Lcg32(1).complex_normal(2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20

    @pytest.mark.parametrize("seed, substream", [(1.5, 0), (1.0, 0), (1, 2.0), ("1", 0), (None, 0)])
    def test_non_integer_seed_or_substream_raises(self, seed, substream):
        with pytest.raises(TypeError):
            Lcg32(seed, substream)

    def test_integer_likes_give_the_int_stream(self):
        got = Lcg32(np.int64(5), np.uint32(3)).complex_normal(3)
        assert np.array_equal(got, Lcg32(5, 3).complex_normal(3))


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
        for seed in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                gen_noisy_sinusoid(SynthConfig(8, 0.25, seed=seed))

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


def test_jump_tables_are_built_once_and_read_only():
    # Every draw shares the one-block tables; a draw that wrote into them
    # would change every later stream.
    for table in (siggen._JUMP_MULT, siggen._JUMP_INC):
        assert table.size == 2 * siggen._BLOCK and table.dtype == np.uint64
        assert not table.flags.writeable
    with pytest.raises(ValueError):
        siggen._JUMP_MULT[0] = 1
