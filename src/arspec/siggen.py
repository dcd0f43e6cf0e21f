"""Seeded synthesis of noisy single-sinusoid test signals.

The sinusoid is a complex exponential ``exp(i (2 pi f k + phase))``; noise
is drawn in the frequency domain, rescaled so the realized energy-ratio SNR
hits the request EXACTLY (not just in expectation), brought to the time
domain by the inverse DFT and added to the sinusoid. By Parseval the
sinusoid's spectral energy is ``N sum |s|^2``, so it is never transformed.

Randomness comes from a 32-bit linear congruential generator with the
widely documented Numerical Recipes constants, so the byte-exact streams
can be reproduced in any language:

    state <- (1664525 * state + 1013904223) mod 2**32
    u      = (state + 0.5) / 2**32        uniform in (0, 1)

Standard-normal pairs come from the Box-Muller transform on consecutive
uniforms,

    z0 = sqrt(-2 ln u1) cos(2 pi u2),  z1 = sqrt(-2 ln u1) sin(2 pi u2),

and one unit-variance complex sample is ``(z0 + i z1) / sqrt(2)``. The
initial state for a (seed, substream) pair is

    state0 = (seed + 0x9E3779B9 * substream) mod 2**32.

Substreams separate the noise draws of sweep steps. A uniform is at most
``1 - 2**-33``, so every complex sample has ``|z|**2 = -ln u1 >= 2**-33``
and every noise record has positive energy: the SNR rescaling never
divides by zero.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectrum import idft

__all__ = [
    "Lcg32",
    "SynthConfig",
    "gen_noisy_sinusoid",
    "phase_sweep",
]

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MOD = 2**32
_SUBSTREAM_STEP = 0x9E3779B9


class Lcg32:
    """The documented 32-bit LCG with Box-Muller normal sampling."""

    def __init__(self, seed: int, substream: int = 0):
        self._state = (seed + _SUBSTREAM_STEP * substream) % _LCG_MOD

    def uniform(self) -> float:
        """Next uniform draw in the open interval (0, 1)."""
        self._state = (_LCG_MULT * self._state + _LCG_INC) % _LCG_MOD
        return (self._state + 0.5) / _LCG_MOD

    def normal_pair(self) -> tuple[float, float]:
        u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        return radius * math.cos(2.0 * math.pi * u2), radius * math.sin(
            2.0 * math.pi * u2
        )

    def complex_normal(self, count: int) -> np.ndarray:
        """``count`` i.i.d. unit-variance complex normal samples."""
        out = np.empty(count, dtype=complex)
        for i in range(count):
            re, im = self.normal_pair()
            out[i] = complex(re, im) / math.sqrt(2.0)
        return out


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic record.

    ``snr_db=None`` is the noiseless sentinel; otherwise the realized
    energy-ratio SNR equals ``snr_db`` exactly. ``freq`` is normalized
    (cycles/sample) in ``[-0.5, 0.5)``; ``phase`` in radians.
    """

    n: int
    freq: float
    phase: float = 0.0
    snr_db: float | None = 30.0
    seed: int = 1

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not -0.5 <= self.freq < 0.5:
            raise ValueError(f"freq must be in [-0.5, 0.5), got {self.freq}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite or None (noiseless)")


def gen_noisy_sinusoid(cfg: SynthConfig, substream: int = 0) -> np.ndarray:
    """One complex record per the config; bit-identical per (cfg, substream).

    The sinusoid part does not depend on the seed; only the noise does.
    """
    cfg.validate()
    k = np.arange(cfg.n)
    sinusoid = np.exp(1j * (2.0 * np.pi * cfg.freq * k + cfg.phase))
    if cfg.snr_db is None:
        return sinusoid

    noise = Lcg32(cfg.seed, substream).complex_normal(cfg.n)
    noise_energy = np.vdot(noise, noise).real
    signal_energy = cfg.n * np.vdot(sinusoid, sinusoid).real
    scale = math.sqrt(signal_energy / (noise_energy * 10.0 ** (cfg.snr_db / 10.0)))
    return sinusoid + scale * idft(noise)


def phase_sweep(cfg: SynthConfig, steps: int) -> list[np.ndarray]:
    """``steps`` records at phases ``2 pi j / steps``, ``j = 0..steps-1``.

    Each step uses its own noise substream (index = step), mimicking
    independent noise realizations across the sweep; the base config's
    ``phase`` field is overridden.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return [
        gen_noisy_sinusoid(replace(cfg, phase=2.0 * math.pi * j / steps), substream=j)
        for j in range(steps)
    ]
