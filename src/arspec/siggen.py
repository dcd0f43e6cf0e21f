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

Substreams separate the noise draws of sweep steps. ``seed`` and
``substream`` are integers.

``uniform``, ``normal_pair`` and ``complex_normal`` walk one and the same
stream. ``complex_normal`` draws a block of up to 4096 samples at once:
with ``a = 1664525`` and ``c = 1013904223``, the ``i``-th state after the
block's start state ``s_0`` is

    s_i = a^i s_0 + c (a^i - 1) / (a - 1)  mod 2**32,

from tables of ``a^i`` and ``c (a^(i-1) + ... + 1)`` in ``uint64``, whose
wrapping mod 2**64 is exact mod 2**32. The tables for one full block are
built once, at import, and shared read-only by every draw. The uniforms
are exact doubles, and sqrt, products and quotients round correctly in
numpy as in ``math``. But
``log``, ``cos`` and ``sin`` are not correctly rounded, and numpy's may
differ from ``math``'s in the last bit, so they stay on the C library's:
``log`` by ``math``, and ``cos`` and ``sin`` together by one ``cmath.exp``
of ``i 2 pi u2`` per sample, which CPython evaluates as ``exp(0) cos`` and
``exp(0) sin``, the same bits as ``math``'s. Every sample has the bits of
the scalar definition above.

A uniform is at most
``1 - 2**-33``, so every complex sample has ``|z|**2 = -ln u1 >= 2**-33``
and every noise record has positive energy: the SNR rescaling never
divides by zero.
"""

import cmath
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

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

#: Most samples :meth:`Lcg32.complex_normal` draws at once; bounds its working set.
_BLOCK = 4096


def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``mult[i] = a^(i+1)`` and ``inc[i] = c (a^i + ... + 1)``
    for the ``2 _BLOCK`` states of one block, in ``uint64``, which wraps mod
    2**64, a multiple of 2**32. A signed or float array operand would turn
    them into float64."""
    power = np.full(2 * _BLOCK, _LCG_MULT, dtype=np.uint64)
    power[:1] = 1
    np.cumprod(power, out=power)
    inc = np.cumsum(power) * np.uint64(_LCG_INC)
    mult = power * np.uint64(_LCG_MULT)
    mult.flags.writeable = inc.flags.writeable = False
    return mult, inc


#: The jump-ahead tables of every block, built once.
_JUMP_MULT, _JUMP_INC = _jump_tables()


class Lcg32:
    """The documented 32-bit LCG with Box-Muller normal sampling.

    ``seed`` and ``substream`` are integers (anything ``operator.index``
    takes); any other type raises ``TypeError``.
    """

    def __init__(self, seed: int, substream: int = 0):
        seed, substream = operator.index(seed), operator.index(substream)
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
        """``count`` i.i.d. unit-variance complex normal samples.

        Sample ``i`` is ``complex(*normal_pair()) / sqrt(2)`` of the
        ``i``-th call, bit for bit, and the state ends where ``2 count``
        calls to :meth:`uniform` leave it. The samples come in blocks of
        at most ``_BLOCK``, whose states follow from the block's start
        state by the jump-ahead form of the module docstring.
        """
        out = np.empty(count, dtype=complex)
        for lo in range(0, count, _BLOCK):
            hi = min(lo + _BLOCK, count)
            states = _JUMP_MULT[: 2 * (hi - lo)] * np.uint64(self._state)
            states += _JUMP_INC[: 2 * (hi - lo)]
            states &= np.uint64(_LCG_MOD - 1)
            self._state = int(states[-1])
            u = (states + 0.5) / _LCG_MOD
            # log on math, cos and sin on cmath, whose last bit numpy's need not match.
            radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), float, hi - lo))
            block = out[lo:hi]
            block[:] = np.fromiter(map(cmath.exp, (2j * math.pi * u[1::2]).tolist()), complex, hi - lo)
            trig = block.view(float).reshape(-1, 2)
            trig *= radius[:, None]
            trig /= math.sqrt(2.0)
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
        try:
            operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None


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
    # Python floats: an out-of-range SNR raises here, with no float warning.
    noise_energy = float(np.vdot(noise, noise).real)
    signal_energy = cfg.n * float(np.vdot(sinusoid, sinusoid).real)
    try:
        scale = math.sqrt(signal_energy / (noise_energy * 10.0 ** (cfg.snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"snr_db={cfg.snr_db} puts the noise scale outside the double range")
    return sinusoid + scale * np.fft.ifft(noise)


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
