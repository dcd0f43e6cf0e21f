"""AR power spectral densities.

Frequencies are normalized (cycles/sample) on a uniform grid covering
``[-0.5, 0.5)``, where one FFT of the prediction filter evaluates 1D and 2D
spectra alike. Spectra are reported in linear power; pole bins (where the
prediction polynomial vanishes to machine precision) are flagged rather
than clipped, and carry ``inf``; :func:`log10_power` maps them to ``inf``.
"""

from dataclasses import dataclass

import numpy as np

from .ar1d import ArModel1D, LatticeStage
from .ar2d import QuarterPlaneFilter

__all__ = [
    "SpectrumGrid",
    "ar_spectrum_1d",
    "ar_spectrum_2d",
    "frequency_grid",
    "log10_power",
]

#: A bin is a pole when ``|C|`` is at most ``POLE_RTOL * log2(bins) *
#: sum |taps|``: the FFT reaches every bin through ``log2(bins)`` passes of
#: butterflies, each adding a rounding error of a few ``eps`` of a partial
#: sum no larger than ``sum |taps|``, so a smaller ``|C|`` cannot be told
#: from a zero of the filter.
POLE_RTOL = 4 * np.finfo(float).eps


@dataclass
class SpectrumGrid:
    """Power values over a normalized frequency grid.

    1D: ``power[i]`` at ``frequencies[i]``. 2D: ``frequencies2`` is set and
    ``power[i, j]`` sits at ``(frequencies[i], frequencies2[j])``.
    ``pole_mask`` marks bins where the denominator vanished (power inf).
    """

    frequencies: np.ndarray
    power: np.ndarray
    pole_mask: np.ndarray
    frequencies2: np.ndarray | None = None


def frequency_grid(nfreq: int) -> np.ndarray:
    """``nfreq`` uniform normalized frequencies covering ``[-0.5, 0.5)``."""
    if nfreq < 2:
        raise ValueError(f"nfreq must be >= 2, got {nfreq}")
    return (np.arange(nfreq) - nfreq // 2) / nfreq


def _ar_power(taps, noise_power: float, shape: tuple) -> SpectrumGrid:
    """``noise_power / |C(f)|^2`` over the grid of each axis of ``shape``,
    ``C`` the DTFT of the filter ``taps`` of any rank. Tap ``l`` is folded
    onto bin ``l mod n`` of its axis, as sampling the DTFT at ``n`` points
    aliases it, so taps past the grid size are exact too."""
    freqs = [frequency_grid(n) for n in shape]
    folded = np.zeros(shape, dtype=complex)
    np.add.at(folded, np.ix_(*(np.arange(m) % n for m, n in zip(np.shape(taps), shape))), taps)
    mag = np.abs(np.fft.fftshift(np.fft.fftn(folded)))
    poles = mag <= POLE_RTOL * np.log2(folded.size) * np.abs(taps).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        power = noise_power / mag**2
    power[poles] = np.inf
    return SpectrumGrid(freqs[0], power, poles, *freqs[1:])


def ar_spectrum_1d(model: ArModel1D | LatticeStage, nfreq: int = 1024) -> SpectrumGrid:
    """AR power spectral density ``P / |1 + sum_l a_l e^{-2 pi i f l}|^2``
    of a model or of a stage of its history (``coeffs``, ``error_power``)."""
    taps = np.concatenate([[1.0], np.asarray(model.coeffs, dtype=complex)])
    return _ar_power(taps, model.error_power, (nfreq,))


def ar_spectrum_2d(
    filt: QuarterPlaneFilter, nf1: int = 128, nf2: int = 128
) -> SpectrumGrid:
    """2D quarter-plane AR spectral density
    ``sigma^2 / |sum c(l1,l2) e^{-2 pi i (f1 l1 + f2 l2)}|^2``."""
    return _ar_power(filt.coeffs, filt.noise_power, (nf1, nf2))


def log10_power(power) -> np.ndarray:
    """``log10`` of spectrum power: ``-inf`` where the power is zero (or
    negative), ``inf`` at pole bins."""
    power = np.asarray(power, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(power <= 0.0, -np.inf, np.log10(power))

