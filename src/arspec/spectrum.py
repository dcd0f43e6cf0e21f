"""AR power spectral densities and the DFT pair.

Frequencies are normalized (cycles/sample) on a uniform grid covering
``[-0.5, 0.5)``. Spectra are reported in linear power; pole bins (where the
prediction polynomial vanishes to machine precision) are flagged rather
than clipped, and carry ``inf``.

DFT convention: the forward transform is unnormalized,
``X[j] = sum_k x[k] exp(-2 pi i j k / N)``, and the inverse carries the
``1/N``, so ``idft(dft(x)) == x`` and ``sum |x|^2 == (1/N) sum |X|^2``.
Both are evaluated by ``numpy.fft`` in O(N log N).
"""

from dataclasses import dataclass

import numpy as np

from .ar1d import ArModel1D
from .ar2d import QuarterPlaneFilter

__all__ = [
    "SpectrumGrid",
    "ar_spectrum_1d",
    "ar_spectrum_2d",
    "dft",
    "idft",
    "frequency_grid",
]

#: |denominator| below this is flagged as a pole bin.
POLE_EPS = 1e-300


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


def ar_spectrum_1d(model: ArModel1D, nfreq: int = 1024) -> SpectrumGrid:
    """AR power spectral density ``P / |1 + sum_l a_l e^{-2 pi i f l}|^2``."""
    f = frequency_grid(nfreq)
    a = np.asarray(model.coeffs, dtype=complex)
    lags = np.arange(1, a.size + 1)
    den = 1.0 + np.exp(-2j * np.pi * np.outer(f, lags)) @ a
    mag = np.abs(den)
    mask = mag < POLE_EPS
    with np.errstate(divide="ignore"):
        power = model.error_power / mag**2
    return SpectrumGrid(f, power, mask)


def ar_spectrum_2d(
    filt: QuarterPlaneFilter, nf1: int = 128, nf2: int = 128
) -> SpectrumGrid:
    """2D quarter-plane AR spectral density
    ``sigma^2 / |sum c(l1,l2) e^{-2 pi i (f1 l1 + f2 l2)}|^2``."""
    f1 = frequency_grid(nf1)
    f2 = frequency_grid(nf2)
    c = filt.coeffs
    e1 = np.exp(-2j * np.pi * np.outer(f1, np.arange(c.shape[0])))
    e2 = np.exp(-2j * np.pi * np.outer(f2, np.arange(c.shape[1])))
    den = e1 @ c @ e2.T
    mag = np.abs(den)
    mask = mag < POLE_EPS
    with np.errstate(divide="ignore"):
        power = filt.noise_power / mag**2
    return SpectrumGrid(f1, power, mask, frequencies2=f2)


def dft(x) -> np.ndarray:
    """Unnormalized forward DFT."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("dft expects a nonempty 1D array")
    return np.fft.fft(x)


def idft(spec) -> np.ndarray:
    """Inverse DFT carrying the 1/N factor; ``idft(dft(x)) == x``."""
    spec = np.asarray(spec, dtype=complex)
    if spec.ndim != 1 or spec.size < 1:
        raise ValueError("idft expects a nonempty 1D array")
    return np.fft.ifft(spec)
