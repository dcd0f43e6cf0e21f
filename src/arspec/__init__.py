"""Autoregressive linear prediction and spectral estimation, 1D and 2D.

Estimators: the Levinson order recursion, the classic finite-sample Burg
lattice, and a zero-padded Burg lattice that reproduces Levinson exactly;
plus their multichannel/2D counterparts (WWRA and the two 2D Burg
lattices) over the shifted-row channel embedding, quarter-plane filter
extraction, AR spectra, and a deterministic noisy-sinusoid generator with
exactly controlled SNR. The ``arspec`` CLI wraps everything into
reproducible CSV/JSON experiment artifacts.

The package exports every name in the ``__all__`` of the library modules
below; the file codecs (:mod:`arspec.io`) and the CLI stay in their modules.
"""

from . import ar1d, ar2d, autocorr, errors, linalg, siggen, spectrum
from .ar1d import *
from .ar2d import *
from .autocorr import *
from .errors import *
from .linalg import *
from .siggen import *
from .spectrum import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (ar1d, ar2d, autocorr, errors, linalg, siggen, spectrum)
    for name in module.__all__
]
