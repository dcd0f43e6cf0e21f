"""CSV and JSON codecs for the CLI artifacts.

Formats (UTF-8, '.' decimal, no locale dependence):

* 1D signal CSV: header ``index,re,im``, one row per sample.
* 2D signal CSV: header ``k,t,re,im``, one row per grid point (full grid
  required on read).
* Model / filter JSON: complex numbers as explicit ``[re, im]`` pairs,
  never a string encoding; models carry the method name, order(s) and the
  per-stage error powers.
* Spectrum CSV: ``frequency,power,log10_power`` (1D) or
  ``f1,f2,power,log10_power`` (2D).

Floats are written with ``repr``, i.e. the shortest round-tripping decimal,
which keeps reruns byte-identical.
"""

import csv
import json
import math

import numpy as np

from .ar1d import ArModel1D, LatticeStage
from .ar2d import ArModel2D, BlockStage, QuarterPlaneFilter
from .spectrum import SpectrumGrid

__all__ = [
    "filter_from_dict",
    "filter_to_dict",
    "model1d_from_dict",
    "model1d_to_dict",
    "model2d_to_dict",
    "read_json",
    "read_signal_csv",
    "read_signal_2d_csv",
    "write_json",
    "write_signal_csv",
    "write_signal_2d_csv",
    "write_spectrum_csv",
]


def _f(value) -> str:
    return repr(float(value))


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_pairs(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m)]


def write_signal_csv(path, x) -> None:
    x = np.asarray(x, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,re,im\n")
        for i, z in enumerate(x):
            fh.write(f"{i},{_f(z.real)},{_f(z.imag)}\n")


def _read_samples(path, header: list[str]) -> dict:
    """``{index tuple: complex sample}`` from a signal CSV with this header.

    The leading columns are the indices, the last two the real and
    imaginary parts. A row with the wrong number of fields, a negative
    index or an index seen before is rejected.
    """
    n_index = len(header) - 2
    samples = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ValueError(f"{path}: expected header {','.join(header)!r}")
        for r in reader:
            if not r:
                continue
            if len(r) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: "
                    f"expected {len(header)} fields, got {len(r)}"
                )
            idx = tuple(int(v) for v in r[:n_index])
            if min(idx) < 0 or idx in samples:
                problem = "negative" if min(idx) < 0 else "duplicate"
                raise ValueError(f"{path}, line {reader.line_num}: {problem} index {idx}")
            samples[idx] = complex(float(r[n_index]), float(r[n_index + 1]))
    if not samples:
        raise ValueError(f"{path}: no samples")
    return samples


def read_signal_csv(path) -> np.ndarray:
    samples = _read_samples(path, ["index", "re", "im"])
    if len(samples) != max(i for i, in samples) + 1:
        raise ValueError(f"{path}: missing sample indices")
    x = np.zeros(len(samples), dtype=complex)
    for (i,), z in samples.items():
        x[i] = z
    return x


def write_signal_2d_csv(path, x) -> None:
    x = np.asarray(x, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,t,re,im\n")
        for k in range(x.shape[0]):
            for t in range(x.shape[1]):
                z = x[k, t]
                fh.write(f"{k},{t},{_f(z.real)},{_f(z.imag)}\n")


def read_signal_2d_csv(path) -> np.ndarray:
    samples = _read_samples(path, ["k", "t", "re", "im"])
    n1 = max(k for k, _ in samples) + 1
    n2 = max(t for _, t in samples) + 1
    if len(samples) != n1 * n2:
        raise ValueError(f"{path}: grid is incomplete")
    x = np.zeros((n1, n2), dtype=complex)
    for (k, t), z in samples.items():
        x[k, t] = z
    return x


def _field(obj: dict, key: str):
    """``obj[key]``; a missing key is malformed input, so a ``ValueError``."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"model JSON: missing key {key!r}") from None


def model1d_to_dict(model: ArModel1D, method: str) -> dict:
    return {
        "kind": "ar1d",
        "method": method,
        "order": model.order,
        "coefficients": [_pair(a) for a in model.coeffs],
        "error_power": float(model.error_power),
        "early_stop": bool(model.early_stop),
        "history": [
            {
                "order": st.order,
                "reflection": _pair(st.reflection),
                "error_power": float(st.error_power),
                "coefficients": [_pair(a) for a in st.coeffs],
            }
            for st in model.history
        ],
    }


def _pairs_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def model1d_from_dict(obj: dict) -> ArModel1D:
    if obj.get("kind") != "ar1d":
        raise ValueError(f"expected kind 'ar1d', got {obj.get('kind')!r}")
    coeffs = _pairs_vector(_field(obj, "coefficients"))
    history = [
        LatticeStage(
            _field(st, "order"),
            _pairs_vector(_field(st, "coefficients")),
            float(_field(st, "error_power")),
            complex(*_field(st, "reflection")),
        )
        for st in obj.get("history", [])
    ]
    return ArModel1D(
        int(_field(obj, "order")),
        coeffs,
        float(_field(obj, "error_power")),
        history,
        bool(obj.get("early_stop", False)),
    )


def model2d_to_dict(model: ArModel2D, method: str) -> dict:
    return {
        "kind": "ar2d",
        "method": method,
        "n1": model.order,
        "n2": model.channel_order,
        "coefficient_matrices": [_matrix_pairs(a) for a in model.coeffs],
        "error_power_matrix": _matrix_pairs(model.error_power),
        "sample_terms": model.sample_terms,
        "history": [
            {
                "order": st.order,
                "error_power_matrix": _matrix_pairs(st.error_power),
                "criterion": st.criterion,
            }
            for st in model.history
        ],
    }


def _pairs_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def model2d_from_dict(obj: dict) -> ArModel2D:
    """Inverse of :func:`model2d_to_dict`.

    The JSON history keeps each stage's order, error power and criterion;
    the stage coefficient matrices are not written, so restored stages hold
    an empty ``(0, n2+1, n2+1)`` stack.
    """
    if obj.get("kind") != "ar2d":
        raise ValueError(f"expected kind 'ar2d', got {obj.get('kind')!r}")
    n1 = int(_field(obj, "n1"))
    n2 = int(_field(obj, "n2"))
    mats = [_pairs_matrix(m) for m in _field(obj, "coefficient_matrices")]
    empty = np.zeros((0, n2 + 1, n2 + 1), dtype=complex)
    coeffs = np.stack(mats) if mats else empty
    history = [
        BlockStage(
            int(_field(st, "order")),
            empty,
            None,
            _pairs_matrix(_field(st, "error_power_matrix")),
            criterion=_field(st, "criterion"),
        )
        for st in obj.get("history", [])
    ]
    return ArModel2D(
        n1,
        n2,
        coeffs,
        _pairs_matrix(_field(obj, "error_power_matrix")),
        history,
        obj.get("sample_terms"),
    )


def filter_to_dict(filt: QuarterPlaneFilter) -> dict:
    return {
        "kind": "quarter_plane_filter",
        "n1": filt.order1,
        "n2": filt.order2,
        "coefficients": _matrix_pairs(filt.coeffs),
        "noise_power": float(filt.noise_power),
    }


def filter_from_dict(obj: dict) -> QuarterPlaneFilter:
    if obj.get("kind") != "quarter_plane_filter":
        raise ValueError(f"expected kind 'quarter_plane_filter', got {obj.get('kind')!r}")
    return QuarterPlaneFilter(
        _pairs_matrix(_field(obj, "coefficients")), float(_field(obj, "noise_power"))
    )


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _log10(p: float) -> float:
    if p <= 0.0:
        return -math.inf
    if math.isinf(p):
        return math.inf
    return math.log10(p)


def write_spectrum_csv(path, grid: SpectrumGrid) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if grid.frequencies2 is None:
            fh.write("frequency,power,log10_power\n")
            for f, p in zip(grid.frequencies, grid.power):
                fh.write(f"{_f(f)},{_f(p)},{_f(_log10(p))}\n")
        else:
            fh.write("f1,f2,power,log10_power\n")
            for i, f1 in enumerate(grid.frequencies):
                for j, f2 in enumerate(grid.frequencies2):
                    p = grid.power[i, j]
                    fh.write(f"{_f(f1)},{_f(f2)},{_f(p)},{_f(_log10(p))}\n")
