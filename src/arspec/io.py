"""CSV and JSON codecs for every CLI artifact.

Formats (UTF-8, '.' decimal, no locale dependence):

* Signal CSV: header ``index,re,im`` (1D) or ``k,t,re,im`` (2D), one row
  per sample; the full grid is required on read.
* Model / filter JSON: complex numbers as explicit ``[re, im]`` pairs,
  never a string encoding; models carry the method name, order(s) and the
  per-stage error powers. :func:`read_model` decodes any of the three
  kinds; a malformed file, a non-finite coefficient or power, a negative
  1D or filter power, an order that is not a JSON integer, a 2D model
  order ``n1 < 1``, or a ``sample_terms``, ``early_stop`` or stage
  criterion of the wrong kind is a ``ValueError`` naming it.
* Spectrum CSV: ``frequency,power,log10_power`` (1D) or
  ``f1,f2,power,log10_power`` (2D).
* Table CSV (the experiments): a header row, then one row per phase or
  order; an empty cell marks an order a stopped method did not reach.

Every CSV is opened and written in one place, and every number in it is
written with ``repr``, i.e. the shortest round-tripping decimal, so reruns
are byte-identical. A spectrum CSV formats each grid frequency once and
reuses that text on every row it labels.
"""

import csv
import json
import math

import numpy as np

from .ar1d import ArModel1D, LatticeStage
from .ar2d import ArModel2D, BlockStage, QuarterPlaneFilter
from .spectrum import SpectrumGrid, log10_power

__all__ = [
    "filter_from_dict",
    "filter_to_dict",
    "model1d_from_dict",
    "model1d_to_dict",
    "model2d_from_dict",
    "model2d_to_dict",
    "read_json",
    "read_model",
    "read_signal_csv",
    "read_signal_2d_csv",
    "write_csv",
    "write_json",
    "write_signal_csv",
    "write_spectrum_csv",
]


def _write_lines(path, header, lines) -> None:
    """Write ``header``, then each text of ``lines`` as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(str, header)) + "\n")
        fh.writelines(lines)


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each row of Python numbers as their ``repr``;
    ``None`` is an empty cell."""
    lines = (",".join("" if v is None else repr(v) for v in row) + "\n" for row in rows)
    _write_lines(path, header, lines)


def _write_signal(path, header: list[str], x) -> None:
    x = np.asarray(x, dtype=complex)
    index = np.indices(x.shape).reshape(x.ndim, -1).T.tolist()
    samples = x.reshape(-1).tolist()
    write_csv(path, header, ([*i, z.real, z.imag] for i, z in zip(index, samples)))


def _rows(reader, path):
    """The rows of ``reader``, with the ``csv`` module's own error (a field
    over its size limit) raised as a ``ValueError`` naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None


def _read_samples(path, header: list[str]) -> dict:
    """``{index tuple: complex sample}`` from a signal CSV with this header.

    The leading columns are the indices, the last two the real and
    imaginary parts. A row with the wrong number of fields, a field that
    does not parse as an integer index or a float part or is over the
    ``csv`` module's size limit, a negative index or an index seen before
    is rejected, naming the file and line.
    """
    n_index = len(header) - 2
    samples = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        first = next(rows, None)
        if first is None or [h.strip() for h in first] != header:
            raise ValueError(f"{path}: expected header {','.join(header)!r}")
        for r in rows:
            if not r:
                continue
            if len(r) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: "
                    f"expected {len(header)} fields, got {len(r)}"
                )
            try:
                idx = tuple(int(v) for v in r[:n_index])
                z = complex(float(r[n_index]), float(r[n_index + 1]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            if min(idx) < 0 or idx in samples:
                problem = "negative" if min(idx) < 0 else "duplicate"
                raise ValueError(f"{path}, line {reader.line_num}: {problem} index {idx}")
            samples[idx] = z
    if not samples:
        raise ValueError(f"{path}: no samples")
    return samples


def _read_signal(path, header: list[str]) -> np.ndarray:
    samples = _read_samples(path, header)
    shape = tuple(max(axis) + 1 for axis in zip(*samples))
    if len(samples) != math.prod(shape):
        raise ValueError(f"{path}: missing samples, {len(samples)} do not fill {shape}")
    x = np.zeros(shape, dtype=complex)
    for idx, z in samples.items():
        x[idx] = z
    return x


def write_signal_csv(path, x) -> None:
    _write_signal(path, ["index", "re", "im"], x)


def read_signal_csv(path) -> np.ndarray:
    return _read_signal(path, ["index", "re", "im"])


def read_signal_2d_csv(path) -> np.ndarray:
    return _read_signal(path, ["k", "t", "re", "im"])


def _pairs(a) -> list:
    """``[re, im]`` pairs nested like the complex array ``a``, of any rank."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex(value, shape: tuple) -> np.ndarray:
    """Inverse of :func:`_pairs`; ``value`` must hold numbers of this shape."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or a.shape != (*shape, 2):
        raise ValueError(f"expected [re, im] pairs {(*shape, 2)}, got {a.dtype} {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expected finite [re, im] pairs, got a NaN or infinite number")
    # A view keeps -0.0 exactly, unlike re + 1j * im.
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _power(value, name: str) -> float:
    """A power read from JSON: finite (json reads 1e999 as inf) and nonnegative."""
    power = float(value)
    if not math.isfinite(power):
        raise ValueError(f"{name} must be finite, got {power}")
    if power < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {power}")
    return power


def _count(obj: dict, key: str) -> int:
    """``obj[key]``, a JSON integer literal: not ``2.0``, ``"2"`` or ``true``."""
    if type(value := obj[key]) is int:
        return value
    raise ValueError(f"invalid literal for {key}: expected an integer, got {value!r}")


def _sample_terms(value) -> int | None:
    """``sample_terms`` read from JSON: ``None`` (unknown) or a count >= 1."""
    if value is None or (type(value) is int and value >= 1):
        return value
    raise ValueError(f"sample_terms must be null or an integer >= 1, got {value!r}")


def _criterion(value) -> float | None:
    """A stage criterion read from JSON: ``None`` or a finite number."""
    if value is None or (type(value) in (int, float) and math.isfinite(value)):
        return value
    raise ValueError(f"criterion must be null or a finite number, got {value!r}")


def model1d_to_dict(model: ArModel1D, method: str) -> dict:
    return {
        "kind": "ar1d",
        "method": method,
        "order": model.order,
        "coefficients": _pairs(model.coeffs),
        "error_power": float(model.error_power),
        "early_stop": bool(model.early_stop),
        "history": [
            {
                "order": st.order,
                "reflection": _pairs(st.reflection),
                "error_power": float(st.error_power),
                "coefficients": _pairs(st.coeffs),
            }
            for st in model.history
        ],
    }


def model1d_from_dict(obj: dict) -> ArModel1D:
    order = _count(obj, "order")
    coeffs = _complex(obj["coefficients"], (order,))
    history = [
        LatticeStage(
            m := _count(st, "order"),
            _complex(st["coefficients"], (m,)),
            _power(st["error_power"], "history error_power"),
            complex(_complex(st["reflection"], ())),
        )
        for st in obj.get("history", [])
    ]
    power = _power(obj["error_power"], "error_power")
    if type(early_stop := obj.get("early_stop", False)) is not bool:
        raise ValueError(f"early_stop must be true or false, got {early_stop!r}")
    return ArModel1D(order, coeffs, power, history, early_stop)


def model2d_to_dict(model: ArModel2D, method: str) -> dict:
    return {
        "kind": "ar2d",
        "method": method,
        "n1": model.order,
        "n2": model.channel_order,
        "coefficient_matrices": _pairs(model.coeffs),
        "error_power_matrix": _pairs(model.error_power),
        "sample_terms": model.sample_terms,
        "history": [
            {
                "order": st.order,
                "error_power_matrix": _pairs(st.error_power),
                "criterion": st.criterion,
            }
            for st in model.history
        ],
    }


def model2d_from_dict(obj: dict) -> ArModel2D:
    """Inverse of :func:`model2d_to_dict`.

    The JSON history keeps each stage's order, error power and criterion;
    the stage coefficient matrices are not written, so restored stages hold
    an empty ``(0, n2+1, n2+1)`` stack. The model order ``n1`` must be at
    least 1, as every 2D estimator requires.
    """
    n1, n2 = _count(obj, "n1"), _count(obj, "n2")
    if n1 < 1:
        raise ValueError(f"n1 must be >= 1, got {n1}")
    p = (n2 + 1, n2 + 1)
    coeffs = _complex(obj["coefficient_matrices"], (n1, *p))
    empty = np.zeros((0, *p), dtype=complex)
    history = [
        BlockStage(
            _count(st, "order"),
            empty,
            _complex(st["error_power_matrix"], p),
            criterion=_criterion(st["criterion"]),
        )
        for st in obj.get("history", [])
    ]
    power = _complex(obj["error_power_matrix"], p)
    return ArModel2D(n1, n2, coeffs, power, history, _sample_terms(obj.get("sample_terms")))


def filter_to_dict(filt: QuarterPlaneFilter) -> dict:
    return {
        "kind": "quarter_plane_filter",
        "n1": filt.order1,
        "n2": filt.order2,
        "coefficients": _pairs(filt.coeffs),
        "noise_power": float(filt.noise_power),
    }


def filter_from_dict(obj: dict) -> QuarterPlaneFilter:
    coeffs = _complex(obj["coefficients"], (_count(obj, "n1") + 1, _count(obj, "n2") + 1))
    return QuarterPlaneFilter(coeffs, _power(obj["noise_power"], "noise_power"))


_DECODERS = {
    "ar1d": model1d_from_dict,
    "ar2d": model2d_from_dict,
    "quarter_plane_filter": filter_from_dict,
}


def read_model(path) -> ArModel1D | ArModel2D | QuarterPlaneFilter:
    """The model or filter a JSON file holds, decoded by its ``kind``.

    Any malformed content (not an object, an unknown kind, a missing key, a
    value of the wrong type or shape) is a ``ValueError`` naming the file.
    """
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    decode = _DECODERS.get(str(obj.get("kind")))
    if decode is None:
        raise ValueError(f"{path}: unsupported kind {obj.get('kind')!r}")
    try:
        return decode(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: model JSON: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: model JSON: {exc}") from None


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def write_spectrum_csv(path, grid: SpectrumGrid) -> None:
    one_d = grid.frequencies2 is None
    names = ["frequency"] if one_d else ["f1", "f2"]
    firsts = [""] if one_d else [f"{f!r}," for f in grid.frequencies.tolist()]
    lasts = [f"{f!r}," for f in (grid.frequencies if one_d else grid.frequencies2).tolist()]
    power = grid.power.reshape(len(firsts), len(lasts))
    # Python floats for one line of the last axis at a time, not the grid.
    lines = (
        "".join(f"{f1}{f2}{p!r},{lp!r}\n" for f2, p, lp in zip(lasts, ps.tolist(), lps.tolist()))
        for f1, ps, lps in zip(firsts, power, log10_power(power))
    )
    _write_lines(path, [*names, "power", "log10_power"], lines)
