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

Every writer writes a new temporary file beside its target, in the
directory of the target's real path: an output reached through a symlink
replaces the file the link names, and the link stays. When the file is
complete, it replaces the target with ``os.replace``, so a reader never sees
half a file; a replaced target is a new file with the default permissions,
so another hard link to the old one keeps the old bytes. Inside
:class:`staged_writes` the files of a whole block change together, or none.
A target that exists and is not a regular file (a device such as
``/dev/null`` or ``/dev/stdout``, or a named pipe) cannot be replaced, only
written: it is opened and written in place, at once, even inside the block.
"""

import contextlib
import csv
import itertools
import json
import math
import os
import stat
import sys

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
    "staged_writes",
    "write_csv",
    "write_json",
    "write_signal_csv",
    "write_spectrum_csv",
]


#: The ``(temporary file, target)`` pairs written inside :class:`staged_writes`.
_staged: list | None = None


class staged_writes:
    """Make the files written inside the ``with`` block change together, or
    none.

    Each writer leaves its complete file under a temporary name. When the
    block ends, the files are renamed onto their targets in the order they
    were written. If a rename fails, each target renamed before it gets its
    old file back, or is removed if it is new. On any exception every
    temporary file is removed, and no target has changed.
    """

    def __enter__(self) -> None:
        global _staged
        _staged = self.files = []

    def __exit__(self, kind, value, traceback) -> None:
        global _staged
        _staged = None
        renamed = False
        try:
            if kind is None:
                _rename_all(self.files)
                renamed = True
        finally:
            if not renamed:
                for temp, _ in self.files:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(temp)


def _rename_all(staged: list) -> None:
    """Rename each ``(temporary file, target)`` onto its target, in order,
    or, if one rename fails, undo the renames before it and raise.

    An existing target is first renamed aside, beside its temporary file,
    and renamed back by the undo, so no file system needs hard links.
    """
    done = []  # (target, its old file, or None when the target is new)
    try:
        for temp, target in staged:
            if os.path.exists(target):
                old = f"{temp}.old"
                os.replace(target, old)
                done.append((target, old))
                os.replace(temp, target)
            else:
                os.replace(temp, target)
                done.append((target, None))
    except BaseException:
        for target, old in reversed(done):
            if old:
                os.replace(old, target)
            else:
                os.remove(target)
        raise
    # Every target is in place: an old file that cannot be removed stays
    # as a stray, rather than fail a run that changed its files.
    for _, old in done:
        if old:
            with contextlib.suppress(OSError):
                os.remove(old)


def _write_texts(path, texts, newline=None) -> None:
    """Write each text of ``texts`` as it comes into a new file that becomes
    ``path``, or write them in place into a device or pipe, as the module
    docstring says; on an exception no file is left."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # no file yet; any other fault surfaces in the staged write
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.writelines(texts)
        return
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target), f".arspec-{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            fh.writelines(texts)
        if _staged is None:
            os.replace(temp, target)
        else:
            _staged.append((temp, target))
    except BaseException:
        os.remove(temp)
        raise


def _write_lines(path, header, lines) -> None:
    """Write ``header``, then each text of ``lines`` as it comes."""
    _write_texts(path, itertools.chain([",".join(map(str, header)) + "\n"], lines), newline="")


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
    """A power read from JSON: a number, not ``"1.5"`` or ``true``; finite
    (json reads 1e999 as inf, and an integer may pass the largest double);
    and nonnegative."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return float(value)


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
    if value is None or (type(value) in (int, float) and abs(value) <= sys.float_info.max):
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
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    _write_texts(path, itertools.chain(chunks, ["\n"]))


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # a decode error, or an integer of over 4300 digits
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
