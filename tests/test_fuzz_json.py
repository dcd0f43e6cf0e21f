"""Property: a mutated model or filter JSON through ``arspec spectrum`` never
gives a traceback. Each case exits 0 with a spectrum CSV that reads back to
the bits of the spectrum of the model as read, or exits 2 or 3 with one
``error: usage:`` or ``error: numerical:`` line on stderr and nothing
written. Also the edge of the range a JSON power or criterion may take."""

import contextlib
import copy
import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arspec.ar1d import ArModel1D, burg_classic
from arspec.ar2d import ArModel2D, burg2d_modified, extract_quarter_plane_filter
from arspec.cli import main
from arspec.io import filter_to_dict, model1d_to_dict, model2d_to_dict, read_model
from arspec.siggen import Lcg32
from arspec.spectrum import ar_spectrum_1d, ar_spectrum_2d

_MODEL_2D = burg2d_modified(Lcg32(4, substream=41).complex_normal(12).reshape(4, 3), 2, 1)
#: A valid 1D model, 2D model and filter, as the CLI writes them.
VALID = [
    model1d_to_dict(burg_classic(Lcg32(3, substream=41).complex_normal(12), 3), "burg"),
    model2d_to_dict(_MODEL_2D, "burg2d-mod"),
    filter_to_dict(extract_quarter_plane_filter(_MODEL_2D)),
]

#: Strings that stand for JSON text that ``json.dumps`` does not write.
LITERALS = {
    "@1e999": "1e999",
    "@-1e999": "-1e999",
    "@nested": "[" * 100_000 + "]" * 100_000,
    "@digits": "9" * 5000,
}
VALUES = ["1.5", "2", "", "x", True, False, None, [], {}, [0.5, 0.0], {"kind": "ar1d"},
          0, -1, 1.5, -0.0, 5e-324, 2**63, 10**400, -(10**400), math.nan, math.inf,
          -math.inf, *LITERALS]
KEYS = ["kind", "order", "n1", "n2", "history", "extra", ""]


def _dumps(obj) -> bytes:
    text = json.dumps(obj)
    for name, literal in LITERALS.items():
        text = text.replace(json.dumps(name), literal)
    return text.encode()


def _nodes(obj, path=()):
    """Every ``(path, node)`` of the JSON tree ``obj``, the root first."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _nodes(value, (*path, key))


@st.composite
def mutated_json(draw) -> bytes:
    """One of :data:`VALID` after a few random mutations, as JSON bytes."""
    obj = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        # Most nodes are numbers in arrays; draw a keyed value as often.
        nodes = list(_nodes(obj))
        keyed = [(path, node) for path, node in nodes if path and isinstance(path[-1], str)]
        path, node = draw(st.sampled_from(keyed) | st.sampled_from(nodes))
        kind = draw(st.sampled_from(["value", "delete", "add", "nest"]))
        if kind == "add" and isinstance(node, (dict, list)):
            value = draw(st.sampled_from(VALUES))
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
            continue
        if not path:
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "nest":
            parent[path[-1]] = [[node]]
        else:
            parent[path[-1]] = draw(st.sampled_from(VALUES))
    return _dumps(obj)


def _with(index: int, *path_and_value) -> bytes:
    """:data:`VALID` ``[index]`` with the one value at ``path`` replaced."""
    *path, value = path_and_value
    obj = copy.deepcopy(VALID[index])
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return _dumps(obj)


def _spectrum(model):
    if isinstance(model, ArModel1D):
        return ar_spectrum_1d(model, 16)
    if isinstance(model, ArModel2D):
        model = extract_quarter_plane_filter(model)
    return ar_spectrum_2d(model, 8, 8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=mutated_json())
@example(data=_with(0, "error_power", "1.5"))
@example(data=_with(0, "error_power", True))
@example(data=_with(0, "history", 0, "error_power", "2"))
@example(data=_with(2, "noise_power", 10**400))
@example(data=_with(1, "history", 0, "criterion", -(10**400)))
def test_spectrum_on_a_mutated_model_json(tmp_path_factory, data):
    work = tmp_path_factory.getbasetemp() / "fuzz_json"
    work.mkdir(exist_ok=True)
    for path in work.iterdir():
        path.unlink()
    source, out = work / "model.json", work / "spectrum.csv"
    source.write_bytes(data)

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["spectrum", "--nfreq", "16", "--nf1", "8", "--nf2", "8",
                     "--in", str(source), "--out", str(out)])
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert err.startswith(("error: usage:", "error: numerical:"))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(work.iterdir()) == [source]
        return
    assert err == ""
    with open(out, newline="", encoding="utf-8") as fh:
        power = [float(row["power"]) for row in csv.DictReader(fh)]
    assert np.array_equal(power, _spectrum(read_model(source)).power.ravel())


@pytest.mark.parametrize("index, path, read", [
    (0, ("error_power",), lambda m: m.error_power),
    (2, ("noise_power",), lambda m: m.noise_power),
    (1, ("history", 0, "criterion"), lambda m: m.history[0].criterion),
])
def test_the_largest_double_is_a_finite_json_number(tmp_path, index, path, read):
    model = tmp_path / "model.json"
    model.write_bytes(_with(index, *path, sys.float_info.max))
    assert read(read_model(model)) == sys.float_info.max
    model.write_bytes(_with(index, *path, 2**1024))
    with pytest.raises(ValueError, match="finite"):
        read_model(model)
