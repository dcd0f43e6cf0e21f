"""Property: a mutated signal CSV through ``arspec est1d``, or a mutated
grid CSV through ``arspec est2d``, never gives a traceback. Each case exits
0 with model JSON that reads back to the bits it was written from, or exits
2 or 3 with one ``error: usage:`` or ``error: numerical:`` line on stderr
and nothing written."""

import contextlib
import io
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arspec.cli import main
from arspec.io import filter_to_dict, model1d_to_dict, model2d_to_dict, read_model
from arspec.siggen import Lcg32

#: The rows of a valid 12-sample signal CSV, each number as its ``repr``.
ROWS = [
    f"{i},{z.real!r},{z.imag!r}"
    for i, z in enumerate(Lcg32(3, substream=41).complex_normal(12).tolist())
]
#: The rows of a valid 4x3 grid CSV, each number as its ``repr``.
GRID_ROWS = [
    f"{k},{t},{z.real!r},{z.imag!r}"
    for (k, t), z in zip(np.ndindex(4, 3), Lcg32(4, substream=41).complex_normal(12).tolist())
]

BAD_TOKENS = ["", " ", "nan", "inf", "-inf", "1e999", "0x10", "1,5", '"', "1e0", "\x00",
              "9" * 5000, "1" * 200_000, "é", "NaN", "+", "--1", "1_0"]
INDICES = [-1, -(10**20), 3, 4, 12, 13, 10**6, 10**20, 2**63]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80", b"\xef\xbb"]
#: Scales of every sample: zero energy, and sums past either end of the range.
SCALES = [0.0, 1e-160, 1e-300, 1e155, 1e300]

#: True once in five draws.
rarely = st.integers(0, 4).map(lambda v: v == 0)


def _scaled(row: str, scale: float) -> str:
    *index, re, im = row.split(",")
    return ",".join([*index, repr(float(re) * scale), repr(float(im) * scale)])


@st.composite
def mutated_csv(draw, header: str, valid: list[str]) -> bytes:
    """``header`` and the rows ``valid`` after a few random mutations, as
    bytes; every field but the last two of a row is an index."""
    rows = list(valid)
    if draw(rarely):
        scale = draw(st.sampled_from(SCALES))
        rows = [_scaled(r, scale) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        kind = draw(st.sampled_from(["drop", "duplicate", "permute", "token", "index"]))
        i = draw(st.integers(0, len(rows) - 1))
        fields = rows[i].split(",")
        if kind == "drop":
            del rows[i]
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
        elif kind == "permute":
            rows = draw(st.permutations(rows))
        elif kind == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.sampled_from(BAD_TOKENS) | st.text(max_size=6)
            )
            rows[i] = ",".join(fields)
        else:
            fields[draw(st.integers(0, len(fields) - 3))] = str(draw(st.sampled_from(INDICES)))
            rows[i] = ",".join(fields)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join([header, *rows, ""]).encode("utf-8", "surrogatepass")
    if draw(rarely):
        data = b"\xef\xbb\xbf" + data
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


def _run(tmp_path_factory, name: str, data: bytes, argv: list[str]) -> tuple:
    """Run ``main`` on ``argv`` plus ``--in <name> --out model.json`` in an
    emptied work directory holding ``data`` as ``name``; the exit code and
    the paths written, after checking that a failure wrote nothing and said
    why on one line of stderr."""
    work = tmp_path_factory.getbasetemp() / "fuzz_cli"
    work.mkdir(exist_ok=True)
    for path in work.iterdir():
        path.unlink()
    source, model = work / name, work / "model.json"
    source.write_bytes(data)

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--in", str(source), "--out", str(model)])
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert err.startswith(("error: usage:", "error: numerical:"))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(work.iterdir()) == [source]
    else:
        assert err == ""
    return code, model, work / "model.json.filter.json"


def _read_json(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=mutated_csv("index,re,im", ROWS),
    method=st.sampled_from(["levinson", "burg", "burg-mod"]),
    order=st.integers(1, 4),
)
@example(data=("index,re,im\n0," + "1" * 200_000 + ",0.0\n").encode(), method="burg", order=1)
@example(data=b"\xef\xbb\xbfindex,re,im\r\n" + "\r\n".join(ROWS).encode(), method="burg", order=2)
def test_est1d_on_a_mutated_signal_csv(tmp_path_factory, data, method, order):
    code, model, _ = _run(tmp_path_factory, "signal.csv", data,
                          ["est1d", "--method", method, "--order", str(order)])
    if not code:
        assert model1d_to_dict(read_model(model), method) == _read_json(model)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=mutated_csv("k,t,re,im", GRID_ROWS),
    method=st.sampled_from(["wwra", "burg2d", "burg2d-mod"]),
    n1=st.integers(1, 3),
    n2=st.integers(0, 2),
)
@example(data="\n".join(["k,t,re,im", *GRID_ROWS, ""]).encode(), method="burg2d", n1=3, n2=2)
@example(data="\n".join(["k,t,re,im", *GRID_ROWS[:-1], ""]).encode(), method="burg2d-mod",
         n1=1, n2=0)
@example(data="\n".join(["k,t,re,im", *(_scaled(r, 1e-160) for r in GRID_ROWS), ""]).encode(),
         method="burg2d-mod", n1=2, n2=1)
@example(data="\n".join(["k,t,re,im", *(_scaled(r, 1e300) for r in GRID_ROWS), ""]).encode(),
         method="burg2d", n1=3, n2=2)
def test_est2d_on_a_mutated_grid_csv(tmp_path_factory, data, method, n1, n2):
    code, model, filt = _run(tmp_path_factory, "grid.csv", data,
                             ["est2d", "--method", method, "--n1", str(n1), "--n2", str(n2)])
    if not code:
        assert model2d_to_dict(read_model(model), method) == _read_json(model)
        assert filter_to_dict(read_model(filt)) == _read_json(filt)
