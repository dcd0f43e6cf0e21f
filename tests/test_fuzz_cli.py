"""Property: a mutated signal CSV through ``arspec est1d`` never gives a
traceback. Each case exits 0 with a model JSON that reads back to the bits
it was written from, or exits 2 or 3 with one ``error: usage:`` or
``error: numerical:`` line on stderr and no model written."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arspec.cli import main
from arspec.io import model1d_to_dict, read_model
from arspec.siggen import Lcg32

#: The rows of a valid 12-sample signal CSV, each number as its ``repr``.
ROWS = [
    f"{i},{z.real!r},{z.imag!r}"
    for i, z in enumerate(Lcg32(3, substream=41).complex_normal(12).tolist())
]

BAD_TOKENS = ["", " ", "nan", "inf", "-inf", "1e999", "0x10", "1,5", '"', "1e0", "\x00",
              "9" * 5000, "1" * 200_000, "é", "NaN", "+", "--1", "1_0"]
INDICES = [-1, -(10**20), 12, 13, 10**6, 10**20, 2**63]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80", b"\xef\xbb"]
#: Scales of every sample: zero energy, and sums past either end of the range.
SCALES = [0.0, 1e-160, 1e-300, 1e155, 1e300]

#: True once in five draws.
rarely = st.integers(0, 4).map(lambda v: v == 0)


def _scaled(row: str, scale: float) -> str:
    i, re, im = row.split(",")
    return f"{i},{float(re) * scale!r},{float(im) * scale!r}"


@st.composite
def mutated_csv(draw) -> bytes:
    """The header and ``ROWS`` after a few random mutations, as bytes."""
    rows = list(ROWS)
    if draw(rarely):
        scale = draw(st.sampled_from(SCALES))
        rows = [_scaled(r, scale) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        kind = draw(st.sampled_from(["drop", "duplicate", "permute", "token", "index"]))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "drop":
            del rows[i]
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
        elif kind == "permute":
            rows = draw(st.permutations(rows))
        elif kind == "token":
            fields = rows[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.sampled_from(BAD_TOKENS) | st.text(max_size=6)
            )
            rows[i] = ",".join(fields)
        else:
            rows[i] = ",".join([str(draw(st.sampled_from(INDICES))), *rows[i].split(",")[1:]])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join(["index,re,im", *rows, ""]).encode("utf-8", "surrogatepass")
    if draw(rarely):
        data = b"\xef\xbb\xbf" + data
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=mutated_csv(),
    method=st.sampled_from(["levinson", "burg", "burg-mod"]),
    order=st.integers(1, 4),
)
@example(data=("index,re,im\n0," + "1" * 200_000 + ",0.0\n").encode(), method="burg", order=1)
@example(data=b"\xef\xbb\xbfindex,re,im\r\n" + "\r\n".join(ROWS).encode(), method="burg", order=2)
def test_est1d_on_a_mutated_signal_csv(tmp_path_factory, data, method, order):
    work = tmp_path_factory.getbasetemp() / "fuzz_cli"
    work.mkdir(exist_ok=True)
    signal, model = work / "signal.csv", work / "model.json"
    signal.write_bytes(data)
    model.unlink(missing_ok=True)

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["est1d", "--method", method, "--order", str(order),
                     "--in", str(signal), "--out", str(model)])
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert err.startswith(("error: usage:", "error: numerical:"))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not model.exists()
    else:
        assert err == ""
        written = json.loads(model.read_text(encoding="utf-8"))
        assert model1d_to_dict(read_model(model), method) == written
