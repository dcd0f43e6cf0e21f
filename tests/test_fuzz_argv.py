"""Property: any argv of any subcommand, with integers at and past each
bound, non-finite floats, unknown method names and outputs under a missing
directory, never gives a traceback.

Each case exits 0, 2 or 3, or 1 (a failed verdict) from ``experiment
equivalence`` only. Exit 2 or 3 writes one ``error: usage:`` or
``error: numerical:`` line on stderr and leaves the inputs and the work
directory as they were. Exit 0
or 1 writes no stderr, a manifest that lists exactly the declared inputs and
outputs, and data files that read back to the bits they were written from.
The options that set the amount of work or memory stay at 64 or below.
"""

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from oracles import write_signal_2d_csv

from arspec.cli import main
from arspec.io import (
    filter_to_dict,
    model1d_to_dict,
    model2d_to_dict,
    read_model,
    write_signal_csv,
)
from arspec.siggen import Lcg32

#: Samples of the signal CSV input, and rows and columns of the grid CSV input.
N, GRID = 12, 6
#: Integers at and past the bounds of an order, a grid order or a seed.
EDGE_INTS = [-1, 0, 1, 2**63, 10**20]
#: Floats past the bounds of a frequency, a phase or an SNR.
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308]
METHODS_1D = ["levinson", "burg", "burg-mod"]
METHODS_2D = ["wwra", "burg2d", "burg2d-mod"]
UNKNOWN = ["", "LEVINSON", "burg2d", "levinson ", "none"]


def edgy(valid: list, edges: list):
    """One of ``valid``, or once in five draws one of ``edges``."""
    return st.integers(0, 4).flatmap(lambda k: st.sampled_from(edges if k == 0 else valid))


def ints(*valid: int):
    return edgy(valid, EDGE_INTS)


def floats(*valid: float):
    return edgy(valid, EDGE_FLOATS)


#: Sizes that set the amount of work or memory: 64 at most.
WORK = edgy([2, 3, 16, 64], [-1, 0, 1])
SYNTH = {
    "--n": WORK,
    "--freq": floats(0.25, -0.5, 0.5),
    "--snr-db": floats(30.0, 0.0, -400.0, 400.0),
}
SEED = {"--seed": ints(3, -(2**63))}

#: Per subcommand: options that every argv holds, then options that it may hold.
COMMANDS = {
    "gen": (
        {**SYNTH},
        {**SEED, "--phase": floats(0.5), "--substream": ints(3), "--noiseless": None},
    ),
    "est1d": ({"--method": edgy(METHODS_1D, UNKNOWN), "--order": ints(3, N - 1, N)}, {}),
    "est2d": (
        {
            "--method": edgy(METHODS_2D, UNKNOWN),
            "--n1": ints(1, 2, GRID - 1, GRID),
            "--n2": ints(1, 2, GRID - 1, GRID),
        },
        {},
    ),
    "spectrum": ({"--nfreq": WORK, "--nf1": WORK, "--nf2": WORK}, {}),
    "experiment phase-sweep": (
        {**SYNTH, "--steps": WORK, "--nfreq": WORK},
        {**SEED, "--order": ints(3, 19, 20, 21), "--method": edgy(METHODS_1D, UNKNOWN),
         "--log10": None, "--noiseless": None},
    ),
    "experiment order-sweep": (
        {**SYNTH, "--nfreq": WORK},
        {**SEED, "--max-order": ints(3, 19, 20, 21), "--phase": floats(0.5),
         "--method": edgy(METHODS_1D, UNKNOWN), "--log10": None, "--noiseless": None},
    ),
    "experiment mse-vs-order": (
        {**SYNTH},
        {**SEED, "--max-order": ints(3, 19, 20, 21), "--phase": floats(0.5),
         "--methods": edgy(["burg", "burg-mod, levinson"], [",", "burg,burg", *UNKNOWN]),
         "--support": edgy(["full", "window"], UNKNOWN), "--noiseless": None},
    ),
    "experiment equivalence": ({"--trials": WORK, "--trials-2d": WORK}, {**SEED}),
}

#: The ``--in`` of each subcommand that reads a file: ``spectrum`` takes any
#: of three, and a record or grid of zeros is a numerical error.
INPUTS = {
    "est1d": edgy(["signal.csv"], ["zeros.csv"]),
    "est2d": edgy(["grid.csv"], ["zeros2d.csv"]),
    "spectrum": st.sampled_from(["model1d.json", "model2d.json", "filter.json"]),
}


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    """The input directory, written once, and the work directory, both under
    the working directory of the tests."""
    root = tmp_path_factory.mktemp("fuzz_argv")
    inputs, work = root / "in", root / "work"
    inputs.mkdir()
    x = Lcg32(5, substream=3)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen", "--n", str(N), "--out", str(inputs / "signal.csv")]) == 0
        write_signal_2d_csv(inputs / "grid.csv", x.complex_normal(GRID * GRID).reshape(GRID, GRID))
        write_signal_2d_csv(inputs / "zeros2d.csv", np.zeros((GRID, GRID)))
        write_signal_csv(inputs / "zeros.csv", np.zeros(N))
        assert main(["est1d", "--method", "burg", "--order", "3",
                     "--in", str(inputs / "signal.csv"),
                     "--out", str(inputs / "model1d.json")]) == 0
        assert main(["est2d", "--method", "burg2d", "--n1", "2", "--n2", "1",
                     "--in", str(inputs / "grid.csv"), "--out", str(inputs / "model2d.json"),
                     "--filter-out", str(inputs / "filter.json")]) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        yield inputs, work


@st.composite
def argvs(draw) -> tuple[str, list]:
    """A subcommand and an argv for it, with paths relative to the input
    directory (``in/``) and the work directory (``work/``)."""
    command = draw(st.sampled_from(list(COMMANDS)))
    required, optional = COMMANDS[command]
    chosen = {**required, **{k: v for k, v in optional.items() if draw(st.booleans())}}
    argv = command.split()
    for option, values in chosen.items():
        if values is None:
            argv.append(option)
            continue
        value = str(draw(values))
        # Either form, for a negative value such as "-1e+308" or "-inf" too.
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    if command in INPUTS:
        argv += ["--in", "in/" + draw(INPUTS[command])]
    # An output is rarely under a missing directory, or a directory itself.
    where = edgy(["work/{}"], ["work/nodir/{}", "work/x/../{}", "work"])
    argv += ["--out", draw(where).format("out")]
    for option in ["--manifest", *(["--filter-out"] if command == "est2d" else [])]:
        if draw(st.booleans()):
            argv += [option, draw(where).format(option[2:])]
    return command, argv


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _cells_read_back(path: str) -> bool:
    """Whether every cell under the header of the CSV ``path`` is empty or
    the ``repr`` of the float or int it parses to."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return all(c == "" or c == repr(float(c)) or c == str(int(c)) for row in rows for c in row)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=argvs())
@example(case=("est1d", ["est1d", "--method", "burg", "--order", "3", "--in", "in/signal.csv",
                         "--out", "work/out", "--manifest", "work/nodir/manifest"]))
@example(case=("est2d", ["est2d", "--method", "wwra", "--n1", "1", "--n2", "1",
                         "--in", "in/grid.csv", "--out", "work/out",
                         "--filter-out", "work/nodir/filter-out"]))
@example(case=("experiment equivalence", ["experiment", "equivalence", "--trials", "3",
                                          "--trials-2d", "2", "--out", "work/out",
                                          "--manifest", "work/nodir/manifest"]))
def test_any_argv_exits_cleanly(dirs, case):
    command, argv = case
    inputs, work = dirs
    root = inputs.parent
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    before = _tree(root)

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    event(f"exit {code}")
    assert code in ((0, 1, 2, 3) if command == "experiment equivalence" else (0, 2, 3))
    if code in (2, 3):
        assert err.startswith(("error: usage:", "error: numerical:"))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert _tree(root) == before
        return

    assert err == ""
    options = dict(zip(argv, argv[1:]))
    options.update(arg.split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
    out = options["--out"]
    outputs = [out]
    if command == "est2d":
        outputs.append(options.get("--filter-out", f"{out}.filter.json"))
    manifest = options.get("--manifest", f"{out}.manifest.json")
    assert _json(manifest)["inputs"] == ([options["--in"]] if "--in" in options else [])
    assert _json(manifest)["outputs"] == outputs
    assert set(_tree(root)) - set(before) == {root / p for p in [*outputs, manifest]}
    if command == "est1d":
        assert model1d_to_dict(read_model(out), options["--method"]) == _json(out)
    elif command == "est2d":
        assert model2d_to_dict(read_model(out), options["--method"]) == _json(out)
        assert filter_to_dict(read_model(outputs[1])) == _json(outputs[1])
    elif command == "experiment equivalence":
        assert _json(out)["pass"] is (code == 0)
    else:
        assert _cells_read_back(out)
