"""Golden digests of the paper recipes.

``golden.json`` holds the argv of the paper-scale command recipes at seed 1
(those of the ``paper_cli`` benchmark workload, on a 16x16 grid drawn from
:class:`~arspec.siggen.Lcg32`), the sha256 of each data file they write, the
models, the filter and the verdict, and the fingerprint of the platform the
digests were taken on. On that platform every digest must match: the data
files reproduce byte for byte. On any other platform, where the bytes may
differ in the last bits, the models, the filter and the verdict must match
within ``TOL`` of each array's largest magnitude (at least 1), and the test
prints the digests it got.

A change that moves bits on purpose rewrites ``golden.json`` in the same
diff, from the recipes it already holds:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
from oracles import write_signal_2d_csv

from arspec.cli import main
from arspec.siggen import Lcg32

GOLDEN = Path(__file__).with_name("golden.json")

#: The README's tolerance between the bytes of two platforms.
TOL = 1e-12


def fingerprint() -> dict:
    """What the bytes of an artifact may depend on, besides the code."""
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "os": " ".join([platform.system(), *platform.libc_ver()]),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_recipes(golden: dict) -> tuple[dict, dict]:
    """Run the recipes of ``golden`` in the working directory. Returns the
    sha256 of each data file, as each manifest lists them, and the parsed
    JSON of each file that ``golden["values"]`` names."""
    grid = golden["grid"]
    x = Lcg32(grid["seed"], substream=grid["substream"]).complex_normal(grid["rows"] * grid["cols"])
    write_signal_2d_csv(grid["path"], x.reshape(grid["rows"], grid["cols"]))
    digests = {}
    for argv in golden["recipes"]:
        assert main(argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        with open(f"{out}.manifest.json", encoding="utf-8") as fh:
            for path in json.load(fh)["outputs"]:
                with open(path, "rb") as data:
                    digests[path] = hashlib.sha256(data.read()).hexdigest()
    values = {}
    for path in golden["values"]:
        with open(path, encoding="utf-8") as fh:
            values[path] = json.load(fh)
    return digests, values


def _numbers(value):
    """``value`` as a float array if it is a list of numbers of any rank, else None."""
    if isinstance(value, list):
        try:
            a = np.asarray(value)
        except ValueError:  # a ragged list
            return None
        if a.dtype.kind in "iuf":
            return a.astype(float)
    return None


def assert_close(got, expected, where: str = "") -> None:
    """Equal structure and text; equal numbers within ``TOL`` of the largest
    magnitude of the list they are in, or of 1."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys(), where
        for key in expected:
            assert_close(got[key], expected[key], f"{where}/{key}")
    elif (b := _numbers(expected)) is not None:
        a = _numbers(got)
        assert a is not None and a.shape == b.shape, where
        assert np.all(np.abs(a - b) <= TOL * max(1.0, np.abs(b).max(initial=0.0))), where
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_close(g, e, f"{where}/{i}")
    elif isinstance(expected, float):
        assert isinstance(got, float) and abs(got - expected) <= TOL * max(1.0, abs(expected)), where
    else:
        assert type(got) is type(expected) and got == expected, where


def test_paper_recipes_reproduce_their_golden_bytes(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    digests, values = run_recipes(golden)
    assert digests.keys() == golden["digests"].keys()
    assert_close(values, golden["values"])
    if fingerprint() != golden["fingerprint"]:
        print("digests on", json.dumps(fingerprint()), json.dumps(digests, indent=2))
        return
    assert digests == golden["digests"]


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        golden["digests"], golden["values"] = run_recipes(golden)
        os.chdir(here)
    golden["fingerprint"] = fingerprint()
    # One line per list of numbers or strings, such as an argv or a pair.
    text = re.sub(r"\[[^][{}]*\]", lambda m: json.dumps(json.loads(m[0])), json.dumps(golden, indent=1))
    GOLDEN.write_text(text + "\n", encoding="utf-8")
