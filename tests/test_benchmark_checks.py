"""The benchmark's own output checks, run at small sizes with the tests.

``perfbench/run.py`` counts every operation whose output fails its
workload's check as a failure. These tests drive each workload through the
same interface (``make``, ``before_pass``, ``ops``, ``checks``), so a
library change that breaks what the benchmark reads fails here first.
``perfbench/workloads.py`` is imported as it is, never edited.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# Tiny sizes run the warm-up pass 0 and pass 1, which some checks compare
# with it; the paper-size 2D grid runs the warm-up only.
CASES = [pytest.param(name, workloads.TINY_SIZES[name], (0, 1), id=f"{name}-tiny")
         for name in workloads.WORKLOADS]
CASES.append(
    pytest.param("lattice_2d", workloads.PAPER_SIZES["lattice_2d"], (0,), id="lattice_2d-paper")
)


@pytest.mark.parametrize(("name", "sizes", "passes"), CASES)
def test_every_output_check_holds(name, sizes, passes, tmp_path):
    workload = workloads.make(name, 1, sizes, tmp_path)
    for pass_id in passes:
        workload.before_pass(pass_id)
        ops = workload.ops(pass_id)
        results = {}
        for op, call in ops:
            results[op] = call(results)
        checks = workload.checks(pass_id)
        failed = [op for op, _ in ops if not checks[op](results)]
        assert not failed, f"pass {pass_id}: output checks failed for {failed}"


def test_paper_size_2d_grid_keeps_the_classic_lag_route(monkeypatch, tmp_path):
    # burg2d_classic takes its moments from the lag blocks; a grid that
    # leaves that route is recomputed on the error-block lattice, which
    # would cost the workload its gain without failing a check. Only
    # burg2d_modified, the zero-padded support, may run the lattice here.
    ar2d = workloads.ar2d
    lattice = ar2d._burg2d_lattice
    padded_flags = []

    def spy(x, order, channel_order, padded):
        padded_flags.append(padded)
        return lattice(x, order, channel_order, padded)

    monkeypatch.setattr(ar2d, "_burg2d_lattice", spy)
    workload = workloads.make("lattice_2d", 1, workloads.PAPER_SIZES["lattice_2d"], tmp_path)
    workload.before_pass(0)
    results = {}
    for op, call in workload.ops(0):
        results[op] = call(results)
    assert padded_flags == [True]
