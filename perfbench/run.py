"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 22 --trace 0

One client in one process drives the workload closed-loop: the next pass
starts only when the previous one returned. After set-up and one untimed
warm-up pass, passes run until ``--seconds`` have elapsed. Every output is
checked outside the timed interval; a failed operation or check counts in
``failed`` and does not stop the run.

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``pass_rel.p50``,
``peak_rss_mb``; ``perfbench/README.md`` says how each is measured).
``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus their difference to
the untraced ones as ``trace.overhead_s``. The last line of standard output
is the result object; a summary line and the machine fingerprint come
before it. Results and spans also go to ``.perfbench_work/``.

The benchmark imports ``arspec`` from ``src/`` of the checkout and exits
with code 2, printing no result, when it is not there.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` comes from their median.
SETUP_REPEATS = 9

#: Median CPU seconds of the set-up reference kernel on the baseline
#: machine (``perfbench/README.md``). It turns the set-up's ratio to the
#: kernel back into seconds; a comparison of two commits does not depend
#: on it.
SETUP_REF_S = 0.032

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One set-up in a fresh interpreter, bracketed by a reference kernel of the
# same character: unmarshal and run module code (fixed standard-library
# modules, run under a private name), then numpy work on 2e5 samples. numpy
# is imported before the clock starts: its import is numpy's cost, not
# arspec's. Prints the set-up's CPU seconds and those of the kernel before
# and after it.
_SETUP_CHILD = """\
import importlib.util, marshal, sys, time
import numpy as np

CODE = [marshal.dumps(importlib.util.find_spec(m).loader.get_code(m))
        for m in ("argparse", "dataclasses", "configparser", "calendar", "pprint", "typing")]
Z = np.linspace(0.0, 1.0, 200_000)

def reference():
    t0 = time.thread_time()
    for _ in range(2):
        for code in CODE:
            exec(marshal.loads(code), {{"__name__": "_setup_reference"}})
    np.exp(1j * Z).sum()
    np.random.default_rng(0).standard_normal(Z.size)
    return time.thread_time() - t0

reference()
before = reference()
t0 = time.thread_time()
sys.path[:0] = {paths!r}
import workloads
workloads.make({name!r}, {seed!r}, {sizes!r}, {workdir!r})
setup = time.thread_time() - t0
print(setup, before, reference())
"""


def fix_numpy_environment() -> int:
    """Cap BLAS threads at the CPUs this process may use, and keep numpy
    from asking for transparent huge pages; returns the thread cap. Must
    precede the first ``import numpy``. An explicit setting in the
    environment wins.

    Whether the kernel grants huge pages depends on the host's free memory,
    and with them the ``synth`` pass ran about 30% faster and
    ``lattice_2d`` peaked 10-15 MB lower, so they varied from run to run.
    """
    cap = len(os.sched_getaffinity(0))
    for var in _BLAS_ENV:
        os.environ.setdefault(var, str(cap))
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _command_output(argv, cwd=None) -> str:
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(seed: int, blas_threads: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "l2_bytes": _command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "git_commit": _command_output(["git", "rev-parse", "HEAD"], cwd=ROOT),
    }


def _setup_times(name: str, seed: int, sizes: dict, workdir: Path) -> list[tuple]:
    """``(set-up, kernel before, kernel after)`` CPU seconds of complete
    set-ups, each in a fresh interpreter with numpy already imported: the
    import of ``arspec``, input generation and input files."""
    times = []
    for i in range(SETUP_REPEATS):
        code = _SETUP_CHILD.format(
            paths=[str(SRC), str(BENCH_DIR)],
            name=name,
            seed=seed,
            sizes=sizes,
            workdir=str(workdir / f"setup{i}"),
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(tuple(float(v) for v in done.stdout.split()))
    return times


class Tally:
    """Attempted and failed operations, with the first few tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Timing(NamedTuple):
    """Wall seconds, CPU seconds of the calling thread and CPU seconds of
    the whole process over one interval.

    The CPU seconds leave out the time the host of a virtual machine takes
    the CPU away from it (steal), which the wall seconds include. The
    process CPU seconds also count the BLAS threads.
    """

    wall: float
    cpu: float
    proc: float

    @staticmethod
    def now() -> "Timing":
        return Timing(time.perf_counter(), time.thread_time(), time.process_time())

    def since(self) -> "Timing":
        end = Timing.now()
        return Timing(end.wall - self.wall, end.cpu - self.cpu, end.proc - self.proc)


def _timed(call) -> Timing:
    start = Timing.now()
    call()
    return start.since()


def run_pass(workload, pass_id: int, tally: Tally, recorder=None) -> tuple[Timing, Timing]:
    """The reference kernel, one timed pass, then the pass's checks.

    Returns the timings of the reference kernel and of the pass.
    """
    workload.before_pass(pass_id)
    ops = workload.ops(pass_id)
    ref = _timed(workload.reference)
    results = {}
    raised = {}
    if recorder is not None:
        recorder.install(pass_id)
    try:
        start = Timing.now()
        for op, call in ops:
            try:
                results[op] = call(results)
            except Exception:
                raised[op] = traceback.format_exc()
        elapsed = start.since()
    finally:
        if recorder is not None:
            recorder.uninstall()
    checks = workload.checks(pass_id)
    for op, _ in ops:
        tally.attempted += 1
        if op in raised:
            tally.fail(f"pass {pass_id} {op} raised:\n{raised[op]}")
            continue
        try:
            ok = checks[op](results)
        except Exception:
            tally.fail(f"pass {pass_id} {op} check raised:\n{traceback.format_exc()}")
            continue
        if not ok:
            tally.fail(f"pass {pass_id} {op}: output check failed")
    if recorder is not None:
        for key, value in workload.pass_counts(pass_id).items():
            recorder.add_count(pass_id, key, value)
    return ref, elapsed


def tail(samples: list[float]) -> dict | None:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75):
        rank = math.ceil(q * n / 100) - 1
        if n - 1 - rank >= 10:
            return {"percentile": q, "value": ordered[rank], "beyond": n - 1 - rank}
    return None


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Set up, warm up and measure one workload; returns the full record."""
    blas_threads = fix_numpy_environment()
    if not (SRC / "arspec" / "__init__.py").is_file():
        raise FileNotFoundError(f"arspec sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setup_start = time.perf_counter()
    import arspec
    import spans
    import workloads

    if not Path(arspec.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"arspec imported from {arspec.__file__}, not from {SRC}")
    sizes = workloads.PAPER_SIZES[name] if sizes is None else sizes
    work = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        workload = workloads.make(name, seed, sizes, work / "run")
        own_setup_s = time.perf_counter() - setup_start
        setups = [] if trace else _setup_times(name, seed, sizes, work)

        tally = Tally()
        warm_start = time.perf_counter()
        run_pass(workload, 0, tally)
        warmup_s = time.perf_counter() - warm_start

        recorder = spans.SpanRecorder() if trace else None
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        pass_id = 1
        while time.perf_counter() < deadline or not untraced or (trace and not traced):
            traced_pass = trace and pass_id % 2 == 0
            (traced if traced_pass else untraced).append(
                run_pass(workload, pass_id, tally, recorder if traced_pass else None)
            )
            pass_id += 1
        # Closes the bracket of the last pass: each pass is compared with
        # the mean of the reference runs just before and just after it.
        refs = [ref for ref, _ in untraced] + [_timed(workload.reference)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pass_s = [p.wall for _, p in untraced]
    traced_s = [p.wall for _, p in traced]
    if trace:
        metrics = recorder.summary(traced_s, pass_s)
    else:
        metrics = {
            "setup_s": {
                "value": SETUP_REF_S
                * statistics.median(t / ((before + after) / 2) for t, before, after in setups),
                "unit": "s",
            },
            "pass_rel.p50": {
                "value": statistics.median(
                    p.cpu / ((refs[i].cpu + refs[i + 1].cpu) / 2)
                    for i, (_, p) in enumerate(untraced)
                ),
                "unit": "ratio",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sizes": sizes,
        "fingerprint": fingerprint(seed, blas_threads),
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
        "diagnostics": {
            "failed_ratio": tally.failed / tally.attempted,
            "errors": tally.errors,
            "setup_cpu_s": [t for t, _, _ in setups],
            "setup_ref_cpu_s": [(before + after) / 2 for _, before, after in setups],
            "own_setup_s": own_setup_s,
            "warmup_s": warmup_s,
            "pass_s.p50": statistics.median(pass_s),
            "pass_s.tail": tail(pass_s),
            "pass_cpu_s.p50": statistics.median(p.cpu for _, p in untraced),
            "pass_proc_cpu_s.p50": statistics.median(p.proc for _, p in untraced),
            "ref_s.p50": statistics.median(r.wall for r in refs),
            "pass_s": pass_s,
            "pass_cpu_s": [p.cpu for _, p in untraced],
            "pass_proc_cpu_s": [p.proc for _, p in untraced],
            "ref_s": [r.wall for r in refs],
            "ref_cpu_s": [r.cpu for r in refs],
            "traced_pass_s": traced_s,
        },
        "recorder": recorder,
    }


def summary_line(record: dict) -> str:
    res, diag = record["result"], record["diagnostics"]
    parts = [f"workload={record['workload']}", f"seed={record['seed']}", f"trace={record['trace']}"]
    for metric, m in res["metrics"].items():
        if not record["trace"] or metric.startswith("trace."):
            parts.append(f"{metric}={m['value']:.6g} {m['unit']}")
    parts.append(f"pass_s.p50={diag['pass_s.p50']:.6g} s (n={len(diag['pass_s'])})")
    t = diag["pass_s.tail"]
    parts.append(
        f"pass_s.p{t['percentile']:g}={t['value']:.6g} s ({t['beyond']} beyond)"
        if t
        else "pass_s.tail=none (fewer than 10 samples beyond p75)"
    )
    parts.append(f"pass_cpu_s.p50={diag['pass_cpu_s.p50']:.6g} s")
    parts.append(f"pass_proc_cpu_s.p50={diag['pass_proc_cpu_s.p50']:.6g} s")
    parts.append(f"ref_s.p50={diag['ref_s.p50']:.6g} s")
    parts.append(f"failed_ratio={diag['failed_ratio']:.6g} ratio ({res['failed']}/{res['attempted']})")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper_cli", "lattice_1d", "lattice_2d", "synth")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in record["diagnostics"]["errors"]:
        print(message, file=sys.stderr)
    recorder = record.pop("recorder")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    WORK_ROOT.mkdir(exist_ok=True)
    (WORK_ROOT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if recorder is not None:
        recorder.write_jsonl(WORK_ROOT / f"spans-{stem}.jsonl")
    print(summary_line(record))
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
