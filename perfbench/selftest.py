"""Self-test of the benchmark, at tiny sizes, in about a minute.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload runs untraced and traced. Each emits exactly the
   end-to-end or per-layer metrics ``BENCHMARK.json`` names, each with its
   unit and a finite value, and the unmodified library fails no check.
2. Each workload runs again with one library function replaced by a version
   that corrupts its output; the failure must show in ``failed``.
3. Every name the span recorder wrapped is restored afterwards.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   ``run.py`` exits with a nonzero code and prints no result.

Exits 0 when all of this holds, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys

import run

SEED = 3
SECONDS = 0.3


def _corruptions(modules) -> dict:
    """Per workload: (owner, attribute, replacement) breaking one output."""
    ar1d, ar2d, cli, siggen = (modules[k] for k in ("ar1d", "ar2d", "cli", "siggen"))
    burg_modified, burg2d_modified = ar1d.burg_modified, ar2d.burg2d_modified
    gen, main = siggen.gen_noisy_sinusoid, cli.main
    calls = {"cli": 0}

    def nan_stage(x, order):
        model = burg_modified(x, order)
        model.history[order // 2].coeffs[0] = math.nan
        return model

    def shifted_stage(x, n1, n2):
        model = burg2d_modified(x, n1, n2)
        model.history[-1].coeffs[0, 0, 0] *= 1.0 + 1e-6
        return model

    def louder(cfg, substream=0):
        return gen(cfg, substream) * (1.0 + 1e-6)

    def drifting_output(argv):
        # Leaves the warm-up pass alone; from the next pass on, the
        # phase-sweep CSV gains one byte.
        code = main(argv)
        calls["cli"] += 1
        if calls["cli"] > 9 and argv[:2] == ["experiment", "phase-sweep"]:
            with open(argv[argv.index("--out") + 1], "a", encoding="utf-8") as fh:
                fh.write("0")
        return code

    return {
        "lattice_1d": (ar1d, "burg_modified", nan_stage),
        "lattice_2d": (ar2d, "burg2d_modified", shifted_stage),
        "synth": (siggen, "gen_noisy_sinusoid", louder),
        "paper_cli": (cli, "main", drifting_output),
    }


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.fix_numpy_environment()
    sys.path.insert(0, str(run.SRC))
    import spans
    import workloads

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            rec = run.run(workload, SEED, SECONDS, trace, workloads.TINY_SIZES[workload])
            result = rec["result"]
            metrics = result["metrics"]
            names = {m["name"] for m in expected}
            if set(metrics) != names:
                problems.append(f"{workload} trace={trace}: metric names differ: "
                                f"{sorted(set(metrics) ^ names)}")
            for m in expected:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
                    problems.append(f"{workload} trace={trace}: {m['name']} = {got}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed: "
                                f"{rec['diagnostics']['errors']}")
            print(run.summary_line(rec), flush=True)

    modules = spans.SpanRecorder().modules
    bound = [(m, vars(m)) for m in modules.values()]
    bound.append((modules["siggen"].Lcg32, vars(modules["siggen"].Lcg32)))
    for owner, attrs in bound:
        problems += [f"{owner.__name__}.{a} is still wrapped"
                     for a, f in attrs.items() if hasattr(f, "__wrapped__")]

    for workload, (owner, attr, corrupt) in _corruptions(modules).items():
        original = getattr(owner, attr)
        setattr(owner, attr, corrupt)
        try:
            rec = run.run(workload, SEED, SECONDS, False, workloads.TINY_SIZES[workload])
        finally:
            setattr(owner, attr, original)
        print(f"corrupted {workload}: " + run.summary_line(rec), flush=True)
        if rec["result"]["failed"] == 0 or rec["diagnostics"]["failed_ratio"] <= 0:
            problems.append(f"{workload}: corrupted {attr} was not counted as failed")

    bare = run.WORK_ROOT / f"bare-{SEED}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "synth", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    print(f"bare directory: exit {done.returncode}, stderr {done.stderr.strip()!r}")
    if done.returncode == 0 or done.stdout.strip():
        problems.append("run.py succeeded or printed a result without the library sources")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
