"""Run every workload over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/suite.py                      # all workloads, seed 1
    python3 perfbench/suite.py --seeds 1-10         # ten seeds per workload
    python3 perfbench/suite.py --workloads synth --seeds 1-5

Each run is a separate untraced ``perfbench/run.py`` process, one after
another, for ``run_seconds`` from ``BENCHMARK.json``; traced runs are made
with ``run.py --trace 1`` directly. Each run prints its summary line:
``setup_s``, ``pass_rel.p50``, ``peak_rss_mb``, the wall ``pass_s.p50``
with its sample count and tail, and ``failed_ratio``, all with units. With
several seeds, each end-to-end metric then gets its median and the distance
between its first and third quartile as a share of the median, next to the
bound ``BENCHMARK.json`` fixes for it. Exits 1 if an output check failed or
a spread reached a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    """One untraced ``run.py`` process: its summary line and its result."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            summary, result = run_once(workload, seed, spec["run_seconds"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(summary, flush=True)
            steady &= result["correct"]
        if len(next(iter(values.values()))) < 4:
            continue
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            bound = bounds[name]
            ok = spread < bound / 3
            steady &= ok
            print(f"  {workload} {name}: median={median:.6g} iqr/median={spread:.4f} "
                  f"bound={bound} {'ok' if ok else 'SPREAD ABOVE BOUND/3'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
