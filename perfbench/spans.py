"""In-memory span recorder wrapped around the public functions of ``arspec``.

Every module-level public function of the eight layer modules, plus
``Lcg32.complex_normal``, is replaced by a timing wrapper under every name
an ``arspec`` module binds it to (``arspec.cli.levinson`` as well as
``arspec.ar1d.levinson``), so calls made by the library itself and calls
made by the benchmark are both seen. Nested spans give each layer its self
time. :meth:`SpanRecorder.uninstall` restores every wrapped name.
"""

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "io", "siggen", "spectrum", "autocorr", "ar1d", "ar2d", "linalg")

#: Inclusive span time per pass, reported as ``<metric>``: span name.
TIMED = {
    "siggen.gen_noisy_sinusoid.s": "siggen.gen_noisy_sinusoid",
    "siggen.lcg.s": "siggen.Lcg32.complex_normal",
    "spectrum.ar_spectrum_1d.s": "spectrum.ar_spectrum_1d",
    "spectrum.ar_spectrum_2d.s": "spectrum.ar_spectrum_2d",
    "spectrum.dft.s": "spectrum.dft",
    "spectrum.idft.s": "spectrum.idft",
    "autocorr.estimate_autocorr_1d.s": "autocorr.estimate_autocorr_1d",
    "autocorr.estimate_block_autocorr_2d.s": "autocorr.estimate_block_autocorr_2d",
    "autocorr.build_data_matrices.s": "autocorr.build_data_matrices",
    "ar1d.levinson.s": "ar1d.levinson",
    "ar1d.burg_classic.s": "ar1d.burg_classic",
    "ar1d.burg_modified.s": "ar1d.burg_modified",
    "ar1d.residual_mse.s": "ar1d.residual_mse",
    "ar2d.wwra.s": "ar2d.wwra",
    "ar2d.burg2d_classic.s": "ar2d.burg2d_classic",
    "ar2d.burg2d_modified.s": "ar2d.burg2d_modified",
    "ar2d.extract_quarter_plane_filter.s": "ar2d.extract_quarter_plane_filter",
    "ar2d.residual_mse_2d.s": "ar2d.residual_mse_2d",
    "linalg.solve_hermitian_dense.s": "linalg.solve_hermitian_dense",
    "linalg.max_rel_diff.s": "linalg.max_rel_diff",
}

#: ``cli.main`` spans are labelled by subcommand; one metric per label.
CLI_COMMANDS = (
    "phase_sweep",
    "order_sweep",
    "mse_vs_order",
    "equivalence",
    "gen",
    "est1d",
    "est2d",
    "spectrum",
)

_COMPLEX_BYTES = 16


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({f"cli.{c}.s": "s" for c in CLI_COMMANDS})
    units.update({m: "s" for m in TIMED})
    units.update(
        {
            "cli.bytes_written": "B",
            "io.read_s": "s",
            "io.write_s": "s",
            "siggen.samples": "count",
            "spectrum.bins": "count",
            "ar1d.orders_done_ratio": "ratio",
            "ar1d.lattice_bytes": "B",
            "ar2d.lattice_bytes": "B",
            "trace.overhead_s": "s",
        }
    )
    return units


def _cli_label(args, kwargs) -> str:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if len(argv) >= 2 and argv[0] == "experiment":
        return argv[1].replace("-", "_")
    return argv[0] if argv else ""


def _order_arg(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["order"])


def _ar1d_counts(counts, args, kwargs, result, support_sign) -> None:
    counts["ar1d.orders_requested"] += _order_arg(args, kwargs)
    counts["ar1d.orders_done"] += result.order
    if support_sign:
        n = len(args[0] if args else kwargs["x"])
        # Each stage reads and writes both error arrays over its support:
        # N - m samples when shrinking, N + m when zero-padded.
        supports = sum(n + support_sign * m for m in range(1, result.order + 1))
        counts["ar1d.lattice_bytes"] += 4 * _COMPLEX_BYTES * supports


def _ar2d_counts(counts, args, kwargs, result, support_sign) -> None:
    rows, cols = (args[0] if args else kwargs["x"]).shape
    p = result.channel_order + 1
    width = cols + result.channel_order
    supports = sum(rows + support_sign * m for m in range(1, result.order + 1))
    counts["ar2d.lattice_bytes"] += 4 * _COMPLEX_BYTES * p * width * supports


def _count_samples(counts, args, kwargs, result) -> None:
    counts["siggen.samples"] += len(result)


def _count_bins(counts, args, kwargs, result) -> None:
    counts["spectrum.bins"] += result.power.size


_COUNTERS = {
    "siggen.gen_noisy_sinusoid": _count_samples,
    "spectrum.ar_spectrum_1d": _count_bins,
    "spectrum.ar_spectrum_2d": _count_bins,
    "ar1d.levinson": lambda c, a, k, r: _ar1d_counts(c, a, k, r, 0),
    "ar1d.burg_classic": lambda c, a, k, r: _ar1d_counts(c, a, k, r, -1),
    "ar1d.burg_modified": lambda c, a, k, r: _ar1d_counts(c, a, k, r, +1),
    "ar2d.burg2d_classic": lambda c, a, k, r: _ar2d_counts(c, a, k, r, -1),
    "ar2d.burg2d_modified": lambda c, a, k, r: _ar2d_counts(c, a, k, r, +1),
}


def _targets(modules):
    """``(span name, function, [(owner, attribute), ...])`` for every wrap."""
    found = []
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
            ):
                continue
            owners = [(m, attr) for m in modules.values() if vars(m).get(attr) is fn]
            found.append((f"{layer}.{attr}", fn, owners))
    lcg = modules["siggen"].Lcg32
    found.append(
        ("siggen.Lcg32.complex_normal", lcg.complex_normal, [(lcg, "complex_normal")])
    )
    return found


class SpanRecorder:
    """Spans ``(pass, name, label, start, end, parent)`` kept in memory."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"arspec.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self.labels: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.passes: list[int] = []
        self.counts: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._pass = -1
        self._saved: list = []

    def install(self, pass_id: int) -> None:
        """Wrap every target and attribute new spans to ``pass_id``."""
        if self._saved:
            raise RuntimeError("recorder is already installed")
        self._pass = pass_id
        self.counts[pass_id] = defaultdict(float)
        for name, fn, owners in _targets(self.modules):
            wrapper = self._wrap(name, fn)
            for owner, attr in owners:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every name :meth:`install` replaced."""
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def add_count(self, pass_id: int, key: str, value: float) -> None:
        self.counts.setdefault(pass_id, defaultdict(float))[key] += value

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        label_of = _cli_label if name == "cli.main" else None
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            # A function calling itself through its own module name (as
            # solve_hermitian_dense does for side="right") stays one span.
            if stack and rec.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            sid = len(rec.names)
            rec.names.append(name)
            rec.labels.append(label_of(args, kwargs) if label_of else "")
            rec.parents.append(stack[-1] if stack else -1)
            rec.passes.append(rec._pass)
            rec.ends.append(0.0)
            stack.append(sid)
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[sid] = clock()
                stack.pop()
            if counter is not None:
                counter(rec.counts[rec._pass], args, kwargs, result)
            return result

        return wrapper

    def pass_metrics(self) -> dict[int, dict]:
        """Per-layer metric values of each traced pass."""
        by_pass: dict[int, dict] = {}
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        for sid, name in enumerate(self.names):
            m = by_pass.setdefault(self.passes[sid], defaultdict(float))
            dur = self.ends[sid] - self.starts[sid]
            layer, func = name.split(".", 1)
            m[f"{layer}.self_s"] += dur - child[sid]
            m[f"{layer}.calls"] += 1
            m[name] += dur
            if name == "cli.main":
                m[f"cli.{self.labels[sid]}.s"] += dur
            elif layer == "io" and (func.startswith("read_") or func.endswith("_from_dict")):
                m["io.read_s"] += dur
            elif layer == "io" and (func.startswith("write_") or func.endswith("_to_dict")):
                m["io.write_s"] += dur
        out = {}
        for pass_id, counts in self.counts.items():
            m = by_pass.get(pass_id, defaultdict(float))
            values = {
                metric: m.get(TIMED.get(metric, metric), 0.0)
                for metric in per_layer_units()
                if metric != "trace.overhead_s"
            }
            for key in ("cli.bytes_written", "siggen.samples", "spectrum.bins",
                        "ar1d.lattice_bytes", "ar2d.lattice_bytes"):
                values[key] = counts.get(key, 0.0)
            requested = counts.get("ar1d.orders_requested", 0.0)
            done = counts.get("ar1d.orders_done", 0.0)
            values["ar1d.orders_done_ratio"] = done / requested if requested else 1.0
            out[pass_id] = values
        return out

    def summary(self, traced_s: list[float], untraced_s: list[float]) -> dict:
        """Median over traced passes of each per-layer metric, with units."""
        passes = list(self.pass_metrics().values())
        units = per_layer_units()
        result = {}
        for metric, unit in units.items():
            if metric == "trace.overhead_s":
                value = statistics.median(traced_s) - statistics.median(untraced_s)
            else:
                value = statistics.median(p[metric] for p in passes)
            result[metric] = {"value": value, "unit": unit}
        return result

    def write_jsonl(self, path) -> None:
        """One span per line: pass, id, parent, name, label, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "pass": self.passes[sid],
                            "id": sid,
                            "parent": self.parents[sid],
                            "name": name,
                            "label": self.labels[sid],
                            "start": self.starts[sid],
                            "end": self.ends[sid],
                        }
                    )
                    + "\n"
                )
