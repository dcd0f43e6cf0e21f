"""Command-line interface: reproducible estimation and experiment artifacts.

Subcommands
-----------
``gen``                  synthesize a noisy-sinusoid record -> signal CSV.
``est1d``                signal CSV -> AR model JSON (levinson | burg | burg-mod).
``est2d``                grid CSV -> model JSON + quarter-plane filter JSON
                         (wwra | burg2d | burg2d-mod).
``spectrum``             model/filter JSON -> spectrum CSV.
``experiment phase-sweep``   one spectrum row per swept phase (matrix CSV).
``experiment order-sweep``   one spectrum row per order on a fixed record.
``experiment mse-vs-order``  residual MSE per order for several methods.
``experiment equivalence``   lattice-vs-recursion agreement suites -> JSON
                             verdict (exit 1 if a suite exceeds tolerance,
                             holds a non-finite value or a truncated history;
                             a non-finite deviation is written as null).

This module parses arguments and runs the recipes; every file format lives
in :mod:`arspec.io`. Every 1D recipe estimates its records with the batch
estimators of :mod:`arspec.ar1d` (``levinson_batch`` on the stacked lags of
:func:`~arspec.autocorr.estimate_autocorr_1d`, ``burg_classic_batch``,
``burg_modified_batch``), in batches of at most 2^15 stage coefficients,
so the stages held at once stay bounded; the module imports only public
names. A recipe returns ``(exit code, extra manifest fields)``, and :func:`main`
times it and writes exactly one manifest JSON recording the subcommand, the
parsed arguments as parameters, the effective argv, the seed, the library,
python and numpy versions, the input and output paths and the wall-clock
duration; ``est1d``, ``order-sweep`` and ``mse-vs-order`` also record the
methods that stopped before the requested order as ``early_stop``.
Re-running the recorded argv reproduces the data outputs byte-for-byte; all
randomness flows from the explicit seed. A command that takes ``--seed`` and
is not given it reads the ``ARSPEC_SEED`` environment default (1 when
unset); other commands never read it.

One path rule: each path option is declared once, by :func:`_path`, with
its role and default: ``--in`` is an input, ``--out`` and ``--filter-out``
(default ``<out>.filter.json``) are outputs, and ``--manifest`` (default
``<out>.manifest.json``) is the manifest. The defaults, the checks and the
manifest's path lists all come from that declaration. Before a recipe
runs, :func:`main` fills in the defaults and checks every path: it must not
be a directory, its parent must be one, and no two paths may name one file
(an existing file is known by its inode, any other path by
``os.path.realpath``). A path that fails is a usage error, and nothing is
written. The manifest lists the inputs and the outputs, in declaration
order.

Exit codes: 0 success, 1 failed equivalence verdict, 2 usage error,
3 numerical error. Errors are single machine-parsable lines on stderr:
``error: usage: ...`` or ``error: numerical: ...``.
"""

import argparse
import math
import os
import platform
import re
import sys
import time
from itertools import islice, zip_longest

import numpy as np

from . import __version__
from .ar1d import (
    ArModel1D,
    burg_classic_batch,
    burg_modified_batch,
    levinson_batch,
    residual_mse,
    stack_for_order,
)
from .ar2d import (
    ArModel2D,
    burg2d_classic,
    burg2d_modified,
    extract_quarter_plane_filter,
    grid_for_order,
    wwra,
)
from .autocorr import estimate_autocorr_1d, estimate_block_autocorr_2d
from .errors import NumericalError
from .io import (
    filter_to_dict,
    model1d_to_dict,
    model2d_to_dict,
    read_model,
    read_signal_2d_csv,
    read_signal_csv,
    write_csv,
    write_json,
    write_signal_csv,
    write_spectrum_csv,
)
from .linalg import max_rel_diff
from .siggen import Lcg32, SynthConfig, gen_noisy_sinusoid, phase_sweep
from .spectrum import ar_spectrum_1d, ar_spectrum_2d, frequency_grid, log10_power

# The estimators by method name. Each entry looks its estimator up when
# called, so a replaced module attribute takes effect. The 1D ones take a
# (B, N) stack of records and return a LatticeBatch.
_METHODS_1D = {
    "levinson": lambda x, p: levinson_batch(estimate_autocorr_1d(stack_for_order(x, p), p), p),
    "burg": lambda x, p: burg_classic_batch(x, p),
    "burg-mod": lambda x, p: burg_modified_batch(x, p),
}
_METHODS_2D = {
    "wwra": lambda x, n1, n2: wwra(
        estimate_block_autocorr_2d(x, n1, n2), n1, sample_terms=x.shape[0] + n1
    ),
    "burg2d": lambda x, n1, n2: burg2d_classic(x, n1, n2),
    "burg2d-mod": lambda x, n1, n2: burg2d_modified(x, n1, n2),
}

#: Stage coefficients per 1D batch (512 KiB).
_BATCH_COEFFS = 2**15

#: Parsed-argument attributes that are plumbing, not run parameters.
_NOT_PARAMETERS = ("func", "paths", "command", "experiment", "manifest")


def _default_seed() -> int:
    value = os.environ.get("ARSPEC_SEED", "1")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"ARSPEC_SEED must be an integer, got {value!r}") from None


#: Decimal digits as a Python float literal writes them, single underscores between.
_DIGITS = r"\d(?:_?\d)*"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value that float() reads with a leading minus, such as -1e-3,
        # -.5e2 or -inf, is a value; argparse's own pattern takes only -1
        # and -1.5, and reads the rest as options.
        self._negative_number_matcher = re.compile(
            rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[-+]?{_DIGITS})?"
            r"|inf|infinity|nan)$",
            re.IGNORECASE,
        )

    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _early_stops(order: int, last_orders: dict) -> dict:
    """The manifest's ``early_stop``: ``{method: last order}`` for the methods
    that stopped before the requested ``order``."""
    return {"early_stop": {m: n for m, n in last_orders.items() if n < order}}


def _path(parser, flag: str, role: str, default: str = "", **kwargs) -> None:
    """Add the path option ``flag``, declaring once a file that the run
    reads (``role`` "inputs"), writes ("outputs") or records the run in
    ("manifest"). ``default`` names the file when the option is not given,
    as a format of the parsed arguments such as ``"{out}.filter.json"``,
    and the help text shows it."""
    kwargs["help"] += f" (default {default.format(out='<out>')})" if default else ""
    dest = parser.add_argument(flag, **kwargs).dest
    parser.set_defaults(paths={**(parser.get_default("paths") or {}), flag: (dest, role, default)})


def _resolve_paths(args) -> dict:
    """Fill in the default paths, and return the manifest's ``inputs`` and
    ``outputs``: the declared paths of those two roles.

    Raise ``ValueError`` before anything is written if a path is a directory
    or its parent is not, or if two paths name the same file: an output must
    not overwrite the input or another output.
    """
    seen, listed = {}, {"inputs": [], "outputs": []}
    for flag, (dest, role, default) in args.paths.items():
        path = getattr(args, dest) or default.format_map(vars(args))
        setattr(args, dest, path)
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path!r} is not a file in an existing directory")
        # An existing file is known by its inode, so that a hard link to it
        # names it too; a file still to be written, by its real path.
        try:
            key = (stat := os.stat(path)).st_dev, stat.st_ino
        except OSError:
            key = os.path.realpath(path)
        if key in seen:
            raise ValueError(f"{seen[key]} and {flag} name the same file {path!r}")
        seen[key] = flag
        if role in listed:
            listed[role].append(path)
    return listed


def _write_manifest(args, argv: list, start: float, **fields) -> None:
    """Write the manifest of the run of ``argv``; its parameters are the parsed arguments.

    ``fields`` adds the run's ``inputs`` and ``outputs``, and entries that
    only some subcommands record.
    """
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    subcommand = args.command
    if subcommand == "experiment":
        subcommand += " " + args.experiment
    write_json(
        args.manifest,
        {
            "subcommand": subcommand,
            "parameters": params,
            "argv": argv,
            "seed": params.get("seed"),
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "duration_seconds": time.perf_counter() - start,
            **fields,
        },
    )


def _write_spectra(args, row_name: str, labels: list, powers: list) -> None:
    """One row of power (or log10 power) per label, under a frequency header."""
    header = [row_name, *frequency_grid(args.nfreq).tolist()]
    if args.log10:
        powers = map(log10_power, powers)
    write_csv(args.out, header, ([x, *p.tolist()] for x, p in zip(labels, powers)))


def _batches(records, order: int):
    """``(B, N)`` stacks of the equal-length ``records`` for an order-``order``
    run, of at most ``_BATCH_COEFFS`` stage coefficients, each drawn when due."""
    per_batch = max(1, _BATCH_COEFFS // max(1, order * (order + 1) // 2))
    records = iter(records)
    while chunk := list(islice(records, per_batch)):
        yield np.stack(chunk)


def _model(method: str, x: np.ndarray, order: int) -> ArModel1D:
    """``method``'s order-``order`` model of the one record ``x``."""
    return _METHODS_1D[method](np.asarray(x)[None], order).model(0)


def _cmd_gen(args):
    cfg = SynthConfig(args.n, args.freq, args.phase, args.snr_db, args.seed)
    write_signal_csv(args.out, gen_noisy_sinusoid(cfg, substream=args.substream))
    return 0, {}


def _cmd_est1d(args):
    model = _model(args.method, read_signal_csv(args.input), args.order)
    write_json(args.out, model1d_to_dict(model, args.method))
    return 0, _early_stops(args.order, {args.method: model.order})


def _cmd_est2d(args):
    x = grid_for_order(read_signal_2d_csv(args.input), args.n1, args.n2)
    model = _METHODS_2D[args.method](x, args.n1, args.n2)
    filt = extract_quarter_plane_filter(model)
    write_json(args.out, model2d_to_dict(model, args.method))
    write_json(args.filter_out, filter_to_dict(filt))
    return 0, {}


def _cmd_spectrum(args):
    model = read_model(args.input)
    if isinstance(model, ArModel1D):
        grid = ar_spectrum_1d(model, args.nfreq)
    else:
        if isinstance(model, ArModel2D):
            model = extract_quarter_plane_filter(model)
        grid = ar_spectrum_2d(model, args.nf1, args.nf2)
    write_spectrum_csv(args.out, grid)
    return 0, {}


def _cmd_phase_sweep(args):
    cfg = SynthConfig(args.n, args.freq, 0.0, args.snr_db, args.seed)
    powers = []
    for x in _batches(phase_sweep(cfg, args.steps), args.order):
        batch = _METHODS_1D[args.method](x, args.order)
        powers += (ar_spectrum_1d(batch.model(b), args.nfreq).power for b in range(len(x)))
    phases = [2.0 * math.pi * j / args.steps for j in range(args.steps)]
    _write_spectra(args, "phase", phases, powers)
    return 0, {}


def _cmd_order_sweep(args):
    cfg = SynthConfig(args.n, args.freq, args.phase, args.snr_db, args.seed)
    history = _model(args.method, gen_noisy_sinusoid(cfg), args.max_order).history
    powers = [ar_spectrum_1d(st, args.nfreq).power for st in history]
    _write_spectra(args, "order", [st.order for st in history], powers)
    return 0, _early_stops(args.max_order, {args.method: len(history)})


def _cmd_mse_vs_order(args):
    args.methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not args.methods:
        raise ValueError("--methods names no method")
    for i, m in enumerate(args.methods):
        if m not in _METHODS_1D:
            raise ValueError(f"unknown method {m!r}, expected one of {tuple(_METHODS_1D)}")
        if m in args.methods[:i]:
            raise ValueError(f"--methods names {m!r} twice")
    cfg = SynthConfig(args.n, args.freq, args.phase, args.snr_db, args.seed)
    x = gen_noisy_sinusoid(cfg)
    table = {
        method: [
            residual_mse(x, st, support=args.support)
            for st in _model(method, x, args.max_order).history
        ]
        for method in args.methods
    }
    # A method that stopped early leaves its cells past its last order empty.
    rows = ([i, *row] for i, row in enumerate(zip_longest(*table.values()), 1))
    write_csv(args.out, ["order", *(f"mse_{m}" for m in table)], rows)
    return 0, _early_stops(args.max_order, {m: len(col) for m, col in table.items()})


def _stage_deviation(ref, est) -> float:
    """Largest stage-by-stage coefficient deviation between two
    :class:`~arspec.ar1d.LatticeBatch` runs over the same records.

    A stage's deviation is relative to the larger magnitude peak of its two
    sides (0.0 when both are zero) and ``inf`` when an entry is not finite;
    the result is ``inf`` when a record's two stage counts differ, so a
    truncated route cannot pass.
    """
    if not np.array_equal(ref.stages, est.stages):
        return math.inf
    starts = ref.starts
    with np.errstate(all="ignore"):
        # maximum propagates NaN, and |z| is infinite when a part of z is.
        peak = np.maximum(np.abs(ref.coeffs), np.abs(est.coeffs))
        peak = np.maximum.reduceat(peak, starts, axis=1)
        gap = np.maximum.reduceat(np.abs(ref.coeffs - est.coeffs), starts, axis=1)
    dev = np.where(np.isfinite(peak), gap / np.where(peak > 0.0, peak, 1.0), math.inf)
    done = np.arange(len(starts)) < ref.stages[:, None]
    return float(dev[done].max(initial=0.0))


def equivalence_report(trials_1d: int, trials_2d: int, seed: int) -> dict:
    """Lattice-vs-recursion deviation suites over seeded random inputs.

    The 1D suite estimates the records of each length (8, 20, 64) in
    batches; trial ``i`` draws its record from substream ``1000 + i``.
    """
    if trials_1d < 1 or trials_2d < 1:
        raise ValueError(f"--trials and --trials-2d must be >= 1, got {trials_1d} and {trials_2d}")
    sizes = (8, 20, 64)
    dev1 = 0.0
    for first, n in enumerate(sizes[:trials_1d]):
        max_order = n - 5
        trials = range(first, trials_1d, len(sizes))
        # Drawn per batch, so memory stays flat in --trials.
        records = (Lcg32(seed, substream=1000 + i).complex_normal(n) for i in trials)
        for x in _batches(records, max_order):
            lev = _METHODS_1D["levinson"](x, max_order)
            mod = _METHODS_1D["burg-mod"](x, max_order)
            dev1 = max(dev1, _stage_deviation(lev, mod))

    grid_sizes = (5, 8)
    dev2 = 0.0
    for i in range(trials_2d):
        n1_len = grid_sizes[i % 2]
        n2_len = grid_sizes[(i // 2) % 2]
        order = 1 + i % 3
        channel = (i // 3) % 3
        raw = Lcg32(seed, substream=2000 + i).complex_normal(n1_len * n2_len)
        x = raw.reshape(n1_len, n2_len)
        mod = _METHODS_2D["burg2d-mod"](x, order, channel)
        ww = _METHODS_2D["wwra"](x, order, channel)
        # The lattice's history starts at order 0, the recursion's at 1.
        if len(ww.history) != len(mod.history) - 1:
            dev2 = math.inf
        for a, b in zip(ww.history, mod.history[1:]):
            dev2 = max(dev2, max_rel_diff(a.coeffs, b.coeffs))

    suites = (("equivalence_1d", trials_1d, dev1, 1e-9), ("equivalence_2d", trials_2d, dev2, 1e-8))
    # A non-finite deviation is written as null: strict JSON has no Infinity.
    report = {
        suite: {
            "trials": trials,
            "max_rel_deviation": dev if math.isfinite(dev) else None,
            "tolerance": tol,
            "pass": dev <= tol,
        }
        for suite, trials, dev, tol in suites
    }
    report["pass"] = all(block["pass"] for block in report.values())
    return report


def _cmd_equivalence(args):
    report = equivalence_report(args.trials, args.trials_2d, args.seed)
    write_json(args.out, report)
    return (0 if report["pass"] else 1), {}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arspec", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"arspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option that several subcommands share is declared once, here.
    output = argparse.ArgumentParser(add_help=False)
    _path(output, "--out", "outputs", required=True, help="output path")
    _path(output, "--manifest", "manifest", "{out}.manifest.json", help="manifest path")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, help="seed (default $ARSPEC_SEED, else 1)")
    synth = argparse.ArgumentParser(add_help=False)
    synth.add_argument("--n", type=int, default=20, help="record length")
    synth.add_argument("--freq", type=float, default=0.25, help="normalized frequency")
    synth.add_argument("--snr-db", type=float, default=30.0, help="exact SNR in dB")
    synth.add_argument("--noiseless", action="store_true", help="disable noise entirely")
    phase = argparse.ArgumentParser(add_help=False)
    phase.add_argument("--phase", type=float, default=0.0, help="phase in radians")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--method", choices=_METHODS_1D, default="levinson")
    sweep.add_argument("--nfreq", type=int, default=1024, help="frequency bins")
    sweep.add_argument("--log10", action="store_true", help="emit log10 power")

    p = sub.add_parser(
        "gen", parents=[output, seed, synth, phase], help="synthesize a noisy-sinusoid signal CSV"
    )
    p.add_argument("--substream", type=int, default=0, help="noise substream index")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("est1d", parents=[output], help="estimate a 1D AR model from a signal CSV")
    p.add_argument("--method", choices=_METHODS_1D, required=True)
    p.add_argument("--order", type=int, required=True)
    _path(p, "--in", "inputs", dest="input", required=True, help="signal CSV path")
    p.set_defaults(func=_cmd_est1d)

    p = sub.add_parser("est2d", parents=[output], help="estimate a 2D AR model from a grid CSV")
    p.add_argument("--method", choices=_METHODS_2D, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    _path(p, "--in", "inputs", dest="input", required=True, help="2D signal CSV path")
    _path(p, "--filter-out", "outputs", "{out}.filter.json", help="filter JSON path")
    p.set_defaults(func=_cmd_est2d)

    p = sub.add_parser("spectrum", parents=[output], help="evaluate an AR spectrum from model JSON")
    _path(p, "--in", "inputs", dest="input", required=True, help="model/filter JSON path")
    p.add_argument("--nfreq", type=int, default=1024, help="1D frequency bins")
    p.add_argument("--nf1", type=int, default=128, help="2D bins, first axis")
    p.add_argument("--nf2", type=int, default=128, help="2D bins, second axis")
    p.set_defaults(func=_cmd_spectrum)

    pexp = sub.add_parser("experiment", help="batch experiment recipes")
    esub = pexp.add_subparsers(dest="experiment", required=True)

    p = esub.add_parser(
        "phase-sweep", parents=[output, seed, synth, sweep], help="spectrum per swept phase"
    )
    p.add_argument("--order", type=int, default=15)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=_cmd_phase_sweep)

    p = esub.add_parser(
        "order-sweep",
        parents=[output, seed, synth, phase, sweep],
        help="spectrum per order on one record",
    )
    p.add_argument("--max-order", type=int, default=19)
    p.set_defaults(func=_cmd_order_sweep)

    p = esub.add_parser(
        "mse-vs-order",
        parents=[output, seed, synth, phase],
        help="residual MSE per order per method",
    )
    p.add_argument("--methods", default="burg,burg-mod,levinson")
    p.add_argument("--max-order", type=int, default=19)
    p.add_argument(
        "--support",
        choices=("full", "window"),
        default="full",
        help="residual support: full zero-padded (monotone for burg-mod) "
        "or the bare data window",
    )
    p.set_defaults(func=_cmd_mse_vs_order)

    p = esub.add_parser(
        "equivalence", parents=[output, seed], help="lattice-vs-recursion oracle suites"
    )
    p.add_argument("--trials", type=int, default=200, help="1D suite size")
    p.add_argument("--trials-2d", type=int, default=50, help="2D suite size")
    p.set_defaults(func=_cmd_equivalence)

    return parser


def main(argv=None) -> int:
    effective = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(effective)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "noiseless", False):
        args.snr_db = None
    start = time.perf_counter()
    try:
        # ``--seed`` beats ARSPEC_SEED, which only commands with a seed read.
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        paths = _resolve_paths(args)
        # No float warnings on stderr: a non-finite estimate raises instead.
        with np.errstate(all="ignore"):
            code, fields = args.func(args)
        _write_manifest(args, effective, start, **paths, **fields)
        return code
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
