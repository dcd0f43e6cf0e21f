"""The four benchmark workloads: inputs from a seed, one pass, output checks.

A workload is built once (its set-up: inputs generated here from the seed,
input files written), then driven closed-loop: ``ops`` lists the
operations of one pass, each a callable taking the results of the earlier
operations of the same pass, and ``checks`` gives, per operation, the check
of its output that runs outside the timed interval. ``reference`` is the
benchmark's own kernel that pass times are compared with. The library only
ever receives the generated inputs.

Every library call goes through a module attribute (``ar1d.burg_modified``,
``cli.main``) at call time, so the span recorder's wrappers see it.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from arspec import ar1d, ar2d, autocorr, cli, siggen, spectrum

#: Tolerances of the acceptance gate (C01, C02, C08) and of the library's
#: documented identities; the spectrum and residual references below are
#: FFT evaluations, so they agree to rounding, far inside 1e-8.
TOL_1D = 1e-9
TOL_2D = 1e-8
TOL_SNR_DB = 1e-9
TOL_MSE = 1e-9
TOL_SPECTRUM = 1e-8

PAPER_SIZES = {
    "paper_cli": {"steps": 100, "nfreq": 1024, "trials": 200, "trials_2d": 50,
                  "grid": 16, "nf2d": 128},
    "lattice_1d": {"n": 100_000, "order": 400, "nfreq": 4096},
    "lattice_2d": {"rows": 128, "cols": 128, "n1": 16, "n2": 16, "nf": 128},
    "synth": {"n": 4096, "snr_db": 10.0},
}

TINY_SIZES = {
    "paper_cli": {"steps": 3, "nfreq": 32, "trials": 3, "trials_2d": 2,
                  "grid": 6, "nf2d": 8},
    "lattice_1d": {"n": 300, "order": 12, "nfreq": 64},
    "lattice_2d": {"rows": 10, "cols": 9, "n1": 3, "n2": 2, "nf": 8},
    "synth": {"n": 64, "snr_db": 10.0},
}

#: Noise variance next to unit-amplitude tones (10 dB per tone).
_NOISE_VAR = 0.1


def _complex_noise(rng, shape) -> np.ndarray:
    scale = math.sqrt(_NOISE_VAR / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _tones_1d(rng, n: int) -> np.ndarray:
    k = np.arange(n)
    freqs = rng.uniform(-0.45, 0.45, 2)
    phases = rng.uniform(0.0, 2.0 * math.pi, 2)
    tones = np.exp(1j * (2.0 * math.pi * freqs[:, None] * k + phases[:, None]))
    return tones.sum(axis=0) + _complex_noise(rng, n)


def _tones_2d(rng, rows: int, cols: int) -> np.ndarray:
    k, t = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    grid = _complex_noise(rng, (rows, cols))
    for _ in range(2):
        f1, f2 = rng.uniform(-0.45, 0.45, 2)
        grid += np.exp(1j * (2.0 * math.pi * (f1 * k + f2 * t) + rng.uniform(0, 2 * math.pi)))
    return grid


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a)).all() for a in arrays)


def _close(a, b, tol: float) -> bool:
    """Entrywise ``|a - b| <= tol * max(|a|, |b|)``; NaN or Inf fails."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or not _finite(a, b):
        return False
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return bool(np.abs(a - b).max(initial=0.0) <= tol * scale)


def _stages_agree(reference: list, lattice: list, tol: float) -> bool:
    """Stage-by-stage coefficient agreement over equal-length histories."""
    if not reference or len(reference) != len(lattice):
        return False
    return all(
        r.order == s.order and _close(r.coeffs, s.coeffs, tol)
        for r, s in zip(reference, lattice)
    )


def _bins_close(power, reference, tol: float) -> bool:
    power = np.asarray(power)
    return (
        power.shape == reference.shape
        and _finite(power, reference)
        and bool(np.all(power > 0.0))
        and bool(np.all(np.abs(power - reference) <= tol * reference))
    )


def _grid_index(nfreq: int) -> np.ndarray:
    """FFT bin of each point of the library's ``[-0.5, 0.5)`` grid."""
    return (np.arange(nfreq) - nfreq // 2) % nfreq


def ar_power_1d(coeffs, error_power: float, nfreq: int) -> np.ndarray:
    """Reference 1D AR spectrum by FFT of the prediction polynomial."""
    poly = np.fft.fft(np.concatenate([[1.0], coeffs]), nfreq)[_grid_index(nfreq)]
    return error_power / np.abs(poly) ** 2


def ar_power_2d(coeffs, noise_power: float, nf1: int, nf2: int) -> np.ndarray:
    """Reference 2D quarter-plane AR spectrum by 2D FFT of the filter."""
    poly = np.fft.fft2(coeffs, (nf1, nf2))[np.ix_(_grid_index(nf1), _grid_index(nf2))]
    return noise_power / np.abs(poly) ** 2


def realized_snr_ok(x, n: int, freq: float, phase: float, snr_db: float) -> bool:
    """The record minus its clean sinusoid has exactly the requested SNR."""
    x = np.asarray(x)
    if x.shape != (n,) or not _finite(x):
        return False
    k = np.arange(n)
    clean = np.exp(1j * (2.0 * np.pi * freq * k + phase))
    noise = x - clean
    realized = 10.0 * math.log10(np.vdot(clean, clean).real / np.vdot(noise, noise).real)
    return abs(realized - snr_db) <= TOL_SNR_DB


class Workload:
    """One workload: set-up in ``__init__``, then closed-loop passes."""

    def before_pass(self, pass_id: int) -> None:
        """Prepare pass ``pass_id``, outside the timed interval."""

    def ops(self, pass_id: int) -> list:
        """``[(name, call)]``: the operations of pass ``pass_id``."""
        raise NotImplementedError

    def checks(self, pass_id: int) -> dict:
        """``{name: check}``: each check takes the pass results."""
        raise NotImplementedError

    def reference(self) -> None:
        """A fixed kernel of the same character as a pass, owned by the
        benchmark so that no library change moves it. It is timed between
        passes and pass times are reported relative to it; only its cost
        matters, its results are discarded."""
        raise NotImplementedError

    def pass_counts(self, pass_id: int) -> dict:
        """Counts of pass ``pass_id`` taken outside the library."""
        return {}


class Lattice1D(Workload):
    """Long-record 1D estimation: N complex samples, order p."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.n = sizes["n"]
        self.order = sizes["order"]
        self.nfreq = sizes["nfreq"]
        self.x = _tones_1d(np.random.default_rng(seed), self.n)

    def ops(self, pass_id: int) -> list:
        x, p = self.x, self.order
        return [
            ("levinson", lambda r: ar1d.levinson(autocorr.estimate_autocorr_1d(x, p), p)),
            ("burg_classic", lambda r: ar1d.burg_classic(x, p)),
            ("burg_modified", lambda r: ar1d.burg_modified(x, p)),
            ("ar_spectrum_1d", lambda r: spectrum.ar_spectrum_1d(r["burg_modified"], self.nfreq)),
            ("residual_mse", lambda r: ar1d.residual_mse(x, r["burg_modified"], support="full")),
        ]

    def reference(self) -> None:
        # Zero-padded lattice stages on the same record.
        ef = self.x.copy()
        eb = self.x.copy()
        zero = np.zeros(1, dtype=complex)
        for _ in range(self.order // 5):
            k = -np.vdot(eb[:-1], ef[1:]) / np.vdot(ef, ef).real
            ef_pad = np.concatenate([ef, zero])
            eb_prev = np.concatenate([zero, eb])
            ef = ef_pad + k * eb_prev
            eb = eb_prev + k.conjugate() * ef_pad

    def _full_model(self, model) -> bool:
        return (
            len(model.history) == self.order
            and model.order == self.order
            and _finite(model.coeffs, model.error_power)
            and model.error_power > 0.0
        )

    def checks(self, pass_id: int) -> dict:
        return {
            "levinson": lambda r: self._full_model(r["levinson"]),
            "burg_classic": lambda r: self._full_model(r["burg_classic"])
            and all(abs(st.reflection) < 1.0 for st in r["burg_classic"].history),
            "burg_modified": lambda r: self._full_model(r["burg_modified"])
            and _stages_agree(r["levinson"].history, r["burg_modified"].history, TOL_1D),
            "ar_spectrum_1d": lambda r: _bins_close(
                r["ar_spectrum_1d"].power,
                ar_power_1d(r["burg_modified"].coeffs, r["burg_modified"].error_power, self.nfreq),
                TOL_SPECTRUM,
            ),
            # Over the full zero-padded support the residual energy of the
            # zero-padded lattice's model is its recursion error power.
            "residual_mse": lambda r: _close(
                r["residual_mse"], r["burg_modified"].error_power / self.n, TOL_MSE
            ),
        }


def _residual_mse_2d(x, coeffs) -> float:
    """Reference quarter-plane residual MSE by FFT convolution."""
    shape = (x.shape[0] + coeffs.shape[0] - 1, x.shape[1] + coeffs.shape[1] - 1)
    res = np.fft.ifft2(np.fft.fft2(x, shape) * np.fft.fft2(coeffs, shape))
    return float(np.mean(np.abs(res[: x.shape[0], : x.shape[1]]) ** 2))


class Lattice2D(Workload):
    """2D estimation on one grid: WWRA, both 2D lattices, filter, spectrum."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.n1 = sizes["n1"]
        self.n2 = sizes["n2"]
        self.nf = sizes["nf"]
        self.x = _tones_2d(np.random.default_rng(seed), sizes["rows"], sizes["cols"])

    def ops(self, pass_id: int) -> list:
        x, n1, n2 = self.x, self.n1, self.n2
        return [
            ("wwra", lambda r: ar2d.wwra(
                autocorr.estimate_block_autocorr_2d(x, n1, n2), n1, sample_terms=x.shape[0] + n1
            )),
            ("burg2d_classic", lambda r: ar2d.burg2d_classic(x, n1, n2)),
            ("burg2d_modified", lambda r: ar2d.burg2d_modified(x, n1, n2)),
            ("extract_quarter_plane_filter",
             lambda r: ar2d.extract_quarter_plane_filter(r["burg2d_modified"])),
            ("ar_spectrum_2d",
             lambda r: spectrum.ar_spectrum_2d(r["extract_quarter_plane_filter"], self.nf, self.nf)),
            ("residual_mse_2d",
             lambda r: ar2d.residual_mse_2d(x, r["extract_quarter_plane_filter"])),
        ]

    def reference(self) -> None:
        # Block moments and block updates of 2D lattice stages on the same
        # grid, each followed by a small elimination loop like a dense solve.
        p = self.n2 + 1
        rows, cols = self.x.shape
        blocks = np.zeros((rows, p, cols + self.n2), dtype=complex)
        for i in range(p):
            blocks[:, i, i : i + cols] = self.x
        for _ in range(self.n1 // 2):
            moment = np.einsum("kiw,kjw->ij", blocks[1:], blocks[:-1].conj())
            scale = np.abs(moment).max()
            blocks[1:] + (moment / scale) @ blocks[:-1]
            lu = moment + scale * np.eye(p)
            for k in range(p - 1):
                lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k] / lu[k, k], lu[k, k + 1 :])

    def _full_model(self, model, stages: int) -> bool:
        return (
            len(model.history) == stages
            and model.coeffs.shape == (self.n1, self.n2 + 1, self.n2 + 1)
            and _finite(model.coeffs, model.error_power)
        )

    def _filter_ok(self, filt, model) -> bool:
        top = np.zeros(self.n2 + 1)
        top[0] = 1.0
        return (
            filt.coeffs.shape == (self.n1 + 1, self.n2 + 1)
            and np.array_equal(filt.coeffs[0], top)
            and np.array_equal(filt.coeffs[1:], model.coeffs[:, 0, :])
            and _finite(filt.noise_power)
            and filt.noise_power > 0.0
        )

    def checks(self, pass_id: int) -> dict:
        n1 = self.n1
        return {
            "wwra": lambda r: self._full_model(r["wwra"], n1),
            "burg2d_classic": lambda r: self._full_model(r["burg2d_classic"], n1 + 1),
            # The lattice history starts with the order-0 stage.
            "burg2d_modified": lambda r: self._full_model(r["burg2d_modified"], n1 + 1)
            and _stages_agree(r["wwra"].history, r["burg2d_modified"].history[1:], TOL_2D),
            "extract_quarter_plane_filter": lambda r: self._filter_ok(
                r["extract_quarter_plane_filter"], r["burg2d_modified"]
            ),
            "ar_spectrum_2d": lambda r: _bins_close(
                r["ar_spectrum_2d"].power,
                ar_power_2d(
                    r["extract_quarter_plane_filter"].coeffs,
                    r["extract_quarter_plane_filter"].noise_power,
                    self.nf,
                    self.nf,
                ),
                TOL_SPECTRUM,
            ),
            "residual_mse_2d": lambda r: _close(
                r["residual_mse_2d"],
                _residual_mse_2d(self.x, r["extract_quarter_plane_filter"].coeffs),
                TOL_MSE,
            ),
        }


#: DFT rows per block of the ``synth`` reference kernel (8 MiB at N=4096).
_REF_DFT_ROWS = 128


class Synth(Workload):
    """Exact-SNR record synthesis, one fresh noise substream per pass."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cfg = siggen.SynthConfig(
            sizes["n"],
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            sizes["snr_db"],
            seed,
        )
        self.vector = _complex_noise(rng, sizes["n"])

    def ops(self, pass_id: int) -> list:
        return [
            ("gen_noisy_sinusoid",
             lambda r: siggen.gen_noisy_sinusoid(self.cfg, substream=pass_id)),
        ]

    def reference(self) -> None:
        # Half the rows of an O(N^2) DFT: the same exp of an outer product
        # and matrix-vector product. The rows go in blocks that outgrow the
        # L2 but keep the kernel's memory far below the pass's, so that
        # peak_rss_mb stays the library's.
        n = self.cfg.n
        k = np.arange(n)
        scale = -2j * np.pi / n
        for start in range(0, n // 2, _REF_DFT_ROWS):
            block = np.outer(k[start : start + _REF_DFT_ROWS], k) * scale
            np.exp(block, out=block) @ self.vector

    def checks(self, pass_id: int) -> dict:
        c = self.cfg
        return {
            "gen_noisy_sinusoid": lambda r: realized_snr_ok(
                r["gen_noisy_sinusoid"], c.n, c.freq, c.phase, c.snr_db
            ),
        }


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _pairs(values) -> np.ndarray:
    return np.asarray(values, dtype=float) @ np.array([1.0, 1.0j])


def _levinson_scalar(lags: list) -> list:
    """Levinson-Durbin recursion over all given lags, on Python scalars."""
    a = [1.0 + 0j]
    err = lags[0].real
    for m in range(1, len(lags)):
        k = -sum(a[i] * lags[m - i] for i in range(m)) / err
        ext = a + [0j]
        a = [ext[i] + k * ext[m - i].conjugate() for i in range(m + 1)]
        err *= 1.0 - abs(k) ** 2
    return a


class PaperCli(Workload):
    """The paper-scale ``arspec`` command recipes, run through ``cli.main``.

    The short-record recipes fix N=20, p=15 and max order 19 as in the
    paper; only the sweep sizes, the equivalence trial counts and the 2D
    grid follow ``sizes``.
    """

    #: Data files each command writes (manifests carry a duration and are
    #: only counted in ``cli.bytes_written``).
    OUTPUTS = {
        "phase_sweep": ["sweep.csv"],
        "order_sweep": ["orders.csv"],
        "mse_vs_order": ["mse.csv"],
        "equivalence": ["verdict.json"],
        "gen": ["signal.csv"],
        "est1d": ["model1d.json"],
        "spectrum_1d": ["spectrum1d.csv"],
        "est2d": ["model2d.json", "filter2d.json"],
        "spectrum_2d": ["spectrum2d.csv"],
    }

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.grid = _tones_2d(rng, sizes["grid"], sizes["grid"])
        self.grid_csv = workdir / "grid.csv"
        with open(self.grid_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,t,re,im\n")
            for (k, t), z in np.ndenumerate(self.grid):
                fh.write(f"{k},{t},{float(z.real)!r},{float(z.imag)!r}\n")
        self.ref_signal = _complex_noise(rng, 20)
        x = self.ref_signal
        self.ref_lags = [complex(np.vdot(x[: x.size - t], x[t:])) / x.size for t in range(16)]
        self.expected: dict = {}

    def _argv(self) -> dict:
        s, o, seed = self.sizes, self.out, str(self.seed)
        return {
            "phase_sweep": ["experiment", "phase-sweep", "--method", "levinson", "--order", "15",
                            "--n", "20", "--steps", str(s["steps"]), "--nfreq", str(s["nfreq"]),
                            "--seed", seed, "--out", str(o / "sweep.csv")],
            "order_sweep": ["experiment", "order-sweep", "--method", "burg", "--max-order", "19",
                            "--nfreq", str(s["nfreq"]), "--seed", seed,
                            "--out", str(o / "orders.csv")],
            "mse_vs_order": ["experiment", "mse-vs-order", "--methods", "burg,burg-mod,levinson",
                             "--max-order", "19", "--seed", seed, "--out", str(o / "mse.csv")],
            "equivalence": ["experiment", "equivalence", "--trials", str(s["trials"]),
                            "--trials-2d", str(s["trials_2d"]), "--seed", seed,
                            "--out", str(o / "verdict.json")],
            "gen": ["gen", "--n", "20", "--seed", seed, "--out", str(o / "signal.csv")],
            "est1d": ["est1d", "--method", "burg-mod", "--order", "15",
                      "--in", str(o / "signal.csv"), "--out", str(o / "model1d.json")],
            "spectrum_1d": ["spectrum", "--in", str(o / "model1d.json"),
                            "--nfreq", str(s["nfreq"]), "--out", str(o / "spectrum1d.csv")],
            "est2d": ["est2d", "--method", "burg2d-mod", "--n1", "2", "--n2", "2",
                      "--in", str(self.grid_csv), "--out", str(o / "model2d.json"),
                      "--filter-out", str(o / "filter2d.json")],
            "spectrum_2d": ["spectrum", "--in", str(o / "model2d.json"),
                            "--nf1", str(s["nf2d"]), "--nf2", str(s["nf2d"]),
                            "--out", str(o / "spectrum2d.csv")],
        }

    def before_pass(self, pass_id: int) -> None:
        # A command that silently writes nothing must not pass on the
        # previous pass's file.
        for path in self.out.iterdir():
            path.unlink()

    def reference(self) -> None:
        # Order-15 Levinson recursions on Python complex scalars, and
        # order-15 polynomials evaluated on nfreq bins as in a spectrum, in
        # about equal shares. Float formatting and many tiny numpy calls,
        # also large parts of a pass, sped up 12-19% more than the pass did
        # in fast periods of the shared machine, so they are left out.
        for _ in range(12 * self.sizes["steps"]):
            _levinson_scalar(self.ref_lags)
        nfreq = self.sizes["nfreq"]
        lags = np.arange(1, 16)
        freqs = np.arange(-(nfreq // 2), nfreq - nfreq // 2) / nfreq
        for _ in range(self.sizes["steps"] + self.sizes["steps"] // 2):
            poly = 1.0 + np.exp(-2j * np.pi * np.outer(freqs, lags)) @ self.ref_signal[:15]
            np.abs(poly) ** -2

    def ops(self, pass_id: int) -> list:
        return [(op, lambda r, argv=argv: cli.main(argv)) for op, argv in self._argv().items()]

    def checks(self, pass_id: int) -> dict:
        return {op: (lambda r, op=op: self._check(op, r[op], pass_id)) for op in self.OUTPUTS}

    def _check(self, op: str, exit_code, pass_id: int) -> bool:
        digests = [_sha256(self.out / name) for name in self.OUTPUTS[op]]
        if pass_id == 0:
            # The warm-up outputs are validated on their content; every
            # later pass must reproduce them byte for byte.
            ok = exit_code == 0 and None not in digests and getattr(self, f"_valid_{op}")()
            self.expected[op] = digests if ok else None
            return ok
        return exit_code == 0 and self.expected.get(op) is not None and digests == self.expected[op]

    def pass_counts(self, pass_id: int) -> dict:
        return {"cli.bytes_written": sum(p.stat().st_size for p in self.out.iterdir())}

    def _valid_phase_sweep(self) -> bool:
        rows = _read_csv(self.out / "sweep.csv")
        return rows.shape == (self.sizes["steps"], self.sizes["nfreq"] + 1) and bool(
            np.all(rows[:, 1:] > 0) and _finite(rows)
        )

    def _valid_order_sweep(self) -> bool:
        rows = _read_csv(self.out / "orders.csv")
        return (
            rows.shape == (19, self.sizes["nfreq"] + 1)
            and np.array_equal(rows[:, 0], np.arange(1, 20))
            and bool(np.all(rows[:, 1:] > 0) and _finite(rows))
        )

    def _valid_mse_vs_order(self) -> bool:
        rows = _read_csv(self.out / "mse.csv")
        if rows.shape != (19, 4) or not _finite(rows):
            return False
        burg_mod, levinson = rows[:, 2], rows[:, 3]
        # Zero-padded lattice: error nonincreasing in the order (C06), and
        # the same models as Levinson.
        return bool(np.all(np.diff(burg_mod) <= 1e-12)) and _close(burg_mod, levinson, TOL_1D)

    def _valid_equivalence(self) -> bool:
        verdict = _read_json(self.out / "verdict.json")
        suites = (verdict["equivalence_1d"], verdict["equivalence_2d"])
        return verdict["pass"] is True and all(
            math.isfinite(s["max_rel_deviation"]) and s["max_rel_deviation"] <= s["tolerance"]
            for s in suites
        )

    def _signal(self) -> np.ndarray:
        rows = _read_csv(self.out / "signal.csv")
        return rows[:, 1] + 1j * rows[:, 2]

    def _valid_gen(self) -> bool:
        x = self._signal()
        return realized_snr_ok(x, 20, 0.25, 0.0, 30.0)

    def _valid_est1d(self) -> bool:
        model = _read_json(self.out / "model1d.json")
        x = self._signal()
        lev = ar1d.levinson(autocorr.estimate_autocorr_1d(x, 15), 15)
        return model["order"] == 15 and _close(_pairs(model["coefficients"]), lev.coeffs, TOL_1D)

    def _valid_spectrum_1d(self) -> bool:
        model = _read_json(self.out / "model1d.json")
        rows = _read_csv(self.out / "spectrum1d.csv")
        nfreq = self.sizes["nfreq"]
        expected = ar_power_1d(_pairs(model["coefficients"]), model["error_power"], nfreq)
        return rows.shape == (nfreq, 3) and _bins_close(rows[:, 1], expected, TOL_SPECTRUM)

    def _valid_est2d(self) -> bool:
        model = _read_json(self.out / "model2d.json")
        filt = _read_json(self.out / "filter2d.json")
        ww = ar2d.wwra(autocorr.estimate_block_autocorr_2d(self.grid, 2, 2), 2)
        coeffs = _pairs(model["coefficient_matrices"])
        c = _pairs(filt["coefficients"])
        return (
            _close(coeffs, ww.coeffs, TOL_2D)
            and np.array_equal(c[0], [1, 0, 0])
            and np.array_equal(c[1:], coeffs[:, 0, :])
        )

    def _valid_spectrum_2d(self) -> bool:
        filt = _read_json(self.out / "filter2d.json")
        rows = _read_csv(self.out / "spectrum2d.csv")
        nf = self.sizes["nf2d"]
        expected = ar_power_2d(_pairs(filt["coefficients"]), filt["noise_power"], nf, nf)
        return rows.shape == (nf * nf, 4) and _bins_close(rows[:, 2], expected.ravel(), TOL_SPECTRUM)


WORKLOADS = {
    "paper_cli": PaperCli,
    "lattice_1d": Lattice1D,
    "lattice_2d": Lattice2D,
    "synth": Synth,
}


def make(name: str, seed: int, sizes: dict, workdir) -> object:
    """Set up workload ``name``: generate its inputs and input files."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, sizes, workdir)
