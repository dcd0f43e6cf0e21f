import argparse
import json
import math
import platform
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import crandn
from oracles import write_signal_2d_csv

import arspec.cli
from arspec.ar1d import burg_classic, burg_modified, levinson
from arspec.ar2d import burg2d_modified, extract_quarter_plane_filter
from arspec.autocorr import estimate_autocorr_1d
from arspec.cli import main
from arspec.io import (
    filter_to_dict,
    model1d_from_dict,
    model1d_to_dict,
    model2d_from_dict,
    model2d_to_dict,
    read_json,
    read_signal_2d_csv,
    read_signal_csv,
    write_json,
    write_signal_csv,
)
from arspec.linalg import max_rel_diff
from arspec.siggen import Lcg32, SynthConfig, phase_sweep
from arspec.spectrum import ar_spectrum_1d


#: Values whose decimal text is easy to get wrong: a signed zero, the
#: extremes of the normal range and the smallest subnormal.
EDGE_VALUES = [-0.0, 1e-300, 1e300, 5e-324, -1e300]


def run(*argv) -> int:
    return main(list(argv))


def assert_bitwise_equal(a, b):
    """Equal values and equal zero signs, part by part."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    for part in (np.real, np.imag):
        assert np.array_equal(part(a), part(b))
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


@pytest.fixture()
def sig_csv(tmp_path):
    path = tmp_path / "sig.csv"
    rc = run(
        "gen", "--n", "20", "--freq", "0.25", "--snr-db", "30",
        "--phase", "0", "--seed", "1", "--out", str(path),
    )
    assert rc == 0
    return path


class TestGen:
    @pytest.mark.parametrize(("option", "values"), [
        ("--freq", ["-1e-3", "-2.5E-1", "-.5e-1", "-0.25", "-1_0e-2", "-inf", "-nan"]),
        ("--snr-db", ["-1e-3", "-1E+2", "-.5e2", "-3", "-Infinity"]),
        ("--phase", ["-1e-3", "-1E+308", "-.5e2", "-1.", "-NaN"]),
    ])
    def test_negative_value_after_a_space_reads_as_attached(self, tmp_path, capsys, option, values):
        # Every value is one that float() reads; the non-finite ones exit 2
        # with the same message in both forms.
        out = tmp_path / "sig.csv"
        for value in values:
            seen = []
            for argv in ([f"{option}={value}"], [option, value]):
                rc = run("gen", "--n", "8", *argv, "--out", str(out))
                err = capsys.readouterr().err
                seen.append((rc, read_json(f"{out}.manifest.json")["parameters"] if rc == 0 else err))
            assert seen[0] == seen[1], value
            assert seen[0][0] == (0 if math.isfinite(float(value)) else 2), value

    def test_writes_signal_and_manifest(self, tmp_path):
        out = tmp_path / "sig.csv"
        rc = run("gen", "--n", "20", "--freq", "0.25", "--seed", "1", "--out", str(out))
        assert rc == 0
        x = read_signal_csv(out)
        assert x.size == 20
        manifest = read_json(f"{out}.manifest.json")
        assert manifest["subcommand"] == "gen"
        assert manifest["seed"] == 1
        assert manifest["outputs"] == [str(out)]
        assert manifest["version"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["gen", "--n", "20", "--freq", "0.25", "--snr-db", "30", "--seed", "7"]
        assert run(*args, "--out", str(a)) == 0
        # drive the second run from the recorded manifest argv
        manifest = read_json(f"{a}.manifest.json")
        argv = [s if s != str(a) else str(b) for s in manifest["argv"]]
        assert run(*argv) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "sig.csv"
        run("gen", "--n", "16", "--freq", "0.1", "--noiseless", "--out", str(out))
        x = read_signal_csv(out)
        assert np.array_equal(x, np.exp(2j * np.pi * 0.1 * np.arange(16)))
        edges = np.array(EDGE_VALUES) + 1j * np.array(EDGE_VALUES[::-1])
        write_signal_csv(out, edges)
        assert_bitwise_equal(read_signal_csv(out), edges)

    @pytest.mark.parametrize("command", ["gen", "order-sweep"])
    @pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
    def test_non_finite_phase_is_usage_error(self, tmp_path, capsys, command, phase):
        argv = ["gen"] if command == "gen" else ["experiment", command]
        rc = run(*argv, "--n", "8", f"--phase={phase}", "--out", str(tmp_path / "o.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage: phase must be finite")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gen", "phase-sweep"])
    @pytest.mark.parametrize("snr_db", ["3100", "-4000"])
    def test_snr_outside_the_double_range_is_usage_error(self, tmp_path, capsys, command, snr_db):
        # 10^310 overflows; 10^-400 rounds to 0 and the noise scale to inf.
        argv = ["gen"] if command == "gen" else ["experiment", command]
        rc = run(*argv, "--n", "8", f"--snr-db={snr_db}", "--out", str(tmp_path / "o.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: usage: snr_db={float(snr_db)} puts the noise scale "
                       "outside the double range\n")
        assert not list(tmp_path.iterdir())


class TestEst1d:
    def test_model_json_contents(self, tmp_path, sig_csv):
        out = tmp_path / "model.json"
        rc = run("est1d", "--method", "levinson", "--order", "15",
                 "--in", str(sig_csv), "--out", str(out))
        assert rc == 0
        obj = read_json(out)
        assert obj["kind"] == "ar1d"
        assert obj["method"] == "levinson"
        assert obj["order"] == 15
        assert len(obj["coefficients"]) == 15
        assert all(len(pair) == 2 for pair in obj["coefficients"])
        assert len(obj["history"]) == 15
        assert obj["error_power"] > 0

    def test_lattice_equals_recursion_end_to_end(self, tmp_path, sig_csv):
        lev = tmp_path / "lev.json"
        mod = tmp_path / "mod.json"
        run("est1d", "--method", "levinson", "--order", "15", "--in", str(sig_csv), "--out", str(lev))
        run("est1d", "--method", "burg-mod", "--order", "15", "--in", str(sig_csv), "--out", str(mod))
        a = np.array(read_json(lev)["coefficients"])
        b = np.array(read_json(mod)["coefficients"])
        assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()

    def test_order_too_large_is_usage_error(self, tmp_path, sig_csv, capsys):
        for argv in (
            ["est1d", "--method", "levinson", "--order", "50", "--in", str(sig_csv)],
            ["experiment", "phase-sweep", "--order", "20"],
            ["experiment", "phase-sweep", "--order", "0"],
            ["experiment", "order-sweep", "--max-order", "20"],
            ["experiment", "order-sweep", "--max-order", "0"],
            ["experiment", "mse-vs-order", "--max-order", "20"],
            ["experiment", "mse-vs-order", "--max-order", "0"],
        ):
            out = tmp_path / "x.out"
            rc = run(*argv, "--out", str(out))
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage: order must be in [1, 19], got "), argv
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("method", ["levinson", "burg", "burg-mod"])
    @pytest.mark.parametrize("sample", ["nan", "inf"])
    def test_non_finite_sample_is_usage_error(self, tmp_path, capsys, method, sample):
        sig = tmp_path / "sig.csv"
        sig.write_text(f"index,re,im\n0,1.0,0.0\n1,{sample},0.0\n2,0.5,-1.0\n")
        out = tmp_path / "m.json"
        rc = run("est1d", "--method", method, "--order", "1", "--in", str(sig), "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: usage: signal contains NaN or Inf samples\n"
        assert not out.exists()

    def test_degenerate_signal_is_numerical_error(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.csv"
        write_signal_csv(zeros, np.zeros(10, dtype=complex))
        rc = run("est1d", "--method", "burg-mod", "--order", "3",
                 "--in", str(zeros), "--out", str(tmp_path / "x.json"))
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: numerical:")

    def test_error_energy_that_runs_out_is_numerical_error(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, np.array([0, 1, 0, 0], dtype=complex))
        out = tmp_path / "x.json"
        rc = run("est1d", "--method", "burg", "--order", "3", "--in", str(sig), "--out", str(out))
        assert rc == 3
        assert capsys.readouterr().err == "error: numerical: zero error energy at order 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-160, 1e155])
    def test_out_of_range_scale_is_numerical_error(self, tmp_path, capsys, scale):
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, scale * crandn(np.random.default_rng(70), 20))
        out = tmp_path / "x.json"
        rc = run("est1d", "--method", "levinson", "--order", "5", "--in", str(sig), "--out", str(out))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["burg", "burg-mod"])
    def test_lattice_sums_past_the_double_range_are_numerical_errors(
        self, tmp_path, capsys, method
    ):
        # P_0 = 1.5e308 is finite, but a half-sum denominator can reach
        # 2 P_0, which is not: the lattice must raise, not return k = 0.
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, 1.4e153 * Lcg32(1, substream=7).complex_normal(64))
        out = tmp_path / "x.json"
        rc = run("est1d", "--method", method, "--order", "20", "--in", str(sig), "--out", str(out))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_subnormal_final_error_power_is_numerical_error(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, 1e-155 * Lcg32(1, substream=7).complex_normal(64))
        out = tmp_path / "x.json"
        rc = run("est1d", "--method", "burg-mod", "--order", "20",
                 "--in", str(sig), "--out", str(out))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: prediction-error power 5.594e-309 below")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_record_whose_lag_floor_is_subnormal_is_numerical_error(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, 2e-155 * Lcg32(1, substream=7).complex_normal(64))
        out = tmp_path / "x.json"
        rc = run("est1d", "--method", "burg", "--order", "20", "--in", str(sig), "--out", str(out))
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: numerical: error energy 2.221e-308 below the normal double range at order 11\n"
        )
        assert not out.exists()

    def test_levinson_stays_exact_near_the_double_range(self, tmp_path):
        x = Lcg32(1, substream=7).complex_normal(64)
        coeffs = []
        for scale in (1.0, 1.4e153):
            sig = tmp_path / f"sig{scale}.csv"
            write_signal_csv(sig, scale * x)
            out = tmp_path / f"m{scale}.json"
            rc = run("est1d", "--method", "levinson", "--order", "20",
                     "--in", str(sig), "--out", str(out))
            assert rc == 0
            coeffs.append(model1d_from_dict(read_json(out)).coeffs)
        assert max_rel_diff(coeffs[1], coeffs[0]) <= 1e-14

    def test_unknown_method_rejected(self, tmp_path, sig_csv, capsys):
        rc = run("est1d", "--method", "yule", "--order", "3",
                 "--in", str(sig_csv), "--out", str(tmp_path / "x.json"))
        assert rc == 2

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("what,is,this\n1,2,3\n")
        rc = run("est1d", "--method", "burg", "--order", "2",
                 "--in", str(bad), "--out", str(tmp_path / "x.json"))
        assert rc == 2

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,1.0,0.0", "1,2.0,0.0", "-1,3.0,0.0", "2,4.0,0.0"], "negative index"),
            (["0,1.0,0.0", "1,2.0,0.0", "1,3.0,0.0", "2,4.0,0.0"], "duplicate index"),
            (["0,1.0,0.0", "1,2.0", "2,4.0,0.0"], "expected 3 fields"),
            ([], "no samples"),
            (["0,1.0,0.0", "1e0,2.0,0.0"], "bad.csv, line 3: invalid literal for int()"),
            (["0,1.0,0.0", "1,abc,0.0"], "bad.csv, line 3: could not convert string to float"),
            (["0," + "1" * 200_000 + ",0.0"], "bad.csv, line 2: field larger than field limit"),
        ],
        ids=["negative", "duplicate", "short", "header-only", "index-1e0", "sample-abc",
             "field-over-the-csv-limit"],
    )
    def test_bad_signal_rows_are_usage_errors(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["index,re,im", *rows]) + "\n")
        rc = run("est1d", "--method", "burg", "--order", "1",
                 "--in", str(bad), "--out", str(tmp_path / "x.json"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert message in err
        assert err.count("\n") == 1

    def test_blank_rows_are_skipped(self, tmp_path, sig_csv):
        lines = sig_csv.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join([*lines[:5], "", *lines[5:], ""]) + "\n")
        for name, path in (("plain", sig_csv), ("blank", blank)):
            rc = run("est1d", "--method", "burg", "--order", "3",
                     "--in", str(path), "--out", str(tmp_path / f"{name}.json"))
            assert rc == 0
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "blank.json").read_bytes()

    def test_internal_key_error_is_not_a_usage_error(self, tmp_path, monkeypatch, sig_csv):
        def buggy(x, order):
            raise KeyError("internal")

        monkeypatch.setattr(arspec.cli, "burg_classic_batch", buggy)
        with pytest.raises(KeyError):
            run("est1d", "--method", "burg", "--order", "2",
                "--in", str(sig_csv), "--out", str(tmp_path / "m.json"))


class TestEst2d:
    def test_writes_model_and_filter(self, tmp_path):
        rng = np.random.default_rng(70)
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, crandn(rng, 6, 6))
        model_out = tmp_path / "model.json"
        rc = run("est2d", "--method", "burg2d-mod", "--n1", "2", "--n2", "1",
                 "--in", str(grid), "--out", str(model_out))
        assert rc == 0
        model = read_json(model_out)
        assert model["kind"] == "ar2d"
        assert model["n1"] == 2 and model["n2"] == 1
        assert len(model["coefficient_matrices"]) == 2
        filt = read_json(f"{model_out}.filter.json")
        assert filt["kind"] == "quarter_plane_filter"
        assert filt["coefficients"][0][0] == [1.0, 0.0]
        assert filt["noise_power"] > 0

    def test_non_finite_moments_name_the_matrix(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, 1e155 * Lcg32(4).complex_normal(36).reshape(6, 6))
        out = tmp_path / "model.json"
        rc = run("est2d", "--method", "burg2d-mod", "--n1", "2", "--n2", "1",
                 "--in", str(grid), "--out", str(out))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: coefficient matrix")
        assert "non-finite entry" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["burg2d", "burg2d-mod"])
    def test_criterion_overflow_is_numerical_error(self, tmp_path, capsys, method):
        x = crandn(np.random.default_rng(97), 6, 6)
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, x * np.sqrt(0.49 * np.finfo(float).max / np.vdot(x, x).real))
        out = tmp_path / "model.json"
        rc = run("est2d", "--method", method, "--n1", "3", "--n2", "1",
                 "--in", str(grid), "--out", str(out))
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "error: numerical: criterion (the error-power trace) overflows at order 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["burg2d", "burg2d-mod", "wwra"])
    def test_energy_that_rounds_to_zero_is_numerical_error(self, tmp_path, capsys, method):
        message = {"wwra": "R_0 diagonal must be positive, got 0.0"}.get(
            method, "grid has zero energy"
        )
        for scale in (0.0, 1e-165):
            grid = tmp_path / "grid.csv"
            write_signal_2d_csv(grid, scale * crandn(np.random.default_rng(79), 5, 5))
            out = tmp_path / "model.json"
            rc = run("est2d", "--method", method, "--n1", "2", "--n2", "1",
                     "--in", str(grid), "--out", str(out))
            assert rc == 3
            assert capsys.readouterr().err == f"error: numerical: {message}\n"
            assert not out.exists()

    def test_singular_denominator_is_numerical_error(self, tmp_path, capsys):
        # On a constant grid the classic lattice's order-2 denominator is
        # rounding noise with no Cholesky factor. numpy's LinAlgError is a
        # ValueError, which the CLI would report as a usage error (exit 2).
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, np.ones((5, 5)))
        out = tmp_path / "model.json"
        rc = run("est2d", "--method", "burg2d", "--n1", "2", "--n2", "2",
                 "--in", str(grid), "--out", str(out))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n1", [0, 6])
    @pytest.mark.parametrize("method", ["burg2d", "burg2d-mod", "wwra"])
    def test_order_outside_the_grid_is_usage_error(self, tmp_path, capsys, method, n1):
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, crandn(np.random.default_rng(80), 6, 6))
        out = tmp_path / "model.json"
        rc = run("est2d", "--method", method, "--n1", str(n1), "--n2", "1",
                 "--in", str(grid), "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == f"error: usage: order must be in [1, 5], got {n1}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n2", [-1, 6])
    @pytest.mark.parametrize("method", ["burg2d", "burg2d-mod", "wwra"])
    def test_channel_order_outside_the_grid_is_usage_error(self, tmp_path, capsys, method, n2):
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, crandn(np.random.default_rng(80), 6, 6))
        out = tmp_path / "model.json"
        rc = run("est2d", "--method", method, "--n1", "2", "--n2", str(n2),
                 "--in", str(grid), "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == f"error: usage: n2 must be in [0, 5], got {n2}\n"
        assert not out.exists()

    def test_wwra_and_modified_agree_end_to_end(self, tmp_path):
        rng = np.random.default_rng(71)
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, crandn(rng, 8, 8))
        outs, noise = {}, {}
        for method in ("wwra", "burg2d-mod"):
            out = tmp_path / f"{method}.json"
            rc = run("est2d", "--method", method, "--n1", "3", "--n2", "2",
                     "--in", str(grid), "--out", str(out))
            assert rc == 0
            outs[method] = np.array(read_json(out)["coefficient_matrices"])
            noise[method] = read_json(f"{out}.filter.json")["noise_power"]
        dev = np.abs(outs["wwra"] - outs["burg2d-mod"]).max()
        assert dev <= 1e-9 * np.abs(outs["wwra"]).max()
        # Both normalize by the N1 + n1 rows of the zero-padded support.
        assert abs(noise["wwra"] - noise["burg2d-mod"]) <= 1e-9 * noise["wwra"]

    def test_model_json_round_trips_history(self, tmp_path):
        rng = np.random.default_rng(76)
        grid = tmp_path / "grid.csv"
        write_signal_2d_csv(grid, crandn(rng, 6, 5))
        out = tmp_path / "model.json"
        rc = run("est2d", "--method", "burg2d-mod", "--n1", "2", "--n2", "1",
                 "--in", str(grid), "--out", str(out))
        assert rc == 0
        obj = read_json(out)
        assert [st["order"] for st in obj["history"]] == [0, 1, 2]
        assert all(st["criterion"] is not None for st in obj["history"])
        assert model2d_to_dict(model2d_from_dict(obj), "burg2d-mod") == obj
        obj["coefficient_matrices"][0][0] = [[v, -v] for v in EDGE_VALUES[:2]]
        obj["error_power_matrix"][1] = [[v, v] for v in EDGE_VALUES[2:4]]
        write_json(out, obj)
        model = model2d_from_dict(read_json(out))
        assert_bitwise_equal(model.coeffs[0, 0], [complex(v, -v) for v in EDGE_VALUES[:2]])
        assert_bitwise_equal(model.error_power[1], [complex(v, v) for v in EDGE_VALUES[2:4]])
        again = model2d_to_dict(model, "burg2d-mod")
        assert json.dumps(again, sort_keys=True) == json.dumps(obj, sort_keys=True)

    def test_1d_model_json_round_trips_edge_values(self, tmp_path):
        model = burg_classic(crandn(np.random.default_rng(79), 12), 5)
        model.coeffs[:] = np.array(EDGE_VALUES) + 1j * np.array(EDGE_VALUES[::-1])
        model.history[0].reflection = complex(-0.0, 5e-324)
        out = tmp_path / "m.json"
        write_json(out, model1d_to_dict(model, "burg"))
        back = model1d_from_dict(read_json(out))
        assert_bitwise_equal(back.coeffs, model.coeffs)
        assert_bitwise_equal(back.history[0].reflection, model.history[0].reflection)
        assert model1d_to_dict(back, "burg") == read_json(out)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0,1.0,0.0", "0,-1,2.0,0.0", "0,1,3.0,0.0"], "negative index"),
            (["0,0,1.0,0.0", "0,0,2.0,0.0", "0,1,3.0,0.0"], "duplicate index"),
            (["0,0,1.0,0.0", "0,1,2.0"], "expected 4 fields"),
            (["0,0,1.0,0.0", "0,1,2.0,0.0", "1,0,3.0,0.0"], "missing samples"),
            (["0,0,1.0,0.0", "0,1,nan,0.0", "1,0,3.0,0.0", "1,1,4.0,0.0"], "NaN"),
            (["0,0,1.0,0.0", "0,1e0,2.0,0.0"], "bad.csv, line 3: invalid literal for int()"),
            (["0,0,1.0,0.0", "0,1,2.0,abc"], "bad.csv, line 3: could not convert string to float"),
        ],
        ids=["negative", "duplicate", "short", "missing", "nan", "index-1e0", "sample-abc"],
    )
    def test_bad_grid_rows_are_usage_errors(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["k,t,re,im", *rows]) + "\n")
        rc = run("est2d", "--method", "wwra", "--n1", "1", "--n2", "0",
                 "--in", str(bad), "--out", str(tmp_path / "x.json"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert message in err
        assert err.count("\n") == 1

    def test_grid_round_trip(self, tmp_path):
        rng = np.random.default_rng(72)
        x = crandn(rng, 4, 5)
        x[1] = np.array(EDGE_VALUES) - 1j * np.array(EDGE_VALUES[::-1])
        path = tmp_path / "g.csv"
        write_signal_2d_csv(path, x)
        assert_bitwise_equal(read_signal_2d_csv(path), x)


class TestSpectrumCommand:
    def test_1d_spectrum_csv(self, tmp_path, sig_csv):
        model = tmp_path / "m.json"
        run("est1d", "--method", "levinson", "--order", "15", "--in", str(sig_csv), "--out", str(model))
        spec = tmp_path / "s.csv"
        rc = run("spectrum", "--in", str(model), "--nfreq", "256", "--out", str(spec))
        assert rc == 0
        lines = spec.read_text().splitlines()
        assert lines[0] == "frequency,power,log10_power"
        assert len(lines) == 257
        row = lines[1].split(",")
        assert float(row[0]) == -0.5
        assert abs(np.log10(float(row[1])) - float(row[2])) < 1e-12

    def test_noiseless_classic_burg_model_reads_back(self, tmp_path):
        # At the unit circle |k|^2 of the classic lattice rounds past 1; the
        # power stops at zero, and spectrum reads the model est1d wrote.
        sig, model, spec = tmp_path / "s.csv", tmp_path / "m.json", tmp_path / "p.csv"
        assert run("gen", "--noiseless", "--n", "20", "--freq", "0.3", "--out", str(sig)) == 0
        assert run("est1d", "--method", "burg", "--order", "3",
                   "--in", str(sig), "--out", str(model)) == 0
        assert json.loads(model.read_text())["error_power"] == 0.0
        assert run("spectrum", "--in", str(model), "--out", str(spec)) == 0
        assert spec.exists()

    def test_2d_spectrum_from_filter(self, tmp_path):
        rng = np.random.default_rng(73)
        grid = tmp_path / "g.csv"
        write_signal_2d_csv(grid, crandn(rng, 6, 6))
        model = tmp_path / "m.json"
        run("est2d", "--method", "burg2d-mod", "--n1", "1", "--n2", "1",
            "--in", str(grid), "--out", str(model))
        spec = tmp_path / "s.csv"
        rc = run("spectrum", "--in", f"{model}.filter.json",
                 "--nf1", "16", "--nf2", "8", "--out", str(spec))
        assert rc == 0
        lines = spec.read_text().splitlines()
        assert lines[0] == "f1,f2,power,log10_power"
        assert len(lines) == 1 + 16 * 8

    def test_2d_spectrum_from_model_json(self, tmp_path):
        rng = np.random.default_rng(74)
        grid = tmp_path / "g.csv"
        write_signal_2d_csv(grid, crandn(rng, 5, 5))
        model = tmp_path / "m.json"
        run("est2d", "--method", "wwra", "--n1", "1", "--n2", "0",
            "--in", str(grid), "--out", str(model))
        rc = run("spectrum", "--in", str(model), "--nf1", "8", "--nf2", "8",
                 "--out", str(tmp_path / "s.csv"))
        assert rc == 0


    @pytest.mark.parametrize(
        "kind, corrupt, message",
        [
            pytest.param("ar1d", lambda o: o.pop("error_power"), "missing key 'error_power'",
                         id="ar1d-error_power"),
            pytest.param("ar2d", lambda o: o.pop("n2"), "missing key 'n2'", id="ar2d-n2"),
            pytest.param("quarter_plane_filter", lambda o: o.pop("noise_power"),
                         "missing key 'noise_power'", id="quarter_plane_filter-noise_power"),
            pytest.param("ar1d", None, "expected a JSON object", id="top-level-list"),
            pytest.param("ar1d", lambda o: o.update(coefficients=5), "expected [re, im]",
                         id="coefficients-number"),
            pytest.param("ar2d", lambda o: o.update(n2="x"), "invalid literal", id="n2-string"),
            pytest.param("ar2d", lambda o: o.update(n1=0, coefficient_matrices=[]),
                         "n1 must be >= 1, got 0", id="n1-zero"),
            pytest.param("ar1d", lambda o: o.update(history=[5]), "not subscriptable",
                         id="history-entry-number"),
            pytest.param("ar2d", lambda o: o.update(coefficient_matrices=o["error_power_matrix"]),
                         "expected [re, im]", id="matrix-rank"),
            pytest.param("ar1d", lambda o: o["coefficients"][0].__setitem__(0, math.nan),
                         "expected finite [re, im] pairs", id="coefficient-NaN"),
            pytest.param("ar1d", lambda o: o.update(error_power=math.inf),
                         "error_power must be finite, got inf", id="error_power-Infinity"),
            pytest.param("ar2d",
                         lambda o: o["coefficient_matrices"][0][0][0].__setitem__(1, "1e999"),
                         "expected finite [re, im] pairs", id="matrix-1e999"),
            pytest.param("quarter_plane_filter", lambda o: o.update(noise_power="1e999"),
                         "noise_power must be finite, got inf", id="noise_power-1e999"),
            pytest.param("ar1d", lambda o: o["history"][1].update(error_power=math.nan),
                         "history error_power must be finite, got nan", id="stage-power-NaN"),
            pytest.param("ar1d", lambda o: o.update(error_power=-1.0),
                         "error_power must be nonnegative, got -1.0", id="error_power-negative"),
            pytest.param("quarter_plane_filter", lambda o: o.update(noise_power=-1.0),
                         "noise_power must be nonnegative, got -1.0", id="noise_power-negative"),
            pytest.param("ar2d", lambda o: o.update(kind="ar3d"), "unsupported kind 'ar3d'",
                         id="kind-unknown"),
            *(
                pytest.param("ar2d", lambda o, v=value: o.update(sample_terms=v),
                             "sample_terms must be null or an integer >= 1",
                             id=f"sample_terms-{id_}")
                for id_, value in [("abc", "abc"), ("list", [1]), ("negative", -5), ("zero", 0),
                                   ("true", True), ("fraction", 2.5), ("1e999", "1e999")]
            ),
            pytest.param("ar2d", lambda o: o["history"][1].update(criterion="x"),
                         "criterion must be null or a finite number, got 'x'",
                         id="criterion-string"),
            *(
                pytest.param(kind, corrupt, f"invalid literal for {key}: expected an integer, got",
                             id=id_)
                for kind, key, corrupt, id_ in [
                    ("ar1d", "order", lambda o: o.update(order=2.9), "order-fraction"),
                    ("ar1d", "order", lambda o: o.update(order="2"), "order-string"),
                    ("ar1d", "order", lambda o: o["history"][0].update(order=1.0),
                     "stage-order-float"),
                    ("ar2d", "n1", lambda o: o.update(n1=1.5), "n1-fraction"),
                    ("ar2d", "n1", lambda o: o.update(n1="1"), "n1-string"),
                    ("ar2d", "n1", lambda o: o.update(n1=True), "n1-true"),
                    ("ar2d", "order", lambda o: o["history"][1].update(order="1"),
                     "2d-stage-order-string"),
                    ("quarter_plane_filter", "n1", lambda o: o.update(n1="1"), "filter-n1-string"),
                    ("quarter_plane_filter", "n2", lambda o: o.update(n2=1.5),
                     "filter-n2-fraction"),
                ]
            ),
            *(
                pytest.param("ar1d", lambda o, v=value: o.update(early_stop=v),
                             f"early_stop must be true or false, got {value!r}",
                             id=f"early_stop-{id_}")
                for id_, value in [("no", "no"), ("zero", 0), ("null", None)]
            ),
        ],
    )
    def test_missing_model_key_is_usage_error(self, tmp_path, capsys, kind, corrupt, message):
        x = crandn(np.random.default_rng(78), 5, 5)
        model2d = burg2d_modified(x, 1, 1)
        obj = {
            "ar1d": model1d_to_dict(burg_classic(x[0], 2), "burg"),
            "ar2d": model2d_to_dict(model2d, "burg2d-mod"),
            "quarter_plane_filter": filter_to_dict(extract_quarter_plane_filter(model2d)),
        }[kind]
        if corrupt is None:
            obj = [obj]
        else:
            corrupt(obj)
        model = tmp_path / "m.json"
        write_json(model, obj)
        # The string "1e999" stands for the bare literal, which json reads as inf.
        model.write_text(model.read_text().replace('"1e999"', "1e999"))
        out = tmp_path / "s.csv"
        rc = run("spectrum", "--in", str(model), "--out", str(out))
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {model}: ")
        assert message in err
        assert err.count("\n") == 1


    def test_model_that_is_not_json_is_usage_error(self, tmp_path, capsys, sig_csv):
        rc = run("spectrum", "--in", str(sig_csv), "--out", str(tmp_path / "s.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {sig_csv}: not valid JSON: Expecting value")
        assert err.count("\n") == 1

    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text("[" * 100_000 + "]" * 100_000)
        rc = run("spectrum", "--in", str(model), "--out", str(tmp_path / "s.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: {model}: JSON nested too deeply\n"


class TestExperiments:
    def test_phase_sweep_matrix_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run("experiment", "phase-sweep", "--method", "levinson", "--order", "8",
                 "--steps", "5", "--nfreq", "64", "--n", "20", "--freq", "0.25",
                 "--seed", "1", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].split(",")[0] == "phase"
        assert len(lines[1].split(",")) == 65

    @pytest.mark.parametrize(
        "method, extra",
        [("levinson", []), ("burg", []), ("burg-mod", []), ("burg", ["--noiseless"])],
    )
    def test_batched_phase_sweep_matches_the_public_estimators(self, tmp_path, method, extra):
        # 300 records at order 15 run as two batches (273 + 27).
        out = tmp_path / "sweep.csv"
        rc = run("experiment", "phase-sweep", "--method", method, "--order", "15",
                 "--steps", "300", "--nfreq", "64", *extra, "--seed", "4", "--out", str(out))
        assert rc == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        estimate = {
            "levinson": lambda x: levinson(estimate_autocorr_1d(x, 15), 15),
            "burg": lambda x: burg_classic(x, 15),
            "burg-mod": lambda x: burg_modified(x, 15),
        }[method]
        snr_db = None if extra else 30.0
        signals = phase_sweep(SynthConfig(20, 0.25, 0.0, snr_db, 4), 300)
        models = [estimate(x) for x in signals]
        if extra:
            # noiseless: the classic lattice stops every record at order 1
            assert {m.order for m in models} == {1}
        expected = [ar_spectrum_1d(m, 64).power for m in models]
        assert np.array_equal(rows[:, 1:], expected)

    def test_phase_sweep_batches_hold_at_most_2_15_stage_coefficients(self, tmp_path, monkeypatch):
        # Order 15 holds 120 stage coefficients per record: 273 records a batch.
        sizes = []
        estimate = arspec.cli._METHODS_1D["levinson"]
        monkeypatch.setitem(arspec.cli._METHODS_1D, "levinson",
                            lambda x, p: sizes.append(len(x)) or estimate(x, p))
        assert run("experiment", "phase-sweep", "--order", "15", "--steps", "300",
                   "--nfreq", "8", "--out", str(tmp_path / "sweep.csv")) == 0
        assert sizes == [273, 27]

    @pytest.mark.parametrize("methods", ["", "yule", "burg,burg"])
    def test_bad_methods_are_usage_errors(self, tmp_path, capsys, methods):
        out = tmp_path / "mse.csv"
        rc = run("experiment", "mse-vs-order", "--methods", methods, "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_order_sweep_rows_per_order(self, tmp_path):
        out = tmp_path / "orders.csv"
        rc = run("experiment", "order-sweep", "--method", "burg-mod", "--max-order", "6",
                 "--nfreq", "32", "--n", "20", "--freq", "0.25", "--seed", "1",
                 "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert [row.split(",")[0] for row in lines[1:]] == [str(m) for m in range(1, 7)]

    def test_mse_vs_order_replicates_error_curves(self, tmp_path):
        out = tmp_path / "mse.csv"
        rc = run("experiment", "mse-vs-order", "--max-order", "19",
                 "--methods", "burg,burg-mod,levinson", "--n", "20",
                 "--freq", "0.25", "--phase", "0", "--snr-db", "30",
                 "--seed", "1", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,mse_burg,mse_burg-mod,mse_levinson"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (19, 4)
        burg, burg_mod, lev = rows[:, 1], rows[:, 2], rows[:, 3]
        # lattice column equals the recursion column and never increases
        assert np.abs(burg_mod - lev).max() <= 1e-10 * lev.max()
        assert all(burg_mod[i + 1] <= burg_mod[i] + 1e-12 for i in range(18))
        # the classic lattice loses monotonicity on the short record
        assert any(burg[i + 1] > burg[i] for i in range(2, 18))

    def test_equivalence_verdict(self, tmp_path):
        out = tmp_path / "eq.json"
        rc = run("experiment", "equivalence", "--trials", "12", "--trials-2d", "6",
                 "--seed", "1", "--out", str(out))
        assert rc == 0
        verdict = read_json(out)
        assert verdict["pass"] is True
        assert verdict["equivalence_1d"]["max_rel_deviation"] <= 1e-9
        assert verdict["equivalence_2d"]["max_rel_deviation"] <= 1e-8

    def test_batched_verdict_matches_a_serial_loop(self):
        # 200 trials: the 64-sample records run in several batches.
        report = arspec.cli.equivalence_report(200, 1, seed=3)
        dev = 0.0
        for i in range(200):
            n = (8, 20, 64)[i % 3]
            x = Lcg32(3, substream=1000 + i).complex_normal(n)
            lev = levinson(estimate_autocorr_1d(x, n - 5), n - 5)
            mod = burg_modified(x, n - 5)
            assert len(lev.history) == len(mod.history)
            for a, b in zip(lev.history, mod.history):
                dev = max(dev, max_rel_diff(a.coeffs, b.coeffs))
        assert report["equivalence_1d"]["pass"] is True
        assert abs(report["equivalence_1d"]["max_rel_deviation"] - dev) <= 1e-14

    @pytest.mark.parametrize("trials", [["--trials", "-3"], ["--trials-2d", "0"]])
    def test_equivalence_needs_trials(self, tmp_path, capsys, trials):
        out = tmp_path / "eq.json"
        rc = run("experiment", "equivalence", "--trials", "2", "--trials-2d", "1",
                 *trials, "--seed", "1", "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_one_trial_per_suite_is_enough(self, tmp_path):
        out = tmp_path / "eq.json"
        assert run("experiment", "equivalence", "--trials", "1", "--trials-2d", "1",
                   "--out", str(out)) == 0
        verdict = read_json(out)
        assert verdict["equivalence_1d"]["trials"] == verdict["equivalence_2d"]["trials"] == 1

    def test_a_deviation_at_the_tolerance_passes(self, monkeypatch):
        monkeypatch.setattr(arspec.cli, "_stage_deviation", lambda ref, est: 1e-9)
        monkeypatch.setattr(arspec.cli, "max_rel_diff", lambda a, b: 1e-8)
        report = arspec.cli.equivalence_report(3, 2, 1)
        for suite in ("equivalence_1d", "equivalence_2d"):
            assert report[suite]["max_rel_deviation"] == report[suite]["tolerance"]
            assert report[suite]["pass"] is True
        assert report["pass"] is True

    def test_stages_that_are_zero_on_both_routes_deviate_by_nothing(self):
        # Impulses have no lag past 0, so every reflection and coefficient is 0.
        x = np.zeros((2, 8), dtype=complex)
        x[:, 0] = [1.0, 2.0]
        lev, mod = (arspec.cli._METHODS_1D[m](x, 3) for m in ("levinson", "burg-mod"))
        assert not np.any(lev.coeffs) and not np.any(mod.coeffs)
        assert arspec.cli._stage_deviation(lev, mod) == 0.0

    @pytest.mark.parametrize("corrupt", ["nan", "truncate"])
    def test_equivalence_fails_loudly(self, tmp_path, monkeypatch, corrupt):
        real = arspec.cli.burg_modified_batch

        def broken(x, order):
            batch = real(x, order)
            if corrupt == "nan":
                batch.coeffs[0, 0] = np.nan
            else:
                batch.stages[0] -= 1
            return batch

        def strict(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        monkeypatch.setattr(arspec.cli, "burg_modified_batch", broken)
        out = tmp_path / "eq.json"
        rc = run("experiment", "equivalence", "--trials", "3", "--trials-2d", "1",
                 "--seed", "1", "--out", str(out))
        assert rc == 1
        verdict = json.loads(out.read_text(), parse_constant=strict)
        assert verdict["pass"] is False
        assert verdict["equivalence_1d"]["pass"] is False
        assert verdict["equivalence_1d"]["max_rel_deviation"] is None

    @pytest.mark.parametrize("corrupt", ["nan", "truncate"])
    def test_2d_equivalence_fails_loudly(self, tmp_path, monkeypatch, corrupt):
        real = arspec.cli.burg2d_modified

        def broken(x, n1, n2):
            model = real(x, n1, n2)
            if corrupt == "nan":
                model.history[-1].coeffs[0, 0, 0] = np.nan
            else:
                model.history.pop()
            return model

        monkeypatch.setattr(arspec.cli, "burg2d_modified", broken)
        out = tmp_path / "eq.json"
        rc = run("experiment", "equivalence", "--trials", "3", "--trials-2d", "3",
                 "--seed", "1", "--out", str(out))
        assert rc == 1
        verdict = read_json(out)
        assert verdict["equivalence_1d"]["pass"] is True
        assert verdict["equivalence_2d"]["pass"] is False
        assert verdict["equivalence_2d"]["max_rel_deviation"] is None

    def test_mse_vs_order_early_stop(self, tmp_path):
        out = tmp_path / "mse.csv"
        rc = run("experiment", "mse-vs-order", "--noiseless", "--methods", "burg,burg-mod",
                 "--max-order", "5", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        # noiseless: the classic lattice hits the unit circle at order 1
        assert len(lines) == 6
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]
        cells = [line.split(",") for line in lines[1:]]
        assert cells[0][1] != ""
        assert all(row[1] == "" and row[2] != "" for row in cells[1:])
        manifest = read_json(f"{out}.manifest.json")
        assert manifest["early_stop"] == {"burg": 1}
        assert manifest["parameters"]["snr_db"] is None

    def test_order_sweep_early_stop(self, tmp_path):
        out = tmp_path / "orders.csv"
        rc = run("experiment", "order-sweep", "--noiseless", "--method", "burg",
                 "--nfreq", "8", "--out", str(out))
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2
        assert read_json(f"{out}.manifest.json")["early_stop"] == {"burg": 1}

    def test_paper_scale_runtime(self, tmp_path):
        start = time.perf_counter()
        rc = run("experiment", "phase-sweep", "--steps", "100", "--order", "15",
                 "--nfreq", "1024", "--n", "20", "--freq", "0.25", "--seed", "1",
                 "--out", str(tmp_path / "sweep.csv"))
        assert rc == 0
        rc = run("experiment", "mse-vs-order", "--max-order", "19", "--seed", "1",
                 "--out", str(tmp_path / "mse.csv"))
        assert rc == 0
        assert time.perf_counter() - start < 10.0


    def test_csv_cells_are_plain_numbers(self, tmp_path):
        o = lambda name: str(tmp_path / name)  # noqa: E731
        write_signal_2d_csv(o("g.csv"), crandn(np.random.default_rng(80), 5, 5))
        for argv in (
            ["gen", "--n", "20", "--out", o("sig.csv")],
            ["est1d", "--method", "burg", "--order", "4", "--in", o("sig.csv"),
             "--out", o("m.json")],
            ["spectrum", "--in", o("m.json"), "--nfreq", "16", "--out", o("s1.csv")],
            ["est2d", "--method", "wwra", "--n1", "1", "--n2", "1", "--in", o("g.csv"),
             "--out", o("m2.json")],
            ["spectrum", "--in", o("m2.json"), "--nf1", "4", "--nf2", "4", "--out", o("s2.csv")],
            ["experiment", "phase-sweep", "--steps", "3", "--nfreq", "8", "--out", o("ps.csv")],
            ["experiment", "order-sweep", "--max-order", "4", "--nfreq", "8", "--log10",
             "--out", o("os.csv")],
            ["experiment", "mse-vs-order", "--noiseless", "--max-order", "3",
             "--out", o("mse.csv")],
        ):
            assert run(*argv) == 0
        csvs = [p for p in tmp_path.glob("*.csv") if p.name != "g.csv"]
        assert len(csvs) == 6
        for path in csvs:
            text = path.read_text()
            assert "np." not in text
            # Every cell below the header is empty or a plain float literal.
            for line in text.splitlines()[1:]:
                [float(cell) for cell in line.split(",") if cell]


class TestManifests:
    def test_every_output_has_one_manifest(self, tmp_path):
        grid = tmp_path / "g.csv"
        rng = np.random.default_rng(75)
        write_signal_2d_csv(grid, crandn(rng, 5, 5))
        model = tmp_path / "m.json"
        run("est2d", "--method", "burg2d", "--n1", "1", "--n2", "1",
            "--in", str(grid), "--out", str(model))
        manifest = read_json(f"{model}.manifest.json")
        assert set(manifest["outputs"]) == {str(model), f"{model}.filter.json"}
        assert manifest["parameters"]["method"] == "burg2d"
        assert manifest["duration_seconds"] >= 0.0

    def test_manifest_records_the_library_versions(self, tmp_path):
        out = tmp_path / "sig.csv"
        assert run("gen", "--n", "8", "--out", str(out)) == 0
        manifest = read_json(f"{out}.manifest.json")
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    @pytest.mark.parametrize("noiseless, early_stop", [(True, {"burg": 1}), (False, {})])
    def test_est1d_records_early_stop(self, tmp_path, noiseless, early_stop):
        sig = tmp_path / "sig.csv"
        assert run("gen", "--n", "20", *(["--noiseless"] if noiseless else []),
                   "--out", str(sig)) == 0
        model = tmp_path / "m.json"
        assert run("est1d", "--method", "burg", "--order", "3",
                   "--in", str(sig), "--out", str(model)) == 0
        assert read_json(f"{model}.manifest.json")["early_stop"] == early_stop

    def test_explicit_manifest_path(self, tmp_path):
        out = tmp_path / "sig.csv"
        man = tmp_path / "custom.manifest.json"
        rc = run("gen", "--n", "8", "--freq", "0.1", "--noiseless",
                 "--out", str(out), "--manifest", str(man))
        assert rc == 0
        assert man.exists()

    def test_parameters_are_the_parsed_arguments(self, tmp_path, sig_csv):
        model = tmp_path / "m.json"
        assert run("est1d", "--method", "burg", "--order", "3",
                   "--in", str(sig_csv), "--out", str(model)) == 0
        params = read_json(f"{model}.manifest.json")["parameters"]
        assert params == {"method": "burg", "order": 3, "input": str(sig_csv), "out": str(model)}

        grid = tmp_path / "g.csv"
        write_signal_2d_csv(grid, crandn(np.random.default_rng(77), 4, 4))
        model2d = tmp_path / "m2.json"
        assert run("est2d", "--method", "wwra", "--n1", "1", "--n2", "1",
                   "--in", str(grid), "--out", str(model2d)) == 0
        manifest = read_json(f"{model2d}.manifest.json")
        assert manifest["parameters"]["filter_out"] == f"{model2d}.filter.json"

        mse = tmp_path / "mse.csv"
        assert run("experiment", "mse-vs-order", "--methods", "burg, levinson",
                   "--max-order", "3", "--out", str(mse)) == 0
        manifest = read_json(f"{mse}.manifest.json")
        assert manifest["subcommand"] == "experiment mse-vs-order"
        assert manifest["parameters"]["methods"] == ["burg", "levinson"]
        assert manifest["parameters"]["snr_db"] == 30.0
        assert manifest["early_stop"] == {}


EST1D = ["est1d", "--method", "burg", "--order", "3"]
EST2D = ["est2d", "--method", "burg2d", "--n1", "1", "--n2", "1"]

#: Argv in which two of ``--in``, ``--out``, ``--filter-out`` and the
#: manifest path, defaults included, name one file, also through ``..``, a
#: symlink or a hard link; ``@name`` is a path in the test directory. Each
#: would exit 0 without the check.
COLLISIONS = {
    "gen out=manifest": ["gen", "--n", "20", "--out", "@a.csv", "--manifest", "@a.csv"],
    "est1d in=out": [*EST1D, "--in", "@sig.csv", "--out", "@sig.csv"],
    "est1d in=manifest": [*EST1D, "--in", "@sig.csv", "--out", "@m.json", "--manifest", "@sig.csv"],
    "est1d in=default manifest": [*EST1D, "--in", "@m.json.manifest.json", "--out", "@m.json"],
    "est1d out=manifest": [*EST1D, "--in", "@sig.csv", "--out", "@m.json", "--manifest", "@m.json"],
    "est1d in=out via ..": [*EST1D, "--in", "@sig.csv", "--out", "@sub/../sig.csv"],
    "est1d in=out via symlink": [*EST1D, "--in", "@sig.csv", "--out", "@link.csv"],
    "est1d in=out via hard link": [*EST1D, "--in", "@sig.csv", "--out", "@hard.csv"],
    "est2d in=out": [*EST2D, "--in", "@g.csv", "--out", "@g.csv"],
    "est2d in=filter": [*EST2D, "--in", "@g.csv", "--out", "@m.json", "--filter-out", "@g.csv"],
    "est2d in=manifest": [*EST2D, "--in", "@g.csv", "--out", "@m.json", "--manifest", "@g.csv"],
    "est2d in=default filter": [*EST2D, "--in", "@m.json.filter.json", "--out", "@m.json"],
    "est2d out=filter": [*EST2D, "--in", "@g.csv", "--out", "@m.json", "--filter-out", "@m.json"],
    "est2d out=manifest": [*EST2D, "--in", "@g.csv", "--out", "@m.json", "--manifest", "@m.json"],
    "est2d filter=manifest": [*EST2D, "--in", "@g.csv", "--out", "@m.json",
                              "--filter-out", "@f.json", "--manifest", "@f.json"],
    "est2d filter=default manifest": [*EST2D, "--in", "@g.csv", "--out", "@m.json",
                                      "--filter-out", "@m.json.manifest.json"],
    "est2d default filter=manifest": [*EST2D, "--in", "@g.csv", "--out", "@m.json",
                                      "--manifest", "@m.json.filter.json"],
    "spectrum in=out": ["spectrum", "--in", "@model.json", "--out", "@model.json"],
    "spectrum in=manifest": ["spectrum", "--in", "@model.json", "--out", "@s.csv",
                             "--manifest", "@model.json"],
    "equivalence out=manifest": ["experiment", "equivalence", "--trials", "3", "--trials-2d", "2",
                                 "--out", "@v.json", "--manifest", "@v.json"],
}


def _tree(root: Path) -> dict:
    """Every file under ``root``: its bytes and modification time."""
    return {
        p: (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPathCollisions:
    @pytest.mark.parametrize("argv", COLLISIONS.values(), ids=COLLISIONS)
    def test_two_paths_naming_one_file_are_usage_errors(self, tmp_path, capsys, argv):
        sig, grid = tmp_path / "sig.csv", tmp_path / "g.csv"
        assert run("gen", "--n", "20", "--out", str(sig)) == 0
        write_signal_2d_csv(grid, crandn(np.random.default_rng(78), 5, 5))
        assert run(*EST1D, "--in", str(sig), "--out", str(tmp_path / "model.json")) == 0
        (tmp_path / "m.json.manifest.json").write_bytes(sig.read_bytes())
        (tmp_path / "m.json.filter.json").write_bytes(grid.read_bytes())
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(sig)
        (tmp_path / "hard.csv").hardlink_to(sig)
        before = _tree(tmp_path)
        capsys.readouterr()

        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert "name the same file" in err
        assert err.count("\n") == 1
        assert _tree(tmp_path) == before


#: An argv of each subcommand that exits 0 in a directory prepared by
#: ``_prepare``; ``@name`` is a path in that directory.
RECIPES = {
    "gen": ["gen", "--n", "8", "--out", "@o"],
    "est1d": [*EST1D, "--in", "@sig.csv", "--out", "@o"],
    "est2d": [*EST2D, "--in", "@g.csv", "--out", "@o"],
    "spectrum": ["spectrum", "--in", "@model.json", "--nfreq", "8", "--out", "@o"],
    "experiment phase-sweep": ["experiment", "phase-sweep", "--order", "2", "--steps", "2",
                               "--nfreq", "8", "--out", "@o"],
    "experiment order-sweep": ["experiment", "order-sweep", "--max-order", "2", "--nfreq", "8",
                               "--out", "@o"],
    "experiment mse-vs-order": ["experiment", "mse-vs-order", "--max-order", "2", "--out", "@o"],
    "experiment equivalence": ["experiment", "equivalence", "--trials", "3", "--trials-2d", "2",
                               "--out", "@o"],
}

#: Every output option of every subcommand.
OUTPUT_OPTIONS = [
    (command, option)
    for command in RECIPES
    for option in ["--out", "--manifest", *(["--filter-out"] if command == "est2d" else [])]
]


def _prepare(root: Path) -> None:
    """The inputs of ``RECIPES`` under ``root``, and an empty directory ``sub``."""
    sig = root / "sig.csv"
    assert run("gen", "--n", "20", "--out", str(sig)) == 0
    write_signal_2d_csv(root / "g.csv", crandn(np.random.default_rng(78), 5, 5))
    assert run(*EST1D, "--in", str(sig), "--out", str(root / "model.json")) == 0
    (root / "sub").mkdir()


def _argv(root: Path, argv: list) -> list:
    return [str(root / a[1:]) if a.startswith("@") else a for a in argv]


class TestOutputChecks:
    @pytest.mark.parametrize("bad", ["nodir/x.json", "sub", "sub/"])
    @pytest.mark.parametrize("command, option", OUTPUT_OPTIONS)
    def test_output_that_cannot_be_written_is_usage_error(
        self, tmp_path, capsys, command, option, bad
    ):
        _prepare(tmp_path)
        argv = _argv(tmp_path, RECIPES[command])
        bad = str(tmp_path / bad) + ("/" if bad.endswith("/") else "")
        if option == "--out":
            argv[-1] = bad
        else:
            argv += [option, bad]
        before = _tree(tmp_path)
        capsys.readouterr()

        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {option} ")
        assert "is not a file in an existing directory" in err
        assert err.count("\n") == 1
        assert _tree(tmp_path) == before


class TestManifestPaths:
    @pytest.mark.parametrize("command", RECIPES)
    def test_manifest_lists_the_declared_inputs_and_outputs(self, tmp_path, command):
        _prepare(tmp_path)
        argv = _argv(tmp_path, RECIPES[command])
        before = set(_tree(tmp_path))
        start = time.perf_counter()
        assert run(*argv) == 0
        wall = time.perf_counter() - start

        out = tmp_path / "o"
        manifest = read_json(f"{out}.manifest.json")
        inputs = [argv[argv.index("--in") + 1]] if "--in" in argv else []
        outputs = [str(out), *([f"{out}.filter.json"] if command == "est2d" else [])]
        assert manifest["inputs"] == inputs
        assert manifest["outputs"] == outputs
        written = {Path(p) for p in [*outputs, f"{out}.manifest.json"]}
        assert set(_tree(tmp_path)) - before == written
        # An elapsed time: a sum or a negated start would exceed the wall time.
        assert 0.0 <= manifest["duration_seconds"] <= wall


README = Path(__file__).parents[1] / "README.md"


def _readme_commands() -> list:
    """The argv of every ``arspec`` line of the README's ``## Command line``
    code block."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("arspec ")]


class TestReadme:
    def test_every_command_line_example_exits_zero(self, tmp_path, monkeypatch):
        # grid.csv is the reader's own grid; every other input is written
        # by an earlier line of the block.
        write_signal_2d_csv(tmp_path / "grid.csv", crandn(np.random.default_rng(78), 6, 6))
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == {"gen", "est1d", "spectrum", "est2d", "experiment"}
        for argv in commands:
            assert main(argv) == 0, argv


def _commands(parser, prefix=()):
    """``(command, parser)`` for every leaf subcommand under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def _option_table(parser) -> dict:
    """Per subcommand, each option's ``(dest, default, type, choices,
    required, nargs)`` under its long option string."""
    return {
        command: {
            a.option_strings[-1]: (
                a.dest,
                a.default,
                getattr(a.type, "__name__", a.type),
                None if a.choices is None else list(a.choices),
                a.required,
                a.nargs,
            )
            for a in sub._actions
            if a.option_strings
        }
        for command, sub in _commands(parser)
    }


HELP = ("help", argparse.SUPPRESS, None, None, False, 0)
OUT = ("out", None, None, None, True, None)
MANIFEST = ("manifest", None, None, None, False, None)
SEED = ("seed", None, "int", None, False, None)
IN = ("input", None, None, None, True, None)
SYNTH = {
    "--n": ("n", 20, "int", None, False, None),
    "--freq": ("freq", 0.25, "float", None, False, None),
    "--snr-db": ("snr_db", 30.0, "float", None, False, None),
    "--noiseless": ("noiseless", False, None, None, False, 0),
}
PHASE = ("phase", 0.0, "float", None, False, None)
METHODS_1D = ["levinson", "burg", "burg-mod"]
SWEEP = {
    "--method": ("method", "levinson", None, METHODS_1D, False, None),
    "--nfreq": ("nfreq", 1024, "int", None, False, None),
    "--log10": ("log10", False, None, None, False, 0),
}
MAX_ORDER = ("max_order", 19, "int", None, False, None)

#: Every subcommand's options as the parser declares them.
OPTION_TABLE = {
    "gen": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--seed": SEED,
        **SYNTH, "--phase": PHASE,
        "--substream": ("substream", 0, "int", None, False, None),
    },
    "est1d": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--in": IN,
        "--method": ("method", None, None, METHODS_1D, True, None),
        "--order": ("order", None, "int", None, True, None),
    },
    "est2d": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--in": IN,
        "--method": ("method", None, None, ["wwra", "burg2d", "burg2d-mod"], True, None),
        "--n1": ("n1", None, "int", None, True, None),
        "--n2": ("n2", None, "int", None, True, None),
        "--filter-out": ("filter_out", None, None, None, False, None),
    },
    "spectrum": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--in": IN,
        "--nfreq": ("nfreq", 1024, "int", None, False, None),
        "--nf1": ("nf1", 128, "int", None, False, None),
        "--nf2": ("nf2", 128, "int", None, False, None),
    },
    "experiment phase-sweep": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--seed": SEED,
        **SYNTH, **SWEEP,
        "--order": ("order", 15, "int", None, False, None),
        "--steps": ("steps", 100, "int", None, False, None),
    },
    "experiment order-sweep": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--seed": SEED,
        **SYNTH, "--phase": PHASE, **SWEEP, "--max-order": MAX_ORDER,
    },
    "experiment mse-vs-order": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--seed": SEED,
        **SYNTH, "--phase": PHASE, "--max-order": MAX_ORDER,
        "--methods": ("methods", "burg,burg-mod,levinson", None, None, False, None),
        "--support": ("support", "full", None, ["full", "window"], False, None),
    },
    "experiment equivalence": {
        "--help": HELP, "--out": OUT, "--manifest": MANIFEST, "--seed": SEED,
        "--trials": ("trials", 200, "int", None, False, None),
        "--trials-2d": ("trials_2d", 50, "int", None, False, None),
    },
}


class TestOptionTable:
    def test_every_subcommand_keeps_its_options(self):
        assert _option_table(arspec.cli.build_parser()) == OPTION_TABLE


class TestResources:
    def test_array_beyond_the_address_space_is_usage_error(self, tmp_path, capsys, sig_csv):
        # 10^17 samples need more bytes than a 57-bit address space holds, so
        # numpy refuses them at once on any machine, overcommitting or not.
        model = tmp_path / "m.json"
        assert run("est1d", "--method", "burg", "--order", "2",
                   "--in", str(sig_csv), "--out", str(model)) == 0
        capsys.readouterr()
        for argv in (
            ["gen", "--n", str(10**17)],
            ["spectrum", "--in", str(model), "--nfreq", str(10**17)],
        ):
            out = tmp_path / "x.csv"
            assert run(*argv, "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage: Unable to allocate"), argv
            assert err.count("\n") == 1
            assert not out.exists()


class TestEnvironment:
    def test_malformed_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ARSPEC_SEED", "abc")
        rc = run("gen", "--n", "8", "--out", str(tmp_path / "sig.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert "ARSPEC_SEED" in err
        assert err.count("\n") == 1

    def test_environment_seed_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARSPEC_SEED", "9")
        out = tmp_path / "sig.csv"
        assert run("gen", "--n", "8", "--out", str(out)) == 0
        assert read_json(f"{out}.manifest.json")["seed"] == 9

    def test_explicit_seed_beats_a_malformed_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARSPEC_SEED", "abc")
        out = tmp_path / "sig.csv"
        assert run("gen", "--n", "8", "--seed", "5", "--out", str(out)) == 0
        assert read_json(f"{out}.manifest.json")["seed"] == 5

    def test_seedless_command_ignores_the_environment(self, tmp_path, monkeypatch, sig_csv):
        monkeypatch.setenv("ARSPEC_SEED", "abc")
        model = tmp_path / "m.json"
        assert run("est1d", "--method", "burg", "--order", "2",
                   "--in", str(sig_csv), "--out", str(model)) == 0
        assert read_json(f"{model}.manifest.json")["seed"] is None
