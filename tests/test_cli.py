import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonq.cli
from mesonq import (
    K0BAR_DIRECTION, MesonParams, complementary_time, kaon_defaults, scan_bell,
)
from mesonq.cli import _write_csv, build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


SYSTEM_OPTIONS = {"--config", "--system", "--gamma-s", "--gamma-l", "--delta"}
GRID_OPTIONS = {"--t-min", "--t-max", "--steps", "--time-unit", "--out"}


def subcommand_options(name):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[name]._actions for s in a.option_strings
            if s not in ("-h", "--help")}


OWN_OPTIONS = {
    "constants": set(),
    "times": set(),
    "verify": {"--seed", "--trials", "--literal-bipartite-generator"},
    "uncertainty": GRID_OPTIONS | {"--fig", "--obs1", "--obs2", "--scan"},
    "bell": GRID_OPTIONS | {"--fig", "--policy", "--quasispins", "--cp-test"},
}


class TestOptions:
    @pytest.mark.parametrize("name", OWN_OPTIONS)
    def test_each_subcommand_declares_what_it_reads(self, name):
        assert subcommand_options(name) == SYSTEM_OPTIONS | OWN_OPTIONS[name]

    @pytest.mark.parametrize("argv", [
        ["constants", "--out", "x.csv"],
        ["times", "--steps", "5"],
        ["verify", "--t-max", "2"],
        ["uncertainty", "--fig", "1a", "--seed", "1"],
        ["bell", "--fig", "4b", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_unread_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestConstants:
    def test_kaon(self, capsys):
        code, out = run(capsys, "constants", "--system", "kaon")
        assert code == 0
        assert "delta=0.003322" in out
        assert "gamma_s=2.11111111111e+00" in out

    def test_system_flag_with_widths_refused(self):
        with pytest.raises(SystemExit, match="^--system ignores --gamma-s, --gamma-l$"):
            main(["constants", "--system", "bmeson", "--gamma-s", "2",
                  "--gamma-l", "1"])

    def test_system_flag_wins_over_config_widths(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma-s": 2, "gamma-l": 1}))
        _, out = run(capsys, "constants", "--system", "bmeson", "--config", str(cfg))
        assert out.startswith("system=bmeson\n")
        assert "gamma_s=1.28865979381e+00" in out

    def test_bmeson(self, capsys):
        _, out = run(capsys, "constants", "--system", "bmeson")
        assert "gamma_s=1.28865979381e+00" in out
        assert "gamma_l=1.28865979381e+00" in out

    def test_custom_echo(self, capsys):
        _, out = run(capsys, "constants", "--gamma-s", "2", "--gamma-l", "1",
                     "--delta", "0")
        assert "gamma_s=2.00000000000e+00" in out
        assert "gamma_l=1.00000000000e+00" in out
        assert "delta=0" in out

    def test_stable(self, capsys):
        code, out = run(capsys, "constants", "--system", "stable")
        assert code == 0
        assert out == ("system=stable\n"
                       "gamma_s=0.00000000000e+00\n"
                       "gamma_l=0.00000000000e+00\n"
                       "delta=0\n"
                       "gamma_mean=0.00000000000e+00\n"
                       "delta_gamma=0.00000000000e+00\n"
                       "tau_s_dm_units=inf\n")
        assert capsys.readouterr().err == ""


class TestTimes:
    def test_kaon_report(self, capsys):
        _, out = run(capsys, "times", "--system", "kaon")
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["misid_time_tau_s"]) == pytest.approx(4.8, abs=0.1)
        assert float(values["complementary_time_tau_s"]) == pytest.approx(11.4,
                                                                          abs=0.2)
        assert 20.0 <= float(values["delta_ratio"]) <= 30.0

    def test_equal_widths_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["times", "--system", "bmeson"])

    def test_delta_overrides_the_preset(self, capsys):
        kaon = kaon_defaults()
        params = MesonParams(kaon.gamma_s, kaon.gamma_l, 0.01)
        code, out = run(capsys, "times", "--system", "kaon", "--delta", "0.01")
        assert code == 0 and capsys.readouterr().err == ""
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert values["complementary_time_dm"] == f"{complementary_time(params):.11e}"
        assert values["complementary_time_dm"] != f"{complementary_time(kaon):.11e}"

    def test_no_complementary_time_without_cp_asymmetry(self, capsys):
        code, out = run(capsys, "times", "--delta", "0")
        assert code == 0 and capsys.readouterr().err == ""
        lines = out.splitlines()
        assert [line.split("=")[0] for line in lines[:2]] == [
            "misid_time_dm", "misid_time_tau_s"]
        assert lines[2:] == ["complementary_time_dm=none (delta=0)"]


class TestUncertaintyCommand:
    def test_fig_1b_vanishes_at_pi(self, tmp_path, capsys):
        out = tmp_path / "fig1b.csv"
        code, _ = run(capsys, "uncertainty", "--fig", "1b", "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        at_pi = min(rows, key=lambda r: abs(float(r["t"]) - math.pi))
        assert float(at_pi["bound"]) < 1e-9

    def test_fig_2a_reaches_maximal_uncertainty(self, tmp_path, capsys):
        out = tmp_path / "fig2a.csv"
        run(capsys, "uncertainty", "--fig", "2a", "--steps", "81",
            "--out", str(out))
        rows = read_rows(out)
        peak = max(float(r["bound"]) for r in rows)
        assert peak > 1.0 - 1e-6
        t_peak = max(rows, key=lambda r: float(r["bound"]))["t"]
        assert float(t_peak) == pytest.approx(5.42, abs=0.01)

    @pytest.mark.parametrize("fig", ["2a", "2b"])
    def test_complementary_time_row_appears_once(self, tmp_path, capsys, fig):
        t_comp = complementary_time(kaon_defaults())
        # off the grid it is inserted; as the first grid point it is kept once
        for t_min, n_rows in (("0", 22), (repr(t_comp), 21)):
            out = tmp_path / f"fig{fig}.csv"
            run(capsys, "uncertainty", "--fig", fig, "--steps", "21",
                "--t-min", t_min, "--out", str(out))
            t = [float(r["t"]) for r in read_rows(out)]
            assert len(t) == n_rows
            assert t.count(float(f"{t_comp:.11e}")) == 1
            assert all(a < b for a, b in zip(t, t[1:]))

    def test_fig_2d_stays_uncertain(self, tmp_path, capsys):
        out = tmp_path / "fig2d.csv"
        run(capsys, "uncertainty", "--fig", "2d", "--steps", "81",
            "--out", str(out))
        for row in read_rows(out):
            if float(row["t"]) > 0.0:
                assert float(row["bound"]) > 0.0

    def test_explicit_observables(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code, _ = run(capsys, "uncertainty", "--system", "kaon",
                      "--obs1", "1.5707963,0,0", "--obs2", "1.5707963,0,0",
                      "--steps", "11", "--t-max", "2", "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 11
        assert float(rows[0]["bound"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("argv,flags", [
        (["--fig", "2a", "--delta=0.01"], "--delta"),
        (["--fig", "1a", "--obs1", "1.5708,0,0"], "--obs1"),
        (["--fig", "3b", "--system", "kaon", "--obs2", "0,0,0"], "--system, --obs2"),
        (["--fig", "1a", "--steps", "3", "--scan", "both"], "--scan"),
    ], ids=["delta", "obs1", "system-obs2", "scan"])
    def test_fig_refuses_flags_it_ignores(self, argv, flags):
        with pytest.raises(SystemExit, match=f"--fig {argv[1]} ignores {flags}$"):
            main(["uncertainty"] + argv)

    def test_malformed_observable(self, capsys):
        with pytest.raises(SystemExit, match="malformed observable"):
            main(["uncertainty", "--obs1", "1.0,0.0", "--obs2", "0,0,0"])

    def test_fig_3a_bipartite(self, tmp_path, capsys):
        out = tmp_path / "fig3a.csv"
        run(capsys, "uncertainty", "--fig", "3a", "--steps", "11", "--out", str(out))
        rows = read_rows(out)
        assert len(rows) == 11 * 5
        assert {r["t1"] for r in rows if r["t"] == rows[-1]["t"]} != set()


class TestBellCommand:
    def test_fig_4b_violation_level(self, tmp_path, capsys):
        out = tmp_path / "fig4b.csv"
        run(capsys, "bell", "--fig", "4b", "--out", str(out))
        rows = read_rows(out)
        peak = max(float(r["lambda_max"]) for r in rows)
        assert 2.0 <= peak <= 2.2
        assert float(rows[0]["classical_hi"]) == 2.0
        assert float(rows[0]["tsirelson_hi"]) == pytest.approx(2 * math.sqrt(2))

    def test_fig_5b_completes_within_quantum_bound(self, tmp_path, capsys):
        out = tmp_path / "fig5b.csv"
        run(capsys, "bell", "--fig", "5b", "--steps", "121", "--out", str(out))
        for row in read_rows(out):
            assert abs(float(row["lambda_max"])) <= 2 * math.sqrt(2) + 1e-9
            assert abs(float(row["lambda_min"])) <= 2 * math.sqrt(2) + 1e-9

    def test_fig_5a_is_the_equal_width_scan(self, capsys):
        code, out = run(capsys, "bell", "--fig", "5a", "--out", "-")
        assert code == 0 and capsys.readouterr().err == ""
        gl = kaon_defaults().gamma_l
        grid = np.linspace(0.0, 6.0, 601)
        want = scan_bell("alternating-1", grid, MesonParams(gl, gl),
                         (K0BAR_DIRECTION,) * 4)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(grid)
        for name in ("t", "lambda_min", "lambda_max", "summand_mu_bound"):
            column = grid if name == "t" else getattr(want, name)
            assert [r[name] for r in rows] == ["%.11e" % x for x in column]

    def test_fig_outside_bell_presets_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bell", "--fig", "1a"])

    @pytest.mark.parametrize("argv,mode,flags", [
        (["--fig", "4b", "--system", "bmeson"], "--fig 4b", "--system"),
        (["--fig", "4b", "--gamma-s", "3", "--gamma-l", "1", "--delta", "0.2"],
         "--fig 4b", "--gamma-s, --gamma-l, --delta"),
        (["--cp-test", "--fig", "4a"], "--cp-test", "--fig"),
        (["--cp-test", "--steps", "5", "--out", "x.csv"], "--cp-test",
         "--steps, --out"),
        (["--fig", "4b", "--steps", "3", "--policy", "all-equal"], "--fig 4b",
         "--policy"),
        (["--cp-test", "--policy", "all-equal"], "--cp-test", "--policy"),
    ], ids=["fig-preset", "fig-custom", "cp-test-fig", "cp-test-grid",
            "fig-policy", "cp-test-policy"])
    def test_preset_refuses_flags_it_ignores(self, argv, mode, flags):
        with pytest.raises(SystemExit, match=f"{mode} ignores {flags}$"):
            main(["bell"] + argv)

    def test_fig_reads_quasispins_and_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "bmeson", "delta": 0.2,
                                   "policy": "all-equal"}))
        a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
        base = ["bell", "--fig", "4b", "--steps", "5"]
        main(base + ["--out", str(a)])
        main(base + ["--config", str(cfg), "--out", str(b)])
        main(base + ["--quasispins", "0,0;0,0;0,0;0,0", "--out", str(c)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()

    def test_cp_test_reports_single_violation(self, capsys):
        code, out = run(capsys, "bell", "--cp-test", "--delta", "3.322e-3")
        assert code == 0
        assert "one variant violates" in out

    def test_cp_test_no_violation_at_zero(self, capsys):
        _, out = run(capsys, "bell", "--cp-test", "--delta", "0")
        assert "no violation" in out

    def test_cp_test_negative_delta(self, capsys):
        # space-separated negative scientific notation must parse
        code, out = run(capsys, "bell", "--cp-test", "--delta", "-3.322e-3")
        assert code == 0
        assert "one variant violates" in out
        assert "s_kl=2.00331648214e+00 violates=True" in out

    def test_custom_quasispins_and_policy(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code, _ = run(capsys, "bell", "--system", "kaon", "--policy", "all-equal",
                      "--quasispins",
                      "1.5707963,3.1415927;1.5707963,3.1415927;"
                      "1.5707963,3.1415927;1.5707963,3.1415927",
                      "--steps", "5", "--t-max", "1", "--out", str(out))
        assert code == 0
        assert len(read_rows(out)) == 5


class TestLibraryErrors:
    @pytest.mark.parametrize("argv,message", [
        (["uncertainty", "--obs1", "4,0,0", "--obs2", "0,0,0"],
         "alpha must lie in [0, pi]"),
        (["bell", "--cp-test", "--delta", "0.5"], "small CP asymmetries"),
        (["bell", "--steps", "3", "--gamma-s", "nan", "--gamma-l", "1"],
         "gamma_s must be finite"),
        (["uncertainty", "--obs1", "1,0,-1", "--obs2", "0,0,0", "--steps", "3"],
         "detection times t >= 0"),
        (["bell", "--steps", "3", "--t-max", "inf"],
         "--t-max must be finite, got inf"),
        (["uncertainty", "--fig", "1a", "--steps", "3", "--t-max", "inf"],
         "--t-max must be finite, got inf"),
        (["bell", "--steps", "3", "--t-min", "nan", "--t-max", "1"],
         "--t-min must be finite, got nan"),
        (["bell", "--steps", "3", "--t-max", "1e308", "--time-unit", "tau_s",
          "--gamma-s", "1e-10", "--gamma-l", "1e-11"],
         "--t-max must be finite in dm units, got 1e+308 tau_s"),
        (["bell", "--steps", "3", "--t-min", "-1e308", "--t-max", "1e308"],
         "--t-min/--t-max span must be finite in dm units"),
        (["verify", "--trials", "1", "--seed", "-1"],
         "mesonq: error: seed must be nonnegative, got -1\n"),
        (["bell", "--fig", "4b", "--steps", "3", "--out", "/nonexistent/x.csv"],
         "mesonq: error: --out /nonexistent/x.csv: No such file or directory\n"),
        (["bell", "--fig", "4b", "--steps", "3", "--out", "."],
         "mesonq: error: --out .: Is a directory\n"),
        # np.linspace repeats times across a span narrower than steps ulps
        (["uncertainty", "--fig", "1a", "--t-min", "1", "--t-max",
          "1.0000000000000002", "--steps", "5", "--out", "-"],
         "span 1.0 to 1.0000000000000002 is too narrow for 5 distinct times"),
        (["bell", "--steps", "3", "--t-min", "1", "--t-max", "1.0000000000000002"],
         "too narrow for 3 distinct times"),
        # the RK4 propagator overflows; the oracle fails its error check silently
        (["verify", "--trials", "1", "--gamma-s", "1e60", "--gamma-l", "2"],
         "integration error above 1e-6 at the fixed step 1e-3"),
        (["verify", "--trials", "1", "--gamma-s", "1e200", "--gamma-l", "2"],
         "integration error above 1e-6 at the fixed step 1e-3"),
        (["verify", "--trials", "1", "--gamma-s", "1e308", "--gamma-l", "2"],
         "integration error above 1e-6 at the fixed step 1e-3"),
        # the step is fixed at 1e-3, too coarse for this width
        (["verify", "--trials", "1", "--gamma-s", "60", "--gamma-l", "2"],
         "integration error above 1e-6 at the fixed step 1e-3"),
    ], ids=["alpha", "cp-delta", "nan-width", "negative-time", "inf-t-max",
            "fig-inf-t-max", "nan-t-min", "tau_s-overflow", "span-overflow",
            "negative-seed", "out-missing-dir", "out-is-dir", "sub-ulp-span",
            "bell-sub-ulp-span", "verify-width-1e60", "verify-width-1e200",
            "verify-width-1e308", "verify-width-60"])
    def test_value_error_exits_1_with_one_line(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mesonq: error: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert "Warning" not in captured.err and caught == []


class TestRefusedInput:
    # a SystemExit carrying a message ends the process with status 1 and
    # the message as its one stderr line
    @pytest.mark.parametrize("argv,message", [
        (["times", "--gamma-s", "2"],
         "custom systems need both --gamma-s and --gamma-l"),
        (["bell", "--system", "stable", "--time-unit", "tau_s", "--steps", "3"],
         "tau_s units are undefined for a stable system"),
        (["bell", "--steps", "1"], "need at least 2 grid points"),
        (["bell", "--t-min", "2", "--t-max", "1"], "t_min must be below t_max"),
        (["uncertainty", "--obs1", "1,0,0"],
         "provide --fig or both --obs1 and --obs2"),
        (["bell", "--steps", "3", "--quasispins", "1,0;1,0;1,0"],
         "need four quasispins: 'a1,p1;a2,p2;a3,p3;a4,p4'"),
        (["bell", "--steps", "3", "--quasispins", "1,0;1,0;1,0;1"],
         "malformed quasispin: '1'"),
        (["verify", "--trials", "0"], "trials must be >= 1"),
    ], ids=["one-width", "stable-tau_s", "one-step", "reversed-span",
            "no-observables", "three-quasispins", "malformed-quasispin",
            "zero-trials"])
    def test_exits_1_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
        assert capsys.readouterr() == ("", "")


class TestVerify:
    def test_passes_with_small_trials(self, capsys):
        code, out = run(capsys, "verify", "--trials", "3", "--seed", "7")
        assert code == 0
        assert "verify: PASS" in out
        for line in out.splitlines():
            m = re.match(r".*max_dev=([0-9.e+-]+) ", line)
            if m:
                assert float(m.group(1)) < 1e-8

    def test_single_trial_deterministic(self, capsys):
        _, out1 = run(capsys, "verify", "--trials", "1", "--seed", "11")
        _, out2 = run(capsys, "verify", "--trials", "1", "--seed", "11")
        assert out1 == out2

    def test_bloch_line_counts_toward_the_verdict(self, capsys, monkeypatch):
        _, out = run(capsys, "verify", "--trials", "2")
        m = re.search(r"bloch_vs_eigenvector_max_dev=([0-9.e+-]+) "
                      r"\(tolerance 1e-10\)", out)
        assert m and float(m.group(1)) < 1e-10
        bloch_mu_bound = mesonq.cli.bloch_mu_bound

        def shifted(n_a, n_b):
            bound, best, arg = bloch_mu_bound(n_a, n_b)
            return bound + 1e-9, best, arg

        monkeypatch.setattr(mesonq.cli, "bloch_mu_bound", shifted)
        code, out = run(capsys, "verify", "--trials", "2")
        assert code == 1 and "verify: FAIL" in out

    def test_literal_generator_reports_breach(self, capsys):
        code, out = run(capsys, "verify", "--trials", "1",
                        "--literal-bipartite-generator")
        assert code == 0
        m = re.search(r"factorization_breach=([0-9.e+-]+)", out)
        assert m and float(m.group(1)) > 1e-4


class TestCsvContract:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bell", "--fig", "4b", "--steps", "41"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_twelve_significant_digits(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run(capsys, "uncertainty", "--fig", "1a", "--steps", "5", "--out", str(out))
        body = out.read_text().splitlines()[1]
        for field in body.split(",")[:2]:
            assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2}", field)

    def test_stdout_when_no_out(self, capsys):
        code, out = run(capsys, "uncertainty", "--fig", "1a", "--steps", "3")
        assert code == 0
        assert out.startswith("t,bound,max_overlap")

    def test_time_unit_conversion(self, tmp_path, capsys):
        out_dm = tmp_path / "dm.csv"
        out_ts = tmp_path / "ts.csv"
        base = ["bell", "--system", "kaon", "--steps", "3", "--t-min", "0",
                "--t-max", "2"]
        main(base + ["--time-unit", "dm", "--out", str(out_dm)])
        main(base + ["--time-unit", "tau_s", "--out", str(out_ts)])
        capsys.readouterr()
        rows_dm, rows_ts = read_rows(out_dm), read_rows(out_ts)
        # same requested grid, reported back in the requested unit
        assert [r["t"] for r in rows_dm] == [r["t"] for r in rows_ts]
        # tau_s rows probe dm times scaled down by gamma_s
        g = 11.4 / 5.4
        assert float(rows_ts[-1]["lambda_max"]) != pytest.approx(
            float(rows_dm[-1]["lambda_max"]), abs=1e-6)
        out_check = tmp_path / "check.csv"
        main(base + ["--time-unit", "dm", "--t-max", str(2 / g),
                     "--out", str(out_check)])
        capsys.readouterr()
        assert float(read_rows(out_check)[-1]["lambda_max"]) == pytest.approx(
            float(rows_ts[-1]["lambda_max"]), abs=1e-12)


def reference_csv(header, columns):
    """The CSV text of the per-row writer that _write_csv replaced.

    Floats print as %.11e, the rest as str; a scalar column is formatted once.
    """
    fields, data = [], []
    for col in map(np.asarray, columns):
        fmt = "%.11e" if col.dtype.kind == "f" else "%s"
        if col.ndim:
            data.append(col.tolist())
        fields.append(fmt if col.ndim else fmt % col.item())
    row = ",".join(fields)
    lines = [",".join(header)] + [row % values for values in zip(*data)]
    return "\n".join(lines) + "\n"


def written(header, columns):
    """What _write_csv writes for one table to a file and to '-' (stdout)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            _write_csv(path, header, columns)
            with open(path, "rb") as fh:
                to_file = fh.read().decode()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _write_csv("-", header, columns)
    return to_file, out.getvalue()


# exact 12-digit ties, rollovers, the ends of the vectorized range, powers of
# ten either side of 10^22 (the last exact one), subnormals and the extremes
AWKWARD = [123456789012.5, 9.9999999999995, 999999999999.5, 1e-11, 1e33, 1e22,
           1e23, 5e-324, 1e-300, 1.7976931348623157e308, 9.99999999999949e32,
           9.9999999999995e32, np.nextafter(1e-11, 0.0), np.nextafter(1e33, 0.0),
           2.2250738585072014e-308, 1.25e-5, 0.1, 1.0, 2.0, 0.0, -0.0, math.inf,
           -math.inf, math.nan]
# 13 significant digits ending in 5: the nearest double is at or next to a tie
TIES = st.builds(lambda m, e, sign: sign * float(f"{m}5e{e}"),
                 st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-26, 22),
                 st.sampled_from([1.0, -1.0]))
FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(AWKWARD) | TIES


@st.composite
def tables(draw):
    """(header, columns): float, integer and scalar columns in any order."""
    rows = draw(st.integers(1, 12))
    column = st.lists(FLOATS, min_size=rows, max_size=rows).map(np.array)
    ints = st.lists(st.integers(-3, 20_000), min_size=rows, max_size=rows)
    columns = (draw(st.lists(column, min_size=1, max_size=4))
               + draw(st.lists(ints.map(np.array), max_size=2))
               + draw(st.lists(FLOATS | st.integers(-2, 3), max_size=3)))
    columns = draw(st.permutations(columns))
    return [f"c{k}" for k in range(len(columns))], columns


class TestCsvWriter:
    """The vectorized writer against the per-row reference, byte for byte."""

    @given(table=tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, table):
        header, columns = table
        expected = reference_csv(header, columns)
        assert written(header, columns) == (expected, expected)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_awkward_values(self, sign):
        values = sign * np.array(AWKWARD)
        header = ["x", "scalar", "argmax", "half", "t"]
        columns = [values, 1e23, np.arange(len(values)) + 1111, values / 2,
                   np.linspace(0.0, 6.0, len(values))]
        expected = reference_csv(header, columns)
        assert written(header, columns) == (expected, expected)
        for value in AWKWARD:
            expected = reference_csv(["v", "w"], [np.array([value]), value])
            assert written(["v", "w"], [np.array([value]), value]) == (expected,) * 2

    @pytest.mark.parametrize("ints", [
        [1, 2, 2, 1], [1111, 1212, 1112, 1211], [0, 9, 10, 9999],
        [10_000, -1, 123456789, -(2 ** 63)], np.array([0, 3, 255, 7], np.uint8),
        np.array([True, False, True, True]),
    ], ids=["argmax", "argmax-bipartite", "digit-counts", "wide-and-negative", "uint8",
            "bool"])
    def test_integer_columns(self, ints):
        columns = [np.array(ints), np.array([0.25, -0.0, 3e-12, 1e40]), 1, 2.0,
                   np.array(ints)]
        for order in ([0, 1, 2, 3, 4], [2, 1, 0, 4, 3], [3, 4, 2, 0, 1]):
            header = [f"c{k}" for k in order]
            table = [columns[k] for k in order]
            expected = reference_csv(header, table)
            assert written(header, table) == (expected, expected)

    def test_stdout_matches_golden(self, capsys):
        assert main(["bell", "--fig", "4b", "--steps", "31", "--out", "-"]) == 0
        golden = (GOLDEN_DIR / "fig4b_small.csv").read_text()
        assert capsys.readouterr().out == golden


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "kaon", "steps": 7, "t-max": 2.0}))
        out = tmp_path / "o.csv"
        run(capsys, "bell", "--config", str(cfg), "--out", str(out))
        assert len(read_rows(out)) == 7

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"steps": 7, "t-max": 2.0}))
        out = tmp_path / "o.csv"
        run(capsys, "bell", "--config", str(cfg), "--steps", "4", "--out", str(out))
        assert len(read_rows(out)) == 4

    @pytest.mark.parametrize("config,message", [
        ({"steps": "abc"}, "argument --steps: invalid int value: 'abc'"),
        ({"system": "nope"}, "argument --system: invalid choice: 'nope'"),
    ], ids=["steps", "system"])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, config,
                                              message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["bell", "--fig", "4b", "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text,reason", [
        (None, "No such file or directory"),
        ('{"steps": 3,', "Expecting property name enclosed in double quotes"),
        ("[1]", "not a JSON object"),
    ], ids=["missing", "invalid-json", "not-an-object"])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys,
                                                      text, reason):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["bell", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        naming = [line for line in err.splitlines() if str(cfg) in line]
        assert len(naming) == 1
        assert naming[0].startswith(f"mesonq: error: --config {cfg}: {reason}")

    def test_config_switch_runs_cp_test(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cp-test": True}))
        code, out = run(capsys, "bell", "--config", str(cfg))
        assert code == 0
        assert "result: one variant violates" in out

    def test_config_policy_matches_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"policy": "all-equal"}))
        base = ["bell", "--steps", "5"]
        _, flag = run(capsys, *base, "--policy", "all-equal")
        _, config = run(capsys, *base, "--config", str(cfg))
        _, default = run(capsys, *base)
        assert config == flag != default

    def test_config_delta_zero_is_a_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delta": 0}))
        _, out = run(capsys, "bell", "--cp-test", "--config", str(cfg))
        assert "delta=0\n" in out and "result: no violation" in out


class TestSharedParser:
    def test_carries_nothing_between_calls(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps({"steps": "abc"}))
        good.write_text(json.dumps({"steps": 31}))
        for argv, code in ((["times", "--steps", "5"], 2),
                           (["bell", "--fig", "4b", "--config", str(bad)], 2),
                           (["bell", "--fig", "4b", "--steps", "31",
                             "--system", "kaon"], "--fig 4b ignores --system")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        outs = {name: tmp_path / f"{name}.csv" for name in
                ("config", "flag", "uncertainty")}
        assert main(["bell", "--fig", "4b", "--config", str(good),
                     "--out", str(outs["config"])]) == 0
        assert main(["bell", "--fig", "4b", "--steps", "31",
                     "--out", str(outs["flag"])]) == 0
        assert main(["uncertainty", "--fig", "2a", "--steps", "21",
                     "--out", str(outs["uncertainty"])]) == 0
        capsys.readouterr()
        fig4b = (GOLDEN_DIR / "fig4b_small.csv").read_bytes()
        assert outs["config"].read_bytes() == outs["flag"].read_bytes() == fig4b
        assert outs["uncertainty"].read_bytes() == (
            GOLDEN_DIR / "fig2a_small.csv").read_bytes()

    def test_given_is_per_call(self, tmp_path, capsys):
        out = tmp_path / "fig4b.csv"
        with pytest.raises(SystemExit, match="^--fig 4b ignores --system$"):
            main(["bell", "--fig", "4b", "--system", "kaon"])
        assert main(["bell", "--fig", "4b", "--steps", "31", "--out", str(out)]) == 0
        with pytest.raises(SystemExit, match="^--system ignores --gamma-s, --gamma-l$"):
            main(["constants", "--system", "bmeson", "--gamma-s", "2",
                  "--gamma-l", "1"])
        code, text = run(capsys, "constants", "--gamma-s", "2", "--gamma-l", "1")
        assert code == 0 and text.startswith("system=custom\n")


class TestGoldenFigures:
    @pytest.mark.parametrize("name,args", [
        ("fig1b_small", ["uncertainty", "--fig", "1b", "--steps", "21"]),
        ("fig2a_small", ["uncertainty", "--fig", "2a", "--steps", "21"]),
        ("fig4b_small", ["bell", "--fig", "4b", "--steps", "31"]),
        ("fig5b_small", ["bell", "--fig", "5b", "--steps", "31"]),
        ("fig3a_small", ["uncertainty", "--fig", "3a", "--steps", "11"]),
        ("obs_small", ["uncertainty", "--obs1", "1.5708,0,0.5", "--obs2",
                       "0.7,1,0", "--scan", "obs2", "--steps", "13",
                       "--time-unit", "tau_s"]),
    ])
    def test_matches_golden(self, tmp_path, capsys, name, args):
        golden = GOLDEN_DIR / f"{name}.csv"
        out = tmp_path / "out.csv"
        main(args + ["--out", str(out)])
        capsys.readouterr()
        assert out.read_bytes() == golden.read_bytes()


def test_cli_imports_no_private_name():
    # the CLI runs on the package's public API
    tree = ast.parse(Path(mesonq.cli.__file__).read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
