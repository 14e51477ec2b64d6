import argparse
import os
import subprocess
import sys
import time

import pytest

from lpairs.cli import _parse_t_list, run


@pytest.fixture()
def zero_file(tmp_path, zeros100):
    path = tmp_path / "zeros100.txt"
    zeros100.save(path)
    return str(path)


def test_zeros_command_computes(tmp_path):
    out = tmp_path / "z.txt"
    assert run(["zeros", "--T", "20", "--zeros", "compute", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert abs(float(lines[0]) - 14.134725141734694) < 1e-8


def test_landau_command(zero_file, tmp_path):
    out = tmp_path / "landau.csv"
    code = run(["landau", "--x", "2", "--T", "100", "--zeros", zero_file,
                "--output", str(out)])
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header.startswith("x,T,")
    cells = row.split(",")
    assert cells[0] == "2"
    assert float(cells[2]) != 0.0


def test_landau_rational_x(zero_file, tmp_path):
    out = tmp_path / "landau.csv"
    assert run(["landau", "--x", "15/2", "--T", "100", "--zeros", zero_file,
                "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("15/2,")


@pytest.mark.parametrize("x", ["3/0", "0/0"])
def test_config_error_zero_denominator_x(zero_file, x, capsys):
    assert run(["landau", "--x", x, "--T", "100", "--zeros", zero_file]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_config_error_x_beyond_float_range(tmp_path, capsys):
    # float(1e400) used to end in an OverflowError traceback; the point is
    # refused before the (here missing) zero file is read
    missing = str(tmp_path / "nowhere.txt")
    assert run(["landau", "--x", "1e400", "--T", "100", "--zeros", missing]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_config_error_nonprime_modulus(zero_file):
    assert run(["thm1", "--char1", "4:1", "--char2", "5:2",
                "--zeros", zero_file, "--T", "100"]) == 1


def test_config_error_bad_t():
    assert run(["zeros", "--T", "nope"]) == 1


def test_io_error_missing_zero_file(tmp_path):
    missing = str(tmp_path / "nowhere.txt")
    assert run(["landau", "--x", "2", "--T", "100", "--zeros", missing]) == 3


def test_io_error_bad_zero_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.1\ngarbage\n")
    assert run(["landau", "--x", "2", "--T", "100", "--zeros", str(bad)]) == 3


def test_env_var_default(zero_file, tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_ZEROS_PATH", zero_file)
    out = tmp_path / "landau.csv"
    assert run(["landau", "--x", "2", "--T", "100", "--output", str(out)]) == 0
    assert out.exists()


def test_thm1_reproducible(zero_file, tmp_path):
    args = ["thm1", "--T", "100", "--sigma", "0.75", "--char1", "3:1",
            "--char2", "5:2", "--zeros", zero_file]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert run(args + ["--output", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["thm1", "thm2"])
def test_parallel_flag_rejected(zero_file, command):
    assert run([command, "--T", "100", "--zeros", zero_file, "--parallel"]) == 1


def test_thm1_t_sweep_rows(zero_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["thm1", "--T", "50,100", "--char1", "3:1", "--char2", "5:2",
                "--zeros", zero_file, "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two rows


def test_thm1_sweep_rows_equal_separate_runs(zero_file, tmp_path):
    # the sweep is one pass to max(T); each row is byte-equal to the row of
    # a run at that height alone, in the order the heights were given
    def lines(t_values):
        out = tmp_path / f"thm1_{t_values}.csv"
        assert run(["thm1", "--T", t_values, "--char1", "3:1", "--char2", "5:2",
                    "--zeros", zero_file, "--output", str(out)]) == 0
        return out.read_bytes().splitlines()

    header, row100, row50 = lines("100,50")
    assert lines("100") == [header, row100]
    assert lines("50") == [header, row50]


def test_thm1_sweep_sums_each_constant_once_per_run(zero_file, tmp_path, monkeypatch):
    # D and E are summed once per sweep, whatever its number of heights,
    # and again by the next run: no cache lets a run skip the certificate
    import lpairs.meanvalues as mv
    kinds = []
    series_route = mv._series_route

    def counting(series, sigma, tol_tail):
        kinds.append(series.kind)
        return series_route(series, sigma, tol_tail)

    monkeypatch.setattr(mv, "_series_route", counting)
    argv = ["thm1", "--T", "30,60,100", "--sigma", "0.9", "--char1", "3:1",
            "--char2", "5:2", "--zeros", zero_file, "--output", str(tmp_path / "s.csv")]
    assert run(argv) == 0
    assert kinds == ["d", "e"]
    assert run(argv) == 0
    assert kinds == ["d", "e", "d", "e"]


def test_thm1_large_cutoff_refused_by_the_series_route(zero_file, capsys):
    # P = 31 is a configuration error ("raise sigma"), not a traceback
    # from the mollifier's coefficient lookup
    assert run(["thm1", "--P", "31", "--T", "100", "--zeros", zero_file]) == 1
    assert "raise sigma" in capsys.readouterr().err


def test_thm2_command(zero_file, tmp_path):
    out = tmp_path / "thm2.csv"
    assert run(["thm2", "--T", "100", "--char1", "3:1", "--char2", "5:2",
                "--zeros", zero_file, "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_thm2_method(zero_file, zeros100, tmp_path):
    # --method afe is the default, and --method oracle writes the oracle
    # report's row
    from lpairs.characters import character
    from lpairs.criticalline import ThmTwoReport, make_config, thm2_report

    rows = {}
    for method in (None, "afe", "oracle"):
        out = tmp_path / f"thm2_{method}.csv"
        argv = ["thm2", "--T", "100", "--char1", "3:1", "--char2", "5:2",
                "--zeros", zero_file, "--output", str(out)]
        assert run(argv + (["--method", method] if method else [])) == 0
        rows[method] = out.read_text()
    cfg = make_config(character(3, 1), character(5, 2))
    for method in ("afe", "oracle"):
        rep = thm2_report(zeros100, 100.0, cfg, method=method)
        assert rows[method] == ThmTwoReport.CSV_HEADER + "\n" + rep.csv_row() + "\n"
    assert rows[None] == rows["afe"] != rows["oracle"]


@pytest.mark.parametrize("argv", [
    ["thm1", "--sigma", "0.3"],
    ["thm1", "--sigma", "nan"],
    ["thm1", "--P", "97"],
    ["thm1", "--P", "4"],
    ["thm2", "--method", "fastest"],
    ["thm1", "--char1", "3:0"],
    ["thm2", "--char1", "3:0", "--p", "7"],
    ["thm2", "--char1", "3:1", "--char2", "5:2", "--p", "31"],
    ["landau", "--x", "2", "--T", "100,0.5"],
])
def test_config_error_before_zero_table(tmp_path, monkeypatch, argv):
    # a bad --sigma, --P or --method is a configuration error (exit 1)
    # even when the zero file is missing (exit 3) or would be computed;
    # a --T in argv overrides the default 100 placed before it
    import lpairs.cli

    def no_zeros(*args):
        raise AssertionError("zero table computed before validation")

    monkeypatch.setattr(lpairs.cli, "compute_zeros", no_zeros)
    argv = argv[:1] + ["--T", "100"] + argv[1:]
    missing = str(tmp_path / "nowhere.txt")
    assert run(argv + ["--zeros", missing]) == 1
    assert run(argv + ["--zeros", "compute"]) == 1


@pytest.mark.parametrize("heights", ["1", "100,1", "6.28"])
def test_thm2_height_checked_before_zero_table(zero_file, tmp_path, heights):
    # T <= 2 pi used to reach a division by T log^2 T = 0 (T = 1) or a
    # main term with log(T/2pi) <= 0; it is a configuration error, found
    # before the zero file is read
    assert run(["thm2", "--T", heights, "--zeros", zero_file]) == 1
    assert run(["thm2", "--T", heights, "--zeros", str(tmp_path / "nowhere.txt")]) == 1


def test_landau_at_a_huge_x_stops_at_the_primality_limit(zero_file, tmp_path, capsys):
    # x = 1e50 used to run for minutes in prime_power's float-seeded
    # integer root; the nearest prime power above it needs a primality
    # test beyond psi_13, a configuration error
    start = time.perf_counter()
    assert run(["landau", "--x", "1e50", "--T", "100", "--zeros", zero_file]) == 1
    assert time.perf_counter() - start < 5.0
    assert "proven only below" in capsys.readouterr().err
    out = tmp_path / "landau.csv"
    assert run(["landau", "--x", "1e20", "--T", "100", "--zeros", zero_file,
                "--output", str(out)]) == 0


def test_afe_verify_calls_the_oracle_once_per_point(tmp_path, monkeypatch):
    # one oracle value per (character, sigma, t), shared by the five Deltas
    import lpairs.cli

    calls = []
    oracle = lpairs.cli.l_oracle

    def counting(s, chi):
        calls.append((s, chi))
        return oracle(s, chi)

    monkeypatch.setattr(lpairs.cli, "l_oracle", counting)
    monkeypatch.setattr(lpairs.cli, "AFE_GRID_HEIGHTS", (1e2,))
    out = tmp_path / "afe.csv"
    assert run(["afe-verify", "--output", str(out)]) == 0
    points = 4 * len(lpairs.cli.AFE_GRID_SIGMAS)  # characters 3:1, 5:1, 5:2, 5:3
    assert len(calls) == len(set(calls)) == points
    assert len(out.read_text().splitlines()) == 1 + 5 * points


def test_afe_verify_rejects_t():
    # the grid heights are AFE_GRID_HEIGHTS; --T used to be accepted and ignored
    assert run(["afe-verify", "--T", "5"]) == 1


def test_numerics_error_maps_to_exit_2(zero_file, monkeypatch):
    from lpairs import cli as cli_mod
    from lpairs.errors import NumericsError

    def broken(*args):
        raise NumericsError("zero sum failed")

    monkeypatch.setattr(cli_mod, "landau_zero_sum", broken)
    assert run(["landau", "--x", "2", "--T", "100", "--zeros", zero_file]) == 2


def test_empty_zero_file_covers_no_height_above_the_floor(tmp_path, capsys):
    # an empty file used to claim every height and report N(1e4) = 0
    path = tmp_path / "empty.txt"
    path.write_text("# empty\n")
    assert run(["thm2", "--zeros", str(path), "--T", "1e4"]) == 1
    assert "only covers heights <= 10.0" in capsys.readouterr().err


def test_console_entry_point(src_env):
    proc = subprocess.run([sys.executable, "-m", "lpairs.cli", "--version"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0


def test_package_runs_as_a_module(src_env):
    # a checkout runs the CLI as python -m lpairs, without pip install
    proc = subprocess.run([sys.executable, "-m", "lpairs", "--version"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.parametrize("value", ["nan", "inf", "100,inf", "-inf"])
def test_config_error_non_finite_t(zero_file, value):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_t_list(value)
    assert run(["landau", "--x", "2", "--T", value, "--zeros", zero_file]) == 1


@pytest.mark.parametrize("value, message", [
    ("0", "values must be positive and finite, got '0'"),
    ("-5", "values must be positive and finite, got '-5'"),
    ("nan", "values must be positive and finite, got 'nan'"),
    ("abc", "expected a number or a comma list, got 'abc'"),
])
def test_bad_t_message_on_stderr(value, message, capsys):
    # argparse used to print "invalid _parse_t_list value: '0'" in place
    # of the parser's own message; the exit code stays 1
    assert run(["thm1", "--T", value]) == 1
    assert f"error: argument --T: {message}\n" in capsys.readouterr().err


def test_io_error_non_finite_ordinate(tmp_path):
    bad = tmp_path / "nan.txt"
    bad.write_text("14.134725141\nnan\n")
    assert run(["landau", "--x", "2", "--T", "100", "--zeros", str(bad)]) == 3


@pytest.mark.parametrize("command", ["thm1", "thm2"])
def test_csv_cells_are_plain_numbers(zero_file, tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert run([command, "--T", "50,100", "--char1", "3:1", "--char2", "5:2",
                "--zeros", zero_file, "--output", str(out)]) == 0
    header, *rows = out.read_text().strip().splitlines()
    assert len(rows) == 2
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for cell in cells:
            float(cell)


def test_unreachable_sigma_is_a_config_error_before_zero_table(tmp_path, capsys):
    # the series route for D and E cannot sum the N > 8e8 terms sigma = 0.55
    # needs; that is a configuration error (exit 1), found before the (here
    # missing) zero file is read (exit 3)
    missing = str(tmp_path / "nowhere.txt")
    assert run(["thm1", "--zeros", missing, "--T", "1000", "--sigma", "0.55",
                "--char1", "3:1", "--char2", "5:2"]) == 1
    assert "series route needs N" in capsys.readouterr().err


def test_io_error_zero_file_not_utf8(tmp_path, capsys):
    # a UnicodeDecodeError is a ValueError, and used to exit 1 as a
    # configuration error
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"14.134725141\n21.022039639 # \xe9\n")
    assert run(["landau", "--x", "2", "--T", "100", "--zeros", str(bad)]) == 3
    assert "I/O error: line 2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["landau", "thm1", "thm2"])
def test_csv_goes_to_stdout_without_output(zero_file, tmp_path, command, capsys):
    # without --output the CSV is written to standard output, the same bytes
    argv = [command, "--T", "50,100", "--zeros", zero_file]
    argv += ["--x", "2"] if command == "landau" else ["--char1", "3:1", "--char2", "5:2"]
    out = tmp_path / "out.csv"
    assert run(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_text()
