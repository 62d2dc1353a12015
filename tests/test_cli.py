"""Command-line interface: outputs and exit codes."""

import csv
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from halfq.cli import main
from halfq.experiment import build_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "parse", "Q1*P1 - P1*Q1")
    assert code == 0
    assert out.strip() == "i*hbar"


def test_parse_json_output(capsys):
    code, out, _ = run_cli(capsys, "parse", "q1*P1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["canonical"] == "q1*P1"


def test_parse_reports_errors(capsys):
    code, _, err = run_cli(capsys, "parse", "q1 + ")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "text, position", [("q1/0", 3), ("q1/(1-1)", 3), ("0^-1*q1", 0)]
)
def test_parse_division_by_zero_says_so(capsys, text, position):
    code, out, err = run_cli(capsys, "parse", text)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: division by zero (at position {position})"]


def test_parse_normal_orders_long_words(capsys):
    # normal ordering is a closed form per run of letters, so a word needing
    # thousands of swaps costs no recursion
    code, out, err = run_cli(capsys, "parse", "P1^40*Q1^40")
    assert (code, err) == (0, "")
    assert out.startswith(
        "Q1^40*P1^40 - 1600*i*hbar*Q1^39*P1^39 - 1216800*hbar^2*Q1^38*P1^38"
    )
    code, out, err = run_cli(capsys, "parse", "P1^2000*Q1")
    assert (code, err) == (0, "")
    assert out.strip() == "Q1*P1^2000 - 2000*i*hbar*P1^1999"


def test_verify_json_is_one_line_of_the_report(tmp_path, capsys):
    # --json prints the report as one line of JSON with sorted keys
    from halfq.experiment import SystemConfig, run_verification

    cfg = build_example(npoints=32, extent=8.0, times=(0.0, 0.5))
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--json", "--quiet")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1
    report = run_verification(SystemConfig.from_json(path.read_text(encoding="utf-8")))
    assert json.loads(out) == report.to_json_dict()
    assert list(json.loads(out)) == sorted(report.to_json_dict())


@pytest.mark.parametrize(
    "argv, position, message",
    [
        (("Q1^1000000",), 3, "exponent above 4096"),
        (("q1^100000000", "--system", "1,1"), 3, "exponent above 4096"),
        (("hbar^100000000",), 5, "exponent above 4096"),
        (("(Q1+P1)^150", "--system", "0,1"), 8,
         "power of a sum could expand to more than 4096 terms"),
        (("(Q1+P1)^40*(Q1+P1)^40", "--system", "0,1"), 11,
         "product could expand to more than 4096 terms"),
    ],
    # explicit ids keep the names the first three cases are known by
    ids=["argv0-3", "argv1-3", "argv2-5", "sum-power", "sum-product"],
)
def test_parse_refuses_runaway_exponents_at_once(capsys, argv, position, message):
    # a 10^6-letter word, 10^8 coefficient products, or the 5,776 terms of
    # (Q1+P1)^150 (5.8 s to expand), are refused at the exponent before
    # any is built; the product of two 441-term powers (25.6 s to multiply
    # out) at its second factor, before the two are multiplied
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "parse", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message} (at position {position})"]


def test_halfquantize_example_hamiltonian(capsys):
    code, out, _ = run_cli(
        capsys,
        "halfquantize",
        "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2",
        "--split",
        "1,1",
        "--constants",
        "m,M,k",
    )
    assert code == 0
    assert out.strip() == "1/2*M^-1*P1^2 + k*q1*P1 + 1/2*m^-1*p1^2"


def test_halfquantize_two_classical_dofs(capsys):
    code, out, _ = run_cli(
        capsys, "halfquantize", "k*q1*p2*q3*p3^2 + p3^2/(2*M)", "--split", "2,1",
        "--constants", "k,M",
    )
    assert code == 0
    assert out.strip() == "1/2*M^-1*P1^2 + k*q1*p2*Q1*P1^2 - i*hbar*k*q1*p2*P1"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["parse", "k*q1", "--system", "1,0"], "k*q1"),
        (["halfquantize", "k*q1*p2", "--split", "1, 1"], "k*q1*P1"),
    ],
)
def test_constants_flag_strips_each_name(capsys, argv, want):
    for names in ("k, m", " k ,m ", "k,m"):
        code, out, err = run_cli(capsys, *argv, "--constants", names)
        assert (code, out.strip(), err) == (0, want, "")
    for names in ("k,", "k, ,m"):
        code, out, err = run_cli(capsys, *argv, "--constants", names)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: constant '' is not an identifier"]


def test_evolve_prints_series(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--observable", "P1")
    assert code == 0
    assert out.strip() == "P1(t) = P1"


def test_evolve_names_the_observables_on_an_unknown_one(capsys):
    code, out, err = run_cli(capsys, "evolve", "--observable", "X9")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: unknown observable 'X9'; choose from q1, p1, Q1, P1"]


def test_evolve_reads_observable_names_as_the_config_does(capsys):
    # Q01 names Q1, as in a config's sweep; Q2 lies outside the 1+1 example
    code, out, err = run_cli(capsys, "evolve", "--observable", "Q01")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "evolve", "--observable", "Q1")[1]
    assert out.startswith("Q1(t) = ")
    code, out, err = run_cli(capsys, "evolve", "--observable", "Q2")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: unknown observable 'Q2'; choose from q1, p1, Q1, P1"]


def test_certify_default_example(capsys):
    code, out, _ = run_cli(capsys, "certify")
    assert code == 0
    assert "pass" in out


def test_constants_rows(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    assert "0.732456" in out
    assert "3.5566" in out


def test_constants_json_rows_match_text(capsys):
    code, out, _ = run_cli(capsys, "constants", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["L"], r["p"]) for r in rows] == [(1, 0.99), (10, 0.99999)]
    assert set(rows[0]) == {
        "L", "p", "leakage", "error_coefficient", "worst_error", "widening_over_delta",
    }
    _, text, _ = run_cli(capsys, "constants")
    lines = text.splitlines()
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert f"worst error={row['worst_error']:.6f}" in line


def test_jacobi_demo(capsys):
    code, out, _ = run_cli(capsys, "jacobi-demo")
    assert code == 0
    assert "-1/2*hbar^4" in out or "1/2*hbar^4" in out


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_shared_options_are_defined_once():
    # --json, --config and --constants each carry one help text in every
    # command that takes them
    import argparse

    from halfq.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for flag in set(action.option_strings) & {"--json", "--config", "--constants"}:
                helps.setdefault(flag, {})[command] = action.help
    assert sorted(helps["--json"]) == sorted(sub.choices)
    assert sorted(helps["--config"]) == ["bounds", "certify", "evolve", "verify"]
    assert sorted(helps["--constants"]) == ["halfquantize", "parse"]
    assert all(len(set(by.values())) == 1 and None not in by.values() for by in helps.values())


def test_malformed_system_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "q1", "--system", "1"])
    assert exc.value.code == 2
    assert "system must look like M,N" in capsys.readouterr().err


def write_small_config(tmp_path):
    cfg = build_example(npoints=32, extent=8.0, times=(0.0, 0.5))
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return path


def test_bounds_with_csv_output(tmp_path, capsys):
    path = write_small_config(tmp_path)
    out_csv = tmp_path / "bounds.csv"
    code, out, _ = run_cli(
        capsys, "bounds", "--config", str(path), "--out", str(out_csv)
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "observable"
    assert len(rows) > 1


def test_bounds_rows_equal_verify_rows(tmp_path, capsys):
    path = write_small_config(tmp_path)
    code, out, _ = run_cli(capsys, "bounds", "--config", str(path), "--json")
    assert code == 0
    bounds_rows = json.loads(out)["rows"]
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(path), "--shallow", "--quiet", "--json"
    )
    assert code == 0
    verify_rows = json.loads(out)["rows"]
    key = ("observable", "t", "L", "p", "width_multiplier", "lower", "upper")
    assert len(bounds_rows) == 96
    assert [[r[k] for k in key] for r in bounds_rows] == [
        [r[k] for k in key] for r in verify_rows
    ]


@pytest.mark.parametrize(
    "command, header",
    [
        (("bounds",), ["observable", "t", "L", "p", "width_multiplier", "lower", "upper"]),
        (
            ("verify", "--shallow", "--quiet"),
            ["observable", "L", "p", "width_multiplier", "t", "lower", "oracle", "upper"],
        ),
    ],
    ids=["bounds", "verify"],
)
def test_csv_output_matches_json_rows(tmp_path, capsys, command, header):
    path = write_small_config(tmp_path)
    code, out, _ = run_cli(capsys, *command, "--config", str(path), "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    out_csv = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, *command, "--config", str(path), "--csv", "--out", str(out_csv))
    assert code == 0
    # one CSV writer: "\n" line ends on stdout, CRLF in the --out file
    assert "\r" not in out
    assert out_csv.read_bytes() == out.replace("\n", "\r\n").encode("utf-8")
    table = list(csv.reader(out.splitlines()))
    assert table[0] == header
    assert len(rows) == 96 and len(table) == len(rows) + 1
    keys = ["oracle_P" if k == "oracle" else k for k in header]
    assert table[1:] == [[str(r[k]) for k in keys] for r in rows]


def test_verify_fails_when_leakage_exceeds_its_bound(tmp_path, capsys, monkeypatch):
    from halfq.experiment import TOLERANCES

    # a negative slack puts every measured leakage over its bound
    monkeypatch.setitem(TOLERANCES, "leak_slack", -1.0)
    path = write_small_config(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--config", str(path), "--quiet")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "status: fail"
    assert "sandwich rows: 96 (0 violations)" in lines
    assert "X1 leakage rows: 60 (60 over bound)" in lines
    assert "X2 leakage rows: 60 (60 over bound)" in lines
    assert lines[-1] == (
        "note: 60 X2 rows exceed the closed-form leakage constant "
        "(continuum approximation; informational, not gating)"
    )


def test_quiet_verify_reads_the_spectral_interval_once(tmp_path, capsys, monkeypatch):
    # the propagator reads H's interval; the progress note that counts
    # Chebyshev terms reads it again, so it is built only when shown
    import halfq.hilbert

    original = halfq.hilbert._chebyshev_interval
    calls = []

    def interval(H):
        calls.append(H.dim)
        return original(H)

    monkeypatch.setattr(halfq.hilbert, "_chebyshev_interval", interval)
    path = write_small_config(tmp_path)
    code, _, err = run_cli(capsys, "verify", "--config", str(path), "--quiet")
    assert code == 0 and err == ""
    assert calls == [32 * 32]


def test_verify_ehrenfest_guard_is_one_error_line(tmp_path, capsys, monkeypatch):
    from halfq.experiment import TOLERANCES

    monkeypatch.setitem(TOLERANCES, "ehrenfest", 0.0)
    path = write_small_config(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--shallow", "--quiet")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: oracle Ehrenfest gap ")
    assert lines[0].endswith(" exceeds 0.0e+00")


def test_bounds_exits_one_when_a_certificate_fails(tmp_path, capsys):
    cfg = build_example(npoints=32, extent=8.0, times=(0.0,), packet_width=1.2)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    code, _, _ = run_cli(capsys, "certify", "--config", str(path))
    assert code == 1
    code, out, err = run_cli(capsys, "bounds", "--config", str(path), "--json")
    assert code == 1
    assert "certificate fails at L=1, L=2" in err
    assert json.loads(out)["rows"]


def test_unresolved_quantum_packet_is_refused_by_every_command(tmp_path, capsys):
    # a quantum packet of width 0.15 on 32 points over [-8, 8] holds 7.4e-2
    # of its mass at the momentum edge; certify and bounds refuse it as
    # verify does, naming the factor
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    raw["quantum_state"][0]["dq"] = 0.15
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    for command in ("certify", "bounds", "verify"):
        code, out, err = run_cli(capsys, command, "--config", str(path), "--json")
        assert code == 1, command
        assert out == "", command
        assert err.splitlines() == [
            "error: quantum factor carries momentum-edge mass 7.408e-02 > 1.0e-06; "
            "widen or refine the grids, or shorten the sweep"
        ], command


@pytest.mark.parametrize(
    "key, value", [("hamiltonian", None), ("sweep", 5)], ids=["no-hamiltonian", "sweep-number"]
)
def test_malformed_config_is_one_error_line(tmp_path, capsys, key, value):
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    if value is None:
        del raw[key]
    else:
        raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, "certify", "--config", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("command", ["evolve", "certify", "bounds", "verify"])
def test_zero_divisor_constant_is_one_error_line(tmp_path, capsys, command):
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    raw["constants"]["M"] = 0.0  # the Hamiltonian holds p2^2/(2*M)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert lines == ["error: constant M = 0.0 reads as 0, and the Hamiltonian divides by it"], err


@pytest.mark.parametrize("command", ["evolve", "certify", "bounds", "verify"])
def test_non_terminating_series_is_one_error_line(tmp_path, capsys, command):
    # a harmonic term makes the bracket chain of q1 cycle instead of vanish
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    raw["hamiltonian"] += " + w*q1^2/2"
    raw["constants"]["w"] = 0.5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert lines == ["error: bracket chain did not terminate within 60 orders"], err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_non_finite_amplitude_file_is_one_error_line(tmp_path, capsys, command, value):
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    amps = np.column_stack([np.ones(32), np.zeros(32)])
    amps[5, 1] = value
    amp_path = tmp_path / "phi_q.txt"
    np.savetxt(amp_path, amps)
    raw["quantum_state"] = [{"kind": "file", "path": str(amp_path)}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: amplitude file {amp_path} holds a non-finite number"]


def test_zero_amplitude_file_is_one_error_line(tmp_path, capsys):
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    amp_path = tmp_path / "phi_q.txt"
    np.savetxt(amp_path, np.zeros((32, 2)))
    raw["quantum_state"] = [{"kind": "file", "path": str(amp_path)}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, "bounds", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: amplitude file holds the zero vector"]


def test_observable_names_are_read_as_symbols(tmp_path, capsys):
    # q01 names q1: bounds and verify run it and print the canonical name
    # in every row, in the config echo and in the progress notes, and
    # evolve reads --observable the same way
    raw = build_example(npoints=32, extent=8.0, times=(0.0, 0.5)).to_json_dict()
    raw["sweep"]["observables"] = ["q01", "P1"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, "bounds", "--config", str(path), "--json")
    assert code == 0, err
    assert {row["observable"] for row in json.loads(out)["rows"]} == {"q1", "P1"}
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--shallow", "--json")
    assert code == 0, err
    report = json.loads(out)
    assert {row["observable"] for row in report["rows"]} == {"q1", "P1"}
    assert report["config"]["sweep"]["observables"] == ["q1", "P1"]
    assert "  .. observable q1, t=0.5" in err.splitlines()
    code, out, err = run_cli(capsys, "evolve", "--config", str(path), "--observable", "q01")
    assert (code, err) == (0, "")
    assert out.startswith("q1(t) = ")
    assert out == run_cli(capsys, "evolve", "--config", str(path), "--observable", "q1")[1]


@pytest.mark.parametrize(
    "argv", [["certify"], ["bounds"], ["verify", "--shallow", "--quiet"]], ids=lambda a: a[0]
)
def test_each_command_parses_the_hamiltonian_once(tmp_path, capsys, monkeypatch, argv):
    # the loader parses the Hamiltonian and keeps the expression on the
    # config; the hybrid and full-quantum forms are built from it
    import halfq.experiment

    path = write_small_config(tmp_path)
    original = halfq.experiment._parse_hamiltonian
    calls = []

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(halfq.experiment, "_parse_hamiltonian", counted)
    code, _, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["evolve", "certify", "bounds", "verify"])
def test_values_read_as_zero_are_one_stderr_note(tmp_path, capsys, command):
    cfg = build_example(npoints=32, extent=8.0, coupling=1e-13, times=(0.0, 1e-13))
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    flags = ["--json", "--quiet"] if command == "verify" else ["--json"]
    _, out, err = run_cli(capsys, command, "--config", str(path), *flags)
    note = "constant k = 1e-13, time 1e-13 read as 0: the exact layer resolves no value below 5e-13"
    assert err.splitlines() == [f"note: {note}"]
    if command == "verify":
        assert json.loads(out)["notes"] == [note]


def test_exact_commands_load_no_numeric_module():
    # parse, halfquantize and jacobi-demo run on the exact layer alone; a
    # command that needs the numerics still loads them when it runs
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import halfq, halfq.cli
        argvs = (["parse", "Q1*P1 - P1*Q1"], ["halfquantize", "q1*p2^2", "--split", "1,1"],
                 ["jacobi-demo"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [halfq.cli.main(argv) for argv in argvs]
        numeric = ("numpy", "halfq.experiment", "halfq.hilbert", "halfq.bounds",
                   "halfq.classicality")
        loaded = [name for name in numeric if name in sys.modules]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = halfq.cli.main(["certify", "--json"])
        levels = sorted(json.loads(out.getvalue())["certificates"])
        print(json.dumps({"codes": codes, "loaded": loaded, "certify": [code, levels]}))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0, 0], "loaded": [], "certify": [0, ["1", "2"]]}


def test_verify_shallow_small_config(tmp_path, capsys):
    path = write_small_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--config",
        str(path),
        "--shallow",
        "--quiet",
        "--out",
        str(out_csv),
    )
    assert code == 0
    assert "status: pass" in out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "observable", "L", "p", "width_multiplier", "t", "lower", "oracle", "upper",
    ]
    assert len(rows) == 97  # 4 observables x 2 t x 2 L x 2 p x 3 widths + header


def test_verify_json_not_applicable(tmp_path, capsys):
    cfg = build_example(npoints=32, extent=8.0, times=(0.0,), packet_width=1.2)
    path = tmp_path / "bad.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(path), "--quiet", "--json"
    )
    assert code == 1
    # strict JSON (RFC 8259): no NaN or Infinity, so no oracle means null
    blob = json.loads(out, parse_constant=_refuse_non_finite)
    assert blob["status"] == "not_applicable"
    assert blob["ehrenfest"] is None
    code, out, _ = run_cli(capsys, "verify", "--config", str(path), "--quiet")
    assert code == 1
    assert "ehrenfest gap: not measured" in out


def _refuse_non_finite(name):
    raise ValueError(f"{name} is not JSON")


def test_json_writer_refuses_non_finite_numbers(capsys):
    # the one writer of every command's JSON prints no NaN or Infinity
    from argparse import Namespace

    from halfq.cli import _emit

    args = Namespace(json=True, csv=False, out=None)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _emit(args, {"x": value}, "text")
    assert capsys.readouterr().out == ""
