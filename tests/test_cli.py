"""End-to-end coverage of the command-line reports."""

import csv
import io
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from omegalab.cli import _DISPATCH, _parser, build_parser, main
from omegalab.series import decompose_tail, integrality_probe, partial_sum, tail_bound


def run_cli(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def run_json(argv, capsys):
    rc, out = run_cli(argv + ["--no-timing"], capsys)
    return rc, json.loads(out)


def read(text):
    """An exact report field printed as hex p/q."""
    return Fraction(*(int(part, 16) for part in text.split("/")))


class TestReports:
    def test_alpha_reference_values(self, capsys):
        rc, doc = run_json(["alpha", "--t", "2", "--N", "10"], capsys)
        assert rc == 0
        assert doc["header"]["tool"] == "omegalab"
        assert doc["header"]["command"] == "alpha"
        assert doc["result"]["partial"] == "33/64"
        assert doc["result"]["tail_hi"] == "23/5632"

    def test_alpha_probe_block(self, capsys):
        rc, doc = run_json(
            ["alpha", "--t", "2", "--N", "10", "--probe-a", "1", "--probe-b", "2"],
            capsys,
        )
        assert rc == 0
        probe = doc["result"]["integrality_probe"]
        assert probe["probe_integer"] == 1 * 2**10 - 2 * 528
        assert probe["consistent"] in (True, False)

    def test_alpha_past_the_decimal_digit_limit(self, capsys):
        # 2**20000 has 6021 decimal digits, more than str() prints by
        # default: the exact fields come in hex and read back exactly
        rc, doc = run_json(["alpha", "--t", "2", "--N", "20000", "--probe-a", "1", "--probe-b", "2"], capsys)
        assert rc == 0
        res, probe = doc["result"], doc["result"]["integrality_probe"]
        assert read(res["partial"]) == partial_sum(2, 20000)
        assert read(res["tail_hi"]) == tail_bound(2, 20000)
        ref = integrality_probe(1, 2, 2, 20000)
        assert int(probe["probe_integer"], 16) == ref["probe_integer"]
        assert Fraction(probe["window_hi"]) == ref["window_hi"]  # 600034/20001 fits in decimal

    def test_decompose_past_the_decimal_digit_limit(self, capsys):
        argv = ["decompose", "--t", "2", "--b", "1", "--n0", "3", "--Q", "4", "--K", "2", "--L", "4", "--M", "20000"]
        rc, doc = run_json(argv, capsys)
        assert rc == 0
        r, ref = doc["result"], decompose_tail(2, 1, 3, 2, 4, 4, 20000)
        assert (r["S1"], r["S2"]) == ("1", "5/16")
        assert read(r["S3_truncated"]) == ref.S3_truncated
        assert read(r["S3_tail_hi"]) == ref.S3_tail_hi

    def test_tuple_count_twins(self, capsys):
        forms = '[{"a":1,"b":0},{"a":1,"b":2}]'
        rc, doc = run_json(["tuple-count", "--forms", forms, "--n-max", "100"], capsys)
        assert rc == 0
        assert doc["result"]["count"] == 8

    def test_admissible_report(self, capsys):
        forms = '[{"a":1,"b":0},{"a":1,"b":2},{"a":1,"b":4}]'
        rc, doc = run_json(["admissible", "--forms", forms], capsys)
        assert rc == 0
        assert doc["result"]["admissible"] is False
        assert doc["result"]["witness_prime"] == 3

    def test_singular_series_shifted_form(self, capsys):
        forms = '[{"a":2,"b":1}]'
        rc, doc = run_json(["singular-series", "--forms", forms], capsys)
        assert rc == 0
        assert doc["result"]["value"] == pytest.approx(2.0, abs=1e-12)
        assert doc["result"]["error_bound"] == 0.0

    def test_params_at_million(self, capsys):
        rc, doc = run_json(["params", "--x", "1e6"], capsys)
        assert rc == 0
        r = doc["result"]
        assert (r["K"], r["L"], r["Q"], r["g"]) == (4, 5, 1296, 1)

    def test_params_at_googol(self, capsys):
        rc, doc = run_json(["params", "--x", "1e100"], capsys)
        assert rc == 0
        assert doc["result"]["Q"] == 7779240000
        assert doc["result"]["Q_prime"] == 864360000

    def test_search_reference_witness(self, capsys):
        rc, doc = run_json(
            ["search-n0", "--K", "2", "--Q", "4", "--L", "4", "--theta2", "2",
             "--theta3", "1", "--n-max", "50"],
            capsys,
        )
        assert rc == 0
        r = doc["result"]
        assert r["found"] is True
        assert r["witness"]["n0"] == 3
        assert r["witness"]["prime_certificates"] == [13, 7]
        assert r["witness"]["omega_table"] == {"3": 2, "4": 1}
        assert r["verified"] is True
        assert "free parameters" in r["thresholds_note"]

    def test_search_not_found_is_reported(self, capsys):
        rc, doc = run_json(
            ["search-n0", "--K", "2", "--Q", "4", "--L", "4", "--theta2", "0",
             "--theta3", "0", "--n-max", "5"],
            capsys,
        )
        assert rc == 0
        assert doc["result"]["found"] is False
        assert "witness" not in doc["result"]

    def test_decompose_reference(self, capsys):
        rc, doc = run_json(
            ["decompose", "--t", "2", "--b", "1", "--n0", "3", "--Q", "4",
             "--K", "2", "--L", "4"],
            capsys,
        )
        assert rc == 0
        r = doc["result"]
        assert r["S1"] == "1"
        assert r["S2"] == "5/16"
        assert r["identity_applicable"] is True
        assert r["identity_holds"] is True

    def test_brun_check_closed_form(self, capsys):
        rc, doc = run_json(["brun-check", "--m", "30", "--V", "2"], capsys)
        assert rc == 0
        r = doc["result"]
        assert r["truncated_sum"] == 1
        assert r["closed_form_matches"] is True
        assert r["sandwich_side"] == "upper"
        assert r["sandwich_holds"] is True

    def test_euler_identity_with_truncation(self, capsys):
        rc, doc = run_json(
            ["euler-identity", "--K", "2", "--lo", "4", "--hi", "10", "--V", "1"],
            capsys,
        )
        assert rc == 0
        r = doc["result"]
        assert r["product"] == "1/3"
        assert r["divisor_sum"] == "1/3"
        assert r["sides_equal"] is True
        assert r["truncation"]["bound"] == "25/72"
        assert r["truncation"]["dominates"] is True

    def test_euler_identity_exclusion(self, capsys):
        rc, doc = run_json(
            ["euler-identity", "--K", "2", "--lo", "4", "--hi", "10",
             "--excluded", "5"],
            capsys,
        )
        assert rc == 0
        assert doc["result"]["product"] == "2/3"
        assert doc["result"]["interval"]["excluded"] == [5]

    def test_shiu_mean_exact_route(self, capsys):
        rc, doc = run_json(["shiu-mean", "--lambda", "1/3", "--n-max", "6"], capsys)
        assert rc == 0
        assert doc["result"]["value"] == "22/9"
        assert doc["result"]["float_error_bound"] is None

    def test_shiu_mean_float_route(self, capsys):
        rc, doc = run_json(["shiu-mean", "--lambda", "0.5", "--n-max", "1000"], capsys)
        assert rc == 0
        assert doc["result"]["float_error_bound"] is not None
        assert doc["result"]["value_decimal"] > 1.0

    def test_optimum_defaults(self, capsys):
        rc, doc = run_json(["optimum"], capsys)
        assert rc == 0
        assert doc["result"]["lambda_star"] == pytest.approx(0.1, abs=1e-6)
        assert doc["result"]["c0"] == pytest.approx(0.6697414907, abs=1e-9)

    def test_hl_compare_single_form(self, capsys):
        forms = '[{"a":1,"b":1}]'
        rc, doc = run_json(
            ["hl-compare", "--forms", forms, "--n-max", "100000"], capsys
        )
        assert rc == 0
        r = doc["result"]
        assert r["empirical"] == 9592  # pi(100001)
        assert 0.95 <= r["ratio_integral"] <= 1.05


class TestOutputPlumbing:
    def test_no_timing_runs_are_byte_identical(self, capsys):
        argv = ["singular-series", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]',
                "--no-timing"]
        rc1, out1 = run_cli(argv, capsys)
        rc2, out2 = run_cli(argv, capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_one_parser_serves_successive_commands(self, capsys):
        # main reuses one parser; a run must not see the flags of the last
        rc1, doc1 = run_json(["alpha", "--t", "2", "--N", "10"], capsys)
        rc2, doc2 = run_json(["tuple-count", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]',
                              "--n-max", "100"], capsys)
        rc3, doc3 = run_json(["alpha", "--t", "3", "--N", "4"], capsys)
        assert rc1 == rc2 == rc3 == 0
        assert doc1["result"]["partial"] == "33/64"
        assert doc2["result"]["count"] == 8
        assert doc3["result"]["partial"] == "13/81"  # (0*27 + 1*9 + 1*3 + 1) / 3**4
        assert set(doc3["header"]["config"]) == set(doc1["header"]["config"]) == {"format"} | CONFIG_KEYS["alpha"]
        assert set(doc2["header"]["config"]) == {"format"} | CONFIG_KEYS["tuple-count"]
        assert _parser() is _parser() and _parser.cache_info().currsize == 1
        assert build_parser() is not build_parser()

    def test_timing_present_by_default(self, capsys):
        rc, out = run_cli(["optimum"], capsys)
        assert rc == 0
        assert "timing_s" in json.loads(out)["header"]

    def test_window_csv_columns(self, capsys):
        rc, out = run_cli(
            ["window", "--profile", "sigma=0.5", "--tmax", "20", "--points", "5",
             "--format", "csv", "--no-timing"],
            capsys,
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert set(rows[0]) == {"t", "magnitude", "envelope"}
        assert len(rows) == 5
        for row in rows:
            assert float(row["magnitude"]) <= float(row["envelope"])

    def test_scalar_csv_is_key_value(self, capsys):
        rc, out = run_cli(["optimum", "--format", "csv", "--no-timing"], capsys)
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        keys = {r[0] for r in rows[1:]}
        assert {"weight", "lambda_star", "c0"} <= keys

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc, out = run_cli(
            ["params", "--x", "1e6", "--output", str(path), "--no-timing"], capsys
        )
        assert rc == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["result"]["Q"] == 1296

    def test_window_profile_flag_validated(self, capsys):
        rc, out = run_cli(
            ["window", "--profile", "tau=0.5", "--tmax", "10", "--no-timing"], capsys
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"


class TestErrorReports:
    def test_inadmissible_system_exits_one(self, capsys):
        forms = '[{"a":2,"b":0},{"a":2,"b":1}]'
        rc, out = run_cli(
            ["singular-series", "--forms", forms, "--no-timing"], capsys
        )
        assert rc == 1
        err = json.loads(out)["error"]
        assert err["code"] == "domain"
        assert err["context"]["subcommand"] == "singular-series"

    def test_memory_budget_exits_two(self, capsys):
        rc, out = run_cli(
            # the block sieve reserves its base primes up to sqrt(1e19) with
            # their roots and strike scratch: far more than 2e9 bytes
            ["tuple-count", "--forms", '[{"a":1,"b":2}]',
             "--n-max", "10000000000000000000", "--no-timing"],
            capsys,
        )
        assert rc == 2
        assert json.loads(out)["error"]["code"] == "resource"

    def test_prime_list_budget_exits_two(self, capsys, monkeypatch):
        # the Euler product lists the primes up to 1e7, 5.3e6 bytes or more
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))
        rc, out = run_cli(
            ["singular-series", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]',
             "--truncation-prime", "10000000", "--no-timing"],
            capsys,
        )
        assert rc == 2
        assert json.loads(out)["error"]["code"] == "resource"

    def test_probe_flags_must_pair(self, capsys):
        rc, out = run_cli(
            ["alpha", "--t", "2", "--N", "10", "--probe-a", "1", "--no-timing"],
            capsys,
        )
        assert rc == 1
        assert "together" in json.loads(out)["error"]["message"]

    def test_search_spec_violation_reported(self, capsys):
        # Q=6 is not divisible by K^2=4, so the search configuration is rejected up front
        rc, out = run_cli(
            ["search-n0", "--K", "2", "--Q", "6", "--L", "4", "--theta2", "2",
             "--theta3", "1", "--n-max", "10", "--no-timing"],
            capsys,
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"

    def test_malformed_forms_json(self, capsys):
        rc, out = run_cli(
            ["admissible", "--forms", "not json", "--no-timing"], capsys
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "omegalab", "params", "--x", "1e6", "--no-timing"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["K"] == 4
    assert doc["result"]["Q"] == 1296


def test_import_leaves_sympy_unloaded():
    # sympy is a test oracle only; the library and the CLI must not pull it in
    code = "import sys, omegalab, omegalab.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_unloaded():
    # scipy serves only exponent_optimum, which imports it when called
    code = "import sys, omegalab, omegalab.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: header.config keys besides "format": exactly the subcommand's own flags
CONFIG_KEYS = {
    "params": {"x"},
    "admissible": {"forms"},
    "singular-series": {"forms", "truncation_prime"},
    "tuple-count": {"forms", "n_max"},
    "hl-compare": {"forms", "n_max", "truncation_prime"},
    "search-n0": {"K", "Q", "L", "theta2", "theta3", "n_max"},
    "alpha": {"t", "N", "probe_a", "probe_b"},
    "decompose": {"t", "b", "n0", "Q", "K", "L", "M"},
    "brun-check": {"m", "V"},
    "euler-identity": {"K", "lo", "hi", "excluded", "V"},
    "shiu-mean": {"lam", "n_max"},
    "window": {"sigma", "tmax", "points", "tol"},
    "optimum": {"weight"},
}


def _readme_command_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


class TestReadmeCommandLines:
    def test_every_subcommand_listed(self):
        lines = _readme_command_lines()
        assert all(line.startswith("omegalab ") for line in lines)
        assert sorted(line.split()[1] for line in lines) == sorted(CONFIG_KEYS) == sorted(_DISPATCH)

    @pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
    def test_line_runs_and_header_echoes_own_flags(self, line, capsys):
        argv = shlex.split(line)[1:] + ["--no-timing"]
        rc, out = run_cli(argv, capsys)
        assert rc == 0 and out
        if not out.startswith("{"):  # CSV reports carry no header
            rc, out = run_cli(argv + ["--format", "json"], capsys)
            assert rc == 0
        config = json.loads(out)["header"]["config"]
        assert set(config) == {"format"} | CONFIG_KEYS[argv[0]]
