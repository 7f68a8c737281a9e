"""End-to-end coverage of the command-line reports."""

import csv
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from omegalab.brun import PrimeInterval, complete_sieve_product, truncation_error_bound
from omegalab.cli import _DISPATCH, _alpha_text_floor, _dumps, _parser, _text_bytes, _to_csv, build_parser, main
from omegalab.series import decompose_tail, integrality_probe, partial_sum, tail_bound
from omegalab.sieve import omega


def run_cli(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def run_json(argv, capsys):
    rc, out = run_cli(argv + ["--no-timing"], capsys)
    return rc, json.loads(out)


def read(text):
    """An exact report field printed as hex p/q."""
    return Fraction(*(int(part, 16) for part in text.split("/")))


def read_exact(value):
    """An exact report field in any of its forms: a JSON int, or text in
    decimal or hex, p or p/q."""
    if isinstance(value, int):
        return value
    return Fraction(*(int(part, 0) for part in value.split("/")))


def csv_fields(body):
    """A key,value CSV report as a dict."""
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_euler_identity_past_the_decimal_digit_limit(self, fmt, capsys):
        # 6055 primes in (4, 60000]: the product's and the bound's parts
        # have more than 4300 decimal digits, so both print in hex
        argv = ["euler-identity", "--K", "2", "--lo", "4", "--hi", "60000", "--V", "1"]
        rc, out = run_cli(argv + ["--format", fmt, "--no-timing"], capsys)
        assert rc == 0
        if fmt == "json":
            r = json.loads(out)["result"]
            product, bound = r["product"], r["truncation"]["bound"]
            assert r["divisor_sum"] is None and r["truncation"]["dropped_mass"] is None
        else:
            r = csv_fields(out)
            product, bound = r["product"], r["truncation.bound"]
            assert r["divisor_sum"] == r["truncation.dropped_mass"] == ""
        assert product.startswith("0x") and bound.startswith("0x")
        interval = PrimeInterval(lo=4.0, hi=60000.0)
        assert read(product) == complete_sieve_product(2, interval).product
        assert read(bound) == truncation_error_bound(2, interval, 1).bound

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

    def test_shiu_mean_past_the_decimal_digit_limit(self, capsys):
        # lambda = 10**-1000: the value's denominator, 10**5000 for the
        # largest omega(n) = 5 up to 10**4, has more than 4300 decimal
        # digits, so the value comes in hex
        lam = Fraction(1, 10**1000)
        rc, doc = run_json(["shiu-mean", "--lambda", f"1/{10**1000}", "--n-max", "10000"], capsys)
        assert rc == 0
        r = doc["result"]
        assert Fraction(r["lambda"]) == lam  # 1001 digits fit in decimal
        assert r["value"].startswith("0x")
        counts = Counter(omega(n) for n in range(1, 10001))
        assert read(r["value"]) == sum(c * lam**j for j, c in counts.items())

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

    def test_unwritable_output_refused_before_the_work(self, tmp_path, capsys, monkeypatch):
        # the path is opened before the subcommand runs, and its error is a
        # domain error body on stdout, not a traceback after the work
        monkeypatch.setitem(_DISPATCH, "params", lambda f: pytest.fail("the subcommand ran"))
        path = tmp_path / "missing" / "report.json"
        rc, out = run_cli(["params", "--x", "1e100", "--output", str(path), "--no-timing"], capsys)
        assert rc == 1 and not path.exists()
        err = json.loads(out)["error"]
        assert err["code"] == "domain" and err["context"]["output"] == str(path)

    def test_non_finite_float_is_strict_json(self, capsys):
        # 1e400 overflows to inf; JSON has no literal for it
        def no_constant(name):
            raise AssertionError(f"bare {name} in the report")

        rc, out = run_cli(["params", "--x", "1e400", "--no-timing"], capsys)
        assert rc == 0
        doc = json.loads(out, parse_constant=no_constant)
        assert doc["result"]["x"] == "inf"
        assert (doc["result"]["K"], doc["result"]["L"], doc["result"]["Q"]) == (9, 13, 31116960000)

    def test_exponent_past_decimal_emax_is_pinned(self, capsys):
        # Decimal("1e9999999999999999999") is refused (exponent past
        # decimal.MAX_EMAX); the scale is split into mantissa and exponent
        rc, out = run_cli(["params", "--x", "1e9999999999999999999", "--no-timing"], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a345945a30933c0db907f3712b87499416806268ddeffda65ca21f6d2a4e076d"
        )
        result = json.loads(out)["result"]
        assert (result["K"], result["L"], result["x"], result["X"]) == (18, 89, "inf", "inf")

    @pytest.mark.parametrize("x", ["abc", "-5", "nan", "inf", "0", "29.7", "1e-9999999999999999999"])
    def test_bad_scale_is_a_domain_error(self, x, capsys):
        rc, out = run_cli(["params", "--x", x, "--no-timing"], capsys)
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"

    @pytest.mark.parametrize("x", ["nan", "inf", "Infinity"])
    def test_non_finite_scale_says_so(self, x, capsys):
        rc, out = run_cli(["params", "--x", x, "--no-timing"], capsys)
        assert rc == 1
        err = json.loads(out)["error"]
        assert err["code"] == "domain" and err["message"] == f"x={x} is not finite"

    def test_window_profile_error_goes_to_output(self, tmp_path, capsys):
        path = tmp_path / "err.json"
        rc, out = run_cli(
            ["window", "--profile", "sigma=x", "--tmax", "10", "--output", str(path)], capsys
        )
        assert rc == 1 and out == ""
        err = json.loads(path.read_text())["error"]
        assert err["code"] == "domain" and err["context"] == {}

    def test_alpha_at_paper_scale_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "alpha.json"
        rc, out = run_cli(
            ["alpha", "--t", "2", "--N", "1000000", "--no-timing", "--output", str(path)], capsys
        )
        assert rc == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a342a526c5eca9403fb107f59a44e5e7cd51dcefc9890cd4e1172138161e92c4"
        )

    def test_window_profile_nan_sigma_is_a_domain_error(self, capsys):
        rc, out = run_cli(
            ["window", "--profile", "sigma=nan", "--tmax", "10", "--points", "3", "--no-timing"], capsys
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"

    def test_window_profile_flag_validated(self, capsys):
        rc, out = run_cli(
            ["window", "--profile", "tau=0.5", "--tmax", "10", "--no-timing"], capsys
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"


def _value(a, s, base, e):
    """a + s * base**e: with e up to 18000, on both sides of the
    4300-digit limit of str(); 10**4300 - 1 is the largest int it prints."""
    return a + s * base**e


# drawn as small parts, so that hypothesis can print any falsifying example
_PARTS = st.tuples(st.integers(), st.integers(-1, 1), st.sampled_from([3, 10]), st.integers(0, 18000))


class TestRender:
    @settings(max_examples=60, deadline=None)
    @given(num=_PARTS, den=st.one_of(st.none(), _PARTS))
    @example(num=(-1, 1, 10, 4300), den=None)  # 10**4300 - 1
    @example(num=(0, -1, 10, 4300), den=None)  # -(10**4300)
    @example(num=(7, 0, 10, 0), den=(0, 1, 10, 4300))  # 7/10**4300
    @example(num=(1, -1, 10, 4300), den=(1, 0, 10, 0))  # Fraction(-(10**4300 - 1))
    @example(num=(0, 1, 3, 10000), den=(1, 0, 10, 0))  # Fraction(3**10000)
    def test_exact_values_read_back_from_json_and_csv(self, num, den):
        x = _value(*num) if den is None else Fraction(_value(*num), _value(*den) or 1)
        from_json = json.loads(_dumps({"v": x}))["v"]
        from_csv = csv_fields(_to_csv({"v": x}))["v"]
        assert read_exact(from_json) == read_exact(from_csv) == x
        past = any(abs(part) >= 10**4300 for part in Fraction(x).as_integer_ratio())
        assert ("0x" in from_csv) == past
        assert isinstance(from_json, int) == (isinstance(x, int) and not past)


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
        # the Euler product reserves the scratch of one block of primes,
        # 1.3e7 bytes, before its first block
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(10**6))
        rc, out = run_cli(
            ["singular-series", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]',
             "--truncation-prime", "10000000", "--no-timing"],
            capsys,
        )
        assert rc == 2
        assert json.loads(out)["error"]["code"] == "resource"

    @pytest.mark.parametrize(
        "argv",
        [
            ["shiu-mean", "--lambda", "1/2", "--n-max", "2000000"],
            ["singular-series", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]', "--truncation-prime", "30000000"],
            ["hl-compare", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]', "--n-max", "100000",
             "--truncation-prime", "30000000"],
            ["euler-identity", "--K", "2", "--lo", "4", "--hi", "300000"],
            ["params", "--x", "1e300"],
            ["admissible", "--forms", '[{"a":1,"b":0},{"a":1,"b":2},{"a":1,"b":6}]'],
            ["tuple-count", "--forms", '[{"a":1,"b":0},{"a":1,"b":2}]', "--n-max", "10000000"],
            ["search-n0", "--K", "2", "--Q", "4", "--L", "4", "--theta2", "2", "--theta3", "1",
             "--n-max", "3000000"],
            ["alpha", "--t", "2", "--N", "4000000"],
            ["decompose", "--t", "2", "--b", "1", "--n0", "3", "--Q", "4", "--K", "2", "--L", "4",
             "--M", "600000"],
            ["brun-check", "--m", str(1009 * 1013 * 1019 * 1021 * 1031 * 1033), "--V", "3"],
            ["window", "--profile", "sigma=0.5", "--tmax", "200", "--points", "20000"],
            ["optimum", "--weight", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_budget_refused_or_kept(self, argv, capsys, monkeypatch):
        # each command allocates from a few MB to tens of MB (params,
        # admissible, brun-check and optimum stay small at any input): it
        # is refused with a resource body, or it peaks within the budget
        budget = 8_000_000
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(budget))
        tracemalloc.start()
        try:
            rc, out = run_cli(argv + ["--no-timing"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if rc == 2:
            assert json.loads(out)["error"]["code"] == "resource"
        else:
            assert rc == 0
            assert peak <= budget

    def test_numerator_budget_exits_two(self, capsys, monkeypatch):
        # the sieve's reservation fits 5e7 bytes, the t = 2^10 bit planes do not
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(50_000_000))
        rc, out = run_cli(["alpha", "--t", "1024", "--N", "10000000", "--no-timing"], capsys)
        assert rc == 2
        assert json.loads(out)["error"]["code"] == "resource"

    def test_report_text_budget_exits_two(self, capsys, monkeypatch):
        # the enclosure fits 2e6 bytes (its numerator reserves ~0.83 MB);
        # its report, ~0.96 MB of hex held about three times over while it
        # is rendered, does not
        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(2_000_000))
        assert _DISPATCH["alpha"]({"t": 2**64, "N": 2 * 10**4})["N"] == 2 * 10**4
        rc, out = run_cli(["alpha", "--t", str(2**64), "--N", "20000", "--no-timing"], capsys)
        assert rc == 2
        err = json.loads(out)["error"]
        assert err["code"] == "resource" and "report" in err["message"]

    def test_alpha_report_refused_before_the_sum(self, capsys, monkeypatch):
        # 3 copies of ~7.5e6 hex digits do not fit 2e7 bytes, and t and N
        # alone tell so: the enclosure is never computed
        def no_sum(t, N):
            raise AssertionError("alpha_enclosure ran")

        monkeypatch.setenv("OMEGALAB_MEMORY_BUDGET", str(20_000_000))
        monkeypatch.setattr("omegalab.cli.alpha_enclosure", no_sum)
        rc, out = run_cli(["alpha", "--t", "2", "--N", "10000000", "--no-timing"], capsys)
        assert rc == 2
        err = json.loads(out)["error"]
        assert err["code"] == "resource" and "report" in err["message"]

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.one_of(st.integers(2, 64), st.sampled_from([210, 30030, 2**64, 3**41])),
        N=st.integers(2, 400),
    )
    @example(t=2, N=10)
    @example(t=6, N=2)
    def test_alpha_text_floor_below_the_report(self, t, N):
        # what main reserves before the sum never exceeds what it reserves after it
        assert _alpha_text_floor(t, N) <= _text_bytes(_DISPATCH["alpha"]({"t": t, "N": N}))

    def test_window_points_budget_exits_two(self, capsys):
        # 10**12 sample points would take terabytes before the first transform
        rc, out = run_cli(
            ["window", "--profile", "sigma=0.5", "--tmax", "200",
             "--points", str(10**12), "--no-timing"],
            capsys,
        )
        assert rc == 2
        assert json.loads(out)["error"]["code"] == "resource"

    def test_window_panel_budget_exits_two(self, capsys):
        # the Gauss-Legendre first grid at Im s = 1e9 holds 4.4e8 panels
        rc, out = run_cli(
            ["window", "--profile", "sigma=0.5", "--tmax", "1e9", "--points", "2", "--no-timing"],
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

    def test_probe_flags_checked_before_the_sum(self, capsys, monkeypatch):
        def no_sum(t, N):
            raise AssertionError("alpha_enclosure ran")

        monkeypatch.setattr("omegalab.cli.alpha_enclosure", no_sum)
        rc, out = run_cli(["alpha", "--t", "2", "--N", "10", "--probe-a", "1", "--no-timing"], capsys)
        assert rc == 1
        assert json.loads(out)["error"]["message"] == "--probe-a and --probe-b must be given together"

    def test_search_spec_violation_reported(self, capsys):
        # Q=6 is not divisible by K^2=4, so the search configuration is rejected up front
        rc, out = run_cli(
            ["search-n0", "--K", "2", "--Q", "6", "--L", "4", "--theta2", "2",
             "--theta3", "1", "--n-max", "10", "--no-timing"],
            capsys,
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"

    def test_zero_denominator_lambda(self, capsys):
        rc, out = run_cli(
            ["shiu-mean", "--lambda", "1/0", "--n-max", "10", "--no-timing"], capsys
        )
        assert rc == 1
        err = json.loads(out)["error"]
        assert err["code"] == "domain"
        assert err["context"]["subcommand"] == "shiu-mean"

    def test_malformed_forms_json(self, capsys):
        rc, out = run_cli(
            ["admissible", "--forms", "not json", "--no-timing"], capsys
        )
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"

    def test_non_integer_coefficient_exits_one(self, capsys):
        rc, out = run_cli(["admissible", "--forms", '[{"a":1.5,"b":0},{"a":1,"b":2}]', "--no-timing"], capsys)
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [
        ["brun-check", "--m", str(1009**120 * 1013), "--V", "1"],
        ["alpha", "--t", "2", "--N", "-1"],
        ["window", "--profile", "sigma=x", "--tmax", "10"],
        ["shiu-mean", "--lambda", "nan", "--n-max", "100"],
        ["params", "--x", "1e-5"],
    ],
    ids=lambda argv: argv[0],
)
def test_extreme_input_leaves_no_traceback(argv, capsys):
    # an exception outside the error taxonomy would escape main
    def no_constant(name):
        raise AssertionError(f"bare {name} in the report")

    rc, out = run_cli(argv + ["--no-timing"], capsys)
    doc = json.loads(out, parse_constant=no_constant)
    if rc == 0:
        assert set(doc) == {"header", "result"}
    else:
        assert rc in (1, 2)
        assert set(doc) == {"error"} and set(doc["error"]) == {"code", "message", "context"}


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
    # scipy is a test oracle only: exponent_optimum runs its own bounded search
    code = (
        "import sys, omegalab, omegalab.cli\n"
        "assert omegalab.cli.main(['optimum', '--no-timing']) == 0\n"
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_runs_leave_mpmath_unloaded():
    # mpmath is a test oracle only: the parameter floors and li(x) run in decimal
    code = (
        "import sys, omegalab, omegalab.cli\n"
        "assert omegalab.cli.main(['params', '--x', '1e100', '--no-timing']) == 0\n"
        "twins = omegalab.LinearFormSystem.from_pairs([(1, 0), (1, 2)])\n"
        "assert omegalab.hl_compare(twins, 10**4).predicted_integral > 0\n"
        "print('mpmath' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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
    "window": {"sigma", "tmax", "points"},
    "optimum": {"weight"},
}


#: sha256 of each README command's whole --no-timing report, header
#: included.  A change to a report body re-pins its digest here and shows
#: the diff in CHANGES.md.
README_SHA256 = {
    "params": "1187eac09591e57f30aefaf696e12b3540d1b4c91cfa0cf0cb7e8edc3570a539",
    "admissible": "ab1539d10de5b8a6e55031c5cf111814c5c6096fe4da76d868f9e305419063a0",
    "singular-series": "7c9f29a933e00652bfe027c297ead2cab08fb4ee1181d7bf46c4c1ac7a2f98d7",
    "tuple-count": "8aae5562725f4fef28320e9d1f6565432597e7d49711570e10260cefad147f6c",
    "hl-compare": "636638601d7320c77d34870f28780b0d4c30224d55174f22815cbed0180a9422",
    "search-n0": "0ad81db4a850635e1ff4296a595c66597bd3348ec0a003e0c56852271ace8b5b",
    "alpha": "9156b9f89aec3d4c294d382b9da1a727600876f8d60b9884666dbee3e6ea1bc9",
    "decompose": "b74b1a462d81bbb17395121280a6a361ace032364fbd64fd0b5d7878a50bbc37",
    "brun-check": "3580a9e41b4cb5e4f30114364c83c2ac663aca958394df34f14d6d9db7902499",
    "euler-identity": "2692e1ce4a1d0cb82b1b33ef867c19c1908631b5fbb8ffcbb07234b70551e66d",
    "shiu-mean": "c0cb80ed691f030217dacb40e66c84dda089429fe66779eb2775163eeb9e9b03",
    "window": "e337fb1457b51b1b877f95b4d2d03c7be081092171d071f128deecf360c5171c",
    "optimum": "8b7ddbf9580b583cc784f09f64b8078b2cbc216c1a14410895aead9969d2a7e7",
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

    @pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
    def test_line_report_is_pinned(self, line, capsys):
        rc, out = run_cli(shlex.split(line)[1:] + ["--no-timing"], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == README_SHA256[line.split()[1]]
