"""Self-test of the benchmark's correctness gate.

Each workload's checker is fed one corrupted output and must count a
failed operation, so ``fail_frac = 0`` cannot pass vacuously.  Run with

    python3 -m pytest perfbench/test_gate.py
"""

import dataclasses
import json
import os
import pickle
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import omegalab as ol  # noqa: E402
from omegalab.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
from tracing import Ledger, Pass, Span, self_times  # noqa: E402
from workloads import CLI_EXAMPLES, Analytic, Census, Tables  # noqa: E402


def gate(check, *args) -> Ledger:
    ledger = Ledger()
    check(Pass(ledger, 0, None), *args)
    assert ledger.total_attempted > 0
    return ledger


def test_flipped_omega_entry_fails_the_tables_gate():
    wl = Tables(n=20_000, lam_n=1_000, samples=40, seed=7)
    wl.prepare()
    wl = pickle.loads(pickle.dumps(wl))  # as the run process receives it
    om = ol.omega_range(ol.build_factor_sieve(1, wl.n))
    assert gate(wl.sieve.check_omega, om).total_failed == 0
    for n in (wl.sieve.samples[3], next(n for n in range(2, wl.n) if n not in wl.sieve.samples)):
        bad = om.copy()
        bad[n - 1] += 1
        assert gate(wl.sieve.check_omega, bad).total_failed > 0


def test_perturbed_enclosure_fails_the_analytic_gate():
    wl = Analytic(alphas=((2, 3000),), probe=(1, 2, 2, 3000), deriv_points=2, seed=7)
    wl.prepare()
    enc = ol.alpha_enclosure(2, 3000)
    assert gate(wl.check_enclosure, enc).total_failed == 0
    nudged = dataclasses.replace(enc, partial=enc.partial + Fraction(1, 2**3000))
    assert gate(wl.check_enclosure, nudged).total_failed > 0
    widened = dataclasses.replace(enc, tail_hi=Fraction(1, 2**150))
    assert gate(wl.check_enclosure, widened).total_failed > 0


def test_wrong_cli_digest_fails_the_census_gate(tmp_path):
    line = "optimum --weight 0.1"
    out = str(tmp_path / "report.json")
    rc = cli_main(line.split() + ["--no-timing", "--output", out])
    body = open(out, encoding="utf-8").read()
    assert gate(Census.check_cli, line, rc, body, CLI_EXAMPLES[line]).total_failed == 0
    assert gate(Census.check_cli, line, rc, body, "0" * 64).total_failed > 0
    edited = body.replace('"weight": 0.1', '"weight": 0.2')
    assert gate(Census.check_cli, line, rc, edited, CLI_EXAMPLES[line]).total_failed > 0


def test_self_time_subtracts_children():
    spans = [Span(0, "pass", 0.0, 10.0, None, 1), Span(1, "a", 1.0, 4.0, 0, 1), Span(2, "b", 3.0, 6.0, 0, 1)]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0}


def test_reported_metrics_match_benchmark_json():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    passes = [
        {"traced": False, "wall": 2.0, "cpu": 2.0, "counts": {}},
        {"traced": True, "wall": 2.5, "cpu": 2.5, "counts": {"sieve.numbers": 10}},
    ]
    res = {
        "setup": {"t_ready": 1.0, "import_s": 0.5, "warmup_s": 0.1},
        "passes": passes,
        "attempted": {"sieve": 4},
        "failed": {},
        "peak_rss_kib": 1024,
        "spans": [[0, "pass", 0.0, 2.5, None, 1], [1, "sieve.omega_range", 0.5, 2.0, 0, 1]],
    }
    assert set(run.layer_metrics(res)) == {m["name"] for m in spec["per_layer"]}
    assert set(run.end_to_end_metrics(res, [1.0])) == {m["name"] for m in spec["end_to_end"]}
