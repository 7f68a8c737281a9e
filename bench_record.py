"""Record the benchmark's end-to-end and per-layer metrics for this tree in one JSON file.

    python3 bench_record.py --out BENCH_<n>.json [--seeds 901 902 903]
        [--workloads tables census analytic] [--seconds 16]
    python3 bench_record.py --compare OLD.json NEW.json

Runs the unchanged ``perfbench/run.py --trace 0`` once per seed and
workload, one after another, from the root of this tree, and keeps the
JSON object that each run prints last.  The file holds, per workload, the
median, q1 and q3 of each end-to-end metric over the seeds (quartiles as
perfbench/run.py takes them, by its own ``quartiles``), its unit, the
number of runs and whether every run was correct; and beside the
workloads, the host's nproc, the git commit, whether ``src/`` differs
from it, and ``src_sha256``, perfbench/run.py's digest of ``src/``, which
names the source measured when the file is written before its commit.  A
run that prints no result is recorded by its seed and exit status, and
the script exits 1.

Per workload it also runs ``perfbench/run.py --trace 1`` once, on the
first seed, and stores that run's per-layer metrics (span self times such
as ``window.decay_profile_s``, counts and rates, each with its unit) under
``layers``, beside the end-to-end medians; a traced run that prints no
result is recorded and fails the script as above.

Before and after each workload's runs it times, five times each, a fixed
pure-Python loop, a fixed numpy pass and a fixed strided pass over an
array several times the L3, shaped like the phi kernel of ``tables``, and
stores their quartiles as that workload's ``host_reference`` (``before``
and ``after``): the host runs at more than one speed, and these let files
recorded on different days be compared, and show a change of speed
during a file.

It then runs the Tier-1 suite (ROADMAP.md's command) once and records its
wall time and its counts of passed and failed tests; it exits 1 too when
the suite does not pass.

``--compare`` prints, per workload and end-to-end metric of BENCHMARK.json,
the two medians, their ratio (new / old), that ratio divided by the ratio
of each host reference (loop, numpy and stream, for metrics in seconds;
``-`` where a file lacks that reference), and whether the two quartile
ranges overlap.  A workload's host reference is the mean of the medians
timed before and after it, or, in files recorded before those existed,
the one reference timed before every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, ROOT)
from perfbench.run import _src_digest, quartiles  # noqa: E402  (its import runs nothing)

REFERENCES = ("python_loop_s", "numpy_pass_s", "stream_pass_s")
ODD_PRIMES_BELOW_100 = [p for p in range(3, 100, 2) if all(p % q for q in range(3, p, 2))]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def host_reference(repeats: int = 5) -> dict:
    """Quartiles of the seconds taken by a fixed pure-Python loop (10**6
    integer steps), a fixed numpy pass (four passes over 4*10**6 int64) and
    a fixed stream pass: strided in-place multiplies by the odd primes below
    100 over blocks of 2**20 entries of 2*10**7 int64, as phi_range strikes
    its base primes block by block."""
    def python_loop() -> int:
        total = 0
        for i in range(10**6):
            total += i * i % 7
        return total

    def numpy_pass() -> int:
        x = np.arange(4 * 10**6, dtype=np.int64)
        return int((x * x % 7).sum())

    def stream_pass() -> int:
        x = np.ones(2 * 10**7, dtype=np.int64)
        for lo in range(0, x.size, 1 << 20):
            block = x[lo : lo + (1 << 20)]
            for p in ODD_PRIMES_BELOW_100:
                block[-lo % p :: p] *= p
        return int(x[-1])

    out = {}
    for name, fn in zip(REFERENCES, (python_loop, numpy_pass, stream_pass)):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        out[name] = quartiles(times)
    return out


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, int]:
    """One perfbench/run.py run: the JSON object it prints last (None if
    it prints nothing) and its exit status."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), proc.returncode


def record(workload: str, seeds: list[int], seconds: float) -> dict:
    before = host_reference()
    runs, failures = [], []
    for seed in seeds:
        run, status = bench(workload, seed, seconds, 0)
        if run is None:
            failures.append({"seed": seed, "status": status})
        else:
            runs.append(run)
    traced, status = bench(workload, seeds[0], seconds, 1)
    if traced is None:
        failures.append({"seed": seeds[0], "trace": 1, "status": status})
    out = {"seeds": seeds, "correct": bool(runs) and all(r["correct"] for r in runs)}
    if failures:
        out["no_result"] = failures
    names = runs[0]["metrics"] if runs else {}
    out["metrics"] = {
        name: {"unit": runs[0]["metrics"][name]["unit"], **quartiles([r["metrics"][name]["value"] for r in runs])}
        for name in names
    }
    if traced is not None:
        out["layers"] = {"seed": seeds[0], "correct": traced["correct"], "metrics": traced["metrics"]}
    out["host_reference"] = {"before": before, "after": host_reference()}
    return out


def host_speed(doc: dict, workload: str) -> dict:
    """Per host reference that the file holds, the mean of its medians
    before and after the workload's runs, or the file's one reference."""
    w = doc["workloads"][workload]
    refs = list(w["host_reference"].values()) if "host_reference" in w else [doc.get("host_reference")]
    if None in refs:
        return {}
    return {name: statistics.mean(r[name]["median"] for r in refs) for name in REFERENCES if name in refs[0]}


def compare(old_path: str, new_path: str) -> str:
    """The table that --compare prints, after one line of host references
    per workload."""
    docs = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    lines = [f"old: {old_path}", f"new: {new_path}"]
    rows = [("workload", "metric", "old", "new", "ratio", "/loop", "/numpy", "/stream", "quartiles")]
    for w in (w for w in docs[0]["workloads"] if w in docs[1]["workloads"]):
        old, new = (host_speed(d, w) for d in docs)
        both = [r for r in REFERENCES if r in old and r in new]
        if both:
            lines.append(f"{w} host: " + ", ".join(
                f"{r} {old[r]:.4f} -> {new[r]:.4f} s (x{new[r] / old[r]:.3f})" for r in both))
        for name in names:
            a, b = (d["workloads"][w]["metrics"].get(name) for d in docs)
            if a is None or b is None:
                continue
            ratio = b["median"] / a["median"] if a["median"] else math.nan
            host = [f"{ratio / (new[r] / old[r]):.3f}" if a["unit"] == "s" and r in both else "-"
                    for r in REFERENCES]
            overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
            rows.append((w, name, f"{a['median']:.4g}", f"{b['median']:.4g}", f"{ratio:.3f}", *host,
                         "overlap" if overlap else "apart"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines += ["  ".join(c.ljust(n) for c, n in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines)


def tier1() -> dict:
    """Run ROADMAP.md's Tier-1 command once: its wall time, exit status and
    the counts of its summary line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    out = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
           "wall_s": round(time.perf_counter() - start, 2), "status": proc.returncode,
           "passed": 0, "failed": 0, "error": 0}
    lines = proc.stdout.strip().splitlines()
    for n, kind in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        out[kind] = int(n)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[901, 902, 903])
    ap.add_argument("--workloads", nargs="+", default=["tables", "census", "analytic"])
    ap.add_argument("--seconds", type=float, default=16)
    args = ap.parse_args()
    if args.compare:
        print(compare(*args.compare))
        return 0
    if not args.out:
        ap.error("one of --out and --compare is required")
    doc = {
        "command": "perfbench/run.py --trace 0; layers: --trace 1 on the first seed",
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "git_commit": git("rev-parse", "HEAD") or None,
        "src_differs_from_commit": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": _src_digest(),
        "workloads": {w: record(w, args.seeds, args.seconds) for w in args.workloads},
        "tier1": tier1(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    ok = all("no_result" not in w for w in doc["workloads"].values()) and doc["tier1"]["status"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
