"""Record the benchmark's end-to-end and per-layer metrics for this tree in one JSON file.

    python3 bench_record.py --out BENCH_<n>.json [--seeds 901 902 903]
        [--workloads tables census analytic] [--seconds 16]

Runs the unchanged ``perfbench/run.py --trace 0`` once per seed and
workload, one after another, from the root of this tree, and keeps the
JSON object that each run prints last.  The file holds, per workload, the
median, q1 and q3 of each end-to-end metric over the seeds (quartiles as
perfbench/run.py takes them), its unit, the number of runs and whether
every run was correct; and beside the workloads, the host's nproc, the
git commit, whether ``src/`` differs from it, and ``src_sha256``, the
sha256 of the sorted paths and bytes of ``git ls-files src``, which names
the source measured when the file is written before its commit.  A run
that prints no result is recorded by its seed and exit status, and the
script exits 1.

Per workload it also runs ``perfbench/run.py --trace 1`` once, on the
first seed, and stores that run's per-layer metrics (span self times such
as ``window.decay_profile_s``, counts and rates, each with its unit) under
``layers``, beside the end-to-end medians; a traced run that prints no
result is recorded and fails the script as above.

Before the workloads it times, five times each, a fixed pure-Python loop
and a fixed numpy pass, and stores their quartiles as ``host_reference``:
the host runs at more than one speed, and these let files recorded on
different days be compared.

It then runs the Tier-1 suite (ROADMAP.md's command) once and records its
wall time and its counts of passed and failed tests; it exits 1 too when
the suite does not pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.abspath(__file__))


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "n": len(xs)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def src_sha256() -> str:
    """sha256 over the tracked files of src/ in sorted order: each path,
    its length and its bytes as they are in the working tree."""
    h = hashlib.sha256()
    for path in sorted(git("ls-files", "src").splitlines()):
        with open(os.path.join(ROOT, path), "rb") as fh:
            data = fh.read()
        h.update(f"{path}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def host_reference(repeats: int = 5) -> dict:
    """Quartiles of the seconds taken by a fixed pure-Python loop (10**6
    integer steps) and a fixed numpy pass (four passes over 4*10**6 int64)."""
    def python_loop() -> int:
        total = 0
        for i in range(10**6):
            total += i * i % 7
        return total

    def numpy_pass() -> int:
        x = np.arange(4 * 10**6, dtype=np.int64)
        return int((x * x % 7).sum())

    out = {}
    for name, fn in (("python_loop_s", python_loop), ("numpy_pass_s", numpy_pass)):
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
    return out


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
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[901, 902, 903])
    ap.add_argument("--workloads", nargs="+", default=["tables", "census", "analytic"])
    ap.add_argument("--seconds", type=float, default=16)
    args = ap.parse_args()
    doc = {
        "command": "perfbench/run.py --trace 0; layers: --trace 1 on the first seed",
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "git_commit": git("rev-parse", "HEAD") or None,
        "src_differs_from_commit": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": src_sha256(),
        "host_reference": host_reference(),
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
