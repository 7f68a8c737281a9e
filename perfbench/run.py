"""omegalab benchmark runner.

    python3 perfbench/run.py --workload {tables,census,analytic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree.  Every workload runs in fresh
interpreters with ``src`` on the path; nothing is installed.  A run
first computes the oracle expectations in a process of its own, so the
pass process's memory and time are omegalab's.

--trace 0 measures the end-to-end metrics: set-up time is the median of
SETUP_SAMPLES fresh processes (the last of which goes on to run the
passes), and pass wall and CPU times are medians over the passes run
until S seconds have gone (at least two).  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics: span self times,
work counters, failures per module and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit status is 0 whenever it
is printed, and non-zero (with no result) when no run could be made.
A full record (environment, every sample, failure reasons) goes to
perfbench/out/, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("tables", "census", "analytic")
MODULES = ("sieve", "linforms", "params", "tuples", "series", "brun", "window", "cli")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

#: spans whose self time the per-layer metrics report ("<span>_s")
LAYER_SPANS = (
    "sieve.build_factor_sieve",
    "sieve.omega_range",
    "sieve.omega_range.t2",
    "sieve.tau_range",
    "sieve.phi_range",
    "sieve.factorize",
    "brun.lambda_omega_mean",
    "linforms.singular_series",
    "params.family_singular_series",
    "params.derive_params",
    "tuples.count_prime_tuples",
    "tuples.hl_compare",
    "tuples.search_n0",
    "tuples.search_n0.t2",
    "tuples.verify_witness",
    "series.alpha_enclosure",
    "series.integrality_probe",
    "series.decompose_tail",
    "window.deriv",
    "window.mellin_transform",
    "window.mellin_via_parts",
    "window.mellin_transform_quad",
    "window.decay_profile",
    "cli.main",
)
SIEVE_TABLE_SPANS = LAYER_SPANS[:5]


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return (spawn time, its JSON)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # load comes from omegalab's own threads, at most 2
    env["PYTHONHASHSEED"] = "0"  # sympy's term order, hence its work, follows str hashes
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    t_spawn = clock()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t_spawn)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t_spawn, json.loads(lines[-1])


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "n": len(xs)}


def layer_metrics(res: dict) -> dict:
    from tracing import Span, self_times

    spans = [Span(*s) for s in res["spans"]]
    st = self_times(spans)
    traced = [p for p in res["passes"] if p["traced"]]
    untraced = [p for p in res["passes"] if not p["traced"]]
    per_pass: dict[int, dict[str, float]] = {}
    for s in spans:
        d = per_pass.setdefault(s.pass_id, {})
        d[s.name] = d.get(s.name, 0.0) + st[s.sid]
    ids = sorted(per_pass)

    def med(f) -> float:
        return statistics.median(f(per_pass[i], res["passes"][i]) for i in ids)

    def rate(count: str, names) -> float:
        def f(t, p):
            busy = sum(t.get(n, 0.0) for n in names)
            return p["counts"].get(count, 0) / busy if busy > 0 else 0.0

        return med(f)

    out = {f"{n}_s": med(lambda t, p, n=n: t.get(n, 0.0)) for n in LAYER_SPANS}
    out["sieve.numbers_per_s"] = rate("sieve.numbers", SIEVE_TABLE_SPANS)
    out["tuples.search_n0.candidates_per_s"] = rate("tuples.candidates", ("tuples.search_n0", "tuples.search_n0.t2"))
    out["series.terms_per_s"] = rate("series.terms", ("series.alpha_enclosure", "series.integrality_probe"))
    for c in ("sieve.base_primes", "sieve.table_bytes", "window.transforms"):
        out[c] = med(lambda t, p, c=c: p["counts"].get(c, 0))
    out["setup.import_s"] = res["setup"]["import_s"]
    out["setup.warmup_s"] = res["setup"]["warmup_s"]
    for m in MODULES:
        out[f"{m}.failed"] = res["failed"].get(m, 0)
    attempted = sum(res["attempted"].values())
    out["fail_frac"] = sum(res["failed"].values()) / attempted if attempted else 1.0
    traced_wall = statistics.median(p["wall"] for p in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(p["wall"] for p in untraced)
    out["trace.coverage"] = med(lambda t, p: sum(t.get(n, 0.0) for n in LAYER_SPANS) / p["wall"])
    return out


def end_to_end_metrics(res: dict, setups: list[float]) -> dict:
    attempted = sum(res["attempted"].values())
    failed = sum(res["failed"].values())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in res["passes"]),
        "cpu_s": statistics.median(p["cpu"] for p in res["passes"]),
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _l3_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if _read(f"{base}/{idx}/level") == "3":
            size = _read(f"{base}/{idx}/size") or ""
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            if size[-1:] in units and size[:-1].isdigit():
                return int(size[:-1]) * units[size[-1]]
    return None


def _git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = f"{q} {p}" if q and p else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "l3_bytes": _l3_bytes(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "omegalab", "__init__.py")):
        print(f"perfbench: no omegalab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    deadline = clock() + DEADLINE_S

    try:
        _, prep = spawn(args, "prepare", deadline)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                t_spawn, probe = spawn(args, "setup", deadline)
                setups.append(probe["setup"]["t_ready"] - t_spawn)
        t_spawn, res = spawn(args, "run", deadline)
        setups.append(res["setup"]["t_ready"] - t_spawn)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer_metrics(res) if args.trace else end_to_end_metrics(res, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(res["attempted"].values())
    failed = sum(res["failed"].values())

    counts = [p["counts"] for p in res["passes"]]
    env = environment()
    ws = max(c.get("sieve.table_bytes", 0) for c in counts)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "working_set": {
            "sieve_table_bytes_computed": ws,
            "l3_bytes": env["l3_bytes"],
            "ratio_to_l3": ws / env["l3_bytes"] if env["l3_bytes"] else None,
            "peak_rss_bytes": res["peak_rss_kib"] * 1024,
        },
        "setup_s": setups,
        "import_s": res["setup"]["import_s"],
        "warmup_s": res["setup"]["warmup_s"],
        "oracle_prepare_s": prep["prepare_s"],
        "pass_loop_s": res["run_s"],
        "wall_s": quartiles([p["wall"] for p in res["passes"] if not p["traced"]]),
        "cpu_s": quartiles([p["cpu"] for p in res["passes"] if not p["traced"]]),
        "passes": res["passes"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_frac": failed / attempted if attempted else None,
        "failure_reasons": res["reasons"],
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "pass"], "spans": res["spans"]}, fh)

    w = record["wall_s"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(res['passes'])}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  wall_s quartiles {w['q1']:.4f} / {w['median']:.4f} / {w['q3']:.4f} s over {w['n']} passes")
    print(f"  fail_frac {record['fail_frac']} ({failed} of {attempted} operations failed)")
    for r in res["reasons"]:
        print(f"  FAILED {r}")
    print(f"  environment {json.dumps(env)}")
    print(f"  working set {json.dumps(record['working_set'])}")
    print(f"  record {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
