"""One benchmark process, started by run.py in a fresh interpreter.

``prepare`` computes the workload's oracle expectations, without
importing omegalab, and pickles them.  ``setup`` imports omegalab and
pays the workload's one-time set-up.  ``run`` does the same, loads the
pickled expectations and times passes for the requested seconds, so its
peak RSS is omegalab's and not the oracles'.  Each mode prints one JSON
line.  Only the standard library is imported before omegalab, so
``import_s`` is what a user's ``import omegalab`` costs.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    t_main = clock()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("prepare", "setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.mode == "prepare":
        return prepare(args.workload, args.seed)

    import omegalab as ol

    t_import = clock()
    from tracing import Ledger, Pass
    from workloads import WORKLOADS, expect_path

    WORKLOADS[args.workload](seed=args.seed).warmup(ol)
    t_ready = clock()
    setup = {"t_ready": t_ready, "import_s": t_import - t_main, "warmup_s": t_ready - t_import}
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    path = expect_path(args.workload, args.seed)
    with open(path, "rb") as fh:
        wl = pickle.load(fh)
    os.remove(path)
    if wl.seed != args.seed:
        raise SystemExit(f"{path} holds seed {wl.seed}, not {args.seed}")
    ledger = Ledger()
    spans: list = []
    passes = []
    t0 = clock()
    while True:
        # a traced run alternates untraced and traced passes so that the
        # tracing overhead is measured under the same conditions
        traced = bool(args.trace) and len(passes) % 2 == 1
        with Pass(ledger, len(passes), spans if traced else None) as p:
            wl.run(p, ol)
        passes.append({"traced": traced, "wall": p.wall, "cpu": p.cpu, "counts": p.counts})
        done = clock() - t0 >= args.seconds and len(passes) >= 2
        if done and (not args.trace or len(passes) % 2 == 0):
            break

    print(
        json.dumps(
            {
                "setup": setup,
                "run_s": clock() - t0,
                "passes": passes,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "reasons": ledger.reasons,
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": [s.as_list() for s in spans],
            }
        )
    )
    return 0


def prepare(workload: str, seed: int) -> int:
    from workloads import OUT, WORKLOADS, expect_path

    t0 = clock()
    wl = WORKLOADS[workload](seed=seed)
    wl.prepare()
    if "omegalab" in sys.modules:
        raise SystemExit("the oracles imported omegalab")
    os.makedirs(OUT, exist_ok=True)
    with open(expect_path(workload, seed), "wb") as fh:
        pickle.dump(wl, fh)
    print(json.dumps({"prepare_s": clock() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
