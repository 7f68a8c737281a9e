"""Command-line front end.

Thirteen subcommands map onto the library: params, admissible,
singular-series, tuple-count, hl-compare, search-n0, alpha, decompose,
brun-check, euler-identity, shiu-mean, window, optimum.  Every run emits
a report with a header (tool, version, command, resolved config, timing)
and a result block, as JSON (default) or CSV.  Identical configurations
produce byte-identical report bodies once --no-timing drops the clock.

Exit status: 0 success, 1 domain/precondition error, 2 resource or
precision error.  Errors are reported as structured JSON on stdout:
{"error": {"code", "message", "context"}}.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .brun import (
    PrimeInterval,
    brun_truncated_divisor_sum,
    complete_sieve_product,
    lambda_omega_mean,
    truncation_error_bound,
)
from .errors import DomainError, PrecisionError, PreconditionError, ResourceError
from .linforms import LinearFormSystem, is_admissible, singular_series
from .params import derive_params, exponent_optimum
from .series import _exact_text, _fits_decimal, alpha_enclosure, decompose_tail, integrality_probe
from .sieve import factorize
from .tuples import SearchSpec, hl_compare, count_prime_tuples, search_n0, verify_witness
from .window import build_window, decay_profile

__all__ = ["RunConfig", "build_parser", "main", "run"]


@dataclass
class RunConfig:
    subcommand: str
    flags: dict
    output_format: str = "json"
    output_path: str | None = None
    no_timing: bool = False


# --- subcommand implementations -------------------------------------------


def _cmd_params(cfg: RunConfig) -> dict:
    return derive_params(cfg.flags["x"]).to_dict()


def _cmd_admissible(cfg: RunConfig) -> dict:
    system = LinearFormSystem.from_json(cfg.flags["forms"])
    adm = is_admissible(system)
    return {
        "forms": system.to_dicts(),
        "admissible": adm.admissible,
        "witness_prime": adm.witness,
    }


def _cmd_singular_series(cfg: RunConfig) -> dict:
    system = LinearFormSystem.from_json(cfg.flags["forms"])
    ss = singular_series(system, cfg.flags["truncation_prime"])
    return {"forms": system.to_dicts(), **ss.to_dict()}


def _cmd_tuple_count(cfg: RunConfig) -> dict:
    system = LinearFormSystem.from_json(cfg.flags["forms"])
    n_max = cfg.flags["n_max"]
    return {
        "forms": system.to_dicts(),
        "n_max": n_max,
        "count": count_prime_tuples(system, n_max),
    }


def _cmd_hl_compare(cfg: RunConfig) -> dict:
    system = LinearFormSystem.from_json(cfg.flags["forms"])
    return hl_compare(
        system, cfg.flags["n_max"], truncation_prime=cfg.flags["truncation_prime"]
    ).to_dict()


def _cmd_search_n0(cfg: RunConfig) -> dict:
    f = cfg.flags
    spec = SearchSpec(
        K=f["K"], Q=f["Q"], L=f["L"], theta2=f["theta2"], theta3=f["theta3"], n_max=f["n_max"]
    )
    witness = search_n0(spec)
    out = {
        "spec": spec.to_dict(),
        "thresholds_note": "theta2/theta3 are free parameters (scaled mode), not derived from a scale x",
        "found": witness is not None,
    }
    if witness is not None:
        out["witness"] = witness.to_dict()
        out["verified"] = verify_witness(spec, witness)
    return out


def _cmd_alpha(cfg: RunConfig) -> dict:
    f = cfg.flags
    enc = alpha_enclosure(f["t"], f["N"])
    out = enc.to_dict()
    if (f.get("probe_a") is None) != (f.get("probe_b") is None):
        raise DomainError("--probe-a and --probe-b must be given together")
    if f.get("probe_a") is not None:
        probe = integrality_probe(f["probe_a"], f["probe_b"], f["t"], f["N"])
        k = probe["probe_integer"]
        out["integrality_probe"] = {
            "a": f["probe_a"],
            "b": f["probe_b"],
            "probe_integer": k if _fits_decimal(k) else f"{k:#x}",
            "window_hi": _exact_text(probe["window_hi"]),
            "consistent": probe["consistent"],
        }
    return out


def _cmd_decompose(cfg: RunConfig) -> dict:
    f = cfg.flags
    dec = decompose_tail(f["t"], f["b"], f["n0"], f["K"], f["Q"], f["L"], f.get("M"))
    return dec.to_dict()


def _cmd_brun_check(cfg: RunConfig) -> dict:
    m, V = cfg.flags["m"], cfg.flags["V"]
    w = factorize(m).omega
    truncated = brun_truncated_divisor_sum(m, V)
    closed = (-1) ** V * math.comb(w - 1, V) if w >= 1 else 1
    full = 1 if m == 1 else 0
    return {
        "m": m,
        "V": V,
        "omega_m": w,
        "truncated_sum": truncated,
        "closed_form": closed,
        "closed_form_matches": truncated == closed,
        "full_moebius_sum": full,
        "sandwich_side": "upper" if V % 2 == 0 else "lower",
        "sandwich_holds": truncated >= full if V % 2 == 0 else truncated <= full,
    }


def _cmd_euler_identity(cfg: RunConfig) -> dict:
    f = cfg.flags
    excluded = frozenset(int(s) for s in f["excluded"].split(",") if s) if f.get("excluded") else frozenset()
    interval = PrimeInterval(lo=f["lo"], hi=f["hi"], excluded=excluded)
    check = complete_sieve_product(f["K"], interval)
    out = check.to_dict()
    out["interval"] = {"lo": f["lo"], "hi": f["hi"], "excluded": sorted(excluded)}
    if f.get("V") is not None:
        out["truncation"] = truncation_error_bound(f["K"], interval, f["V"]).to_dict()
    return out


def _cmd_shiu_mean(cfg: RunConfig) -> dict:
    raw = cfg.flags["lam"]
    lam = Fraction(raw) if ("/" in raw or raw.isdigit()) else float(raw)
    return lambda_omega_mean(lam, cfg.flags["n_max"]).to_dict()


def _cmd_window(cfg: RunConfig) -> dict:
    f = cfg.flags
    sigma = f["sigma"]
    ts = np.linspace(1.0, f["tmax"], f["points"])
    w = build_window()
    profile = decay_profile(w, sigma, ts, tol=f["tol"])
    return profile.to_dict()


def _cmd_optimum(cfg: RunConfig) -> dict:
    lam_star, c0 = exponent_optimum(cfg.flags["weight"])
    return {"weight": cfg.flags["weight"], "lambda_star": lam_star, "c0": c0}


_DISPATCH = {
    "params": _cmd_params,
    "admissible": _cmd_admissible,
    "singular-series": _cmd_singular_series,
    "tuple-count": _cmd_tuple_count,
    "hl-compare": _cmd_hl_compare,
    "search-n0": _cmd_search_n0,
    "alpha": _cmd_alpha,
    "decompose": _cmd_decompose,
    "brun-check": _cmd_brun_check,
    "euler-identity": _cmd_euler_identity,
    "shiu-mean": _cmd_shiu_mean,
    "window": _cmd_window,
    "optimum": _cmd_optimum,
}


# --- parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", default=None, metavar="PATH")
    common.add_argument("--no-timing", action="store_true")

    p = argparse.ArgumentParser(prog="omegalab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("params", parents=[common])
    sp.add_argument("--x", required=True, help="scale, e.g. 1e100")

    for name in ("admissible", "singular-series", "tuple-count", "hl-compare"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--forms", required=True, help='JSON like [{"a":1,"b":0},{"a":1,"b":2}]')
        if name in ("singular-series", "hl-compare"):
            sp.add_argument("--truncation-prime", type=int, default=100_000)
        if name in ("tuple-count", "hl-compare"):
            sp.add_argument("--n-max", type=int, required=True)

    sp = sub.add_parser("search-n0", parents=[common])
    for flag in ("--K", "--Q", "--L", "--n-max"):
        sp.add_argument(flag, type=int, required=True)
    for flag in ("--theta2", "--theta3"):
        sp.add_argument(flag, type=float, required=True)

    sp = sub.add_parser("alpha", parents=[common])
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--probe-a", type=int, default=None)
    sp.add_argument("--probe-b", type=int, default=None)

    sp = sub.add_parser("decompose", parents=[common])
    for flag in ("--t", "--b", "--n0", "--Q", "--K", "--L"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--M", type=int, default=None)

    sp = sub.add_parser("brun-check", parents=[common])
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--V", type=int, required=True)

    sp = sub.add_parser("euler-identity", parents=[common])
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--excluded", default=None, help="comma-separated primes to drop")
    sp.add_argument("--V", type=int, default=None, help="also bound the depth-V truncation")

    sp = sub.add_parser("shiu-mean", parents=[common])
    sp.add_argument("--lambda", dest="lam", required=True, help="e.g. 1/2 (exact) or 0.5")
    sp.add_argument("--n-max", type=int, required=True)

    sp = sub.add_parser("window", parents=[common])
    sp.add_argument("--profile", required=True, metavar="sigma=VAL")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--points", type=int, default=40)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("optimum", parents=[common])
    sp.add_argument("--weight", type=float, default=0.1)
    return p


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    flags = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("subcommand", "format", "output", "no_timing")
    }
    if ns.subcommand == "window":
        key, _, val = flags.pop("profile").partition("=")
        if key.strip() != "sigma":
            raise DomainError(f"--profile expects sigma=<value>, got {key!r}")
        flags["sigma"] = float(val)
    return RunConfig(
        subcommand=ns.subcommand,
        flags=flags,
        output_format=ns.format,
        output_path=ns.output,
        no_timing=ns.no_timing,
    )


# --- report emission -------------------------------------------------------


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _to_csv(result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = result.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        cols = list(rows[0].keys())
        writer.writerow(cols)
        for r in rows:
            writer.writerow([r[c] for c in cols])
    else:
        writer.writerow(["key", "value"])
        flat: list = []
        _flatten("", result, flat)
        writer.writerows(flat)
    return buf.getvalue()


def run(config: RunConfig) -> int:
    """Execute one configured subcommand; returns the process exit status."""
    t0 = time.perf_counter()
    try:
        if config.subcommand not in _DISPATCH:
            raise DomainError(f"unknown subcommand {config.subcommand!r}")
        result = _DISPATCH[config.subcommand](config)
        status = 0
    except PreconditionError as exc:
        return _emit_error(config, "precondition", exc)
    except (DomainError, ValueError) as exc:
        return _emit_error(config, "domain", exc)
    except ResourceError as exc:
        return _emit_error(config, "resource", exc, status=2)
    except PrecisionError as exc:
        return _emit_error(config, "precision", exc, status=2)

    header = {
        "tool": "omegalab",
        "version": __version__,
        "command": config.subcommand,
        "config": {
            "format": config.output_format,
            **{k: v for k, v in sorted(config.flags.items())},
        },
    }
    if not config.no_timing:
        header["timing_s"] = round(time.perf_counter() - t0, 6)
    if config.output_format == "csv":
        body = _to_csv(result)
    else:
        body = json.dumps({"header": header, "result": result}, indent=2) + "\n"
    _write_out(config, body)
    return status


def _emit_error(config: RunConfig, code: str, exc: Exception, status: int = 1) -> int:
    context = {"subcommand": config.subcommand, "flags": config.flags}
    _write_out(config, _error_body(code, exc, context))
    return status


def _error_body(code: str, exc: Exception, context: dict) -> str:
    """The structured error report shared by run and argument parsing."""
    payload = {"error": {"code": code, "message": str(exc), "context": context}}
    return json.dumps(payload, indent=2) + "\n"


def _write_out(config: RunConfig, body: str) -> None:
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses: building the 13 subparsers costs more
    than most runs."""
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        config = _config_from_args(ns)
    except (DomainError, ValueError) as exc:
        sys.stdout.write(_error_body("domain", exc, {}))
        return 1
    return run(config)
