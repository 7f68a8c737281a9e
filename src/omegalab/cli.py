"""Command-line front end.

Thirteen subcommands map onto the library: params, admissible,
singular-series, tuple-count, hl-compare, search-n0, alpha, decompose,
brun-check, euler-identity, shiu-mean, window, optimum.  Every run emits
a report with a header (tool, version, command, resolved config, timing)
and a result block, as JSON (default) or CSV.  Identical configurations
produce byte-identical report bodies once --no-timing drops the clock.

The library's reports hold exact values as Fractions and ints; this
module alone turns them into text, through _render, for every body.

Exit status: 0 success, 1 domain/precondition error, 2 resource or
precision error.  Errors are reported as structured JSON on stdout:
{"error": {"code", "message", "context"}}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
import time
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
from .series import _tail_terms, alpha_enclosure, decompose_tail, integrality_probe
from .sieve import MAX_SIEVE_HI, _reserve, factorize
from .tuples import SearchSpec, hl_compare, count_prime_tuples, search_n0, verify_witness
from .window import build_window, decay_profile

__all__ = ["build_parser", "main"]


# --- subcommand implementations -------------------------------------------


def _cmd_params(f: dict) -> dict:
    return derive_params(f["x"]).to_dict()


def _cmd_admissible(f: dict) -> dict:
    system = LinearFormSystem.from_json(f["forms"])
    adm = is_admissible(system)
    return {
        "forms": system.to_dicts(),
        "admissible": adm.admissible,
        "witness_prime": adm.witness,
    }


def _cmd_singular_series(f: dict) -> dict:
    system = LinearFormSystem.from_json(f["forms"])
    ss = singular_series(system, f["truncation_prime"])
    return {"forms": system.to_dicts(), **ss.to_dict()}


def _cmd_tuple_count(f: dict) -> dict:
    system = LinearFormSystem.from_json(f["forms"])
    n_max = f["n_max"]
    return {
        "forms": system.to_dicts(),
        "n_max": n_max,
        "count": count_prime_tuples(system, n_max),
    }


def _cmd_hl_compare(f: dict) -> dict:
    system = LinearFormSystem.from_json(f["forms"])
    return hl_compare(system, f["n_max"], truncation_prime=f["truncation_prime"]).to_dict()


def _cmd_search_n0(f: dict) -> dict:
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


def _cmd_alpha(f: dict) -> dict:
    if (f.get("probe_a") is None) != (f.get("probe_b") is None):
        raise DomainError("--probe-a and --probe-b must be given together")
    out = alpha_enclosure(f["t"], f["N"]).to_dict()
    if f.get("probe_a") is not None:
        probe = integrality_probe(f["probe_a"], f["probe_b"], f["t"], f["N"])
        out["integrality_probe"] = {"a": f["probe_a"], "b": f["probe_b"], **probe}
    return out


def _cmd_decompose(f: dict) -> dict:
    return decompose_tail(f["t"], f["b"], f["n0"], f["K"], f["Q"], f["L"], f.get("M")).to_dict()


def _cmd_brun_check(f: dict) -> dict:
    m, V = f["m"], f["V"]
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


def _cmd_euler_identity(f: dict) -> dict:
    excluded = frozenset(int(s) for s in f["excluded"].split(",") if s) if f.get("excluded") else frozenset()
    interval = PrimeInterval(lo=f["lo"], hi=f["hi"], excluded=excluded)
    out = complete_sieve_product(f["K"], interval).to_dict()
    out["interval"] = {"lo": f["lo"], "hi": f["hi"], "excluded": sorted(excluded)}
    if f.get("V") is not None:
        out["truncation"] = truncation_error_bound(f["K"], interval, f["V"]).to_dict()
    return out


def _cmd_shiu_mean(f: dict) -> dict:
    raw = f["lam"]
    try:
        lam = Fraction(raw) if ("/" in raw or raw.isdigit()) else float(raw)
    except ZeroDivisionError:
        raise DomainError(f"--lambda {raw} has a zero denominator") from None
    return lambda_omega_mean(lam, f["n_max"]).to_dict()


def _cmd_window(f: dict) -> dict:
    # the samples and the report's rows peak near 1.2 KiB per point (tracemalloc)
    _reserve(1280 * f["points"], f"decay profile at {f['points']} points")
    ts = np.linspace(1.0, f["tmax"], f["points"])
    return decay_profile(build_window(), f["sigma"], ts).to_dict()


def _cmd_optimum(f: dict) -> dict:
    lam_star, c0 = exponent_optimum(f["weight"])
    return {"weight": f["weight"], "lambda_star": lam_star, "c0": c0}


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
    sp.add_argument(
        "--V", type=int, default=None,
        help="also bound the depth-V truncation by S^(V+1)/(V+1)!, printed exactly: its time grows "
        "like (V * bits of S)^1.58, with no cap",
    )

    sp = sub.add_parser("shiu-mean", parents=[common])
    sp.add_argument("--lambda", dest="lam", required=True, help="e.g. 1/2 (exact) or 0.5")
    sp.add_argument("--n-max", type=int, required=True)

    sp = sub.add_parser("window", parents=[common])
    sp.add_argument("--profile", required=True, metavar="sigma=VAL")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--points", type=int, default=40)

    sp = sub.add_parser("optimum", parents=[common])
    sp.add_argument("--weight", type=float, default=0.1)
    return p


# --- report emission -------------------------------------------------------


def _fits_decimal(*xs: int) -> bool:
    """Whether str() can print each x: the interpreter refuses more decimal
    digits than sys.get_int_max_str_digits() (0 means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # below 2**(3 limit) < 10**limit without computing the power
    return not limit or all(abs(x).bit_length() <= 3 * limit or abs(x) < 10**limit for x in xs)


def _text_bytes(obj) -> int:
    """About the characters that the exact values in obj print as: a
    quarter of each int's bits, its length in hex.  An int short enough
    to print in decimal takes at most 4300 digits, so there the estimate
    is off by a few KB at most."""
    if isinstance(obj, dict):
        return sum(map(_text_bytes, obj.values()))
    if isinstance(obj, (list, tuple)):
        return sum(map(_text_bytes, obj))
    if isinstance(obj, Fraction):
        return _text_bytes(obj.numerator) + _text_bytes(obj.denominator)
    if isinstance(obj, int):
        return obj.bit_length() // 4 + 3
    return 0


def _alpha_text_floor(t: int, N: int) -> int:
    """A lower bound on _text_bytes of the alpha report, from t, N and
    omega of the last few n <= N, so that the report can be refused before
    the sum.  With L = N (bitlen(t) - 1) <= log2 t^N:

    - tail_hi's denominator is at least S t^N / A (_tail_terms), of at
      least L + bitlen(S) - bitlen(A) bits;
    - the partial sum is num / t^N reduced, num = sum omega(n) t^(N - n).
      The last j terms give num mod t^j, hence g = gcd(num, t^j).  Once
      every prime of t divides t^j / g, no prime of t divides num as often
      as t^j does, so gcd(num, t^N) = g: the denominator t^N / g has at
      least L + 1 - bitlen(g) bits, and the numerator, at least
      omega(2) / t^2 of it, 2 bitlen(t) fewer.
    """
    if t < 2 or N < 2:
        return 0
    L = N * (t.bit_length() - 1)
    A, S = _tail_terms(t, N)
    bits = [L + S.bit_length() - A.bit_length()]
    r = 0
    # past 2**50 the tail alone asks for terabytes, and no omega is read
    for j in range(1, min(N, 16) + 1) if N <= MAX_SIEVE_HI else ():
        r += factorize(N + 1 - j).omega * t ** (j - 1)
        g = math.gcd(r, t**j)
        rest, cut = t, t**j // g
        while (c := math.gcd(rest, cut)) > 1:  # drop the primes of t that divide t^j / g
            rest //= c
        if rest == 1:
            d = L + 1 - g.bit_length()
            bits += [d, d - 2 * t.bit_length()]
            break
    return sum(max(b, 0) // 4 + 3 for b in bits)


def _render(obj):
    """obj with every exact value and non-finite float in its report form.

    A Fraction becomes decimal p/q (p alone when q = 1) and an int stays
    an int while str() can print them, up to sys.get_int_max_str_digits()
    digits; past that they become hex, 0x.../0x... and 0x..., which
    int(part, 16) reads back at any length.  A non-finite float becomes
    its repr string ("inf", "nan"), as JSON has no literal for it.
    """
    if isinstance(obj, dict):
        return {k: _render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(v) for v in obj]
    if isinstance(obj, Fraction):
        p, q = obj.numerator, obj.denominator
        return str(obj) if _fits_decimal(p, q) else f"{p:#x}/{q:#x}"
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj if _fits_decimal(obj) else f"{obj:#x}"
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def _dumps(doc: dict) -> str:
    """doc as a strict JSON body: no bare Infinity or NaN can leave."""
    return json.dumps(_render(doc), indent=2, allow_nan=False) + "\n"


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
    result = _render(result)
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


def _error_body(code: str, exc: Exception, context: dict) -> str:
    return _dumps({"error": {"code": code, "message": str(exc), "context": context}})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses: building the 13 subparsers costs more
    than most runs."""
    return build_parser()


def main(argv=None) -> int:
    """Run the subcommand argv names and write its report; returns the
    process exit status."""
    ns = _parser().parse_args(argv)
    try:  # before the work, which an unwritable path would otherwise waste
        sink = open(ns.output, "w", encoding="utf-8") if ns.output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        sys.stdout.write(_error_body("domain", exc, {"subcommand": ns.subcommand, "output": ns.output}))
        return 1
    with sink as out:
        return _run(ns, out)


def _run(ns: argparse.Namespace, out) -> int:
    flags = {
        k: v for k, v in vars(ns).items() if k not in ("subcommand", "format", "output", "no_timing")
    }
    if ns.subcommand == "window":
        key, _, val = flags.pop("profile").partition("=")
        try:
            if key.strip() != "sigma":
                raise DomainError(f"--profile expects sigma=<value>, got {key!r}")
            flags["sigma"] = float(val)
        except ValueError as exc:  # DomainError included
            out.write(_error_body("domain", exc, {}))
            return 1

    t0 = time.perf_counter()
    # rendering holds about 3 copies of the text: the rendered strings,
    # the dumped body and its copy with the newline; csv's about 6
    copies = 6 if ns.format == "csv" else 3
    what = f"{ns.format} report of {ns.subcommand}"
    try:
        if ns.subcommand == "alpha":  # its text follows from t and N: refused before the sum
            _reserve(copies * _alpha_text_floor(flags["t"], flags["N"]), what)
        result = _DISPATCH[ns.subcommand](flags)
        _reserve(copies * _text_bytes(result), what)
    except PreconditionError as exc:
        error, status = ("precondition", exc), 1
    except (DomainError, ValueError) as exc:
        error, status = ("domain", exc), 1
    except ResourceError as exc:
        error, status = ("resource", exc), 2
    except PrecisionError as exc:
        error, status = ("precision", exc), 2
    else:
        header = {
            "tool": "omegalab",
            "version": __version__,
            "command": ns.subcommand,
            "config": {"format": ns.format, **dict(sorted(flags.items()))},
        }
        if not ns.no_timing:
            header["timing_s"] = round(time.perf_counter() - t0, 6)
        body = _to_csv(result) if ns.format == "csv" else _dumps({"header": header, "result": result})
        out.write(body)
        return 0
    out.write(_error_body(*error, {"subcommand": ns.subcommand, "flags": flags}))
    return status
