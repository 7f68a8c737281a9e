"""The three benchmark workloads and their correctness gates.

Each workload is a fixed sequence of public omegalab calls.  The seed
picks only the checked sample indices (and, for ``census``, the batch of
integers to factor); omegalab receives the generated inputs and nothing
else.  Every call's output is compared with ``oracles`` right after the
call, outside the pass clocks; a mismatch or an exception is a failed
operation.  ``prepare`` computes those expectations in a process of its
own, which pickles the workload for the pass process, so it keeps only
small results as attributes and never the oracles' sieves.

tables
    Origin tables to 2e7 plus two lambda-means.  The segmented sieve's
    numpy stride passes over 607 dense base primes are >90 % of the work
    and the arrays are several times the last-level cache, so fewer
    bytes moved shows here; series, window and tuples code is not run.
census
    The sieve on a window at 1e12 (78 498 base primes against one block,
    bounded by the per-prime Python loop), singular series, parameter
    derivation, tuple counts, the special-index search, scalar
    factorisation and the README command lines.  Scalar primality and
    factoring run one value at a time under the interpreter lock.
analytic
    Exact bigint partial sums, window derivatives and Mellin quadrature.
    The sieve only covers 2e5, so sieve changes barely move it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles as orc

#: scratch directory for the command-line reports and the prepared oracle
#: expectations (ignored by git)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def expect_path(workload: str, seed: int) -> str:
    """Where the prepare process leaves a workload's oracle expectations."""
    return os.path.join(OUT, f"{workload}-seed{seed}-expect.pkl")


def _samples(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k seeded sample points of [lo, hi] plus both ends."""
    return sorted({lo, hi, *(rng.randint(lo, hi) for _ in range(k))})


def array_bytes(*objs) -> int:
    """Bytes held by the given arrays and by ndarray attributes of objects."""
    total = 0
    for o in objs:
        if isinstance(o, np.ndarray):
            total += o.nbytes
        elif o is not None:
            total += sum(v.nbytes for v in vars(o).values() if isinstance(v, np.ndarray))
    return total


class SieveTables:
    """Builds a factor sieve on [lo, hi] and gates omega (1 and 2 threads),
    tau and phi against trial division at seeded indices, the threads
    agreement, and the closed-form sums the window admits."""

    def __init__(self, lo: int, hi: int, samples: list[int]) -> None:
        self.lo, self.hi, self.samples = lo, hi, samples

    def prepare(self) -> None:
        small = orc.primes_to(math.isqrt(self.hi) + 1)
        self.base_primes = int(np.count_nonzero(small <= math.isqrt(self.hi)))
        self.expect = {n: orc.omega_tau_phi(orc.trial_factor(n, small), n) for n in self.samples}
        self.tau_sum = orc.divisor_summatory(self.hi) - orc.divisor_summatory(self.lo - 1)
        self.omega_sum = None
        if self.lo == 1:
            self.omega_sum = orc.sum_omega(self.hi, orc.primes_to(self.hi))

    def _sampled(self, arr, which: int) -> bool:
        return len(arr) == self.hi - self.lo + 1 and all(
            int(arr[n - self.lo]) == self.expect[n][which] for n in self.samples
        )

    def check_omega(self, p, om) -> None:
        p.check("sieve", "omega_range at sampled indices", lambda: self._sampled(om, 0))
        if self.omega_sum is not None:
            p.check(
                "sieve",
                "sum of omega_range equals sum of floor(N/p)",
                lambda: int(om.sum(dtype=np.int64)) == self.omega_sum,
            )

    def run(self, p, ol) -> None:
        sieve = p.call("sieve.build_factor_sieve", ol.build_factor_sieve, self.lo, self.hi)
        if sieve is None:
            return
        p.check("sieve", "factor sieve window", lambda: len(sieve) == self.hi - self.lo + 1)
        n = self.hi - self.lo + 1
        p.count("sieve.base_primes", self.base_primes)
        om1 = p.call("sieve.omega_range", ol.omega_range, sieve, threads=1)
        om2 = p.call("sieve.omega_range.t2", ol.omega_range, sieve, threads=2)
        if om1 is not None:
            self.check_omega(p, om1)
        if om2 is not None:
            p.check(
                "sieve",
                "omega_range identical at threads 1 and 2",
                lambda: om1 is not None and np.array_equal(om1, om2),
            )
        tables_bytes = array_bytes(sieve, om1, om2)
        del om1, om2
        tau = p.call("sieve.tau_range", ol.tau_range, sieve)
        if tau is not None:
            p.check("sieve", "tau_range at sampled indices", lambda: self._sampled(tau, 1))
            p.check(
                "sieve",
                "sum of tau_range equals D(hi) - D(lo-1)",
                lambda: int(tau.sum(dtype=np.int64)) == self.tau_sum,
            )
        tables_bytes += array_bytes(tau)
        del tau
        phi = p.call("sieve.phi_range", ol.phi_range, sieve)
        if phi is not None:
            p.check("sieve", "phi_range at sampled indices", lambda: self._sampled(phi, 2))
        p.count("sieve.table_bytes", tables_bytes + array_bytes(phi))
        p.count("sieve.numbers", 5 * n)  # the fill and four table passes


# ---------------------------------------------------------------------------


@dataclass
class Tables:
    n: int = 20_000_000
    lam_n: int = 5_000_000
    samples: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        self.sieve = SieveTables(1, self.n, _samples(rng, 1, self.n, self.samples))

    def warmup(self, ol) -> None:
        pass  # nothing beyond the import is paid once per process

    def prepare(self) -> None:
        self.sieve.prepare()
        om = orc.omega_table(self.lam_n, orc.primes_to(self.lam_n))
        hist = np.bincount(om[1:]).tolist()
        self.lambda_half = sum(c * Fraction(1, 2**j) for j, c in enumerate(hist))

    def run(self, p, ol) -> None:
        self.sieve.run(p, ol)
        half, exact = Fraction(1, 2), self.lambda_half
        rep = p.call("brun.lambda_omega_mean", ol.lambda_omega_mean, half, self.lam_n)
        if rep is not None:
            p.check("brun", "exact lambda-mean equals histogram sum", lambda: rep.value == exact)
        rep = p.call("brun.lambda_omega_mean", ol.lambda_omega_mean, 0.5, self.lam_n)
        if rep is not None:
            p.check(
                "brun",
                "float lambda-mean within its rounding bound",
                lambda: abs(Fraction(rep.value) - exact) <= Fraction(rep.float_error_bound),
            )


# ---------------------------------------------------------------------------

TWINS = ((1, 0), (1, 2))
TWINS_JSON = '[{"a":1,"b":0},{"a":1,"b":2}]'

#: The README command lines, each with the sha256 of its result block
#: (canonical JSON; the whole body for CSV) as produced by omegalab 0.1.0.
CLI_EXAMPLES = {
    "params --x 1e100": (
        "08615e23842cde48e64fd35d694a893fb3eaff26837bcfd2df6a8f0861e0e657"
    ),
    f"admissible --forms '{TWINS_JSON}'": (
        "f7f7bb59aa86e8260aaa8620c98256bad4f778f7047b57d3724170e0d8e653a1"
    ),
    f"singular-series --forms '{TWINS_JSON}' --truncation-prime 1000000": (
        "4e8cbefe8a007f45478448a9e61eeb3b47ff30cd066d91db8838261d618cad7a"
    ),
    f"tuple-count --forms '{TWINS_JSON}' --n-max 1000000": (
        "cb73252d64f030b8a1d9b9df587300cd5f7646b32f8189e67ea9771bd31b5989"
    ),
    f"hl-compare --forms '{TWINS_JSON}' --n-max 1000000": (
        "8c9d655e943c9da2581c7f878a949e4fa7ec9a142facb4f17e89793baf19d0d2"
    ),
    "search-n0 --K 2 --Q 4 --L 4 --theta2 2 --theta3 1 --n-max 100": (
        "d0071f5da82be1a87c5a520cdbcb7da12ec72b46bb8add8563f7e4afadab7f1b"
    ),
    "alpha --t 2 --N 10 --probe-a 1 --probe-b 2": (
        "a1fc50a1998f1b2eb09933c4c91a8adf2248d1a72d8a947c45b9383b527acdeb"
    ),
    "decompose --t 2 --b 1 --n0 3 --Q 4 --K 2 --L 4": (
        "da0b7ec4761dbda61e0d8249ef07f536b5f2ba518b507f2d2bc10667a86b8ded"
    ),
    "brun-check --m 30 --V 2": (
        "090a49b99e850694db792376b445052ea3aaef7819f659c6e3dda15ca1059634"
    ),
    "euler-identity --K 2 --lo 4 --hi 10 --V 1": (
        "0bf542b542bf3d4a4d76f7dc9398bb8003bbe21ae819d719fe9a26ce579182fa"
    ),
    "shiu-mean --lambda 1/2 --n-max 10000": (
        "d678c45093d24807e03bad8130d898641a0ff2fbdf5b603df3c26640e50ab56d"
    ),
    "window --profile sigma=0.5 --tmax 200 --points 40 --format csv": (
        "e337fb1457b51b1b877f95b4d2d03c7be081092171d071f128deecf360c5171c"
    ),
    "optimum --weight 0.1": (
        "1d21f2a750a4bd3640c83eab5f150c32f8014278e7ab5b3a0b2d0f2db0f8df79"
    ),
}


def cli_digest(body: str) -> str:
    """sha256 of the result block of a report (the header is not compared)."""
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:  # CSV reports carry no header
        return hashlib.sha256(body.encode()).hexdigest()
    canon = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


#: census sizes: the window at 1e12, the series truncations, the tuple
#: counts, the no-hit search length, the factorize batch and the
#: decompose_tail block length
WINDOW_LO, WINDOW_LEN, WINDOW_SAMPLES = 10**12, 10**6, 100
TWIN_P = 3 * 10**7
FAMILY_K, FAMILY_P = 8, 10**7
SCALES = ("1e30", "1e100", "1e300")
HL_N = 5 * 10**6
TUPLE_K, TUPLE_Q, TUPLE_N = 4, 144, 5 * 10**5
SEARCH_N = 3 * 10**4
FACTOR_COUNT = 300
DECOMPOSE_M = 2000


class Census:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        lo, hi = WINDOW_LO, WINDOW_LO + WINDOW_LEN
        self.window = SieveTables(lo, hi, _samples(rng, lo, hi, WINDOW_SAMPLES))
        self.batch = [rng.randrange(1 << 60, 1 << 63) for _ in range(FACTOR_COUNT)]
        # the no-hit scan uses the parameters derive_params("1e30") gives
        self.nohit = dict(K=7, Q=158_760_000, L=8, theta2=4, theta3=2, n_max=SEARCH_N)
        self.hit = dict(K=4, Q=144, L=10, theta2=4, theta3=2, n_max=345)

    def warmup(self, ol) -> None:
        import omegalab.cli  # noqa: F401  (the command-line layer is paid once)

    def prepare(self) -> None:
        import sympy

        self.window.prepare()
        top = max(HL_N + 2, TUPLE_Q * TUPLE_N + 1)
        mask = orc.sieve_mask(top)
        self.twins = orc.twin_count(HL_N, mask)
        self.tuples = orc.family_tuple_count(TUPLE_K, TUPLE_Q, TUPLE_N, mask)
        del mask
        self.family = orc.family_series(FAMILY_K, FAMILY_P, orc.primes_to(FAMILY_P))
        self.params = {x: orc.scale_params(x) for x in SCALES}
        self.factors = {n: {int(q): int(e) for q, e in sympy.factorint(n).items()} for n in self.batch}
        s = self.nohit
        self.nohit_first = next(
            (n for n in range(1, s["n_max"] + 1) if orc.qualifies(n, s["K"], s["Q"], s["L"], s["theta2"], s["theta3"])),
            None,
        )
        s = self.hit
        self.hit_first = next(
            n for n in range(1, s["n_max"] + 1) if orc.qualifies(n, s["K"], s["Q"], s["L"], s["theta2"], s["theta3"])
        )
        n0, Q = self.hit_first, s["Q"]
        self.block_omegas = [len(sympy.factorint(n0 * Q + k)) for k in range(1, DECOMPOSE_M + 1)]

    def run(self, p, ol) -> None:
        self.window.run(p, ol)
        self._series(p, ol)
        self._tuples(p, ol)
        self._search(p, ol)
        self._factorize(p, ol)
        self._cli(p, ol)

    def _series(self, p, ol) -> None:
        twins = ol.LinearFormSystem.from_pairs(TWINS)
        ss = p.call("linforms.singular_series", ol.singular_series, twins, TWIN_P)
        if ss is not None:
            p.check(
                "linforms",
                "twin singular series brackets 2*C2 within its bound",
                lambda: abs(ss.value - orc.TWIN_2C2) <= ss.error_bound,
            )
        fam = p.call("params.family_singular_series", ol.family_singular_series, FAMILY_K, FAMILY_P)
        if fam is not None:
            p.check(
                "params",
                "family singular series matches the in-bench Euler product",
                lambda: abs(fam.value - self.family) <= 1e-9 * self.family
                and fam.certified_lower_bound() <= fam.value,
            )
        for x in SCALES:
            ps = p.call("params.derive_params", ol.derive_params, x)
            if ps is not None:
                p.check(
                    "params",
                    f"derive_params({x}) integer fields",
                    lambda: {k: getattr(ps, k) for k in self.params[x]} == self.params[x],
                )

    def _tuples(self, p, ol) -> None:
        twins = ol.LinearFormSystem.from_pairs(TWINS)
        hl = p.call("tuples.hl_compare", ol.hl_compare, twins, HL_N)
        if hl is not None:
            p.check(
                "tuples",
                "hl_compare twin count equals in-bench prime mask",
                lambda: hl.empirical == self.twins and math.isfinite(hl.ratio_integral),
            )
        fam = ol.form_family(TUPLE_K, TUPLE_Q)
        c = p.call("tuples.count_prime_tuples", ol.count_prime_tuples, fam, TUPLE_N)
        if c is not None:
            p.check("tuples", "family tuple count equals in-bench prime mask", lambda: c == self.tuples)

    def _search(self, p, ol) -> None:
        spec = ol.SearchSpec(**self.nohit)
        for threads, name in ((1, "tuples.search_n0"), (2, "tuples.search_n0.t2")):
            got = p.call(name, ol.search_n0, spec, threads=threads)
            p.check(
                "tuples",
                f"no-hit search at threads={threads}",
                lambda: self.nohit_first is None and got is None,
            )
            p.count("tuples.candidates", spec.n_max)
        spec = ol.SearchSpec(**self.hit)
        wit = p.call("tuples.search_n0", ol.search_n0, spec)
        p.count("tuples.candidates", self.hit_first)
        if wit is None:
            p.check("tuples", "hit search found a witness", lambda: False)
            return
        p.check("tuples", "least special index", lambda: wit.n0 == self.hit_first)
        ok = p.call("tuples.verify_witness", ol.verify_witness, spec, wit)
        p.check("tuples", "verify_witness accepts the witness", lambda: ok is True)
        s = self.hit
        dec = p.call(
            "series.decompose_tail",
            ol.decompose_tail,
            2, 1, wit.n0, s["K"], s["Q"], s["L"], DECOMPOSE_M,
        )
        if dec is not None:
            p.check("series", "decompose_tail identity and block sums", lambda: self._decompose_ok(dec))

    def _decompose_ok(self, dec) -> bool:
        K, L, M = dec.K, dec.L, dec.M
        om = self.block_omegas

        def block(a: int, b: int) -> Fraction:
            return sum(Fraction(om[k - 1], 2**k) for k in range(a, b + 1))

        return (
            dec.identity_holds is True
            and dec.S1 == block(1, K)
            and dec.S2 == block(K + 1, L)
            and dec.S3_truncated == block(L + 1, M)
            and dec.S3_tail_hi > 0
        )

    def _factorize(self, p, ol) -> None:
        for n in self.batch:
            f = p.call("sieve.factorize", ol.factorize, n)
            if f is not None:
                p.check("sieve", f"factorize({n}) agrees with sympy", lambda: dict(f.factors) == self.factors[n])

    def _cli(self, p, ol) -> None:
        from omegalab.cli import main

        out = os.path.join(OUT, f"cli-{os.getpid()}.out")
        try:
            for line, digest in CLI_EXAMPLES.items():
                argv = shlex.split(line) + ["--no-timing", "--output", out]
                rc = p.call("cli.main", main, argv)
                if rc is None:
                    continue
                with open(out, encoding="utf-8") as fh:
                    body = fh.read()
                self.check_cli(p, line, rc, body, digest)
        finally:
            if os.path.exists(out):
                os.remove(out)

    @staticmethod
    def check_cli(p, line: str, rc: int, body: str, digest: str) -> None:
        p.check("cli", f"result block of `{line}`", lambda: rc == 0 and cli_digest(body) == digest)


# ---------------------------------------------------------------------------

#: s values of the Mellin checks: on the real axis, near it, and far up.
MELLIN_S = (1 + 0j, 2 + 3j, 0.5 + 40j, 1 + 99j)
DERIV_MAX = 6
GRID = 20_001  # points of the max |W^(j)| grid
SIGMAS = (0.5, 2.0, -1.0)  # decay profile abscissae
DECAY_TS = np.linspace(1.0, 200.0, 40)
ORACLE_TERMS = 200  # exact terms of the in-bench enclosure


def _window_mp(x):
    """The plateau window written out for mpmath (oracle for W^(j))."""
    import mpmath

    def f(u):
        return mpmath.exp(-1 / u) if u > 0 else mpmath.mpf(0)

    def step(u):
        return f(u) / (f(u) + f(1 - u))

    return step(4 * x - 1) * step((4 - x) / 2)


@dataclass
class Analytic:
    alphas: tuple = ((2, 200_000), (10, 100_000))
    probe: tuple = (1, 2, 2, 100_000)  # a, b, t, N
    deriv_points: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        half = self.deriv_points // 2
        self.xs = np.array(
            sorted(
                [rng.uniform(0.27, 0.48) for _ in range(half)]
                + [rng.uniform(2.1, 3.9) for _ in range(self.deriv_points - half)]
            )
        )

    def warmup(self, ol) -> None:
        w = ol.build_window()
        for j in range(DERIV_MAX + 1):
            w.deriv(j, 0.3)

    def prepare(self) -> None:
        import mpmath

        top = max(self.probe[3], *(N for _, N in self.alphas))
        omegas = orc.omega_table(top, orc.primes_to(top))
        self.enclosures = {t: orc.enclosure(t, ORACLE_TERMS) for t, _ in self.alphas}
        tn = {*self.alphas, self.probe[2:]}
        self.residues = {(t, N): orc.horner_residue(t, omegas, N) for t, N in tn}
        with mpmath.workdps(40):
            self.derivs = {
                j: [float(mpmath.diff(_window_mp, mpmath.mpf(float(x)), j)) for x in self.xs]
                for j in range(DERIV_MAX + 1)
            }

    def check_enclosure(self, p, enc) -> None:
        t, N = enc.t, enc.N
        lo, hi = self.enclosures[t]

        def ok() -> bool:
            scaled = enc.partial * Fraction(t) ** N
            return (
                scaled.denominator == 1
                and scaled.numerator % orc.RESIDUE_MODULUS == self.residues[(t, N)]
                and lo <= enc.lo <= enc.hi <= hi
                and enc.tail_hi > 0
            )

        p.check("series", f"alpha_enclosure({t}, {N}) exact and nested", ok)

    def run(self, p, ol) -> None:
        for t, N in self.alphas:
            enc = p.call("series.alpha_enclosure", ol.alpha_enclosure, t, N)
            p.count("series.terms", N)
            if enc is not None:
                self.check_enclosure(p, enc)
        a, b, t, N = self.probe
        pr = p.call("series.integrality_probe", ol.integrality_probe, a, b, t, N)
        p.count("series.terms", N)
        if pr is not None:
            m = orc.RESIDUE_MODULUS
            want = (a * pow(t, N, m) - b * self.residues[(t, N)]) % m
            p.check(
                "series",
                "integrality probe residue and window",
                lambda: pr["probe_integer"] % m == want
                and pr["consistent"] == (0 < pr["probe_integer"] <= pr["window_hi"]),
            )
        self._window(p, ol)

    def _window(self, p, ol) -> None:
        w = ol.build_window()
        for j in range(DERIV_MAX + 1):
            m = p.call("window.deriv", w.max_abs_deriv, j, GRID)
            if m is not None:
                p.check(
                    "window",
                    f"max |W^({j})| on the grid",
                    lambda: math.isfinite(m) and m > 0 and (j > 0 or m == 1.0),
                )
            vals = p.call("window.deriv", w.deriv, j, self.xs)
            if vals is not None:
                ref = self.derivs[j]
                p.check(
                    "window",
                    f"W^({j}) at seeded points against mpmath",
                    lambda: all(abs(v - r) <= 1e-9 * abs(r) for v, r in zip(vals.tolist(), ref)),
                )
        for s in MELLIN_S:
            direct = p.call("window.mellin_transform", ol.mellin_transform, w, s)
            quad = p.call("window.mellin_transform_quad", ol.mellin_transform_quad, w, s)
            p.count("window.transforms", 2)
            if direct is None or quad is None:
                continue
            p.check("window", f"direct and quad routes at s={s}", lambda: _close(direct, quad))
            for k in range(1, DERIV_MAX + 1):
                parts = p.call("window.mellin_via_parts", ol.mellin_via_parts, w, s, k)
                p.count("window.transforms", 1)
                if parts is not None:
                    p.check(
                        "window",
                        f"parts route k={k} at s={s}",
                        lambda: _close(parts, direct) and _close(parts, quad),
                    )
        for sigma in SIGMAS:
            prof = p.call("window.decay_profile", ol.decay_profile, w, sigma, DECAY_TS)
            p.count("window.transforms", len(DECAY_TS))
            if prof is not None:
                p.check("window", f"decay samples under the envelope at sigma={sigma}", lambda: _under_envelope(prof))


def _close(a: complex, b: complex, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _under_envelope(prof) -> bool:
    sig = prof.sigma
    for t, m in zip(prof.ts.tolist(), prof.magnitudes.tolist()):
        u = abs(complex(sig, t)) ** (1.0 / 3.0)
        env = math.exp(prof.envelope_log_c + abs(sig) * math.log(4.0) - prof.fitted_c * u)
        if not m <= env:
            return False
    return len(prof.ts) > 1


WORKLOADS = {"tables": Tables, "census": Census, "analytic": Analytic}
