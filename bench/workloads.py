"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed mix of jobs replayed in rounds.  Each mix is chosen so
that the middle rank of its job latencies lies in a dense cluster of them, not
next to a wide gap between two job kinds, where the median would jump with
small changes in host speed (see README.md).  Job j of round r draws
its seed from (workload seed, r, j), so the inputs depend on the seed and the
round only, never on timing.  A job is one call to a public ``verify_*``
suite or one in-process ``bdlab.cli.main`` call.

Every job is gated: a suite must run exactly the number of cases its
configuration implies (so an empty algebra cannot pass vacuously) with no
failures, and a CLI call must exit 0 with output that matches an expectation
computed here by another route (a closed form, a known answer or exact
arithmetic on the input).

Library entry points are looked up on their modules at call time
(``limits.gamma``, not a local alias) so that the tracer sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from bdlab import cantor, cli, fock, limits
from bdlab import report as report_mod
from bdlab.coeff import Angle, CircleRotation, FiniteCyclicShift
from bdlab.crossed import CrossedElement, MatrixElement, sample_matrix
from bdlab.scalar import Scalar

@dataclass
class Outcome:
    text: str
    cases: int
    failures: int


@dataclass
class Job:
    label: str
    run: Callable[[], Outcome]
    expected_cases: int
    check: Callable[[str], list[str]] | None = None

    def problems(self, outcome: Outcome) -> list[str]:
        """Gate violations of one finished job (empty when it passed)."""
        found = []
        if outcome.cases <= 0 or outcome.cases != self.expected_cases:
            found.append(f"{outcome.cases} cases, expected {self.expected_cases}")
        if outcome.failures:
            found.append(f"{outcome.failures} failures")
        if not found and self.check is not None:
            try:
                found.extend(self.check(outcome.text))
            except Exception as exc:  # malformed output is a failed case, not a crash
                found.append(f"output check raised {exc!r}")
        return found


def job_seed(seed: int, round_index: int | str, position: int) -> int:
    return random.Random(f"{seed}:{round_index}:{position}").randrange(2**31)


def _suite(label: str, expected_cases: int, call: Callable) -> Job:
    def run() -> Outcome:
        report = call()
        return Outcome(report_mod.canonical_json(report.to_json()), report.cases, len(report.failures))

    return Job(label, run, expected_cases)


class Workload:
    """A named job mix; ``round(r)`` gives the jobs of round r."""

    #: Rounds that make up one traced pass and the output digest.
    digest_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def jobs(self, round_index: int | str, seeds: list[int]) -> list[Job]:
        raise NotImplementedError

    def round(self, round_index: int | str) -> list[Job]:
        seeds = [job_seed(self.seed, round_index, j) for j in range(64)]
        return self.jobs(round_index, seeds)


class StageMaps(Workload):
    """gamma suites and the amplification intertwining at angle theta+1/4."""

    digest_rounds = 12
    PAIRS = ((1, 2), (2, 6), (3, 6))
    TRIPLES = ((1, 2, 3), (1, 3, 2))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.angle = Angle.parse("theta+1/4")
        self.algebra = CircleRotation(self.angle)

    def jobs(self, round_index, seeds):
        alg, out = self.algebra, []
        s = iter(seeds)
        for n, m in self.PAIRS:
            seed = next(s)
            out.append(_suite(f"gamma-hom {n}->{m}", 1 + 2 * 2,
                              lambda n=n, m=m, seed=seed: limits.verify_gamma_homomorphism(alg, n, m, seed, 2)))
        for n, m in self.PAIRS:
            seed = next(s)
            out.append(_suite(f"trace-compat {n}->{m}", 4,
                              lambda n=n, m=m, seed=seed: limits.verify_trace_compatibility(alg, n, m, seed, 4)))
        for n, k, l in self.TRIPLES:
            seed = next(s)
            out.append(_suite(f"gamma-comp ({n},{k},{l})", 3 + 1 + 2,
                              lambda n=n, k=k, l=l, seed=seed:
                              limits.verify_gamma_composition(alg, n, k, l, seed, 2)))
        for n, m in self.PAIRS:
            seed = next(s)
            out.append(_suite(f"amplification p=2 {n}->{m}", 3 + (2 * n) ** 2 + 1,
                              lambda n=n, m=m, seed=seed: limits.verify_amplification_intertwining(
                                  self.angle, 2, n, m, seed, 1)))
        return out


class Odometer(Workload):
    """rho presentation suites at angle theta over two stage sequences."""

    digest_rounds = 5
    SEQUENCES = ((1, 2, 6), (1, 3, 6))

    def __init__(self, seed: int):
        super().__init__(seed)
        coeff = CircleRotation(Angle.parse("theta"))
        self.algebras = [cantor.OdometerAlgebra(cantor.StageSequence(sizes), coeff) for sizes in self.SEQUENCES]

    def jobs(self, round_index, seeds):
        out = []
        s = iter(seeds)
        for odo in self.algebras:
            sizes = odo.stages.sizes
            for stage in (1, 2, 3):
                seed = next(s)
                out.append(_suite(f"rho-hom {sizes} stage {stage}", 1 + 2,
                                  lambda odo=odo, stage=stage, seed=seed:
                                  cantor.verify_rho_homomorphism(odo, stage, seed, 1, 0)))
            for stage in (2, 3):
                seed = next(s)
                out.append(_suite(f"rho-extract {sizes} stage {stage}", 1 + 1,
                                  lambda odo=odo, stage=stage, seed=seed:
                                  cantor.verify_rho_homomorphism(odo, stage, seed, 0, 1)))
            for stage in (1, 2):
                seed, n = next(s), sizes[stage - 1]
                out.append(_suite(f"rg {sizes} stage {stage}", 3 + n * n + 1,
                                  lambda odo=odo, stage=stage, seed=seed: cantor.verify_rg(odo, stage, seed, 1)))
            seed = next(s)
            out.append(_suite(f"psi-flip {sizes}", 2 + 2,
                              lambda odo=odo, seed=seed: cantor.verify_psi_flip(odo, 3, seed, 2)))
            out.append(_suite(f"gk-generation {sizes}", 3, lambda odo=odo: cantor.verify_gk_generation(odo)))
        return out


class FockCyclic(Workload):
    """Fock identities, block equations and block maps over FiniteCyclicShift(6)."""

    digest_rounds = 16
    PAIRS = ((1, 2), (2, 6), (3, 6))
    SHUFFLE_PAIRS = ((1, 2), (1, 6), (2, 6), (3, 6))
    #: Period -> case count.  With these counts a block job takes about as long
    #: as the other jobs of the round, so the round's latencies form one cluster
    #: whose median moves with host speed as their mean does.
    BLOCK_COUNTS = {1: 12, 2: 8, 3: 6}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.algebra = FiniteCyclicShift(6)

    def jobs(self, round_index, seeds):
        alg, out = self.algebra, []
        s = iter(seeds)
        seed = next(s)
        out.append(_suite("fock-id", 1 + 2, lambda seed=seed: fock.verify_fock_identity(alg, seed, 2)))
        for period, count in self.BLOCK_COUNTS.items():
            seed = next(s)
            out.append(_suite(f"fock-blocks k={period}", count * period * period,
                              lambda period=period, count=count, seed=seed:
                              fock.verify_weighted_blocks(alg, period, seed, count)))
        for n, m in self.PAIRS:
            seed = next(s)
            out.append(_suite(f"compact-preserve {n}->{m}", 1 + 1,
                              lambda n=n, m=m, seed=seed: fock.verify_compact_preservation(alg, n, m, seed, 1)))
        for n, m in self.SHUFFLE_PAIRS:
            seed = next(s)
            out.append(_suite(f"shuffle {n}->{m}", 3 + n * n,
                              lambda n=n, m=m, seed=seed: fock.verify_shuffle(alg, n, m, seed)))
        return out


# --- cli-roundtrip -----------------------------------------------------------

#: Continued fraction [0; 2, 2, ...] of theta = sqrt(2) - 1 for ``ktheory --tau``.
THETA_CF = "0,2,..."
SUPERNATURALS = {"2^inf": {2}, "3^inf": {3}, "6^inf": {2, 3}}
CHAINS = ((1, 2, 6), (1, 2, 4), (1, 3, 6), (1, 2, 6, 12))


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """One in-process ``bdlab`` invocation: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_job(label: str, argv: list[str], stdin_text: str, check: Callable[[str], list[str]]) -> Job:
    def run() -> Outcome:
        code, text = run_cli(argv, stdin_text)
        return Outcome(text, 1, 0 if code == 0 else 1)

    return Job(label, run, 1, check)


def gamma_closed_form(n: int, m: int, X: MatrixElement) -> MatrixElement:
    """gamma_{n,m} by per-monomial placement.

    a u^l e_{i,j} contributes alpha^(cn)(a) u_m^((c+l-c')/k) at position
    (i + c n, j + c' n) for c = 0..k-1 with c' = (c + l) mod k.
    """
    k, algebra, acc = m // n, X.algebra, {}
    for (i, j), x in X.entries.items():
        for l, a in x.coeffs.items():
            for c in range(k):
                cp = (c + l) % k
                term = CrossedElement(algebra, m, {(c + l - cp) // k: algebra.alpha_power(a, c * n)})
                key = (i + c * n, j + cp * n)
                acc[key] = acc[key] + term if key in acc else term
    return MatrixElement(algebra, m, m, acc)


def trace_from_json(data: dict) -> Scalar:
    """Normalized trace read straight off a circle-algebra matrix JSON."""
    size = int(data["size"])
    total = Scalar.zero()
    for i in range(size):
        total = total + Scalar.from_json(data["entries"][i][i]["coeffs"].get("u:0", {}).get("z:0", []))
    return Fraction(1, size) * total


def _in_q_delta(value: Fraction, primes: set[int]) -> bool:
    """Membership in Q(delta) for delta the product of p^inf over the given primes."""
    d = value.denominator
    for p in primes:
        while d % p == 0:
            d //= p
    return d == 1


def expected_classification(r1, q1, d1, r2, q2, d2) -> str:
    """The classification criterion evaluated directly on q + r*theta data."""
    if d1 != d2:
        return "not-isomorphic"
    primes = SUPERNATURALS[d1]
    iso = (r1 == r2 and _in_q_delta(q1 - q2, primes)) or (r1 == -r2 and _in_q_delta(q1 + q2, primes))
    return "isomorphic" if iso else "not-isomorphic"


def exceeds(q: Fraction, m: int, x: Fraction) -> bool:
    """Exactly decide q + m*theta > x for theta = sqrt(2) - 1."""
    # q + m*(sqrt2 - 1) > x  <=>  m*sqrt2 > b  with b = x - q + m
    b = x - q + m
    if m == 0:
        return b < 0
    if m > 0:
        return b < 0 or 2 * m * m > b * b
    return b < 0 and b * b > 2 * m * m


def _angle_text(r: int, q: Fraction) -> str:
    return f"{r}*theta+{q}"


class CliRoundtrip(Workload):
    """Serialized elements through ``bdlab apply/trace/classify/ktheory``."""

    digest_rounds = 40
    POOL = 48
    SIZES = "1,2,6"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.angle_text = "theta+1/4"
        self.algebra = CircleRotation(Angle.parse(self.angle_text))
        self.odo = cantor.OdometerAlgebra(cantor.StageSequence((1, 2, 6)), self.algebra)
        self.pool = [self._make_input(i) for i in range(self.POOL)]
        self.warm_input = self._make_input("warm")

    def _make_input(self, index: int | str):
        rng = random.Random(f"{self.seed}:input:{index}")
        X = sample_matrix(self.algebra, 6, 6, rng) + MatrixElement.identity(self.algebra, 6, 6)
        Y = cantor.rho(self.odo, 3, sample_matrix(self.algebra, 6, 6, rng))
        return X, report_mod.canonical_json(X.to_json()), report_mod.canonical_json(Y.to_json())

    def jobs(self, round_index, seeds):
        if isinstance(round_index, int):
            X, x_text, y_text = self.pool[round_index % self.POOL]
        else:
            X, x_text, y_text = self.warm_input
        rng = random.Random(seeds[0])
        odo = self.odo

        def check_gamma(text):
            got = MatrixElement.from_json(json.loads(text))
            return [] if got == gamma_closed_form(6, 12, X) else ["gamma image differs from the closed form"]

        p, q = rng.randrange(6), rng.randrange(6)

        def check_rho(text):
            got = cantor.OdometerElement.from_json(json.loads(text), odo)
            found = []
            if got.depth != 3 or not got.state() == X.trace():
                found.append("rho image has the wrong depth or state")
            extracted = cantor.rho_extract(odo, 3, got, p, q)
            if extracted is None or not extracted == X.entry(p, q):
                found.append(f"rho image does not give back entry ({p},{q})")
            return found

        def check_shuffle(text):
            got = MatrixElement.from_json(json.loads(text))
            perm = {b * 3 + i: i * 2 + b for b in range(2) for i in range(3)}
            same = len(got.entries) == len(X.entries) and all(
                got.entry(perm[r], perm[c]) == x for (r, c), x in X.entries.items())
            return [] if same else ["shuffle is not the block permutation"]

        source = json.loads(y_text)

        def check_psi(text):
            got = json.loads(text)
            want = {f"U:{-int(key[2:])}": {"depth": f["depth"], "values": f["values"][::-1]}
                    for key, f in source["coeffs"].items()}
            return [] if got == {"depth": source["depth"], "coeffs": want} else ["psi is not the digit flip"]

        trace_oracle = trace_from_json(json.loads(x_text))

        def check_trace(text):
            return [] if Scalar.from_json(json.loads(text)) == trace_oracle else ["trace differs"]

        r1, r2 = 1, rng.choice((1, -1, 2))
        q1, q2 = (Fraction(rng.randrange(8), rng.choice((1, 2, 3, 4, 8))) for _ in range(2))
        d1 = rng.choice(tuple(SUPERNATURALS))
        d2 = d1 if rng.random() < 0.7 else rng.choice(tuple(SUPERNATURALS))
        answer = expected_classification(r1, q1, d1, r2, q2, d2)

        def check_classify(text):
            got = json.loads(text)["answer"]
            return [] if got == answer else [f"classify said {got}, expected {answer}"]

        chain = rng.choice(CHAINS)
        stage, a, b = rng.randint(1, len(chain)), rng.randint(-9, 9), rng.randint(-9, 9)

        def check_normalize(text):
            got = json.loads(text)
            want = {"a": str(Fraction(a, chain[stage - 1])), "b": b}
            return [] if got["normalized"]["class"] == want and got["sizes"] == list(chain) else ["bad K1 normal form"]

        tq, tm = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), rng.choice((-3, -2, -1, 1, 2, 3))
        precision = Fraction(1, 10000)

        def check_tau(text):
            tau = json.loads(text)["tau"]
            lo, hi = (Fraction(v) for v in tau["interval"])
            ok = (tau["positive"] == exceeds(tq, tm, Fraction(0)) and exceeds(tq, tm, lo)
                  and not exceeds(tq, tm, hi) and hi - lo < precision)
            return [] if ok else ["tau enclosure or sign is wrong"]

        def check_verify(text):
            got = json.loads(text)
            return [] if got["cases"] == 1 + 2 and got["failures"] == [] else ["verify report is vacuous or failed"]

        sizes = ["--sizes", self.SIZES]
        angle = ["--algebra", "circle", "--angle", self.angle_text]
        return [
            _cli_job("verify gamma-hom 1,2", ["verify", "gamma-hom", "--sizes", "1,2", *angle, "--count", "1",
                                              "--seed", str(seeds[1])], "", check_verify),
            _cli_job("apply gamma 6->12", ["apply", "--map", "gamma", "--from", "6", "--to", "12"], x_text, check_gamma),
            _cli_job("apply rho stage 3", ["apply", "--map", "rho", "--stage", "3", *sizes], x_text, check_rho),
            _cli_job("apply shuffle p=2", ["apply", "--map", "shuffle", "--p", "2"], x_text, check_shuffle),
            _cli_job("apply psi", ["apply", "--map", "psi", *sizes, *angle], y_text, check_psi),
            _cli_job("trace", ["trace"], x_text, check_trace),
            _cli_job("classify", ["classify", f"--theta1={_angle_text(r1, q1)}", "--delta1", d1,
                                  f"--theta2={_angle_text(r2, q2)}", "--delta2", d2], "", check_classify),
            _cli_job("ktheory --normalize", ["ktheory", "--sizes", ",".join(map(str, chain)),
                                             "--normalize", f"{stage}:{a},{b}"], "", check_normalize),
            _cli_job("ktheory --tau", ["ktheory", "--sizes", "1,2", f"--tau={tq},{tm}", "--theta-cf", THETA_CF,
                                       "--precision", str(precision)], "", check_tau),
        ]


WORKLOADS = {"stage-maps": StageMaps, "odometer": Odometer, "fock-cyclic": FockCyclic, "cli-roundtrip": CliRoundtrip}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
