#!/usr/bin/env python3
"""bdlab benchmark: run one workload and print its metrics.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload odometer --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client.  One process runs the workload's
jobs back to back, round after round, until --seconds have passed (at least
the workload's digest rounds and 200 jobs, so that p95 has ten samples beyond
it).

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 replays the digest rounds once untraced and then at least twice
under the tracer, checks that every exact count repeats, and prints the
per-layer metrics, the tracing overhead and the scalar kernel rows.  The first
20000 spans are written to .bench_out/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 means every job passed its output gate; 1
means some job failed it or a count did not repeat; 2 means a usage error or
a missing package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SAMPLES = 200
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
MAX_TRACED_PASSES = 4
MAX_REPORTED_PROBLEMS = 5
SPAN_LIMIT = 20_000
SPAN_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("stage-maps", "odometer", "fock-cyclic", "cli-roundtrip")
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p95": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run with its unit."""
    from kernel import CYCLOTOMIC_N, MUL_CONDUCTORS
    from tracer import LAYERS

    units = {
        "scalar.mul.calls": "count", "scalar.add.calls": "count", "scalar.normalize.calls": "count",
        "scalar.max_conductor": "count",
        "coeff.alpha_power.calls": "count", "coeff.alpha_power.nontrivial_ratio": "ratio",
        "coeff.phase.repeat_ratio": "ratio", "coeff.mul.calls": "count",
        "crossed.crossed_mul.calls": "count", "crossed.matrix_mul.calls": "count",
        "limits.gamma.calls": "count",
        "cantor.rho.calls": "count", "cantor.rho_extract.calls": "count", "cantor.odometer_mul.calls": "count",
        "cantor.shifted.values": "count", "cantor.shifted.nonzero_ratio": "ratio",
        "fock.compose.calls": "count", "fock.block_mul.calls": "count", "fock.agrees.entries_compared": "count",
        "invariants.calls": "count", "report.bytes_out": "B", "cli.parse_s": "s",
    }
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update({f"scalar.mul_us.c{c}": "us" for c in MUL_CONDUCTORS})
    units.update({f"scalar.cyclotomic_ms.N{n}": "ms" for n in CYCLOTOMIC_N})
    units["scalar.cyclotomic_over_budget"] = "count"
    units["trace.jobs_per_s_ratio"] = "ratio"
    units["fail_ratio"] = "ratio"
    return units


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ten samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def load_package() -> None:
    """Import bdlab from this checkout's src, and nowhere else."""
    if not (SRC / "bdlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'bdlab'}")
    sys.path.insert(0, str(SRC))
    import bdlab

    if Path(bdlab.__file__).resolve().parent != (SRC / "bdlab").resolve():
        raise ImportError(f"bdlab was imported from {bdlab.__file__}, not from {SRC}")


class Tally:
    """Cases attempted and failed, and the gate problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def account(self, job, outcome, tracer=None) -> None:
        if outcome is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{job.label}: raised")
            return
        if tracer is not None:
            tracer.paused = True
        try:
            found = job.problems(outcome)
        finally:
            if tracer is not None:
                tracer.paused = False
        self.attempted += max(outcome.cases, 1)
        self.failed += outcome.failures if outcome.failures else (1 if found else 0)
        self.problems.extend(f"{job.label}: {p}" for p in found)


def run_job(job):
    """Run one job; returns (seconds, outcome or None if it raised)."""
    start = perf_counter()
    try:
        outcome = job.run()
    except Exception:
        outcome = None
        traceback.print_exc(file=sys.stderr)
    return perf_counter() - start, outcome


def _digest_update(digest, job, outcome) -> None:
    digest.update(f"{job.label}\n".encode())
    digest.update(outcome.text.encode() if outcome is not None else b"<raised>\n")


def run_timed(workload, seconds: float, tally: Tally) -> tuple[list[float], str, int]:
    """Jobs back to back until time is up; returns (job seconds, digest, rounds)."""
    samples: list[float] = []
    digest = hashlib.sha256()
    start = perf_counter()
    r = 0
    while True:
        for job in workload.round(r):
            dt, outcome = run_job(job)
            samples.append(dt)
            tally.account(job, outcome)
            if r < workload.digest_rounds:
                _digest_update(digest, job, outcome)
        r += 1
        if r >= workload.digest_rounds and len(samples) >= MIN_SAMPLES and perf_counter() - start >= seconds:
            return samples, digest.hexdigest(), r


def run_pass(jobs, tally: Tally, tracer=None) -> tuple[float, str]:
    """One pass over a fixed job list; returns (total job seconds, digest)."""
    digest = hashlib.sha256()
    total = 0.0
    for job in jobs:
        dt, outcome = run_job(job)
        if tracer is not None:
            tracer.end_job()
        total += dt
        tally.account(job, outcome, tracer)
        _digest_update(digest, job, outcome)
    return total, digest.hexdigest()


def setup_workload(name: str, seed: int):
    """Import, algebra construction, input generation and warm-up; returns (workload, seconds)."""
    start = perf_counter()
    load_package()
    import workloads

    workload = workloads.build(name, seed)
    for job in workload.round("warm"):
        job.run()
    return workload, perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (subprocess, waited for)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure_untraced(args, workload, setup_s: float, tally: Tally) -> dict[str, float]:
    samples, digest, rounds = run_timed(workload, args.seconds, tally)
    p50, p95 = percentile(samples, 50), percentile(samples, 95)
    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    beyond = len(samples) - math.ceil(0.95 * len(samples))
    print(f"{args.workload} seed={args.seed}: {len(samples)} jobs in {rounds} rounds, "
          f"{sum(samples):.2f} s of job time; p50 and p95 over {len(samples)} samples, {beyond} beyond p95")
    print(f"digest {args.workload} seed={args.seed} rounds=0..{workload.digest_rounds - 1} sha256={digest}")
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(samples) / sum(samples),
        "job_ms_p50": p50 * 1e3,
        "job_ms_p95": p95 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(args, workload, tally: Tally) -> tuple[dict[str, float], list[str]]:
    import kernel
    from tracer import Tracer

    jobs = [job for r in range(workload.digest_rounds) for job in workload.round(r)]
    start = perf_counter()
    ref_s, ref_digest = run_pass(jobs, tally)
    tracer = Tracer(keep_spans=SPAN_LIMIT)
    tracer.install()
    passes = []
    try:
        # Two passes at least, to compare their counts; more while another fits in --seconds.
        while len(passes) < 2 or (len(passes) < MAX_TRACED_PASSES
                                  and perf_counter() - start + passes[-1][0] < args.seconds):
            tracer.reset()
            job_s, digest = run_pass(jobs, tally, tracer)
            passes.append((job_s, digest, tracer.counts(), tracer.times()))
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    spans_path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    errors = []
    counts = passes[0][2]
    for i, (_, digest, other, _) in enumerate(passes[1:], start=2):
        diff = {k: (counts[k], other[k]) for k in counts if counts[k] != other[k]}
        if diff:
            errors.append(f"exact counts differ between traced passes 1 and {i}: {diff}")
        if digest != ref_digest:
            errors.append(f"traced pass {i} output digest differs from the untraced pass")
    if passes[0][1] != ref_digest:
        errors.append("traced pass 1 output digest differs from the untraced pass")

    traced_s = statistics.median(p[0] for p in passes)
    metrics = dict(counts)
    for name in passes[0][3]:
        metrics[name] = statistics.median(p[3][name] for p in passes)
    metrics["trace.jobs_per_s_ratio"] = ref_s / traced_s
    metrics.update(kernel.rows(args.seed))
    metrics["fail_ratio"] = tally.failed / tally.attempted
    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs per pass, untraced {ref_s:.2f} s, "
          f"{len(passes)} traced passes, median {traced_s:.2f} s; first {len(tracer.kept)} spans in {spans_path}")
    print(f"digest {args.workload} seed={args.seed} rounds=0..{workload.digest_rounds - 1} sha256={ref_digest}")
    return metrics, errors


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, setup_s = setup_workload(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    errors: list[str] = []
    if args.trace:
        values, errors = measure_traced(args, workload, tally)
        units = per_layer_units()
    else:
        values = measure_untraced(args, workload, setup_s, tally)
        units = END_TO_END_UNITS
    for problem in tally.problems[:MAX_REPORTED_PROBLEMS] + errors:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not errors
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
