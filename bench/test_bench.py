"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repository root)."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


class TestPercentile:
    def test_p95_needs_ten_samples_beyond_it(self):
        assert run.percentile(list(range(199)), 95) is None
        assert run.percentile(list(range(200)), 95) == 189  # rank 190; samples 190..199 lie beyond

    def test_nearest_rank(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert run.percentile(samples, 50) == 3.0
        assert run.percentile([1.0] * 5, 50) is None


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            Span(0, 0, None, "limits.gamma", 0.0, 10.0),
            Span(0, 1, 0, "crossed.MatrixElement.__mul__", 1.0, 4.0),
            Span(0, 2, 1, "scalar.Scalar.__mul__", 2.0, 3.0),
            Span(0, 3, 0, "crossed.CrossedElement.__mul__", 5.0, 8.0),
        ]
        assert self_times(spans) == pytest.approx({"limits": 4.0, "crossed": 5.0, "scalar": 1.0})

    def test_overlapping_children_count_once(self):
        spans = [
            Span(0, 0, None, "cli.main", 0.0, 10.0),
            Span(0, 1, 0, "report.canonical_json", 2.0, 6.0),
            Span(0, 2, 0, "report.canonical_json", 4.0, 8.0),
        ]
        assert self_times(spans)["cli"] == pytest.approx(4.0)

    def test_self_times_add_up_to_the_root_span(self):
        tracer = Tracer()
        tracer.install()
        try:
            job = workloads.build("stage-maps", 3).round(0)[0]
            job.run()
            spans = list(tracer._spans)
            tracer.end_job()
        finally:
            tracer.uninstall()
        roots = [s for s in spans if s.parent is None]
        assert sum(tracer.self_s.values()) == pytest.approx(sum(s.end - s.start for s in roots))
        assert tracer.calls["limits.verify_gamma_homomorphism"] == 1
        assert tracer.counts()["limits.gamma.calls"] > 0


class TestTracerInstall:
    def test_reimported_names_and_aliases_are_wrapped_and_restored(self):
        from bdlab import cantor, limits
        from bdlab.scalar import Scalar

        gamma, mul, rmul = limits.gamma, vars(Scalar)["__mul__"], vars(Scalar)["__rmul__"]
        tracer = Tracer()
        tracer.install()
        try:
            assert cantor.gamma is limits.gamma and limits.gamma is not gamma
            Scalar.one() * Scalar.one()
            2 * Scalar.one()
            assert tracer.calls["scalar.Scalar.__mul__"] == 1
            assert tracer.calls["scalar.Scalar.__rmul__"] == 1
        finally:
            tracer.uninstall()
        assert limits.gamma is gamma and cantor.gamma is gamma
        assert vars(Scalar)["__mul__"] is mul and vars(Scalar)["__rmul__"] is rmul


def _pass(name, seed, rounds=1, tracer=None):
    workload = workloads.build(name, seed)
    jobs = [job for r in range(rounds) for job in workload.round(r)]
    tally = run.Tally()
    _, digest = run.run_pass(jobs, tally, tracer)
    return digest, tally


class TestDigestAndCounts:
    def test_digest_is_stable_for_a_fixed_seed(self):
        first, tally = _pass("fock-cyclic", 5)
        second, _ = _pass("fock-cyclic", 5)
        other, _ = _pass("fock-cyclic", 6)
        assert first == second != other
        assert tally.failed == 0 and tally.attempted > 0

    def test_exact_counts_repeat(self):
        tracer = Tracer()
        tracer.install()
        try:
            counts = []
            for _ in range(2):
                tracer.reset()
                _pass("cli-roundtrip", 2, tracer=tracer)
                counts.append(tracer.counts())
        finally:
            tracer.uninstall()
        assert counts[0] == counts[1]
        # apply --map gamma calls gamma once; verify gamma-hom --count 1 calls it six times
        assert counts[0]["invariants.calls"] > 0 and counts[0]["limits.gamma.calls"] == 1 + 6


class TestGate:
    def test_vacuous_and_failing_suites_are_caught(self):
        job = workloads.Job("x", lambda: None, expected_cases=5)
        assert job.problems(workloads.Outcome("", 0, 0))
        assert job.problems(workloads.Outcome("", 4, 0))
        assert job.problems(workloads.Outcome("", 5, 1))
        assert not job.problems(workloads.Outcome("", 5, 0))

    def test_wrong_cli_output_is_caught(self):
        jobs = {job.label: job for job in workloads.build("cli-roundtrip", 1).round(0)}
        for label in ("apply gamma 6->12", "apply shuffle p=2", "trace"):
            good = jobs[label].run()
            assert not jobs[label].problems(good)
        shuffled = jobs["apply shuffle p=2"].run()
        wrong = json.loads(jobs["apply gamma 6->12"].run().text)
        wrong["entries"][0][0], wrong["entries"][0][1] = wrong["entries"][0][1], wrong["entries"][0][0]
        assert jobs["apply gamma 6->12"].problems(workloads.Outcome(json.dumps(wrong), 1, 0))
        assert jobs["trace"].problems(workloads.Outcome('[{"coeff": "7", "root": "0", "theta": "0"}]', 1, 0))
        assert jobs["apply gamma 6->12"].problems(shuffled)

    def test_tau_sign_oracle(self):
        from fractions import Fraction

        theta = 2 ** 0.5 - 1
        for q in (Fraction(-1), Fraction(1, 2), Fraction(0), Fraction(-4, 3)):
            for m in (-3, -1, 1, 2):
                assert workloads.exceeds(q, m, Fraction(0)) == (q + m * theta > 0)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
