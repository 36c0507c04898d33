"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All checks are exact (symbolic) equalities unless a numeric tolerance is part
of the criterion itself.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from bdlab.cantor import (
    OdometerAlgebra,
    StageSequence,
    verify_flip_conjugacy,
    verify_psi_flip,
    verify_rg,
    verify_rho_homomorphism,
)
from bdlab.coeff import Angle, CircleRotation
from bdlab.fock import verify_compact_preservation, verify_fock_identity, verify_weighted_blocks
from bdlab.invariants import (
    K0Class,
    SupernaturalNumber,
    ThetaEnclosure,
    decide_amplification,
    decide_isomorphism,
    decide_simplicity_finite_model,
    decide_trace_uniqueness_finite_model,
    k0_positive,
    k1_limit_normalize,
)
from bdlab.limits import (
    verify_gamma_composition,
    verify_gamma_homomorphism,
    verify_trace_compatibility,
)
from bdlab.report import canonical_json

SEED = 20260809
THETA = Angle(Fraction(0), Fraction(1))
CIRCLE = CircleRotation(THETA)
SIZE_PAIRS = [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6)]


def announce(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_gamma_homomorphism_suite():
    started = time.monotonic()
    ok = True
    for n, m in SIZE_PAIRS:
        report = verify_gamma_homomorphism(CIRCLE, n, m, seed=SEED, count=100)
        ok = ok and report.ok
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    announce(1, f"gamma *-homomorphism, 100 pairs x {len(SIZE_PAIRS)} size pairs ({elapsed:.1f}s < 60s)", ok)


def test_criterion_02_composition_law():
    ok = True
    for (n, k, l) in [(1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 2, 2)]:
        report = verify_gamma_composition(CIRCLE, n, k, l, seed=SEED, count=50)
        ok = ok and report.ok
    announce(2, "composition law on generators + 50 random elements x 4 triples", ok)


def test_criterion_03_trace_compatibility():
    ok = True
    for n, m in SIZE_PAIRS:
        report = verify_trace_compatibility(CIRCLE, n, m, seed=SEED, count=100)
        ok = ok and report.ok
    announce(3, "trace compatibility, 100 random elements per size pair", ok)


def test_criterion_04_fock_identities():
    report = verify_fock_identity(CIRCLE, seed=SEED, count=100, depth=8)
    ok = report.ok
    for period in (1, 2, 3):
        block_report = verify_weighted_blocks(CIRCLE, period, seed=SEED, count=20, depth=4 * period)
        ok = ok and block_report.ok
    announce(4, "compact remainder identity (100 cases, K=8) + block equations (k=1,2,3, K=4k)", ok)


def test_criterion_05_compact_preservation():
    ok = True
    for n, m in [(1, 2), (2, 4)]:
        report = verify_compact_preservation(CIRCLE, n, m, seed=SEED, count=30)
        ok = ok and report.ok
    announce(5, "compact preservation under the block map, 30 random pairs x {(1,2),(2,4)}", ok)


def test_criterion_06_presentation_suite():
    ok = True
    for sizes in [(1, 2, 6), (1, 3, 6)]:
        odo = OdometerAlgebra(StageSequence(sizes), CIRCLE)
        for stage in range(1, 4):
            report = verify_rho_homomorphism(odo, stage, seed=SEED, count=100, extraction_count=50)
            ok = ok and report.ok
        for stage in (1, 2):
            report = verify_rg(odo, stage, seed=SEED, count=50)
            ok = ok and report.ok
    announce(6, "rho *-homomorphism + extraction injectivity + stage compatibility, {1,2,6} and {1,3,6}", ok)


def test_criterion_07_flip_suite():
    ok = True
    for sizes in [(1, 2, 4, 8, 16, 32, 64), (1, 3, 6, 24, 48)]:
        ok = ok and verify_flip_conjugacy(StageSequence(sizes)).ok
    odo = OdometerAlgebra(StageSequence((1, 2, 6)), CIRCLE)
    ok = ok and verify_psi_flip(odo, 3, seed=SEED, count=50).ok
    announce(7, "flip conjugacy exhaustive (n_k <= 64) + psi relation on 50 random functions", ok)


def test_criterion_08_classification_decider():
    d2, d3 = SupernaturalNumber.parse("2^inf"), SupernaturalNumber.parse("3^inf")
    started = time.monotonic()
    answers = [
        decide_isomorphism(THETA, d2, Angle.parse("theta+1/4"), d2).answer == "isomorphic",
        decide_isomorphism(THETA, d2, Angle.parse("-theta+1/8"), d2).answer == "isomorphic",
        decide_isomorphism(THETA, d2, Angle.parse("2*theta"), d2).answer == "not-isomorphic",
        decide_isomorphism(THETA, d2, THETA, d3).answer == "not-isomorphic",
        decide_isomorphism(*decide_amplification(2, THETA, d2), THETA, d2).answer == "not-isomorphic",
    ]
    elapsed = time.monotonic() - started
    ok = all(answers) and elapsed < 1
    announce(8, f"classification decider reproduces all five statements ({elapsed * 1000:.0f}ms < 1s)", ok)


def test_criterion_09_ktheory_normal_forms():
    sizes = (1, 2, 4, 8)
    rng = random.Random(SEED)
    ok = True
    for _ in range(100):
        stage = rng.randint(1, 3)
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        m_k = sizes[stage] // sizes[stage - 1]
        ok = ok and k1_limit_normalize(stage, (a, b), sizes) == k1_limit_normalize(stage + 1, (m_k * a, b), sizes)

    scale = 10**200
    theta_hp = Fraction(isqrt(2 * scale * scale), scale) - 1
    for _ in range(50):
        q = Fraction(rng.randint(-25, 25), rng.randint(1, 25))
        m = rng.randint(-20, 20)
        if q == 0 and m == 0:
            continue
        stream = ThetaEnclosure.from_continued_fraction(itertools.chain([0], itertools.repeat(2)))
        ok = ok and k0_positive(K0Class(q, m), stream) == (q + m * theta_hp > 0)
    announce(9, "K1 normalization constancy (100 cases) + K0 positivity vs 200-digit oracle (50 cases)", ok)


def test_criterion_10_finite_model_deciders():
    ok = True
    for d in range(1, 13):
        for sizes in [(1, 2, 4), (1, 3, 9), (1, 6)]:
            expected = all(gcd(n, d) == 1 for n in sizes)
            decision = decide_simplicity_finite_model(d, sizes)
            ok = ok and decision.simple == expected
            ok = ok and decide_trace_uniqueness_finite_model(d, sizes) == expected
            if not decision.simple:
                subset = set(decision.invariant_subset)
                ok = ok and 0 < len(subset) < d
                ok = ok and all((i + decision.stage_size) % d in subset for i in subset)
    announce(10, "simplicity/trace-uniqueness match gcd characterization, d <= 12, witnesses verified", ok)


def test_criterion_11_determinism(src_env):
    report_a = verify_gamma_homomorphism(CIRCLE, 2, 4, seed=SEED, count=25)
    report_b = verify_gamma_homomorphism(CIRCLE, 2, 4, seed=SEED, count=25)
    ok = canonical_json(report_a.to_json()) == canonical_json(report_b.to_json())
    argv = [sys.executable, "-m", "bdlab.cli", "verify", "trace-compat",
            "--sizes", "1,2,6", "--count", "20", "--seed", str(SEED)]
    first = subprocess.run(argv, capture_output=True, check=True, env=src_env)
    second = subprocess.run(argv, capture_output=True, check=True, env=src_env)
    ok = ok and first.stdout == second.stdout
    announce(11, "byte-identical reports for identical (config, seed), library and CLI", ok)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q"]))
