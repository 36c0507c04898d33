import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from bdlab.coeff import Angle
from bdlab.errors import BudgetError, MismatchError
from bdlab.invariants import (
    INF,
    REFINEMENT_BUDGET,
    K0Class,
    K1Class,
    SupernaturalNumber,
    ThetaEnclosure,
    decide_amplification,
    decide_isomorphism,
    decide_simplicity_finite_model,
    decide_trace_uniqueness_finite_model,
    k0_positive,
    k0_tau_value,
    k1_limit_normalize,
    ktheory_presentation,
    q_delta_member,
)

THETA = Angle(Fraction(0), Fraction(1))
D2INF = SupernaturalNumber.parse("2^inf")
D3INF = SupernaturalNumber.parse("3^inf")


def witness_stage(r, sizes):
    """Smallest 1-based stage whose size the denominator of r divides."""
    den = Fraction(r).denominator
    for k, n in enumerate(sizes, start=1):
        if n % den == 0:
            return k
    return None


def sqrt2_minus_one_stream():
    return ThetaEnclosure.from_continued_fraction(itertools.chain([0], itertools.repeat(2)))


def sqrt2_minus_one_high_precision(digits: int = 200) -> Fraction:
    scale = 10**digits
    return Fraction(isqrt(2 * scale * scale), scale) - 1


class TestSupernatural:
    def test_from_sequence_with_tail(self):
        d = SupernaturalNumber.from_sequence([1, 2, 4, 8], {2: INF})
        assert d == D2INF and not d.finite_evidence

    def test_from_sequence_factorization(self):
        d = SupernaturalNumber.from_sequence([1, 6])
        assert d.factors == {2: 1, 3: 1} and d.finite_evidence

    def test_finite_evidence_flag(self):
        d = SupernaturalNumber.from_sequence([1, 2, 4])
        assert d.factors == {2: 2} and d.finite_evidence

    def test_parse_plain_integer(self):
        assert SupernaturalNumber.parse("12").factors == {2: 2, 3: 1}

    @pytest.mark.parametrize("text", ["2^-1", "3*2^-2", "6^-1*2^inf"])
    def test_parse_negative_exponent_is_error(self, text):
        # "2^-1" used to drop the factor silently
        with pytest.raises(ValueError, match="negative exponent"):
            SupernaturalNumber.parse(text)

    def test_json_round_trip(self):
        # the stored form; no command reads it back
        d = SupernaturalNumber.parse("2^inf*3^2")
        assert d.to_json() == {"factors": {"2": "inf", "3": 2}, "finiteEvidence": False}

    def test_amplify(self):
        assert D2INF.amplify(2) == D2INF
        assert SupernaturalNumber.parse("3").amplify(6).factors == {2: 1, 3: 2}


class TestQDelta:
    def test_membership_examples(self):
        assert q_delta_member(Fraction(3, 8), D2INF)
        assert not q_delta_member(Fraction(1, 3), D2INF)
        assert q_delta_member(Fraction(5), D3INF)

    def test_membership_matches_stage_search(self):
        sizes = (1, 2, 4, 12, 24)
        delta = SupernaturalNumber.from_sequence(sizes)
        rng = random.Random(17)
        for _ in range(100):
            r = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            stage = witness_stage(r, sizes)
            assert q_delta_member(r, delta) == (stage is not None)
            if stage is not None:
                assert sizes[stage - 1] % r.denominator == 0


class TestEnclosures:
    def test_nested_and_converging(self):
        enc = sqrt2_minus_one_stream()
        target = sqrt2_minus_one_high_precision()
        prev_width = None
        for _ in range(12):
            lo, hi = enc.refine()
            assert lo < target < hi
            if prev_width is not None:
                assert hi - lo < prev_width
            prev_width = hi - lo

    def test_rejects_non_nested_stream(self):
        enc = ThetaEnclosure(iter([(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(2))]))
        with pytest.raises(MismatchError):
            enc.refine()

    @pytest.mark.parametrize("interval", [(Fraction(-1), Fraction(1, 2)), (Fraction(1, 2), Fraction(2))])
    def test_rejects_a_refinement_past_one_end(self, interval):
        enc = ThetaEnclosure(iter([(Fraction(0), Fraction(1)), interval]))
        with pytest.raises(MismatchError, match="nested"):
            enc.refine()

    def test_rejects_zero_width(self):
        with pytest.raises(MismatchError, match="positive width"):
            ThetaEnclosure(iter([(Fraction(1, 2), Fraction(1, 2))]))

    def test_exhausted_stream_is_budget_error(self):
        enc = ThetaEnclosure(iter([(Fraction(0), Fraction(1))]))
        with pytest.raises(BudgetError):
            k0_tau_value(K0Class(Fraction(0), 1), enc, Fraction(1, 10**9))


class TestK0:
    def test_tau_value_examples(self):
        assert k0_tau_value(K0Class(Fraction(1, 2), 0), sqrt2_minus_one_stream(), Fraction(1)) == (
            Fraction(1, 2), Fraction(1, 2))
        lo, hi = k0_tau_value(K0Class(Fraction(1, 2), -1), sqrt2_minus_one_stream(), Fraction(1, 1000))
        assert Fraction(8, 100) < lo <= hi < Fraction(9, 100)
        assert k0_tau_value(K0Class(Fraction(0), 0), sqrt2_minus_one_stream(), Fraction(1)) == (0, 0)

    def test_precision_must_be_positive(self):
        for c in (K0Class(Fraction(1, 2), 0), K0Class(Fraction(0), 1)):
            with pytest.raises(ValueError, match="precision must be positive"):
                k0_tau_value(c, sqrt2_minus_one_stream(), Fraction(0))

    def test_tau_value_width_is_strictly_below_the_precision(self):
        # theta's first interval [0, 1/2] is exactly 1/2 wide, so precision 1/2 takes the next one
        enc = ThetaEnclosure(iter([(Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))]))
        assert k0_tau_value(K0Class(Fraction(0), 1), enc, Fraction(1, 2)) == (Fraction(1, 4), Fraction(1, 2))

    @pytest.mark.parametrize("m, positive", [(1, True), (-1, False)])
    def test_sign_needs_zero_outside_the_interval(self, m, positive):
        # +-theta on [0, 1/2] touches 0 at one end; the sign is read only once 0 lies outside, on [1/4, 1/2]
        enc = ThetaEnclosure(iter([(Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))]))
        assert k0_positive(K0Class(Fraction(0), m), enc) is positive
        assert enc.current == (Fraction(1, 4), Fraction(1, 2))

    def test_positive_examples(self):
        assert k0_positive(K0Class(Fraction(1, 2), -1), sqrt2_minus_one_stream())
        assert k0_positive(K0Class(Fraction(0), 1), sqrt2_minus_one_stream())
        assert k0_positive(K0Class(Fraction(0), 0), sqrt2_minus_one_stream())
        assert not k0_positive(K0Class(Fraction(1, 3), -1), sqrt2_minus_one_stream())

    def test_sign_agrees_with_high_precision_oracle(self):
        theta_hp = sqrt2_minus_one_high_precision()
        rng = random.Random(23)
        for _ in range(60):
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            m = rng.randint(-15, 15)
            if q == 0 and m == 0:
                continue
            expected = q + m * theta_hp > 0
            assert k0_positive(K0Class(q, m), sqrt2_minus_one_stream()) == expected

    def test_sign_on_enclosure_narrowed_by_tau_value(self):
        # ktheory --tau reads the sign off the enclosure that k0_tau_value has already narrowed
        rng = random.Random(29)
        for _ in range(60):
            c = K0Class(Fraction(rng.randint(-20, 20), rng.randint(1, 20)), rng.randint(-15, 15))
            narrowed = sqrt2_minus_one_stream()
            k0_tau_value(c, narrowed, Fraction(1, rng.choice((2, 1000, 10**9))))
            assert k0_positive(c, narrowed) == k0_positive(c, sqrt2_minus_one_stream())

    def test_budget_error(self):
        # theta in [0, 1] forever: 1/2 - theta stays in [-1/2, 1/2], never signed or narrowed
        for decide in (lambda c, theta: k0_tau_value(c, theta, Fraction(1, 10)), k0_positive):
            pulls = []

            def never_narrows():
                for interval in itertools.repeat((0, 1)):
                    pulls.append(interval)
                    yield interval

            with pytest.raises(BudgetError, match=f"within {REFINEMENT_BUDGET} refinements"):
                decide(K0Class(Fraction(1, 2), -1), ThetaEnclosure(never_narrows()))
            assert len(pulls) == 1 + REFINEMENT_BUDGET  # the first interval, then each refinement

    def test_group_structure(self):
        a = K0Class(Fraction(1, 2), 3)
        b = K0Class(Fraction(1, 3), -1)
        assert a + b == K0Class(Fraction(5, 6), 2)
        assert (a - a).is_zero()
        # componentwise in q and m, on both components at once
        assert a - b == K0Class(Fraction(1, 6), 4) and b - a == -(a - b) and (a - b) + b == a


class TestK1:
    def test_normalization_example(self):
        assert k1_limit_normalize(3, (1, 5), (1, 2, 4)) == K1Class(Fraction(1, 4), 5)
        assert k1_limit_normalize(1, (7, -2), (1, 2, 4)) == K1Class(Fraction(7), -2)
        assert k1_limit_normalize(2, (0, 9), (1, 2)) == K1Class(Fraction(0), 9)

    def test_constant_on_connecting_orbits(self):
        sizes = (1, 2, 4, 8)
        rng = random.Random(29)
        for _ in range(100):
            stage = rng.randint(1, 3)
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            m_k = sizes[stage] // sizes[stage - 1]
            assert k1_limit_normalize(stage, (a, b), sizes) == k1_limit_normalize(
                stage + 1, (m_k * a, b), sizes)

    def test_stage_bounds(self):
        with pytest.raises(MismatchError):
            k1_limit_normalize(4, (1, 1), (1, 2))


class TestIsomorphismDecider:
    def test_known_classification_answers(self):
        assert decide_isomorphism(THETA, D2INF, Angle.parse("theta+1/4"), D2INF).answer == "isomorphic"
        assert decide_isomorphism(THETA, D2INF, Angle.parse("-theta+1/8"), D2INF).answer == "isomorphic"
        assert decide_isomorphism(THETA, D2INF, Angle.parse("2*theta"), D2INF).answer == "not-isomorphic"
        assert decide_isomorphism(THETA, D2INF, THETA, D3INF).answer == "not-isomorphic"

    def test_amplification_non_isomorphism(self):
        theta_p, delta_p = decide_amplification(2, THETA, D2INF)
        assert theta_p == Angle(Fraction(0), Fraction(1, 2)) and delta_p == D2INF
        assert decide_isomorphism(theta_p, delta_p, THETA, D2INF).answer == "not-isomorphic"

    def test_trivial_amplification(self):
        assert decide_amplification(1, THETA, D2INF) == (THETA, D2INF)

    def test_reflexive_and_symmetric(self):
        rng = random.Random(31)
        deltas = [D2INF, D3INF, SupernaturalNumber.parse("2^inf*3^2"), SupernaturalNumber.parse("6^inf")]
        for _ in range(50):
            t1 = Angle(Fraction(rng.randint(-4, 4), rng.randint(1, 4)), Fraction(rng.randint(-2, 2)))
            t2 = Angle(Fraction(rng.randint(-4, 4), rng.randint(1, 4)), Fraction(rng.randint(-2, 2)))
            d1, d2 = rng.choice(deltas), rng.choice(deltas)
            assert decide_isomorphism(t1, d1, t1, d1).answer == "isomorphic"
            assert decide_isomorphism(t1, d1, t2, d2).answer == decide_isomorphism(t2, d2, t1, d1).answer

    def test_membership_witness(self):
        decision = decide_isomorphism(THETA, D2INF, Angle.parse("theta+1/4"), D2INF)
        assert decision.witness["denominator"] == 4

    def test_sum_case_witness(self):
        decision = decide_isomorphism(Angle.parse("theta+1/4"), D2INF, Angle.parse("-theta+1/4"), D2INF)
        assert decision.answer == "isomorphic"
        assert decision.witness == {"case": "sum", "value": "1/2", "denominator": 2}

    def test_sum_outside_q_delta_is_not_isomorphic(self):
        # the r-parts cancel in the sum, but 1/6 + 1/6 = 1/3 is not in Q(2^inf), and the r-parts differ
        decision = decide_isomorphism(Angle.parse("theta+1/6"), D2INF, Angle.parse("-theta+1/6"), D2INF)
        assert decision.answer == "not-isomorphic"
        assert decision.witness == {"component": "angle", "rDifference": "2", "rSum": "0"}

    def test_delta_witness(self):
        decision = decide_isomorphism(THETA, D2INF, THETA, D3INF)
        assert decision.witness == {"component": "delta", "delta1": "2^inf", "delta2": "3^inf"}

    def test_finite_evidence_on_one_side(self):
        # the prefix 1, 2, 4 may complete to 2^inf, so the declared side cannot settle delta
        partial = SupernaturalNumber.from_sequence([1, 2, 4])
        for args in ((THETA, partial, THETA, D2INF), (THETA, D2INF, THETA, partial)):
            decision = decide_isomorphism(*args)
            assert decision.answer == "undecidable-with-finite-evidence" and decision.finite_evidence

    def test_finite_evidence_flagged(self):
        partial = SupernaturalNumber.from_sequence([1, 2, 4])
        decision = decide_isomorphism(THETA, partial, THETA, partial)
        assert decision.answer == "undecidable-with-finite-evidence"
        assert decision.finite_evidence
        # exact r-mismatch stays decisive
        decision = decide_isomorphism(THETA, partial, Angle.parse("2*theta"), partial)
        assert decision.answer == "not-isomorphic" and decision.finite_evidence

    def test_undecided_difference_with_a_failing_sum_stays_undecided(self):
        # 1/3 may lie in Q(delta) once the prefix 1, 2, 4 is completed, and the sum case fails on r
        partial = SupernaturalNumber.from_sequence([1, 2, 4])
        decision = decide_isomorphism(Angle.parse("theta+1/3"), partial, THETA, partial)
        assert decision.answer == "undecidable-with-finite-evidence"

    def test_delta_equality_is_equivalence(self):
        explicit = [D2INF, D3INF, SupernaturalNumber.parse("2^inf"), SupernaturalNumber.parse("2^inf*3")]
        for a in explicit:
            assert a == a
            for b in explicit:
                assert (a == b) == (b == a)
                for c in explicit:
                    if a == b and b == c:
                        assert a == c


class TestFiniteModelDeciders:
    SEQUENCES = [(1, 2, 4), (1, 3, 9), (1, 6)]

    def test_simplicity_examples(self):
        decision = decide_simplicity_finite_model(2, (1, 2, 4))
        assert not decision.simple and decision.stage_size == 2 and decision.invariant_subset == (0,)
        assert decide_simplicity_finite_model(3, (1, 2, 4, 8)).simple
        assert decide_simplicity_finite_model(1, (1, 2)).simple

    def test_simplicity_json(self):
        assert decide_simplicity_finite_model(3, (1, 2, 4, 8)).to_json() == {"answer": "simple"}
        assert decide_simplicity_finite_model(2, (1, 2, 4)).to_json() == {
            "answer": "not-simple", "witness": {"stageSize": 2, "invariantSubset": [0]}}

    def test_agreement_with_gcd_characterization(self):
        for d in range(1, 13):
            for sizes in self.SEQUENCES:
                expected = all(gcd(n, d) == 1 for n in sizes)
                decision = decide_simplicity_finite_model(d, sizes)
                assert decision.simple == expected
                assert decide_trace_uniqueness_finite_model(d, sizes) == expected
                if not decision.simple:
                    subset = set(decision.invariant_subset)
                    assert 0 < len(subset) < d
                    assert all((i + decision.stage_size) % d in subset for i in subset)

    def test_trace_uniqueness_examples(self):
        assert decide_trace_uniqueness_finite_model(3, (1, 2, 4))
        assert not decide_trace_uniqueness_finite_model(2, (1, 2))
        assert decide_trace_uniqueness_finite_model(1, (1,))


def test_ktheory_presentation_shape():
    data = ktheory_presentation((1, 2, 4), {2: INF})
    assert data["delta"] == {"factors": {"2": "inf"}, "finiteEvidence": False}
    assert data["k0"]["orderUnit"] == {"q": "1", "m": 0}
    assert data["k1"]["stageNormalization"][2]["classOf(1,1)"] == {"a": "1/4", "b": 1}
    assert "asserted" in data["traceUniqueness"]
