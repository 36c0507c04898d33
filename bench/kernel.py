"""Scalar kernel rows: multiply cost by conductor and cold cyclotomic build times.

These rows time ``bdlab.scalar`` directly, outside any workload, and run in
the traced run only.  Each cyclotomic row runs under a wall-clock budget
enforced with a real-time interval timer; a row that hits it reports the time
it had used and counts as over budget.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

from bdlab import scalar

MUL_CONDUCTORS = (1, 4, 12)
CYCLOTOMIC_N = (210, 1155, 2310, 4620, 30030)
ROW_BUDGET_S = 5.0


def _operand(rng: random.Random, conductor: int) -> scalar.Scalar:
    # One term at exactly 1/conductor fixes the conductor; the rest are random.
    terms = [((Fraction(1, conductor) % 1, Fraction(0)), Fraction(1))]
    for _ in range(3):
        root = Fraction(rng.randrange(conductor), conductor)
        theta = Fraction(rng.choice((0, 0, 1, -1, 2)))
        terms.append(((root, theta), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))))
    return scalar.Scalar(terms)


def mul_us(conductor: int, seed: int, batch: int = 400, repeats: int = 7) -> float:
    """Median microseconds per Scalar multiply at the given conductor."""
    rng = random.Random(f"{seed}:mul:{conductor}")
    pairs = [(_operand(rng, conductor), _operand(rng, conductor)) for _ in range(16)]
    per_op = []
    for _ in range(repeats):
        start = perf_counter()
        for i in range(batch):
            x, y = pairs[i % len(pairs)]
            x * y
        per_op.append((perf_counter() - start) / batch * 1e6)
    return statistics.median(per_op)


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget


def cyclotomic_ms(n: int, budget_s: float = ROW_BUDGET_S) -> tuple[float, bool]:
    """Cold build time of cyclotomic_polynomial(n) in ms, and whether it hit the budget."""
    scalar.cyclotomic_polynomial.cache_clear()
    previous = signal.signal(signal.SIGALRM, _alarm)
    over = False
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            scalar.cyclotomic_polynomial(n)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _OverBudget:  # also when the timer fires inside the inner finally
        over = True
    finally:
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        scalar.cyclotomic_polynomial.cache_clear()
    return elapsed * 1e3, over


def rows(seed: int) -> dict[str, float]:
    out = {f"scalar.mul_us.c{c}": mul_us(c, seed) for c in MUL_CONDUCTORS}
    over_budget = 0
    for n in CYCLOTOMIC_N:
        ms, over = cyclotomic_ms(n)
        out[f"scalar.cyclotomic_ms.N{n}"] = ms
        over_budget += over
    out["scalar.cyclotomic_over_budget"] = over_budget
    return out
