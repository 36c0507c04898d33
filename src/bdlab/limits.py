"""The connecting maps gamma_{n,m} between stages.

For n | m (k = m/n) the unital injective *-homomorphism gamma_{n,m} from the
size-n stage into the size-m stage is determined by its generator images

    a e_00   |->  sum_{c<k} alpha^(c n)(a) e_{cn,cn}
    u_n e_00 |->  u_m e_{(k-1)n,0} + sum_{c<k-1} e_{cn,(c+1)n}
    e_{i,j}  |->  sum_{c<k} e_{i+cn,j+cn}

Multiplying them out gives each monomial an explicit image, which is how
gamma is computed: with c' = (c + l) mod k,

    a u_n^l e_{i,j}  |->  sum_{c<k} alpha^(c n)(a) u_m^((c+l-c')/k) e_{i+cn, j+c'n}

so no matrix product is formed.  A p x p block matrix over the size-n stage
is mapped block by block, which is gamma_{n,m} (x) id_p.  The construction by
products of generator images lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import SAMPLE_Z_DEGREE, Angle, CircleRotation, CoefficientAlgebra
from .crossed import SAMPLE_U_DEGREE, CrossedElement, MatrixElement, sample_matrix
from .errors import BudgetError, MismatchError
from .report import Report, case_rng
from .sparse import DEGREE_CAP, shuffled_entries


def check_divisibility_chain(sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not sizes or sizes[0] != 1:
        raise MismatchError("stage sequence must start with 1")
    for a, b in zip(sizes, sizes[1:]):
        if b % a != 0 or b < a:
            raise MismatchError(f"stage sizes must divide in order, got {a} then {b}")
    return sizes


def gamma(n: int, m: int, X: MatrixElement) -> MatrixElement:
    """Apply gamma_{n,m} (x) id_p to a p x p block matrix over the size-n stage.

    Entry (i, j) lies in block (i // n, j // n) at (i % n, j % n); its
    monomials are placed by the closed form above, offset by the block's
    corner (block row * m, block column * m).  At p = 1 this is gamma_{n,m}.
    """
    if n < 1 or m < n or m % n != 0:
        raise MismatchError(f"gamma needs {n} to divide {m} with 1 <= {n} <= {m}")
    if X.power != n or X.size % n != 0:
        raise MismatchError(f"expected a block matrix over the size-{n} stage")
    if n == m:
        return X
    k, algebra = m // n, X.algebra
    # (position, u_m-exponent) determines (i, j, l, c), so no two images overlap
    acc: dict[tuple[int, int], dict] = {}
    for (r, s), x in X.entries.items():
        (B, i), (C, j) = divmod(r, n), divmod(s, n)
        row, col = B * m + i, C * m + j
        for l, a in x.entries.items():
            for c in range(k):
                cp = (c + l) % k
                e = (c + l - cp) // k
                if abs(e) > DEGREE_CAP:
                    raise BudgetError(f"u-degree {e} exceeds cap {DEGREE_CAP}")
                acc.setdefault((row + c * n, col + cp * n), {})[e] = algebra.alpha_power(a, c * n)
    # alpha-twists and re-keyings make no zero, so the image is built with _like and tests none;
    # acc is empty when X has no entry to lend its type
    like = next(iter(X.entries.values()), None)
    entries = {key: like._like(coeffs, algebra=algebra, power=m) for key, coeffs in acc.items()}
    return X._like(entries, power=m, size=X.size // n * m)


def amplification_shuffle(p: int, X: MatrixElement) -> MatrixElement:
    """Conjugate by the canonical shuffle M_p(M_n) -> M_{pn}.

    Row/column (b, i) of the p x p of n x n block picture, flattened as
    b*n + i, moves to position i*p + b.
    """
    if p < 1 or X.size % p != 0:
        raise MismatchError(f"size {X.size} is not a multiple of p={p}")
    return X._like(shuffled_entries(X.entries, p, X.size))


def _stage_cases(algebra: CoefficientAlgebra, power: int, size: int, seed: int,
                 count: int) -> list[tuple[int | str, MatrixElement]]:
    """Cases gen0, gen1, ...: 1 e_00, a e_00 with a drawn from the "gen" generator,
    u e_00 and every matrix unit e_{i,j}; then cases 0..count-1, one sample each."""
    rng = case_rng(seed, "gen")
    corner = [
        CrossedElement.from_coefficient(algebra, power, algebra.one()),
        CrossedElement.from_coefficient(algebra, power, algebra.sample(rng)),
        CrossedElement.u_power(algebra, power),
    ]
    gens = [MatrixElement.single(algebra, power, size, 0, 0, x) for x in corner]
    gens.extend(MatrixElement.single(algebra, power, size, i, j) for i in range(size) for j in range(size))
    cases: list[tuple[int | str, MatrixElement]] = [(f"gen{i}", X) for i, X in enumerate(gens)]
    cases.extend((idx, sample_matrix(algebra, power, size, case_rng(seed, idx))) for idx in range(count))
    return cases


def verify_gamma_homomorphism(algebra: CoefficientAlgebra, n: int, m: int, seed: int, count: int) -> Report:
    report = Report("gamma-hom", config={"n": n, "m": m, "algebra": algebra.tag(), "seed": seed, "count": count,
                                         "uDegree": SAMPLE_U_DEGREE, "coeffDegree": SAMPLE_Z_DEGREE})
    report.compare_homomorphism(lambda X: gamma(n, m, X), MatrixElement.identity(algebra, n, n),
                                MatrixElement.identity(algebra, m, m), lambda rng: sample_matrix(algebra, n, n, rng),
                                seed, count)
    return report


def verify_gamma_composition(algebra: CoefficientAlgebra, n: int, k: int, l: int, seed: int, count: int) -> Report:
    nk, nkl = n * k, n * k * l
    report = Report(
        "gamma-comp",
        config={"n": n, "k": k, "l": l, "algebra": algebra.tag(), "seed": seed, "count": count},
    )
    report.compare(_stage_cases(algebra, n, n, seed, count),
                   lambda X: (gamma(nk, nkl, gamma(n, nk, X)), gamma(n, nkl, X)))
    return report


def verify_trace_compatibility(algebra: CoefficientAlgebra, n: int, m: int, seed: int, count: int) -> Report:
    report = Report("trace-compat", config={"n": n, "m": m, "algebra": algebra.tag(), "seed": seed, "count": count})
    # each case is X + 1, since a sampled X almost always has trace 0 on both sides
    one = MatrixElement.identity(algebra, n, n)
    cases = ((idx, sample_matrix(algebra, n, n, case_rng(seed, idx)) + one) for idx in range(count))
    report.compare(cases, lambda X: (gamma(n, m, X).trace(), X.trace()))
    return report


def verify_amplification_intertwining(
    angle: Angle, p: int, n: int, m: int, seed: int, count: int,
) -> Report:
    """psi circle (gamma_{n,m} (x) id_p) == gamma_{pn,pm} circle psi.

    The left side works at angle theta with stage sizes n, m; the right side
    at theta/p with sizes pn, pm.  The stage algebras coincide because
    (theta/p)(pn) = theta n, so the shuffle output re-tags between them.
    """
    base = CircleRotation(angle)
    target = CircleRotation(angle.scaled(Fraction(1, p)))
    report = Report(
        "amplification",
        config={"p": p, "n": n, "m": m, "angle": str(angle), "seed": seed, "count": count},
    )

    def both_sides(X: MatrixElement) -> tuple[MatrixElement, MatrixElement]:
        lhs = amplification_shuffle(p, gamma(n, m, X)).with_twist(target, p * m)
        rhs = gamma(p * n, p * m, amplification_shuffle(p, X).with_twist(target, p * n))
        return lhs, rhs

    report.compare(_stage_cases(base, n, p * n, seed, count), both_sides)
    return report
