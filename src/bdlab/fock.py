"""Truncated Fock-space operators and the Toeplitz block identities.

Operators keep levels 0..depth-1 of the Fock module over (A, alpha) and are
band matrices with entries in A: composition is plain matrix composition (no
twist; the twisting sits inside the generator constructions).  The ``step``
attribute says which power of alpha one level carries, so the same class
models both the ambient Fock space (step 1) and the block-index spaces that
arise from decomposing modulo a period (step k).  A k x k block matrix is a
dict {(r, c): FockOperator}, which ``block_assemble`` interleaves into the
operator it relabels (level i of block row r is level i*k + r) and
``block_decompose`` splits back, so block arithmetic is FockOperator's.

Generators:

    phi(a):       diagonal, (i, i) = alpha^(step*i)(a)          -- left action
    weighted(lam, a): subdiagonal, (q+1, q) = alpha^(step*q)(lam_(q+1) * a)
    creation(a) = weighted(1, a) = T(a);  shift() = T(1);  projection0()

T(a) is built directly, (q+1, q) = alpha^(step*q)(a), with no product by the
weight 1; T_lam keeps the product and the checked construction, because
weights can multiply to zero (on Z/d, for instance).  phi, creation and the
block maps wrap entries that are nonzero and in range as they are
(``FockOperator._of``), so a zero a gives the empty operator with full trust.

Truncation semantics: every operator carries ``trust``; entries (i, j) with
max(i, j) < trust provably agree with the untruncated operator.  Composition
erodes trust by the maximal level-raise of the right factor, so boundary
artifacts can never masquerade as identities failing: ``agrees`` compares
only inside the joint trusted window.  A block trusts the quotient levels
inside its operator's window, and an assembled operator a window inside each
block's own.
"""

from __future__ import annotations

import operator

from .coeff import CoefficientAlgebra
from .errors import MismatchError
from .report import Report, case_rng
from .sparse import SquareMatrix, shuffled_entries


class FockOperator(SquareMatrix):
    """Band matrix over A on levels 0..depth-1, with a trusted window."""

    __slots__ = ("algebra", "depth", "step", "trust")
    _space = operator.attrgetter("algebra", "depth", "step")

    def __init__(self, algebra: CoefficientAlgebra, depth: int, entries: dict | None = None,
                 *, step: int = 1, trust: int | None = None):
        self.algebra = algebra
        self.depth = depth
        self.step = step
        self.trust = depth if trust is None else max(0, min(trust, depth))
        self.entries = self._admit(entries, depth)

    @classmethod
    def _of(cls, algebra: CoefficientAlgebra, depth: int, entries: dict, step: int, trust: int) -> FockOperator:
        """Wrap entries that are nonzero and in range, with a trust in [0, depth]; nothing is checked."""
        op = cls.__new__(cls)
        op.algebra, op.depth, op.step, op.trust, op.entries = algebra, depth, step, trust, entries
        return op

    @staticmethod
    def phi(algebra: CoefficientAlgebra, a, depth: int, *, step: int = 1) -> FockOperator:
        """Left action phi_infinity(a): level i carries alpha^(step*i)(a), nonzero when a is."""
        entries = {} if a.is_zero() else {(i, i): algebra.alpha_power(a, step * i) for i in range(depth)}
        return FockOperator._of(algebra, depth, entries, step, depth)

    @staticmethod
    def identity(algebra: CoefficientAlgebra, depth: int, *, step: int = 1) -> FockOperator:
        return FockOperator.phi(algebra, algebra.one(), depth, step=step)

    @staticmethod
    def weighted(algebra: CoefficientAlgebra, weights: tuple, a, depth: int, *, step: int = 1) -> FockOperator:
        """Weighted creation operator T_lam(a), lam_1, lam_2, ... the weights repeated periodically."""
        if not weights:
            raise MismatchError("weight sequence needs at least one weight")
        products = [w * a for w in weights]
        entries = {
            (q + 1, q): algebra.alpha_power(products[q % len(products)], step * q)
            for q in range(depth - 1)
        }
        return FockOperator(algebra, depth, entries, step=step)

    @staticmethod
    def creation(algebra: CoefficientAlgebra, a, depth: int, *, step: int = 1) -> FockOperator:
        """Unweighted creation operator T(a) = T_1(a): level q+1 <- q carries alpha^(step*q)(a), built directly."""
        entries = {} if a.is_zero() else {(q + 1, q): algebra.alpha_power(a, step * q) for q in range(depth - 1)}
        return FockOperator._of(algebra, depth, entries, step, depth)

    @staticmethod
    def shift(algebra: CoefficientAlgebra, depth: int, *, step: int = 1) -> FockOperator:
        return FockOperator.creation(algebra, algebra.one(), depth, step=step)

    @staticmethod
    def projection0(algebra: CoefficientAlgebra, depth: int, *, step: int = 1) -> FockOperator:
        return FockOperator(algebra, depth, {(0, 0): algebra.one()}, step=step)

    def _summed(self, other: FockOperator, entries: dict) -> FockOperator:
        """A sum or difference trusts the smaller of the two windows."""
        out = super()._summed(other, entries)
        out.trust = min(self.trust, other.trust)
        return out

    def __eq__(self, other) -> bool:
        """Equal entries and equal trust: operators that trust different windows are different truncations."""
        equal = super().__eq__(other)
        return equal if equal is NotImplemented else equal and self.trust == other.trust

    def compose(self, other: FockOperator) -> FockOperator:
        """Matrix composition; trust shrinks by the right factor's level-raise max(i - j), if positive."""
        out = self._product(other)
        raise_degree = max((i - j for (i, j) in other.entries), default=0)
        out.trust = max(0, min(self.trust, other.trust) - max(0, raise_degree))
        return out

    __matmul__ = compose

    def agrees(self, other: FockOperator) -> bool:
        """Equality on the joint trusted window max(i, j) < min(trusts)."""
        self._operands(other)
        window = min(self.trust, other.trust)

        def inside(entries: dict) -> dict:
            return {key: a for key, a in entries.items() if max(key) < window}

        return inside(self.entries) == inside(other.entries)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "trust": self.trust,
            "step": self.step,
            "entries": {f"{i},{j}": a.to_json() for (i, j), a in sorted(self.entries.items())},
        }

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {a!r}" for (i, j), a in sorted(self.entries.items()))
        return f"Fock[d={self.depth},s={self.step},t={self.trust}]{{{body}}}"


def block_trust(trust: int, block_row: int, block_col: int, k: int) -> int:
    """Quotient levels q with q*k + max(block indices) inside the trusted window."""
    offset = max(block_row, block_col)
    if trust <= offset:
        return 0
    return (trust - offset - 1) // k + 1


def block_decompose(X: FockOperator, k: int) -> dict[tuple[int, int], FockOperator]:
    """Split by level residues mod k, reindexing by quotient.

    Block (l', l) holds the entries with row = l' (mod k), column = l (mod k);
    it lives on the block-index Fock space, whose one-level automorphism is
    alpha^(step*k).  This is the matrix picture over the period-k Toeplitz
    algebra, with the isometric diag(1, S, ..., S^(k-1)) conjugation realized
    by the reindexing itself.
    """
    depth = (X.depth + k - 1) // k
    buckets: dict[tuple[int, int], dict] = {}
    for (i, j), a in X.entries.items():
        buckets.setdefault((i % k, j % k), {})[(i // k, j // k)] = a
    # X's entries are nonzero and each quotient index is below depth; block_trust lies in [0, depth]
    return {
        (lp, l): FockOperator._of(X.algebra, depth, buckets.get((lp, l), {}), X.step * k,
                                  block_trust(X.trust, lp, l, k))
        for lp in range(k) for l in range(k)
    }


def block_assemble(algebra: CoefficientAlgebra, size: int, depth: int, blocks: dict, step: int) -> FockOperator:
    """Inverse of block_decompose: entry (i, j) of block (r, c) goes to level pair (i*size + r, j*size + c).

    The blocks lie on the Fock space of ``depth`` levels at ``step``, and an
    absent block is zero.  The result lives on size*depth levels at step
    step // size and trusts the levels below trust*size + min(r, c) for every
    given block (r, c), empty or not: all of them lie in that block's window.
    """
    if step % size:
        raise MismatchError(f"block size {size} does not divide step {step}")
    trust, entries, space = size * depth, {}, (algebra, depth, step)
    for (r, c), block in blocks.items():
        if not (0 <= r < size and 0 <= c < size):
            raise MismatchError(f"block ({r},{c}) outside {size}x{size} block matrix")
        if FockOperator._space(block) != space:
            raise MismatchError("block on a different Fock space")
        trust = min(trust, block.trust * size + min(r, c))
        for (i, j), a in block.entries.items():
            entries[(i * size + r, j * size + c)] = a
    # block entries are nonzero and below depth, so each lands inside the size*depth square
    return FockOperator._of(algebra, size * depth, entries, step // size, trust)


def theta_block_map(algebra: CoefficientAlgebra, n: int, m: int, kind: str, element, depth: int) -> dict:
    """Image of a tagged period-n Toeplitz generator in the k x k block picture, as blocks at step m.

    kind 'phi':       phi(a)  |-> sum_j phi(alpha^(jn)(a)) e_{j,j}
    kind 'creation':  T(b)    |-> T(alpha^((k-1)n)(b)) e_{0,k-1}
                                  + sum_{j<k-1} phi(alpha^(jn)(b)) e_{j+1,j}
    """
    if m % n != 0:
        raise MismatchError(f"{n} does not divide {m}")
    k = m // n
    entries: dict[tuple[int, int], FockOperator] = {}
    if kind == "phi":
        for j in range(k):
            entries[(j, j)] = FockOperator.phi(algebra, algebra.alpha_power(element, j * n), depth, step=m)
    elif kind == "creation":
        entries[(0, k - 1)] = FockOperator.creation(
            algebra, algebra.alpha_power(element, (k - 1) * n), depth, step=m
        )
        for j in range(k - 1):
            entries[(j + 1, j)] = FockOperator.phi(algebra, algebra.alpha_power(element, j * n), depth, step=m)
    else:
        raise ValueError(f"unknown Toeplitz generator kind {kind!r}")
    return entries


def compact_remainder(algebra: CoefficientAlgebra, a, c, ac, depth: int, step: int = 1) -> FockOperator:
    """phi(a c*) - T(alpha^step(a)) T(alpha^step(c))* on the Fock space of alpha^step.

    ``ac`` is the product a c*, which every caller uses again for the other side.
    """
    return FockOperator.phi(algebra, ac, depth, step=step) - FockOperator.creation(
        algebra, algebra.alpha_power(a, step), depth, step=step
    ).compose(FockOperator.creation(algebra, algebra.alpha_power(c, step), depth, step=step).star())


def eq_id_sides(algebra: CoefficientAlgebra, a, c, depth: int) -> tuple[FockOperator, FockOperator]:
    """Both sides of phi(a c*) - T(alpha(a)) T(alpha(c))* = phi(a c*) P0."""
    ac = a * c.star()
    lhs = compact_remainder(algebra, a, c, ac, depth)
    rhs = FockOperator.phi(algebra, ac, depth).compose(FockOperator.projection0(algebra, depth))
    return lhs, rhs


def _pair_cases(algebra: CoefficientAlgebra, seed: int, count: int) -> list[tuple[int | str, tuple]]:
    """Case "unit" is the pair (1, 1); case idx draws a, then c, from its own generator."""
    one = algebra.one()
    cases: list[tuple[int | str, tuple]] = [("unit", (one, one))]
    for idx in range(count):
        rng = case_rng(seed, idx)
        cases.append((idx, (algebra.sample(rng), algebra.sample(rng))))
    return cases


def verify_fock_identity(algebra: CoefficientAlgebra, seed: int, count: int, depth: int = 8) -> Report:
    """One-step compact remainder identity on `count` random coefficient pairs."""
    report = Report("fock-id", config={"algebra": algebra.tag(), "seed": seed, "count": count, "depth": depth})
    report.compare(_pair_cases(algebra, seed, count), lambda ac: eq_id_sides(algebra, *ac, depth),
                   FockOperator.agrees)
    return report


def weighted_blocks_check(algebra: CoefficientAlgebra, weights: tuple, b, depth: int) -> list[tuple[str, tuple]]:
    """(label, (actual, expected)) for each block of the period-k decomposition of T_lam(b).

    Subdiagonal block (l+1, l) must be the block-space left action of
    alpha^l(lam_(l+1) b); corner block (0, k-1) the block-space creation
    operator of alpha^(k-1)(lam_k b); everything else zero.
    """
    k = len(weights)
    blocks = block_decompose(FockOperator.weighted(algebra, weights, b, depth), k)
    block_depth = (depth + k - 1) // k
    results = []
    for lp in range(k):
        for l in range(k):
            if k == 1 or (lp == 0 and l == k - 1):
                expected = FockOperator.creation(algebra, algebra.alpha_power(weights[-1] * b, k - 1),
                                                 block_depth, step=k)
            elif lp == l + 1:
                expected = FockOperator.phi(algebra, algebra.alpha_power(weights[l] * b, l), block_depth, step=k)
            else:
                expected = FockOperator(algebra, block_depth, step=k)
            results.append((f"block({lp},{l})", (blocks[(lp, l)], expected)))
    return results


def verify_weighted_blocks(algebra: CoefficientAlgebra, period: int, seed: int, count: int,
                           depth: int | None = None) -> Report:
    if depth is None:
        depth = 4 * period
    report = Report("fock-blocks", config={"algebra": algebra.tag(), "period": period,
                                           "seed": seed, "count": count, "depth": depth})

    def cases():
        for idx in range(count):
            rng = case_rng(seed, idx)
            weights = tuple(algebra.sample(rng) for _ in range(period))
            for label, pair in weighted_blocks_check(algebra, weights, algebra.sample(rng), depth):
                yield f"{idx}:{label}", pair

    report.compare(cases(), lambda pair: pair, FockOperator.agrees)
    return report


def compact_preservation_sides(algebra: CoefficientAlgebra, n: int, m: int, a, c, depth: int) -> tuple:
    """theta of the compact remainder at period n versus the corner remainder at period m, both assembled."""
    def theta(kind: str, element) -> FockOperator:
        return block_assemble(algebra, m // n, depth, theta_block_map(algebra, n, m, kind, element, depth), m)

    ac = a * c.star()
    lhs = theta("phi", ac) - (theta("creation", algebra.alpha_power(a, n))
                              @ theta("creation", algebra.alpha_power(c, n)).star())
    rhs = block_assemble(algebra, m // n, depth, {(0, 0): compact_remainder(algebra, a, c, ac, depth, m)}, m)
    return lhs, rhs


def verify_compact_preservation(algebra: CoefficientAlgebra, n: int, m: int, seed: int, count: int,
                                depth: int = 8) -> Report:
    report = Report("compact-preserve", config={"algebra": algebra.tag(), "n": n, "m": m,
                                                "seed": seed, "count": count, "depth": depth})
    report.compare(_pair_cases(algebra, seed, count),
                   lambda ac: compact_preservation_sides(algebra, n, m, *ac, depth), FockOperator.agrees)
    return report


def _beta_image(algebra: CoefficientAlgebra, n: int, m: int, kind: str, element, depth: int) -> dict:
    """Size-m matrix image of a size-n stage generator in the block picture, as blocks at step m."""
    k = m // n
    identity = FockOperator.identity(algebra, depth, step=m)
    entries: dict[tuple[int, int], FockOperator] = {}
    if kind == "phi":
        for j in range(k):
            entries[(j * n, j * n)] = FockOperator.phi(algebra, algebra.alpha_power(element, j * n), depth, step=m)
    elif kind == "creation":
        entries[(0, (k - 1) * n)] = FockOperator.creation(
            algebra, algebra.alpha_power(element, (k - 1) * n), depth, step=m
        )
        for j in range(k - 1):
            entries[((j + 1) * n, j * n)] = FockOperator.phi(
                algebra, algebra.alpha_power(element, j * n), depth, step=m
            )
    elif kind == "unit":
        i, j = element
        for l in range(k):
            entries[(i + l * n, j + l * n)] = identity
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return entries


def verify_shuffle(algebra: CoefficientAlgebra, n: int, m: int, seed: int, depth: int = 8) -> Report:
    """Entrywise theta images, shuffled, against the directly assembled block images."""
    report = Report("shuffle", config={"algebra": algebra.tag(), "n": n, "m": m, "seed": seed, "depth": depth})
    k = m // n
    rng = case_rng(seed, "gen")
    cases: list[tuple[str, tuple[str, object]]] = [
        ("phi-one", ("phi", algebra.one())),
        ("phi", ("phi", algebra.sample(rng))),
        ("creation", ("creation", algebra.sample(rng))),
    ]
    cases.extend((f"unit({i},{j})", ("unit", (i, j))) for i in range(n) for j in range(n))

    def both_sides(case: tuple[str, object]) -> tuple[FockOperator, FockOperator]:
        kind, element = case
        # entrywise theta of the generator at entry (gi, gj) of M_n: (i, j) for a unit e_{i,j}, else (0, 0)
        if kind == "unit":
            (gi, gj), theta_img = element, {(c, c): FockOperator.identity(algebra, depth, step=m) for c in range(k)}
        else:
            (gi, gj), theta_img = (0, 0), theta_block_map(algebra, n, m, kind, element, depth)
        # the n x n of k x k block picture, reindexed by i*k + c -> i + c*n
        blocks = shuffled_entries({(gi * k + c, gj * k + cp): op for (c, cp), op in theta_img.items()}, n, m)
        return (block_assemble(algebra, m, depth, blocks, m),
                block_assemble(algebra, m, depth, _beta_image(algebra, n, m, kind, element, depth), m))

    report.compare(cases, both_sides, FockOperator.agrees)
    return report
