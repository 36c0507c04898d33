"""Command-line front end.

Subcommands: verify (run a named verification suite), apply (map a serialized
element through gamma / rho / shuffle / psi), trace (normalized matrix trace),
classify (the isomorphism decider), ktheory (K-group presentations).

All output is canonical JSON on stdout; diagnostics, including wall time, go
to stderr so that reports are byte-identical given (config, seed).  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error, 3 resource
budget exceeded; ktheory --tau gives up with 3 after
invariants.REFINEMENT_BUDGET enclosure refinements.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import cantor, fock, invariants, limits
from .coeff import Angle, CircleRotation, CoefficientAlgebra, FiniteCyclicShift
from .crossed import MatrixElement
from .errors import BudgetError, MismatchError
from .report import Report, canonical_json
from .scalar import parse_fraction
from .sparse import DEGREE_CAP

SUITES = (
    "gamma-hom", "gamma-comp", "trace-compat", "fock-id", "fock-blocks",
    "compact-preserve", "shuffle", "rho-hom", "rg", "flip", "psi-flip",
    "gk-generation", "amplification",
)


def _parse_sizes(text: str) -> tuple[int, ...]:
    return limits.check_divisibility_chain(int(s) for s in text.split(","))


def _algebra_from_args(args) -> CoefficientAlgebra:
    if args.algebra == "circle":
        return CircleRotation(Angle.parse(args.angle))
    if args.algebra == "cyclic":
        if args.modulus < 1:
            raise ValueError(f"--modulus must be at least 1, got {args.modulus}")
        return FiniteCyclicShift(args.modulus)
    raise MismatchError(f"unknown algebra {args.algebra!r}")


def _merge(master: Report, sub: Report, prefix: str) -> None:
    master.cases += sub.cases
    for f in sub.failures:
        f.case = f"{prefix}:{f.case}"
        master.failures.append(f)


def _run_suite(args) -> Report:
    for name, value in (("--p", args.p), ("--depth", args.depth)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    # a Fock level l is where T^l lands, so the truncation depth is capped like a u-degree
    if args.depth is not None and args.depth > DEGREE_CAP:
        raise BudgetError(f"Fock depth {args.depth} exceeds cap {DEGREE_CAP}")
    sizes = _parse_sizes(args.sizes)
    algebra = _algebra_from_args(args)
    seed, count = args.seed, args.count
    pairs = list(zip(sizes, sizes[1:]))
    report = Report(args.suite, config={
        "sizes": list(sizes), "algebra": algebra.tag(), "seed": seed, "count": count,
        "depth": args.depth, "p": args.p, "periods": args.periods,
    })

    if args.suite == "gamma-hom":
        for n, m in pairs:
            _merge(report, limits.verify_gamma_homomorphism(algebra, n, m, seed, count), f"{n}->{m}")
    elif args.suite == "gamma-comp":
        for i in range(len(sizes) - 2):
            n = sizes[i]
            k, l = sizes[i + 1] // n, sizes[i + 2] // sizes[i + 1]
            _merge(report, limits.verify_gamma_composition(algebra, n, k, l, seed, count), f"({n},{k},{l})")
    elif args.suite == "trace-compat":
        for n, m in pairs:
            _merge(report, limits.verify_trace_compatibility(algebra, n, m, seed, count), f"{n}->{m}")
    elif args.suite == "fock-id":
        _merge(report, fock.verify_fock_identity(algebra, seed, count, args.depth or 8), "id")
    elif args.suite == "fock-blocks":
        periods = [int(p) for p in args.periods.split(",")]
        if min(periods) < 1:
            raise ValueError(f"--periods must be at least 1, got {min(periods)}")
        # below twice the period the creation block's trust window holds no entry
        if args.depth is not None and args.depth < 2 * max(periods):
            raise ValueError(f"--depth must be at least twice the largest period, {2 * max(periods)}, "
                             f"got {args.depth}")
        if args.depth is None and 4 * max(periods) > DEGREE_CAP:
            raise BudgetError(f"Fock depth {4 * max(periods)} (4 x the largest period) exceeds cap {DEGREE_CAP}")
        for period in periods:
            depth = args.depth or 4 * period
            _merge(report, fock.verify_weighted_blocks(algebra, period, seed, count, depth), f"k={period}")
    elif args.suite == "compact-preserve":
        for n, m in pairs:
            _merge(report, fock.verify_compact_preservation(algebra, n, m, seed, count, args.depth or 8), f"{n}->{m}")
    elif args.suite == "shuffle":
        for n, m in pairs:
            _merge(report, fock.verify_shuffle(algebra, n, m, seed, args.depth or 8), f"{n}->{m}")
    elif args.suite == "amplification":
        if args.algebra != "circle":
            raise MismatchError("amplification suite needs the circle algebra")
        angle = Angle.parse(args.angle)
        for n, m in pairs:
            _merge(report, limits.verify_amplification_intertwining(angle, args.p, n, m, seed, count), f"{n}->{m}")
    else:
        stages = cantor.StageSequence(sizes)
        odo = cantor.OdometerAlgebra(stages, algebra)
        if args.suite == "rho-hom":
            for stage in range(1, stages.depth + 1):
                _merge(report, cantor.verify_rho_homomorphism(odo, stage, seed, count), f"stage{stage}")
        elif args.suite == "rg":
            for stage in range(1, stages.depth):
                _merge(report, cantor.verify_rg(odo, stage, seed, count), f"stage{stage}")
        elif args.suite == "flip":
            _merge(report, cantor.verify_flip_conjugacy(stages), "flip")
        elif args.suite == "psi-flip":
            _merge(report, cantor.verify_psi_flip(odo, stages.depth, seed, count), "psi")
        elif args.suite == "gk-generation":
            _merge(report, cantor.verify_gk_generation(odo), "gk")
    if not report.cases:
        raise ValueError(f"{args.suite} has no case to check with --sizes {args.sizes} --count {count}")
    return report


def _read_element(args) -> dict:
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"input JSON must be an object, got {type(data).__name__}")
    return data


def _parse(from_json, data: dict, *extra):
    """Run a from_json parser; a JSON value of the wrong shape is a usage error."""
    try:
        return from_json(data, *extra)
    except (TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed element JSON: {exc}") from None


def _emit(args, text: str) -> None:
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    started = time.monotonic()
    report = _run_suite(args)
    _emit(args, canonical_json(report.to_json()))
    print(f"suite {args.suite}: {report.cases} cases, {len(report.failures)} failures, "
          f"{time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_apply(args) -> int:
    data = _read_element(args)
    if args.map == "gamma":
        X = _parse(MatrixElement.from_json, data)
        if X.size != args.src:
            raise MismatchError(f"input has size {X.size}, expected --from {args.src}")
        _emit(args, canonical_json(limits.gamma(args.src, args.dst, X).to_json()))
    elif args.map == "shuffle":
        X = _parse(MatrixElement.from_json, data)
        _emit(args, canonical_json(limits.amplification_shuffle(args.p, X).to_json()))
    elif args.map == "rho":
        X = _parse(MatrixElement.from_json, data)
        stages = cantor.StageSequence(_parse_sizes(args.sizes))
        odo = cantor.OdometerAlgebra(stages, X.algebra)
        _emit(args, canonical_json(cantor.rho(odo, args.stage, X).to_json()))
    elif args.map == "psi":
        stages = cantor.StageSequence(_parse_sizes(args.sizes))
        odo = cantor.OdometerAlgebra(stages, _algebra_from_args(args))
        x = _parse(cantor.OdometerElement.from_json, data, odo)
        _emit(args, canonical_json(cantor.psi_map(x).to_json()))
    else:
        raise MismatchError(f"unknown map {args.map!r}")
    return 0


def cmd_trace(args) -> int:
    X = _parse(MatrixElement.from_json, _read_element(args))
    _emit(args, canonical_json(X.trace().to_json()))
    return 0


def cmd_classify(args) -> int:
    theta1, delta1 = Angle.parse(args.theta1), invariants.SupernaturalNumber.parse(args.delta1)
    theta2, delta2 = Angle.parse(args.theta2), invariants.SupernaturalNumber.parse(args.delta2)
    theta1, delta1 = invariants.decide_amplification(args.amplify1, theta1, delta1)
    theta2, delta2 = invariants.decide_amplification(args.amplify2, theta2, delta2)
    decision = invariants.decide_isomorphism(theta1, delta1, theta2, delta2)
    payload = decision.to_json()
    payload["left"] = {"theta": str(theta1), "delta": delta1.to_json()}
    payload["right"] = {"theta": str(theta2), "delta": delta2.to_json()}
    _emit(args, canonical_json(payload))
    return 0


def _theta_stream(text: str):
    """Continued-fraction coefficients '0,2,2' or '0,2,...' (repeat last forever)."""
    import itertools

    parts = [p.strip() for p in text.split(",")]
    repeat = parts[-1] == "..."
    coeffs = [int(p) for p in (parts[:-1] if repeat else parts)]
    if not coeffs:
        raise ValueError("--theta-cf needs a coefficient before '...'")
    # [a0; a1, a2, ...] needs a_i >= 1 for i >= 1; a repeated last one recurs at i >= 1.
    if any(a < 1 for a in coeffs[1:] + (coeffs[-1:] if repeat else [])):
        raise ValueError("--theta-cf coefficients after the first must be positive")
    return itertools.chain(coeffs, itertools.repeat(coeffs[-1])) if repeat else coeffs


def cmd_ktheory(args) -> int:
    sizes = _parse_sizes(args.sizes)
    tail = invariants.SupernaturalNumber.parse(args.tail).factors if args.tail else None
    precision = parse_fraction(args.precision)
    if precision <= 0:
        raise ValueError(f"--precision must be positive, got {precision}")
    payload = invariants.ktheory_presentation(sizes, tail)
    if args.normalize:
        stage_text, pair_text = args.normalize.split(":", 1)
        a, b = (int(v) for v in pair_text.split(","))
        cls = invariants.k1_limit_normalize(int(stage_text), (a, b), sizes)
        payload["normalized"] = {"stage": int(stage_text), "pair": [a, b], "class": cls.to_json()}
    if args.tau:
        if not args.theta_cf:
            raise MismatchError("--tau needs --theta-cf enclosures")
        q_text, m_text = args.tau.split(",")
        cls0 = invariants.K0Class(parse_fraction(q_text), int(m_text))
        enclosure = invariants.ThetaEnclosure.from_continued_fraction(_theta_stream(args.theta_cf))
        lo, hi = invariants.k0_tau_value(cls0, enclosure, precision)
        positive = invariants.k0_positive(
            cls0, invariants.ThetaEnclosure.from_continued_fraction(_theta_stream(args.theta_cf)))
        payload["tau"] = {"class": cls0.to_json(), "interval": [str(lo), str(hi)], "positive": positive}
    _emit(args, canonical_json(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sizes", default="1,2,4", help="comma-separated divisibility chain, n1=1")
        p.add_argument("--algebra", choices=("circle", "cyclic"), default="circle")
        p.add_argument("--angle", default="theta", help="rotation angle q+r*theta (circle algebra)")
        p.add_argument("--modulus", type=int, default=3, help="d for the cyclic algebra")
        p.add_argument("--out", default=None, help="also write the JSON output to this file")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    common(pv)
    pv.add_argument("--depth", type=int, default=None, help="Fock truncation depth")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--count", type=int, default=100)
    pv.add_argument("--p", type=int, default=2, help="amplification order")
    pv.add_argument("--periods", default="1,2,3", help="periods for fock-blocks")
    pv.set_defaults(func=cmd_verify)

    pa = sub.add_parser("apply", help="apply a structural map to an element JSON")
    pa.add_argument("--map", choices=("gamma", "rho", "shuffle", "psi"), required=True)
    pa.add_argument("--from", dest="src", type=int, default=None, help="source stage size for gamma")
    pa.add_argument("--to", dest="dst", type=int, default=None, help="target stage size for gamma")
    pa.add_argument("--stage", type=int, default=None, help="stage index for rho")
    pa.add_argument("--p", type=int, default=2, help="block order for shuffle")
    pa.add_argument("--in", dest="infile", default=None, help="element JSON file (default stdin)")
    common(pa)
    pa.set_defaults(func=cmd_apply)

    pt = sub.add_parser("trace", help="normalized trace of a matrix element JSON")
    pt.add_argument("--in", dest="infile", default=None)
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_trace)

    pc = sub.add_parser("classify", help="decide isomorphism of two limit algebras")
    pc.add_argument("--theta1", required=True)
    pc.add_argument("--delta1", required=True)
    pc.add_argument("--theta2", required=True)
    pc.add_argument("--delta2", required=True)
    pc.add_argument("--amplify1", type=int, default=1, help="amplify the left algebra by M_p")
    pc.add_argument("--amplify2", type=int, default=1, help="amplify the right algebra by M_p")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_classify)

    pk = sub.add_parser("ktheory", help="K0/K1 presentations for a stage sequence")
    pk.add_argument("--sizes", required=True)
    pk.add_argument("--tail", default=None, help="declared supernatural tail, e.g. 2^inf")
    pk.add_argument("--normalize", default=None, help="stage:a,b to normalize a K1 datum")
    pk.add_argument("--tau", default=None, help="q,m: enclose the trace value q+m*theta")
    pk.add_argument("--theta-cf", dest="theta_cf", default=None,
                    help="continued-fraction coefficients of theta, e.g. 0,2,... (repeat last)")
    pk.add_argument("--precision", default="1/1000000", help="target interval width for --tau")
    pk.add_argument("--out", default=None)
    pk.set_defaults(func=cmd_ktheory)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "apply" and args.map == "gamma":
            if args.src is None or args.dst is None:
                parser.error("apply --map gamma needs --from and --to")
        if args.command == "apply" and args.map == "rho" and args.stage is None:
            parser.error("apply --map rho needs --stage")
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (MismatchError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
