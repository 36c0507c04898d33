"""Command-line front end.

Subcommands: verify (run a named verification suite), apply (map a serialized
element through gamma / rho / shuffle / psi), trace (normalized matrix trace),
classify (the isomorphism decider), ktheory (K-group presentations).

All output is canonical JSON on stdout; diagnostics, including wall time, go
to stderr so that reports are byte-identical given (config, seed).  Exit
codes: 0 success, 1 verification failure, 2 usage, parse or file error, 3
resource budget exceeded; ktheory --tau gives up with 3 after
invariants.REFINEMENT_BUDGET enclosure refinements.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time

from . import cantor, fock, invariants, limits
from .coeff import Angle, CircleRotation, CoefficientAlgebra, FiniteCyclicShift
from .crossed import MatrixElement
from .errors import BudgetError, MismatchError
from .report import Failure, Report, canonical_json
from .scalar import parse_fraction
from .sparse import DEGREE_CAP

#: verify and apply option defaults; an option a suite or map reads that has none here must be given
DEFAULTS = {"sizes": "1,2,4", "algebra": "circle", "angle": "theta", "modulus": 3, "out": None, "infile": None,
            "depth": None, "seed": 0, "count": 100, "p": 2, "periods": "1,2,3"}
FLAGS = {"src": "--from", "dst": "--to", "infile": "--in"}
#: namespace entries that are not options a suite or map reads: every command writes --out, every map reads --in
_UNCHECKED = ("command", "func", "suite", "map", "out", "infile")


def _integers(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _parse_sizes(text: str) -> tuple[int, ...]:
    return limits.check_divisibility_chain(_integers(text, "--sizes"))


def _odometer(sizes: str, algebra: CoefficientAlgebra) -> cantor.OdometerAlgebra:
    return cantor.OdometerAlgebra(cantor.StageSequence(_parse_sizes(sizes)), algebra)


def _algebra_from_args(args) -> CoefficientAlgebra:
    if args.algebra == "circle":
        return CircleRotation(Angle.parse(args.angle))
    if args.modulus < 1:
        raise ValueError(f"--modulus must be at least 1, got {args.modulus}")
    return FiniteCyclicShift(args.modulus)


def _options(args, reads: tuple[str, ...], command: str) -> argparse.Namespace:
    """``args`` over DEFAULTS, once each option given is in ``reads`` and each one there without a
    default is given; "algebra" also reads --angle for the circle and --modulus for the cyclic shift."""
    o = argparse.Namespace(**{**DEFAULTS, **vars(args)})
    if "algebra" in reads:
        reads += ("angle",) if o.algebra == "circle" else ("modulus",)
    for dest in vars(args):
        if dest not in (*reads, *_UNCHECKED):
            where = f" with --algebra {o.algebra}" if dest in ("angle", "modulus") and "algebra" in reads else ""
            raise ValueError(f"{command} does not take {FLAGS.get(dest, '--' + dest)}{where}")
    for dest in reads:
        if dest not in vars(o):
            raise ValueError(f"{command} needs {FLAGS.get(dest, '--' + dest)}")
    return o


def _periods(o) -> list[int]:
    """The --periods list, checked against --depth or the default depth of 4 x each period."""
    periods = _integers(o.periods, "--periods")
    if min(periods) < 1:
        raise ValueError(f"--periods must be at least 1, got {min(periods)}")
    # below twice the period the creation block's trust window holds no entry
    if o.depth is not None and o.depth < 2 * max(periods):
        raise ValueError(f"--depth must be at least twice the largest period, {2 * max(periods)}, got {o.depth}")
    if o.depth is None and 4 * max(periods) > DEGREE_CAP:
        raise BudgetError(f"Fock depth {4 * max(periods)} (4 x the largest period) exceeds cap {DEGREE_CAP}")
    return periods


def _circle_angle(algebra: CoefficientAlgebra) -> Angle:
    if not isinstance(algebra, CircleRotation):
        raise MismatchError("amplification suite needs the circle algebra")
    return algebra.angle


_STAGE_SUITE = ("sizes", "algebra", "seed", "count")

#: suite -> (the options it reads, its runs as (case prefix, arguments) from the parsed options,
#: the library call); the options carry the built ``algebra``, its ``odo`` and the stage ``pairs``
SUITES = {
    "gamma-hom": (_STAGE_SUITE, lambda o: [(f"{n}->{m}", (o.algebra, n, m, o.seed, o.count)) for n, m in o.pairs],
                  limits.verify_gamma_homomorphism),
    "gamma-comp": (_STAGE_SUITE,
                   lambda o: [(f"({n},{m // n},{l // m})", (o.algebra, n, m // n, l // m, o.seed, o.count))
                              for (n, m), (_, l) in itertools.pairwise(o.pairs)],
                   limits.verify_gamma_composition),
    "trace-compat": (_STAGE_SUITE, lambda o: [(f"{n}->{m}", (o.algebra, n, m, o.seed, o.count)) for n, m in o.pairs],
                     limits.verify_trace_compatibility),
    "fock-id": (("algebra", "seed", "count", "depth"), lambda o: [("id", (o.algebra, o.seed, o.count, o.depth or 8))],
                fock.verify_fock_identity),
    "fock-blocks": (("algebra", "seed", "count", "depth", "periods"),
                    lambda o: [(f"k={k}", (o.algebra, k, o.seed, o.count, o.depth or 4 * k)) for k in _periods(o)],
                    fock.verify_weighted_blocks),
    "compact-preserve": (("sizes", "algebra", "seed", "count", "depth"),
                         lambda o: [(f"{n}->{m}", (o.algebra, n, m, o.seed, o.count, o.depth or 8))
                                    for n, m in o.pairs],
                         fock.verify_compact_preservation),
    "shuffle": (("sizes", "algebra", "seed", "depth"),
                lambda o: [(f"{n}->{m}", (o.algebra, n, m, o.seed, o.depth or 8)) for n, m in o.pairs],
                fock.verify_shuffle),
    "rho-hom": (_STAGE_SUITE,
                lambda o: [(f"stage{k}", (o.odo, k, o.seed, o.count)) for k in range(1, o.odo.stages.depth + 1)],
                cantor.verify_rho_homomorphism),
    "rg": (_STAGE_SUITE, lambda o: [(f"stage{k}", (o.odo, k, o.seed, o.count)) for k in range(1, o.odo.stages.depth)],
           cantor.verify_rg),
    "flip": (("sizes",), lambda o: [("flip", (o.odo.stages,))], cantor.verify_flip_conjugacy),
    "psi-flip": (_STAGE_SUITE, lambda o: [("psi", (o.odo, o.odo.stages.depth, o.seed, o.count))],
                 cantor.verify_psi_flip),
    "gk-generation": (("sizes", "algebra"), lambda o: [("gk", (o.odo,))], cantor.verify_gk_generation),
    "amplification": ((*_STAGE_SUITE, "p"),
                      lambda o: [(f"{n}->{m}", (_circle_angle(o.algebra), o.p, n, m, o.seed, o.count))
                                 for n, m in o.pairs],
                      limits.verify_amplification_intertwining),
}


def _run_suite(args) -> Report:
    reads, runs, call = SUITES[args.suite]
    o = _options(args, reads, f"verify {args.suite}")
    # a creation operator has no entry below depth 2, so a Fock case would compare nothing it contributes
    for name, value, low in (("--p", o.p, 1), ("--depth", o.depth, 2), ("--count", o.count, 0)):
        if value is not None and value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    # a Fock level l is where T^l lands, so the truncation depth is capped like a u-degree
    if o.depth is not None and o.depth > DEGREE_CAP:
        raise BudgetError(f"Fock depth {o.depth} exceeds cap {DEGREE_CAP}")
    o.algebra = _algebra_from_args(o)
    o.odo = _odometer(o.sizes, o.algebra)
    o.pairs = list(itertools.pairwise(o.odo.stages.sizes))
    report = Report(args.suite, config={"sizes": list(o.odo.stages.sizes), "algebra": o.algebra.tag(), "seed": o.seed,
                                        "count": o.count, "depth": o.depth, "p": o.p, "periods": o.periods})
    for prefix, arguments in runs(o):
        sub = call(*arguments)
        report.cases += sub.cases
        report.failures += [Failure(f"{prefix}:{f.case}", f.lhs, f.rhs) for f in sub.failures]
    if not report.cases:
        raise ValueError(f"{args.suite} has no case to check with --sizes {o.sizes}"
                         + (f" --count {o.count}" if "count" in reads else ""))
    return report


def _matrix(data: dict, size: int | None = None) -> MatrixElement:
    X = _parse(MatrixElement.from_json, data)
    if size not in (None, X.size):
        raise MismatchError(f"input has size {X.size}, expected --from {size}")
    return X


#: map -> (the options it reads, the call from the parsed options and the element JSON to the image)
MAPS = {
    "gamma": (("src", "dst"), lambda o, data: limits.gamma(o.src, o.dst, _matrix(data, o.src))),
    "rho": (("stage", "sizes"),
            lambda o, data: cantor.rho(_odometer(o.sizes, (X := _matrix(data)).algebra), o.stage, X)),
    "shuffle": (("p",), lambda o, data: limits.amplification_shuffle(o.p, _matrix(data))),
    "psi": (("sizes", "algebra"), lambda o, data: cantor.psi_map(
        _parse(cantor.OdometerElement.from_json, data, _odometer(o.sizes, _algebra_from_args(o))))),
}


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
    except KeyError as exc:
        raise ValueError(f"malformed element JSON: missing field {exc}") from None


def _emit(args, text: str) -> None:
    """Write ``text`` to --out, if given, and then to stdout, so an unwritable --out prints nothing."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_verify(args) -> int:
    started = time.monotonic()
    report = _run_suite(args)
    _emit(args, canonical_json(report.to_json()))
    print(f"suite {args.suite}: {report.cases} cases, {len(report.failures)} failures, "
          f"{time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_apply(args) -> int:
    reads, call = MAPS[args.map]
    o = _options(args, reads, f"apply --map {args.map}")
    _emit(o, canonical_json(call(o, _read_element(o)).to_json()))
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
    parts = [p.strip() for p in text.split(",")]
    repeat = parts[-1] == "..."
    try:
        coeffs = [int(p) for p in (parts[:-1] if repeat else parts)]
    except ValueError:
        raise ValueError(f"--theta-cf must be comma-separated integers, optionally ending in '...', got {text!r}") from None
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
        try:
            stage_text, pair_text = args.normalize.split(":")
            stage, (a, b) = int(stage_text), [int(v) for v in pair_text.split(",")]
        except ValueError:
            raise ValueError(f"--normalize must be stage:a,b with integers, got {args.normalize!r}") from None
        cls = invariants.k1_limit_normalize(stage, (a, b), sizes)
        payload["normalized"] = {"stage": stage, "pair": [a, b], "class": cls.to_json()}
    if args.tau:
        if not args.theta_cf:
            raise MismatchError("--tau needs --theta-cf enclosures")
        try:
            q_text, m_text = args.tau.split(",")
            cls0 = invariants.K0Class(parse_fraction(q_text), int(m_text))
        except ValueError:
            raise ValueError(f"--tau must be q,m with a fraction q and an integer m, got {args.tau!r}") from None
        enclosure = invariants.ThetaEnclosure.from_continued_fraction(_theta_stream(args.theta_cf))
        lo, hi = invariants.k0_tau_value(cls0, enclosure, precision)
        # k0_positive goes on from the interval k0_tau_value narrowed; nested intervals give the same sign
        positive = invariants.k0_positive(cls0, enclosure)
        payload["tau"] = {"class": cls0.to_json(), "interval": [str(lo), str(hi)], "positive": positive}
    _emit(args, canonical_json(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sizes", help="comma-separated divisibility chain, n1=1")
        p.add_argument("--algebra", choices=("circle", "cyclic"))
        p.add_argument("--angle", help="rotation angle q+r*theta (circle algebra)")
        p.add_argument("--modulus", type=int, help="d for the cyclic algebra")
        p.add_argument("--out", help="also write the JSON output to this file")

    pv = sub.add_parser("verify", help="run a verification suite", argument_default=argparse.SUPPRESS)
    pv.add_argument("suite", choices=tuple(SUITES))
    common(pv)
    pv.add_argument("--depth", type=int, help="Fock truncation depth")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--count", type=int)
    pv.add_argument("--p", type=int, help="amplification order")
    pv.add_argument("--periods", help="periods for fock-blocks")
    pv.set_defaults(func=cmd_verify)

    pa = sub.add_parser("apply", help="apply a structural map to an element JSON", argument_default=argparse.SUPPRESS)
    pa.add_argument("--map", choices=tuple(MAPS), required=True)
    pa.add_argument("--from", dest="src", type=int, help="source stage size for gamma")
    pa.add_argument("--to", dest="dst", type=int, help="target stage size for gamma")
    pa.add_argument("--stage", type=int, help="stage index for rho")
    pa.add_argument("--p", type=int, help="block order for shuffle")
    pa.add_argument("--in", dest="infile", help="element JSON file (default stdin)")
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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
