"""Golden serialized outputs.

A fixed corpus of CLI calls, run in-process, and four failure reports from
library suites.  Each output (exit code and stdout) is compared by SHA-256
with a value pinned here, so any change to a serialized element form shows.
The inputs are written out by hand, not sampled, so the pins depend only on
the maps and the serialization.  A change that alters a serialized form on
purpose updates the pins and says so.

Run ``PYTHONPATH=src python tests/test_golden.py`` to print the current digests.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from unittest import mock

from bdlab import cantor, cli, fock, limits
from bdlab.coeff import Angle, CircleRotation, FiniteCyclicShift
from bdlab.report import canonical_json


def _s(*terms):
    """Scalar JSON from (coeff, root, theta) string triples."""
    return [{"coeff": c, "root": r, "theta": t} for c, r, t in terms]


ZETA3 = _s(("1", "1/3", "0"))
ZETA6_MINUS_1 = _s(("-1", "0", "0"), ("1", "1/6", "0"))
MIXED = _s(("-1/2", "0", "-1"), ("2/3", "1/4", "1"))
HALF_THETA = _s(("1", "5/6", "1/2"))
THREE = _s(("3", "0", "0"))

ANGLES = {"theta": ("0", "1"), "theta+1/4": ("1/4", "1"), "1/2*theta+1/3": ("1/3", "1/2")}


def _coefficient(algebra, k):
    """The k-th hand-written coefficient-algebra element of the corpus."""
    if algebra == "cyclic":
        values = [[ZETA3, ZETA6_MINUS_1, HALF_THETA], [MIXED, [], THREE]][k % 2]
        return {"d": 3, "values": values}
    return [{"z:-1": MIXED, "z:0": ZETA3, "z:1": HALF_THETA},
            {"z:0": ZETA6_MINUS_1, "z:2": THREE}][k % 2]


def _tag(algebra):
    if algebra == "cyclic":
        return {"kind": "cyclic", "d": 3}
    q, r = ANGLES[algebra]
    return {"kind": "circle", "angle": {"q": q, "r": r}}


def _matrix(algebra, size, entries):
    """Matrix JSON; entries maps (i, j) to {u-power: coefficient index}."""
    def crossed(i, j):
        coeffs = {f"u:{l}": _coefficient(algebra, k) for l, k in entries.get((i, j), {}).items()}
        return {"n": size, "algebra": _tag(algebra), "coeffs": coeffs}

    return {"size": size, "entries": [[crossed(i, j) for j in range(size)] for i in range(size)]}


def _size2(algebra):
    return _matrix(algebra, 2, {(0, 0): {0: 0, 1: 1}, (0, 1): {-1: 1}, (1, 1): {0: 1, 2: 0}})


def _odometer(algebra):
    return {"depth": 2, "coeffs": {
        "U:-1": {"depth": 2, "values": [_coefficient(algebra, 0), _coefficient(algebra, 1)]},
        "U:2": {"depth": 1, "values": [_coefficient(algebra, 1)]},
    }}


def _algebra_args(algebra):
    if algebra == "cyclic":
        return ["--algebra", "cyclic", "--modulus", "3"]
    return ["--algebra", "circle", "--angle", algebra]


def _corpus():
    """name -> (argv, stdin payload or None)."""
    corpus = {}
    for algebra in (*ANGLES, "cyclic"):
        m = _size2(algebra)
        corpus[f"gamma:{algebra}"] = (["apply", "--map", "gamma", "--from", "2", "--to", "4"], m)
        corpus[f"rho:{algebra}"] = (["apply", "--map", "rho", "--sizes", "1,2,4", "--stage", "2"], m)
        corpus[f"shuffle:{algebra}"] = (["apply", "--map", "shuffle", "--p", "2"], m)
        corpus[f"psi:{algebra}"] = (["apply", "--map", "psi", "--sizes", "1,2,4", *_algebra_args(algebra)],
                                    _odometer(algebra))
        corpus[f"trace:{algebra}"] = (["trace"], m)
    # odd alpha powers at a half-integer theta coefficient give non-integer theta exponents
    unit = _matrix("1/2*theta+1/3", 1, {(0, 0): {0: 0, -1: 1}})
    corpus["gamma:1->3:1/2*theta+1/3"] = (["apply", "--map", "gamma", "--from", "1", "--to", "3"], unit)
    # zeta_3 and zeta_6 - 1: one number, two stored forms
    for name, value in (("zeta3", ZETA3), ("zeta6-1", ZETA6_MINUS_1)):
        corner = {"size": 1, "entries": [[{"n": 1, "algebra": _tag("theta"), "coeffs": {"u:0": {"z:0": value}}}]]}
        corpus[f"trace:{name}"] = (["trace"], corner)
    corpus["classify:shifted"] = (["classify", "--theta1", "theta", "--delta1", "2^inf",
                                   "--theta2", "theta+1/4", "--delta2", "2^inf"], None)
    corpus["classify:amplified"] = (["classify", "--theta1", "1/2*theta+1/3", "--delta1", "2^inf*3^inf",
                                     "--theta2", "theta", "--delta2", "6^inf", "--amplify1", "2"], None)
    corpus["ktheory"] = (["ktheory", "--sizes", "1,2,6", "--tail", "2^inf*3^inf", "--normalize", "3:1,5",
                          "--tau", "1/2,-1", "--theta-cf", "0,2,...", "--precision", "1/1000"], None)
    return corpus


def _run(argv, payload):
    out = io.StringIO()
    stdin = io.StringIO(json.dumps(payload)) if payload is not None else io.StringIO("")
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def _failure_report(algebra=None):
    """gamma-hom with gamma followed by the adjoint, which reverses products, so cases fail."""
    algebra = algebra or CircleRotation(Angle.parse("theta+1/4"))
    real_gamma = limits.gamma
    with mock.patch.object(limits, "gamma", lambda n, m, X: real_gamma(n, m, X).star()):
        report = limits.verify_gamma_homomorphism(algebra, 1, 2, 5, 2)
    assert report.failures and report.failures[0].lhs != report.failures[0].rhs
    return canonical_json(report.to_json())


def _rho_failure_report():
    """rho-hom with rho followed by the adjoint: the failures serialize odometer products."""
    real_rho = cantor.rho
    odo = cantor.OdometerAlgebra(cantor.StageSequence((1, 2, 4)), CircleRotation(Angle.parse("theta+1/4")))
    with mock.patch.object(cantor, "rho", lambda algebra, stage, X: real_rho(algebra, stage, X).star()):
        report = cantor.verify_rho_homomorphism(odo, 2, 5, 2)
    assert report.failures and report.failures[0].lhs != report.failures[0].rhs
    return canonical_json(report.to_json())


def _fock_failure_report():
    """compact-preserve with the corner remainder doubled: the failures serialize Fock block matrices."""
    real_remainder = fock.compact_remainder

    def doubled(*args):
        remainder = real_remainder(*args)
        return remainder + remainder

    with mock.patch.object(fock, "compact_remainder", doubled):
        report = fock.verify_compact_preservation(CircleRotation(Angle.parse("theta+1/4")), 1, 2, 5, 1, 4)
    assert report.failures and report.failures[0].lhs != report.failures[0].rhs
    return canonical_json(report.to_json())


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def current_digests():
    out = {name: _digest(_run(argv, payload)) for name, (argv, payload) in _corpus().items()}
    out["report:gamma-hom-failure"] = _digest(_failure_report())
    # over cyclic(3) alpha makes no phases, so scalar products take the rational path
    out["report:gamma-hom-failure:cyclic"] = _digest(_failure_report(FiniteCyclicShift(3)))
    out["report:rho-hom-failure"] = _digest(_rho_failure_report())
    out["report:compact-preserve-failure"] = _digest(_fock_failure_report())
    return out


PINS = {
    'gamma:theta': '6f515f57913ca182cd538195dc48e5676c408a5f0b3624d7c1f3bf63dbcf8493',
    'rho:theta': 'e38b14cee4f57d0cbaa9a81af243026b31a035f84461a02126fc674c5b75f2b0',
    'shuffle:theta': '86bff0ba431d56a987110b6baf390b013c696696d81bdf51ff6d4bcab927a61c',
    'psi:theta': '818b82cde3e255829db5055b73626c211963faf45570446aca6d719afd9d8500',
    'trace:theta': '1c03ffea558c625972bdc26edaee76f56c8066f66837026cc63eef8f88da68c6',
    'gamma:theta+1/4': 'f756c375efe9f9da6e888b8ebf9bb55d20b5b3ad83562ea397ceeb5c5e50dd9f',
    'rho:theta+1/4': 'f7bab317b30ae743327fbca1713469ca7375db600aaf9596c831b602f55001a7',
    'shuffle:theta+1/4': '66b7f01fc8b742f865d86c5838ff09b7ada73e269eecc4749bea870415eac8ca',
    'psi:theta+1/4': '818b82cde3e255829db5055b73626c211963faf45570446aca6d719afd9d8500',
    'trace:theta+1/4': '1c03ffea558c625972bdc26edaee76f56c8066f66837026cc63eef8f88da68c6',
    'gamma:1/2*theta+1/3': 'b80878ad4481201ee0e2d61e92fd7c4d87368adcfe647928baa7d99888aee50c',
    'rho:1/2*theta+1/3': '9e44a5a7a1907dfbe2302d4cc88465fd3c07f128faac949b7ff71e1532124ac2',
    'shuffle:1/2*theta+1/3': 'a392505bbad5867cdaa62baa97e33808719643964ff012dbc97b6eb0fde1fb97',
    'psi:1/2*theta+1/3': '818b82cde3e255829db5055b73626c211963faf45570446aca6d719afd9d8500',
    'trace:1/2*theta+1/3': '1c03ffea558c625972bdc26edaee76f56c8066f66837026cc63eef8f88da68c6',
    'gamma:cyclic': '2c3aab9481867fb37e5819bb787677ad0e8c59fa31b37e8169efeefc788e6a3e',
    'rho:cyclic': '035538ca8b0dde96121a37518f90a953c398b6a3323ba593be54169bdec608cb',
    'shuffle:cyclic': '8768754dbef92295d2f03230030ec8330eafe537b03086bee7146fc583da74a2',
    'psi:cyclic': '816bbe8a30b8d94997bb05b5d29364cf156d19f010c163882236069368648951',
    'trace:cyclic': '1e90c2185d0be762eaa8f2b8fc1162e886d851a23cb3f6f41546993531a47a40',
    'gamma:1->3:1/2*theta+1/3': '06aa100aa2fdf28f6dc0f83e7eaeb7ff85c1ec7066365e240dd7a2c45c5189af',
    'trace:zeta3': '8f0e4d7e035a2db478525fe36de289e9bacea75f548955de2d648f745251cbcb',
    'trace:zeta6-1': '1c03ffea558c625972bdc26edaee76f56c8066f66837026cc63eef8f88da68c6',
    'classify:shifted': 'ba74948d1fc3045b14d466147162a061e8fc07c6b2b3b195d23b2b46a42f9e58',
    'classify:amplified': '56d0423da9b3d62645fbdc97e994431454b5322de64109ed28f4ab80f1f9d813',
    'ktheory': '2131a8770f1e04d8195d047b801b66bf5df119f4651b06cecc3a95b7d2777f13',
    'report:gamma-hom-failure': 'ac28dd81ba3ea77d165e03a8ba46675c2f2a5bcec7955134dcd2ec472e3291fa',
    'report:gamma-hom-failure:cyclic': '67b0f1d2355f621bd4e3d6bbf6be14761e699e48fcd64567bad2d52f6c503d3d',
    'report:rho-hom-failure': 'ea3b25ff83b8d3dbcf9d592c0f0d280855106720eae5a194fc2c6c6834b36f1a',
    'report:compact-preserve-failure': '130ed38052a7d5a9b2fe15d18789ac1c581b82f364b9a77f910d665a5c321bd3',
}


def test_corpus_matches_pins():
    assert current_digests() == PINS


def test_zeta3_forms_stay_apart():
    # same value, different conductors: both stored forms survive a trace
    _, zeta3 = _run(*_corpus()["trace:zeta3"]).split("\n", 1)
    _, zeta6 = _run(*_corpus()["trace:zeta6-1"]).split("\n", 1)
    assert json.loads(zeta3) == ZETA3 and json.loads(zeta6) == ZETA6_MINUS_1


if __name__ == "__main__":
    for name, digest in current_digests().items():
        print(f"    {name!r}: {digest!r},")
