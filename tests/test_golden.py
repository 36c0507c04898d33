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
    # zeta_3 and zeta_6 - 1: one number written two ways, one stored form
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
    'gamma:theta': 'd731710226449f18ca29395cad84876d858108ff5db4bb8e1ee95bb5dc0c3608',
    'rho:theta': 'e67bb5154dfa3f3ca6618d5a9ffce8577f557b860e8d3c15db741a70b1950a87',
    'shuffle:theta': '12869c0e48a113d2ff31cdbf907fc93a18c39edd45a89a856ab4275c74bddf3a',
    'psi:theta': '13678123c76dfd9747cab063852988499566c37a2521d7d40b194e72b7c229d5',
    'trace:theta': '8f0e4d7e035a2db478525fe36de289e9bacea75f548955de2d648f745251cbcb',
    'gamma:theta+1/4': '6e202b29868cebb8121e8e8f13acf08b2294731669b5797732555eef7ea8f558',
    'rho:theta+1/4': '01bfce88c9a622371c6a2616e55e5f469bd3e50ff2cd66f83c73f504f28ebff2',
    'shuffle:theta+1/4': 'a7cfd087bcdc4b9d0856864973cb40aec6f65f56cdd3115964a55c1497ce8273',
    'psi:theta+1/4': '13678123c76dfd9747cab063852988499566c37a2521d7d40b194e72b7c229d5',
    'trace:theta+1/4': '8f0e4d7e035a2db478525fe36de289e9bacea75f548955de2d648f745251cbcb',
    'gamma:1/2*theta+1/3': 'b753147ebe46efefe8fe80df0a42d1d955dd3be562eff495cd8ad29aac4eebc3',
    'rho:1/2*theta+1/3': 'afdb986973a1dabd26a82cd4f526e369aff50ddd02854af461f87ee108289707',
    'shuffle:1/2*theta+1/3': 'e4e81a2e8b43f1e8a8807c722ec0c7e47f47db8b7e96c7f666deaa825a091417',
    'psi:1/2*theta+1/3': '13678123c76dfd9747cab063852988499566c37a2521d7d40b194e72b7c229d5',
    'trace:1/2*theta+1/3': '8f0e4d7e035a2db478525fe36de289e9bacea75f548955de2d648f745251cbcb',
    'gamma:cyclic': 'a1cad2364b512fc26dc56ad42933dc8971775a3bcda889a9c55eb2af2b6d312c',
    'rho:cyclic': 'b7b6845786ff36fca9de0f5be5e1423391fe3b3dcc47477c93227715896ac56d',
    'shuffle:cyclic': 'c7ba1fa58f7a0641ca2ce9d4107f8e91244bed5f379397ca01ff9079ad5b1528',
    'psi:cyclic': '1deaa4b201f7b1021d69f2de009421d291fb41b98e2890a18ff1ad7d096e8863',
    'trace:cyclic': '0c05f11ab967e06e7c37ce198dd3f71cb3d362500187583116e6d884859c984d',
    'gamma:1->3:1/2*theta+1/3': '8d6b60f735a1b7b34fbff1858880879c6986178f941577486f21c4e49d336daf',
    'trace:zeta3': '8f0e4d7e035a2db478525fe36de289e9bacea75f548955de2d648f745251cbcb',
    'trace:zeta6-1': '8f0e4d7e035a2db478525fe36de289e9bacea75f548955de2d648f745251cbcb',
    'classify:shifted': 'ba74948d1fc3045b14d466147162a061e8fc07c6b2b3b195d23b2b46a42f9e58',
    'classify:amplified': '56d0423da9b3d62645fbdc97e994431454b5322de64109ed28f4ab80f1f9d813',
    'ktheory': '2131a8770f1e04d8195d047b801b66bf5df119f4651b06cecc3a95b7d2777f13',
    'report:gamma-hom-failure': 'ac28dd81ba3ea77d165e03a8ba46675c2f2a5bcec7955134dcd2ec472e3291fa',
    'report:gamma-hom-failure:cyclic': '67b0f1d2355f621bd4e3d6bbf6be14761e699e48fcd64567bad2d52f6c503d3d',
    'report:rho-hom-failure': 'a224566ce55f5a2bcf27c1b00a58f7f00a7bee943e71f29ae35c2a7ee7286760',
    'report:compact-preserve-failure': 'c00e86fdab2355731df589d7aa4a800600b3279fd4204e08e10b94e35e1b4121',
}


def test_corpus_matches_pins():
    assert current_digests() == PINS


def test_zeta3_forms_coincide():
    # same value written at two conductors: one stored form comes out of a trace
    _, zeta3 = _run(*_corpus()["trace:zeta3"]).split("\n", 1)
    _, zeta6 = _run(*_corpus()["trace:zeta6-1"]).split("\n", 1)
    assert json.loads(zeta3) == json.loads(zeta6) == ZETA3


if __name__ == "__main__":
    for name, digest in current_digests().items():
        print(f"    {name!r}: {digest!r},")
