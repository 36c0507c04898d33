"""Mutation sweep: which one-point changes to a bdlab module do the tests miss?

    python tests/mutation_sweep.py MODULE [--timeout SECONDS] [--lines A-B]

Each mutant changes one point of ``src/bdlab/MODULE.py``: ``+`` and ``-``
swapped, ``*`` or ``%`` made ``//``, a comparison boundary moved (``<`` and
``<=``, ``>`` and ``>=``), ``==`` and ``!=``, ``and`` and ``or``, ``in`` and
``not in``, or ``is`` and ``is not`` swapped, a unary ``-`` or ``not``
dropped, or an int constant raised by 1.  F-strings, ``raise`` and
``assert`` statements are left alone, and docstrings hold no such point.

The checkout is never written.  ``src/``, ``tests/``, ``bench/`` and
``pyproject.toml`` are copied to a temporary directory, and each mutant is
written there in turn (the module is rewritten through ``ast.unparse``; the
unmutated rewrite must pass first).  Mutants run one at a time: first the
module's own test file, then ``tests/`` with ``-x``, each run in its own
process group under a timeout.  A run that fails kills the mutant; a run that
times out has its whole process group killed and counts as a kill ("hang").
Each killed mutant prints beside it the first ``FAILED`` or ``ERROR`` line of
the run that killed it, so that a kill by one of the tests that carry
wall-clock timeouts shows as such; run the sweep on an otherwise idle host.
The survivors are printed with a triage label from ``TRIAGE``:

* gap: behaviour no check pins; add a test;
* equivalent: the mutant computes the same values as the original;
* unneeded: code no caller needs; delete it;
* untriaged: not in the table yet.

A full pass over a large module takes tens of minutes, so the sweep is not
part of tier-1; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.Mod: ast.FloorDiv}
_CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
           ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Mod: "%", ast.FloorDiv: "//", ast.Lt: "<",
            ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.In: "in",
            ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
            ast.USub: "-", ast.Not: "not"}

#: (module, function, mutation) -> label, for the survivors of a full pass.  The
#: function is the dotted path of the enclosing classes and defs ("" at module level),
#: and the mutation is written as ``describe`` writes it.  A (module, function, None)
#: entry labels every mutant of that function.
TRIAGE = {
    # a memo's size bound keeps or drops a memo entry, never changes a value
    ("coeff", "", "1024 -> 1025"): "equivalent",
    ("coeff", "CircleRotation._turn", "`<` -> `<=`"): "equivalent",
    ("coeff", "CircleRotation._phase", "`<` -> `<=`"): "equivalent",
    ("coeff", "CircleRotation.composite_tag", "`<` -> `<=`"): "equivalent",
    # a root choice of 1 draws e(1) = e(0)
    ("coeff", "", "0 -> 1"): "equivalent",
    # q == 0 has returned before
    ("coeff", "Angle.__str__", "`>` -> `>=`"): "equivalent",
    # alpha^0 and alpha of 0 are computed the same on the general path
    ("coeff", "CircleRotation.alpha_power", "`or` -> `and`"): "equivalent",
    # i -> i - n has the orbits of i -> i + n
    ("coeff", "cyclic_orbits", "`+` -> `-`"): "equivalent",
    # a draw with probability exactly 0.6 has measure zero
    ("coeff", "FiniteCyclicShift.sample", "`<` -> `<=`"): "equivalent",
    # at trust == offset both branches return 0
    ("fock", "block_trust", "`<=` -> `<`"): "equivalent",
    # a refinement budget one larger changes no answer; e >= 1 and a prime absent from the
    # factors compare alike against 1; "p^e" holds one "^"; equal ends order either way
    ("invariants", "", "10000 -> 10001"): "equivalent",
    ("invariants", "SupernaturalNumber.from_sequence", "0 -> 1"): "equivalent",
    ("invariants", "SupernaturalNumber.amplify", "0 -> 1"): "equivalent",
    ("invariants", "SupernaturalNumber.parse", "1 -> 2"): "equivalent",
    ("invariants", "_value_intervals", "`<=` -> `<`"): "equivalent",
    # any sampling density checks the same identities
    ("crossed", "sample_matrix", "`<` -> `<=`"): "equivalent",
    # FACTOR_LIMIT: the guard's tests factor a prime far past either bound
    ("scalar", "", "10 -> 11"): "equivalent",
    ("scalar", "", "6 -> 7"): "equivalent",
    # only the bench's kernel rows call cyclotomic_polynomial
    ("scalar", "_poly_div_exact", None): "unneeded",
    # the shrink that follows reaches the least conductor without it
    ("scalar", "_at_joint_conductor", None): "equivalent",
    # a - i*N/p and a + i*N/p run over the same p - 1 exponents
    ("scalar", "_to_basis", "`+` -> `-`"): "equivalent",
    # a conductor of 1 and a gcd of 1 need no step; the fast paths give the general path's values
    ("scalar", "_reduce_root_group", "`>` -> `>=`"): "equivalent",
    ("scalar", "_times_monomial", "`>` -> `>=`"): "equivalent",
    ("scalar", "_times_monomial", "drop `-`"): "equivalent",
    ("scalar", "Scalar.__mul__", None): "equivalent",
    # src passes root and theta, and e(1) is e(0); no caller scales by 0
    ("scalar", "Scalar.term", "0 -> 1"): "unneeded",
    ("scalar", "Scalar.scaled", "`or` -> `and`"): "unneeded",
    # no output uses repr
    ("scalar", "Scalar.__repr__", None): "unneeded",
    ("sparse", "SparseSum.__repr__", None): "unneeded",
    # each case is X + 1 so that its trace is rarely 0; X - 1 serves alike
    ("limits", "verify_trace_compatibility", "`+` -> `-`"): "equivalent",
    # a nonzero class with m == 0 has q != 0, where q > 0 and q >= 0 agree
    ("invariants", "k0_positive", "`>` -> `>=`"): "equivalent",
}


class _Points(ast.NodeVisitor):
    """The mutation points of a module in source order: (node, field, index, function)."""

    def __init__(self):
        self.points: list[tuple[ast.AST, str, int, str]] = []
        self._scope: list[str] = []

    def visit_FunctionDef(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _skip(self, node):
        pass

    visit_JoinedStr = visit_Raise = visit_Assert = _skip

    def _add(self, node, field="op", index=0):
        self.points.append((node, field, index, ".".join(self._scope)))

    def visit_BinOp(self, node):
        if type(node.op) in _BINOPS:
            self._add(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if type(node.op) in _BINOPS:
            self._add(node)
        self.generic_visit(node)

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in _CMPOPS:
                self._add(node, "ops", i)
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        self._add(node)
        self.generic_visit(node)

    def visit_UnaryOp(self, node):
        if isinstance(node.op, (ast.USub, ast.Not)):
            self._add(node, "drop")
        self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int:
            self._add(node, "value")


def mutation_points(tree: ast.Module) -> list[tuple[ast.AST, str, int, str]]:
    visitor = _Points()
    visitor.visit(tree)
    return visitor.points


def describe(node: ast.AST, field: str, index: int) -> str:
    """The mutation at a point, e.g. "`<=` -> `<`", "drop `-`" or "1 -> 2"."""
    if field == "value":
        return f"{node.value} -> {node.value + 1}"
    if field == "drop":
        return f"drop `{_SYMBOLS[type(node.op)]}`"
    old = node.ops[index] if field == "ops" else node.op
    new = {**_BINOPS, **_CMPOPS, **_BOOLOPS}[type(old)]
    return f"`{_SYMBOLS[type(old)]}` -> `{_SYMBOLS[new]}`"


class _Drop(ast.NodeTransformer):
    """Replace one unary operation by its operand."""

    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        if node is self.target:
            return node.operand
        return self.generic_visit(node)


def mutant_source(tree: ast.Module, number: int) -> str:
    """The module's source with mutation point ``number`` applied, through ast.unparse."""
    tree = copy.deepcopy(tree)
    node, field, index, _ = mutation_points(tree)[number]
    if field == "value":
        node.value += 1
    elif field == "drop":
        tree = _Drop(node).visit(tree)
    elif field == "ops":
        node.ops[index] = _CMPOPS[type(node.ops[index])]()
    else:
        node.op = {**_BINOPS, **_BOOLOPS}[type(node.op)]()
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(workdir: Path, targets: list[str], timeout: float) -> tuple[str, str]:
    """("pass", ""), ("fail", the first FAILED or ERROR line pytest prints) or ("hang", "") for one
    pytest run in its own process group."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        output = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hang", ""
    if proc.returncode == 0:
        return "pass", ""
    lines = output.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), None)
    return "fail", first or f"exit {proc.returncode}: {next((l for l in reversed(lines) if l.strip()), '')}"


def triage(module: str, function: str, mutation: str) -> str:
    return TRIAGE.get((module, function, mutation)) or TRIAGE.get((module, function, None)) or "untriaged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/bdlab, e.g. scalar")
    parser.add_argument("--timeout", type=float, default=300, help="seconds per pytest run")
    parser.add_argument("--lines", default=None, help="A-B: only the mutation points on source lines A..B")
    args = parser.parse_args(argv)
    source_path = ROOT / "src" / "bdlab" / f"{args.module}.py"
    tree = ast.parse(source_path.read_text())
    points = mutation_points(tree)
    lo, hi = map(int, args.lines.split("-")) if args.lines else (1, float("inf"))
    numbers = [i for i, (node, *_) in enumerate(points) if lo <= node.lineno <= hi]
    own = ROOT / "tests" / f"test_{args.module}.py"
    stages = ([[f"tests/{own.name}"]] if own.exists() else []) + [["tests"]]

    with tempfile.TemporaryDirectory(prefix="bdlab-sweep-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(ROOT / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for tree_name in ("tests", "bench"):  # tests read bench/tracer.py
            shutil.copytree(ROOT / tree_name, workdir / tree_name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        target = workdir / "src" / "bdlab" / source_path.name
        target.write_text(ast.unparse(tree) + "\n")
        if any(run_tests(workdir, stage, args.timeout)[0] != "pass" for stage in stages):
            print(f"the unmutated rewrite of {args.module} fails the tests; no sweep", file=sys.stderr)
            return 2
        survivors, hangs = [], 0
        for number in numbers:
            node, field, index, function = points[number]
            target.write_text(mutant_source(tree, number))
            outcome, killer = "pass", ""
            for stage in stages:
                outcome, killer = run_tests(workdir, stage, args.timeout)
                if outcome != "pass":
                    break
            hangs += outcome == "hang"
            mutation = describe(node, field, index)
            line = f"{args.module}.py:{node.lineno} {function or '<module>'}: {mutation}"
            print(f"{outcome:4} {line}" + (f"  <- {killer}" if killer else ""), flush=True)
            if outcome == "pass":
                survivors.append((triage(args.module, function, mutation), line))
    print(f"\n{args.module}: {len(survivors)} of {len(numbers)} mutants survive ({hangs} killed by a hang)")
    for label, line in survivors:
        print(f"  {label:10} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
