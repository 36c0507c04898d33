import argparse
import contextlib
import io
import json
import random
import re
import subprocess
import sys
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bdlab import cli
from bdlab.coeff import FiniteCyclicShift
from bdlab.report import Report


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GAMMA_INPUT = {
    "size": 1,
    "entries": [[{
        "n": 1,
        "algebra": {"kind": "circle", "angle": {"q": "0", "r": "1"}},
        "coeffs": {"u:1": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}},
    }]],
}


def feed_stdin(monkeypatch, payload):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "trace-compat", "--sizes", "1,2", "--count", "10"])
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "trace-compat" and data["failures"] == []
        assert "cases" in data and "s" in err  # wall time on stderr only

    def test_zero_count_trivially_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "gamma-hom", "--sizes", "1,3", "--count", "0"])
        assert code == 0
        assert json.loads(out)["cases"] == 1  # only the unital check

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "does-not-exist"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "gamma-hom", "--sizes", "1,2", "--count", "1", "--budget", "0"],
        ["apply", "--map", "gamma", "--from", "1", "--to", "2", "--budget", "0"],
        ["apply", "--map", "gamma", "--from", "1", "--to", "2", "--depth", "3"],
        ["apply", "--map", "gamma", "--from", "1", "--to", "2", "--seed", "5"],
        ["ktheory", "--sizes", "1,2", "--budget", "5"],
    ])
    def test_option_the_command_does_not_take_is_usage_error(self, capsys, monkeypatch, argv):
        # each was parsed and then ignored, so the command exited 0
        feed_stdin(monkeypatch, GAMMA_INPUT)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_failures_exit_one(self, capsys, monkeypatch):
        broken = Report("fake")
        broken.compare([(0, (1, 2))], lambda sides: sides)
        monkeypatch.setattr(cli, "_run_suite", lambda args: broken)
        code, out, _ = run_cli(capsys, ["verify", "gamma-hom"])
        assert code == 1
        assert json.loads(out)["failures"][0]["case"] == 0

    def test_cyclic_algebra_suites(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "rho-hom", "--sizes", "1,3", "--algebra", "cyclic", "--modulus", "4",
            "--count", "5", "--seed", "3",
        ])
        assert code == 0 and json.loads(out)["failures"] == []

    @pytest.mark.parametrize("modulus", ["0", "-1"])
    def test_empty_cyclic_algebra_is_usage_error(self, capsys, modulus):
        code, out, err = run_cli(capsys, ["verify", "gamma-hom", "--algebra", "cyclic",
                                          "--modulus", modulus, "--sizes", "1,2", "--count", "1"])
        assert code == 2 and out == "" and "--modulus" in err

    def test_zero_denominator_angle_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "gamma-hom", "--angle", "1/0*theta", "--count", "1"])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("angle", ["theta/2", "2*theta*theta", "thetatheta", "theta*2"])
    def test_malformed_theta_term_is_named(self, capsys, angle):
        # each was blamed on exponent notation
        code, out, err = run_cli(capsys, ["verify", "gamma-hom", "--angle", angle, "--sizes", "1,2", "--count", "1"])
        assert code == 2 and out == ""
        assert err == f"error: angle term {angle!r} is not of the form p/q or p/q*theta\n"

    def test_report_written_to_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, [
            "verify", "flip", "--sizes", "1,2,6", "--out", str(path)])
        assert code == 0
        assert path.read_text() == out


    @pytest.mark.parametrize("argv,needle", [
        (["amplification", "--p", "0", "--sizes", "1,2", "--count", "1"], "--p"),
        (["amplification", "--p", "-2", "--sizes", "1,2", "--count", "1"], "--p"),
        (["shuffle", "--sizes", "1,2", "--depth", "-3"], "--depth"),
        (["shuffle", "--sizes", "1,2", "--depth", "0"], "--depth"),
        (["fock-id", "--depth", "0", "--count", "1"], "--depth"),
        (["compact-preserve", "--sizes", "1,2", "--depth", "-1", "--count", "1"], "--depth"),
        (["gamma-hom", "--angle", "+", "--sizes", "1,2", "--count", "1"], "angle"),
        (["gamma-comp", "--sizes", "1,2", "--count", "1"], "no case"),
        (["trace-compat", "--sizes", "1,2", "--count", "0"], "no case"),
        (["rg", "--sizes", "1", "--count", "1"], "no case"),
        (["fock-blocks", "--periods", "4", "--depth", "1", "--count", "1"], "--depth"),
        (["fock-blocks", "--periods", "1,2", "--depth", "3", "--count", "1"], "--depth"),
        (["gamma-hom", "--angle=--theta", "--sizes", "1,2", "--count", "1"], "angle"),
        (["gamma-hom", "--angle", "1--theta", "--sizes", "1,2", "--count", "1"], "angle"),
        (["gamma-hom", "--angle", "theta++1/2", "--sizes", "1,2", "--count", "1"], "angle"),
        (["gamma-hom", "--angle", "theta+", "--sizes", "1,2", "--count", "1"], "angle"),
        (["gamma-hom", "--angle", "1e5*theta", "--sizes", "1,2", "--count", "1"], "exponent"),
        (["gamma-hom", "--sizes", "1,2", "--count", "-3"], "--count"),
        (["rho-hom", "--sizes", "1,2", "--count", "-3"], "--count"),
        (["fock-blocks", "--periods", "0", "--count", "1"], "--periods"),
        (["fock-blocks", "--periods", "-1", "--count", "1"], "--periods"),
        (["fock-blocks", "--periods=", "--count", "1"], "--periods"),
        (["fock-blocks", "--periods", "1,,2", "--count", "1"], "--periods"),
        (["fock-blocks", "--periods", "a", "--count", "1"], "--periods"),
        (["rho-hom", "--sizes=", "--count", "1"], "--sizes"),
        (["gamma-hom", "--sizes", "1,,2", "--count", "1"], "--sizes"),
        (["flip", "--sizes", "a"], "--sizes"),
    ])
    def test_degenerate_option_is_usage_error(self, capsys, argv, needle):
        # each ran a vacuous suite (exit 0 with no or empty cases), ended in a
        # traceback, or blamed the wrong thing
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
        assert needle in err


#: a value for each verify and apply option, by its namespace name
OPTION_VALUES = {"sizes": "1,2", "algebra": "circle", "angle": "theta", "modulus": "3", "depth": "8", "seed": "1",
                 "count": "1", "p": "1", "periods": "1", "src": "1", "dst": "2", "stage": "1"}
VERIFY_OPTIONS = ("sizes", "algebra", "angle", "modulus", "depth", "seed", "count", "p", "periods")
APPLY_OPTIONS = ("src", "dst", "stage", "p", "sizes", "algebra", "angle", "modulus")
#: an element JSON each map accepts
MAP_INPUTS = {"gamma": GAMMA_INPUT, "rho": GAMMA_INPUT, "shuffle": GAMMA_INPUT, "psi": {"depth": 1, "coeffs": {}}}


def _flag(name):
    return cli.FLAGS.get(name, "--" + name)


def _with(argv, *names):
    return [*argv, *(arg for name in names for arg in (_flag(name), OPTION_VALUES[name]))]


def _unread_option_cases():
    """(argv, stdin, flag): a valid argv plus one option its suite or map does not read, named by flag.

    Per suite or map: every option it never reads, then --modulus with the
    circle algebra and --angle with the cyclic one when it reads an algebra.
    """
    commands = [(["verify", suite], reads, VERIFY_OPTIONS, None) for suite, (reads, _, _) in cli.SUITES.items()]
    commands += [(["apply", "--map", name], reads, APPLY_OPTIONS, MAP_INPUTS[name])
                 for name, (reads, _) in cli.MAPS.items()]
    cases = []
    for command, reads, options, stdin in commands:
        # declared options that keep the run small, and the ones a map needs
        base = _with(command, *(name for name in ("count", "p", "src", "dst", "stage") if name in reads))
        for name in options:
            if name not in reads and not (name in ("angle", "modulus") and "algebra" in reads):
                cases.append(pytest.param(_with(base, name), stdin, _flag(name), id=f"{command[-1]} {_flag(name)}"))
        if "algebra" in reads:
            cases.append(pytest.param(_with(base, "modulus"), stdin, "--modulus", id=f"{command[-1]} circle --modulus"))
            cases.append(pytest.param([*base, "--algebra", "cyclic", "--angle", "theta"], stdin, "--angle",
                                      id=f"{command[-1]} cyclic --angle"))
    return cases


@pytest.mark.parametrize("argv,stdin,flag", _unread_option_cases())
def test_option_the_suite_or_map_does_not_read_is_usage_error(capsys, monkeypatch, argv, stdin, flag):
    # each was accepted and ignored, so the command exited 0 as if the option had been read
    feed_stdin(monkeypatch, stdin)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {' '.join(argv[:2 if argv[0] == 'verify' else 3])} does not take {flag}")


@pytest.mark.parametrize("argv,needle", [
    (["apply", "--map", "gamma", "--from", "1"], "apply --map gamma needs --to"),
    (["apply", "--map", "gamma", "--to", "2"], "apply --map gamma needs --from"),
    (["apply", "--map", "rho", "--sizes", "1,2"], "apply --map rho needs --stage"),
])
def test_missing_required_option_is_one_line_usage_error(capsys, monkeypatch, argv, needle):
    feed_stdin(monkeypatch, GAMMA_INPUT)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err == f"error: {needle}\n"


@st.composite
def _size_chains(draw):
    sizes = [1]
    for _ in range(draw(st.integers(0, 2))):
        sizes.append(draw(st.sampled_from([m for m in (1, 2, 3, 6) if m % sizes[-1] == 0])))
    return ",".join(map(str, sizes))


def _reads(suite, algebra):
    """The options a suite reads over the given algebra."""
    reads = cli.SUITES[suite][0]
    return (*reads, "angle" if algebra == "circle" else "modulus") if "algebra" in reads else reads


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(
    st.sampled_from(tuple(cli.SUITES)), st.sampled_from(["circle", "cyclic"]), _size_chains(),
    st.integers(-2, 6), st.integers(-1, 3), st.integers(-2, 2), st.integers(-1, 6),
    st.lists(st.integers(0, 3), min_size=1, max_size=2).map(lambda ps: ",".join(map(str, ps))),
    st.none() | st.sampled_from(VERIFY_OPTIONS),
)
@example("amplification", "circle", "1,2", 4, 0, 1, 3, "1", None)
@example("shuffle", "circle", "1,2", -3, 2, 1, 3, "1", None)
@example("shuffle", "cyclic", "1,2", 0, 2, 1, 3, "1", None)
@example("fock-blocks", "circle", "1,2", 1, 2, 1, 3, "3", None)
@example("flip", "circle", "1,2", 1, 2, 1, 3, "1", "count")
@example("gamma-hom", "cyclic", "1,2", 1, 2, 1, 3, "1", "angle")
def test_verify_integer_options_fuzz(suite, algebra, sizes, depth, p, count, modulus, periods, unread):
    """Every small input of the options a suite reads exits 0-3 without a traceback, and exit 0
    checked something; one more option the suite does not read makes it exit 2."""
    reads = _reads(suite, algebra)
    drawn = {"algebra": algebra, "sizes": sizes, "depth": depth, "p": p, "count": count, "modulus": modulus,
             "periods": periods}
    argv = ["verify", suite]
    argv += [arg for name, value in drawn.items() if name in reads for arg in (f"--{name}", str(value))]
    if unread in reads:
        unread = None
    code, out, err = _main_captured(_with(argv, unread) if unread else argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if unread:
        assert code == 2 and out == "" and f"does not take --{unread}" in err
    if code == 0:
        assert json.loads(out)["cases"] > 0
        assert all(value >= low for name, value, low in (("depth", depth, 2), ("p", p, 1), ("count", count, 0))
                   if name in reads)
        if suite == "fock-blocks":
            assert depth >= 2 * max(int(k) for k in periods.split(","))


def _main_captured(argv):
    """cli.main's exit code, stdout and stderr, argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from(["-1", "0", "1/0", "1/1000"]), st.booleans())
@example(-3, 1, 0, "1/1000", False)
@example(1, 1, -1, "1/1000", False)
@example(1, 1, 0, "1/0", False)
def test_classify_ktheory_options_fuzz(amplify1, amplify2, e, precision, tau):
    """Orders, tail exponents and precisions exit 0, 2 or 3 at once, and exit 0 only when all are valid."""
    classify = ["classify", "--theta1", "theta", "--delta1", "2^inf", "--theta2", "theta+1/4",
                "--delta2", "2^inf", f"--amplify1={amplify1}", f"--amplify2={amplify2}"]
    ktheory = ["ktheory", "--sizes", "1,2", f"--tail=2^{e}", f"--precision={precision}",
               *(["--tau=1/2,-1", "--theta-cf", "0,2,..."] if tau else [])]
    for argv, valid, key in ((classify, amplify1 >= 1 and amplify2 >= 1, "answer"),
                             (ktheory, e >= 0 and precision == "1/1000", "tau" if tau else "delta")):
        code, out, err = _main_captured(argv)
        assert code in (0, 2, 3) and "Traceback" not in err
        assert (code == 0) == valid, (argv, code, err)
        if code == 0:
            assert key in json.loads(out)


class TestApplyCommand:
    def test_gamma_example(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, GAMMA_INPUT)
        code, out, _ = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", "--to", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 2
        # u e_00 -> u_2 e_10 + e_01
        assert data["entries"][1][0]["coeffs"] == {"u:1": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}}
        assert data["entries"][0][1]["coeffs"] == {"u:0": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}}

    def test_gamma_identity_echoes(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, GAMMA_INPUT)
        code, out, _ = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", "--to", "1"])
        assert code == 0
        from bdlab.crossed import MatrixElement

        assert MatrixElement.from_json(json.loads(out)) == MatrixElement.from_json(GAMMA_INPUT)

    def test_round_trip_parses_to_equal_element(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, GAMMA_INPUT)
        code, out, _ = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", "--to", "2"])
        from bdlab.crossed import MatrixElement
        from bdlab.limits import gamma

        reparsed = MatrixElement.from_json(json.loads(out))
        assert reparsed == gamma(1, 2, MatrixElement.from_json(GAMMA_INPUT))

    def test_rho_example(self, capsys, monkeypatch):
        e01 = {
            "size": 2,
            "entries": [
                [
                    {"n": 2, "algebra": {"kind": "circle", "angle": {"q": "0", "r": "1"}}, "coeffs": {}},
                    {"n": 2, "algebra": {"kind": "circle", "angle": {"q": "0", "r": "1"}},
                     "coeffs": {"u:0": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}}},
                ],
                [
                    {"n": 2, "algebra": {"kind": "circle", "angle": {"q": "0", "r": "1"}}, "coeffs": {}},
                    {"n": 2, "algebra": {"kind": "circle", "angle": {"q": "0", "r": "1"}}, "coeffs": {}},
                ],
            ],
        }
        feed_stdin(monkeypatch, e01)
        code, out, _ = run_cli(capsys, ["apply", "--map", "rho", "--stage", "2", "--sizes", "1,2,6"])
        assert code == 0
        data = json.loads(out)
        # delta_0 U^1: unit value at index 0 only, exponent 1
        assert list(data["coeffs"]) == ["U:1"]
        values = data["coeffs"]["U:1"]["values"]
        assert values[0] == {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]} and values[1] == {}

    def test_stage_mismatch_is_usage_error(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, GAMMA_INPUT)
        code, _, err = run_cli(capsys, ["apply", "--map", "gamma", "--from", "2", "--to", "4"])
        assert code == 2 and "size" in err

    @pytest.mark.parametrize("dst", ["0", "-2"])
    def test_smaller_target_is_usage_error(self, capsys, monkeypatch, dst):
        # printed a matrix of size 0 or -2 and exited 0
        feed_stdin(monkeypatch, GAMMA_INPUT)
        code, out, err = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", f"--to={dst}"])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_bad_json_is_usage_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        code, _, _ = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", "--to", "2"])
        assert code == 2

    def test_degree_cap_is_budget_exit(self, capsys, monkeypatch):
        big = {
            "size": 1,
            "entries": [[{
                "n": 1,
                "algebra": {"kind": "circle", "angle": {"q": "0", "r": "1"}},
                "coeffs": {"u:130": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}},
            }]],
        }
        feed_stdin(monkeypatch, big)
        code, _, err = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", "--to", "2"])
        assert code == 3 and "budget" in err.lower()

    def test_far_past_degree_cap_is_one_line_budget_exit(self, capsys, monkeypatch):
        # far past the cap: gamma must reject it without deep recursion
        payload = json.loads(json.dumps(GAMMA_INPUT))
        payload["entries"][0][0]["coeffs"] = {"u:5000": payload["entries"][0][0]["coeffs"]["u:1"]}
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, ["apply", "--map", "gamma", "--from", "1", "--to", "2"])
        assert code == 3 and out == "" and err.startswith("budget exceeded:") and err.count("\n") == 1


ONE, TWO = [{"coeff": "1"}], [{"coeff": "2"}]


def one_entry_matrix(coeffs, size=1, n=1, tag=GAMMA_INPUT["entries"][0][0]["algebra"]):
    """Matrix JSON whose only entry is the crossed element with twist n, algebra tag and coeffs."""
    return {"size": size, "entries": [[{"n": n, "algebra": tag, "coeffs": coeffs}]]}


def two_by_two_identity():
    """The 2 x 2 identity over the rotation by theta at power 1, every entry tagged."""
    tag = GAMMA_INPUT["entries"][0][0]["algebra"]
    unit = {"u:0": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}}
    return {"size": 2, "entries": [[{"n": 1, "algebra": dict(tag), "coeffs": unit if i == j else {}}
                                    for j in range(2)] for i in range(2)]}


class TestMalformedElementJson:
    """Input of the wrong shape is a one-line usage error, never a traceback or an out-of-range element."""

    PSI = ["apply", "--map", "psi", "--sizes", "1,2,6"]

    @pytest.mark.parametrize("payload", [
        {"depth": 3, "coeffs": {"U:1": {"depth": 3, "values": 5}}},  # was a TypeError
        {"depth": 3, "coeffs": [1]},  # was an AttributeError
        {"depth": 3, "coeffs": {"U:1": {"depth": 3, "values": [1, 2, 3, 4, 5, 6]}}},  # was an AttributeError
        {"depth": 1, "coeffs": {"U:1": {"depth": 1, "values": [{"z:0": {"coeff": "1"}}]}}},  # was an AttributeError
    ])
    def test_psi_shape_error_is_usage_error(self, capsys, monkeypatch, payload):
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, self.PSI)
        assert code == 2 and out == "" and err.startswith("error: malformed element JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,payload,field", [
        (["trace"], {}, "size"),
        (PSI, GAMMA_INPUT, "depth"),  # a matrix where psi reads an odometer element
    ])
    def test_missing_field_is_named(self, capsys, monkeypatch, argv, payload, field):
        # printed "error: 'size'", naming neither the input nor what was wrong with it
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err == f"error: malformed element JSON: missing field '{field}'\n"

    @pytest.mark.parametrize("depth", [9, 0, -4])
    def test_psi_depth_outside_stages_is_usage_error(self, capsys, monkeypatch, depth):
        # exited 0 with an element of a depth the stage sequence does not have
        feed_stdin(monkeypatch, {"depth": depth, "coeffs": {}})
        code, out, err = run_cli(capsys, self.PSI)
        assert code == 2 and out == "" and "outside 1..3" in err and err.count("\n") == 1

    @pytest.mark.parametrize("size,lengths", [(1, [2, 2]), (2, [2, 3]), (2, [2, 2, 2])],
                             ids=["size-1-of-2x2", "long-row", "extra-row"])
    def test_entries_must_fill_the_size(self, capsys, monkeypatch, size, lengths):
        # with "size": 1, the 2 x 2 identity printed the trace 1 and exited 0: rows and columns past size were ignored
        rows = two_by_two_identity()["entries"]
        zero = rows[0][1]
        payload = {"size": size, "entries": [[rows[i][j] if i < 2 and j < 2 else zero for j in range(length)]
                                             for i, length in enumerate(lengths)]}
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: malformed element JSON: a size {size} matrix needs {size} rows of {size} entries")

    @pytest.mark.parametrize("argv", [["trace"], ["apply", "--map", "gamma", "--from", "1", "--to", "2"]],
                             ids=["trace", "apply"])
    def test_huge_size_is_usage_error(self, capsys, monkeypatch, argv):
        # the shape check must cost what the input does: "size": 10**12 with one entry is one line, not a MemoryError
        feed_stdin(monkeypatch, {"size": 10**12, "entries": [[two_by_two_identity()["entries"][0][0]]]})
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err == f"error: malformed element JSON: a size {10**12} matrix needs {10**12} rows of {10**12} entries, " \
                      "got 1 rows\n"

    def test_trace_of_empty_rows_is_usage_error(self, capsys, monkeypatch):
        # was an IndexError
        feed_stdin(monkeypatch, {"size": 2, "entries": []})
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and err.startswith("error: malformed element JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("tags,needle", [
        ({(0, 1): {"kind": "cyclic", "d": 3}, (1, 0): {"kind": "nonsense"}}, "different algebra"),
        ({(1, 1): {"kind": "nonsense"}}, "unknown algebra tag"),
        ({(1, 0): None}, "no algebra tag"),
    ], ids=["mixed", "unknown", "missing"])
    def test_entry_tags_name_one_algebra(self, capsys, monkeypatch, tags, needle):
        # only the tag of entry (0,0) was read: each of these printed the trace and exited 0
        payload = two_by_two_identity()
        for (i, j), tag in tags.items():
            if tag is None:
                del payload["entries"][i][j]["algebra"]
            else:
                payload["entries"][i][j]["algebra"] = tag
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    def test_equal_tag_spelled_differently_is_accepted(self, capsys, monkeypatch):
        payload = two_by_two_identity()
        payload["entries"][1][1]["algebra"] = {"kind": "circle", "angle": {"q": "0.0", "r": "1"}}
        feed_stdin(monkeypatch, payload)
        code, out, _ = run_cli(capsys, ["trace"])
        assert code == 0 and json.loads(out) == [{"coeff": "1", "root": "0", "theta": "0"}]

    def test_cyclic_modulus_mismatch_is_usage_error(self, capsys, monkeypatch):
        # a function on Z/2 inside the algebra on Z/3 was traced as if on Z/3
        entry = {"n": 1, "algebra": {"kind": "cyclic", "d": 3},
                 "coeffs": {"u:0": {"d": 2, "values": [[{"coeff": "1"}], []]}}}
        feed_stdin(monkeypatch, {"size": 1, "entries": [[entry]]})
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and "Z/2" in err and err.count("\n") == 1

    def test_deeply_nested_json_is_usage_error(self, capsys, monkeypatch):
        # json.load raised a RecursionError
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000 + "]" * 100000))
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and "nested" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv,payload", [
        # trace printed 2 and psi mapped one term: the second spelling of an exponent replaced the first
        (["trace"], one_entry_matrix({"u:0": {"z:0": ONE, "z:+0": TWO}})),
        (["trace"], one_entry_matrix({"u:0": {"z:0": ONE}, "u:-0": {"z:0": TWO}})),
        (PSI, {"depth": 1, "coeffs": {"U:1": {"depth": 1, "values": [{"z:0": ONE}]},
                                      "U:+1": {"depth": 1, "values": [{"z:0": TWO}]}}}),
    ])
    def test_duplicate_exponent_key_is_usage_error(self, capsys, monkeypatch, argv, payload):
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and "exponent key" in err and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["z:01", "z: 1", "z:1_0", "z:+1", "z:-0", "z:1.0", "Z:1", "z1"])
    def test_exponent_key_in_another_spelling_is_usage_error(self, capsys, monkeypatch, key):
        feed_stdin(monkeypatch, one_entry_matrix({"u:0": {key: ONE}}))
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and "bad z-exponent key" in err and err.count("\n") == 1

    NON_INTEGERS = [1.7, 1.0, True, "1", None]

    def _assert_not_an_integer(self, capsys, monkeypatch, argv, payload, field):
        feed_stdin(monkeypatch, payload)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and f"'{field}' must be an integer" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_size_must_be_an_integer(self, capsys, monkeypatch, value):
        # "size": 1.7 traced as size 1
        payload = one_entry_matrix({"u:0": {"z:0": ONE}}, size=value)
        self._assert_not_an_integer(capsys, monkeypatch, ["trace"], payload, "size")

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_n_must_be_an_integer(self, capsys, monkeypatch, value):
        payload = one_entry_matrix({"u:0": {"z:0": ONE}}, n=value)
        self._assert_not_an_integer(capsys, monkeypatch, ["trace"], payload, "n")

    @pytest.mark.parametrize("value", NON_INTEGERS)
    @pytest.mark.parametrize("where", ["tag", "function"])
    def test_d_must_be_an_integer(self, capsys, monkeypatch, value, where):
        tag = {"kind": "cyclic", "d": value if where == "tag" else 2}
        function = {"d": value if where == "function" else 2, "values": [ONE, []]}
        payload = one_entry_matrix({"u:0": function}, tag=tag)
        self._assert_not_an_integer(capsys, monkeypatch, ["trace"], payload, "d")

    @pytest.mark.parametrize("value", NON_INTEGERS + [1.5])
    @pytest.mark.parametrize("where", ["element", "coefficient"])
    def test_depth_must_be_an_integer(self, capsys, monkeypatch, value, where):
        # odometer "depth": 1.5, true or "2" were accepted
        coefficient = {"depth": value if where == "coefficient" else 1, "values": [{"z:0": ONE}]}
        payload = {"depth": value if where == "element" else 1, "coeffs": {"U:1": coefficient}}
        self._assert_not_an_integer(capsys, monkeypatch, self.PSI, payload, "depth")


def _json_templates():
    from bdlab.cantor import OdometerAlgebra, StageSequence, rho
    from bdlab.coeff import Angle, CircleRotation, FiniteCyclicShift
    from bdlab.crossed import sample_matrix

    rng = random.Random(5)
    circle = CircleRotation(Angle.parse("theta+1/4"))
    cyclic = FiniteCyclicShift(2)
    odo = OdometerAlgebra(StageSequence((1, 2, 6)), circle)
    return [
        (["apply", "--map", "psi", "--sizes", "1,2,6", "--angle", "theta+1/4"],
         rho(odo, 2, sample_matrix(circle, 2, 2, rng)).to_json()),
        (["apply", "--map", "psi", "--sizes", "1,2", "--algebra", "cyclic", "--modulus", "2"],
         rho(OdometerAlgebra(StageSequence((1, 2)), cyclic), 2, sample_matrix(cyclic, 2, 2, rng)).to_json()),
        (["trace"], sample_matrix(circle, 2, 2, rng).to_json()),
        (["trace"], sample_matrix(cyclic, 2, 2, rng).to_json()),
        (["apply", "--map", "rho", "--stage", "2", "--sizes", "1,2,6"], sample_matrix(circle, 2, 2, rng).to_json()),
        (["apply", "--map", "rho", "--stage", "2", "--sizes", "1,2"], sample_matrix(cyclic, 2, 2, rng).to_json()),
    ]


JSON_TEMPLATES = _json_templates()
_JSON_WORDS = ["depth", "coeffs", "values", "U:0", "U:1", "U:-1", "z:0", "z:2", "u:0", "u:1", "coeff", "root",
               "theta", "size", "entries", "n", "algebra", "kind", "angle", "q", "r", "d", "circle", "cyclic",
               "0", "1", "-1/2", "1/0", "1/3", "x"]
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8) | st.floats() | st.sampled_from(_JSON_WORDS) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_WORDS) | st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_json(draw, node):
    """The node with one subtree, picked by a random walk, replaced by a random tree or dropped."""
    if not isinstance(node, (dict, list)) or not node or draw(st.integers(0, 3)) == 0:
        return draw(_json_trees)
    node = dict(node) if isinstance(node, dict) else list(node)
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    if draw(st.integers(0, 5)) == 0:
        del node[key]
    else:
        node[key] = draw(_mutated_json(node[key]))
    return node


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(st.sampled_from(range(len(JSON_TEMPLATES))).flatmap(
    lambda i: st.tuples(st.just(JSON_TEMPLATES[i][0]), _mutated_json(JSON_TEMPLATES[i][1]) | _json_trees)))
def test_malformed_element_json_fuzz(case):
    """apply --map psi/rho and trace on random and mutated JSON: exit 0, 2 or 3 and no traceback."""
    argv, payload = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


INTEGER_FIELDS = ("size", "n", "d", "depth")


def _parser_sites(node, path=()):
    """Paths to the exponent keys and the integer fields of an element JSON."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        if key in INTEGER_FIELDS or (isinstance(key, str) and re.fullmatch(r"[zuU]:(0|-?[1-9][0-9]*)", key)):
            yield path + (key,)
        yield from _parser_sites(val, path + (key,))


@st.composite
def _misspelled_json(draw, node):
    """The node with 1-3 exponent keys respelled or duplicated, or integer fields made non-integers."""
    node = json.loads(json.dumps(node))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_parser_sites(node))))
        parent = node
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        if key in INTEGER_FIELDS:
            parent[key] = draw(st.floats() | st.booleans() | st.none() | st.text(max_size=3)
                               | st.integers(-3, 3).map(str))
            continue
        symbol, exponent = key.split(":")
        spelled = f"{symbol}:{draw(st.sampled_from(['+', '0', ' ', '-' if exponent == '0' else '-0']))}{exponent}"
        if draw(st.booleans()):
            parent[spelled] = parent[key]
        else:
            parent[spelled] = parent.pop(key)
    return node


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(st.sampled_from(range(len(JSON_TEMPLATES))).flatmap(
    lambda i: st.tuples(st.just(JSON_TEMPLATES[i][0]), _misspelled_json(JSON_TEMPLATES[i][1]))))
def test_element_parser_fuzz(case):
    """trace and apply --map psi/rho on misspelled keys and non-integer fields: exit 0 or 2, no traceback."""
    argv, payload = case
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))):
        code, out, err = _main_captured(argv)
    assert code in (0, 2)
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["apply", "--map", "rho", "--stage", "1", "--sizes", "1,,2"],
                                  ["ktheory", "--sizes", "a"]], ids=("apply", "ktheory"))
def test_non_integer_sizes_is_usage_error(capsys, monkeypatch, argv):
    # used to exit 2 with int()'s message, which names no option
    feed_stdin(monkeypatch, GAMMA_INPUT)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err == f"error: --sizes must be comma-separated integers, got {argv[-1]!r}\n"


@pytest.mark.parametrize("argv", [
    lambda tmp: ["trace", "--in", str(tmp / "missing" / "x.json")],
    lambda tmp: ["trace", "--in", str(tmp)],
    lambda tmp: ["verify", "flip", "--sizes", "1,2", "--out", str(tmp / "missing" / "r.json")],
], ids=("missing --in", "directory --in", "unwritable --out"))
def test_file_error_is_usage_error(capsys, tmp_path, argv):
    # each ended in a traceback and exit 1; the unwritable --out printed the report first
    code, out, err = run_cli(capsys, argv(tmp_path))
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


class TestTraceCommand:
    def _matrix(self, n, entries):
        tag = {"kind": "circle", "angle": {"q": "0", "r": "1"}}
        rows = [[{"n": n, "algebra": tag, "coeffs": entries.get((i, j), {})} for j in range(n)] for i in range(n)]
        return {"size": n, "entries": rows}

    UNIT_COEFF = {"u:0": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}}

    def test_identity_trace(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, self._matrix(3, {(i, i): self.UNIT_COEFF for i in range(3)}))
        code, out, _ = run_cli(capsys, ["trace"])
        assert code == 0 and json.loads(out) == [{"coeff": "1", "root": "0", "theta": "0"}]

    def test_u_corner_trace_zero(self, capsys, monkeypatch):
        u_coeff = {"u:1": {"z:0": [{"coeff": "1", "root": "0", "theta": "0"}]}}
        feed_stdin(monkeypatch, self._matrix(2, {(0, 0): u_coeff}))
        code, out, _ = run_cli(capsys, ["trace"])
        assert code == 0 and json.loads(out) == []

    def test_corner_unit_quarter(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, self._matrix(4, {(0, 0): self.UNIT_COEFF}))
        code, out, _ = run_cli(capsys, ["trace"])
        assert code == 0 and json.loads(out) == [{"coeff": "1/4", "root": "0", "theta": "0"}]

    def test_non_object_json_is_usage_error(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, [1, 2])
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator_is_usage_error(self, capsys, monkeypatch):
        coeff = {"u:0": {"z:0": [{"coeff": "1/0", "root": "0", "theta": "0"}]}}
        feed_stdin(monkeypatch, self._matrix(1, {(0, 0): coeff}))
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and "1/0" in err

    @pytest.mark.parametrize("field,text", [("coeff", "1/0"), ("root", "-0/0"), ("theta", "1/-2"), ("coeff", "1.5.2"),
                                            ("root", 7), ("theta", None)])
    def test_invalid_field_is_one_line_usage_error(self, capsys, monkeypatch, field, text):
        term = {"coeff": "1", "root": "0", "theta": "0", field: text}
        feed_stdin(monkeypatch, self._matrix(1, {(0, 0): {"u:0": {"z:0": [term]}}}))
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("field,text", [("coeff", "1e1000000"), ("root", "1E-3"), ("theta", "2e1")])
    def test_exponent_notation_is_usage_error(self, capsys, monkeypatch, field, text):
        # "1e1000000" used to spend most of a second building 10^1000000 exactly
        term = {"coeff": "1", "root": "0", "theta": "0", field: text}
        feed_stdin(monkeypatch, self._matrix(1, {(0, 0): {"u:0": {"z:0": [term]}}}))
        code, out, err = run_cli(capsys, ["trace"])
        assert code == 2 and out == "" and err.count("\n") == 1 and "exponent" in err


class TestClassifyCommand:
    CASES = [
        (["--theta1", "theta", "--delta1", "2^inf", "--theta2", "theta+1/4", "--delta2", "2^inf"], "isomorphic"),
        (["--theta1", "theta", "--delta1", "2^inf", "--theta2=-theta+1/8", "--delta2", "2^inf"], "isomorphic"),
        (["--theta1", "theta", "--delta1", "2^inf", "--theta2", "2*theta", "--delta2", "2^inf"], "not-isomorphic"),
        (["--theta1", "theta", "--delta1", "2^inf", "--theta2", "theta", "--delta2", "3^inf"], "not-isomorphic"),
        (["--theta1", "theta", "--delta1", "2^inf", "--theta2", "theta", "--delta2", "2^inf",
          "--amplify1", "2"], "not-isomorphic"),
    ]

    @pytest.mark.parametrize("argv,expected", CASES)
    def test_known_answers(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, ["classify", *argv])
        assert code == 0
        assert json.loads(out)["answer"] == expected

    def test_reflexive(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--theta1", "theta", "--delta1", "2^inf",
                                        "--theta2", "theta", "--delta2", "2^inf"])
        assert code == 0 and json.loads(out)["answer"] == "isomorphic"

    @pytest.mark.parametrize("argv", [["--amplify1=-3"], ["--amplify1", "0"], ["--amplify2", "0"],
                                      ["--delta2", "2^-1"]])
    def test_bad_amplification_or_delta_is_usage_error(self, capsys, argv):
        # each used to be dropped silently, and the command exited 0 with an answer
        code, out, err = run_cli(capsys, ["classify", "--theta1", "theta", "--delta1", "2^inf",
                                          "--theta2", "theta", "--delta2", "2^inf", *argv])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator_angle_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["classify", "--theta1", "1/0", "--delta1", "2^inf",
                                          "--theta2", "theta", "--delta2", "2^inf"])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


class TestKTheoryCommand:
    def test_presentation_and_normalization(self, capsys):
        code, out, _ = run_cli(capsys, ["ktheory", "--sizes", "1,2,4", "--tail", "2^inf",
                                        "--normalize", "3:1,5"])
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == {"factors": {"2": "inf"}, "finiteEvidence": False}
        assert data["normalized"]["class"] == {"a": "1/4", "b": 5}

    def test_tau_enclosure(self, capsys):
        code, out, _ = run_cli(capsys, ["ktheory", "--sizes", "1,2", "--tau", "1/2,-1",
                                        "--theta-cf", "0,2,...", "--precision", "1/10000"])
        assert code == 0
        data = json.loads(out)["tau"]
        assert data["positive"] is True

    @pytest.mark.parametrize("argv", [
        ["--tau=1/0,-1", "--theta-cf", "0,2,..."],
        ["--tau=1/2,-1", "--theta-cf", "..."],
        ["--tau=1/2,-1", "--theta-cf", "0,0,..."],
        ["--tau=1/2,-1", "--theta-cf", "0,2,...", "--precision", "1/0"],
        ["--tau=1e9,1", "--theta-cf", "0,2,..."],
        ["--tau=1/2,-1", "--theta-cf", "0,2,...", "--precision", "1e9"],
        ["--tau=1/2,-1", "--theta-cf", "0,2,...", "--precision", "0"],
        ["--tau=1/2,-1", "--theta-cf", "0,2,...", "--precision=-1"],
        ["--precision", "1/0"],
        ["--precision", "0"],
        ["--tail", "2^-1"],
    ])
    def test_bad_tau_input_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, ["ktheory", "--sizes", "1,2", *argv])
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,option", [
        (["--normalize", "x"], "--normalize"),
        (["--normalize", "3:1"], "--normalize"),
        (["--normalize", "1:a,b"], "--normalize"),
        (["--tau", "1", "--theta-cf", "0,2,..."], "--tau"),
        (["--tau", "1,x", "--theta-cf", "0,2,..."], "--tau"),
        (["--tau", "1/2,-1", "--theta-cf", "0,a"], "--theta-cf"),
    ])
    def test_malformed_option_is_named(self, capsys, argv, option):
        # each used to print an unpacking or int() message that names no option
        code, out, err = run_cli(capsys, ["ktheory", "--sizes", "1,2", *argv])
        assert code == 2 and out == "" and err.startswith(f"error: {option} must be") and err.count("\n") == 1

    def test_exhausted_theta_stream_is_budget_exit(self, capsys):
        # [0; 2, 2] gives two enclosures of width 1/2 and 1/10, then runs out
        code, out, err = run_cli(capsys, ["ktheory", "--sizes", "1,2", "--tau", "1/2,-1",
                                          "--theta-cf", "0,2,2", "--precision", "1/100000000"])
        assert code == 3 and out == "" and err.startswith("budget exceeded:") and err.count("\n") == 1


BIG_PRIME = "1000000000000000003"
CLASSIFY = ["classify", "--theta1", "theta", "--theta2", "theta"]


class TestFactorGuard:
    # Each case runs in a subprocess with a timeout, so a missing guard fails
    # the test instead of hanging the suite.
    @pytest.mark.parametrize("argv", [
        [*CLASSIFY, "--delta1", "2^inf", "--delta2", "2^inf", "--amplify1", BIG_PRIME],
        [*CLASSIFY, "--delta1", "2^inf", "--delta2", "2^inf", "--amplify2", BIG_PRIME],
        [*CLASSIFY, "--delta1", BIG_PRIME, "--delta2", "2^inf"],
        [*CLASSIFY, "--delta1", "2^inf", "--delta2", BIG_PRIME],
        ["ktheory", "--sizes", "1,2", "--tail", f"{BIG_PRIME}^inf"],
        ["ktheory", "--sizes", f"1,{BIG_PRIME}"],
    ])
    def test_large_prime_factor_is_budget_exit(self, argv, src_env):
        done = subprocess.run([sys.executable, "-m", "bdlab.cli", *argv], capture_output=True, timeout=10,
                              env=src_env)
        err = done.stderr.decode()
        assert done.returncode == 3 and done.stdout == b""
        assert err.startswith("budget exceeded:") and err.count("\n") == 1

    def test_prime_below_guard_squared_still_factors(self, capsys):
        code, out, _ = run_cli(capsys, [*CLASSIFY, "--delta1", "1000000000039", "--delta2", "2^inf"])
        assert code == 0 and json.loads(out)["left"]["delta"]["factors"] == {"1000000000039": 1}


class TestLargeConductors:
    # Sums of roots at conductor 30030 can be dense in the power basis mod Phi_30030
    # (2cos(2*pi/30030) takes 5369 terms there) and took seconds to minutes to reduce;
    # their canonical forms are short.  Each case runs in a subprocess with a timeout.
    @pytest.mark.parametrize("suite", ["gamma-hom", "rho-hom"])
    def test_suites_at_an_angle_of_conductor_30030_are_fast(self, suite, src_env):
        argv = ["verify", suite, "--angle", "1/30030+theta", "--sizes", "1,2,6", "--count", "5"]
        done = subprocess.run([sys.executable, "-m", "bdlab.cli", *argv], capture_output=True, timeout=10,
                              env=src_env)
        assert done.returncode == 0 and json.loads(done.stdout)["failures"] == []

    @pytest.mark.parametrize("argv", [
        ["gamma-hom", "--sizes", "1,2", "--count", "5"],
        ["rho-hom", "--sizes", "1,2,6", "--count", "3"],
    ])
    def test_a_phase_past_the_conductor_limit_is_budget_exit(self, argv, src_env):
        # the phases e(-e/1000003) have a root, so alpha builds them, and the reduction refuses their conductor
        done = subprocess.run([sys.executable, "-m", "bdlab.cli", "verify", *argv, "--angle", "theta+1/1000003"],
                              capture_output=True, timeout=10, env=src_env)
        assert done.returncode == 3 and done.stdout == b""
        assert done.stderr == b"budget exceeded: root-of-unity conductor 1000003 exceeds limit 1000000\n"

    def test_trace_at_conductor_30030_is_fast(self, src_env):
        value = [{"coeff": "1", "root": "1/30030", "theta": "0"}, {"coeff": "1", "root": "30029/30030", "theta": "0"}]
        algebra = {"kind": "circle", "angle": {"q": "0", "r": "1"}}
        corner = {"n": 1, "algebra": algebra, "coeffs": {"u:0": {"z:0": value}}}
        payload = json.dumps({"size": 1, "entries": [[corner]]}).encode()
        done = subprocess.run([sys.executable, "-m", "bdlab.cli", "trace"], input=payload, capture_output=True,
                              timeout=5, env=src_env)
        assert done.returncode == 0
        assert json.loads(done.stdout) == [{"coeff": "-1", "root": "7507/15015", "theta": "0"},
                                           {"coeff": "-1", "root": "7508/15015", "theta": "0"}]


class TestFockDepthGuard:
    # A Fock level is capped like a u-degree; each case runs in a subprocess
    # with a timeout, so a missing guard fails the test instead of hanging it.
    @pytest.mark.parametrize("argv", [
        ["fock-id", "--count", "1", "--depth", "100000"],
        ["compact-preserve", "--sizes", "1,2", "--count", "1", "--depth", "65"],
        ["shuffle", "--sizes", "1,2", "--depth", "65"],
        ["fock-blocks", "--periods", "2", "--count", "1", "--depth", "65"],
        ["fock-blocks", "--periods", "1,17", "--count", "1"],
    ])
    def test_depth_above_cap_is_budget_exit(self, argv, src_env):
        done = subprocess.run([sys.executable, "-m", "bdlab.cli", "verify", *argv], capture_output=True,
                              timeout=10, env=src_env)
        err = done.stderr.decode()
        assert done.returncode == 3 and done.stdout == b""
        assert err.startswith("budget exceeded:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["fock-id", "--count", "1", "--depth", "64"],
        ["fock-blocks", "--periods", "16", "--count", "1"],
    ])
    def test_depth_at_cap_still_runs(self, capsys, argv):
        code, out, _ = run_cli(capsys, ["verify", *argv])
        assert code == 0 and json.loads(out)["cases"] > 0

    @pytest.mark.parametrize("argv", [
        ["fock-id", "--algebra", "cyclic", "--modulus", "1", "--count", "1"],
        ["compact-preserve", "--sizes", "1,2", "--count", "1"],
        ["shuffle", "--sizes", "1,2"],
    ])
    def test_depth_one_is_usage_error(self, capsys, argv):
        # exited 0: at depth 1 every creation operator T has no entry, so no case compared anything T contributes
        code, out, err = run_cli(capsys, ["verify", *argv, "--depth", "1"])
        assert (code, out, err) == (2, "", "error: --depth must be at least 2, got 1\n")

    @pytest.mark.parametrize("suite", ["fock-id", "fock-blocks", "compact-preserve", "shuffle"])
    def test_default_depth_is_the_library_default(self, suite):
        # verify passes a depth even without --depth, and the bench calls the library without one:
        # the two defaults must be one depth
        _, runs, call = cli.SUITES[suite]
        o = argparse.Namespace(**{**cli.DEFAULTS, "algebra": FiniteCyclicShift(3), "count": 1,
                                  "pairs": [(1, 2), (2, 6)]})
        for _, (*arguments, depth) in runs(o):
            assert call(*arguments).config["depth"] == depth


class TestDeterminism:
    def test_cached_parser_matches_fresh_parser(self, capsys, monkeypatch):
        calls = [
            (["apply", "--map", "rho", "--sizes", "1,2", "--stage", "1"], GAMMA_INPUT),
            (["trace"], GAMMA_INPUT),
            (["verify", "fock-id", "--depth", "0", "--count", "1"], None),
            (["apply", "--map", "gamma", "--from", "1", "--to", "2"], GAMMA_INPUT),
            (["classify", "--theta1", "theta", "--delta1", "2^inf", "--theta2", "theta", "--delta2", "2^inf"], None),
            (["apply", "--map", "rho", "--sizes", "1,2", "--stage", "1"], GAMMA_INPUT),
        ]

        def run_all():
            results = []
            for argv, payload in calls:
                feed_stdin(monkeypatch, payload)
                results.append(run_cli(capsys, argv))
            return results

        cached = run_all()
        with mock.patch.object(cli, "_parser", cli.build_parser):
            fresh = run_all()
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0]

    def test_in_process_reports_byte_identical(self, capsys):
        argv = ["verify", "gamma-hom", "--sizes", "1,2", "--count", "15", "--seed", "99"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_console_entry_byte_identical(self, src_env):
        argv = [sys.executable, "-m", "bdlab.cli", "verify", "rg", "--sizes", "1,2,6",
                "--count", "5", "--seed", "4"]
        first = subprocess.run(argv, capture_output=True, check=True, env=src_env)
        second = subprocess.run(argv, capture_output=True, check=True, env=src_env)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
