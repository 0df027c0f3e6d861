import contextlib
import filecmp
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoef import bounds, cli
from bicoef.bounds import BoundReport, IdentityReport
from bicoef.cli import main
from bicoef.harness import CHUNK, EmpiricalExtremum, _campaign_chunks, falsify
from bicoef.operators import AlphaParams, CoefficientTuple, MembershipReport
from oracles import (a2sq_alpha_exact, a2sq_beta_arms_exact, a3_alpha_exact,
                     a3_beta_arms_exact, csv_lines_row_by_row)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _cli_argv(*argv):
    return [sys.executable, "-m", "bicoef.cli", *argv]


def _cli_env():
    """The environment of a CLI child that imports this checkout's bicoef."""
    path = [str(Path(__file__).resolve().parents[1] / "src"),
            *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# -------------------------------------------------------------------- bound

def test_bound_alpha_json(capsys):
    code, out, _ = run(capsys, "bound", "--family", "alpha", "--alpha", "1",
                       "--lambda", "1", "--mu", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a2_bound"] == pytest.approx(0.816497, abs=1e-6)
    assert payload["a3_bound"] == pytest.approx(5 / 3)


def test_bound_beta_text(capsys):
    code, out, _ = run(capsys, "bound", "--family", "beta", "--beta", "0",
                       "--lambda", "1", "--mu", "0")
    assert code == 0
    assert "a2_bound" in out and "min-arm-sqrt" in out


def test_bound_missing_family_param_is_usage_error(capsys):
    code, _, err = run(capsys, "bound", "--family", "alpha", "--lambda", "1")
    assert code == 2
    assert "--alpha" in err


def test_bound_out_of_range_param_is_usage_error(capsys):
    # a subnormal alpha has no representable D of about (lam+mu)^2 / alpha
    for alpha in ("2", "1e-310", "5e-324"):
        line = assert_usage_error(capsys, "bound", "--family", "alpha", "--alpha", alpha)
        assert line.startswith("bicoef: alpha must ")


# ------------------------------------------------------------------- invert

def test_invert_closed_form(capsys):
    code, out, _ = run(capsys, "invert", "--a2", "2", "--a3", "3", "--a4", "4",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["b2"] == [-2.0, 0.0]
    assert payload["b3"] == [5.0, 0.0]
    assert payload["b4"] == [-14.0, 0.0]


def test_invert_full_reversion(capsys):
    code, out, _ = run(capsys, "invert", "--coeffs", "2,3,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inverse_tail"][0] == [-2.0, 0.0]
    assert payload["inverse_tail"][1] == [5.0, 0.0]
    assert payload["inverse_tail"][2] == [-14.0, 0.0]


# ----------------------------------------------------------------- operator

def test_operator_coefficients(capsys):
    code, out, _ = run(capsys, "operator", "--coeffs", "0.5,0.25",
                       "--lambda", "2", "--mu", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [[1.0, 0.0], [2.5, 0.0], [3.5, 0.0]]


# ------------------------------------------------------------------- member

def test_member_pass_and_fail(capsys):
    code, out, _ = run(capsys, "member", "--family", "alpha", "--alpha", "0.5",
                       "--coeffs", "0.05")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "member", "--family", "alpha", "--alpha", "0.1",
                       "--coeffs", "2")
    assert code == 0 and "FAIL" in out
    code, out, _ = run(capsys, "member", "--family", "beta", "--beta", "0.9",
                       "--coeffs", "2")
    assert code == 0 and "FAIL" in out


# ------------------------------------------------------------------ falsify

def test_falsify_exit_zero_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "records.csv"
    code, out, _ = run(capsys, "falsify", "--family", "beta", "--beta", "0",
                       "--lambda", "1", "--mu", "1", "-n", "2000",
                       "--seed", "7", "--out", str(out_csv), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert out_csv.exists()
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2001


def test_falsify_that_checked_nothing_says_so(capsys):
    # one atom under the toeplitz filter: no paired prefix is admissible here
    argv = ("falsify", "--family", "beta", "--beta", "0", "--lambda", "1", "--mu", "1",
            "--atoms", "1", "-n", "20000", "--seed", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].startswith("admissible 0 ")
    assert out.splitlines()[-1] == "no sample was admissible, so no bound was checked"
    # the JSON keeps its keys, with the maxima null
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["n_admissible"] == 0
    assert payload["max_a2_abs"] is payload["max_a3_abs"] is None
    # a campaign with an admissible sample has no such line
    code, out, _ = run(capsys, *argv[:-6], "-n", "200")
    assert code == 0 and out.splitlines()[-1] == "violations 0"


def test_falsify_cli_is_bitwise_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "falsify", "--family", "alpha", "--alpha",
                         "0.5", "-n", "1500", "--seed", "3",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_out_fails_before_the_campaign(monkeypatch, tmp_path, capsys):
    def campaign(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "falsify", campaign)
    code, out, err = run(capsys, "falsify", "--family", "alpha", "--alpha", "0.5",
                         "-n", "2000000", "--out", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "No such file or directory" in err


def test_unwritable_out_fails_before_the_search(monkeypatch, tmp_path, capsys):
    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "extremal_search", search)
    code, out, err = run(capsys, "extremal", "--family", "beta", "--beta", "0.5",
                         "--budget", "100000", "--out", str(tmp_path / "missing" / "x.json"))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "No such file or directory" in err


@pytest.mark.parametrize("argv", [
    # no --alpha for --family alpha
    ("bound", "--family", "alpha"),
    ("falsify", "--family", "alpha"),
    ("extremal", "--family", "alpha"),
    # bounds that are not finite positive floats
    ("falsify", "--family", "alpha", "--alpha", "0.5", "--lambda", "1e200", "-n", "10"),
    ("extremal", "--family", "beta", "--beta", "0.5", "--lambda", "1e300", "--mu", "1e300"),
], ids=["bound", "falsify", "extremal", "falsify-bounds", "extremal-bounds"])
def test_usage_error_neither_creates_nor_truncates_out(tmp_path, capsys, argv):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        assert_usage_error(capsys, *argv, "--out", str(path))
    assert not new.exists() and old.read_text() == "kept\n"


@pytest.mark.parametrize("target", ["fifo", "/dev/stdout", "file"])
def test_falsify_writes_its_csv_to_a_fifo_or_stdout(tmp_path, target):
    # two CSV workers wherever two CPUs are allowed; their part files live in
    # TMPDIR, not next to PATH.  "file" is --out /dev/stdout with stdout a
    # regular file, which must hold the CSV and then the report, as a pipe does
    n = 2 * CHUNK + 7
    argv = _cli_argv("falsify", "--family", "alpha", "--alpha", "0.5", "-n", str(n),
                     "--seed", "2", "--out", "fifo" if target == "fifo" else "/dev/stdout")
    summary = falsify(AlphaParams(0.5, 1.0, 1.0), n, 2)   # the flags as floats
    expected = "".join(line + "\n" for line in csv_lines_row_by_row(summary)).encode()
    if target == "fifo":
        os.mkfifo(tmp_path / target)
        with subprocess.Popen(argv, cwd=tmp_path, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=_cli_env()) as proc:
            with open(tmp_path / target, "rb") as fh:
                data = fh.read()
            err = proc.communicate(timeout=120)[1]
    else:
        with open(tmp_path / "stdout", "w+b") as fh:
            proc = subprocess.run(argv, stdout=fh if target == "file" else subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=_cli_env(), timeout=120)
            fh.seek(0)
            data, err = proc.stdout or fh.read(), proc.stderr
        report = data[len(expected):]
        assert report.startswith(b"samples    %d\n" % n) and report.endswith(b"violations 0\n")
        data = data[:len(expected)]
    assert (proc.returncode, err) == (0, b"")
    assert data == expected


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_report_out_to_stdout_is_written_twice(tmp_path, stdout):
    argv = _cli_argv("bound", "--family", "beta", "--beta", "0.5", "--out", "/dev/stdout")
    with open(tmp_path / "stdout", "w+b") as fh:
        proc = subprocess.run(argv, stdout=fh if stdout == "file" else subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_cli_env(), timeout=60)
        fh.seek(0)
        data = proc.stdout or fh.read()
    assert (proc.returncode, proc.stderr) == (0, b"")
    half = len(data) // 2
    assert data[:half] == data[half:] and data.startswith(b"a2_bound = ")


# One child pinned to one allowed CPU folds the campaign and writes every
# row; with this process's affinity, forked workers fold and write all but
# the first range wherever two CPUs are allowed.  The second campaign is the
# other class, the modulus-only reason column and the one-atom path; the
# third is the benchmark's campaign workload; in the fourth, with two CPUs,
# the CSV worker's range is a whole chunk and then a chunk of one row; in
# the fifth every |a2| lies below 1e-4, so every row, in the workers' ranges
# too, is written by repr.  extremal's budget of 2 x FOLD_SAMPLES forks a
# fold worker.
@pytest.mark.parametrize("argv", [
    "falsify --family alpha --alpha 0.5 --lambda 1 --mu 1 -n 40000 --seed 1 --json",
    "falsify --family beta --beta 0.5 --lambda 2 --mu 0.5 -n 40000 --seed 2 --atoms 1 "
    "--filter modulus --json",
    "falsify --family beta --beta 0.5 --lambda 2 --mu 0.5 -n 250000 --seed 1 --json",
    "falsify --family alpha --alpha 0.5 --lambda 1 --mu 1 -n 8193 --seed 4 --json",
    "falsify --family alpha --alpha 0.001 --lambda 30 --mu 0 -n 20000 --seed 3 --json",
    "extremal --family beta --beta 0.5 --lambda 2 --mu 0.5 --objective a2 --budget 60000 "
    "--seed 1 --json",
], ids=["alpha", "one-atom-modulus", "campaign", "chunk-of-one-row", "repr-rows",
        "extremal"])
def test_output_bytes_do_not_depend_on_the_cpus_allowed(tmp_path, argv):
    argv = argv.split()
    cpu = min(os.sched_getaffinity(0))
    runs = []
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        # pinned before the child imports bicoef, which splits by its affinity
        proc = subprocess.run(_cli_argv(*argv, "--out", str(tmp_path / name)),
                              capture_output=True, env=_cli_env(), preexec_fn=pin,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert filecmp.cmp(tmp_path / "one", tmp_path / "all", shallow=False)
    payload = json.loads(runs[1])
    # the same campaign in this process: extremal's is falsify's of its budget
    args = cli.build_parser().parse_args(argv)
    extremal = args.command == "extremal"
    summary = falsify(cli._params_from_args(args), args.budget if extremal else args.n,
                      args.seed, filter_mode=getattr(args, "filter", "toeplitz"),
                      atom_count=args.atoms)
    if extremal:
        argmax = {args.objective: payload["best_index"]}
        top = {args.objective: payload["achieved"]}
    else:
        argmax = payload["argmax"]
        top = {c: payload[f"max_{c}_abs"] for c in argmax}
        # every float cell, in the workers' rows too, reads as repr writes it
        with open(tmp_path / "all", "rb") as fh:
            for line in csv_lines_row_by_row(summary):
                assert fh.readline() == f"{line}\n".encode()
            assert fh.read() == b""
    # the kernel's arrays, which the CSV rows above are: q1 is -p1 bit for
    # bit, and argmax[c] is the first admissible row of largest |c|, which
    # holds its max_c_abs
    names = ("p1", "q1", "admissible", *(f"{c}_abs" for c in argmax))
    chunks = [a for _, a in _campaign_chunks(
        summary.params, summary.bounds, summary.n_samples, summary.seed,
        summary.filter_mode, summary.atom_count)]
    k = {name: np.concatenate([a[name] for a in chunks]) for name in names}
    assert k["q1"].tobytes() == (-k["p1"]).tobytes()
    for c, index in argmax.items():
        values = np.where(k["admissible"], k[f"{c}_abs"], -1.0)
        assert index == int(np.argmax(values)), c
        assert repr(float(values[index])) == repr(top[c]), c


# ------------------------------------------------------------ program entry

_FALSIFY_ONE = ("falsify", "--family", "beta", "--beta", "0.5", "-n", "1", "--json")
# prints the permanent generation's size to stderr as the interpreter exits;
# registered before bicoef is imported, so it runs after every other handler
_FREEZE_HOOK = ("import atexit, gc, sys; atexit.register(lambda: "
                "sys.stderr.write(f'frozen {gc.get_freeze_count()}'))")


def test_main_in_process_does_not_freeze(capsys):
    # a caller's frozen cycles would never be collected
    before = gc.get_freeze_count()
    code, out, _ = run(capsys, *_FALSIFY_ONE)
    assert code == 0 and json.loads(out)["n_samples"] == 1
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("route", ["module", "console_script"])
def test_program_freezes_its_import_time_heap(tmp_path, route):
    env = _cli_env()
    if route == "module":
        # python -m bicoef.cli as it is, with the hook in a sitecustomize
        (tmp_path / "sitecustomize.py").write_text(_FREEZE_HOOK + "\n")
        env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), env["PYTHONPATH"]))
        argv = _cli_argv(*_FALSIFY_ONE)
    else:
        # what the [project.scripts] wrapper runs: sys.exit(main())
        argv = [sys.executable, "-c",
                f"{_FREEZE_HOOK}; sys.argv = ['bicoef', *{list(_FALSIFY_ONE)!r}]; "
                "from bicoef.cli import main; sys.exit(main())"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0 and json.loads(proc.stdout)["n_samples"] == 1
    frozen = int(proc.stderr.decode().removeprefix("frozen "))
    assert frozen > 1000   # numpy's and bicoef's modules, functions and types


def test_import_of_the_cli_loads_no_fractions_or_decimal():
    # only the corollary check, which imports fractions itself, needs them
    code = ("import sys, bicoef.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv,loaded", [
    (("falsify", "--family", "alpha", "--alpha", "0.5", "-n", "5000", "--json"), False),
    (("extremal", "--family", "beta", "--beta", "0.5", "--budget", "300", "--json"), False),
    (("falsify", "--family", "alpha", "--alpha", "0.5", "-n", "50", "--out", "x.csv"),
     True),
], ids=["falsify", "extremal", "falsify-out"])
def test_only_a_run_with_out_loads_orjson(tmp_path, argv, loaded):
    # only the CSV writer, which imports orjson itself, needs it
    code = ("import sys, bicoef.cli; "
            f"assert bicoef.cli.main({list(argv)!r}) == 0; "
            "print('orjson' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=tmp_path,
                          env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, f"{loaded}\n".encode())


@pytest.mark.parametrize("argv", [
    # forks a fold worker wherever two CPUs are allowed
    ("falsify", "--family", "beta", "--beta", "0.5", "--lambda", "2", "--mu", "0.5",
     "-n", "250000", "--seed", "1", "--json"),
    ("falsify", "--family", "alpha", "--alpha", "0.5", "--lambda", "1", "--mu", "1",
     "-n", "50000", "--seed", "1", "--json", "--out", "records.csv"),
    ("extremal", "--family", "beta", "--beta", "0.5", "--lambda", "2", "--mu", "0.5",
     "--objective", "a2", "--budget", "10000", "--seed", "1", "--json"),
    # fractions imported in the corollary check; the records' _asdict payloads
    ("corollary-check", "--json"),
    ("bound", "--family", "beta", "--beta", "0.5", "--lambda", "2", "--mu", "0.5", "--json"),
], ids=["campaign", "campaign_csv", "extremal", "corollary-check", "bound"])
def test_program_exit_is_clean_under_dev_mode(tmp_path, argv):
    # frozen objects are torn down by module clearing, not by a collection: a
    # file left open would show only as a ResourceWarning at exit, made an
    # error here, or as an "Exception ignored in" line
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "bicoef.cli",
                           *argv], cwd=tmp_path, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=_cli_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")


# ----------------------------------------------------------------- extremal

def test_extremal_smoke(capsys):
    code, out, _ = run(capsys, "extremal", "--family", "alpha", "--alpha", "1",
                       "--budget", "300", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["achieved"] <= payload["bound"] + 1e-9
    assert payload["evaluations"] == 300


def test_extremal_that_checked_nothing_says_so(capsys):
    # one atom under the toeplitz filter: no paired prefix is admissible here
    argv = ("extremal", "--family", "beta", "--beta", "0", "--lambda", "1", "--mu", "1",
            "--atoms", "1", "--budget", "100")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1:4] == ["achieved  0.0", "bound     0.816496580927726",
                                     "gap       0.816496580927726"]
    assert out.splitlines()[-1] == "no sample was admissible, so no bound was checked"
    # the JSON is the record as it was, with no atoms
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0 and (payload["achieved"], payload["best_atoms"]) == (0.0, None)
    # a search with an admissible sample has no such line
    code, out, _ = run(capsys, *argv[:-4], "--budget", "100")
    assert code == 0 and out.splitlines()[-1].startswith("sample    ")


# ---------------------------------------------------------- corollary-check

def test_corollary_check_single(capsys):
    code, out, _ = run(capsys, "corollary-check", "--which", "c2")
    assert code == 0
    assert "c2: PASS" in out


def test_corollary_check_all_json(capsys):
    code, out, _ = run(capsys, "corollary-check", "--which", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 6
    # fractions is imported by the check itself: the identities are still exact
    assert all(r["passed"] and r["exact_identity"] for r in payload["reports"])


def test_corollary_whose_branch_never_switches_fails_with_every_report(monkeypatch, capsys):
    # |a2| never leaves the sqrt arm, so c4's crossover is not found: a failed
    # check (exit 1) with all six reports, not a usage error (exit 2)
    real = bounds.bounds_for
    monkeypatch.setattr(bounds, "bounds_for",
                        lambda p: real(p)._replace(a2_branch="min-arm-sqrt"))
    code, out, err = run(capsys, "corollary-check")
    assert (code, err) == (1, "")
    heads = [line for line in out.splitlines() if not line.startswith(" ")]
    assert [h.split(":")[0] for h in heads] == ["c1", "c2", "c51", "c3", "c4", "c5"]
    assert ["FAIL" in h for h in heads] == [False] * 4 + [True, False]
    assert "  crossover not found (expected 0.3333333333333333)" in out.splitlines()
    code, out, err = run(capsys, "corollary-check", "--which", "c4", "--json")
    (c4,) = json.loads(out)["reports"]
    assert (code, err) == (1, "")
    assert (c4["passed"], c4["exact_identity"]) == (False, True)
    assert c4["crossover_found"] is None and c4["crossover_error"] is None


def test_json_payloads_are_the_result_records(capsys):
    def keys(cls):
        return set(cls._fields)

    code, out, _ = run(capsys, "member", "--family", "alpha", "--alpha", "0.5",
                       "--coeffs", "0.05", "--tol", "1e-6", "--json")
    payload = json.loads(out)
    assert code == 0 and set(payload) == keys(MembershipReport)
    assert payload["tol"] == 1e-6
    code, out, _ = run(capsys, "extremal", "--family", "beta", "--beta", "0.5",
                       "--budget", "50", "--json")
    payload = json.loads(out)
    assert code == 0 and set(payload) == keys(EmpiricalExtremum)
    # an object by name: json would write the NamedTuple as a list
    best = payload["best_tuple"]
    assert isinstance(best, dict) and set(best) == keys(CoefficientTuple)
    code, out, _ = run(capsys, "corollary-check", "--json")
    assert code == 0
    assert all(set(r) == keys(IdentityReport) for r in json.loads(out)["reports"])
    code, out, _ = run(capsys, "bound", "--family", "beta", "--beta", "0.5", "--json")
    assert code == 0
    assert set(json.loads(out)) == {"family", "alpha", "beta", "lambda", "mu"} | keys(BoundReport)


# ---------------------------------------------------------------- usability

def assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bicoef: ")
    return lines[0]


@pytest.mark.parametrize("flag,value", [("--lambda", "nan"), ("--lambda", "inf"),
                                        ("--mu", "nan"), ("--mu", "inf")])
@pytest.mark.parametrize("command", ["bound", "falsify"])
def test_non_finite_param_is_usage_error(capsys, command, flag, value):
    for family in (("--family", "alpha", "--alpha", "0.5"),
                   ("--family", "beta", "--beta", "0.5")):
        argv = [command, *family, flag, value]
        if command == "falsify":
            argv += ["-n", "100"]
        assert "finite" in assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("invert", "--coeffs", "1"),
    ("operator", "--coeffs", "1"),
    ("member", "--family", "alpha", "--alpha", "0.5", "--coeffs", "0.05"),
], ids=lambda argv: argv[0])
def test_order_zero_is_usage_error(capsys, argv):
    for order in ("0", "100000"):
        assert "order" in assert_usage_error(capsys, *argv, "--order", order)


@pytest.mark.parametrize("argv", [
    ("invert",), ("operator",), ("member", "--family", "beta", "--beta", "0.5"),
], ids=lambda argv: argv[0])
def test_coefficient_list_beyond_the_order_cap_is_usage_error(capsys, argv):
    too_long, longest = ",".join(["0.01"] * 256), ",".join(["0.01"] * 255)
    assert "--coeffs" in assert_usage_error(capsys, *argv, "--coeffs", too_long)
    assert run(capsys, *argv, "--coeffs", longest, "--order", "2")[0] == 0
    # an empty field is no zero coefficient, and dropping it would shift the rest
    for blank in ("0.1,,0.05", "0.1, ,0.05", "0.1,0.05,"):
        assert "argument --coeffs" in assert_usage_error(capsys, *argv, "--coeffs", blank)


def test_membership_grid_beyond_its_caps_is_usage_error(capsys):
    # parsed, never allocated: one past each cap is refused, and each cap is served
    member = ("member", "--family", "alpha", "--alpha", "0.5", "--coeffs", "0.05")
    line = assert_usage_error(capsys, *member, "--angles", str(cli.MAX_ANGLES + 1))
    assert "argument --angles" in line and str(cli.MAX_ANGLES + 1) in line
    radii = ",".join(["0.5"] * cli.MAX_RADII)
    line = assert_usage_error(capsys, *member, "--radii", radii + ",0.9")
    assert "argument --radii" in line and f"at most {cli.MAX_RADII} values" in line
    for flag, value in (("--angles", str(cli.MAX_ANGLES)), ("--radii", radii)):
        code, out, _ = run(capsys, *member, flag, value)
        assert code == 0 and out.startswith("PASS"), flag


def _non_finite(token):
    raise AssertionError(f"non-finite number in the output: {token}")


# Values at the order cap, recorded before the series layer moved from a ring
# class to plain arrays; a list is pinned by index, its last entry included.
# They hold to 1e-12 relative, which leaves room for convolve's last bits on
# other platforms: reversion by composition and the two-power operator agree
# with them to 7e-14.  A scale of max(1, |x|) would not see b256 ~ 5e-32.
@pytest.mark.parametrize("argv,key,pinned", [
    (("invert", "--coeffs", "0.1,0.05,-0.02"), "inverse_tail",   # b2..b6, b256
     {0: -0.1, 1: -0.02999999999999999, 2: 0.03999999999999999,
      3: -0.013599999999999996, 4: -0.004619999999999997, 254: -5.475538886312213e-32}),
    (("operator", "--lambda", "2", "--mu", "0.5", "--coeffs", "0.1,0.05,-0.02"),
     "coeffs",   # c0..c4, c255
     {0: 1.0, 1: 0.25000000000000006, 2: 0.21375000000000005, 3: -0.14543750000000003,
      4: 0.004714843749999999, 255: 3.985268997165148e-126}),
    (("member", "--family", "beta", "--beta", "0.5", "--coeffs", "0.1,0.05,-0.02"),
     None, {"worst_value": 0.7663490977479791, "margin": 0.2663490977479791}),
], ids=["invert", "operator", "member"])
def test_order_cap_is_served(argv, key, pinned):
    # a child given a minute: a reversion or operator that grows
    # super-polynomially in the order fails here
    proc = subprocess.run(_cli_argv(*argv, "--order", "256", "--json"), capture_output=True,
                          env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    payload = json.loads(proc.stdout, parse_constant=_non_finite)
    if key is not None:
        assert len(payload[key]) == max(pinned) + 1
        payload = {k: complex(*z) for k, z in enumerate(payload[key])}
    for k, want in pinned.items():
        assert abs(payload[k] - want) <= 1e-12 * abs(want), k


@pytest.mark.parametrize("flag,value,field", [
    ("--tol", "nan", "tol"), ("--tol", "-1", "tol"), ("--angles", "0", "--angles"),
    ("--radii", ",", "radii"), ("--radii", "1", "radii"), ("--radii", "0.5,,0.9", "radii"),
])
def test_bad_membership_grid_is_usage_error(capsys, flag, value, field):
    line = assert_usage_error(capsys, "member", "--family", "alpha", "--alpha",
                              "0.5", "--coeffs", "0.05", flag, value)
    assert field in line


@pytest.mark.parametrize("command", [("falsify", "-n", "10"),
                                     ("extremal", "--objective", "a2", "--budget", "10")],
                         ids=lambda argv: argv[0])
def test_bound_too_small_for_the_margin_bins_is_usage_error(capsys, command):
    # bound reports it, finite and positive; a campaign cannot bin margins below it
    line = assert_usage_error(capsys, command[0], "--family", "beta", "--beta",
                              "0.9999999999999999", "--lambda", "1e307", "--mu", "0",
                              *command[1:])
    assert line == "bicoef: the a2 bound 2e-323 is too small for 20 margin bins"


def test_extremal_zero_atoms_is_usage_error(capsys):
    assert "argument --atoms: must be >= 1, got 0" in assert_usage_error(
        capsys, "extremal", "--family", "beta", "--beta", "0.5", "--atoms", "0",
        "--budget", "10")


@pytest.mark.parametrize("command,flag,value", [
    ("falsify", "--seed", "-1"), ("falsify", "-n", "0"), ("falsify", "--atoms", "0"),
    ("extremal", "--seed", "-1"), ("extremal", "--budget", "0"),
    ("extremal", "--budget", "1.5"),
    # parsed, never allocated: numpy would take the memory and the OOM killer the run
    ("falsify", "--atoms", str(cli.MAX_ATOMS + 1)),
    ("extremal", "--atoms", str(cli.MAX_ATOMS + 1)),
])
def test_integer_flag_out_of_range_is_usage_error(capsys, command, flag, value):
    line = assert_usage_error(capsys, command, "--family", "beta", "--beta", "0.5",
                              flag, value)
    assert f"argument {flag}" in line and value in line


@pytest.mark.parametrize("argv", [("falsify", "-n", "10"), ("extremal", "--budget", "10")],
                         ids=lambda argv: argv[0])
def test_atom_cap_is_served(capsys, argv):
    assert run(capsys, *argv, "--family", "beta", "--beta", "0.5",
               "--atoms", str(cli.MAX_ATOMS))[0] == 0


@pytest.mark.parametrize("argv", [
    ("bound", "--family", "alpha", "--alpha", "1", "--seed", "1"),
    ("falsify", "--family", "alpha", "--alpha", "1", "-n", "10", "--order", "3"),
], ids=lambda argv: argv[0])
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    assert argv[-2] in assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("falsify", "--family", "alpha", "--alpha", "0.5", "--lambda", "1e200",
     "-n", "10"),
    ("bound", "--family", "beta", "--beta", "0.5", "--lambda", "1e308"),
    # the smallest normal alpha: D overflows, though lambda and mu are 1
    ("bound", "--family", "alpha", "--alpha", "2.2250738585072014e-308"),
], ids=["overflow", "underflow", "tiny-alpha"])
def test_huge_lambda_is_usage_error(capsys, argv):
    # the line names the shape parameter (argv[2]) as well as lambda and mu
    line = assert_usage_error(capsys, *argv)
    assert "lambda" in line and f"{argv[2]} = {argv[4]}" in line


def test_huge_lambda_alpha_bound_does_not_cancel(capsys):
    # the paper's form (lam+mu)^2 + alpha (mu + 2 lam - lam^2) cancels to 0 here
    code, out, _ = run(capsys, "bound", "--family", "alpha", "--alpha", "1",
                       "--lambda", "1e150", "--mu", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    lam, mu = Fraction(10) ** 150, Fraction(1)
    a2 = math.sqrt(a2sq_alpha_exact(Fraction(1), lam, mu))
    a3 = float(a3_alpha_exact(Fraction(1), lam, mu))
    assert abs(payload["a2_bound"] - a2) <= 1e-15 * a2
    assert abs(payload["a3_bound"] - a3) <= 1e-15 * a3


@pytest.mark.filterwarnings("error")   # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("argv,flag", [
    (("operator", "--coeffs", "1", "--lambda", "nan"), "--lambda"),
    (("operator", "--coeffs", "1", "--lambda", "1e308", "--mu", "1e308"), "--lambda"),
    (("invert", "--a2", "nan"), "--a2"),
    (("invert", "--a2", "1e120"), "--a2"),
    (("invert", "--coeffs", "1e200,1e200", "--order", "6"), "--coeffs"),
    (("member", "--family", "beta", "--beta", "0.5", "--coeffs", "nan"), "--coeffs"),
    (("member", "--family", "alpha", "--alpha", "0.5", "--mu", "0.5",
      "--coeffs", "1e200,1e200"), "--coeffs"),
], ids=["operator-nan", "operator-overflow", "invert-nan", "invert-closed-overflow",
        "invert-overflow", "member-nan", "member-overflow"])
def test_non_finite_input_or_result_is_usage_error(capsys, argv, flag):
    assert flag in assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("argv,flag", [
    (("bound", "--family", "alpha", "--alpha", "0.5", "--beta", "0.3"), "--beta"),
    (("falsify", "--family", "beta", "--beta", "0.5", "--alpha", "1", "-n", "10"),
     "--alpha"),
    (("invert", "--a2", "1", "--coeffs", "2,3"), "--a2"),
    (("invert", "--coeffs", "2,3", "--a4", "0"), "--a4"),
    (("invert", "--a2", "1", "--order", "5"), "--order"),
], ids=["other-shape-flag", "other-shape-flag-beta", "a2-with-coeffs", "a4-with-coeffs",
        "order-without-coeffs"])
def test_flags_that_would_be_ignored_are_usage_errors(capsys, argv, flag):
    assert flag in assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("message", ["Unable to allocate 14.6 TiB for an array", ""])
def test_out_of_memory_is_usage_error(capsys, monkeypatch, message):
    def falsify(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(cli, "falsify", falsify)
    line = assert_usage_error(capsys, "falsify", "--family", "beta", "--beta",
                              "0.5", "-n", "1000000000000")
    assert line.startswith("bicoef: out of memory: ") and line.endswith(message or "no detail")


def test_config_setting_both_shapes_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = alpha\nalpha = 0.5\nbeta = 0.3\n")
    assert "--beta" in assert_usage_error(capsys, "bound", "--config", str(cfg))


def test_config_family_outside_choices_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = gamma\nbeta = 0.5\n")
    assert "--family" in assert_usage_error(capsys, "bound", "--config", str(cfg))


@pytest.mark.parametrize("command,text,name", [
    ("bound", "family = alpha\nalpha = 1\nlamda = 2\n", "--lamda"),
    ("bound", "family = alpha\nalpha = 1\nseed = 3\n", "--seed"),
    ("bound", "family = alpha\nalpha = one\n", "--alpha"),
    ("bound", "family = alpha\nalpha = 1\njson = maybe\n", "--json"),
    ("bound", "config = other.cfg\nfamily = alpha\nalpha = 1\n", "'config = other.cfg'"),
    ("invert", "coeffs = 0.1,,0.05\n", "argument --coeffs"),
], ids=["typo-key", "key-the-subcommand-lacks", "bad-float", "bad-switch",
        "nested-config", "empty-coeffs-field"])
def test_bad_config_key_or_value_is_usage_error(tmp_path, capsys, command, text, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert name in assert_usage_error(capsys, command, "--config", str(cfg))


def test_unknown_flag_is_usage_error(capsys):
    assert "--nope" in assert_usage_error(
        capsys, "bound", "--family", "alpha", "--alpha", "1", "--nope")


def test_missing_subcommand_is_usage_error(capsys):
    assert "command" in assert_usage_error(capsys)


def test_config_without_a_path_is_usage_error(capsys):
    assert "--config" in assert_usage_error(capsys, "bound", "--config")


@pytest.mark.parametrize("argv", [
    ("bound", "--family", "beta", "--beta", "0.5"),
    ("falsify", "--family", "beta", "--beta", "0.5", "-n", "10"),
], ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report"
    assert str(target) in assert_usage_error(capsys, *argv, "--out", str(target))


@pytest.mark.parametrize("argv", [("--version",), ("bound", "-h")])
def test_help_and_version_exit_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and not err


@pytest.mark.parametrize("argv", [["corollary-check", "--json"], ["--version"],
                                  ["bound", "-h"]], ids=["json", "version", "help"])
def test_closed_stdout_exits_141_with_empty_stderr(argv):
    # the reader of stdout is gone before the CLI writes, as with `| head -c 0`;
    # argparse writes -h and --version itself
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(_cli_argv(*argv), stdout=write_end, stderr=subprocess.PIPE,
                              env=_cli_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = alpha\nalpha = 1\nlambda = 1\nmu = 1\n# comment\n")
    code, out, _ = run(capsys, "bound", "--config", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["a2_bound"] == pytest.approx(0.816497, abs=1e-6)


def test_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = alpha\nalpha = 0.5\n")
    code, out, _ = run(capsys, "bound", "--config", str(cfg),
                       "--alpha", "1", "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == 1.0


def test_config_switch_and_required_flag(tmp_path, capsys):
    flags = run(capsys, "operator", "--coeffs=-0.5,0.25", "--json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coeffs = -0.5,0.25\njson = true\n")
    assert run(capsys, "operator", "--config", str(cfg)) == flags
    assert json.loads(flags[1])["coeffs"][1] == [-1.0, 0.0]  # (lam + mu) a2


def test_flag_beats_config_for_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coeffs = -0.5,0.25\n")
    assert (run(capsys, "operator", "--config", str(cfg), "--coeffs", "0.5")
            == run(capsys, "operator", "--coeffs", "0.5"))


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this line has no equals sign\n")
    line = assert_usage_error(capsys, "bound", "--config", str(cfg))
    assert "config error" in line and f"{cfg}:1" in line



@pytest.mark.parametrize("mu,a3_branch", [
    ("0", "mu-lt-1-min-arm-2"), ("0.5", "mu-lt-1-min-arm-2"),
    ("0.999", "mu-lt-1-min-arm-2"), ("1", "mu-ge-1"),
])
def test_huge_lambda_beta_bound_evaluates_only_the_arms_it_uses(capsys, mu, a3_branch):
    # the a3 sum squares lam + mu, which overflows here: mu >= 1 does not use
    # the sum, and below mu = 1 its first term is far under an ulp of its second
    argv = ("--family", "beta", "--beta", "0.5", "--lambda", "1e200", "--mu", mu)
    code, out, _ = run(capsys, "bound", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    b, lam, m = Fraction(0.5), Fraction(1e200), Fraction(float(mu))
    arm1, arm2, ge1 = a3_beta_arms_exact(b, lam, m)
    a3 = float(ge1 if m >= 1 else min(arm1, arm2))
    assert abs(payload["a3_bound"] - a3) <= 1e-15 * a3
    # the squared |a2| arms are about 1e-400, below the float range
    a2sq = min(a2sq_beta_arms_exact(b, lam, m))
    assert abs(Fraction(payload["a2_bound"]) ** 2 / a2sq - 1) <= 2e-15
    assert (payload["a2_branch"], payload["a3_branch"]) == ("min-arm-linear", a3_branch)
    code, out, _ = run(capsys, "falsify", *argv, "-n", "2000", "--json")
    assert code == 0 and json.loads(out)["violations"] == []


def test_out_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "bound", "--family", "beta", "--beta", "0.5",
                     "--json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["a2_bound"] > 0


# ---------------------------------------------------------------- fuzzing

_COMMANDS = ("bound", "invert", "operator", "member", "falsify", "extremal",
             "corollary-check")
_FLAGS = ("-h", "--help", "--version", "--json", "--out", "--config", "--family",
          "--alpha", "--beta", "--lambda", "--mu", "--a2", "--a3", "--a4",
          "--coeffs", "--order", "--radii", "--angles", "--tol", "-n",
          "--samples", "--filter", "--atoms", "--seed", "--objective",
          "--budget", "--which")
# the values of the choice flags, so that well-formed commands come up too
_WORDS = ("alpha", "beta", "modulus", "toeplitz", "a2", "a3", "all", "c1")
_VALUES = ("-1", "0", "1", "2", "0.5", "nan", "inf", "1e308", "x", "")
_TOKENS = _COMMANDS + _FLAGS + _WORDS + _VALUES


@settings(max_examples=300, deadline=None)
@given(argv=st.builds(lambda head, rest: head + rest,
                      st.lists(st.sampled_from(_COMMANDS), max_size=1),
                      st.lists(st.sampled_from(_TOKENS), max_size=10)))
def test_main_never_raises_and_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:   # --out writes relative paths
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 1:   # a violated invariant: only these handlers report one
        assert argv[0] in ("falsify", "extremal", "corollary-check")
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bicoef: ")
