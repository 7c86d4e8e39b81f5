import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from lv3 import analysis, cli, flow
from lv3.cli import (
    CSV_CHUNK_ROWS,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _fmt,
    emit_csv,
    main,
    parse_args,
    parse_slice,
)
from lv3.darboux import log_integral_value, named_integral_specs
from lv3.rng import SplitMix64
from lv3.params import ParamVector
from conftest import (
    cpython_only,
    interior_point,
    jacobian,
    rand_interior_point,
    rand_params,
    spectrum_gap,
)
from golden_sweep import read_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classify_line(capsys):
    code, out = run_cli(capsys, "classify", "--k", "2,1,2,1")
    assert code == EXIT_OK
    assert out == "PS+ ∩ S+  discriminant=3\n"


def test_classify_zero_vector_fails(capsys):
    code, _ = run_cli(capsys, "classify", "--k", "0,0,0,0")
    assert code == EXIT_FAIL


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as err:
        parse_args(["unknown-command"])
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        parse_args(["integrate", "--k", "1,1,1,1"])  # missing --p0/--t
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        parse_args(["classify", "--k", "1,1,1"])  # malformed k
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        parse_args(["classify", "--k", "1,1,1,1", "--no-such-flag"])
    assert err.value.code == EXIT_USAGE


def test_parse_args_defaults_and_backward():
    cfg = parse_args(["integrate", "--k", "1,1,1,1", "--p0", "0.1,0.1,0.1", "--t", "5",
                      "--backward", "--monitor", "H,V"])
    assert cfg.command == "integrate"
    assert cfg.t_end == -5.0
    assert cfg.monitor == ("H", "V")
    assert cfg.fmt == "csv"
    cfg = parse_args(["limit-set", "--k", "1,1,1,1", "--p0", "0.2,0.2,0.2"])
    assert not hasattr(cfg, "fmt")
    assert not hasattr(cfg, "seed")


# a valid invocation of each subcommand and the common flags it reads
COMMON_FLAGS = {"--out": "x.txt", "--seed": "1", "--format": "json", "--tol-rel": "1e-3",
                "--tol-abs": "1e-3"}
FLAGS_READ = {
    "classify --k 2,1,2,1": ("--out",),
    "equilibria --k 2,1,2,1": ("--out",),
    "darboux --k 2,1,2,1": ("--out",),
    "match --k 2,1,2,1 --x0 0.2": ("--out",),
    "integrate --k 2,1,2,1 --p0 0.2,0.2,0.2 --t 1": ("--out", "--format", "--tol-rel",
                                                     "--tol-abs"),
    "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.2": ("--out", "--tol-rel", "--tol-abs"),
    "period-profile --k 2,3,3,2 --n 1": ("--out", "--tol-rel", "--tol-abs"),
    "scan --slice 2,t,2,t --range 1,2 --steps 1": ("--out", "--tol-rel", "--tol-abs"),
    "verify-a --k 2,3,3,2 --samples 1": ("--out", "--seed", "--tol-rel", "--tol-abs"),
    "verify-b --k 2,1,2,1 --samples 1": ("--out", "--seed", "--tol-rel", "--tol-abs"),
    "portrait --k 2,3,3,2 --n 1": ("--out", "--seed", "--tol-rel", "--tol-abs"),
}
FLAGS_NOT_READ = [(argv, flag, COMMON_FLAGS[flag]) for argv, read in FLAGS_READ.items()
                  for flag in COMMON_FLAGS if flag not in read]


@pytest.mark.parametrize("argv", list(FLAGS_READ))
def test_each_subcommand_takes_the_common_flags_it_reads(argv):
    extra = [token for flag in FLAGS_READ[argv] for token in (flag, COMMON_FLAGS[flag])]
    cfg = parse_args(argv.split() + extra)
    assert cfg.out == "x.txt"


@pytest.mark.parametrize("argv, flag, value", FLAGS_NOT_READ + [
    ("verify-a --k 2,3,3,2 --samples 1", "--format", "csv"),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as err:
        main(argv.split() + [flag, value])
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


# a negative value of each comma-list option, as two tokens and attached
NEGATIVE_LISTS = [
    ("equilibria --k -2,-3,-3,-2 --spectrum", "equilibria --k=-2,-3,-3,-2 --spectrum"),
    ("integrate --k -2,-3,-3,-2 --p0 -0.0,0.3,0.3 --t 2",
     "integrate --k=-2,-3,-3,-2 --p0=-0.0,0.3,0.3 --t 2"),
    ("period-profile --k -2,-3,-3,-2 --dir -0.1,0.05,0.05 --n 2",
     "period-profile --k=-2,-3,-3,-2 --dir=-0.1,0.05,0.05 --n 2"),
    ("scan --slice -2,t,-2,s --range -3,-1 --steps 2 --range2 -3,-1 --steps2 2",
     "scan --slice=-2,t,-2,s --range=-3,-1 --steps 2 --range2=-3,-1 --steps2 2"),
]


@pytest.mark.parametrize("spaced, attached", NEGATIVE_LISTS)
def test_negative_list_value_reads_like_the_attached_spelling(capsys, spaced, attached):
    code, out = run_cli(capsys, *spaced.split())
    code_attached, out_attached = run_cli(capsys, *attached.split())
    assert code == code_attached == EXIT_OK
    assert out == out_attached


def test_negative_base_parses_like_the_attached_spelling():
    cfg = parse_args(["period-profile", "--k", "2,3,3,2", "--base", "-0.0,0.5,0.5"])
    assert vars(cfg) == vars(parse_args(["period-profile", "--k", "2,3,3,2",
                                         "--base=-0.0,0.5,0.5"]))
    # a comma list never passes for an option string, not even after a flag
    cfg = parse_args(["equilibria", "--spectrum", "--k", "-2,-3,-3,-2"])
    assert cfg.spectrum and tuple(cfg.k) == (-2.0, -3.0, -3.0, -2.0)
    # any option takes such a value, not only the numeric lists
    assert parse_args(["classify", "--k", "2,1,2,1", "--out", "-a,b"]).out == "-a,b"


@pytest.mark.parametrize("argv", [
    "verify-a --k 2,3,3,2 --samples 0",
    "verify-a --k 2,3,3,2 --samples -3",
    "verify-b --k 2,1,2,1 --samples 0",
    "period-profile --k 2,3,3,2 --n 0",
    "portrait --k 2,3,3,2 --n -2",
    "scan --slice 2,t,2,t --range 1,2 --steps -1",
    "scan --slice 2,t,2,s --range 1,2 --steps 2 --range2 1,2 --steps2 0",
])
def test_nonpositive_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a positive count" in captured.err


@pytest.mark.parametrize("argv", [
    "integrate --k 1,1,1,1 --p0 0.2,0.2,0.2 --t 1 --tol-rel nan",
    "integrate --k 1,1,1,1 --p0 0.2,0.2,0.2 --t 1 --tol-abs inf",
    "integrate --k 1,1,1,1 --p0 0.2,0.2,0.2 --t nan",
    "integrate --k 1,1,1,1 --p0 0.2,0.2,0.2 --t inf",
    "verify-a --k 2,3,3,2 --samples 2 --horizon nan",
    "limit-set --k 2,3,3,2 --p0 0.2,0.2,0.2 --horizon inf",
    "limit-set --k 2,3,3,2 --p0 nan,0.2,0.2",
    "period-profile --k 2,3,3,2 --dir 0,-inf,0",
    "scan --slice 2,t,2,t --range nan,2 --steps 2",
    "match --k 2,1,2,1 --x0 nan",
])
def test_nonfinite_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        parse_args(argv.split())
    assert err.value.code == EXIT_USAGE
    assert "finite number" in capsys.readouterr().err


def test_step_underflow_is_a_failure_not_a_traceback():
    # the step floor is 1e-14 of the span, so the first step underflows
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = "integrate --k 1,1,1,1 --p0 0.2,0.2,0.2 --t 1e300".split()
    done = subprocess.run([sys.executable, "-m", "lv3.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == EXIT_FAIL
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("lv3: step ") and "below floor" in done.stderr


@pytest.mark.parametrize("argv", [
    "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 100",
    "portrait --k 2,3,3,2 --n 2 --t 100",
], ids=lambda argv: argv.split()[0])
def test_an_exhausted_step_budget_is_a_failure_not_a_traceback(capsys, monkeypatch, argv):
    monkeypatch.setattr(flow, "MAX_ACCEPTED_STEPS", 50)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err == "lv3: accepted-step budget 50 exhausted\n"


@pytest.mark.parametrize("argv", [
    "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.2 --horizon 1e300",
    "scan --slice 2,t,2,t --range 1,2 --steps 2 --horizon 1e300",
    "verify-b --k 2,1,2,1 --samples 2 --horizon 1e300",
], ids=lambda argv: argv.split()[0])
def test_probe_step_underflow_is_a_failure(capsys, argv):
    # a probe's step underflow fails as integrate's does, not as inconclusive
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err.startswith("lv3: step ") and "below floor" in captured.err


def test_unknown_monitor_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["integrate", "--k", "2,3,3,2", "--p0", "0.2,0.2,0.2", "--t", "1",
              "--monitor", "H,Q"])
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown integral: H,Q" in captured.err


def test_repeated_monitor_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["integrate", "--k", "2,1,2,1", "--p0", "0.2,0.2,0.2", "--t", "1",
              "--monitor", "H,H"])
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "twice" in captured.err


@pytest.mark.parametrize("argv", [
    "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 1 --monitor H,H",
    "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 1 --monitor Q",
    "scan --slice foo,1,1,1 --range 1,2 --steps 2",
    "scan --slice 2,t,s,t --range 1,2 --steps 2",
    "scan --slice 2,t,2,t --range 1,2 --steps 2 --range2 1,2",
], ids=["monitor-twice", "monitor-unknown", "slice-name", "s-without-range2",
        "range2-without-s"])
def test_usage_errors_after_parsing_name_the_subcommand(capsys, argv):
    # the checks parse_args makes itself print what argparse prints for a
    # malformed value of the same subcommand: its usage, then its error line
    command = argv.split()[0]
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == EXIT_USAGE
    ours = capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv.replace("--range 1,2", "--range 1").replace("--t 1", "--t 0").split())
    assert err.value.code == EXIT_USAGE
    argparse_own = capsys.readouterr()
    assert ours.out == argparse_own.out == ""
    assert ours.err.startswith(f"usage: lv3 {command} [-h]")
    assert ours.err.partition(f"\nlv3 {command}: error: ")[0] == \
        argparse_own.err.partition(f"\nlv3 {command}: error: ")[0]
    assert ours.err.count("\n") == argparse_own.err.count("\n")


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_monitor_columns_are_bitwise_the_single_point_form(capsys, backward):
    # the monitors stay those of k on a backward run (the flow of -k)
    rng = SplitMix64(77)
    k = rand_params(rng, signs="positive")
    p0 = rand_interior_point(rng)
    argv = ["integrate", "--k", ",".join(map(repr, k)), "--p0", ",".join(map(repr, p0)),
            "--t", "30", "--monitor", "V,H", "--format", "json", *(["--backward"] * backward)]
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    specs = named_integral_specs(k)
    assert len(records) > 50 and all(len(rec) == 6 for rec in records)
    for rec in records:
        state = (rec["x"], rec["y"], rec["z"])
        for name in ("H", "V"):
            assert rec[f"log{name}"].hex() == log_integral_value(specs[name], state).hex()


def test_integrate_without_monitor_takes_no_logarithm(capsys, monkeypatch):
    def no_log(value):
        raise AssertionError("a logarithm was taken")

    monkeypatch.setattr(math, "log", no_log)
    code, out = run_cli(capsys, "integrate", "--k", "2,3,3,2", "--p0", "0.2,0.2,0.2", "--t", "3")
    assert code == EXIT_OK and out.startswith("t,x,y,z\n")


def test_integrate_csv_output(capsys):
    code, out = run_cli(capsys, "integrate", "--k", "1,1,1,1", "--p0", "0.1,0.1,0.1",
                        "--t", "1", "--monitor", "H,V")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,z,logH,logV"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.1)
    # 17 significant digits: values round-trip exactly
    assert float(first[4]) == pytest.approx(-4.605170185988091, abs=1e-14)


def test_integrate_json_output(capsys):
    code, out = run_cli(capsys, "integrate", "--k", "1,1,1,1", "--p0", "0.1,0.1,0.1",
                        "--t", "0.5", "--format", "json")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0]["t"] == 0
    for record in records:
        assert list(record) == sorted(record)


@pytest.mark.xfail(strict=True, reason="w = 1-x-y-z is the cancellation 1 - (x + y + z) in the "
                   "state: backward along the face x+y+z = 1 its rounding error grows like "
                   "e^(9*integral of z) and leaves the simplex by 1e-9 at t=-2.03; mending it "
                   "must remove this mark")
def test_backward_run_along_the_face_edge_stays_on_it(capsys):
    # the start lies on the invariant edge x = 0, x+y+z = 1, and the exact
    # orbit stays on it; today the run exits 1 with a simplex violation
    code, out = run_cli(capsys, "integrate", "--k", "1,3,9,3", "--p0", "0,0.5,0.5", "--t", "5",
                        "--backward")
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert rows and all(float(row.split(",")[1]) == 0.0 for row in rows)


@pytest.mark.xfail(strict=True, reason="the faces x, y, z = 0 hold exactly, as each field "
                   "component carries its coordinate as a factor, but w = 1-x-y-z is no state "
                   "and the face w = 0 holds only to rounding, which w' = w*(k4*x - k3*z) "
                   "amplifies until the run leaves the simplex by 1e-9; mending it must remove "
                   "this mark")
@pytest.mark.parametrize("argv", [
    "integrate --k 2,3,3,2 --p0 0.2,0.2,0.6 --t 50",  # leaves at t=11.0052
    "integrate --k 2,3,3,2 --p0 0.2,0.2,0.6 --t 50 --backward",  # at t=8.07835
    "limit-set --k 2,3,3,2 --p0 0.2,0.2,0.6",  # at t=11.5616
    "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.6 --alpha",  # at t=11.3262
    "limit-set --k 2,3,3,2 --p0 0.6,0.2,0.2",  # at t=60.2548
], ids=["integrate", "integrate-backward", "limit-set", "limit-set-alpha", "limit-set-late"])
def test_a_run_from_the_face_stays_on_it(capsys, argv):
    # the start lies on the invariant face x+y+z = 1; today each run exits 1
    # with a simplex violation.  A probe's verdict there is not known, so a
    # limit set passes with any exit but the failure
    code, out = run_cli(capsys, *argv.split())
    if argv.startswith("limit-set"):
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE) and out
        return
    assert code == EXIT_OK
    rows = [[float(cell) for cell in row.split(",")] for row in out.strip().splitlines()[1:]]
    assert rows and all(abs(((x + y) + z) - 1.0) <= 1e-9 for _, x, y, z in rows)


def test_cli_determinism_byte_identical(capsys):
    args = ("verify-b", "--k", "2,1,2,1", "--samples", "3", "--seed", "7")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_limit_set_exit_codes(capsys):
    code, out = run_cli(capsys, "limit-set", "--k", "2,1,2,1", "--p0", "0.2,0.2,0.2",
                        "--alpha")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["direction"] for r in records] == ["omega", "alpha"]
    assert records[0]["kind"] == "point-on-s_py"
    code, _ = run_cli(capsys, "limit-set", "--k", "2,1,2,1", "--p0", "0.2,0.2,0.2",
                      "--horizon", "1")
    assert code == EXIT_INCONCLUSIVE


def test_limit_set_leaving_the_simplex_is_a_failure(capsys):
    # loose tolerances carry this orbit off the simplex at t=20.815
    code, out = run_cli(capsys, "limit-set", "--k", "2,1,2,1", "--p0", "0.001,0.5,0.3",
                        "--tol-rel", "1e-3", "--tol-abs", "1e-3")
    assert code == EXIT_FAIL
    assert out == ""


def test_verify_a_cli(capsys):
    code, out = run_cli(capsys, "verify-a", "--k", "2,3,3,2", "--samples", "3")
    assert code == EXIT_OK
    report = json.loads(out.strip().splitlines()[0])
    assert report["part"] == "a"
    assert report["passed"] is True


def test_verify_b_cli_mismatch(capsys):
    code, out = run_cli(capsys, "verify-b", "--k", "2,3,3,2", "--samples", "2")
    assert code == EXIT_FAIL
    assert json.loads(out.strip())["status"] == "hypothesis-mismatch"


def test_match_cli_near_a_vertex_reports_no_match(capsys):
    # both far leaf roots lie within MATCH_TOL of the vertex (1, 0, 0): x1
    # rounds to it, x2 is 1.1e-15 away from it
    code, out = run_cli(capsys, "match", "--k", "2,1,2,1", "--x0", "1e-30")
    report = json.loads(out)
    assert code == EXIT_OK and not report["matched"]
    assert (report["x1"], report["x2"]) == (1.0, 0.9999999999999989)


def test_match_cli(capsys):
    code, out = run_cli(capsys, "match", "--k", "2,3,3,2", "--x0", "0.2")
    assert code == EXIT_OK
    record = json.loads(out.strip())
    assert record["matched"] is True
    assert record["x1"] == record["x2"]


def test_equilibria_cli(capsys):
    code, out = run_cli(capsys, "equilibria", "--k", "2,3,3,2", "--spectrum")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    sets = [r["set"] for r in records]
    assert "R_py_edge" in sets and "R_xz_edge" in sets
    assert "s_py" in sets and "R_interior" in sets
    spectra = [r for r in records if r.get("kind") == "spectrum"]
    assert spectra
    center = [r for r in spectra if r["set"] == "R_interior"]
    assert all(r["classification"] == "center-type" for r in center)


def test_equilibria_spectrum_over_eleven_decades_of_k_matches_numpy(capsys):
    # a center-regime k whose components span 1e-3 to 2e8: a root-finding
    # self-check once failed this valid input with exit 1 (absolute mismatch
    # 1.5e-8); numpy's eigenvalues of the Jacobian agree to a relative 1e-8
    k = ParamVector(0.001235672288121538, 274.12532210871854, 197279537.8960274,
                    889.2752268061654)
    code, out = run_cli(capsys, "equilibria", "--k", ",".join(map(repr, k)), "--spectrum")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    center = [r for r in records if r["set"] == "R_interior" and r.get("kind") == "spectrum"]
    assert len(center) == 5
    for r in center:
        eigenvalues = [complex(*w) for w in r["eigenvalues"]]
        gap = spectrum_gap(eigenvalues, jacobian(k, interior_point(k, r["z"])))
        assert gap <= 1e-8 * max(map(abs, eigenvalues))


def test_equilibria_cli_reports_fully_singular_sets(capsys):
    code, out = run_cli(capsys, "equilibria", "--k", "0,1,1,1")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    extra = [r for r in records if r["set"] == "fully-singular"]
    assert extra and "R_pz" in extra[0]["labels"]


def test_darboux_cli(capsys):
    code, out = run_cli(capsys, "darboux", "--k", "2,3,3,2")
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    kinds = {r["record"] for r in records}
    assert kinds == {"surface", "kernel", "named-integral"}
    kernel = next(r for r in records if r["record"] == "kernel")
    assert len(kernel["basis"]) == 2
    surfaces = [r for r in records if r["record"] == "surface"]
    assert all(r["invariant"] and r["max_residual"] == 0.0 for r in surfaces)


def test_scan_cli(capsys):
    code, out = run_cli(capsys, "scan", "--slice", "2,t,2,t", "--range", "1.5,2.5",
                        "--steps", "5")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["probe_kind"] for r in rows] == [
        "point-on-s_py", "point-on-s_py", "periodic", "point-on-s_xz", "point-on-s_xz",
    ]


def test_scan_cli_two_parameter_slice(capsys):
    code, out = run_cli(capsys, "scan", "--slice", "s,t,s,t", "--range", "1,2",
                        "--steps", "2", "--range2", "2,2", "--steps2", "1",
                        "--horizon", "300")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    assert all(row["s"] == 2.0 for row in rows)


def test_scan_requires_range2_when_slice_uses_s():
    with pytest.raises(SystemExit) as err:
        parse_args(["scan", "--slice", "s,t,s,t", "--range", "1,2", "--steps", "2"])
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        parse_args(["scan", "--slice", "open('x'),1,1,1", "--range", "1,2", "--steps", "2"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("flags", ["--range2 1,2 --steps2 3", "--range2 1,2", "--steps2 1"])
def test_scan_rejects_a_second_range_when_slice_has_no_s(capsys, flags):
    # without s no second grid is read, so the flags would be ignored
    with pytest.raises(SystemExit) as err:
        main(f"scan --slice 2,t,2,t --range 1,2 --steps 2 {flags}".split())
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--range2 and --steps2 need a slice that uses the variable s" in captured.err
    # with s, --steps2 defaults to 1
    cfg = parse_args("scan --slice 2,t,2,s --range 1,2 --steps 2 --range2 1,2".split())
    assert cfg.s_steps == 1


def test_scan_parses_its_slice_once(capsys, monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_slice(text)

    monkeypatch.setattr(cli, "parse_slice", counted)
    code, out = run_cli(capsys, *"scan --slice 2,t,s,t --range 1,2 --steps 2 --range2 1,2".split())
    assert code == EXIT_OK and len(out.splitlines()) == 2
    assert calls == ["2,t,s,t"]


def test_parse_slice_rejects_junk():
    with pytest.raises(ValueError):
        parse_slice("1,2,3")
    with pytest.raises(ValueError):
        kfunc, _ = parse_slice("__import__('os'),1,1,1")
    kfunc, uses_s = parse_slice("2*t, t**2, -t, (t+1)/2")
    assert not uses_s
    assert tuple(kfunc(2.0)) == (4.0, 4.0, -2.0, 1.5)


def test_period_profile_cli(capsys):
    code, out = run_cli(capsys, "period-profile", "--k", "1,1,1,1", "--n", "4",
                        "--inner", "0.02", "--outer", "0.17")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    summary = rows[-1]
    assert summary["strictly_increasing"] is True
    assert summary["n_conclusive"] == 4


def test_portrait_cli(capsys):
    code, out = run_cli(capsys, "portrait", "--k", "2,3,3,2", "--n", "2", "--t", "1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "traj,t,x,y,z"
    assert {line.split(",")[0] for line in lines[1:]} == {"0", "1"}


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["classify", "--k", "2,1,2,1", "--out", str(target)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert target.read_text() == "PS+ ∩ S+  discriminant=3\n"


def test_io_error_exit_code(tmp_path, capsys):
    code = main(["classify", "--k", "2,1,2,1", "--out", str(tmp_path)])  # a directory
    capsys.readouterr()
    assert code == EXIT_IO
    code = main(["classify", "--k", "2,1,2,1", "--out", str(tmp_path / "no" / "x.txt")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("lv3: i/o error: ")


def test_a_missing_out_directory_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def harness(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(analysis, "verify_theorem_a", harness)
    target = tmp_path / "no" / "x"
    with pytest.raises(OSError) as opened:
        open(target, "w")
    assert main(["verify-a", "--k", "2,3,3,2", "--samples", "20", "--out", str(target)]) == EXIT_IO
    assert capsys.readouterr().err == f"lv3: i/o error: {opened.value}\n"
    assert not target.parent.exists()


def test_integrate_out_file_has_the_stdout_bytes(tmp_path, capsys):
    # T=400 gives more rows than one CSV chunk holds
    argv = "integrate --k 1,1,1,1 --p0 0.2,0.25,0.22 --t 400 --monitor H,V".split()
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK and out.count("\n") > 1 + CSV_CHUNK_ROWS
    target = tmp_path / "out.csv"
    assert main([*argv, "--out", str(target)]) == EXIT_OK
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv, budget", [
    # loose tolerances carry this orbit off the simplex at t=20.8153
    ("integrate --k 2,1,2,1 --p0 0.001,0.5,0.3 --t 50 --tol-rel 1e-3 --tol-abs 1e-3", None),
    ("portrait --k 2,3,3,2 --n 2 --t 100", 50),
], ids=["integrate", "portrait"])
def test_a_failed_run_leaves_the_out_file_as_it_was(tmp_path, capsys, monkeypatch, argv, budget):
    if budget is not None:
        monkeypatch.setattr(flow, "MAX_ACCEPTED_STEPS", budget)
    kept, absent = tmp_path / "q.csv", tmp_path / "new.csv"
    kept.write_bytes(b"keep")
    for target in (kept, absent):
        assert main([*argv.split(), "--out", str(target)]) == EXIT_FAIL
        assert capsys.readouterr().out == ""
    assert kept.read_bytes() == b"keep"
    assert not absent.exists()


def test_reports_that_fail_are_still_written_to_the_out_file(tmp_path, capsys):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"keep")
    argv = ["verify-b", "--k", "2,3,3,2", "--samples", "2"]
    code, out = run_cli(capsys, *argv)
    assert main([*argv, "--out", str(target)]) == code == EXIT_FAIL
    assert target.read_text() == out != ""
    argv = ["limit-set", "--k", "2,1,2,1", "--p0", "0.2,0.2,0.2", "--horizon", "1"]
    code, out = run_cli(capsys, *argv)
    assert main([*argv, "--out", str(target)]) == code == EXIT_INCONCLUSIVE
    assert target.read_text() == out != ""


def test_emit_empty_report_is_header_only():
    buffer = io.StringIO()
    emit_csv(["a", "b"], [], buffer)
    assert buffer.getvalue() == "a,b\n"


def test_csv_cells_read_as_fmt_gives_them():
    # all-float rows of one width, as every command writes them (portrait's
    # trajectory index is a float too); 2.0**60 prints all its digits
    rows = [
        (0.0, -0.0, 5e-324, math.nan),
        [3.0, 1.0 / 3.0, -0.0, 1.7976931348623157e308],
        [-2.5e-300, math.inf, -math.inf, 2.0**60],
    ]
    buffer = io.StringIO()
    emit_csv(["a"], rows, buffer)
    assert buffer.getvalue() == "a\n" + "".join(",".join(map(_fmt, r)) + "\n" for r in rows)


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.lines_per_write = []

    def write(self, text):
        self.lines_per_write.append(text.count("\n"))
        return super().write(text)


@pytest.mark.parametrize("first", [0.5, 7.0], ids=["all-float", "index-first"])
def test_csv_rows_are_written_one_chunk_per_write(first):
    rows = [(first, i / 3.0, -0.0) for i in range(2 * CSV_CHUNK_ROWS + 1)]
    buffer = _CountingStream()
    emit_csv(["a", "b", "c"], rows, buffer)
    assert buffer.lines_per_write == [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS, 1]
    assert buffer.getvalue() == "a,b,c\n" + "".join(",".join(map(_fmt, r)) + "\n" for r in rows)


# sha256 of stdout and the exit code of fast invocations, read from the
# table of tests/golden_sweep.py (each row's name is its former key here).
# No float sum() sets an output bit any more: lv3.flow adds left to right
# from 0.0, which is how sum() rounds on CPython 3.11 but not from 3.12 on.
# The digests hold on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 (checked
# there with no numpy installed, since lv3 does not import it), so the test
# runs on every CPython.  integrate-long has the shape of the benchmark's
# integrate invocations.
GOLDEN_NAMES = (
    "integrate-forward", "integrate-long", "integrate-json", "integrate-backward",
    "limit-set-alpha", "limit-set-omega", "scan", "period-profile", "portrait", "verify-a",
    "verify-b", "verify-a-part-b", "verify-a-part-b-not-ps", "verify-b-mismatch",
    "verify-b-edge-saddle", "equilibria-spectrum", "darboux", "match", "classify",
)
GOLDEN_STDOUT = {name: (row["argv"], int(row["exit"]), row["stdout_sha256"])
                 for name, row in read_table().items() if name in GOLDEN_NAMES}


@cpython_only
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_cli_stdout_is_byte_identical_to_golden(capsys, name):
    argv, exit_code, digest = GOLDEN_STDOUT[name]
    code, out = run_cli(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once_and_not_at_import():
    assert _build_parser() is _build_parser()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import lv3.cli; print(lv3.cli._build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


@cpython_only
def test_invocations_on_one_parser_carry_no_state(capsys):
    # a usage error after a backward parse, then a backward and a forward
    # run, each as its own process would give them
    _build_parser.cache_clear()
    with pytest.raises(SystemExit) as err:
        main("integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 5 --backward --monitor H,H".split())
    assert err.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""
    for name in ("integrate-backward", "integrate-forward"):
        argv, exit_code, digest = GOLDEN_STDOUT[name]
        code, out = run_cli(capsys, *argv.split())
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert _build_parser.cache_info().misses == 1


def test_cli_import_does_not_load_numpy():
    # lv3 has no runtime dependency: numpy is only the tests' oracle
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, lv3.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
