import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from lv3.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    _fmt,
    emit_csv,
    main,
    parse_args,
    parse_slice,
)
from conftest import cpython_only


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
    from lv3.cli import EXIT_IO

    code = main(["classify", "--k", "2,1,2,1", "--out", str(tmp_path)])  # a directory
    capsys.readouterr()
    assert code == EXIT_IO


def test_emit_empty_report_is_header_only():
    buffer = io.StringIO()
    emit_csv(["a", "b"], [], buffer)
    assert buffer.getvalue() == "a,b\n"


def test_csv_cells_read_as_fmt_gives_them():
    # rows in the two layouts the commands write (all floats; an int column
    # first) and one mixed row; an int past 1e17 shows an int is not %g-formatted
    rows = [
        (0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 0.1, -2.5e-300),
        [3, 1.0 / 3.0, -0.0, 1.7976931348623157e308],
        [12345678901234567890, math.nan, -math.inf, 2.0**60],
        (1.5, 2, True, None, "s"),
    ]
    buffer = io.StringIO()
    emit_csv(["a"], rows, buffer)
    assert buffer.getvalue() == "a\n" + "".join(",".join(map(_fmt, r)) + "\n" for r in rows)


# sha256 of stdout and the exit code, pinned for fast invocations.  No float
# sum() sets an output bit any more: lv3.flow adds left to right from 0.0,
# which is how sum() rounds on CPython 3.11 but not from 3.12 on.  The
# digests hold on CPython 3.11.7, 3.12.1 and 3.13.0 (checked there with no
# numpy installed, since lv3 does not import it), so the test runs on every
# CPython.  integrate-long has the shape of the benchmark's integrate
# invocations.
GOLDEN_STDOUT = {
    "integrate-forward": (
        "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 3 --monitor H,V", EXIT_OK,
        "a026752b257d9a1e9280c067b757dc1e641e301b135c3fd824c60ed98050c7fa"),
    "integrate-long": (
        "integrate --k 1,1,1,1 --p0 0.2,0.25,0.22 --t 250 --monitor H,V", EXIT_OK,
        "d23844e62d45456733163c5b64edb11c378d6e33a41ffb6379a11bab9c83f952"),
    "integrate-json": (
        "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 3 --monitor H,V --format json", EXIT_OK,
        "a36e70380631da8e6813e8e1de86875f67ab3ef8570fc3b7f98e26ef4cfdd224"),
    "integrate-backward": (
        "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 5 --backward --monitor H,V", EXIT_OK,
        "41c93040fe15533b5fb67a87519c4d7508d002cce72405d8c6a1dc9934998e30"),
    "limit-set-alpha": (
        "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.2 --alpha", EXIT_OK,
        "3db7fbfa3b93b2005fd1ca761327b0ce0eb7af432d8d12be80b9a3217b89dd1f"),
    # center-regime probes step with the eighth-order pair and locate
    # crossings on its seventh-order interpolant: the same kinds and
    # verdicts as the fifth-order probes, other digits (the period of
    # limit-set-omega was 5.333659910622081, now 5.333659910644775)
    "limit-set-omega": (
        "limit-set --k 2,3,3,2 --p0 0.2,0.2,0.2", EXIT_OK,
        "57b961431f34d913a4ec08b38c7ef7e4572b66bb7b8d46cd5a10fff8d2bd7a6a"),
    "scan": (
        "scan --slice 2,t,2,t --range 1.5,2.5 --steps 5", EXIT_OK,
        "826beca62f782ad469dcfd815b105268d9c65a15f8f7d1321b67d2f029f2fe20"),
    "period-profile": (
        "period-profile --k 2,3,3,2 --n 5", EXIT_OK,
        "68601e3dbcab99c058ecaf63767e55e5f679b0c6c7d57aae29c194ce9100747b"),
    "portrait": (
        "portrait --k 1,1,1,1 --n 5 --t 20", EXIT_OK,
        "7f12f5547dcdd93c8d6e7184f49b602c4a0daee84ed84bd91f4a83220c832207"),
    # the periods come from eighth-order probes (worst_closure_error
    # 1.4531247723612617e-11, was 3.093128215147697e-11) and the drift from
    # an eighth-order run with relative error control (worst_drift
    # 7.425171588693047e-13, was 1.1795009413617663e-12 at tol_abs 1e-14)
    "verify-a": (
        "verify-a --k 2,3,3,2 --samples 8 --seed 5", EXIT_OK,
        "75e8856d950d00a47404cee13056b2d4d1c30cd1cf055e161a28fa5c34ef4e8c"),
    "verify-b": (
        "verify-b --k 2,1,2,1 --samples 4 --seed 9", EXIT_OK,
        "f4869f94d9e171caad8377b10660a8ac4454d7b6de48ec9e413e4d2166d3acc2"),
    "verify-a-part-b": (
        "verify-a --k 2,1,2,1 --samples 4 --seed 9", EXIT_OK,
        "5c13dde4f51b5d85f58aab81e870d2bb3ec23d04e89ca01217de184150f0c542"),
    "verify-a-part-b-not-ps": (
        "verify-a --k 1,-1,1,1 --samples 4 --seed 9", EXIT_OK,
        "37ab7c092ef302c92246a1e9601c9aa5267109414c2c89a61e168514692cdb0d"),
    "verify-b-mismatch": (
        "verify-b --k 2,3,3,2 --samples 2 --seed 9", EXIT_FAIL,
        "837b8202d1345271cdfdee6b197f433e070dfc51fac3066fc9657670e73d4ed1"),
    # sample 3 slows down next to a saddle-type point of R_py on its way to s_py
    "verify-b-edge-saddle": (
        "verify-b --k 2,1,2,1 --samples 4 --seed 1130267431", EXIT_OK,
        "687e767dae0ae099755dd6bd4a6a7402d8de200f037c3ab279717b03d88402a5"),
    "equilibria-spectrum": (
        "equilibria --k 2,3,3,2 --spectrum", EXIT_OK,
        "ca31b137073fb700c690c30754b96073dc53162ed935e5d21aedb97855818338"),
    "darboux": (
        "darboux --k 2,3,3,2", EXIT_OK,
        "ca48623e673d1dd24d084ba22ffb72710ccf78ddae45613891fb274e36b32d6e"),
    "match": (
        "match --k 2,1,2,1 --x0 0.2", EXIT_OK,
        "454820ea5f045d5ca40306cc9e17421112ccce29da5c7fd658c241e6b2436ed1"),
    "classify": (
        "classify --k 2,1,2,1", EXIT_OK,
        "2a27c0dce0f002d5f73f3745749187fd18767d9227e528f35e6e56571392aa24"),
}


@cpython_only
@pytest.mark.parametrize("name", list(GOLDEN_STDOUT))
def test_cli_stdout_is_byte_identical_to_golden(capsys, name):
    argv, exit_code, digest = GOLDEN_STDOUT[name]
    code, out = run_cli(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_import_does_not_load_numpy():
    # lv3 has no runtime dependency: numpy is only the tests' oracle
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, lv3.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
