"""Byte-and-verdict sweep of the lv3 command line.

Runs a fixed list of invocations in-process through lv3.cli.main and
records, per invocation, its exit code, the sha256 of its stdout and of its
stderr (argparse's usage block left out), and a short verdict: the kinds a probe or scan reports, a harness's
passed/n_fail, the certified integrals and kernel size of darboux, or the
first error line.  The table lives next to this script (golden_sweep.tsv),
one row per invocation, so a change that moves output shows up in its diff.

    python tests/golden_sweep.py --check    # exit 1 and list the rows that moved
    python tests/golden_sweep.py --update   # rewrite the table

Standard library only, so it runs on a bare interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from lv3.cli import main  # noqa: E402

TABLE = os.path.join(HERE, "golden_sweep.tsv")
COLUMNS = ("name", "exit", "stdout_sha256", "stderr_sha256", "verdict", "argv")

# on S-: D = -1.69e-14 although k3 was set from the other three
S_MINUS_K = "2.643722329286901,1.7125892680349137,1.4908217349913464,2.3013800117440235"
# on the center regime over eleven decades of scale
WIDE_CENTER_K = "0.001235672288121538,274.12532210871854,197279537.8960274,889.2752268061654"
# k3 = fl(k2*k4/k1): the float D is 0, the exact D of the floats is -3.1e-16
NEAR_S_K = "1.521,1.811,3.3279059829059827,2.795"
# the same k with k3 one part in 1e13 too large
OFF_S_K = "1.521,1.811,3.3279059829063,2.795"
FACE = "0.2,0.2,0.6"  # on the face x+y+z = 1

INVOCATIONS = (
    # the former GOLDEN_STDOUT rows of tests/test_cli.py
    ("integrate-forward", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 3 --monitor H,V"),
    ("integrate-long", "integrate --k 1,1,1,1 --p0 0.2,0.25,0.22 --t 250 --monitor H,V"),
    ("integrate-json", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 3 --monitor H,V --format json"),
    ("integrate-backward", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 5 --backward --monitor H,V"),
    ("limit-set-alpha", "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.2 --alpha"),
    # center-regime probes step with the eighth-order pair and locate
    # crossings on its seventh-order interpolant: the same kinds and
    # verdicts as the fifth-order probes, other digits (the period of
    # limit-set-omega was 5.333659910622081, now 5.333659910644775)
    ("limit-set-omega", "limit-set --k 2,3,3,2 --p0 0.2,0.2,0.2"),
    ("scan", "scan --slice 2,t,2,t --range 1.5,2.5 --steps 5"),
    ("period-profile", "period-profile --k 2,3,3,2 --n 5"),
    ("portrait", "portrait --k 1,1,1,1 --n 5 --t 20"),
    # the periods come from eighth-order probes (worst_closure_error
    # 1.4531247723612617e-11, was 3.093128215147697e-11) and the drift from
    # an eighth-order run with relative error control (worst_drift
    # 7.425171588693047e-13, was 1.1795009413617663e-12 at tol_abs 1e-14)
    ("verify-a", "verify-a --k 2,3,3,2 --samples 8 --seed 5"),
    ("verify-b", "verify-b --k 2,1,2,1 --samples 4 --seed 9"),
    ("verify-a-part-b", "verify-a --k 2,1,2,1 --samples 4 --seed 9"),
    ("verify-a-part-b-not-ps", "verify-a --k 1,-1,1,1 --samples 4 --seed 9"),
    ("verify-b-mismatch", "verify-b --k 2,3,3,2 --samples 2 --seed 9"),
    # sample 3 slows down next to a saddle-type point of R_py on its way to s_py
    ("verify-b-edge-saddle", "verify-b --k 2,1,2,1 --samples 4 --seed 1130267431"),
    ("equilibria-spectrum", "equilibria --k 2,3,3,2 --spectrum"),
    ("darboux", "darboux --k 2,3,3,2"),
    ("match", "match --k 2,1,2,1 --x0 0.2"),
    ("classify", "classify --k 2,1,2,1"),
    # classify
    ("classify-s-minus", f"classify --k {S_MINUS_K}"),
    ("classify-wide-center", f"classify --k {WIDE_CENTER_K}"),
    ("classify-near-s", f"classify --k {NEAR_S_K}"),
    ("classify-off-s", f"classify --k {OFF_S_K}"),
    ("classify-negative", "classify --k -2,-3,-3,-2"),
    ("classify-not-nz", "classify --k 0,1,2,0"),
    ("classify-overflow", "classify --k 1e200,1e200,2e200,1e200"),
    ("classify-zero", "classify --k 0,0,0,0"),
    # equilibria
    ("equilibria-spectrum-wide-center", f"equilibria --k {WIDE_CENTER_K} --spectrum"),
    ("equilibria-spectrum-off-s", "equilibria --k 2,1,2,1 --spectrum"),
    ("equilibria-spectrum-negative", "equilibria --k -2,-3,-3,-2 --spectrum"),
    ("equilibria-spectrum-near-s", f"equilibria --k {NEAR_S_K} --spectrum"),
    ("equilibria-not-ps", "equilibria --k 1,-1,1,1"),
    ("equilibria-fully-singular", "equilibria --k 0,1,2,0"),
    # darboux
    ("darboux-s-minus", f"darboux --k {S_MINUS_K}"),
    ("darboux-wide-center", f"darboux --k {WIDE_CENTER_K}"),
    ("darboux-near-s", f"darboux --k {NEAR_S_K}"),
    ("darboux-off-s", f"darboux --k {OFF_S_K}"),
    ("darboux-off-s-plus", "darboux --k 2,1,2,1"),
    ("darboux-unit", "darboux --k 1,1,1,1"),
    ("darboux-negative", "darboux --k -2,-3,-3,-2"),
    ("darboux-not-ps", "darboux --k 1,-1,-1,1"),
    ("darboux-h-vanishes", "darboux --k 0,0,1,1"),
    ("darboux-v-vanishes", "darboux --k 1,0,0,1"),
    ("darboux-zero", "darboux --k 0,0,0,0"),
    # both products underflow to 0, the exact D is -1e-400 < 0: the sign is
    # read on k scaled by a power of two, and nothing is certified
    ("darboux-underflow", "darboux --k 1e-200,1e-200,1e-200,2e-200"),
    # the exact D is 1e400 > 0: the sign is read on k scaled by a power of two
    ("darboux-overflow", "darboux --k 1e200,1e200,2e200,1e200"),
    # every cofactor coefficient is finite: k2 + k3 cancels to 0
    ("darboux-huge-cancelling", "darboux --k=1,1e308,-1e308,1"),
    # the cofactor coefficient k1 + k4 of the plane x overflows
    ("darboux-cofactor-overflow", "darboux --k=1e308,1,1,1e308"),
    # integrate
    ("integrate-ci-json", "integrate --k 1,1,1,1 --p0 0.2,0.3,0.1 --t 5 --monitor H,V --format json"),
    ("integrate-near-s", f"integrate --k {NEAR_S_K} --p0 0.2,0.2,0.2 --t 5 "
                         "--monitor H,V,Htilde,Vtilde"),
    ("integrate-negative", "integrate --k -2,-3,-3,-2 --p0 0.2,0.2,0.2 --t 3"),
    ("integrate-face", f"integrate --k 2,3,3,2 --p0 {FACE} --t 50"),
    ("integrate-face-backward", f"integrate --k 2,3,3,2 --p0 {FACE} --t 50 --backward"),
    ("integrate-face-edge-backward", "integrate --k 1,3,9,3 --p0 0,0.5,0.5 --t 5 --backward"),
    ("integrate-vertex", "integrate --k 2,1,2,1 --p0 1,0,0 --t 1"),
    ("integrate-outside", "integrate --k 2,1,2,1 --p0 0.5,0.5,0.5 --t 1"),
    ("integrate-loose-leaves", "integrate --k 2,1,2,1 --p0 0.001,0.5,0.3 --t 50 "
                               "--tol-rel 1e-3 --tol-abs 1e-3"),
    ("integrate-underflow", "integrate --k 1,1,1,1 --p0 0.2,0.2,0.2 --t 1e300"),
    ("integrate-monitor-twice", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 1 --monitor H,H"),
    ("integrate-monitor-unknown", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 1 --monitor Q"),
    ("integrate-nonfinite", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t inf"),
    ("integrate-missing-dir", "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 1 "
                              "--out lv3-no-such-dir/out.csv"),
    # limit-set
    ("limit-set-face", f"limit-set --k 2,3,3,2 --p0 {FACE}"),
    ("limit-set-face-alpha", f"limit-set --k 2,1,2,1 --p0 {FACE} --alpha"),
    ("limit-set-face-late", "limit-set --k 2,3,3,2 --p0 0.6,0.2,0.2"),
    ("limit-set-short-horizon", "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.2 --horizon 1"),
    ("limit-set-underflow", "limit-set --k 2,1,2,1 --p0 0.2,0.2,0.2 --horizon 1e300"),
    ("limit-set-loose-leaves", "limit-set --k 2,1,2,1 --p0 0.001,0.5,0.3 "
                               "--tol-rel 1e-3 --tol-abs 1e-3"),
    ("limit-set-s-minus", f"limit-set --k {S_MINUS_K} --p0 0.2,0.2,0.2 --alpha"),
    # the harnesses
    ("verify-a-near-s", f"verify-a --k {NEAR_S_K} --samples 3 --seed 5"),
    ("verify-a-s-minus", f"verify-a --k {S_MINUS_K} --samples 2 --seed 5"),
    ("verify-a-negative", "verify-a --k -2,-3,-3,-2 --samples 3 --seed 5"),
    ("verify-a-no-samples", "verify-a --k 2,3,3,2 --samples 0"),
    ("verify-b-other", "verify-b --k 3,1,1,2 --samples 4 --seed 5"),
    ("verify-b-underflow", "verify-b --k 2,1,2,1 --samples 2 --horizon 1e300"),
    ("verify-a-missing-dir", "verify-a --k 2,3,3,2 --samples 20 --out lv3-no-such-dir/x"),
    # match, period-profile, portrait
    ("match-near-vertex", "match --k 2,1,2,1 --x0 1e-30"),
    ("match-center", "match --k 2,3,3,2 --x0 0.2"),
    ("match-not-ps", "match --k 1,-1,1,1 --x0 0.2"),
    ("period-profile-off-s", "period-profile --k 2,1,2,1 --n 2"),
    ("portrait-ci", "portrait --k 2,3,3,2 --n 2 --t 1"),
    ("portrait-no-trajectories", "portrait --k 2,3,3,2 --n 0"),
    # scan slices
    ("scan-two-parameter", "scan --slice 2*s,t**2,-t+3,s/2 --range 1,2 --steps 2 "
                           "--range2 1,2 --steps2 2"),
    ("scan-constants", "scan --slice 1/3,2**-1,+t,7-3 --range 1,2 --steps 2"),
    ("scan-bool-constant", "scan --slice True,1,t,1 --range 1,2 --steps 2"),
    ("scan-complex-k", "scan --slice (-8)**t,1,1,1 --range 1.5,2 --steps 2"),
    ("scan-zero-division", "scan --slice 1/(t-1),1,1,1 --range 1,2 --steps 2"),
    ("scan-int-overflow", "scan --slice 10**400,1,t,1 --range 1,2 --steps 2"),
    ("scan-float-overflow", "scan --slice 2.5e308*t,1,1,1 --range 1,2 --steps 2"),
    ("scan-unknown-name", "scan --slice foo,1,1,1 --range 1,2 --steps 2"),
    ("scan-call", "scan --slice t(1),1,1,1 --range 1,2 --steps 2"),
    ("scan-string", "scan --slice \"'a',1,1,1\" --range 1,2 --steps 2"),
    ("scan-imaginary", "scan --slice 1j,1,1,1 --range 1,2 --steps 2"),
    ("scan-floor-division", "scan --slice t//2,1,1,1 --range 1,2 --steps 2"),
    ("scan-three-parts", "scan --slice 2,t,2 --range 1,2 --steps 2"),
    ("scan-s-without-range2", "scan --slice 2,t,s,t --range 1,2 --steps 2"),
    ("scan-range2-without-s", "scan --slice 2,t,2,t --range 1,2 --steps 2 --range2 1,2 --steps2 3"),
    ("scan-s-default-steps2", "scan --slice 2,t,s,t --range 1,2 --steps 2 --range2 1,2"),
    ("scan-underflow", "scan --slice 2,t,2,t --range 1,2 --steps 2 --horizon 1e300"),
    # usage and i/o
    ("usage-unknown-command", "unknown-command"),
    ("usage-missing-options", "integrate --k 1,1,1,1"),
    ("usage-short-k", "classify --k 1,1,1"),
    ("usage-flag-not-read", "classify --k 2,1,2,1 --seed 1"),
    ("usage-negative-attached", "classify --k -2,-1,-2,-1"),
    ("io-out-is-a-directory", "classify --k 2,1,2,1 --out ."),
)


def _without_usage(err: str) -> str:
    """stderr from its first line that lv3 wrote: a usage error starts with
    argparse's usage block, whose line wrapping differs between CPython
    versions."""
    lines = err.splitlines(keepends=True)
    return "".join(lines[next((i for i, line in enumerate(lines) if line.startswith("lv3")), 0):])


def _verdict(command: str, code: int, out: str, err: str) -> str:
    """One short line: what the run concluded, or why it did not."""
    if not out:
        return err.partition("\n")[0]
    if command in ("integrate", "portrait"):
        return f"rows={len(out.splitlines()) - (out[0] != '{')}"
    if command == "classify":
        return out.split("  ")[0]
    records = [json.loads(line) for line in out.splitlines()]
    if command == "darboux":
        named = [r["name"] for r in records if r["record"] == "named-integral" and r["certified"]]
        kernel = next(r for r in records if r["record"] == "kernel")
        return f"certified={','.join(named) or '-'} kernel={len(kernel['basis'])}"
    if command == "equilibria":
        sets = [r["set"] for r in records if "kind" not in r]
        spectra = [r["classification"] for r in records if r.get("kind") == "spectrum"]
        return " ".join([f"sets={','.join(sets)}", *(f"spectra={','.join(spectra)}",) * bool(spectra)])
    if command in ("verify-a", "verify-b"):
        (r,) = records
        keys = ("part", "status", "passed", "failed", "n_fail", "n_inconclusive")
        return " ".join(f"{key}={json.dumps(r[key])}" for key in keys if key in r)
    if command == "match":
        return f"matched={json.dumps(records[0]['matched'])}"
    if command == "period-profile":
        s = records[-1]
        return f"n_conclusive={s['n_conclusive']} strictly_increasing={json.dumps(s['strictly_increasing'])}"
    kinds = [r.get("kind") or r.get("probe_kind") for r in records]
    return f"kinds={','.join(kinds)}"


def run(argv: str) -> dict:
    """One in-process invocation, as its table row."""
    tokens = shlex.split(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(tokens)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), _without_usage(err.getvalue())
    return {
        "exit": str(code),
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.encode()).hexdigest(),
        "verdict": _verdict(tokens[0], code, out, err),
        "argv": argv,
    }


def sweep() -> dict:
    return {name: {"name": name, **run(argv)} for name, argv in INVOCATIONS}


def read_table(path: str = TABLE) -> dict:
    with open(path, encoding="utf-8") as table:
        header, *lines = table.read().splitlines()
    assert tuple(header.split("\t")) == COLUMNS, header
    rows = [dict(zip(COLUMNS, line.split("\t"))) for line in lines]
    return {row["name"]: row for row in rows}


def write_table(rows: dict, path: str = TABLE) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as table:
        table.write("\t".join(COLUMNS) + "\n")
        for row in rows.values():
            table.write("\t".join(row[c] for c in COLUMNS) + "\n")


def differences(expected: dict, actual: dict) -> list:
    """One line per row that is missing, extra or moved, naming the columns."""
    lines = []
    for name in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(name), actual.get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'not in the table' if old is None else 'no longer swept'}")
            continue
        for column in COLUMNS[1:]:
            if old[column] != new[column]:
                lines.append(f"{name}: {column} {old[column]!r} -> {new[column]!r}")
    return lines


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare the sweep with the table")
    mode.add_argument("--update", action="store_true", help="rewrite the table")
    args = parser.parse_args(argv)
    rows = sweep()
    if args.update:
        write_table(rows)
        print(f"wrote {len(rows)} rows to {os.path.relpath(TABLE)}")
        return 0
    lines = differences(read_table(), rows)
    print("\n".join(lines) if lines else f"{len(rows)} rows match {os.path.relpath(TABLE)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(cli())
