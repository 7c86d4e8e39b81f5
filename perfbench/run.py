"""Seeded end-to-end benchmark of the lv3 command line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-a-center --seed 1 --seconds 40 --trace 0

One closed-loop client (this process, one thread) calls `lv3.cli.main`
in-process, one invocation after another, each writing its output through
`--out` to a temporary file in the checkout.  Every output is checked.
`--trace 0` times the invocations and prints the end-to-end metrics;
`--trace 1` runs a fixed invocation list both untraced and traced, back to
back, and prints the per-layer metrics.  The last line of stdout is the
result object; the line before it is the full record with units and
environment.

`setup_s` is the median over several fresh interpreters, run one after
another, of the time from process start to ready-to-invoke (interpreter
start, `import lv3`, input generation).  Gated timings are normalised to a
reference machine speed (see speed.py); wall times are in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-out"

# One client, one thread: no worker pools, no BLAS threads.
CLEAN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DROP_ENV = ("LV3_THREADS",)

POOL = 4096          # invocations generated at set-up
MIN_CALLS = 21       # so call_ms_tail always has ten calls beyond it
REPEATS = 2          # invocations re-run to check byte-identical output
REF_CALLS = 5        # integrate-long endpoints checked against scipy
SETUP_RUNS = {"full": 7, "tiny": 1}
# Traced-run invocations per measured second, per workload: the list size is
# fixed by the arguments alone, so traced counters repeat exactly.
TRACE_RATE = {"verify-a-center": 0.6, "verify-b-offmanifold": 0.7, "integrate-long": 1.4}


def _hygiene():
    for name in DROP_ENV:
        os.environ.pop(name, None)
    os.environ.update(CLEAN_ENV)


def _import_lv3():
    """Import lv3 from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import lv3
    from lv3 import cli

    if Path(lv3.__file__).resolve().parent != SRC / "lv3":
        raise ImportError(f"lv3 imported from {lv3.__file__}, not from {SRC}")
    return cli


def _setup(args):
    """Everything a run does before its first invocation."""
    cli = _import_lv3()
    workload = workloads.make(args.workload, args.size)
    return cli, workload, workloads.inputs(workload, args.seed, POOL)


def _measure_setup(args) -> tuple:
    """Median set-up time of fresh interpreters, run one at a time, with a
    bare interpreter start before each and after the last:
    (normalised to reference speed, wall)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times, starts = [], [speed.interpreter_start_s()]
    for _ in range(SETUP_RUNS[args.size]):
        times.append(speed.time_to_ready(cmd, cwd=ROOT))
        starts.append(speed.interpreter_start_s())
    wall = statistics.median(times)
    return wall * speed.START_REFERENCE_S / statistics.median(starts), wall


class Client:
    """Runs and checks invocations; counts attempts and failures."""
    def __init__(self, cli, workload, out: Path):
        self.main = cli.main
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, argv):
        """One invocation: (latency_s, outcome)."""

        if self.out.exists():
            self.out.unlink()
        full = argv + ["--out", str(self.out)]
        error = None
        t0 = time.perf_counter()
        try:
            code = self.main(full)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an exception is a failed invocation
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        data = self.out.read_bytes() if self.out.exists() else b""
        self.attempted += 1
        if error is not None:
            outcome = workloads.Outcome(ok=False, orbits=0, digest="", problems=[error])
        else:
            try:
                outcome = self.workload.check(argv, code, data)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                outcome = workloads.Outcome(ok=False, orbits=0, digest="",
                                            problems=[f"unreadable output: {exc}"])
        outcome.bytes = len(data)
        if not outcome.ok:
            self.fail(argv, outcome.problems)
        return elapsed, outcome

    def fail(self, argv, problems):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append({"argv": argv, "problems": problems[:3]})

    def repeat(self, argv, digest):
        """Re-run an invocation; its output must be byte-identical."""
        _, outcome = self.call(argv)
        if outcome.ok and outcome.digest != digest:
            self.fail(argv, ["output differs from an identical earlier invocation"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "machine": platform.machine(),
    }


def run_untraced(args, cli, workload, pool, tmp: Path) -> dict:
    client = Client(cli, workload, tmp / "out")
    latencies, outcomes, calibrations = [], [], []
    timed = 0.0
    while (timed < args.seconds or len(latencies) < MIN_CALLS) and len(latencies) < len(pool):
        calibrations.append(speed.calibration_s())
        elapsed, outcome = client.call(pool[len(latencies)])
        timed += elapsed
        latencies.append(elapsed)
        outcomes.append(outcome)
    calibrations.append(speed.calibration_s())
    scaled = [t * f for t, f in zip(latencies, speed.factors(calibrations, len(latencies)))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i in range(min(REPEATS, len(outcomes))):
        if outcomes[i].ok:
            client.repeat(pool[i], outcomes[i].digest)

    accuracy = {}
    for outcome in outcomes:
        for name, value in outcome.accuracy.items():
            accuracy[name] = max(accuracy.get(name, 0.0), value)
    if hasattr(workload, "reference_error"):
        checked = [(pool[i], o) for i, o in enumerate(outcomes) if o.ok][:REF_CALLS]
        ref_err = 0.0
        for argv, outcome in checked:
            err = workload.reference_error(argv, outcome.endpoint)
            ref_err = max(ref_err, err)
            if not err <= workloads.REF_TOL:
                client.fail(argv, [f"endpoint {err!r} from the DOP853 reference"])
        accuracy["ref_err"] = ref_err

    orbits = sum(o.orbits for o in outcomes if o.ok)
    tail_value, tail_pct = spans.tail(scaled)
    metrics = {
        "setup_s": _metric(args.setup_s, "s"),
        "orbits_per_s": _metric(orbits / sum(scaled), "1/s"),
        "call_ms_p50": _metric(1e3 * statistics.median(scaled), "ms"),
        "call_ms_tail": _metric(1e3 * tail_value, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    extra = {
        "call_tail_pct": _metric(tail_pct, "%"),
        "call_n": _metric(len(latencies), "count"),
        "setup_s_wall": _metric(args.setup_wall_s, "s"),
        "orbits_per_s_wall": _metric(orbits / timed, "1/s"),
        "call_ms_p50_wall": _metric(1e3 * statistics.median(latencies), "ms"),
        "call_ms_tail_wall": _metric(1e3 * spans.tail(latencies)[0], "ms"),
        "speed_factor": _metric(statistics.median(speed.factors(calibrations, len(latencies))), "1"),
        "fail_frac": _metric(client.failed / client.attempted, "1"),
    }
    if workload.name != "integrate-long":
        extra["inconclusive_frac"] = _metric(
            sum(o.inconclusive for o in outcomes) / (workload.samples * len(outcomes)), "1")
    for name, value in sorted(accuracy.items()):
        extra[name] = _metric(value, "1")
    return {"client": client, "metrics": metrics, "extra": extra}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("lv3/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counters_across_runs(args, counters, client):
    """Counters for the same seed, arguments and sources must repeat exactly."""
    STATE.mkdir(exist_ok=True)
    key = f"counters-{args.workload}-{args.seed}-{args.seconds}-{args.size}-{_source_digest()}.json"
    path = STATE / key
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            diff = sorted(k for k in set(earlier) | set(counters) if earlier.get(k) != counters.get(k))
            client.fail(["(traced run)"], [f"counters differ from an earlier run: {diff}"])
    else:
        path.write_text(json.dumps(counters, sort_keys=True))


def run_traced(args, cli, workload, pool, tmp: Path) -> dict:
    scale = 0.05 if args.size == "tiny" else 1.0
    count = max(2, math.ceil(TRACE_RATE[args.workload] * args.seconds * scale))
    invocations = pool[:count]
    client = Client(cli, workload, tmp / "out")

    tracer = spans.Tracer()

    def traced_call(i, argv):
        tracer.current_request = i
        tracer.install()
        client.main = tracer.wrap("cli.main", cli.main)
        try:
            elapsed, outcome = client.call(argv)
        finally:
            tracer.uninstall()
            client.main = cli.main
        tracer.counts["cli.emit.bytes"] += outcome.bytes
        return elapsed

    # Each invocation runs untraced and traced back to back, alternating which
    # goes first, so machine-speed drift cancels out of the overhead ratio.
    untraced = traced = 0.0
    first = None
    for i, argv in enumerate(invocations):
        if i % 2:
            traced += traced_call(i, argv)
            untraced += client.call(argv)[0]
        else:
            untraced += client.call(argv)[0]
            traced += traced_call(i, argv)
        if i == 0:
            first = tracer.hardware_independent()
    metrics = _layer_metrics(tracer, untraced, traced)
    counters = tracer.hardware_independent()
    # the first invocation again: its counters must repeat exactly
    before = tracer.hardware_independent()
    traced_call(len(invocations), invocations[0])
    after = tracer.hardware_independent()
    again = {k: after[k] - before.get(k, 0) for k in after}
    if again != {k: first.get(k, 0) for k in again}:
        client.fail(invocations[0], ["traced counters differ on an identical invocation"])
    _check_counters_across_runs(args, counters, client)
    STATE.mkdir(exist_ok=True)
    tracer.write(STATE / f"spans-{args.workload}.csv")
    return {"client": client, "metrics": metrics, "extra": {}, "counters": counters}


def _layer_metrics(tracer, untraced: float, traced: float) -> dict:
    own = tracer.self_times()
    counts = tracer.counts
    calls = tracer.span_count
    steps = calls("flow.step")
    rejected = counts["flow.steps_rejected"]
    built = counts["flow.dense.built"]
    crossings = calls("flow.refine")
    draws = counts["rng.draws"]
    probe_ms, probe_steps = tracer.probe_ms or [0.0], tracer.probe_steps or [0]

    def module_self(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    count, sec, frac = "count", "s", "1"
    values = {
        "flow.step.calls": (steps, count),
        "flow.step.self_s": (own.get("flow.step", 0.0), sec),
        "flow.step.us_per_call": (1e6 * ratio(own.get("flow.step", 0.0), steps), "us"),
        "flow.rhs.evals": (counts["flow.rhs.evals"], count),
        "flow.rhs.per_step": (ratio(counts["flow.rhs.evals"], steps), count),
        "flow.steps_rejected": (rejected, count),
        "flow.reject_ratio": (ratio(rejected, steps + rejected), frac),
        "flow.dense.built": (built, count),
        "flow.dense.evals": (counts["flow.dense.evals"], count),
        "flow.dense.used_frac": (ratio(counts["flow.dense.used"], built), frac),
        "flow.section.evals": (counts["flow.section.evals"], count),
        "flow.refine.calls": (crossings, count),
        "flow.dense.evals_per_crossing": (ratio(counts["flow.dense.evals"], crossings), count),
        "flow.integrate.self_s": (own.get("flow.integrate", 0.0), sec),
        "darboux.log_integral.calls": (calls("darboux.log_integral"), count),
        "darboux.log_integral.self_s": (own.get("darboux.log_integral", 0.0), sec),
        "darboux.certify.calls": (calls("darboux.certify"), count),
        "darboux.certify.self_s": (own.get("darboux.certify", 0.0), sec),
        "equilibria.distance.calls": (calls("equilibria.distance"), count),
        "equilibria.self_s": (module_self("equilibria."), sec),
        "params.classify.calls": (calls("params.classify"), count),
        "params.self_s": (module_self("params."), sec),
        "rng.draws": (draws, count),
        "rng.accept_ratio": (ratio(counts["analysis.sample.kept"], draws / 3), frac),
        "analysis.probe.calls": (calls("analysis.probe"), count),
        "analysis.probe.self_s": (own.get("analysis.probe", 0.0), sec),
        "analysis.probe_ms_p50": (statistics.median(probe_ms), "ms"),
        "analysis.probe_ms_tail": (spans.tail(probe_ms)[0], "ms"),
        "analysis.probe_steps_p50": (statistics.median(probe_steps), count),
        "analysis.probe_steps_max": (max(probe_steps), count),
        "analysis.verify.self_s": (own.get("analysis.verify", 0.0), sec),
        "analysis.drift.self_s": (own.get("analysis.drift", 0.0), sec),
        "analysis.match.self_s": (own.get("analysis.match", 0.0), sec),
        "analysis.sample.self_s": (own.get("analysis.sample", 0.0), sec),
        "cli.main.self_s": (own.get("cli.main", 0.0), sec),
        "cli.parse.self_s": (own.get("cli.parse", 0.0), sec),
        "cli.emit.self_s": (own.get("cli.emit", 0.0), sec),
        "cli.emit.bytes": (counts["cli.emit.bytes"], "B"),
        "cli.emit.rows": (counts["cli.emit.rows"], count),
        "trace.overhead_frac": (traced / untraced - 1.0, frac),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lv3" / "__init__.py").is_file():
        print(f"perfbench: no lv3 sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    _hygiene()
    if args.setup_probe:
        _setup(args)
        print("ready", flush=True)
        return 0
    args.setup_s, args.setup_wall_s = _measure_setup(args)
    cli, workload, pool = _setup(args)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        run = (run_traced if args.trace else run_untraced)(args, cli, workload, pool, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    client = run["client"]
    record = {
        "record": "perfbench",
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "environment": _environment(args),
        "metrics": {**run["metrics"], **run["extra"]},
        "problems": client.problems,
    }
    if "counters" in run:
        record["counters"] = run["counters"]
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
