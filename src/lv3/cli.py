"""Single command-line entry point (`lv3`) exposing the toolkit.

Output contract: CSV uses a header row and 17-significant-digit decimals so
round-trip parsing is lossless; JSON lines carry one object per record with
lexicographically sorted keys.  All sampling is driven by the explicit seed
in the run configuration, so identical invocations produce byte-identical
output.  Exit codes: 0 pass, 1 failure, 2 inconclusive present, 64 usage,
74 I/O.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import sys
from functools import cache, partial
from itertools import chain, repeat

from . import analysis, darboux, equilibria, flow
from .params import ParamVector, ZeroParameter, classify, discriminant
from .rng import SplitMix64

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_IO = 74

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _triple(text: str) -> tuple:
    parts = [_finite(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return tuple(parts)


def _pair(text: str) -> tuple:
    parts = [_finite(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}")
    return tuple(parts)


def _param_vector(text: str) -> ParamVector:
    try:
        return ParamVector.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # nan and inf included
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text!r}")
    return value


@cache
def _build_parser() -> _Parser:
    """The lv3 parser, built on the first parse_args call and reused: a
    parse reads it and changes none of it."""
    parser = _Parser(prog="lv3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_HANDLERS))

    def add(name, needs_k=True, seeded=False, integrates=False):
        p = sub.add_parser(name)
        if needs_k:
            p.add_argument("--k", type=_param_vector, required=True,
                           help="parameter vector k1,k2,k3,k4")
        if seeded:
            p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if integrates:
            p.add_argument("--tol-rel", type=_positive, default=flow.DEFAULT_TOL_REL)
            p.add_argument("--tol-abs", type=_positive, default=flow.DEFAULT_TOL_ABS)
        return p

    add("classify")
    p = add("equilibria")
    p.add_argument("--spectrum", action="store_true")
    add("darboux")
    p = add("integrate", integrates=True)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--p0", type=_triple, required=True)
    p.add_argument("--t", dest="t_end", type=_positive, required=True)
    p.add_argument("--backward", action="store_true")
    p.add_argument("--monitor", default="", help="comma list of integral names (H,V,Htilde,Vtilde)")
    p = add("limit-set", integrates=True)
    p.add_argument("--p0", type=_triple, required=True)
    p.add_argument("--horizon", type=_positive, default=analysis.DEFAULT_HORIZON)
    p.add_argument("--alpha", action="store_true", help="also probe backward time")
    p = add("verify-a", seeded=True, integrates=True)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--horizon", type=_positive, default=analysis.DEFAULT_HORIZON)
    p = add("verify-b", seeded=True, integrates=True)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--horizon", type=_positive, default=analysis.DEFAULT_HORIZON)
    p = add("match")
    p.add_argument("--x0", type=_finite, required=True)
    p = add("period-profile", integrates=True)
    p.add_argument("--base", type=_triple, default=(0.25, 0.25, 0.25))
    p.add_argument("--dir", dest="direction", type=_triple, default=(0.0, -1.0, 0.0))
    p.add_argument("--inner", type=_positive, default=0.01)
    p.add_argument("--outer", type=_positive, default=0.22)
    p.add_argument("--n", type=_count, default=10)
    p = add("scan", needs_k=False, integrates=True)
    p.add_argument("--slice", dest="slice_expr", required=True,
                   help="four expressions in t (and optionally s), e.g. '2,t,2,t'")
    p.add_argument("--range", dest="t_range", type=_pair, required=True)
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--range2", dest="s_range", type=_pair, default=None)
    p.add_argument("--steps2", dest="s_steps", type=_count, default=None)
    p.add_argument("--p0", type=_triple, default=(0.2, 0.2, 0.2))
    p.add_argument("--horizon", type=_positive, default=analysis.DEFAULT_HORIZON)
    p = add("portrait", seeded=True, integrates=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--t", dest="t_end", type=_positive, default=50.0)
    parser.commands = sub.choices  # name -> its parser, whose usage an error prints
    return parser


def _attach_list_values(argv) -> list:
    """argv with each '--opt -a,b' joined to '--opt=-a,b'.

    argparse reads a value such as -2,-3,-3,-2 as an option string (only a
    plain negative number passes as a value).  No option string contains a
    comma, so such a token is the value of the option before it, unless that
    option already has one ('--opt=value').
    """
    out = []
    for token in argv:
        bare_option = bool(out) and out[-1].startswith("--") and "=" not in out[-1]
        if bare_option and token.startswith("-") and "," in token:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def parse_args(argv) -> argparse.Namespace:
    """Parse argv into the run configuration; usage problems exit with code 64.

    A comma list that starts with a minus sign is the value of the option
    before it: --k -2,-3,-3,-2 means --k=-2,-3,-3,-2.  A scan's slice is
    parsed here, once: cfg.kfunc and cfg.uses_s are parse_slice's results.
    """
    parser = _build_parser()
    cfg = parser.parse_args(_attach_list_values(argv))
    error = parser.commands[cfg.command].error
    if cfg.command == "integrate":
        cfg.monitor = tuple(m.strip() for m in cfg.monitor.split(",") if m.strip())
        if len(set(cfg.monitor)) < len(cfg.monitor):
            error(f"--monitor names an integral twice: {','.join(cfg.monitor)}")
        named = darboux.named_integral_specs(cfg.k)
        if not set(cfg.monitor) <= set(named):
            error(f"--monitor names an unknown integral: {','.join(cfg.monitor)} "
                  f"(known: {','.join(named)})")
        if cfg.backward:
            cfg.t_end = -cfg.t_end
    if cfg.command == "scan":
        try:
            cfg.kfunc, cfg.uses_s = parse_slice(cfg.slice_expr)
        except ValueError as exc:
            error(str(exc))
        if not cfg.uses_s:
            if cfg.s_range is not None or cfg.s_steps is not None:
                error("--range2 and --steps2 need a slice that uses the variable s")
        elif cfg.s_range is None:
            error("slice uses the variable s: provide --range2 (and --steps2)")
        elif cfg.s_steps is None:
            cfg.s_steps = 1
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(v) for key, v in value.items()}
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    if hasattr(value, "__dataclass_fields__"):
        return {name: _jsonable(getattr(value, name)) for name in value.__dataclass_fields__}
    return value


def _jsonl_lines(records) -> str:
    """One JSON line per record, keys sorted."""
    return "".join(json.dumps(_jsonable(record), sort_keys=True) + "\n" for record in records)


def emit_jsonl(records, stream):
    stream.write(_jsonl_lines(records))


def _csv_lines(rows) -> str:
    """One CSV line per row of the sequence rows.

    Every table the commands write is all floats, so one "%.17g,...\n"
    format serves the whole table: each cell reads as _fmt gives it.  Rows
    of more than one length raise ValueError.
    """
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError(f"CSV rows of {len(widths)} lengths")
    line = ",".join(["%.17g"] * len(rows[0])) + "\n" if rows else ""
    return (line * len(rows)) % tuple(chain.from_iterable(rows))


def emit_csv(header, rows, stream):
    """Write a header line and the CSV lines of the sequence rows
    (_csv_lines), or nothing if they raise.  integrate and portrait write
    only their header with it: their rows go out as the texts of
    _rows_text."""
    stream.write(",".join(header) + "\n" + _csv_lines(rows))


def _rows_text(traj, fmt="csv", specs=(), index=None) -> str:
    """The text of the rows of traj, a run or a block of one: t, x, y, z
    and the log of each first integral of specs, as CSV lines, or as JSON
    lines for fmt json.  index, if given, leads each CSV row (portrait's
    traj column).  The one formatter of integrate and portrait, wherever it
    runs: the bytes of a table do not depend on how it is split.  It calls
    neither emitter, so the emitters' calls and rows, which perfbench's
    tracer counts, do not depend on where the blocks were formatted."""
    series = darboux.log_integral_series(specs, traj.states)
    if fmt == "csv":
        lead = () if index is None else (repeat(index),)
        return _csv_lines(list(zip(*lead, traj.t, *zip(*traj.states), *series)))
    columns = [f"log{spec.name}" for spec in specs]
    records = []
    for t, (x, y, z), *logs in zip(traj.t, traj.states, *series):
        rec = {"t": t, "x": x, "y": y, "z": z}
        rec.update(zip(columns, logs))
        records.append(rec)
    return _jsonl_lines(records)


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns an exit code)


def _cmd_classify(cfg, stream):
    try:
        regime = classify(cfg.k)
    except ZeroParameter as exc:
        print(f"lv3: {exc}", file=sys.stderr)
        return EXIT_FAIL
    d = discriminant(cfg.k)
    nz = "" if regime.in_nz else "  (outside NZ)"
    stream.write(f"{regime.label()}  discriminant={_fmt(d)}{nz}\n")
    return EXIT_OK


def _segment_record(segment, **extra) -> dict:
    return {"set": segment.label, "a": list(segment.a), "b": list(segment.b),
            "open": segment.open_ends, **extra}


def _cmd_equilibria(cfg, stream):
    k = cfg.k
    records = [_segment_record(edge) for edge in (equilibria.edge_py(), equilibria.edge_xz())]
    regime = classify(k)
    if regime.in_ps:
        records += [_segment_record(segment, degenerate=segment.degenerate)
                    for segment in equilibria.limit_segments(k)]
    segment = equilibria.interior_segment_R(k)
    if segment is not None:
        records.append(_segment_record(segment))
    if not regime.in_nz:
        records.append({"set": "fully-singular", "labels": equilibria.singular_boundary_sets(k)})
    if cfg.spectrum:
        if segment is not None:
            z_top = k.k4 / (k.k3 + k.k4)
            for i in range(1, 6):
                z = z_top * i / 6.0
                rep = equilibria.interior_spectrum(k, z)
                records.append({
                    "set": "R_interior",
                    "kind": "spectrum",
                    "z": z,
                    "classification": rep.classification,
                    "b": rep.b,
                    "eigenvalues": [[w.real, w.imag] for w in rep.eigenvalues],
                })
        for i in range(1, 6):
            x0 = i / 6.0
            rep = equilibria.edge_spectrum_py(k, x0)
            records.append({
                "set": "R_py_edge",
                "kind": "spectrum",
                "x0": x0,
                "classification": rep.classification,
                "outside_s_py_span": rep.outside_span,
                "eigenvalues": [[w.real, w.imag] for w in rep.eigenvalues],
            })
    emit_jsonl(records, stream)
    return EXIT_OK


def _cmd_darboux(cfg, stream):
    k = cfg.k
    # L f = K f holds identically in k (proven symbolically in the tests),
    # so each plane is invariant with residual 0
    records = [{"record": "surface", "name": name,
                "cofactor": {" ".join(map(str, e)): c for e, c in cofactor.items()},
                "invariant": True, "max_residual": 0.0}
               for name, cofactor in darboux.surface_cofactors(k).items()]
    report = darboux.solve_darboux(k)
    records.append({
        "record": "kernel",
        "monomials": [" ".join(map(str, m)) for m in report.monomials],
        "basis": [list(v) for v in report.kernel],
        "subsystem_determinants": list(report.subsystem_determinants),
    })
    records += [{"record": "named-integral", **_jsonable(status)}
                for status in report.named.values()]
    emit_jsonl(records, stream)
    return EXIT_OK


def _cmd_integrate(cfg, stream):
    named = darboux.named_integral_specs(cfg.k)
    specs = [named[n] for n in cfg.monitor]
    # the rows are formatted on a second CPU while the orbit steps, if there
    # is one; the child exits while this process writes
    with analysis._Feed(partial(_rows_text, fmt=cfg.fmt, specs=specs)) as feed:
        flow.integrate(cfg.k, cfg.p0, cfg.t_end, cfg.tol_rel, cfg.tol_abs,
                       blocks=(feed.ROWS, feed.put))
        texts = feed.results()
        if cfg.fmt == "csv":
            emit_csv(["t", "x", "y", "z", *(f"log{n}" for n in cfg.monitor)], [], stream)
        for text in texts:
            stream.write(text)
    return EXIT_OK


def _cmd_limit_set(cfg, stream):
    reports = [analysis.omega_limit(cfg.k, cfg.p0, cfg.horizon, cfg.tol_rel, cfg.tol_abs)]
    if cfg.alpha:
        reports.append(analysis.alpha_limit(cfg.k, cfg.p0, cfg.horizon, cfg.tol_rel, cfg.tol_abs))
    emit_jsonl(reports, stream)
    if any(r.kind == "inconclusive" for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _verify_exit(report) -> int:
    if report.get("failed", False):
        return EXIT_FAIL
    if report.get("n_inconclusive", 0):
        return EXIT_INCONCLUSIVE
    if report.get("passed", False):
        return EXIT_OK
    return EXIT_FAIL


def _cmd_verify_a(cfg, stream):
    report = analysis.verify_theorem_a(cfg.k, cfg.samples, cfg.seed,
                                       cfg.tol_rel, cfg.tol_abs, cfg.horizon)
    emit_jsonl([report], stream)
    return _verify_exit(report)


def _cmd_verify_b(cfg, stream):
    report = analysis.verify_theorem_b(cfg.k, cfg.samples, cfg.seed,
                                       cfg.tol_rel, cfg.tol_abs, cfg.horizon)
    emit_jsonl([report], stream)
    return _verify_exit(report)


def _cmd_match(cfg, stream):
    report = analysis.heteroclinic_match(cfg.k, cfg.x0)
    emit_jsonl([report], stream)
    return EXIT_OK


def _cmd_period_profile(cfg, stream):
    points = analysis.make_ray(cfg.base, cfg.direction, _linspace(cfg.inner, cfg.outer, cfg.n))
    report = analysis.period_profile(cfg.k, points, cfg.tol_rel, cfg.tol_abs)
    emit_jsonl(report["rows"] + [{
        "summary": True,
        "strictly_increasing": report["strictly_increasing"],
        "n_conclusive": report["n_conclusive"],
    }], stream)
    return EXIT_OK if report["n_conclusive"] == len(report["rows"]) else EXIT_INCONCLUSIVE


_SLICE_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)


class _FloatConstants(ast.NodeTransformer):
    """Each number as a float; an int beyond the float range as int * 1.0,
    which raises float()'s OverflowError in its place once evaluated."""

    def visit_Constant(self, node):
        try:
            return ast.Constant(float(node.value))
        except OverflowError:
            return ast.BinOp(node, ast.Mult(), ast.Constant(1.0))


def parse_slice(text: str):
    """Compile a four-component slice expression in t (and optionally s).

    Only numbers, t, s, + - * / ** and unary + - pass a check of every node
    (else ValueError); then each number becomes a float, and kfunc(t, s)
    evaluates the compiled expressions in float arithmetic, no builtins.
    """
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"slice needs four comma-separated expressions, got {text!r}")
    try:
        trees = [ast.parse(p.strip(), mode="eval") for p in parts]
    except SyntaxError as exc:
        raise ValueError(f"bad slice expression: {exc}") from exc
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, _SLICE_NODES):
                raise ValueError(f"unsupported slice syntax: {ast.dump(node)[:40]}")
            if isinstance(node, ast.Name) and node.id not in ("t", "s"):
                raise ValueError(f"unknown slice variable {node.id!r}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ValueError("slice constants must be numbers")
    codes = [compile(ast.fix_missing_locations(_FloatConstants().visit(tree)), "<slice>", "eval")
             for tree in trees]
    uses_s = any("s" in code.co_names for code in codes)

    def kfunc(t, s=None):
        names = {"__builtins__": {}, "t": t, "s": s}
        return ParamVector(*(eval(code, names) for code in codes))

    return kfunc, uses_s


def _linspace(lo, hi, n):
    if n <= 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _cmd_scan(cfg, stream):
    ts = _linspace(cfg.t_range[0], cfg.t_range[1], cfg.steps)
    if cfg.uses_s:
        ss = _linspace(cfg.s_range[0], cfg.s_range[1], cfg.s_steps)
        samples = [({"t": t, "s": s}, cfg.kfunc(t, s)) for s in ss for t in ts]
    else:
        samples = [({"t": t}, cfg.kfunc(t)) for t in ts]
    rows = analysis.bifurcation_scan(samples, cfg.p0, cfg.horizon, cfg.tol_rel, cfg.tol_abs)
    emit_jsonl(rows, stream)
    return EXIT_OK


def _cmd_portrait(cfg, stream):
    rng = SplitMix64(cfg.seed)
    starts = analysis.sample_interior(cfg.k, cfg.n, rng)
    texts = analysis._map_starts(
        lambda item: _rows_text(flow.integrate(cfg.k, item[1], cfg.t_end, cfg.tol_rel, cfg.tol_abs),
                                index=float(item[0])),
        enumerate(starts))
    emit_csv(["traj", "t", "x", "y", "z"], [], stream)
    for text in texts:
        stream.write(text)
    return EXIT_OK


_HANDLERS = {
    "classify": _cmd_classify,
    "equilibria": _cmd_equilibria,
    "darboux": _cmd_darboux,
    "integrate": _cmd_integrate,
    "limit-set": _cmd_limit_set,
    "verify-a": _cmd_verify_a,
    "verify-b": _cmd_verify_b,
    "match": _cmd_match,
    "period-profile": _cmd_period_profile,
    "scan": _cmd_scan,
    "portrait": _cmd_portrait,
}


class _OutFile:
    """The --out file, opened (and truncated) at the first write.  Every
    handler writes only once its run is done, so a run that fails leaves
    the file as it was, or absent.  A directory that cannot be reached fails
    at once, with the error open would give at the first write; other open
    errors (permissions on the file, a full disk) still come then."""

    def __init__(self, path):
        self._path, self._file = path, None
        try:
            os.stat(os.path.dirname(path) or ".")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None

    def write(self, text):
        self._file = open(self._path, "w", encoding="utf-8")
        self.write = self._file.write  # later writes go straight to the file
        return self.write(text)

    def flush(self):
        if self._file is not None:
            self._file.flush()

    def close(self):
        if self._file is not None:
            self._file.close()


def main(argv=None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    handler = _HANDLERS[cfg.command]
    stream = sys.stdout
    try:
        if cfg.out:
            stream = _OutFile(cfg.out)
        code = handler(cfg, stream)
        stream.flush()
        return code
    except OSError as exc:
        print(f"lv3: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ZeroParameter, ArithmeticError, flow.StepSizeUnderflow,
            flow.StepBudgetExhausted) as exc:
        print(f"lv3: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        if isinstance(stream, _OutFile):
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
