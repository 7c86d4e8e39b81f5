"""Outside-in tracing of lv3 for the benchmark's traced run.

`Tracer.install()` rebinds the public calls of each lv3 module, in every
module that binds them, to wrappers that record a span (name, start, end,
parent, request) or bump a counter; `uninstall()` restores the originals.
Nothing under `src/lv3` is edited.  Spans are kept in flat arrays in memory
and written out by `write()` after the run.
"""

from __future__ import annotations

import sys
import time
from array import array

COUNTERS = (
    "flow.rhs.evals",
    "flow.steps_rejected",
    "flow.dense.built",
    "flow.section.evals",
    "flow.dense.evals",
    "flow.dense.used",
    "rng.draws",
    "analysis.sample.kept",
    "cli.emit.bytes",
    "cli.emit.rows",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_request = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.probe_ms = []
        self.probe_steps = []
        self.steps = 0
        self._last_segment = None
        self._saved = []

    # -- span recording -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.request.append(self.current_request)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return traced

    def span_count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    # -- patching --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace `original` by `replacement` wherever an lv3 module binds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lv3" and not mod_name.startswith("lv3."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        from lv3 import analysis, cli, darboux, equilibria, flow, params, rng

        tracer = self
        counts = self.counts

        def span(module, fname, label):
            self._rebind(getattr(module, fname), self.wrap(label, getattr(module, fname)))

        # cli: argument parsing and the two emitters
        span(cli, "parse_args", "cli.parse")
        for emitter in ("emit_csv", "emit_jsonl"):
            original = getattr(cli, emitter)

            def counted(*args, _original=original):
                rows = args[-2]
                counts["cli.emit.rows"] += len(rows)
                return _original(*args)

            self._rebind(original, self.wrap("cli.emit", counted))

        # analysis: harnesses, probes, drift, matching, sampling
        span(analysis, "verify_theorem_a", "analysis.verify")
        span(analysis, "verify_theorem_b", "analysis.verify")
        for probe in ("detect_periodic", "omega_limit", "alpha_limit"):
            self._rebind(getattr(analysis, probe), self._probe(getattr(analysis, probe)))
        span(analysis, "orbit_integral_drift", "analysis.drift")
        span(analysis, "heteroclinic_match", "analysis.match")
        sample = analysis.sample_interior

        def sample_counted(*args, **kwargs):
            points = sample(*args, **kwargs)
            counts["analysis.sample.kept"] += len(points)
            return points

        self._rebind(sample, self.wrap("analysis.sample", sample_counted))

        # flow: integrate loop, stepper, dense output, sections, refinement
        span(flow, "integrate", "flow.integrate")
        span(flow, "_refine_crossing", "flow.refine")
        base = flow.DormandPrince45
        step_span = self.wrap("flow.step", base.step)

        class CountingDormandPrince45(base):
            def __init__(self, fun, *args, **kwargs):
                def counted_fun(y):
                    counts["flow.rhs.evals"] += 1
                    return fun(y)

                super().__init__(counted_fun, *args, **kwargs)

            def step(self):
                rejected = self.n_rejected
                try:
                    return step_span(self)
                finally:
                    counts["flow.steps_rejected"] += self.n_rejected - rejected
                    tracer.steps += 1

        self._rebind(base, CountingDormandPrince45)
        segment_init = flow.DenseSegment.__init__

        def counted_init(segment, *args, **kwargs):
            counts["flow.dense.built"] += 1
            segment_init(segment, *args, **kwargs)

        self._patch_attr(flow.DenseSegment, "__init__", counted_init)
        eval_theta = flow.DenseSegment.eval_theta

        def counted_eval_theta(segment, theta):
            counts["flow.dense.evals"] += 1
            if segment is not tracer._last_segment:
                tracer._last_segment = segment
                counts["flow.dense.used"] += 1
            return eval_theta(segment, theta)

        self._patch_attr(flow.DenseSegment, "eval_theta", counted_eval_theta)
        section_value = flow.SectionSpec.value

        def counted_value(section, y):
            counts["flow.section.evals"] += 1
            return section_value(section, y)

        self._patch_attr(flow.SectionSpec, "value", counted_value)

        # darboux, equilibria, params, rng
        span(darboux, "log_integral_value", "darboux.log_integral")
        span(darboux, "certify_named_integrals", "darboux.certify")
        for fname in ("interior_segment_R", "limit_segments", "limit_endpoints",
                      "vector_field", "edge_py", "edge_xz"):
            span(equilibria, fname, "equilibria.other")
        self._patch_attr(equilibria.Segment, "distance_to",
                         self.wrap("equilibria.distance", equilibria.Segment.distance_to))
        span(params, "classify", "params.classify")
        uniform = rng.SplitMix64.uniform

        def counted_uniform(generator, *args):
            counts["rng.draws"] += 1
            return uniform(generator, *args)

        self._patch_attr(rng.SplitMix64, "uniform", counted_uniform)

    def _probe(self, fn):
        """Span plus per-probe latency and step count."""
        traced = self.wrap("analysis.probe", fn)

        def probe(*args, **kwargs):
            first = self.steps
            t0 = time.perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                self.probe_ms.append(1e3 * (time.perf_counter() - t0))
                self.probe_steps.append(self.steps - first)

        return probe

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time (span minus its children) per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            out[self.names[self.name[i]]] += (self.end[i] - self.start[i]) - child[i]
        return out

    def hardware_independent(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": self.span_count(name) for name in sorted(self.names)}
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.request[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def tail(values):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
