"""Seeded workloads of the lv3 benchmark: their inputs and output checks.

Each workload turns the workload seed into a deterministic list of `lv3`
command lines and checks the output file of every invocation.  A check
returns an `Outcome`; any problem it finds is a failure of that invocation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

# Thresholds pinned by the acceptance suite (tests/test_acceptance.py).
CLOSURE_TOL = 1e-6
DRIFT_TOL = 1e-8
SEGMENT_RESIDUAL_TOL = 1e-12
SEGMENT_DIST_TOL = 1e-4
SIMPLEX_TOL = 1e-9
# Largest endpoint deviation from the DOP853 reference accepted on
# integrate-long; the observed deviation at the default tolerances is ~1e-9.
REF_TOL = 1e-6
REF_RTOL = 1e-13
REF_ATOL = 1e-15


@dataclass
class Outcome:
    """What one invocation produced, as far as the metrics need it."""

    ok: bool
    orbits: int
    digest: str
    problems: list = field(default_factory=list)
    inconclusive: int = 0
    accuracy: dict = field(default_factory=dict)
    endpoint: tuple | None = None
    bytes: int = 0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(data: bytes, problems: list):
    lines = data.decode("utf-8").splitlines()
    if len(lines) != 1:
        problems.append(f"expected one JSON line, got {len(lines)}")
        return None
    return json.loads(lines[0])


class _Verify:
    """A verification harness on `samples` seeded interior starts per call."""

    name = command = k = ""
    # (report field, accuracy metric or None, largest value allowed)
    limits = ()

    def __init__(self, samples: int):
        self.samples = samples

    def expected(self) -> dict:
        """Report fields that must hold besides passed, n_samples and seed."""
        return {}

    def argv(self, rng: random.Random) -> list:
        return [self.command, "--k", self.k, "--samples", str(self.samples),
                "--seed", str(rng.randrange(1, 2**31))]

    def check(self, argv, code: int, data: bytes) -> Outcome:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        rep = _report(data, problems) or {}
        seed = int(argv[argv.index("--seed") + 1])
        expect = {"passed": True, "n_samples": self.samples, "seed": seed, **self.expected()}
        for key, want in expect.items():
            if rep.get(key) != want:
                problems.append(f"{key}={rep.get(key)!r}, expected {want!r}")
        accuracy = {}
        for field_name, metric, tol in self.limits:
            value = rep.get(field_name, math.inf)
            if not value <= tol:
                problems.append(f"{field_name} {value!r} above {tol}")
            if metric:
                accuracy[metric] = value
        return Outcome(ok=not problems, orbits=self.samples, digest=_digest(data),
                       problems=problems, inconclusive=rep.get("n_inconclusive", self.samples),
                       accuracy=accuracy)


class VerifyA(_Verify):
    """`verify-a` on the center regime k = (2,3,3,2): periodic detection with
    section crossings, then an H/V drift re-integration at tol 1e-12."""

    name = "verify-a-center"
    command = "verify-a"
    k = "2,3,3,2"
    limits = (("worst_closure_error", "closure_err_max", CLOSURE_TOL),
              ("worst_drift", "drift_max", DRIFT_TOL),
              ("segment_residual_max", None, SEGMENT_RESIDUAL_TOL))

    def expected(self) -> dict:
        return {"part": "a", "n_periodic": self.samples}


class VerifyB(_Verify):
    """`verify-b` off the center manifold, k = (2,1,2,1): two limit probes per
    orbit, each stopping at speed collapse, then segment classification."""

    name = "verify-b-offmanifold"
    command = "verify-b"
    k = "2,1,2,1"
    limits = (("worst_segment_distance", "segment_dist_max", SEGMENT_DIST_TOL),)

    def expected(self) -> dict:
        return {"status": "checked", "n_fail": 0}


class IntegrateLong:
    """`integrate` of one long center-regime orbit with H,V monitoring and
    CSV output: single-orbit stepping cost plus a large write."""

    name = "integrate-long"
    k = (1.0, 1.0, 1.0, 1.0)
    # Starts keep this far from the simplex boundary and from the interior
    # equilibrium segment R = {(z, (1-2z)/2, z)}, so every orbit is a
    # non-degenerate cycle of similar stepping cost.
    MARGIN = 0.05
    R_DISTANCE = 0.03

    def __init__(self, t_end: float):
        self.t_end = t_end

    def _start(self, rng: random.Random) -> tuple:
        while True:
            x, y, z = rng.random(), rng.random(), rng.random()
            if min(x, y, z, 1.0 - x - y - z) < self.MARGIN:
                continue
            # distance to the line through (0, 1/2, 0) along (1, -1, 1)/sqrt(3)
            px, py, pz = x, y - 0.5, z
            s = (px - py + pz) / 3.0
            if math.dist((px, py, pz), (s, -s, s)) < self.R_DISTANCE:
                continue
            return x, y, z

    def argv(self, rng: random.Random) -> list:
        p0 = ",".join(f"{c:.17g}" for c in self._start(rng))
        return ["integrate", "--k", ",".join(f"{c:g}" for c in self.k), "--p0", p0,
                "--t", f"{self.t_end:g}", "--monitor", "H,V"]

    def check(self, argv, code: int, data: bytes) -> Outcome:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != "t,x,y,z,logH,logV":
            problems.append(f"bad header {lines[:1]!r}")
            return Outcome(ok=False, orbits=0, digest=_digest(data), problems=problems)
        rows = [line.split(",") for line in lines[1:]]
        t_prev = -math.inf
        log0 = None
        drift = 0.0
        for cells in rows:
            values = [float(c) for c in cells]
            if len(values) != 6 or any(f"{v:.17g}" != c for v, c in zip(values, cells)):
                problems.append(f"row {cells!r} is not six 17-significant-digit numbers")
                break
            t, x, y, z, log_h, log_v = values
            if not t > t_prev:
                problems.append(f"time {t!r} does not increase")
                break
            t_prev = t
            if min(x, y, z) < -SIMPLEX_TOL or x + y + z > 1.0 + SIMPLEX_TOL:
                problems.append(f"state {(x, y, z)!r} leaves the simplex")
                break
            if log0 is None:
                log0 = (log_h, log_v)
            drift = max(drift, abs(log_h - log0[0]), abs(log_v - log0[1]))
        if not problems and t_prev != self.t_end:
            problems.append(f"last time {t_prev!r} is not T={self.t_end!r}")
        endpoint = None if problems else tuple(values[1:4])
        return Outcome(ok=not problems, orbits=1, digest=_digest(data), problems=problems,
                       accuracy={"drift_max": drift}, endpoint=endpoint)

    def reference_error(self, argv, endpoint) -> float:
        """Max abs endpoint deviation from scipy DOP853 at rtol 1e-13."""
        from scipy.integrate import solve_ivp

        k1, k2, k3, k4 = self.k
        p0 = [float(c) for c in argv[argv.index("--p0") + 1].split(",")]

        def rhs(_t, p):
            x, y, z = p
            v = 1.0 - x - y - z
            return [x * (k1 * y - k4 * v), y * (k2 * z - k1 * x), z * (k3 * v - k2 * y)]

        sol = solve_ivp(rhs, (0.0, self.t_end), p0, method="DOP853",
                        rtol=REF_RTOL, atol=REF_ATOL)
        if not sol.success:
            return math.inf
        return max(abs(a - b) for a, b in zip(endpoint, sol.y[:, -1]))


SIZES = {
    # verify samples per invocation, integrate-long horizon T
    "full": {"samples": 8, "t_end": 250.0},
    "tiny": {"samples": 1, "t_end": 10.0},
}


def make(name: str, size: str = "full"):
    s = SIZES[size]
    if name == IntegrateLong.name:
        return IntegrateLong(s["t_end"])
    return {VerifyA.name: VerifyA, VerifyB.name: VerifyB}[name](s["samples"])


NAMES = (VerifyA.name, VerifyB.name, IntegrateLong.name)


def inputs(workload, seed: int, count: int) -> list:
    """The first `count` invocations of a workload for a seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.argv(rng) for _ in range(count)]
