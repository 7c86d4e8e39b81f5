"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of pure-Python code drifts by up to a third
within minutes (neighbour load, frequency changes), which swamps the
effect of any single change to lv3.  The benchmark therefore times a fixed
pure-Python loop, owned by the benchmark and shaped like the lv3 stepper
(a Runge-Kutta step on float tuples built from generator sums), next to
every invocation, and scales each timing to the speed at which that loop takes
`REFERENCE_S`.  Set-up time is dominated by process start and dynamic
loading rather than bytecode, so it is scaled instead by the start time of
a bare interpreter measured next to it, to `START_REFERENCE_S`.  Either
ratio is steady to a few percent while both sides drift together; raw wall
times are reported alongside.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Calibration time on the reference machine (2-vCPU x86_64 VM, Python
# 3.11.7); a normalised time reads as wall time on that machine.
REFERENCE_S = 0.0045
START_REFERENCE_S = 0.06
_STEPS = 250
_PASSES = 3
# classic fourth-order Runge-Kutta tableau
_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_B = (1 / 6, 1 / 3, 1 / 3, 1 / 6)


def _field(p):
    x, y, z = p
    v = ((1.0 - x) - y) - z
    return (x * (2.0 * y - 2.0 * v), y * (3.0 * z - 2.0 * x), z * (3.0 * v - 3.0 * y))


def _pass() -> float:
    t0 = time.perf_counter()
    y, h = (0.2, 0.25, 0.3), 1e-2
    for _ in range(_STEPS):
        K = [_field(y)]
        for s in range(1, 4):
            a = _A[s]
            K.append(_field(tuple(y[i] + h * sum(a[j] * K[j][i] for j in range(s))
                                  for i in range(3))))
        y = tuple(y[i] + h * sum(_B[j] * K[j][i] for j in range(4)) for i in range(3))
    elapsed = time.perf_counter() - t0
    if not 0.0 < y[0] < 1.0:
        raise ArithmeticError("calibration loop diverged")
    return elapsed


def calibration_s() -> float:
    """Median of three passes of the fixed calibration loop."""
    return statistics.median(_pass() for _ in range(_PASSES))


def time_to_ready(cmd, cwd=None) -> float:
    """Wall time from starting `cmd` until it prints its first line; the
    process is then drained and waited for.  It must print 'ready'."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=cwd) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"{cmd[1:3]} exited with code {code} before it was ready")
    return elapsed


def interpreter_start_s() -> float:
    """Time to ready of a bare interpreter, the set-up calibration."""
    return time_to_ready([sys.executable, "-c", "print('ready')"])


def factors(calibrations: list, n: int, reference: float = REFERENCE_S) -> list:
    """Speed factor for each of n timings, the i-th of which ran between
    calibrations[i] and calibrations[i + 1]: the reference time over the
    mean of those two.  The machine can switch speed within a second, so the
    nearest calibrations track it better than a wider window."""
    return [2.0 * reference / (calibrations[i] + calibrations[i + 1]) for i in range(n)]
