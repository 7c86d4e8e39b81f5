"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from lv3.analysis import (
    alpha_limit,
    complement_edge_distance,
    detect_periodic,
    heteroclinic_match,
    make_ray,
    omega_limit,
    orbit_integral_drift,
    period_profile,
    sample_interior,
)
from lv3.cli import main
from lv3.darboux import builtin_surfaces, solve_darboux, verify_invariance
from lv3.equilibria import interior_segment_R, interior_spectrum, limit_segments, vector_field
from lv3.flow import integrate
from lv3.params import ParamVector, classify, discriminant
from lv3.rng import SplitMix64
from conftest import dense_state, face_connection_abscissae, integrate4, norm3, rand_params


def _report(tag: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{verdict}] {tag}{suffix}")
    assert ok, f"{tag}{suffix}"


def _span_residual(vec, basis) -> float:
    if not basis:
        return float(np.linalg.norm(vec))
    b = np.array(basis, dtype=float).T
    coeffs, *_ = np.linalg.lstsq(b, np.array(vec, dtype=float), rcond=None)
    return float(np.linalg.norm(b @ coeffs - np.array(vec))) / max(
        1.0, float(np.linalg.norm(vec))
    )


def test_c01_darboux_certification():
    rng = SplitMix64(1001)
    worst = 0.0
    for _ in range(50):
        k1 = rng.uniform(0.3, 3.0)
        k2 = rng.uniform(0.3, 3.0)
        k3 = rng.uniform(0.3, 3.0)
        if rng.uniform() < 0.5:
            k1, k2, k3 = -k1, -k2, -k3
        k = ParamVector(k1, k2, k3, k1 * k3 / k2)
        kernel = solve_darboux(k).kernel
        assert len(kernel) >= 2
        worst = max(worst, _span_residual((k.k2, 0.0, k.k1, 0.0), list(kernel)))
        worst = max(worst, _span_residual((0.0, k.k3, 0.0, k.k2), list(kernel)))
    n_trivial = 0
    while n_trivial < 50:
        k = rand_params(rng)
        if abs(discriminant(k)) <= 0.1:
            continue
        assert solve_darboux(k).kernel == ()
        n_trivial += 1
    _report("C01 darboux certification", worst <= 1e-10, f"worst span residual {worst:.2e}")


def test_c02_invariance_residuals_exactly_zero():
    rng = SplitMix64(1002)
    worst = 0.0
    for _ in range(100):
        k = rand_params(rng)
        for surface in builtin_surfaces(k):
            result = verify_invariance(surface, k)
            worst = max(worst, result.max_residual)
    _report("C02 invariance residual", worst == 0.0, f"max residual {worst!r}")


def test_c03_periodic_orbits_on_center_regime():
    k = ParamVector(2, 3, 3, 2)
    rng = SplitMix64(1003)
    segment = interior_segment_R(k)
    residual = max(max(abs(c) for c in vector_field(k, p)) for p in segment.sample(100))
    worst_closure = 0.0
    worst_drift = 0.0
    for p in sample_interior(k, 20, rng):
        orbit = detect_periodic(k, p)
        assert orbit is not None, f"no periodic orbit from {p.coords}"
        worst_closure = max(worst_closure, orbit.closure_error)
        drift = orbit_integral_drift(k, p, orbit.period, names=("H", "V"))
        worst_drift = max(worst_drift, *drift.values())
    ok = worst_closure <= 1e-6 and worst_drift <= 1e-8 and residual <= 1e-12
    _report(
        "C03 center-regime periodic orbits",
        ok,
        f"closure {worst_closure:.2e}, drift {worst_drift:.2e}, segment residual {residual:.2e}",
    )


def test_c04_interior_spectrum_unit_case():
    rep = interior_spectrum(ParamVector(1, 1, 1, 1), 0.25)
    imag = sorted(w.imag for w in rep.eigenvalues)
    analytic_ok = (
        rep.b == pytest.approx(0.25, abs=1e-15)
        and imag == pytest.approx([-0.5, 0.0, 0.5], abs=1e-15)
        and all(w.real == 0.0 for w in rep.eigenvalues)
    )
    ok = analytic_ok and rep.max_mismatch <= 1e-8
    _report("C04 interior spectrum", ok, f"numeric mismatch {rep.max_mismatch:.2e}")


def _limit_side_check(k, starts, expected_omega, expected_alpha, seg_tol=1e-4):
    conclusive = 0
    correct = 0
    for p in starts:
        om = omega_limit(k, p)
        al = alpha_limit(k, p)
        if om.kind == "inconclusive" or al.kind == "inconclusive":
            continue
        conclusive += 1
        if (
            om.kind == f"point-on-{expected_omega}"
            and om.distance <= seg_tol
            and al.kind == f"point-on-{expected_alpha}"
            and al.distance <= seg_tol
        ):
            correct += 1
    return conclusive, correct


def test_c05_limit_segments_and_swap():
    k = ParamVector(2, 1, 2, 1)
    rng = SplitMix64(1005)
    starts = sample_interior(k, 20, rng)
    conclusive, correct = _limit_side_check(k, starts, "s_py", "s_xz")
    ok_fwd = conclusive >= 18 and correct == conclusive
    conclusive_n, correct_n = _limit_side_check(-k, starts, "s_xz", "s_py")
    ok_neg = conclusive_n >= 18 and correct_n == conclusive_n
    _report(
        "C05 off-manifold limit segments",
        ok_fwd and ok_neg,
        f"k: {correct}/{conclusive} conclusive, -k: {correct_n}/{conclusive_n}",
    )


def test_c06_heteroclinic_dichotomy():
    grid = [
        ParamVector(1, 2, 2, 1),
        ParamVector(2, 3, 3, 2),
        ParamVector(0.5, 1.5, 1.5, 0.5),
        ParamVector(4, 2, 1, 2),
        ParamVector(2, 1, 2, 1),
        ParamVector(1, 2, 1, 2),
        ParamVector(3, 1, 2, 1),
        ParamVector(1, 1, 2, 1),
        ParamVector(2, 2, 1, 1),
        ParamVector(1.5, 3, 2, 1),
    ]
    x0 = 0.15
    worst_cross = 0.0
    for k in grid:
        match = heteroclinic_match(k, x0)
        assert match.matched == (abs(discriminant(k)) <= 1e-12), f"dichotomy broke at {tuple(k)}"
        back, fwd = face_connection_abscissae(k, "Y", x0)
        flow_x1 = back if abs(back - x0) > abs(fwd - x0) else fwd
        back, fwd = face_connection_abscissae(k, "Sigma", x0)
        flow_x2 = back if abs(back - x0) > abs(fwd - x0) else fwd
        worst_cross = max(worst_cross, abs(flow_x1 - match.x1), abs(flow_x2 - match.x2))
    _report("C06 heteroclinic dichotomy", worst_cross <= 1e-4,
            f"worst flow cross-validation gap {worst_cross:.2e}")


def test_c07_complement_edges_excluded():
    k = ParamVector(2, 1, 2, 1)
    rng = SplitMix64(1007)
    starts = sample_interior(k, 20, rng)
    violations = 0
    runs = 0
    min_seen = math.inf
    for p in starts:
        for rep in (omega_limit(k, p), alpha_limit(k, p)):
            if rep.kind == "inconclusive":
                continue
            runs += 1
            d = min(
                complement_edge_distance(k, rep.witness, "py"),
                complement_edge_distance(k, rep.witness, "xz"),
            )
            min_seen = min(min_seen, d)
            if d <= 1e-3:
                violations += 1
    _report(
        "C07 complement-edge exclusion",
        violations == 0 and runs == 40,
        f"{runs} runs, min complement distance {min_seen:.3e}",
    )


def test_c08_mass_conserving_reduction():
    rng = SplitMix64(1008)
    worst_state = 0.0
    worst_mass = 0.0
    for _ in range(10):
        k = rand_params(rng)
        raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
        total = sum(raw)
        q0 = tuple(c / total for c in raw)
        traj3 = integrate(k, q0[:3], 10.0)
        traj4 = integrate4(k, q0, 10.0)
        worst_mass = max(worst_mass, traj4.mass_error)
        stride = max(1, len(traj3.t) // 60)
        for t, state in zip(traj3.t[::stride], traj3.states[::stride]):
            s4 = dense_state(traj4.segments, t)
            worst_state = max(worst_state, norm3([a - b for a, b in zip(state, s4[:3])]))
    ok = worst_state <= 1e-7 and worst_mass <= 1e-9
    _report("C08 4-D reduction consistency", ok,
            f"state gap {worst_state:.2e}, mass error {worst_mass:.2e}")


def test_c09_period_growth_toward_boundary():
    k = ParamVector(1, 1, 1, 1)
    offsets = [0.01 + (0.22 - 0.01) * i / 8 for i in range(9)]
    points = make_ray((0.25, 0.25, 0.25), (0.0, -1.0, 0.0), offsets)
    profile = period_profile(k, points)
    innermost = profile["rows"][0]["period"]
    rel = abs(innermost - 4 * math.pi) / (4 * math.pi)
    ok = (
        profile["n_conclusive"] == 9
        and profile["strictly_increasing"]
        and rel <= 0.05
    )
    _report("C09 period growth", ok,
            f"9 samples, innermost {innermost:.6f} vs 4*pi rel err {rel:.2e}")


def test_c10_sign_symmetry_of_limit_kinds():
    rng = SplitMix64(1010)
    mismatches = 0
    kinds = set()
    for i in range(50):
        mode = i % 5
        if mode == 0:
            k = rand_params(rng, signs="positive")
        elif mode == 1:
            k = rand_params(rng, signs="negative")
        elif mode == 2:
            a, b = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            k = ParamVector(a, b, b, a)  # exactly on the zero-discriminant manifold
        elif mode == 3:
            k = rand_params(rng)
        else:
            comps = [rng.uniform(0.3, 3.0) for _ in range(4)]
            comps[rng.next_u64() % 4] = 0.0
            k = ParamVector(*comps)
        p = None
        while p is None:
            x, y, z = rng.uniform(), rng.uniform(), rng.uniform()
            if x + y + z <= 0.95 and min(x, y, z) > 0.02:
                p = (x, y, z)
        om = omega_limit(k, p, horizon=2000.0)
        al = alpha_limit(-k, p, horizon=2000.0)
        kinds.add(om.kind)
        if om.kind != al.kind:
            mismatches += 1
    _report("C10 sign symmetry", mismatches == 0,
            f"50 draws, kinds seen: {sorted(kinds)}")


def test_c11_cli_determinism(capsys):
    invocations = [
        ["verify-b", "--k", "2,1,2,1", "--samples", "4", "--seed", "9"],
        ["integrate", "--k", "2,3,3,2", "--p0", "0.2,0.2,0.2", "--t", "3",
         "--monitor", "H,V"],
        ["scan", "--slice", "2,t,2,t", "--range", "1.5,2.5", "--steps", "5"],
    ]
    ok = True
    for argv in invocations:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        ok = ok and (code1 == code2) and (out1 == out2)
    _report("C11 CLI determinism", ok, f"{len(invocations)} invocations, byte-compared")
