"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margins (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from conebilliards import elliptic as el
from conebilliards import spiral
from conebilliards.curve import c2_check_at_zero, replay, sign_change_census
from conebilliards.elliptic import EllipticCone
from conebilliards.errors import Termination
from conebilliards.geometry import OrientedLine, distance_sq, momenta, unit
from conebilliards.ndim import LiftedSection, embedded_reflection_check, negdef_check
from conebilliards.spiral import SpiralParams, SpiralTrajectory

from oracles import integral_drift, line_distance_sq, log_thetas, projected_distance_sq
from paper_checks import (caustic_tangency_residual, h_identity_residual,
                          poisson_bracket_residual, simulate_wedge, wedge_reflection_count)


def _report(num, text):
    print(f"\nACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_first_integral_consistency():
    # Both routes lose relative accuracy like eps (|x|/dist)^2 when the
    # line grazes the origin, so the random ensemble keeps dist >= 0.1 |x|;
    # the exact through-the-origin case is checked separately below.
    rng = np.random.Generator(np.random.Philox(101))
    t0 = time.monotonic()
    x = np.empty((0, 3))
    v = np.empty((0, 3))
    while x.shape[0] < 100_000:
        xs = rng.uniform(-5.0, 5.0, (120_000, 3))
        vs = rng.normal(size=(120_000, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        d2 = np.einsum("ij,ij->i", xs, xs) - np.einsum("ij,ij->i", xs, vs) ** 2
        keep = d2 >= 0.01 * np.einsum("ij,ij->i", xs, xs)
        x = np.concatenate([x, xs[keep]])
        v = np.concatenate([v, vs[keep]])
    x, v = x[:100_000], v[:100_000]
    m12 = x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]
    m13 = x[:, 0] * v[:, 2] - x[:, 2] * v[:, 0]
    m23 = x[:, 1] * v[:, 2] - x[:, 2] * v[:, 1]
    lhs = m12**2 + m13**2 + m23**2
    rhs = np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", x, v) ** 2
    rel = np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)
    elapsed = time.monotonic() - t0
    zero = OrientedLine([0.0, 0.0, 0.0], unit([0.3, -0.5, 0.81]))
    assert line_distance_sq(zero) == 0.0 and projected_distance_sq(zero) == 0.0
    # spot-check the vectorized identity against the per-line operations
    for i in range(0, 100_000, 20_000):
        line = OrientedLine(x[i], v[i])
        m = momenta(*line.base.tolist(), *line.dir.tolist())
        assert distance_sq(*m) == pytest.approx(lhs[i], rel=1e-14)
        assert line_distance_sq(line) == pytest.approx(lhs[i], rel=1e-14)
        assert projected_distance_sq(line) == pytest.approx(rhs[i], rel=1e-14)
    assert rel.max() < 1e-12
    assert elapsed < 1.0
    _report(1, f"1e5 lines, max relative gap {rel.max():.2e}, {elapsed:.2f}s")


def test_criterion_02_elliptic_conservation():
    cone = EllipticCone(2.0, 1.0)
    rng = np.random.Generator(np.random.Philox(202))
    t0 = time.monotonic()
    worst_drift = 0.0
    worst_sum = 0.0
    n_traj = 0
    while n_traj < 1000:
        log = el.run_random(cone, rng)
        if len(log.vertices) == 0:
            continue
        n_traj += 1
        d1, d2 = integral_drift(cone, log)
        worst_drift = max(worst_drift, d1, d2)
        th = log_thetas(log)
        if th.size:
            worst_sum = max(worst_sum, float(th.sum()))
            assert float(th.sum()) < math.pi
    elapsed = time.monotonic() - t0
    assert worst_drift < 1e-7
    assert elapsed < 10.0
    _report(2, f"1000 runs, max drift {worst_drift:.2e}, max sum theta {worst_sum:.4f} < pi, {elapsed:.1f}s")


def test_criterion_03_reflection_bound():
    rng = np.random.Generator(np.random.Philox(303))
    t0 = time.monotonic()
    total = 0
    bounded = 0
    violations = 0
    min_margin = math.inf
    for a, b in ((2.0, 1.0), (3.0, 2.0), (1.5, 1.2)):
        cone = EllipticCone(a, b)
        for _ in range(3500):
            log = el.run_random(cone, rng)
            total += 1
            pair = el.integral_pair(cone, OrientedLine(log.bases[0], log.dirs[0]))
            if pair.I2 <= 0.0:
                continue
            bound = el.reflection_bound(cone, pair.I1, pair.I2)
            # run_random caps a run at bound + 8, so a run over its bound
            # ends at MAX_STEPS rather than escaping
            if log.termination == Termination.MAX_STEPS or log.reflection_count > bound:
                violations += 1
            if log.termination != Termination.ESCAPED:
                continue
            th = log_thetas(log)
            if th.size:
                margin = float(th.min()) - el.min_vertex_angle(cone, pair.I1, pair.I2)
                min_margin = min(min_margin, margin)
                assert margin > 0.0
            bounded += 1
    elapsed = time.monotonic() - t0
    assert total >= 10_000
    assert violations == 0
    assert elapsed < 60.0
    _report(3, f"{total} trajectories ({bounded} with c2>0), 0 violations, "
               f"min theta margin {min_margin:.2e}, {elapsed:.1f}s")


def test_criterion_04_h_identity_and_poisson():
    cone = EllipticCone(2.0, 1.0)
    rng = np.random.Generator(np.random.Philox(404))
    u = rng.uniform(-2.0, 2.0, (11_000, 2))
    u = u[np.hypot(u[:, 0], u[:, 1]) > 1e-3][:10_000]
    v = rng.normal(size=(u.shape[0], 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    h_res = np.abs(h_identity_residual(cone, u, v)).max()
    assert h_res < 1e-10

    worst_pb = 0.0
    for _ in range(10_000):
        x = rng.uniform(-1.5, 1.5, 3)
        w = rng.uniform(-1.5, 1.5, 3)
        worst_pb = max(worst_pb, abs(poisson_bracket_residual(cone, x, w)))
    assert worst_pb < 1e-6
    _report(4, f"h-identity max {h_res:.2e} (1e4 samples), Poisson FD max {worst_pb:.2e}")


def test_criterion_05_spiral_invariants():
    t0 = time.monotonic()
    worst = {"dist": 0.0, "angles": 0.0, "alpha": 0.0, "length": 0.0}
    for a in (-1.0, 0.0, 1.0, math.pi / 2):
        traj = SpiralTrajectory(a, kmax=1_000_001)
        ks = np.unique(np.concatenate([
            np.arange(traj.k0, traj.k0 + 40),
            np.geomspace(traj.k0, 100_000, 140).astype(int),
        ]))
        ks = ks[(ks >= traj.k0) & (ks <= 100_000)]
        for k in ks:
            k = int(k)
            worst["dist"] = max(worst["dist"], abs(traj.verify_distance(k)))
            if k > traj.k0:
                al, be = traj.verify_equal_angles(k)
                worst["angles"] = max(worst["angles"], abs(al - be))
        al = traj.alpha_closed(ks)
        al_next = traj.alpha_closed(ks + 1)
        worst["alpha"] = max(worst["alpha"], np.abs(al_next - (al - spiral.theta(ks))).max())
        if a < math.pi / 2:
            k_hi = 1_000_000
            chords = float(np.sum(traj.chord_length(np.arange(traj.k0, k_hi + 1))))
            tele = float(traj.partial_length(traj.k0, k_hi))
            worst["length"] = max(worst["length"], abs(chords - tele))
    elapsed = time.monotonic() - t0
    assert worst["dist"] < 1e-10
    assert worst["angles"] < 1e-11
    assert worst["alpha"] < 1e-11
    assert worst["length"] < 1e-8
    assert elapsed < 30.0
    _report(5, f"dist {worst['dist']:.1e}, angles {worst['angles']:.1e}, "
               f"recurrence {worst['alpha']:.1e}, length@1e6 {worst['length']:.1e}, {elapsed:.1f}s")


def test_criterion_06_sigma_asymptotics():
    b4 = float(spiral.sigma(10**4)) * (10**4) ** 2.5
    b6 = float(spiral.sigma(10**6)) * (10**6) ** 2.5
    target = 3.0 / 16.0
    assert target * 0.99 <= b4 <= target * 1.01
    assert target * 0.999 <= b6 <= target * 1.001
    _report(6, f"sigma k^(5/2): {b4:.9f} at 1e4, {b6:.9f} at 1e6 (target 0.1875)")


def test_criterion_07_curve_regularity(built_curve):
    curve = built_curve
    # curvature: dense per-window sampling, >= 1e5 points total
    n_points = 0
    kappa_min = math.inf
    for k in range(curve.k1, curve.k1 + 600):
        kap = curve.curvature(curve.window_samples(k, 96))
        n_points += kap.size
        kappa_min = min(kappa_min, float(kap.min()))
    for k in np.unique(np.geomspace(curve.k1 + 600, 100_000, 500).astype(int)):
        kap = curve.curvature(curve.window_samples(int(k), 96))
        n_points += kap.size
        kappa_min = min(kappa_min, float(kap.min()))
    flat = np.linspace(-math.pi + 1e-9, math.pi, 20_000)
    kap_flat = curve.curvature(flat)
    n_points += kap_flat.size
    kappa_min = min(kappa_min, float(kap_flat.min()))
    assert n_points >= 100_000
    assert kappa_min > 0.5

    # junction continuity
    eps = 1e-13
    ks = np.arange(2, 30_000, 3)
    xi_k = spiral.xi(ks).astype(float)
    left = curve.polar(xi_k - eps)
    right = curve.polar(xi_k + eps)
    cont = max(np.abs(left[0] - right[0]).max(),
               np.abs(left[1] - right[1]).max(),
               np.abs(left[2] - right[2]).max())
    assert cont < 1e-10

    rep = c2_check_at_zero(curve)
    census_hi = 10_000
    census = sign_change_census(curve, curve.k1 + 1, census_hi)
    assert census == census_hi - curve.k1
    _report(7, f"kappa_min {kappa_min:.4f} over {n_points} pts, continuity {cont:.1e}, "
               f"slopes {tuple(round(s, 3) for s in rep.slopes)}, census {census}/{census_hi - curve.k1}")


def test_criterion_08_finite_time_witness(built_curve):
    params = SpiralParams(a=0.0)
    rep = replay(built_curve, params, steps=1000, strict=True)
    assert rep.max_vertex_rel_error < 1e-7
    assert rep.max_distance_sq_error < 1e-8  # conservation over 1e3 steps
    assert not rep.escaped
    # finite-time accumulation: the simulated flight length tracks the
    # closed form, the pieces tile the finite total, and the tail beyond
    # the replayed range is a vanishing fraction of it
    assert rep.simulated_length == pytest.approx(rep.closed_form_length, abs=1e-6)
    assert rep.total_length < math.inf
    assert rep.prefix_length + rep.closed_form_length + rep.tail_length == pytest.approx(
        rep.total_length, abs=1e-12
    )
    assert 0.0 < rep.tail_length < 0.04 * rep.total_length
    _report(8, f"1000 reflections, max vertex err {rep.max_vertex_rel_error:.2e}, "
               f"flight length {rep.simulated_length:.8f} vs closed {rep.closed_form_length:.8f}, "
               f"tail {rep.tail_length:.4f} of total {rep.total_length:.6f}")


def test_criterion_09_ndim_convexity(built_curve, spiral_a0):
    margins = {}
    for n in (4, 5):
        section = LiftedSection(built_curve, n=n)
        rep = negdef_check(section, grid_target=10_000, strict=True)
        assert rep.grid_size >= 10_000
        assert rep.max_eigenvalue < 0.0
        emb = embedded_reflection_check(section, spiral_a0, count=1000)
        assert emb.max_tangential_residual < 1e-10
        assert emb.max_perpendicular_residual == 0.0
        margins[n] = (rep.max_eigenvalue, emb.max_tangential_residual)
    _report(9, f"max eigenvalues n=4: {margins[4][0]:.3f}, n=5: {margins[5][0]:.3f}; "
               f"embedded residuals {margins[4][1]:.1e}, {margins[5][1]:.1e}")


def test_criterion_10_caustic_tangency():
    cone = EllipticCone(2.0, 1.0)
    rng = np.random.Generator(np.random.Philox(1010))
    n_traj = 0
    worst_disc = 0.0
    worst_sphere = 0.0
    while n_traj < 100:
        log = el.run_random(cone, rng)
        pair = el.integral_pair(cone, OrientedLine(log.bases[0], log.dirs[0]))
        if not (0.0 < pair.I2 < cone.b**2 * pair.I1) or len(log.vertices) < 2:
            continue
        n_traj += 1
        for ln in (OrientedLine(b, d) for b, d in zip(log.bases, log.dirs)):
            worst_disc = max(worst_disc, abs(caustic_tangency_residual(
                cone, ln, pair.I1, pair.I2)))
            worst_sphere = max(worst_sphere, abs(
                math.sqrt(line_distance_sq(ln)) - math.sqrt(pair.I1)))
    assert worst_disc < 1e-8
    assert worst_sphere < 1e-9
    _report(10, f"100 trajectories: max scaled discriminant {worst_disc:.2e}, "
                f"max sphere-caustic gap {worst_sphere:.2e}")


def test_criterion_11_wedge_sanity():
    rng = np.random.Generator(np.random.Philox(1111))
    checked = 0
    for n in range(2, 12):
        lo = math.pi / n
        hi = math.pi / (n - 1)
        for theta in np.linspace(lo + 1e-6, hi - 1e-6, 6):
            assert wedge_reflection_count(float(theta)) == n
            for _ in range(25):
                ang = rng.uniform(0.1, 0.9) * theta
                base = np.array([math.cos(ang), math.sin(ang)]) * rng.uniform(0.5, 4.0)
                back = rng.uniform(0.05, 0.95) * theta
                v = -np.array([math.cos(back), math.sin(back)])
                count = simulate_wedge(float(theta), base, v)
                assert count in (n, n - 1)
                checked += 1
    _report(11, f"{checked} wedge trajectories across theta grid, all counts in {{n, n-1}}")
