import hashlib
import math
import tracemalloc
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest

from conebilliards.errors import (
    C2CheckFailure, ConstructionError, DomainError, ReplayFailure, Termination,
)
from conebilliards import curve as curve_module, spiral
from conebilliards.curve import (
    SAMPLES_PER_WINDOW,
    SIGMA_DOMAIN,
    SWEEP_BLOCK,
    PolarCurve,
    _circle_dev,
    _window_minima,
    _h_derivs,
    bump,
    bump_constant,
    build_curve,
    c2_check_at_zero,
    replay,
    sign_change_census,
)
from conebilliards.geometry import GeneralCone, _make_gap, cone_step_precise, project_to_surface
from conebilliards.spiral import SpiralParams, SpiralTrajectory

import curve_array_reference as reference
from oracles import curve_inward_normal, normal_w


# ---------------------------------------------------------------------------
# bump function
# ---------------------------------------------------------------------------

def test_bump_plateaus():
    a, ap, app = bump(0.2)
    assert (a, ap, app) == (1.0, 0.0, 0.0)
    a, ap, app = bump(0.8)
    assert (a, ap, app) == (0.0, 0.0, 0.0)
    assert bump(1.0 / 3.0)[0] == 1.0
    assert bump(2.0 / 3.0)[0] == 0.0


def test_bump_monotone_and_smooth():
    ts = np.linspace(0.0, 1.0, 4001)
    a, ap, app = bump(ts)
    assert np.all(np.diff(a) <= 1e-15)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert bump_constant() > 1.0


def test_h_derivs_match_one_exp_per_term(rng):
    # h, h' and h'' as three exp calls, the form bump was first written in;
    # bump calls _h_derivs on the open middle third only, where z = s or
    # 1 - s is at least an ulp of 1
    z = np.concatenate([rng.uniform(0.0, 1.2, 20_000), [1.1e-16, 1e-3, 0.5, 1.0]])
    z = z[z > 0.0]
    want = [np.exp(-1.0 / z), np.exp(-1.0 / z) / z ** 2,
            np.exp(-1.0 / z) * (1.0 / z ** 4 - 2.0 / z ** 3)]
    for got, expected in zip(_h_derivs(z), want):
        assert np.array_equal(got, expected)


def test_bump_fd_cross_check():
    ts = np.linspace(0.335, 0.665, 1500)
    h = 1e-5
    a0, ap, app = bump(ts)
    fd1 = (bump(ts + h)[0] - bump(ts - h)[0]) / (2 * h)
    fd2 = (bump(ts + h)[0] - 2 * a0 + bump(ts - h)[0]) / h**2
    # second differences carry ~4 eps/h^2 rounding, so the band scales
    # with the derivative magnitudes
    assert np.abs(ap - fd1).max() < 1e-6 * max(1.0, np.abs(ap).max())
    assert np.abs(app - fd2).max() < 1e-6 * max(1.0, np.abs(app).max())


# ---------------------------------------------------------------------------
# tilted circle in polar form
# ---------------------------------------------------------------------------

XI_DOMAIN = math.pi / 3.0


def circle_polar(xi_val, sigma_val):
    """(g, g_xi, g_xixi) on the compact domain |xi| <= pi/3, |sigma| <= pi/4."""
    x = np.asarray(xi_val, dtype=float)
    s = np.asarray(sigma_val, dtype=float)
    if np.any(np.abs(x) > XI_DOMAIN + 1e-12) or np.any(np.abs(s) > SIGMA_DOMAIN + 1e-12):
        raise DomainError("(xi, sigma) outside the well-defined domain D")
    dev, gx, gxx = _circle_dev(x, s)
    if np.ndim(xi_val) == 0 and np.ndim(sigma_val) == 0:
        return 1.0 + float(dev), float(gx), float(gxx)
    return 1.0 + dev, gx, gxx


def test_circle_polar_anchors():
    xs = np.linspace(-math.pi / 3, math.pi / 3, 101)
    g, gx, gxx = circle_polar(xs, 0.0)
    assert np.abs(g - 1.0).max() == 0.0
    ss = np.linspace(-math.pi / 4, math.pi / 4, 101)
    g, _, _ = circle_polar(0.0 * ss, ss)
    assert np.abs(g - 1.0).max() < 1e-15


def test_circle_polar_domain():
    with pytest.raises(DomainError):
        circle_polar(1.2, 0.0)
    with pytest.raises(DomainError):
        circle_polar(0.0, 1.0)


def test_circle_polar_derivatives_fd():
    h = 1e-6
    xs = np.linspace(-0.9, 0.9, 41)
    ss = np.linspace(-0.7, 0.7, 13)
    X, S = np.meshgrid(xs, ss, indexing="ij")
    g, gx, gxx = circle_polar(X, S)
    fd1 = (circle_polar(X + h, S)[0] - circle_polar(X - h, S)[0]) / (2 * h)
    fd2 = (circle_polar(X + h, S)[0] - 2 * g + circle_polar(X - h, S)[0]) / h**2
    assert np.abs(gx - fd1).max() < 1e-8
    assert np.abs(gxx - fd2).max() < 1e-3  # eps/h^2 floor of the oracle


def test_circle_polar_slope_bound():
    # |dg/dxi| <= e |sigma| with a measured constant e
    xs = np.linspace(-math.pi / 3, math.pi / 3, 201)
    worst = 0.0
    for s in np.linspace(-math.pi / 4, math.pi / 4, 41):
        if s == 0.0:
            continue
        _, gx, _ = circle_polar(xs, np.full_like(xs, s))
        worst = max(worst, np.abs(gx).max() / abs(s))
    assert worst < 6.0  # measured e ~ 3.6


@dataclass(frozen=True)
class ArcPatch:
    """Arc rho_k(xi) = g(xi - xi_k, sigma_k) on [xi_{k+1}, xi_{k-1}]."""

    k: int
    sigma: float

    def polar(self, xi_val):
        lo, hi = float(spiral.xi(self.k + 1)), float(spiral.xi(self.k - 1))
        x = np.asarray(xi_val, dtype=float)
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise DomainError(f"xi outside arc domain [{lo}, {hi}]")
        return circle_polar(x - float(spiral.xi(self.k)), self.sigma)


def test_arc_patch():
    patch = ArcPatch(k=100, sigma=1e-4)
    xi_k = float(spiral.xi(100))
    g, _, _ = patch.polar(xi_k)
    assert g == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        patch.polar(xi_k + 1.0)


# ---------------------------------------------------------------------------
# the built curve
# ---------------------------------------------------------------------------

def test_curve_flat_outside(built_curve):
    xs = np.array([-3.0, -1.0, -1e-9, 1.0 + 1e-9, 2.0, math.pi])
    r, r1, r2 = built_curve.polar(xs)
    assert np.all(r == 1.0)
    assert np.all(r1 == 0.0)
    assert np.all(r2 == 0.0)
    kap = built_curve.curvature(xs)
    assert np.abs(kap - 1.0).max() < 1e-15


def test_curve_through_all_vertices(built_curve):
    ks = np.arange(2, 50_000, 13)
    xi_k = spiral.xi(ks)
    r, _, _ = built_curve.polar(xi_k)
    assert np.abs(r - 1.0).max() < 1e-14


def test_curve_flat_start_region(built_curve):
    k1 = built_curve.k1
    assert k1 >= 9
    xs = np.linspace(float(spiral.xi(k1)), 1.0, 500)
    dev = built_curve.deviation(xs)[0]
    assert np.abs(dev).max() == 0.0


def test_curve_pure_arc_plateau(built_curve):
    # rho == rho_k on the middle third around each junction
    for k in (built_curve.k1 + 1, built_curve.k1 + 5, 200, 1000):
        xi_k = float(spiral.xi(k))
        dlo = float(spiral.delta(k))
        dhi = float(spiral.delta(k - 1))
        xs = np.linspace(xi_k - dlo / 3.0 + 1e-12, xi_k + dhi / 3.0 - 1e-12, 25)
        r, r1, r2 = built_curve.polar(xs)
        arc = ArcPatch(k=k, sigma=float(built_curve._sig[k]))
        g, gx, gxx = arc.polar(xs)
        assert np.abs(r - g).max() < 1e-15
        assert np.abs(r1 - gx).max() < 1e-15
        assert np.abs(r2 - gxx).max() < 1e-15


def test_curve_normals_match_w(built_curve):
    for k in range(built_curve.k1 + 1, built_curve.k1 + 40):
        frame = normal_w(k)
        n = curve_inward_normal(built_curve, float(spiral.xi(k)))
        cross = n[0] * frame.w[1] - n[1] * frame.w[0]
        ang = math.atan2(abs(cross), float(np.dot(n, frame.w)))
        assert ang < 1e-9
    for k in (500, 5000, 50_000):
        frame = normal_w(k)
        n = curve_inward_normal(built_curve, float(spiral.xi(k)))
        cross = n[0] * frame.w[1] - n[1] * frame.w[0]
        assert math.atan2(abs(cross), float(np.dot(n, frame.w))) < 1e-9


def test_curve_junction_continuity(built_curve):
    eps = 1e-13
    ks = np.arange(2, 20_000, 7)
    xi_k = spiral.xi(ks).astype(float)
    left = built_curve.polar(xi_k - eps)
    right = built_curve.polar(xi_k + eps)
    assert np.abs(left[0] - right[0]).max() < 1e-10
    assert np.abs(left[1] - right[1]).max() < 1e-10
    assert np.abs(left[2] - right[2]).max() < 1e-10


def test_curvature_above_half(built_curve):
    # dense per-window sampling near the flat start, then geometric coverage
    worst = 2.0
    for k in range(built_curve.k1, built_curve.k1 + 400):
        kap = built_curve.curvature(built_curve.window_samples(k, 96))
        worst = min(worst, float(kap.min()))
    for k in np.unique(np.geomspace(built_curve.k1 + 400, 100_000, 60).astype(int)):
        kap = built_curve.curvature(built_curve.window_samples(int(k), 96))
        worst = min(worst, float(kap.min()))
    assert worst > 0.5


def test_curvature_tends_to_one(built_curve):
    mids = 0.5 * (spiral.xi(np.array([10_000, 50_000, 100_000])) +
                  spiral.xi(np.array([10_001, 50_001, 100_001])))
    kap = built_curve.curvature(mids.astype(float))
    assert np.abs(kap - 1.0).max() < 1e-2
    assert abs(float(built_curve.curvature(1e-4)) - 1.0) < 1e-5


def test_curve_radius_bounded_below(built_curve):
    xs = np.geomspace(1e-6, 1.0, 20_000)
    r = built_curve.polar(xs)[0]
    assert r.min() > 0.5
    assert np.abs(r - 1.0).max() < 0.05


def test_c2_report(built_curve):
    rep = c2_check_at_zero(built_curve)
    s0, s1, s2 = rep.slopes
    assert abs(s0 + 4.0) < 0.15
    assert abs(s1 + 2.5) < 0.15
    assert abs(s2 + 1.0) < 0.15
    assert rep.max_slope_error() < 0.15
    # rho'(0+) = rho''(0+) = 0; window midpoints, as the junctions are exact zeros of rho - 1
    far = rep.k_values[rep.k_values >= 1000]
    mid = 0.5 * (spiral.xi(far) + spiral.xi(far + 1))
    d, d1, _ = built_curve.deviation(mid)
    assert np.max(np.abs(d) / mid) < 1e-9   # (rho-1)/xi -> 0
    assert np.max(np.abs(d1) / mid) < 1e-4  # rho'/xi -> 0


def test_window_samples_rows_equal_single_windows(built_curve):
    ks = np.array([1, 9, 67, 4095, 4096, 99_999, 129_998])
    rows = built_curve.window_samples(ks, 96)
    assert rows.shape == (ks.size, 96)
    for k, row in zip(ks.tolist(), rows):
        one = np.linspace(float(spiral.xi(k + 1)), float(spiral.xi(k)), 96)
        assert np.array_equal(built_curve.window_samples(k, 96), one)
        assert np.array_equal(row, one)


def test_c2_sups_equal_per_window_calls(built_curve):
    rep = c2_check_at_zero(built_curve)
    assert rep.k_values.size == rep.sup_dev.size > 40
    for i, k in enumerate(rep.k_values.tolist()):
        d, d1, d2 = built_curve.deviation(np.linspace(float(spiral.xi(k + 1)), float(spiral.xi(k)), 130))
        assert (rep.sup_dev[i], rep.sup_d1[i], rep.sup_d2[i]) == (
            np.abs(d).max(), np.abs(d1).max(), np.abs(d2).max())


def test_c2_strict_failure_path(built_curve, monkeypatch):
    monkeypatch.setattr("conebilliards.curve.C2_SLOPE_TOL", 1e-6)
    with pytest.raises(C2CheckFailure):
        c2_check_at_zero(built_curve)
    rep = c2_check_at_zero(built_curve, strict=False)
    assert rep.max_slope_error() > 1e-6


def test_c2_strict_check_fails_a_nan_slope(built_curve, monkeypatch):
    # a NaN slope fails the band, as a NaN eigenvalue fails negdef_check
    real = built_curve.deviation
    monkeypatch.setattr(built_curve, "deviation",
                        lambda xi: (*real(xi)[:2], np.full(np.shape(xi), np.nan)))
    rep = c2_check_at_zero(built_curve, strict=False)
    assert math.isnan(rep.slopes[2]) and math.isnan(rep.max_slope_error())
    with pytest.raises(C2CheckFailure):
        c2_check_at_zero(built_curve)


@pytest.mark.parametrize("kmax", [95, 102])
def test_c2_check_refuses_a_fit_past_the_horizon(kmax):
    # the fit runs from C2_K_LO = 100 to kmax - 2: at kmax 95 every window
    # past the horizon reads 0 and gives NaN slopes, at 102 one window is fitted
    curve = build_curve(SpiralParams(a=0.0), kmax=kmax, k1_min=9)
    assert curve.k1 < 100
    with pytest.raises(DomainError, match=r"kmax - 2 > 100"):
        c2_check_at_zero(curve, strict=True)


def test_sign_change_census(built_curve):
    k1 = built_curve.k1
    lo, hi = k1 + 1, k1 + 3000
    assert sign_change_census(built_curve, lo, hi) == hi - lo + 1
    with pytest.raises(DomainError):
        sign_change_census(built_curve, k1, k1 + 10)


def test_sign_change_census_matches_per_k_reference(built_curve):
    # the census as it was first written: two scalar deviation calls per k
    def per_k(lo, hi):
        count = 0
        for k in range(lo, hi + 1):
            xik = float(spiral.xi(k))
            below = built_curve.deviation(xik - float(spiral.delta(k)) / 6.0)[0]
            above = built_curve.deviation(xik + float(spiral.delta(k - 1)) / 6.0)[0]
            count += below * above < 0.0
        return count

    k1, kmax = built_curve.k1, built_curve.kmax
    # the last range runs past kmax, where rho - 1 is returned as zero
    for lo, hi in [(k1 + 1, k1 + 1), (k1 + 5, k1 + 4), (k1 + 1, k1 + 700),
                   (60_000, 60_500), (kmax - 300, kmax + 300)]:
        assert sign_change_census(built_curve, lo, hi) == per_k(lo, hi)
    assert sign_change_census(built_curve, kmax - 300, kmax + 300) < 601


def test_deviation_sign_alternates_at_vertices(built_curve):
    # crossing the circle at each q_k requires sigma_k != 0 there
    k = built_curve.k1 + 3
    xi_k = float(spiral.xi(k))
    below = built_curve.deviation(xi_k - float(spiral.delta(k)) / 6.0)[0]
    above = built_curve.deviation(xi_k + float(spiral.delta(k - 1)) / 6.0)[0]
    assert below * above < 0.0


def test_deep_tail_is_identically_one(built_curve):
    xs = np.array([1e-7, 1e-5, float(spiral.xi(built_curve.kmax + 10))])
    r, r1, r2 = built_curve.polar(xs)
    assert np.all(r == 1.0) and np.all(r1 == 0.0) and np.all(r2 == 0.0)


def test_scalar_deviation_matches_array_path(built_curve):
    # the math-module scalar path against the vectorized one, point by point
    rng = np.random.default_rng(20261018)
    kmax = built_curve.kmax
    ks = rng.integers(1, kmax + 1, 250).astype(float)
    junctions = spiral.xi(ks)
    pts = np.concatenate([
        1.0 - rng.uniform(0.0, 1.0, 2000),
        10.0 ** rng.uniform(-3.0, 0.0, 2000),
        junctions * (1.0 + 1e-9),
        junctions * (1.0 - 1e-9),
        [0.0, -0.1, 1.0, 1.5, math.nan, 1e-300,
         float(spiral.xi(kmax)), float(spiral.xi(kmax + 1))],
    ])
    want = np.stack(built_curve.deviation(pts), axis=-1)
    got = np.empty_like(want)
    for i, x in enumerate(pts.tolist()):
        vals = built_curve.deviation(x)
        assert all(type(v) is float for v in vals)
        got[i] = vals
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _deviation_everywhere(curve, x):
    """Reference: the frozen array deviation with _window_dev run on every
    xi in (0, 1], flat windows below k1 included."""
    return reference.deviation(curve, x, xi_live=1.0)


def _scalar_everywhere(curve, x):
    """Reference for one float: the frozen _window_dev on every xi in (0, 1]."""
    if not 0.0 < x <= 1.0 or x * x == 0.0 or 1.0 / (x * x) > curve.kmax:
        return 0.0, 0.0, 0.0
    k = int(1.0 / (x * x))
    return reference._window_dev(x, float(k), curve._sig.item(k), curve._sig.item(k + 1), math)


def _bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("k1", [0, 1, 9, 66])
def test_deviation_skips_only_flat_windows(k1):
    # evaluating xi above _xi_live (windows k < k1) only ever gave +0.0, so
    # skipping them leaves every bit, sign bits included
    kmax = 20_000
    sig = np.zeros(kmax + 2)
    sig[2:] = spiral.sigma(np.arange(2, kmax + 2, dtype=float))
    curve = PolarCurve(sig, k1=k1, kmax=kmax)
    rng = np.random.default_rng(k1)
    inv = 1.0 / np.sqrt(np.arange(1.0, 300.0))
    edges = np.array([spiral.xi(max(k1, 1)), spiral.xi(kmax), curve._xi_live, 1.0])
    pts = np.concatenate([
        rng.uniform(-0.2, 1.2, 20_000), rng.uniform(0.0, 1.0, 5000) ** 4,
        inv, np.nextafter(inv, 0.0), np.nextafter(inv, 2.0),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        [0.0, -0.0, np.nextafter(1.0, 2.0), 1e-170, -1e-170, math.nan],
    ])
    want = _deviation_everywhere(curve, pts)
    got = curve.deviation(pts)
    assert all(_bits_equal(g, w) for g, w in zip(got, want))
    assert all(_bits_equal(g, w) for g, w in zip(curve.polar(pts), (1.0 + want[0], want[1], want[2])))
    r, r1, r2 = 1.0 + want[0], want[1], want[2]
    kappa = np.abs(r * r + 2.0 * r1 * r1 - r * r2) / np.power(r * r + r1 * r1, 1.5)
    assert _bits_equal(curve.curvature(pts), kappa)
    for x in pts[20_000:].tolist():
        assert _bits_equal(curve.deviation(x), _scalar_everywhere(curve, x))


def test_default_curve_k1_and_sigma_table_pinned(built_curve):
    assert built_curve.k1 == 66
    assert hashlib.sha256(built_curve._sig.tobytes()).hexdigest() == (
        "6e686b8e91f65eb465435b24f51f90b7fb5f9667fde84c0ddd46527a45aa86d3")


@pytest.mark.parametrize("kmax", [4095, 4096, 4097, 8191, 8192, 8193, 130_000])
def test_blocked_sigma_table_equals_one_pass(built_curve, kmax):
    # kmax on both sides of the edges of the blocks that fill the table
    curve = built_curve if kmax == built_curve.kmax else build_curve(kmax=kmax, k1_min=9)
    want = np.zeros(kmax + 2)
    want[2:] = spiral.sigma(np.arange(2, kmax + 2, dtype=float))
    want[:curve.k1 + 1] = 0.0  # the flat start
    assert curve._sig.tobytes() == want.tobytes()


def test_blocked_bump_constant_equals_one_pass(monkeypatch):
    _, ap, app = bump(np.linspace(0.0, 1.0, 200_001))
    monkeypatch.setattr(curve_module, "_BUMP_C", None)
    assert bump_constant() == float(max(np.abs(ap).max(), np.abs(app).max(), 1.0))


@pytest.mark.parametrize("count", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                   2 * SWEEP_BLOCK + 1])
def test_window_minima_equal_per_window_minima(built_curve, count):
    windows = np.unique(np.geomspace(60, 129_000, count).astype(int))
    want = [built_curve.curvature(built_curve.window_samples(k, SAMPLES_PER_WINDOW)).min()
            for k in windows.tolist()]
    assert _window_minima(built_curve, windows).tobytes() == np.array(want).tobytes()


def test_candidate_curves_share_one_sigma_table():
    # a curve holds the table it is given, not a copy, and zeroes its own
    # k <= k1 prefix in place; build_curve leaves its final table read-only
    kmax = 2000
    sig = np.zeros(kmax + 2)
    sig[2:] = spiral.sigma(np.arange(2, kmax + 2, dtype=float))
    want = sig.copy()
    for k1 in (9, 20):
        assert PolarCurve(sig, k1=k1, kmax=kmax)._sig is sig
        assert not sig[:k1 + 1].any() and sig[k1 + 1:].tobytes() == want[k1 + 1:].tobytes()
    assert sig.flags.writeable
    assert not build_curve(kmax=kmax, k1_min=9)._sig.flags.writeable


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_build_curve_peak_memory_is_bounded(monkeypatch):
    # the blocked sweeps keep the temporaries small beside the about 2 MB the
    # sigma table and the curve's own copy of it hold at kmax = 130 000
    # (one pass over all indices peaked at 17 MB, and bump_constant at 14 MB)
    assert _traced_peak_mb(lambda: build_curve(kmax=130_000)) <= 8.0
    monkeypatch.setattr(curve_module, "_BUMP_C", None)
    assert _traced_peak_mb(bump_constant) <= 4.0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_short(built_curve):
    params = SpiralParams(a=0.0)
    rep = replay(built_curve, params, steps=200, strict=True)
    assert rep.max_vertex_rel_error < 1e-7
    assert rep.max_distance_sq_error < 1e-9
    assert not rep.escaped
    assert 0.0 < rep.simulated_length < rep.total_length
    assert rep.simulated_length == pytest.approx(rep.closed_form_length, abs=1e-6)
    # the three closed-form pieces tile the total length
    assert rep.prefix_length + rep.closed_form_length + rep.tail_length == pytest.approx(
        rep.total_length, abs=1e-12
    )
    assert rep.tail_length > 0.0


def test_replay_infinite_length_branch(built_curve):
    # a = pi/2: vertices run off to infinity, lengths diverge but every
    # vertex still matches the closed form
    rep = replay(built_curve, SpiralParams(a=math.pi / 2), steps=120, strict=True)
    assert rep.max_vertex_rel_error < 1e-7
    assert rep.total_length == math.inf
    assert rep.tail_length == math.inf
    assert rep.simulated_length > 0.0


def test_replay_deep_start(built_curve):
    # at k = 7e4 the deviation (~1e-19) is below the epsilon of rho = 1 + dev,
    # so only a compensated gap can find the first step strictly inside
    rep = replay(built_curve, SpiralParams(a=0.0), steps=8, start_k=70_000, strict=True)
    assert not rep.escaped
    assert rep.max_vertex_rel_error < 1e-7


def test_replay_states_pinned(built_curve):
    # sha256 over base, base_tail and dir of the first 200 criterion-8 steps,
    # taken from the scan-plus-bisection stepper before the predicted root
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(built_curve.k1 + 1)
    state = (line.base.tolist(), [0.0, 0.0, 0.0], line.dir.tolist())
    digest = hashlib.sha256()
    for _ in range(200):
        state = cone_step_precise(cone, *state)
        for part in state:
            digest.update(np.asarray(part).tobytes())
    assert digest.hexdigest() == "38126dc0e06da31147f772d34de395e283b4e10a9ee49aa7e84e763fa4234922"


@pytest.mark.parametrize("k, expected", [
    (10_000, "687913261ed5a8748345c19c2009424244d1fe7b70cb03ccc7a20f4aff04711e"),
    (50_000, "90d402890042b58fc8f62fae1e60974a96dd0e0895d808301a5a60024aaeb517"),
    # here the gap is sign noise a few ulps around each root, and the ulp walk
    # moved it (test_walked_root_equals_frozen_bracket_root)
    (99_000, "33ba1f001f89849c4d52147a016675558c60661163f185b6b54a2808abe0136d"),
    (120_000, "b241effe6403fa83481e6af5af22ea51adb5d026494e5e37ef984a1c9a15aca3"),
])
def test_deep_replay_states_pinned(built_curve, k, expected):
    # sha256 over base, base_tail and dir of 300 steps from the plain start
    # at k, taken before the cone memoized its section evaluations
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(k)
    state = (line.base.tolist(), [0.0, 0.0, 0.0], line.dir.tolist())
    digest = hashlib.sha256()
    for _ in range(300):
        state = cone_step_precise(cone, *state)
        for part in state:
            digest.update(np.asarray(part).tobytes())
    assert digest.hexdigest() == expected


def _mp_vertex(k: int) -> list:
    """p_k at a = 0 from a 30-digit S_k, with the tail summed as in
    test_tail_table_against_mpmath_oracle."""
    def term(i):
        d = 1 / (mp.sqrt(i * (i + 1)) * (mp.sqrt(i) + mp.sqrt(i + 1)))
        return 2 * mp.asin(mp.sin(d / 2) / mp.sqrt(2)) - d / mp.sqrt(2)

    s = 1 / mp.sqrt(2 * k) + mp.nsum(term, [k, mp.inf])
    t, x = 1 / mp.cos(s), 1 / mp.sqrt(k)
    return [t * mp.cos(x), t * mp.sin(x), t]


@pytest.mark.parametrize("k", [
    100, 300, 1_000, 3_000, 10_000, 30_000, 50_000, 90_839, 100_000, 120_000,
])
def test_projected_start_against_mpmath_oracle(built_curve, k):
    # the float closed-form vertex moved onto the built surface: its
    # compensated gap is at rounding level of the double-double pair, and the
    # first step from it lands on the 30-digit next vertex
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(k)
    p, p_tail = project_to_surface(cone, line.base)
    assert abs(_make_gap(cone, p, p_tail, line.dir.tolist())(0.0)) <= 1e-30 * float(np.dot(p, p))
    hit, hit_tail, _ = cone_step_precise(cone, p, p_tail, line.dir)
    with mp.workdps(30):
        ref = _mp_vertex(k + 1)
        miss = [mp.mpf(float(h)) + mp.mpf(float(l)) - r for h, l, r in zip(hit, hit_tail, ref)]
        rel = float(mp.sqrt(mp.fsum(m * m for m in miss) / mp.fsum(r * r for r in ref)))
    assert rel <= 5e-16


def test_replay_starts_where_the_plain_start_found_no_bracket(built_curve):
    # from the float vertex at k = 90 839 the first step ended NO_BRACKET
    rep = replay(built_curve, SpiralParams(a=0.0), steps=50, start_k=90_839, strict=True)
    assert rep.termination is None
    assert rep.max_vertex_rel_error < 1e-12


class _CountingSection:
    """The built curve, counting its scalar and array deviation calls."""

    def __init__(self, curve):
        self.curve = curve
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.curve, name)

    def deviation(self, xi_val):
        self.calls += 1
        return self.curve.deviation(xi_val)

    def polar(self, xi_val):
        d, d1, d2 = self.deviation(xi_val)
        return 1.0 + d, d1, d2


def test_replay_section_evaluations_per_step(built_curve):
    # the predicted root costs 2.3 section evaluations a step here: 8.0
    # before the cone kept its last one, 60.6 by a scan and a bisection
    # from 1e-2 |p|, so a step that searched any other way would show
    section = _CountingSection(built_curve)
    rep = replay(section, SpiralParams(a=0.0), steps=100, strict=True)
    assert rep.start_k == built_curve.k1 + 1
    assert rep.termination is None
    assert section.calls <= 3 * 100


def test_replay_grazing_termination(built_curve, second_reflection_grazes):
    # the second reflection grazes: the replay keeps the first step and
    # ends GRAZING instead of raising
    one = replay(built_curve, SpiralParams(a=0.0), steps=1, strict=True)
    second_reflection_grazes.clear()
    rep = replay(built_curve, SpiralParams(a=0.0), steps=5, strict=False)
    assert rep.termination is Termination.GRAZING
    assert len(second_reflection_grazes) == 2
    assert rep.max_vertex_rel_error == one.max_vertex_rel_error
    assert rep.simulated_length == one.simulated_length
    second_reflection_grazes.clear()
    with pytest.raises(ReplayFailure, match="GRAZING"):
        replay(built_curve, SpiralParams(a=0.0), steps=5, strict=True)


def test_replay_rejects_bad_start(built_curve):
    with pytest.raises(DomainError):
        replay(built_curve, SpiralParams(a=0.0), steps=10, start_k=built_curve.k1 - 1)
    with pytest.raises(DomainError):
        replay(built_curve, SpiralParams(a=0.0), steps=0)


def test_replay_rejects_range_past_kmax():
    curve = build_curve(SpiralParams(a=0.0), kmax=100, k1_min=9)
    # the default start is k1 + 1 = 67; 35 steps would reach vertex 102, past
    # q_101, the last vertex the sigma table (k <= kmax + 1) pins
    assert replay(curve, SpiralParams(a=0.0), steps=34).start_k == 67
    with pytest.raises(DomainError):
        replay(curve, SpiralParams(a=0.0), steps=35)


def test_replay_range_up_to_the_trajectory_table(built_curve):
    # kmax = 130 000: the vertex table, like the sigma table, ends the range
    # at k = kmax + 1
    params = SpiralParams(a=0.7)
    with pytest.raises(DomainError, match=r"vertices 128001\.\.130002, past k = 130001"):
        replay(built_curve, params, steps=2002, start_k=128_000, strict=False)
    rep = replay(built_curve, params, steps=2001, start_k=128_000, strict=False)
    assert (rep.steps, rep.termination) == (2001, None)


def test_build_rejects_bad_sigma_domain():
    # kmax must be large enough that sigma stays in the arc domain; all
    # sigma_k are tiny so construction succeeds even for small tables
    c = build_curve(SpiralParams(a=0.0), kmax=2000, k1_min=9)
    assert c.k1 >= 9
    assert c.kmax == 2000


@pytest.mark.parametrize("kmax, k1_min, k1", [
    (2000, 1, 66), (2000, 5, 66), (2000, 9, 66), (2000, 30, 66), (2000, 66, 66),
    # k1 is one past the last failing probe window, not the smallest admissible index
    (2000, 65, 65), (2000, 67, 67), (2000, 100, 100), (2000, 400, 400),
    (500, 400, 400), (5000, 3000, 3000),
    # only the far, geometric windows lie above k1_min
    (20_000, 5000, 5000),
])
def test_build_pins_k1(kmax, k1_min, k1):
    assert build_curve(SpiralParams(a=0.0), kmax=kmax, k1_min=k1_min).k1 == k1


@pytest.mark.parametrize("kmax", [-5, 0, 2, 10, 50])
def test_build_rejects_kmax_without_windows(kmax):
    # the curve needs a window above k1 and below kmax, or it is the unit circle
    with pytest.raises(ConstructionError):
        build_curve(SpiralParams(a=0.0), kmax=kmax, k1_min=9)


def test_build_rejects_k1_min_without_windows():
    with pytest.raises(ConstructionError):
        build_curve(SpiralParams(a=0.0), kmax=100, k1_min=100)
