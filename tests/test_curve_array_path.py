"""The section curve's array path against a frozen copy of the code it
replaced (``curve_array_reference``): the same bits, sign bits and NaNs on
window samples, junctions, the C2 decay grid, the plateau edges and odd
points; and a guard on the trig and exp work of one array deviation call."""

import math

import numpy as np
import pytest

from conebilliards import curve as curve_module
from conebilliards import spiral
from conebilliards.curve import PolarCurve, bump, c2_check_at_zero

import curve_array_reference as reference


def _bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _assert_matches_reference(curve, pts):
    for got, want in zip(curve.deviation(pts), reference.deviation(curve, pts)):
        assert _bits_equal(got, want)
    for got, want in zip(curve.polar(pts), reference.polar(curve, pts)):
        assert _bits_equal(got, want)
    assert _bits_equal(curve.curvature(pts), reference.curvature(curve, pts))


def _odd_points(curve):
    kmax = curve.kmax
    edges = np.array([spiral.xi(max(curve.k1, 1)), spiral.xi(kmax), spiral.xi(kmax + 1),
                      curve._xi_live, 1.0])
    return np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        [0.0, -0.0, 1e-300, -1e-300, 1e-170, 5e-324, math.nan, -math.nan,
         math.inf, -math.inf, np.nextafter(1.0, 2.0), 1.5, -0.1],
    ])


@pytest.mark.parametrize("k1", [0, 1, 9, 66])
def test_flat_window_point_sets_match_reference(k1):
    # the points test_deviation_skips_only_flat_windows draws, on the curve's
    # own live range
    kmax = 20_000
    sig = np.zeros(kmax + 2)
    sig[2:] = spiral.sigma(np.arange(2, kmax + 2, dtype=float))
    curve = PolarCurve(sig, k1=k1, kmax=kmax)
    rng = np.random.default_rng(k1)
    inv = 1.0 / np.sqrt(np.arange(1.0, 300.0))
    pts = np.concatenate([
        rng.uniform(-0.2, 1.2, 20_000), rng.uniform(0.0, 1.0, 5000) ** 4,
        inv, np.nextafter(inv, 0.0), np.nextafter(inv, 2.0), _odd_points(curve),
    ])
    _assert_matches_reference(curve, pts)
    # every point live, some beyond the horizon
    live = pts[(pts > 0.0) & (pts <= curve._xi_live)]
    _assert_matches_reference(curve, live)
    _assert_matches_reference(curve, live[live > spiral.xi(kmax)])


def test_junctions_and_odd_points_match_reference(built_curve):
    ks = np.arange(2, built_curve.kmax + 2, dtype=float)
    xi_k = spiral.xi(ks)
    pts = np.concatenate([xi_k * (1.0 + 1e-9), xi_k * (1.0 - 1e-9), _odd_points(built_curve)])
    _assert_matches_reference(built_curve, pts)
    _assert_matches_reference(built_curve, pts.reshape(2, -1))
    _assert_matches_reference(built_curve, np.empty(0))
    for x in _odd_points(built_curve):
        _assert_matches_reference(built_curve, np.array([x]))


def test_window_samples_match_reference(built_curve):
    # every 97th window up to kmax, as one (windows, 96) array and one
    # window a call, the shape of the curvature sweeps
    ks = np.arange(1, built_curve.kmax, 97)
    rows = built_curve.window_samples(ks, 96)
    assert _bits_equal(rows, reference.window_samples(ks, 96))
    _assert_matches_reference(built_curve, rows)
    for k in ks.tolist():
        pts = built_curve.window_samples(k, 96)
        assert _bits_equal(pts, reference.window_samples(k, 96))
        assert _bits_equal(built_curve.curvature(pts), reference.curvature(built_curve, pts))
    k = np.int64(4096)
    assert _bits_equal(built_curve.window_samples(k, 7), reference.window_samples(k, 7))


def test_c2_grid_matches_reference(built_curve):
    ks = np.unique(np.geomspace(100, min(built_curve.kmax - 2, 100_000), 60).astype(int))
    pts = built_curve.window_samples(ks, 130)
    assert pts.shape == (ks.size, 130)
    _assert_matches_reference(built_curve, pts)
    rep = c2_check_at_zero(built_curve)
    sups = [np.abs(d).max(axis=1) for d in reference.deviation(built_curve, pts)]
    assert all(_bits_equal(got, want)
               for got, want in zip((rep.sup_dev, rep.sup_d1, rep.sup_d2), sups))


def test_bump_matches_reference_at_the_plateau_edges():
    edges = np.array([1.0 / 3.0, 2.0 / 3.0])
    ts = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                         np.linspace(0.0, 1.0, 200_001), [-1.0, 2.0, -math.inf, math.inf]])
    for got, want in zip(bump(ts), reference.bump(ts)):
        assert _bits_equal(got, want)
    for t in ts[:6].tolist():
        assert _bits_equal(bump(t), reference.bump(t))


def test_bump_of_nan_warns_no_more():
    # the frozen copy divides 0 by 0 here and warns; a NaN t now stays
    # (nan, 0, 0) without a RuntimeWarning (the suite turns those into errors)
    a, ap, app = bump(np.array([math.nan]))
    assert math.isnan(a[0]) and ap[0] == 0.0 and app[0] == 0.0


class _CountingNumpy:
    """numpy, counting the elements passed to sin, cos and exp."""

    def __init__(self):
        self.trig_elements = 0
        self.exp_elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x):
        self.trig_elements += np.size(x)
        return np.sin(x)

    def cos(self, x):
        self.trig_elements += np.size(x)
        return np.cos(x)

    def exp(self, x):
        self.exp_elements += np.size(x)
        return np.exp(x)


def _live_and_middle_third(curve, x):
    """(live points, live points whose plateau argument s = 3 t - 1 lies in
    (0, 1)), with t the point's place in its window as _window_dev forms it."""
    xm = x[(x > 0.0) & (x <= curve._xi_live)]
    with np.errstate(over="ignore", divide="ignore"):
        inv = 1.0 / (xm * xm)
    kf = np.where(inv > curve.kmax, float(curve.kmax), np.floor(inv))
    xik, xik1 = 1.0 / np.sqrt(kf), 1.0 / np.sqrt(kf + 1.0)
    s = 3.0 * ((xm - xik1) / (xik - xik1)) - 1.0
    return xm.size, np.count_nonzero((s > 0.0) & (s < 1.0))


def test_deviation_trig_and_exp_per_point(built_curve, monkeypatch):
    # two tilted circles need sin(s/2), sin s, sin x and cos x each: 8 trig
    # calls a live point (14 when each circle repeated three of them), and the
    # plateau needs exp(-1/s) and exp(-1/(1-s)) on its middle third only
    counting = _CountingNumpy()
    monkeypatch.setattr(curve_module, "np", counting)
    rng = np.random.default_rng(7)
    ks = np.unique(np.geomspace(100, 100_000, 60).astype(int))
    point_sets = [
        built_curve.window_samples(67, 96),
        built_curve.window_samples(4096, 96),
        built_curve.window_samples(ks, 130),
        rng.uniform(-0.2, 1.2, 5000),
        np.concatenate([built_curve.window_samples(200, 96), [1e-7, 1e-300]]),
    ]
    for pts in point_sets:
        counting.trig_elements = counting.exp_elements = 0
        built_curve.deviation(pts)
        live, middle = _live_and_middle_third(built_curve, pts)
        assert middle > 0
        assert counting.trig_elements <= 8 * live
        assert counting.exp_elements == 2 * middle
