import hashlib
import json
import math
from dataclasses import asdict

import mpmath as mp
import numpy as np
import pytest

from conebilliards import curve as curve_module
from conebilliards.errors import ConvexityFailure, DomainError
from conebilliards.ndim import (
    LiftedSection,
    _disk_grid,
    embed3,
    embedded_reflection_check,
    negdef_check,
)

import ndim_bisection_reference as bisection
from oracles import F1_batch

@pytest.fixture(scope="module")
def section4(built_curve):
    return LiftedSection(built_curve, n=4)


@pytest.fixture(scope="module")
def section5(built_curve):
    return LiftedSection(built_curve, n=5)


# ---------------------------------------------------------------------------
# the lifted graph F1
# ---------------------------------------------------------------------------

def test_F1_center(section4):
    assert F1_batch(section4, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-12)


def test_F1_reduces_to_profile(section4):
    x2 = np.array([-0.7, -0.2, 0.05, 0.5, 0.9])
    f, _, _ = section4.f1(x2)
    assert F1_batch(section4, np.stack([x2, np.zeros(5)], axis=-1)) == pytest.approx(f, abs=1e-14)


def test_F1_five_dimusional(section5):
    val = F1_batch(section5, np.array([[0.0, 0.3, 0.4]]))[0]
    assert val == pytest.approx(math.sqrt(0.75), abs=1e-12)


def test_F1_domain_errors(section4):
    with pytest.raises(DomainError):
        F1_batch(section4, np.array([[0.8, 0.7]]))  # outside the unit disk
    with pytest.raises(DomainError):
        F1_batch(section4, np.array([[1.2, 0.0]]))


def test_f1_refuses_nan(section4):
    with pytest.raises(DomainError):
        section4.f1(math.nan)


def test_F1_batch_refuses_nan(section4):
    with pytest.raises(DomainError):
        F1_batch(section4, np.array([[0.1, math.nan]]))


def test_hessian_refuses_nan(section4):
    with pytest.raises(DomainError):
        section4.hessian_batch(np.array([[0.1, math.nan]]))


@pytest.mark.parametrize("n", [5, 6])
def test_F1_scalar_equals_batch_bitwise(built_curve, rng, n):
    section = LiftedSection(built_curve, n=n)
    d = rng.normal(size=(400, n - 2))
    Y = 0.9 * rng.uniform(size=(400, 1)) ** (1.0 / (n - 2)) * d / np.linalg.norm(d, axis=1)[:, None]
    batch = F1_batch(section, Y)
    assert [F1_batch(section, y[None])[0] for y in Y] == batch.tolist()
    with pytest.raises(DomainError):
        F1_batch(section, np.zeros((1, n - 1)))  # one transverse coordinate too many


def test_f1_matches_circle_off_the_wiggle_band(section4):
    # the profile is exactly sqrt(1 - x2^2) for x2 <= 0 and x2 >= 1/3
    x2 = np.array([-0.9, -0.5, -0.1, 0.34, 0.6, 0.95])
    f, fp, fpp = section4.f1(x2)
    assert f == pytest.approx(np.sqrt(1.0 - x2 * x2), abs=1e-12)
    assert fp == pytest.approx(-x2 / np.sqrt(1.0 - x2 * x2), abs=1e-10)
    assert fpp == pytest.approx(-1.0 / (1.0 - x2 * x2) ** 1.5, abs=1e-8)
    # the convexity margin is exactly -1 on the circle
    assert f * fpp + fp * fp == pytest.approx(np.full(6, -1.0), abs=1e-9)


def test_lift_requires_matching_circle_window(built_curve):
    with pytest.raises(DomainError):
        # k1 = 8 leaves xi_{k1} > asin(1/3): profile would miss the circle
        from conebilliards.curve import PolarCurve
        bad = PolarCurve(np.zeros(built_curve.kmax + 2), k1=8, kmax=built_curve.kmax)
        LiftedSection(bad, n=4)


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def test_hessian_symmetric(section5, rng):
    for _ in range(20):
        y = rng.uniform(-0.5, 0.5, 3)
        H = section5.hessian_batch(y[None])[0]
        assert np.array_equal(H, H.T)


# Second-difference rounding noise is ~4 eps/h^2: 1e-5 would floor at 9e-6,
# 1e-4 keeps the cross-check honestly below 1e-6.
FD_STEP = 1e-4


def hessian_fd(section, y, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Hessian of the section's F1, the cross-check oracle."""
    y = np.asarray(y, dtype=float)
    m = y.size
    eye = np.eye(m)
    pts = [y]
    for i in range(m):
        pts += [y + h * eye[i], y - h * eye[i]]
    for i in range(m):
        for j in range(i + 1, m):
            pts += [y + h * (eye[i] + eye[j]), y + h * (eye[i] - eye[j]),
                    y - h * (eye[i] - eye[j]), y - h * (eye[i] + eye[j])]
    vals = F1_batch(section, np.stack(pts))
    H = np.empty((m, m))
    f0 = vals[0]
    idx = 1
    for i in range(m):
        H[i, i] = (vals[idx] - 2.0 * f0 + vals[idx + 1]) / h**2
        idx += 2
    for i in range(m):
        for j in range(i + 1, m):
            a, b, c, d = vals[idx:idx + 4]
            H[i, j] = H[j, i] = (a - b - c + d) / (4.0 * h * h)
            idx += 4
    return H


def test_hessian_fd_cross_check(section4, section5, rng):
    for section in (section4, section5):
        m = section.n - 2
        worst = 0.0
        count = 0
        while count < 300:
            y = rng.uniform(-0.75, 0.75, m)
            if float(y @ y) > 0.75**2:
                continue
            if 0.0 < y[0] < 0.35:
                continue  # C2-only band: the FD oracle needs smoothness
            worst = max(worst, float(np.abs(section.hessian_batch(y[None])[0] - hessian_fd(section, y)).max()))
            count += 1
        assert worst < 1e-6


def test_hessian_fd_transverse_rows_in_wiggle_band(section5, rng):
    # rows i,j >= 3 never differentiate f1, so FD works even on the band
    h = 1e-4
    count = 0
    while count < 50:
        y = rng.uniform(-0.6, 0.6, 3)
        if float(y @ y) > 0.36 or not (0.0 < y[0] < 0.33):
            continue
        H = section5.hessian_batch(y[None])[0]
        Hfd = hessian_fd(section5, y, h=h)
        assert np.abs(H[1:, 1:] - Hfd[1:, 1:]).max() < 1e-6
        count += 1


def test_hessian_circle_region_closed_form(section5):
    # where f1 is the circle, F1 = sqrt(1 - |y|^2): Hessian of the sphere
    y = np.array([-0.3, 0.2, 0.1])
    F = math.sqrt(1.0 - float(y @ y))
    expected = -(np.eye(3) / F + np.outer(y, y) / F**3)
    assert np.abs(section5.hessian_batch(y[None])[0] - expected).max() < 1e-10


def test_negdef_report(section4):
    rep = negdef_check(section4, grid_target=4000, strict=True)
    assert rep.max_eigenvalue < 0.0
    assert rep.margin > 0.1
    assert rep.grid_size >= 4000
    assert rep.failures == []
    assert rep.scalar_max < 0.0
    d = json.loads(json.dumps(asdict(rep)))
    assert d["n"] == 4 and d["max_eigenvalue"] == rep.max_eigenvalue
    assert d["window_f1_range"] == list(rep.window_f1_range)


@pytest.mark.parametrize("spoil", [-1.0, math.nan])
def test_negdef_failure_names_the_point(built_curve, monkeypatch, spoil):
    # the CLI prints only the message, so it must say where the check failed;
    # a Hessian made positive definite or NaN at the eighth grid point fails
    section = LiftedSection(built_curve, n=4)
    real = section.hessian_batch

    def spoiled(Y):
        H = real(Y)
        H[7] *= spoil
        return H

    monkeypatch.setattr(section, "hessian_batch", spoiled)
    with pytest.raises(ConvexityFailure) as failure:
        negdef_check(section, grid_target=500, strict=True)
    assert f"at y = {_disk_grid(2, 500)[7].tolist()}" in str(failure.value)


# every NegdefReport field with the Newton inversion of the profile: sha256
# of the sorted-key JSON
NEGDEF_PINS = {
    (3, 300): "883b7f664c86054884e118422f4a68ab0e08d40a54f1772e63b5023a7073827f",
    (3, 5000): "291987783e3b1db4d51063033cf578ebd4a3a185f6ed8c937f4fc1955c410d94",
    (3, 10_000): "1d90e13cc0229b1d2e816116f0aec778a4e236716f45cfbaae02b517a8bed6ed",
    (4, 300): "5f78837552256ef10fc1cc4191d88cc780ae31c9109db67189a56ffcf857fe53",
    (4, 5000): "65b8c7666cc8f327545f5acc77c05b3afbf5fa3a87b1c75aacae480108e63638",
    (4, 10_000): "a49ddebfe4072b28fcdadebffabdeb502c84cca9bb897eb8bf45ad60ce8af91e",
    (5, 300): "c3cb358ed6d511ab7bdc2961a7a643958f69363199c6830c3f4c6ec800c69f6b",
    (5, 5000): "94021b5dedf6cbe53849d28b9974760ceefc09ca144541ff8f24a7b1269e5d0d",
    (5, 10_000): "704249f5a3f587416f79a3b5f01e233d77cc7527da1ad94f4b6abd683a150b2f",
    (6, 300): "9fe0c9ccff35988f6d71395dceca498c4aea35e35f6249171918adc585be53aa",
    (6, 5000): "30ecff90cd6bd2cc6c44e949c0c77927daf0262ad684f1252bdd9f626febdb9a",
    (6, 10_000): "ec84f7fc83035530dad8d45e849b7dba51317fb4dd179fe44ae25cf4e839f2a0",
}


@pytest.mark.parametrize("n, grid", sorted(NEGDEF_PINS))
def test_negdef_report_pinned(built_curve, n, grid):
    rep = negdef_check(LiftedSection(built_curve, n=n), grid_target=grid, strict=False)
    text = json.dumps(asdict(rep), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == NEGDEF_PINS[n, grid], text


def test_negdef_evaluates_few_windows(section4, monkeypatch):
    # the grid shares each x2 along a lattice row, and after the first
    # Newton round only the live x2 still moving are evaluated: 287 628
    # points reached _window_dev before the inversion ran once per distinct
    # x2, 15 103 under 60 bisection rounds, 1 250 now
    real = curve_module._window_dev
    points = []

    def counting(x, *rest):
        points.append(np.size(x))
        return real(x, *rest)

    monkeypatch.setattr(curve_module, "_window_dev", counting)
    negdef_check(section4, grid_target=5000, strict=True)
    assert 0 < sum(points) < 1_500


@pytest.mark.parametrize("n, grid", sorted(NEGDEF_PINS))
def test_negdef_verdicts_match_bisection_route(built_curve, monkeypatch, n, grid):
    section = LiftedSection(built_curve, n=n)
    new = negdef_check(section, grid_target=grid, strict=False)
    monkeypatch.setattr(section, "_xi_from_x2", lambda x2: bisection.xi_from_x2(built_curve, x2))
    old = negdef_check(section, grid_target=grid, strict=False)

    def verdict(rep):
        signs = np.sign([rep.max_eigenvalue, rep.margin, rep.scalar_max,
                         *rep.window_f1p_range, *rep.window_f1_range])
        passed = not rep.failures and rep.max_eigenvalue < 0.0
        return passed, rep.failures, rep.grid_size, signs.tolist()

    assert verdict(new) == verdict(old)


def _inverted_x2():
    """The distinct x2 that criterion 9 inverts: its scalar grid and the
    lattice rows for n = 4 and 5."""
    xs = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, 4001)
    rows = [_disk_grid(m, grid)[:, 0] for m in (2, 3) for grid in (5000, 10_000)]
    return np.unique(np.concatenate([xs, *rows]))


def test_f1_makes_few_curve_calls(section4, built_curve, monkeypatch, rng):
    # at most 3 inversion rounds plus the call at the roots: no x2 comes
    # near the 60-round cap (2 rounds at most on these inputs)
    real = built_curve.deviation
    calls = []

    def counting(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(built_curve, "deviation", counting)
    for x2 in (_inverted_x2(), rng.uniform(-1.0, 1.0, 1000), rng.uniform(0.0, 0.34, 1000)):
        calls.clear()
        section4.f1(x2)
        assert len(calls) <= 4


def test_f1_evaluates_polar_once_per_distinct_x2(section4, built_curve, monkeypatch):
    # criterion 9's lattice repeats each x2 along its rows: the chain rule
    # runs on the distinct values only
    x2 = _disk_grid(3, 10_000)[:, 0]
    real = built_curve.polar
    points = []

    def counting(x):
        points.append(np.size(x))
        return real(x)

    monkeypatch.setattr(built_curve, "polar", counting)
    section4.f1(x2)
    assert sum(points) == np.unique(x2).size < x2.size


class _SteepProfile:
    """Stand-in curve with rho = 1 + 2 exp(-(xi/0.05)^2): x2(xi) still rises
    on (-pi/2, pi/2), but its slope falls to about 0.1 near xi = 0.06, where
    unguarded Newton steps from arcsin(x2) overshoot and cycle."""

    def deviation(self, x):
        e = 2.0 * np.exp(-(x / 0.05) ** 2)
        return e, -800.0 * x * e, None

    def polar(self, x):
        d, d1, d2 = self.deviation(x)
        return 1.0 + d, d1, d2


def test_xi_from_x2_bracket_stops_the_cycles(section4, monkeypatch):
    # 52 of these x2 run into the 60-round cap without the midpoint steps,
    # and 6 without the stop on a bracket 4 ulp wide; with both the last
    # stops in round 11
    steep = _SteepProfile()
    rounds = []
    real = steep.deviation
    monkeypatch.setattr(steep, "deviation", lambda x: rounds.append(x) or real(x))
    monkeypatch.setattr(section4, "curve", steep)
    x2 = np.linspace(-0.99, 0.99, 4001)
    got = section4._xi_from_x2(x2)
    assert len(rounds) <= 15
    assert np.allclose(got, bisection.xi_from_x2(steep, x2), rtol=1e-14, atol=1e-17)


def _mp_circle_dev(x, s):
    u = mp.cos(x) * (1 - mp.cos(s)) - mp.sin(x) * mp.sin(s)
    return u + mp.sqrt(u * u + 2 * mp.cos(s) - 1) - 1


def _mp_rho(curve, x):
    """rho(x) in mpmath: _window_dev's two circles and bump, read from the
    curve's float sigma table."""
    if not 0 < x <= curve._xi_live or 1 / (x * x) > curve.kmax:
        return mp.mpf(1)
    k = int(mp.floor(1 / (x * x)))
    xik, xik1 = 1 / mp.sqrt(k), 1 / mp.sqrt(k + 1)
    s = min(max(3 * (x - xik1) / (xik - xik1) - 1, mp.mpf(0)), mp.mpf(1))
    if 0 < s < 1:
        h, hb = mp.exp(-1 / s), mp.exp(-1 / (1 - s))
        a = hb / (h + hb)
    else:
        a = 1 - s
    dk = _mp_circle_dev(x - xik, mp.mpf(float(curve._sig[k])))
    dq = _mp_circle_dev(x - xik1, mp.mpf(float(curve._sig[k + 1])))
    return 1 + dk + (dq - dk) * a


def test_xi_from_x2_against_mpmath(section4, built_curve, rng):
    # each root lies within 1 ulp of the 40-digit root, or no further from
    # it than the 60-round bisection's; that bracket stops 3e-18 wide, so on
    # tiny x2 only the 1-ulp bound holds
    edge = [0.0, -0.0, 5e-324, 1e-300, 1.0 - 1e-10, -(1.0 - 1e-10)]
    x2 = np.concatenate([_inverted_x2(), rng.uniform(-1.0, 1.0, 200),
                         rng.uniform(0.0, 0.34, 200), edge])
    new = section4._xi_from_x2(x2).tolist()
    old = bisection.xi_from_x2(built_curve, x2).tolist()
    x2_live = math.sin(built_curve._xi_live)
    with mp.workdps(40):
        for v, a, b in zip(x2.tolist(), new, old):
            if v <= 0.0 or v >= x2_live:
                root = mp.asin(v)
            else:  # the residual is relative, so tiny x2 converge as well
                root = mp.findroot(lambda x: _mp_rho(built_curve, x) * mp.sin(x) / v - 1,
                                   (mp.mpf(a), mp.mpf(a) * (1 + mp.mpf(2) ** -40)),
                                   solver="secant", tol=mp.mpf(10) ** -70)
            ulp = float(np.spacing(abs(float(root))))
            assert abs(a - root) <= max(ulp, abs(b - root)), (v, a, b, root)


def test_f1_repeated_x2_equals_one_call_per_value(section4, rng):
    values = np.concatenate([rng.uniform(-0.99, 0.99, 40), [0.0, -0.0, 0.1, 0.3, 1.0 / 3.0]])
    x2 = rng.choice(values, 600)
    got = np.stack(section4.f1(x2), axis=-1)
    want = np.array([np.concatenate(section4.f1(np.array([v]))) for v in x2.tolist()])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_negdef_window_bounds(section4):
    rep = negdef_check(section4, grid_target=500, strict=True)
    lo, hi = rep.window_f1p_range
    assert -1.0 / (2.0 * math.sqrt(2.0)) - 1e-9 < lo and hi < 0.0
    flo, fhi = rep.window_f1_range
    assert 2.0 * math.sqrt(2.0) / 3.0 - 1e-9 < flo and fhi < 1.0


def test_scalar_margin_explicit_constant(section4):
    # on (0, 1/3): f1 f1'' + f1'^2 < (1/8)(1 - sqrt(2)/3) - sqrt(2)/3 < 0
    xs = np.linspace(1e-4, 1.0 / 3.0 - 1e-4, 2000)
    f, fp, fpp = section4.f1(xs)
    bound = (1.0 / 8.0) * (1.0 - math.sqrt(2.0) / 3.0) - math.sqrt(2.0) / 3.0
    assert bound < 0.0
    assert np.all(f * fpp + fp * fp < bound)


# ---------------------------------------------------------------------------
# embedded trajectory
# ---------------------------------------------------------------------------

def test_embed3_slots():
    v = embed3(np.array([1.0, 2.0, 3.0]), 6)
    assert np.array_equal(v, [1.0, 2.0, 0.0, 0.0, 0.0, 3.0])
    stack = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(embed3(stack, 5), [embed3(row, 5) for row in stack])


def test_embedded_reflections_n4(section4, spiral_a0):
    rep = embedded_reflection_check(section4, spiral_a0, count=1000)
    assert rep.max_tangential_residual < 1e-10
    assert rep.max_perpendicular_residual == 0.0


def test_embedded_reflections_n3_degenerate(built_curve, spiral_a0):
    rep = embedded_reflection_check(LiftedSection(built_curve, n=3), spiral_a0, count=300)
    assert rep.max_tangential_residual < 1e-10


def test_embedded_reflections_n6(built_curve, spiral_a0):
    rep = embedded_reflection_check(LiftedSection(built_curve, n=6), spiral_a0, count=300)
    assert rep.max_tangential_residual < 1e-10
    assert rep.max_perpendicular_residual == 0.0
