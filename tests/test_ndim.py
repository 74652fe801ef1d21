import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from conebilliards import curve as curve_module
from conebilliards.errors import DomainError
from conebilliards.ndim import (
    LiftedSection,
    embed3,
    embedded_reflection_check,
    negdef_check,
)

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
    assert section4.F1(np.array([0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_F1_reduces_to_profile(section4):
    for x2 in (-0.7, -0.2, 0.05, 0.5, 0.9):
        f, _, _ = section4.f1(x2)
        assert section4.F1(np.array([x2, 0.0])) == pytest.approx(f, abs=1e-14)


def test_F1_five_dimusional(section5):
    val = section5.F1(np.array([0.0, 0.3, 0.4]))
    assert val == pytest.approx(math.sqrt(0.75), abs=1e-12)


def test_F1_domain_errors(section4):
    with pytest.raises(DomainError):
        section4.F1(np.array([0.8, 0.7]))  # outside the unit disk
    with pytest.raises(DomainError):
        section4.F1(np.array([1.2, 0.0]))


@pytest.mark.parametrize("n", [5, 6])
def test_F1_scalar_equals_batch_bitwise(built_curve, rng, n):
    section = LiftedSection(built_curve, n=n)
    d = rng.normal(size=(400, n - 2))
    Y = 0.9 * rng.uniform(size=(400, 1)) ** (1.0 / (n - 2)) * d / np.linalg.norm(d, axis=1)[:, None]
    batch = section.F1_batch(Y)
    assert [section.F1(y) for y in Y] == batch.tolist()
    with pytest.raises(DomainError):
        section.F1(np.zeros(n - 1))  # one transverse coordinate too many


def test_f1_matches_circle_off_the_wiggle_band(section4):
    # the profile is exactly sqrt(1 - x2^2) for x2 <= 0 and x2 >= 1/3
    for x2 in (-0.9, -0.5, -0.1, 0.34, 0.6, 0.95):
        f, fp, fpp = section4.f1(x2)
        assert f == pytest.approx(math.sqrt(1.0 - x2 * x2), abs=1e-12)
        assert fp == pytest.approx(-x2 / math.sqrt(1.0 - x2 * x2), abs=1e-10)
        assert fpp == pytest.approx(-1.0 / (1.0 - x2 * x2) ** 1.5, abs=1e-8)
        # the convexity margin is exactly -1 on the circle
        assert f * fpp + fp * fp == pytest.approx(-1.0, abs=1e-9)


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
        H = section5.hessian(y)
        assert np.array_equal(H, H.T)


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
            worst = max(worst, float(np.abs(section.hessian(y) - section.hessian_fd(y)).max()))
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
        H = section5.hessian(y)
        Hfd = section5.hessian_fd(y, h=h)
        assert np.abs(H[1:, 1:] - Hfd[1:, 1:]).max() < 1e-6
        count += 1


def test_hessian_circle_region_closed_form(section5):
    # where f1 is the circle, F1 = sqrt(1 - |y|^2): Hessian of the sphere
    y = np.array([-0.3, 0.2, 0.1])
    F = math.sqrt(1.0 - float(y @ y))
    expected = -(np.eye(3) / F + np.outer(y, y) / F**3)
    assert np.abs(section5.hessian(y) - expected).max() < 1e-10


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


# every NegdefReport field as reported before the distinct-x2 inversion and
# the flat-window skip: sha256 of the sorted-key JSON
NEGDEF_PINS = {
    (3, 300): "149d58e6041749f601fda23e5e7ca227c9afb90a3b7544bc492912f4180cf289",
    (3, 5000): "45706e6884ec2bab7edcc16a4b4e576a404486585e52373534ace1f01d96e3ef",
    (3, 10_000): "b3acf62213a8f5ab3fc23213b77405d888d0a34ddee6976fbaa540e617a43968",
    (4, 300): "29b018d7fa1783df14597e80b85ae58ba1662e4cb8ccaf9f5e996144034aa983",
    (4, 5000): "c128983d2e52fa34bd90f6522feefc140e161390b96d07b1f87ccb60adc6fd14",
    (4, 10_000): "7cacaf4a379c19b8ee5b3635e5d271d16accd03e8ce46c40bbf82c1ae075667e",
    (5, 300): "86a931285f3dd113338d0a1fa60e463975285d6130bec5c24584325871be55fc",
    (5, 5000): "3998234b74ad6c6c4a099e1a2ca91470fda0d5a2aae559e07504f210e15737bd",
    (5, 10_000): "3797994e705772d9cda78926cc88573ffbdb7eaea8e609229965e3d2e08a8cce",
    (6, 300): "766213abc8b358de5f13b670a597e279a43cc4b80cbda0996e3c696d13a8ac29",
    (6, 5000): "e3406eb7583eaf6cbfbaba5a7f973444910d30c4a32d332885e7f42f9f27d26f",
    (6, 10_000): "241e5d16056087def392b35c5427d8ec0b58fb200b7c81990a92814a3070d036",
}


@pytest.mark.parametrize("n, grid", sorted(NEGDEF_PINS))
def test_negdef_report_pinned(built_curve, n, grid):
    rep = negdef_check(LiftedSection(built_curve, n=n), grid_target=grid, strict=False)
    text = json.dumps(asdict(rep), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == NEGDEF_PINS[n, grid], text


def test_negdef_evaluates_few_windows(section4, monkeypatch):
    # the grid shares each x2 along a lattice row, and the bisection's
    # midpoints mostly land on flat windows: 287 628 points reached
    # _window_dev before the inversion ran once per distinct x2
    real = curve_module._window_dev
    points = []

    def counting(x, *rest):
        points.append(np.size(x))
        return real(x, *rest)

    monkeypatch.setattr(curve_module, "_window_dev", counting)
    negdef_check(section4, grid_target=5000, strict=True)
    assert 0 < sum(points) < 30_000


def test_f1_repeated_x2_equals_one_call_per_value(section4, rng):
    values = np.concatenate([rng.uniform(-0.99, 0.99, 40), [0.0, -0.0, 0.1, 0.3, 1.0 / 3.0]])
    x2 = rng.choice(values, 600)
    got = np.stack(section4.f1(x2), axis=-1)
    want = np.array([section4.f1(v) for v in x2.tolist()])
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
