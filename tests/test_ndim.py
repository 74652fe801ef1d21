import json
import math
from dataclasses import asdict

import numpy as np
import pytest

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
