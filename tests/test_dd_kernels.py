"""The general-cone step's straight-line double-double kernels, and the gap
and predictor composed of them, against the helper forms they replaced
(dd_reference), bit for bit; the early-stopped predictor against the
round-capped one; and the count of Python calls a step makes into geometry."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conebilliards import geometry
from conebilliards.geometry import T_MIN_FACTOR, GeneralCone, cone_step_precise, project_to_surface
from conebilliards.spiral import SpiralTrajectory

import dd_reference as ref

MAX_CALLS_PER_STEP = 40  # Python-level calls into geometry.py per replay step


def _bits(values) -> list:
    """Each float's bytes, with every NaN as one token (payloads may differ)."""
    return ["nan" if math.isnan(x) else struct.pack("<d", x) for x in values]


class _WavySection:
    """rho = 1 + 0.05 sin(3 xi): a section whose deviation moves with xi."""

    def deviation(self, xi):
        return 0.05 * math.sin(3.0 * xi), 0.15 * math.cos(3.0 * xi), -0.45 * math.sin(3.0 * xi)


class _FlatSection:
    """rho = 1: the circular cone x3 = |x_perp|."""

    def deviation(self, xi):
        return 0.0, 0.0, 0.0


def _full(lo_exp: int, hi_exp: int):
    """Floats with all 53 bits of the significand in play, of magnitude
    2^lo_exp to 2^hi_exp: float strategies favour short significands."""
    return st.builds(lambda m, e: math.ldexp(m, e - 53), st.integers(-2**53, 2**53),
                     st.integers(lo_exp, hi_exp))


_coord = st.one_of(st.floats(-1e6, 1e6), _full(-40, 20))
_dir = st.one_of(st.floats(-2.0, 2.0), _full(-20, 1))
_tail = st.one_of(st.floats(-1e-10, 1e-10), st.sampled_from([5e-324, -5e-324, 1e-310, -0.0]))
_TINY = [0.0, -0.0, 5e-324, -1e-310, 1e-17, -3e-12]


@st.composite
def _rays(draw):
    """(p, p_tail, v, t), free or adversarial: with p = -t v plus a tiny
    offset a coordinate of p + t v cancels to a few ulps or to zero; with
    p + t v on the circular cone x^2 + y^2 = z^2 the gap's terms cancel."""
    v = [draw(_dir) for _ in range(3)]
    t = draw(st.one_of(_coord, st.floats(-1e-3, 1e-3), _full(-30, -10)))
    kind = draw(st.sampled_from(["free", "coordinate", "surface"]))
    if kind == "coordinate":
        p = [-(t * w) + draw(st.sampled_from(_TINY)) for w in v]
    elif kind == "surface":
        x, y = draw(_coord), draw(_coord)
        p = [a - t * w for a, w in zip((x, y, math.hypot(x, y)), v)]
    else:
        p = [draw(_coord) for _ in range(3)]
    return p, [draw(_tail) for _ in range(3)], v, t


_EXAMPLES = [
    # z <= 0 at t, and z exactly 0 at t
    ([0.3, -0.2, -1.0], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3], 1.0),
    ([0.3, -0.2, -0.75], [0.0, 0.0, 0.0], [0.1, 0.2, 0.75], 1.0),
    # near-cancelling x and y, subnormal tails, negative t
    ([0.1 + 1e-17, -0.3, 2.0], [5e-324, -5e-324, 1e-310], [0.1, -0.3, 0.5], -1.0),
    ([1e-300, 1.0, 1.0], [-0.0, 0.0, 5e-324], [1.0, 1e-300, -1.0], 1e-300),
]


def _with_examples(test):
    for ray in _EXAMPLES:
        test = example(ray)(test)
    return test


@_with_examples
@given(_rays())
@settings(max_examples=1000, deadline=None)
def test_fused_gap_equals_helper_form(ray):
    p, p_tail, v, t = ray
    for section in (_WavySection(), _FlatSection()):
        cone = GeneralCone(section)
        fused = geometry._make_gap(cone, p, p_tail, v)(t)
        helper = ref.make_gap(cone.deviation, p, p_tail, v)(t)
        assert _bits([fused]) == _bits([helper])


@_with_examples
@given(_rays())
@settings(max_examples=1000, deadline=None)
def test_fused_predictor_head_equals_helper_form(ray):
    p, p_tail, v, _ = ray
    assert _bits(geometry._predictor_head(p, p_tail, v)) == _bits(ref.predictor_head(p, p_tail, v))


@_with_examples
@given(_rays())
@settings(max_examples=1000, deadline=None)
def test_ray_point_kernel_equals_helper_form(ray):
    p, p_tail, v, t = ray
    heads, tails = geometry._ray_point(p, p_tail, t, v)
    want_heads, want_tails = ref.ray_point(p, p_tail, t, v)
    assert _bits(heads + tails) == _bits(want_heads + want_tails)


@_with_examples
@given(_rays())
@settings(max_examples=1000, deadline=None)
def test_square_form_kernel_equals_helper_form(ray):
    # at the ray's point p + p_tail + t v, where the terms cancel on the
    # surface, and at the base p + p_tail itself
    p, p_tail, v, t = ray
    heads, tails = ref.ray_point(p, p_tail, t, v)
    for point in (heads + tails, p + p_tail):
        assert _bits(geometry._square_form(*point)) == _bits(ref.square_form(*point))


def _same_prediction(cone, p, p_tail, v) -> bool:
    """The early-stopped predictor and the round-capped copy give the same t,
    bit for bit, or both None."""
    t_min = T_MIN_FACTOR * max(math.sqrt(float(np.dot(p, p))), 1e-12)
    args = [list(map(float, x)) for x in (p, p_tail, v)]
    got = geometry._predict_root(cone, *args, t_min)
    want = ref.predict_root(cone.deviation, *args, t_min)
    if got is None or want is None:
        return got is want
    return _bits([got]) == _bits([want])


@given(st.floats(0.5, 2.0), st.floats(0.0, 1.5), st.floats(-math.pi, math.pi),
       st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=300, deadline=None)
def test_early_stopped_predictor_equals_capped_one(z, s, phi, beta, psi):
    # bases inside, on and outside the cone, directions all round
    p = np.array([s * z * math.cos(phi), s * z * math.sin(phi), z])
    v = np.array([math.sin(beta) * math.cos(psi), math.sin(beta) * math.sin(psi), math.cos(beta)])
    for section in (_FlatSection(), _WavySection()):
        assert _same_prediction(GeneralCone(section), p, np.zeros(3), v)


@pytest.mark.parametrize("start", ["k1+1", 1_000, 10_000, 100_000])
def test_early_stopped_predictor_equals_capped_one_on_c2_cone(built_curve, start):
    # the replay's own states, and seeded rays turned off them
    k = built_curve.k1 + 1 if start == "k1+1" else start
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(k)
    rng = np.random.Generator(np.random.Philox(k))
    state = (*project_to_surface(cone, line.base), line.dir.tolist())
    for _ in range(64):
        p, p_tail, v = state
        assert _same_prediction(cone, p, p_tail, v)
        for scale in (1e-9, 1e-5, 1e-2):
            w = v + scale * rng.normal(size=3)
            assert _same_prediction(cone, p, p_tail, w / np.linalg.norm(w))
        state = cone_step_precise(cone, *state)
        assert isinstance(state, tuple)


@pytest.mark.parametrize("start", ["k1+1", 10_000, 99_000])
def test_fused_kernels_equal_helper_forms_along_the_witness(built_curve, start):
    # bases on the surface with tails of an ulp, and t within ulps of the
    # root: the gap cancels to its low-order terms, which random rays reach
    # rarely
    k = built_curve.k1 + 1 if start == "k1+1" else start
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(k)
    state = (*project_to_surface(cone, line.base), line.dir.tolist())
    for _ in range(64):
        p, p_tail, v = state
        t = geometry._intersect_ray(cone, *state, math.sqrt(np.dot(p, p)))
        gap, helper = geometry._make_gap(cone, p, p_tail, v), ref.make_gap(cone.deviation, p, p_tail, v)
        for s in (t + i * math.ulp(t) for i in range(-4, 5)):
            assert _bits([gap(s)]) == _bits([helper(s)])
        heads, tails = geometry._ray_point(p, p_tail, t, v)
        want_heads, want_tails = ref.ray_point(p, p_tail, t, v)
        assert _bits(heads + tails) == _bits(want_heads + want_tails)
        assert _bits(geometry._square_form(*heads, *tails)) == _bits(ref.square_form(*heads, *tails))
        assert _bits(geometry._square_form(*p, *p_tail)) == _bits(ref.square_form(*p, *p_tail))
        assert _bits(geometry._predictor_head(p, p_tail, v)) == _bits(ref.predictor_head(p, p_tail, v))
        state = cone_step_precise(cone, *state)


def test_step_calls_into_geometry_stay_fused(built_curve):
    # every two-sum and two-product of a step is written out in line, in
    # one kernel per compensated operation: each gap call makes three calls
    # (the gap, _ray_point, _square_form), and a step 34.3 from k1 + 1 over
    # these 100 steps; the helper form made 176 calls a step
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(built_curve.k1 + 1)
    state = (*project_to_surface(cone, line.base), line.dir.tolist())
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == geometry.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        for _ in range(100):
            state = cone_step_precise(cone, *state)
    finally:
        sys.setprofile(None)
    assert isinstance(state, tuple)
    assert 0 < calls <= MAX_CALLS_PER_STEP * 100
