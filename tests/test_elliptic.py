import math

import mpmath
import numpy as np
import pytest

from conebilliards import elliptic, geometry
from conebilliards.errors import DomainError, GrazingError, Termination
from conebilliards.geometry import (
    OrientedLine,
    angular_momenta,
    unit,
)
from conebilliards.elliptic import (
    EllipticCone,
    integral_pair,
    min_vertex_angle,
    next_intersection,
    reflection_bound,
    run,
    run_random,
    sample_start,
)

from oracles import (alpha_theta_residuals, angle_to_integral_residual, integral_drift,
                     line_distance_sq, log_integrals, log_thetas, quadric)
from paper_checks import (caustic_tangency_residual, chord_angle_sin_sq, h_identity_residual,
                          m12_sq_max, poisson_bracket_residual)


@pytest.fixture(scope="module")
def cone():
    return EllipticCone(2.0, 1.0)


def _long_log(cone, rng, min_vertices=4, require_positive_I2=False):
    for _ in range(500):
        log = run_random(cone, rng)
        if len(log.vertices) < min_vertices:
            continue
        if require_positive_I2 and _launch_pair(cone, log).I2 <= 0.0:
            continue
        return log
    raise RuntimeError("sampler failed to produce a long trajectory")


def _lines(log):
    return [OrientedLine(b, d) for b, d in zip(log.bases, log.dirs)]


def _launch_pair(cone, log):
    return integral_pair(cone, _lines(log)[0])


# ---------------------------------------------------------------------------
# cone basics and integrals
# ---------------------------------------------------------------------------

def test_cone_validation():
    with pytest.raises(DomainError):
        EllipticCone(1.0, 1.0)
    with pytest.raises(DomainError):
        EllipticCone(1.0, 2.0)
    with pytest.raises(DomainError):
        EllipticCone(2.0, 0.0)


def test_cone_rejects_semi_axis_too_small_for_the_quadric():
    # a start at height 2 makes the ray's B^2 as large as 16/b^2, which
    # overflows below b ~ 2.98e-154
    for b in (1e-154, 5e-155, 1e-160):
        with pytest.raises(DomainError, match=f"a=2.0, b={b}"):
            EllipticCone(2.0, b)
    assert EllipticCone(2.0, 3e-154).b == 3e-154


def test_I2_direct_substitution(cone):
    line = OrientedLine([1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert integral_pair(cone, line).I2 == pytest.approx(3.0, abs=1e-15)


def test_I2_line_through_origin(cone):
    line = OrientedLine([0.0, 0.0, 0.0], unit([0.3, 0.4, 0.86]))
    assert integral_pair(cone, line).I2 == 0.0


def test_integrals_constant_on_trajectory(cone, rng):
    log = _long_log(cone, rng)
    pair = log_integrals(log)
    i1, i2 = pair.I1, pair.I2
    assert np.ptp(i1) / i1.max() < 1e-9
    assert np.ptp(i2) / max(np.abs(i2).max(), i1.max()) < 1e-9
    for vert in log.vertices:
        assert abs(quadric(cone, vert)) < 1e-10 * max(1.0, float(vert @ vert))


def test_log_integrals_equal_integral_pair(cone, rng):
    log = _long_log(cone, rng, min_vertices=6)
    pair = log_integrals(log)
    assert pair.I1.shape == pair.I2.shape == (len(log.vertices) + 1,)
    for i, line in enumerate(_lines(log)):
        one = integral_pair(cone, line)
        assert pair.I1[i] == one.I1 and pair.I2[i] == one.I2


# ---------------------------------------------------------------------------
# ray stepping
# ---------------------------------------------------------------------------

def test_next_intersection_semi_axes(cone):
    hit = next_intersection(cone, np.array([0.0, 0, 1]), np.array([1.0, 0, 0]))
    assert np.allclose(hit, [2.0, 0.0, 1.0], atol=1e-14)
    hit = next_intersection(cone, np.array([0.0, 0, 1]), np.array([0.0, 1, 0]))
    assert np.allclose(hit, [0.0, 1.0, 1.0], atol=1e-14)


def test_next_intersection_residual_random(cone, rng):
    for _ in range(300):
        base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.6)])
        if quadric(cone, base) >= -1e-3:
            continue
        line = OrientedLine(base, unit(rng.normal(size=3)))
        hit = next_intersection(cone, line.base, line.dir)
        if hit is Termination.ESCAPED:
            continue
        assert abs(quadric(cone, hit)) < 1e-11 * max(1.0, float(np.dot(hit, hit)))
        assert hit[2] > 0.0


def test_next_intersection_escape_up_axis(cone):
    assert next_intersection(cone, np.array([0.0, 0, 1]), np.array([0.0, 0, 1])) is Termination.ESCAPED


def test_next_intersection_apex_down_axis(cone):
    line = OrientedLine([0, 0, 1], [0, 0, -1])
    assert next_intersection(cone, line.base, line.dir) is Termination.APEX
    assert run(cone, line).termination is Termination.APEX


def test_vieta_no_duplicate_vertex(cone, rng):
    # from a surface point the near-zero root must never be returned
    for _ in range(200):
        line = sample_start(cone, rng)
        hit = next_intersection(cone, line.base, line.dir)
        if hit is Termination.ESCAPED:
            continue
        assert float(np.linalg.norm(hit - line.base)) > 1e-8


def _mp_exit_hit(cone, p, v):
    """The exit of the ray p + t v from the solid cone by 40-digit roots of
    A t^2 + B t + C, or None when it escapes.  2 A t + B = +sqrt(disc) at
    (-B + sqrt(disc)) / 2A, so that root is the one exit."""
    with mpmath.workdps(40):
        a2, b2 = mpmath.mpf(cone.a) ** 2, mpmath.mpf(cone.b) ** 2
        P, V = [mpmath.mpf(float(x)) for x in p], [mpmath.mpf(float(x)) for x in v]
        A = V[0] ** 2 / a2 + V[1] ** 2 / b2 - V[2] ** 2
        B = 2 * (P[0] * V[0] / a2 + P[1] * V[1] / b2 - P[2] * V[2])
        C = P[0] ** 2 / a2 + P[1] ** 2 / b2 - P[2] ** 2
        disc = B * B - 4 * A * C
        if disc < 0:
            return None
        t = (-B + mpmath.sqrt(disc)) / (2 * A)
        hit = [P[i] + t * V[i] for i in range(3)]
        if not (t > elliptic.T_MIN_FACTOR * float(np.linalg.norm(p)) and hit[2] > 0):
            return None
        return np.array([float(x) for x in hit])


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (3.0, 2.0), (1.5, 1.2)])
def test_next_intersection_exit_root_mp_oracle(a, b):
    # interior starts and surface starts, whose own crossing is an entry
    cone = EllipticCone(a, b)
    rng = np.random.default_rng(5)
    starts = []
    while len(starts) < 200:
        base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.6)])
        if quadric(cone, base) < 0.0:
            starts.append((base, unit(rng.normal(size=3))))
    starts += [(ln.base, ln.dir) for ln in (sample_start(cone, rng) for _ in range(200))]
    escaped = 0
    for p, v in starts:
        hit, ref = next_intersection(cone, p, v), _mp_exit_hit(cone, p, v)
        if ref is None:
            assert hit is Termination.ESCAPED
            escaped += 1
        else:
            assert not isinstance(hit, Termination)
            assert np.abs(hit - ref).max() < 1e-12 * max(1.0, float(np.abs(ref).max()))
    assert 0 < escaped < len(starts)
    # surface starts 1e-7..1e-4 rad off the tangent plane: from a base just
    # outside, the entry root C/q lies above t_min.  Float coefficients fix
    # so short a chord to ~1e-3 of its length; the entry is off by all of it.
    for _ in range(200):
        p = cone.surface_point(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 2.0))
        n_in = np.array(cone.inward_normal(p))
        v = unit(unit(np.cross(n_in, rng.normal(size=3))) + 10.0 ** rng.uniform(-7, -4) * n_in)
        hit, ref = next_intersection(cone, p, v), _mp_exit_hit(cone, p, v)
        if ref is None:
            assert hit is Termination.ESCAPED
        else:
            assert not isinstance(hit, Termination)
            assert np.abs(hit - ref).max() < 1e-2 * np.abs(ref - p).max()


def test_run_validates_at_most_twice_per_reflection(cone, monkeypatch):
    # validation stays out of the inner loop: reflect_direction checks v and
    # normalizes the normal, and nothing else revalidates a vector
    rng = np.random.default_rng(11)
    starts = [sample_start(cone, rng) for _ in range(300)]
    real = geometry._vec
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "_vec", counting)
    attempts = 0
    for line0 in starts:
        log = run(cone, line0, max_steps=elliptic.FALLBACK_STEPS, started_on_surface=True)
        attempts += len(log.vertices) + (log.termination is Termination.GRAZING)
    assert attempts > len(starts)
    assert len(calls) <= 2 * attempts


def test_run_steps_through_next_intersection(cone, monkeypatch):
    # run looks the step up on the module, so a wrapper set there sees every
    # step: one per reflection and the one that ended the trajectory
    rng = np.random.default_rng(12)
    starts = [sample_start(cone, rng) for _ in range(50)]
    real = elliptic.next_intersection
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(elliptic, "next_intersection", counting)
    reflections = 0
    for line0 in starts:
        calls.clear()
        log = run(cone, line0, started_on_surface=True)
        assert log.termination in (Termination.ESCAPED, Termination.APEX)
        assert len(calls) == len(log.vertices) + 1
        reflections += len(log.vertices)
    assert reflections > len(starts)


def test_run_planar_stays_planar(cone):
    line = OrientedLine([1.0, 0.0, 1.0], unit([-0.9, 0.0, 0.15]))
    log = run(cone, line, max_steps=50)
    assert len(log.vertices) >= 1
    for ln in _lines(log):
        m12, _, m23 = angular_momenta(ln.base, ln.dir)
        assert m12 == 0.0 and m23 == 0.0


def test_run_termination_enum(cone, rng):
    log = _long_log(cone, rng)
    assert log.termination in (Termination.ESCAPED, Termination.MAX_STEPS)
    short = run(cone, OrientedLine([0, 0, 1], [0, 0, 1]), max_steps=5)
    assert short.termination == Termination.ESCAPED
    assert short.reflection_count == 0


def test_run_grazing_termination(cone, rng, monkeypatch):
    # the second reflection grazes: the run keeps the first and ends GRAZING
    full = _long_log(cone, rng, min_vertices=3)
    line0 = _lines(full)[0]
    real = elliptic.reflect_direction
    calls = []

    def grazes_second(v, n):
        calls.append(n)
        if len(calls) == 2:
            raise GrazingError("grazing incidence")
        return real(v, n)

    monkeypatch.setattr(elliptic, "reflect_direction", grazes_second)
    log = run(cone, line0, started_on_surface=True)
    assert log.termination == Termination.GRAZING
    assert len(calls) == 2
    assert np.array_equal(log.bases, full.bases[:2])
    assert np.array_equal(log.dirs, full.dirs[:2])
    assert log.reflection_count == 2


def test_run_alpha_theta_bookkeeping(cone, rng):
    log = _long_log(cone, rng, min_vertices=5)
    rep = alpha_theta_residuals(log.vertices, log.dirs[1:])
    assert np.abs(rep.alpha).max() < 1e-9
    assert np.abs(rep.radius).max() < 1e-9


def test_sum_theta_below_pi(cone, rng):
    for _ in range(100):
        log = run_random(cone, rng)
        th = log_thetas(log)
        if th.size:
            assert th.sum() < math.pi


# ---------------------------------------------------------------------------
# the bound and the vertex-angle estimate
# ---------------------------------------------------------------------------

def test_reflection_bound_stated_value(cone):
    # arcsin(4/10) = 0.411517, ceil(pi / .) = 8
    assert min_vertex_angle(cone, 1.0, 1.0) == pytest.approx(math.asin(0.4), abs=1e-15)
    assert reflection_bound(cone, 1.0, 1.0) == 8


def test_reflection_bound_blows_up_as_c2_vanishes(cone):
    assert reflection_bound(cone, 1.0, 1e-8) > 10_000
    assert min_vertex_angle(cone, 1.0, 1e-12) < 1e-5


def test_reflection_bound_scale_free(cone):
    # q depends on c2 / c1 alone; c1 * c2 would overflow here
    assert min_vertex_angle(cone, 1e200, 1e200) == min_vertex_angle(cone, 1.0, 1.0)
    assert reflection_bound(cone, 1e300, 3e299) == reflection_bound(cone, 1.0, 0.3)


def test_reflection_bound_domain(cone):
    with pytest.raises(DomainError):
        reflection_bound(cone, 0.0, 1.0)
    with pytest.raises(DomainError):
        reflection_bound(cone, 1.0, -1.0)


def test_bound_holds_small_batch(cone, rng):
    checked = 0
    for _ in range(400):
        log = run_random(cone, rng)
        pair = _launch_pair(cone, log)
        if pair.I2 <= 0.0 or log.termination != Termination.ESCAPED:
            continue
        bound = reflection_bound(cone, pair.I1, pair.I2)
        assert log.reflection_count <= bound
        checked += 1
    assert checked > 100


def test_every_theta_exceeds_estimate(cone, rng):
    for _ in range(150):
        log = run_random(cone, rng)
        pair = _launch_pair(cone, log)
        if pair.I2 <= 0.0 or len(log.vertices) < 2:
            continue
        lower = min_vertex_angle(cone, pair.I1, pair.I2)
        assert log_thetas(log).min() > lower


def test_chord_angle_closed_form(cone, rng):
    log = _long_log(cone, rng, require_positive_I2=True)
    pair = _launch_pair(cone, log)
    pts = log.bases  # run_random starts on the surface
    for ln, p1, p2 in zip(_lines(log), pts[:-1], pts[1:]):
        m12 = angular_momenta(ln.base, ln.dir)[0]
        s2 = chord_angle_sin_sq(cone, pair.I1, pair.I2, m12)
        u1, u2 = unit(p1), unit(p2)
        sin_th = float(np.linalg.norm(np.cross(u1, u2)))
        assert abs(sin_th**2 - s2) < 1e-9
        assert m12**2 <= m12_sq_max(cone, pair.I1, pair.I2) + 1e-12


def test_angle_to_integral_identity(cone, rng):
    log = _long_log(cone, rng)
    for ln, hit in zip(_lines(log)[:-1], log.vertices):
        assert abs(angle_to_integral_residual(cone, ln, hit)) < 1e-9


# ---------------------------------------------------------------------------
# the h identity and the Poisson bracket
# ---------------------------------------------------------------------------

def test_h_identity_examples(cone):
    assert abs(h_identity_residual(cone, np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]))) < 1e-12
    v = unit([1.0, 0.0, 0.0])
    assert abs(h_identity_residual(cone, np.array([1.0, 1.0]), v)) < 1e-12


def test_h_identity_random(cone, rng):
    u = rng.uniform(-2.0, 2.0, (10_000, 2))
    u = u[np.hypot(u[:, 0], u[:, 1]) > 1e-3]
    v = rng.normal(size=(u.shape[0], 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    res = h_identity_residual(cone, u, v)
    assert np.abs(res).max() < 1e-10


def test_h_identity_rejects_origin(cone):
    with pytest.raises(DomainError):
        h_identity_residual(cone, np.array([0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_poisson_bracket_point(cone):
    res = poisson_bracket_residual(cone, np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
    assert abs(res) < 1e-7


def test_poisson_bracket_at_origin(cone):
    assert poisson_bracket_residual(cone, np.zeros(3), np.array([0.1, 0.2, 0.3])) == 0.0


def test_poisson_bracket_random(cone, rng):
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.5, 1.5, 3)
        v = rng.uniform(-1.5, 1.5, 3)
        worst = max(worst, abs(poisson_bracket_residual(cone, x, v)))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# caustics
# ---------------------------------------------------------------------------

def test_caustic_tangency_on_trajectory(cone, rng):
    found = 0
    for _ in range(300):
        log = run_random(cone, rng)
        pair = _launch_pair(cone, log)
        # valid lambda needs 0 < c2 < b^2 c1
        if not (0.0 < pair.I2 < cone.b**2 * pair.I1) or len(log.vertices) < 2:
            continue
        for ln in _lines(log):
            assert abs(caustic_tangency_residual(cone, ln, pair.I1, pair.I2)) < 1e-8
        found += 1
        if found >= 25:
            break
    assert found >= 25


def test_sphere_caustic(cone, rng):
    log = _long_log(cone, rng)
    c1 = _launch_pair(cone, log).I1
    for ln in _lines(log):
        assert math.sqrt(line_distance_sq(ln)) == pytest.approx(math.sqrt(c1), abs=1e-9)


def test_caustic_transversal_control(cone):
    # a line straight through the caustic axis region crosses K_lambda
    c1, c2 = 2.0, 0.5
    line = OrientedLine([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    res = caustic_tangency_residual(cone, line, c1, c2)
    assert res > 1e-3


def test_caustic_degenerate_lambda(cone):
    with pytest.raises(DomainError):
        caustic_tangency_residual(cone, OrientedLine([0, 0, 1], [1, 0, 0]), 1.0, 1.5)


# ---------------------------------------------------------------------------
# sampling machinery
# ---------------------------------------------------------------------------

def test_sample_start_on_surface(cone, rng):
    for _ in range(50):
        line = sample_start(cone, rng)
        assert abs(quadric(cone, line.base)) < 1e-12 * float(np.dot(line.base, line.base))
        assert float(np.dot(line.dir, cone.inward_normal(line.base))) > 0.0


def test_integral_drift_definition(cone, rng):
    log = _long_log(cone, rng)
    d1, d2 = integral_drift(log)
    assert 0.0 <= d1 < 1e-9
    assert 0.0 <= d2 < 1e-9


from hypothesis import given, settings, strategies as st  # noqa: E402


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_h_identity_property(seed):
    cone = EllipticCone(2.0, 1.0)
    r = np.random.Generator(np.random.Philox(seed))
    u = r.uniform(-3.0, 3.0, 2)
    if np.hypot(u[0], u[1]) < 1e-3:
        u = np.array([1.0, 0.5])
    v = unit(r.normal(size=3))
    assert abs(h_identity_residual(cone, u, v)) < 1e-10 * max(1.0, float(u @ u)) ** 2


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
@settings(max_examples=100, deadline=None)
def test_bound_formula_property(c1, c2):
    cone = EllipticCone(2.0, 1.0)
    ang = min_vertex_angle(cone, c1, c2)
    assert 0.0 < ang <= math.pi / 2
    n = reflection_bound(cone, c1, c2)
    assert n >= math.ceil(math.pi / ang) - 1
    assert (n - 1) * ang < math.pi
