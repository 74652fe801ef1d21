import math
import struct
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conebilliards import geometry
from conebilliards.errors import DomainError, GrazingError, Termination
from conebilliards.geometry import (
    APEX_TOL,
    T_MIN_FACTOR,
    GeneralCone,
    OrientedLine,
    angle_between,
    cone_step_precise,
    distance_sq,
    momenta,
    reflect_direction,
    unit,
)
from conebilliards.spiral import SpiralTrajectory

import bracket_reference
import scan_root_reference
from oracles import alpha_theta_residuals, line_distance_sq, projected_distance_sq
from paper_checks import simulate_wedge, wedge_reflection_count

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# angular momenta and the distance integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_dots_equals_np_dot_on_contiguous_rows(rng, n):
    a = rng.normal(size=(5000, n))
    b = rng.normal(size=(5000, n))
    want = np.array([np.dot(x, y) for x, y in zip(a, b)])
    assert np.array_equal(geometry._dots(a, b), want)
    assert np.array_equal(geometry._dots(a.reshape(50, 100, n), b.reshape(50, 100, n)),
                          want.reshape(50, 100))


def _line_momenta(line):
    return momenta(*line.base.tolist(), *line.dir.tolist())


def test_momenta_direct_substitution():
    line = OrientedLine([1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    m12, m13, m23 = _line_momenta(line)
    assert (m23, m13, m12) == (-1.0, 0.0, 1.0)
    assert distance_sq(m12, m13, m23) == 2.0


def test_momenta_line_through_origin():
    line = OrientedLine([0.0, 0.0, 0.0], unit([0.3, -0.5, 0.81]))
    assert _line_momenta(line) == (0.0, 0.0, 0.0)
    assert distance_sq(*_line_momenta(line)) == 0.0


def test_momenta_invariant_under_slide():
    line = OrientedLine([1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    slid = OrientedLine([1.0, 5.0, 1.0], [0.0, 1.0, 0.0])
    assert np.allclose(_line_momenta(line), _line_momenta(slid), atol=1e-12)
    assert distance_sq(*_line_momenta(slid)) == pytest.approx(2.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_momenta_slide_property(seed):
    r = np.random.Generator(np.random.Philox(seed))
    base = r.uniform(-5, 5, 3)
    d = unit(r.normal(size=3))
    s = r.uniform(-10, 10)
    m1 = np.array(momenta(*base, *d))
    m2 = np.array(momenta(*(base + s * d), *d))
    assert np.abs(m1 - m2).max() < 1e-12 * max(1.0, np.abs(m1).max())
    i1, i2 = distance_sq(*m1), distance_sq(*m2)
    assert abs(i1 - i2) < 1e-11 * max(1.0, i1)


def test_momenta_stack_rows_equal_single_lines(rng):
    # the columns of a stack, one line's array entries and one line's floats: the same bits
    x, v = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    cols = momenta(*x.T, *v.T)
    i1 = distance_sq(*cols)
    assert i1.shape == (7,) and all(c.shape == (7,) for c in cols)
    for i in range(7):
        floats = momenta(*x[i].tolist(), *v[i].tolist())
        assert [c[i] for c in cols] == list(momenta(*x[i], *v[i])) == list(floats)
        assert i1[i] == distance_sq(*floats) == distance_sq(*momenta(*x[i], *v[i]))


def test_distance_sq_trivial():
    assert line_distance_sq(OrientedLine([1, 0, 1], [0, 1, 0])) == pytest.approx(2.0, abs=1e-15)
    assert line_distance_sq(OrientedLine([0, 0, 0], unit([1, 2, 2]))) == 0.0


def _point_at(line, t):
    return line.base + t * line.dir


def _closest_point_distance_sq(line, lo=-100.0, hi=100.0):
    # independent oracle: ternary search on |base + t dir|^2 (strictly convex)
    f = lambda t: float(np.dot(_point_at(line, t), _point_at(line, t)))
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return f(0.5 * (lo + hi))


def test_distance_sq_routes_agree(rng):
    for _ in range(200):
        line = OrientedLine(rng.uniform(-3, 3, 3), unit(rng.normal(size=3)))
        a = line_distance_sq(line)
        b = projected_distance_sq(line)
        c = _closest_point_distance_sq(line)
        scale = max(1.0, a)
        assert abs(a - b) < 1e-12 * scale
        assert abs(a - c) < 1e-9 * scale


def test_distance_sq_dimension_n(rng):
    # the m_ij route is implemented in R^3: a line of another dimension is refused
    for n in (2, 4, 6):
        with pytest.raises(DomainError):
            line = OrientedLine(rng.uniform(-2, 2, n), unit(rng.normal(size=n)))
            line_distance_sq(line)


# ---------------------------------------------------------------------------
# reflection law
# ---------------------------------------------------------------------------

def test_reflect_45_degrees():
    v = unit([1.0, 0.0, -1.0])
    out = reflect_direction(v, [0.0, 0.0, 1.0])
    assert np.allclose(out, unit([1.0, 0.0, 1.0]), atol=1e-15)


def test_reflect_normal_incidence():
    n = unit([0.2, -0.4, 0.89])
    assert np.allclose(reflect_direction(-n, n), n, atol=1e-15)


def test_reflect_preserves_tangential(rng):
    for _ in range(100):
        n = unit(rng.normal(size=3))
        v = unit(rng.normal(size=3))
        if abs(np.dot(v, n)) < 1e-6:
            continue
        out = reflect_direction(v, n)
        for _ in range(5):
            t = rng.normal(size=3)
            t = unit(t - np.dot(t, n) * n)
            assert abs(np.dot(out, t) - np.dot(v, t)) < 1e-12
        assert np.dot(out, n) == pytest.approx(-np.dot(v, n), abs=1e-12)


def test_reflect_involution(rng):
    n = unit(rng.normal(size=3))
    v = unit(rng.normal(size=3))
    if abs(np.dot(v, n)) < 1e-6:
        v = unit(v + 0.5 * n)
    assert np.allclose(reflect_direction(reflect_direction(v, n), n), v, atol=1e-12)


def test_reflect_grazing_raises():
    v = unit([1.0, 0.0, 1e-14])
    with pytest.raises(GrazingError):
        reflect_direction(v, [0.0, 0.0, 1.0])


def test_reflect_normalizes_its_normal(rng):
    # any nonzero length of the normal gives the same reflection, and the
    # grazing test reads the normalized one
    with pytest.raises(GrazingError):
        reflect_direction(unit([1.0, 0.0, 1e-14]), [0.0, 0.0, 5.0])
    for _ in range(100):
        n = unit(rng.normal(size=3))
        v = unit(rng.normal(size=3))
        if abs(np.dot(v, n)) < 1e-6:
            continue
        out = reflect_direction(v, rng.uniform(1e-3, 1e3) * n)
        assert np.allclose(out, reflect_direction(v, n), rtol=0.0, atol=1e-15)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-15


def test_non_unit_direction_rejected():
    with pytest.raises(DomainError):
        OrientedLine([0.0, 0.0, 1.0], [1.0, 0.0, 1e-4])


@pytest.mark.parametrize("base, direction", [
    ([0.0, math.inf, 1.0], [1.0, 0.0, 0.0]),        # non-finite base
    ([math.nan, 0.0, 1.0], [1.0, 0.0, 0.0]),
    ([0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]),        # NaN direction
    ([0.0, 0.0, 1.0], [0.0, -math.inf, 0.0]),       # infinite direction
    ([0.0, 0.0, 1.0], [1.0, 0.0]),                  # shapes differ
    ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8, 0.0]),
    ([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]),         # 2-d base
    ([1.0], [1.0]),                                 # 1-element vectors
])
def test_oriented_line_refusals(base, direction):
    with pytest.raises(DomainError):
        OrientedLine(base, direction)


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

def test_angle_perpendicular_and_zero():
    assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2, abs=1e-15)
    u = unit([0.3, 0.4, 0.87])
    assert angle_between(u, u) == 0.0


def test_angle_tiny_high_precision():
    import mpmath as mp

    mp.mp.dps = 50
    w = np.array([float(mp.cos(mp.mpf(1e-9))), float(mp.sin(mp.mpf(1e-9))), 0.0])
    # reference angle of the rounded vectors, evaluated in 50-digit arithmetic
    ref = float(mp.atan2(mp.mpf(w[1]), mp.mpf(w[0])))
    assert abs(angle_between(np.array([1.0, 0.0, 0.0]), w) - ref) < 1e-15


def test_angle_near_pi():
    u = unit([1.0, 0.0, 0.0])
    w = unit([-1.0, 1e-9, 0.0])
    assert angle_between(u, w) == pytest.approx(math.pi - 1e-9, abs=1e-15)


def test_angle_between_is_three_dimensional():
    with pytest.raises(DomainError):
        u = unit([1.0, 0.0, 0.0, 0.0])
        w = unit([1.0, 1e-8, 0.0, 0.0])
        angle_between(u, w)
    with pytest.raises(DomainError):
        angle_between([1.0, 0.0, 0.0], [1.0, 0.0])


_R3 = [0.6, 0.0, 0.8]
_REFUSERS = {
    "unit": unit,
    "angle_between": lambda x: angle_between(x, x),
    "angle_between_mixed": lambda x: angle_between(_R3, x),
    "OrientedLine": lambda x: OrientedLine(x, x),
    "OrientedLine_base": lambda x: OrientedLine(x, _R3),
    "reflect_direction": lambda x: reflect_direction(x, x),
    "reflect_direction_normal": lambda x: reflect_direction(_R3, x),
    "cone_step_precise": lambda x: cone_step_precise(
        GeneralCone(CircularSection()), x, [0.0] * len(x), x),
}


@pytest.mark.parametrize("x", [[0.6, 0.8], [0.5, 0.5, 0.5, 0.5]], ids=["R2", "R4"])
@pytest.mark.parametrize("name", list(_REFUSERS))
def test_geometry_entries_refuse_other_dimensions(name, x):
    # R^3 is checked where a vector enters; a unit 2- or 4-vector is refused
    with pytest.raises(DomainError):
        _REFUSERS[name](x)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_count_values():
    assert wedge_reflection_count(math.pi / 4) == 4
    assert wedge_reflection_count(math.pi / 3) == 3
    assert wedge_reflection_count(1.0) == 4


def test_wedge_count_domain():
    with pytest.raises(DomainError):
        wedge_reflection_count(0.0)
    with pytest.raises(DomainError):
        wedge_reflection_count(math.pi)


def test_wedge_unfolding_theta_one(rng):
    counts = set()
    for _ in range(200):
        ang = rng.uniform(0.15, 0.85)
        base = np.array([math.cos(ang), math.sin(ang)]) * rng.uniform(0.5, 5.0)
        back = rng.uniform(0.1, 0.9)
        v = -np.array([math.cos(back), math.sin(back)])
        counts.add(simulate_wedge(1.0, base, v))
    assert counts <= {3, 4}
    assert 4 in counts or 3 in counts


def test_wedge_unfolding_grid(rng):
    for theta in np.linspace(0.3, 2.6, 12):
        n = wedge_reflection_count(float(theta))
        for _ in range(40):
            ang = rng.uniform(0.1, 0.9) * theta
            base = np.array([math.cos(ang), math.sin(ang)]) * rng.uniform(0.5, 3.0)
            back = rng.uniform(0.05, 0.95) * theta
            v = -np.array([math.cos(back), math.sin(back)])
            c = simulate_wedge(float(theta), base, v)
            assert c in (n, n - 1), (theta, c, n)


# ---------------------------------------------------------------------------
# alpha/theta bookkeeping
# ---------------------------------------------------------------------------

def test_alpha_theta_planar_wedge_in_r3():
    # a V-shaped two-chord path in the x1 x3 plane, embedded in R^3
    p1 = np.array([1.0, 0.0, 1.0])
    p2 = np.array([0.4, 0.0, 1.3])
    p3 = np.array([-0.8, 0.0, 2.1])
    v1 = unit(p2 - p1)
    v2 = unit(p3 - p2)
    a1 = angle_between(v1, unit(p1))
    a2 = angle_between(v2, unit(p2))
    th1 = angle_between(unit(p1), unit(p2))
    # alpha_2 = alpha_1 - theta_1 requires the chords to keep a common
    # distance from the origin; enforce it by projecting p3 onto the cone
    # of solutions: instead check the residual using the *actual* path
    rep = alpha_theta_residuals(np.array([p1, p2]), np.array([v1, v2]))
    # the angles are derived from the path exactly as angle_between gives them
    assert rep.alpha[0] == a2 - (a1 - th1)
    # the radius identity |p| sin alpha = dist holds for any chord pair
    assert np.abs(rep.radius).max() < 1e-12
    # and the alpha recurrence holds exactly when v2 is the reflection of v1
    # across the plane through p2: build that pair explicitly
    n = unit(np.array([p2[2], 0.0, -p2[0]]))  # normal orthogonal to p2 in the plane
    v2r = reflect_direction(v1, n)
    rep2 = alpha_theta_residuals(np.array([p1, p2]), np.array([v1, v2r]))
    assert np.abs(rep2.alpha).max() < 1e-12


def test_alpha_theta_rejects_short_or_mismatched_paths():
    p = np.array([[1.0, 0.0, 1.0], [0.4, 0.0, 1.3]])
    with pytest.raises(DomainError):
        alpha_theta_residuals(p[:1], p[:1])
    with pytest.raises(DomainError):
        alpha_theta_residuals(p, p[:1])


def test_unit_and_angle_between_take_stacks(rng):
    # an (n, 3) stack gives, bit for bit, what each row gives alone; the
    # last two rows of w give the angles 0 and pi; an (n, 4) stack is refused
    x = rng.normal(size=(500, 3)) * rng.uniform(1e-3, 1e3, (500, 1))
    u = unit(x)
    assert np.array_equal(u, np.array([unit(r) for r in x]))
    w = np.concatenate([unit(rng.normal(size=(498, 3))), u[-2:-1], -u[-1:]])
    expected = [angle_between(a, b) for a, b in zip(u, w)]
    assert angle_between(u, w).tolist() == expected
    assert angle_between(u[:0], w[:0]).shape == (0,)
    with pytest.raises(DomainError):
        unit(rng.normal(size=(500, 4)))
    with pytest.raises(DomainError):
        unit(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        unit(np.ones((2, 2, 3)))


def test_unit_rejects_overflowing_squared_norm():
    # finite coordinates whose squared norm overflows would normalize to 0
    with pytest.raises(DomainError):
        unit([1e200, 0.0, 0.0])
    with pytest.raises(DomainError):
        unit(np.array([[1.0, 0.0, 0.0], [0.0, 1e160, 1e160]]))
    assert np.array_equal(unit([1e150, 0.0, 0.0]), [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# circular cone stepping
# ---------------------------------------------------------------------------

class CircularSection:
    """The unit circle as a section: the circular cone x3 = |x_perp|."""

    def polar(self, xi):
        xi = np.asarray(xi, dtype=float)
        z = np.zeros_like(xi)
        return np.ones_like(xi), z, z

    def deviation(self, xi):
        z = np.zeros_like(np.asarray(xi, dtype=float))
        return z, z, z


@pytest.fixture(scope="module")
def circular_cone():
    return GeneralCone(CircularSection())


def _step(cone, line):
    return cone_step_precise(cone, line.base.tolist(), [0.0, 0.0, 0.0], line.dir.tolist())


def _circular_root(p, v):
    """First t > 0 with x^2 + y^2 = z^2 and z > 0 on p + t v, or None; in
    40 digits, since b^2 - ac cancels for rays that pass near the apex."""
    with mp.workdps(40):
        p, v = [mp.mpf(float(x)) for x in p], [mp.mpf(float(x)) for x in v]
        a = v[0] ** 2 + v[1] ** 2 - v[2] ** 2
        b = p[0] * v[0] + p[1] * v[1] - p[2] * v[2]
        c = p[0] ** 2 + p[1] ** 2 - p[2] ** 2
        disc = b * b - a * c
        if disc < 0:
            return None
        q = -(b + (mp.sqrt(disc) if b >= 0 else -mp.sqrt(disc)))
        roots = [c / q] + ([q / a] if a != 0 else [])
        ahead = [t for t in roots if t > 0 and p[2] + t * v[2] > 0]
        return float(min(ahead)) if ahead else None


def test_circular_cone_hit(circular_cone):
    line = OrientedLine([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    stepped = _step(circular_cone, line)
    assert isinstance(stepped, tuple)
    assert np.allclose(stepped[0], [1.0, 0.0, 1.0], atol=1e-12)
    # random starts inside against the closed-form quadric root
    rng = np.random.Generator(np.random.Philox(7301))
    hits = escapes = 0
    for _ in range(300):
        z = rng.uniform(0.5, 2.0)
        r = 0.95 * z * math.sqrt(rng.uniform())
        phi = rng.uniform(-math.pi, math.pi)
        p = np.array([r * math.cos(phi), r * math.sin(phi), z])
        v = unit(rng.normal(size=3))
        stepped = _step(circular_cone, OrientedLine(p, v))
        t = _circular_root(p, v)
        if t is None:
            assert stepped is Termination.ESCAPED
            escapes += 1
            continue
        assert isinstance(stepped, tuple)
        expected = p + t * v
        err = np.linalg.norm(stepped[0] - expected) / np.linalg.norm(expected)
        assert err < 1e-12
        hits += 1
    assert hits > 100 and escapes > 10


def test_circular_cone_ruling_escape(circular_cone):
    ruling = unit([1.0, 0.0, 1.0])
    line = OrientedLine([0.0, 0.0, 1.0], ruling)
    assert _step(circular_cone, line) is Termination.ESCAPED


def test_circular_cone_axis_escape(circular_cone):
    line = OrientedLine([0.1, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert _step(circular_cone, line) is Termination.ESCAPED


_APEX_BASES = {"axis": [0.0, 0.0, 1.0], "off-axis": [0.3, -0.2, 1.0], "low": [0.0, 0.5, 0.7],
               "high": [1e-3, 2e-3, 3.0], "near-wall": [0.7, 0.0, 1.0], "far": [-40.0, 25.0, 80.0]}


@pytest.mark.parametrize("section, base", [("circle", b) for b in _APEX_BASES] + [("c2", "off-axis")])
def test_circular_cone_apex(circular_cone, built_curve, section, base):
    # rays aimed at the origin: some have no predicted root, others a root
    # within rounding of the apex; both end APEX
    cone = circular_cone if section == "circle" else GeneralCone(built_curve)
    p = np.array(_APEX_BASES[base])
    assert _step(cone, OrientedLine(p, unit(-p))) is Termination.APEX


@pytest.mark.parametrize("base", _APEX_BASES.values(), ids=_APEX_BASES.keys())
def test_ray_missing_the_apex_reflects(circular_cone, base):
    # aimed 4 APEX_TOL |p| beside the apex, the ray passes too far from it
    # to end APEX; the plain discriminant cancels to noise there, so the
    # predictor must take its Lagrange form to find the hit the oracle finds
    p = np.array(base)
    aside = np.cross(p, [0.3, 1.0, 0.2])
    line = OrientedLine(p, unit(4.0 * APEX_TOL * np.linalg.norm(p) * unit(aside) - p))
    t = _circular_root(p, line.dir)
    stepped = _step(circular_cone, line)
    assert isinstance(stepped, tuple), stepped
    hit = stepped[0]
    size = float(np.linalg.norm(hit))
    eps = np.finfo(float).eps
    assert size > APEX_TOL * max(1.0, float(np.linalg.norm(p)))
    assert abs(hit[0] ** 2 + hit[1] ** 2 - hit[2] ** 2) <= 8.0 * eps * size * (size + t)
    assert abs(float(np.dot(hit - p, line.dir)) - t) <= 1e-12 * t


def test_no_ray_that_hits_ends_no_bracket(circular_cone):
    # seeded rays from inside: half in random directions, half aimed beside
    # the apex at 1e-11..1e-6 |p|, where the root search has the least room
    rng = np.random.Generator(np.random.Philox(8111))
    endings = {}
    for i in range(5000):
        z = rng.uniform(0.5, 2.0)
        r = 0.95 * z * math.sqrt(rng.uniform())
        phi = rng.uniform(-math.pi, math.pi)
        p = np.array([r * math.cos(phi), r * math.sin(phi), z])
        if i % 2:
            aside = unit(np.cross(p, rng.normal(size=3)))
            v = unit(10.0 ** rng.uniform(-11.0, -6.0) * np.linalg.norm(p) * aside - p)
        else:
            v = unit(rng.normal(size=3))
        stepped = _step(circular_cone, OrientedLine(p, v))
        ending = "hit" if isinstance(stepped, tuple) else stepped
        if _circular_root(p, v) is not None:
            assert ending is not Termination.NO_BRACKET, (p, v)
        endings[ending] = endings.get(ending, 0) + 1
    assert endings.keys() == {"hit", Termination.ESCAPED, Termination.APEX}, endings


@pytest.mark.parametrize("base, direction", [
    # from a surface point, 1e-10 inward of the tangent (0, 1, 0): the ray is
    # inside only for t < 4e-10, below t_min, so no inside point is found
    ([1.0, 0.0, 1.0], unit([-1e-10, 1.0, 1e-10])),
    # a base outside the cone
    ([2.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
])
def test_circular_cone_no_bracket(circular_cone, base, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _step(circular_cone, OrientedLine(base, direction)) is Termination.NO_BRACKET


@given(st.floats(0.5, 2.0), st.floats(0.0, 0.95), st.floats(-math.pi, math.pi),
       st.floats(0.0, math.pi).filter(lambda b: abs(b - math.pi / 4.0) >= 1e-5),
       st.floats(-math.pi, math.pi))
@settings(max_examples=300, deadline=None)
@example(z=1.1875, s=1.192092896e-07, phi=0.0, beta=3.1415926535897927, psi=0.0)
def test_cone_step_matches_circular_oracle(circular_cone, z, s, phi, beta, psi):
    # base at height z and radius s z; direction at polar angle beta from the
    # axis, kept 1e-5 off the asymptotic 45 degrees, where the exit runs off
    # to t ~ 1e12 |p| and the oracle's plain quadric loses its digits
    p = np.array([s * z * math.cos(phi), s * z * math.sin(phi), z])
    v = unit([math.sin(beta) * math.cos(psi), math.sin(beta) * math.sin(psi), math.cos(beta)])
    line = OrientedLine(p, v)
    # rays within rounding of the apex end APEX (test_circular_cone_apex)
    assume(line_distance_sq(line) > (2.0 * APEX_TOL * max(1.0, float(np.linalg.norm(p)))) ** 2)
    stepped = _step(circular_cone, line)
    t = _circular_root(p, v)
    if t is None:
        assert stepped is Termination.ESCAPED
        return
    assert isinstance(stepped, tuple)
    hit, _, out = stepped
    size = float(np.linalg.norm(hit))
    # t is a float, and its last bit moves the hit by eps t along the ray
    eps = np.finfo(float).eps
    assert abs(hit[0] ** 2 + hit[1] ** 2 - hit[2] ** 2) <= 8.0 * eps * size * (size + t)
    assert abs(float(np.dot(hit - p, v)) - t) <= 1e-12 * t
    # I1 <= |p|^2, and the m_ij round relative to |p|, not to I1
    after = line_distance_sq(OrientedLine(hit, out))
    assert abs(after - line_distance_sq(line)) <= 1e-10 * float(np.dot(p, p))


def _fallback_root(cone, p, p_tail, v):
    """The frozen scan-plus-bisection route: the predicted root's oracle."""
    scale = max(float(np.linalg.norm(p)), 1e-12)
    gap = geometry._make_gap(cone, p, p_tail, v)
    return scan_root_reference.scan_root(gap, T_MIN_FACTOR * scale, scale)


def _predicted_root(cone, p, p_tail, v):
    """_intersect_ray's root, asserting it found one."""
    t = geometry._intersect_ray(cone, p, p_tail, v, math.sqrt(np.dot(p, p)))
    assert isinstance(t, float), f"the predicted bracket found no root: {t}"
    return t


@given(st.floats(0.5, 2.0), st.floats(0.0, 0.95), st.floats(-math.pi, math.pi),
       st.floats(0.0, math.pi).filter(lambda b: abs(b - math.pi / 4.0) >= 1e-5),
       st.floats(-math.pi, math.pi))
@settings(max_examples=300, deadline=None)
def test_predicted_root_equals_fallback_root(circular_cone, z, s, phi, beta, psi):
    # the strategy of test_cone_step_matches_circular_oracle; the first step
    # starts strictly inside, the second on the surface, as a replay does
    p = np.array([s * z * math.cos(phi), s * z * math.sin(phi), z])
    v = unit([math.sin(beta) * math.cos(psi), math.sin(beta) * math.sin(psi), math.cos(beta)])
    line = OrientedLine(p, v)
    assume(line_distance_sq(line) > (2.0 * APEX_TOL * max(1.0, float(np.linalg.norm(p)))) ** 2)
    state = (line.base.tolist(), [0.0, 0.0, 0.0], line.dir.tolist())
    for _ in range(2):
        if geometry._escapes(circular_cone, state[2]):
            return
        assert _predicted_root(circular_cone, *state) == _fallback_root(circular_cone, *state)
        state = cone_step_precise(circular_cone, *state)
        if not isinstance(state, tuple):
            return


@pytest.mark.parametrize("start", ["k1+1", 1_000, 10_000, 50_000])
def test_predicted_root_equals_fallback_root_on_c2_cone(built_curve, start):
    # seeded starts on the built witness cone: the trajectory's chord line k
    # from its vertex, and from two seeded points just inside the cone
    k = built_curve.k1 + 1 if start == "k1+1" else start
    cone = GeneralCone(built_curve)
    line = SpiralTrajectory(0.0, kmax=built_curve.kmax).line(k)
    rng = np.random.Generator(np.random.Philox(k))
    for inward in (0.0, 1e-6, 1e-4):
        shrink = 1.0 - inward * rng.uniform(0.5, 1.0)
        state = ((line.base * [shrink, shrink, 1.0]).tolist(), [0.0, 0.0, 0.0], line.dir.tolist())
        for _ in range(16):
            assert _predicted_root(cone, *state) == _fallback_root(cone, *state)
            state = cone_step_precise(cone, *state)
            assert isinstance(state, tuple)


def _plain_states(curve, a, k, steps):
    """The states of ``steps`` replay steps on the built cone from the plain
    closed-form line k of the a trajectory, as the pinned replays take them."""
    cone = GeneralCone(curve)
    line = SpiralTrajectory(a, kmax=curve.kmax).line(k)
    state = (line.base.tolist(), [0.0, 0.0, 0.0], line.dir.tolist())
    for _ in range(steps):
        yield cone, state
        state = cone_step_precise(cone, *state)
        assert isinstance(state, tuple)


def _floats_between(lo: float, hi: float) -> list:
    """The floats from lo to hi, both included."""
    out = [lo]
    while out[-1] < hi:
        out.append(math.nextafter(out[-1], math.inf))
    return out


@pytest.mark.parametrize("a, start", [(0.0, 99_000), (0.0, 129_000), (0.7, 1167)])
def test_walked_root_equals_frozen_bracket_root(built_curve, a, start):
    # the ulp walk and the frozen 4-ulp route bisect the same crossing; they
    # may end on different floats only where the gap changes sign more than
    # once between adjacent floats (sign noise), never more than 4 ulps apart
    moved = 0
    for cone, (p, p_tail, v) in _plain_states(built_curve, a, start, 300):
        p_norm = math.sqrt(geometry._dot(p, p))
        gap = geometry._make_gap(cone, p, p_tail, v)
        got = geometry._intersect_ray(cone, p, p_tail, v, p_norm)
        want = bracket_reference.bracket_root(cone.deviation, gap, p, p_tail, v, p_norm)
        assert isinstance(got, float) and isinstance(want, float)
        if got != want:
            moved += 1
            lo, hi = min(got, want), max(got, want)
            assert len(_floats_between(lo, hi)) <= 5
            span = _floats_between(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
            inside = [gap(s) < 0.0 for s in span]
            assert sum(x != y for x, y in zip(inside, inside[1:])) >= 2
    assert moved <= 30  # of 300: 15 from k = 99 000, 1 from 129 000, none at a = 0.7


def _gap_calls_per_step(monkeypatch, curve, k, steps) -> float:
    """Gap evaluations per step over ``steps`` steps from the plain line k."""
    calls = 0
    make_gap = geometry._make_gap

    def counted(*args):
        gap = make_gap(*args)

        def gap_counted(t):
            nonlocal calls
            calls += 1
            return gap(t)

        return gap_counted

    monkeypatch.setattr(geometry, "_make_gap", counted)
    for _ in _plain_states(curve, 0.0, k, steps):
        pass
    return calls / steps


@pytest.mark.parametrize("start, steps, bound", [("k1+1", 100, 2.7), (50_000, 300, 3.1)])
def test_root_search_gap_calls_per_step(monkeypatch, built_curve, start, steps, bound):
    # the walk from one ulp finds most roots in two or three gap calls; the
    # 4-ulp first bracket took 4.03 and 5.29 calls here
    k = built_curve.k1 + 1 if start == "k1+1" else start
    assert _gap_calls_per_step(monkeypatch, built_curve, k, steps) <= bound


class _EchoSection:
    """The built curve's deviation with its xi in the last slot, counting calls."""

    def __init__(self, curve):
        self.curve = curve
        self.calls = 0

    def deviation(self, xi):
        self.calls += 1
        d, d1, _ = self.curve.deviation(xi)
        return d, d1, xi


def _same_key(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b) and not math.isnan(a)


# -0.0 and +0.0, a NaN, the flat region above _xi_live, angles beyond the
# horizon (xi^2 < 1/kmax) and live ones, with neighbours one ulp apart
_MEMO_XI = [-0.0, 0.0, math.nan, 0.2, 0.9, -0.3, 1e-3, 2e-3, 5e-324, 0.05, 0.1,
            math.nextafter(0.1, 1.0), math.nextafter(0.1, 0.0), 0.01, 0.0123]


@given(st.lists(st.sampled_from(_MEMO_XI) | st.floats(-math.pi, math.pi), max_size=40))
@settings(max_examples=300, deadline=None)
@example([-0.0, 0.0, 0.0, -0.0, math.nan, math.nan, 0.1, 0.1, 0.2, 0.2, 1e-3, 1e-3])
def test_cone_deviation_memo_is_the_section(built_curve, xis):
    # each call returns exactly section.deviation(xi), and the section is
    # asked again unless xi is the previous float, sign of zero included
    section = _EchoSection(built_curve)
    cone = GeneralCone(section)
    evaluations = 0
    for i, x in enumerate(xis):
        expected = _EchoSection(built_curve).deviation(x)
        assert struct.pack("<3d", *cone.deviation(x)) == struct.pack("<3d", *expected)
        evaluations += i == 0 or not _same_key(x, xis[i - 1])
    assert section.calls == evaluations
    assert cone == GeneralCone(section) and hash(cone) == hash(GeneralCone(section))


def test_circular_cone_symmetric_chord(circular_cone):
    # horizontal chord through the axis plane: the 45-degree wall turns
    # (1,0,0) into (0,0,1), symmetric under x -> -x
    line = OrientedLine([-1.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    stepped = _step(circular_cone, line)
    assert isinstance(stepped, tuple)
    assert np.allclose(stepped[0], [1.0, 0.0, 1.0], atol=1e-10)
    assert np.allclose(stepped[2], [0.0, 0.0, 1.0], atol=1e-10)
    # tilted chord in the same plane: reflection swaps the (x1, x3) slots
    line = OrientedLine([-1.0, 0.0, 1.0], unit([1.0, 0.0, 0.2]))
    stepped = _step(circular_cone, line)
    vin, vout = line.dir, stepped[2]
    assert vout[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(vout, [vin[2], 0.0, vin[0]], atol=1e-10)


def test_cone_step_preserves_distance(circular_cone, rng):
    for _ in range(50):
        base = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.5)])
        d = unit(rng.normal(size=3))
        line = OrientedLine(base, d)
        before = line_distance_sq(line)
        stepped = _step(circular_cone, line)
        if stepped is Termination.ESCAPED or before < 1e-12:
            continue
        after = line_distance_sq(OrientedLine(stepped[0], stepped[2]))
        assert abs(after - before) < 1e-10 * max(1.0, before)

