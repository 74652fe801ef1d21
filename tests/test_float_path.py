"""The elliptic stepper on Python floats against a copy of the numpy code it
replaced: the same bits, the same Termination, the same exception and the
same warnings, on random lines of the criterion-3 cones and on the edge
cases of each branch."""

import math
import warnings

import numpy as np
import pytest

from conebilliards import elliptic, geometry
from conebilliards.elliptic import EllipticCone, next_intersection, sample_start
from conebilliards.errors import DomainError, GrazingError, TangencyWarning, Termination
from conebilliards.geometry import reflect_direction

SHAPES = ((2.0, 1.0), (3.0, 2.0), (1.5, 1.2))

# ---------------------------------------------------------------------------
# the numpy reference: np.float64 scalars, unit(), np.linalg.norm
# ---------------------------------------------------------------------------


def _ref_vec(x, stack=False):
    v = np.asarray(x, dtype=float)
    if v.ndim not in ((1, 2) if stack else (1,)) or v.shape[-1] < 2:
        raise DomainError("bad shape")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector has non-finite coordinates")
    return v


def _ref_unit(x):
    v = _ref_vec(x, stack=True)
    with np.errstate(over="ignore"):
        n = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])[..., None]
    if not ((n >= 1e-300) & (n < math.inf)).all():
        raise DomainError("cannot normalize a (near-)zero or overflowing vector")
    return v / n


def _ref_gradient(cone, x):
    x = np.asarray(x, dtype=float)
    return np.array([2.0 * x[0] / cone.a**2, 2.0 * x[1] / cone.b**2, -2.0 * x[2]])


def ref_next_intersection(cone, p, v):
    a2, b2 = cone.a**2, cone.b**2
    A = v[0] ** 2 / a2 + v[1] ** 2 / b2 - v[2] ** 2
    B = 2.0 * (p[0] * v[0] / a2 + p[1] * v[1] / b2 - p[2] * v[2])
    C = float((p[0] / cone.a) ** 2 + (p[1] / cone.b) ** 2 - p[2] ** 2)
    t_min = elliptic.T_MIN_FACTOR * float(np.linalg.norm(p))
    if abs(A) < elliptic.LINEAR_A_TOL:
        roots = [-C / B] if B >= 1e-300 else []
    else:
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            if disc > -elliptic.DISC_CLAMP:
                warnings.warn("discriminant clamped to zero: tangent ray", TangencyWarning)
                disc = 0.0
            else:
                return Termination.ESCAPED
        sq = math.sqrt(disc)
        q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else -0.5 * sq
        roots = sorted({q / A, C / q} if q != 0.0 else {0.0})
    for t in roots:
        if t > t_min and 2.0 * A * t + B >= 0.0:
            hit = p + t * v
            if float(np.linalg.norm(hit)) < geometry.APEX_TOL * max(1.0, float(np.linalg.norm(p))):
                return Termination.APEX
            if hit[2] > 0.0:
                return hit
    return Termination.ESCAPED


def ref_reflect_direction(v, normal):
    v = _ref_vec(v)
    if abs(float(np.linalg.norm(v)) - 1.0) > geometry.UNIT_TOL:
        raise DomainError("direction is not unit")
    n = _ref_unit(normal)
    vn = float(np.dot(v, n))
    if abs(vn) < geometry.GRAZING_TOL:
        raise GrazingError("grazing incidence")
    w = v - 2.0 * vn * n
    return w / np.sqrt((w[None, :] @ w[:, None])[0, 0])


def ref_sample_start(cone, rng):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    t = rng.uniform(0.5, 2.0)
    base = t * np.array([cone.a * math.cos(phi), cone.b * math.sin(phi), 1.0])
    n_in = _ref_unit(-_ref_gradient(cone, base))
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v = v / norm
        if float(np.dot(v, n_in)) > 1e-6:
            return base, v


def _outcome(fn, *args):
    """What a call gave: the result's bytes, a Termination or the exception
    type, and the categories of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (DomainError, GrazingError) as exc:
            out = type(exc)
    if isinstance(out, list):  # a hit of the float step
        out = np.array(out)
    return (out.tobytes() if isinstance(out, np.ndarray) else out), [w.category for w in caught]


def _same_step(cone, p, v):
    """The step and, after a hit, the reflection agree with the reference."""
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    new, ref = _outcome(next_intersection, cone, p, v), _outcome(ref_next_intersection, cone, p, v)
    assert new == ref
    hit = next_intersection(cone, p, v) if not new[1] else None
    if isinstance(hit, list):
        g = np.array(cone.gradient(hit))
        assert g.tobytes() == _ref_gradient(cone, hit).tobytes()
        assert _outcome(reflect_direction, v, g) == _outcome(ref_reflect_direction, v, g)
    return new[0]


# ---------------------------------------------------------------------------
# random lines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, b", SHAPES)
def test_random_lines_match_numpy_reference(a, b):
    cone = EllipticCone(a, b)
    rng = np.random.default_rng([int(4 * a), int(4 * b)])
    ends = set()
    for i in range(10_000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if i % 2:
            # a surface base, as every vertex after the first is
            p = cone.surface_point(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.2, 3.0))
        else:
            p = rng.uniform([-3.0, -3.0, -1.0], [3.0, 3.0, 3.0])
        out = _same_step(cone, p, v)
        ends.add(out if isinstance(out, Termination) else "hit")
    assert {"hit", Termination.ESCAPED} <= ends


@pytest.mark.parametrize("a, b", SHAPES)
def test_sample_start_matches_numpy_reference(a, b):
    cone = EllipticCone(a, b)
    for index in range(1000):
        key = np.array([7, index], dtype=np.uint64)
        rng, ref_rng = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        line = sample_start(cone, rng)
        base, v = ref_sample_start(cone, ref_rng)
        assert line.base.tobytes() == base.tobytes()
        assert line.dir.tobytes() == v.tobytes()
        assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()  # as many draws taken


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_rekeyed_philox_draws_the_fresh_stream(seed):
    # one Philox re-keyed as elliptic simulate does it, to key (seed, index)
    # at counter 0, reused across SIMULATE_BLOCK = 1024: the same starts, logs
    # and number of draws as a fresh Generator(Philox(key=[seed, index]))
    cone = EllipticCone(2.0, 1.0)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bitgen), bitgen.state

    def rekeyed(index):
        fresh["state"]["key"][1] = index
        bitgen.state = fresh
        return rng

    def new(index):
        return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))

    for index in (0, 1, 1023, 1024, 1025):
        line, ref_rng = sample_start(cone, rekeyed(index)), new(index)
        base, v = ref_sample_start(cone, ref_rng)
        assert line.base.tobytes() == base.tobytes() and line.dir.tobytes() == v.tobytes()
        assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()
        log, ref_rng = elliptic.run_random(cone, rekeyed(index)), new(index)
        ref = elliptic.run_random(cone, ref_rng)
        assert log.bases.tobytes() == ref.bases.tobytes()
        assert log.dirs.tobytes() == ref.dirs.tobytes()
        assert (log.termination, log.started_on_surface) == (ref.termination, True)
        assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()


def test_run_matches_reference_run():
    # whole trajectories, long ones included, step for step
    cone = EllipticCone(2.0, 1.0)
    for index in (0, 2, 239, 497):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, index], dtype=np.uint64)))
        log = elliptic.run_random(cone, rng)
        p, v = log.bases[0], log.dirs[0]
        for k in range(1, len(log.bases)):
            p = ref_next_intersection(cone, p, v)
            v = ref_reflect_direction(v, _ref_gradient(cone, p))
            assert p.tobytes() == log.bases[k].tobytes() and v.tobytes() == log.dirs[k].tobytes()
        assert ref_next_intersection(cone, p, v) is log.termination


# ---------------------------------------------------------------------------
# the edge cases of each branch
# ---------------------------------------------------------------------------

CONE = EllipticCone(2.0, 1.0)


def _ruling(phi):
    """Unit direction of the ruling of CONE at section angle phi: |A| < 1e-14."""
    r = np.array([CONE.a * math.cos(phi), CONE.b * math.sin(phi), 1.0])
    return r / np.linalg.norm(r)


def test_clamped_tangent_discriminant_warns_alike():
    # lines tangent to the section ellipse: the discriminant is rounding
    # noise around zero, and some land in the clamped band (-1e-14, 0)
    rng = np.random.default_rng(17)
    clamped = 0
    for _ in range(2000):
        phi, t = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 2.0)
        x0 = CONE.surface_point(phi, t)
        e = np.array([-CONE.a * math.sin(phi), CONE.b * math.cos(phi), 0.0])
        e /= np.linalg.norm(e)
        p = x0 - rng.uniform(0.1, 2.0) * e
        _, caught = _outcome(ref_next_intersection, CONE, p, e)
        clamped += TangencyWarning in caught
        _same_step(CONE, p, e)
    assert clamped > 0


def test_rulings_take_the_linear_branch():
    for phi in (0.0, 0.3, 0.4, 1.0, 2.0, 2.5):
        v0, v1, v2 = _ruling(phi)
        assert abs(v0**2 / CONE.a**2 + v1**2 / CONE.b**2 - v2**2) < elliptic.LINEAR_A_TOL


@pytest.mark.parametrize("p, v, expect", [
    # |A| < 1e-14: up a ruling, the one crossing is never an exit...
    ([0.0, 0.0, 1.0], _ruling(0.3), Termination.ESCAPED),
    ([0.5, 0.2, 1.0], _ruling(2.0), Termination.ESCAPED),
    ([1.0, 0.0, 0.2], -_ruling(0.0), Termination.ESCAPED),
    # ...down one from inside, it is the exit at -C/B
    ([0.0, 0.0, 1.0], -_ruling(1.0), "hit"),
    ([0.3, 0.1, 1.0], -_ruling(2.5), "hit"),
    # a subnormal B < 1e-300 puts the one crossing at infinity
    ([0.0, 0.0, 1e-310], -_ruling(0.4), Termination.ESCAPED),
    # the apex, straight down the axis
    ([0.0, 0.0, 1.0], np.array([0.0, 0.0, -1.0]), Termination.APEX),
    # the exit root of the lower nappe has x3 < 0
    ([0.0, 0.0, -1.0], np.array([1.0, 0.0, 0.0]), Termination.ESCAPED),
])
def test_edge_lines_match_numpy_reference(p, v, expect):
    out = _same_step(CONE, p, v)
    assert (out if isinstance(out, Termination) else "hit") == expect


def test_hit_through_the_apex_from_the_surface():
    for phi in np.linspace(0.0, 2.0 * math.pi, 50):
        p = np.array(CONE.surface_point(phi, 1.5))
        _same_step(CONE, p, -p / np.linalg.norm(p))


@pytest.mark.parametrize("v, normal, error", [
    (np.array([1.0, 0.0, 1e-4]), [0.0, 0.0, 1.0], DomainError),          # not unit
    (np.array([math.nan, 0.0, 1.0]), [0.0, 0.0, 1.0], DomainError),      # not finite
    (np.array([math.inf, 0.0, 0.0]), [0.0, 0.0, 1.0], DomainError),
    (np.array([0.6, 0.0, 0.8]), [0.0, 0.0, 0.0], DomainError),           # zero normal
    (np.array([0.6, 0.0, 0.8]), [1e200, 1e200, 0.0], DomainError),       # |n|^2 overflows
    (np.array([0.6, 0.0, 0.8]), [math.nan, 0.0, 1.0], DomainError),
    (np.array([0.6, 0.0, 0.8]), [0.0, math.inf, 1.0], DomainError),
    (np.array([1.0, 0.0, 1e-14]) / math.hypot(1.0, 1e-14), [0.0, 0.0, 5.0], GrazingError),
    (np.array([0.6, 0.0, 0.8]), [1e150, 0.0, -1e150], None),             # large but finite
    (np.array([0.6, 0.0, 0.8]), [1e-160, 0.0, 1e-160], None),            # |n|^2 subnormal
    # the plane and R^4
    (np.array([0.6, 0.8]), [0.0, 1.0], None),
    (np.array([0.6, 0.8 + 1e-4]), [0.0, 1.0], DomainError),
    (np.array([0.6, 0.8]), [0.0, 0.0], DomainError),
    (np.array([0.6, 0.8]), [1e200, -1e200], DomainError),
    (np.array([1.0, 1e-14]) / math.hypot(1.0, 1e-14), [0.0, 3.0], GrazingError),
    (np.array([0.6, 0.8]), [1e-160, -1e-160], None),
    (np.array([0.5, 0.5, 0.5, 0.5]), [1.0, -2.0, 0.5, 3.0], None),
    (np.array([0.5, 0.5, 0.5, math.nan]), [1.0, -2.0, 0.5, 3.0], DomainError),
    (np.array([0.5, 0.5, 0.5, 0.5]), [0.0, math.inf, 0.0, 1.0], DomainError),
    (np.array([0.5, 0.5, 0.5, 0.5]), [1e200, 0.0, 0.0, 1e200], DomainError),
    (np.array([0.5, 0.5, -0.5, 0.5]), [1.0, 1.0, 1.0, -1.0], GrazingError),
    (np.array([0.5, 0.5, 0.5, 0.5]), [1e150, 0.0, 1e150, 0.0], None),
    # |n|^2 overflows in _dot's fsum, where no product does
    (np.array([0.6, 0.0, 0.8]), [1.3407807929942594e154, 2.0**499, 1.0], DomainError),
])
def test_reflect_edge_cases_match_numpy_reference(v, normal, error):
    # ``error`` of the plane and R^4 cases is what the n-dimensional form
    # gave; reflect_direction is implemented in R^3 and refuses them all
    new = _outcome(reflect_direction, v, normal)
    if len(v) != 3:
        assert new == (DomainError, [])
        return
    assert new == _outcome(ref_reflect_direction, v, normal)
    if error is not None:
        assert new == (error, [])
    else:
        assert isinstance(new[0], bytes)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_random_reflections_match_numpy_reference(dim):
    # in R^3 the same outcome as the reference; every other dimension is refused
    rng = np.random.default_rng(dim)
    for _ in range(2000):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        normal = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        want = _outcome(ref_reflect_direction, v, normal) if dim == 3 else (DomainError, [])
        assert _outcome(reflect_direction, v, normal) == want
