"""Billiard inside the elliptic cone (x3)^2 = (x1/a)^2 + (x2/b)^2, x3 > 0.

Closed-form ray/quadric stepping plus the two conserved quantities

    I1 = m12^2 + m13^2 + m23^2        (squared distance to the apex)
    I2 = a^2 m23^2 + b^2 m13^2 - m12^2

and the reflection-count ceiling N = ceil(pi / arcsin q) with
q = 2ab sqrt(r) / (a^2 (b^2+1) + (b^2+1) r), r = c2/c1, for trajectories
with I1 = c1 > 0, I2 = c2 > 0.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, GrazingError, TangencyWarning, Termination
from .geometry import OrientedLine, _normalized, _stack, momenta, near_apex, reflect_direction

T_MIN_FACTOR = 1e-12      # excludes re-hitting the current vertex
LINEAR_A_TOL = 1e-14      # |A| below this solves the ray linearly
DISC_CLAMP = 1e-14        # negative discriminant within this clamps to zero
ARC_CLAMP = 1e-12         # arcsin arguments within this of 1 are clamped
BOUND_MARGIN = 8          # run_random caps a c2 > 0 run this far above its bound
FALLBACK_STEPS = 4000     # and any other run at this many reflections


@dataclass(frozen=True)
class EllipticCone:
    """Semi-axes a > b > 0 of the section ellipse at height x3 = 1; the
    quadric Q(x) = (x1/a)^2 + (x2/b)^2 - x3^2 is negative strictly inside."""

    a: float
    b: float

    def __post_init__(self):
        # the ray's B reaches 4/b from a start at height 2: keep 16/b^2 finite
        if not (self.a > self.b > 0.0 and self.a * self.a < math.inf
                and self.b * self.b > 16.0 / sys.float_info.max):
            raise DomainError(f"need a > b > 0 with a^2 and 16/b^2 finite, "
                              f"got a={self.a}, b={self.b}")

    def gradient(self, x) -> list:
        """grad Q at a point given as a 3-sequence, as Python floats."""
        x0, x1, x2 = map(float, x)
        return [2.0 * x0 / self.a**2, 2.0 * x1 / self.b**2, -2.0 * x2]

    def surface_point(self, phi: float, t: float = 1.0) -> list:
        return [t * (self.a * math.cos(phi)), t * (self.b * math.sin(phi)), float(t)]

    def inward_normal(self, x) -> list:
        return _normalized([-g for g in self.gradient(x)])


def first_integrals(cone: EllipticCone, x, v) -> tuple:
    """(I1, I2) of the line through x with direction v: x and v are one
    line's (3,) arrays or (n, 3) stacks of lines, the m_ij taken along the
    last axis."""
    return _integrals(cone, x[..., 0], x[..., 1], x[..., 2], v[..., 0], v[..., 1], v[..., 2])


def _integrals(cone: EllipticCone, x0, x1, x2, v0, v1, v2) -> tuple:
    """(I1, I2) from the coordinates of a base and a direction: Python
    floats for one line, arrays for a stack."""
    m12, m13, m23 = momenta(x0, x1, x2, v0, v1, v2)
    return (m12 * m12 + m13 * m13 + m23 * m23,
            cone.a**2 * (m23 * m23) + cone.b**2 * (m13 * m13) - m12 * m12)


@dataclass(frozen=True)
class IntegralPair:
    """(I1, I2): floats for one line, arrays for the lines of a trajectory."""

    I1: float
    I2: float


def integral_pair(cone: EllipticCone, line: OrientedLine) -> IntegralPair:
    return IntegralPair(*_integrals(cone, *line.base.tolist(), *line.dir.tolist()))


def next_intersection(cone: EllipticCone, p, v) -> Union[list, Termination]:
    """Closed-form first hit of the ray p + t v with the surface, as three
    Python floats, or ESCAPED or APEX; p and v are 3-sequences.

    Substituting the ray into Q gives A t^2 + B t + C; of the roots, taken
    through the stable q-form, the first counts that lies above t_min, is
    an exit (2 A t + B >= 0) and has x3 > 0.  A base on the surface is an
    entry crossing, so a reflection vertex never returns itself.  All of it
    runs on Python floats, with x ** 2 kept as the libm pow that numpy
    scalars call: x * x rounds differently.
    """
    (p0, p1, p2), (v0, v1, v2) = map(float, p), map(float, v)
    a2, b2 = cone.a**2, cone.b**2
    A = v0 ** 2 / a2 + v1 ** 2 / b2 - v2 ** 2
    B = 2.0 * (p0 * v0 / a2 + p1 * v1 / b2 - p2 * v2)
    C = (p0 / cone.a) ** 2 + (p1 / cone.b) ** 2 - p2 ** 2  # Q(p)
    p_norm = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
    t_min = T_MIN_FACTOR * p_norm
    if abs(A) < LINEAR_A_TOL:
        # direction on the asymptotic cone: at most one more crossing, an
        # exit only for B > 0 (a subnormal B puts it at infinity)
        roots = [-C / B] if B >= 1e-300 else []
    else:
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            if disc > -DISC_CLAMP:
                warnings.warn("discriminant clamped to zero: tangent ray", TangencyWarning)
                disc = 0.0
            else:
                return Termination.ESCAPED
        sq = math.sqrt(disc)
        q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else -0.5 * sq
        roots = sorted({q / A, C / q} if q != 0.0 else {0.0})
    for t in roots:
        if t > t_min and 2.0 * A * t + B >= 0.0:
            h0, h1, h2 = p0 + t * v0, p1 + t * v1, p2 + t * v2
            if near_apex(math.sqrt(h0 * h0 + h1 * h1 + h2 * h2), p_norm):
                return Termination.APEX
            if h2 > 0.0:
                return [h0, h1, h2]
    return Termination.ESCAPED


@dataclass
class TrajectoryLog:
    """Everything a run produced and how it ended.

    Row i of ``bases``/``dirs`` is the i-th line of the trajectory: the
    launch line first, then each vertex with its outgoing direction.
    """

    bases: np.ndarray
    dirs: np.ndarray
    termination: Termination
    started_on_surface: bool = False

    @property
    def vertices(self) -> np.ndarray:
        return self.bases[1:]

    @property
    def reflection_count(self) -> int:
        """Number of reflections including the starting vertex when the
        trajectory was launched from the surface."""
        return len(self.vertices) + (1 if self.started_on_surface else 0)

def run(
    cone: EllipticCone,
    line0: OrientedLine,
    max_steps: int = 100_000,
    started_on_surface: bool = False,
) -> TrajectoryLog:
    """Iterate reflections until escape, apex, grazing incidence, or max_steps.

    The base and direction go from one reflection to the next as Python
    floats, and are stacked into arrays once, at the end."""
    bases, dirs = [line0.base.tolist()], [line0.dir.tolist()]
    p, v = bases[0], dirs[0]
    termination = Termination.MAX_STEPS
    for _ in range(max_steps):
        hit = next_intersection(cone, p, v)
        if isinstance(hit, Termination):
            termination = hit
            break
        try:
            out = reflect_direction(v, cone.gradient(hit))
        except GrazingError:
            termination = Termination.GRAZING
            break
        bases.append(hit)
        dirs.append(out)
        p, v = hit, out
    return TrajectoryLog(_stack(bases), _stack(dirs), termination, started_on_surface)


# ---------------------------------------------------------------------------
# the reflection-count bound
# ---------------------------------------------------------------------------

def _arcsin_argument(cone: EllipticCone, c1: float, c2: float) -> float:
    if c1 <= 0.0 or c2 <= 0.0:
        raise DomainError("the bound requires c1 > 0 and c2 > 0")
    a, b, r = cone.a, cone.b, c2 / c1  # q depends on c2 / c1 alone
    arg = 2.0 * a * b * math.sqrt(r) / (a**2 * (b**2 + 1.0) + (b**2 + 1.0) * r)
    # nan or 0 when a term over- or underflows (c1 or c2 infinite or nan
    # included); below the smallest normal float pi / arcsin(arg) overflows
    if not arg >= sys.float_info.min:
        raise DomainError(f"arcsin argument {arg} out of float range for c1={c1}, c2={c2}")
    if arg > 1.0:
        if arg > 1.0 + ARC_CLAMP:
            raise DomainError(f"arcsin argument {arg} > 1 beyond rounding")
        warnings.warn("arcsin argument clamped to 1", TangencyWarning)
        arg = 1.0
    return arg


def min_vertex_angle(cone: EllipticCone, c1: float, c2: float) -> float:
    """Strict lower bound on every apex angle theta_k of a trajectory with
    integrals (c1, c2)."""
    return math.asin(_arcsin_argument(cone, c1, c2))


def reflection_bound(cone: EllipticCone, c1: float, c2: float) -> int:
    """N = ceil(pi / arcsin q): the reflection-count ceiling."""
    return math.ceil(math.pi / min_vertex_angle(cone, c1, c2))


# ---------------------------------------------------------------------------
# Monte-Carlo sampling
# ---------------------------------------------------------------------------

def sample_start(cone: EllipticCone, rng: np.random.Generator) -> OrientedLine:
    """Surface start: base on the section ellipse scaled by t ~ U[0.5, 2],
    direction uniform on the inward hemisphere.  It draws two scalar
    uniforms, then normal(size=3) until a direction is accepted, so the start
    depends on the stream alone: a Philox keyed (seed, i) at counter 0 gives
    the same start whether it is new or re-keyed.  The line's check on
    Python floats is the only check of its base and direction."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    t = rng.uniform(0.5, 2.0)
    base = cone.surface_point(phi, t)
    n_in = np.array(cone.inward_normal(base))
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's bits
        if norm < 1e-12:
            continue
        v = v / norm
        if v.dot(n_in) > 1e-6:
            return OrientedLine(base, v)


def run_random(cone: EllipticCone, rng: np.random.Generator) -> TrajectoryLog:
    """Sample a start and run it; trajectories with c2 > 0 are capped just
    above their own reflection bound, others at FALLBACK_STEPS.  The run
    steps from the start's checked base and dir arrays as they are."""
    line0 = sample_start(cone, rng)
    pair = integral_pair(cone, line0)
    if pair.I2 > 0.0:
        cap = reflection_bound(cone, pair.I1, pair.I2) + BOUND_MARGIN
    else:
        cap = FALLBACK_STEPS
    return run(cone, line0, max_steps=cap, started_on_surface=True)
