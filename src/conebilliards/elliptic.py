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
from .geometry import (
    OrientedLine,
    angle_between,
    angular_momenta,
    near_apex,
    reflect_direction,
    unit,
)

T_MIN_FACTOR = 1e-12      # excludes re-hitting the current vertex
LINEAR_A_TOL = 1e-14      # |A| below this solves the ray linearly
DISC_CLAMP = 1e-14        # negative discriminant within this clamps to zero
ARC_CLAMP = 1e-12         # arcsin arguments within this of 1 are clamped
PB_STEP = 1e-5            # central-difference step of poisson_bracket_residual
BOUND_MARGIN = 8          # run_random caps a c2 > 0 run this far above its bound
FALLBACK_STEPS = 4000     # and any other run at this many reflections


@dataclass(frozen=True)
class EllipticCone:
    """Semi-axes a > b > 0 of the section ellipse at height x3 = 1."""

    a: float
    b: float

    def __post_init__(self):
        # the ray's B reaches 4/b from a start at height 2: keep 16/b^2 finite
        if not (self.a > self.b > 0.0 and self.a * self.a < math.inf
                and self.b * self.b > 16.0 / sys.float_info.max):
            raise DomainError(f"need a > b > 0 with a^2 and 16/b^2 finite, "
                              f"got a={self.a}, b={self.b}")

    def quadric(self, x) -> float:
        """Q(x) = (x1/a)^2 + (x2/b)^2 - x3^2; negative strictly inside."""
        x = np.asarray(x, dtype=float)
        return float((x[0] / self.a) ** 2 + (x[1] / self.b) ** 2 - x[2] ** 2)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([2.0 * x[0] / self.a**2, 2.0 * x[1] / self.b**2, -2.0 * x[2]])

    def surface_point(self, phi: float, t: float = 1.0) -> np.ndarray:
        return t * np.array([self.a * math.cos(phi), self.b * math.sin(phi), 1.0])

    def inward_normal(self, x) -> np.ndarray:
        return unit(-self.gradient(x))

    def section_angle(self, x) -> float:
        """Elliptic parameter angle of a surface point: x = t(a cos, b sin, 1)."""
        x = np.asarray(x, dtype=float)
        return math.atan2(x[1] / (self.b * x[2]), x[0] / (self.a * x[2]))


def first_integrals(cone: EllipticCone, x, v) -> tuple:
    """(I1, I2) of the line through x with direction v.

    x and v are one line's (3,) arrays or stacks of lines, (n, 3) arrays;
    the m_ij are taken along the last axis.
    """
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    m12 = x0 * v1 - x1 * v0
    m13 = x0 * v2 - x2 * v0
    m23 = x1 * v2 - x2 * v1
    return (m12 * m12 + m13 * m13 + m23 * m23,
            cone.a**2 * (m23 * m23) + cone.b**2 * (m13 * m13) - m12 * m12)


@dataclass(frozen=True)
class IntegralPair:
    """(I1, I2): floats for one line, arrays for the lines of a trajectory."""

    I1: float
    I2: float


def integral_pair(cone: EllipticCone, line: OrientedLine) -> IntegralPair:
    return IntegralPair(*first_integrals(cone, line.base, line.dir))


def h_identity_residual(cone: EllipticCone, u, v) -> float:
    """Residual of I2 = h11 s1^2 + h22 s2^2 + h12 s1 s2 + h0 at x = r(u).

    r(u) = (a u1, b u2, |u|), s_j = <v, dr/du_j>; the identity holds for
    every unit v, which is what makes I2 a reflection invariant.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != 2 or v.shape[-1] != 3:
        raise DomainError("u must be 2-d parameters, v a 3-d direction")
    a, b = cone.a, cone.b
    u1, u2 = u[..., 0], u[..., 1]
    nrm = np.hypot(u1, u2)
    if np.any(nrm < 1e-300):
        raise DomainError("(u1, u2) must be nonzero")
    x = np.stack([a * u1, b * u2, nrm], axis=-1)
    lhs = first_integrals(cone, x, v)[1]
    s1 = a * v[..., 0] + u1 * v[..., 2] / nrm
    s2 = b * v[..., 1] + u2 * v[..., 2] / nrm
    h11 = -(b**2) * u1**2 - (1.0 + b**2) * u2**2
    h22 = -(a**2 + 1.0) * u1**2 - a**2 * u2**2
    h12 = 2.0 * u1 * u2
    h0 = b**2 * (a**2 + 1.0) * u1**2 + a**2 * (b**2 + 1.0) * u2**2
    res = lhs - (h11 * s1**2 + h22 * s2**2 + h12 * s1 * s2 + h0)
    return float(res) if res.ndim == 0 else res


def poisson_bracket_residual(cone: EllipticCone, x, v) -> float:
    """{I1, I2} by central differences with one Richardson pass; exactly zero
    for the true bracket, so the return is pure numerical noise."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)

    def grad(k: int, wrt_x: bool) -> np.ndarray:
        """d(I1, I2) / dx_k (or dv_k)."""
        def central(h: float) -> np.ndarray:
            e = np.zeros(3)
            e[k] = h
            if wrt_x:
                hi, lo = first_integrals(cone, x + e, v), first_integrals(cone, x - e, v)
            else:
                hi, lo = first_integrals(cone, x, v + e), first_integrals(cone, x, v - e)
            return (np.array(hi) - np.array(lo)) / (2.0 * h)

        return (4.0 * central(PB_STEP / 2.0) - central(PB_STEP)) / 3.0

    total = 0.0
    for k in range(3):
        dI_dx = grad(k, True)
        dI_dv = grad(k, False)
        total += dI_dx[0] * dI_dv[1] - dI_dv[0] * dI_dx[1]
    return float(total)


def next_intersection(cone: EllipticCone, p: np.ndarray,
                      v: np.ndarray) -> Union[np.ndarray, Termination]:
    """Closed-form first hit of the ray p + t v with the surface, or ESCAPED
    or APEX.

    Substituting the ray into Q gives A t^2 + B t + C; of the roots, taken
    through the stable q-form, the first counts that lies above t_min, is
    an exit (2 A t + B >= 0) and has x3 > 0.  A base on the surface is an
    entry crossing, so a reflection vertex never returns itself.
    """
    if p.size != 3:
        raise DomainError("elliptic stepping lives in R^3")
    a2, b2 = cone.a**2, cone.b**2
    A = v[0] ** 2 / a2 + v[1] ** 2 / b2 - v[2] ** 2
    B = 2.0 * (p[0] * v[0] / a2 + p[1] * v[1] / b2 - p[2] * v[2])
    C = cone.quadric(p)
    t_min = T_MIN_FACTOR * float(np.linalg.norm(p))
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
            hit = p + t * v
            if near_apex(hit, p):
                return Termination.APEX
            if hit[2] > 0.0:
                return hit
    return Termination.ESCAPED


@dataclass
class TrajectoryLog:
    """Everything a run produced and how it ended.

    Row i of ``bases``/``dirs`` is the i-th line of the trajectory: the
    launch line first, then each vertex with its outgoing direction.  The
    vertices, integrals, apex angles and drift are derived from them.
    """

    cone: EllipticCone
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

    def integrals(self) -> IntegralPair:
        """(I1, I2) of every line, as arrays."""
        return IntegralPair(*first_integrals(self.cone, self.bases, self.dirs))

    def thetas(self) -> np.ndarray:
        """Apex angles between consecutive vertices, counting the launch
        base as one when the trajectory started on the surface."""
        radial = unit(self.bases if self.started_on_surface else self.vertices)
        return angle_between(radial[:-1], radial[1:])

    def integral_drift(self) -> tuple:
        """Relative peak-to-peak drift of (I1, I2); I2 is normalized by
        max(|I2|, I1) since it may legitimately sit at zero."""
        pair = self.integrals()
        i1_max = np.abs(pair.I1).max()
        d1 = float(np.ptp(pair.I1) / i1_max)
        d2 = float(np.ptp(pair.I2) / max(np.abs(pair.I2).max(), i1_max))
        return d1, d2


def run(
    cone: EllipticCone,
    line0: OrientedLine,
    max_steps: int = 100_000,
    started_on_surface: bool = False,
) -> TrajectoryLog:
    """Iterate reflections until escape, apex, grazing incidence, or max_steps."""
    bases, dirs = [line0.base], [line0.dir]
    termination = Termination.MAX_STEPS
    for _ in range(max_steps):
        hit = next_intersection(cone, bases[-1], dirs[-1])
        if isinstance(hit, Termination):
            termination = hit
            break
        try:
            out = reflect_direction(dirs[-1], cone.gradient(hit))
        except GrazingError:
            termination = Termination.GRAZING
            break
        bases.append(hit)
        dirs.append(out)
    return TrajectoryLog(cone, np.array(bases), np.array(dirs), termination, started_on_surface)


# ---------------------------------------------------------------------------
# the reflection-count bound and its supporting estimates
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


def chord_angle_sin_sq(cone: EllipticCone, I1: float, I2: float, m12: float) -> float:
    """Exact sin^2 of the apex angle of a chord in terms of (I1, I2, m12)."""
    a2, b2 = cone.a**2, cone.b**2
    core = 4.0 * a2 * b2 * I1 * I2
    shift = (1.0 + a2) * (1.0 + b2) * m12**2 - (a2 * b2 * I1 - I2)
    return core / (core + shift**2)


def m12_sq_max(cone: EllipticCone, I1: float, I2: float) -> float:
    """Upper bound (a^2 I1 - I2)/(a^2 + 1) on m12^2 at fixed integrals."""
    return (cone.a**2 * I1 - I2) / (cone.a**2 + 1.0)


def angle_to_integral_residual(cone: EllipticCone, line: OrientedLine, hit: np.ndarray) -> float:
    """cos(xi2 - xi1) - (2 m12^2/(m12^2 + I2) - 1) for the chord base->hit."""
    m12 = angular_momenta(line.base, line.dir)[0]
    I2 = integral_pair(cone, line).I2
    xi1 = cone.section_angle(line.base)
    xi2 = cone.section_angle(hit)
    return math.cos(xi2 - xi1) - (2.0 * m12**2 / (m12**2 + I2) - 1.0)


def caustic_tangency_residual(
    cone: EllipticCone, line: OrientedLine, c1: float, c2: float
) -> float:
    """Scaled discriminant of the line against the caustic cone K_lambda,
    lambda = -c2/c1; zero at tangency.

    The raw discriminant is normalized by the magnitude of its two terms so
    the residual is scale-free.
    """
    if c1 <= 0.0:
        raise DomainError("c1 must be positive")
    lam = -c2 / c1
    da = cone.a**2 + lam
    db = cone.b**2 + lam
    dz = 1.0 - lam
    if da <= 0.0 or db <= 0.0 or dz <= 0.0:
        raise DomainError(f"degenerate caustic: lambda={lam} gives a nonpositive denominator")
    p, v = line.base, line.dir
    A = v[0] ** 2 / da + v[1] ** 2 / db - v[2] ** 2 / dz
    B = 2.0 * (p[0] * v[0] / da + p[1] * v[1] / db - p[2] * v[2] / dz)
    C = p[0] ** 2 / da + p[1] ** 2 / db - p[2] ** 2 / dz
    disc = B * B - 4.0 * A * C
    scale = max(B * B, abs(4.0 * A * C), 1e-300)
    return disc / scale


# ---------------------------------------------------------------------------
# Monte-Carlo sampling
# ---------------------------------------------------------------------------

def sample_start(cone: EllipticCone, rng: np.random.Generator) -> OrientedLine:
    """Surface start: base on the section ellipse scaled by t ~ U[0.5, 2],
    direction uniform on the inward hemisphere."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    t = rng.uniform(0.5, 2.0)
    base = cone.surface_point(phi, t)
    n_in = cone.inward_normal(base)
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v = v / norm
        if float(np.dot(v, n_in)) > 1e-6:
            return OrientedLine(base, v)


def run_random(cone: EllipticCone, rng: np.random.Generator) -> TrajectoryLog:
    """Sample a start and run it; trajectories with c2 > 0 are capped just
    above their own reflection bound, others at FALLBACK_STEPS."""
    line0 = sample_start(cone, rng)
    pair = integral_pair(cone, line0)
    if pair.I2 > 0.0:
        cap = reflection_bound(cone, pair.I1, pair.I2) + BOUND_MARGIN
    else:
        cap = FALLBACK_STEPS
    return run(cone, line0, max_steps=cap, started_on_surface=True)
