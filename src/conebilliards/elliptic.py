"""Billiard inside the elliptic cone (x3)^2 = (x1/a)^2 + (x2/b)^2, x3 > 0.

Closed-form ray/quadric stepping plus the two conserved quantities

    I1 = m12^2 + m13^2 + m23^2        (squared distance to the apex)
    I2 = a^2 m23^2 + b^2 m13^2 - m12^2

and the reflection-count ceiling N = ceil(pi / arcsin q) with
q = 2ab sqrt(c1 c2) / (a^2 (b^2+1) c1 + (b^2+1) c2) for trajectories with
I1 = c1 > 0, I2 = c2 > 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import DomainError, Escape, GrazingError, TangencyWarning, Termination
from .geometry import (
    OrientedLine,
    ReflectionRecord,
    angle_between,
    line_distance_sq,
    momenta3,
    reflect_direction,
    unit,
)

T_MIN_FACTOR = 1e-12      # excludes re-hitting the current vertex
LINEAR_A_TOL = 1e-14      # |A| below this solves the ray linearly
DISC_CLAMP = 1e-14        # negative discriminant within this clamps to zero
APEX_TOL = 1e-9
ARC_CLAMP = 1e-12         # arcsin arguments within this of 1 are clamped


@dataclass(frozen=True)
class EllipticCone:
    """Semi-axes a > b > 0 of the section ellipse at height x3 = 1."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > self.b > 0.0):
            raise DomainError(f"need a > b > 0, got a={self.a}, b={self.b}")

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

    def contains(self, x, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return x[2] > 0.0 and self.quadric(x) < -margin


@dataclass(frozen=True)
class IntegralPair:
    I1: float
    I2: float


def integral_I2(cone: EllipticCone, line: OrientedLine) -> float:
    """a^2 m23^2 + b^2 m13^2 - m12^2."""
    m23, m13, m12 = momenta3(line)
    return cone.a**2 * m23**2 + cone.b**2 * m13**2 - m12**2


def integral_pair(cone: EllipticCone, line: OrientedLine) -> IntegralPair:
    return IntegralPair(I1=line_distance_sq(line), I2=integral_I2(cone, line))


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
    m12 = x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]
    m13 = x[..., 0] * v[..., 2] - x[..., 2] * v[..., 0]
    m23 = x[..., 1] * v[..., 2] - x[..., 2] * v[..., 1]
    lhs = a**2 * m23**2 + b**2 * m13**2 - m12**2
    s1 = a * v[..., 0] + u1 * v[..., 2] / nrm
    s2 = b * v[..., 1] + u2 * v[..., 2] / nrm
    h11 = -(b**2) * u1**2 - (1.0 + b**2) * u2**2
    h22 = -(a**2 + 1.0) * u1**2 - a**2 * u2**2
    h12 = 2.0 * u1 * u2
    h0 = b**2 * (a**2 + 1.0) * u1**2 + a**2 * (b**2 + 1.0) * u2**2
    res = lhs - (h11 * s1**2 + h22 * s2**2 + h12 * s1 * s2 + h0)
    return float(res) if res.ndim == 0 else res


def _I1(cone, x, v):
    m12 = x[0] * v[1] - x[1] * v[0]
    m13 = x[0] * v[2] - x[2] * v[0]
    m23 = x[1] * v[2] - x[2] * v[1]
    return m12 * m12 + m13 * m13 + m23 * m23


def _I2(cone, x, v):
    m12 = x[0] * v[1] - x[1] * v[0]
    m13 = x[0] * v[2] - x[2] * v[0]
    m23 = x[1] * v[2] - x[2] * v[1]
    return cone.a**2 * m23 * m23 + cone.b**2 * m13 * m13 - m12 * m12


def poisson_bracket_residual(cone: EllipticCone, x, v, step: float = 1e-5) -> float:
    """{I1, I2} by central differences with one Richardson pass; exactly zero
    for the true bracket, so the return is pure numerical noise."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)

    def d(f, point, other, idx, wrt_x, h):
        e = np.zeros(3)
        e[idx] = h
        if wrt_x:
            return (f(cone, point + e, other) - f(cone, point - e, other)) / (2.0 * h)
        return (f(cone, other, point + e) - f(cone, other, point - e)) / (2.0 * h)

    def richardson(f, point, other, idx, wrt_x):
        d1 = d(f, point, other, idx, wrt_x, step)
        d2 = d(f, point, other, idx, wrt_x, step / 2.0)
        return (4.0 * d2 - d1) / 3.0

    total = 0.0
    for k in range(3):
        dI1_dx = richardson(_I1, x, v, k, True)
        dI2_dv = richardson(_I2, v, x, k, False)
        dI1_dv = richardson(_I1, v, x, k, False)
        dI2_dx = richardson(_I2, x, v, k, True)
        total += dI1_dx * dI2_dv - dI1_dv * dI2_dx
    return total


def next_intersection(
    cone: EllipticCone,
    line: OrientedLine,
    from_surface: bool = False,
) -> Union[np.ndarray, Escape]:
    """Closed-form first hit of the forward ray with the surface, or Escape.

    Substituting x = p + t v into Q gives A t^2 + B t + C; roots are taken
    through the stable q-form and filtered by t > t_min and x3 > 0.  When
    the base is a reflection vertex the near-zero root is the vertex itself
    and only the far root counts.
    """
    p, v = line.base, line.dir
    if p.size != 3:
        raise DomainError("elliptic stepping lives in R^3")
    a2, b2 = cone.a**2, cone.b**2
    A = v[0] ** 2 / a2 + v[1] ** 2 / b2 - v[2] ** 2
    B = 2.0 * (p[0] * v[0] / a2 + p[1] * v[1] / b2 - p[2] * v[2])
    C = cone.quadric(p)
    t_min = T_MIN_FACTOR * float(np.linalg.norm(p))

    def accept(t: float) -> Optional[np.ndarray]:
        if t > t_min and p[2] + t * v[2] > 0.0:
            hit = p + t * v
            if float(np.linalg.norm(hit)) < APEX_TOL * max(1.0, float(np.linalg.norm(p))):
                return None  # caller flags the apex
            return hit
        return None

    if abs(A) < LINEAR_A_TOL:
        # direction on the asymptotic cone: at most one more crossing
        if from_surface or abs(B) < 1e-300:
            return Escape()
        hit = accept(-C / B)
        return hit if hit is not None else Escape()

    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        if disc > -DISC_CLAMP:
            warnings.warn("discriminant clamped to zero: tangent ray", TangencyWarning)
            disc = 0.0
        else:
            return Escape()
    sq = math.sqrt(disc)
    q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else -0.5 * sq
    if from_surface:
        # Vieta: the far root q/A; the near-zero one is the current vertex
        hit = accept(q / A)
        if hit is None and _apex_hit(p, v, q / A, t_min):
            return Escape(apex=True)
        return hit if hit is not None else Escape()
    roots = sorted({q / A, C / q} if q != 0.0 else {0.0})
    for t in roots:
        hit = accept(t)
        if hit is not None:
            return hit
        if _apex_hit(p, v, t, t_min):
            return Escape(apex=True)
    return Escape()


def _apex_hit(p, v, t, t_min) -> bool:
    if t <= t_min:
        return False
    hit = p + t * v
    return float(np.linalg.norm(hit)) < APEX_TOL * max(1.0, float(np.linalg.norm(p)))


@dataclass
class TrajectoryLog:
    """Everything a run produced: vertices, lines, per-segment integrals,
    the alpha/theta bookkeeping, and how it ended."""

    cone: EllipticCone
    lines: List[OrientedLine] = field(default_factory=list)
    vertices: List[np.ndarray] = field(default_factory=list)
    integrals: List[IntegralPair] = field(default_factory=list)
    records: List[ReflectionRecord] = field(default_factory=list)
    termination: Termination = Termination.ESCAPED
    started_on_surface: bool = False

    @property
    def reflection_count(self) -> int:
        """Number of reflections including the starting vertex when the
        trajectory was launched from the surface."""
        return len(self.vertices) + (1 if self.started_on_surface else 0)

    def thetas(self) -> np.ndarray:
        pts = ([self.lines[0].base] if self.started_on_surface else []) + self.vertices
        out = []
        for p1, p2 in zip(pts[:-1], pts[1:]):
            out.append(angle_between(unit(p1), unit(p2)))
        return np.array(out)

    def integral_drift(self) -> tuple:
        """Relative peak-to-peak drift of (I1, I2); I2 is normalized by
        max(|I2|, I1) since it may legitimately sit at zero."""
        i1 = np.array([p.I1 for p in self.integrals])
        i2 = np.array([p.I2 for p in self.integrals])
        d1 = float(np.ptp(i1) / np.abs(i1).max())
        d2 = float(np.ptp(i2) / max(np.abs(i2).max(), np.abs(i1).max()))
        return d1, d2


def run(
    cone: EllipticCone,
    line0: OrientedLine,
    max_steps: int = 100_000,
    started_on_surface: bool = False,
) -> TrajectoryLog:
    """Iterate reflections until Escape, apex, or max_steps."""
    log = TrajectoryLog(cone=cone, started_on_surface=started_on_surface)
    line = line0
    log.lines.append(line)
    log.integrals.append(integral_pair(cone, line))
    from_surface = started_on_surface
    log.termination = Termination.MAX_STEPS
    for _ in range(max_steps):
        hit = next_intersection(cone, line, from_surface=from_surface)
        if isinstance(hit, Escape):
            log.termination = Termination.APEX if hit.apex else Termination.ESCAPED
            break
        n = unit(cone.gradient(hit))
        try:
            out = reflect_direction(line.dir, n)
        except GrazingError:
            log.termination = Termination.ESCAPED
            break
        new_line = OrientedLine(hit, out)
        alpha = angle_between(out, unit(hit))
        if log.records and log.records[-1].theta_to_next is None:
            prev = log.records[-1]
            log.records[-1] = ReflectionRecord(
                vertex=prev.vertex, incoming=prev.incoming, outgoing=prev.outgoing,
                alpha=prev.alpha, theta_to_next=angle_between(unit(prev.vertex), unit(hit)),
            )
        log.records.append(ReflectionRecord(
            vertex=hit, incoming=line.dir, outgoing=out, alpha=alpha, theta_to_next=None,
        ))
        log.vertices.append(hit)
        log.lines.append(new_line)
        log.integrals.append(integral_pair(cone, new_line))
        line = new_line
        from_surface = True
    return log


# ---------------------------------------------------------------------------
# the reflection-count bound and its supporting estimates
# ---------------------------------------------------------------------------

def _arcsin_argument(cone: EllipticCone, c1: float, c2: float) -> float:
    if c1 <= 0.0 or c2 <= 0.0:
        raise DomainError("the bound requires c1 > 0 and c2 > 0")
    a, b = cone.a, cone.b
    arg = 2.0 * a * b * math.sqrt(c1 * c2) / (a**2 * (b**2 + 1.0) * c1 + (b**2 + 1.0) * c2)
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
    _, _, m12 = momenta3(line)
    I2 = integral_I2(cone, line)
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


def run_random(
    cone: EllipticCone,
    rng: np.random.Generator,
    bound_margin: int = 8,
    fallback_steps: int = 4000,
) -> TrajectoryLog:
    """Sample a start and run it; trajectories with c2 > 0 are capped just
    above their own reflection bound, others at fallback_steps."""
    line0 = sample_start(cone, rng)
    pair = integral_pair(cone, line0)
    if pair.I2 > 0.0:
        cap = reflection_bound(cone, pair.I1, pair.I2) + bound_margin
    else:
        cap = fallback_steps
    return run(cone, line0, max_steps=cap, started_on_surface=True)
