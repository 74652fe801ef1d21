"""Independent routes to quantities the package computes another way: the
distance of a line to the apex in two forms, the alpha recurrence of a
reflection sequence, the angle-to-integral identity of an elliptic-cone
chord, the elliptic quadric and parameter angle of a point, the
prescribed normal frame of the witness section at q_k and the built
curve's normal, and the log-by-log integrals, apex angles and drift of an
elliptic trajectory, the oracle of the one-pass accounting of
``billiards elliptic simulate``, the array forms of the reflection and its
normalization that the float forms replaced, and an exact fma chain, the
oracle of np.dot on short vectors.  Only the tests call them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from conebilliards.curve import PolarCurve
from conebilliards.elliptic import (EllipticCone, IntegralPair, TrajectoryLog, first_integrals,
                                    integral_pair)
from conebilliards.errors import DomainError, GrazingError
from conebilliards.geometry import (GRAZING_TOL, OrientedLine, _dots, angle_between,
                                    angular_momenta, check_unit, unit)
from conebilliards.ndim import LiftedSection
from conebilliards.spiral import sigma, xi


def line_distance_sq(line: OrientedLine) -> float:
    """Squared distance of the line to the origin as sum of m_ij^2."""
    m = angular_momenta(line.base, line.dir)
    return float(np.dot(m, m))


def projected_distance_sq(line: OrientedLine) -> float:
    """The same distance via |x|^2 - <x, v>^2 (independent route)."""
    x, v = line.base, line.dir
    return float(np.dot(x, x) - np.dot(x, v) ** 2)


@dataclass
class AlphaThetaReport:
    """Residuals of the alpha recurrence and of |p| sin(alpha) = dist(l, O)."""

    alpha: np.ndarray
    radius: np.ndarray


def alpha_theta_residuals(vertices, outgoing) -> AlphaThetaReport:
    """alpha_{k+1} - (alpha_k - theta_k) for consecutive reflections, plus
    the per-reflection residual |p_k| sin(alpha_k) - dist(l_k, O).

    Row k of the (n, 3) arrays is the vertex p_k and the direction leaving
    it; alpha_k is the angle of that direction to the radius of p_k and
    theta_k the apex angle between p_k and p_{k+1}.
    """
    p = np.asarray(vertices, dtype=float)
    v = np.asarray(outgoing, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape != v.shape:
        raise DomainError("need (n, 3) vertex and outgoing-direction arrays")
    if len(p) < 2:
        raise DomainError("need at least two consecutive reflections")
    radial = unit(p)
    alphas = angle_between(v, radial)
    res_alpha = alphas[1:] - (alphas[:-1] - angle_between(radial[:-1], radial[1:]))
    m = angular_momenta(p, v)
    res_radius = np.sqrt(_dots(p, p)) * np.sin(alphas) - np.sqrt(_dots(m, m))
    return AlphaThetaReport(alpha=res_alpha, radius=res_radius)


def angle_to_integral_residual(cone: EllipticCone, line: OrientedLine, hit: np.ndarray) -> float:
    """cos(xi2 - xi1) - (2 m12^2/(m12^2 + I2) - 1) for the chord base->hit."""
    m12 = angular_momenta(line.base, line.dir)[0]
    I2 = integral_pair(cone, line).I2
    xi1 = section_angle(cone, line.base)
    xi2 = section_angle(cone, hit)
    return math.cos(xi2 - xi1) - (2.0 * m12**2 / (m12**2 + I2) - 1.0)


@dataclass(frozen=True)
class NormalFrame:
    """Prescribed inward normal data at q_k = (cos xi_k, sin xi_k, 1).

    sigma is the counterclockwise angle from the circle's inward normal
    z_k = -(cos xi_k, sin xi_k) to w_k; tangent = w rotated clockwise by
    pi/2 satisfies the equal-projection reflection condition.
    """

    k: int
    q: np.ndarray          # planar (x1, x2) of the section point
    w: np.ndarray          # planar unit normal
    sigma: float

    @property
    def tangent(self) -> np.ndarray:
        return np.array([self.w[1], -self.w[0]])


def normal_w(k: int) -> NormalFrame:
    """Frame (q_k, w_k, sigma_k) in the section plane."""
    s = float(sigma(k))
    x = float(xi(k))
    z = np.array([-math.cos(x), -math.sin(x)])
    zt = np.array([math.sin(x), -math.cos(x)])
    w = math.cos(s) * z + math.sin(s) * zt
    return NormalFrame(k=int(k), q=np.array([math.cos(x), math.sin(x)]), w=w, sigma=s)


def quadric(cone: EllipticCone, x) -> float:
    """Q(x) = (x1/a)^2 + (x2/b)^2 - x3^2; negative strictly inside."""
    x0, x1, x2 = np.asarray(x, dtype=float).tolist()
    return (x0 / cone.a) ** 2 + (x1 / cone.b) ** 2 - x2 ** 2


def section_angle(cone: EllipticCone, x) -> float:
    """Elliptic parameter angle of a surface point: x = t(a cos, b sin, 1)."""
    x = np.asarray(x, dtype=float)
    return math.atan2(x[1] / (cone.b * x[2]), x[0] / (cone.a * x[2]))


def curve_inward_normal(curve: PolarCurve, xi_val) -> np.ndarray:
    """Unit inward normal of the curve (rotate the tangent by +pi/2)."""
    r, r1, _ = curve.polar(xi_val)
    x = float(xi_val)
    tx = r1 * math.cos(x) - r * math.sin(x)
    ty = r1 * math.sin(x) + r * math.cos(x)
    n = np.array([-ty, tx])
    return n / np.linalg.norm(n)


def F1_batch(section: LiftedSection, Y: np.ndarray) -> np.ndarray:
    """F1 of the lift for a batch of points, shape (N, n-2)."""
    return section._lift(Y)[2]


def log_integrals(log: TrajectoryLog) -> IntegralPair:
    """(I1, I2) of every line, as arrays."""
    return IntegralPair(*first_integrals(log.cone, log.bases, log.dirs))


def log_thetas(log: TrajectoryLog) -> np.ndarray:
    """Apex angles between consecutive vertices, counting the launch
    base as one when the trajectory started on the surface."""
    radial = unit(log.bases if log.started_on_surface else log.vertices)
    return angle_between(radial[:-1], radial[1:])


def integral_drift(log: TrajectoryLog) -> tuple:
    """Relative peak-to-peak drift of (I1, I2); I2 is normalized by
    max(|I2|, I1) since it may legitimately sit at zero."""
    pair = log_integrals(log)
    i1_max = np.abs(pair.I1).max()
    d1 = float(np.ptp(pair.I1) / i1_max)
    d2 = float(np.ptp(pair.I2) / max(np.abs(pair.I2).max(), i1_max))
    return d1, d2


def fma_chain(x, y) -> float:
    """np.dot of two sequences of 2 to 15 floats as this package assumes it:
    OpenBLAS's ddot, d = 0.0, then d = fma(x_i, y_i, d) for each i, each fma
    rounded once from the exact rational x_i y_i + d; numpy adds the result
    to a sum that starts at +0.0, so a -0.0 chain reads +0.0."""
    d = 0.0
    for a, b in zip(x, y):
        exact = Fraction(a) * Fraction(b) + Fraction(d)
        # an exact zero is +0.0 unless a zero factor adds a signed zero to d
        d = float(exact) if exact or (a and b) else a * b + d
    return 0.0 + d


def normalized_array(g: np.ndarray) -> list:
    """g / sqrt(np.dot(g, g)) of a 1-d array, as Python floats: the array
    form of geometry._normalized, kept as its oracle."""
    gl = g.tolist()
    if not 0.0 < sum(map(mul, gl, gl)) < math.inf:
        raise DomainError("cannot normalize a (near-)zero or overflowing vector")
    s = math.sqrt(g.dot(g))
    return [x / s for x in gl]


def reflect_direction_array(v, normal) -> np.ndarray:
    """v - 2<v,n>n renormalized, with the three dots that set bits through
    np.dot on arrays: the array form of geometry.reflect_direction, kept as
    its oracle."""
    v, g = np.asarray(v, dtype=float), np.asarray(normal, dtype=float)
    if v.ndim != 1 or v.shape != g.shape or v.size < 2:
        raise DomainError(f"need a direction and a normal of one dimension >= 2, "
                          f"got shapes {v.shape} and {g.shape}")
    vl = v.tolist()
    check_unit(vl)
    nl = normalized_array(g)
    vn = float(v.dot(np.array(nl)))
    if abs(vn) < GRAZING_TOL:
        raise GrazingError(f"grazing incidence: |<v,n>| = {abs(vn)} < {GRAZING_TOL}")
    c = 2.0 * vn
    w = np.array([x - c * n for x, n in zip(vl, nl)])
    return w / math.sqrt(w.dot(w))
