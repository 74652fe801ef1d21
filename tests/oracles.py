"""Independent routes to quantities the package computes another way: the
distance of a line to the apex in two forms, the alpha recurrence of a
reflection sequence, the angle-to-integral identity of an elliptic-cone
chord, and the prescribed normal frame of the witness section at q_k.
Only the tests call them.
"""

import math
from dataclasses import dataclass

import numpy as np

from conebilliards.elliptic import EllipticCone, integral_pair
from conebilliards.errors import DomainError
from conebilliards.geometry import OrientedLine, _dots, angle_between, angular_momenta, unit
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
    xi1 = cone.section_angle(line.base)
    xi2 = cone.section_angle(hit)
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
