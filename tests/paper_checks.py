"""Checks of the paper's claims that the acceptance suite and the unit tests
run, and no command does: the h-identity and the Poisson commutativity of
the elliptic integrals, the chord-angle identity and its m12 bound, the
tangency of every chord to its caustic cone, and the planar wedge's
reflection count.
"""

import math

import numpy as np

from conebilliards.elliptic import EllipticCone, first_integrals
from conebilliards.errors import DomainError
from conebilliards.geometry import OrientedLine

PB_STEP = 1e-5            # central-difference step of poisson_bracket_residual
WEDGE_MAX_STEPS = 10_000  # simulate_wedge gives up after this many reflections


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
    lhs = first_integrals(cone, a * u1, b * u2, nrm, v[..., 0], v[..., 1], v[..., 2])[1]
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
                hi, lo = first_integrals(cone, *(x + e), *v), first_integrals(cone, *(x - e), *v)
            else:
                hi, lo = first_integrals(cone, *x, *(v + e)), first_integrals(cone, *x, *(v - e))
            return (np.array(hi) - np.array(lo)) / (2.0 * h)

        return (4.0 * central(PB_STEP / 2.0) - central(PB_STEP)) / 3.0

    total = 0.0
    for k in range(3):
        dI_dx = grad(k, True)
        dI_dv = grad(k, False)
        total += dI_dx[0] * dI_dv[1] - dI_dv[0] * dI_dx[1]
    return float(total)


def chord_angle_sin_sq(cone: EllipticCone, I1: float, I2: float, m12: float) -> float:
    """Exact sin^2 of the apex angle of a chord in terms of (I1, I2, m12)."""
    a2, b2 = cone.a**2, cone.b**2
    core = 4.0 * a2 * b2 * I1 * I2
    shift = (1.0 + a2) * (1.0 + b2) * m12**2 - (a2 * b2 * I1 - I2)
    return core / (core + shift**2)


def m12_sq_max(cone: EllipticCone, I1: float, I2: float) -> float:
    """Upper bound (a^2 I1 - I2)/(a^2 + 1) on m12^2 at fixed integrals."""
    return (cone.a**2 * I1 - I2) / (cone.a**2 + 1.0)


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


def wedge_reflection_count(theta: float) -> int:
    """ceil(pi/theta): the classical bound for a planar wedge of angle theta."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"wedge angle must lie in (0, pi), got {theta}")
    return math.ceil(math.pi / theta)


def simulate_wedge(theta: float, base, direction) -> int:
    """Count reflections of a full billiard trajectory in the planar wedge
    {polar angle in [0, theta]}.

    The backward ray from (base, direction) must escape without hitting a
    wall, so the count covers the whole trajectory.
    """
    if not (0.0 < theta < math.pi):
        raise DomainError("wedge angle must lie in (0, pi)")
    p, v = np.asarray(base, dtype=float), np.asarray(direction, dtype=float)
    if p.shape != (2,) or v.shape != (2,) or not np.isfinite([*p, *v]).all():
        raise DomainError("wedge simulation is planar, on finite vectors")
    v = v / np.linalg.norm(v)
    walls = [
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (np.array([math.cos(theta), math.sin(theta)]),
         np.array([-math.sin(theta), math.cos(theta)])),
    ]
    back = -v
    ang = math.atan2(back[1], back[0]) % (2.0 * math.pi)
    if not (1e-9 < ang < theta - 1e-9):
        raise DomainError("backward ray must escape through the open wedge")
    count = 0
    for _ in range(WEDGE_MAX_STEPS):
        best = None
        for wdir, wnorm in walls:
            vn = float(np.dot(v, wnorm))
            if abs(vn) < 1e-15:
                continue
            t = -float(np.dot(p, wnorm)) / vn
            if t > 1e-12 * (1.0 + np.linalg.norm(p)) and float(np.dot(p + t * v, wdir)) > 0.0:
                if best is None or t < best[0]:
                    best = (t, wnorm)
        if best is None:
            return count
        t, wnorm = best
        p = p + t * v
        v = v - 2.0 * float(np.dot(v, wnorm)) * wnorm
        count += 1
    raise RuntimeError("wedge simulation did not terminate")
