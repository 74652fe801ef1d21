"""Line/cone geometry shared by every module.

Oriented lines carry the billiard state between reflections.  The angular
momenta m_ij = x^i v^j - x^j v^i of a line are invariant both along the
line and across reflections in any cone with apex at the origin; their
square sum is the squared distance of the line to the origin and is the
master conserved quantity checked throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, GrazingError, TangencyWarning, Termination

# Contract / numerics constants.  All tolerances used by this module are
# surfaced here.
UNIT_TOL = 1e-12          # |norm(dir) - 1| allowed for a Direction
GRAZING_TOL = 1e-12       # |<v,n>| below this refuses to reflect
T_MIN_FACTOR = 1e-9       # t_min = factor * |base| excludes the current vertex
SCAN_FACTOR = 1e-2        # coarse-scan step as a fraction of the length scale
BRACKET_WARN = 1e-10      # bracket narrower than this (x scale) warns tangency
APEX_TOL = 1e-9           # hit point within this of the origin flags the apex
WEDGE_MAX_STEPS = 10_000  # simulate_wedge gives up after this many reflections


def near_apex(hit: np.ndarray, base: np.ndarray) -> bool:
    """True when ``hit`` lies within APEX_TOL * max(1, |base|) of the apex."""
    return float(np.linalg.norm(hit)) < APEX_TOL * max(1.0, float(np.linalg.norm(base)))


def _vec(x, stack: bool = False) -> np.ndarray:
    """A finite vector of dimension >= 2; with ``stack``, also an (n, d)
    array of them, one per row."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in ((1, 2) if stack else (1,)) or v.shape[-1] < 2:
        kind = "a vector or an (n, d) stack" if stack else "a 1-d vector"
        raise DomainError(f"expected {kind} of dimension >= 2, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector has non-finite coordinates")
    return v


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> along the last axis.  matmul's vector-by-vector loop is
    np.dot's, so each entry equals np.dot of the two rows bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _atan2(y, x):
    """math.atan2 elementwise (np.arctan2 rounds differently); a float for
    0-d arguments."""
    if np.ndim(y) == 0:
        return math.atan2(float(y), float(x))
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())))


def unit(x) -> np.ndarray:
    """Normalize to Euclidean length 1; an (n, d) stack row by row."""
    v = _vec(x, stack=True)
    n = np.sqrt(_dots(v, v))[..., None]
    if (n < 1e-300).any():
        raise DomainError("cannot normalize a (near-)zero vector")
    return v / n


def check_unit(v: np.ndarray) -> None:
    if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_TOL:
        raise DomainError(f"direction is not unit within {UNIT_TOL}: |v| = {np.linalg.norm(v)}")


@dataclass(frozen=True)
class OrientedLine:
    """Base point plus unit direction; the parameterization is base + t*dir."""

    base: np.ndarray
    dir: np.ndarray

    def __post_init__(self):
        base = _vec(self.base)
        d = _vec(self.dir)
        if base.shape != d.shape:
            raise DomainError("base and dir must have the same dimension")
        check_unit(d)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dir", d)

    @property
    def n(self) -> int:
        return self.base.size

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.dir


def momentum_pairs(n: int) -> list:
    """Index pairs (i, j), i < j, in lexicographic order (0-based)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def angular_momenta(line: OrientedLine) -> np.ndarray:
    """All m_ij = x^i v^j - x^j v^i, i < j, lexicographic.

    Independent of where the base point sits on the line.
    """
    x, v = line.base, line.dir
    n = x.size
    out = np.empty(n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            out[k] = x[i] * v[j] - x[j] * v[i]
            k += 1
    return out


def line_distance_sq(line: OrientedLine) -> float:
    """Squared distance of the line to the origin as sum of m_ij^2."""
    m = angular_momenta(line)
    return float(np.dot(m, m))


def projected_distance_sq(line: OrientedLine) -> float:
    """The same distance via |x|^2 - <x, v>^2 (independent route)."""
    x, v = line.base, line.dir
    return float(np.dot(x, x) - np.dot(x, v) ** 2)


def reflect_direction(v, normal) -> np.ndarray:
    """Specular reflection v - 2<v,n>n, renormalized.

    Tangential components are preserved, the normal component flips.
    """
    v = _vec(v)
    n = _vec(normal)
    check_unit(v)
    check_unit(n)
    vn = float(np.dot(v, n))
    if abs(vn) < GRAZING_TOL:
        raise GrazingError(f"grazing incidence: |<v,n>| = {abs(vn)} < {GRAZING_TOL}")
    return unit(v - 2.0 * vn * n)


def angle_between(u, w):
    """Angle in [0, pi] between two unit vectors, accurate near 0 and pi;
    for (n, d) stacks, the array of the n row-by-row angles."""
    u = _vec(u, stack=True)
    w = _vec(w, stack=True)
    if u.shape[-1] == 3:
        c = np.cross(u, w)
        return _atan2(np.sqrt(_dots(c, c)), _dots(u, w))
    # general n: half-angle form, stable at both ends
    d, s = u - w, u + w
    return 2.0 * _atan2(np.sqrt(_dots(d, d)), np.sqrt(_dots(s, s)))


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
    p = _vec(base)
    v = unit(direction)
    if p.size != 2:
        raise DomainError("wedge simulation is planar")
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
    # |p x v|^2 is the sum of the squared m_ij, the squared line distance
    m = np.cross(p, v)
    res_radius = np.sqrt(_dots(p, p)) * np.sin(alphas) - np.sqrt(_dots(m, m))
    return AlphaThetaReport(alpha=res_alpha, radius=res_radius)


# ---------------------------------------------------------------------------
# Cones over a polar section curve in the plane x3 = 1
# ---------------------------------------------------------------------------

class CircularSection:
    """rho == const section; the circular cone x3 = |x_perp|/radius."""

    def __init__(self, radius: float = 1.0):
        if radius <= 0.0:
            raise DomainError("section radius must be positive")
        self.radius = float(radius)

    def polar(self, xi):
        xi = np.asarray(xi, dtype=float)
        r = np.full_like(xi, self.radius)
        z = np.zeros_like(xi)
        return r, z, z

    def deviation(self, xi):
        xi = np.asarray(xi, dtype=float)
        d = np.full_like(xi, self.radius - 1.0)
        z = np.zeros_like(xi)
        return d, z, z


# Compensated (double-double) scalars for the ray/surface gap.  The gap
# x^2 + y^2 - z^2 rho^2 cancels to ~eps * |p|^2 in plain float64, which
# feeds a per-reflection position noise of eps/<v,n> -- fatal for long
# grazing runs.  Splitting keeps the cancellation exact.
_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_ray_coord(p: float, p_tail: float, t: float, v: float):
    h, l = _two_prod(t, v)
    s, e = _two_sum(p, h)
    return _two_sum(s, e + l + p_tail)


def _dd_sq(h: float, l: float):
    p, e = _two_prod(h, h)
    return _two_sum(p, e + 2.0 * h * l)


def _dd_add(ah: float, al: float, bh: float, bl: float):
    s, e = _two_sum(ah, bh)
    return _two_sum(s, e + al + bl)


@dataclass(frozen=True)
class GeneralCone:
    """Cone {t * (rho(xi) cos xi, rho(xi) sin xi, 1) : t > 0} over a polar
    section with apex at the origin and axis +x3.

    ``section`` must provide polar(xi) -> (rho, rho', rho'') and
    deviation(xi) -> (rho - 1, rho', rho'') for scalar or array xi.
    """

    section: object

    def normal_at(self, point) -> np.ndarray:
        """Unit surface normal n ~ e1 x e2 with e1 the ruling through the
        point and e2 the lifted section tangent."""
        x = np.asarray(point, dtype=float)
        xi = math.atan2(x[1], x[0])
        r, r1, _ = (float(v) for v in self.section.polar(xi))
        cx, sx = math.cos(xi), math.sin(xi)
        e1 = np.array([r * cx, r * sx, 1.0])
        e2 = np.array([r1 * cx - r * sx, r1 * sx + r * cx, 0.0])
        return unit(np.cross(e1, e2))


def _escapes(cone: GeneralCone, direction: np.ndarray) -> bool:
    # A ray from strictly inside stays inside iff its direction lies in the
    # closed solid cone (the region is a convex cone).
    v = direction
    if v[2] <= 0.0:
        return False
    xi = math.atan2(v[1], v[0])
    rho = float(cone.section.polar(xi)[0])
    return math.hypot(v[0], v[1]) / v[2] <= rho


def _make_gap(cone: GeneralCone, p: np.ndarray, p_tail: np.ndarray, v: np.ndarray):
    """Compensated sign function of x^2 + y^2 - z^2 rho(xi)^2 along the ray.

    Negative strictly inside the solid cone, positive outside it, and +inf
    at or below the apex plane z <= 0, where the other nappe would give a
    spurious negative value.  ``p_tail`` is the double-double tail of the
    base point (zero for a plain line).
    """
    deviation = cone.section.deviation
    p0, p1, p2 = float(p[0]), float(p[1]), float(p[2])
    l0, l1, l2 = float(p_tail[0]), float(p_tail[1]), float(p_tail[2])
    v0, v1, v2 = float(v[0]), float(v[1]), float(v[2])

    def gap(t: float) -> float:
        zh, zl = _dd_ray_coord(p2, l2, t, v2)
        if zh <= 0.0:
            return math.inf
        xh, xl = _dd_ray_coord(p0, l0, t, v0)
        yh, yl = _dd_ray_coord(p1, l1, t, v1)
        sh, sl = _dd_add(*_dd_sq(xh, xl), *_dd_sq(yh, yl))
        z2h, z2l = _dd_sq(zh, zl)
        nh, nl = _dd_add(sh, sl, -z2h, -z2l)
        dev = float(deviation(math.atan2(yh, xh))[0])
        return (nh + nl) - z2h * (2.0 * dev + dev * dev)

    return gap


def _intersect_ray(cone: GeneralCone, p: np.ndarray, p_tail: np.ndarray,
                   v: np.ndarray) -> Union[float, Termination]:
    """Root t of the surface crossing; ESCAPED when the ray never returns,
    NO_BRACKET when the search finds no sign change to bisect.

    Brackets the sign change of the compensated gap by a coarse scan, then
    bisects it to the last bit.  The solid cone is convex, so the gap has a
    single sign change on the forward ray and any bracket is safe.
    """
    scale = max(float(np.linalg.norm(p)), 1e-12)
    t_min = T_MIN_FACTOR * scale

    if _escapes(cone, v):
        return Termination.ESCAPED

    gap = _make_gap(cone, p, p_tail, v)
    lo = t_min
    g_lo = gap(lo)
    step = SCAN_FACTOR * scale
    # The base may sit on the surface (post-reflection): walk forward until
    # strictly inside before hunting for the exit crossing.
    budget = 64
    while g_lo >= 0.0 and budget > 0:
        lo_new = lo * 8.0
        g_new = gap(lo_new)
        if g_new >= g_lo and lo_new > 64 * t_min:
            break
        lo, g_lo = lo_new, g_new
        budget -= 1
    if g_lo >= 0.0:
        return Termination.NO_BRACKET  # no point strictly inside to start from

    hi = lo + step
    g_hi = gap(hi)
    scans = 0
    while g_hi < 0.0:
        lo, g_lo = hi, g_hi
        scans += 1
        # uniform scan near the base, then geometric growth for far exits
        hi = lo + step if scans < 256 else lo * 2.0
        if hi > 1e12 * scale:
            return Termination.NO_BRACKET  # _escapes said the ray comes back
        g_hi = gap(hi)

    if hi - lo < BRACKET_WARN * scale:
        warnings.warn("degenerate bracket: near-tangent ray", TangencyWarning)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = gap(mid)
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return lo if abs(g_lo) <= abs(g_hi) else hi


@dataclass(frozen=True)
class PreciseLine:
    """Ray state whose base carries a double-double tail.

    Grazing reflections amplify any off-surface error of the base by
    1/<v,n> (10^3..10^5 on the accumulating trajectory), so long replays
    keep the base compensated; directions stay plain float64, their
    errors are not grazing-amplified.  A plain line is one with a zero tail.
    """

    base: np.ndarray
    base_tail: np.ndarray
    dir: np.ndarray

    @classmethod
    def from_line(cls, line: OrientedLine) -> "PreciseLine":
        return cls(line.base, np.zeros(3), line.dir)

    def as_line(self) -> OrientedLine:
        return OrientedLine(self.base, self.dir)


def cone_step_precise(cone: GeneralCone, state: PreciseLine) -> Union[PreciseLine, Termination]:
    """Advance one reflection: first surface hit of the forward ray, with a
    compensated hit point, reflected off the surface normal; or ESCAPED,
    APEX or NO_BRACKET."""
    p, v = state.base, state.dir
    if p.size != 3:
        raise DomainError("general-cone stepping is implemented in R^3")
    t_hit = _intersect_ray(cone, p, state.base_tail, v)
    if isinstance(t_hit, Termination):
        return t_hit
    hit = np.empty(3)
    tail = np.empty(3)
    for i in range(3):
        hit[i], tail[i] = _dd_ray_coord(float(p[i]), float(state.base_tail[i]), t_hit, float(v[i]))
    if near_apex(hit, p):
        return Termination.APEX
    out = reflect_direction(v, cone.normal_at(hit))
    return PreciseLine(hit, tail, out)
