"""Line/cone geometry shared by every module.

Oriented lines carry the billiard state between reflections.  The angular
momenta m_ij = x^i v^j - x^j v^i of a line are invariant both along the
line and across reflections in any cone with apex at the origin; their
square sum is the squared distance of the line to the origin and is the
master conserved quantity checked throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, GrazingError, Termination

# Contract / numerics constants.  All tolerances used by this module are
# surfaced here.
UNIT_TOL = 1e-12          # |norm(dir) - 1| allowed for a Direction
GRAZING_TOL = 1e-12       # |<v,n>| below this refuses to reflect
T_MIN_FACTOR = 1e-9       # t_min = factor * |base| excludes the current vertex
SCAN_FACTOR = 1e-2        # coarse-scan step as a fraction of the length scale
PREDICT_ROUNDS = 3        # frozen-rho quadric solves that predict a general-cone hit
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
    with np.errstate(over="ignore"):
        n = np.sqrt(_dots(v, v))[..., None]
    if not ((n >= 1e-300) & (n < math.inf)).all():
        raise DomainError("cannot normalize a (near-)zero or overflowing vector")
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

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.dir


def momentum_pairs(n: int) -> list:
    """Index pairs (i, j), i < j, in lexicographic order (0-based)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def angular_momenta(x, v) -> np.ndarray:
    """All m_ij = x^i v^j - x^j v^i, i < j, lexicographic, of the line
    through x along v; (..., n) stacks of them give (..., n(n-1)/2).

    Independent of where the base point sits on the line.
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (n * (n - 1) // 2,))
    for k, (i, j) in enumerate(momentum_pairs(n)):
        out[..., k] = x[..., i] * v[..., j] - x[..., j] * v[..., i]
    return out


def line_distance_sq(line: OrientedLine) -> float:
    """Squared distance of the line to the origin as sum of m_ij^2."""
    m = angular_momenta(line.base, line.dir)
    return float(np.dot(m, m))


def projected_distance_sq(line: OrientedLine) -> float:
    """The same distance via |x|^2 - <x, v>^2 (independent route)."""
    x, v = line.base, line.dir
    return float(np.dot(x, x) - np.dot(x, v) ** 2)


def reflect_direction(v, normal) -> np.ndarray:
    """Specular reflection v - 2<v,n>n of a unit v, renormalized; n is
    ``normal`` normalized, so any nonzero length will do.

    Tangential components are preserved, the normal component flips.
    """
    v = _vec(v)
    check_unit(v)
    n = unit(normal)
    vn = float(np.dot(v, n))
    if abs(vn) < GRAZING_TOL:
        raise GrazingError(f"grazing incidence: |<v,n>| = {abs(vn)} < {GRAZING_TOL}")
    w = v - 2.0 * vn * n
    return w / np.sqrt(_dots(w, w))


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
    m = angular_momenta(p, v)
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
        """Surface normal e1 x e2, not unit, with e1 the ruling through the
        point and e2 the lifted section tangent."""
        x = np.asarray(point, dtype=float)
        xi = math.atan2(x[1], x[0])
        r, r1, _ = (float(v) for v in self.section.polar(xi))
        cx, sx = math.cos(xi), math.sin(xi)
        ax, ay, bx, by = r * cx, r * sx, r1 * cx - r * sx, r1 * sx + r * cx
        # e1 = (ax, ay, 1) x e2 = (bx, by, 0), product for product as np.cross forms it
        return np.array([ay * 0.0 - by, bx - ax * 0.0, ax * by - ay * bx])


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


def _predict_root(section, p: np.ndarray, p_tail: np.ndarray, v: np.ndarray,
                  t_min: float) -> Optional[float]:
    """First exit above t_min from the circular cone with rho = 1 + dev
    frozen at the base's xi, then at each predicted hit's xi; or None.
    B and C are compensated like the gap: a plain C at a base on the
    surface is noise of size eps |p|^2, which moves the root by
    eps (|p|/t)^2 relative (6e-4 at k = 1e4 on the witness cone)."""
    (p0, p1, p2), (l0, l1, l2), (v0, v1, v2) = p.tolist(), p_tail.tolist(), v.tolist()
    z2h, z2l = _dd_sq(p2, l2)
    ch, cl = _dd_add(*_dd_add(*_dd_sq(p0, l0), *_dd_sq(p1, l1)), -z2h, -z2l)
    (h0, e0), (h1, e1), (h2, e2) = _two_prod(p0, v0), _two_prod(p1, v1), _two_prod(p2, v2)
    bh, bl = _dd_add(*_dd_add(h0, e0 + l0 * v0, h1, e1 + l1 * v1), -h2, -e2 - l2 * v2)
    A0, B0, C0 = v0 * v0 + v1 * v1 - v2 * v2, bh + bl, ch + cl
    x, y, t = p0, p1, None
    for _ in range(PREDICT_ROUNDS):
        dev = float(section.deviation(math.atan2(y, x))[0])
        d = 2.0 * dev + dev * dev  # rho^2 - 1
        A, B, C = A0 - v2 * v2 * d, 2.0 * (B0 - p2 * v2 * d), C0 - z2h * d
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            return None
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))  # elliptic's stable q-form
        roots = ([q / A] if A != 0.0 else []) + ([C / q] if q != 0.0 else [])
        # an exit only: the base's own crossing enters the cone
        exits = [s for s in roots if s > t_min and p2 + s * v2 > 0.0 and 2.0 * A * s + B > 0.0]
        if not exits:
            return None
        t = min(exits)
        x, y = p0 + t * v0, p1 + t * v1
    return t


def _bisect(gap, lo: float, g_lo: float, hi: float, g_hi: float) -> float:
    """Bisect gap's sign change in [lo, hi] to adjacent floats; keep the smaller |gap|."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(g_lo) <= abs(g_hi) else hi
        g_mid = gap(mid)
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid


def _scan_root(gap, t_min: float, scale: float) -> Union[float, Termination]:
    """The fallback root search: walk off the surface from t_min, scan for
    the exit in steps of SCAN_FACTOR * scale, and bisect the bracket."""
    lo = t_min
    g_lo = gap(lo)
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

    step = SCAN_FACTOR * scale
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
    return _bisect(gap, lo, g_lo, hi, g_hi)


def _intersect_ray(cone: GeneralCone, p: np.ndarray, p_tail: np.ndarray,
                   v: np.ndarray) -> Union[float, Termination]:
    """Root t of the surface crossing; ESCAPED when the ray never returns,
    NO_BRACKET when the search finds no sign change to bisect.

    A bracket widened one-sidedly from the predicted root (4 ulps, x4 a
    round) until the compensated gap changes sign is bisected to adjacent
    floats.  The solid cone is convex, so every bracket holds the same one
    crossing; only where the gap is rounding noise a few ulps around it can
    two brackets end on neighbouring floats.  No prediction, or a bracket
    reaching t_min or SCAN_FACTOR * scale, falls back to _scan_root."""
    scale = max(float(np.linalg.norm(p)), 1e-12)
    t_min = T_MIN_FACTOR * scale
    if _escapes(cone, v):
        return Termination.ESCAPED
    gap = _make_gap(cone, p, p_tail, v)
    t = _predict_root(cone.section, p, p_tail, v, t_min)
    if t is not None:
        g = gap(t)
        side, width = (1.0 if g < 0.0 else -1.0), 4.0 * math.ulp(t)  # inside: the exit is ahead
        while width <= SCAN_FACTOR * scale:
            end = t + side * width
            if end <= t_min:
                break
            g_end = gap(end)
            if (g_end < 0.0) != (g < 0.0):
                (lo, g_lo), (hi, g_hi) = sorted([(t, g), (end, g_end)])
                return _bisect(gap, lo, g_lo, hi, g_hi)
            t, g = end, g_end
            width *= 4.0
    return _scan_root(gap, t_min, scale)


def cone_step_precise(cone: GeneralCone, p: np.ndarray, p_tail: np.ndarray,
                      v: np.ndarray) -> Union[tuple, Termination]:
    """Advance one reflection of the ray from the base p + p_tail along v:
    the first surface hit as the compensated pair (hit, hit_tail) and the
    direction ``out`` reflected off the surface normal there; or ESCAPED,
    APEX, GRAZING or NO_BRACKET.

    Grazing reflections amplify any off-surface error of the base by
    1/<v,n> (10^3..10^5 on the accumulating trajectory), so long replays
    carry the base's double-double tail p_tail (zeros for a plain line);
    directions stay plain float64, their errors are not grazing-amplified.
    """
    if p.size != 3:
        raise DomainError("general-cone stepping is implemented in R^3")
    t_hit = _intersect_ray(cone, p, p_tail, v)
    if isinstance(t_hit, Termination):
        return t_hit
    hit = np.empty(3)
    tail = np.empty(3)
    for i in range(3):
        hit[i], tail[i] = _dd_ray_coord(float(p[i]), float(p_tail[i]), t_hit, float(v[i]))
    if near_apex(hit, p):
        return Termination.APEX
    try:
        out = reflect_direction(v, cone.normal_at(hit))
    except GrazingError:
        return Termination.GRAZING
    return hit, tail, out
