"""Line/cone geometry shared by every module.

Oriented lines carry the billiard state between reflections.  The angular
momenta m_ij = x^i v^j - x^j v^i of a line are invariant both along the
line and across reflections in any cone with apex at the origin; their
square sum is the squared distance of the line to the origin and is the
master conserved quantity checked throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import Optional, Union

import numpy as np

from .errors import DomainError, GrazingError, Termination

# Contract / numerics constants.  All tolerances used by this module are
# surfaced here.
UNIT_TOL = 1e-12          # |norm(dir) - 1| allowed for a Direction
GRAZING_TOL = 1e-12       # |<v,n>| below this refuses to reflect
T_MIN_FACTOR = 1e-9       # t_min = factor * |base| excludes the current vertex
BRACKET_LIMIT = 1e-2      # widest bracket around a predicted root, over |p|
PREDICT_ROUNDS = 4        # frozen-rho quadric solves that predict a general-cone hit
                          # (three left up to 188 ulps for the bracket to walk at k = 5e4)
PROJECT_ROUNDS = 4        # Newton steps of project_to_surface
APEX_TOL = 1e-9           # hit point within this of the origin flags the apex
DOT_TINY, DOT_HUGE = 2.0 ** -960, 2.0 ** 1000  # _dot's split products are exact between


def near_apex(hit_norm: float, base_norm: float) -> bool:
    """True when a hit at |hit| = hit_norm lies within APEX_TOL * max(1, |base|)
    of the apex."""
    return hit_norm < APEX_TOL * max(1.0, base_norm)


def _vec(x) -> np.ndarray:
    """A finite vector in R^3, or an (n, 3) array of them, one per row."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise DomainError(f"expected a vector in R^3 or an (n, 3) stack of them, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError("vector has non-finite coordinates")
    return v


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> along the last axis.  matmul's vector-by-vector loop is
    np.dot's, so for C-contiguous rows each entry equals np.dot of the two
    rows bit for bit; a strided view (m[:, ::-1]) may differ in the last bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _atan2(y, x):
    """math.atan2 elementwise (np.arctan2 rounds differently); a float for
    0-d arguments."""
    if np.ndim(y) == 0:
        return math.atan2(float(y), float(x))
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())))


def _stack(rows: list) -> np.ndarray:
    """np.array(rows) of n 3-lists of Python floats, bit for bit, as an (n, 3)
    array filled from one flat iterator."""
    n = len(rows)
    return np.fromiter(chain.from_iterable(rows), float, 3 * n).reshape(n, 3)


def unit(x) -> np.ndarray:
    """Normalize to Euclidean length 1; an (n, d) stack row by row."""
    v = _vec(x)
    with np.errstate(over="ignore"):
        n = np.sqrt(_dots(v, v))[..., None]
    if not ((n >= 1e-300) & (n < math.inf)).all():
        raise DomainError("cannot normalize a (near-)zero or overflowing vector")
    return v / n


def check_unit(v: list) -> None:
    """Refuse a direction, given as Python floats, that is not a finite unit vector."""
    norm = math.hypot(*v)
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise DomainError(f"direction is not a finite unit vector within {UNIT_TOL}: |v| = {norm}")


def _dot(x, y) -> float:
    """np.dot(x, y) of two 3-sequences of Python floats, bit for bit and without an
    array: OpenBLAS's ddot on fewer than 16 entries is the chain d = 0.0, d = fma(x_i,
    y_i, d), and each fma is exact here.  A Veltkamp split makes x_i y_i four exact
    products, whose sum with d math.fsum rounds correctly.  Products outside
    [DOT_TINY, DOT_HUGE), where the split may not be exact, and sums that leave the
    float range go to np.dot, whose overflow gives inf as silently as float arithmetic."""
    (a0, a1, a2), (b0, b1, b2) = x, y
    h1, k1 = (c := _SPLITTER * a1) - (c - a1), (e := _SPLITTER * b1) - (e - b1)
    h2, k2 = (c := _SPLITTER * a2) - (c - a2), (e := _SPLITTER * b2) - (e - b2)
    if DOT_TINY <= abs(p1 := h1 * k1) < DOT_HUGE and DOT_TINY <= abs(p2 := h2 * k2) < DOT_HUGE:
        l1, m1, l2, m2 = a1 - h1, b1 - k1, a2 - h2, b2 - k2  # fma(a0, b0, 0.0) is a0 * b0 here
        try:  # fsum raises where a partial sum overflows
            d = math.fsum((p1, h1 * m1, l1 * k1, l1 * m1, a0 * b0))
            return math.fsum((p2, h2 * m2, l2 * k2, l2 * m2, d))
        except OverflowError:
            pass
    with np.errstate(over="ignore"):
        return float(np.dot(x, y))


def _normalized(g: list) -> list:
    """g / sqrt(np.dot(g, g)) of a 3-list of Python floats: unit's bits.  A zero,
    overflowing or non-finite |g|^2 is refused."""
    s = _dot(g, g)
    if not 0.0 < s < math.inf:
        raise DomainError("cannot normalize a (near-)zero or overflowing vector")
    s = math.sqrt(s)
    return [x / s for x in g]


@dataclass(frozen=True)
class OrientedLine:
    """Base point plus unit direction; the parameterization is base + t*dir."""

    base: np.ndarray
    dir: np.ndarray

    def __post_init__(self):
        base, d = np.asarray(self.base, dtype=float), np.asarray(self.dir, dtype=float)
        if (base.shape != (3,) or d.shape != (3,)
                or not all(map(math.isfinite, base.tolist()))):  # on Python floats
            raise DomainError(f"need a finite base and a dir in R^3, "
                              f"got shapes {base.shape} and {d.shape}")
        check_unit(d.tolist())  # which refuses a non-finite dir
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dir", d)


def momenta(x0, x1, x2, v0, v1, v2) -> tuple:
    """(m12, m13, m23), m_ij = x^i v^j - x^j v^i, of the line through x
    along v, from their coordinates: Python floats for one line, arrays for
    a stack.  Independent of where the base point sits on the line."""
    return x0 * v1 - x1 * v0, x0 * v2 - x2 * v0, x1 * v2 - x2 * v1


def distance_sq(m12, m13, m23):
    """I1 = m12^2 + m13^2 + m23^2, the squared distance of a line to the
    origin, from its momenta: a float for floats, an array for arrays."""
    return m12 * m12 + m13 * m13 + m23 * m23


def reflect_direction(v, normal) -> list:
    """Specular reflection v - 2<v,n>n of a unit v in R^3, renormalized, as
    Python floats; n is ``normal`` normalized, so any nonzero length will do.

    Tangential components are preserved, the normal component flips.  |normal|,
    <v,n> and |w| are _dot's: np.dot's bits, by an exact fma chain.
    """
    vl = v if type(v) is list else [*map(float, v)]
    g = normal if type(normal) is list else [*map(float, normal)]
    if len(vl) != 3 or len(g) != 3:
        raise DomainError(f"need a direction and a normal in R^3, got dimensions {len(vl)}, {len(g)}")
    check_unit(vl)
    nl = _normalized(g)
    vn = _dot(vl, nl)
    if abs(vn) < GRAZING_TOL:
        raise GrazingError(f"grazing incidence: |<v,n>| = {abs(vn)} < {GRAZING_TOL}")
    c = 2.0 * vn
    w = [x - c * n for x, n in zip(vl, nl)]
    s = math.sqrt(_dot(w, w))  # |w| = |v| to rounding: nothing to refuse
    return [x / s for x in w]


def angle_between(u, w):
    """Angle in [0, pi] between two unit vectors in R^3, accurate near 0 and
    pi; for (n, 3) stacks, the array of the n row-by-row angles."""
    u, w = _vec(u), _vec(w)
    c = np.cross(u, w)
    return _atan2(np.sqrt(_dots(c, c)), _dots(u, w))


# ---------------------------------------------------------------------------
# Cones over a polar section curve in the plane x3 = 1
# ---------------------------------------------------------------------------

# Compensated (double-double) scalars for the ray/surface gap.  The gap
# x^2 + y^2 - z^2 rho^2 cancels to ~eps * |p|^2 in plain float64, which
# feeds a per-reflection position noise of eps/<v,n> -- fatal for long
# grazing runs.  Splitting keeps the cancellation exact.  The kernels below
# write Dekker's two-sum and two-product out in line, operation for operation:
#   two_sum(a, b) = (s, (a - (s - c)) + (b - c)), s = a + b, c = s - a
#   two_prod(a, b) = (a b, ((ah bh - a b) + ah bl + al bh) + al bl)
# with each factor split as ah = c - (c - a), c = _SPLITTER a, al = a - ah.
_SPLITTER = 134217729.0  # 2^27 + 1


def _ray_point(p: list, p_tail: list, t: float, v: list) -> tuple:
    """The compensated point p + p_tail + t v as lists of heads and tails: per
    coordinate two_sum(s, e + l + p_tail), (s, e) = two_sum(p, h) and
    (h, l) = two_prod(t, v)."""
    (p0, p1, p2), (l0, l1, l2), (v0, v1, v2) = p, p_tail, v
    c = _SPLITTER * t
    th = c - (c - t)
    tl = t - th
    c0, c1, c2 = _SPLITTER * v0, _SPLITTER * v1, _SPLITTER * v2
    u0, u1, u2 = c0 - (c0 - v0), c1 - (c1 - v1), c2 - (c2 - v2)
    w0, w1, w2 = v0 - u0, v1 - u1, v2 - u2
    hx, hy, hz = t * v0, t * v1, t * v2
    sx, sy, sz = p0 + hx, p1 + hy, p2 + hz
    cx, cy, cz = sx - p0, sy - p1, sz - p2
    rx = (p0 - (sx - cx)) + (hx - cx) + (((th * u0 - hx) + th * w0 + tl * u0) + tl * w0) + l0
    ry = (p1 - (sy - cy)) + (hy - cy) + (((th * u1 - hy) + th * w1 + tl * u1) + tl * w1) + l1
    rz = (p2 - (sz - cz)) + (hz - cz) + (((th * u2 - hz) + th * w2 + tl * u2) + tl * w2) + l2
    x, y, z = sx + rx, sy + ry, sz + rz
    cx, cy, cz = x - sx, y - sy, z - sz
    return [x, y, z], [(sx - (x - cx)) + (rx - cx), (sy - (y - cy)) + (ry - cy),
                       (sz - (z - cz)) + (rz - cz)]


@dataclass(frozen=True)
class GeneralCone:
    """Cone {t * (rho(xi) cos xi, rho(xi) sin xi, 1) : t > 0} over a polar
    section with apex at the origin and axis +x3.

    ``section`` must provide deviation(xi) -> (rho - 1, rho', rho'') for a
    float xi.  Every scalar section call of a step goes through the cone's
    ``deviation``, which keeps the last pair it evaluated: a step asks again
    for the angles of its later prediction rounds, of bracket and bisection
    points a few ulps apart, of the normal at the hit and, in the next
    step's first prediction, of that same hit.
    """

    section: object
    _last: list = field(default_factory=lambda: [math.nan, None], init=False,
                        repr=False, compare=False)

    def deviation(self, xi: float):
        """``section.deviation(xi)``, memoized on the last xi.  The key is the
        exact float: +0.0 and -0.0 differ, and a NaN never matches."""
        last = self._last
        key = last[0]
        if xi == key and (xi != 0.0 or math.copysign(1.0, xi) == math.copysign(1.0, key)):
            return last[1]
        value = self.section.deviation(xi)
        last[0], last[1] = xi, value
        return value

    def normal_at(self, point) -> list:
        """Surface normal e1 x e2, not unit, with e1 the ruling through the
        point and e2 the lifted section tangent, as Python floats."""
        xi = math.atan2(point[1], point[0])
        d, d1, _ = self.deviation(xi)
        r, r1 = 1.0 + float(d), float(d1)
        cx, sx = math.cos(xi), math.sin(xi)
        ax, ay, bx, by = r * cx, r * sx, r1 * cx - r * sx, r1 * sx + r * cx
        # e1 = (ax, ay, 1) x e2 = (bx, by, 0), product for product as np.cross forms it
        return [ay * 0.0 - by, bx - ax * 0.0, ax * by - ay * bx]


def _escapes(cone: GeneralCone, direction: list) -> bool:
    # A ray from strictly inside stays inside iff its direction lies in the
    # closed solid cone (the region is a convex cone).
    v0, v1, v2 = direction
    if v2 <= 0.0:
        return False
    rho = 1.0 + float(cone.deviation(math.atan2(v1, v0))[0])
    return math.hypot(v0, v1) / v2 <= rho


def _square_form(x: float, y: float, z: float, lx: float, ly: float, lz: float) -> tuple:
    """(x^2 + y^2 - z^2, z^2's head) of the double-double point (x, y, z) +
    (lx, ly, lz): each square two_sum(h h, e + 2 h l) with (h h, e) =
    two_prod(h, h), the pairs summed as two_sum(s, e + al + bl) with
    (s, e) = two_sum(ah, bh), and the difference's head and tail added."""
    cx, cy, cz = _SPLITTER * x, _SPLITTER * y, _SPLITTER * z
    ax, ay, az = cx - (cx - x), cy - (cy - y), cz - (cz - z)
    ex, ey, ez = x - ax, y - ay, z - az
    qx, qy, qz = x * x, y * y, z * z
    rx = ((ax * ax - qx) + ax * ex + ex * ax) + ex * ex + 2.0 * x * lx
    ry = ((ay * ay - qy) + ay * ey + ey * ay) + ey * ey + 2.0 * y * ly
    rz = ((az * az - qz) + az * ez + ez * az) + ez * ez + 2.0 * z * lz
    sx, sy, sz = qx + rx, qy + ry, qz + rz
    cx, cy, cz = sx - qx, sy - qy, sz - qz
    ex, ey = (qx - (sx - cx)) + (rx - cx), (qy - (sy - cy)) + (ry - cy)
    ez = (qz - (sz - cz)) + (rz - cz)
    s = sx + sy
    c = s - sx
    r = (sx - (s - c)) + (sy - c) + ex + ey
    h = s + r
    c = h - s
    e = (s - (h - c)) + (r - c)
    s = h - sz
    c = s - h
    r = (h - (s - c)) + (-sz - c) + e - ez
    h = s + r
    c = h - s
    return h + ((s - (h - c)) + (r - c)), sz


def _make_gap(cone: GeneralCone, p: list, p_tail: list, v: list):
    """Compensated sign function of x^2 + y^2 - z^2 rho(xi)^2 along the ray.

    Negative strictly inside the solid cone, positive outside it, and +inf
    at or below the apex plane z <= 0, where the other nappe would give a
    spurious negative value.  ``p_tail`` is the double-double tail of the
    base point (zero for a plain line).  All three are Python floats.  Each
    call is the ray point p + p_tail + t v of _ray_point and the square
    form of _square_form.
    """
    deviation = cone.deviation

    def gap(t: float) -> float:
        (x, y, z), (lx, ly, lz) = _ray_point(p, p_tail, t, v)
        if z <= 0.0:
            return math.inf
        form, z2 = _square_form(x, y, z, lx, ly, lz)
        dev = float(deviation(math.atan2(y, x))[0])
        return form - z2 * (2.0 * dev + dev * dev)

    return gap


def project_to_surface(cone: GeneralCone, p) -> tuple:
    """p moved onto the surface along the unit normal N/|N|, N = normal_at(p),
    as the 3-lists (p, p_tail): Newton steps on the compensated gap, whose
    slope is -2 z |N| (on the surface grad(r^2 - z^2 rho^2) = -2 z N)."""
    pl, zero = [float(x) for x in p], [0.0, 0.0, 0.0]
    n = cone.normal_at(pl)
    norm = math.sqrt(_dot(n, n))
    nl = [x / norm for x in n]
    gap, s = _make_gap(cone, pl, zero, nl), 0.0
    for _ in range(PROJECT_ROUNDS):
        s += gap(s) / (2.0 * pl[2] * norm)
    return _ray_point(pl, zero, s, nl)


def _predictor_head(p: list, p_tail: list, v: list) -> tuple:
    """(B', C, z^2's head) of the ray's quadric x^2 + y^2 - z^2 = A t^2 + 2 B' t + C
    along p + p_tail + t v.  C is _square_form of p + p_tail, as the gap's;
    B' sums the products p v with their tails l v likewise."""
    (p0, p1, p2), (l0, l1, l2), (v0, v1, v2) = p, p_tail, v
    C, z2 = _square_form(p0, p1, p2, l0, l1, l2)
    c0, c1, c2 = _SPLITTER * p0, _SPLITTER * p1, _SPLITTER * p2
    a0, a1, a2 = c0 - (c0 - p0), c1 - (c1 - p1), c2 - (c2 - p2)  # p = a + e
    e0, e1, e2 = p0 - a0, p1 - a1, p2 - a2
    c0, c1, c2 = _SPLITTER * v0, _SPLITTER * v1, _SPLITTER * v2
    u0, u1, u2 = c0 - (c0 - v0), c1 - (c1 - v1), c2 - (c2 - v2)  # v = u + w
    w0, w1, w2 = v0 - u0, v1 - u1, v2 - u2
    h0, h1, h2 = p0 * v0, p1 * v1, p2 * v2
    f0 = ((a0 * u0 - h0) + a0 * w0 + e0 * u0) + e0 * w0 + l0 * v0
    f1 = ((a1 * u1 - h1) + a1 * w1 + e1 * u1) + e1 * w1 + l1 * v1
    f2 = -(((a2 * u2 - h2) + a2 * w2 + e2 * u2) + e2 * w2) - l2 * v2
    s = h0 + h1
    c = s - h0
    r = (h0 - (s - c)) + (h1 - c) + f0 + f1
    h = s + r
    c = h - s
    e = (s - (h - c)) + (r - c)
    s = h - h2
    c = s - h
    r = (h - (s - c)) + (-h2 - c) + e + f2
    h = s + r
    c = h - s
    return h + ((s - (h - c)) + (r - c)), C, z2


def _predict_root(cone: GeneralCone, p: list, p_tail: list, v: list,
                  t_min: float) -> Optional[float]:
    """First exit above t_min from the circular cone with rho = 1 + dev
    frozen at the base's xi, then at each predicted hit's xi; or None.
    The base, its tail and the direction are Python floats.
    B and C are compensated like the gap: a plain C at a base on the
    surface is noise of size eps |p|^2, which moves the root by
    eps (|p|/t)^2 relative (6e-4 at k = 1e4 on the witness cone).
    The search ends early when a round's t lies at the xi of that round:
    the next round would see the same deviation and A, B, C again."""
    (p0, p1, p2), (v0, v1, v2) = p, v
    A0, (B0, C0, z2h) = v0 * v0 + v1 * v1 - v2 * v2, _predictor_head(p, p_tail, v)
    # B^2 - 4AC in the form with the smaller terms: the plain one for a chord
    # from the surface (B, C ~ 0), or by Lagrange's identity in the line's
    # m_ij for a ray near the apex (|m| ~ its distance), where B^2 cancels 4AC
    m01, m02, m12 = momenta(p0, p1, p2, v0, v1, v2)
    m_sq = m02 * m02 + m12 * m12
    lagrange = B0 * B0 + abs(A0 * C0) > m_sq + m01 * m01
    xi, t = math.atan2(p1, p0), None
    for _ in range(PREDICT_ROUNDS):
        dev = float(cone.deviation(xi)[0])
        d = 2.0 * dev + dev * dev  # rho^2 - 1
        A, B, C = A0 - v2 * v2 * d, 2.0 * (B0 - p2 * v2 * d), C0 - z2h * d
        disc = 4.0 * (m_sq - m01 * m01 + d * m_sq) if lagrange else B * B - 4.0 * A * C
        if disc < 0.0:
            return None
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))  # elliptic's stable q-form
        # the smaller exit root (NaN: no root); the base's own crossing enters
        s1, s2 = (q / A if A != 0.0 else math.nan), (C / q if q != 0.0 else math.nan)
        exit1 = s1 > t_min and p2 + s1 * v2 > 0.0 and 2.0 * A * s1 + B > 0.0
        exit2 = s2 > t_min and p2 + s2 * v2 > 0.0 and 2.0 * A * s2 + B > 0.0
        s = s2 if exit2 and not (exit1 and s1 <= s2) else s1 if exit1 else None
        if s is None:
            return None
        xi, last, t = math.atan2(p1 + s * v1, p0 + s * v0), xi, s
        if xi == last and xi != 0.0:  # same xi, dev and A, B, C (+-0.0 are two memo keys)
            return t
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


def _intersect_ray(cone: GeneralCone, p: list, p_tail: list, v: list,
                   p_norm: float) -> Union[float, Termination]:
    """Root t of the surface crossing; ESCAPED when the ray never returns,
    APEX or NO_BRACKET when the search finds no sign change to bisect.
    ``p_norm`` is |p| as np.linalg.norm gives it.

    A bracket walked one-sidedly out from the predicted root until the
    compensated gap changes sign is bisected to adjacent floats.  The walk
    probes 1, 2 and 4 ulps away, on the side g(t)'s sign gives, then steps
    4, 16, 64, ... ulps: most predictions lie within an ulp of the root, so
    most roots take two or three gap calls.  The solid cone is convex, so
    every bracket holds the same one crossing; only where the gap is
    rounding noise a few ulps around it can two brackets end on
    neighbouring floats.  With no prediction, or a bracket reaching t_min
    or BRACKET_LIMIT * scale, a ray whose closest approach to the origin
    lies ahead and near the apex ends APEX, any other NO_BRACKET."""
    scale = max(p_norm, 1e-12)
    t_min = T_MIN_FACTOR * scale
    if _escapes(cone, v):
        return Termination.ESCAPED
    gap = _make_gap(cone, p, p_tail, v)
    t = _predict_root(cone, p, p_tail, v, t_min)
    if t is not None:
        g = gap(t)
        side, ulp = (1.0 if g < 0.0 else -1.0), math.ulp(t)  # inside: the exit is ahead
        width = reach = ulp
        while width <= BRACKET_LIMIT * scale:
            end = t + side * width
            if end <= t_min:
                break
            g_end = gap(end)
            if (g_end < 0.0) != (g < 0.0):  # the bracket's smaller end comes first
                if side > 0.0:
                    return _bisect(gap, t, g, end, g_end)
                return _bisect(gap, end, g_end, t, g)
            t, g = end, g_end
            # steps of 1, 1, 2 and 4 ulps double the reach to 8 ulps, then x4 a step
            width = reach if width < 4.0 * ulp else 4.0 * width
            reach += width
    t = -sum(map(mul, p, v))  # the closest approach to the apex
    near = t > 0.0 and near_apex(math.hypot(*(x + t * y for x, y in zip(p, v))), scale)
    return Termination.APEX if near else Termination.NO_BRACKET


def cone_step_precise(cone: GeneralCone, p: list, p_tail: list,
                      v: list) -> Union[tuple, Termination]:
    """Advance one reflection of the ray from the base p + p_tail along v,
    three 3-lists of Python floats: the first surface hit as the compensated
    pair (hit, hit_tail) and the direction ``out`` reflected off the surface
    normal there, 3-lists too; or ESCAPED, APEX, GRAZING or NO_BRACKET.

    Grazing reflections amplify any off-surface error of the base by
    1/<v,n> (10^3..10^5 on the accumulating trajectory), so long replays
    carry the base's double-double tail p_tail (zeros for a plain line);
    directions stay plain float64, their errors are not grazing-amplified.
    """
    if len(p) != 3:
        raise DomainError("general-cone stepping is implemented in R^3")
    p_norm = math.sqrt(_dot(p, p))  # np.linalg.norm's bits
    t_hit = _intersect_ray(cone, p, p_tail, v, p_norm)
    if isinstance(t_hit, Termination):
        return t_hit
    hit, tail = _ray_point(p, p_tail, t_hit, v)
    # |hit| >= |hit_z| (1 - eps): a hit twice the apex radius up is not near it
    if abs(hit[2]) < 2.0 * APEX_TOL * max(1.0, p_norm) and near_apex(math.sqrt(_dot(hit, hit)), p_norm):
        return Termination.APEX
    try:
        out = reflect_direction(v, cone.normal_at(hit))
    except GrazingError:
        return Termination.GRAZING
    return hit, tail, out
