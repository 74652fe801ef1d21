"""A frozen copy of the double-double helpers the general-cone step was
built on, and of the step's kernels written with them: the compensated
gap, the predictor's compensated coefficients, the compensated ray point
and the round-capped predictor.

``geometry`` writes the same float operations out in line; the tests hold
its kernels to these forms bit for bit (Dekker 1971; Shewchuk 1997 for
two-sum and two-product).
"""

import math

_SPLITTER = 134217729.0  # 2^27 + 1
PREDICT_ROUNDS = 4  # geometry's, so the early-stopped predictor is held to its own cap


def two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a: float, b: float):
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_ray_coord(p: float, p_tail: float, t: float, v: float):
    h, l = two_prod(t, v)
    s, e = two_sum(p, h)
    return two_sum(s, e + l + p_tail)


def dd_sq(h: float, l: float):
    p, e = two_prod(h, h)
    return two_sum(p, e + 2.0 * h * l)


def dd_add(ah: float, al: float, bh: float, bl: float):
    s, e = two_sum(ah, bh)
    return two_sum(s, e + al + bl)


def ray_point(p, p_tail, t: float, v):
    """The compensated point p + p_tail + t v as (heads, tails) lists."""
    heads, tails = zip(*map(dd_ray_coord, p, p_tail, (t,) * 3, v))
    return list(heads), list(tails)


def make_gap(deviation, p, p_tail, v):
    """The compensated sign function of x^2 + y^2 - z^2 rho(xi)^2 along the
    ray; ``deviation`` maps xi to (rho - 1, ...)."""
    (p0, p1, p2), (l0, l1, l2), (v0, v1, v2) = (map(float, x) for x in (p, p_tail, v))

    def gap(t: float) -> float:
        zh, zl = dd_ray_coord(p2, l2, t, v2)
        if zh <= 0.0:
            return math.inf
        xh, xl = dd_ray_coord(p0, l0, t, v0)
        yh, yl = dd_ray_coord(p1, l1, t, v1)
        sh, sl = dd_add(*dd_sq(xh, xl), *dd_sq(yh, yl))
        z2h, z2l = dd_sq(zh, zl)
        nh, nl = dd_add(sh, sl, -z2h, -z2l)
        dev = float(deviation(math.atan2(yh, xh))[0])
        return (nh + nl) - z2h * (2.0 * dev + dev * dev)

    return gap


def predictor_head(p, p_tail, v):
    """(B/2, C, head of z^2) of the ray's quadric x^2 + y^2 - z^2 =
    A t^2 + B t + C along p + p_tail + t v, B/2 and C compensated."""
    (p0, p1, p2), (l0, l1, l2), (v0, v1, v2) = p, p_tail, v
    z2h, z2l = dd_sq(p2, l2)
    ch, cl = dd_add(*dd_add(*dd_sq(p0, l0), *dd_sq(p1, l1)), -z2h, -z2l)
    (h0, e0), (h1, e1), (h2, e2) = two_prod(p0, v0), two_prod(p1, v1), two_prod(p2, v2)
    bh, bl = dd_add(*dd_add(h0, e0 + l0 * v0, h1, e1 + l1 * v1), -h2, -e2 - l2 * v2)
    return bh + bl, ch + cl, z2h


def predict_root(deviation, p, p_tail, v, t_min: float, rounds: int = PREDICT_ROUNDS):
    """The predictor as it ran every one of its ``rounds`` rounds: the
    first exit above t_min from the circular cone with rho frozen at the
    base's xi, then at each predicted hit's xi; or None."""
    (p0, p1, p2), (v0, v1, v2) = p, v
    A0 = v0 * v0 + v1 * v1 - v2 * v2
    B0, C0, z2h = predictor_head(p, p_tail, v)
    m01, m02, m12 = p0 * v1 - p1 * v0, p0 * v2 - p2 * v0, p1 * v2 - p2 * v1
    m_sq = m02 * m02 + m12 * m12
    lagrange = B0 * B0 + abs(A0 * C0) > m_sq + m01 * m01
    x, y, t = p0, p1, None
    for _ in range(rounds):
        dev = float(deviation(math.atan2(y, x))[0])
        d = 2.0 * dev + dev * dev
        A, B, C = A0 - v2 * v2 * d, 2.0 * (B0 - p2 * v2 * d), C0 - z2h * d
        disc = 4.0 * (m_sq - m01 * m01 + d * m_sq) if lagrange else B * B - 4.0 * A * C
        if disc < 0.0:
            return None
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
        roots = ([q / A] if A != 0.0 else []) + ([C / q] if q != 0.0 else [])
        exits = [s for s in roots if s > t_min and p2 + s * v2 > 0.0 and 2.0 * A * s + B > 0.0]
        if not exits:
            return None
        t = min(exits)
        x, y = p0 + t * v0, p1 + t * v1
    return t
