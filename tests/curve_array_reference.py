"""A frozen copy of the section curve's evaluation as it stood before its
array path was trimmed: the masked ``_h_derivs``, ``bump`` computing h on
every point, ``_circle_dev`` with repeated trig, and the masked array
branches of ``PolarCurve.deviation``, ``curvature`` and ``window_samples``.

The tests hold ``conebilliards.curve`` to the bits of this copy, so the
copy imports nothing from the package.
"""

import math

import numpy as np


def _h_derivs(z):
    """(h, h', h'') of h(z) = exp(-1/z), zero for z <= 0, from one exp."""
    h, hp, hpp = np.zeros_like(z), np.zeros_like(z), np.zeros_like(z)
    m = z > 0.0
    zm = z[m]
    e = np.exp(-1.0 / zm)
    h[m] = e
    hp[m] = e / zm**2
    hpp[m] = e * (1.0 / zm**4 - 2.0 / zm**3)
    return h, hp, hpp


def _bump_interior(h, hb, hp, hbp, hpp, hbpp):
    den = h + hb
    psi = h / den
    num = hp * hb + h * hbp
    psip = num / (den * den)
    psipp = ((hpp * hb - h * hbpp) * den - 2.0 * num * (hp - hbp)) / den**3
    return 1.0 - psi, -3.0 * psip, -9.0 * psipp


def _bump_scalar(t: float):
    s = min(max(3.0 * t - 1.0, 0.0), 1.0)
    if s <= 0.0:
        return 1.0, 0.0, 0.0
    if s >= 1.0:
        return 0.0, 0.0, 0.0
    sb = 1.0 - s
    h = math.exp(-1.0 / s)
    hb = math.exp(-1.0 / sb)
    return _bump_interior(
        h, hb,
        h / (s * s), hb / (sb * sb),
        h * (1.0 / s**4 - 2.0 / s**3), hb * (1.0 / sb**4 - 2.0 / sb**3),
    )


def bump(t):
    if isinstance(t, float) or np.ndim(t) == 0:
        return _bump_scalar(float(t))
    s = np.clip(3.0 * np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
    (h, hp, hpp), (hb, hbp, hbpp) = _h_derivs(s), _h_derivs(1.0 - s)
    a, ap, app = _bump_interior(h, hb, hp, hbp, hpp, hbpp)
    interior = (s > 0.0) & (s < 1.0)
    a = np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, a))
    ap = np.where(interior, ap, 0.0)
    app = np.where(interior, app, 0.0)
    return a, ap, app


def _circle_dev(x, s, m=np):
    sh = m.sin(s / 2.0)
    one_minus_cos = 2.0 * sh * sh
    u = m.cos(x) * one_minus_cos - m.sin(x) * m.sin(s)
    two_cos_m1 = 1.0 - 2.0 * one_minus_cos
    rad = u * u + two_cos_m1
    root = m.sqrt(rad)
    g = u + root
    dev = u + (u * u - 4.0 * sh * sh) / (root + 1.0)
    ux = -m.sin(x) * one_minus_cos - m.cos(x) * m.sin(s)
    gx = ux * g / root
    gxx = -u * g / root + ux * ux * two_cos_m1 / rad / root
    return dev, gx, gxx


def _window_dev(x, kf, sk, sk1, m):
    xik = 1.0 / m.sqrt(kf)
    xik1 = 1.0 / m.sqrt(kf + 1.0)
    width = xik - xik1
    a, ap, app = bump((x - xik1) / width)
    ap = ap / width
    app = app / (width * width)
    dk, gkx, gkxx = _circle_dev(x - xik, sk, m)
    dq, gqx, gqxx = _circle_dev(x - xik1, sk1, m)
    ddiff = dq - dk
    return (dk + ddiff * a,
            gkx + (gqx - gkx) * a + ddiff * ap,
            gkxx + (gqxx - gkxx) * a + 2.0 * (gqx - gkx) * ap + ddiff * app)


def deviation(curve, xi_val, xi_live=None):
    """The array branch of ``PolarCurve.deviation``; ``xi_live`` overrides
    the curve's upper bound of live xi."""
    xi_live = curve._xi_live if xi_live is None else xi_live
    x = np.asarray(xi_val, dtype=float)
    d = np.zeros_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    m = (x > 0.0) & (x <= xi_live)
    if m.any():
        xm = x[m]
        with np.errstate(over="ignore", divide="ignore"):
            inv = 1.0 / (xm * xm)
        deep = inv > curve.kmax
        k = np.where(deep, float(curve.kmax), np.floor(inv)).astype(np.int64)
        dev, dev1, dev2 = _window_dev(xm, k.astype(float), curve._sig[k], curve._sig[k + 1], np)
        d[m] = np.where(deep, 0.0, dev)
        d1[m] = np.where(deep, 0.0, dev1)
        d2[m] = np.where(deep, 0.0, dev2)
    return d, d1, d2


def polar(curve, xi_val):
    d, d1, d2 = deviation(curve, xi_val)
    return 1.0 + d, d1, d2


def curvature(curve, xi_val):
    """The array branch of ``PolarCurve.curvature``."""
    r, r1, r2 = polar(curve, xi_val)
    r = np.asarray(r, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    return np.abs(r * r + 2.0 * r1 * r1 - r * r2) / np.power(r * r + r1 * r1, 1.5)


def _xi(k):
    return 1.0 / np.sqrt(np.asarray(k, dtype=float))


def window_samples(k, count):
    """``PolarCurve.window_samples``, for an int or an int array k."""
    return np.linspace(_xi(np.asarray(k) + 1), _xi(k), count, axis=-1)
