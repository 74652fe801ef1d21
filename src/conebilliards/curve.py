"""C2 strictly convex closed curve through the accumulation points q_k.

Unit-radius circular arcs are pinned at each q_k with the prescribed
inward normal w_k (tilted by sigma_k from the circle normal) and blended
with a C-infinity plateau function.  The result is identically the unit
circle outside (0, xi_{k1}], is C2 across the accumulation angle xi = 0,
and keeps curvature above 1/2 everywhere, so the cone over it is a valid
billiard table for the spiral trajectory.

Evaluation is "deflated": the deviation rho - 1 is carried directly.
Representing rho as 1 + tiny and subtracting would floor the k^-4
envelope at machine epsilon near k ~ 1e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import C2CheckFailure, ConstructionError, DomainError, Escape, ReplayFailure
from .geometry import GeneralCone, PreciseLine, cone_step_precise, line_distance_sq
from . import spiral
from .spiral import SpiralParams, SpiralTrajectory

XI_DOMAIN = math.pi / 3.0
SIGMA_DOMAIN = math.pi / 4.0


# ---------------------------------------------------------------------------
# the plateau (bump) function
# ---------------------------------------------------------------------------

def _h(z):
    out = np.zeros_like(z)
    m = z > 0.0
    out[m] = np.exp(-1.0 / z[m])
    return out


def _hp(z):
    out = np.zeros_like(z)
    m = z > 0.0
    out[m] = np.exp(-1.0 / z[m]) / z[m] ** 2
    return out


def _hpp(z):
    out = np.zeros_like(z)
    m = z > 0.0
    zm = z[m]
    out[m] = np.exp(-1.0 / zm) * (1.0 / zm**4 - 2.0 / zm**3)
    return out


def _bump_interior(h, hb, hp, hbp, hpp, hbpp):
    """(a, a', a'') on the open middle third, from h, h', h'' at s (h, hp,
    hpp) and at 1 - s (hb, hbp, hbpp)."""
    den = h + hb
    psi = h / den
    num = hp * hb + h * hbp
    psip = num / (den * den)
    psipp = ((hpp * hb - h * hbpp) * den - 2.0 * num * (hp - hbp)) / den**3
    return 1.0 - psi, -3.0 * psip, -9.0 * psipp


def _bump_scalar(t: float):
    """bump(t) for one float, with the math module."""
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
    """C-infinity plateau a(t): 1 for t <= 1/3, 0 for t >= 2/3.

    Built from the exp(-1/s) partition of unity on the middle third.
    Returns (a, a', a''), as floats for a scalar t.
    """
    if isinstance(t, float) or np.ndim(t) == 0:
        return _bump_scalar(float(t))
    s = np.clip(3.0 * np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
    a, ap, app = _bump_interior(_h(s), _h(1.0 - s), _hp(s), _hp(1.0 - s), _hpp(s), _hpp(1.0 - s))
    interior = (s > 0.0) & (s < 1.0)
    a = np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, a))
    ap = np.where(interior, ap, 0.0)
    app = np.where(interior, app, 0.0)
    return a, ap, app


_BUMP_C: Optional[float] = None


def bump_constant() -> float:
    """c = max(sup|a'|, sup|a''|, 1), measured once on a dense grid."""
    global _BUMP_C
    if _BUMP_C is None:
        ts = np.linspace(0.0, 1.0, 200_001)
        _, ap, app = bump(ts)
        _BUMP_C = float(max(np.abs(ap).max(), np.abs(app).max(), 1.0))
    return _BUMP_C


# ---------------------------------------------------------------------------
# unit circle through (r, xi) = (1, 0) with tilted inward normal
# ---------------------------------------------------------------------------

def _circle_dev(x, s, m=np):
    """Deflated polar circle: (g - 1, dg/dxi, d2g/dxi2).

    g solves |g (cos x, sin x) - c(s)|^2 = 1 with center c(s) at unit
    distance from q = (1, 0) along the tilted inward normal; the branch
    with g(0, s) = 1 is g = u + sqrt(u^2 + 2 cos s - 1).  g - 1 is
    assembled without forming g itself, keeping full relative precision
    for deviations down to ~1e-300.  ``m`` is ``np`` for float arrays and
    ``math`` for floats.
    """
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


def circle_polar(xi_val, sigma_val):
    """(g, g_xi, g_xixi) on the compact domain |xi| <= pi/3, |sigma| <= pi/4."""
    x = np.asarray(xi_val, dtype=float)
    s = np.asarray(sigma_val, dtype=float)
    if np.any(np.abs(x) > XI_DOMAIN + 1e-12) or np.any(np.abs(s) > SIGMA_DOMAIN + 1e-12):
        raise DomainError("(xi, sigma) outside the well-defined domain D")
    dev, gx, gxx = _circle_dev(x, s)
    if np.ndim(xi_val) == 0 and np.ndim(sigma_val) == 0:
        return 1.0 + float(dev), float(gx), float(gxx)
    return 1.0 + dev, gx, gxx


@dataclass(frozen=True)
class ArcPatch:
    """Arc rho_k(xi) = g(xi - xi_k, sigma_k) on [xi_{k+1}, xi_{k-1}]."""

    k: int
    sigma: float

    @property
    def domain(self):
        return (float(spiral.xi(self.k + 1)), float(spiral.xi(self.k - 1)))

    def polar(self, xi_val):
        lo, hi = self.domain
        x = np.asarray(xi_val, dtype=float)
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise DomainError(f"xi outside arc domain [{lo}, {hi}]")
        return circle_polar(x - float(spiral.xi(self.k)), self.sigma)


# ---------------------------------------------------------------------------
# the blended curve
# ---------------------------------------------------------------------------

def _window_dev(x, kf, sk, sk1, m):
    """(rho - 1, rho', rho'') on the window [xi_{k+1}, xi_k], kf = k: the
    arcs through q_k and q_{k+1} blended by the plateau.  ``m`` is ``np``
    for float arrays and ``math`` for floats."""
    xik = 1.0 / m.sqrt(kf)
    xik1 = 1.0 / m.sqrt(kf + 1.0)
    width = xik - xik1
    a, ap, app = bump((x - xik1) / width)  # bump clamps to the plateaus
    ap = ap / width
    app = app / (width * width)
    dk, gkx, gkxx = _circle_dev(x - xik, sk, m)
    dq, gqx, gqxx = _circle_dev(x - xik1, sk1, m)
    ddiff = dq - dk
    return (dk + ddiff * a,
            gkx + (gqx - gkx) * a + ddiff * ap,
            gkxx + (gqxx - gkxx) * a + 2.0 * (gqx - gkx) * ap + ddiff * app)


class PolarCurve:
    """Evaluable rho(xi) with two derivatives on (-pi, pi].

    rho == 1 outside (0, xi_{k1}]; inside, consecutive arcs are blended on
    each window [xi_{k+1}, xi_k].  Beyond the stored horizon kmax the
    deviation (< 1e-19 for kmax >= 1e5) is returned as exactly zero.
    """

    def __init__(self, sigmas: np.ndarray, k1: int, kmax: int):
        self.kmax = int(kmax)
        self.k1 = int(k1)
        sig = np.array(sigmas, dtype=float)
        if sig.size != self.kmax + 2:
            raise DomainError("sigma table must cover k = 0..kmax+1")
        sig[: self.k1 + 1] = 0.0  # flat start: rho_k == 1 for k <= k1
        self._sig = sig
        self._sig.setflags(write=False)

    # -- evaluation ------------------------------------------------------------
    def deviation(self, xi_val):
        """(rho - 1, rho', rho''), full precision in the tail.

        A scalar xi is evaluated with the math module and gives floats; an
        array takes the vectorized path, the scalar one's test oracle.
        """
        if isinstance(xi_val, float) or np.ndim(xi_val) == 0:
            x = float(xi_val)
            if not 0.0 < x <= 1.0:
                return 0.0, 0.0, 0.0
            xx = x * x
            if xx == 0.0 or 1.0 / xx > self.kmax:  # beyond horizon: |rho-1| < 1e-19
                return 0.0, 0.0, 0.0
            k = int(1.0 / xx)
            return _window_dev(x, float(k), self._sig.item(k), self._sig.item(k + 1), math)
        x = np.asarray(xi_val, dtype=float)
        d = np.zeros_like(x)
        d1 = np.zeros_like(x)
        d2 = np.zeros_like(x)
        m = (x > 0.0) & (x <= 1.0)
        if m.any():
            xm = x[m]
            # x * x underflows to 0 for x below ~1e-162: deep either way
            with np.errstate(over="ignore", divide="ignore"):
                inv = 1.0 / (xm * xm)
            deep = inv > self.kmax  # beyond horizon: |rho-1| < 1e-19
            k = np.where(deep, float(self.kmax), np.floor(inv)).astype(np.int64)
            dev, dev1, dev2 = _window_dev(xm, k.astype(float), self._sig[k], self._sig[k + 1], np)
            d[m] = np.where(deep, 0.0, dev)
            d1[m] = np.where(deep, 0.0, dev1)
            d2[m] = np.where(deep, 0.0, dev2)
        return d, d1, d2

    def polar(self, xi_val):
        """(rho, rho', rho''); the section interface used by GeneralCone."""
        d, d1, d2 = self.deviation(xi_val)
        return 1.0 + d, d1, d2

    def curvature(self, xi_val):
        """Polar curvature |rho^2 + 2 rho'^2 - rho rho''| / (rho^2 + rho'^2)^(3/2)."""
        r, r1, r2 = self.polar(xi_val)
        r = np.asarray(r, dtype=float)
        r1 = np.asarray(r1, dtype=float)
        r2 = np.asarray(r2, dtype=float)
        out = np.abs(r * r + 2.0 * r1 * r1 - r * r2) / np.power(r * r + r1 * r1, 1.5)
        return float(out) if out.ndim == 0 else out

    # -- structure accessors ----------------------------------------------------
    def sigma_k(self, k: int) -> float:
        return float(self._sig[k])

    def arc(self, k: int) -> ArcPatch:
        if not (1 <= k <= self.kmax):
            raise DomainError("arc index outside the table")
        return ArcPatch(k=k, sigma=float(self._sig[k]))

    def point(self, xi_val):
        """Cartesian section point (rho cos xi, rho sin xi)."""
        r = np.asarray(self.polar(xi_val)[0], dtype=float)
        x = np.asarray(xi_val, dtype=float)
        return np.stack([r * np.cos(x), r * np.sin(x)], axis=-1)

    def inward_normal(self, xi_val) -> np.ndarray:
        """Unit inward normal of the curve (rotate the tangent by +pi/2)."""
        r, r1, _ = self.polar(xi_val)
        x = float(xi_val)
        tx = r1 * math.cos(x) - r * math.sin(x)
        ty = r1 * math.sin(x) + r * math.cos(x)
        n = np.array([-ty, tx])
        return n / np.linalg.norm(n)

    def window_samples(self, k: int, count: int = 64) -> np.ndarray:
        lo = float(spiral.xi(k + 1))
        hi = float(spiral.xi(k))
        return np.linspace(lo, hi, count)


def build_curve(
    params: Optional[SpiralParams] = None,
    kappa_threshold: float = 0.5,
    kmax: int = 130_000,
    k1_min: int = 1,
    samples_per_window: int = 96,
    detect_horizon: int = 4096,
) -> PolarCurve:
    """Construct the blended curve and pick the flat-start index k1.

    k1 is the smallest index such that the sampled curvature of the
    (re)built curve exceeds ``kappa_threshold`` on every window k >= k1;
    windows up to ``detect_horizon`` are checked densely and a geometric
    sample of windows beyond it up to kmax.
    """
    sig = np.zeros(kmax + 2)
    sig[2:] = spiral.sigma(np.arange(2, kmax + 2, dtype=float))
    if np.abs(sig).max() >= SIGMA_DOMAIN:
        raise ConstructionError("a sigma_k fell outside the arc domain")

    far_windows = np.unique(np.geomspace(detect_horizon, kmax - 1, 48).astype(int))

    def window_minima(curve: PolarCurve, windows: np.ndarray) -> np.ndarray:
        """Min sampled curvature per window, evaluated in one batch."""
        kf = windows.astype(float)
        lo = 1.0 / np.sqrt(kf + 1.0)
        hi = 1.0 / np.sqrt(kf)
        frac = np.linspace(0.0, 1.0, samples_per_window)
        pts = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
        kap = curve.curvature(pts.ravel()).reshape(pts.shape)
        return kap.min(axis=1)

    near = np.arange(1, detect_horizon)

    def min_kappa_from(curve: PolarCurve, k_from: int) -> tuple:
        wins = near[near >= max(k_from, 1)]
        mins = window_minima(curve, wins)
        bad = np.nonzero(mins <= kappa_threshold)[0]
        if bad.size:
            i = bad[0]
            return float(mins[i]), int(wins[i])
        far_mins = window_minima(curve, far_windows)
        bad = np.nonzero(far_mins <= kappa_threshold)[0]
        if bad.size:
            i = bad[0]
            return float(far_mins[i]), int(far_windows[i])
        return float(min(mins.min(), far_mins.min())), None

    # provisional curve with no flat start locates the last bad window
    probe = PolarCurve(sig.copy(), k1=max(k1_min, 1), kmax=kmax)
    probe_mins = window_minima(probe, near)
    bad_idx = np.nonzero(probe_mins <= kappa_threshold)[0]
    bad = int(near[bad_idx[-1]]) if bad_idx.size else 0
    k1 = max(bad + 1, k1_min, 1)

    # flatten, then re-verify: the k1 window now blends circle -> arc
    for _ in range(64):
        curve = PolarCurve(sig.copy(), k1=k1, kmax=kmax)
        mn, where = min_kappa_from(curve, k1)
        if mn > kappa_threshold:
            return curve
        k1 = int(where) + 1
        if k1 > kmax:
            break
    raise ConstructionError(f"no admissible k1 <= {kmax} for threshold {kappa_threshold}")


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass
class C2Report:
    k_values: np.ndarray
    sup_dev: np.ndarray
    sup_d1: np.ndarray
    sup_d2: np.ndarray
    slopes: tuple            # fitted log-log slopes for (|rho-1|, |rho'|, |rho''|)
    expected: tuple = (-4.0, -2.5, -1.0)
    quotient_d1: float = 0.0  # sup over small xi of |rho-1|/xi  -> rho'(0+) = 0
    quotient_d2: float = 0.0  # sup over small xi of |rho'|/xi   -> rho''(0+) = 0

    def max_slope_error(self) -> float:
        return max(abs(s - e) for s, e in zip(self.slopes, self.expected))


def c2_check_at_zero(
    curve: PolarCurve,
    k_lo: int = 100,
    k_hi: Optional[int] = None,
    n_windows: int = 60,
    slope_tol: float = 0.15,
    strict: bool = True,
) -> C2Report:
    """Fit the decay exponents of the window sups of |rho-1|, |rho'|, |rho''|.

    The expected envelopes are k^-4, k^-5/2 and k^-1; failing the
    +-slope_tol band raises C2CheckFailure (report attached).
    """
    if k_hi is None:
        k_hi = min(curve.kmax - 2, 100_000)
    if k_lo <= curve.k1:
        raise DomainError("k_lo must exceed the flat-start index k1")
    ks = np.unique(np.geomspace(k_lo, k_hi, n_windows).astype(int))
    sup0 = np.empty(ks.size)
    sup1 = np.empty(ks.size)
    sup2 = np.empty(ks.size)
    for i, k in enumerate(ks):
        d, d1, d2 = curve.deviation(curve.window_samples(int(k), 130))
        sup0[i] = np.abs(d).max()
        sup1[i] = np.abs(d1).max()
        sup2[i] = np.abs(d2).max()
    lk = np.log(ks.astype(float))
    slopes = tuple(float(np.polyfit(lk, np.log(s), 1)[0]) for s in (sup0, sup1, sup2))

    far = ks[ks >= max(k_lo, 1000)]
    if far.size == 0:
        far = np.array([k_hi])
    # window midpoints: the junctions themselves are exact zeros of rho - 1
    small = 0.5 * (spiral.xi(far) + spiral.xi(far + 1)).astype(float)
    d, d1, _ = curve.deviation(small)
    report = C2Report(
        k_values=ks, sup_dev=sup0, sup_d1=sup1, sup_d2=sup2, slopes=slopes,
        quotient_d1=float(np.max(np.abs(d) / small)),
        quotient_d2=float(np.max(np.abs(d1) / small)),
    )
    if strict and report.max_slope_error() > slope_tol:
        raise C2CheckFailure(
            f"decay slopes {slopes} deviate more than {slope_tol} from {report.expected}",
            report=report,
        )
    return report


def sign_change_census(curve: PolarCurve, k_lo: int, k_hi: int) -> int:
    """Number of k in [k_lo, k_hi] where rho - 1 changes sign across q_k.

    Samples inside the pure-arc plateau on both sides of each junction.
    """
    if k_lo <= curve.k1:
        raise DomainError("census range must lie above k1")
    count = 0
    for k in range(k_lo, k_hi + 1):
        xik = float(spiral.xi(k))
        below = xik - float(spiral.delta(k)) / 6.0
        above = xik + float(spiral.delta(k - 1)) / 6.0
        lo_dev = curve.deviation(below)[0]
        hi_dev = curve.deviation(above)[0]
        if lo_dev * hi_dev < 0.0:
            count += 1
    return count


@dataclass
class ReplayReport:
    """Replay outcome; lengths satisfy prefix + closed_form + tail = total."""

    start_k: int
    steps: int
    max_vertex_rel_error: float
    max_distance_sq_error: float
    simulated_length: float
    prefix_length: float       # closed-form length of [k0, start_k)
    closed_form_length: float  # closed-form length of the replayed range
    tail_length: float         # remaining length beyond the replayed range
    total_length: float
    escaped: bool


def replay(
    curve: PolarCurve,
    params: SpiralParams,
    steps: int,
    start_k: Optional[int] = None,
    vertex_tol: float = 1e-7,
    strict: bool = True,
) -> ReplayReport:
    """Run the generic cone stepper on the built cone and compare every hit
    against the closed-form vertices."""
    if steps < 1 or steps > 10_000:
        raise DomainError("steps must lie in [1, 10000]")
    traj = SpiralTrajectory(params.a, kmax=max(curve.kmax, 1000))
    k_start = start_k if start_k is not None else max(curve.k1 + 1, traj.k0)
    if k_start <= curve.k1:
        raise DomainError("replay must start above the flat-start index k1")
    cone = GeneralCone(curve)
    state = PreciseLine.from_line(traj.line(k_start))
    max_rel = 0.0
    max_dist = 0.0
    length = 0.0
    escaped = False
    first_bad = None
    for j in range(steps):
        k = k_start + 1 + j
        stepped = cone_step_precise(cone, state)
        if isinstance(stepped, Escape):
            escaped = True
            break
        length += float(np.linalg.norm(stepped.base - state.base))
        expected = traj.vertex(k)
        rel = float(np.linalg.norm(stepped.base - expected) / np.linalg.norm(expected))
        if rel > max_rel:
            max_rel = rel
        if rel > vertex_tol and first_bad is None:
            first_bad = k
        max_dist = max(max_dist, abs(line_distance_sq(stepped.as_line()) - 2.0))
        state = stepped
    closed = float(traj.partial_length(k_start, k_start + steps - 1))
    prefix = float(traj.partial_length(traj.k0, k_start - 1)) if k_start > traj.k0 else 0.0
    report = ReplayReport(
        start_k=k_start,
        steps=steps,
        max_vertex_rel_error=max_rel,
        max_distance_sq_error=max_dist,
        simulated_length=length,
        prefix_length=prefix,
        closed_form_length=closed,
        tail_length=traj.tail_length(k_start + steps),
        total_length=traj.total_length(),
        escaped=escaped,
    )
    if strict and (first_bad is not None or escaped):
        raise ReplayFailure(
            f"replay diverged (first bad k = {first_bad}, escaped = {escaped})",
            first_bad_index=first_bad,
        )
    return report
