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

from .errors import C2CheckFailure, ConstructionError, DomainError, ReplayFailure, Termination
from .geometry import (GeneralCone, _dots, _stack, cone_step_precise, distance_sq, momenta,
                       project_to_surface)
from . import spiral
from .spiral import SpiralParams, SpiralTrajectory

SIGMA_DOMAIN = math.pi / 4.0


# ---------------------------------------------------------------------------
# the plateau (bump) function
# ---------------------------------------------------------------------------

def _h_derivs(z):
    """(h, h', h'') of h(z) = exp(-1/z) for an array of z > 0, from one exp."""
    e = np.exp(-1.0 / z)
    return e, e / z**2, e * (1.0 / z**4 - 2.0 / z**3)


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
    s = np.minimum(np.maximum(3.0 * np.asarray(t, dtype=float) - 1.0, 0.0), 1.0)
    a = 1.0 - s  # exactly 1.0 and 0.0 on the clamped plateaus
    ap, app = np.zeros(s.shape), np.zeros(s.shape)
    mid = (s > 0.0) & (s < 1.0)  # only the open middle third needs exp
    if np.count_nonzero(mid):
        s = s[mid]
        (h, hp, hpp), (hb, hbp, hbpp) = _h_derivs(s), _h_derivs(1.0 - s)
        a[mid], ap[mid], app[mid] = _bump_interior(h, hb, hp, hbp, hpp, hbpp)
    return a, ap, app


_BUMP_C: Optional[float] = None


def bump_constant() -> float:
    """c = max(sup|a'|, sup|a''|, 1), measured once on a dense grid."""
    global _BUMP_C
    if _BUMP_C is None:
        ts, c = np.linspace(0.0, 1.0, 200_001), 1.0
        for i in range(0, ts.size, spiral.FILL_BLOCK):  # max is exact in any order
            _, ap, app = bump(ts[i:i + spiral.FILL_BLOCK])
            c = max(np.abs(ap).max(), np.abs(app).max(), c)
        _BUMP_C = float(c)
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
    cx, sx, ss = m.cos(x), m.sin(x), m.sin(s)
    one_minus_cos = 2.0 * sh * sh
    u = cx * one_minus_cos - sx * ss
    two_cos_m1 = 1.0 - 2.0 * one_minus_cos
    uu = u * u
    rad = uu + two_cos_m1
    root = m.sqrt(rad)
    g = u + root
    dev = u + (uu - 4.0 * sh * sh) / (root + 1.0)
    ux = -sx * one_minus_cos - cx * ss
    gx = ux * g / root
    gxx = -u * g / root + ux * ux * two_cos_m1 / rad / root
    return dev, gx, gxx


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
    Windows k < k1 are flat (rho - 1 is exactly +0.0): no xi > _xi_live is evaluated.
    A float64 ``sigmas`` is held as it is, not copied, and its k <= k1 prefix zeroed
    in place; only a curve with a larger k1 may write to it later.  build_curve's
    candidates share one table so, and it marks the table read-only for the last.
    """

    def __init__(self, sigmas: np.ndarray, k1: int, kmax: int):
        self.kmax = int(kmax)
        self.k1 = int(k1)
        self._sig = np.asarray(sigmas, dtype=float)
        if self._sig.size != self.kmax + 2:
            raise DomainError("sigma table must cover k = 0..kmax+1")
        self._sig[: self.k1 + 1] = 0.0  # flat start: rho_k == 1 for k <= k1
        self._xi_live = min(1.0, 1.0 / math.sqrt(max(self.k1, 1) - 0.5))
        self._sigv = memoryview(self._sig)  # the scalar path reads it without a numpy call

    # -- evaluation ------------------------------------------------------------
    def deviation(self, xi_val):
        """(rho - 1, rho', rho''), full precision in the tail.

        A scalar xi is evaluated with the math module and gives floats.  An
        array is evaluated elementwise with numpy; when every point is live
        (0 < xi <= _xi_live, as on every window sample) it is neither masked
        nor scattered.
        """
        if isinstance(xi_val, float) or np.ndim(xi_val) == 0:
            x = float(xi_val)
            if not 0.0 < x <= self._xi_live:
                return 0.0, 0.0, 0.0
            xx = x * x
            if xx == 0.0 or 1.0 / xx > self.kmax:  # beyond horizon: |rho-1| < 1e-19
                return 0.0, 0.0, 0.0
            k = int(1.0 / xx)
            return _window_dev(x, float(k), self._sigv[k], self._sigv[k + 1], math)
        x = np.asarray(xi_val, dtype=float)
        live = (x > 0.0) & (x <= self._xi_live)
        n_live = np.count_nonzero(live)
        if n_live == x.size:
            return self._live_deviation(x)
        out = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
        if n_live:
            for o, v in zip(out, self._live_deviation(x[live])):
                o[live] = v
        return out

    def _live_deviation(self, x):
        """deviation of an array of xi in (0, _xi_live]."""
        # x * x underflows to 0 for x below ~1e-162: deep either way
        with np.errstate(over="ignore", divide="ignore"):
            inv = 1.0 / (x * x)
        deep = inv > self.kmax  # beyond horizon: |rho-1| < 1e-19
        kf = np.where(deep, float(self.kmax), np.floor(inv))
        k = kf.astype(np.int64)
        vals = _window_dev(x, kf, self._sig[k], self._sig[k + 1], np)
        if np.count_nonzero(deep):
            vals = tuple(np.where(deep, 0.0, v) for v in vals)
        return vals

    def polar(self, xi_val):
        """(rho, rho', rho'') from ``deviation``: the curvature, the lift and the CLI tables."""
        d, d1, d2 = self.deviation(xi_val)
        return 1.0 + d, d1, d2

    def curvature(self, xi_val):
        """Polar curvature |rho^2 + 2 rho'^2 - rho rho''| / (rho^2 + rho'^2)^(3/2)."""
        r, r1, r2 = self.polar(xi_val)
        rr = r * r
        return np.abs(rr + 2.0 * r1 * r1 - r * r2) / np.power(rr + r1 * r1, 1.5)

    def window_samples(self, k, count: int) -> np.ndarray:
        """``count`` equispaced points of the window [xi_{k+1}, xi_k]; for an
        int array k, one row per window, each equal to its one-window call."""
        if np.ndim(k) == 0:
            return np.linspace(float(spiral.xi(k + 1)), float(spiral.xi(k)), count)
        return np.linspace(spiral.xi(np.asarray(k) + 1), spiral.xi(k), count, axis=-1)


KAPPA_MIN = 0.5           # the cone is a billiard table while the curvature exceeds this
SAMPLES_PER_WINDOW = 96
DETECT_HORIZON = 4096     # every window below is sampled; beyond, 48 geometric ones
SWEEP_BLOCK = 64          # windows per curvature batch: its temporaries stay in L2


def _window_minima(curve: PolarCurve, windows: np.ndarray) -> np.ndarray:
    """Min sampled curvature of each window [xi_{k+1}, xi_k]."""
    mins = np.empty(windows.size)
    for i in range(0, windows.size, SWEEP_BLOCK):
        pts = curve.window_samples(windows[i:i + SWEEP_BLOCK], SAMPLES_PER_WINDOW)
        mins[i:i + SWEEP_BLOCK] = curve.curvature(pts).min(axis=1)
    return mins


def build_curve(params: Optional[SpiralParams] = None, kmax: int = 130_000,
                k1_min: int = 1) -> PolarCurve:
    """Construct the blended curve and pick the flat-start index k1.

    One sweep samples the curvature of every window below
    min(DETECT_HORIZON, kmax) and of a geometric sample of windows up to
    kmax - 1, on a probe curve flattened only up to k1_min; k1 is one past
    the last window whose minimum is at most KAPPA_MIN.  Flattening up to
    k1 changes only the samples of windows k1 and k1 + 1, so just those two
    are re-checked, and k1 moves past the first of them that fails.  At
    least one window must lie above k1 and below kmax, or the curve would
    be the plain unit circle.
    """
    k1 = max(k1_min, 1)
    if k1 > kmax - 2:
        raise ConstructionError(f"no window above k1 >= {k1} fits below kmax = {kmax}")
    sig = np.zeros(kmax + 2)
    for k in range(2, kmax + 2, spiral.FILL_BLOCK):
        ks = np.arange(k, min(k + spiral.FILL_BLOCK, kmax + 2), dtype=float)
        sig[k:k + ks.size] = spiral.sigma(ks)
    if np.abs(sig).max() >= SIGMA_DOMAIN:
        raise ConstructionError("a sigma_k fell outside the arc domain")

    windows = np.union1d(np.arange(1, DETECT_HORIZON),
                         np.geomspace(DETECT_HORIZON, kmax - 1, 48).astype(int))
    windows = windows[(windows >= k1) & (windows < kmax)]  # windows >= kmax are the unit circle
    bad = windows[_window_minima(PolarCurve(sig, k1=k1, kmax=kmax), windows) <= KAPPA_MIN]
    if bad.size:
        k1 = int(bad[-1]) + 1
    while k1 <= kmax - 2:
        curve = PolarCurve(sig, k1=k1, kmax=kmax)
        failed = np.nonzero(_window_minima(curve, np.array([k1, k1 + 1])) <= KAPPA_MIN)[0]
        if not failed.size:
            sig.setflags(write=False)
            return curve
        k1 += int(failed[0]) + 1
    raise ConstructionError(f"no admissible k1 <= {kmax - 2} for threshold {KAPPA_MIN}")


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

    def max_slope_error(self) -> float:
        """The largest |slope - expected|; NaN when any slope is NaN."""
        return float(np.max(np.abs(np.subtract(self.slopes, self.expected))))


C2_K_LO = 100         # the decay fit runs over 60 geometric windows
C2_K_HI = 100_000     # from C2_K_LO to min(kmax - 2, C2_K_HI)
C2_SLOPE_TOL = 0.15   # half-width of the band each fitted slope must meet


def c2_check_at_zero(curve: PolarCurve, strict: bool = True) -> C2Report:
    """Fit the decay exponents of the window sups of |rho-1|, |rho'|, |rho''|.

    The expected envelopes are k^-4, k^-5/2 and k^-1; failing the
    +-C2_SLOPE_TOL band, a NaN slope included, raises C2CheckFailure.
    """
    k_lo = C2_K_LO
    k_hi = min(curve.kmax - 2, C2_K_HI)
    if k_lo <= curve.k1:
        raise DomainError(f"the decay fit starts at k = {k_lo}, which must exceed k1 = {curve.k1}")
    if k_hi <= k_lo:  # windows past the horizon read 0, whose log has no slope
        raise DomainError(f"the decay fit needs kmax - 2 > {k_lo}, got kmax = {curve.kmax}")
    ks = np.unique(np.geomspace(k_lo, k_hi, 60).astype(int))
    sup0, sup1, sup2 = (np.abs(d).max(axis=1) for d in curve.deviation(curve.window_samples(ks, 130)))
    lk = np.log(ks.astype(float))
    slopes = tuple(float(np.polyfit(lk, np.log(s), 1)[0]) for s in (sup0, sup1, sup2))
    report = C2Report(k_values=ks, sup_dev=sup0, sup_d1=sup1, sup_d2=sup2, slopes=slopes)
    if strict and not report.max_slope_error() <= C2_SLOPE_TOL:
        raise C2CheckFailure(
            f"decay slopes {slopes} deviate more than {C2_SLOPE_TOL} from {report.expected}")
    return report


def sign_change_census(curve: PolarCurve, k_lo: int, k_hi: int) -> int:
    """Number of k in [k_lo, k_hi] where rho - 1 changes sign across q_k.

    Samples inside the pure-arc plateau on both sides of each junction.
    """
    if k_lo <= curve.k1:
        raise DomainError("census range must lie above k1")
    k = np.arange(k_lo, k_hi + 1)
    xik = spiral.xi(k)
    lo_dev = curve.deviation(xik - spiral.delta(k) / 6.0)[0]
    hi_dev = curve.deviation(xik + spiral.delta(k - 1) / 6.0)[0]
    return int(np.count_nonzero(lo_dev * hi_dev < 0.0))


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
    termination: Optional[Termination]  # None when every step reflected
    first_bad_k: Optional[int]  # first vertex off the closed form by more than VERTEX_TOL

    @property
    def escaped(self) -> bool:
        """True when the replay ended before its last step."""
        return self.termination is not None

    @property
    def passed(self) -> bool:
        """Every step reflected and every vertex within VERTEX_TOL."""
        return self.first_bad_k is None and self.termination is None

    def failure(self) -> str:
        """The message of a replay that did not pass."""
        return f"replay diverged (first bad k = {self.first_bad_k}, termination = {self.termination})"


VERTEX_TOL = 1e-7
MAX_STEPS = 10_000        # replay steps per call


def replay(
    curve: PolarCurve,
    params: SpiralParams,
    steps: int,
    start_k: Optional[int] = None,
    strict: bool = True,
) -> ReplayReport:
    """Run the generic cone stepper on the built cone from the closed-form
    vertex projected onto it and compare every hit against the closed-form
    vertices; a relative vertex error above VERTEX_TOL counts as divergence."""
    if steps < 1 or steps > MAX_STEPS:
        raise DomainError(f"steps must lie in [1, {MAX_STEPS}]")
    last = curve.kmax + 1  # the sigma table fixes q_k up to kmax + 1
    traj = SpiralTrajectory(params.a, kmax=last)
    k_start = start_k if start_k is not None else max(curve.k1 + 1, traj.k0)
    if k_start <= curve.k1:
        raise DomainError("replay must start above the flat-start index k1")
    if k_start + steps > last:
        raise DomainError(f"replay compares vertices {k_start + 1}..{k_start + steps}, past k = {last}")
    cone = GeneralCone(curve)
    line = traj.line(k_start)
    base, tail = project_to_surface(cone, line.base)
    bases, dirs = [base], [line.dir.tolist()]
    termination = None
    for _ in range(steps):
        stepped = cone_step_precise(cone, bases[-1], tail, dirs[-1])
        if isinstance(stepped, Termination):
            termination = stepped
            break
        hit, tail, out = stepped
        bases.append(hit)
        dirs.append(out)
    bases, dirs = _stack(bases), _stack(dirs)
    chords = np.diff(bases, axis=0)
    # cumsum adds left to right, where np.sum adds pairwise
    length = float(np.cumsum(np.append(0.0, np.sqrt(_dots(chords, chords))))[-1])
    x = bases[1:]
    expected = traj.vertex(np.arange(k_start + 1, k_start + len(bases)))
    miss = x - expected
    rel = np.sqrt(_dots(miss, miss)) / np.sqrt(_dots(expected, expected))
    bad = np.flatnonzero(rel > VERTEX_TOL)
    max_rel = float(rel.max(initial=0.0))
    max_dist = float(np.abs(distance_sq(*momenta(*x.T, *dirs[1:].T)) - 2.0).max(initial=0.0))
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
        termination=termination,
        first_bad_k=k_start + 1 + int(bad[0]) if bad.size else None,
    )
    if strict and not report.passed:
        raise ReplayFailure(report.failure())
    return report
