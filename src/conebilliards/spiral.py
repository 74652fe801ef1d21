"""Closed-form vertex sequence p_k accumulating on a cone ruling.

The polar angles are xi_k = k^(-1/2); the apex angles theta_k between
consecutive vertex rays follow from sin(theta_k/2) = sin(delta_k/2)/sqrt(2)
with delta_k = xi_k - xi_{k+1}.  The radial profile t_k(a) = 1/cos(a - S_k)
is driven by the tail sums S_k = sum_{i>=k} theta_i, and every chord of the
resulting polygon keeps distance sqrt(2) from the origin while consecutive
chords make equal angles with the vertex radius -- the verifiable skeleton
of a billiard trajectory with infinitely many reflections.

Numerical care: delta_k and the tails are evaluated in rationalized /
series form so that all identities hold to ~1e-15 up to k = 1e6; naive
differencing of xi_k loses everything beyond k ~ 1e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import OrientedLine, _dots, angle_between, angular_momenta, unit

SQRT2 = math.sqrt(2.0)
HALF_PI = 0.5 * math.pi

# Tail sums are accumulated in blocks of TAIL_BLOCK indices, each anchored on
# the closed form at the first index of the next block.
TAIL_BLOCK = 4096
_TAIL_PARTIAL_TERMS = 4000


def xi(k):
    """Polar angle xi_k = k^(-1/2)."""
    return 1.0 / np.sqrt(np.asarray(k, dtype=float))


def delta(k):
    """delta_k = xi_k - xi_{k+1}, rationalized against cancellation."""
    k = np.asarray(k, dtype=float)
    return 1.0 / (np.sqrt(k * (k + 1.0)) * (np.sqrt(k) + np.sqrt(k + 1.0)))


def theta(k):
    """Apex angle theta_k from sin(theta/2) = sin(delta/2)/sqrt(2)."""
    return 2.0 * np.arcsin(np.sin(delta(k) / 2.0) / SQRT2)


def theta_from_cos(k):
    """Equivalent arccos((cos delta + 1)/2) form, kept as a cross-check."""
    return np.arccos((np.cos(delta(k)) + 1.0) / 2.0)


def delta_diff(k):
    """delta_k - delta_{k-1} in a cancellation-free rationalized form."""
    k = np.asarray(k, dtype=float)
    rkm, rk, rkp = np.sqrt(k - 1.0), np.sqrt(k), np.sqrt(k + 1.0)
    A = np.sqrt((k - 1.0) * k) * (rkm + rk)
    B = np.sqrt(k * (k + 1.0)) * (rk + rkp)
    b_minus_a = 2.0 * rk * (rk + rkp + rkm) / (rkp + rkm)
    return -b_minus_a / (A * B)


def _theta_diff(k):
    # theta_k - theta_{k-1} through the series in delta; used for k >= 16
    # where direct subtraction of thetas would lose ~k/eps digits.
    dk, dkm = delta(k), delta(np.asarray(k, dtype=float) - 1.0)
    dd = delta_diff(k)
    p3 = dk * dk + dk * dkm + dkm * dkm
    p5 = dk**4 + dk**3 * dkm + dk**2 * dkm**2 + dk * dkm**3 + dkm**4
    p7 = sum(dk ** (6 - i) * dkm**i for i in range(7))
    return (dd / SQRT2) * (1.0 - p3 / 48.0 - 7.0 * p5 / 7680.0 - 7.0 * p7 / 368640.0)


def _tail_closed(k: int) -> float:
    """S_k for k >= 32: telescoped delta plus arcsin-series corrections.

    S_k = (xi_k - T3/48 - 7 T5/7680)/sqrt(2) with T_p = sum_{i>=k} delta_i^p;
    the truncated series terms are below 1e-20 relative for k >= 32.
    """
    i = np.arange(k, k + _TAIL_PARTIAL_TERMS, dtype=float)
    d = delta(i)
    m = float(k + _TAIL_PARTIAL_TERMS)
    t3 = float(np.sum(d**3)) + (1.0 / 8.0) * (2.0 / 7.0) * m**-3.5
    t5 = float(np.sum(d**5)) + (1.0 / 32.0) * (2.0 / 13.0) * m**-6.5
    return (float(xi(k)) - t3 / 48.0 - 7.0 * t5 / 7680.0) / SQRT2


def _block_tails(j0: int, j1: int):
    """(theta_k, S_k) for k = j0*B + 1 .. j1*B, with B = TAIL_BLOCK.

    Block j sums its own thetas backwards and adds the closed-form anchor
    S_{(j+1)B+1}, so every S_k depends on k alone: any two callers that ask
    for the same k get the same bits.
    """
    b = TAIL_BLOCK
    th = theta(np.arange(j0 * b + 1, j1 * b + 1, dtype=float)).reshape(-1, b)
    anchors = np.array([_tail_closed((j + 1) * b + 1) for j in range(j0, j1)])
    s = np.cumsum(th[:, ::-1], axis=1)[:, ::-1] + anchors[:, None]
    return th.ravel(), s.ravel()


def theta_tail(k: int) -> float:
    """S_k = sum_{i>=k} theta_i; bit-identical to ``TailTable(m).tail(k)``."""
    if k < 1:
        raise DomainError("tail index must be >= 1")
    j = (k - 1) // TAIL_BLOCK
    return float(_block_tails(j, j + 1)[1][k - 1 - j * TAIL_BLOCK])


def theta_tail_naive(k: int, terms: int = 1_000_000) -> float:
    """Slow summation oracle: fsum of the first ``terms`` thetas plus the
    telescoped leading remainder xi_{k+terms}/sqrt(2)."""
    ks = np.arange(k, k + terms, dtype=float)
    s = math.fsum(theta(ks).tolist())
    return s + float(xi(k + terms)) / SQRT2


class TailTable:
    """theta_k and S_k for k = 1..kmax+1, from ``_block_tails``.

    Inside a block consecutive entries satisfy S_k - S_{k+1} = theta_k to
    rounding -- the consistency the geometric identities need -- and a
    smaller table is an exact prefix of a larger one.
    """

    def __init__(self, kmax: int):
        if kmax < 2:
            raise DomainError("kmax must be >= 2")
        self.kmax = int(kmax)
        n = self.kmax + 1
        th, s = _block_tails(0, (n - 1) // TAIL_BLOCK + 1)  # up to the block of k = n
        self.theta = th[:n]
        self.S = s[:n]  # S[k-1] = S_k

    def tail(self, k) -> np.ndarray:
        k = np.asarray(k)
        if np.any(k < 1) or np.any(k > self.kmax + 1):
            raise DomainError(f"tail table covers k in [1, {self.kmax + 1}]")
        return self.S[k - 1]


_SHARED_TABLE: Optional[TailTable] = None


def shared_tail_table(kmax: int) -> TailTable:
    """Process-wide memo, grown on demand; a larger table answers any
    smaller request with the same bits."""
    global _SHARED_TABLE
    if _SHARED_TABLE is None or _SHARED_TABLE.kmax < kmax:
        _SHARED_TABLE = TailTable(kmax)
    return _SHARED_TABLE


def k0(a: float) -> int:
    """Smallest k with a - S_k > -pi/2, so t_k(a) > 0 from there on."""
    if not (-HALF_PI < a <= HALF_PI):
        raise DomainError("parameter a must lie in (-pi/2, pi/2]")
    target = a + HALF_PI  # need S_k < target
    if theta_tail(1) < target:
        return 1
    lo, hi = 1, 2
    while theta_tail(hi) >= target:
        lo, hi = hi, hi * 2
        if hi > 10**15:
            raise DomainError("k0 search overflow; a is too close to -pi/2")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if theta_tail(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SpiralParams:
    """Construction parameter a in (-pi/2, pi/2]."""

    a: float

    def __post_init__(self):
        if not (-HALF_PI < self.a <= HALF_PI):
            raise DomainError("parameter a must lie in (-pi/2, pi/2]")

    @property
    def k0(self) -> int:
        return k0(self.a)


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


def sigma(k):
    """Tilt sigma_k of the required normal w_k away from the circle normal.

    Evaluated from the g/f decomposition of the planar part of v_k - v_{k-1}
    rewritten as products of sines of small angle combinations; the raw
    difference of cosine products drowns below k ~ 300 already.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 2):
        raise DomainError("sigma_k needs k >= 2")
    dk, dkm = delta(k_arr), delta(k_arr - 1.0)
    thk, thkm = theta(k_arr), theta(k_arr - 1.0)
    dd = delta_diff(k_arr)
    with np.errstate(invalid="ignore"):
        dth_series = _theta_diff(k_arr)
    dth = np.where(k_arr >= 16, dth_series, thk - thkm)
    s1 = (dd + dth) / 4.0
    s2 = ((dk - thk) + (dkm - thkm)) / 4.0
    s3 = ((dk + dkm) + (thk + thkm)) / 4.0
    s4 = (dd - dth) / 4.0
    f = SQRT2 * (-np.sin(s1) * np.sin(s2) - np.sin(s3) * np.sin(s4))
    g = np.sin((thk + thkm) / 2.0)
    out = np.arctan2(f, g)
    return float(out) if np.isscalar(k) or np.ndim(k) == 0 else out


def normal_w(k: int) -> NormalFrame:
    """Frame (q_k, w_k, sigma_k) in the section plane."""
    s = float(sigma(k))
    x = float(xi(k))
    z = np.array([-math.cos(x), -math.sin(x)])
    zt = np.array([math.sin(x), -math.cos(x)])
    w = math.cos(s) * z + math.sin(s) * zt
    return NormalFrame(k=int(k), q=np.array([math.cos(x), math.sin(x)]), w=w, sigma=s)


class SpiralTrajectory:
    """Evaluator for the vertex polygon at a fixed parameter a.

    All per-k quantities accept ints or integer arrays; valid indices are
    k0(a) <= k <= kmax.
    """

    def __init__(self, a: float, kmax: int = 100_000):
        if not (-HALF_PI < a <= HALF_PI):
            raise DomainError("parameter a must lie in (-pi/2, pi/2]")
        self.a = float(a)
        self.table = shared_tail_table(kmax)
        self.kmax = kmax
        self.k0 = k0(a)

    # -- scalar building blocks ------------------------------------------------
    def tilt(self, k):
        """A_k = a - S_k; t_k = 1/cos(A_k), alpha_k = pi/2 - A_k."""
        return self.a - self.table.tail(k)

    def _check_k(self, k, lo=None):
        k = np.asarray(k)
        low = self.k0 if lo is None else lo
        if np.any(k < low):
            raise DomainError(f"k must be >= {low} for a = {self.a}")
        if np.any(k > self.kmax):
            raise DomainError(f"k exceeds the table kmax = {self.kmax}")

    def t(self, k):
        self._check_k(k)
        return 1.0 / np.cos(self.tilt(k))

    def vertex(self, k):
        """p_k = t_k (cos xi_k, sin xi_k, 1); shape (..., 3)."""
        self._check_k(k)
        t = self.t(k)
        x = xi(k)
        return np.stack([t * np.cos(x), t * np.sin(x), t * np.ones_like(x)], axis=-1)

    def chord_vector(self, k):
        """p_{k+1} - p_k assembled from difference identities.

        Naive subtraction of vertices loses ~k^(3/2) eps of direction
        accuracy; this form keeps every component at full relative
        precision for all k.
        """
        self._check_k(k)
        k = np.asarray(k)
        A0, A1 = self.tilt(k), self.tilt(k + 1)
        th = self.table.theta[k - 1]
        t0 = 1.0 / np.cos(A0)
        dt = 2.0 * np.sin((A0 + A1) / 2.0) * np.sin(th / 2.0) / (np.cos(A0) * np.cos(A1))
        x0, x1 = xi(k), xi(k + 1)
        mid = (x0 + x1) / 2.0
        half = np.sin(delta(k) / 2.0)
        sx = dt * np.cos(x1) + t0 * 2.0 * np.sin(mid) * half
        sy = dt * np.sin(x1) - t0 * 2.0 * np.cos(mid) * half
        return np.stack([sx, sy, dt], axis=-1)

    def direction(self, k):
        c = self.chord_vector(k)
        return c / np.linalg.norm(c, axis=-1, keepdims=True)

    def line(self, k: int) -> OrientedLine:
        """Oriented chord line l_k from p_k towards p_{k+1}."""
        return OrientedLine(self.vertex(k), self.direction(k))

    # -- verified quantities ---------------------------------------------------
    def chord_length(self, k):
        """Closed form sqrt(2) sin(theta_k) / (cos A_k cos A_{k+1})."""
        self._check_k(k)
        k = np.asarray(k)
        th = self.table.theta[k - 1]
        return SQRT2 * np.sin(th) / (np.cos(self.tilt(k)) * np.cos(self.tilt(k + 1)))

    def chord_length_direct(self, k):
        """|p_{k+1} - p_k| by plain subtraction (oracle for moderate k)."""
        return np.linalg.norm(self.vertex(np.asarray(k) + 1) - self.vertex(k), axis=-1)

    def partial_length(self, k_from: int, k_to: int):
        """sum of chords k_from..k_to via the exact telescoping tangent form."""
        self._check_k(k_from)
        self._check_k(k_to)
        return SQRT2 * (np.tan(self.tilt(k_to + 1)) - np.tan(self.tilt(k_from)))

    def total_length(self) -> float:
        """Total polygon length from k0 on; infinite exactly at a = pi/2."""
        if self.a == HALF_PI:
            return math.inf
        s = float(self.table.tail(self.k0))
        return SQRT2 * math.sin(s) / (math.cos(self.a - s) * math.cos(self.a))

    def tail_length(self, k_from: int) -> float:
        """Remaining length sum_{k >= k_from} |p_{k+1} - p_k| (telescoped)."""
        if self.a == HALF_PI:
            return math.inf
        self._check_k(k_from)
        return SQRT2 * (math.tan(self.a) - math.tan(float(self.tilt(k_from))))

    def alpha_closed(self, k):
        """alpha_k = pi/2 - A_k, so cos(alpha_k) = sin(A_k); atan2 keeps full
        precision as A_k -> -pi/2, where arccos(sin A_k) is ill-conditioned."""
        self._check_k(k)
        A = self.tilt(k)
        return np.arctan2(np.cos(A), np.sin(A))

    def verify_distance(self, k):
        """dist(l_k, O) - sqrt(2) via the angular momenta m_ij of l_k."""
        m = angular_momenta(self.vertex(k), self.direction(k))
        return np.sqrt(_dots(m, m)) - SQRT2

    def verify_equal_angles(self, k):
        """(alpha_k, beta_k): angles of l_k and l_{k-1} with the radius p_k."""
        self._check_k(k, lo=max(self.k0 + 1, 2))
        u = unit(self.vertex(k))
        return angle_between(self.direction(k), u), angle_between(self.direction(k - 1), u)
