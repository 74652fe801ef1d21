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
FILL_BLOCK = 2 * TAIL_BLOCK  # entries per array pass over a table or grid; bounds the peak memory
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
    """S_k = sum_{i>=k} theta_i; bit-identical to ``TailTable(m).S[k - 1]``."""
    if k < 1:
        raise DomainError("tail index must be >= 1")
    j = (k - 1) // TAIL_BLOCK
    return float(_block_tails(j, j + 1)[1][k - 1 - j * TAIL_BLOCK])


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
        self.theta, self.S = np.empty(n), np.empty(n)  # S[k-1] = S_k
        for i in range(0, n, FILL_BLOCK):  # each pass fills whole tail blocks, then trims
            th, s = _block_tails(i // TAIL_BLOCK, (i + FILL_BLOCK) // TAIL_BLOCK)
            self.theta[i:i + FILL_BLOCK], self.S[i:i + FILL_BLOCK] = th[:n - i], s[:n - i]


_SHARED_TABLE: Optional[TailTable] = None


def shared_tail_table(kmax: int) -> TailTable:
    """Process-wide memo, grown on demand; a larger table answers any
    smaller request with the same bits."""
    global _SHARED_TABLE
    if _SHARED_TABLE is None or _SHARED_TABLE.kmax < kmax:
        _SHARED_TABLE = TailTable(kmax)
    return _SHARED_TABLE


@dataclass(frozen=True)
class SpiralParams:
    """Construction parameter a in (-pi/2, pi/2]: the one home of that rule."""

    a: float

    def __post_init__(self):
        if not (-HALF_PI < self.a <= HALF_PI):
            raise DomainError("parameter a must lie in (-pi/2, pi/2]")


def k0(a: float, table: Optional[TailTable] = None) -> int:
    """Smallest k with a - S_k > -pi/2, so t_k(a) > 0 from there on.  S_k
    is read from ``table`` where it covers k and from ``theta_tail`` beyond:
    the same bits either way."""
    target = SpiralParams(a).a + HALF_PI  # need S_k < target
    end = table.kmax + 1 if table is not None else 0

    def tail(k: int) -> float:
        return table.S.item(k - 1) if k <= end else theta_tail(k)

    if tail(1) < target:
        return 1
    lo, hi = 1, 2
    while tail(hi) >= target:
        lo, hi = hi, hi * 2
        if hi > 10**15:
            raise DomainError("k0 search overflow; a is too close to -pi/2")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


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
    return np.arctan2(f, g)


class SpiralTrajectory:
    """Evaluator for the vertex polygon at a fixed parameter a.

    All per-k quantities accept ints or integer arrays; valid indices are
    k0(a) <= k <= kmax, and ``tilt`` takes every k the tail table holds.
    Each public method checks its k range once, on entry, and the private
    ``_tilt`` reads S_k unchecked after it.
    """

    def __init__(self, a: float, kmax: int = 100_000):
        self.a = float(SpiralParams(a).a)  # before the table is built
        self.table = shared_tail_table(kmax)
        self.kmax = kmax
        self.k0 = k0(a, self.table)

    def _check_k(self, k, lo=None) -> np.ndarray:
        """k as an array, refused unless lo (k0 by default) <= k <= kmax."""
        k = np.asarray(k)
        low = self.k0 if lo is None else lo
        if (k < low).any():
            raise DomainError(f"k must be >= {low} for a = {self.a}")
        if (k > self.kmax).any():
            raise DomainError(f"k exceeds the table kmax = {self.kmax}")
        return k

    # -- scalar building blocks ------------------------------------------------
    def _tilt(self, k):
        """A_k = a - S_k of a checked k; t_k = 1/cos(A_k), alpha_k = pi/2 - A_k."""
        return self.a - self.table.S[k - 1]

    def tilt(self, k):
        """A_k for 1 <= k <= table.kmax + 1."""
        k = np.asarray(k)
        if (k < 1).any() or (k > self.table.kmax + 1).any():
            raise DomainError(f"tail table covers k in [1, {self.table.kmax + 1}]")
        return self._tilt(k)

    def t(self, k):
        return 1.0 / np.cos(self._tilt(self._check_k(k)))

    def vertex(self, k):
        """p_k = t_k (cos xi_k, sin xi_k, 1); shape (..., 3)."""
        return self._vertex(self._check_k(k))

    def _vertex(self, k):
        t, x = 1.0 / np.cos(self._tilt(k)), xi(k)
        return np.stack([t * np.cos(x), t * np.sin(x), t * np.ones_like(x)], axis=-1)

    def _chord_vector(self, k):
        """p_{k+1} - p_k assembled from difference identities.

        Naive subtraction of vertices loses ~k^(3/2) eps of direction
        accuracy; this form keeps every component at full relative
        precision for all k.
        """
        A0, A1 = self._tilt(k), self._tilt(k + 1)
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
        return self._direction(self._check_k(k))

    def _direction(self, k):
        c = self._chord_vector(k)
        return c / np.linalg.norm(c, axis=-1, keepdims=True)

    def line(self, k: int) -> OrientedLine:
        """Oriented chord line l_k from p_k towards p_{k+1}."""
        k = self._check_k(k)
        return OrientedLine(self._vertex(k), self._direction(k))

    # -- verified quantities ---------------------------------------------------
    def chord_length(self, k):
        """Closed form sqrt(2) sin(theta_k) / (cos A_k cos A_{k+1})."""
        k = self._check_k(k)
        th = self.table.theta[k - 1]
        return SQRT2 * np.sin(th) / (np.cos(self._tilt(k)) * np.cos(self._tilt(k + 1)))

    def partial_length(self, k_from: int, k_to: int):
        """sum of chords k_from..k_to via the exact telescoping tangent form."""
        self._check_k([k_from, k_to])
        return SQRT2 * (np.tan(self._tilt(k_to + 1)) - np.tan(self._tilt(k_from)))

    def total_length(self) -> float:
        """Total polygon length from k0 on; infinite exactly at a = pi/2."""
        if self.a == HALF_PI:
            return math.inf
        s = self.table.S.item(self.k0 - 1)
        return SQRT2 * math.sin(s) / (math.cos(self.a - s) * math.cos(self.a))

    def tail_length(self, k_from: int) -> float:
        """Remaining length sum_{k >= k_from} |p_{k+1} - p_k| (telescoped)."""
        if self.a == HALF_PI:
            return math.inf
        return SQRT2 * (math.tan(self.a) - math.tan(float(self._tilt(self._check_k(k_from)))))

    def alpha_closed(self, k):
        """alpha_k = pi/2 - A_k, so cos(alpha_k) = sin(A_k); atan2 keeps full
        precision as A_k -> -pi/2, where arccos(sin A_k) is ill-conditioned."""
        A = self._tilt(self._check_k(k))
        return np.arctan2(np.cos(A), np.sin(A))

    def verify_distance(self, k):
        """dist(l_k, O) - sqrt(2) via the angular momenta m_ij of l_k."""
        k = self._check_k(k)
        m = angular_momenta(self._vertex(k), self._direction(k))
        return np.sqrt(_dots(m, m)) - SQRT2

    def verify_equal_angles(self, k):
        """(alpha_k, beta_k): angles of l_k and l_{k-1} with the radius p_k."""
        k = self._check_k(k, lo=max(self.k0 + 1, 2))
        u = unit(self._vertex(k))
        return angle_between(self._direction(k), u), angle_between(self._direction(k - 1), u)
