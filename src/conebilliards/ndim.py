"""Lift of the planar construction to a convex hypersurface cone in R^n.

The section profile x1 = f1(x2) comes from the built polar curve; the
lifted graph F1(x2,...,x^{n-1}) = sqrt(f1(x2)^2 - (x3)^2 - ...) has a
negative-definite Hessian on the open unit disk, and the embedded planar
trajectory satisfies the billiard tangential equalities on the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .curve import PolarCurve
from .errors import ConvexityFailure, DomainError
from .spiral import SpiralTrajectory
from . import spiral

BOUNDARY_MARGIN = 1e-3    # negdef_check samples the disk of radius 1 - this
NEWTON_ROUNDS = 60        # cap on the rounds of the profile inversion


class LiftedSection:
    """Graph form of the section curve plus its R^n lift.

    f1 is obtained by inverting x2(xi) = rho(xi) sin(xi) on (-pi/2, pi/2)
    (strictly increasing there) and coincides with sqrt(1 - x2^2) wherever
    rho == 1, in particular on x2 in (-1, 0] and [1/3, 1) once k1 >= 9.
    """

    def __init__(self, curve: PolarCurve, n: int):
        if n < 3:
            raise DomainError("ambient dimension must be >= 3")
        if spiral.xi(curve.k1) > math.asin(1.0 / 3.0) + 1e-15:
            raise DomainError(
                f"k1 = {curve.k1} too small: the profile must match the circle for x2 >= 1/3"
            )
        self.curve = curve
        self.n = int(n)

    # -- planar profile ---------------------------------------------------------
    def _xi_from_x2(self, x2):
        """Invert x2 = rho(xi) sin(xi) by Newton steps from arcsin(x2), the
        root wherever rho == 1.  One deviation call gives the residual
        (sin xi - x2) + (rho - 1) sin xi and the slope rho' sin xi + rho cos xi.
        Each residual's sign tightens a bracket, first (-pi/2, pi/2); a step
        not landing strictly inside it becomes the midpoint.  A value stops
        once its step or its bracket is at most 4 ulp (the bracket where
        residual noise outweighs a flat slope), or after NEWTON_ROUNDS rounds.
        Only moving values are evaluated, so no result depends on its batch.
        On the default curve all stop within 2 rounds."""
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        if not np.all(np.abs(x2) < 1.0):
            raise DomainError("x2 must lie in (-1, 1)")
        x = np.arcsin(x2)
        xi, todo, t = x.copy(), np.arange(x2.size), x2
        lo = np.full_like(x2, -math.pi / 2.0 + 1e-12)
        hi = -lo
        for _ in range(NEWTON_ROUNDS):
            d, d1, _ = self.curve.deviation(x)
            s = np.sin(x)
            res = (s - t) + d * s
            step = res / (d1 * s + (1.0 + d) * np.cos(x))
            high = res > 0.0
            hi = np.where(high, x, hi)
            lo = np.where(high, lo, x)
            new = x - step
            tol = 4.0 * np.spacing(np.abs(x))
            near = np.abs(step) <= tol
            new = np.where(near | ((lo < new) & (new < hi)), new, 0.5 * (lo + hi))
            done = near | (hi - lo <= tol)
            xi[todo] = new
            if done.all():
                break
            go = ~done
            todo, x, t, lo, hi = todo[go], new[go], t[go], lo[go], hi[go]
        return xi

    def f1(self, x2):
        """(f1, f1', f1'') at an array of x2, by the chain rule through xi,
        evaluated once per distinct x2."""
        x2, back = np.unique(x2, return_inverse=True)
        return tuple(a[back] for a in self._f1_at_xi(self._xi_from_x2(x2)))

    def _f1_at_xi(self, xi_v):
        r, r1, r2 = self.curve.polar(xi_v)
        c, s = np.cos(xi_v), np.sin(xi_v)
        x1d = r1 * c - r * s
        x2d = r1 * s + r * c          # > 0 on (-pi/2, pi/2)
        x1dd = r2 * c - 2.0 * r1 * s - r * c
        x2dd = r2 * s + 2.0 * r1 * c - r * s
        f = r * c
        fp = x1d / x2d
        fpp = (x1dd * x2d - x1d * x2dd) / x2d**3
        return f, fp, fpp

    # -- the lifted graph ---------------------------------------------------------
    def _lift(self, Y):
        """(Y, (f1, f1', f1'') at x2, F1) for a batch of points
        y = (x2, x3, ..., x^{n-1}), shape (N, n-2), with
        F1 = sqrt(f1(x2)^2 - sum_{i>=3} (x^i)^2), refusing points off the
        open unit disk or outside the lifted section."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.n - 2:
            raise DomainError(f"expected shape (N, {self.n - 2})")
        if not np.all(np.einsum("ij,ij->i", Y, Y) < 1.0):
            raise DomainError("a point lies outside the open unit disk")
        f, fp, fpp = self.f1(Y[:, 0])
        rad = f * f - np.einsum("ij,ij->i", Y[:, 1:], Y[:, 1:])
        if not np.all(rad > 0.0):
            raise DomainError("negative radicand: point outside the lifted section")
        return Y, (f, fp, fpp), np.sqrt(rad)

    def hessian_batch(self, Y: np.ndarray) -> np.ndarray:
        """Closed-form Hessians of F1 for a batch of points, shape (N, n-2)
        -> (N, n-2, n-2)."""
        Y, (f, fp, fpp), F = self._lift(Y)
        rest = Y[:, 1:]
        F3 = F**3
        m = self.n - 2
        H = np.empty((Y.shape[0], m, m))
        H[:, 0, 0] = (f * fpp + fp * fp) / F - (f * f * fp * fp) / F3
        for j in range(1, m):
            H[:, 0, j] = H[:, j, 0] = f * fp * rest[:, j - 1] / F3
        for i in range(1, m):
            for j in range(1, m):
                if i == j:
                    H[:, i, j] = -1.0 / F - rest[:, i - 1] ** 2 / F3
                else:
                    H[:, i, j] = -rest[:, i - 1] * rest[:, j - 1] / F3
        return H


@dataclass
class NegdefReport:
    n: int
    grid_size: int
    max_eigenvalue: float
    margin: float
    failures: List[dict] = field(default_factory=list)
    scalar_max: float = 0.0        # max of f1 f1'' + f1'^2 on (-1, 1)
    window_f1p_range: tuple = ()   # observed f1' range on (0, 1/3)
    window_f1_range: tuple = ()    # observed f1 range on (0, 1/3)


def _disk_grid(m: int, target: int) -> np.ndarray:
    """Regular lattice on the unit ball of dimension m with at least
    ``target`` points, a BOUNDARY_MARGIN rim cut off."""
    per_axis = max(3, int(round(target ** (1.0 / m))))
    while True:
        axes = [np.linspace(-1.0 + BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, per_axis)] * m
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        pts = pts[np.einsum("ij,ij->i", pts, pts) < (1.0 - BOUNDARY_MARGIN) ** 2]
        if pts.shape[0] >= target or per_axis > 4096:
            return pts
        per_axis = int(per_axis * 1.3) + 1


def negdef_check(
    section: LiftedSection,
    grid_target: int = 10_000,
    strict: bool = True,
) -> NegdefReport:
    """Hessian eigenvalue sweep plus the scalar margin f1 f1'' + f1'^2 < 0.

    Raises ConvexityFailure, naming the point of the largest eigenvalue, on
    any non-negative or NaN eigenvalue when strict.
    """
    m = section.n - 2
    pts = _disk_grid(m, grid_target)
    failures = []
    H_all = section.hessian_batch(pts)
    eigs = np.linalg.eigvalsh(H_all)
    worst_idx = int(np.argmax(eigs[:, -1]))
    worst = float(eigs[worst_idx, -1])
    bad = np.nonzero(eigs[:, -1] >= 0.0)[0]
    for i in bad[:32]:
        failures.append({"point": pts[i].tolist(), "max_eig": float(eigs[i, -1])})

    # scalar route: f1 f1'' + f1'^2 on (-1, 1), plus the window bounds
    xs = np.linspace(-1.0 + BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, 4001)
    f, fp, fpp = section.f1(xs)
    scalar = f * fpp + fp * fp
    win = (xs > 1e-6) & (xs < 1.0 / 3.0)
    report = NegdefReport(
        n=section.n,
        grid_size=int(pts.shape[0]),
        max_eigenvalue=worst,
        margin=-worst,
        failures=failures,
        scalar_max=float(scalar.max()),
        window_f1p_range=(float(fp[win].min()), float(fp[win].max())),
        window_f1_range=(float(f[win].min()), float(f[win].max())),
    )
    if strict and not worst < 0.0:  # a NaN eigenvalue fails too
        raise ConvexityFailure(
            f"Hessian not negative definite: max eigenvalue {worst} at y = {pts[worst_idx].tolist()}")
    return report


@dataclass
class EmbedReport:
    max_tangential_residual: float
    max_perpendicular_residual: float


def embed3(y: np.ndarray, n: int) -> np.ndarray:
    """(y1, y2, y3) -> (y1, y2, 0, ..., 0, y3); a (..., 3) stack row by row."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (n,))
    out[..., 0], out[..., 1], out[..., -1] = y[..., 0], y[..., 1], y[..., 2]
    return out


def embedded_reflection_check(
    section: LiftedSection,
    trajectory: SpiralTrajectory,
    count: int = 1000,
) -> EmbedReport:
    """Tangential equalities of the embedded trajectory on the lift.

    At each vertex <v~_k, e~_1>, <v~_k, e~_2> must match across the
    reflection; max_tangential_residual is the evidence.  The other
    equalities, <v~_k, e~_j> = 0 for 3 <= j <= n-1, hold because embed3
    puts zeros in those slots: max_perpendicular_residual reads those
    slots, is zero by construction and says nothing about the lift.
    """
    n, kmax = section.n, section.curve.kmax
    k_start = max(section.curve.k1 + 1, trajectory.k0)
    if k_start + count - 1 > kmax:  # q_{k+1} of the built curve fixes direction k
        raise DomainError(f"the embedded check compares vertices {k_start}..{k_start + count - 1}, "
                          f"past the curve's kmax = {kmax}")
    ks = np.arange(k_start, k_start + count)
    v_in = trajectory.direction(ks - 1)      # (count, 3): planar components...
    v_out = trajectory.direction(ks)
    xi_v = spiral.xi(ks).astype(float)
    f, fp, _ = section._f1_at_xi(xi_v)
    x2 = np.sin(xi_v)                         # rho(xi_k) = 1 at vertices
    # <v~, e~_1> = v1 f + v2 x2 + v3; <v~, e~_2> = v1 fp + v2; embedding puts
    # zeros in slots 3..n-1, so those inner products vanish identically.
    def dots(v):
        return (v[:, 0] * f + v[:, 1] * x2 + v[:, 2],
                v[:, 0] * fp + v[:, 1])
    in1, in2 = dots(v_in)
    out1, out2 = dots(v_out)
    max_tan = float(max(np.abs(in1 - out1).max(), np.abs(in2 - out2).max()))
    return EmbedReport(
        max_tangential_residual=max_tan,
        max_perpendicular_residual=float(np.abs(embed3(v_out, n)[:, 2:n - 1]).max(initial=0.0)),
    )
