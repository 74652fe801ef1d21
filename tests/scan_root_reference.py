"""A frozen copy of the general-cone root search that the predicted bracket
replaced: walk off the surface from t_min, scan for the exit in steps of
SCAN_FACTOR * scale, and bisect the bracket to adjacent floats.

The tests hold ``geometry._intersect_ray`` to the roots of this copy, so
the copy takes the gap as a function and keeps its own bisection.
"""

from conebilliards.errors import Termination

SCAN_FACTOR = 1e-2  # coarse-scan step as a fraction of the length scale


def bisect(gap, lo: float, g_lo: float, hi: float, g_hi: float) -> float:
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


def scan_root(gap, t_min: float, scale: float):
    """The first exit root of ``gap`` above t_min, or Termination.NO_BRACKET."""
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
            return Termination.NO_BRACKET  # the ray was expected to come back
        g_hi = gap(hi)
    return bisect(gap, lo, g_lo, hi, g_hi)
