"""A frozen copy of the general-cone root search that the ulp walk replaced:
three prediction rounds, then a bracket widened one-sidedly from the
predicted root, 4 ulps first and x4 a round, until the compensated gap
changes sign, bisected to adjacent floats.

The tests hold ``geometry._intersect_ray`` to the roots of this copy, so
the copy takes the gap as a function.  It stops where the route it copies
fell through to APEX or NO_BRACKET, and answers NO_BRACKET for both.
"""

import math

from conebilliards.errors import Termination

import dd_reference
from scan_root_reference import bisect

PREDICT_ROUNDS = 3
BRACKET_LIMIT = 1e-2  # widest bracket around a predicted root, over |p|
T_MIN_FACTOR = 1e-9   # t_min = factor * |base| excludes the current vertex


def bracket_root(deviation, gap, p, p_tail, v, p_norm: float):
    """The exit root of ``gap`` found from the three-round prediction, or
    Termination.NO_BRACKET; ``deviation`` maps xi to (rho - 1, ...)."""
    scale = max(p_norm, 1e-12)
    t_min = T_MIN_FACTOR * scale
    t = dd_reference.predict_root(deviation, p, p_tail, v, t_min, rounds=PREDICT_ROUNDS)
    if t is None:
        return Termination.NO_BRACKET
    g = gap(t)
    side, width = (1.0 if g < 0.0 else -1.0), 4.0 * math.ulp(t)
    while width <= BRACKET_LIMIT * scale:
        end = t + side * width
        if end <= t_min:
            break
        g_end = gap(end)
        if (g_end < 0.0) != (g < 0.0):
            if side > 0.0:
                return bisect(gap, t, g, end, g_end)
            return bisect(gap, end, g_end, t, g)
        t, g = end, g_end
        width *= 4.0
    return Termination.NO_BRACKET
