"""A frozen copy of the inversion of criterion 9's profile as it stood
before the Newton step: 60 halvings of (-pi/2, pi/2) per distinct x2, each
round one ``polar`` call on every value.

The tests hold ``LiftedSection._xi_from_x2`` to this route's roots and to
its criterion-9 verdicts.
"""

import math

import numpy as np


def xi_from_x2(curve, x2):
    """xi with rho(xi) sin(xi) = x2, by bisection; x2 in (-1, 1)."""
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    x2, back = np.unique(x2, return_inverse=True)
    lo = np.full_like(x2, -math.pi / 2.0 + 1e-12)
    hi = np.full_like(x2, math.pi / 2.0 - 1e-12)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val = curve.polar(mid)[0] * np.sin(mid)
        high = val > x2
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return (0.5 * (lo + hi))[back]
