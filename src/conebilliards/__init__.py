"""Billiards inside cones: conserved quantities, the C2 pathological cone,
and the elliptic-cone reflection bound."""

__version__ = "0.1.0"
