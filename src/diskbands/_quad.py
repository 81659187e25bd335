"""Composite Gauss-Legendre panels on an interval.

Nodes are strictly interior to each panel, so panel endpoints (in particular
the coordinate axes bounding the quarter-arcs) are never evaluated.
"""

from __future__ import annotations

import math

# the 4-point Gauss-Legendre rule on [-1, 1], bitwise that of
# numpy.polynomial.legendre.leggauss(4); the closed forms
# sqrt(3/7 -+ 2/7 sqrt(6/5)) and (18 +- sqrt 30)/36 round one ulp away
_NODES = (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526)
_WEIGHTS = (0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357)


def panel_rule(a: float, b: float, panels: int) -> tuple[list[float], list[float]]:
    """Nodes and weights integrating over [a, b] with `panels` equal panels."""
    if panels < 1:
        raise ValueError("panels must be >= 1, got %r" % (panels,))
    width = (b - a) / panels
    half = 0.5 * width
    offsets = [half * x for x in _NODES]
    nodes = [(a + width * i) + half + d for i in range(panels) for d in offsets]
    return nodes, [half * w for w in _WEIGHTS] * panels


def quarter_arc_rules(panels: int) -> list[tuple[list[float], list[float]]]:
    """`panel_rule` on each quarter-arc [q pi/2, (q+1) pi/2], q = 0..3."""
    return [panel_rule(q * math.pi / 2, (q + 1) * math.pi / 2, panels) for q in range(4)]
