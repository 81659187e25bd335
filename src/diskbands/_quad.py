"""Composite Gauss-Legendre panels, and the one boundary integral over the
four quarter-arcs of the disk.

Nodes are strictly interior to each panel, so panel endpoints (in particular
the coordinate axes bounding the quarter-arcs) are never evaluated.
`arc_integrals(n, eta1, eta2, panels)` gives I_c and I_s, the integrals of
g(eta, t) cos(n t) and g(eta, t) sin(n t) over the boundary, where the phase
g = exp(i (s1 eta1 + s2 eta2) / 2) takes its sign pair (s1, s2) from the
quadrant of the point t.  The correction matrix, the compatibility-constant
quadrature and the boundary-measure check all integrate through it.

It keeps the last 1,024 values it computed, so a `verify` run computes each
of its 209 distinct integrals once, whichever check asks first.  The cache
key does not tell 0.0 from -0.0, which is harmless: both give bitwise the
same pair, since a signed zero in eta can only flip the sign of a zero
imaginary part, and each sum starts from 0j, which absorbs it.
"""

from __future__ import annotations

import cmath
import functools
import math

# the 4-point Gauss-Legendre rule on [-1, 1], bitwise that of
# numpy.polynomial.legendre.leggauss(4); the closed forms
# sqrt(3/7 -+ 2/7 sqrt(6/5)) and (18 +- sqrt 30)/36 round one ulp away
_NODES = (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526)
_WEIGHTS = (0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357)

# the phase sign pairs (s1, s2) of the quadrants Q1..Q4: the signs of
# (cos t, sin t) there
_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def panel_rule(a: float, b: float, panels: int) -> tuple[list[float], list[float]]:
    """Nodes and weights integrating over [a, b] with `panels` equal panels."""
    if panels < 1:
        raise ValueError("panels must be >= 1, got %r" % (panels,))
    width = (b - a) / panels
    half = 0.5 * width
    offsets = [half * x for x in _NODES]
    nodes = [(a + width * i) + half + d for i in range(panels) for d in offsets]
    return nodes, [half * w for w in _WEIGHTS] * panels


@functools.lru_cache(maxsize=None)
def _arc_dots(n: int, panels: int) -> tuple[tuple[float, float], ...]:
    # (sum w cos(n t), sum w sin(n t)) over the nodes of each sign pair, in
    # _SIGNS order, by `panels` panels per quarter-arc, each sum correctly
    # rounded by fsum; the pair is read from the node's own (cos t, sin t)
    terms = {pair: ([], []) for pair in _SIGNS}
    for q in range(4):
        theta, w = panel_rule(q * math.pi / 2, (q + 1) * math.pi / 2, panels)
        for t, wt in zip(theta, w):
            pair = (1.0 if math.cos(t) > 0.0 else -1.0, 1.0 if math.sin(t) > 0.0 else -1.0)
            cos_terms, sin_terms = terms[pair]
            cos_terms.append(wt * math.cos(n * t))
            sin_terms.append(wt * math.sin(n * t))
    return tuple((math.fsum(c), math.fsum(s)) for c, s in terms.values())


# bounded, and well above the 209 entries a verify run needs, so that a caller
# sweeping many eta in one process does not grow it without limit
@functools.lru_cache(maxsize=1024)
def arc_integrals(n: int, eta1: float, eta2: float, panels: int) -> tuple[complex, complex]:
    """(I_c, I_s): the integrals of g(eta, t) cos(n t) and g(eta, t) sin(n t)
    dt over the four quarter-arcs, each by `panels` Gauss-Legendre panels."""
    ic = 0j
    isn = 0j
    for (s1, s2), (dot_c, dot_s) in zip(_SIGNS, _arc_dots(n, panels)):
        phase = cmath.exp(0.5j * (s1 * eta1 + s2 * eta2))
        ic += phase * dot_c
        isn += phase * dot_s
    return ic, isn
