"""Synthetic road-network generators.

The paper evaluates on three real networks from Li's dataset page [14]:

* ``CA`` — California highways: 21,048 nodes / 21,693 edges (ratio 1.031),
* ``NA`` — North America highways: 175,813 / 179,179 (ratio 1.019),
* ``SF`` — San Francisco streets: 174,956 / 223,001 (ratio 1.275).

Those files are not redistributable here, so this module synthesises
networks with the same *structural signatures* (documented in DESIGN.md §3):
random points triangulated with Delaunay, thinned to a connected spanning
structure plus the shortest extra edges needed to hit the target edge/node
ratio.  This yields connected, near-planar graphs whose degree distribution
and detour behaviour match highway (ratio ≈ 1.02–1.03) and urban street
(ratio ≈ 1.27) networks.  Real files still load through
:mod:`repro.graph.io` if available.

Every generator is deterministic under its ``seed``, and the module is
stdlib-only.  Until 1.9 it drew from numpy's ``RandomState`` and
triangulated with scipy's Delaunay; three pieces replace the two libraries
and reproduce their networks bit for bit (coordinates, edge sets, every
distance):

* :class:`LegacyRandomState` replays numpy's legacy ``RandomState`` for
  the draws the package makes, on the Mersenne Twister of :mod:`random`
  (both generate doubles the same way; only the seeding differs).
* :func:`delaunay_edges` is a sweep-hull triangulation with Lawson flips,
  the algorithm of the JavaScript library *delaunator*, on orientation
  and in-circle predicates whose sign is exact (a floating-point filter,
  then rational arithmetic), so it returns the Delaunay triangulation
  itself: the one scipy's Qhull returned on these inputs.
  ``tests/graph/test_delaunay.py`` holds it to the definition by brute
  force on degenerate point sets.
* :func:`glibc_hypot` ports glibc's ``hypot`` (2.35 and later, the
  kernel without FMA).  numpy's ``hypot`` called it, and it is not
  correctly rounded while ``math.hypot`` is: the two disagree by one ulp
  on about 0.6 % of random pairs, which moves 11 of the 2,165 edge
  lengths of the mini CA network.  The port pins today's lengths, and
  makes them independent of the platform's libm from now on.

``tests/graph/test_generator_oracle.py`` holds the identity against the
numpy/scipy generator, kept in ``tests/graph/reference_generators.py``,
wherever both libraries are installed.
"""

from __future__ import annotations

import math
import operator
import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.graph.network import RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from fractions import Fraction


class GeneratorError(Exception):
    """Raised when requested parameters cannot produce a valid network."""


class LegacyRandomState:
    """numpy's legacy ``RandomState(seed)``, for the draws this package makes.

    numpy seeds its Mersenne Twister with ``init_genrand`` (``random``
    uses ``init_by_array``), so the key is built here and loaded through
    ``setstate``; from then on both generators produce the same 32-bit
    words.  Each method below consumes them exactly as numpy's does, and
    a ``size=`` call fills its values in numpy's row-major order, so
    ``uniform(lo, hi, size=2 * n)`` gives the flattened ``size=(n, 2)``
    array (x0, y0, x1, y1, ...).
    """

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if not 0 <= seed <= 0xFFFFFFFF:
            raise ValueError("Seed must be between 0 and 2**32 - 1")
        key = []
        for pos in range(624):
            key.append(seed)
            seed = (1812433253 * (seed ^ (seed >> 30)) + pos + 1) & 0xFFFFFFFF
        self._mt = random.Random()
        self._mt.setstate((3, (*key, 624), None))
        self._gauss: Optional[float] = None

    def random_sample(self) -> float:
        """One double in [0, 1): numpy and ``random`` both take 53 bits
        from two words (genrand_res53)."""
        return self._mt.random()

    def uniform(
        self, low: float, high: float, size: Optional[int] = None
    ) -> Union[float, List[float]]:
        span = high - low
        draw = self._mt.random
        if size is None:
            return low + span * draw()
        return [low + span * draw() for _ in range(size)]

    def _bounded(self, top: int) -> int:
        """A value in [0, top] by masked rejection on 32-bit words; draws
        nothing when ``top`` is 0 (numpy's ``random_interval`` and its
        masked bounded-integer fill agree on this)."""
        if top > 0xFFFFFFFF:
            raise ValueError("ranges wider than 2**32 are not replicated")
        mask = (1 << top.bit_length()) - 1
        while top:
            value = self._mt.getrandbits(32) & mask
            if value <= top:
                return value
        return 0

    def randint(
        self, low: int, high: Optional[int] = None, size: Optional[int] = None
    ) -> Union[int, List[int]]:
        """Integers in [low, high), or [0, low) when ``high`` is omitted."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError("low >= high")
        top = high - low - 1
        if size is None:
            return low + self._bounded(top)
        return [low + self._bounded(top) for _ in range(size)]

    def _gaussian(self) -> float:
        """Polar Box–Muller; the second value is kept for the next call."""
        if self._gauss is not None:
            value, self._gauss = self._gauss, None
            return value
        draw = self._mt.random
        while True:
            x1 = 2.0 * draw() - 1.0
            x2 = 2.0 * draw() - 1.0
            r2 = x1 * x1 + x2 * x2
            if r2 < 1.0 and r2 != 0.0:
                break
        f = math.sqrt(-2.0 * math.log(r2) / r2)
        self._gauss = f * x1
        return f * x2

    def normal(self, loc: float, scale: float, size: int) -> List[float]:
        return [loc + scale * self._gaussian() for _ in range(size)]

    def shuffle(self, items: list) -> None:
        """Fisher–Yates from the back, as numpy shuffles a list or array."""
        for i in range(len(items) - 1, 0, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def choice(self, n: int, size: int) -> List[int]:
        """``size`` distinct values of ``range(n)``: numpy's
        ``choice(n, size, replace=False)``, the head of a permutation."""
        if size > n:
            raise ValueError(
                "Cannot take a larger sample than population when 'replace=False'"
            )
        values = list(range(n))
        self.shuffle(values)
        return values[:size]


_HYPOT_SCALE = 2.0 ** -600
_HYPOT_LARGE = 2.0 ** 511
_HYPOT_TINY = 2.0 ** -511
_HYPOT_EPS = 2.0 ** -54


def _hypot_kernel(ax: float, ay: float) -> float:
    """``sqrt(ax*ax + ay*ay)`` and one correction step; ``ax >= ay >= 0``
    and neither square over- or underflows."""
    h = math.sqrt(ax * ax + ay * ay)
    if h <= 2.0 * ay:
        delta = h - ay
        t1 = ax * (2.0 * delta - ax)
        t2 = (delta - 2.0 * (ax - ay)) * delta
    else:
        delta = h - ax
        t1 = 2.0 * delta * (ax - 2.0 * ay)
        t2 = (4.0 * delta - ay) * ay + delta * delta
    return h - (t1 + t2) / (2.0 * h)


def glibc_hypot(x: float, y: float) -> float:
    """glibc's ``hypot`` (``sysdeps/ieee754/dbl-64/e_hypot.c``, no FMA).

    Not correctly rounded, unlike ``math.hypot``: it is kept because the
    network lengths were always computed with it (through numpy), and a
    one-ulp change in an edge length can change which edges a generated
    network keeps.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        if math.isinf(x) or math.isinf(y):
            return math.inf
        return x + y
    x, y = abs(x), abs(y)
    ax, ay = (y, x) if x < y else (x, y)
    if ax > _HYPOT_LARGE:
        if ay <= ax * _HYPOT_EPS:
            return ax + ay
        return _hypot_kernel(ax * _HYPOT_SCALE, ay * _HYPOT_SCALE) / _HYPOT_SCALE
    if ay < _HYPOT_TINY:
        if ax >= ay / _HYPOT_EPS:
            return ax + ay
        return _hypot_kernel(ax / _HYPOT_SCALE, ay / _HYPOT_SCALE) * _HYPOT_SCALE
    if ay <= ax * _HYPOT_EPS:
        return ax + ay
    return _hypot_kernel(ax, ay)


# Shewchuk's stage-A error bounds: past them the floating-point
# determinant has the exact determinant's sign.  They assume no product
# underflows; determinants below _UNDERFLOW, where one may have, are
# decided exactly as well.  (Coordinates are assumed not to overflow.)
_ORIENT_BOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_INCIRCLE_BOUND = (10.0 + 96.0 * 2.0 ** -53) * 2.0 ** -53
_UNDERFLOW = 1e-250


def _orient(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> Union[float, Fraction]:
    """``(ay - cy)(bx - cx) - (ax - cx)(by - cy)`` with its exact sign:
    positive when a, b, c turn clockwise."""
    left = (ay - cy) * (bx - cx)
    right = (ax - cx) * (by - cy)
    det = left - right
    if abs(det) > max(_ORIENT_BOUND * abs(left + right), _UNDERFLOW):
        return det
    # Imported here: the exact path is rare, and fractions loads decimal
    # (about 0.8 MiB) into every process that imports the package.
    from fractions import Fraction

    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    return (ay - cy) * (bx - cx) - (ax - cx) * (by - cy)


def _in_circle(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, px: float, py: float,
) -> bool:
    """Whether p lies strictly inside the circle through the clockwise
    triangle a, b, c, decided on the exact determinant's sign."""
    adx, ady, bdx, bdy = ax - px, ay - py, bx - px, by - py
    cdx, cdy = cx - px, cy - py
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    permanent = (
        (abs(bc) + abs(cb)) * alift
        + (abs(ca) + abs(ac)) * blift
        + (abs(ab) + abs(ba)) * clift
    )
    if abs(det) > max(_INCIRCLE_BOUND * permanent, _UNDERFLOW):
        return det < 0.0
    from fractions import Fraction

    ax, ay, bx, by, cx, cy, px, py = map(
        Fraction, (ax, ay, bx, by, cx, cy, px, py)
    )
    adx, ady, bdx, bdy = ax - px, ay - py, bx - px, by - py
    cdx, cdy = cx - px, cy - py
    exact = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return exact < 0


def _triangulate(xs: Sequence[float], ys: Sequence[float]) -> List[int]:
    """Delaunay triangles of the points, as a flat list of vertex triples.

    Sweep-hull: start from a small seed triangle near the centre, add the
    points in order of distance from its circumcentre (so each lies
    outside the hull built so far), fan each one to the hull edges it
    sees, and restore the Delaunay condition with Lawson flips as
    triangles are added.  Where rounding in that order puts a point
    inside the hull or on its boundary, ``insert_within`` splits the
    triangle or edge holding it instead.  Triangles are stored as
    half-edges: ``triangles[e]`` is the start vertex of half-edge ``e``
    and ``halfedges[e]`` its twin in the neighbouring triangle, -1 on the
    hull.  Exact duplicate points are skipped, so they are vertices of no
    triangle.
    """
    n = len(xs)
    cx = (min(xs) + max(xs)) / 2.0
    cy = (min(ys) + max(ys)) / 2.0

    def squared(i: int, x: float, y: float) -> float:
        dx, dy = xs[i] - x, ys[i] - y
        return dx * dx + dy * dy

    # Seed: the point nearest the centre, its nearest neighbour, and the
    # point making the smallest circumcircle with the two.  Only speed
    # rests on these floating-point choices (insert_within catches any
    # point they misplace), so where they fail any proper triangle will do.
    i0 = min(range(n), key=lambda i: squared(i, cx, cy))
    x0, y0 = xs[i0], ys[i0]
    near = [(squared(i, x0, y0), i) for i in range(n) if (xs[i], ys[i]) != (x0, y0)]
    if not near:
        raise GeneratorError("every point coincides: no triangulation")
    i1 = min(near)[1]
    x1, y1 = xs[i1], ys[i1]
    dx, dy = x1 - x0, y1 - y0
    bl = dx * dx + dy * dy
    i2, best = -1, math.inf
    for i in range(n):
        if i == i0 or i == i1:
            continue
        ex, ey = xs[i] - x0, ys[i] - y0
        denominator = dx * ey - dy * ex
        if denominator == 0.0:
            continue
        cl = ex * ex + ey * ey
        d = 0.5 / denominator
        rx = (ey * bl - dy * cl) * d
        ry = (dx * cl - ex * bl) * d
        radius = rx * rx + ry * ry
        if radius < best:
            i2, best = i, radius
    if i2 < 0:
        i2 = next(
            (i for i in range(n) if _orient(x0, y0, x1, y1, xs[i], ys[i]) != 0), -1
        )
        if i2 < 0:
            raise GeneratorError("the points are collinear: no triangulation")
    if _orient(x0, y0, x1, y1, xs[i2], ys[i2]) < 0:
        i1, i2 = i2, i1
        x1, y1 = xs[i1], ys[i1]
    x2, y2 = xs[i2], ys[i2]

    dx, dy = x1 - x0, y1 - y0
    ex, ey = x2 - x0, y2 - y0
    bl = dx * dx + dy * dy
    cl = ex * ex + ey * ey
    denominator = dx * ey - dy * ex
    ccx = ccy = math.inf
    if denominator != 0.0:
        d = 0.5 / denominator
        ccx = x0 + (ey * bl - dy * cl) * d
        ccy = y0 + (dx * cl - ex * bl) * d
    if not (math.isfinite(ccx) and math.isfinite(ccy)):
        ccx, ccy = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0
    order = sorted(range(n), key=lambda i: squared(i, ccx, ccy))

    hash_size = max(1, math.ceil(math.sqrt(n)))

    def hash_key(x: float, y: float) -> int:
        """Bucket of the point's pseudo-angle around the circumcentre."""
        dx, dy = x - ccx, y - ccy
        total = abs(dx) + abs(dy)
        if total == 0.0:
            return 0
        p = dx / total
        angle = (3.0 - p if dy > 0.0 else 1.0 + p) / 4.0
        return int(angle * hash_size) % hash_size

    hull_prev = [0] * n
    hull_next = [0] * n
    hull_tri = [0] * n
    hull_hash = [-1] * hash_size
    hull_next[i0] = hull_prev[i2] = i1
    hull_next[i1] = hull_prev[i0] = i2
    hull_next[i2] = hull_prev[i1] = i0
    hull_tri[i0], hull_tri[i1], hull_tri[i2] = 0, 1, 2
    hull_hash[hash_key(x0, y0)] = i0
    hull_hash[hash_key(x1, y1)] = i1
    hull_hash[hash_key(x2, y2)] = i2
    hull_start = i0

    triangles: List[int] = []
    halfedges: List[int] = []

    def add_triangle(a: int, b: int, c: int, ha: int, hb: int, hc: int) -> int:
        t = len(triangles)
        triangles.extend((a, b, c))
        halfedges.extend((ha, hb, hc))
        if ha != -1:
            halfedges[ha] = t
        if hb != -1:
            halfedges[hb] = t + 1
        if hc != -1:
            halfedges[hc] = t + 2
        return t

    def legalize(a: int) -> int:
        """Flip half-edge ``a`` and those it exposes until every one is
        locally Delaunay; returns the half-edge left on the hull side."""
        stack: List[int] = []
        while True:
            b = halfedges[a]
            a0 = a - a % 3
            ar = a0 + (a + 2) % 3
            if b == -1:
                if not stack:
                    return ar
                a = stack.pop()
                continue
            b0 = b - b % 3
            al = a0 + (a + 1) % 3
            bl = b0 + (b + 2) % 3
            p0, pr, pl, p1 = triangles[ar], triangles[a], triangles[al], triangles[bl]
            # _in_circle's floating-point filter, inlined (the hot path);
            # an undecided determinant goes to _in_circle's exact sign.
            px, py = xs[p1], ys[p1]
            adx, ady = xs[p0] - px, ys[p0] - py
            bdx, bdy = xs[pr] - px, ys[pr] - py
            cdx, cdy = xs[pl] - px, ys[pl] - py
            bc, cb = bdx * cdy, cdx * bdy
            ca, ac = cdx * ady, adx * cdy
            ab, ba = adx * bdy, bdx * ady
            alift = adx * adx + ady * ady
            blift = bdx * bdx + bdy * bdy
            clift = cdx * cdx + cdy * cdy
            det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
            bound = _INCIRCLE_BOUND * (
                (abs(bc) + abs(cb)) * alift
                + (abs(ca) + abs(ac)) * blift
                + (abs(ab) + abs(ba)) * clift
            )
            size = abs(det)
            if size > bound and size > _UNDERFLOW:
                inside = det < 0.0
            else:
                inside = _in_circle(
                    xs[p0], ys[p0], xs[pr], ys[pr], xs[pl], ys[pl], px, py
                )
            if inside:
                triangles[a] = p1
                triangles[b] = p0
                hbl = halfedges[bl]
                if hbl == -1:
                    # The flipped edge was a hull edge: repoint its entry.
                    e = hull_start
                    while True:
                        if hull_tri[e] == bl:
                            hull_tri[e] = a
                            break
                        e = hull_prev[e]
                        if e == hull_start:
                            break
                halfedges[a] = hbl
                if hbl != -1:
                    halfedges[hbl] = a
                har = halfedges[ar]
                halfedges[b] = har
                if har != -1:
                    halfedges[har] = b
                halfedges[ar] = bl
                halfedges[bl] = ar
                stack.append(b0 + (b + 1) % 3)
            else:
                if not stack:
                    return ar
                a = stack.pop()

    def insert_within(i: int) -> None:
        """Insert point ``i``, which sees no hull edge: rounding in the
        distance order let it fall inside the hull or onto its boundary.
        Split the triangle holding it (or the one or two triangles sharing
        the edge it lies on) and legalize the edges facing it; a point on
        a vertex is a duplicate and stays out."""
        x, y = xs[i], ys[i]
        for t in range(0, len(triangles), 3):
            a, b, c = triangles[t], triangles[t + 1], triangles[t + 2]
            sides = (
                _orient(xs[a], ys[a], xs[b], ys[b], x, y),
                _orient(xs[b], ys[b], xs[c], ys[c], x, y),
                _orient(xs[c], ys[c], xs[a], ys[a], x, y),
            )
            if min(sides) < 0:
                continue
            if sides.count(0) > 1:
                return
            if 0 not in sides:
                ha, hb, hc = halfedges[t], halfedges[t + 1], halfedges[t + 2]
                triangles[t + 2] = i
                t1 = add_triangle(b, c, i, hb, -1, t + 1)
                t2 = add_triangle(c, a, i, hc, t + 2, t1 + 1)
                if hb == -1:
                    hull_tri[b] = t1
                if hc == -1:
                    hull_tri[c] = t2
                for edge in (t, t1, t2):
                    legalize(edge)
                return
            # On the edge a -> b of this triangle, c opposite.
            e = t + sides.index(0)
            e_next = t + (e - t + 1) % 3
            e_prev = t + (e - t + 2) % 3
            a, b, c = triangles[e], triangles[e_next], triangles[e_prev]
            h = halfedges[e]
            hbc = halfedges[e_next]
            triangles[e_next] = i
            t1 = add_triangle(i, b, c, h, hbc, e_next)
            if hbc == -1:
                hull_tri[b] = t1 + 1
            if h == -1:
                # A hull edge: i joins the hull between a and b.
                hull_next[a] = hull_prev[b] = i
                hull_prev[i], hull_next[i] = a, b
                hull_tri[a] = e
                hull_hash[hash_key(x, y)] = i
                legalize(e_prev)
                # Flips move the hull edge i -> b; legalize returns it,
                # as for a point the sweep adds.
                hull_tri[i] = legalize(t1 + 1)
                return
            h0 = h - h % 3
            h_next = h0 + (h + 1) % 3
            h_prev = h0 + (h + 2) % 3
            d = triangles[h_prev]
            had = halfedges[h_next]
            triangles[h_next] = i
            t3 = add_triangle(i, a, d, e, had, h_next)
            if had == -1:
                hull_tri[a] = t3 + 1
            for edge in (e_prev, t1 + 1, h_prev, t3 + 1):
                legalize(edge)
            return

    add_triangle(i0, i1, i2, -1, -1, -1)
    xp = yp = math.nan
    for i in order:
        x, y = xs[i], ys[i]
        if x == xp and y == yp:
            continue
        xp, yp = x, y
        if i == i0 or i == i1 or i == i2:
            continue

        # A hull edge the point sees, found from the hash of its angle.
        key = hash_key(x, y)
        start = 0
        for j in range(hash_size):
            start = hull_hash[(key + j) % hash_size]
            if start != -1 and start != hull_next[start]:
                break
        start = hull_prev[start]
        e = start
        # The three hull walks inline _orient's floating-point filter (the
        # hot path); an undecided sign goes to _orient's exact one.
        while True:
            q = hull_next[e]
            qx, qy = xs[q], ys[q]
            left = (y - qy) * (xs[e] - qx)
            right = (x - qx) * (ys[e] - qy)
            det = left - right
            size = abs(det)
            if not (size > _ORIENT_BOUND * abs(left + right) and size > _UNDERFLOW):
                det = _orient(x, y, xs[e], ys[e], qx, qy)
            if det < 0:
                break
            e = q
            if e == start:
                e = -1
                break
        if e == -1:
            insert_within(i)
            continue

        t = add_triangle(e, i, hull_next[e], -1, -1, hull_tri[e])
        hull_tri[i] = legalize(t + 2)
        hull_tri[e] = t

        # Fan forward, then backward, over the other visible hull edges.
        m = hull_next[e]
        while True:
            q = hull_next[m]
            qx, qy = xs[q], ys[q]
            left = (y - qy) * (xs[m] - qx)
            right = (x - qx) * (ys[m] - qy)
            det = left - right
            size = abs(det)
            if not (size > _ORIENT_BOUND * abs(left + right) and size > _UNDERFLOW):
                det = _orient(x, y, xs[m], ys[m], qx, qy)
            if not det < 0:
                break
            t = add_triangle(m, i, q, hull_tri[i], -1, hull_tri[m])
            hull_tri[i] = legalize(t + 2)
            hull_next[m] = m  # removed from the hull
            m = q
        if e == start:
            while True:
                q = hull_prev[e]
                hx, hy = xs[e], ys[e]
                left = (y - hy) * (xs[q] - hx)
                right = (x - hx) * (ys[q] - hy)
                det = left - right
                size = abs(det)
                if not (size > _ORIENT_BOUND * abs(left + right) and size > _UNDERFLOW):
                    det = _orient(x, y, xs[q], ys[q], hx, hy)
                if not det < 0:
                    break
                t = add_triangle(q, i, e, -1, hull_tri[e], hull_tri[q])
                legalize(t + 2)
                hull_tri[q] = t
                hull_next[e] = e
                e = q

        hull_start = hull_prev[i] = e
        hull_next[e] = hull_prev[m] = i
        hull_next[i] = m
        hull_hash[hash_key(x, y)] = i
        hull_hash[hash_key(xs[e], ys[e])] = e
    return triangles


def delaunay_edges(xs: Sequence[float], ys: Sequence[float]) -> List[Tuple[int, int]]:
    """Sorted ``(u, v)`` pairs, ``u < v``, of the Delaunay triangulation."""
    triangles = _triangulate(xs, ys)
    edges = set()
    for t in range(0, len(triangles), 3):
        a, b, c = triangles[t], triangles[t + 1], triangles[t + 2]
        edges.add((a, b) if a < b else (b, a))
        edges.add((b, c) if b < c else (c, b))
        edges.add((a, c) if a < c else (c, a))
    return sorted(edges)


class _UnionFind:
    """Disjoint sets for Kruskal's spanning-tree construction."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def road_network(
    num_nodes: int,
    edge_ratio: float,
    *,
    seed: int = 0,
    extent: float = 1000.0,
    clusters: int = 0,
    weight_noise: float = 0.25,
    metric: str = "distance",
) -> RoadNetwork:
    """Generate a connected synthetic road network.

    Parameters
    ----------
    num_nodes:
        Number of road intersections (>= 3 for triangulation).
    edge_ratio:
        Target ``num_edges / num_nodes`` — 1.02 for continental highway
        meshes up to ~1.9 for dense grids.  Clamped to what the Delaunay
        triangulation can supply (≈ 3).
    seed:
        RNG seed; identical parameters and seed reproduce the same network.
    extent:
        Side length of the square region nodes are placed in.
    clusters:
        If positive, points are drawn around this many Gaussian "city"
        centres instead of uniformly (continent-scale networks are clumpy).
    weight_noise:
        Edge distance is Euclidean length times ``1 + U(0, weight_noise)``,
        so network distance dominates straight-line distance (the Euclidean
        lower bound of Section 2 holds) without being equal to it.
    metric:
        Metric label stored on the returned network.
    """
    if num_nodes < 3:
        raise GeneratorError("need at least 3 nodes for a triangulated network")
    if edge_ratio < 1.0 - 1.0 / num_nodes:
        raise GeneratorError("edge_ratio below spanning-tree density")
    rng = LegacyRandomState(seed)

    # Coordinates interleaved (x0, y0, x1, y1, ...): numpy's (n, 2) order.
    if clusters > 0:
        centres = rng.uniform(0.1 * extent, 0.9 * extent, size=2 * clusters)
        assignment = rng.randint(0, clusters, size=num_nodes)
        sigma = extent / (2.0 * math.sqrt(clusters))
        offsets = rng.normal(0.0, sigma, size=2 * num_nodes)
        coords = []
        for i, centre in enumerate(assignment):
            for axis in (0, 1):
                value = centres[2 * centre + axis] + offsets[2 * i + axis]
                value = value if value > 0.0 else 0.0
                coords.append(value if value < extent else extent)
    else:
        coords = rng.uniform(0.0, extent, size=2 * num_nodes)
    # Delaunay merges coincident points (clipping creates them), which would
    # leave isolated nodes; spread everything slightly apart.
    jitter = rng.uniform(-1e-4 * extent, 1e-4 * extent, size=2 * num_nodes)
    coords = [value + shift for value, shift in zip(coords, jitter)]
    xs, ys = coords[0::2], coords[1::2]
    # Every temporary goes as soon as it is spent: the generation high-water
    # mark is the serving process's memory floor.
    del coords, jitter

    edges = delaunay_edges(xs, ys)
    lengths = [glibc_hypot(xs[u] - xs[v], ys[u] - ys[v]) for u, v in edges]

    # Spanning tree first (connectivity), then the shortest remaining
    # Delaunay edges until the target count is reached: short links dominate
    # real road networks.  The sort is stable, so equal lengths keep the
    # triangulation's edge order.
    uf = _UnionFind(num_nodes)
    chosen: List[Tuple[int, int, float]] = []
    rest: List[int] = []
    for i in sorted(range(len(edges)), key=lengths.__getitem__):
        u, v = edges[i]
        if uf.union(u, v):
            chosen.append((u, v, lengths[i]))
        else:
            rest.append(i)
    target_edges = int(round(edge_ratio * num_nodes))
    target_edges = max(target_edges, len(chosen))
    extra_needed = min(target_edges - len(chosen), len(rest))
    chosen.extend((*edges[i], lengths[i]) for i in rest[:extra_needed])
    del edges, lengths, rest, uf

    network = RoadNetwork(metric=metric)
    for node_id in range(num_nodes):
        network.add_node(node_id, xs[node_id], ys[node_id])
    del xs, ys
    for u, v, length in chosen:
        noise = 1.0 + rng.uniform(0.0, weight_noise)
        network.add_edge(u, v, max(length * noise, 1e-9))
    del chosen
    _repair_connectivity(network)
    # Real road datasets number intersections with strong spatial locality
    # (consecutive ids are near each other); reproduce that so id-keyed
    # indexes (B+-trees) see the same access locality as on the real files.
    return _relabel_by_bfs(network)


def _relabel_by_bfs(network: RoadNetwork) -> RoadNetwork:
    """Renumber nodes in breadth-first order from a corner node.

    ``network`` is emptied on the way (see :meth:`RoadNetwork.drain_edges`):
    the two adjacencies are never held in full at once.  The new network
    gets its edges in the old one's :meth:`RoadNetwork.edges` order.
    """
    from collections import deque

    start = min(
        network.node_ids(),
        key=lambda n: (network.coords(n)[0] + network.coords(n)[1], n),
    )
    order: List[int] = []
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbour, _ in sorted(network.neighbours(node)):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    for node in network.node_ids():  # unreachable safety net
        if node not in seen:
            seen.add(node)
            order.append(node)
    del seen
    mapping = {old: new for new, old in enumerate(order)}
    relabelled = RoadNetwork(metric=network.metric)
    for old in order:
        x, y = network.coords(old)
        relabelled.add_node(mapping[old], x, y)
    del order
    for u, v, distance in network.drain_edges():
        relabelled.add_edge(mapping[u], mapping[v], distance)
    return relabelled


def _repair_connectivity(network: RoadNetwork) -> None:
    """Link stray components (degenerate Delaunay merges) to the main one."""
    components = network.components()
    if len(components) <= 1:
        return
    components.sort(key=len, reverse=True)
    main = components[0]
    for comp in components[1:]:
        best: Optional[Tuple[float, int, int]] = None
        for u in comp:
            ux, uy = network.coords(u)
            for v in main:
                vx, vy = network.coords(v)
                d = math.hypot(ux - vx, uy - vy)
                if best is None or d < best[0]:
                    best = (d, u, v)
        assert best is not None
        network.add_edge(best[1], best[2], max(best[0], 1e-9))
        main |= comp


def ca_like(num_nodes: int = 2100, seed: int = 7) -> RoadNetwork:
    """California-highway-like network (edge/node ratio ≈ 1.031).

    Default size is a 1:10 scale of the paper's 21,048-node CA network; pass
    ``num_nodes=21048`` for the full-scale equivalent.
    """
    return road_network(num_nodes, 1.031, seed=seed, clusters=0)


def na_like(num_nodes: int = 8000, seed: int = 11) -> RoadNetwork:
    """North-America-highway-like network (ratio ≈ 1.019, clustered)."""
    return road_network(num_nodes, 1.019, seed=seed, clusters=12)


def sf_like(num_nodes: int = 8000, seed: int = 13) -> RoadNetwork:
    """San-Francisco-street-like network (dense urban, ratio ≈ 1.275)."""
    return road_network(num_nodes, 1.275, seed=seed, clusters=0)


def grid_network(
    rows: int,
    cols: int,
    *,
    spacing: float = 100.0,
    seed: int = 0,
    jitter: float = 0.15,
    removal_prob: float = 0.0,
    metric: str = "distance",
) -> RoadNetwork:
    """Perturbed rectangular street grid (Manhattan-style test fixture).

    Grid networks make Rnet partitions and shortcut paths easy to reason
    about in tests; ``removal_prob`` knocks out random non-bridge edges to
    create irregular blocks while keeping the network connected.
    """
    if rows < 2 or cols < 2:
        raise GeneratorError("grid needs at least 2x2 nodes")
    rng = LegacyRandomState(seed)
    network = RoadNetwork(metric=metric)

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            dx = rng.uniform(-jitter, jitter) * spacing
            dy = rng.uniform(-jitter, jitter) * spacing
            network.add_node(node_id(r, c), c * spacing + dx, r * spacing + dy)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                u, v = node_id(r, c), node_id(r, c + 1)
                network.add_edge(u, v, max(network.euclidean(u, v), 1e-9))
            if r + 1 < rows:
                u, v = node_id(r, c), node_id(r + 1, c)
                network.add_edge(u, v, max(network.euclidean(u, v), 1e-9))

    if removal_prob > 0.0:
        candidates = [(u, v) for u, v, _ in network.edges()]
        rng.shuffle(candidates)
        limit = int(len(candidates) * removal_prob)
        for u, v in candidates[:limit]:
            distance = network.remove_edge(u, v)
            if not network.connected():
                network.add_edge(u, v, distance)
    return network


def chain_network(
    num_nodes: int, *, spacing: float = 100.0, metric: str = "distance"
) -> RoadNetwork:
    """Path graph n0 - n1 - ... — the running example of Figure 8."""
    if num_nodes < 2:
        raise GeneratorError("chain needs at least 2 nodes")
    network = RoadNetwork(metric=metric)
    for i in range(num_nodes):
        network.add_node(i, i * spacing, 0.0)
    for i in range(num_nodes - 1):
        network.add_edge(i, i + 1, spacing)
    return network


def travel_time_metric(
    network: RoadNetwork, *, seed: int = 0, speed_range: Tuple[float, float] = (20.0, 120.0)
) -> RoadNetwork:
    """Reweight a network from length to travel time.

    Each edge gets a random road speed, so travel time is *not* bounded
    below by Euclidean distance — the situation where Euclidean-bound
    approaches are "not always applicable" (Sections 1–2) while ROAD's
    shortcuts simply carry the new metric.
    """
    rng = LegacyRandomState(seed)
    lo, hi = speed_range
    if lo <= 0 or hi < lo:
        raise GeneratorError("invalid speed range")
    timed = RoadNetwork(metric="travel_time")
    for node_id in network.node_ids():
        x, y = network.coords(node_id)
        timed.add_node(node_id, x, y)
    for u, v, distance in network.edges():
        speed = rng.uniform(lo, hi)
        timed.add_edge(u, v, distance / speed)
    return timed
