"""The stdlib triangulation against the definition of a Delaunay one.

:func:`repro.graph.generators.delaunay_edges` replaces scipy's Qhull in
the network generators.  Here it is checked by brute force, in exact
integer arithmetic, on point sets hypothesis draws: every point is a
vertex, no point lies strictly inside a triangle's circumcircle, and a
triangulation of n points with h of them on the hull's boundary has
3n - 3 - h edges.  The draws lean on the degenerate cases: lattice points
(collinear runs, cocircular quadruples), points a hair off one line or
one circle, and the border bands the clustered profile makes when it clips points to the
square and jitters them apart.  Stdlib only.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.graph.generators import GeneratorError, _triangulate, delaunay_edges


def _exact(points):
    """Integer coordinates with the same geometry: every float is a
    multiple of the smallest power of two among them."""
    fractions = [(Fraction(x), Fraction(y)) for x, y in points]
    scale = max(
        [1] + [value.denominator for pair in fractions for value in pair]
    )
    return [(int(x * scale), int(y * scale)) for x, y in fractions]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_points(points):
    """Every point on the convex hull's boundary, collinear ones included
    (monotone chain that pops only on strict clockwise turns)."""
    ordered = sorted(set(points))

    def chain(sequence):
        kept = []
        for p in sequence:
            while len(kept) >= 2 and _cross(kept[-2], kept[-1], p) < 0:
                kept.pop()
            kept.append(p)
        return kept

    return set(chain(ordered)) | set(chain(reversed(ordered)))


def _strictly_inside(a, b, c, p):
    """p strictly inside the circumcircle of the triangle a, b, c."""
    rows = [(q[0] - p[0], q[1] - p[1]) for q in (a, b, c)]
    (adx, ady), (bdx, bdy), (cdx, cdy) = rows
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    orientation = _cross(a, b, c)
    return det * orientation > 0


def _near_circumcircle(points, corners):
    """Indices of the points the exact test must look at: all of them,
    unless the triangle is well shaped (its floating-point circumcentre
    is then accurate) and the point is clearly outside the circle, by a
    margin far above the rounding error."""
    (ax, ay), (bx, by), (cx, cy) = (points[v] for v in corners)
    bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
    denominator = 2.0 * (bx * cy - by * cx)
    if denominator == 0.0:
        return range(len(points))
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / denominator
    uy = (bx * c2 - cx * b2) / denominator
    radius2 = ux * ux + uy * uy
    longest = max(b2, c2, (bx - cx) ** 2 + (by - cy) ** 2)
    if not math.isfinite(radius2) or radius2 > 100.0 * longest:
        return range(len(points))
    limit = radius2 * (1.0 + 1e-6) + 1e-6
    return [
        i
        for i, (x, y) in enumerate(points)
        if (x - ax - ux) ** 2 + (y - ay - uy) ** 2 <= limit
    ]


def _check(points):
    """Triangulate ``points`` and hold the result to the definition."""
    assume(len(set(points)) == len(points))
    exact = _exact(points)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    triangles = _triangulate(xs, ys)
    n = len(points)

    assert set(triangles) == set(range(n)), "a point is not a vertex"

    for t in range(0, len(triangles), 3):
        corners = triangles[t : t + 3]
        a, b, c = (exact[v] for v in corners)
        assert _cross(a, b, c) != 0, "a triangle has no area"
        for i in _near_circumcircle(points, corners):
            assert i in corners or not _strictly_inside(a, b, c, exact[i]), (
                f"point {i} inside the circumcircle of {corners}"
            )

    h = len(_hull_points(exact))
    edges = delaunay_edges(xs, ys)
    assert len(edges) == 3 * n - 3 - h
    assert edges == sorted(set(edges))
    assert all(u < v for u, v in edges)


def _all_collinear(points):
    a, b = points[0], points[1]
    return all(_cross(a, b, p) == 0 for p in points[2:])


@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=3,
        max_size=150,
        unique=True,
    )
)
def test_lattice_points(points):
    """Collinear runs and cocircular quadruples everywhere."""
    assume(not _all_collinear(points))
    _check([(float(x), float(y)) for x, y in points])


@given(
    st.lists(st.floats(0.0, 1000.0), min_size=3, max_size=150, unique=True),
    st.lists(st.integers(-3, 3), min_size=150, max_size=150),
    st.floats(-2.0, 2.0),
    st.floats(-100.0, 100.0),
)
@example(  # a point inserted on a hull edge, then a flip moving that edge
    xs=[3.0, 4.0, 5.0, 9.0, 14.0, 1.5, 8.0, 0.5, 1.0, 2.0, 2.5, 6.0, 0.0],
    offsets=[0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, -1, -2],
    slope=0.0,
    intercept=0.0,
)
def test_near_collinear_points(xs, offsets, slope, intercept):
    """Points on one line, some nudged off it by a few units in 1e-9."""
    points = [
        (x, slope * x + intercept + 1e-9 * offset) for x, offset in zip(xs, offsets)
    ]
    points = list(dict.fromkeys(points))
    assume(len(points) >= 3 and not _all_collinear(_exact(points)))
    _check(points)


@given(
    st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=150, unique=True),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, 1e3),
)
def test_near_cocircular_points(angles, radius, centre):
    """Points rounded off one circle: every in-circle decision is within
    rounding of zero, so only an exact predicate gets them right."""
    points = [
        (centre + radius * math.cos(angle), centre + radius * math.sin(angle))
        for angle in angles
    ]
    points = list(dict.fromkeys(points))
    assume(len(points) >= 3 and not _all_collinear(_exact(points)))
    _check(points)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 150),
    st.integers(1, 4),
)
def test_clipped_border_bands(seed, n, clusters):
    """The clustered profile's shape: Gaussian clusters clipped to the
    square pile points on its border, and the jitter spreads them into
    thin bands."""
    rnd = random.Random(seed)
    extent = 1000.0
    jitter = 1e-4 * extent
    centres = [
        (rnd.uniform(0.0, extent), rnd.uniform(0.0, extent)) for _ in range(clusters)
    ]
    points = []
    for _ in range(n):
        cx, cy = rnd.choice(centres)
        x = min(max(rnd.gauss(cx, extent), 0.0), extent)
        y = min(max(rnd.gauss(cy, extent), 0.0), extent)
        points.append(
            (x + rnd.uniform(-jitter, jitter), y + rnd.uniform(-jitter, jitter))
        )
    points = list(dict.fromkeys(points))
    _check(points)


def test_collinear_points_are_refused():
    with pytest.raises(GeneratorError):
        delaunay_edges([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])


def test_coincident_points_are_not_vertices():
    """A repeated point joins no triangle: the generator's jitter keeps
    its points apart, so the network never has such a node."""
    triangles = _triangulate([0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0])
    assert set(triangles) == {0, 1, 2} or set(triangles) == {0, 2, 3}
