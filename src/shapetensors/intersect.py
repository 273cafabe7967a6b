"""Self-intersection guard for landmark polylines.

Candidate segment pairs come from a sort-and-sweep over the segments'
x-intervals (the pruning step of Shamos-Hoey 1976): sorted by low x, each
segment meets only the run of successors whose low x is at most its high
x, and of those pairs only the ones whose y-intervals also overlap are
kept.  That is exactly the set of pairs whose bounding boxes overlap, in
about O(n log n + k) work for k such pairs instead of all n^2/2.  Their
orientation signs are evaluated in floating point with Shewchuk's forward
error bound plus an absolute term for products that underflow, and only
the signs the filter cannot certify (including products that overflow)
fall back to exact rational arithmetic (doubles convert to Fraction
losslessly), so the verdict is exact at every scale.  Any contact between
non-adjacent segments counts: proper crossings, endpoint touches and
collinear overlaps alike.  Adjacent segments legitimately share one vertex
and flag only a collinear fold-back.
"""

from fractions import Fraction

import numpy as np

from .shapes import LandmarkShape, _as_points

# Shewchuk's orient2d A-filter constant for doubles.
_ERRBOUND = 3.3306690738754716e-16
# Four units of the smallest subnormal, 4 * 2**-1074 (see _orient_signs).
_UNDERFLOW = 2.0**-1072


def orient_exact(ax, ay, bx, by, cx, cy):
    """Sign of the cross product (b - a) x (c - a), exactly."""
    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    return (det > 0) - (det < 0)


def _orient_signs(a, b, c):
    """Vectorized orientation signs with exact fallback.

    a, b, c are (m, 2) arrays of finite points; returns an (m,) int array
    of signs in {-1, 0, +1} that are exact for every entry.  A determinant
    that overflows (inf, or NaN from inf - inf) is never certified.

    The filter holds where products underflow.  Let e = 2**-53 and
    h = 2**-1075.  Round to nearest gives |fl(z) - z| <= e |fl(z)| for a
    sum or difference of doubles (exact when subnormal) and
    <= e |fl(z)| + h for a product.  Each factor of ``left`` is within
    e |factor| of its exact difference, so ``left`` is within
    (3e + 3e^2 + e^3) |left| + (1 + e)^2 h of its exact product, and
    likewise ``right``.  With S = |left| + |right| and D the exact determinant,
    |det - D| <= e |det| + (3e + 3e^2 + e^3) S + 2 (1 + e)^2 h, which is
    below |det| once (1 - e) |det| exceeds the other two terms.  The
    computed ``bound`` is at least (1 - e)^3 _ERRBOUND S + 7 (1 - e) h:
    three roundings, one of which can lose h to underflow, and
    _UNDERFLOW = 8 h.  As _ERRBOUND = 3e + 16e^2, (1 - e) ``bound``
    exceeds both terms, so |det| > bound certifies sign(det) = sign(D).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        det = left - right
        bound = _ERRBOUND * (np.abs(left) + np.abs(right)) + _UNDERFLOW
        unsure = ~(np.abs(det) > bound)
        signs = np.where(unsure, 0.0, np.sign(det)).astype(int)
    for k in np.flatnonzero(unsure):
        signs[k] = orient_exact(
            a[k, 0], a[k, 1], b[k, 0], b[k, 1], c[k, 0], c[k, 1]
        )
    return signs


def _on_segment(p, q, r):
    """Row-wise: is r inside the bounding box of collinear segment pq?"""
    return np.all(
        (np.minimum(p, q) <= r) & (r <= np.maximum(p, q)), axis=1
    )


def _candidate_pairs(starts, ends):
    """Index pairs (i, j), i != j, of the segments whose bounding boxes
    overlap, each unordered pair once."""
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    order = np.argsort(lo[:, 0], kind="stable")
    lo_x = lo[order, 0]
    # sorted successors of position p with low x <= its high x: p+1 .. stop-1
    stop = np.searchsorted(lo_x, hi[order, 0], side="right")
    counts = stop - np.arange(1, order.size + 1)
    first = np.repeat(np.arange(order.size), counts)
    run_start = np.cumsum(counts) - counts
    second = first + 1 + np.arange(first.size) - np.repeat(run_start, counts)
    i, j = order[first], order[second]
    keep = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1])
    return i[keep], j[keep]


def _folds_back(first, shared, other):
    """Does a pair of adjacent segments meeting at ``shared`` fold back
    onto itself (the three points collinear, ``first`` and ``other`` on the
    same side of ``shared``)?"""
    collinear = _orient_signs(first, shared, other) == 0
    with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
        same_side = np.any(
            np.sign(first - shared) * np.sign(other - shared) > 0, axis=1
        )
    return bool(np.any(collinear & (same_side | np.all(first == other, axis=1))))


def self_intersects(shape):
    """True iff any two non-adjacent segments of the polyline intersect.

    Closed shapes are treated cyclically (a duplicated final landmark is
    dropped first).  Conservative by design: touching counts.  Non-finite
    landmarks raise ContractError.
    """
    pts = _as_points(shape)
    closed = isinstance(shape, LandmarkShape) and shape.closed
    if closed and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    if closed:
        starts = pts
        ends = np.roll(pts, -1, axis=0)
    else:
        starts = pts[:-1]
        ends = pts[1:]
    nseg = starts.shape[0]
    if nseg < 2:
        return False

    # adjacent pairs (i, i + 1) share ends[i] == starts[i + 1]; the closed
    # wrap pair (0, nseg - 1) shares starts[0] == ends[-1]
    first, shared, other = starts[:-1], ends[:-1], ends[1:]
    if closed and nseg > 2:
        first = np.vstack([first, ends[:1]])
        shared = np.vstack([shared, starts[:1]])
        other = np.vstack([other, starts[-1:]])
    if _folds_back(first, shared, other):
        return True

    i, j = _candidate_pairs(starts, ends)
    gap = np.abs(i - j)
    adjacent = gap == 1
    if closed:
        adjacent |= gap == nseg - 1
    i, j = i[~adjacent], j[~adjacent]
    if i.size == 0:
        return False
    p1, p2 = starts[i], ends[i]
    p3, p4 = starts[j], ends[j]

    d1 = _orient_signs(p3, p4, p1)
    d2 = _orient_signs(p3, p4, p2)
    d3 = _orient_signs(p1, p2, p3)
    d4 = _orient_signs(p1, p2, p4)

    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    if np.any(proper):
        return True

    # touches and collinear overlaps: an endpoint on the other segment
    touch = (
        ((d1 == 0) & _on_segment(p3, p4, p1))
        | ((d2 == 0) & _on_segment(p3, p4, p2))
        | ((d3 == 0) & _on_segment(p1, p2, p3))
        | ((d4 == 0) & _on_segment(p1, p2, p4))
    )
    return bool(np.any(touch))
