"""The sort-and-sweep self-intersection guard against the all-pairs one.

The oracle (tests/oracles.py) is the guard as it stood before the sweep:
every one of the n^2/2 segment pairs, a bounding-box prefilter and a
per-pair touch loop.  The polylines mix generic ones with the hard cases
of a sweep over x: small integer grids (collinear overlaps, endpoint
touches, determinants the floating filter cannot certify), vertical
segments and ties in low x, repeated vertices, simple star-shaped
polygons, the closed wrap pair and a duplicated closing landmark.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shapetensors.cst import cst_airfoil
from shapetensors.errors import ContractError
from shapetensors.intersect import (
    _candidate_pairs,
    _orient_signs,
    orient_exact,
    self_intersects,
)
from shapetensors.shapes import LandmarkShape

PROPERTY = settings(max_examples=150, deadline=None)
CASES = ("random", "grid", "vertical", "repeated", "star")

seeds = st.integers(0, 2**32 - 1)


def _polyline(rng, case, n):
    if case == "random":
        return rng.standard_normal((n, 2))
    if case == "grid":
        return rng.integers(-3, 4, size=(n, 2)).astype(float)
    if case == "vertical":
        # x steps of 0 or 1: vertical segments, ties in low x, and a walk
        # that is simple unless a vertical run doubles back or stalls
        return np.column_stack(
            [np.cumsum(rng.random(n) > 0.25), rng.integers(-2, 3, size=n)]
        ).astype(float)
    if case == "repeated":
        pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
        return np.repeat(pts, rng.integers(1, 3, size=n), axis=0)
    # star-shaped about the origin, so simple unless a vertex was moved
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.5, 1.0, n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    if rng.integers(2):
        pts[rng.integers(n)] = rng.uniform(-1.0, 1.0, 2)
    return pts


def _segments(shape):
    pts = shape.x
    if shape.closed and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    if shape.closed:
        return pts, np.roll(pts, -1, axis=0)
    return pts[:-1], pts[1:]


@PROPERTY
@given(seed=seeds, case=st.sampled_from(CASES), n=st.integers(3, 40),
       closed=st.booleans(), duplicate=st.booleans())
def test_guard_equals_all_pairs_oracle(seed, case, n, closed, duplicate):
    rng = np.random.default_rng(seed)
    pts = _polyline(rng, case, n)
    if closed and duplicate:
        pts = np.vstack([pts, pts[:1]])
    shape = LandmarkShape(pts, closed=closed)
    assert self_intersects(shape) == oracles.self_intersects(shape)
    if not closed:
        assert self_intersects(pts) == oracles.self_intersects(pts)

    # the sweep yields exactly the pairs whose bounding boxes overlap
    starts, ends = _segments(shape)
    lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
    i, j = _candidate_pairs(starts, ends)
    got = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    a, b = np.triu_indices(len(starts), k=1)
    overlap = np.all((lo[a] <= hi[b]) & (lo[b] <= hi[a]), axis=1)
    assert got == list(zip(a[overlap].tolist(), b[overlap].tolist()))


@PROPERTY
@given(seed=seeds, case=st.sampled_from(("grid", "random")),
       n=st.integers(3, 30), closed=st.booleans(), k=st.integers(-1100, 1000))
def test_guard_verdict_is_scale_free(seed, case, n, closed, k):
    """Scaling by a power of two keeps the verdict, also where the
    orientation products overflow or fall below the normal range.  The
    scalings go down only as far as keeps every coordinate normal, so
    they are exact."""
    rng = np.random.default_rng(seed)
    pts = _polyline(rng, case, n)
    nonzero = np.abs(pts[pts != 0.0])
    # x * 2**e stays normal for e >= -1021 - frexp(x) exponent
    lowest = -1021 - int(np.frexp(nonzero.min())[1]) if nonzero.size else k
    exponents = (max(k, lowest), 1000, lowest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = self_intersects(LandmarkShape(pts, closed=closed))
        for e in exponents:
            assert self_intersects(LandmarkShape(pts * 2.0**e, closed=closed)) == want


# Segments 0 and 4 cross, yet the orientation products underflow into
# the subnormal range, below a purely relative filter bound.
PINNED_TINY = np.array([
    [-4.888715454990937e-156, 9.685283558970632e-155],
    [-2.277359477480282e-162, 2.2128766025949135e-159],
    [3.8740248857505545e-154, 1.955706558712843e-155],
    [4.35585871723736e-154, 2.6794278032452584e-155],
    [4.818338087132108e-155, 7.239425321926751e-156],
    [-2.419304852307804e-157, 4.795068733111021e-156],
])


def test_guard_is_exact_where_orientation_products_underflow():
    assert oracles.self_intersects_exact(PINNED_TINY)
    for e in (0, 300, 600):
        assert self_intersects(np.ldexp(PINNED_TINY, e))


@PROPERTY
@given(seed=seeds, base=st.integers(-520, -508))
def test_orientation_signs_are_exact_on_tiny_nearly_collinear_triples(seed, base):
    """Near 2**-514 the orientation products of these triples are
    subnormal and their float determinant is a few units of rounding."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 200, 2))
    c = a + rng.uniform(-2.0, 2.0, (200, 1)) * (b - a)
    a, b, c = (np.ldexp(x, base) for x in (a, b, c))
    want = [orient_exact(*p, *q, *r)
            for p, q, r in zip(a.tolist(), b.tolist(), c.tolist())]
    assert _orient_signs(a, b, c).tolist() == want


@PROPERTY
@given(seed=seeds, case=st.sampled_from(CASES), n=st.integers(3, 12),
       closed=st.booleans(), base=st.integers(-600, -460),
       spread=st.integers(0, 64))
def test_guard_equals_exact_oracle_at_tiny_and_mixed_scales(seed, case, n, closed,
                                                            base, spread):
    """Coordinates at 2**base, each scaled by its own power of two up to
    2**spread, where orientation products underflow."""
    rng = np.random.default_rng(seed)
    pts = _polyline(rng, case, n)
    pts = np.ldexp(pts, base + rng.integers(0, spread + 1, size=pts.shape))
    shape = LandmarkShape(pts, closed=closed)
    assert self_intersects(shape) == oracles.self_intersects_exact(shape)


@PROPERTY
@given(seed=seeds, case=st.sampled_from(CASES), n=st.integers(3, 12),
       closed=st.booleans())
def test_exact_oracle_equals_all_pairs_oracle(seed, case, n, closed):
    shape = LandmarkShape(_polyline(np.random.default_rng(seed), case, n),
                          closed=closed)
    assert oracles.self_intersects_exact(shape) == oracles.self_intersects(shape)


# (points, closed): degenerate polylines where a single rule decides
EDGE_CASES = [
    ([(0, 0), (0, 0), (0, 0)], False),  # three equal landmarks
    ([(0, 0), (0, 0), (0, 0)], True),
    ([(0, 0), (1, 0), (0, 0)], True),  # two landmarks after the duplicate
    ([(0, 0), (2, 0), (1, 0)], True),  # collinear triangles fold back
    ([(2, 0), (1, 0), (0, 0)], True),
    ([(1, 0), (0, 0), (2, 0)], True),
    ([(0, 0), (1, 0), (2, 0)], False),  # straight, no fold
    ([(0, 0), (2, 0), (2, 1), (1, 0)], False),  # end on an earlier segment
    ([(1, 0), (1, 1), (0, 0), (2, 0)], False),  # start on a later segment
    ([(0, 0), (2, 0), (2, 1), (3, 0)], False),  # end on an earlier segment's line
    ([(0, 0), (2, 0), (2, 1), (0, 1), (0, 0)], True),  # square, duplicated close
    ([(0, 0), (2, 0), (1, 0), (1, 1)], False),  # interior fold-back
    ([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 1)], False),  # revisit
]


@pytest.mark.parametrize("pts, closed", EDGE_CASES)
def test_guard_equals_oracle_on_edge_cases(pts, closed):
    # each case also reversed, mirrored in x (which reverses the sweep
    # order) and, when closed, started at every landmark
    pts = np.array(pts, dtype=float)
    variants = [pts, pts[::-1], pts * (-1.0, 1.0), pts[::-1] * (-1.0, 1.0)]
    if closed:
        variants += [np.roll(pts, r, axis=0) for r in range(1, len(pts))]
    for v in variants:
        shape = LandmarkShape(v, closed=closed)
        want = oracles.self_intersects_exact(shape)
        assert self_intersects(shape) == oracles.self_intersects(shape) == want, v


def test_overflowing_orientation_goes_exact():
    # both products overflow, so the determinant is inf - inf = NaN
    a, b, c = np.zeros((1, 2)), np.array([[3.0, 1.0]]), np.array([[1.0, 3.0]])
    for scale in (2.0**1000, -(2.0**1000)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(_orient_signs(a, b * scale, c * scale)) == [1]
            assert list(_orient_signs(a, c * scale, b * scale)) == [-1]

    # a bowtie and a square at 2**1000, where orientation products overflow
    bowtie = np.array([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    for scale in (1.0, 2.0**1000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self_intersects(LandmarkShape(bowtie * scale, closed=True))
            assert not self_intersects(
                LandmarkShape(bowtie[[0, 2, 1, 3]] * scale, closed=True)
            )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_guard_refuses_non_finite_landmarks(bad):
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    pts[2, 1] = bad
    with pytest.raises(ContractError, match="finite"):
        self_intersects(pts)


def test_candidate_pairs_stay_linear_on_an_airfoil():
    # all-pairs would be n^2/2 = 2e6 pairs here
    n = 2000
    upper = [0.17, 0.16, 0.2, 0.15, 0.22, 0.18, 0.2, 0.19, 0.16]
    lower = [0.12, 0.1, 0.08, 0.1, 0.05, 0.08, 0.06, 0.07, 0.06]
    shape = cst_airfoil(upper, lower, n_c=n)
    assert not self_intersects(shape)
    starts, ends = _segments(shape)
    i, _ = _candidate_pairs(starts, ends)
    assert len(starts) - 1 <= i.size <= 10 * n
