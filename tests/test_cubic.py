"""The piecewise cubic kernels against scipy, which the library no longer
imports.

scipy's CubicSpline (natural, not-a-knot and periodic ends) and
PchipInterpolator are the references for values and first derivatives.
Knots may cluster (gaps down to 1e-3 of the others), values may be
scalars, vectors or 2x2 matrices, and every member of a stack has its
own knots.  The two solves round differently, and near clustered knots
the not-a-knot system is ill-conditioned for both (at gaps 1e-6 apart
both sit about 3e-5 from the exact rational solution), so the tolerance
grows with the spread of the gaps.  Below them: refinement of stacks against the per-shape
scipy refinement of tests/oracles.py, the refusals, and the CST
binomials against scipy's.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

import oracles
from shapetensors import cubic
from shapetensors.cst import bernstein_shape, cst_airfoil
from shapetensors.errors import ContractError, DegenerateGeometryError
from shapetensors.shapes import LandmarkShape, PreprocessConfig, refine

PROPERTY = settings(max_examples=40, deadline=None)
KINDS = ("natural", "not-a-knot", "periodic", "pchip")
VALUE_SHAPES = ((), (1,), (3,), (2, 2))
seeds = st.integers(0, 2**32 - 1)
# Relative to the largest reference value or derivative on the queries,
# per unit of max gap / min gap.
TOL = 1e-12


def draw(rng, kind, n, values, clustered, members=()):
    """Knots (*members, n) and values (*members, n, *values)."""
    gaps = rng.uniform(0.2, 1.0, members + (n - 1,))
    if clustered:
        gaps[rng.random(gaps.shape) < 0.3] *= 1e-3
    x = np.concatenate([np.zeros(members + (1,)), np.cumsum(gaps, axis=-1)],
                       axis=-1) + rng.uniform(-1.0, 1.0, members + (1,))
    y = rng.normal(size=x.shape + values)
    if kind == "periodic":
        knot = (slice(None),) * len(members)
        y[knot + (-1,)] = y[knot + (0,)]
    return x, y


def kernel(kind, x, y):
    return cubic.pchip(x, y) if kind == "pchip" else cubic.spline(x, y, kind)


def reference(kind, x, y):
    if kind == "pchip":
        return PchipInterpolator(x, y, axis=0)
    return CubicSpline(x, y, axis=0, bc_type=kind)


def queries(rng, x):
    """The knots, their midpoints and random points between the ends."""
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                           rng.uniform(x[0], x[-1], 30)])


def assert_matches(got, ref, s, x):
    gaps = np.diff(x)
    for nu in (0, 1):
        want = ref.derivative()(s) if nu else ref(s)
        scale = max(np.abs(want).max(), 1e-300) * gaps.max() / gaps.min()
        assert np.abs(got(s, nu) - want).max() <= TOL * scale, nu


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=seeds, n=st.integers(2, 24), values=st.sampled_from(VALUE_SHAPES),
       clustered=st.booleans())
def test_kernel_matches_scipy(kind, seed, n, values, clustered):
    rng = np.random.default_rng(seed)
    x, y = draw(rng, kind, n, values, clustered)
    assert_matches(kernel(kind, x, y), reference(kind, x, y), queries(rng, x), x)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("clustered", [False, True])
def test_not_a_knot_on_few_knots(n, clustered):
    """2 knots give the line, 3 the parabola, 4 the single cubic through
    them, as scipy's special cases do."""
    rng = np.random.default_rng(n)
    x, y = draw(rng, "not-a-knot", n, (2,), clustered)
    got = cubic.spline(x, y, "not-a-knot")
    assert_matches(got, reference("not-a-knot", x, y), queries(rng, x), x)
    s = queries(rng, x)
    poly = [np.polyfit(x, y[:, j], n - 1) for j in range(2)]
    fit = np.stack([np.polyval(p, s) for p in poly], axis=-1)
    assert np.abs(got(s) - fit).max() <= 1e-6 * np.abs(fit).max()


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=seeds, n=st.integers(2, 16), members=st.integers(1, 5),
       clustered=st.booleans())
def test_a_stack_equals_its_members(kind, seed, n, members, clustered):
    """A stacked call gives each member's own call bit for bit, and scipy's
    curve within tolerance."""
    rng = np.random.default_rng(seed)
    x, y = draw(rng, kind, n, (2,), clustered, members=(members,))
    stack = kernel(kind, x, y)
    s = rng.uniform(x.min(), x.max(), 25)
    for k in range(members):
        alone = kernel(kind, x[k], y[k])
        for nu in (0, 1):
            assert np.array_equal(stack(s, nu)[k], alone(s, nu))
        inside = queries(rng, x[k])
        assert_matches(lambda q, nu: stack(q, nu)[k], reference(kind, x[k], y[k]),
                       inside, x[k])


@pytest.mark.parametrize("spline", ["cubic-natural", "pchip"])
@pytest.mark.parametrize("closed", [False, True])
def test_refine_of_a_stack_matches_the_scipy_refinement(spline, closed):
    rng = np.random.default_rng(7)
    shapes = []
    for _ in range(12):
        pts = cst_airfoil(rng.uniform(0.05, 0.45, 9), rng.uniform(0.05, 0.45, 9),
                          n_c=61).x
        shapes.append(LandmarkShape(pts if closed else pts[:-1], closed=closed))
    cfg = PreprocessConfig(n=201, spline=spline, sampling="cosine")
    for got, shape in zip(refine(shapes, cfg), shapes):
        want = oracles.refine(shape, cfg)
        assert got.closed == closed
        assert np.abs(got.x - want.x).max() <= 1e-14
        if spline == "cubic-natural":  # periodic when closed: exactly closed
            assert np.array_equal(got.x[0], got.x[-1]) == closed


def test_refine_of_closed_shapes_that_repeat_their_first_landmark_or_not():
    """Closed members that repeat their first landmark at the end and
    members that do not are splined apart, each as scipy would; a refused
    member is named by its place in the whole stack."""
    rng = np.random.default_rng(11)
    shapes = []
    for k in range(6):
        pts = cst_airfoil(rng.uniform(0.05, 0.45, 9), rng.uniform(0.05, 0.45, 9),
                          n_c=62 - k % 2).x
        shapes.append(LandmarkShape(pts[:61], closed=True))  # odd k repeat
    cfg = PreprocessConfig(n=101)
    for got, shape in zip(refine(shapes, cfg), shapes):
        assert np.abs(got.x - oracles.refine(shape, cfg).x).max() <= 1e-14
    shapes[3] = LandmarkShape(np.vstack([shapes[3].x[:30], shapes[3].x[29:60]]),
                              closed=True)
    with pytest.raises(DegenerateGeometryError, match="index 29") as info:
        refine(shapes, cfg)
    assert info.value.index == (3,)


def test_refusals_name_the_member_and_warn_nothing():
    x = np.tile(np.linspace(0.0, 1.0, 5), (3, 1))
    y = np.zeros((3, 5, 2))
    bad_knots = x.copy()
    bad_knots[1, 2] = bad_knots[1, 1]
    huge = y.copy()
    huge[2, 2] = [1e308, -1e308]
    infinite = y.copy()
    infinite[1, 3, 0] = np.inf
    periodic = y.copy()
    periodic[2, -1, 1] = 1.0
    cases = [
        (lambda: cubic.spline(bad_knots, y), (1,), "strictly increasing"),
        (lambda: cubic.pchip(bad_knots, y), (1,), "strictly increasing"),
        (lambda: cubic.spline(x, infinite), (1,), "values must be finite"),
        (lambda: cubic.spline(x, huge), (2,), "slopes are not finite"),
        (lambda: cubic.spline(x, huge, "not-a-knot"), (2,), "slopes are not finite"),
        (lambda: cubic.pchip(x, huge), (2,), "slopes are not finite"),
        (lambda: cubic.spline(x, periodic, "periodic"), (2,),
         "equal first and last values"),
        (lambda: cubic.spline(x, y, "clamped"), (), "spline ends must be one of"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, index, words in cases:
            with pytest.raises(ContractError, match=words) as info:
                build()
            assert info.value.index == index


def test_bernstein_binomials_match_scipy_for_degrees_up_to_30():
    x = 0.5 * (np.cos(np.linspace(0.0, 2.0 * np.pi, 201)) + 1.0)
    rng = np.random.default_rng(30)
    for deg in range(31):
        coeff = rng.uniform(0.0, 0.45, deg + 1)
        assert np.array_equal(bernstein_shape(x, coeff),
                              oracles.bernstein_shape(x, coeff))
