import numpy as np
import pytest

from shapetensors.errors import ContractError, DegenerateGeometryError
from shapetensors.grassmann import GrassmannPoint, gr_distance
from shapetensors.shapes import (
    AffineFactor,
    LandmarkShape,
    PreprocessConfig,
    cumulative_lengths,
    l4_matrix,
    la_standardize,
    landmark_gauge,
    read_landmarks,
    reconstruct,
    refine,
    write_landmarks,
)


def _circle(n, radius=1.0, closed=True):
    # n distinct points; closed shapes repeat the first at the end
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = radius * np.column_stack([np.cos(t), np.sin(t)])
    if closed:
        pts = np.vstack([pts, pts[0]])
    return LandmarkShape(pts, closed=closed)


def _blob(rng, n=40):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = 1.0 + 0.2 * np.cos(3 * t) + 0.1 * np.sin(5 * t)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return LandmarkShape(np.vstack([pts, pts[0]]), closed=True)


# ------------------------------------------------------------- lengths

def test_cumulative_lengths_collinear_example():
    s = cumulative_lengths(LandmarkShape([(0.0, 0.0), (2.0, 0.0), (3.0, 0.0)]))
    np.testing.assert_allclose(s, [0.0, 2.0 / 3.0, 1.0])


def test_cumulative_lengths_strictly_increasing(rng):
    s = cumulative_lengths(_blob(rng))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.diff(s) > 0)


def test_cumulative_lengths_rejects_repeated_landmark():
    with pytest.raises(DegenerateGeometryError):
        cumulative_lengths(
            LandmarkShape([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        )


def test_landmark_gauge_is_max_gap():
    shape = LandmarkShape([(0.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    assert landmark_gauge(shape) == pytest.approx(2.0)


# --------------------------------------------------------------- refine

def test_refine_reproduces_knots_at_same_parameters():
    shape = _circle(16)  # equal chords: knots at j/16
    out, = refine([shape], PreprocessConfig(n=17, spline="cubic-natural"))
    np.testing.assert_allclose(out.x, shape.x, atol=1e-12)


def test_refine_circle_radial_deviation():
    shape = _circle(64)
    out, = refine([shape], PreprocessConfig(n=401))
    radii = np.linalg.norm(out.x, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-4


def test_refine_pchip_stays_in_hull_of_monotone_data():
    # a staircase refined with pchip must not overshoot
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    # jitter corners so no repeated landmarks, keep monotone coordinates
    shape = LandmarkShape(pts + 1e-9)
    out, = refine([shape], PreprocessConfig(n=101, spline="pchip"))
    assert out.x[:, 1].min() >= -1e-9 and out.x[:, 1].max() <= 1.0 + 1e-6


def test_refine_closed_is_periodic():
    out, = refine([_circle(32)], PreprocessConfig(n=201))
    np.testing.assert_allclose(out.x[0], out.x[-1], atol=1e-14)
    assert out.closed


@pytest.mark.parametrize("spline", ["cubic-natural", "pchip"])
@pytest.mark.parametrize("sampling", ["uniform-arclength", "cosine"])
def test_refine_closes_closed_shapes_exactly(rng, spline, sampling):
    """Each closed member's last landmark is its first, bit for bit, for
    members that repeat their first landmark and for those that do not; a
    pchip path misses its start at s = 1 by rounding."""
    blobs = [_blob(rng), _blob(rng)]
    shapes = blobs + [LandmarkShape(b.x[:-1], closed=True) for b in blobs]
    cfg = PreprocessConfig(n=81, spline=spline, sampling=sampling)
    for out in refine(shapes, cfg):
        assert out.closed and np.array_equal(out.x[-1], out.x[0])


def test_refine_order_of_accuracy():
    # halving the gauge should cut the radial error by roughly 2^4
    errs = []
    for n_c in (16, 32, 64):
        out, = refine([_circle(n_c)], PreprocessConfig(n=1001))
        errs.append(np.max(np.abs(np.linalg.norm(out.x, axis=1) - 1.0)))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 3.0


def test_preprocess_config_validation():
    with pytest.raises(ContractError):
        PreprocessConfig(n=2)
    with pytest.raises(ContractError):
        PreprocessConfig(spline="quintic")
    with pytest.raises(ContractError):
        PreprocessConfig(sampling="random")


# ------------------------------------------------------- standardization

def test_standardize_square_polar_scale():
    square = LandmarkShape([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    sep = la_standardize(square, variant="polar")
    np.testing.assert_allclose(sep.affine.m, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sep.affine.b, [0.0, 0.0], atol=1e-15)


def test_standardize_whitening(rng):
    sep = la_standardize(_blob(rng))
    rep = sep.grass.rep
    np.testing.assert_allclose(rep.T @ rep, np.eye(2), atol=1e-12)
    assert np.linalg.norm(rep.sum(axis=0)) <= 1e-10


def test_standardize_reconstruct_round_trip(rng):
    shape = _blob(rng)
    for variant in ("gl2", "polar"):
        back = reconstruct(la_standardize(shape, variant=variant))
        np.testing.assert_allclose(back.x, shape.x, atol=1e-10)
        assert back.closed == shape.closed


def test_standardize_affine_invariance(rng):
    shape = _blob(rng)
    ref = la_standardize(shape).grass.rep
    for alpha, c in ((2.5, (3.0, -1.0)), (0.3, (0.0, 100.0))):
        moved = LandmarkShape(alpha * shape.x + np.asarray(c), closed=True)
        got = la_standardize(moved).grass.rep
        np.testing.assert_allclose(got, ref, atol=1e-9)


def test_standardize_negative_scale_same_subspace(rng):
    shape = _blob(rng)
    a = la_standardize(shape).grass
    b = la_standardize(LandmarkShape(-1.7 * shape.x, closed=True)).grass
    assert gr_distance(a, b) < 1e-9


def test_standardize_polar_variant_is_spd(rng):
    sep = la_standardize(_blob(rng), variant="polar")
    m = sep.affine.m
    np.testing.assert_allclose(m, m.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_standardize_variants_agree_on_subspace(rng):
    shape = _blob(rng)
    a = la_standardize(shape, variant="gl2").grass
    b = la_standardize(shape, variant="polar").grass
    assert gr_distance(a, b) < 1e-12


def test_standardize_rejects_collinear():
    with pytest.raises(DegenerateGeometryError):
        la_standardize(LandmarkShape([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))


def test_standardize_deterministic(rng):
    shape = _blob(rng)
    a = la_standardize(shape).grass.rep
    b = la_standardize(LandmarkShape(shape.x.copy(), closed=True)).grass.rep
    assert np.array_equal(a, b)


def test_idempotence(rng):
    """Standardizing a representative reproduces it, for both variants."""
    for variant in ("gl2", "polar"):
        shape = _blob(rng)
        first = la_standardize(shape, variant=variant).grass
        again = la_standardize(LandmarkShape(first.rep, closed=shape.closed),
                               variant=variant).grass
        assert gr_distance(first, again) <= 1e-10


# ------------------------------------------------------------------- l4

def test_l4_quarter_turn():
    np.testing.assert_allclose(
        l4_matrix([1.0, 1.0, 1.0, np.pi / 2]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        atol=1e-15,
    )


def test_l4_determinant():
    l = np.array([2.0, 3.0, 0.5, 0.7])
    got = np.linalg.det(l4_matrix(l))
    assert got == pytest.approx(l[0] ** 2 * l[1] * l[2], rel=1e-12)


def test_l4_rejects_singular():
    with pytest.raises(DegenerateGeometryError):
        l4_matrix([1.0, 0.0, 1.0, 0.3])


# ---------------------------------------------------------------- files

def test_landmark_file_round_trip(tmp_path, rng):
    shape = _blob(rng)
    path = tmp_path / "blob.dat"
    write_landmarks(path, shape, header="test shape")
    back = read_landmarks(path)
    assert np.array_equal(back.x, shape.x)  # bit-identical floats
    assert back.closed


def test_landmark_file_name_line(tmp_path):
    path = tmp_path / "named.dat"
    path.write_text("# comment\nwing section A\n0 0\n1.0 0\n1 1\n0.0 1\n")
    shape = read_landmarks(path)
    assert shape.name == "wing section A"
    assert shape.n == 4 and not shape.closed


def test_landmark_file_rejects_two_points(tmp_path):
    path = tmp_path / "short.dat"
    path.write_text("0 0\n1 1\n")
    with pytest.raises(ContractError):
        read_landmarks(path)


def test_landmark_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("0 0\n1 1\nnot numbers here\n2 2\n")
    with pytest.raises(ContractError):
        read_landmarks(path)


def test_affine_factor_rejects_singular():
    with pytest.raises(DegenerateGeometryError):
        AffineFactor(np.array([[1.0, 2.0], [0.5, 1.0]]), np.zeros(2))
