import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapetensors import linalg, stats
from shapetensors.cst import cst_airfoil, cst_airfoils
from shapetensors.errors import (ContractError, ConvergenceError, DegenerateGeometryError,
                                 NormalNeighborhoodError, without_refused)
from shapetensors.grassmann import GrassmannPoint, gr_distance, gr_exp
from shapetensors.linalg import mT, rotation2, sym2_exp
from shapetensors.model_io import load_model, save_model
from shapetensors.product import ProductPoint
from shapetensors.shapes import AffineFactor, _standardize_raw, la_standardize
from shapetensors.spd import SpdMatrix, spd_distance
from shapetensors.spd import _exp_raw as spd_exp_raw
from shapetensors.spd import _log_raw as spd_log_raw
from shapetensors.stats import (
    MeanScale,
    SampleDomain,
    embed,
    generate,
    karcher_mean,
    mean_scale,
    pga_fit,
    sample_domain,
)

import oracles
from conftest import random_grassmann_point, random_horizontal, random_spd
from oracles import truncated_svd


def _cloud(rng, n=12, count=15, spread=0.15):
    """Points scattered around a random center along random geodesics."""
    center = random_grassmann_point(rng, n=n)
    return [
        gr_exp(center, random_horizontal(rng, center, scale=spread * rng.uniform(0.3, 1.0)))
        for _ in range(count)
    ], center


# --------------------------------------------------------------- karcher

def test_karcher_single_point_is_that_point(rng):
    p = random_grassmann_point(rng)
    assert karcher_mean([p]) is p


def test_karcher_two_point_midpoint(rng):
    a = random_grassmann_point(rng, n=10)
    tan = random_horizontal(rng, a, scale=0.6)
    b = gr_exp(a, tan)
    mid = karcher_mean([a, b], epsilon=1e-12)
    want = gr_exp(a, 0.5 * tan)
    assert gr_distance(mid, want) < 1e-9


def test_karcher_fixed_point_certificate(rng):
    pts, _ = _cloud(rng)
    mean = karcher_mean(pts, epsilon=1e-10)
    from shapetensors.stats import _COMPONENTS

    logs = _COMPONENTS["grassmann"].log(mean.rep, np.stack([p.rep for p in pts]))
    v = logs.mean(axis=0)
    assert np.linalg.norm(v) < 1e-10


def test_karcher_permutation_invariance(rng):
    pts, _ = _cloud(rng)
    a = karcher_mean(pts, epsilon=1e-12)
    b = karcher_mean(pts[::-1], epsilon=1e-12)
    assert gr_distance(a, b) < 1e-8


def test_karcher_spd_two_point_midpoint(rng):
    p = random_spd(rng)
    d = random_spd(rng)
    mid = karcher_mean([p, d], epsilon=1e-12)
    assert abs(spd_distance(p, mid) - spd_distance(mid, d)) < 1e-9
    assert abs(spd_distance(p, mid) + spd_distance(mid, d) - spd_distance(p, d)) < 1e-9


def test_karcher_spd_does_not_depend_on_order(rng):
    mats = [random_spd(rng) for _ in range(25)]
    a = karcher_mean(mats).mat
    b = karcher_mean(mats[::-1]).mat
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


def test_karcher_nonconvergence_reports_gradient():
    # antipodal-ish spread on SPD with a absurdly tight epsilon and
    # one iteration cannot converge
    pts = [SpdMatrix(np.diag([1e6, 1.0])), SpdMatrix(np.diag([1e-6, 1.0]))]
    with pytest.raises(ConvergenceError) as err:
        karcher_mean(pts, epsilon=1e-30, max_iter=1)
    assert err.value.gradient_norm is not None


def _overshooting_pair():
    """exp(+-2 diag(1, -1)) in frames 1.5 rad apart: from their
    log-Euclidean mean a unit Karcher step overshoots the midpoint."""
    r = rotation2(np.array([0.0, 1.5]))
    return [SpdMatrix(p) for p in sym2_exp(r @ np.diag([2.0, -2.0]) @ mT(r))]


def test_karcher_halves_a_step_that_grows_the_gradient():
    pts = _overshooting_pair()
    mats = np.stack([p.mat for p in pts])
    start = stats._COMPONENTS["spd"].start(mats)
    g0 = spd_log_raw(start, mats).mean(axis=0)
    g1 = spd_log_raw(spd_exp_raw(start, g0), mats).mean(axis=0)
    assert np.linalg.norm(g1) > np.linalg.norm(g0)  # the unit step grows it
    with pytest.raises(ConvergenceError) as err:
        karcher_mean(pts, epsilon=1e-10, max_iter=3)
    t = err.value.trajectory
    assert t[:2] == pytest.approx([np.linalg.norm(g0), np.linalg.norm(g1)],
                                  rel=1e-12)
    assert t[2] < t[0]  # half the step, taken from the start
    assert err.value.gradient_norm == t[-1]
    mid = karcher_mean(pts, epsilon=1e-10)
    a, b = pts
    assert abs(spd_distance(a, mid) - spd_distance(mid, b)) < 1e-8
    assert abs(spd_distance(a, mid) + spd_distance(mid, b) - spd_distance(a, b)) < 1e-8


def test_karcher_stall_raises_with_the_trajectory(rng):
    # at rounding level no step, however short, reduces the gradient norm
    pts, _ = _cloud(rng)
    with pytest.raises(ConvergenceError, match="stalled") as err:
        karcher_mean(pts, epsilon=1e-30)
    t = err.value.trajectory
    halvings = stats.KARCHER_MAX_HALVINGS
    assert err.value.gradient_norm == t[-1]
    assert len(t) < stats.KARCHER_MAX_ITER
    # the last accepted iterate, then one step and its halvings, none better
    assert min(t[-halvings - 1:]) >= t[-halvings - 2]
    assert t[-halvings - 2] < 1e-12


def test_karcher_rejects_empty():
    with pytest.raises(ContractError):
        karcher_mean([])


def test_karcher_rejects_mixed_manifolds(rng):
    with pytest.raises(ContractError):
        karcher_mean([random_grassmann_point(rng), random_spd(rng)])


# ------------------------------------------------------------------- pga

# CST coefficients of a nominal airfoil, upper surface then lower
_NOMINAL = np.array([[0.20, 0.18, 0.22, 0.17, 0.21, 0.19, 0.20, 0.18, 0.17],
                     [0.12, 0.10, 0.13, 0.09, 0.11, 0.10, 0.12, 0.11, 0.10]])

def _cst_ensemble(count, n_c, seed):
    """Grassmann points of CST airfoils, every coefficient of a nominal
    perturbed by up to +-20 %."""
    rng = np.random.default_rng(seed)
    coeffs = _NOMINAL * (1.0 + rng.uniform(-0.2, 0.2, size=(count, 2, 9)))
    return [la_standardize(cst_airfoil(c[0], c[1], n_c=n_c)).grass for c in coeffs]


def test_pga_fit_takes_at_most_three_log_sweeps(monkeypatch):
    # the benchmark wraps stats._log_many the same way; a sweep calls it
    # once per block, so a sweep is a run of calls at one base
    pts = _cst_ensemble(300, 201, seed=0)
    calls = []
    real = stats._log_many

    def counted(x, ys):
        calls.append((x, len(ys)))
        return real(x, ys)

    monkeypatch.setattr(stats, "_log_many", counted)
    stats._COMPONENTS["grassmann"].start(np.stack([p.rep for p in pts]))
    assert calls == []  # the chordal start takes no log sweep
    model = pga_fit(pts, r=4, epsilon=1e-8)
    sweeps = []
    for x, size in calls:
        if sweeps and np.array_equal(sweeps[-1][0], x):
            sweeps[-1][1] += size
        else:
            sweeps.append([x, size])
    assert 1 <= len(sweeps) <= 3
    assert [size for _, size in sweeps] == [len(pts)] * len(sweeps)
    assert np.array_equal(sweeps[-1][0], model.mean.rep)


def test_pga_single_geodesic_has_one_mode(rng):
    base = random_grassmann_point(rng, n=10)
    tan = random_horizontal(rng, base, scale=1.0)
    ts = np.linspace(-0.4, 0.4, 9)
    pts = [gr_exp(base, t * tan) for t in ts]
    model = pga_fit(pts, r=2, epsilon=1e-10)
    assert model.eigenvalues[1] / model.eigenvalues[0] <= 1e-12


def test_pga_embed_of_training_points_matches_coords(rng):
    pts, _ = _cloud(rng, count=10)
    model = pga_fit(pts, r=9, epsilon=1e-10)
    for k, p in enumerate(pts):
        np.testing.assert_allclose(embed(model, p), model.coords[k], atol=1e-10)


def test_embed_refuses_a_point_of_another_manifold_kind(rng):
    pts = [ProductPoint(random_grassmann_point(rng, n=6), random_spd(rng))
           for _ in range(6)]
    model = pga_fit(pts, r=2, epsilon=1e-10)
    for point in (pts[0].grass, pts[0].scale):
        with pytest.raises(ContractError, match="does not lie on the manifold"):
            embed(model, point)


def test_embed_refuses_a_grassmann_point_of_another_n(rng):
    pts = [random_grassmann_point(rng, n=6) for _ in range(6)]
    model = pga_fit(pts, r=2, epsilon=1e-10)
    with pytest.raises(ContractError, match=r"GrassmannPoint\(n=7\) does not lie"):
        embed(model, random_grassmann_point(rng, n=7))


def test_pga_generate_recovers_training_points(rng):
    pts, _ = _cloud(rng, count=8)
    model = pga_fit(pts, r=7, epsilon=1e-10)
    for k, p in enumerate(pts):
        back = generate(model, model.coords[k])
        assert gr_distance(back, p) < 1e-8


def test_pga_embed_generate_identity(rng):
    pts, _ = _cloud(rng, count=12)
    model = pga_fit(pts, r=5, epsilon=1e-10)
    t = np.array([0.05, -0.02, 0.01, 0.0, 0.03])
    np.testing.assert_allclose(embed(model, generate(model, t)), t, atol=1e-9)
    # the coefficient rule that generate shares with consistent_deform
    for bad, words in ((t[:4], "length r=5"), (t * np.nan, "non-finite")):
        with pytest.raises(ContractError, match=words):
            generate(model, bad)


def test_pga_coords_nearly_centered(rng):
    pts, _ = _cloud(rng, count=20)
    model = pga_fit(pts, r=4, epsilon=1e-9)
    assert np.linalg.norm(model.coords.mean(axis=0)) <= 1e-9 * np.sqrt(len(pts))


def test_pga_eigenvalue_sum_matches_log_energy(rng):
    pts, _ = _cloud(rng, count=10)
    full = min(len(pts) - 1, 2 * (pts[0].n - 2))
    model = pga_fit(pts, r=full, epsilon=1e-10)
    from shapetensors.stats import _COMPONENTS

    raws = _COMPONENTS["grassmann"].log(model.mean.rep, np.stack([p.rep for p in pts]))
    energy = sum(np.linalg.norm(raws[k]) ** 2 for k in range(len(pts)))
    want = energy / (len(pts) - 1)
    assert np.sum(model.eigenvalues) == pytest.approx(want, rel=1e-9)


def test_pga_basis_columns_orthonormal_and_horizontal(rng):
    pts, _ = _cloud(rng, count=9)
    model = pga_fit(pts, r=4, epsilon=1e-10)
    np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(4), atol=1e-12)
    n = model.mean.n
    for i in range(model.r):
        lift = model.basis[:, i].reshape(2, n).T
        assert np.linalg.norm(model.mean.rep.T @ lift) < 1e-10


def test_pga_basis_stays_horizontal_on_a_graded_cloud(rng):
    # N > 2n puts the Gram on the 2n side, whose eigenvectors alone leave
    # the horizontal space by about eps * (s_1 / s_r)**2
    n, count, r = 20, 100, 4
    center = random_grassmann_point(rng, n=n)
    dirs = np.stack([random_horizontal(rng, center) for _ in range(r)])
    frame = np.linalg.qr(dirs.reshape(r, -1).T)[0].T.reshape(r, n, 2)
    sigma = 0.1 * 1e-4 ** (np.arange(r) / (r - 1.0))
    pts = [gr_exp(center, np.tensordot(sigma * rng.standard_normal(r), frame, 1))
           for _ in range(count)]
    model = pga_fit(pts, r=r, epsilon=1e-12)
    ratio = np.sqrt(model.eigenvalues[-1] / model.eigenvalues[0])
    assert 3e-5 < ratio < 3e-4
    lifts = model.basis.T.reshape(r, 2, n).transpose(0, 2, 1)
    assert np.abs(model.mean.rep.T @ lifts).max() < 1e-10


def _ensemble(rng, kind, count):
    if kind == "spd":
        return [random_spd(rng) for _ in range(count)]
    pts, _ = _cloud(rng, n=6, count=count)
    if kind == "grassmann":
        return pts
    return [ProductPoint(p, random_spd(rng, spread=0.5)) for p in pts]


@pytest.mark.parametrize("kind,count,r", [
    ("grassmann", 8, 4), ("grassmann", 30, 4),  # width 2n = 12
    ("spd", 2, 1), ("spd", 20, 2),              # width 3
    ("product", 8, 5), ("product", 40, 5),      # width 2n + 3 = 15
])
def test_pga_fit_matches_full_svd_decomposition(rng, monkeypatch, kind, count, r):
    pts = _ensemble(rng, kind, count)
    model = pga_fit(pts, r=r, epsilon=1e-12)
    spectrum = []

    def full_svd_then_truncate(a, r):
        spectrum[:] = np.linalg.svd(a, compute_uv=False)
        return truncated_svd(a, r)

    monkeypatch.setattr(stats, "thin_svd", full_svd_then_truncate)
    want = pga_fit(pts, r=r, epsilon=1e-12)
    np.testing.assert_allclose(model.eigenvalues, want.eigenvalues, rtol=1e-12)
    # these ensembles keep s_1 > ... > s_r > s_r+1 apart, so the basis
    # vectors themselves are defined
    s = np.append(spectrum, 0.0)[: r + 1]
    assert np.all(-np.diff(s) > 1e-2 * s[:-1])
    np.testing.assert_allclose(model.basis, want.basis, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(model.coords, want.coords, rtol=0.0,
                               atol=1e-10 * np.abs(want.coords).max())


def test_pga_fit_of_cst_airfoils_takes_the_certified_krylov_probe(rng, monkeypatch):
    """CST airfoils of 18 coefficients have logs of rank 17, and 20 with the
    SPD factor: the probe's 24-column Krylov space holds them, so both
    fits certify without the Gram probe and agree with the full SVD."""
    coeffs = _NOMINAL * (1.0 + rng.uniform(-0.2, 0.2, size=(300, 2, 9)))
    rep, m, _ = _standardize_raw(cst_airfoils(coeffs[:, 0], coeffs[:, 1], n_c=101),
                                 "polar")
    for pts in (GrassmannPoint(rep), ProductPoint(GrassmannPoint(rep), SpdMatrix(m))):
        def no_gram(a, r):
            raise AssertionError("the Krylov probe was not certified")

        monkeypatch.setattr(linalg, "_gram_basis", no_gram)
        model = pga_fit(pts, r=4)
        monkeypatch.undo()
        monkeypatch.setattr(stats, "thin_svd", lambda a, r: truncated_svd(a, r))
        want = pga_fit(pts, r=4)
        monkeypatch.undo()
        np.testing.assert_allclose(model.eigenvalues, want.eigenvalues, rtol=1e-12)
        np.testing.assert_allclose(model.basis, want.basis, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("certified", [True, False])
def test_pga_coords_from_the_ritz_triplets_equal_data_times_basis(rng, monkeypatch,
                                                                  certified):
    """coords are v s of the Ritz triplets (a^T u = v s on both of
    thin_svd's paths): they equal the logs at the mean times the basis, on
    CST airfoils, whose logs the Krylov probe certifies, and on clouds of
    rank wider than the probe's 24 columns, which take the Gram probe."""
    if certified:
        coeffs = _NOMINAL * (1.0 + rng.uniform(-0.2, 0.2, size=(300, 2, 9)))
        rep, m, _ = _standardize_raw(cst_airfoils(coeffs[:, 0], coeffs[:, 1], n_c=101),
                                     "polar")
        ensembles = [GrassmannPoint(rep), ProductPoint(GrassmannPoint(rep), SpdMatrix(m))]
    else:
        pts, _ = _cloud(rng, n=20, count=60, spread=0.5)
        ensembles = [pts, [ProductPoint(p, random_spd(rng)) for p in pts]]
    gram_calls = []
    real_gram_basis = linalg._gram_basis

    def gram_basis(a, r):
        gram_calls.append(a.shape)
        return real_gram_basis(a, r)

    monkeypatch.setattr(linalg, "_gram_basis", gram_basis)
    for pts in ensembles:
        gram_calls.clear()
        model = pga_fit(pts, r=4)
        assert bool(gram_calls) != certified
        want = _scaled_data(model, pts) @ model.basis * np.sqrt(len(pts) - 1.0)
        np.testing.assert_allclose(model.coords, want, rtol=0.0,
                                   atol=1e-10 * np.abs(want).max())


def test_pga_zero_variance_error(rng):
    p = random_grassmann_point(rng)
    with pytest.raises(DegenerateGeometryError):
        pga_fit([p, GrassmannPoint(p.rep.copy()), GrassmannPoint(p.rep.copy())], r=1)


def test_pga_rank_validation(rng):
    pts, _ = _cloud(rng, count=5)
    with pytest.raises(ContractError):
        pga_fit(pts, r=0)
    with pytest.raises(ContractError):
        pga_fit(pts, r=5)  # N-1 = 4 caps it


def test_pga_spd_full_rank_is_three(rng):
    pts = [random_spd(rng) for _ in range(12)]
    model = pga_fit(pts, r=3, epsilon=1e-10)
    assert model.kind == "spd"
    for k, p in enumerate(pts):
        back = generate(model, model.coords[k])
        assert spd_distance(back, p) < 1e-8


def test_pga_product_round_trip(rng):
    pts = [
        ProductPoint(random_grassmann_point(rng, n=8), random_spd(rng))
        for _ in range(10)
    ]
    model = pga_fit(pts, r=9, epsilon=1e-10)
    assert model.kind == "product"
    k = 3
    back = generate(model, model.coords[k])
    assert gr_distance(back.grass, pts[k].grass) < 1e-8
    assert spd_distance(back.scale, pts[k].scale) < 1e-8


def test_pga_deterministic(rng):
    pts, _ = _cloud(rng, count=10)
    a = pga_fit(pts, r=3, epsilon=1e-10)
    b = pga_fit(list(pts), r=3, epsilon=1e-10)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.coords, b.coords)


# ------------------------------------------------------------ mean scale

# --------------------------------------------------------- blocked sweeps

# Members per sweep block in the tests below: two members are one block
# less one, three and four are one block and one block plus one, and
# eleven are three blocks and a remainder.
SMALL_BLOCK = 3
COUNTS = (2, 3, 4, 11)


def _draw(rng, kind, count, spread):
    """``count`` members of one manifold kind around a random center."""
    if kind == "spd":
        return [random_spd(rng, spread=spread) for _ in range(count)]
    pts, _ = _cloud(rng, n=6, count=count, spread=spread)
    if kind == "grassmann":
        return pts
    return [ProductPoint(p, random_spd(rng, spread=spread)) for p in pts]


def _halving(rng, kind):
    """``_overshooting_pair``, whose first Karcher step is halved, with a
    Grassmann pair beside it for the product kind."""
    pair = _overshooting_pair()
    if kind == "spd":
        return pair
    return [ProductPoint(p, q) for p, q in zip(_draw(rng, "grassmann", 2, 0.5), pair)]


def _scaled_data(model, pts):
    """The vectorized logs at the model's mean over sqrt(N - 1)."""
    base, stacks = stats._arrays(model.mean), oracles.whole_stacks(pts)
    v = np.concatenate([
        stats._COMPONENTS[c].vec(stats._COMPONENTS[c].log(base[c], stacks[c]))
        for c in base], axis=-1)
    return v / np.sqrt(len(v) - 1.0)


def _assert_same_fit(model, want, pts):
    """Mean, eigenvalues, basis and coords agree to rounding; a basis
    column and its coords to rounding over the gap between its squared
    singular value and the others."""
    for c, a in stats._arrays(want.mean).items():
        np.testing.assert_allclose(stats._arrays(model.mean)[c], a, rtol=0, atol=1e-12)
    lam = want.eigenvalues
    np.testing.assert_allclose(model.eigenvalues, lam, rtol=0, atol=1e-12 * lam[0])
    scaled = _scaled_data(want, pts)
    s2 = np.linalg.svd(scaled, compute_uv=False) ** 2
    s2 = np.append(s2, np.zeros(model.basis.shape[0] - len(s2)))
    rows = np.linalg.norm(scaled, axis=1).max() * np.sqrt(len(pts) - 1.0)
    # both bases went through fix_svd_signs, so their columns compare as they are
    for k in range(want.r):
        gap = np.min(np.abs(np.delete(s2, k) - s2[k]))
        tol = 1e-12 * s2[0] / gap if gap else np.inf
        np.testing.assert_allclose(model.basis[:, k], want.basis[:, k], rtol=0, atol=tol)
        np.testing.assert_allclose(model.coords[:, k], want.coords[:, k], rtol=0,
                                   atol=tol * rows + 1e-13 * np.abs(want.coords).max())


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("grassmann", "spd", "product")),
       count=st.sampled_from(COUNTS), spread=st.floats(0.05, 1.0),
       halving=st.booleans(), rank=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_blocked_fit_matches_the_whole_stack_fit(seed, kind, count, spread, halving, rank):
    rng = np.random.default_rng(seed)
    if halving and kind != "grassmann":
        pts = _halving(rng, kind)
    else:
        pts = _draw(rng, kind, count, spread)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "BLOCK", SMALL_BLOCK)
        r = min(rank, len(pts) - 1)
        mean = karcher_mean(pts, epsilon=1e-10)
        for c, a in stats._arrays(oracles.karcher_mean(pts, epsilon=1e-10)).items():
            np.testing.assert_allclose(stats._arrays(mean)[c], a, rtol=0, atol=1e-12)
        _assert_same_fit(pga_fit(pts, r=r, epsilon=1e-10),
                         oracles.pga_fit(pts, r=r, epsilon=1e-10), pts)


@pytest.mark.parametrize("kind,count,spread,max_iter", [
    ("grassmann", 11, 1.0, 3),   # several sweeps
    ("product", 11, 1.0, 3),
    ("spd", 11, 1.5, 2),
    ("spd", None, None, 3),      # the first step is halved
    ("product", None, None, 3),
])
@pytest.mark.parametrize("block", [1, 2, SMALL_BLOCK, 256])
def test_blocked_trajectory_matches_the_whole_stack_one(rng, monkeypatch, kind, count,
                                                         spread, max_iter, block):
    pts = _halving(rng, kind) if count is None else _draw(rng, kind, count, spread)
    monkeypatch.setattr(stats, "BLOCK", block)
    with pytest.raises(ConvergenceError) as got:
        karcher_mean(pts, epsilon=1e-14, max_iter=max_iter)
    with pytest.raises(ConvergenceError) as want:
        oracles.karcher_mean(pts, epsilon=1e-14, max_iter=max_iter)
    t = want.value.trajectory
    assert len(t) == max_iter
    assert got.value.trajectory == pytest.approx(t, rel=1e-12)
    assert got.value.gradient_norm == got.value.trajectory[-1]
    if count is None:
        assert t[1] > t[0] > t[2]  # the unit step grew the norm; half of it did not


def _refusing_ensemble(rng, kind, count, refused):
    """Members near span(e1, e2) in R^8, tilted into e5..e8, except those
    at ``refused``, which span (e3, e4): orthogonal to every member the
    chordal start begins from, so to every base the sweeps reach."""
    reps = np.zeros((count, 8, 2))
    reps[:, [0, 1], [0, 1]] = 1.0
    reps[:, 4:] = 0.1 * rng.standard_normal((count, 4, 2))
    reps[refused] = 0.0
    reps[refused, [[2], [3]], [[0], [1]]] = 1.0
    grass = GrassmannPoint(np.linalg.qr(reps)[0])
    if kind == "grassmann":
        return grass
    return ProductPoint(grass, SpdMatrix(np.stack([random_spd(rng).mat for _ in range(count)])))


@pytest.mark.parametrize("kind", ["grassmann", "product"])
@pytest.mark.parametrize("refused", [[4, 8], [1, 2, 10], [10]])
def test_refusals_in_later_blocks_name_members_as_one_sweep_does(rng, monkeypatch,
                                                                   kind, refused):
    pts = _refusing_ensemble(rng, kind, 11, refused)
    members = [pts[k] for k in range(len(pts))]
    monkeypatch.setattr(stats, "BLOCK", SMALL_BLOCK)
    # a stacked point, and its list of members, which the refusal path
    # stacks whole to name every refused member
    for ensemble in (pts, members):
        for fit, oracle in ((lambda p: karcher_mean(p), oracles.karcher_mean),
                            (lambda p: pga_fit(p, r=2), lambda p: oracles.pga_fit(p, r=2))):
            with pytest.raises(NormalNeighborhoodError) as got:
                fit(ensemble)
            with pytest.raises(NormalNeighborhoodError) as want:
                oracle(ensemble)
            assert got.value.index == want.value.index == (refused[0],)
            assert [e.index for e in got.value.refused] == [(i,) for i in refused]
            assert ([(e.index, str(e)) for e in got.value.refused]
                    == [(e.index, str(e)) for e in want.value.refused])
            assert str(got.value) == str(want.value)
    # the CLI drops what ``refused`` names and fits the rest
    kept, model, dropped = without_refused(lambda p: pga_fit(p, r=2), members)
    assert sorted(dropped) == refused
    assert kept == [k for k in range(len(pts)) if k not in refused]
    assert model.n_samples == len(kept)


def test_pga_fit_allocates_little_beyond_its_data_matrix():
    """The fit's largest array is its (N, 2n) data matrix: no stack of
    logs, copy of it or scaled copy is made beside it, and a list of
    points is not stacked whole."""
    rng = np.random.default_rng(0)
    coeffs = _NOMINAL * (1.0 + rng.uniform(-0.2, 0.2, size=(4000, 2, 9)))
    rep, _, _ = _standardize_raw(cst_airfoils(coeffs[:, 0], coeffs[:, 1], n_c=201), "gl2")
    pts = GrassmannPoint(rep)
    data_bytes = rep.shape[0] * rep.shape[1] * 2 * rep.itemsize
    for ensemble in (pts, [pts[k] for k in range(len(pts))]):
        tracemalloc.start()
        try:
            pga_fit(ensemble, r=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * data_bytes, (type(ensemble).__name__, peak / data_bytes)


def test_mean_scale_extrinsic_average():
    f1 = AffineFactor(np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    f2 = AffineFactor(np.array([[4.0, 0.0], [0.0, 3.0]]), np.zeros(2))
    ms = mean_scale([f1, f2])
    np.testing.assert_allclose(ms.m, [[3.0, 0.0], [0.0, 2.0]])


def test_mean_scale_accepts_a_stack():
    mats = [np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([[4.0, 0.5], [0.5, 3.0]])]
    stacked = mean_scale(np.stack(mats))
    assert np.array_equal(stacked.m, mean_scale(mats).m)
    with pytest.raises(ContractError):
        mean_scale(np.empty((0, 2, 2)))


def test_mean_scale_extrinsic_degenerate():
    f1 = AffineFactor(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    f2 = AffineFactor(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
    f3 = AffineFactor(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
    for pair in ([f1, f2], [f1, f3]):  # averages 0 and diag(1, 0)
        with pytest.raises(DegenerateGeometryError):
            mean_scale(pair)


@pytest.mark.parametrize("size", [1e-3, 1.0, 1e3])
def test_mean_scale_is_the_plain_average_bit_for_bit(rng, size):
    """The power-of-two scaling is exact: ordinary factors average to the
    bits of np.mean, so model files do not move."""
    mats = size * rng.standard_normal((30, 2, 2))
    assert np.array_equal(mean_scale(mats).m, np.mean(mats, axis=0))


@pytest.mark.parametrize("size", [1e160, 6e307])
def test_mean_scale_of_huge_factors_is_finite_and_exact(rng, size):
    """Near 1e160 the singularity test's determinant overflowed, and near
    6e307 the sum of twelve factors did; neither may warn or leave inf."""
    mats = size * (np.eye(2) + 0.1 * rng.standard_normal((12, 2, 2)))
    m = mean_scale(mats).m
    assert np.isfinite(m).all()
    assert np.array_equal(m, np.mean(mats / 2.0**1000, axis=0) * 2.0**1000)


def test_mean_scale_refuses_a_singular_average_of_huge_factors():
    # p*d - b*c is inf - inf = NaN unless the average is scaled first
    with pytest.raises(DegenerateGeometryError):
        mean_scale([[[1e200, 1e200], [1e200, 1e200]]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mean_scale_refuses_a_non_finite_factor(bad):
    with pytest.raises(ContractError, match="non-finite"):
        mean_scale([np.eye(2), [[bad, 0.0], [0.0, 1.0]]])


# ---------------------------------------------------------------- domain

def test_sample_domain_box_and_ball(rng):
    pts, _ = _cloud(rng, count=10)
    model = pga_fit(pts, r=3, epsilon=1e-10)
    dom = sample_domain(model)
    assert np.all(dom.lo <= model.coords.min(axis=0))
    assert np.all(dom.hi >= model.coords.max(axis=0))
    assert dom.radius == pytest.approx(np.linalg.norm(model.coords, axis=1).max())
    # a fit carries the domain of its coordinates
    assert model.domain.radius == dom.radius
    assert np.array_equal(model.domain.lo, dom.lo)
    assert np.array_equal(model.domain.hi, dom.hi)


def test_domain_of_huge_coordinates_has_an_infinite_radius():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = stats.PgaModel(GrassmannPoint(np.eye(3)[:, :2]), np.zeros((6, 1)),
                               [1.0], [[1e308], [-1e308]], 1e-8)
    assert model.domain.radius == np.inf
    assert model.domain.lo[0] == -1e308 and model.domain.hi[0] == 1e308


# ------------------------------------------------------------------- io

def test_model_save_load_bit_identical(tmp_path, rng):
    pts, _ = _cloud(rng, count=8)
    model = pga_fit(pts, r=3, epsilon=1e-10)
    model.mean_scale = MeanScale(np.array([[1.5, 0.1], [0.1, 0.9]]))
    p1 = tmp_path / "m1.model"
    p2 = tmp_path / "m2.model"
    save_model(p1, model)
    back = load_model(p1)
    save_model(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.basis, model.basis)
    assert np.array_equal(back.coords, model.coords)
    assert np.array_equal(back.mean.rep, model.mean.rep)
    assert np.array_equal(back.mean_scale.m, model.mean_scale.m)
    assert back.domain.radius == model.domain.radius


def test_model_save_load_product(tmp_path, rng):
    pts = [
        ProductPoint(random_grassmann_point(rng, n=6), random_spd(rng))
        for _ in range(6)
    ]
    model = pga_fit(pts, r=4, epsilon=1e-10)
    path = tmp_path / "prod.model"
    save_model(path, model)
    back = load_model(path)
    assert back.kind == "product"
    assert np.array_equal(back.mean.grass.rep, model.mean.grass.rep)
    assert np.array_equal(back.mean.scale.mat, model.mean.scale.mat)


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("not a model\n")
    with pytest.raises(ContractError):
        load_model(path)
