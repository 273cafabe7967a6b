"""The benchmark's checks accept right answers and refuse wrong ones.

    python3 -m pytest bench/test_checks.py

Right answers come from shapetensors on small inputs; each wrong answer
is a right one with one thing broken, and its check must fail.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from shapetensors.cst import cst_airfoil  # noqa: E402
from shapetensors.grassmann import _log_raw  # noqa: E402
from shapetensors.product import ProductPoint  # noqa: E402
from shapetensors.shapes import la_standardize  # noqa: E402
from shapetensors.spd import SpdMatrix, _log_raw as spd_log_raw  # noqa: E402
from shapetensors.stats import generate, pga_fit  # noqa: E402

N, NC, R, EPS = 40, 61, 3, 1e-8


def _polar(y):
    u, _, vt = np.linalg.svd(y, full_matrices=False)
    return u @ vt


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(7)
    nominal = rng.uniform(0.1, 0.3, size=(2, 9))
    coeffs = nominal * (1.0 + rng.uniform(-0.2, 0.2, size=(N, 2, 9)))
    shapes = [cst_airfoil(u, l, n_c=NC) for u, l in coeffs]
    return coeffs, shapes


@pytest.fixture(scope="module")
def grass_fit(ensemble):
    points = [la_standardize(s).grass for s in ensemble[1]]
    return np.stack([p.rep for p in points]), pga_fit(points, r=R, epsilon=EPS)


@pytest.fixture(scope="module")
def product_fit(ensemble):
    seps = [la_standardize(s, variant="polar") for s in ensemble[1]]
    points = [ProductPoint(s.grass, SpdMatrix(s.affine.m)) for s in seps]
    return (np.stack([s.grass.rep for s in seps]),
            np.stack([s.affine.m for s in seps]),
            pga_fit(points, r=R, epsilon=EPS))


def _grass_check(reps, model, **change):
    args = dict(mean=model.mean.rep, basis=model.basis,
                eigenvalues=model.eigenvalues, coords=model.coords)
    args.update(change)
    return checks.check_grassmann_fit(reps, args["mean"], args["basis"],
                                      args["eigenvalues"], args["coords"], EPS, R)


def test_references_agree_with_the_program(grass_fit, product_fit):
    reps, model = grass_fit
    mine = checks.grassmann_log(model.mean.rep, reps)
    theirs = np.stack([_log_raw(model.mean.rep, y) for y in reps])
    assert np.abs(mine - theirs).max() < 1e-12
    _, spds, pmodel = product_fit
    p = pmodel.mean.scale.mat
    assert np.abs(checks.spd_log(p, spds)
                  - np.stack([spd_log_raw(p, d) for d in spds])).max() < 1e-12


def test_grassmann_fit_passes(grass_fit):
    assert _grass_check(*grass_fit) == []


def test_shifted_mean_fails(grass_fit):
    reps, model = grass_fit
    x = model.mean.rep
    d = np.random.default_rng(1).standard_normal(x.shape)
    d -= x @ (x.T @ d)
    shifted = _polar(x + 1e-4 * d / np.linalg.norm(d))
    assert any("mean log" in m for m in _grass_check(reps, model, mean=shifted))


def test_basis_column_not_horizontal_fails(grass_fit):
    reps, model = grass_fit
    basis = model.basis.copy()
    tilt = (model.mean.rep @ np.array([[1.0, 0.0], [0.0, 0.0]])).T.reshape(-1)
    basis[:, 0] += 1e-6 * tilt
    basis[:, 0] /= np.linalg.norm(basis[:, 0])
    bad = _grass_check(reps, model, basis=basis)
    assert any("not horizontal" in m for m in bad)


def test_wrong_eigenvalue_and_coords_fail(grass_fit):
    reps, model = grass_fit
    eig = model.eigenvalues.copy()
    eig[1] *= 1.0 + 1e-6
    assert any("eigenvalues differ" in m for m in _grass_check(reps, model, eigenvalues=eig))
    assert any("do not descend" in m
               for m in _grass_check(reps, model, eigenvalues=eig[::-1].copy()))
    coords = model.coords.copy()
    coords[3, 0] += 1e-6
    assert any("coords differ" in m for m in _grass_check(reps, model, coords=coords))
    assert checks.check_eigen_coords(model.eigenvalues, model.coords, "fit") == []
    assert checks.check_eigen_coords(model.eigenvalues, 1.001 * model.coords, "fit")


def test_product_fit_passes_and_shifted_spd_mean_fails(product_fit):
    reps, spds, m = product_fit
    args = (m.basis, m.eigenvalues, m.coords, EPS, R)
    assert checks.check_product_fit(reps, spds, m.mean.grass.rep,
                                    m.mean.scale.mat, *args) == []
    moved = m.mean.scale.mat * (1.0 + 1e-6)
    bad = checks.check_product_fit(reps, spds, m.mean.grass.rep, moved, *args)
    assert any("SPD mean log" in msg for msg in bad)


def test_sample_with_altered_header_fails(grass_fit, tmp_path):
    _, model = grass_fit
    c = np.array([0.02, -0.01, 0.005])
    rep = generate(model, c).rep
    for header, ok in ((c, True), (c * np.array([1.0, 1.0, 1.5]), False)):
        path = tmp_path / "sample.txt"
        path.write_text("# coeffs " + " ".join(repr(float(v)) for v in header) + "\n"
                        + "\n".join(f"{x!r} {y!r}" for x, y in rep.tolist()) + "\n")
        assert (checks.check_sample(str(path), model.mean.rep) == []) is ok


def test_guard_verdicts():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert checks.crosses(square, closed=True) is False
    assert checks.crosses(bowtie, closed=True) is True
    assert checks.check_guard_verdict(square, "pass", "square") == []
    assert checks.check_guard_verdict(square, "fail", "square")
    assert checks.check_guard_verdict(bowtie, "fail", "bowtie") == []
    assert checks.check_guard_verdict(bowtie, "pass", "bowtie")
    # a vertex exactly on a non-adjacent segment is too close to call
    touch = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 0.0], [0.5, 1.0]])
    assert checks.crosses(touch, closed=False) is None


def test_cst_and_standardization_checks(ensemble):
    coeffs, shapes = ensemble
    pts, (upper, lower) = shapes[0].x, coeffs[0]
    assert checks.check_cst(pts, upper, lower, "a") == []
    assert checks.check_cst(pts, upper * 1.001, lower, "a")
    sep = la_standardize(shapes[0])
    assert checks.check_standardized(pts, sep.grass.rep, sep.affine.m, sep.affine.b, "a") == []
    assert checks.check_standardized(pts, sep.grass.rep, sep.affine.m,
                                     sep.affine.b + 1e-6, "a")


def test_deformed_distance_and_obj_counts(grass_fit, tmp_path):
    reps, _ = grass_fit
    d = np.random.default_rng(2).standard_normal(reps[0].shape)
    d -= reps[0] @ (reps[0].T @ d)
    d *= 0.05 / np.linalg.norm(d)
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    moved = reps[0] @ vt.T @ np.diag(np.cos(s)) @ vt + u @ np.diag(np.sin(s)) @ vt
    assert checks.check_deformed([reps[0]], [moved], 0.05, "d") == []
    assert checks.check_deformed([reps[0]], [moved], 0.0501, "d")
    obj = tmp_path / "blade.obj"
    obj.write_text("v 0 0 0\n" * 6 + "f 1 2 5 4\nf 2 3 6 5\n")
    assert checks.check_obj(str(obj), 2, 3) == []
    obj.write_text("v 0 0 0\n" * 6 + "f 1 2 5 4\n")
    assert checks.check_obj(str(obj), 2, 3)
