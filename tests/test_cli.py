import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shapetensors
from shapetensors.bladeio import load_blade, save_blade
from shapetensors.cli import main
from shapetensors.cst import cst_airfoil
from shapetensors.model_io import load_model, save_model
from shapetensors.shapes import (LandmarkShape, PreprocessConfig, la_standardize,
                                 read_landmarks, refine, write_landmarks)
from shapetensors.stats import pga_fit
from shapetensors.textio import fmt


def run(*argv):
    return main([str(a) for a in argv])


def run_without_warnings(*argv):
    """run(), failing if the command raised a RuntimeWarning (numpy prints
    those on stderr ahead of the error line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    return code


def tree_bytes(root):
    """Map of relative path -> bytes for a directory tree."""
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def huge_shape():
    """An airfoil whose finite coordinates are near 1e308: its sums and
    chord lengths overflow."""
    return LandmarkShape(
        1.5e308 + 1e307 * cst_airfoil(np.full(9, 0.2), np.full(9, 0.1), n_c=101).x
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small generated dataset plus a fitted grassmann model."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    nominal = root / "nominal.txt"
    nominal.write_text(
        "# test nominal\n"
        + " ".join(["0.25"] * 9) + "\n" + " ".join(["0.1"] * 9) + "\n"
    )
    assert run("cst-gen", "--count", 20, "--nc", 101, "--seed", 5,
               "--nominal", nominal, "--out", data) == 0
    model = root / "model.txt"
    assert run("fit", "--input", data / "manifest.txt", "--rank", 3,
               "--out", model) == 0
    return root


def test_cst_gen_outputs(dataset):
    data = dataset / "data"
    files = sorted(os.listdir(data))
    assert "manifest.txt" in files and "coefficients.txt" in files
    airfoils = [f for f in files if f.startswith("airfoil_")]
    assert len(airfoils) == 20
    shape = read_landmarks(data / airfoils[0])
    assert shape.n == 101 and shape.closed
    labels = {
        line.split(",")[1]
        for line in (data / "manifest.txt").read_text().splitlines()
        if line and not line.startswith("#")
    }
    assert labels == {"nominal"}


def test_cst_gen_deterministic(tmp_path):
    for d in ("a", "b"):
        assert run("cst-gen", "--count", 6, "--nc", 61, "--seed", 9,
                   "--out", tmp_path / d) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_cst_gen_zero_perturbation_copies_nominal(dataset, tmp_path):
    out = tmp_path / "copies"
    assert run("cst-gen", "--count", 3, "--nc", 61, "--seed", 1,
               "--nominal", dataset / "nominal.txt", "--perturb", 0.0,
               "--out", out) == 0
    rows = [
        l for l in (out / "coefficients.txt").read_text().splitlines()
        if not l.startswith("#")
    ]
    expect = [0.25] * 9 + [0.1] * 9
    for row in rows:
        assert [float(v) for v in row.split()] == expect


def test_cst_gen_perturbation_stays_in_box(tmp_path):
    nominal = tmp_path / "fat.txt"
    nominal.write_text(" ".join(["0.44"] * 18) + "\n")
    out = tmp_path / "boxed"
    assert run("cst-gen", "--count", 4, "--nc", 61, "--seed", 2,
               "--nominal", nominal, "--perturb", 20.0, "--out", out) == 0
    rows = [
        l for l in (out / "coefficients.txt").read_text().splitlines()
        if not l.startswith("#")
    ]
    values = np.array([[float(v) for v in r.split()] for r in rows])
    assert values.min() >= 0.0 and values.max() <= 0.45


def test_cst_gen_negative_coeff_range_with_equals(tmp_path):
    out = tmp_path / "negative"
    assert run("cst-gen", "--count", 4, "--nc", 61, "--seed", 3,
               "--coeff-range=-0.1:0.45", "--out", out) == 0
    rows = [
        l for l in (out / "coefficients.txt").read_text().splitlines()
        if not l.startswith("#")
    ]
    values = np.array([[float(v) for v in r.split()] for r in rows])
    assert values.shape == (4, 18)
    assert values.min() >= -0.1 and values.max() <= 0.45


def test_preprocess_refines_and_reports(dataset, tmp_path):
    out = tmp_path / "pre"
    assert run("preprocess", "--input", dataset / "data" / "manifest.txt",
               "--n", 101, "--out", out) == 0
    refined = [f for f in os.listdir(out) if f.startswith("airfoil_")]
    assert len(refined) == 20
    gauges = (out / "gauges.csv").read_text().splitlines()
    assert gauges[0] == "file,label,gauge_in,gauge_out"
    assert len(gauges) == 21


def test_preprocess_is_nearly_idempotent(dataset, tmp_path):
    first = tmp_path / "p1"
    second = tmp_path / "p2"
    assert run("preprocess", "--input", dataset / "data" / "manifest.txt",
               "--n", 101, "--out", first) == 0
    assert run("preprocess", "--input", first / "manifest.txt",
               "--n", 101, "--out", second) == 0
    a = read_landmarks(first / "airfoil_0000.txt")
    b = read_landmarks(second / "airfoil_0000.txt")
    assert np.abs(a.x - b.x).max() < 2e-3


def test_preprocess_collects_per_file_errors(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 0.0\n1.0 0.0\n")
    write_landmarks(tmp_path / "huge.txt", huge_shape())
    manifest = tmp_path / "manifest.txt"
    rel = os.path.relpath(dataset / "data" / "airfoil_0000.txt", tmp_path)
    manifest.write_text(f"{rel},ok\nbad.txt,broken\nhuge.txt,overflow\n")
    out = tmp_path / "out"
    assert run_without_warnings("preprocess", "--input", manifest, "--n", 61,
                                "--out", out) == 2
    err = capsys.readouterr().err
    assert "bad.txt" in err
    assert "huge.txt: chord lengths overflow" in err
    # the valid shape was still processed
    assert (out / "airfoil_0000.txt").exists()


def test_preprocess_refines_a_mixed_manifest_as_each_file_alone(tmp_path, capsys):
    """Files of several landmark counts, open and closed, go through one
    refine call: each output equals its own file's refinement, the
    manifest and gauges.csv keep input order, and a bad file is named."""
    rng = np.random.default_rng(8)
    names = []
    for k in range(8):
        pts = cst_airfoil(rng.uniform(0.1, 0.4, 9), rng.uniform(0.1, 0.4, 9),
                          n_c=(41, 61)[k % 2]).x
        names.append(f"f{k}.txt")
        if k == 5:  # a repeated consecutive landmark
            pts = np.vstack([pts[:20], pts[19:]])
        write_landmarks(tmp_path / names[-1], LandmarkShape(
            pts if k % 3 else pts[:-1], closed=k % 3 > 0))
    (tmp_path / "manifest.txt").write_text(
        "".join(f"{name},l{k}\n" for k, name in enumerate(names)))
    out = tmp_path / "out"
    assert run_without_warnings("preprocess", "--input", tmp_path / "manifest.txt",
                                "--n", 51, "--spline", "pchip", "--out", out) == 2
    assert f"{tmp_path / 'f5.txt'}: repeated consecutive landmarks" in \
        capsys.readouterr().err
    kept = [name for name in names if name != "f5.txt"]
    cfg = PreprocessConfig(n=51, spline="pchip")
    for name in kept:
        alone, = refine([read_landmarks(tmp_path / name)], cfg)
        assert np.array_equal(read_landmarks(out / name).x, alone.x)
    rows = (out / "manifest.txt").read_text().splitlines()
    assert [row for row in rows if not row.startswith("#")] == [
        f"{name},l{names.index(name)}" for name in kept]
    gauges = (out / "gauges.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in gauges] == kept


def test_preprocess_refuses_a_duplicate_output_name(dataset, tmp_path, capsys):
    """Two manifest entries with one file name would write one output; the
    second is refused and the first still written."""
    first = dataset / "data" / "airfoil_0000.txt"
    (tmp_path / "sub").mkdir()
    shutil.copy(first, tmp_path / "sub" / first.name)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{os.path.relpath(first, tmp_path)},a\n"
                        f"sub/{first.name},b\n")
    out = tmp_path / "out"
    assert run("preprocess", "--input", manifest, "--n", 61, "--out", out) == 2
    assert (f"error: {tmp_path / 'sub' / first.name}: duplicate output name "
            f"{first.name}") in capsys.readouterr().err
    rows = (out / "manifest.txt").read_text().splitlines()
    assert [row for row in rows if not row.startswith("#")] == [f"{first.name},a"]


@pytest.fixture(scope="module")
def pchip_tree(tmp_path_factory):
    """5 CST airfoils (seed 1, n = 61) refined by pchip to n = 81, and a
    rank-2 Grassmann fit of them."""
    root = tmp_path_factory.mktemp("pchip")
    assert run("cst-gen", "--count", 5, "--nc", 61, "--seed", 1,
               "--out", root / "raw") == 0
    assert run("preprocess", "--input", root / "raw" / "manifest.txt", "--n", 81,
               "--spline", "pchip", "--out", root / "pre") == 0
    assert run("fit", "--input", root / "pre" / "manifest.txt", "--rank", 2,
               "--out", root / "model.txt") == 0
    return root


def test_preprocess_pchip_writes_closed_shapes_closed(pchip_tree):
    """The pchip path misses its start at s = 1 by rounding; the refined
    files repeat their first landmark exactly and read back closed."""
    for i in range(5):
        shape = read_landmarks(pchip_tree / "pre" / f"airfoil_{i:04d}.txt")
        assert shape.closed and np.array_equal(shape.x[-1], shape.x[0])


def test_sample_strict_exits_4_on_a_guard_failure(pchip_tree, tmp_path, capsys):
    argv = ["sample", "--model", pchip_tree / "model.txt", "--coeffs=0.6,0"]
    assert run(*argv, "--out", tmp_path / "lax") == 0
    assert run(*argv, "--strict", "--out", tmp_path / "strict") == 4
    assert "1 failed the self-intersection guard" in capsys.readouterr().out
    assert (tmp_path / "strict" / "guard.csv").read_text().splitlines()[1:] == [
        "sample_0000.txt,fail"]


def test_fit_writes_model_and_coords(dataset):
    model = load_model(dataset / "model.txt")
    assert model.kind == "grassmann"
    assert model.r == 3
    assert model.mean_scale is not None
    assert model.domain is not None
    coords = (dataset / "model.txt.coords.csv").read_text().splitlines()
    assert coords[0] == "path,label,t1,t2,t3"
    assert len(coords) == 21
    values = np.array([
        [float(v) for v in line.split(",")[2:]] for line in coords[1:]
    ])
    np.testing.assert_allclose(values, model.coords, atol=0.0)


def test_fit_eigenvalues_descending(dataset, capsys):
    assert run("fit", "--input", dataset / "data" / "manifest.txt",
               "--rank", 3, "--out", dataset / "model2.txt") == 0
    out = capsys.readouterr().out
    vals = [float(l.split()[2]) for l in out.splitlines()
            if l.startswith("eigenvalue")]
    assert vals == sorted(vals, reverse=True)


def test_fit_rejects_mixed_landmark_counts(dataset, tmp_path, capsys):
    odd = tmp_path / "odd.txt"
    write_landmarks(odd, cst_airfoil(np.full(9, 0.2), np.full(9, 0.1), n_c=51))
    manifest = tmp_path / "manifest.txt"
    rel = os.path.relpath(dataset / "data" / "airfoil_0000.txt", tmp_path)
    manifest.write_text(f"{rel},a\nodd.txt,b\n")
    assert run("fit", "--input", manifest, "--rank", 2,
               "--out", tmp_path / "m.txt") == 2
    assert "preprocess" in capsys.readouterr().err


def test_fit_names_a_collinear_file(dataset, tmp_path, capsys):
    t = np.linspace(0.0, 1.0, 101)
    write_landmarks(tmp_path / "line.txt", LandmarkShape(np.column_stack([t, 0.5 * t])))
    manifest = tmp_path / "manifest.txt"
    rel = [os.path.relpath(dataset / "data" / f"airfoil_{k:04d}.txt", tmp_path)
           for k in range(3)]
    manifest.write_text("".join(f"{r},ok\n" for r in rel) + "line.txt,bad\n")
    for manifold in ("grassmann", "product"):
        assert run("fit", "--input", manifest, "--manifold", manifold,
                   "--rank", 2, "--out", tmp_path / "m.txt") == 2
        err = capsys.readouterr().err
        assert "line.txt: landmarks are collinear" in err
    assert not (tmp_path / "m.txt").exists()


def test_fit_names_an_overflowing_file(dataset, tmp_path, capsys):
    write_landmarks(tmp_path / "huge.txt", huge_shape())
    manifest = tmp_path / "manifest.txt"
    rel = [os.path.relpath(dataset / "data" / f"airfoil_{k:04d}.txt", tmp_path)
           for k in range(3)]
    manifest.write_text("".join(f"{r},ok\n" for r in rel) + "huge.txt,overflow\n")
    assert run_without_warnings("fit", "--input", manifest, "--rank", 2,
                                "--out", tmp_path / "m.txt") == 2
    err = capsys.readouterr().err
    assert "huge.txt: centered landmarks are not finite" in err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("size", [1e160, 6e307])
def test_fit_of_huge_finite_shapes_writes_a_finite_mean_scale(tmp_path, size):
    """Twelve quadrilaterals near 6e307 each standardize, but the sum of
    their scale factors overflowed; near 1e160 the singularity test did."""
    rng = np.random.default_rng(5)
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for k in range(12):
        write_landmarks(tmp_path / f"s{k:02d}.txt", LandmarkShape(
            size * (square + 0.2 * rng.standard_normal((4, 2)))))
    (tmp_path / "manifest.txt").write_text(
        "".join(f"s{k:02d}.txt,huge\n" for k in range(12)))
    model = tmp_path / "m.txt"
    assert run_without_warnings("fit", "--input", tmp_path / "manifest.txt",
                                "--rank", 1, "--out", model) == 0
    assert np.isfinite(load_model(model).mean_scale.m).all()
    assert run_without_warnings("sample", "--model", model, "--coeffs=0",
                                "--out", tmp_path / "s") == 0


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0"])
def test_fit_refuses_an_epsilon_that_is_not_finite_and_positive(
        dataset, tmp_path, capsys, epsilon):
    assert run("fit", "--input", dataset / "data" / "manifest.txt",
               "--rank", 3, "--epsilon", epsilon,
               "--out", tmp_path / "m.txt") == 2
    assert "epsilon must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def test_fit_zero_variance_exits_nonzero(tmp_path, capsys):
    shape = cst_airfoil(np.full(9, 0.2), np.full(9, 0.1), n_c=61)
    for i in range(3):
        write_landmarks(tmp_path / f"s{i}.txt", shape)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"s{i}.txt,x\n" for i in range(3)))
    assert run("fit", "--input", manifest, "--rank", 1,
               "--out", tmp_path / "m.txt") == 2
    assert "variance" in capsys.readouterr().err


def test_sample_mean_coefficients_give_mean_shape(dataset, tmp_path):
    out = tmp_path / "mean"
    assert run("sample", "--model", dataset / "model.txt", "--coeffs",
               "0,0,0", "--scale", "mean", "--out", out) == 0
    model = load_model(dataset / "model.txt")
    expect = model.mean.rep @ model.mean_scale.m
    got = read_landmarks(out / "sample_0000.txt")
    np.testing.assert_allclose(got.x, expect, atol=1e-12)
    guard = (out / "guard.csv").read_text().splitlines()
    assert guard == ["file,guard", "sample_0000.txt,pass"]


def test_sample_product_model_carries_its_scale(dataset, tmp_path):
    model_path = tmp_path / "product.txt"
    assert run("fit", "--input", dataset / "data" / "manifest.txt",
               "--manifold", "product", "--rank", 2, "--out", model_path) == 0
    out = tmp_path / "mean"
    assert run("sample", "--model", model_path, "--coeffs", "0,0",
               "--out", out) == 0
    model = load_model(model_path)
    expect = model.mean.grass.rep @ model.mean.scale.mat
    np.testing.assert_allclose(read_landmarks(out / "sample_0000.txt").x,
                               expect, atol=1e-12)
    assert run("sample", "--model", model_path, "--coeffs", "0,0",
               "--scale", "mean", "--out", out) == 2


def test_sample_l4_scale(dataset, tmp_path):
    out = tmp_path / "l4"
    assert run("sample", "--model", dataset / "model.txt", "--coeffs",
               "0,0,0", "--scale", "l4:1.0,1.0,1.0,0.0", "--out", out) == 0
    got = read_landmarks(out / "sample_0000.txt")
    model = load_model(dataset / "model.txt")
    np.testing.assert_allclose(got.x, model.mean.rep, atol=1e-12)


def test_sample_sweep_deterministic(dataset, tmp_path):
    for d in ("s1", "s2"):
        assert run("sample", "--model", dataset / "model.txt", "--sweep",
                   "corner-to-corner", "--count", 7, "--seed", 3,
                   "--out", tmp_path / d) == 0
    assert tree_bytes(tmp_path / "s1") == tree_bytes(tmp_path / "s2")
    files = os.listdir(tmp_path / "s1")
    assert sum(f.startswith("sample_") for f in files) == 7


def test_sample_sweeps_a_model_saved_from_a_library_fit(tmp_path):
    # pga_fit derives the sampling domain, so no caller attaches one
    shapes = [cst_airfoil(np.full(9, 0.2 + 0.01 * k), np.full(9, 0.1 - 0.005 * k),
                          n_c=61) for k in range(6)]
    save_model(tmp_path / "m.txt", pga_fit([la_standardize(s).grass for s in shapes],
                                           r=2))
    assert run("sample", "--model", tmp_path / "m.txt", "--sweep",
               "corner-to-corner", "--count", 3, "--out", tmp_path / "s") == 0
    assert len(read_landmarks(tmp_path / "s" / "sample_0002.txt").x) == 61


def test_samples_of_a_closed_training_set_are_closed(tmp_path):
    """Standardization breaks a closed shape's repeat in the last bits, so
    the samples take their closedness from the model mean's end rows and
    repeat their first landmark exactly; written open, some crossed
    themselves at the nearly touching ends."""
    assert run("cst-gen", "--count", 12, "--nc", 61, "--seed", 4,
               "--out", tmp_path / "raw") == 0
    assert run("preprocess", "--input", tmp_path / "raw" / "manifest.txt",
               "--n", 81, "--out", tmp_path / "pre") == 0
    for manifold in ("product", "grassmann"):
        model, out = tmp_path / f"{manifold}.txt", tmp_path / manifold
        assert run("fit", "--input", tmp_path / "pre" / "manifest.txt",
                   "--manifold", manifold, "--rank", 3, "--out", model) == 0
        assert run("sample", "--model", model, "--sweep", "corner-to-corner",
                   "--count", 5, "--out", out) == 0
        for i in range(5):
            assert read_landmarks(out / f"sample_{i:04d}.txt").closed
        assert (out / "guard.csv").read_text().splitlines()[1:] == [
            f"sample_{i:04d}.txt,pass" for i in range(5)]


def test_sample_usage_errors(dataset, tmp_path):
    assert run("sample", "--model", dataset / "model.txt",
               "--out", tmp_path / "x") == 2
    assert run("sample", "--model", dataset / "model.txt", "--coeffs", "0,0",
               "--out", tmp_path / "x") == 2  # wrong length
    assert run("sample", "--model", dataset / "model.txt", "--coeffs", "0,0,0",
               "--scale", "cubist", "--out", tmp_path / "x") == 2


def corrupt(src, dst, head, edit):
    """Copy a line-block file, replacing the line that starts with
    ``head`` (``+1``: the line after it; ``*3``: that line and the 2 after
    it; ``*0``: none, inserting before it) by the lines of ``edit``;
    returns dst."""
    lines = src.read_text().splitlines()
    spec, _, count = head.partition("*")
    key, _, offset = spec.partition("+")
    at = next(i for i, line in enumerate(lines) if line.split()[:1] == [key])
    at += int(offset or 0)
    lines[at:at + int(count or 1)] = edit.splitlines()
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize("head, edit, words", [
    ("basis+1", "x 0 0", "block 'basis' needs 3 numbers per line"),
    ("eigenvalues+1", "1.0 two 3.0", "block 'eigenvalues' needs 3 numbers"),
    ("basis", "basis 802", "expected 'basis rows cols', got 'basis 802'"),
    ("basis", "basis x 4", "bad block size 'x'"),
    ("epsilon", "epsilon", "expected 'epsilon value', got 'epsilon'"),
    ("kind", "kind", "expected 'kind value', got 'kind'"),
    # the file ends after the 2 rows of mean-scale: an extra row, and the
    # domain block that models used to store, are refused
    ("mean-scale+3*0", "0.0 1.0", "expected the end of the file, found '0.0 1.0'"),
    ("mean-scale+3*0", "domain 3\n-1.0 -1.0 -1.0\n1.0 1.0 1.0\n1.0",
     "expected the end of the file, found 'domain 3'"),
    ("coords*21", "coords 0 3", "block 'coords' has 0 rows, expected at least 2"),
    ("mean-scale+1", "1.0", "block 'mean-scale' needs 2 numbers per line"),
    ("basis+1", "nan 0 0", "block 'basis' holds a non-finite value: 'nan 0 0'"),
    ("epsilon", "epsilon inf", "bad epsilon value 'inf': not finite"),
    ("mean-scale", "mean-scale bogus", "unknown mean-scale kind 'bogus'"),
    # no writer produces the intrinsic tag, so no reader accepts it
    ("mean-scale", "mean-scale intrinsic",
     "unknown mean-scale kind 'intrinsic'; expected none or extrinsic"),
])
def test_sample_names_a_corrupt_model_line(dataset, tmp_path, capsys, head,
                                           edit, words):
    model = corrupt(dataset / "model.txt", tmp_path / "bad.txt", head, edit)
    assert run("sample", "--model", model, "--coeffs", "0,0,0",
               "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert re.search(f"error: {re.escape(str(model))}:[0-9]+: ", err)
    assert words in err


def test_fit_and_preprocess_refuse_an_empty_path_field(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(",label\n")
    for argv in (["fit", "--input", manifest, "--rank", 1,
                  "--out", tmp_path / "m.txt"],
                 ["preprocess", "--input", manifest, "--out", tmp_path / "p"]):
        assert run(*argv) == 2
        assert f"error: {manifest}:1: empty path field" in capsys.readouterr().err


def test_dist_spaces(dataset, tmp_path, capsys):
    a_path = dataset / "data" / "airfoil_0000.txt"
    assert run("dist", "--a", a_path, "--b", a_path) == 0
    assert float(capsys.readouterr().out) < 1e-12
    # a rotated copy is identical on the Grassmannian, distinct in space
    shape = read_landmarks(a_path)
    c, s = np.cos(0.4), np.sin(0.4)
    rotated = tmp_path / "rot.txt"
    write_landmarks(rotated, type(shape)(shape.x @ np.array([[c, s], [-s, c]]),
                                         closed=shape.closed))
    assert run("dist", "--a", a_path, "--b", rotated,
               "--space", "grassmann") == 0
    assert float(capsys.readouterr().out) < 1e-10
    assert run("dist", "--a", a_path, "--b", rotated,
               "--space", "euclidean") == 0
    assert float(capsys.readouterr().out) > 0.01
    # doubling the shape doubles its polar factor: distance sqrt(2) ln 2
    doubled = tmp_path / "dbl.txt"
    write_landmarks(doubled, type(shape)(2.0 * shape.x, closed=shape.closed))
    assert run("dist", "--a", a_path, "--b", doubled, "--space", "spd") == 0
    got = float(capsys.readouterr().out)
    assert abs(got - np.sqrt(2.0) * np.log(2.0)) < 1e-10
    small = tmp_path / "small.txt"
    write_landmarks(small, cst_airfoil(np.full(9, 0.2), np.full(9, 0.1),
                                       n_c=51))
    assert run("dist", "--a", a_path, "--b", small) == 2


@pytest.fixture(scope="module")
def kind_models(dataset):
    """Product and SPD models of the dataset, next to its grassmann one."""
    for manifold in ("product", "spd"):
        assert run("fit", "--input", dataset / "data" / "manifest.txt",
                   "--manifold", manifold, "--rank", 2,
                   "--out", dataset / f"{manifold}.txt") == 0
    return dataset


@pytest.mark.parametrize("kind, extra, words", [
    ("spd", [], "sampling needs a grassmann or product model"),
    ("product", ["--scale", "mean"], "product models carry their own scale"),
])
def test_sample_refuses_a_model_before_it_writes(kind_models, tmp_path, capsys,
                                                 kind, extra, words):
    for mode in (["--coeffs=0,0"], ["--sweep", "corner-to-corner"]):
        assert run("sample", "--model", kind_models / f"{kind}.txt", *mode,
                   *extra, "--out", tmp_path / "x") == 2
        assert words in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("model, head, words", [
    ("model.txt", "mean-grassmann+1",
     "columns are not orthonormal: an entry has magnitude 1.000e+308"),
    ("product.txt", "mean-spd+1",
     "SPD matrix has an entry of magnitude 1.000e+308, 2**1023 or more"),
])
def test_sample_names_a_model_whose_mean_overflows(kind_models, tmp_path, capsys,
                                                   model, head, words):
    bad = corrupt(kind_models / model, tmp_path / "bad.txt", head, "1e308 0.0")
    assert run_without_warnings("sample", "--model", bad, "--coeffs=0,0",
                                "--out", tmp_path / "x") == 2
    assert f"error: {bad}: {words}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, words", [
    ("1e308 0 0", "an entry has magnitude 1.000e+308"),
    ("0.5 0.5 0.5", "||X.T X - I||_F ="),
])
def test_sample_names_a_model_whose_basis_is_not_orthonormal(dataset, tmp_path,
                                                             capsys, edit, words):
    bad = corrupt(dataset / "model.txt", tmp_path / "bad.txt", "basis+1", edit)
    assert run_without_warnings("sample", "--model", bad, "--coeffs=0.01,0,0",
                                "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: basis columns are not orthonormal: " in err
    assert words in err
    assert not (tmp_path / "x").exists()


def shorten(src, dst, name):
    """Copy a line-block file with block ``name`` one entry short and its
    header to match: a matrix loses its last row, a vector its last
    value; returns dst."""
    lines = src.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[:1] == [name])
    head = lines[at].split()
    size = int(head[1])
    lines[at] = " ".join([name, str(size - 1)] + head[2:])
    if len(head) == 2:
        lines[at + 1] = " ".join(lines[at + 1].split()[:-1])
    else:
        del lines[at + size]
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize("name, words", [
    ("basis", "block 'basis' has 201 rows, expected 202"),
    ("eigenvalues", "block 'eigenvalues' has 2 entries, expected 3"),
])
def test_sample_refuses_model_blocks_that_disagree(dataset, tmp_path, capsys,
                                                   name, words):
    model = shorten(dataset / "model.txt", tmp_path / "bad.txt", name)
    assert run("sample", "--model", model, "--coeffs", "0,0,0",
               "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert f"error: {model}:" in err and words in err


@pytest.fixture(scope="module")
def blade_setup(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("blade")
    lines = ["span 25.0"]
    for k in range(6):
        upper = np.full(9, 0.25) + 0.012 * k * np.linspace(1.0, 0.3, 9)
        lower = np.full(9, 0.10) + 0.01 * k * np.linspace(0.4, 1.0, 9)
        write_landmarks(root / f"st{k}.txt", cst_airfoil(upper, lower, n_c=101))
        lines.append(f"station {fmt(k / 5.0)} st{k}.txt")
    (root / "blade.def").write_text("\n".join(lines) + "\n")
    built = root / "blade.bld"
    assert run("blade", "build", "--blade", root / "blade.def",
               "--out", built) == 0
    return root


def test_blade_eval_reproduces_station(blade_setup):
    out = blade_setup / "sec.txt"
    assert run("blade", "eval", "--blade", blade_setup / "blade.bld",
               "--eta", 0.4, "--out", out) == 0
    station = read_landmarks(blade_setup / "st2.txt")
    section = read_landmarks(out)
    assert np.abs(section.x - station.x).max() < 1e-8


@pytest.mark.parametrize("head, edit, words", [
    ("variant", "variant", "expected 'variant value', got 'variant'"),
    ("closed", "closed yes", "bad closed value 'yes'"),
    ("has-reflection", "has-reflection", "expected 'has-reflection value'"),
    ("span-length", "span-length 25 m", "expected 'span-length value'"),
    ("span-length", "span-length long", "bad span-length value 'long'"),
    ("etas", "etas x", "bad block size 'x'"),
    ("etas+1", "0.0 0.2 x 0.6 0.8 1.0", "block 'etas' needs 6 numbers"),
    ("reps", "reps 606", "expected 'reps rows cols', got 'reps 606'"),
    ("reps+1", "0.1", "block 'reps' needs 2 numbers per line"),
    ("etas+1", "0.0 0.2 nan 0.6 0.8 1.0", "block 'etas' holds a non-finite value"),
    ("affine-b+1", "nan 0.0", "block 'affine-b' holds a non-finite value"),
    ("span-length", "span-length -inf", "bad span-length value '-inf': not finite"),
])
def test_blade_eval_names_a_corrupt_blade_line(blade_setup, tmp_path, capsys,
                                               head, edit, words):
    blade = corrupt(blade_setup / "blade.bld", tmp_path / "bad.bld", head, edit)
    assert run("blade", "eval", "--blade", blade, "--eta", 0.4,
               "--out", tmp_path / "x.txt") == 2
    err = capsys.readouterr().err
    assert f"error: {blade}:" in err and words in err


@pytest.mark.parametrize("name, words", [
    ("etas", "block 'reps' has 606 rows, expected n >= 3 for each of the 5 "
             "stations"),
    ("reps", "block 'reps' has 605 rows, expected n >= 3 for each of the 6 "
             "stations"),
    ("affine-m", "block 'affine-m' has 5 rows, expected 6"),
    ("affine-b", "block 'affine-b' has 5 rows, expected 6"),
])
def test_blade_eval_refuses_blocks_that_disagree(blade_setup, tmp_path, capsys,
                                                 name, words):
    blade = shorten(blade_setup / "blade.bld", tmp_path / "bad.bld", name)
    assert run("blade", "eval", "--blade", blade, "--eta", 0.4,
               "--out", tmp_path / "x.txt") == 2
    err = capsys.readouterr().err
    assert f"error: {blade}:" in err and words in err


def test_non_finite_coefficients_exit_2(blade_setup, dataset, tmp_path, capsys):
    assert run("sample", "--model", dataset / "model.txt", "--coeffs=nan,0,0",
               "--out", tmp_path / "x") == 2
    assert "bad coefficient list: non-finite value" in capsys.readouterr().err
    assert run("blade", "deform", "--blade", blade_setup / "blade.bld",
               "--model", dataset / "model.txt", "--coeffs=0,inf,0",
               "--out", tmp_path / "d.bld") == 2
    assert "bad coefficient list: non-finite value" in capsys.readouterr().err
    model = corrupt(dataset / "model.txt", tmp_path / "nan.txt", "basis+1",
                    "0 nan 0")
    assert run("blade", "deform", "--blade", blade_setup / "blade.bld",
               "--model", model, "--coeffs", "0,0,0",
               "--out", tmp_path / "d.bld") == 2
    assert f"error: {model}:" in capsys.readouterr().err
    assert not (tmp_path / "d.bld").exists()


def test_blade_refuses_representatives_that_are_not_orthonormal(
        blade_setup, dataset, tmp_path, capsys):
    lines = (blade_setup / "blade.bld").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("reps "))
    rows = int(lines[at].split()[1])
    for i in range(at + 1, at + 1 + rows):
        lines[i] = " ".join(fmt(3.0 * float(t)) for t in lines[i].split())
    blade = tmp_path / "tripled.bld"
    blade.write_text("\n".join(lines) + "\n")
    words = "station 0 (eta=0): representative columns are not orthonormal"
    assert run("blade", "eval", "--blade", blade, "--eta", 0.4,
               "--out", tmp_path / "x.txt") == 2
    err = capsys.readouterr().err
    assert f"error: {blade}: " in err and words in err
    assert run("blade", "deform", "--blade", blade, "--model",
               dataset / "model.txt", "--coeffs", "0,0,0",
               "--out", tmp_path / "d.bld") == 2
    assert words in capsys.readouterr().err


def test_blade_eval_extrapolation_exit_code(blade_setup, tmp_path, capsys):
    for eta in ("2", "nan"):
        assert run("blade", "eval", "--blade", blade_setup / "blade.bld",
                   "--eta", eta, "--out", tmp_path / "x.txt") == 2
        assert f"eta={eta} outside the blade span" in capsys.readouterr().err


@pytest.mark.parametrize("head, edit, words", [
    ("span", "span inf", "bad span value 'inf': not finite"),
    ("station", "station nan st0.txt", "bad station eta value 'nan': not finite"),
    ("station", "station 0.0 st0.txt m nan 0 0 1", "bad m value 'nan': not finite"),
    ("station", "station 0.0 st0.txt m 1 0 0 1 b 0 inf",
     "bad b value 'inf': not finite"),
    ("span", "bend 0.0 0.0 -inf 0.0", "bad bend value '-inf': not finite"),
])
def test_blade_build_names_a_corrupt_definition_line(blade_setup, tmp_path,
                                                     capsys, head, edit, words):
    defn = corrupt(blade_setup / "blade.def", tmp_path / "bad.def", head, edit)
    assert run("blade", "build", "--blade", defn,
               "--out", tmp_path / "x.bld") == 2
    err = capsys.readouterr().err
    assert f"error: {defn}:" in err and words in err
    assert not (tmp_path / "x.bld").exists()


def test_blade_deform_zero_matches_undeformed(blade_setup, dataset, tmp_path):
    deformed = tmp_path / "deformed.bld"
    assert run("blade", "deform", "--blade", blade_setup / "blade.bld",
               "--model", dataset / "model.txt", "--coeffs", "0,0,0",
               "--out", deformed) == 0
    w0, w1 = tmp_path / "w0", tmp_path / "w1"
    assert run("blade", "wireframe", "--blade", blade_setup / "blade.bld",
               "--sections", 12, "--out", w0) == 0
    assert run("blade", "wireframe", "--blade", deformed,
               "--sections", 12, "--out", w1) == 0
    for i in range(12):
        a = read_landmarks(w0 / f"section_{i:03d}.txt")
        b = read_landmarks(w1 / f"section_{i:03d}.txt")
        assert np.abs(a.x - b.x).max() < 1e-10


def test_blade_deform_mean_scale(blade_setup, dataset, tmp_path, capsys):
    """--scale mean puts the model's mean scale at every station (up to the
    alignment rotation); a model without one is refused before writing."""
    out = tmp_path / "mean.bld"
    assert run("blade", "deform", "--blade", blade_setup / "blade.bld",
               "--model", dataset / "model.txt", "--coeffs", "0,0,0",
               "--scale", "mean", "--out", out) == 0
    mean = load_model(dataset / "model.txt").mean_scale.m
    np.testing.assert_allclose(
        np.linalg.svd(load_blade(out).affine_m, compute_uv=False),
        np.broadcast_to(np.linalg.svd(mean, compute_uv=False), (6, 2)), rtol=1e-12)
    bare = corrupt(dataset / "model.txt", tmp_path / "bare.txt", "mean-scale*3",
                   "mean-scale none")
    assert run("blade", "deform", "--blade", blade_setup / "blade.bld",
               "--model", bare, "--coeffs", "0,0,0", "--scale", "mean",
               "--out", tmp_path / "x.bld") == 2
    assert "error: model carries no mean scale" in capsys.readouterr().err
    assert not (tmp_path / "x.bld").exists()


def test_blade_deform_past_the_training_radius_warns_in_one_line(
        blade_setup, dataset, tmp_path, capsys):
    radius = load_model(dataset / "model.txt").domain.radius
    out = tmp_path / "far.bld"
    assert run("blade", "deform", "--blade", blade_setup / "blade.bld",
               "--model", dataset / "model.txt", f"--coeffs={fmt(1.5 * radius)},0,0",
               "--out", out) == 0
    warning, timing = capsys.readouterr().err.splitlines()
    assert warning == (f"warning: deformation magnitude {1.5 * radius:.3g} exceeds "
                       f"the training radius {radius:.3g}; extrapolating the model")
    assert re.fullmatch(r"deformed 6 stations in [0-9.]+ s", timing)
    assert load_blade(out).n_stations == 6


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "{root}/model.txt", "--coeffs=1e308,0,0"],
    ["sample", "--model", "{root}/product.txt", "--coeffs=5000,0"],
    ["blade", "deform", "--blade", "{blade}", "--model", "{root}/model.txt",
     "--coeffs=1e308,0,0"],
], ids=["sample-grassmann", "sample-product", "blade-deform"])
def test_oversized_coefficients_exit_2_without_warnings(
        kind_models, blade_setup, tmp_path, capsys, argv):
    """Coefficients whose Exp at the mean overflows are refused once, as too
    large, before numpy warns on the way to a non-finite point."""
    argv = [a.format(root=kind_models, blade=blade_setup / "blade.bld")
            for a in argv]
    out = tmp_path / "out"
    assert run_without_warnings(*argv, "--out", out) == 2
    assert "error: coefficient vector is too large" in capsys.readouterr().err
    assert not out.exists()  # sample forms every shape before it makes --out


def test_blade_wireframe_artifacts(blade_setup, tmp_path):
    out = tmp_path / "wire"
    assert run("blade", "wireframe", "--blade", blade_setup / "blade.bld",
               "--sections", 10, "--out", out) == 0
    assert (out / "blade.obj").exists()
    assert (out / "manifest.txt").exists()
    assert sum(f.startswith("section_") for f in os.listdir(out)) == 10


@pytest.fixture(scope="module")
def spd_blade(blade_setup):
    built = blade_setup / "spd.bld"
    assert run("blade", "build", "--blade", blade_setup / "blade.def",
               "--variant", "product-spd", "--out", built) == 0
    return built


def test_product_spd_blade_pipeline(blade_setup, spd_blade, dataset, tmp_path):
    for k in range(6):
        out = tmp_path / f"sec{k}.txt"
        assert run("blade", "eval", "--blade", spd_blade, "--eta", k / 5.0,
                   "--out", out) == 0
        station = read_landmarks(blade_setup / f"st{k}.txt")
        assert np.abs(read_landmarks(out).x - station.x).max() < 1e-8
    deformed = tmp_path / "deformed.bld"
    assert run("blade", "deform", "--blade", spd_blade,
               "--model", dataset / "model.txt", "--coeffs", "0,0,0",
               "--out", deformed) == 0
    w0, w1 = tmp_path / "w0", tmp_path / "w1"
    for blade, out in ((spd_blade, w0), (deformed, w1)):
        assert run("blade", "wireframe", "--blade", blade,
                   "--sections", 12, "--out", out) == 0
        assert (out / "blade.obj").exists()
    for i in range(12):
        a = read_landmarks(w0 / f"section_{i:03d}.txt")
        b = read_landmarks(w1 / f"section_{i:03d}.txt")
        assert np.abs(a.x - b.x).max() < 1e-10
    # the artifact holds the definition only, and round trips byte-exact
    again = tmp_path / "again.bld"
    save_blade(again, load_blade(spd_blade))
    assert again.read_bytes() == spd_blade.read_bytes()
    assert "spd-p" not in spd_blade.read_text()


def test_blade_eval_refuses_an_old_product_spd_artifact(spd_blade, tmp_path,
                                                        capsys):
    # the earlier layout also stored the polar split, between affine-b and
    # bend; here its SPD part is doubled, which the split of affine-m
    # disagrees with
    lines = spd_blade.read_text().splitlines()
    at = lines.index("bend none")
    old = ["spd-p 6 4"] + ["2.0 0.0 0.0 2.0"] * 6 + ["angles 6", "0.0 " * 5 + "0.0"]
    blade = tmp_path / "old.bld"
    blade.write_text("\n".join(lines[:at] + old + lines[at:]) + "\n")
    assert run("blade", "eval", "--blade", blade, "--eta", 0.4,
               "--out", tmp_path / "x.txt") == 2
    err = capsys.readouterr().err
    assert f"error: {blade}:{at + 1}: expected 'bend', found 'spd-p 6 4'" in err


def test_product_spd_build_refuses_a_singular_scale(tmp_path, capsys):
    lines = []
    for k in range(3):
        upper = np.full(9, 0.25) + 0.01 * k
        write_landmarks(tmp_path / f"st{k}.txt",
                        cst_airfoil(upper, np.full(9, 0.1), n_c=101))
        m = "1 0 0 0" if k == 1 else "1 0 0 1"
        lines.append(f"station {fmt(k / 2.0)} st{k}.txt m {m}")
    (tmp_path / "blade.def").write_text("\n".join(lines) + "\n")
    assert run_without_warnings(
        "blade", "build", "--blade", tmp_path / "blade.def",
        "--variant", "product-spd", "--out", tmp_path / "x.bld") == 2
    err = capsys.readouterr().err
    assert "station 1 (eta=0.5): scale factor is singular" in err
    assert not (tmp_path / "x.bld").exists()


@pytest.mark.parametrize("variant", ["gl2-schedule", "product-spd"])
def test_an_overflowing_station_scale_exits_2_without_warnings(tmp_path, capsys,
                                                               variant):
    """A middle station m = [[1e308, 1e308], [-1e308, 1e308]] overflows the
    spanwise schedule (gl2-schedule) or the polar split (product-spd);
    build and wireframe refuse it with no numpy warning."""
    for k in range(3):
        write_landmarks(tmp_path / f"st{k}.txt",
                        cst_airfoil(np.full(9, 0.25) + 0.01 * k,
                                    np.full(9, 0.1), n_c=41))
    huge = "1e308 1e308 -1e308 1e308"
    for name, middle in (("ok", "1 0 0 1"), ("huge", huge)):
        (tmp_path / f"{name}.def").write_text("".join(
            f"station {fmt(k / 2.0)} st{k}.txt m {middle if k == 1 else '1 0 0 1'}\n"
            for k in range(3)))
    words = ("spanwise schedule: spline slopes are not finite"
             if variant == "gl2-schedule" else
             "station 1 (eta=0.5): scale factor is too large")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("blade", "build", "--blade", tmp_path / "huge.def",
                   "--variant", variant, "--out", tmp_path / "x.bld") == 2
        assert words in capsys.readouterr().err
        assert run("blade", "build", "--blade", tmp_path / "ok.def",
                   "--variant", variant, "--out", tmp_path / "ok.bld") == 0
        blade = corrupt(tmp_path / "ok.bld", tmp_path / "huge.bld",
                        "affine-m+2", huge)
        assert run("blade", "wireframe", "--blade", blade,
                   "--out", tmp_path / "wire") == 2
        assert f"error: {blade}: {words}" in capsys.readouterr().err
    assert not (tmp_path / "x.bld").exists()
    assert not (tmp_path / "wire").exists()


def closed_blade_definition(root, open_station=None):
    """Three closed CST stations at n=61, with ``open_station`` (if given)
    written open, one landmark short; returns the definition's path."""
    lines = []
    for k in range(3):
        x = cst_airfoil(np.full(9, 0.25) + 0.02 * k, np.full(9, 0.1), n_c=61).x
        write_landmarks(root / f"st{k}.txt", LandmarkShape(
            x[:-1] if k == open_station else x, closed=k != open_station))
        lines.append(f"station {fmt(k / 2.0)} st{k}.txt")
    (root / "blade.def").write_text("\n".join(lines) + "\n")
    return root / "blade.def"


def test_a_closed_blade_writes_closed_sections(tmp_path):
    built = tmp_path / "x.bld"
    assert run("blade", "build", "--blade", closed_blade_definition(tmp_path),
               "--out", built) == 0
    assert "closed 1" in built.read_text().splitlines()
    assert run("blade", "wireframe", "--blade", built, "--sections", 5,
               "--out", tmp_path / "wire") == 0
    assert run("blade", "eval", "--blade", built, "--eta", 0.3,
               "--out", tmp_path / "sec.txt") == 0
    paths = [tmp_path / "wire" / f"section_{i:03d}.txt" for i in range(5)]
    for path in paths + [tmp_path / "sec.txt"]:
        assert read_landmarks(path).closed


@pytest.mark.parametrize("open_station, words", [
    (1, "station 1 (eta=0.5) is open but station 0 is not"),
    (0, "station 1 (eta=0.5) is closed but station 0 is not"),
])
def test_blade_build_refuses_open_and_closed_stations_together(
        tmp_path, capsys, open_station, words):
    defn = closed_blade_definition(tmp_path, open_station)
    assert run("blade", "build", "--blade", defn, "--out", tmp_path / "x.bld") == 2
    assert words in capsys.readouterr().err
    assert not (tmp_path / "x.bld").exists()


def test_blade_build_wrong_file_exit_code(tmp_path):
    bad = tmp_path / "bad.def"
    bad.write_text("wingspan 10\n")
    assert run("blade", "build", "--blade", bad,
               "--out", tmp_path / "x.bld") == 2
    assert run("blade", "eval", "--blade", tmp_path / "missing.bld",
               "--eta", 0.5, "--out", tmp_path / "y.txt") == 2


def test_blade_build_names_an_overflowing_station(tmp_path, capsys):
    lines = []
    for k in range(3):
        upper = np.full(9, 0.25) + 0.01 * k
        write_landmarks(tmp_path / f"st{k}.txt",
                        cst_airfoil(upper, np.full(9, 0.1), n_c=101))
        lines.append(f"station {fmt(k / 3.0)} st{k}.txt")
    write_landmarks(tmp_path / "huge.txt", huge_shape())
    lines.append("station 1.0 huge.txt")
    (tmp_path / "blade.def").write_text("\n".join(lines) + "\n")
    assert run_without_warnings("blade", "build", "--blade", tmp_path / "blade.def",
                                "--out", tmp_path / "x.bld") == 2
    err = capsys.readouterr().err
    assert "station 3 (eta=1): centered landmarks are not finite" in err
    assert not (tmp_path / "x.bld").exists()


@pytest.fixture(scope="module")
def odd_files(tmp_path_factory):
    """An airfoil, a copy with a nan row, a collinear file, the airfoil
    scaled by 1e300 and a blade definition with the nan file as a station."""
    root = tmp_path_factory.mktemp("odd")
    x = cst_airfoil(np.full(9, 0.2), np.full(9, 0.1), n_c=51).x
    write_landmarks(root / "a.txt", LandmarkShape(x))
    write_landmarks(root / "big.txt", LandmarkShape(1e300 * x))
    line = np.linspace(0.0, 1.0, 51)
    write_landmarks(root / "line.txt", LandmarkShape(np.c_[line, 2.0 * line]))
    rows = (root / "a.txt").read_text().splitlines()
    rows[7] = "nan 0.1"
    (root / "nan.txt").write_text("\n".join(rows) + "\n")
    (root / "blade.def").write_text("station 0 a.txt\nstation 1 nan.txt\n")
    return root


@pytest.mark.parametrize("argv, name, words", [
    (["dist", "--a", "a.txt", "--b", "nan.txt"], "nan.txt",
     "landmarks contain non-finite values"),
    (["blade", "build", "--blade", "blade.def", "--out", "x.bld"], "nan.txt",
     "landmarks contain non-finite values"),
    (["dist", "--a", "line.txt", "--b", "a.txt"], "line.txt",
     "landmarks are collinear after centering"),
    (["dist", "--a", "a.txt", "--b", "line.txt", "--space", "spd"], "line.txt",
     "landmarks are collinear after centering"),
], ids=["dist-nan", "blade-build-nan", "dist-collinear", "dist-spd-collinear"])
def test_landmark_refusals_name_their_file(odd_files, capsys, argv, name, words):
    argv = [odd_files / a if a.endswith((".txt", ".def", ".bld")) else a
            for a in argv]
    assert run_without_warnings(*argv) == 2
    assert f"error: {odd_files / name}: {words}" in capsys.readouterr().err


@pytest.mark.parametrize("space, want", [
    ("grassmann", 0.0), ("spd", np.sqrt(2.0) * np.log(1e300))],
    ids=["grassmann", "spd"])
def test_dist_of_huge_coordinates_does_not_warn(odd_files, capsys, space, want):
    """Scale factors near 1e301 overflow the determinant test of their
    affine factor, which must stay silent."""
    assert run_without_warnings("dist", "--a", odd_files / "a.txt",
                                "--b", odd_files / "big.txt", "--space", space) == 0
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_convergence_cli(tmp_path, capsys):
    csv1 = tmp_path / "c1.csv"
    svg = tmp_path / "c.svg"
    assert run("convergence", "--trials", 6, "--seed", 4,
               "--nc-list", "20,40,80", "--out-csv", csv1,
               "--out-svg", svg) == 0
    out = capsys.readouterr().out
    assert "slope grassmann-mean" in out
    assert svg.exists()
    csv2 = tmp_path / "c2.csv"
    assert run("convergence", "--trials", 6, "--seed", 4,
               "--nc-list", "20,40,80", "--out-csv", csv2) == 0
    assert csv1.read_bytes() == csv2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["blade", "wireframe", "--blade", "{blade}", "--sections", "-1", "--out"],
    ["sample", "--model", "{model}", "--sweep", "corner-to-corner",
     "--count", "-2", "--out"],
    ["cst-gen", "--coeff-range=0:inf", "--out"],
    ["cst-gen", "--coeff-range=-1e308:1e308", "--out"],
    ["cst-gen", "--nominal", "{nominal}", "--perturb", "nan", "--out"],
    ["cst-gen", "--nominal", "{nominal}", "--perturb", "inf", "--out"],
    ["cst-gen", "--count", "-1", "--out"],
    ["convergence", "--nc-list", "20", "--out-csv"],
    ["convergence", "--nc-list", "20,x", "--out-csv"],
    ["convergence", "--trials", "0", "--out-csv"],
    ["convergence", "--trials", "-3", "--out-csv"],
    ["cst-gen", "--seed", "-1", "--out"],
    ["sample", "--model", "{model}", "--sweep", "corner-to-corner",
     "--seed", "-1", "--out"],
    ["convergence", "--seed", "-1", "--out-csv"],
    ["sample", "--model", "{model}", "--coeffs=0,0,0", "--sweep",
     "corner-to-corner", "--out"],
], ids=" ".join)
def test_bad_counts_and_ranges_exit_2(blade_setup, dataset, tmp_path, capsys,
                                      argv):
    argv = [a.format(blade=blade_setup / "blade.bld", model=dataset / "model.txt",
                     nominal=dataset / "nominal.txt") for a in argv]
    try:
        code = run(*argv, tmp_path / "out")
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, words", [
    (["preprocess", "--input", "{manifest}", "--n", "999999999999"],
     "refinement count must be an integer in [3, 10000000], got 999999999999"),
    (["cst-gen", "--nc", "99999999999"],
     "an airfoil needs between 5 and 10000000 landmarks, got 99999999999"),
], ids=["preprocess", "cst-gen"])
def test_oversized_landmark_counts_exit_2(dataset, tmp_path, capsys, argv,
                                          words):
    """Counts numpy would refuse to allocate are refused before any array
    is made, naming the count."""
    argv = [a.format(manifest=dataset / "data" / "manifest.txt") for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def assert_help(argv, env=None):
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: shapetensors")
    assert "preprocess" in proc.stdout and "convergence" in proc.stdout


def test_console_script_help():
    # The child must import the same package as this process, whether it
    # came from an install or from PYTHONPATH=src.
    package_root = os.path.dirname(os.path.dirname(shapetensors.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    assert_help([sys.executable, "-m", "shapetensors", "--help"], env=env)


def test_console_script_mapping():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["shapetensors"] == "shapetensors.cli:main"
    assert callable(main)


@pytest.mark.skipif(shutil.which("shapetensors") is None,
                    reason="console script not installed")
def test_installed_console_script_help():
    assert_help(["shapetensors", "--help"])


PIPELINE_WITHOUT_SCIPY = """
import sys
import shapetensors.cli as cli
assert "scipy" not in sys.modules, "import shapetensors.cli loaded scipy"
steps = [
    ["cst-gen", "--count", "8", "--nc", "61", "--seed", "3", "--out", "raw"],
    ["preprocess", "--input", "raw/manifest.txt", "--n", "81", "--out", "cooked"],
    ["fit", "--input", "cooked/manifest.txt", "--rank", "2", "--out", "model.txt"],
    ["sample", "--model", "model.txt", "--sweep", "corner-to-corner",
     "--count", "3", "--out", "samples"],
    ["blade", "build", "--blade", "blade.def", "--n", "81", "--out", "blade.bld"],
    ["blade", "wireframe", "--blade", "blade.bld", "--sections", "5",
     "--out", "wire"],
]
for argv in steps:
    assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
"""


def test_the_pipeline_runs_without_importing_scipy(tmp_path):
    """A fresh interpreter imports the CLI and runs cst-gen, preprocess,
    fit, sample, blade build and blade wireframe through cli.main; scipy
    never enters sys.modules."""
    (tmp_path / "blade.def").write_text(
        "bend 0.0 0 0 0\nbend 0.5 0 1 5\nbend 1.0 0 3 10\n"
        + "".join(f"station {k / 2.0} raw/airfoil_000{k}.txt\n" for k in range(3)))
    package_root = os.path.dirname(os.path.dirname(shapetensors.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_SCIPY],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "wire" / "blade.obj").exists()
