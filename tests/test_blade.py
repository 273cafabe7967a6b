import os

import numpy as np
import pytest

from shapetensors.blade import (
    build_blade,
    cluster_representatives,
    consistent_deform,
    evaluate_blade,
    procrustes_rotation,
)
from shapetensors.bladeio import (
    build_blade_from_definition,
    load_blade,
    read_blade_definition,
    save_blade,
    wireframe_sections,
    write_obj,
    write_wireframe,
)
from shapetensors.cst import cst_airfoil
from shapetensors.errors import ContractError, ExtrapolationError
from shapetensors.grassmann import GrassmannPoint, gr_distance, gr_exp, gr_log
from shapetensors.linalg import rotation2
from shapetensors.shapes import la_standardize, read_landmarks, write_landmarks
from shapetensors.stats import pga_fit, sample_domain

from conftest import random_grassmann_point
from oracles import integrate_geodesic, subspace_gap


def family_station(k, n_c=101):
    """A small family of airfoil sections varying smoothly with k."""
    upper = np.full(9, 0.22) + 0.02 * k * np.linspace(1.0, 0.2, 9)
    lower = np.full(9, 0.12) + 0.015 * k * np.linspace(0.3, 1.0, 9)
    return cst_airfoil(upper, lower, n_c=n_c)


def family_blade(n_stations=4, variant="gl2-schedule", n_c=101):
    stations = [
        (k / (n_stations - 1.0), family_station(k, n_c=n_c))
        for k in range(n_stations)
    ]
    return stations, build_blade(stations, variant=variant)


def test_procrustes_recovers_rotation(rng):
    a = random_grassmann_point(rng, 12).rep
    r_true = rotation2(0.3)
    b = a @ r_true
    r = procrustes_rotation(a, b)
    # b r must equal a, so r inverts the applied rotation
    np.testing.assert_allclose(r, r_true.T, atol=1e-12)
    np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-12)


def test_procrustes_so2_constraint(rng):
    a = random_grassmann_point(rng, 9).rep
    b = a @ np.diag([1.0, -1.0])
    free = procrustes_rotation(a, b)
    assert np.linalg.det(free) < 0.0
    forced = procrustes_rotation(a, b, allow_reflection=False)
    assert np.linalg.det(forced) > 0.0
    np.testing.assert_allclose(forced.T @ forced, np.eye(2), atol=1e-12)


def test_clustering_makes_cross_grams_spd(rng):
    reps = [random_grassmann_point(rng, 20) for _ in range(5)]
    aligned, _ = cluster_representatives(reps)
    for k in range(4):
        q = aligned[k].T @ aligned[k + 1]
        np.testing.assert_allclose(q, q.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(0.5 * (q + q.T)) > 0.0)


def test_clustering_preserves_subspaces_and_anchor(rng):
    reps = [random_grassmann_point(rng, 15) for _ in range(4)]
    aligned, rotations = cluster_representatives(reps, direction="tip-to-root")
    np.testing.assert_array_equal(aligned[-1], reps[-1].rep)
    np.testing.assert_array_equal(rotations[-1], np.eye(2))
    for a, r in zip(aligned, reps):
        assert gr_distance(GrassmannPoint(a), r) < 1e-13
    rooted, rot0 = cluster_representatives(reps, direction="root-to-tip")
    np.testing.assert_array_equal(rooted[0], reps[0].rep)
    np.testing.assert_array_equal(rot0[0], np.eye(2))


def test_clustering_rejects_unknown_direction(rng):
    reps = [random_grassmann_point(rng, 8) for _ in range(3)]
    with pytest.raises(ContractError):
        cluster_representatives(reps, direction="sideways")


def test_blade_reproduces_stations_at_knots():
    stations, model = family_blade()
    for eta, shape in stations:
        sec = evaluate_blade(model, eta)
        assert np.max(np.abs(sec.x - shape.x)) < 1e-8
        assert sec.closed == shape.closed


def test_blade_product_variant_reproduces_stations():
    stations, model = family_blade(variant="product-spd")
    for eta, shape in stations:
        sec = evaluate_blade(model, eta)
        assert np.max(np.abs(sec.x - shape.x)) < 1e-8


def test_interval_geodesics_land_on_next_knot():
    # after Procrustes clustering the cross-Grams are SPD, so following
    # the interval log all the way must land on the neighbor exactly
    _, model = family_blade()
    for k in range(model.n_stations - 1):
        rep = model._rep_at(model.etas[k + 1], k)
        assert np.max(np.abs(rep - model.reps[k + 1])) < 1e-12


def test_two_station_midpoint_matches_geodesic():
    from shapetensors.grassmann import _exp_raw

    _, model = family_blade(n_stations=2)
    # two knots make phi linear in eta and the spline schedules linear,
    # so eta = 0.5 must be the geodesic midpoint with averaged affine
    mid = _exp_raw(model.reps[0], 0.5 * model._gr_logs[0])
    m_avg = 0.5 * (model.affine_m[0] + model.affine_m[1])
    b_avg = 0.5 * (model.affine_b[0] + model.affine_b[1])
    sec = evaluate_blade(model, 0.5)
    np.testing.assert_allclose(sec.x, mid @ m_avg + b_avg, atol=1e-9)


def test_quarter_point_matches_ode_oracle():
    _, model = family_blade(n_stations=2, n_c=41)
    log01 = model._gr_logs[0]
    oracle = integrate_geodesic(model.reps[0], log01, 0.25)
    rep = model._rep_at(0.25, 0)
    assert subspace_gap(rep, oracle) < 1e-7


def test_evaluation_is_continuous_across_knots():
    _, model = family_blade()
    for eta in model.etas[1:-1]:
        left = evaluate_blade(model, float(eta) - 1e-9)
        right = evaluate_blade(model, float(eta) + 1e-9)
        assert np.max(np.abs(left.x - right.x)) < 1e-6


def test_dense_sweep_is_finite_and_smooth():
    _, model = family_blade()
    etas = np.linspace(0.0, 1.0, 101)
    prev = None
    for eta in etas:
        sec = evaluate_blade(model, float(eta))
        assert np.all(np.isfinite(sec.x))
        if prev is not None:
            assert np.max(np.abs(sec.x - prev)) < 0.05
        prev = sec.x


def test_extrapolation_rejected():
    _, model = family_blade()
    with pytest.raises(ExtrapolationError):
        evaluate_blade(model, -0.01)
    with pytest.raises(ExtrapolationError):
        evaluate_blade(model, 1.01)


def test_station_validation():
    s0 = family_station(0)
    s1 = family_station(1)
    with pytest.raises(ContractError):
        build_blade([(0.0, s0)])
    with pytest.raises(ContractError):
        build_blade([(0.0, s0), (0.0, s1)])
    small = family_station(1, n_c=51)
    with pytest.raises(ContractError):
        build_blade([(0.0, s0), (1.0, small)])
    with pytest.raises(ContractError):
        build_blade([(0.0, s0), (1.0, s1)], variant="triangular")
    for bend in ([[0.0, 0.0, 0.0, 0.0]],
                 [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 5.0], [0.5, 0.0, 2.0, 9.0]]):
        with pytest.raises(ContractError, match="a bend curve needs two or more"):
            build_blade([(0.0, s0), (1.0, s1)], bend=np.array(bend))
    # finite stations whose spanwise slopes overflow
    huge = [(np.diag([1.0, 1e308 * k]), np.zeros(2)) for k in (-1.0, 1.0)]
    with pytest.raises(ContractError, match="spanwise schedule"):
        build_blade([(0.0, s0), (0.5, s1)], affine_overrides=huge)


def test_translation_schedule_is_exact():
    shape = family_station(0)
    overrides = [(np.eye(2), np.array([2.0 * e, 0.0])) for e in (0.0, 0.5, 1.0)]
    stations = [(e, shape) for e in (0.0, 0.5, 1.0)]
    model = build_blade(stations, affine_overrides=overrides)
    base = evaluate_blade(model, 0.0).x
    sec = evaluate_blade(model, 0.25)
    np.testing.assert_allclose(sec.x, base + np.array([0.5, 0.0]), atol=1e-10)


def test_product_variant_unwraps_twist():
    shape = family_station(0)
    angles = [2.9, 3.3, 3.7]  # crosses the pi branch cut
    overrides = [(1.3 * rotation2(t), np.zeros(2)) for t in angles]
    stations = [(e, shape) for e in (0.0, 0.5, 1.0)]
    model = build_blade(stations, variant="product-spd",
                        affine_overrides=overrides)
    etas = np.linspace(0.0, 1.0, 81)
    prev = None
    for eta in etas:
        sec = evaluate_blade(model, float(eta))
        if prev is not None:
            # a branch-cut jump would teleport the section by ~2 chord
            assert np.max(np.abs(sec.x - prev)) < 0.1
        prev = sec.x


def test_product_variant_rejects_reflection_override():
    shape = family_station(0)
    overrides = [
        (np.eye(2), np.zeros(2)),
        (np.diag([1.0, -1.0]), np.zeros(2)),
    ]
    from shapetensors.errors import DegenerateGeometryError

    with pytest.raises(DegenerateGeometryError):
        build_blade([(0.0, shape), (1.0, shape)], variant="product-spd",
                    affine_overrides=overrides)


def ensemble_model(stations, r=2):
    points = [la_standardize(s).grass for _, s in stations]
    model = pga_fit(points, r=r)
    model.domain = sample_domain(model)
    return model


def test_consistent_deform_zero_is_identity():
    stations, model = family_blade()
    pga = ensemble_model(stations)
    deformed = consistent_deform(model, pga, np.zeros(pga.r))
    for eta, shape in stations:
        sec = evaluate_blade(deformed, eta)
        assert np.max(np.abs(sec.x - shape.x)) < 1e-10


def test_consistent_deform_moves_every_station_equally():
    stations, model = family_blade()
    pga = ensemble_model(stations)
    coeffs = np.array([0.7 * np.sqrt(pga.eigenvalues[0]), 0.0])
    deformed = consistent_deform(model, pga, coeffs)
    step = float(np.linalg.norm(coeffs))
    for k in range(model.n_stations):
        d = gr_distance(
            GrassmannPoint(model.reps[k]), GrassmannPoint(deformed.reps[k])
        )
        # parallel transport is an isometry, so every station moves by
        # exactly the coefficient norm
        assert abs(d - step) < 1e-8


def test_consistent_deform_keeps_blade_evaluable():
    stations, model = family_blade()
    pga = ensemble_model(stations)
    coeffs = np.array([0.5 * np.sqrt(pga.eigenvalues[0]),
                       -0.5 * np.sqrt(pga.eigenvalues[1])])
    deformed = consistent_deform(model, pga, coeffs)
    for eta in np.linspace(0.0, 1.0, 31):
        sec = evaluate_blade(deformed, float(eta))
        assert np.all(np.isfinite(sec.x))


def test_consistent_deform_warns_outside_training_radius():
    stations, model = family_blade()
    pga = ensemble_model(stations)
    big = np.array([10.0 * pga.domain.radius, 0.0])
    with pytest.warns(UserWarning):
        consistent_deform(model, pga, big)


def test_consistent_deform_validates_inputs():
    from shapetensors.spd import SpdMatrix

    stations, model = family_blade()
    pga = ensemble_model(stations)
    with pytest.raises(ContractError):
        consistent_deform(model, pga, np.zeros(pga.r + 1))
    spd_points = [
        SpdMatrix(la_standardize(s, variant="polar").affine.m)
        for _, s in stations
    ]
    spd_pga = pga_fit(spd_points, r=2)
    with pytest.raises(ContractError):
        consistent_deform(model, spd_pga, np.zeros(2))


def test_consistent_deform_names_first_station_outside_neighborhood():
    from shapetensors.blade import BladeModel
    from shapetensors.errors import NormalNeighborhoodError
    from shapetensors.stats import PgaModel

    # station k turns the first column of the mean plane span(e0, e1)
    # towards e2 by theta_k; the last two turn to (almost) pi/2
    e = np.eye(5)
    thetas = [0.0, 0.5, 1.0, np.pi / 2 - 1e-13, np.pi / 2]
    reps = np.stack([np.column_stack([np.cos(t) * e[0] + np.sin(t) * e[2], e[1]])
                     for t in thetas])
    etas = np.linspace(0.0, 1.0, len(thetas))
    model = BladeModel("gl2-schedule", etas, reps,
                       np.broadcast_to(np.eye(2), (5, 2, 2)), np.zeros((5, 2)))
    basis = np.zeros((10, 1))
    basis[3, 0] = 1.0  # the lift [e3, 0], horizontal at the mean
    pga = PgaModel(GrassmannPoint(e[:, :2]), basis, [1.0], np.zeros((2, 1)),
                   1e-8)
    with pytest.raises(NormalNeighborhoodError, match=r"station 3 \(eta=0.75\)"):
        consistent_deform(model, pga, np.array([0.1]))
    # the stations inside the neighborhood deform
    inside = BladeModel("gl2-schedule", etas[:3], reps[:3],
                        np.broadcast_to(np.eye(2), (3, 2, 2)), np.zeros((3, 2)))
    assert consistent_deform(inside, pga, np.array([0.1])).n_stations == 3


def test_mean_scale_replacement():
    from shapetensors.stats import mean_scale

    stations, model = family_blade()
    pga = ensemble_model(stations)
    factors = [la_standardize(s).affine.m for _, s in stations]
    bar = mean_scale(factors)
    deformed = consistent_deform(model, pga, np.zeros(pga.r), scale=bar)
    np.testing.assert_allclose(
        deformed.affine_m - deformed.affine_m[0], 0.0, atol=1e-12
    )
    sec = evaluate_blade(deformed, 0.37)
    assert np.all(np.isfinite(sec.x))


def test_blade_definition_round_trip(tmp_path):
    sec_dir = tmp_path / "sections"
    os.makedirs(sec_dir)
    lines = ["span 42.0", "bend 0.0 0.0 0.0 0.0", "bend 1.0 0.0 3.0 42.0"]
    for k in range(3):
        shape = family_station(k, n_c=61)
        write_landmarks(sec_dir / f"s{k}.txt", shape)
        lines.append(f"station {k / 2.0} sections/s{k}.txt")
    def_path = tmp_path / "blade.def"
    def_path.write_text("# test blade\n" + "\n".join(lines) + "\n")
    defn = read_blade_definition(def_path)
    assert defn.span_length == 42.0
    assert defn.bend.shape == (2, 4)
    assert len(defn.stations) == 3
    model = build_blade_from_definition(defn, n=61)
    assert model.n_stations == 3
    assert model.span_length == 42.0
    sec = evaluate_blade(model, 0.5)
    station = read_landmarks(sec_dir / "s1.txt")
    assert np.max(np.abs(sec.x - station.x)) < 1e-8


def test_blade_definition_resamples_to_common_n(tmp_path):
    for k, n_c in enumerate((41, 61)):
        write_landmarks(tmp_path / f"s{k}.txt", family_station(k, n_c=n_c))
    def_path = tmp_path / "blade.def"
    def_path.write_text("station 0.0 s0.txt\nstation 1.0 s1.txt\n")
    model = build_blade_from_definition(read_blade_definition(def_path))
    assert model.n == 61


def test_blade_definition_rejects_partial_overrides(tmp_path):
    for k in range(2):
        write_landmarks(tmp_path / f"s{k}.txt", family_station(k, n_c=41))
    def_path = tmp_path / "blade.def"
    def_path.write_text(
        "station 0.0 s0.txt m 1.0 0.0 0.0 1.0 b 0.0 0.0\n"
        "station 1.0 s1.txt\n"
    )
    with pytest.raises(ContractError):
        build_blade_from_definition(read_blade_definition(def_path))


def test_blade_definition_syntax_errors(tmp_path):
    p = tmp_path / "bad.def"
    p.write_text("wingspan 3.0\n")
    with pytest.raises(ContractError):
        read_blade_definition(p)
    p.write_text("station 0.0\n")
    with pytest.raises(ContractError):
        read_blade_definition(p)
    p.write_text("bend 0.0 1.0\nstation 0.0 a\nstation 1.0 b\n")
    with pytest.raises(ContractError):
        read_blade_definition(p)
    for short in ("b 0.1", "m 1 0 0"):
        p.write_text(f"station 0.0 a {short}\nstation 1.0 b\n")
        with pytest.raises(ContractError, match=f"field {short[0]} needs"):
            read_blade_definition(p)


def test_blade_save_load_round_trip(tmp_path):
    for variant in ("gl2-schedule", "product-spd"):
        _, model = family_blade(variant=variant, n_c=41)
        path = tmp_path / f"{variant}.blade"
        save_blade(path, model)
        loaded = load_blade(path)
        again = tmp_path / f"{variant}-2.blade"
        save_blade(again, loaded)
        assert path.read_bytes() == again.read_bytes()
        for eta in (0.0, 0.31, 1.0):
            a = evaluate_blade(model, eta)
            b = evaluate_blade(loaded, eta)
            np.testing.assert_array_equal(a.x, b.x)


def test_blade_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.blade"
    p.write_text("not a blade\n")
    with pytest.raises(ContractError):
        load_blade(p)


def test_wireframe_straight_stacking():
    _, model = family_blade(n_c=41)
    model.span_length = 10.0
    placed = wireframe_sections(model, count=5)
    assert len(placed) == 5
    for eta, pts in placed:
        assert pts.shape == (41, 3)
        np.testing.assert_allclose(pts[:, 2], eta * 10.0, atol=1e-12)


def test_wireframe_bent_centroids_follow_curve(tmp_path):
    shape = family_station(0, n_c=41)
    overrides = [(np.eye(2), np.zeros(2)) for _ in range(3)]
    stations = [(e, shape) for e in (0.0, 0.5, 1.0)]
    bend = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 1.0, 5.0],
        [1.0, 0.0, 3.0, 10.0],
    ])
    model = build_blade(stations, affine_overrides=overrides,
                        span_length=10.0, bend=bend)
    from scipy.interpolate import CubicSpline

    curve = CubicSpline(bend[:, 0], bend[:, 1:4], bc_type="not-a-knot")
    for eta, pts in wireframe_sections(model, etas=[0.0, 0.25, 0.8]):
        centroid = pts.mean(axis=0)
        np.testing.assert_allclose(centroid, curve(eta), atol=1e-8)


def test_write_wireframe_artifacts(tmp_path):
    _, model = family_blade(n_c=41)
    out = tmp_path / "wire"
    manifest = write_wireframe(out, model, count=6)
    files = sorted(os.listdir(out))
    assert "blade.obj" in files
    assert "manifest.txt" in files
    assert sum(f.startswith("section_") for f in files) == 6
    rows = [l for l in open(manifest) if not l.startswith("#")]
    assert len(rows) == 6
    first = read_landmarks(out / "section_000.txt")
    assert first.n == 41
    obj = (out / "blade.obj").read_text().splitlines()
    n_v = sum(1 for l in obj if l.startswith("v "))
    n_f = sum(1 for l in obj if l.startswith("f "))
    assert n_v == 6 * 41
    assert n_f == 5 * 40


@pytest.mark.parametrize("shape", ["straight", "bent", "bent-down-z"])
def test_write_wireframe_matches_per_section_writer(tmp_path, shape):
    """One batched evaluation writes the bytes that evaluating every
    section on its own (twice, as the earlier writer did) wrote."""
    import oracles

    stations = [(k / 5.0, family_station(k, n_c=61)) for k in range(6)]
    bend = {
        "straight": None,
        "bent": np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, 1.0, 3.0],
                          [0.6, 0.2, 2.0, 6.0], [1.0, -1.0, 4.0, 10.0]]),
        # every tangent is exactly -z: the half-turn frame
        "bent-down-z": np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, -4.0],
                                 [1.0, 0.0, 0.0, -10.0]]),
    }[shape]
    model = build_blade(stations, span_length=10.0, bend=bend)
    inner = np.sort(np.random.default_rng(1).uniform(size=9))
    etas = np.concatenate([[0.0], inner, [1.0]])
    write_wireframe(tmp_path / "new", model, etas=etas)
    oracles.write_wireframe(tmp_path / "old", model, etas=etas)
    names = sorted(os.listdir(tmp_path / "old"))
    assert sorted(os.listdir(tmp_path / "new")) == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "old" / name).read_bytes(), name


def test_obj_writer_is_deterministic(tmp_path):
    _, model = family_blade(n_c=21)
    placed = [p for _, p in wireframe_sections(model, count=4)]
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(a, placed)
    write_obj(b, placed)
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(ContractError):
        write_obj(tmp_path / "c.obj", placed[:1])
