"""End-to-end acceptance checks, one per advertised guarantee.

Each test exercises one entry of the README acceptance checklist at its
stated tolerance and prints a single [PASS]/[FAIL] line with the measured
numbers, so a plain ``pytest tests/test_acceptance.py`` run leaves a
readable scorecard.  The large-ensemble timing entry is recorded but
never gates: wall-clock noise should not flip a CI run.
"""

import time

import numpy as np
import pytest

from shapetensors.blade import build_blade, consistent_deform, evaluate_blade, evaluate_representative
from shapetensors.bladeio import wireframe_sections
from shapetensors.cli import main
from shapetensors.convergence import run_convergence
from shapetensors.cst import cst_airfoil, generate_airfoils, perturb_coefficients
from shapetensors.grassmann import (
    GrassmannPoint,
    gr_distance,
    gr_exp,
    gr_log,
    gr_transport,
)
from shapetensors.intersect import self_intersects
from shapetensors.shapes import LandmarkShape, la_standardize, reconstruct
from shapetensors.spd import SpdMatrix, spd_distance, spd_exp, spd_log, spd_transport
from shapetensors.stats import generate, karcher_mean, mean_scale, pga_fit

from conftest import random_grassmann_point, random_horizontal, random_spd, random_sym
from oracles import integrate_geodesic, subspace_gap


@pytest.fixture
def check(capsys):
    """One scorecard line on the real stdout, then the gating assert.

    pytest captures test output at the descriptor level, so the verdict
    line is printed with capture suspended; the scorecard stays visible
    in a plain ``pytest`` run.
    """
    def _check(label, ok, detail):
        mark = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{mark}] {label}: {detail}", flush=True)
        assert ok, f"{label}: {detail}"
    return _check


def _random_gl2(rng):
    m = rng.standard_normal((2, 2))
    while abs(np.linalg.det(m)) < 0.1:
        m = rng.standard_normal((2, 2))
    return m


def _spd_metric(p, s, t):
    pinv = np.linalg.inv(p.mat)
    return float(np.trace(pinv @ s @ pinv @ t))


def _cloud(rng, n=12, count=15, spread=0.15):
    center = random_grassmann_point(rng, n=n)
    return [
        gr_exp(center, random_horizontal(rng, center, scale=spread * rng.uniform(0.3, 1.0)))
        for _ in range(count)
    ]


# 1 ------------------------------------------------------- standardization

def test_standardization_laws(check):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    shapes, _, _ = generate_airfoils(rng, 500, n_c=201)
    whiten = invar = idem = recon = 0.0
    for shape in shapes:
        sep = la_standardize(shape)
        rep = sep.grass.rep
        whiten = max(whiten, np.linalg.norm(rep.T @ rep - np.eye(2)))
        moved = LandmarkShape(shape.x @ _random_gl2(rng) + rng.standard_normal(2),
                              closed=shape.closed)
        invar = max(invar, gr_distance(sep.grass, la_standardize(moved).grass))
        again = la_standardize(LandmarkShape(rep, closed=shape.closed))
        idem = max(idem, gr_distance(sep.grass, again.grass))
        recon = max(recon, np.abs(reconstruct(sep).x - shape.x).max())
    dt = time.perf_counter() - t0
    ok = whiten <= 1e-10 and invar <= 1e-9 and idem <= 1e-9 and recon <= 1e-10 and dt < 10.0
    check("standardization laws", ok,
          f"500 shapes: whitening {whiten:.1e} (tol 1e-10), "
          f"affine invariance {invar:.1e} (tol 1e-9), idempotence {idem:.1e}, "
          f"reconstruction {recon:.1e} (tol 1e-10), {dt:.1f}s (< 10s)")


# 2 ------------------------------------------------------ geometry oracles

def test_geometry_matches_frozen_oracles(check):
    rng = np.random.default_rng(11)
    ode = 0.0
    for _ in range(20):
        base = random_grassmann_point(rng, n=20)
        tan = random_horizontal(rng, base, scale=rng.uniform(0.3, 1.3))
        ode = max(ode, subspace_gap(gr_exp(base, tan).rep,
                                    integrate_geodesic(base.rep, tan)))
    eye = SpdMatrix(np.eye(2))
    v = np.array([0.7, -0.4])
    diag_exp = np.abs(spd_exp(eye, np.diag(v)).mat - np.diag(np.exp(v))).max()
    d = np.array([3.0, 0.25])
    diag_log = np.abs(spd_log(eye, SpdMatrix(np.diag(d))) - np.diag(np.log(d))).max()
    cong = 0.0
    for _ in range(20):
        p, q = random_spd(rng), random_spd(rng)
        a = _random_gl2(rng)
        ref = spd_distance(p, q)
        got = spd_distance(SpdMatrix(a @ p.mat @ a.T), SpdMatrix(a @ q.mat @ a.T))
        cong = max(cong, abs(got - ref) / ref)
    ok = ode <= 1e-6 and diag_exp <= 1e-14 and diag_log <= 1e-14 and cong <= 1e-9
    check("geometry oracle equivalence", ok,
          f"exp vs geodesic ODE on 20 draws in G(20,2) {ode:.1e} (tol 1e-6), "
          f"spd diagonal closed forms {max(diag_exp, diag_log):.1e}, "
          f"congruence invariance {cong:.1e} (tol 1e-9)")


# 3 --------------------------------------------- round trips / isometries

def test_round_trips_and_transport_isometries(check):
    rng = np.random.default_rng(23)
    g_rt = g_iso = g_back = 0.0
    for _ in range(12):
        base = random_grassmann_point(rng, n=25)
        target = gr_exp(base, random_horizontal(rng, base, scale=rng.uniform(0.2, 1.2)))
        d = gr_log(base, target)
        g_rt = max(g_rt, subspace_gap(gr_exp(base, d).rep, target.rep))
        u = random_horizontal(rng, base, scale=rng.uniform(0.5, 1.5))
        w = random_horizontal(rng, base, scale=rng.uniform(0.5, 1.5))
        tu = gr_transport(base, d, 1.0, u)
        tw = gr_transport(base, d, 1.0, w)
        g_iso = max(g_iso, abs(float(np.sum(tu * tw)) - float(np.sum(u * w))))
        # back-trace: carry the transported vector home along the reversed
        # geodesic and compare against the original payload
        arrival = gr_exp(base, d)
        back = gr_log(arrival, base)
        bu = gr_transport(arrival, back, 1.0, tu)
        g_back = max(g_back, np.linalg.norm(bu - u))
    s_rt = s_iso = s_back = 0.0
    for _ in range(12):
        p, q = random_spd(rng), random_spd(rng)
        s_rt = max(s_rt, np.abs(spd_exp(p, spd_log(p, q)).mat - q.mat).max())
        u, w = random_sym(rng), random_sym(rng)
        tu = spd_transport(p, q, u)
        tw = spd_transport(p, q, w)
        ref = _spd_metric(p, u, w)
        s_iso = max(s_iso, abs(_spd_metric(q, tu, tw) - ref) / max(1.0, abs(ref)))
        s_back = max(s_back, np.abs(spd_transport(q, p, tu) - u).max())
    ok = (max(g_rt, s_rt) <= 1e-8 and max(g_iso, s_iso) <= 1e-10
          and max(g_back, s_back) <= 1e-8)
    check("round trips and transport isometries", ok,
          f"exp-log round trip {max(g_rt, s_rt):.1e} (tol 1e-8), "
          f"inner-product drift {max(g_iso, s_iso):.1e} (tol 1e-10), "
          f"back-trace {max(g_back, s_back):.1e} (tol 1e-8), both manifolds")


# 4 ----------------------------------------------------------- karcher/pga

def test_karcher_and_pga_laws(check):
    rng = np.random.default_rng(31)
    a = random_grassmann_point(rng, n=16)
    tan = random_horizontal(rng, a, scale=0.7)
    b = gr_exp(a, tan)
    mid = karcher_mean([a, b], epsilon=1e-12)
    e_mid = gr_distance(mid, gr_exp(a, 0.5 * tan))

    pts = _cloud(rng, n=14, count=15, spread=0.2)
    perm = [pts[i] for i in rng.permutation(len(pts))]
    e_perm = gr_distance(karcher_mean(pts, epsilon=1e-13),
                         karcher_mean(perm, epsilon=1e-13))

    base = random_grassmann_point(rng, n=12)
    tan = random_horizontal(rng, base, scale=1.0)
    line = [gr_exp(base, t * tan) for t in np.linspace(-0.4, 0.4, 9)]
    lam = pga_fit(line, r=2, epsilon=1e-10).eigenvalues
    e_ratio = lam[1] / lam[0]

    cloud = _cloud(rng, n=10, count=8, spread=0.15)
    model = pga_fit(cloud, r=7, epsilon=1e-10)
    e_rec = max(gr_distance(generate(model, model.coords[k]), p)
                for k, p in enumerate(cloud))
    var = model.coords.T @ model.coords / (len(cloud) - 1)
    e_var = np.abs(np.diag(var) - model.eigenvalues).max() / model.eigenvalues[0]

    ok = (e_mid <= 1e-8 and e_perm <= 1e-9 and e_ratio <= 1e-12
          and e_rec <= 1e-8 and e_var <= 1e-9)
    check("karcher mean and pga laws", ok,
          f"geodesic midpoint {e_mid:.1e} (tol 1e-8), permutation {e_perm:.1e} "
          f"(tol 1e-9), single-geodesic ratio {e_ratio:.1e} (tol 1e-12), "
          f"full-rank reconstruction {e_rec:.1e} (tol 1e-8), "
          f"eigenvalue/variance identity {e_var:.1e} rel (tol 1e-9)")


# 5 ----------------------------------------------------------- convergence

def test_refinement_convergence_rate(check):
    t0 = time.perf_counter()
    report = run_convergence(n_trials=100, seed=0)
    dt = time.perf_counter() - t0
    s_mean = report.slopes["grassmann-mean"]
    s_max = report.slopes["grassmann-max"]
    med = [row.grassmann_median for row in report.rows]
    mono = all(lo <= hi for hi, lo in zip(med, med[1:]))
    ok = 1.5 <= s_mean <= 2.5 and 1.5 <= s_max <= 2.5 and mono and dt < 60.0
    check("refinement convergence rate", ok,
          f"100 airfoils: slope {s_mean:.2f} (mean gauge), {s_max:.2f} (max gauge), "
          f"band [1.5, 2.5]; medians monotone={mono}; {dt:.1f}s (< 60s), "
          f"{report.skipped} degenerate trials skipped")


# 6 -------------------------------------------------------- blade pipeline

def _blade_station(k, n_c=401):
    upper = np.full(9, 0.22) + 0.02 * k * np.linspace(1.0, 0.2, 9)
    lower = np.full(9, 0.12) + 0.015 * k * np.linspace(0.3, 1.0, 9)
    return cst_airfoil(upper, lower, n_c=n_c)


def test_blade_pipeline_reproduction_and_affine_independence(check):
    rng = np.random.default_rng(41)
    etas = np.linspace(0.0, 1.0, 10)
    stations = [(eta, _blade_station(k)) for k, eta in enumerate(etas)]

    t0 = time.perf_counter()
    model = build_blade(stations, span_length=30.0)
    sections = wireframe_sections(model, count=100)
    dt = time.perf_counter() - t0

    repro = max(np.abs(evaluate_blade(model, eta).x - shape.x).max()
                for eta, shape in stations)

    # a common rescale of every station must not move the Grassmann path
    m, b = _random_gl2(rng), rng.standard_normal(2)
    moved = [(eta, LandmarkShape(s.x @ m + b, closed=s.closed)) for eta, s in stations]
    other = build_blade(moved, span_length=30.0)
    probe = np.linspace(0.0, 1.0, 50)
    affine = max(gr_distance(evaluate_representative(model, e),
                             evaluate_representative(other, e)) for e in probe)

    ok = len(sections) == 100 and repro <= 1e-8 and affine <= 1e-10 and dt < 1.0
    check("blade pipeline", ok,
          f"10 stations -> {len(sections)} sections in {dt:.2f}s (< 1s); "
          f"station reproduction {repro:.1e} (tol 1e-8); "
          f"affine independence {affine:.1e} over 50 eta samples (tol 1e-10)")


# 7 ------------------------------------------------ consistent deformation

def test_consistent_deformation_guarantees(check):
    rng = np.random.default_rng(0)
    nominal = (np.full(9, 0.25), np.full(9, 0.10))
    shapes, _, _ = generate_airfoils(rng, 100, n_c=401, nominal=nominal)
    seps = [la_standardize(s) for s in shapes]
    pga = pga_fit([sep.grass for sep in seps], r=4, epsilon=1e-8)
    pga.mean_scale = mean_scale([sep.affine for sep in seps])

    etas = np.linspace(0.0, 1.0, 10)
    stations = [(eta, _blade_station(k)) for k, eta in enumerate(etas)]
    model = build_blade(stations, span_length=30.0)

    frozen = consistent_deform(model, pga, np.zeros(pga.r))
    ident = max(np.abs(evaluate_blade(frozen, eta).x - evaluate_blade(model, eta).x).max()
                for eta in etas)

    coeffs = rng.standard_normal(pga.r)
    coeffs *= 0.5 * pga.domain.radius / np.linalg.norm(coeffs)
    delta = (pga.basis @ coeffs).reshape(2, -1).T
    norms = 0.0
    for rep in model.reps:
        d = gr_log(pga.mean, GrassmannPoint(rep))
        moved = gr_transport(pga.mean, d, 1.0, delta)
        norms = max(norms, abs(np.linalg.norm(moved) - np.linalg.norm(delta)))

    lo, hi = pga.domain.lo, pga.domain.hi
    fails = total = 0
    for seed in range(4):
        r2 = np.random.default_rng(seed)
        a = np.where(r2.random(pga.r) < 0.5, lo, hi)
        b = np.where(r2.random(pga.r) < 0.5, lo, hi)
        while np.array_equal(a, b):
            b = np.where(r2.random(pga.r) < 0.5, lo, hi)
        for t in np.linspace(0.0, 1.0, 20):
            pt = generate(pga, (1.0 - t) * a + t * b)
            section = LandmarkShape(pt.rep @ pga.mean_scale.m, closed=True)
            total += 1
            fails += bool(self_intersects(section))

    ok = ident <= 1e-10 and norms <= 1e-10 and fails == 0
    check("consistent deformation", ok,
          f"zero-coefficient identity {ident:.1e} over 10 stations (tol 1e-10); "
          f"transported-norm drift {norms:.1e} (tol 1e-10); "
          f"corner-to-corner sweeps: {total - fails}/{total} sections pass the "
          f"self-intersection guard")


# 8 ------------------------------------------------- timing (recorded only)

def test_large_ensemble_timing_recorded(check):
    rng = np.random.default_rng(0)
    upper, lower = np.full(9, 0.25), np.full(9, 0.10)
    points = []
    for _ in range(10000):
        u, l = perturb_coefficients(rng, upper, lower, 20.0)
        points.append(la_standardize(cst_airfoil(u, l, n_c=401)).grass)
    t0 = time.perf_counter()
    pga_fit(points, r=4, epsilon=1e-8)
    dt = time.perf_counter() - t0
    bound = 71.5
    word = "within" if dt <= bound else "EXCEEDS"
    # recorded, not gating: the measurement itself is the deliverable
    check("large-ensemble timing (recorded, non-gating)", True,
          f"karcher mean + pga, N=10000, n=401, eps=1e-8: {dt:.1f}s "
          f"{word} the {bound:.1f}s reference")


# 9 ------------------------------------------------------ cli determinism

def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_determinism(check, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nominal.txt").write_text(
        " ".join(["0.25"] * 9) + "\n" + " ".join(["0.10"] * 9) + "\n")
    (tmp_path / "blade.txt").write_text(
        "span 20.0\n" + "".join(
            f"station {eta} stations/airfoil_{k:04d}.txt\n"
            for k, eta in enumerate((0.0, 0.25, 0.5, 0.75, 1.0))))

    commands = [
        ["cst-gen", "--count", "12", "--nc", "51", "--seed", "3", "--out", "raw"],
        ["cst-gen", "--count", "5", "--nc", "51", "--seed", "7",
         "--nominal", "nominal.txt", "--perturb", "10", "--out", "stations"],
        ["preprocess", "--input", "raw/manifest.txt", "--n", "101", "--out", "cooked"],
        ["fit", "--input", "cooked/manifest.txt", "--rank", "3",
         "--coords", "coords.csv", "--out", "model.txt"],
        ["sample", "--model", "model.txt", "--coeffs", "0.01,-0.005,0.002",
         "--out", "one"],
        ["sample", "--model", "model.txt", "--sweep", "corner-to-corner",
         "--count", "8", "--seed", "1", "--out", "sweep"],
        ["dist", "--a", "cooked/airfoil_0000.txt", "--b", "cooked/airfoil_0001.txt",
         "--space", "grassmann"],
        ["dist", "--a", "cooked/airfoil_0000.txt", "--b", "cooked/airfoil_0001.txt",
         "--space", "spd"],
        ["dist", "--a", "cooked/airfoil_0000.txt", "--b", "cooked/airfoil_0001.txt",
         "--space", "euclidean"],
        ["blade", "build", "--blade", "blade.txt", "--n", "101",
         "--out", "blade_model.txt"],
        ["blade", "eval", "--blade", "blade_model.txt", "--eta", "0.37",
         "--out", "section.txt"],
        ["blade", "deform", "--blade", "blade_model.txt", "--model", "model.txt",
         "--coeffs", "0.004,-0.002,0.001", "--out", "deformed.txt"],
        ["blade", "wireframe", "--blade", "deformed.txt", "--sections", "7",
         "--out", "wf"],
        ["convergence", "--trials", "4", "--n-ref", "400", "--nc-list", "20,40,80",
         "--seed", "2", "--out-csv", "conv.csv", "--out-svg", "conv.svg"],
    ]

    snapshots, stdouts = [], []
    for _ in range(2):
        lines = []
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} failed: {captured.out}"
            lines.append(captured.out)
        stdouts.append(lines)
        snapshots.append(_tree_bytes(tmp_path))

    same_out = stdouts[0] == stdouts[1]
    same_bytes = snapshots[0] == snapshots[1]
    ok = same_out and same_bytes
    check("cli determinism", ok,
          f"{len(commands)} commands rerun with fixed seeds: stdout identical="
          f"{same_out}, {len(snapshots[0])} artifact files byte-identical={same_bytes}")
