"""The benchmark's three workloads.

Each workload is a closed loop with one caller: ``setup`` builds its
inputs from the seed, and every ``run_round`` repeats the same
operations on them, so rounds are identical and their counts repeat.
Only the calls into shapetensors are timed; every output is then checked
against ``checks``, which shares no code with the program.  A check
whose output bytes match an output that already passed is not redone.
"""

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np

import checks


def _digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _tree_digest(directory):
    h = hashlib.sha1()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _write_landmarks(path, pts):
    with open(path, "w") as fh:
        fh.write("\n".join(f"{x!r} {y!r}" for x, y in pts.tolist()) + "\n")


def _subset(rng, count, size):
    return sorted(rng.choice(count, size=min(size, count), replace=False))


class _Cli:
    """Runs shapetensors.cli.main in-process with its output captured."""

    def __init__(self, program):
        self.program = program

    def __call__(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.program.cli.main([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue()


def _cli_failure(label, result):
    code, _, err = result
    return [f"{label}: exit code {code}: {err.strip()[-300:]}"]


class Workload:
    def __init__(self, program, seed, work, verified):
        self.p = program
        self.seed = seed
        self.work = work
        self.verified = verified  # digests of outputs that passed

    def _once(self, label, digest, check):
        """Run check() unless the output with this digest already passed."""
        key = f"{label} {digest}"
        if key in self.verified:
            return []
        bad = check()
        if not bad:
            self.verified.add(key)
        return bad


class EnsembleFit(Workload):
    """Karcher mean + PGA on N CST airfoils perturbed +-20 % about a
    nominal (the paper's large ensemble), plus a product-manifold fit on
    its first N_PRODUCT members.  No file I/O, no guard."""

    N, NC, RANK, EPSILON, N_PRODUCT, N_CHECKED = 10000, 401, 4, 1e-8, 2000, 24
    NOMINAL = np.array([[0.20, 0.18, 0.22, 0.17, 0.21, 0.19, 0.20, 0.18, 0.17],
                        [0.12, 0.10, 0.13, 0.09, 0.11, 0.10, 0.12, 0.11, 0.10]])

    def setup(self):
        self.grass = self.product = None
        rng = np.random.default_rng(self.seed)
        factors = 1.0 + rng.uniform(-0.2, 0.2, size=(self.N, 2, 9))
        # member 0 starts the Karcher iteration; keeping it the same for
        # every seed keeps the number of sweeps from changing with the seed
        factors[0] = 1.0 + np.random.default_rng(0).uniform(-0.2, 0.2, size=(2, 9))
        coeffs = self.NOMINAL * factors
        picked = set(_subset(rng, self.N, self.N_CHECKED))
        cst, shapes, p = self.p.cst, self.p.shapes, self.p
        grass, product, kept = [], [], []
        for k in range(self.N):
            shape = cst.cst_airfoil(coeffs[k, 0], coeffs[k, 1], n_c=self.NC)
            sep = shapes.la_standardize(shape)
            grass.append(sep.grass)
            if k < self.N_PRODUCT:
                polar = shapes.la_standardize(shape, variant="polar")
                product.append(p.ProductPoint(polar.grass,
                                              p.SpdMatrix(polar.affine.m)))
            if k in picked:
                kept.append((k, shape.x, sep))
        self.coeffs, self.grass, self.product, self.kept = (
            coeffs, grass, product, kept)

    def verify_setup(self):
        bad = []
        for k, pts, sep in self.kept:
            bad += checks.check_cst(pts, self.coeffs[k, 0], self.coeffs[k, 1],
                                    f"airfoil {k}")
            bad += checks.check_standardized(pts, sep.grass.rep, sep.affine.m,
                                             sep.affine.b, f"airfoil {k}")
        self.reps = [g.rep for g in self.grass]
        self.preps = [q.grass.rep for q in self.product]
        self.spds = [q.scale.mat for q in self.product]
        return bad

    def run_round(self, ops):
        fit = self.p.stats
        ops.run("grassmann pga_fit",
                lambda: fit.pga_fit(self.grass, r=self.RANK, epsilon=self.EPSILON),
                self._check_grassmann)
        ops.run("product pga_fit",
                lambda: fit.pga_fit(self.product, r=self.RANK, epsilon=self.EPSILON),
                self._check_product)

    def _check_grassmann(self, m):
        return self._once(
            "grassmann", _digest(m.mean.rep, m.basis, m.eigenvalues, m.coords),
            lambda: checks.check_grassmann_fit(
                self.reps, m.mean.rep, m.basis, m.eigenvalues, m.coords,
                self.EPSILON, self.RANK))

    def _check_product(self, m):
        return self._once(
            "product", _digest(m.mean.grass.rep, m.mean.scale.mat, m.basis,
                    m.eigenvalues, m.coords),
            lambda: checks.check_product_fit(
                self.preps, self.spds, m.mean.grass.rep, m.mean.scale.mat,
                m.basis, m.eigenvalues, m.coords, self.EPSILON, self.RANK))


class CliPipeline(Workload):
    """cst-gen -> preprocess -> fit -> sample --sweep through cli.main on
    COUNT random CST airfoils.  The coefficient box reaches below zero so
    that some draws cross and cst-gen resamples them."""

    COUNT, NC, N, RANK, SAMPLES = 200, 201, 401, 4, 50
    COEFF_RANGE = "-0.1:0.45"
    N_CHECKED = 12

    def setup(self):
        # what every CLI invocation pays first: a fresh interpreter
        # importing the CLI
        src = os.path.dirname(os.path.dirname(self.p.__file__))
        subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); import shapetensors.cli"],
            check=True, stdout=subprocess.DEVNULL)
        rng = np.random.default_rng(self.seed)
        self.gen_seed, self.sample_seed = (int(s) for s in
                                           rng.integers(0, 2**31, size=2))
        self.cli = _Cli(self.p)

    def verify_setup(self):
        return []

    def _path(self, *parts):
        return os.path.join(self.work, *parts)

    def run_round(self, ops):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        raw, cooked, sweep = self._path("raw"), self._path("cooked"), self._path("sweep")
        model, coords = self._path("model.txt"), self._path("coords.csv")
        cli = self.cli
        ops.run("cst-gen",
                lambda: cli("cst-gen", "--count", self.COUNT, "--nc", self.NC,
                            f"--coeff-range={self.COEFF_RANGE}",
                            "--seed", self.gen_seed, "--out", raw),
                lambda res: self._check_cst_gen(res, raw))
        ops.run("preprocess",
                lambda: cli("preprocess", "--input", os.path.join(raw, "manifest.txt"),
                            "--n", self.N, "--out", cooked),
                lambda res: self._check_preprocess(res, cooked))
        ops.run("fit",
                lambda: cli("fit", "--input", os.path.join(cooked, "manifest.txt"),
                            "--rank", self.RANK, "--coords", coords, "--out", model),
                lambda res: self._check_fit(res, cooked, model, coords))
        ops.run("sample",
                lambda: cli("sample", "--model", model, "--sweep", "corner-to-corner",
                            "--count", self.SAMPLES, "--seed", self.sample_seed,
                            "--out", sweep),
                lambda res: self._check_sample(res, model, sweep))

    def _names(self, prefix, count):
        return [f"{prefix}_{i:04d}.txt" for i in range(count)]

    def _listing(self, directory, prefix, count, extra, label):
        want = set(self._names(prefix, count)) | set(extra)
        have = set(os.listdir(directory))
        if have != want:
            return [f"{label}: {len(have)} files, want {len(want)} "
                    f"(missing {sorted(want - have)[:3]}, extra {sorted(have - want)[:3]})"]
        return []

    def _check_cst_gen(self, res, raw):
        if res[0] != 0:
            return _cli_failure("cst-gen", res)
        bad = self._listing(raw, "airfoil", self.COUNT,
                            ["manifest.txt", "coefficients.txt"], "cst-gen")
        if bad:
            return bad

        def full():
            rows = np.loadtxt(os.path.join(raw, "coefficients.txt"), ndmin=2)
            if rows.shape != (self.COUNT, 18):
                return [f"cst-gen: coefficient table {rows.shape}"]
            out = []
            rng = np.random.default_rng(self.seed + 1)
            for i in _subset(rng, self.COUNT, self.N_CHECKED):
                _, _, pts = checks.read_landmarks(
                    os.path.join(raw, f"airfoil_{i:04d}.txt"))
                out += checks.check_cst(pts, rows[i, :9], rows[i, 9:],
                                        f"cst-gen airfoil {i}")
                if checks.crosses(pts, closed=True):
                    out.append(f"cst-gen airfoil {i}: accepted draw crosses itself")
            return out

        return self._once("cst-gen", _tree_digest(raw), full)

    def _check_preprocess(self, res, cooked):
        if res[0] != 0:
            return _cli_failure("preprocess", res)
        bad = self._listing(cooked, "airfoil", self.COUNT,
                            ["manifest.txt", "gauges.csv"], "preprocess")
        if bad:
            return bad
        return self._once(
            "preprocess", _tree_digest(cooked),
            lambda: checks.check_landmark_files(
                cooked, self._names("airfoil", self.COUNT), self.N, "preprocess"))

    def _check_fit(self, res, cooked, model_path, coords_path):
        if res[0] != 0:
            return _cli_failure("fit", res)
        with open(model_path, "rb") as fh, open(coords_path, "rb") as gh:
            digest = hashlib.sha1(fh.read() + gh.read() + res[1].encode()).hexdigest()

        def full():
            model = checks.read_model(model_path)
            coords = checks.read_coords_csv(coords_path)
            printed = np.array([float(ln.split()[2]) for ln in res[1].splitlines()
                                if ln.startswith("eigenvalue ")])
            if not np.array_equal(printed, model["eigenvalues"]):
                return [f"fit: printed eigenvalues {printed} differ from the model's"]
            if coords.shape != (self.COUNT, self.RANK):
                return [f"fit: coords table {coords.shape}"]
            reps = np.stack([
                checks.standardize(checks.read_landmarks(os.path.join(cooked, f))[2])[0]
                for f in self._names("airfoil", self.COUNT)])
            return (checks.check_eigen_coords(model["eigenvalues"], coords, "fit")
                    + checks.check_grassmann_fit(
                        reps, model["mean-grassmann"], model["basis"],
                        model["eigenvalues"], coords, 1e-8, self.RANK, "fit"))

        return self._once("fit", digest, full)

    def _check_sample(self, res, model_path, sweep):
        if res[0] != 0:
            return _cli_failure("sample", res)
        bad = self._listing(sweep, "sample", self.SAMPLES,
                            ["manifest.txt", "guard.csv"], "sample")
        if bad:
            return bad

        def full():
            mean = checks.read_model(model_path)["mean-grassmann"]
            with open(os.path.join(sweep, "guard.csv")) as fh:
                verdicts = dict(ln.split(",") for ln in fh.read().splitlines()[1:])
            out = []
            for name in self._names("sample", self.SAMPLES):
                out += checks.check_sample(os.path.join(sweep, name), mean)
            rng = np.random.default_rng(self.seed + 2)
            for i in _subset(rng, self.SAMPLES, self.N_CHECKED):
                name = f"sample_{i:04d}.txt"
                _, _, pts = checks.read_landmarks(os.path.join(sweep, name))
                out += checks.check_guard_verdict(pts, verdicts.get(name),
                                                  f"sample {name}")
            return out

        return self._once("sample", _tree_digest(sweep), full)


class BladeLoft(Workload):
    """A blade of STATIONS CST stations at n = N.  Each design deforms it
    with a coefficient vector inside the PGA model's sampling ball and
    places SECTIONS sections in memory; each round ends with one
    ``blade wireframe`` write of the same section count."""

    STATIONS, N, SECTIONS, DESIGNS, ENSEMBLE, RANK = 12, 401, 100, 20, 300, 4
    SPAN = 20.0

    def setup(self):
        p = self.p
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        root_c, tip_c = rng.uniform(0.12, 0.3, size=(2, 2, 9))
        etas = np.linspace(0.0, 1.0, self.STATIONS)
        lines = [f"span {self.SPAN!r}"]
        self.stations = []
        for k, eta in enumerate(etas):
            coeffs = ((1.0 - eta) * root_c + eta * tip_c) * (
                1.0 + rng.uniform(-0.05, 0.05, size=(2, 9)))
            shape = p.cst.cst_airfoil(coeffs[0], coeffs[1], n_c=self.N)
            chord, twist = 1.0 - 0.5 * eta, np.radians(20.0 * eta)
            turn = np.array([[np.cos(twist), np.sin(twist)],
                             [-np.sin(twist), np.cos(twist)]])
            pts = chord * shape.x @ turn + np.array([0.25 * (1.0 - chord), 0.0])
            name = f"station_{k:02d}.txt"
            _write_landmarks(os.path.join(self.work, name), pts)
            lines.append(f"station {float(eta)!r} {name}")
            self.stations.append((eta, pts))
        definition = os.path.join(self.work, "blade.txt")
        with open(definition, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        nominal = 0.5 * (root_c + tip_c)
        ens = nominal * (1.0 + rng.uniform(-0.2, 0.2, size=(self.ENSEMBLE, 2, 9)))
        grass = [p.shapes.la_standardize(p.cst.cst_airfoil(u, l, n_c=self.N)).grass
                 for u, l in ens]
        self.model = p.stats.pga_fit(grass, r=self.RANK)
        self.model.domain = p.stats.sample_domain(self.model)

        self.blade = p.bladeio.build_blade_from_definition(
            p.bladeio.read_blade_definition(definition), n=self.N)

        # design vectors uniform in the ball of 0.8 x the training radius
        direction = rng.standard_normal((self.DESIGNS, self.RANK))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = 0.8 * self.model.domain.radius * rng.uniform(
            size=(self.DESIGNS, 1)) ** (1.0 / self.RANK)
        self.designs = direction * radius
        self.loft = os.path.join(self.work, "design.txt")
        p.bladeio.save_blade(self.loft, p.blade.consistent_deform(
            self.blade, self.model, self.designs[0]))
        self.cli = _Cli(p)

    def verify_setup(self):
        bad = []
        evaluate = self.p.blade.evaluate_blade
        for k, (eta, pts) in enumerate(self.stations):
            err = float(np.abs(evaluate(self.blade, eta).x - pts).max())
            if err > 1e-8:
                bad.append(f"blade: station {k} reproduced to {err:.1e} (tol 1e-8)")
        return bad

    def run_round(self, ops):
        for c in self.designs:
            ops.run("design", lambda c=c: self._design(c),
                    lambda out, c=c: self._check_design(out, c))
        wf = os.path.join(self.work, "wireframe")
        shutil.rmtree(wf, ignore_errors=True)
        ops.run("blade wireframe",
                lambda: self.cli("blade", "wireframe", "--blade", self.loft,
                                 "--sections", self.SECTIONS, "--out", wf),
                lambda res: self._check_wireframe(res, wf))

    def _design(self, c):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            deformed = self.p.blade.consistent_deform(self.blade, self.model, c)
            sections = self.p.bladeio.wireframe_sections(deformed, count=self.SECTIONS)
        return deformed, sections, caught

    def _check_design(self, out, c):
        deformed, sections, caught = out
        bad = [f"design: warning {w.message}" for w in caught]
        bad += checks.check_deformed(self.blade.reps, deformed.reps,
                                     float(np.linalg.norm(c)), "design")
        etas = np.linspace(0.0, 1.0, self.SECTIONS)
        if len(sections) != self.SECTIONS:
            return bad + [f"design: {len(sections)} sections, want {self.SECTIONS}"]
        for (eta, pts), want in zip(sections, etas):
            if pts.shape != (self.N, 3) or np.abs(pts[:, 2] - want * self.SPAN).max() > 1e-12:
                bad.append(f"design: section at eta {eta} misplaced")
                break
        return bad

    def _check_wireframe(self, res, wf):
        if res[0] != 0:
            return _cli_failure("blade wireframe", res)
        names = [f"section_{i:03d}.txt" for i in range(self.SECTIONS)]
        have = set(os.listdir(wf))
        if have != set(names) | {"manifest.txt", "blade.obj"}:
            return [f"blade wireframe: wrote {len(have)} files, want {self.SECTIONS + 2}"]
        return self._once(
            "wireframe", _tree_digest(wf),
            lambda: checks.check_obj(os.path.join(wf, "blade.obj"), self.SECTIONS, self.N)
            + checks.check_landmark_files(wf, names, self.N, "blade wireframe"))


WORKLOADS = {
    "ensemble-fit": EnsembleFit,
    "cli-pipeline": CliPipeline,
    "blade-loft": BladeLoft,
}
