"""Command-line interface.

Subcommands cover the full pipeline: synthesizing CST datasets
(cst-gen), resampling raw landmark files (preprocess), fitting manifold
statistics (fit), generating new shapes from a fitted model (sample),
pairwise distances (dist), blade construction and deformation (blade),
and the refinement convergence experiment (convergence).

Every artifact is written atomically with shortest-exact float text, so
repeated runs with the same seeds are byte-identical.  Timing goes to
stderr; stdout carries only deterministic results.

Exit codes: 0 success, 2 input error, 3 numerical failure (convergence
or neighborhood), 4 guard failure under --strict.
"""

import argparse
import os
import sys
import time

import numpy as np

from .blade import consistent_deform, evaluate_blade
from .bladeio import (
    build_blade_from_definition,
    load_blade,
    read_blade_definition,
    save_blade,
    write_wireframe,
)
from .convergence import (
    DEFAULT_NC,
    run_convergence,
    write_convergence_csv,
    write_convergence_svg,
)
from .cst import COEFF_HI, COEFF_LO, generate_airfoils, read_coefficients
from .errors import (
    ContractError,
    ConvergenceError,
    DegenerateGeometryError,
    ExtrapolationError,
    NormalNeighborhoodError,
    without_refused,
)
from .intersect import self_intersects
from .model_io import load_model, save_model
from .shapes import (
    SAMPLING_KINDS,
    SPLINE_KINDS,
    LandmarkShape,
    PreprocessConfig,
    _standardize_raw,
    l4_matrix,
    la_standardize,
    landmark_gauge,
    read_landmarks,
    refine,
    write_landmarks,
)
from .spd import SpdMatrix, spd_distance
from .stats import KINDS, _arrays, _point
from .stats import generate, mean_scale, pga_fit
from .grassmann import gr_distance
from .textio import atomic_write_text, fmt, fmt_rows
from .textio import read_manifest, write_manifest

INPUT_ERROR = 2
NUMERICAL_ERROR = 3
GUARD_FAILURE = 4


def _fail(message, code=INPUT_ERROR):
    print(f"error: {message}", file=sys.stderr)
    return code


def _timed(label, t0):
    print(f"{label} in {time.perf_counter() - t0:.3f} s", file=sys.stderr)


def _parse_floats(text, expect=None, what="value list"):
    try:
        values = np.array([float(t) for t in text.split(",") if t.strip()])
    except ValueError as err:
        raise ContractError(f"bad {what}: {err}") from err
    if not np.all(np.isfinite(values)):
        raise ContractError(f"bad {what}: non-finite value in {text!r}")
    if expect is not None and values.size != expect:
        raise ContractError(f"{what} needs {expect} values, got {values.size}")
    return values


def _load_dataset(manifest_path):
    entries = read_manifest(manifest_path)
    if not entries:
        raise ContractError(f"{manifest_path}: empty manifest")
    shapes = []
    failures = []
    for path, label in entries:
        try:
            shapes.append((path, label, read_landmarks(path)))
        except (ContractError, DegenerateGeometryError, OSError,
                ValueError) as err:
            failures.append(f"{path}: {err}")
    return shapes, failures


def cmd_cst_gen(args):
    rng = np.random.default_rng(args.seed)
    lo, hi = args.coeff_range
    nominal = None
    label = "random"
    if args.nominal:
        nominal = read_coefficients(args.nominal)
        label = os.path.splitext(os.path.basename(args.nominal))[0]
    shapes, rows, resampled = generate_airfoils(
        rng, args.count, n_c=args.nc, sampling=args.sampling,
        nominal=nominal, percent=args.perturb, lo=lo, hi=hi,
    )
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for i, shape in enumerate(shapes):
        fname = f"airfoil_{i:04d}.txt"
        write_landmarks(os.path.join(args.out, fname), shape)
        entries.append((fname, label))
    write_manifest(os.path.join(args.out, "manifest.txt"), entries,
                   header=f"cst dataset, seed {args.seed}")
    coeff_lines = ["# upper_0..upper_8 lower_0..lower_8"]
    if len(rows):
        coeff_lines.append(fmt_rows(rows))
    atomic_write_text(os.path.join(args.out, "coefficients.txt"),
                      "\n".join(coeff_lines) + "\n")
    print(f"wrote {len(shapes)} shapes to {args.out} "
          f"({resampled} invalid draws resampled)")
    return 0


def cmd_preprocess(args):
    shapes, failures = _load_dataset(args.input)
    cfg = PreprocessConfig(n=args.n, spline=args.spline, sampling=args.sampling)
    os.makedirs(args.out, exist_ok=True)
    refused, refined, groups, seen = {}, {}, {}, set()
    for i, (path, _, shape) in enumerate(shapes):
        fname = os.path.basename(path)
        if fname in seen:
            refused[i] = f"{path}: duplicate output name {fname}"
            continue
        seen.add(fname)
        groups.setdefault((shape.n, shape.closed), []).append(i)
    for members in groups.values():  # one refine call per (n, closed)
        kept, out, errors = without_refused(
            lambda group: refine(group, cfg), [shapes[i][2] for i in members])
        refined.update(zip([members[j] for j in kept], out))
        refused.update((members[j], f"{shapes[members[j]][0]}: {err}")
                       for j, err in errors.items())
    entries = []
    gauge_rows = ["file,label,gauge_in,gauge_out"]
    for i, (path, label, shape) in enumerate(shapes):
        if i in refused:
            failures.append(refused[i])
            continue
        fname = os.path.basename(path)
        write_landmarks(os.path.join(args.out, fname), refined[i])
        entries.append((fname, label))
        gauge_rows.append(
            f"{fname},{label},{fmt(landmark_gauge(shape))},"
            f"{fmt(landmark_gauge(refined[i]))}"
        )
    write_manifest(os.path.join(args.out, "manifest.txt"), entries,
                   header=f"preprocessed to n={args.n}")
    atomic_write_text(os.path.join(args.out, "gauges.csv"),
                      "\n".join(gauge_rows) + "\n")
    for line in failures:
        print(f"error: {line}", file=sys.stderr)
    print(f"preprocessed {len(entries)} of {len(entries) + len(failures)} shapes")
    return INPUT_ERROR if failures else 0


def _lift_points(shapes, manifold):
    variant = "gl2" if manifold == "grassmann" else "polar"
    try:
        rep, m, _ = _standardize_raw(
            np.stack([shape.x for _, _, shape in shapes]), variant
        )
    except DegenerateGeometryError as err:
        raise DegenerateGeometryError(f"{shapes[err.index[0]][0]}: {err}") from err
    stacks = {"grassmann": rep, "spd": m}
    points = [_point({c: stacks[c][k] for c in KINDS[manifold]})
              for k in range(len(shapes))]
    return points, m


def cmd_fit(args):
    shapes, failures = _load_dataset(args.input)
    if failures:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return INPUT_ERROR
    ns = {shape.n for _, _, shape in shapes}
    if len(ns) != 1:
        return _fail(
            f"shapes have mixed landmark counts {sorted(ns)}; "
            "run preprocess first"
        )
    t0 = time.perf_counter()
    points, factors = _lift_points(shapes, args.manifold)
    model = pga_fit(points, r=args.rank, epsilon=args.epsilon)
    if args.manifold == "grassmann":
        model.mean_scale = mean_scale(factors)
    _timed(f"fit {args.manifold} model on {len(points)} shapes", t0)
    save_model(args.out, model)
    coords_path = args.coords or args.out + ".coords.csv"
    header = "path,label," + ",".join(f"t{i + 1}" for i in range(model.r))
    rows = [header]
    for (path, label, _), coord in zip(shapes, model.coords):
        rows.append(",".join([path, label] + [fmt(c) for c in coord]))
    atomic_write_text(coords_path, "\n".join(rows) + "\n")
    for i, val in enumerate(model.eigenvalues):
        print(f"eigenvalue {i + 1} {fmt(val)}")
    print(f"model {args.out}")
    print(f"coords {coords_path}")
    return 0


def _scale_matrix(spec, model):
    if spec is None or spec == "mean":
        if model.mean_scale is None:
            if spec == "mean":
                raise ContractError("model carries no mean scale")
            return np.eye(2)
        return model.mean_scale.m
    if spec.startswith("l4:"):
        return l4_matrix(_parse_floats(spec[3:], expect=4, what="l4 scale"))
    raise ContractError(f"unknown scale {spec!r} (use mean or l4:a,b,c,d)")


def _sample_to_shape(model, coeffs, scale):
    """One sample's landmarks; a None ``scale`` takes the sample's SPD part."""
    parts = _arrays(generate(model, coeffs))
    pts = parts["grassmann"] @ (parts["spd"] if scale is None else scale)
    return LandmarkShape(pts, closed=bool(np.array_equal(pts[0], pts[-1])))


def cmd_sample(args):
    model = load_model(args.model)
    if args.coeffs is None and args.sweep is None:
        return _fail("give --coeffs or --sweep")
    if args.coeffs is not None and args.sweep is not None:
        return _fail("--coeffs and --sweep are mutually exclusive")
    if model.kind == "spd":
        return _fail("sampling needs a grassmann or product model")
    if model.kind == "product" and args.scale is not None:
        return _fail("product models carry their own scale; --scale not allowed")
    scale = None if model.kind == "product" else _scale_matrix(args.scale, model)
    if args.coeffs is not None:
        coeff_rows = [_parse_floats(args.coeffs, expect=model.r,
                                    what="coefficient list")]
    else:
        rng = np.random.default_rng(args.seed)
        lo, hi = model.domain.lo, model.domain.hi
        a = np.where(rng.random(model.r) < 0.5, lo, hi)
        for _ in range(64):
            b = np.where(rng.random(model.r) < 0.5, lo, hi)
            if not np.array_equal(a, b):
                break
        s = np.linspace(0.0, 1.0, args.count)[:, None]
        coeff_rows = list((1.0 - s) * a + s * b)
    os.makedirs(args.out, exist_ok=True)
    entries = []
    guard_rows = ["file,guard"]
    n_fail = 0
    for i, coeffs in enumerate(coeff_rows):
        shape = _sample_to_shape(model, coeffs, scale)
        fname = f"sample_{i:04d}.txt"
        write_landmarks(os.path.join(args.out, fname), shape,
                        header="coeffs " + " ".join(fmt(c) for c in coeffs))
        ok = not self_intersects(shape)
        n_fail += not ok
        guard_rows.append(f"{fname},{'pass' if ok else 'fail'}")
        entries.append((fname, "sample"))
    write_manifest(os.path.join(args.out, "manifest.txt"), entries,
                   header="generated samples")
    atomic_write_text(os.path.join(args.out, "guard.csv"),
                      "\n".join(guard_rows) + "\n")
    print(f"wrote {len(entries)} samples, {n_fail} failed the "
          f"self-intersection guard")
    if n_fail and args.strict:
        return GUARD_FAILURE
    return 0


def cmd_dist(args):
    a = read_landmarks(args.a)
    b = read_landmarks(args.b)
    if a.n != b.n:
        return _fail(
            f"landmark counts differ ({a.n} vs {b.n}); preprocess to a "
            "common n first"
        )
    if args.space == "euclidean":
        value = float(np.linalg.norm(a.x - b.x, axis=1).max())
    elif args.space == "grassmann":
        value = gr_distance(la_standardize(a).grass, la_standardize(b).grass,
                            metric=args.metric)
    else:
        pa = SpdMatrix(la_standardize(a, variant="polar").affine.m)
        pb = SpdMatrix(la_standardize(b, variant="polar").affine.m)
        value = spd_distance(pa, pb)
    print(fmt(value))
    return 0


def cmd_blade_build(args):
    defn = read_blade_definition(args.blade)
    t0 = time.perf_counter()
    model = build_blade_from_definition(
        defn, variant=args.variant, n=args.n, spline=args.spline,
        sampling=args.sampling, direction=args.direction,
    )
    _timed(f"built blade ({model.n_stations} stations, n={model.n})", t0)
    if model.has_reflection:
        print("note: alignment used a reflection", file=sys.stderr)
    save_blade(args.out, model)
    print(f"blade {args.out}")
    return 0


def cmd_blade_eval(args):
    model = load_blade(args.blade)
    section = evaluate_blade(model, args.eta)
    write_landmarks(args.out, section, header=f"section at eta {fmt(args.eta)}")
    print(f"section {args.out}")
    return 0


def cmd_blade_deform(args):
    model = load_blade(args.blade)
    pga = load_model(args.model)
    coeffs = _parse_floats(args.coeffs, expect=pga.r, what="coefficient list")
    scale = None
    if args.scale == "mean":
        if pga.mean_scale is None:
            return _fail("model carries no mean scale")
        scale = pga.mean_scale
    t0 = time.perf_counter()
    deformed = consistent_deform(model, pga, coeffs, scale=scale)
    _timed(f"deformed {model.n_stations} stations", t0)
    save_blade(args.out, deformed)
    print(f"blade {args.out}")
    return 0


def cmd_blade_wireframe(args):
    model = load_blade(args.blade)
    t0 = time.perf_counter()
    manifest = write_wireframe(args.out, model, count=args.sections)
    _timed(f"evaluated {args.sections} sections", t0)
    print(f"wireframe {manifest}")
    return 0


def cmd_convergence(args):
    nc_list = args.nc_list.split(",") if args.nc_list else DEFAULT_NC
    t0 = time.perf_counter()
    report = run_convergence(n_trials=args.trials, n_ref=args.n_ref,
                             nc_list=nc_list, seed=args.seed)
    _timed(f"{args.trials} trials", t0)
    write_convergence_csv(args.out_csv, report)
    print(f"csv {args.out_csv}")
    if args.out_svg:
        write_convergence_svg(args.out_svg, report)
        print(f"svg {args.out_svg}")
    for key in sorted(report.slopes):
        print(f"slope {key} {fmt(report.slopes[key])}")
    if report.skipped:
        print(f"skipped {report.skipped} degenerate draws")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapetensors",
        description="Separable tensors for discrete planar shapes: "
                    "standardization, manifold statistics, blades.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cst-gen", help="synthesize a CST airfoil dataset")
    p.add_argument("--count", type=_count_arg(1), default=100)
    p.add_argument("--coeff-range", type=_range_arg, default=(COEFF_LO, COEFF_HI),
                   metavar="LO:HI",
                   help="coefficient box (default 0:0.45); write a negative "
                        "LO as --coeff-range=-0.1:0.45")
    p.add_argument("--nc", type=int, default=401, help="landmarks per shape")
    p.add_argument("--sampling", choices=("cosine", "uniform"), default="cosine")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--nominal", help="coefficient file; draws perturb it")
    p.add_argument("--perturb", type=float, default=20.0,
                   help="perturbation percent around --nominal")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_cst_gen)

    p = sub.add_parser("preprocess", help="refine a dataset to a common n")
    p.add_argument("--input", required=True, help="dataset manifest (path,label)")
    p.add_argument("--n", type=int, default=401)
    p.add_argument("--spline", choices=SPLINE_KINDS, default="cubic-natural")
    p.add_argument("--sampling", choices=SAMPLING_KINDS,
                   default="uniform-arclength")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="Karcher mean + PGA over a dataset")
    p.add_argument("--input", required=True, help="dataset manifest")
    p.add_argument("--manifold", choices=tuple(KINDS),
                   default="grassmann")
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--coords", help="coordinate CSV path "
                                    "(default: <out>.coords.csv)")
    p.add_argument("--out", required=True, help="model file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="generate shapes from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--coeffs", help="comma-separated normal coordinates; "
                                    "write a leading minus as "
                                    "--coeffs=-0.01,0.002")
    p.add_argument("--sweep", choices=("corner-to-corner",),
                   help="sweep between two random domain corners")
    p.add_argument("--count", type=_count_arg(1), default=20,
                   help="sweep sample count")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--scale", help="mean | l4:l1,l2,l3,l4 (grassmann models)")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any sample fails the guard")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("dist", help="distance between two landmark files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--space", choices=("grassmann", "spd", "euclidean"),
                   default="grassmann")
    p.add_argument("--metric", choices=("frobenius", "angle-sum"),
                   default="frobenius", help="grassmann metric")
    p.set_defaults(func=cmd_dist)

    blade = sub.add_parser("blade", help="blade construction and deformation")
    bsub = blade.add_subparsers(dest="blade_command", required=True)

    p = bsub.add_parser("build", help="assemble a blade from a definition")
    p.add_argument("--blade", required=True, help="blade definition file")
    p.add_argument("--variant", choices=("gl2-schedule", "product-spd"),
                   default="gl2-schedule")
    p.add_argument("--n", type=int, help="resample stations to n landmarks")
    p.add_argument("--spline", choices=SPLINE_KINDS, default="cubic-natural")
    p.add_argument("--sampling", choices=SAMPLING_KINDS,
                   default="uniform-arclength")
    p.add_argument("--direction", choices=("tip-to-root", "root-to-tip"),
                   default="tip-to-root")
    p.add_argument("--out", required=True, help="blade artifact file")
    p.set_defaults(func=cmd_blade_build)

    p = bsub.add_parser("eval", help="one cross-section of a built blade")
    p.add_argument("--blade", required=True, help="blade artifact file")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", required=True, help="landmark file")
    p.set_defaults(func=cmd_blade_eval)

    p = bsub.add_parser("deform", help="consistent deformation of a blade")
    p.add_argument("--blade", required=True, help="blade artifact file")
    p.add_argument("--model", required=True, help="grassmann PGA model")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated normal coordinates; write a leading "
                        "minus as --coeffs=-0.01,0.002")
    p.add_argument("--scale", choices=("mean",),
                   help="replace the scale schedule by the model mean scale")
    p.add_argument("--out", required=True, help="deformed blade artifact")
    p.set_defaults(func=cmd_blade_deform)

    p = bsub.add_parser("wireframe", help="sections, manifest, and OBJ loft")
    p.add_argument("--blade", required=True, help="blade artifact file")
    p.add_argument("--sections", type=_count_arg(2), default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_blade_wireframe)

    p = sub.add_parser("convergence", help="refinement convergence experiment")
    p.add_argument("--trials", type=_count_arg(1), default=100)
    p.add_argument("--n-ref", type=int, default=2000)
    p.add_argument("--nc-list", help="comma list (default 20,40,80,160,320)")
    p.add_argument("--seed", type=_count_arg(0), default=0)
    p.add_argument("--out-csv", required=True,
                   help="CSV: n_c, gauge mean/max, euclidean "
                        "mean/median/max, grassmann mean/median/max")
    p.add_argument("--out-svg", help="log-log plot (optional)")
    p.set_defaults(func=cmd_convergence)

    return parser


def _range_arg(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO:HI")
    lo, hi = float(parts[0]), float(parts[1])
    if not (-np.inf < lo < hi < np.inf and hi - lo < np.inf):
        raise argparse.ArgumentTypeError("need finite LO < HI with a finite "
                                         "width HI - LO")
    return lo, hi


def _count_arg(least):
    """An argparse type: an integer >= ``least``."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return value
    return count


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ContractError, DegenerateGeometryError, ExtrapolationError,
            OSError) as err:
        return _fail(err)
    except (ConvergenceError, NormalNeighborhoodError) as err:
        return _fail(err, NUMERICAL_ERROR)


if __name__ == "__main__":
    sys.exit(main())
