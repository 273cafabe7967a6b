"""Blade definition files, blade artifacts, and wireframe output.

A blade definition is a small text file listing the cross-section files
along the span, plus optional placement data::

    # hub-to-tip test blade
    span 60.0
    bend 0.0   0.0 0.0 0.0
    bend 1.0   0.0 4.0 60.0
    station 0.0  sections/root.txt
    station 0.5  sections/mid.txt
    station 1.0  sections/tip.txt  m 1.2 0.0 0.0 1.2  b 0.25 0.0

Station paths are resolved relative to the definition file.  ``m``/``b``
override the standardized scale and offset (chord/twist/stacking data);
they must be given for every station or for none.  ``bend`` rows are
(eta, x, y, z) knots of a spanwise stacking curve; without them the
sections stack along the z axis at z = eta * span.
"""

import os

import numpy as np

from .blade import BladeModel, _sections, build_blade
from .blade import evaluate_blade  # noqa: F401  (bench/spans.py traces this name)
from .errors import ContractError, _entry, named, refuse
from .linalg import mT
from .shapes import (
    LandmarkShape,
    PreprocessConfig,
    read_landmarks,
    refine,
    write_landmarks,
)
from .textio import (
    BlockReader,
    atomic_write_text,
    data_lines,
    fmt,
    fmt_rows,
    matrix_block,
    vector_block,
)

_BLADE_MAGIC = "shapetensors blade 1"


class BladeDefinition:
    """Parsed blade definition: stations plus placement metadata."""

    __slots__ = ("stations", "span_length", "bend")

    def __init__(self, stations, span_length=1.0, bend=None):
        if len(stations) < 2:
            raise ContractError("a blade definition needs at least two stations")
        self.stations = stations  # list of (eta, path, m-or-None, b-or-None)
        self.span_length = float(_entry(span_length, (), "span length"))
        self.bend = bend


def _finite(token, what):
    """float(token), refusing nan and inf."""
    value = float(token)
    if not np.isfinite(value):
        raise ContractError(f"bad {what} value {token!r}: not finite")
    return value


def read_blade_definition(path):
    stations = []
    span_length = 1.0
    bend_rows = []
    base_dir = os.path.dirname(os.path.abspath(path))
    for lineno, line in data_lines(path):
        tokens = line.split()
        word = tokens[0]
        try:
            if word == "span":
                span_length = _finite(tokens[1], "span")
            elif word == "bend":
                if len(tokens) != 5:
                    raise ContractError("bend rows are `bend eta x y z`")
                bend_rows.append([_finite(t, "bend") for t in tokens[1:]])
            elif word == "station":
                eta = _finite(tokens[1], "station eta")
                rel = tokens[2]
                m = b = None
                rest = tokens[3:]
                while rest:
                    key, size = rest[0], {"m": 4, "b": 2}.get(rest[0])
                    if size is None:
                        raise ContractError(f"unknown station field {key!r}")
                    if len(rest) <= size:
                        raise ContractError(f"station field {key} needs {size} "
                                            "numbers")
                    value = np.array([_finite(t, key) for t in rest[1:size + 1]])
                    if key == "m":
                        m = value.reshape(2, 2)
                    else:
                        b = value
                    rest = rest[size + 1:]
                stations.append((eta, os.path.join(base_dir, rel), m, b))
            else:
                raise ContractError(f"unknown directive {word!r}")
        except (IndexError, ValueError) as err:
            raise ContractError(f"{path}:{lineno}: {err}") from err
    bend = np.array(bend_rows) if bend_rows else None
    return BladeDefinition(stations, span_length, bend)


def build_blade_from_definition(defn, variant="gl2-schedule", n=None,
                                spline="cubic-natural",
                                sampling="uniform-arclength"):
    """Read the station files, resample to a common landmark count, and
    assemble the blade.  ``n=None`` keeps the largest station count."""
    shapes = [read_landmarks(p) for _, p, _, _ in defn.stations]
    target = max(s.n for s in shapes) if n is None else int(n)
    cfg = PreprocessConfig(n=target, spline=spline, sampling=sampling)
    members = [i for i, shape in enumerate(shapes) if shape.n != target]
    for i, shape in zip(members, refine([shapes[i] for i in members], cfg)):
        shapes[i] = shape
    has_m = [m is not None for _, _, m, _ in defn.stations]
    if any(has_m) and not all(has_m):
        raise ContractError(
            "explicit affine data must be given for every station or none"
        )
    overrides = None
    if all(has_m):
        overrides = []
        for _, _, m, b in defn.stations:
            overrides.append((m, np.zeros(2) if b is None else b))
    stations = [(e, s) for (e, _, _, _), s in zip(defn.stations, shapes)]
    return build_blade(
        stations, variant=variant, span_length=defn.span_length,
        bend=defn.bend, affine_overrides=overrides,
    )


def save_blade(path, model):
    lines = [_BLADE_MAGIC, f"variant {model.variant}"]
    lines.append(f"closed {int(model.closed)}")
    lines.append(f"has-reflection {int(model.has_reflection)}")
    lines.append(f"span-length {fmt(model.span_length)}")
    lines.extend(vector_block("etas", model.etas))
    lines.extend(matrix_block("reps", model.reps.reshape(-1, 2)))
    lines.extend(matrix_block("affine-m", model.affine_m.reshape(-1, 4)))
    lines.extend(matrix_block("affine-b", model.affine_b))
    if model.bend is None:
        lines.append("bend none")
    else:
        lines.extend(matrix_block("bend", model.bend))
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_blade(path):
    r = BlockReader(path)
    if r.next() != _BLADE_MAGIC:
        raise ContractError(f"{path}: not a shapetensors blade file")
    variant = r.value("variant")
    closed = bool(r.value("closed", int))
    has_reflection = bool(r.value("has-reflection", int))
    span_length = r.value("span-length", float)
    etas = r.vector("etas")
    n_st = etas.size
    reps = r.block("reps", cols=2)
    n = len(reps) // max(n_st, 1)
    if n < 3 or n * n_st != len(reps):
        raise r.error(f"block 'reps' has {len(reps)} rows, expected n >= 3 "
                      f"for each of the {n_st} stations")
    reps = reps.reshape(n_st, n, 2)
    affine_m = r.block("affine-m", rows=n_st, cols=4).reshape(n_st, 2, 2)
    affine_b = r.block("affine-b", rows=n_st, cols=2)
    bend = r.block("bend", optional=True, cols=4)
    if r.next() != "end":
        raise ContractError(f"{path}: missing end marker")
    with named(path):
        return BladeModel(
            variant, etas, reps, affine_m, affine_b, closed=closed,
            has_reflection=has_reflection, span_length=span_length, bend=bend,
        )


def _axis_frames(tangents):
    """Rotations taking the z axis onto each unit tangent: (m, 3) -> (m, 3, 3)."""
    z = np.array([0.0, 0.0, 1.0])
    c = np.cross(z, tangents)
    s = np.linalg.norm(c, axis=-1)
    d = tangents[:, 2]
    aligned = s < 1e-12
    axis = c / np.where(aligned, 1.0, s)[:, None]
    zero = np.zeros_like(s)
    k = np.stack([
        np.stack([zero, -axis[:, 2], axis[:, 1]], axis=-1),
        np.stack([axis[:, 2], zero, -axis[:, 0]], axis=-1),
        np.stack([-axis[:, 1], axis[:, 0], zero], axis=-1),
    ], axis=-2)
    angle = np.arctan2(s, d)[:, None, None]
    frames = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    # along +z no turn, along -z a half turn about x
    frames[aligned] = np.where(d[aligned, None, None] > 0.0, np.eye(3),
                               np.diag([1.0, -1.0, -1.0]))
    return frames


def _placed_sections(model, etas):
    """Sections at ``etas`` in the plane, (m, n, 2), and placed in
    3-space along the stacking axis, (m, n, 3)."""
    flat = _sections(model, etas)
    pts = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,))], axis=-1)
    if model.bend is None:
        offset = np.zeros((etas.size, 3))
        offset[:, 2] = etas * model.span_length
        return flat, pts + offset[:, None, :]
    curve = model._bend_curve
    tan = curve(etas, nu=1)
    norm = np.linalg.norm(tan, axis=-1)
    refuse(norm < 1e-12, lambda i: ContractError(
        f"bend curve has a vanishing tangent at eta={etas[i]:g}"))
    frames = _axis_frames(tan / norm[:, None])
    return flat, pts @ mT(frames) + curve(etas)[:, None, :]


def _section_etas(model, etas, count):
    if etas is None:
        etas = np.linspace(model.etas[0], model.etas[-1], count)
    return _entry(etas, ("N",), "etas", finite=False)  # the span refuses NaN


def wireframe_sections(model, etas=None, count=25):
    """Evaluate the blade at the given spanwise positions and place each
    section in 3-space along the stacking axis.

    Returns a list of (eta, points3d) with points3d of shape (n, 3).
    Straight blades stack along z at z = eta * span_length; a bend curve
    positions each section at the curve point with the section plane
    normal to the curve tangent.
    """
    etas = _section_etas(model, etas, count)
    _, placed = _placed_sections(model, etas)
    return list(zip(etas.tolist(), placed))


def write_wireframe(out_dir, model, etas=None, count=25):
    """Write per-section landmark files, an index manifest, and a lofted
    OBJ surface under ``out_dir``.  Returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    etas = _section_etas(model, etas, count)
    flat, placed = _placed_sections(model, etas)
    manifest_lines = ["# file,eta"]
    for i, (eta, sec) in enumerate(zip(etas.tolist(), flat)):
        fname = f"section_{i:03d}.txt"
        write_landmarks(
            os.path.join(out_dir, fname), LandmarkShape(sec, closed=model.closed),
            header=f"blade section at eta {fmt(eta)}",
        )
        manifest_lines.append(f"{fname},{fmt(eta)}")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    write_obj(os.path.join(out_dir, "blade.obj"), list(placed))
    return manifest_path


def write_obj(path, sections3d):
    """Loft the placed sections into a quad-mesh Wavefront OBJ file."""
    pts = _entry(sections3d, ("sections >= 2", "n", 3), "an OBJ loft")
    m, n = pts.shape[:2]
    a = (np.arange(m - 1)[:, None] * n + np.arange(1, n)).ravel()  # 1-based
    faces = np.stack([a, a + 1, a + n + 1, a + n], axis=1)
    text = fmt_rows(pts.reshape(-1, 3), "v %r %r %r") + "\n"
    if len(faces):
        text += fmt_rows(faces, "f %d %d %d %d") + "\n"
    atomic_write_text(path, text)
