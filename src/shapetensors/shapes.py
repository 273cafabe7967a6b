"""Discrete planar curves and their separable factorization.

A shape is an ordered polyline of landmarks (n, 2).  Standardization
splits it into the part that survives affine changes of frame -- an
element of G(n, 2) called the undulation component -- and the affine
part (a 2x2 scale and a translation):

    X = rep @ m + 1 b^T,   rep^T rep = I,   1^T rep = 0.

Two variants of the split are supported.  "gl2" keeps the full thin-SVD
factor m = S Z^T; "polar" rotates the representative by the right
singular vectors so m becomes the symmetric positive definite factor
Z S Z^T, which is the form the product-manifold statistics operate on.

Refinement re-samples a list of shapes at a target landmark count by
splining their coordinates over the normalized cumulative chord length
(the standard discrete arc-length surrogate), one kernel call for each
kind of shape in the list.
"""

import numpy as np

from . import cubic
from .errors import (ContractError, DegenerateGeometryError, ShapeTensorError,
                     _entry, named, refuse)
from .grassmann import ORTHO_TOL, GrassmannPoint
from .linalg import mT, rotation2, thin_svd
from .textio import atomic_write_text, data_lines, fmt_rows, parse_rows

# Smallest acceptable sigma_2 / sigma_1 of the centered landmark matrix.
RANK_TOL = 1e-10
# Largest landmark count a shape may be sampled or refined at.
MAX_LANDMARKS = 10_000_000

SPLINE_KINDS = ("cubic-natural", "pchip")
SAMPLING_KINDS = ("uniform-arclength", "cosine")


class LandmarkShape:
    """An ordered polyline of n >= 3 planar landmarks.

    ``closed`` records whether the polyline is a closed traversal; closed
    shapes conventionally repeat their first landmark at the end, and the
    file reader flags them by that coincidence.
    """

    __slots__ = ("x", "closed", "name")

    def __init__(self, x, closed=False, name=None):
        self.x = _entry(x, ("n >= 3", 2), "landmarks", "landmarks contain non-finite values")
        self.closed = bool(closed)
        self.name = name

    @property
    def n(self):
        return self.x.shape[0]

    def __repr__(self):
        return f"LandmarkShape(n={self.n}, closed={self.closed})"


class AffineFactor:
    """The affine part of a standardized shape: x -> x m + b."""

    __slots__ = ("m", "b")

    def __init__(self, m, b):
        m = _entry(m, (2, 2), "affine factor m")
        b = _entry(b, (2,), "affine factor b")
        (p, q), (r, s) = m.tolist()  # Python floats overflow without a warning
        if p * s - q * r == 0.0:
            raise DegenerateGeometryError("affine scale matrix is singular")
        self.m = m
        self.b = b


class SeparableShape:
    """A shape factored into Grassmannian and affine components."""

    __slots__ = ("grass", "affine", "closed", "name")

    def __init__(self, grass, affine, closed=False, name=None):
        self.grass = grass
        self.affine = affine
        self.closed = bool(closed)
        self.name = name


class PreprocessConfig:
    """Refinement settings: landmark count, spline family, sampling law."""

    __slots__ = ("n", "spline", "sampling")

    def __init__(self, n=401, spline="cubic-natural", sampling="uniform-arclength"):
        if int(n) != n or not 3 <= n <= MAX_LANDMARKS:
            raise ContractError(f"refinement count must be an integer in "
                                f"[3, {MAX_LANDMARKS}], got {n}")
        if spline not in SPLINE_KINDS:
            raise ContractError(f"spline must be one of {SPLINE_KINDS}, got {spline!r}")
        if sampling not in SAMPLING_KINDS:
            raise ContractError(
                f"sampling must be one of {SAMPLING_KINDS}, got {sampling!r}"
            )
        self.n = int(n)
        self.spline = spline
        self.sampling = sampling


def _as_points(shape, n="n"):
    """The (n, 2) landmarks of a LandmarkShape, or an array of them with
    at least as many as ``n`` spells ("n >= 3")."""
    if isinstance(shape, LandmarkShape):
        return shape.x
    return _entry(shape, (n, 2), "landmarks", "landmarks contain non-finite values")


def cumulative_lengths(shape):
    """Normalized cumulative chord lengths s_1 = 0 <= ... <= s_n = 1.

    Strictly increasing for a polyline without repeated consecutive
    landmarks; a zero-length segment raises DegenerateGeometryError, and
    a total length that overflows raises ContractError.
    """
    return _chord_params(_as_points(shape, "n >= 2"))


def _chord_params(pts):
    """cumulative_lengths of each member of an (..., n, 2) stack; the
    error's ``index`` names the first member refused."""
    s = np.zeros(pts.shape[:-1])
    with np.errstate(over="ignore"):  # an overflowing length is refused below
        seg = np.linalg.norm(np.diff(pts, axis=-2), axis=-1)
        np.cumsum(seg, axis=-1, out=s[..., 1:])
    zero = seg == 0.0
    refuse(zero.any(axis=-1) | ~np.isfinite(s[..., -1]), lambda i: (
        DegenerateGeometryError(f"repeated consecutive landmarks at index "
                                f"{int(np.argmax(zero[i]))}: zero-length segment")
        if zero[i].any() else
        ContractError("chord lengths overflow: coordinates are too large")))
    return s / s[..., -1:]


def landmark_gauge(shape):
    """The gauge h_n: the largest Euclidean gap between consecutive
    landmarks.  A float for one shape, an array of per-member gauges for
    an (..., n, 2) stack; each member has the bits of its own call.  A
    gap that overflows raises ContractError."""
    pts = (shape.x if isinstance(shape, LandmarkShape) else
           _entry(shape, ("...", "n >= 2", 2), "landmarks"))
    with np.errstate(over="ignore"):  # an overflowing gap is refused below
        gauge = np.linalg.norm(np.diff(pts, axis=-2), axis=-1).max(axis=-1)
    refuse(np.isinf(gauge), lambda _: ContractError(
        "chord lengths overflow: coordinates are too large"))
    return gauge if gauge.ndim else float(gauge)


def _refine_stack(pts, closed, cfg):
    """refine's kernel: each member of an (..., n, 2) stack re-sampled at
    cfg.n landmarks along a spline over its cumulative lengths (periodic
    if closed, natural if open, or "pchip").  The members are all open,
    or all closed and alike in whether they repeat their first landmark
    at the end, which the others gain; a closed member's last landmark
    is its first, bit for bit.  ``index`` names a refused member."""
    if closed and not np.array_equal(pts[..., 0, :], pts[..., -1, :]):
        pts = np.concatenate([pts, pts[..., :1, :]], axis=-2)
    s = _chord_params(pts)
    if cfg.spline == "cubic-natural":
        path = cubic.spline(s, pts, "periodic" if closed else "natural")
    elif cfg.spline == "pchip":
        path = cubic.pchip(s, pts)
    else:
        raise ContractError(f"spline must be one of {SPLINE_KINDS}, got {cfg.spline!r}")
    refined = path(sampling_positions(cfg.n, cfg.sampling))
    if closed:  # the path meets its start at s = 1 only to rounding
        refined[..., -1, :] = refined[..., 0, :]
    return refined


def sampling_positions(n, sampling="uniform-arclength"):
    """Parameter values in [0, 1] at which a refined shape is sampled."""
    if sampling == "uniform-arclength":
        return np.linspace(0.0, 1.0, n)
    if sampling == "cosine":
        return 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n)))
    raise ContractError(f"sampling must be one of {SAMPLING_KINDS}, got {sampling!r}")


def refine(shapes, cfg):
    """Re-sample shapes at cfg.n landmarks along their fitted paths;
    returns a list in input order.  Members alike in landmark count,
    closedness and whether they repeat their first landmark at the end
    share one kernel call.  A member that cannot be refined raises; the
    error's ``index`` names its position in ``shapes``, and its
    ``refused`` every member of its kind that the same check refused."""
    shapes = list(shapes)
    groups = {}
    for i, s in enumerate(shapes):
        # a closed member gains a closing knot unless it repeats its first
        # landmark already, so the two kinds are splined apart
        repeats = s.closed and np.array_equal(s.x[0], s.x[-1])
        groups.setdefault((s.n, s.closed, repeats), []).append(i)
    out = [None] * len(shapes)
    for (_, closed, _), members in groups.items():
        try:
            refined = _refine_stack(np.stack([shapes[i].x for i in members]),
                                    closed, cfg)
        except ShapeTensorError as err:
            if err.index:
                err.refused = list(err.refused or [err])
                for e in err.refused:
                    e.index = (members[e.index[0]],)
            raise
        for i, pts in zip(members, refined):
            out[i] = LandmarkShape(pts, closed=closed, name=shapes[i].name)
    return out


def ends_meet(rep):
    """Whether the first and last rows of a Grassmann representative, or
    of each in an (..., n, 2) stack, agree within ORTHO_TOL, as those of
    a closed shape that repeats its first landmark do: standardization
    moves the repeat by a few ulps, so exact equality would read open."""
    return np.linalg.norm(rep[..., 0, :] - rep[..., -1, :], axis=-1) <= ORTHO_TOL


def _standardize_raw(pts, variant):
    """la_standardize's (rep, m, b) for an (..., n, 2) stack of landmarks.

    A member whose centered landmarks overflow or are collinear raises
    DegenerateGeometryError; its ``index`` is the first such member.
    """
    if variant not in ("gl2", "polar"):
        raise ContractError(f"unknown standardization variant {variant!r}")
    with np.errstate(over="ignore"):  # an overflowing member is refused below
        b = np.add.reduce(pts, axis=-2) / pts.shape[-2]  # mean's bits, fewer calls
    centered = pts - b[..., None, :]
    finite = np.isfinite(centered).all(axis=(-2, -1))
    if not finite.all():  # a zeroed member keeps the SVD defined, reads collinear
        centered = np.where(finite[..., None, None], centered, 0.0)
    w, s, zt = thin_svd(centered)
    refuse(s[..., 1] <= RANK_TOL * s[..., 0], lambda i: DegenerateGeometryError(
        "landmarks are collinear after centering: sigma_2/sigma_1 = "
        f"{s[i][1] / s[i][0] if s[i][0] else 0.0:.3e}" if finite[i] else
        "centered landmarks are not finite: the coordinates overflow"))
    if variant == "gl2":
        return w, s[..., :, None] * zt, b
    m = mT(zt) @ (s[..., :, None] * zt)
    return w @ zt, 0.5 * (m + mT(m)), b


def la_standardize(shape, variant="gl2"):
    """Factor a shape into its Grassmannian and affine components.

    Centers the landmarks, takes the deterministic thin SVD
    X - 1 b^T = W diag(s) Z^T and returns

        gl2:    rep = W,        m = diag(s) Z^T
        polar:  rep = W Z^T,    m = Z diag(s) Z^T  (SPD)

    The representative has orthonormal, zero-mean columns; scaling or
    translating the input changes only the affine factor.
    """
    rep, m, b = _standardize_raw(_as_points(shape, "n >= 3"), variant)
    closed = shape.closed if isinstance(shape, LandmarkShape) else False
    name = shape.name if isinstance(shape, LandmarkShape) else None
    return SeparableShape(
        GrassmannPoint(rep), AffineFactor(m, b), closed=closed, name=name
    )


def reconstruct(sep):
    """Invert the factorization: rep @ m + b recovers the landmarks."""
    pts = sep.grass.rep @ sep.affine.m + sep.affine.b
    return LandmarkShape(pts, closed=sep.closed, name=sep.name)


def l4_matrix(l):
    """The four-parameter affine family l1 * diag(l2, l3) * R(l4).

    R is the [[cos, sin], [-sin, cos]] convention, so l = (1, 1, 1, pi/2)
    gives [[0, 1], [-1, 0]].  A zero in l1*l2*l3 would collapse the
    frame and raises a degeneracy error; a matrix whose entries overflow
    is refused.
    """
    l = _entry(l, (4,), "l4 parameter")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        m = l[0] * np.diag([l[1], l[2]]) @ rotation2(l[3])
    # row i is l1 * l(i+2) times a unit vector: a zero row is a zero (or
    # underflowed) scale, found without forming l1*l2*l3, which may overflow
    if not m.any(axis=1).all():
        raise DegenerateGeometryError(
            "l1*l2*l3 = 0 makes the affine family singular"
        )
    if not np.isfinite(m).all():
        raise ContractError(f"l4 parameters {l.tolist()} overflow the affine matrix")
    return m


# ----------------------------------------------------------------- files

def read_landmarks(path):
    """Read a landmark file: 'x y' lines, '#' comments, optional leading
    name line.  A shape whose first and last landmarks coincide is
    flagged closed."""
    with open(path) as fh:
        text = fh.read()
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    name = None
    pts = parse_rows(lines, 2)
    if pts is None:
        # the first line may name the shape; any other bad line is an error
        pts = parse_rows(lines[1:], 2)
        if pts is None:
            _raise_bad_line(path, text)
        name = lines[0]
    if len(pts) < 3:
        raise ContractError(f"{path}: need at least 3 landmarks, found {len(pts)}")
    closed = bool(np.all(pts[0] == pts[-1]))
    with named(path):
        return LandmarkShape(pts, closed=closed, name=name)


def _raise_bad_line(path, text):
    """Word the error of a landmark file that does not parse: the first
    data line after the first that is not 'x y'."""
    for k, (lineno, line) in enumerate(data_lines(text, from_text=True)):
        if k and parse_rows([line], 2) is None:
            raise ContractError(f"{path}:{lineno}: expected 'x y', got {line!r}")


def write_landmarks(path, shape, header=None):
    """Write a landmark file (atomically); inverse of read_landmarks."""
    lines = []
    if header:
        lines.append(f"# {header}")
    if shape.name:
        lines.append(str(shape.name))
    lines.append(fmt_rows(shape.x))
    atomic_write_text(path, "\n".join(lines) + "\n")
