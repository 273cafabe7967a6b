"""Spanwise blade construction from cross-section shapes.

A blade is an ordered set of stations (eta_k, shape_k) along the span.
Each section is standardized; the representatives are then aligned by
sequential Procrustes rotations (tip to root by default).  Alignment is
what makes the piecewise-geodesic evaluation seamless: after it, every
adjacent cross-Gram X_k^T X_{k+1} is symmetric positive definite, so the
interval geodesic Exp_{X_k}(t Log_{X_k}(X_{k+1})) lands exactly on the
next representative at t = 1 instead of on a rotated copy of it.

Undulation travel along the span is parametrized by the cumulative
Grassmann distance t_k; a monotone PCHIP phi maps eta to t, and the six
affine entries (or the SPD factor, rotation angle and offset in the
product variant) follow their own splines.  Evaluation composes the
two:  X(eta) = rep(phi(eta)) @ m(eta) + b(eta).
"""

import warnings
from itertools import accumulate

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import (
    ContractError,
    DegenerateGeometryError,
    ExtrapolationError,
    NormalNeighborhoodError,
)
from .grassmann import GrassmannPoint, _exp_raw, _log_raw, _transport_raw
from .linalg import mT, rotation2, sym2_roots, thin_svd
from .shapes import LandmarkShape, _standardize_raw
from .spd import _distance_raw as _spd_distance_raw
from .spd import _exp_raw as _spd_exp_raw
from .spd import _log_raw as _spd_log_raw
from .stats import MeanScale

VARIANTS = ("gl2-schedule", "product-spd")
# Adjacent undulation distances below this are treated as a flat interval.
FLAT_INTERVAL = 1e-15


def procrustes_rotation(a, b, allow_reflection=True):
    """The orthogonal R minimizing ||a - b R||_F, from the SVD of b^T a.

    With allow_reflection=False the solution is constrained to SO(2) by
    flipping the smallest singular direction when det would be -1.
    Broadcasts over leading axes of (..., n, 2) inputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u, _, vt = thin_svd(mT(b) @ a)
    if not allow_reflection:
        flip = np.linalg.det(u @ vt) < 0.0
        u[..., 1] *= np.where(flip, -1.0, 1.0)[..., None]
    return u @ vt


def cluster_representatives(reps, direction="tip-to-root", allow_reflection=True):
    """Sequentially align a chain of representatives by Procrustes.

    Returns (aligned, rotations) stacks, (N, n, 2) and (N, 2, 2).
    tip-to-root aligns station k-1 to the already-aligned station k for
    k = N..2; root-to-tip is the mirror image.  rotations[k] is the total
    rotation applied to station k (identity at the anchor).
    """
    mats = np.asarray([getattr(r, "rep", r) for r in reps], dtype=float)
    step = {"tip-to-root": -1, "root-to-tip": 1}.get(direction)
    if step is None:
        raise ContractError(f"unknown clustering direction {direction!r}")
    chain = mats[::step]
    # aligning to X Q gives R Q (Procrustes is equivariant), so the pairwise
    # rotations take one batched call and only their product is sequential
    pairs = procrustes_rotation(chain[:-1], chain[1:], allow_reflection)
    totals = accumulate(pairs, lambda q, r: r @ q, initial=np.eye(2))
    totals = np.stack(list(totals))[::step]
    return mats @ totals, totals


def _spanwise_spline(etas, values):
    """Cubic spline of per-station values; natural ends with a
    not-a-knot fallback when only 2-3 stations exist."""
    bc = "natural" if len(etas) >= 4 else "not-a-knot"
    return CubicSpline(etas, values, axis=0, bc_type=bc)


class BladeModel:
    """A built blade: aligned representatives plus spanwise schedules."""

    __slots__ = (
        "variant", "etas", "reps", "ts", "affine_m", "affine_b",
        "spd_p", "angles", "closed", "has_reflection", "span_length",
        "bend", "_phi", "_psi", "_gr_logs", "_spd_logs", "_m_spline",
        "_b_spline", "_angle_spline", "ell",
    )

    def __init__(self, variant, etas, reps, affine_m, affine_b, spd_p=None,
                 angles=None, closed=False, has_reflection=False,
                 span_length=1.0, bend=None):
        if variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}")
        etas = np.asarray(etas, dtype=float)
        if etas.size < 2:
            raise ContractError("a blade needs at least two stations")
        if np.any(np.diff(etas) <= 0.0):
            raise ContractError("station etas must be strictly increasing")
        self.variant = variant
        self.etas = etas
        self.reps = np.asarray(reps, dtype=float)  # (N, n, 2), aligned
        self.affine_m = np.asarray(affine_m, dtype=float)  # (N, 2, 2)
        self.affine_b = np.asarray(affine_b, dtype=float)  # (N, 2)
        self.spd_p = None if spd_p is None else np.asarray(spd_p, dtype=float)
        self.angles = None if angles is None else np.asarray(angles, dtype=float)
        self.closed = bool(closed)
        self.has_reflection = bool(has_reflection)
        self.span_length = float(span_length)
        self.bend = None if bend is None else np.asarray(bend, dtype=float)
        self._rebuild()

    @property
    def n_stations(self):
        return self.etas.size

    @property
    def n(self):
        return self.reps.shape[1]

    def _rebuild(self):
        """Derive schedules and per-interval geodesic caches."""
        reps = self.reps
        self._gr_logs = _log_raw(reps[:-1], reps[1:])
        gaps = np.linalg.norm(self._gr_logs, axis=(-2, -1))
        self.ts = np.concatenate([[0.0], np.cumsum(gaps)])
        self._phi = PchipInterpolator(self.etas, self.ts)
        if self.variant == "gl2-schedule":
            self._m_spline = _spanwise_spline(self.etas, self.affine_m)
            self._spd_logs = None
            self._psi = None
            self._angle_spline = None
            self.ell = None
        else:
            p = self.spd_p
            self._spd_logs = _spd_log_raw(p[:-1], p[1:])
            spd_gaps = _spd_distance_raw(p[:-1], p[1:])
            self.ell = np.concatenate([[0.0], np.cumsum(spd_gaps)])
            self._psi = PchipInterpolator(self.etas, self.ell)
            self._m_spline = None
            self._angle_spline = _spanwise_spline(
                self.etas, np.unwrap(self.angles)
            )
        self._b_spline = _spanwise_spline(self.etas, self.affine_b)

    def _interval(self, eta):
        """Interval index of each eta (an array); refuses any eta outside
        the span."""
        etas = self.etas
        outside = (eta < etas[0]) | (eta > etas[-1])
        if np.any(outside):
            bad = float(np.asarray(eta)[outside].flat[0])
            raise ExtrapolationError(
                f"eta={bad:g} outside the blade span [{etas[0]:g}, {etas[-1]:g}]"
            )
        k = np.searchsorted(etas, eta, side="right") - 1
        return np.clip(k, 0, etas.size - 2)

    def _rep_at(self, eta, k):
        tt = _fraction(self._phi(eta), self.ts, k)
        return _exp_raw(self.reps[k], tt[..., None, None] * self._gr_logs[k])

    def _scale_at(self, eta, k):
        if self.variant == "gl2-schedule":
            return self._m_spline(eta)
        ss = _fraction(self._psi(eta), self.ell, k)
        p = _spd_exp_raw(self.spd_p[k], ss[..., None, None] * self._spd_logs[k])
        return p @ rotation2(self._angle_spline(eta))


def _fraction(value, knots, k):
    """Where value sits in [knots[k], knots[k + 1]], clipped to [0, 1];
    0 on an interval shorter than FLAT_INTERVAL."""
    width = knots[k + 1] - knots[k]
    flat = width < FLAT_INTERVAL
    frac = np.clip((value - knots[k]) / np.where(flat, 1.0, width), 0.0, 1.0)
    return np.where(flat, 0.0, frac)


def _sections(model, etas):
    """Cross-section landmarks at each of ``etas``: (len(etas), n, 2)."""
    etas = np.asarray(etas, dtype=float)
    k = model._interval(etas)
    m = model._scale_at(etas, k)
    return model._rep_at(etas, k) @ m + model._b_spline(etas)[:, None, :]


def evaluate_blade(model, eta):
    """The cross-section at spanwise position eta (interpolation only)."""
    return LandmarkShape(_sections(model, [float(eta)])[0], closed=model.closed)


def evaluate_representative(model, eta):
    """The undulation component alone at eta, before scale and offset."""
    etas = np.array([float(eta)])
    return GrassmannPoint(model._rep_at(etas, model._interval(etas))[0])


def build_blade(stations, variant="gl2-schedule", direction="tip-to-root",
                span_length=1.0, bend=None, affine_overrides=None):
    """Assemble a BladeModel from (eta, LandmarkShape) stations.

    Shapes must share a landmark count (preprocess first if they do not).
    ``affine_overrides``, when given, replaces the standardized scale and
    offset of every station with explicit (m, b) pairs -- the usual way
    a design defines chord, twist and stacking along the span.
    """
    if len(stations) < 2:
        raise ContractError("a blade needs at least two stations")
    etas = np.array([float(e) for e, _ in stations])
    shapes = [s for _, s in stations]
    ns = {s.n for s in shapes}
    if len(ns) != 1:
        raise ContractError(
            f"stations must share a landmark count, got {sorted(ns)}; "
            "preprocess the sections to a common n first"
        )
    closed = shapes[0].closed
    std_variant = "gl2" if variant == "gl2-schedule" else "polar"
    try:
        reps, ms, bs = _standardize_raw(np.stack([s.x for s in shapes]),
                                        std_variant)
    except DegenerateGeometryError as err:
        k = err.index[0]
        raise DegenerateGeometryError(f"station {k} (eta={etas[k]:g}): {err}") from err
    if affine_overrides is not None:
        if len(affine_overrides) != len(stations):
            raise ContractError("need one affine override per station")
        ms, bs = zip(*affine_overrides)
    return _assemble(variant, etas, reps, ms, bs, closed, direction,
                     span_length, bend)


def _assemble(variant, etas, reps, ms, bs, closed, direction,
              span_length=1.0, bend=None):
    allow_reflection = variant == "gl2-schedule"
    aligned, rotations = cluster_representatives(
        reps, direction=direction, allow_reflection=allow_reflection
    )
    has_reflection = bool(np.any(np.linalg.det(rotations) < 0.0))
    # the rotation moved into the representative comes out of the scale:
    # (X R)(R^T m) reproduces X m
    ms = mT(rotations) @ np.asarray(ms, dtype=float)
    if variant == "gl2-schedule":
        return BladeModel(
            variant, etas, aligned, ms, bs,
            closed=closed, has_reflection=has_reflection,
            span_length=span_length, bend=bend,
        )
    # product-spd: split each rotated factor into SPD part and rotation
    # angle; clustering was restricted to SO(2) so angles are well defined
    # m = P R with P SPD, R in SO(2): P = (m m^T)^(1/2), R = P^-1 m
    p, p_inv = sym2_roots(ms @ mT(ms))
    r = p_inv @ ms
    reflected = np.linalg.det(r) < 0.0
    if np.any(reflected):
        raise DegenerateGeometryError(
            f"station {int(np.argmax(reflected))}: scale factor contains a "
            "reflection; the product-spd schedule needs proper rotations"
        )
    return BladeModel(
        variant, etas, aligned, ms, bs,
        spd_p=p,
        # rotation2 convention: R = [[c, s], [-s, c]]
        angles=np.arctan2(r[:, 0, 1], r[:, 0, 0]),
        closed=closed, has_reflection=has_reflection,
        span_length=span_length, bend=bend,
    )


def consistent_deform(model, pga, coeffs, scale=None):
    """Apply one tangent deformation consistently at every station.

    The PGA coefficient vector defines a tangent at the ensemble mean;
    it is parallel-transported along the geodesic from the mean to each
    station's undulation representative, re-expressed in that station's
    frame, and followed by Exp there.  The blade is then re-assembled.
    coeffs = 0 reproduces the input blade exactly (up to roundoff).

    ``scale``, when a MeanScale, replaces the spanwise scale schedule by
    that constant matrix (gl2-schedule blades only).
    """
    if pga.kind != "grassmann":
        raise ContractError(
            "consistent deformation needs a Grassmann PGA model"
        )
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (pga.r,):
        raise ContractError(
            f"coefficient vector must have length r={pga.r}, got {coeffs.shape}"
        )
    if pga.domain is not None:
        radius = float(np.linalg.norm(coeffs))
        if radius > pga.domain.radius:
            warnings.warn(
                f"deformation magnitude {radius:.3g} exceeds the training "
                f"radius {pga.domain.radius:.3g}; extrapolating the model",
                stacklevel=2,
            )
    mean_rep = pga.mean.rep
    if mean_rep.shape != model.reps.shape[1:]:
        raise ContractError(
            "PGA model and blade stations live on different Grassmannians"
        )
    delta = (pga.basis @ coeffs).reshape(2, -1).T  # unvec at the mean
    reps = model.reps
    try:
        d = _log_raw(mean_rep, reps)
    except NormalNeighborhoodError as err:
        k = err.index[0]
        raise NormalNeighborhoodError(
            f"station {k} (eta={model.etas[k]:g}) lies outside the normal "
            "neighborhood of the PGA mean (a principal angle is at or near "
            "pi/2); Log is undefined"
        ) from err
    moved = _transport_raw(mean_rep, d, 1.0, delta)
    arrival = _exp_raw(mean_rep, d)
    # re-express the transported lifts at the stations' own representatives
    # (arrival spans each station subspace but may be rotated relative to it)
    g = procrustes_rotation(reps, arrival)
    new_reps = _exp_raw(reps, moved @ g)
    if scale is None:
        ms = model.affine_m
    elif isinstance(scale, MeanScale):
        if model.variant != "gl2-schedule":
            raise ContractError(
                "constant mean scale replacement needs a gl2-schedule blade"
            )
        ms = np.broadcast_to(scale.m, model.affine_m.shape)
    else:
        raise ContractError("scale must be None or a MeanScale")
    return _assemble(
        model.variant, model.etas, new_reps, ms, model.affine_b,
        model.closed, "tip-to-root", model.span_length, model.bend,
    )
