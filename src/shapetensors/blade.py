"""Spanwise blade construction from cross-section shapes.

A blade is an ordered set of stations (eta_k, shape_k) along the span.
Each section is standardized; the representatives are then aligned by
sequential Procrustes rotations, tip to root.  Alignment is
what makes the piecewise-geodesic evaluation seamless: after it, every
adjacent cross-Gram X_k^T X_{k+1} is symmetric positive definite, so the
interval geodesic Exp_{X_k}(t Log_{X_k}(X_{k+1})) lands exactly on the
next representative at t = 1 instead of on a rotated copy of it.

Undulation travel along the span is parametrized by the cumulative
Grassmann distance t_k; a monotone PCHIP phi maps eta to t, and the six
affine entries follow their own splines.  The product variant instead
splits each scale m = P R (P SPD, R in SO(2), both closed form in m's
entries), follows P along SPD geodesics and the unwrapped angle of R by
a spline.  Evaluation composes the two:
X(eta) = rep(phi(eta)) @ m(eta) + b(eta).

A BladeModel holds only what defines it: the etas, the aligned
representatives, each station's m and b, and the placement.  It checks
them on construction and derives every schedule, the split included.
"""

import warnings
from itertools import accumulate

import numpy as np

from . import cubic
from .errors import (
    ContractError,
    DegenerateGeometryError,
    ExtrapolationError,
    NormalNeighborhoodError,
    _entry,
    check_stacks,
    named,
    refuse,
)
from .grassmann import (GrassmannPoint, _exp_raw, _log_raw, _transport_raw,
                        check_orthonormal)
from .linalg import mT, orthogonal_factor, rotation2, sym2_split
from .shapes import RANK_TOL, LandmarkShape, _standardize_raw, ends_meet
from .spd import _distance_raw as _spd_distance_raw
from .spd import _exp_raw as _spd_exp_raw
from .spd import _log_raw as _spd_log_raw
from .stats import MeanScale, _tangent

VARIANTS = ("gl2-schedule", "product-spd")
# Adjacent undulation distances below this are treated as a flat interval.
FLAT_INTERVAL = 1e-15


def procrustes_rotation(a, b, allow_reflection=True):
    """The orthogonal R minimizing ||a - b R||_F: the orthogonal polar
    factor of b^T a, restricted to SO(2) with allow_reflection=False.
    Broadcasts over leading axes of (..., n, 2) inputs.  A member whose
    b^T a overflows raises ContractError.
    """
    a, b = _entry(a, ("...", "n", 2), "a"), _entry(b, ("...", "n", 2), "b")
    check_stacks("a and b", a, b)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        m = mT(b) @ a
    # below 2**1022 the factor's sums and hypots cannot overflow
    refuse(~(np.abs(m).max(axis=(-2, -1)) < 2.0**1022), lambda _: ContractError(
        "Procrustes cross product overflows: entries are too large"))
    return orthogonal_factor(m, proper=not allow_reflection)


def cluster_representatives(reps, allow_reflection=True):
    """Sequentially align a chain of representatives by Procrustes.

    Returns (aligned, rotations) stacks, (N, n, 2) and (N, 2, 2).  The
    tip anchors the chain: station k-1 is aligned to the already-aligned
    station k for k = N..2.  rotations[k] is the total rotation applied
    to station k (identity at the tip).  Any other anchor differs by one
    global rotation, which the blade moves into its scales.
    """
    mats = _entry([getattr(r, "rep", r) for r in reps], ("N >= 1", "n", 2),
                  "the chain of representatives")
    chain = mats[::-1]
    # aligning to X Q gives R Q (Procrustes is equivariant), so the pairwise
    # rotations take one batched call and only their product is sequential
    pairs = procrustes_rotation(chain[:-1], chain[1:], allow_reflection)
    totals = accumulate(pairs, lambda q, r: r @ q, initial=np.eye(2))
    totals = np.stack(list(totals))[::-1]
    return mats @ totals, totals


def _spanwise_spline(etas, values):
    """Cubic spline of per-station values; natural ends with a
    not-a-knot fallback when only 2-3 stations exist."""
    with named("spanwise schedule"):
        return cubic.spline(etas, values,
                            "natural" if len(etas) >= 4 else "not-a-knot")


def _polar_split(m):
    """(P, angle) with m = P rotation2(angle): P = sym(m R^T) for R the
    rotation part of m, with eigenvalues |rot| +- |ref|."""
    r = orthogonal_factor(m, proper=True)
    p = m @ mT(r)
    return 0.5 * (p + mT(p)), np.arctan2(r[..., 0, 1], r[..., 0, 0])


class BladeModel:
    """A built blade: aligned representatives, per-station scale and offset,
    and placement; the schedules (and polar splits) are derived from them."""

    __slots__ = (
        "variant", "etas", "reps", "ts", "affine_m", "affine_b", "closed",
        "has_reflection", "span_length", "bend", "_phi", "_psi", "_gr_logs",
        "_spd_p", "_spd_logs", "_m_spline", "_b_spline", "_angle_spline",
        "_bend_curve", "ell",
    )

    def __init__(self, variant, etas, reps, affine_m, affine_b, closed=False,
                 has_reflection=False, span_length=1.0, bend=None):
        if variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}")
        etas = _entry(etas, ("N >= 2",), "station etas")
        if np.any(np.diff(etas) <= 0.0):
            raise ContractError("station etas must be strictly increasing")
        self.variant = variant
        self.etas = etas
        self.reps = _entry(reps, (etas.size, "n >= 3", 2), "representatives", finite=False)
        self.affine_m = _entry(affine_m, (etas.size, 2, 2), "station scales")
        self.affine_b = _entry(affine_b, (etas.size, 2), "station offsets")
        self.closed = bool(closed)
        self.has_reflection = bool(has_reflection)
        self.span_length = float(_entry(span_length, (), "span length"))
        self.bend = None if bend is None else _entry(bend, ("K", 4), "bend curve")
        if bend is not None and not (
                len(bend) >= 2 and np.all(np.diff(self.bend[:, 0]) > 0.0)):
            raise ContractError("a bend curve needs two or more knots at "
                                "strictly increasing etas")
        with np.errstate(over="ignore"):  # an overflow is refused below
            self._rebuild()

    @property
    def n_stations(self):
        return self.etas.size

    @property
    def n(self):
        return self.reps.shape[1]

    def _check(self, ok, make):
        """Raise make(i), named by its station, for the first station i
        where ``ok`` is False (as it is for NaN)."""
        with named(_station(self.etas)):
            refuse(~ok, make)

    def _rebuild(self):
        """Check the stations; derive schedules and per-interval caches."""
        reps = self.reps
        with named(_station(self.etas)):
            check_orthonormal(reps, "representative columns")
        self._gr_logs = _log_raw(reps[:-1], reps[1:])
        gaps = np.linalg.norm(self._gr_logs, axis=(-2, -1))
        self.ts = np.concatenate([[0.0], np.cumsum(gaps)])
        self._phi = cubic.pchip(self.etas, self.ts)
        self._m_spline = self._spd_p = self._spd_logs = None
        self._psi = self._angle_spline = self.ell = None
        if self.variant == "gl2-schedule":
            self._m_spline = _spanwise_spline(self.etas, self.affine_m)
        else:
            # clustering was restricted to SO(2), so a reflected m is one
            # the input asked for
            with np.errstate(invalid="ignore"):  # refused just below
                p, angles = _polar_split(self.affine_m)
            # below 2**1023 the split of p into mid I + h e cannot overflow
            self._check(np.abs(p).max(axis=(-2, -1)) < 2.0**1023,
                        lambda _: ContractError("scale factor is too large: its "
                                                "polar split overflows"))
            mid, h, _ = sym2_split(p)
            self._check(mid - h > RANK_TOL * (mid + h),
                        lambda _: DegenerateGeometryError(
                "scale factor is singular or contains a reflection; the "
                "product-spd schedule needs a positive determinant"))
            self._spd_p = p
            self._spd_logs = _spd_log_raw(p[:-1], p[1:])
            spd_gaps = _spd_distance_raw(p[:-1], p[1:])
            self.ell = np.concatenate([[0.0], np.cumsum(spd_gaps)])
            self._psi = cubic.pchip(self.etas, self.ell)
            self._angle_spline = _spanwise_spline(self.etas, np.unwrap(angles))
        self._b_spline = _spanwise_spline(self.etas, self.affine_b)
        self._bend_curve = None if self.bend is None else _spanwise_spline(
            self.bend[:, 0], self.bend[:, 1:4])

    def _interval(self, eta):
        """Interval index of each eta (an array); refuses any eta not
        inside the span, NaN included."""
        etas = self.etas
        inside = (eta >= etas[0]) & (eta <= etas[-1])
        refuse(~inside, lambda i: ExtrapolationError(
            f"eta={eta[i]:g} outside the blade span [{etas[0]:g}, {etas[-1]:g}]"))
        k = np.searchsorted(etas, eta, side="right") - 1
        return np.clip(k, 0, etas.size - 2)

    def _rep_at(self, eta, k):
        tt = _fraction(self._phi(eta), self.ts, k)
        return _exp_raw(self.reps[k], tt[..., None, None] * self._gr_logs[k])

    def _scale_at(self, eta, k):
        if self.variant == "gl2-schedule":
            return self._m_spline(eta)
        ss = _fraction(self._psi(eta), self.ell, k)
        p = _spd_exp_raw(self._spd_p[k], ss[..., None, None] * self._spd_logs[k])
        return p @ rotation2(self._angle_spline(eta))


def _station(etas):
    """named()'s prefix for station k of a blade with these etas."""
    return lambda k: f"station {k} (eta={etas[k]:g})"


def _fraction(value, knots, k):
    """Where value sits in [knots[k], knots[k + 1]], clipped to [0, 1];
    0 on an interval shorter than FLAT_INTERVAL."""
    width = knots[k + 1] - knots[k]
    flat = width < FLAT_INTERVAL
    frac = np.clip((value - knots[k]) / np.where(flat, 1.0, width), 0.0, 1.0)
    return np.where(flat, 0.0, frac)


def _sections(model, etas):
    """Cross-section landmarks at each of ``etas``: (len(etas), n, 2).
    The sections of a closed blade whose station representatives close
    (``ends_meet``) repeat their first landmark as their last."""
    etas = _entry(etas, ("N",), "etas", finite=False)  # the span refuses NaN
    k = model._interval(etas)
    m = model._scale_at(etas, k)
    out = model._rep_at(etas, k) @ m + model._b_spline(etas)[:, None, :]
    if model.closed and ends_meet(model.reps).all():
        out[:, -1] = out[:, 0]
    return out


def evaluate_blade(model, eta):
    """The cross-section at spanwise position eta (interpolation only)."""
    eta = _entry(eta, (), "eta", finite=False)  # the span refuses NaN
    return LandmarkShape(_sections(model, eta[None])[0], closed=model.closed)


def evaluate_representative(model, eta):
    """The undulation component alone at eta, before scale and offset."""
    etas = _entry(eta, (), "eta", finite=False)[None]  # the span refuses NaN
    return GrassmannPoint(model._rep_at(etas, model._interval(etas))[0])


def build_blade(stations, variant="gl2-schedule", span_length=1.0, bend=None,
                affine_overrides=None):
    """Assemble a BladeModel from (eta, LandmarkShape) stations.

    Shapes must share a landmark count (preprocess first if they do not).
    ``affine_overrides``, when given, replaces the standardized scale and
    offset of every station with explicit (m, b) pairs -- the usual way
    a design defines chord, twist and stacking along the span.
    """
    etas = _entry([e for e, _ in stations], ("N >= 2",), "station etas")
    shapes = [s for _, s in stations]
    ns = {s.n for s in shapes}
    if len(ns) != 1:
        raise ContractError(
            f"stations must share a landmark count, got {sorted(ns)}; "
            "preprocess the sections to a common n first"
        )
    closed = shapes[0].closed
    refuse(np.array([s.closed != closed for s in shapes]), lambda i: ContractError(
        f"station {i[0]} (eta={etas[i]:g}) is {'open' if closed else 'closed'} "
        f"but station 0 is not; stations must be all open or all closed"))
    std_variant = "gl2" if variant == "gl2-schedule" else "polar"
    with named(_station(etas)):
        reps, ms, bs = _standardize_raw(np.stack([s.x for s in shapes]),
                                        std_variant)
    if affine_overrides is not None:
        if len(affine_overrides) != len(stations):
            raise ContractError("need one affine override per station")
        ms, bs = zip(*affine_overrides)
    return _assemble(variant, etas, reps, ms, bs, closed, span_length, bend)


def _assemble(variant, etas, reps, ms, bs, closed, span_length=1.0, bend=None):
    aligned, rotations = cluster_representatives(
        reps, allow_reflection=variant == "gl2-schedule")
    # the rotation moved into the representative comes out of the scale:
    # (X R)(R^T m) reproduces X m
    ms = mT(rotations) @ _entry(ms, (len(etas), 2, 2), "station scales")
    return BladeModel(
        variant, etas, aligned, ms, bs, closed=closed,
        has_reflection=bool(np.any(np.linalg.det(rotations) < 0.0)),
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
    that constant matrix (gl2-schedule blades only).  Coefficients past
    the training radius ``pga.domain.radius`` warn, for every model.
    """
    if pga.kind != "grassmann":
        raise ContractError(
            "consistent deformation needs a Grassmann PGA model"
        )
    coeffs = _entry(coeffs, (pga.r,), f"coefficient vector of length r={pga.r}")
    delta = _tangent(pga, coeffs)[0]["grassmann"]
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
        model.closed, model.span_length, model.bend,
    )
