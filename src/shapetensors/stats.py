"""Riemannian statistics over the shape manifolds.

The Karcher mean is the fixed point of p <- Exp_p(mean_k Log_p(p_k)),
iterated until the mean tangent drops below epsilon in Frobenius norm.
The iteration starts near the mean without a log sweep: a Grassmann
factor at one subspace-iteration step of sum_k X_k X_k^T from the first
sample (towards the chordal mean, the dominant 2-plane of that sum), an
SPD factor at the log-Euclidean mean.  A step that does not reduce the
gradient norm is halved, and a bounded number of halvings ends the
iteration with an error.  Principal geodesic analysis then works in
the tangent space at the mean: the logs are vectorized isometrically
(Grassmann lifts stack their columns; SPD tangents keep their three
unique entries with the off-diagonal weighted by sqrt(2)), scaled by
1/sqrt(N-1), and only the r leading singular pairs are formed: the top-r
eigenvectors of the smaller Gram matrix (width x width or N x N) seed a
range basis through the data, and a Rayleigh-Ritz step (the SVD of the
r x N projected data) finishes it, so the basis stays in the span of the
logs (horizontal, for Grassmann) as a full thin SVD's does.  Squared
singular values are the per-direction variances; the stored per-sample
coordinates are the unscaled projections t_k = U_r^T vec(Log_mean(p_k)),
so embedding a training point returns its row of ``coords`` and
generating from that row returns the point.

All decompositions use the deterministic SVD sign convention, making a
fit a pure function of its input bytes.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import ContractError, ConvergenceError, DegenerateGeometryError
from .grassmann import GrassmannPoint
from .grassmann import _exp_raw as _gr_exp_raw
from .grassmann import _log_raw as _log_many
from .linalg import mT, polar_orthonormalize, sv2, sym2_exp, sym2_log, thin_svd
from .product import ProductPoint
from .shapes import AffineFactor
from .spd import SpdMatrix
from .spd import _exp_raw as _spd_exp_raw
from .spd import _log_raw as _spd_log_raw

KARCHER_MAX_ITER = 200
KARCHER_EPSILON = 1e-8
# Consecutive halvings of one Karcher step before the iteration is
# declared stalled.
KARCHER_MAX_HALVINGS = 10
# Points per block of the chordal start, which bounds its (block, n, 2)
# temporary.
START_BLOCK = 128
# Largest singular value of the scaled data matrix below which the
# ensemble is treated as having no variance at all.
ZERO_VARIANCE_TOL = 1e-13

_SQRT2 = np.sqrt(2.0)


def _chordal_start(reps):
    """One subspace-iteration step of sum_k X_k X_k^T from X_0: the span
    of sum_k X_k (X_k^T X_0), near the chordal mean (the top-2 eigenspace
    of that sum), taken block by block with matmul."""
    x0 = reps[0]
    m = np.zeros_like(x0)
    for i in range(0, len(reps), START_BLOCK):
        block = reps[i:i + START_BLOCK]
        m += (block @ (mT(block) @ x0)).sum(axis=0)
    # the k = 0 term alone makes X_0^T m >= I, so m has full rank
    return polar_orthonormalize(m / len(reps))


# Batched maps of one manifold factor on raw arrays.  log(base, stack)
# and exp(base, tangent) broadcast over leading axes; vec flattens
# (..., tangent) to (..., width) isometrically and unvec inverts it for one
# vector; dim(base) is the intrinsic dimension; start(stack) is the point
# the Karcher iteration starts from.
_Component = namedtuple("_Component", "log exp vec unvec dim start")

# The logs look their kernels up at call time, so a wrapper installed on
# this module's ``_log_many`` or ``_spd_log_raw`` sees every sweep.
_COMPONENTS = {
    # Grassmann lifts stack their columns: (..., n, 2) -> (..., 2n)
    "grassmann": _Component(
        log=lambda x, ys: _log_many(x, ys),
        exp=_gr_exp_raw,
        vec=lambda d: mT(d).reshape(d.shape[:-2] + (-1,)),
        unvec=lambda v: v.reshape(2, -1).T,
        dim=lambda x: 2 * (x.shape[-2] - 2),
        start=_chordal_start,
    ),
    # SPD tangents keep their three unique entries, off-diagonal * sqrt(2)
    "spd": _Component(
        log=lambda p, ds: _spd_log_raw(p, ds),
        exp=_spd_exp_raw,
        vec=lambda s: np.stack(
            [s[..., 0, 0], _SQRT2 * s[..., 0, 1], s[..., 1, 1]], axis=-1
        ),
        unvec=lambda v: np.array([[v[0], v[1] / _SQRT2], [v[1] / _SQRT2, v[2]]]),
        dim=lambda p: 3,
        # the log-Euclidean mean
        start=lambda ps: sym2_exp(sym2_log(ps).mean(axis=0)),
    ),
}

# The components of each manifold kind, in vector and file order.
KINDS = {"grassmann": ("grassmann",), "spd": ("spd",),
         "product": ("grassmann", "spd")}


def _arrays(point):
    """{component: raw array} of one manifold point; a product point is
    its Grassmann part plus its SPD part."""
    if isinstance(point, GrassmannPoint):
        return {"grassmann": point.rep}
    if isinstance(point, SpdMatrix):
        return {"spd": point.mat}
    if isinstance(point, ProductPoint):
        return {"grassmann": point.grass.rep, "spd": point.scale.mat}
    raise ContractError(f"unsupported manifold point type {type(point).__name__}")


def _point(arrays):
    """The manifold point made of these component arrays."""
    grass, spd = arrays.get("grassmann"), arrays.get("spd")
    if spd is None:
        return GrassmannPoint(grass)
    if grass is None:
        return SpdMatrix(spd)
    return ProductPoint(grass, spd)


def _stacks(points):
    """{component: (N, ...) stack} of a list of points."""
    parts = [_arrays(pt) for pt in points]
    if any(part.keys() != parts[0].keys() for part in parts):
        raise ContractError("points must all lie on the same kind of manifold")
    stacks = {}
    for c in parts[0]:
        arrays = [part[c] for part in parts]
        if len({a.shape for a in arrays}) != 1:
            raise ContractError("all Grassmann points must share the same n")
        stacks[c] = np.stack(arrays)
    return stacks


def _dim(point):
    return sum(_COMPONENTS[c].dim(a) for c, a in _arrays(point).items())


def _karcher(points, epsilon, max_iter):
    """Karcher mean of a list of points and the logs taken at it.

    Returns (mean, logs) with logs {component: (N, ...) tangents at the
    mean}: the sweep that certified convergence, ready for PGA.
    """
    if not points:
        raise ContractError("karcher_mean needs at least one point")
    if not 0.0 < epsilon < math.inf:
        raise ContractError(f"epsilon must be finite and positive, got {epsilon}")
    stacks = _stacks(points)
    if len(points) == 1:
        mean, base = points[0], {c: a[0] for c, a in stacks.items()}
    else:
        base = {c: _COMPONENTS[c].start(a) for c, a in stacks.items()}
        mean = _point(base)
    trajectory, accepted, halvings = [], math.inf, 0
    for _ in range(max_iter):
        logs = {c: _COMPONENTS[c].log(base[c], stacks[c]) for c in stacks}
        grad = {c: l.mean(axis=0) for c, l in logs.items()}
        gnorm = math.hypot(*(np.linalg.norm(v) for v in grad.values()))
        trajectory.append(gnorm)
        if gnorm < epsilon:
            return mean, logs
        del logs
        if gnorm < accepted:
            accepted, prev, step, halvings = gnorm, base, grad, 0
        else:
            # the step did not reduce the gradient: go back, take half of it
            halvings += 1
            if halvings > KARCHER_MAX_HALVINGS:
                raise ConvergenceError(
                    f"Karcher mean stalled: the step and {KARCHER_MAX_HALVINGS} "
                    f"halvings of it did not reduce the gradient norm "
                    f"{accepted:.3e}",
                    gradient_norm=gnorm, trajectory=trajectory,
                )
            step = {c: 0.5 * v for c, v in step.items()}
        base = {c: _COMPONENTS[c].exp(prev[c], step[c]) for c in stacks}
        mean = _point(base)
    raise ConvergenceError(
        f"Karcher mean did not converge in {max_iter} iterations "
        f"(last gradient norm {gnorm:.3e})",
        gradient_norm=gnorm, trajectory=trajectory,
    )


def karcher_mean(points, epsilon=KARCHER_EPSILON, max_iter=KARCHER_MAX_ITER):
    """Iterative Karcher (Frechet) mean of a list of manifold points.

    Starts near the mean without a log sweep: a Grassmann factor at one
    subspace-iteration step of sum_k X_k X_k^T from points[0] (towards
    the chordal mean, the dominant 2-plane of that sum), an SPD factor at
    the log-Euclidean mean.  Each sweep averages the logarithms at the
    current iterate and follows the mean tangent; a step that does not
    reduce the gradient norm is retried at half its length from the
    previous iterate.  Returns the first iterate whose mean tangent has
    Frobenius norm below epsilon, so the fixed-point residual of the
    result is certified < epsilon; a single point is returned as it is.
    Raises ConvergenceError, carrying the last gradient norm and the
    trajectory of all of them, if max_iter sweeps do not get there or
    KARCHER_MAX_HALVINGS halvings in a row do not reduce the norm.
    """
    return _karcher(points, epsilon, max_iter)[0]


class PgaModel:
    """Principal geodesic analysis of an ensemble around its Karcher mean."""

    __slots__ = (
        "mean",
        "basis",
        "eigenvalues",
        "coords",
        "epsilon",
        "mean_scale",
        "domain",
    )

    def __init__(self, mean, basis, eigenvalues, coords, epsilon,
                 mean_scale=None):
        self.mean = mean
        self.basis = np.asarray(basis, dtype=float)
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.coords = np.asarray(coords, dtype=float)
        self.epsilon = float(epsilon)
        self.mean_scale = mean_scale
        self.domain = sample_domain(self)

    @property
    def kind(self):
        return next(k for k, c in KINDS.items() if c == tuple(_arrays(self.mean)))

    @property
    def r(self):
        return self.basis.shape[1]

    @property
    def n_samples(self):
        return self.coords.shape[0]

    def __repr__(self):
        return (
            f"PgaModel(kind={self.kind!r}, r={self.r}, N={self.n_samples})"
        )


class MeanScale:
    """The entrywise average of an ensemble's 2x2 gl2 scale factors."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ContractError("mean scale must be 2x2")
        self.m = m


class SampleDomain:
    """Per-axis bounding box and enclosing origin-centered ball of the
    training coordinates."""

    __slots__ = ("lo", "hi", "radius")

    def __init__(self, lo, hi, radius):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.radius = float(radius)


def pga_fit(points, r, epsilon=KARCHER_EPSILON):
    """Fit a PgaModel of rank r to an ensemble of manifold points.

    The basis columns are unit tangent directions at the mean (in
    vectorized form), eigenvalues are the sample variances captured per
    direction, and coords[k] are the normal coordinates of sample k.
    """
    if len(points) < 2:
        raise ContractError("PGA needs at least two points")
    n = len(points)
    limit = min(n - 1, _dim(points[0]))
    if int(r) != r or not 1 <= r <= limit:
        raise ContractError(
            f"rank r={r} must be an integer in [1, {limit}] "
            f"(N-1 and the manifold dimension both cap it)"
        )
    mean, logs = _karcher(points, epsilon, KARCHER_MAX_ITER)
    # each raw stack is dropped as soon as it is vectorized
    parts = [_COMPONENTS[c].vec(logs.pop(c)) for c in list(logs)]
    data = parts[0] if len(parts) == 1 else np.hstack(parts)
    del parts
    scaled = data.T / np.sqrt(n - 1.0)  # columns are samples
    basis, s, _ = thin_svd(scaled, r)
    if s[0] <= ZERO_VARIANCE_TOL:
        raise DegenerateGeometryError(
            "ensemble has zero variance: all points coincide with the mean"
        )
    eigenvalues = s**2
    coords = data @ basis
    return PgaModel(mean, basis, eigenvalues, coords, epsilon)


def embed(model, point):
    """Normal coordinates of a point in the model's tangent frame."""
    base = _arrays(model.mean)
    target = _arrays(point)
    if {c: a.shape for c, a in target.items()} != {c: a.shape for c, a in base.items()}:
        raise ContractError(f"{point!r} does not lie on the manifold of the "
                            f"model, whose mean is {model.mean!r}")
    v = np.concatenate([
        _COMPONENTS[c].vec(_COMPONENTS[c].log(base[c], target[c]))
        for c in base
    ])
    return model.basis.T @ v


def _tangent(model, coeffs):
    """({component: tangent at the mean}, its Exp at the mean) of a PGA
    coefficient vector, which must hold r finite values small enough that
    the Exp is a point of the manifold."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (model.r,):
        raise ContractError(
            f"coefficient vector must have length r={model.r}, got {coeffs.shape}"
        )
    if not np.all(np.isfinite(coeffs)):
        raise ContractError(f"coefficient vector has non-finite entries: {coeffs}")
    base = _arrays(model.mean)
    sizes = [_COMPONENTS[c].vec(x).size for c, x in base.items()]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        parts = np.split(model.basis @ coeffs, np.cumsum(sizes)[:-1])
        tangent = {c: _COMPONENTS[c].unvec(v) for c, v in zip(base, parts)}
        end = {c: _COMPONENTS[c].exp(base[c], t) for c, t in tangent.items()}
    try:
        return tangent, _point(end)
    except ContractError as err:
        raise ContractError(f"coefficient vector is too large: {err}") from err


def generate(model, coeffs):
    """Map normal coordinates back to a manifold point via Exp at the mean."""
    return _tangent(model, coeffs)[1]


def mean_scale(factors):
    """The entrywise average of the 2x2 gl2 scale factors of an ensemble
    (AffineFactors, 2x2 matrices, or an (N, 2, 2) stack).

    Refuses a non-finite factor and an average that is singular.  The
    average and its singularity test are formed on a copy scaled by a
    power of two, which is exact and cannot overflow.
    """
    if len(factors) == 0:
        raise ContractError("mean_scale needs at least one factor")
    mats = np.array([f.m if isinstance(f, AffineFactor) else f for f in factors],
                    dtype=float)
    big = np.abs(mats).max()
    if not np.isfinite(big):
        raise ContractError("a scale factor has non-finite entries")
    e = np.frexp(big)[1]
    avg = np.mean(np.ldexp(mats, -e), axis=0)
    s = sv2(avg)  # s[1] = |det| / s[0], and 0 for a zero average
    if s[1] <= 1e-12 * s[0]:
        raise DegenerateGeometryError("the entrywise average scale is singular")
    return MeanScale(np.ldexp(avg, e))


def sample_domain(model):
    """Bounding box and enclosing centered ball of the training coords."""
    coords = model.coords
    with np.errstate(over="ignore"):
        radius = float(np.linalg.norm(coords, axis=1).max())
    return SampleDomain(coords.min(axis=0), coords.max(axis=0), radius)
