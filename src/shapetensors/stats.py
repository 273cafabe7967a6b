"""Riemannian statistics over the shape manifolds.

An ensemble is one stacked point: a GrassmannPoint, SpdMatrix or
ProductPoint whose members lie along one leading axis, checked when it
was built.  A list of points is accepted too: the sweeps copy each
block of its members into one reused buffer, and only a refusal (to
name every member refused) and the log-Euclidean start of an SPD factor
(N 2x2 matrices) stack it whole.
The Karcher mean is the fixed point of p <- Exp_p(mean_k Log_p(p_k)),
iterated until the mean tangent drops below epsilon in Frobenius norm.
The iteration starts near the mean without a log sweep: a Grassmann
factor at one subspace-iteration step of sum_k X_k X_k^T from the first
sample (towards the chordal mean, the dominant 2-plane of that sum), an
SPD factor at the log-Euclidean mean.  A step that does not reduce the
gradient norm is halved, and a bounded number of halvings ends the
iteration with an error.  Each sweep takes the logs BLOCK members at a
time and keeps only their sum.  Principal geodesic analysis then works
in the tangent space at the mean: the logs are vectorized isometrically
(Grassmann lifts stack their columns; SPD tangents keep their three
unique entries with the off-diagonal weighted by sqrt(2)) into one
(N, width) data matrix, which a fit's sweeps write block by block, so
the sweep that certifies the mean leaves it in place.  Only the r
leading singular pairs of its transpose, a view with no copy, are formed
(``linalg.thin_svd``), and the singular values are divided by sqrt(N-1)
afterwards.  A fixed-seed block Krylov probe of 3 (r + 4) columns gives
a range basis, and a Rayleigh-Ritz step (the SVD of the
projected data) finishes it, kept when its residual and spectral gap
certify it; otherwise the top-r eigenvectors of the smaller Gram matrix
(width x width or N x N) seed the basis instead.  Either way the basis
stays in the span of the logs (horizontal, for Grassmann) as a full thin
SVD's does.  Squared singular values are the per-direction variances;
the stored per-sample coordinates are the unscaled projections
t_k = U_r^T vec(Log_mean(p_k)), so embedding a training point returns
its row of ``coords`` and generating from that row returns the point.
They are read off the Ritz triplets, with no pass over the data: the
Rayleigh-Ritz step makes a^T u = v s, so coords = V_r S_r equals
U_r^T vec(Log) to rounding.  The decomposition runs under one BLAS
thread (``linalg.one_blas_thread``), so its bits do not depend on the
thread count.
``generate`` maps an (S, r) matrix of coordinates to a stacked point of
S through one Exp.

All decompositions use the deterministic SVD sign convention, making a
fit a pure function of its input bytes.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import (ContractError, ConvergenceError, DegenerateGeometryError,
                     ShapeTensorError, _entry)
from .grassmann import GrassmannPoint
from .grassmann import _exp_raw as _gr_exp_raw
from .grassmann import _log_raw as _log_many
from .linalg import (mT, one_blas_thread, polar_orthonormalize, sv2, sym2_exp,
                     sym2_log, thin_svd)
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
# Members per block of the chordal start and of each log sweep, which
# bounds their (block, n, 2) temporaries.
BLOCK = 128
# Largest singular value of the scaled data matrix below which the
# ensemble is treated as having no variance at all.
ZERO_VARIANCE_TOL = 1e-13

_SQRT2 = np.sqrt(2.0)
_SPD_WEIGHTS = np.array([[1.0, _SQRT2], [_SQRT2, 1.0]])


def _chordal_start(reps):
    """One subspace-iteration step of sum_k X_k X_k^T from X_0: the span
    of sum_k X_k (X_k^T X_0), near the chordal mean (the top-2 eigenspace
    of that sum), taken block by block with matmul."""
    # a copy, so that no block shares memory with X_0: matmul can round
    # an operand that overlaps the other differently, and a stacked
    # point and its list of members then part in their last bits
    x0 = reps[0].copy()
    m = np.zeros_like(x0)
    for i in range(0, len(reps), BLOCK):
        block = reps[i:i + BLOCK]
        m += (block @ (mT(block) @ x0)).sum(axis=0)
    # the k = 0 term alone makes X_0^T m >= I, so m has full rank
    return polar_orthonormalize(m / len(reps))


# Batched maps of one manifold factor on raw arrays.  log(base, stack)
# and exp(base, tangent) broadcast over leading axes; vec flattens
# (..., tangent) to (..., width) isometrically and unvec inverts it;
# dim(base) is the intrinsic dimension; start(stack) is the point the
# Karcher iteration starts from.
_Component = namedtuple("_Component", "log exp vec unvec dim start")

# The logs look their kernels up at call time, so a wrapper installed on
# this module's ``_log_many`` or ``_spd_log_raw`` sees every sweep.
_COMPONENTS = {
    # Grassmann lifts stack their columns: (..., n, 2) -> (..., 2n)
    "grassmann": _Component(
        log=lambda x, ys: _log_many(x, ys),
        exp=_gr_exp_raw,
        vec=lambda d: mT(d).reshape(d.shape[:-2] + (2 * d.shape[-2],)),
        unvec=lambda v: mT(v.reshape(v.shape[:-1] + (2, v.shape[-1] // 2))),
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
        unvec=lambda v: np.stack([v[..., :2], v[..., 1:]], axis=-2) / _SPD_WEIGHTS,
        dim=lambda p: 3,
        # the log-Euclidean mean
        start=lambda ps: sym2_exp(sym2_log(np.asarray(ps)).mean(axis=0)),
    ),
}

# The components of each manifold kind, in vector and file order.
KINDS = {"grassmann": ("grassmann",), "spd": ("spd",),
         "product": ("grassmann", "spd")}


def _arrays(point):
    """{component: raw array} of a manifold point or a stacked point; a
    product point is its Grassmann part plus its SPD part."""
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


class _Listed:
    """One component of a list of points read as a stack, BLOCK members
    at a time: a slice copies its members into one reused buffer and
    returns it as their (m, ...) stack, valid until the next slice; an
    index returns the member's own array and ``np.asarray`` the whole
    stack."""

    def __init__(self, arrays):
        self.arrays = arrays
        self.ndim = arrays[0].ndim + 1
        self._buf = np.empty(0)

    def __len__(self):
        return len(self.arrays)

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return self.arrays[key]
        members = self.arrays[key]
        shape = members[0].shape
        size = len(members) * shape[0]
        if len(self._buf) < size:
            self._buf = np.empty((size,) + shape[1:])
        return np.concatenate(members, out=self._buf[:size]).reshape(
            (len(members),) + shape)

    def __array__(self, dtype=None, copy=None):
        return np.stack(self.arrays)


def _members(points):
    """{component: (N, ...) stack} of a point stacked along one leading
    axis, or of a list of single points, each component read through a
    ``_Listed``: each point was checked when it was built."""
    if isinstance(points, list):
        parts = [_arrays(pt) for pt in points]
        if any(part.keys() != parts[0].keys() for part in parts):
            raise ContractError("points must all lie on the same kind of manifold")
        stacks = {}
        for c in parts[0] if parts else ():
            arrays = [part[c] for part in parts]
            if len({a.shape for a in arrays}) != 1:
                raise ContractError("all Grassmann points must share the same n")
            stacks[c] = _Listed(arrays)
    else:
        stacks = _arrays(points)
    if any(a.ndim != 3 for a in stacks.values()):
        raise ContractError("points must be stacked along one leading axis "
                            "or listed one by one")
    return stacks


def _sweep(base, stacks, data=None):
    """{component: mean of the logs at ``base`` of the ``_members``
    stacks}, taken and summed BLOCK members at a time, each block used
    before the next is read; each block's vectorized logs go into its
    rows of ``data`` when it is given.  A refusal names members as one
    log over the whole stack does."""
    n = len(next(iter(stacks.values())))
    total = {c: np.zeros_like(b) for c, b in base.items()}
    for i in range(0, n, BLOCK):
        col = 0
        for c, a in stacks.items():
            try:
                logs = _COMPONENTS[c].log(base[c], a[i:i + BLOCK])
            except ShapeTensorError:
                # the logs of the whole stacks raise the same refusal with
                # every refused member's index in the stack
                for c2, a2 in stacks.items():
                    _COMPONENTS[c2].log(base[c2], np.asarray(a2))
                raise
            total[c] += logs.sum(axis=0)
            if data is not None:
                v = _COMPONENTS[c].vec(logs)
                data[i:i + BLOCK, col:col + v.shape[-1]] = v
                col += v.shape[-1]
    return {c: t / n for c, t in total.items()}


def _karcher(points, stacks, epsilon, max_iter, data=None):
    """Karcher mean of N points, given with their ``_members`` stacks.
    With ``data``, an (N, width) matrix, each sweep (``_sweep``) writes
    its vectorized logs into it, so it ends holding those of the sweep
    that certified convergence, ready for PGA."""
    if not len(points):
        raise ContractError("karcher_mean needs at least one point")
    if not 0.0 < epsilon < math.inf:
        raise ContractError(f"epsilon must be finite and positive, got {epsilon}")
    if len(points) == 1:
        mean, base = points[0], {c: a[0] for c, a in stacks.items()}
    else:
        base = {c: _COMPONENTS[c].start(a) for c, a in stacks.items()}
        mean = _point(base)
    trajectory, accepted, halvings = [], math.inf, 0
    for _ in range(max_iter):
        grad = _sweep(base, stacks, data)
        gnorm = math.hypot(*(np.linalg.norm(v) for v in grad.values()))
        trajectory.append(gnorm)
        if gnorm < epsilon:
            return mean
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
    """Iterative Karcher (Frechet) mean of a stacked point: its members
    along one leading axis.  A list of points is read a block at a time.

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
    return _karcher(points, _members(points), epsilon, max_iter)


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
        self.basis = _entry(basis, ("width", "r >= 1"), "PGA basis")
        self.eigenvalues = _entry(eigenvalues, (self.r,), "PGA eigenvalues")
        self.coords = _entry(coords, ("N", self.r), "PGA coordinates")
        self.epsilon = float(_entry(epsilon, (), "epsilon"))
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
        self.m = _entry(m, (2, 2), "mean scale")


class SampleDomain:
    """Per-axis bounding box and enclosing origin-centered ball of the
    training coordinates."""

    __slots__ = ("lo", "hi", "radius")

    def __init__(self, lo, hi, radius):
        self.lo = _entry(lo, ("r",), "lower corner")
        self.hi = _entry(hi, self.lo.shape, "upper corner")
        # an overflowing norm of finite coordinates reads inf
        self.radius = float(_entry(radius, (), "sampling radius", finite=False))


def pga_fit(points, r, epsilon=KARCHER_EPSILON):
    """Fit a PgaModel of rank r to an ensemble: a stacked point, or a
    list of points, which is read a block at a time.

    The basis columns are unit tangent directions at the mean (in
    vectorized form), eigenvalues are the sample variances captured per
    direction, and coords[k] are the normal coordinates of sample k.
    """
    stacks = _members(points)
    n = len(points)
    if n < 2:
        raise ContractError("PGA needs at least two points")
    limit = min(n - 1, sum(_COMPONENTS[c].dim(a[0]) for c, a in stacks.items()))
    if int(r) != r or not 1 <= r <= limit:
        raise ContractError(
            f"rank r={r} must be an integer in [1, {limit}] "
            f"(N-1 and the manifold dimension both cap it)"
        )
    data = np.empty((n, sum(_COMPONENTS[c].vec(a[0]).size for c, a in stacks.items())))
    mean = _karcher(points, stacks, epsilon, KARCHER_MAX_ITER, data)
    del stacks  # a list's block buffers are not held through the decomposition
    with one_blas_thread():  # bits that do not depend on the thread count
        basis, s, vt = thin_svd(data.T, r)  # columns are samples; a view, no copy
    coords = mT(vt) * s  # data @ basis, which the Ritz step makes v s
    s = s / np.sqrt(n - 1.0)
    if s[0] <= ZERO_VARIANCE_TOL:
        raise DegenerateGeometryError(
            "ensemble has zero variance: all points coincide with the mean"
        )
    return PgaModel(mean, basis, s**2, coords, epsilon)


def embed(model, point):
    """Normal coordinates of a point in the model's tangent frame: r
    values for a single point, an (N, r) matrix of rows for a stack of N."""
    base = _arrays(model.mean)
    target = _arrays(point)
    if {c: a.shape[-2:] for c, a in target.items()} != {c: a.shape for c, a in base.items()}:
        raise ContractError(f"{point!r} does not lie on the manifold of the "
                            f"model, whose mean is {model.mean!r}")
    v = np.concatenate([
        _COMPONENTS[c].vec(_COMPONENTS[c].log(base[c], target[c]))
        for c in base
    ], axis=-1)
    # a matrix-vector product per row keeps each row's bits
    return (model.basis.T @ v[..., None])[..., 0]


def _tangent(model, coeffs):
    """({component: tangent at the mean}, its Exp at the mean) of PGA
    coefficients: one vector of r values, or an (..., r) stack of them
    that gives stacked tangents and one stacked point.  Each vector must
    hold finite values small enough that its Exp is a point of the
    manifold; the error's ``index`` names the first vector refused."""
    coeffs = _entry(coeffs, ("...", model.r), f"coefficient vector of length r={model.r}")
    base = _arrays(model.mean)
    sizes = [_COMPONENTS[c].vec(x).size for c, x in base.items()]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        # a matrix-vector product per row keeps each row's bits
        vecs = (model.basis @ coeffs[..., None])[..., 0]
        parts = np.split(vecs, np.cumsum(sizes)[:-1], axis=-1)
        tangent = {c: _COMPONENTS[c].unvec(v) for c, v in zip(base, parts)}
        end = {c: _COMPONENTS[c].exp(base[c], t) for c, t in tangent.items()}
    try:
        return tangent, _point(end)
    except ContractError as err:
        too_large = ContractError(f"coefficient vector is too large: {err}")
        too_large.index = err.index
        raise too_large from err


def generate(model, coeffs):
    """Map normal coordinates back to the manifold via Exp at the mean:
    one point for a vector of r coefficients, a stacked point of S for an
    (S, r) matrix, and of shape L for an (L..., r) stack."""
    return _tangent(model, coeffs)[1]


def mean_scale(factors):
    """The entrywise average of the 2x2 gl2 scale factors of an ensemble
    (AffineFactors, 2x2 matrices, or an (N, 2, 2) stack).

    Refuses a non-finite factor and an average that is singular.  The
    average and its singularity test are formed on a copy scaled by a
    power of two, which is exact and cannot overflow.
    """
    try:
        mats = [f.m if isinstance(f, AffineFactor) else f for f in factors]
    except TypeError:  # not iterable
        raise ContractError(f"the scale factors must be a stack or a sequence, "
                            f"got {type(factors).__name__}") from None
    mats = _entry(mats, ("N >= 1", 2, 2), "the stack of scale factors")
    e = np.frexp(np.abs(mats).max())[1]
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
