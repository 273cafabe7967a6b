"""Geometry of the Grassmannian G(n, 2) of 2-planes in R^n.

Points are stored through Stiefel representatives: (n, 2) matrices with
orthonormal columns, two representatives being equivalent when they differ
by a right 2x2 orthogonal factor.  Tangent vectors at a representative X
are horizontal lifts, i.e. (n, 2) matrices D with X.T @ D = 0.

The exponential, logarithm and parallel transport are the standard SVD
identities for geodesics of the quotient metric:

    Exp_X(D)  = X V cos(S) V.T + U sin(S) V.T,          D = U S V.T
    Log_X(Y)  = U arctan(S) V.T,  U S V.T = (I - X X.T) Y (X.T Y)^(-1)
    tau(G)    = (-X V sin(tS) + U cos(tS)) U.T G + (I - U U.T) G

with all trigonometric functions acting on the diagonal.  Distances come
from the principal angles theta_i = arccos sigma_i(X.T Y).

The raw-array kernels broadcast over leading axes: one pair, one base
against an (N, n, 2) stack, and a stack against a stack all go through
the same code.
"""

import numpy as np

from .errors import ContractError, NormalNeighborhoodError
from .linalg import inv2, mT, polar_orthonormalize

# Orthonormality drift allowed in a representative.
ORTHO_TOL = 1e-12
# Horizontality drift allowed in a tangent lift.
HORIZONTAL_TOL = 1e-10
# Condition-number ceiling on X.T Y beyond which Log is refused.
NEIGHBORHOOD_COND_MAX = 1e12


class GrassmannPoint:
    """A 2-plane in R^n held as an orthonormal (n, 2) representative."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        rep = np.asarray(rep, dtype=float)
        if rep.ndim != 2 or rep.shape[1] != 2 or rep.shape[0] < 3:
            raise ContractError(
                "Grassmann representative must be (n, 2) with n >= 3, got "
                f"shape {rep.shape}"
            )
        if not np.all(np.isfinite(rep)):
            raise ContractError("Grassmann representative has non-finite entries")
        gram = rep.T @ rep
        drift = np.linalg.norm(gram - np.eye(2))
        if drift > ORTHO_TOL:
            raise ContractError(
                f"columns are not orthonormal: ||X.T X - I||_F = {drift:.3e} "
                f"exceeds {ORTHO_TOL:.0e}"
            )
        self.rep = rep

    @property
    def n(self):
        return self.rep.shape[0]

    def __repr__(self):
        return f"GrassmannPoint(n={self.n})"


class GrassmannTangent:
    """Horizontal lift of a tangent vector at ``base``."""

    __slots__ = ("delta", "base")

    def __init__(self, delta, base):
        delta = np.asarray(delta, dtype=float)
        if not isinstance(base, GrassmannPoint):
            raise ContractError("tangent base must be a GrassmannPoint")
        if delta.shape != base.rep.shape:
            raise ContractError(
                f"tangent shape {delta.shape} does not match base {base.rep.shape}"
            )
        if not np.all(np.isfinite(delta)):
            raise ContractError("tangent has non-finite entries")
        drift = np.linalg.norm(base.rep.T @ delta)
        if drift > HORIZONTAL_TOL:
            raise ContractError(
                f"tangent is not horizontal at base: ||X.T D||_F = {drift:.3e} "
                f"exceeds {HORIZONTAL_TOL:.0e}"
            )
        self.delta = delta
        self.base = base

    def norm(self):
        return float(np.linalg.norm(self.delta))

    def __repr__(self):
        return f"GrassmannTangent(n={self.base.n}, norm={self.norm():.3e})"


def _exp_raw(x, d):
    """Exp on raw (..., n, 2) arrays; returns representatives."""
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    y = (x @ mT(vt)) @ (np.cos(s)[..., None] * vt) + u @ (np.sin(s)[..., None] * vt)
    # one polar step scrubs the O(eps) loss of orthonormality
    return polar_orthonormalize(y)


def gr_exp(base, delta):
    """Geodesic exponential: follow the geodesic with velocity delta for
    unit time.  Zero tangents return the base point itself."""
    if delta.base is not base and not np.array_equal(delta.base.rep, base.rep):
        raise ContractError("tangent is attached to a different base point")
    return GrassmannPoint(_exp_raw(base.rep, delta.delta))


def _log_raw(x, y):
    """Log on raw (..., n, 2) arrays; returns the horizontal tangents.

    Raises NormalNeighborhoodError if any target is outside the normal
    neighborhood of its base; the error's ``index`` is the position of the
    first such target in the stack (``()`` for a single pair).
    """
    q = mT(x) @ y
    sv = np.linalg.svd(q, compute_uv=False)
    outside = sv[..., 1] <= sv[..., 0] / NEIGHBORHOOD_COND_MAX
    if np.any(outside):
        index = tuple(int(i) for i in np.argwhere(outside)[0])
        where = f"point {', '.join(map(str, index))}" if index else "target subspace"
        err = NormalNeighborhoodError(
            f"{where} lies outside the normal neighborhood of the base (a "
            "principal angle is at or near pi/2); Log is undefined"
        )
        err.index = index
        raise err
    w = y @ inv2(q)
    w -= x @ (mT(x) @ w)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return u @ (np.arctan(s)[..., None] * vt)


def gr_log(base, target):
    """Geodesic logarithm: the initial velocity of the geodesic running
    from base to target in unit time.

    The returned lift is horizontal at ``base.rep``.  Following it with
    gr_exp reaches the same 2-plane as ``target``, though the arriving
    representative may differ from ``target.rep`` by a 2x2 rotation.
    """
    d = _log_raw(base.rep, target.rep)
    return GrassmannTangent(d, base)


def principal_angles(x, y):
    """Principal angles between the spans of two orthonormal (n, 2) matrices.

    Ascending pair (theta_1, theta_2).  Cosines alone lose half the digits
    near theta = 0, so the sines are taken from the projection residual and
    the two are combined through arctan2 (accurate at both ends).
    """
    q = x.T @ y
    cos = np.clip(np.linalg.svd(q, compute_uv=False), 0.0, 1.0)  # descending
    sin = np.clip(np.linalg.svd(y - x @ q, compute_uv=False), 0.0, 1.0)
    return np.arctan2(sin[::-1], cos)


def gr_distance(a, b, metric="frobenius"):
    """Geodesic distance between 2-planes from principal angles.

    metric="frobenius" is sqrt(theta_1^2 + theta_2^2) (the quotient-metric
    geodesic distance); metric="angle-sum" is theta_1 + theta_2.  Both are
    defined for every pair, cut locus included.
    """
    theta = principal_angles(a.rep, b.rep)
    if metric == "frobenius":
        return float(np.sqrt(np.sum(theta**2)))
    if metric == "angle-sum":
        return float(np.sum(theta))
    raise ContractError(f"unknown Grassmann metric {metric!r}")


def _transport_raw(x, d, t, g):
    """Parallel transport of payload g along the geodesic with velocity d,
    evaluated at the scalar time t.  Raw (..., n, 2) arrays in, raw array
    out."""
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    ug = mT(u) @ g
    ts = t * s
    out = g - u @ ug
    out += (x @ mT(vt)) @ (-np.sin(ts)[..., None] * ug)
    out += u @ (np.cos(ts)[..., None] * ug)
    return out


def gr_transport(gamma_base, gamma_dir, t, payload):
    """Parallel-transport ``payload`` along t -> Exp(t * gamma_dir).

    Both tangents must be horizontal at ``gamma_base``.  The result is the
    transported tangent, horizontal at the arrival representative
    Exp_{gamma_base}(t * gamma_dir); transport is an isometry, so its
    Frobenius norm equals that of the payload.
    """
    x = gamma_base.rep
    for name, tan in (("gamma_dir", gamma_dir), ("payload", payload)):
        if np.linalg.norm(x.T @ tan.delta) > HORIZONTAL_TOL:
            raise ContractError(f"{name} is not horizontal at gamma_base")
    out = _transport_raw(x, gamma_dir.delta, t, payload.delta)
    arrival = GrassmannPoint(_exp_raw(x, t * gamma_dir.delta))
    return GrassmannTangent(out, arrival)
