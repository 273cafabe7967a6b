"""Geometry of the Grassmannian G(n, 2) of 2-planes in R^n.

Points are stored through Stiefel representatives: (n, 2) matrices with
orthonormal columns, two representatives being equivalent when they differ
by a right 2x2 orthogonal factor.  Tangent vectors at a representative X
are horizontal lifts, i.e. (n, 2) matrices D with X.T @ D = 0.

The exponential, logarithm and parallel transport are the standard SVD
identities for geodesics of the quotient metric:

    Exp_X(D)  = X V cos(S) V.T + U sin(S) V.T,          D = U S V.T
    Log_X(Y)  = U arctan(S) V.T,  U S V.T = W = Y (X.T Y)^(-1) - X
    tau(G)    = (-X V sin(tS) + U cos(tS)) U.T G + (I - U U.T) G

with all trigonometric functions acting on the diagonal.  W is the
horizontal part of Y (X.T Y)^(-1), since X.T Y (X.T Y)^(-1) = I.  Distances
come from the principal angles theta_i = arccos sigma_i(X.T Y).

Exp and Log need no SVD of the (n, 2) matrices: only V and S^2 enter, and
they are the eigenvectors and eigenvalues of the 2x2 Gram matrix, so

    Exp_X(D)  = X cos(sqrt(G)) + D sinc(sqrt(G)),         G = D.T D
    Log_X(Y)  = W f(W.T W),       f(lam) = arctan(sqrt(lam)) / sqrt(lam)

with sin(s)/s and f taken from their Taylor series for tiny lam, and one
polar step after Exp.  A function of a 2x2 Gram is formed from its two
eigenvalues and its traceless part, with no eigenvector solve, so nearly
round and tiny Grams keep their off-diagonal.  Near the cut locus
(sigma_1(W) > GRAM_S1_MAX) the Gram's small eigenvalue drowns in the
rounding of the large one; there Log takes the singular values from the
column norms of W V, as accurate as an SVD's.  The normal-neighborhood
test reads sigma_2 / sigma_1 of X.T Y as |det(X.T Y)| / sigma_1^2, with
sigma_1 in closed form, which resolves ratios far below 1e-12.

The raw-array kernels broadcast over leading axes: one pair, one base
against an (N, n, 2) stack, and a stack against a stack all go through
the same code.
"""

import numpy as np

from .errors import ContractError, NormalNeighborhoodError
from .linalg import inv2, mT, polar_orthonormalize, rotation2

# Orthonormality drift allowed in a representative.
ORTHO_TOL = 1e-12
# Horizontality drift allowed in a tangent lift.
HORIZONTAL_TOL = 1e-10
# Condition-number ceiling on X.T Y beyond which Log is refused.
NEIGHBORHOOD_COND_MAX = 1e12
# Largest singular value of the lift W beyond which Log takes the singular
# values from column norms instead of the Gram matrix's eigenvalues.
GRAM_S1_MAX = 1e2
# Gram eigenvalue below which sin(s)/s and arctan(s)/s, s = sqrt(lam), are
# taken from their Taylor series in lam (truncation error below lam^2/5).
SERIES_MAX = 1e-8


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


def _gram(a):
    """The Gram matrix a.T a of (..., n, 2) stacks as its eigenvalues lam
    (..., 2), descending and clipped at 0, and its unit traceless part e:
    a.T a = mid I + h e with lam = mid +- h and e = v diag(1, -1) v.T for
    the eigenvectors v.  Both come from the Gram's entries, with no
    eigenvector solve, so a nearly round Gram loses nothing."""
    g = mT(a) @ a
    p, b, c = g[..., 0, 0], 0.5 * (g[..., 0, 1] + g[..., 1, 0]), g[..., 1, 1]
    mid, half = 0.5 * (p + c), 0.5 * (p - c)
    h = np.hypot(half, b)
    e = np.stack([half, b, b, -half], axis=-1).reshape(g.shape)
    e /= np.where(h > 0.0, h, 1.0)[..., None, None]
    return np.stack([mid + h, np.maximum(mid - h, 0.0)], axis=-1), e


def _gram_fn(e, fw):
    """f(a.T a) from fw = f(lam): the mean of the two values times I plus
    half their difference times e."""
    mean = 0.5 * (fw[..., 0] + fw[..., 1])
    return (mean[..., None, None] * np.eye(2)
            + 0.5 * (fw[..., 0] - fw[..., 1])[..., None, None] * e)


def _exp_raw(x, d):
    """Exp on raw (..., n, 2) arrays; returns representatives."""
    lam, e = _gram(d)
    s = np.sqrt(lam)
    small = lam < SERIES_MAX
    sinc = np.where(small, 1.0 - lam / 6.0, np.sin(s) / np.where(small, 1.0, s))
    y = x @ _gram_fn(e, np.cos(s)) + d @ _gram_fn(e, sinc)
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
    a, b, c, d = q[..., 0, 0], q[..., 0, 1], q[..., 1, 0], q[..., 1, 1]
    # sigma_1 of the 2x2 q in closed form; sigma_2 / sigma_1 = |det q| / sigma_1^2
    s1 = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    outside = np.abs(a * d - b * c) <= s1 * s1 / NEIGHBORHOOD_COND_MAX
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
    w -= x  # the horizontal part: X.T Y q^-1 = I
    lam, e = _gram(w)
    out = w @ _gram_fn(e, _arctan_ratio(lam))
    far = lam[..., 0] > GRAM_S1_MAX**2
    if np.any(far):
        # near the cut locus lam_2 is lost next to lam_1; the column norms
        # of W V are the singular values to the accuracy of an SVD
        ef = e[far]
        v = rotation2(-0.5 * np.arctan2(ef[..., 0, 1], ef[..., 0, 0]))
        wv = w[far] @ v
        s = np.linalg.norm(wv, axis=-2)
        out[far] = (wv * _arctan_ratio(s * s)[..., None, :]) @ mT(v)
    return out


def _arctan_ratio(lam):
    """arctan(sqrt(lam)) / sqrt(lam), elementwise."""
    s = np.sqrt(lam)
    small = lam < SERIES_MAX
    return np.where(small, 1.0 - lam / 3.0, np.arctan(s) / np.where(small, 1.0, s))


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
