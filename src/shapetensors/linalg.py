"""Small dense linear-algebra kernels shared by the manifold modules.

Everything here operates on plain ndarrays.  Two conventions are enforced
globally so that downstream results are reproducible bit-for-bit:

* singular values are returned in descending order (LAPACK already does
  this), and
* the sign of each left singular vector is fixed so that its first
  component of magnitude above ``SIGN_TOL`` is positive, with the matching
  right singular vector flipped in tandem.

The 2x2 symmetric eigendecomposition and the matrix functions built on it
(sqrt, inverse sqrt, exp, log) are closed form rather than iterative: at
this fixed size the arithmetic is exact up to rounding and considerably
faster than a general-purpose routine.  Like the SVD they broadcast over
leading axes, so one call serves a single matrix or a whole stack.
"""

import numpy as np

# Components smaller than this are treated as zero when picking the sign
# anchor of a singular vector.
SIGN_TOL = 1e-12


def fix_svd_signs(u, vt):
    """Apply the first-nonzero-positive sign convention in place.

    Flips column i of ``u`` and row i of ``vt`` together, so the product
    u @ diag(s) @ vt is unchanged.  Works for stacked inputs
    (``u``: (..., m, k), ``vt``: (..., k, n)).
    """
    au = np.abs(u)
    anchor = (au > SIGN_TOL).argmax(axis=-2)  # first index above tolerance
    anchored = np.take_along_axis(u, anchor[..., None, :], axis=-2)[..., 0, :]
    flip = np.where(anchored < 0.0, -1.0, 1.0)
    u *= flip[..., None, :]
    vt *= flip[..., :, None]
    return u, vt


def thin_svd(a, r=None):
    """Thin SVD with the deterministic sign convention.

    Returns (u, s, vt) with s descending and each left singular vector's
    first non-negligible component positive.  Accepts stacked matrices.

    With ``r`` (1 <= r <= min(m, N) for an (..., m, N) input) only the r
    leading triplets are formed: u is (..., m, r), s (..., r) and vt
    (..., r, N).  The top-r eigenvectors V of the smaller Gram matrix
    (a a^T if m <= N, else a^T a) seed a range basis Q = qr(a M), with
    M = a^T V on the m side and M = V on the N side, and the SVD of the
    r x N matrix Q^T a finishes it (a Rayleigh-Ritz step): u = Q W.  The
    pass through ``a`` keeps u inside the span of a's columns to rounding,
    where the Gram's eigenvectors alone stray by about eps (s_1 / s_r)^2,
    and s matches the full SVD's to rounding relative to s_1.  A leading
    subspace whose gap s_r - s_r+1 is tiny next to s_1 is less sharp than
    the full SVD's.
    """
    if r is None:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    else:
        at = mT(a)
        if a.shape[-2] <= a.shape[-1]:
            probe = at @ np.linalg.eigh(a @ at)[1][..., -r:]
        else:
            probe = np.linalg.eigh(at @ a)[1][..., -r:]
        q = np.linalg.qr(a @ probe)[0]
        w, s, vt = np.linalg.svd(mT(q) @ a, full_matrices=False)
        u = q @ w
    fix_svd_signs(u, vt)
    return u, s, vt


def mT(a):
    """Transpose of the last two axes (the matrix transpose of a stack)."""
    return np.swapaxes(a, -1, -2)


def eigh2(a):
    """Eigendecomposition of symmetric 2x2 matrices, closed form.

    ``a`` is (..., 2, 2).  Returns (w, q) with eigenvalues w (..., 2)
    descending and q (..., 2, 2) orthogonal, a = q @ diag(w) @ q.T.  The
    decomposition is deterministic: the first eigenvector is chosen with
    a fixed orientation and the second is its 90-degree rotation; at a
    double eigenvalue q is the identity.
    """
    a = np.asarray(a, dtype=float)
    p, b = a[..., 0, 0], 0.5 * (a[..., 0, 1] + a[..., 1, 0])
    c = a[..., 1, 1]
    mid = 0.5 * (p + c)
    h = np.hypot(0.5 * (p - c), b)
    w = np.stack([mid + h, mid - h], axis=-1)
    double = h <= SIGN_TOL * np.maximum(1.0, np.abs(mid))
    # (a - w1) v = 0; pick the residual column with the larger magnitude
    right = p - c >= 0.0
    v0 = np.where(right, w[..., 0] - c, b)
    v1 = np.where(right, b, w[..., 0] - p)
    norm = np.where(double, 1.0, np.hypot(v0, v1))
    v0 = np.where(double, 1.0, v0 / norm)
    v1 = np.where(double, 0.0, v1 / norm)
    sign = np.where((v0 < 0.0) | ((v0 == 0.0) & (v1 < 0.0)), -1.0, 1.0)
    v0, v1 = sign * v0, sign * v1
    q = np.stack([np.stack([v0, -v1], axis=-1), np.stack([v1, v0], axis=-1)],
                 axis=-2)
    return w, q


def sym2_apply(fn, a):
    """Apply a scalar function to symmetric 2x2 matrices via eigh2."""
    w, q = eigh2(a)
    return (q * fn(w)[..., None, :]) @ mT(q)


def sym2_sqrt(a):
    return sym2_apply(np.sqrt, a)


def sym2_inv_sqrt(a):
    return sym2_apply(lambda w: 1.0 / np.sqrt(w), a)


def sym2_exp(a):
    return sym2_apply(np.exp, a)


def sym2_log(a):
    return sym2_apply(np.log, a)


def inv2(a):
    """Inverse of (..., 2, 2) matrices by the adjugate formula."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    adj = np.stack([a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0]],
                   axis=-1)
    return adj.reshape(a.shape) / det[..., None, None]


def polar_orthonormalize(y):
    """One polar-projection step: the closest matrix with orthonormal columns.

    For (..., n, 2) matrices y with nearly orthonormal columns this returns
    y @ (y.T y)^(-1/2), removing O(eps) drift without changing the span.
    """
    g = mT(y) @ y
    return y @ sym2_inv_sqrt(0.5 * (g + mT(g)))


def rotation2(theta):
    """Clockwise-convention rotations [[cos, sin], [-sin, cos]], one per
    entry of ``theta``: shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)],
                    axis=-2)
