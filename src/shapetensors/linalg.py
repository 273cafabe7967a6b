"""Small dense linear-algebra kernels shared by the manifold modules.

Everything here operates on plain ndarrays.  Two conventions are enforced
globally so that downstream results are reproducible bit-for-bit:

* singular values are returned in descending order (LAPACK already does
  this), and
* the sign of each left singular vector is fixed so that its first
  component of magnitude above ``SIGN_TOL`` is positive, with the matching
  right singular vector flipped in tandem.

A function f of a symmetric 2x2 needs no eigendecomposition: with
a = mid I + h e (eigenvalues mid +- h, e its unit traceless part), f(a) is
the mean of f at the two eigenvalues times I plus their half-difference
times e (Higham, Functions of Matrices, 2008), each half-difference taken
free of cancellation, so tiny and nearly double matrices keep their
off-diagonal.  2x2 singular values are closed form too; ``thin_svd`` is
the one LAPACK SVD.  The 2x2 kernels broadcast over leading axes.
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


def sym2_split(a):
    """(mid, h, e) with a = mid I + h e for symmetric (..., 2, 2) a, read
    off the entries: h >= 0, e = v diag(1, -1) v.T for the eigenvectors v,
    and e = 0 where h = 0."""
    p, b, c = a[..., 0, 0], 0.5 * (a[..., 0, 1] + a[..., 1, 0]), a[..., 1, 1]
    mid, half = 0.5 * (p + c), 0.5 * (p - c)
    h = np.hypot(half, b)
    e = np.stack([half, b, b, -half], axis=-1).reshape(p.shape + (2, 2))
    e /= np.where(h > 0.0, h, 1.0)[..., None, None]
    return mid, h, e


def sym2_join(mean, half, e):
    """mean I + half e: the function taking mean +- half at mid +- h."""
    return mean[..., None, None] * np.eye(2) + half[..., None, None] * e


def sym2_roots(a):
    """a^(1/2) and a^(-1/2) of SPD (..., 2, 2) a from one split; with roots
    r1, r2 the half-differences are h / (r1 + r2), -h / (r1 r2 (r1 + r2))."""
    mid, h, e = sym2_split(a)
    r1, r2 = np.sqrt(mid + h), np.sqrt(mid - h)
    s, r = r1 + r2, r1 * r2
    return sym2_join(0.5 * s, h / s, e), sym2_join(0.5 * s / r, -h / (r * s), e)


def sym2_sqrt(a):
    return sym2_roots(a)[0]


def sym2_inv_sqrt(a):
    return sym2_roots(a)[1]


def sym2_exp(a):
    mid, h, e = sym2_split(a)
    scale = np.exp(mid)
    return sym2_join(scale * np.cosh(h), scale * np.sinh(h), e)


def sym2_log(a):
    mid, h, e = sym2_split(a)
    return sym2_join(0.5 * (np.log(mid + h) + np.log(mid - h)),
                     np.arctanh(h / mid), e)


def sv2(a):
    """Singular values (..., 2), descending, of (..., 2, 2) a: s1 in closed
    form, s2 = |det a| / s1 (0 where a = 0), both accurate to eps s1."""
    p, b, c, d = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    s1 = 0.5 * (np.hypot(p + d, c - b) + np.hypot(p - d, b + c))
    s2 = np.abs(p * d - b * c) / np.where(s1 > 0.0, s1, 1.0)
    return np.stack([s1, s2], axis=-1)


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
    return y @ sym2_inv_sqrt(mT(y) @ y)


def rotation2(theta):
    """Clockwise-convention rotations [[cos, sin], [-sin, cos]], one per
    entry of ``theta``: shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)],
                    axis=-2)
