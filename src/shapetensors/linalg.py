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
off-diagonal.  2x2 singular values and orthogonal polar factors are closed
form too; ``thin_svd`` is the one LAPACK SVD, of the whole matrix or of
its projection on a certified Krylov basis.  The 2x2 kernels broadcast
over leading axes.
"""

import contextlib
import functools

import numpy as np

# Components smaller than this are treated as zero when picking the sign
# anchor of a singular vector.
SIGN_TOL = 1e-12
# The block Krylov probe of ``thin_svd``: the seed of its Gaussian start,
# the columns it draws beyond r, the blocks it forms, and the residual,
# relative to s_1, below which its result is certified.
PROBE_SEED = 20110617
PROBE_OVERSAMPLE = 4
PROBE_BLOCKS = 3
CERTIFY_TOL = 1e-12


def fix_svd_signs(u, vt):
    """Apply the first-nonzero-positive sign convention in place.

    Flips column i of ``u`` and row i of ``vt`` together, so the product
    u @ diag(s) @ vt is unchanged.  Works for stacked inputs
    (``u``: (..., m, k), ``vt``: (..., k, n)).
    """
    anchored = u[..., 0, :]
    if not (np.abs(anchored) > SIGN_TOL).all():  # some anchors lie further down
        anchor = (np.abs(u) > SIGN_TOL).argmax(axis=-2)  # first index above tolerance
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
    (..., r, N).  A block Krylov probe (Musco and Musco, 2015) gives a
    range basis Q: b = r + PROBE_OVERSAMPLE Gaussian columns Omega from a
    generator seeded with PROBE_SEED (the global random state is not
    touched), the blocks a Omega, a a^T Q1 and a a^T Q2, each
    orthonormalized, and one QR of all 3b columns.  The SVD of Q^T a
    finishes it (a Rayleigh-Ritz step): u = Q W stays in the span of a's
    columns, and a^T u = v s by construction.  The result is kept when
    ||a v - u s||_2 <= CERTIFY_TOL s_1 and s_r > s_r+1 + tau, where tau is
    ||(I - Q Q^T) a||_F, from ||a||_F^2 - ||Q^T a||_F^2 plus that
    difference's rounding (eps ||a||_F^2 per column of Q): s_r+1 + tau
    bounds the true s_r+1 from above (Weyl), and the sine of the angle
    between the leading subspaces is at most the residual over the gap
    (Wedin).  A member whose s_r does not stand clear of the rest
    (repeated values at r, graded below rounding, rank deficient, zero)
    or whose range is wider than the Krylov space fails, and its whole
    stack then takes the Gram probe: the top-r eigenvectors V of the
    smaller Gram matrix (a a^T if m <= N, else a^T a) seed Q = qr(a M),
    M = a^T V on the m side and V on the N side, before the same
    Rayleigh-Ritz step.  Either way s matches the full SVD's to rounding
    relative to s_1; a leading subspace whose gap s_r - s_r+1 is tiny
    next to s_1 is less sharp than the full SVD's.
    """
    if r is None:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    else:
        u, s, vt = _krylov_top(a, r) or _ritz(a, _gram_basis(a, r), r)
        s = s[..., :r]
    fix_svd_signs(u, vt)
    return u, s, vt


@functools.cache
def _openblas_threads():
    """(getter, setter) of the thread count of the scipy-openblas build
    that numpy wheels bundle, found through ctypes on first use, or None
    where there is none (another BLAS build)."""
    import ctypes
    import glob
    import os

    root = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(root + ".libs", "libscipy_openblas*"))
                 + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the loaded library, not a second copy
            get = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block under one OpenBLAS thread and restore the count
    after it, on error too: how OpenBLAS splits a product among threads
    changes its rounding, so this makes the block's bits independent of
    the thread count.  Where no scipy-openblas is found it does nothing."""
    found = _openblas_threads()
    if found is None:
        yield
        return
    get, set_threads = found
    old = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def _ritz(a, q, r):
    """(u, s, vt) of the Rayleigh-Ritz step of a in the range of q: u and
    vt for the r leading Ritz values, s for all of them."""
    w, s, vt = np.linalg.svd(mT(q) @ a, full_matrices=False)
    return q @ w[..., :r], s, vt[..., :r, :]


def _gram_basis(a, r):
    """Orthonormal (..., m, r) basis of a M, M from the top-r eigenvectors
    of the smaller Gram matrix."""
    at = mT(a)
    if a.shape[-2] <= a.shape[-1]:
        probe = at @ np.linalg.eigh(a @ at)[1][..., -r:]
    else:
        probe = np.linalg.eigh(at @ a)[1][..., -r:]
    return np.linalg.qr(a @ probe)[0]


def _krylov_top(a, r):
    """The Rayleigh-Ritz triplets of a in its block Krylov space (see
    ``thin_svd``), or None when a member fails the certificate."""
    omega = np.random.default_rng(PROBE_SEED).standard_normal(
        (a.shape[-1], r + PROBE_OVERSAMPLE))
    blocks = [np.linalg.qr(a @ omega)[0]]
    for _ in range(PROBE_BLOCKS - 1):
        blocks.append(np.linalg.qr(a @ (mT(a) @ blocks[-1]))[0])
    q = np.linalg.qr(np.concatenate(blocks, axis=-1))[0]
    u, s, vt = _ritz(a, q, r)
    # einsum reads a (a transposed view, in a fit) without a temporary copy
    norm2 = np.einsum("...ij,...ij->...", a, a)
    tau = np.sqrt(np.maximum(norm2 - (s * s).sum(axis=-1), 0.0)
                  + q.shape[-1] * np.finfo(float).eps * norm2)
    after = s[..., r] if s.shape[-1] > r else 0.0
    residual = np.linalg.norm(a @ mT(vt) - u * s[..., None, :r], ord=2,
                              axis=(-2, -1))
    if np.all((residual <= CERTIFY_TOL * s[..., 0])
              & (s[..., r - 1] - (after + tau) > 0.0)):
        return u, s, vt
    return None


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
    out = np.empty(np.shape(theta) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    return out


def orthogonal_factor(a, proper=False):
    """The orthogonal q maximizing tr(q.T a) for (..., 2, 2) a, read off
    the entries: a = rot [[c, s], [-s, c]] + ref [[g, d], [d, -g]] has
    singular values |rot| +- |ref|, and q is the larger part at unit size
    (rot on a tie or when ``proper``; the identity where it is zero)."""
    p, b, c, d = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    flip = (not proper) & (np.hypot(p - d, b + c) > np.hypot(p + d, b - c))
    # the unit reflection part is rotation2(-phi) diag(1, -1), phi its angle
    q = rotation2(np.where(flip, -np.arctan2(b + c, p - d),
                           np.arctan2(b - c, p + d)))
    q[..., 1] *= np.where(flip, -1.0, 1.0)[..., None]
    return q
