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

No map needs an SVD of the (n, 2) matrices: only V and S^2 enter, and
they are the eigenvectors and eigenvalues of the 2x2 Gram matrix, so

    Exp_X(D)  = X cos(sqrt(G)) + D sinc(sqrt(G)),         G = D.T D
    Log_X(Y)  = W f(W.T W),       f(lam) = arctan(sqrt(lam)) / sqrt(lam),
                W.T W = q^-T q^-1 - I,  q = X.T Y
    tau(G')   = G' + (D c(G) - X s(G)) D.T G',   c(lam) = (cos(t sqrt(lam))
                - 1) / lam,   s(lam) = sin(t sqrt(lam)) / sqrt(lam)

with sin(s)/s, f and c taken from their Taylor series for tiny lam, and
one polar step after Exp.  Log's Gram needs no (n, 2) product: for
orthonormal Y, W.T W = q^-T (Y.T Y) q^-1 - I = q^-T q^-1 - I, from the
inverse the lift is made of (both eigenvalues clipped at 0, as rounding
leaves it slightly indefinite where Y spans X).  A function of a 2x2
Gram is formed from its two eigenvalues and its traceless part
(``linalg.sym2_split``), so nearly round and tiny Grams keep their
off-diagonal.  Near the cut locus
(sigma_1(W) > GRAM_S1_MAX) the Gram's small eigenvalue drowns in the
rounding of the large one; there Log takes the singular values from the
column norms of W V, as principal angles take their sines from the
projection residual.  Cosines and the normal-neighborhood test use the
closed-form singular values of X.T Y (``linalg.sv2``), which resolve
sigma_2 / sigma_1 far below 1e-12.

The raw-array kernels broadcast over leading axes: one pair, one base
against an (N, n, 2) stack, and a stack against a stack all go through
the same code, and so do gr_exp, gr_log, gr_transport and gr_distance,
checked wrappers that call each kernel once.  A tangent is a plain
(..., n, 2) array, checked to be horizontal at the base it is used at.
"""

import numpy as np

from .errors import (ContractError, NormalNeighborhoodError, _entry,
                     check_stacks, refuse)
from .linalg import (inv2, mT, polar_orthonormalize, rotation2, sv2, sym2_join,
                     sym2_split)

# Orthonormality drift allowed in a representative.
ORTHO_TOL = 1e-12
# Horizontality drift allowed in a tangent lift.
HORIZONTAL_TOL = 1e-10
# Condition-number ceiling on X.T Y beyond which Log is refused.
NEIGHBORHOOD_COND_MAX = 1e12
# Largest singular value of the lift W beyond which Log takes the singular
# values from column norms instead of the Gram matrix's eigenvalues.
GRAM_S1_MAX = 1e2
# Argument lam below which sin(s)/s and arctan(s)/s, s = sqrt(lam), are
# taken from their Taylor series in lam (truncation error below lam^2/5).
SERIES_MAX = 1e-8


def check_orthonormal(a, what="columns"):
    """Refuse, with a ContractError, a matrix of an (..., n, k) stack whose
    columns (``what``) are not finite and orthonormal within ORTHO_TOL; its
    ``index`` names the first such member."""
    # orthonormal columns have entries in [-1, 1]; refusing far larger (or
    # non-finite) ones first keeps a.T @ a from overflowing
    big = np.abs(a).max(axis=(-2, -1), initial=0.0)
    refuse(~(big <= 2.0), lambda i: ContractError(
        f"{what} are not orthonormal: an entry has magnitude {big[i]:.3e}"
        if np.isfinite(big[i]) else f"{what} have non-finite entries"))
    gap = mT(a) @ a
    gap = gap.reshape(gap.shape[:-2] + (gap.shape[-1] ** 2,))
    gap[..., :: a.shape[-1] + 1] -= 1.0  # a.T a - I
    drift = np.sqrt((gap * gap).sum(axis=-1))
    refuse(~(drift <= ORTHO_TOL), lambda i: ContractError(
        f"{what} are not orthonormal: ||X.T X - I||_F = {drift[i]:.3e} "
        f"exceeds {ORTHO_TOL:.0e}"))


def _lifts(x, at, **lifts):
    """The tangents given by name as float arrays of horizontal lifts at
    the representatives x (named ``at``); refuses, with a ContractError
    whose ``index`` names the first refused member, stacks that do not
    match x, and non-finite or non-horizontal members."""
    lifts = {name: _entry(d, ("...", "n", "k"), name) for name, d in lifts.items()}
    check_stacks(f"{at} and {' and '.join(lifts)}", x, *lifts.values())
    for name, d in lifts.items():
        drift = np.linalg.norm(mT(x) @ d, axis=(-2, -1))
        refuse(drift > HORIZONTAL_TOL, lambda i: ContractError(
            f"{name} is not horizontal at {at}: ||X.T D||_F = {drift[i]:.3e} "
            f"exceeds {HORIZONTAL_TOL:.0e}"))
    return lifts.values()


class StackedPoint:
    """Base of the manifold point classes.  A point holds one member or a
    stack of them along the leading axes ``shape`` of its arrays; len()
    counts the members along the first axis, and [k] returns member k as
    a point of the same class, unchecked, as its stack was checked."""

    __slots__ = ()

    @property
    def shape(self):
        first = getattr(self, self.__slots__[0])  # an array or a point
        return first.shape if isinstance(first, StackedPoint) else first.shape[:-2]

    def __len__(self):
        if not self.shape:
            raise TypeError(f"a single {type(self).__name__} has no len()")
        return self.shape[0]

    def __getitem__(self, k):
        len(self)  # a single point has no members
        member = object.__new__(type(self))
        for field in self.__slots__:
            setattr(member, field, getattr(self, field)[k])
        return member


class GrassmannPoint(StackedPoint):
    """A 2-plane in R^n held as an orthonormal (n, 2) representative, or
    an (..., n, 2) stack of them, checked in one batched call."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        rep = _entry(rep, ("...", "n >= 3", 2), "Grassmann representative", finite=False)
        check_orthonormal(rep)  # refuses non-finite members too
        self.rep = rep

    @property
    def n(self):
        return self.rep.shape[-2]

    def __repr__(self):
        stack = f", shape={self.shape}" if self.shape else ""
        return f"GrassmannPoint(n={self.n}{stack})"


def _eig2(g):
    """A (..., 2, 2) stack of Gram matrices g as their eigenvalues lam
    (..., 2), descending and clipped at 0, and their unit traceless part
    e (``linalg.sym2_split``)."""
    mid, h, e = sym2_split(g)
    return np.maximum(np.stack([mid + h, mid - h], axis=-1), 0.0), e


def _gram_fn(e, fw):
    """f(a.T a) from fw = f(lam): the mean of the two values times I plus
    half their difference times e."""
    return sym2_join(0.5 * (fw[..., 0] + fw[..., 1]),
                     0.5 * (fw[..., 0] - fw[..., 1]), e)


def _right_frame(a, e):
    """(a V, V, column norms of a V), V the eigenvectors of a.T a from its
    traceless part e: the norms are the singular values of a, descending,
    to the accuracy of an SVD (an error in V moves them to second order)."""
    v = rotation2(-0.5 * np.arctan2(e[..., 0, 1], e[..., 0, 0]))
    av = a @ v
    return av, v, np.linalg.norm(av, axis=-2)


def _exp_raw(x, d):
    """Exp on raw (..., n, 2) arrays; returns representatives."""
    lam, e = _eig2(mT(d) @ d)
    y = x @ _gram_fn(e, np.cos(np.sqrt(lam))) + d @ _gram_fn(e, _sinc(lam))
    # one polar step scrubs the O(eps) loss of orthonormality
    return polar_orthonormalize(y)


def gr_exp(base, delta):
    """Geodesic exponential: follow the geodesic with velocity delta, an
    (..., n, 2) lift horizontal at ``base.rep``, for unit time.  Zero
    tangents return the base point itself."""
    d, = _lifts(base.rep, "base", tangent=delta)
    return GrassmannPoint(_exp_raw(base.rep, d))


def _log_raw(x, y):
    """Log on raw (..., n, 2) arrays; returns the horizontal tangents.

    Each y must be orthonormal to ORTHO_TOL, as a checked representative
    is: the Gram W.T W = q^-T (Y.T Y) q^-1 - I of the lift is taken as
    q^-T q^-1 - I, from the q^-1 the lift is made of.  With eta =
    ||Y.T Y - I||_F the two differ by q^-T (Y.T Y - I) q^-1, so each
    eigenvalue lam moves by at most ||q^-1||_2^2 eta and f(lam) =
    arctan(sqrt(lam)) / sqrt(lam), whose slope is at most 1/3, by a third
    of that.  Weighted by W, the result is within eta min(pi/2,
    ||W||_2 ||q^-1||_2^2 / 3) in Frobenius norm (to first order in eta)
    of the log of span(Y), on the cut-locus branch too.

    Raises NormalNeighborhoodError if any target is outside the normal
    neighborhood of its base; the error's ``index`` is the position of the
    first such target in the stack (``()`` for a single pair).
    """
    q = mT(x) @ y
    sq = sv2(q)
    refuse(sq[..., 1] <= sq[..., 0] / NEIGHBORHOOD_COND_MAX,
           lambda i: NormalNeighborhoodError(
               f"{'point ' + ', '.join(map(str, i)) if i else 'target subspace'} "
               "lies outside the normal neighborhood of the base (a principal "
               "angle is at or near pi/2); Log is undefined"))
    qi = inv2(q)
    w = y @ qi
    w -= x  # the horizontal part: X.T Y q^-1 = I
    # W.T W = q^-T (Y.T Y) q^-1 - I, and Y.T Y = I
    lam, e = _eig2(mT(qi) @ qi - np.eye(2))
    out = w @ _gram_fn(e, _arctan_ratio(lam))
    far = lam[..., 0] > GRAM_S1_MAX**2
    if np.any(far):
        # near the cut locus lam_2 is lost next to lam_1
        wv, v, s = _right_frame(w[far], e[far])
        out[far] = (wv * _arctan_ratio(s * s)[..., None, :]) @ mT(v)
    return out


def _arctan_ratio(lam):
    """arctan(sqrt(lam)) / sqrt(lam), elementwise."""
    s = np.sqrt(lam)
    small = lam < SERIES_MAX
    return np.where(small, 1.0 - lam / 3.0, np.arctan(s) / np.where(small, 1.0, s))


def _sinc(lam):
    """sin(sqrt(lam)) / sqrt(lam), elementwise."""
    s = np.sqrt(lam)
    small = lam < SERIES_MAX
    return np.where(small, 1.0 - lam / 6.0, np.sin(s) / np.where(small, 1.0, s))


def gr_log(base, target):
    """Geodesic logarithm: the initial velocity of the geodesic running
    from base to target in unit time.

    The returned lift is horizontal at ``base.rep``.  Following it with
    gr_exp reaches the same 2-plane as ``target``, though the arriving
    representative may differ from ``target.rep`` by a 2x2 rotation.
    """
    check_stacks("base and target", base.rep, target.rep)
    return _log_raw(base.rep, target.rep)


def principal_angles(x, y):
    """Principal angles between the spans of orthonormal (n, 2) matrices,
    broadcast over the leading axes of (..., n, 2) stacks.

    Ascending pairs (theta_1, theta_2).  Cosines alone lose half the digits
    near theta = 0, so the sines are taken from the projection residual
    R = Y - X X.T Y and the two are combined through arctan2 (accurate at
    both ends).  The cosines are the closed-form singular values of X.T Y;
    the sines are the column norms of R V, V the eigenvectors of R.T R.
    A member whose products overflow raises ContractError.
    """
    x, y = _entry(x, ("...", "n", 2), "x"), _entry(y, ("...", "n", 2), "y")
    check_stacks("x and y", x, y)
    # an overflow anywhere leaves an inf or NaN in cos or sin: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        q = mT(x) @ y
        r = y - x @ q
        cos = sv2(q)  # descending
        sin = _right_frame(r, sym2_split(mT(r) @ r)[2])[2]  # descending
    refuse(~(np.isfinite(cos) & np.isfinite(sin)).all(axis=-1),
           lambda _: ContractError("principal angles overflow: entries are too large"))
    return np.arctan2(np.clip(sin[..., ::-1], 0.0, 1.0), np.clip(cos, 0.0, 1.0))


def gr_distance(a, b, metric="frobenius"):
    """Geodesic distance between 2-planes from principal angles.

    metric="frobenius" is sqrt(theta_1^2 + theta_2^2) (the quotient-metric
    geodesic distance); metric="angle-sum" is theta_1 + theta_2.  Both are
    defined for every pair, cut locus included.  A float for one pair,
    an array of per-member distances for stacks.
    """
    theta = principal_angles(a.rep, b.rep)
    if metric == "frobenius":
        dist = np.sqrt(np.sum(theta**2, axis=-1))
    elif metric == "angle-sum":
        dist = np.sum(theta, axis=-1)
    else:
        raise ContractError(f"unknown Grassmann metric {metric!r}")
    return dist if dist.ndim else float(dist)


def _transport_raw(x, d, t, g):
    """Parallel transport of payload g along the geodesic with velocity d,
    evaluated at the scalar time t.  Raw (..., n, 2) arrays in, raw array
    out."""
    lam, e = _eig2(mT(d) @ d)
    mu = (t * t) * lam
    # (cos(t s) - 1) / s^2 = -(t^2 / 2) sinc(t s / 2)^2, free of cancellation
    f = _gram_fn(e, -0.5 * (t * t) * _sinc(0.25 * mu) ** 2)
    h = _gram_fn(e, t * _sinc(mu))
    return g + (d @ f - x @ h) @ (mT(d) @ g)


def gr_transport(gamma_base, gamma_dir, t, payload):
    """Parallel-transport ``payload`` along t -> Exp(t * gamma_dir).

    Both tangents must be horizontal at ``gamma_base.rep``.  The result
    is the transported tangent, horizontal at the arrival representative
    gr_exp(gamma_base, t * gamma_dir).rep; transport is an isometry, so
    its Frobenius norm equals that of the payload.  The time t is one
    finite real scalar for every member of a stack.
    """
    if np.ndim(t) or np.asarray(t).dtype.kind not in "iuf" or not np.isfinite(t):
        raise ContractError(f"transport time must be a finite real scalar, got {t!r}")
    x = gamma_base.rep
    d, g = _lifts(x, "gamma_base", gamma_dir=gamma_dir, payload=payload)
    return _transport_raw(x, d, t, g)
