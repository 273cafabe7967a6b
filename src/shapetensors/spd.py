"""The manifold of symmetric positive-definite 2x2 matrices.

All operations use the affine-invariant metric <A, B>_P = tr(P^-1 A P^-1 B),
under which the manifold is complete with everywhere-defined Exp and Log:

    Exp_P(S) = P^(1/2) exp(P^(-1/2) S P^(-1/2)) P^(1/2)
    Log_P(D) = P^(1/2) log(P^(-1/2) D P^(-1/2)) P^(1/2)
    d(P, D)  = || log(P^(-1/2) D P^(-1/2)) ||_F

Parallel transport along the geodesic from P to D is the congruence
S -> E S E.T with E = (D P^-1)^(1/2), evaluated here in the numerically
symmetric form E = P^(1/2) (P^(-1/2) D P^(-1/2))^(1/2) P^(-1/2).

Distances and transports are invariant under congruence by any invertible
A (P -> A P A.T), which is the property the tests pin down.

The raw-array kernels broadcast over leading (..., 2, 2) axes, and so
do the checked maps that call each of them once; a tangent is a plain
symmetric (..., 2, 2) array.  The matrix roots, exp and log are the
closed forms of ``linalg``, which keep the off-diagonal of a tiny
P^(-1/2) S P^(-1/2).
"""

import numpy as np

from .errors import ContractError, _entry, check_stacks, refuse
from .grassmann import StackedPoint
from .linalg import mT, sym2_exp, sym2_log, sym2_roots, sym2_sqrt

SYMMETRY_TOL = 1e-14


def _symmetric2(a, what):
    """``a`` as a symmetrized float array; refuses anything but finite,
    symmetric 2x2 matrices, or (..., 2, 2) stacks of them, whose entries
    stay below 2**1023 in magnitude, so that a + a.T cannot overflow
    (``what`` names it in the message; ``index`` the first member)."""
    a = _entry(a, ("...", 2, 2), f"SPD {what}", finite=False)
    big = np.abs(a).max(axis=(-2, -1))
    refuse(~(big < 2.0**1023), lambda i: ContractError(
        f"SPD {what} has an entry of magnitude {big[i]:.3e}, 2**1023 or more"
        if np.isfinite(big[i]) else f"SPD {what} has non-finite entries"))
    refuse(abs(a[..., 0, 1] - a[..., 1, 0]) > SYMMETRY_TOL * np.maximum(1.0, big),
           lambda i: ContractError(f"{what} is not symmetric"))
    return 0.5 * (a + mT(a))


def _det2(a):
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


class SpdMatrix(StackedPoint):
    """A symmetric positive-definite 2x2 matrix, or an (..., 2, 2) stack
    of them, checked in one batched call."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = _symmetric2(mat, "matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            det = _det2(mat)
            lost = det != det
            if lost.any():  # inf - inf: take the sign at a largest entry in [0.5, 1)
                e = np.frexp(np.abs(mat).max(axis=(-2, -1)))[1]
                det = np.where(lost, _det2(np.ldexp(mat, -e[..., None, None])), det)
            refuse((det <= 0.0) | (mat[..., 0, 0] + mat[..., 1, 1] <= 0.0),
                   lambda i: ContractError("matrix is not positive definite"))
        self.mat = mat

    def __repr__(self):
        if self.shape:
            return f"SpdMatrix(shape={self.shape})"
        m = self.mat
        return f"SpdMatrix([[{m[0,0]:g}, {m[0,1]:g}], [{m[1,0]:g}, {m[1,1]:g}]])"


def _sym(a):
    return 0.5 * (a + mT(a))


def _exp_raw(p, s):
    rp, rpi = sym2_roots(p)
    return _sym(rp @ sym2_exp(rpi @ s @ rpi) @ rp)


def _log_raw(p, d):
    rp, rpi = sym2_roots(p)
    return _sym(rp @ sym2_log(rpi @ d @ rpi) @ rp)


def _distance_raw(p, d):
    """Distances between (..., 2, 2) stacks of SPD matrices."""
    _, rpi = sym2_roots(p)
    return np.linalg.norm(sym2_log(rpi @ d @ rpi), axis=(-2, -1))


def spd_exp(p, s):
    """Exponential map at p; defined for every symmetric s."""
    s = _symmetric2(s, "tangent")
    check_stacks("base and tangent", p.mat, s)
    return SpdMatrix(_exp_raw(p.mat, s))


def spd_log(p, d):
    """Logarithm at p; defined for every SPD d (the manifold has no cut
    locus under this metric)."""
    check_stacks("base and target", p.mat, d.mat)
    return _log_raw(p.mat, d.mat)


def spd_distance(p, d):
    """Affine-invariant geodesic distance: a float for one pair, an array
    of per-member distances for stacks."""
    check_stacks("points", p.mat, d.mat)
    dist = _distance_raw(p.mat, d.mat)
    return dist if dist.ndim else float(dist)


def spd_transport(p, d, s):
    """Parallel transport of s from T_p to T_d along the geodesic.

    An isometry of the affine-invariant metric:
    tr(D^-1 T D^-1 T) = tr(P^-1 S P^-1 S) for T the transported tangent.
    """
    s = _symmetric2(s, "tangent")
    check_stacks("base, target and tangent", p.mat, d.mat, s)
    rp, rpi = sym2_roots(p.mat)
    e = rp @ sym2_sqrt(rpi @ d.mat @ rpi) @ rpi
    return _sym(e @ s @ mT(e))
