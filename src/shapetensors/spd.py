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

The raw-array kernels broadcast over leading (..., 2, 2) axes.  The
matrix roots, exp and log are the closed forms of ``linalg``, which keep
the off-diagonal of a tiny P^(-1/2) S P^(-1/2).
"""

import numpy as np

from .errors import ContractError
from .linalg import mT, sym2_exp, sym2_log, sym2_roots, sym2_sqrt

SYMMETRY_TOL = 1e-14


def _symmetric2(a, what):
    """``a`` as a symmetrized float array; refuses anything but a finite,
    symmetric 2x2 whose entries stay below 2**1023 in magnitude, so that
    a + a.T cannot overflow (``what`` names it in the message)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ContractError(f"SPD {what} must be 2x2, got {a.shape}")
    big = np.abs(a).max()
    if not np.isfinite(big):
        raise ContractError(f"SPD {what} has non-finite entries")
    if big >= 2.0**1023:
        raise ContractError(f"SPD {what} has an entry of magnitude {big:.3e}, "
                            "2**1023 or more")
    if abs(a[0, 1] - a[1, 0]) > SYMMETRY_TOL * max(1.0, big):
        raise ContractError(f"{what} is not symmetric")
    return 0.5 * (a + a.T)


class SpdMatrix:
    """A symmetric positive-definite 2x2 matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = _symmetric2(mat, "matrix")
        # Python floats overflow to inf without a warning
        (p, q), (r, s) = mat.tolist()
        det = p * s - q * r
        if det != det:  # inf - inf: take the sign at a largest entry in [0.5, 1)
            (p, q), (r, s) = np.ldexp(mat, -np.frexp(np.abs(mat).max())[1]).tolist()
            det = p * s - q * r
        if det <= 0.0 or p + s <= 0.0:
            raise ContractError("matrix is not positive definite")
        self.mat = mat

    def __repr__(self):
        m = self.mat
        return f"SpdMatrix([[{m[0,0]:g}, {m[0,1]:g}], [{m[1,0]:g}, {m[1,1]:g}]])"


class SpdTangent:
    """A symmetric 2x2 matrix, viewed as a tangent vector."""

    __slots__ = ("sym",)

    def __init__(self, sym):
        self.sym = _symmetric2(sym, "tangent")

    def norm(self):
        return float(np.linalg.norm(self.sym))

    def __repr__(self):
        return f"SpdTangent(norm={self.norm():.3e})"


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
    return SpdMatrix(_exp_raw(p.mat, s.sym))


def spd_log(p, d):
    """Logarithm at p; defined for every SPD d (the manifold has no cut
    locus under this metric)."""
    return SpdTangent(_log_raw(p.mat, d.mat))


def spd_distance(p, d):
    """Affine-invariant geodesic distance."""
    return float(_distance_raw(p.mat, d.mat))


def _transport_factor(p, d):
    rp, rpi = sym2_roots(p)
    return rp @ sym2_sqrt(rpi @ d @ rpi) @ rpi


def spd_transport(p, d, s):
    """Parallel transport of s from T_p to T_d along the geodesic.

    An isometry of the affine-invariant metric:
    tr(D^-1 T D^-1 T) = tr(P^-1 S P^-1 S) for T the transported tangent.
    """
    e = _transport_factor(p.mat, d.mat)
    return SpdTangent(_sym(e @ s.sym @ e.T))
