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

The raw-array kernels broadcast over leading (..., 2, 2) axes.
"""

import numpy as np

from .errors import ContractError
from .linalg import eigh2, mT, sym2_exp, sym2_log, sym2_sqrt

SYMMETRY_TOL = 1e-14
# Largest entry of P^(-1/2) S P^(-1/2) below which Exp takes its matrix
# exponential from the cubic Taylor polynomial (relative truncation error
# below 5e-18).  eigh2 reads so small a matrix as a double eigenvalue and
# would drop its off-diagonal, which stalls a Karcher step below 1e-12.
EXP_SERIES_MAX = 1e-4


class SpdMatrix:
    """A symmetric positive-definite 2x2 matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (2, 2):
            raise ContractError(f"SPD matrix must be 2x2, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ContractError("SPD matrix has non-finite entries")
        if abs(mat[0, 1] - mat[1, 0]) > SYMMETRY_TOL * max(
            1.0, np.max(np.abs(mat))
        ):
            raise ContractError("matrix is not symmetric")
        mat = 0.5 * (mat + mat.T)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if det <= 0.0 or mat[0, 0] + mat[1, 1] <= 0.0:
            raise ContractError("matrix is not positive definite")
        self.mat = mat

    def __repr__(self):
        m = self.mat
        return f"SpdMatrix([[{m[0,0]:g}, {m[0,1]:g}], [{m[1,0]:g}, {m[1,1]:g}]])"


class SpdTangent:
    """A symmetric 2x2 matrix, viewed as a tangent vector."""

    __slots__ = ("sym",)

    def __init__(self, sym):
        sym = np.asarray(sym, dtype=float)
        if sym.shape != (2, 2):
            raise ContractError(f"SPD tangent must be 2x2, got {sym.shape}")
        if not np.all(np.isfinite(sym)):
            raise ContractError("SPD tangent has non-finite entries")
        if abs(sym[0, 1] - sym[1, 0]) > SYMMETRY_TOL * max(
            1.0, np.max(np.abs(sym))
        ):
            raise ContractError("tangent is not symmetric")
        self.sym = 0.5 * (sym + sym.T)

    def norm(self):
        return float(np.linalg.norm(self.sym))

    def __repr__(self):
        return f"SpdTangent(norm={self.norm():.3e})"


def _sym(a):
    return 0.5 * (a + mT(a))


def _roots(p):
    """P^(1/2) and P^(-1/2) from one eigendecomposition of P."""
    w, q = eigh2(p)
    root = np.sqrt(w)[..., None, :]
    return (q * root) @ mT(q), (q * (1.0 / root)) @ mT(q)


def _exp_raw(p, s):
    rp, rpi = _roots(p)
    t = rpi @ s @ rpi
    small = np.abs(t).max(axis=(-2, -1)) < EXP_SERIES_MAX
    t2 = t @ t
    series = np.eye(2) + t + t2 / 2.0 + (t2 @ t) / 6.0
    return _sym(rp @ np.where(small[..., None, None], series, sym2_exp(t)) @ rp)


def _log_raw(p, d):
    rp, rpi = _roots(p)
    return _sym(rp @ sym2_log(rpi @ d @ rpi) @ rp)


def _distance_raw(p, d):
    """Distances between (..., 2, 2) stacks of SPD matrices."""
    _, rpi = _roots(p)
    return np.linalg.norm(sym2_log(_sym(rpi @ d @ rpi)), axis=(-2, -1))


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
    rp, rpi = _roots(p)
    return rp @ sym2_sqrt(_sym(rpi @ d @ rpi)) @ rpi


def spd_transport(p, d, s):
    """Parallel transport of s from T_p to T_d along the geodesic.

    An isometry of the affine-invariant metric:
    tr(D^-1 T D^-1 T) = tr(P^-1 S P^-1 S) for T the transported tangent.
    """
    e = _transport_factor(p.mat, d.mat)
    return SpdTangent(_sym(e @ s.sym @ e.T))
