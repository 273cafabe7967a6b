import numpy as np
import pytest

from shapetensors.errors import ContractError
from shapetensors.spd import (
    SpdMatrix,
    SpdTangent,
    spd_distance,
    spd_exp,
    spd_log,
    spd_transport,
)

from conftest import random_spd, random_sym


def _metric(p, s, t):
    """Affine-invariant inner product <s, t>_p."""
    pinv = np.linalg.inv(p.mat)
    return float(np.trace(pinv @ s.sym @ pinv @ t.sym))


# ---------------------------------------------------------------- types

def test_rejects_non_spd():
    with pytest.raises(ContractError):
        SpdMatrix(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(ContractError):
        SpdMatrix(np.array([[1.0, 3.0], [3.0, 1.0]]))  # indefinite
    with pytest.raises(ContractError):
        SpdMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))  # asymmetric


@pytest.mark.parametrize("mat", [
    [[1e200, 2e200], [2e200, 1e200]],  # eigenvalues 3e200 and -1e200
    [[1e200, 1e200], [1e200, 1e200]],  # singular
], ids=["indefinite", "singular"])
def test_rejects_non_spd_whose_determinant_overflows(mat):
    """p s and q r both overflow, and inf - inf is NaN: the sign of the
    determinant is taken from the matrix scaled down."""
    with pytest.raises(ContractError, match="not positive definite"):
        SpdMatrix(mat)


def test_accepts_spd_whose_determinant_overflows():
    mat = np.array([[1e200, 0.5e200], [0.5e200, 1e200]])
    assert np.array_equal(SpdMatrix(mat).mat, mat)


def test_rejects_asymmetric_tangent():
    with pytest.raises(ContractError):
        SpdTangent(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ----------------------------------------------------- closed-form cases

def test_exp_at_identity_is_matrix_exp():
    out = spd_exp(SpdMatrix(np.eye(2)), SpdTangent(np.diag([np.log(4.0), 0.0])))
    np.testing.assert_allclose(out.mat, np.diag([4.0, 1.0]), atol=1e-12)


def test_log_at_identity_is_matrix_log():
    out = spd_log(SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 1.0])))
    np.testing.assert_allclose(out.sym, np.diag([np.log(4.0), 0.0]), atol=1e-12)


def test_log_diagonal_base():
    # P = diag(4,1), D = I: P^(1/2) log(P^(-1/2) P^(-1/2)) P^(1/2)
    out = spd_log(SpdMatrix(np.diag([4.0, 1.0])), SpdMatrix(np.eye(2)))
    np.testing.assert_allclose(out.sym, np.diag([-4.0 * np.log(4.0), 0.0]), atol=1e-12)


def test_distance_identity_to_diagonal():
    d = spd_distance(SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 1.0])))
    assert d == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_transport_identity_to_diagonal():
    # E = (D I^-1)^(1/2) = diag(2,1); E diag(1,0) E^T = diag(4,0)
    out = spd_transport(
        SpdMatrix(np.eye(2)),
        SpdMatrix(np.diag([4.0, 1.0])),
        SpdTangent(np.diag([1.0, 0.0])),
    )
    np.testing.assert_allclose(out.sym, np.diag([4.0, 0.0]), atol=1e-12)


# ------------------------------------------------------------ round trip

def test_exp_log_round_trip(rng):
    for _ in range(20):
        p = random_spd(rng)
        d = random_spd(rng)
        back = spd_exp(p, spd_log(p, d))
        np.testing.assert_allclose(back.mat, d.mat, atol=1e-10)


def test_log_exp_round_trip(rng):
    for _ in range(20):
        p = random_spd(rng)
        s = random_sym(rng, scale=0.8)
        back = spd_log(p, spd_exp(p, s))
        np.testing.assert_allclose(back.sym, s.sym, atol=1e-10)


def test_distance_equals_log_norm(rng):
    p = random_spd(rng)
    d = random_spd(rng)
    s = spd_log(p, d)
    assert spd_distance(p, d) == pytest.approx(np.sqrt(_metric(p, s, s)), abs=1e-10)


# ------------------------------------------------------------ invariance

def test_congruence_invariance_of_distance(rng):
    for _ in range(20):
        p = random_spd(rng)
        d = random_spd(rng)
        a = rng.standard_normal((2, 2))
        while abs(np.linalg.det(a)) < 0.2:
            a = rng.standard_normal((2, 2))
        ref = spd_distance(p, d)
        got = spd_distance(SpdMatrix(a @ p.mat @ a.T), SpdMatrix(a @ d.mat @ a.T))
        assert got == pytest.approx(ref, rel=1e-9)


def test_geodesic_midpoint_from_identity(rng):
    # Exp_I(0.5 Log_I(D)) is the principal square root of D
    d = random_spd(rng)
    half = spd_log(SpdMatrix(np.eye(2)), d)
    mid = spd_exp(SpdMatrix(np.eye(2)), SpdTangent(0.5 * half.sym))
    np.testing.assert_allclose(mid.mat @ mid.mat, d.mat, atol=1e-10)


# ------------------------------------------------------------- transport

def test_transport_is_metric_isometry(rng):
    for _ in range(20):
        p = random_spd(rng)
        d = random_spd(rng)
        s = random_sym(rng)
        t = random_sym(rng)
        st = spd_transport(p, d, s)
        tt = spd_transport(p, d, t)
        assert _metric(d, st, tt) == pytest.approx(_metric(p, s, t), rel=1e-10, abs=1e-10)


def test_transport_identity_path(rng):
    p = random_spd(rng)
    s = random_sym(rng)
    out = spd_transport(p, p, s)
    np.testing.assert_allclose(out.sym, s.sym, atol=1e-12)


def test_transport_of_velocity_reverses(rng):
    # carrying Log_p(d) to d gives -Log_d(p)
    p = random_spd(rng)
    d = random_spd(rng)
    v = spd_log(p, d)
    out = spd_transport(p, d, v)
    back = spd_log(d, p)
    np.testing.assert_allclose(out.sym, -back.sym, atol=1e-10)


def test_exp_of_a_tiny_tangent_keeps_its_off_diagonal(rng):
    # P^-1/2 S P^-1/2 below 1e-12 has nearly equal eigenvalues; its
    # off-diagonal must survive, Exp_P(S) = P + S + O(|S|^2) moving P
    # along all of S
    for scale in (1e-9, 1e-12, 1e-13, 1e-15):
        p, s = random_spd(rng), random_sym(rng, scale)
        moved = spd_exp(p, s).mat - p.mat
        np.testing.assert_allclose(moved, s.sym, rtol=0.0,
                                   atol=1e-14 + 1e-6 * np.abs(s.sym).max())
