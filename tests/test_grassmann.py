import numpy as np
import pytest

from shapetensors.errors import ContractError, NormalNeighborhoodError
from shapetensors.grassmann import (
    ORTHO_TOL,
    GrassmannPoint,
    check_orthonormal,
    gr_distance,
    gr_exp,
    gr_log,
    gr_transport,
)

from conftest import random_grassmann_point, random_horizontal
from oracles import integrate_geodesic, integrate_transport, subspace_gap


def _eye_point(n=4):
    x = np.zeros((n, 2))
    x[0, 0] = 1.0
    x[1, 1] = 1.0
    return GrassmannPoint(x)


# ---------------------------------------------------------------- types

def test_point_rejects_non_orthonormal():
    with pytest.raises(ContractError):
        GrassmannPoint(np.ones((4, 2)))


def _scaled_first_column(n, t):
    """e1, e2 with the first column scaled so that ||X.T X - I||_F = t."""
    x = np.zeros((n, 2))
    x[0, 0], x[1, 1] = np.sqrt(1.0 + t), 1.0
    return x


def test_point_refuses_drift_just_above_the_tolerance():
    GrassmannPoint(_scaled_first_column(5, 0.99 * ORTHO_TOL))
    with pytest.raises(ContractError, match=r"\|\|X.T X - I\|\|_F = 1.01"):
        GrassmannPoint(_scaled_first_column(5, 1.01 * ORTHO_TOL))


@pytest.mark.parametrize("bad, message", [
    (2.5, "an entry has magnitude 2.500e\\+00"),
    (-1e300, "an entry has magnitude 1.000e\\+300"),
    (np.nan, "non-finite entries"),
    (np.inf, "non-finite entries"),
])
def test_point_refuses_large_and_non_finite_entries(bad, message):
    x = _scaled_first_column(5, 0.0)
    x[3, 1] = bad
    with pytest.raises(ContractError, match=message):
        GrassmannPoint(x)


def test_orthonormality_drift_is_the_frobenius_norm(rng):
    for k in (1, 2, 5):
        a = np.linalg.qr(rng.standard_normal((9, k)))[0]
        a += 1e-9 * rng.standard_normal(a.shape)
        want = np.linalg.norm(a.T @ a - np.eye(k))
        with pytest.raises(ContractError, match=f"= {want:.3e} exceeds"):
            check_orthonormal(a)


def test_point_rejects_small_n():
    with pytest.raises(ContractError):
        GrassmannPoint(np.eye(2))


def test_tangent_rejects_non_horizontal():
    base = _eye_point()
    bad = np.zeros((4, 2))
    bad[0, 0] = 1.0  # parallel to the first basis column
    with pytest.raises(ContractError, match="tangent is not horizontal at base"):
        gr_exp(base, bad)


# ------------------------------------------------------------------ exp

def test_exp_rotates_plane_by_quarter_angle():
    # velocity pi/4 * e3 e2^T carries span{e1,e2} to span{e1,(e2+e3)/sqrt2}
    base = _eye_point(4)
    d = np.zeros((4, 2))
    d[2, 1] = np.pi / 4
    out = gr_exp(base, d)
    want = np.zeros((4, 2))
    want[0, 0] = 1.0
    want[1, 1] = want[2, 1] = 1.0 / np.sqrt(2.0)
    assert subspace_gap(out.rep, want) < 1e-12


def test_exp_zero_tangent_is_identity():
    base = _eye_point(5)
    out = gr_exp(base, np.zeros((5, 2)))
    np.testing.assert_allclose(out.rep, base.rep, atol=1e-14)


def test_exp_output_orthonormal(rng):
    for _ in range(10):
        base = random_grassmann_point(rng, n=9)
        out = gr_exp(base, random_horizontal(rng, base, scale=1.1))
        np.testing.assert_allclose(out.rep.T @ out.rep, np.eye(2), atol=1e-13)


def test_exp_matches_geodesic_ode(rng):
    # frozen oracle: numerical integration of X'' + X(X'.T X') = 0
    for n in (5, 12, 30):
        base = random_grassmann_point(rng, n=n)
        tan = random_horizontal(rng, base, scale=0.9)
        got = gr_exp(base, tan).rep
        ref = integrate_geodesic(base.rep, tan)
        assert subspace_gap(got, ref) < 1e-7


# ------------------------------------------------------------------ log

def test_log_recovers_velocity(rng):
    # Log is the exact inverse of Exp on the horizontal lift
    for scale in (1e-3, 0.4, 1.2):
        base = random_grassmann_point(rng, n=8)
        tan = random_horizontal(rng, base, scale=scale)
        target = gr_exp(base, tan)
        back = gr_log(base, target)
        np.testing.assert_allclose(back, tan, atol=1e-10)


def test_exp_log_round_trip_subspace(rng):
    for _ in range(10):
        base = random_grassmann_point(rng, n=11)
        other = random_grassmann_point(rng, n=11)
        back = gr_exp(base, gr_log(base, other))
        assert gr_distance(back, other) < 1e-8


def test_exp_log_round_trip_representative_after_procrustes(rng):
    base = random_grassmann_point(rng, n=7)
    other = random_grassmann_point(rng, n=7)
    back = gr_exp(base, gr_log(base, other))
    u, _, vt = np.linalg.svd(back.rep.T @ other.rep)
    np.testing.assert_allclose(back.rep @ (u @ vt), other.rep, atol=1e-9)


def test_log_refuses_cut_locus():
    base = _eye_point(4)
    y = np.zeros((4, 2))
    y[0, 0] = 1.0
    y[2, 1] = 1.0  # second principal angle is pi/2
    with pytest.raises(NormalNeighborhoodError):
        gr_log(base, GrassmannPoint(y))


def test_log_zero_distance_is_zero_tangent():
    base = _eye_point(6)
    out = gr_log(base, base)
    assert np.linalg.norm(out) < 1e-14


# ------------------------------------------------------------- distance

def test_distance_principal_angle_cases():
    base = _eye_point(4)
    y = np.zeros((4, 2))
    y[0, 0] = 1.0
    y[2, 1] = 1.0
    target = GrassmannPoint(y)  # angles (0, pi/2)
    assert gr_distance(base, target, metric="frobenius") == pytest.approx(np.pi / 2)
    assert gr_distance(base, target, metric="angle-sum") == pytest.approx(np.pi / 2)

    z = np.zeros((4, 2))
    z[2, 0] = 1.0
    z[3, 1] = 1.0
    ortho = GrassmannPoint(z)  # angles (pi/2, pi/2)
    assert gr_distance(base, ortho) == pytest.approx(np.pi / 2 * np.sqrt(2.0))
    assert gr_distance(base, ortho, metric="angle-sum") == pytest.approx(np.pi)


def test_distance_symmetry_and_identity(rng):
    a = random_grassmann_point(rng, n=10)
    b = random_grassmann_point(rng, n=10)
    assert gr_distance(a, a) < 1e-9
    assert gr_distance(a, b) == pytest.approx(gr_distance(b, a), abs=1e-12)


def test_distance_matches_tangent_norm(rng):
    base = random_grassmann_point(rng, n=9)
    tan = random_horizontal(rng, base, scale=0.7)
    target = gr_exp(base, tan)
    assert gr_distance(base, target) == pytest.approx(0.7, abs=1e-10)


def test_distance_representative_invariance(rng):
    a = random_grassmann_point(rng, n=8)
    b = random_grassmann_point(rng, n=8)
    th = 0.83
    rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    a2 = GrassmannPoint(a.rep @ rot)
    assert gr_distance(a2, b) == pytest.approx(gr_distance(a, b), abs=1e-12)


# ------------------------------------------------------------ transport

def test_transport_matches_ode_oracle(rng):
    for n in (6, 15):
        base = random_grassmann_point(rng, n=n)
        gdir = random_horizontal(rng, base, scale=0.8)
        pay = random_horizontal(rng, base, scale=1.3)
        got = gr_transport(base, gdir, 1.0, pay)
        ref = integrate_transport(base.rep, gdir, pay)
        np.testing.assert_allclose(got, ref, atol=1e-7)


def test_transport_isometry(rng):
    for _ in range(10):
        base = random_grassmann_point(rng, n=12)
        gdir = random_horizontal(rng, base, scale=1.0)
        pay = random_horizontal(rng, base, scale=2.3)
        out = gr_transport(base, gdir, 1.0, pay)
        assert abs(np.linalg.norm(out) - np.linalg.norm(pay)) < 1e-10


def test_transport_of_velocity_keeps_singular_values(rng):
    base = random_grassmann_point(rng, n=10)
    gdir = random_horizontal(rng, base, scale=0.9)
    out = gr_transport(base, gdir, 1.0, gdir)
    s_in = np.linalg.svd(gdir, compute_uv=False)
    s_out = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(s_out, s_in, atol=1e-10)


def test_transport_zero_direction_is_identity(rng):
    base = random_grassmann_point(rng, n=8)
    zero = np.zeros((8, 2))
    pay = random_horizontal(rng, base, scale=0.5)
    out = gr_transport(base, zero, 1.0, pay)
    np.testing.assert_allclose(out, pay, atol=1e-13)


def test_transport_horizontal_at_arrival(rng):
    base = random_grassmann_point(rng, n=9)
    gdir = random_horizontal(rng, base, scale=0.7)
    pay = random_horizontal(rng, base, scale=1.0)
    out = gr_transport(base, gdir, 1.0, pay)
    arrival = gr_exp(base, gdir)
    assert np.linalg.norm(arrival.rep.T @ out) < 1e-10


def test_transport_back_trace(rng):
    # transporting forward then backward along the reversed geodesic
    base = random_grassmann_point(rng, n=10)
    gdir = random_horizontal(rng, base, scale=0.8)
    pay = random_horizontal(rng, base, scale=1.7)
    fwd = gr_transport(base, gdir, 1.0, pay)
    arrival = gr_exp(base, gdir)
    rdir = gr_log(arrival, base)
    back = gr_transport(arrival, rdir, 1.0, fwd)
    np.testing.assert_allclose(back, pay, atol=1e-9)
