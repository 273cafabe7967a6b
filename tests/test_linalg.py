import numpy as np
import pytest

from shapetensors import linalg
from shapetensors.linalg import (
    fix_svd_signs,
    inv2,
    polar_orthonormalize,
    rotation2,
    sym2_exp,
    sym2_log,
    sym2_sqrt,
    thin_svd,
)


def test_sym2_functions_invert(rng):
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        p = a @ a.T + 0.3 * np.eye(2)
        r = sym2_sqrt(p)
        np.testing.assert_allclose(r @ r, p, atol=1e-12)
        np.testing.assert_allclose(sym2_exp(sym2_log(p)), p, atol=1e-11)


def test_thin_svd_reconstructs_and_is_deterministic(rng):
    a = rng.standard_normal((9, 2))
    u, s, vt = thin_svd(a)
    np.testing.assert_allclose(u @ (s[:, None] * vt), a, atol=1e-12)
    assert s[0] >= s[1] >= 0.0
    u2, s2, vt2 = thin_svd(a.copy())
    assert np.array_equal(u, u2) and np.array_equal(vt, vt2)
    # sign convention: first non-negligible entry of each left vector positive
    for i in range(2):
        lead = u[np.abs(u[:, i]) > 1e-12, i][0]
        assert lead > 0


def test_fix_svd_signs_flips_consistently():
    u = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    vt = np.eye(2)
    prod = u @ vt
    fix_svd_signs(u, vt)
    assert u[0, 0] > 0
    np.testing.assert_allclose(u @ vt, prod, atol=1e-15)


def test_inv2(rng):
    a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    np.testing.assert_allclose(inv2(a) @ a, np.eye(2), atol=1e-12)


def test_polar_orthonormalize(rng):
    q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
    y = q + 1e-8 * rng.standard_normal((7, 2))
    z = polar_orthonormalize(y)
    np.testing.assert_allclose(z.T @ z, np.eye(2), atol=1e-14)
    assert np.linalg.norm(z - y) < 1e-7


def test_polar_orthonormalize_scrubs_a_tiny_drift(rng):
    # a Gram of I plus a 3e-13 off-diagonal: nearly a double eigenvalue,
    # whose off-diagonal must still be removed
    q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
    y = q @ np.array([[1.0, 1.5e-13], [1.5e-13, 1.0]])
    assert abs((y.T @ y)[0, 1]) > 2e-13
    z = polar_orthonormalize(y)
    assert np.abs(z.T @ z - np.eye(2)).max() < 1e-15


def test_rotation2_quarter_turn():
    np.testing.assert_allclose(
        rotation2(np.pi / 2), np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15
    )


def test_rotation2_is_the_explicit_matrix():
    theta = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
    c, s = np.cos(theta), np.sin(theta)
    want = np.moveaxis(np.array([[c, s], [-s, c]]), (0, 1), (-2, -1))
    assert rotation2(theta).tobytes() == np.ascontiguousarray(want).tobytes()
    c, s = np.cos(0.3), np.sin(0.3)
    assert rotation2(0.3).tobytes() == np.array([[c, s], [-s, c]]).tobytes()


def test_one_blas_thread_sets_one_and_restores_the_count(monkeypatch):
    found = linalg._openblas_threads()
    if found is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    get, set_threads = found
    old = get()
    try:
        set_threads(2)
        with linalg.one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(ValueError), linalg.one_blas_thread():
            raise ValueError
        assert get() == 2
    finally:
        set_threads(old)
    # without a setter the block runs as it is
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    with linalg.one_blas_thread():
        assert get() == old
