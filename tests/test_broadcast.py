"""Stacked calls of the broadcasting kernels equal per-item oracle calls.

The oracles (tests/oracles.py) are the scalar kernels the broadcasting
ones replaced, the per-shape standardization and the per-station
clustering loop.  Each property draws a stack mixing generic inputs with
the hard cases: tangents shrinking to zero, equal or nearly equal singular
values, principal angles close to pi/2, 2x2 matrices that are exactly
diagonal with a double eigenvalue, and collinear or overflowing landmarks.
The 2x2 Gram closed forms of the Grassmann Exp and Log are also checked
against the SVD forms they replaced, near the cut locus (tan theta_1 up to
1e6), on tangents down to 1e-9 and at the normal-neighborhood ceiling, and
the principal angles against their SVD form.  The 2x2 matrix functions are
checked against scipy's expm, sqrtm and logm, on matrices down to 1e-13.
The rank-r thin SVD is checked against the full one truncated, on
matrices wide, square and tall, graded down to s_r/s_1 = 1e-6,
rank-deficient or zero, and with repeated singular values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm, sqrtm

import oracles
from shapetensors.blade import cluster_representatives
from shapetensors.errors import (
    ContractError,
    DegenerateGeometryError,
    NormalNeighborhoodError,
)
from shapetensors.grassmann import (
    _exp_raw,
    _log_raw,
    _transport_raw,
    principal_angles,
)
from shapetensors.linalg import (
    SIGN_TOL,
    mT,
    rotation2,
    sym2_exp,
    sym2_inv_sqrt,
    sym2_log,
    sym2_sqrt,
    thin_svd,
)
from shapetensors.shapes import _standardize_raw, la_standardize
from shapetensors.spd import _distance_raw, _transport_factor
from shapetensors.spd import _exp_raw as spd_exp_raw
from shapetensors.spd import _log_raw as spd_log_raw

PROPERTY = settings(max_examples=40, deadline=None)
TANGENT_CASES = ("generic", "zero", "tiny", "equal-sigma", "near-equal-sigma",
                 "near-cut")
SYM_CASES = ("generic", "double", "near-double", "tiny-offdiag")
SHAPE_CASES = ("generic", "offset", "tiny", "huge", "anisotropic")
DEGENERATE_CASES = ("collinear", "overflow")
SPECTRUM_CASES = ("generic", "graded", "repeated", "rank-deficient", "zero")

seeds = st.integers(0, 2**32 - 1)
stack_sizes = st.integers(1, 5)


def _base(rng, n):
    return np.linalg.qr(rng.standard_normal((n, 2)))[0]


def _lift(rng, x, sigma):
    """A horizontal tangent at x with singular values sigma."""
    n = x.shape[0]
    # orthonormal horizontal frame u and a rotation v
    u = np.linalg.qr(np.column_stack([x, rng.standard_normal((n, 2))]))[0][:, 2:]
    return (u * sigma) @ rotation2(rng.uniform(0.0, 2.0 * np.pi))


def _tangent(rng, x, case):
    """A horizontal tangent at x of the given kind."""
    top = rng.uniform(0.1, 1.4)
    sigma = {
        "generic": [top, rng.uniform(0.0, top)],
        "zero": [0.0, 0.0],
        "tiny": [1e-9 * top, 1e-12 * top],
        "equal-sigma": [top, top],
        "near-equal-sigma": [top, top * (1.0 - 1e-13)],
        "near-cut": [np.pi / 2 - 10.0 ** rng.uniform(-7, -2), rng.uniform(0.0, 1.0)],
    }[case]
    return _lift(rng, x, sigma)


def _tangents(rng, x, cases):
    return np.stack([_tangent(rng, x, c) for c in cases])


def _sym(rng, case, scale=1.0):
    """A symmetric 2x2 of the given kind; "tiny" has entries below 1e-12."""
    c = rng.uniform(-2.0, 2.0) * scale
    if case == "double":
        return c * np.eye(2)
    if case == "near-double":
        return np.diag([c, c + 1e-13])
    if case == "tiny-offdiag":
        return np.array([[c, 1e-17], [1e-17, c + 0.5]])
    a = rng.standard_normal((2, 2)) * scale * (1e-13 if case == "tiny" else 1.0)
    return 0.5 * (a + a.T)


def _spd(rng, case):
    if case in ("generic", "tiny"):
        a = rng.standard_normal((2, 2))
        return (a @ a.T + 0.2 * np.eye(2)) * (1e-13 if case == "tiny" else 1.0)
    return sym2_exp(_sym(rng, case))


def _landmarks(rng, n, case):
    """An (n, 2) landmark matrix of the given kind."""
    if case == "collinear":
        t = rng.standard_normal(n)
        return np.column_stack([t, rng.uniform(-2.0, 2.0) * t]) + rng.standard_normal(2)
    if case == "overflow":  # finite, but the coordinate sums overflow
        return 1.5e308 + 1e307 * rng.uniform(size=(n, 2))
    x = rng.standard_normal((n, 2))
    scale = {"generic": 1.0, "offset": 1.0, "tiny": 1e-100, "huge": 1e150,
             "anisotropic": np.array([1.0, 1e-6])}[case]
    return x * scale + (1e6 * rng.standard_normal(2) if case == "offset" else 0.0)


def _spectrum(rng, k, r, case):
    """k descending singular values of the given kind."""
    top = 10.0 ** rng.uniform(-3.0, 3.0)
    if case == "zero":
        return np.zeros(k)
    if case == "graded":  # s_r / s_1 = 10**-e, the tail below s_r
        head = 10.0 ** -np.linspace(0.0, rng.uniform(0.0, 6.0), r)
        tail = head[-1] * 10.0 ** -rng.uniform(0.1, 3.0, k - r)
        return top * np.sort(np.concatenate([head, tail]))[::-1]
    s = np.sort(rng.uniform(0.01, 1.0, k))[::-1]
    if case == "repeated":  # runs of equal values, anywhere around r
        s = np.sort(rng.choice(s[:3], size=k))[::-1]
    if case == "rank-deficient":
        s[rng.integers(0, k):] = 0.0
    return top * s


def _matrix(rng, m, n, r, case):
    """An m x n matrix U diag(s) V^T with random orthonormal U and V."""
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * _spectrum(rng, k, r, case)) @ v.T


def _chain(rng, n, count, reflect):
    """Representatives of a chain of nearby 2-planes, each in a random
    right frame (a reflection in half of them when ``reflect``)."""
    x = _base(rng, n)
    reps = []
    for _ in range(count):
        frame = rotation2(rng.uniform(0.0, 2.0 * np.pi))
        if reflect and rng.random() < 0.5:
            frame = frame @ np.diag([1.0, -1.0])
        reps.append(x @ frame)
        # principal angles kept apart, so the SO(2) solution is well posed
        top = rng.uniform(0.2, 0.6)
        x = _exp_raw(x, _lift(rng, x, [top, rng.uniform(0.0, 0.5) * top]))
    return np.stack(reps)


def _close(got, want, scale=1.0):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * scale)


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9),
       cases=st.lists(st.sampled_from(TANGENT_CASES), min_size=1, max_size=5))
def test_grassmann_exp_and_log(seed, n, cases):
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    d = _tangents(rng, x, cases)
    ys = _exp_raw(x, d)  # one base against a stack
    _close(ys, np.stack([oracles.gr_exp_raw(x, dk) for dk in d]))
    xs = np.stack([_base(rng, n) for _ in cases])
    d2 = np.stack([_tangent(rng, xk, c) for xk, c in zip(xs, cases)])
    _close(_exp_raw(xs, d2),  # a stack against a stack
           np.stack([oracles.gr_exp_raw(xk, dk) for xk, dk in zip(xs, d2)]))
    want = [oracles.gr_log_raw(x, y) for y in ys]
    if any(w is None for w in want):
        with pytest.raises(NormalNeighborhoodError) as err:
            _log_raw(x, ys)
        assert err.value.index == (next(k for k, w in enumerate(want) if w is None),)
        return
    got = _log_raw(x, ys)
    # Log is ill-conditioned near the cut locus; both sides run the same
    # arithmetic, so the comparison stays tight relative to cond(X^T Y)
    cond = max(np.linalg.cond(x.T @ y) for y in ys)
    _close(got, np.stack(want), scale=cond)
    _close(_log_raw(x, ys[0]), want[0], scale=cond)  # one pair


def _close_rows(got, want, conds):
    for g, w, c in zip(got, want, conds):
        _close(g, w, scale=c)


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9),
       second=st.lists(st.sampled_from(("generic", "tiny", "zero")),
                       min_size=6, max_size=6))
def test_grassmann_log_near_the_cut_locus_equals_svd(seed, n, second):
    # tan(theta_1) = 1e1 ... 1e6: past the Gram's reach the singular values
    # come from column norms
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    d = np.stack([
        _lift(rng, x, [np.arctan(10.0**e),
                       {"generic": rng.uniform(0.0, 1.2), "tiny": 1e-9,
                        "zero": 0.0}[kind]])
        for e, kind in zip(range(1, 7), second)
    ])
    ys = oracles.gr_exp_svd(x, d)
    conds = [np.linalg.cond(x.T @ y) for y in ys]
    _close_rows(_log_raw(x, ys), oracles.gr_log_svd(x, ys), conds)
    _close(_log_raw(x, ys[-1]), oracles.gr_log_svd(x, ys[-1]), scale=conds[-1])


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9), size=st.floats(-9.0, -6.0),
       equal=st.booleans(), count=stack_sizes)
def test_grassmann_tiny_tangents_equal_svd(seed, n, size, equal, count):
    # ||D|| from 1e-6 down to 1e-9, where a Gram's entries are 1e-12 to
    # 1e-18: an absolute double-eigenvalue test would drop its off-diagonal
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    top = 10.0**size
    d = np.stack([_lift(rng, x, [top, top if equal else rng.uniform(0.0, top)])
                  for _ in range(count)])
    ys = _exp_raw(x, d)
    _close(ys, oracles.gr_exp_svd(x, d))
    _close(_log_raw(x, ys), oracles.gr_log_svd(x, ys))


def _target_with_cond(rng, x, cond):
    """A representative y whose 2x2 X^T Y has condition number ``cond``."""
    n = x.shape[0]
    u = np.linalg.qr(np.column_stack([x, rng.standard_normal((n, 2))]))[0][:, 2:]
    c = np.cos(rng.uniform(0.0, 1.0)) * np.array([1.0, 1.0 / cond])
    y = x * c + u * np.sqrt(1.0 - c**2)
    return y @ rotation2(rng.uniform(0.0, 2.0 * np.pi))


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9),
       conds=st.lists(st.sampled_from((1e2, 1e11, 1e13)), min_size=1, max_size=6))
def test_neighborhood_refusal_equals_svd(seed, n, conds):
    # cond(X^T Y) = 1e11 is inside the 1e12 ceiling and 1e13 outside
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    ys = np.stack([_target_with_cond(rng, x, c) for c in conds])
    if 1e13 in conds:
        with pytest.raises(NormalNeighborhoodError) as want:
            oracles.gr_log_svd(x, ys)
        with pytest.raises(NormalNeighborhoodError) as got:
            _log_raw(x, ys)
        assert got.value.index == want.value.index == (conds.index(1e13),)
        return
    _close_rows(_log_raw(x, ys), oracles.gr_log_svd(x, ys), conds)


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9), t=st.floats(-1.5, 1.5),
       cases=st.lists(st.sampled_from(TANGENT_CASES), min_size=1, max_size=5))
def test_grassmann_transport(seed, n, t, cases):
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    d = _tangents(rng, x, cases)
    g = _tangents(rng, x, ["generic"] * len(cases))
    want = np.stack([oracles.gr_transport_raw(x, dk, t, gk)
                     for dk, gk in zip(d, g)])
    _close(_transport_raw(x, d, t, g), want)
    # one direction carrying a stack of payloads
    _close(_transport_raw(x, d[0], t, g),
           np.stack([oracles.gr_transport_raw(x, d[0], t, gk) for gk in g]))


ANGLE_CASES = ("generic", "tiny", "zero", "right")


@PROPERTY
@given(seed=seeds, n=st.integers(4, 9),
       cases=st.lists(st.sampled_from(ANGLE_CASES), min_size=2, max_size=2))
def test_principal_angles_equal_svd(seed, n, cases):
    # tiny angles next to large ones, both zero, and pi/2; the angles are
    # absolute, so the tolerance is too
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    theta = [{"generic": rng.uniform(0.0, np.pi / 2),
              "tiny": 10.0 ** rng.uniform(-14.0, -8.0),
              "zero": 0.0, "right": np.pi / 2}[c] for c in cases]
    u = np.linalg.qr(np.column_stack([x, rng.standard_normal((n, 2))]))[0][:, 2:]
    y = x * np.cos(theta) + u * np.sin(theta)
    y = y @ rotation2(rng.uniform(0.0, 2.0 * np.pi))
    got = principal_angles(x, y)
    np.testing.assert_allclose(got, oracles.principal_angles_svd(x, y),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(got, np.sort(theta), rtol=0.0, atol=1e-14)


@PROPERTY
@given(seed=seeds, cases=st.lists(st.sampled_from(SYM_CASES + ("tiny",)),
                                  min_size=1, max_size=6))
@pytest.mark.filterwarnings("ignore:logm result may be inaccurate")
def test_sym2_functions_match_scipy(seed, cases):
    rng = np.random.default_rng(seed)
    a = np.stack([_sym(rng, c) for c in cases])
    _close(sym2_exp(a), np.stack([expm(ak) for ak in a]))
    p = np.stack([_spd(rng, c) for c in cases])
    for mine, theirs in ((sym2_sqrt, sqrtm),
                         (sym2_inv_sqrt, lambda pk: np.linalg.inv(sqrtm(pk))),
                         (sym2_log, logm)):
        _close(mine(p), np.stack([theirs(pk) for pk in p]))


@PROPERTY
@given(seed=seeds, cases=st.lists(st.sampled_from(SYM_CASES), min_size=1,
                                  max_size=6))
def test_spd_exp_log_transport(seed, cases):
    rng = np.random.default_rng(seed)
    p = np.stack([_spd(rng, c) for c in cases])
    d = np.stack([_spd(rng, c) for c in reversed(cases)])
    s = np.stack([_sym(rng, c, scale=0.5) for c in cases])
    pairs = list(zip(p, d))
    _close(spd_log_raw(p, d),
           np.stack([oracles.spd_log_raw(pk, dk) for pk, dk in pairs]))
    _close(spd_log_raw(p[0], d),  # one base against a stack
           np.stack([oracles.spd_log_raw(p[0], dk) for dk in d]))
    _close(spd_exp_raw(p, s),
           np.stack([oracles.spd_exp_raw(pk, sk) for pk, sk in zip(p, s)]))
    _close(_transport_factor(p, d),
           np.stack([oracles.spd_transport_factor(pk, dk) for pk, dk in pairs]))
    _close(_distance_raw(p, d),
           [oracles.spd_distance_raw(pk, dk) for pk, dk in pairs])


@given(count=stack_sizes)
@settings(max_examples=5, deadline=None)
def test_first_point_outside_is_reported(count):
    x = np.eye(4)[:, :2]
    ys = np.stack([np.eye(4)[:, [0, 2]]] * (count + 1))  # pi/2 from x
    ys[0] = x
    with pytest.raises(NormalNeighborhoodError) as err:
        _log_raw(x, ys)
    assert err.value.index == (1,)
    with pytest.raises(NormalNeighborhoodError) as err:
        _log_raw(x, ys[1])
    assert err.value.index == ()


def _same_bits(got, want):
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@PROPERTY
@given(seed=seeds, n=st.integers(3, 40), variant=st.sampled_from(("gl2", "polar")),
       cases=st.lists(st.sampled_from(SHAPE_CASES), min_size=1, max_size=5))
def test_standardize_stack_equals_per_shape(seed, n, variant, cases):
    rng = np.random.default_rng(seed)
    pts = np.stack([_landmarks(rng, n, c) for c in cases])
    rep, m, b = _standardize_raw(pts, variant)
    for k, x in enumerate(pts):
        want = oracles.la_standardize(x, variant)
        one = la_standardize(x, variant)  # the batch-of-one wrapper
        for got, ref in ((rep[k], want.grass.rep), (m[k], want.affine.m),
                         (b[k], want.affine.b), (one.grass.rep, want.grass.rep),
                         (one.affine.m, want.affine.m), (one.affine.b, want.affine.b)):
            _same_bits(got, ref)
    # more than one leading axis
    for got, ref in zip(_standardize_raw(pts[:, None], variant), (rep, m, b)):
        _same_bits(got[:, 0], ref)


@PROPERTY
@given(seed=seeds, n=st.integers(3, 12), variant=st.sampled_from(("gl2", "polar")),
       cases=st.lists(st.sampled_from(("generic", "offset") + DEGENERATE_CASES),
                      min_size=1, max_size=6))
def test_standardize_reports_first_degenerate_shape(seed, n, variant, cases):
    rng = np.random.default_rng(seed)
    pts = np.stack([_landmarks(rng, n, c) for c in cases])

    def refused(x):
        try:
            oracles.la_standardize(x, variant)
        except (ContractError, DegenerateGeometryError, np.linalg.LinAlgError):
            return True
        return False

    with np.errstate(over="ignore", invalid="ignore"):
        bad = [k for k, x in enumerate(pts) if refused(x)]
        assert bad == [k for k, c in enumerate(cases) if c in DEGENERATE_CASES]
        if not bad:
            _standardize_raw(pts, variant)
            return
        with pytest.raises(DegenerateGeometryError) as err:
            _standardize_raw(pts, variant)
        assert err.value.index == (bad[0],)
        with pytest.raises(DegenerateGeometryError) as err:
            la_standardize(pts[bad[0]], variant)
        assert err.value.index == ()


@PROPERTY
@given(seed=seeds, n=st.integers(3, 12), count=st.integers(2, 8),
       direction=st.sampled_from(("tip-to-root", "root-to-tip")),
       allow_reflection=st.booleans(), reflect=st.booleans())
def test_cluster_chain_equals_per_station_loop(seed, n, count, direction,
                                               allow_reflection, reflect):
    rng = np.random.default_rng(seed)
    reps = _chain(rng, n, count, reflect)
    aligned, rotations = cluster_representatives(reps, direction, allow_reflection)
    want, want_rot = oracles.cluster_representatives(reps, direction,
                                                     allow_reflection)
    np.testing.assert_allclose(aligned, np.stack([p.rep for p in want]),
                               rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(rotations, np.stack(want_rot), rtol=0.0, atol=1e-13)


@PROPERTY
@given(seed=seeds, side=st.sampled_from(("wide", "square", "tall")),
       small=st.integers(1, 8), extra=st.integers(1, 16), r=st.integers(1, 8),
       cases=st.lists(st.sampled_from(SPECTRUM_CASES), min_size=1, max_size=3))
def test_rank_r_svd_equals_truncated_full_svd(seed, side, small, extra, r, cases):
    rng = np.random.default_rng(seed)
    big = small if side == "square" else small + extra
    m, n = (small, big) if side == "wide" else (big, small)
    r = min(r, small)
    a = np.stack([_matrix(rng, m, n, r, c) for c in cases])
    u, s, vt = thin_svd(a, r)  # one stacked call
    assert (u.shape, s.shape, vt.shape) == ((len(cases), m, r),
                                            (len(cases), r), (len(cases), r, n))
    for k, ak in enumerate(a):
        uk, sk, vk = u[k], s[k], vt[k]
        full = np.linalg.svd(ak, compute_uv=False)
        uo, so, vo = oracles.truncated_svd(ak, r)
        tol = 1e-12 * full[0]
        np.testing.assert_allclose(sk, so, rtol=0.0, atol=tol)
        assert np.all(np.diff(sk) <= 0.0) and np.all(sk >= 0.0)
        np.testing.assert_allclose(mT(uk) @ uk, np.eye(r), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(vk @ mT(vk), np.eye(r), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(mT(uk) @ ak, sk[:, None] * vk, rtol=0.0, atol=tol)
        # the rank-r reconstruction is as close to a as the truncated one
        assert (np.linalg.norm(ak - (uk * sk) @ vk)
                <= np.linalg.norm(ak - (uo * so) @ vo) + tol)
        # leading subspaces agree where the gap after them defines them
        # (repeated values leave the vectors inside a run free)
        gaps = full[:r] - np.append(full[1:], 0.0)[:r]
        for j in np.flatnonzero(gaps > 1e-3 * full[0]) + 1:
            assert oracles.subspace_gap(uk[:, :j], uo[:, :j]) <= tol / gaps[j - 1]
        # the sign convention: first component above SIGN_TOL is positive
        anchor = (np.abs(uk) > SIGN_TOL).argmax(axis=0)
        assert np.all(uk[anchor, np.arange(r)] > 0.0)
