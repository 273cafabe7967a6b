"""Stacked calls of the broadcasting kernels equal per-item oracle calls.

The oracles (tests/oracles.py) are the scalar kernels the broadcasting
ones replaced, the per-shape standardization and the per-station
clustering loop.  A blade built from the clustering loop anchored at the
root has the sections of the library's tip-anchored blade.  Each property draws a stack mixing generic inputs with
the hard cases: tangents shrinking to zero, equal or nearly equal singular
values, principal angles close to pi/2, 2x2 matrices that are exactly
diagonal with a double eigenvalue, and collinear or overflowing landmarks.
The 2x2 Gram closed forms of the Grassmann Exp and Log are also checked
against the SVD forms they replaced, near the cut locus (tan theta_1 up to
1e6), on tangents down to 1e-9 and at the normal-neighborhood ceiling, and
the principal angles against their SVD form.  The Log, whose Gram comes
from (X^T Y)^-1, is checked against the Log that took it from the lift,
on representatives drifted up to ORTHO_TOL, within the bound that drift
allows.  The closed-form 2x2
orthogonal polar factor is checked against the SVD form of Procrustes,
and the product-spd split it gives against the square-root form, on
ties between the rotation and reflection parts, rank-one, zero and
strongly anisotropic matrices.  The 2x2 matrix functions are
checked against scipy's expm, sqrtm and logm, on matrices down to 1e-13.
The rank-r thin SVD is checked against the full one truncated, on
matrices wide, square and tall, graded down to s_r/s_1 = 1e-6,
rank-deficient or zero, and with repeated singular values; on matrices
wider than its Krylov probe's space, a low-rank one certifies and every
other kind falls back to the bytes of the Gram probe it replaced.  The
probe, which keeps a on the right of each product, is checked against
the probe with a on the left, on contiguous matrices, transposed views
and stacks.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm, sqrtm

import oracles
from shapetensors.blade import (VARIANTS, BladeModel, _assemble, _polar_split,
                                cluster_representatives)
from shapetensors.bladeio import wireframe_sections
from shapetensors.errors import (
    ContractError,
    DegenerateGeometryError,
    NormalNeighborhoodError,
)
from shapetensors.grassmann import (
    ORTHO_TOL,
    GrassmannPoint,
    _exp_raw,
    _log_raw,
    _transport_raw,
    principal_angles,
)
from shapetensors.linalg import (
    PROBE_OVERSAMPLE,
    SIGN_TOL,
    _krylov_top,
    fix_svd_signs,
    mT,
    orthogonal_factor,
    rotation2,
    sv2,
    sym2_exp,
    sym2_inv_sqrt,
    sym2_log,
    sym2_sqrt,
    thin_svd,
)
from shapetensors.shapes import _standardize_raw, la_standardize
from shapetensors.spd import SpdMatrix, _distance_raw, spd_transport
from shapetensors.spd import _exp_raw as spd_exp_raw
from shapetensors.spd import _log_raw as spd_log_raw

PROPERTY = settings(max_examples=40, deadline=None)
TANGENT_CASES = ("generic", "zero", "tiny", "equal-sigma", "near-equal-sigma",
                 "near-cut")
SYM_CASES = ("generic", "double", "near-double", "tiny-offdiag")
SHAPE_CASES = ("generic", "offset", "tiny", "huge", "anisotropic")
DEGENERATE_CASES = ("collinear", "overflow")
SPECTRUM_CASES = ("generic", "graded", "repeated", "rank-deficient", "zero")
POLAR_CASES = ("generic", "rotation", "reflection", "near-tie", "rank-one",
               "zero", "near-reflection")
SPLIT_CASES = ("generic", "double", "near-double", "anisotropic")

seeds = st.integers(0, 2**32 - 1)
stack_sizes = st.integers(1, 5)


def _base(rng, n):
    return np.linalg.qr(rng.standard_normal((n, 2)))[0]


def _lift(rng, x, sigma):
    """A horizontal tangent at x with descending singular values sigma.
    At n = 3 the horizontal complement of x is one line, so a tangent
    there has rank one: sigma[1] must be 0 (see ``_one_line``)."""
    n = x.shape[0]
    # orthonormal horizontal frame u and a rotation v
    u = np.linalg.qr(np.column_stack([x, rng.standard_normal((n, 2))]))[0][:, 2:]
    d = (u * sigma) @ rotation2(rng.uniform(0.0, 2.0 * np.pi))
    np.testing.assert_allclose(np.linalg.svd(d, compute_uv=False), sigma,
                               rtol=0.0, atol=1e-14 * sigma[0])
    return d


def _one_line(x, sigma):
    """sigma, with its second value 0 at n = 3 (one horizontal line)."""
    return [sigma[0], 0.0] if x.shape[0] == 3 else sigma


# the tangent kinds that need two horizontal directions, so n >= 4
TWO_ANGLE_CASES = {"equal-sigma", "near-equal-sigma"}


def _tangent(rng, x, case):
    """A horizontal tangent at x of the given kind; at n = 3 the one-angle
    kinds ask for (sigma_1, 0), and the two-angle kinds are not drawn."""
    top = rng.uniform(0.1, 1.4)
    sigma = {
        "generic": [top, rng.uniform(0.0, top)],
        "zero": [0.0, 0.0],
        "tiny": [1e-9 * top, 1e-12 * top],
        "equal-sigma": [top, top],
        "near-equal-sigma": [top, top * (1.0 - 1e-13)],
        "near-cut": [np.pi / 2 - 10.0 ** rng.uniform(-7, -2), rng.uniform(0.0, 1.0)],
    }[case]
    return _lift(rng, x, sigma if case in TWO_ANGLE_CASES else _one_line(x, sigma))


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


def _matrix(rng, m, n, r, case, spectrum=_spectrum):
    """An m x n matrix U diag(s) V^T with random orthonormal U and V."""
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * spectrum(rng, k, r, case)) @ v.T


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
        x = _exp_raw(x, _lift(rng, x, _one_line(x, [top, rng.uniform(0.0, 0.5) * top])))
    return np.stack(reps)


def _close(got, want, scale=1.0):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * scale)


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9),
       cases=st.lists(st.sampled_from(TANGENT_CASES), min_size=1, max_size=5))
def test_grassmann_exp_and_log(seed, n, cases):
    assume(n > 3 or not TWO_ANGLE_CASES.intersection(cases))
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
        _lift(rng, x, _one_line(x, [np.arctan(10.0**e),
                                    {"generic": rng.uniform(0.0, 1.2), "tiny": 1e-9,
                                     "zero": 0.0}[kind]]))
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
    assume(n > 3 or not equal)
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    top = 10.0**size
    d = np.stack([_lift(rng, x, [top, top] if equal
                        else _one_line(x, [top, rng.uniform(0.0, top)]))
                  for _ in range(count)])
    ys = _exp_raw(x, d)
    _close(ys, oracles.gr_exp_svd(x, d))
    _close(_log_raw(x, ys), oracles.gr_log_svd(x, ys))


def _target(rng, x, c):
    """A representative y whose principal angles with x have cosines c."""
    n = x.shape[0]
    u = np.linalg.qr(np.column_stack([x, rng.standard_normal((n, 2))]))[0][:, 2:]
    y = x * c + u * np.sqrt(1.0 - np.square(c))
    return y @ rotation2(rng.uniform(0.0, 2.0 * np.pi))


def _target_with_cond(rng, x, cond):
    """A representative y whose 2x2 X^T Y has condition number ``cond``.
    At n = 3 the horizontal complement of x is one line, and two 2-planes
    of R^3 share a line: there theta_1 = 0 and cos(theta_2) = 1 / cond."""
    top = 1.0 if x.shape[0] == 3 else np.cos(rng.uniform(0.0, 1.0))
    y = _target(rng, x, top * np.array([1.0, 1.0 / cond]))
    assert np.linalg.norm(y.T @ y - np.eye(2)) <= ORTHO_TOL
    return y


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


LOG_CASES = ("generic", "near-equal", "tiny", "cut", "far", "ceiling")


def _cosines(rng, case):
    """cos(theta_1), cos(theta_2) of a log case: near-equal angles, tiny
    ones, tan(theta_1) from 1e1 to the Gram's reach, past it to 1e11, and
    X^T Y conditioned up to 10^11.5, below the 1e12 ceiling by more than a
    drift of ORTHO_TOL can move it."""
    theta = rng.uniform(0.0, 1.4)
    return {
        "generic": np.cos([theta, rng.uniform(0.0, 1.4)]),
        "near-equal": np.cos([theta, theta * (1.0 - 1e-13)]),
        "tiny": np.cos(10.0 ** rng.uniform([-12.0, -14.0], [-6.0, -8.0])),
        "cut": np.cos([np.arctan(10.0 ** rng.uniform(1.0, 2.0)), theta]),
        "far": np.cos([np.arctan(10.0 ** rng.uniform(2.0, 11.0)), theta]),
        "ceiling": [1.0, 10.0 ** rng.uniform(-11.5, -10.0)],
    }[case]


@PROPERTY
@given(seed=seeds, n=st.integers(4, 9), drift=st.sampled_from((0.0, 0.4, 0.9)),
       cases=st.lists(st.sampled_from(LOG_CASES), min_size=1, max_size=6))
def test_grassmann_log_equals_its_gram_of_the_lift_form(seed, n, drift, cases):
    # the Gram q^-T q^-1 - I drops Y.T Y; with eta = ||Y.T Y - I||_F each
    # eigenvalue moves by at most ||q^-1||^2 eta and f = arctan(s) / s by a
    # third of that (|f'| <= 1/3), and weighted by W the log moves by at
    # most eta min(pi / 2, ||W|| ||q^-1||^2 / 3), on the cut-locus branch too
    rng = np.random.default_rng(seed)
    x = _base(rng, n)
    ys = []
    for case in cases:
        # drifted off orthonormality, within ORTHO_TOL (its class checks it)
        delta = rng.standard_normal((n, 2))
        ys.append(_target(rng, x, _cosines(rng, case))
                  + 0.5 * drift * ORTHO_TOL * delta / np.linalg.norm(delta))
    ys = GrassmannPoint(np.stack(ys)).rep
    got, want = _log_raw(x, ys), oracles.gr_log_gram(x, ys)
    for g, w, y in zip(got, want, ys):
        q = x.T @ y
        eta = np.linalg.norm(y.T @ y - np.eye(2))
        lift = np.linalg.norm(y @ np.linalg.inv(q) - x, ord=2)
        weight = min(np.pi / 2, lift / np.linalg.svd(q, compute_uv=False)[1] ** 2 / 3)
        assert np.linalg.norm(g - w) <= eta * weight + 1e-13 * np.linalg.norm(w)


@PROPERTY
@given(seed=seeds, n=st.integers(3, 9), t=st.floats(-1.5, 1.5),
       cases=st.lists(st.sampled_from(TANGENT_CASES), min_size=1, max_size=5))
def test_grassmann_transport(seed, n, t, cases):
    assume(n > 3 or not TWO_ANGLE_CASES.intersection(cases))
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
    _close(spd_transport(SpdMatrix(p), SpdMatrix(d), s),
           np.stack([oracles.spd_transport_raw(pk, dk, sk)
                     for (pk, dk), sk in zip(pairs, s)]))
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
       allow_reflection=st.booleans(), reflect=st.booleans())
def test_cluster_chain_equals_per_station_loop(seed, n, count, allow_reflection,
                                               reflect):
    rng = np.random.default_rng(seed)
    reps = _chain(rng, n, count, reflect)
    aligned, rotations = cluster_representatives(reps, allow_reflection)
    want, want_rot = oracles.cluster_representatives(reps, "tip-to-root",
                                                     allow_reflection)
    np.testing.assert_allclose(aligned, np.stack([p.rep for p in want]),
                               rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(rotations, np.stack(want_rot), rtol=0.0, atol=1e-13)


@PROPERTY
@given(seed=seeds, n=st.integers(4, 12), count=st.integers(2, 6),
       variant=st.sampled_from(VARIANTS), closed=st.booleans(),
       reflect=st.booleans(), bent=st.booleans())
def test_blade_sections_do_not_depend_on_the_clustering_anchor(
        seed, n, count, variant, closed, reflect, bent):
    rng = np.random.default_rng(seed)
    if closed:
        # representatives whose first and last rows agree, as a closed
        # shape's do: the chain lives in the span of this basis
        basis = np.linalg.qr(np.vstack([np.eye(n - 1), np.eye(1, n - 1)]))[0]
        reps = basis @ _chain(rng, n - 1, count, False)
    else:
        reps = _chain(rng, n, count, False)
    if reflect:  # station 0 in a reflected frame: gl2 aligns it by a reflection
        reps[0] = reps[0] @ np.diag([1.0, -1.0])
    etas = np.cumsum(rng.uniform(0.1, 1.0, count))
    a = rng.standard_normal((count, 2, 2))
    ms = (a @ mT(a) + 0.5 * np.eye(2)) @ rotation2(rng.uniform(-3.0, 3.0, count))
    bs = rng.standard_normal((count, 2))
    bend = None
    if bent:
        knots = np.linspace(etas[0], etas[-1], 4)
        bend = np.column_stack([knots, 0.1 * rng.standard_normal((4, 2)), knots])
    model = _assemble(variant, etas, reps, ms, bs, closed, 1.7, bend)
    # the same chain anchored at the root instead
    aligned, rotations = oracles.cluster_representatives(
        reps, "root-to-tip", allow_reflection=variant == "gl2-schedule")
    rotations = np.stack(rotations)
    rooted = BladeModel(variant, etas, np.stack([p.rep for p in aligned]),
                        mT(rotations) @ ms, bs, closed=closed,
                        has_reflection=bool(np.any(np.linalg.det(rotations) < 0.0)),
                        span_length=1.7, bend=bend)
    assert model.has_reflection == rooted.has_reflection
    assert model.has_reflection == (reflect and variant == "gl2-schedule")
    at = np.linspace(etas[0], etas[-1], 101)
    got = np.stack([p for _, p in wireframe_sections(model, at)])
    want = np.stack([p for _, p in wireframe_sections(rooted, at)])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


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
        _check_rank_r(ak, u[k], s[k], vt[k], r)


def _check_rank_r(ak, uk, sk, vk, r):
    """(uk, sk, vk) are r leading singular triplets of ak, as accurate as
    the truncated full SVD's, in the sign convention."""
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


def _probe_spectrum(rng, k, r, case):
    """k descending singular values, k more than 8 past the 3 (r + 4)
    columns of the Krylov probe.  "low-rank" has a rank the probe's space
    holds and s_r >= 1.5 s_r+1; every other kind fails its certificate:
    "slow" and "repeated" (values from three levels) keep every value
    above s_1 / 2, so the part of a outside the probe's space outweighs
    s_r; "graded" puts s_r below 1e-10 s_1 and "rank-deficient" has a
    rank below r, under the rounding the certificate allows for."""
    top = 10.0 ** rng.uniform(-3.0, 3.0)
    s = np.zeros(k)
    if case == "low-rank":
        rank = rng.integers(r + 1, 3 * (r + PROBE_OVERSAMPLE) + 1)
        s[:r] = rng.uniform(0.6, 1.0, r)
        s[r:rank] = rng.uniform(0.01, 0.4, rank - r)
    elif case == "slow":
        s = rng.uniform(0.5, 1.0, k)
    elif case == "repeated":
        s = rng.choice(rng.uniform(0.5, 1.0, 3), size=k)
    elif case == "graded":  # s_r / s_1 = 10**-e, the tail below s_r
        head = 10.0 ** -np.linspace(0.0, rng.uniform(10.0, 14.0), r)
        s = np.concatenate([head, head[-1] * 10.0 ** -rng.uniform(0.1, 3.0, k - r)])
    elif case == "rank-deficient":
        rank = rng.integers(0, r)
        s[:rank] = rng.uniform(0.01, 1.0, rank)
    return top * np.sort(s)[::-1]


FALLBACK_CASES = ("slow", "repeated", "graded", "rank-deficient", "zero")


@PROPERTY
@given(seed=seeds, wide=st.booleans(), extra=st.integers(0, 8),
       longer=st.integers(0, 40), r=st.integers(1, 4),
       cases=st.lists(st.sampled_from(("low-rank",) + FALLBACK_CASES), min_size=1,
                      max_size=3))
def test_krylov_probe_certifies_or_falls_back_to_the_gram_probe(
        seed, wide, extra, longer, r, cases):
    rng = np.random.default_rng(seed)
    small = 3 * (r + PROBE_OVERSAMPLE) + 9 + extra
    m, n = (small, small + longer) if wide else (small + longer, small)
    a = np.stack([_matrix(rng, m, n, r, c, _probe_spectrum) for c in cases])
    state = np.random.get_state()
    u, s, vt = thin_svd(a, r)  # one stacked call
    assert all(np.array_equal(x, y) for x, y in zip(np.random.get_state(), state))
    for got, again in zip((u, s, vt), thin_svd(a, r)):
        _same_bits(got, again)
    certified = [_krylov_top(ak, r) is not None for ak in a]
    assert certified == [c == "low-rank" for c in cases]
    if all(certified):
        for k, ak in enumerate(a):
            _check_rank_r(ak, u[k], s[k], vt[k], r)
    else:  # one member that fails takes the whole stack to the Gram probe
        for got, want in zip((u, s, vt), oracles.gram_thin_svd(a, r)):
            _same_bits(got, want)


@PROPERTY
@given(seed=seeds, wide=st.booleans(), extra=st.integers(0, 8),
       longer=st.integers(0, 40), r=st.integers(1, 4),
       layout=st.sampled_from(("contiguous", "transposed")), stacked=st.booleans(),
       cases=st.lists(st.sampled_from(("low-rank",) + FALLBACK_CASES), min_size=1,
                      max_size=3))
def test_krylov_probe_with_a_on_the_right_equals_it_on_the_left(
        seed, wide, extra, longer, r, layout, stacked, cases):
    # the probe forms a z as (z^T a^T)^T, the order that reads a fit's
    # transposed view of its data at full speed; the oracle forms a z.
    # Both span the same Krylov space up to rounding, so the certificate
    # gives the same verdict, s agrees to rounding relative to s_1, and
    # the j-th singular vectors move by rounding over the gap g_j between
    # s_j and the rest of the spectrum (0 included) (Wedin)
    rng = np.random.default_rng(seed)
    small = 3 * (r + PROBE_OVERSAMPLE) + 9 + extra
    m, n = (small, small + longer) if wide else (small + longer, small)
    a = np.stack([_matrix(rng, m, n, r, c, _probe_spectrum) for c in cases])
    if layout == "transposed":  # as pga_fit passes its (N, m) data
        a = mT(np.ascontiguousarray(mT(a)))
    members = a
    if not stacked:
        a = a[0]
        members = a[None]
    assert ([_krylov_top(ak, r) is not None for ak in members]
            == [oracles.left_krylov_top(ak, r) is not None for ak in members])
    got, want = thin_svd(a, r), oracles.left_thin_svd(a, r)
    if not stacked:
        got, want = ([x[None] for x in out] for out in (got, want))
    for ak, u, s, vt, uo, so, vo in zip(members, *got, *want):
        full = np.linalg.svd(ak, compute_uv=False)
        np.testing.assert_allclose(s, so, rtol=0.0, atol=1e-13 * full[0])
        spectrum = np.append(full, 0.0)
        gaps = np.array([np.delete(np.abs(spectrum - spectrum[j]), j).min()
                         for j in range(r)])
        bound = np.divide(1e-12 * full[0], gaps, out=np.full(r, np.inf),
                          where=gaps > 0.0)
        assert np.all(np.linalg.norm(u - uo, axis=0) <= bound)
        assert np.all(np.linalg.norm(vt - vo, axis=1) <= bound)


# row-0 entries of a left singular-vector matrix: the sign search falls
# back from row 0 on any entry that is not above SIGN_TOL
SIGN_LEADS = ("generic", "negative", "zero", "-zero", "tol", "-tol", "2tol",
              "-2tol", "nan", "zero-column")


@PROPERTY
@given(seed=seeds, m=st.integers(2, 9), k=st.integers(1, 4),
       cases=st.lists(st.lists(st.sampled_from(SIGN_LEADS), min_size=4, max_size=4),
                      min_size=1, max_size=4))
def test_fix_svd_signs_equals_the_anchor_search(seed, m, k, cases):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((len(cases), m, k))
    for member, leads in zip(u, cases):
        for j, lead in enumerate(leads[:k]):
            if lead == "zero-column":
                member[:, j] = 0.0
            else:
                member[0, j] = {
                    "generic": member[0, j], "negative": -abs(member[0, j]),
                    "zero": 0.0, "-zero": -0.0, "tol": SIGN_TOL, "-tol": -SIGN_TOL,
                    "2tol": 2.0 * SIGN_TOL, "-2tol": -2.0 * SIGN_TOL,
                    "nan": np.nan}[lead]
    vt = rng.standard_normal((len(cases), k, 3))
    pairs = [(u, vt)] + list(zip(u, vt))  # the stack, then one matrix at a time
    for a, b in pairs:
        for got, want in zip(fix_svd_signs(a.copy(), b.copy()),
                             oracles.fix_svd_signs(a.copy(), b.copy())):
            _same_bits(got, want)


def _two_by_two(rng, case):
    """A 2x2 matrix of the given kind, from 1e-8 to 1e8 in size: a rotation
    part plus a reflection part in chosen proportions, or rank one."""
    size = 10.0 ** rng.uniform(-8.0, 8.0)
    if case == "generic":
        return size * rng.standard_normal((2, 2))
    if case == "rank-one":  # |rot| = |ref|
        return size * np.outer(rng.standard_normal(2), rng.standard_normal(2))
    small = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -3.0)
    rot, ref = {
        "zero": (0.0, 0.0), "rotation": (1.0, 0.0), "reflection": (0.0, 1.0),
        "near-tie": (1.0, 1.0 + small), "near-reflection": (abs(small), 1.0),
    }[case]
    turn = rotation2(rng.uniform(0.0, 2.0 * np.pi, size=2))
    return size * (rot * turn[0] + ref * turn[1] @ np.diag([1.0, -1.0]))


@PROPERTY
@given(seed=seeds, proper=st.booleans(),
       cases=st.lists(st.sampled_from(POLAR_CASES), min_size=1, max_size=6))
def test_orthogonal_factor_equals_svd_procrustes(seed, proper, cases):
    rng = np.random.default_rng(seed)
    a = np.stack([_two_by_two(rng, c) for c in cases])
    got = orthogonal_factor(a, proper)  # one stacked call
    for ak, q in zip(a, got):
        want = oracles.procrustes_rotation(ak, np.eye(2), not proper)
        np.testing.assert_allclose(mT(q) @ q, np.eye(2), rtol=0.0, atol=1e-15)
        assert not proper or np.linalg.det(q) > 0.0
        p, b, c, d = ak.ravel()
        rot, ref = 0.5 * np.hypot(p + d, b - c), 0.5 * np.hypot(p - d, b + c)
        norm = np.linalg.norm(ak)
        # the proper factor is the unit rotation part, as sensitive as
        # ||a|| / |rot|; the free one picks the larger part, a choice that
        # is only defined away from a tie
        sep = rot if proper else abs(rot - ref)
        if sep > 1e-8 * norm:
            tol = max(1e-14, 1e-15 * norm / sep) if proper else 1e-14
            np.testing.assert_allclose(q, want, rtol=0.0, atol=tol)
        else:  # a tie: any maximizer of tr(q^T a) will do
            np.testing.assert_allclose(np.trace(mT(q) @ ak), np.trace(mT(want) @ ak),
                                       rtol=0.0, atol=1e-15 * norm)


def _scale(rng, case):
    """A scale factor P R of the given kind, from 1e-6 to 1e6 in size:
    P's eigenvalues in the ratio 1 : lo."""
    lo = {"generic": rng.uniform(0.05, 1.0), "double": 1.0,
          "near-double": 1.0 - 10.0 ** rng.uniform(-12.0, -6.0),
          "anisotropic": 10.0 ** rng.uniform(-8.0, -2.0)}[case]
    v = rotation2(rng.uniform(0.0, 2.0 * np.pi))
    p = 10.0 ** rng.uniform(-6.0, 6.0) * (v @ np.diag([1.0, lo]) @ v.T)
    return p @ rotation2(rng.uniform(-10.0, 10.0))


# The square-root form is compared only up to this cond(m): it works on
# m m^T, whose condition cond(m)^2 must stay well below 1 / eps.
ORACLE_COND_MAX = 1e7


@PROPERTY
@given(seed=seeds,
       cases=st.lists(st.sampled_from(SPLIT_CASES), min_size=1, max_size=6))
@example(seed=2703, cases=["anisotropic"])  # cond(m) = 9.8e7
def test_polar_split_equals_square_root_form(seed, cases):
    rng = np.random.default_rng(seed)
    m = np.stack([_scale(rng, c) for c in cases])
    p, angle = _polar_split(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_p, want_angle = oracles.polar_split(m)
    for k, s in enumerate(sv2(m)):
        # the closed form reproduces m and its singular values; the
        # square-root form loses cond(m)^2 in the angle
        cond = s[0] / s[1]
        np.testing.assert_allclose(p[k] @ rotation2(angle[k]), m[k],
                                   rtol=0.0, atol=1e-15 * s[0])
        np.testing.assert_allclose(np.linalg.eigvalsh(p[k]), s[::-1],
                                   rtol=0.0, atol=1e-15 * s[0])
        if cond > ORACLE_COND_MAX:
            continue
        np.testing.assert_allclose(p[k], want_p[k], rtol=0.0,
                                   atol=1e-15 * cond * s[0])
        turn = np.angle(np.exp(1j * (angle[k] - want_angle[k])))
        assert abs(turn) <= 1e-15 * cond**2
