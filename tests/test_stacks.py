"""Manifold points as stacks: one checked array per point class, a single
point being a batch of one, and the statistics that consume them.

The stacked paths are checked against the code they replaced: a fit of
a stacked point against the fit of the same points as a list, and
``generate`` on a coefficient matrix against the per-row generation kept
in ``oracles``.  The public Exp, Log, transport and distance of both
manifolds, and ``embed``, are checked member by member against their
single-point calls, and a single point against the raw kernel's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shapetensors import grassmann, spd, stats
from shapetensors.cst import cst_airfoils
from shapetensors.errors import ContractError, refuse, without_refused
from shapetensors.grassmann import (ORTHO_TOL, GrassmannPoint, check_orthonormal,
                                    gr_distance, gr_exp, gr_log, gr_transport,
                                    principal_angles)
from shapetensors.product import ProductPoint
from shapetensors.shapes import _standardize_raw
from shapetensors.spd import (SpdMatrix, spd_distance, spd_exp, spd_log,
                              spd_transport)
from shapetensors.stats import _tangent, embed, generate, karcher_mean, pga_fit
from test_broadcast import _close

NOMINAL = np.array([[0.20, 0.18, 0.22, 0.17, 0.21, 0.19, 0.20, 0.18, 0.17],
                    [0.12, 0.10, 0.13, 0.09, 0.11, 0.10, 0.12, 0.11, 0.10]])


def _airfoils(count, seed, n_c=61):
    """(gl2 representatives, polar representatives, polar scales) of
    CST airfoils around a nominal, every coefficient within +-20 %."""
    rng = np.random.default_rng(seed)
    coeffs = NOMINAL * (1.0 + rng.uniform(-0.2, 0.2, size=(count, 2, 9)))
    pts = cst_airfoils(coeffs[:, 0], coeffs[:, 1], n_c=n_c)
    return (_standardize_raw(pts, "gl2")[0],) + _standardize_raw(pts, "polar")[:2]


@pytest.fixture(scope="module")
def models():
    reps, preps, scales = _airfoils(14, seed=5)
    return {
        "grassmann": pga_fit(GrassmannPoint(reps), r=4),
        "product": pga_fit(ProductPoint(preps, scales), r=4),
    }


def _parts(point):
    if isinstance(point, ProductPoint):
        return [point.grass.rep, point.scale.mat]
    return [point.mat if isinstance(point, SpdMatrix) else point.rep]


def _rows(model, count, spread, seed):
    """count coefficient rows in the model's sampling box widened by spread."""
    rng = np.random.default_rng(seed)
    lo, hi = model.domain.lo, model.domain.hi
    return spread * (lo + (hi - lo) * rng.uniform(size=(count, model.r)))


# ------------------------------------------------------- differential tests

@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["grassmann", "product"]),
       count=st.sampled_from([1, 3, 50]),
       spread=st.sampled_from([0.0, 1e-9, 0.5, 1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_generate_on_rows_is_the_per_row_oracle_bit_for_bit(models, kind, count,
                                                            spread, seed):
    model = models[kind]
    rows = _rows(model, count, spread, seed)
    tangents, stacked = _tangent(model, rows)
    assert stacked.shape == (count,)
    for k, row in enumerate(rows):
        want_tangent, want = oracles.pga_tangent(model, row)
        for got, expect in zip(_parts(stacked[k]), _parts(want)):
            assert got.tobytes() == expect.tobytes()
        for c, t in want_tangent.items():
            assert tangents[c][k].tobytes() == t.tobytes()


def test_a_vector_of_coefficients_returns_a_single_point(models):
    for model in models.values():
        row = _rows(model, 1, 1.0, seed=3)[0]
        point = generate(model, row)
        assert point.shape == ()
        assert [p.shape for p in _parts(point)] == [p.shape for p in _parts(model.mean)]
        for got, want in zip(_parts(point), _parts(oracles.generate(model, row))):
            assert got.tobytes() == want.tobytes()
        assert len(generate(model, row[None])) == 1


def _assert_listed_fits_as_stacked(reps, preps, scales):
    """pga_fit and karcher_mean of each kind of stacked point and of its
    list of members give the same bytes."""
    count = len(reps)
    for point in (GrassmannPoint(reps), ProductPoint(preps, scales), SpdMatrix(scales)):
        members = [point[k] for k in range(len(point))]
        r = min(count - 1, 3)
        got, want = pga_fit(point, r=r), pga_fit(members, r=r)
        for a, b in zip(_parts(got.mean) + [got.basis, got.eigenvalues, got.coords],
                        _parts(want.mean) + [want.basis, want.eigenvalues,
                                             want.coords]):
            assert a.tobytes() == b.tobytes()
        mean, listed = karcher_mean(point), karcher_mean(members)
        for a, b in zip(_parts(mean), _parts(listed)):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=12, deadline=None)
@given(count=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_stacked_and_listed_points_fit_bit_for_bit(count, seed):
    _assert_listed_fits_as_stacked(*_airfoils(count, seed))


@pytest.mark.parametrize("block", [3, 128])
@pytest.mark.parametrize("count", [2, 4, 11])
def test_listed_points_fit_as_their_stack_bit_for_bit_at_n_401(monkeypatch, count, block):
    """At n = 401, where a matmul can round an operand that shares memory
    with the other differently, over one block and over several: a list
    is read through its own block buffer, a stack through views of it."""
    monkeypatch.setattr(stats, "BLOCK", block)
    reps, preps, scales = _airfoils(count, seed=count, n_c=401)
    assert reps.shape[1] == 401
    _assert_listed_fits_as_stacked(reps, preps, scales)


def test_a_stack_of_one_is_its_own_mean():
    reps = _airfoils(1, seed=2)[0]
    mean = karcher_mean(GrassmannPoint(reps))
    assert mean.shape == () and np.array_equal(mean.rep, reps[0])


# -------------------------------------------------------- stack interface

def test_members_share_the_stack_and_keep_their_class():
    reps, preps, scales = _airfoils(4, seed=1)
    for point in (GrassmannPoint(reps), SpdMatrix(scales), ProductPoint(preps, scales)):
        assert len(point) == 4 and point.shape == (4,)
        member = point[2]
        assert type(member) is type(point) and member.shape == ()
        for got, stack in zip(_parts(member), _parts(point)):
            assert np.shares_memory(got, stack) and np.array_equal(got, stack[2])
        assert len(point[1:3]) == 2
        with pytest.raises(TypeError, match="no len"):
            len(member)
        with pytest.raises(TypeError, match="no len"):
            member[0]


def test_lists_of_mixed_kinds_and_of_mixed_n_keep_their_messages():
    grass = GrassmannPoint(_airfoils(2, seed=1)[0])
    with pytest.raises(ContractError, match="same kind of manifold"):
        karcher_mean([grass[0], SpdMatrix(np.eye(2))])
    other_n = GrassmannPoint(_airfoils(1, seed=1, n_c=31)[0][0])
    with pytest.raises(ContractError, match="share the same n"):
        pga_fit([grass[0], grass[1], other_n], r=1)
    with pytest.raises(ContractError, match="one leading axis"):
        karcher_mean(grass[0])


# ---------------------------------------------------------------- refusals

def _refused(err):
    return [e.index for e in err.refused]


@pytest.mark.parametrize("k", [0, 3, 5])
def test_grassmann_stack_names_its_drifting_member(k):
    reps = _airfoils(6, seed=4)[0].copy()
    reps[k, :, 0] *= np.sqrt(1.0 + 1.5 * ORTHO_TOL)
    with pytest.raises(ContractError, match=r"\|\|X.T X - I\|\|_F = 1\.\d+e-12 exceeds") as err:
        GrassmannPoint(reps)
    assert err.value.index == (k,)
    with pytest.raises(ContractError) as err:
        check_orthonormal(reps)
    assert err.value.index == (k,)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite entries"),
    (np.inf, "non-finite entries"),
    (2.5, "an entry has magnitude 2.500e\\+00"),
])
def test_grassmann_stack_refuses_bad_entries_by_member(bad, message):
    reps = _airfoils(5, seed=4)[0].copy()
    reps[[1, 3], 7, 1] = bad
    with pytest.raises(ContractError, match=message) as err:
        GrassmannPoint(reps)
    assert err.value.index == (1,) and _refused(err.value) == [(1,), (3,)]


@pytest.mark.parametrize("bad, message", [
    ([[1.0, 0.5], [0.1, 1.0]], "matrix is not symmetric"),
    ([[1.0, 3.0], [3.0, 1.0]], "not positive definite"),
    ([[1.0, 0.0], [0.0, -2.0]], "not positive definite"),
    # p s and q r both overflow: the inf - inf determinant branch
    ([[1e300, 2e300], [2e300, 1e300]], "not positive definite"),
    ([[1e300, 1e300], [1e300, 1e300]], "not positive definite"),
    ([[2.0**1023, 0.0], [0.0, 1.0]], "2\\*\\*1023 or more"),
    ([[np.nan, 0.0], [0.0, 1.0]], "non-finite entries"),
])
def test_spd_stack_names_its_refused_member(bad, message):
    mats = np.stack([np.eye(2), [[1e300, 0.5e300], [0.5e300, 1e300]], bad,
                     2.0 * np.eye(2)])
    with pytest.raises(ContractError, match=message) as err:
        SpdMatrix(mats)
    assert err.value.index == (2,)
    with pytest.raises(ContractError, match=message):
        SpdMatrix(bad)  # the batch of one agrees


def test_spd_stack_accepts_what_its_members_accept():
    mats = np.stack([np.eye(2), [[1e300, 0.5e300], [0.5e300, 1e300]],
                     [[1e-150, 0.0], [0.0, 1e-150]]])
    assert np.array_equal(SpdMatrix(mats).mat, mats)


def test_product_refuses_factors_of_mismatched_leading_shapes():
    _, preps, scales = _airfoils(3, seed=2)
    for grass, spd in ((preps, scales[:2]), (preps[0], scales), (preps, scales[0])):
        with pytest.raises(ContractError, match="must share their leading shape"):
            ProductPoint(grass, spd)


def _oracle_refuses(model, row):
    try:
        oracles.generate(model, row)
    except ContractError as err:
        return str(err).startswith("coefficient vector is too large")
    return False


@pytest.mark.parametrize("kind", ["grassmann", "product"])
def test_generate_refuses_the_first_oversized_row(models, kind):
    model = models[kind]
    rows = _rows(model, 6, 1.0, seed=9)
    rows[[2, 4]] = 1e308
    want = next(k for k, row in enumerate(rows) if _oracle_refuses(model, row))
    with pytest.raises(ContractError, match="^coefficient vector is too large") as err:
        generate(model, rows)
    assert err.value.index == (want,) == (2,)
    rows[3, 1] = np.nan
    with pytest.raises(ContractError, match="non-finite entries") as err:
        generate(model, rows)
    assert err.value.index == (3,)


# ------------------------------------------------- every refused member

def test_refuse_attaches_every_refused_member_in_order():
    bad = np.array([[False, True], [True, True]])
    with pytest.raises(ContractError) as err:
        refuse(bad, lambda i: ContractError(f"member {i}"))
    assert err.value.index == (0, 1)
    assert _refused(err.value) == [(0, 1), (1, 0), (1, 1)]
    assert [str(e) for e in err.value.refused] == [
        "member (0, 1)", "member (1, 0)", "member (1, 1)"]
    assert err.value.refused[0] is err.value


def test_refuse_makes_the_other_errors_only_when_asked():
    made = []

    def make(i):
        made.append(i)
        return ContractError(f"member {i}")

    with pytest.raises(ContractError) as err:
        refuse(np.ones(100_000, bool), make)
    assert made == [(0,)] and len(err.value.refused) == 100_000
    assert err.value.refused[-1].index == (99_999,)
    assert made == [(0,), (99_999,)]


def test_without_refused_drops_every_refused_member_in_one_pass():
    calls = []

    def positive(values):
        calls.append(list(values))
        values = np.array(values)
        refuse(values <= 0, lambda i: ContractError(f"{values[i]} is not positive"))
        return list(values)

    kept, out, refused = without_refused(positive, [3, -1, 4, 0, 5, -9])
    assert (kept, out, len(calls)) == ([0, 2, 4], [3, 4, 5], 2)
    assert {i: str(e) for i, e in refused.items()} == {
        1: "-1 is not positive", 3: "0 is not positive", 5: "-9 is not positive"}


# ------------------------------------------------------ the manifold maps

def _horizontal(rng, x, scale):
    """(..., n, 2) tangents horizontal at the representatives x, each of
    Frobenius norm up to ``scale``."""
    d = rng.standard_normal(x.shape)
    d -= x @ (np.swapaxes(x, -1, -2) @ d)
    norms = np.linalg.norm(d, axis=(-2, -1), keepdims=True)
    return d * (scale * rng.uniform(0.0, 1.0, norms.shape) / norms)


def _grassmann_case(count, n, seed):
    """Bases, targets within the normal neighborhood, directions and
    payloads, each stacked ``count`` deep."""
    rng = np.random.default_rng(seed)
    xs = np.linalg.qr(rng.standard_normal((count, n, 2)))[0]
    ys = grassmann._exp_raw(xs, _horizontal(rng, xs, 1.2))
    return (GrassmannPoint(xs), GrassmannPoint(ys), _horizontal(rng, xs, 1.4),
            _horizontal(rng, xs, 2.0), rng)


def _spd_case(count, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, count, 2, 2))
    p, d = a @ np.swapaxes(a, -1, -2) + 0.2 * np.eye(2)
    s = rng.standard_normal((count, 2, 2))
    return SpdMatrix(p), SpdMatrix(d), s + np.swapaxes(s, -1, -2), rng


def _members_match(stacked, single, count):
    """stacked() holds ``count`` members, member k equal to single(k), the
    single-point call, to the tolerance of the broadcasting tests."""
    out = stacked()
    assert out.shape[0] == count
    for k in range(count):
        _close(out[k], single(k))


@settings(max_examples=25, deadline=None)
@given(count=st.sampled_from([1, 3, 7]), n=st.integers(3, 12),
       t=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_grassmann_maps_on_stacks_equal_their_single_point_calls(count, n, t, seed):
    x, y, d, g, rng = _grassmann_case(count, n, seed)
    _members_match(lambda: gr_exp(x, d).rep, lambda k: gr_exp(x[k], d[k]).rep, count)
    _members_match(lambda: gr_log(x, y), lambda k: gr_log(x[k], y[k]), count)
    _members_match(lambda: gr_transport(x, d, t, g),
                   lambda k: gr_transport(x[k], d[k], t, g[k]), count)
    for metric in ("frobenius", "angle-sum"):
        _members_match(lambda: gr_distance(x, y, metric),
                       lambda k: gr_distance(x[k], y[k], metric), count)
    # one base against stacked targets and tangents
    x0 = x[0]
    at_x0 = np.broadcast_to(x0.rep, x.rep.shape)
    d0, g0 = _horizontal(rng, at_x0, 1.4), _horizontal(rng, at_x0, 2.0)
    y0 = gr_exp(x0, 0.8 * d0)
    _members_match(lambda: gr_exp(x0, d0).rep, lambda k: gr_exp(x0, d0[k]).rep, count)
    _members_match(lambda: gr_log(x0, y0), lambda k: gr_log(x0, y0[k]), count)
    _members_match(lambda: gr_transport(x0, d0, t, g0),
                   lambda k: gr_transport(x0, d0[k], t, g0[k]), count)
    _members_match(lambda: gr_distance(x0, y0), lambda k: gr_distance(x0, y0[k]), count)


@pytest.mark.parametrize("t", [np.array([0.3, 0.9]), np.array([0.3]), np.nan, np.inf,
                               -np.inf, 0.3j, True, "0.3", None])
def test_gr_transport_refuses_a_time_that_is_not_a_finite_real_scalar(t):
    # an array time would broadcast along the eigenvalue axis of the Gram
    x, _, d, g, _ = _grassmann_case(2, 6, seed=3)
    with pytest.raises(ContractError, match="transport time must be a finite real scalar"):
        gr_transport(x, d, t, g)


def test_gr_transport_takes_any_real_scalar_time():
    x, _, d, g, _ = _grassmann_case(2, 6, seed=3)
    for t, same in ((np.float64(0.3), 0.3), (np.array(0.3), 0.3), (1, 1.0)):
        assert gr_transport(x, d, t, g).tobytes() == gr_transport(x, d, same, g).tobytes()


@settings(max_examples=25, deadline=None)
@given(count=st.sampled_from([1, 3, 7]), seed=st.integers(0, 2**32 - 1))
def test_spd_maps_on_stacks_equal_their_single_point_calls(count, seed):
    p, d, s, _ = _spd_case(count, seed)
    _members_match(lambda: spd_exp(p, s).mat, lambda k: spd_exp(p[k], s[k]).mat, count)
    _members_match(lambda: spd_log(p, d), lambda k: spd_log(p[k], d[k]), count)
    _members_match(lambda: spd_transport(p, d, s),
                   lambda k: spd_transport(p[k], d[k], s[k]), count)
    _members_match(lambda: spd_distance(p, d), lambda k: spd_distance(p[k], d[k]), count)
    # one base against stacked targets and tangents
    p0 = p[0]
    _members_match(lambda: spd_exp(p0, s).mat, lambda k: spd_exp(p0, s[k]).mat, count)
    _members_match(lambda: spd_log(p0, d), lambda k: spd_log(p0, d[k]), count)
    _members_match(lambda: spd_transport(p0, d, s),
                   lambda k: spd_transport(p0, d[k], s[k]), count)
    _members_match(lambda: spd_distance(p0, d), lambda k: spd_distance(p0, d[k]), count)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["grassmann", "product"]),
       count=st.sampled_from([1, 3, 7]), seed=st.integers(0, 2**32 - 1))
def test_embed_of_a_stack_equals_its_single_point_calls(models, kind, count, seed):
    model = models[kind]
    rows = _rows(model, count, 0.8, seed)
    stack = generate(model, rows)
    _members_match(lambda: embed(model, stack), lambda k: embed(model, stack[k]), count)


def test_single_points_keep_the_bits_of_the_raw_kernels():
    x, y, d, g, _ = _grassmann_case(1, 9, seed=11)
    x, y, d, g = x[0], y[0], d[0], g[0]
    assert gr_exp(x, d).rep.tobytes() == grassmann._exp_raw(x.rep, d).tobytes()
    assert gr_log(x, y).tobytes() == grassmann._log_raw(x.rep, y.rep).tobytes()
    assert (gr_transport(x, d, 0.7, g).tobytes()
            == grassmann._transport_raw(x.rep, d, 0.7, g).tobytes())
    theta = principal_angles(x.rep, y.rep)
    assert gr_distance(x, y) == float(np.sqrt(np.sum(theta**2)))
    assert gr_distance(x, y, "angle-sum") == float(np.sum(theta))
    p, q, s, _ = _spd_case(1, seed=11)
    p, q, s = p[0], q[0], s[0]
    assert spd_exp(p, s).mat.tobytes() == spd._exp_raw(p.mat, s).tobytes()
    assert spd_log(p, q).tobytes() == spd._log_raw(p.mat, q.mat).tobytes()
    assert spd_distance(p, q) == float(spd._distance_raw(p.mat, q.mat))
    assert all(type(f) is float for f in (gr_distance(x, y), spd_distance(p, q)))


# ---------------------------------------- the failures of single-point maps

def test_grassmann_distance_of_stacks_is_per_member():
    x, y, *_ = _grassmann_case(3, 8, seed=1)
    dist = gr_distance(x, y)
    assert dist.shape == (3,)
    assert list(dist) == [gr_distance(x[k], y[k]) for k in range(3)]


def test_grassmann_log_and_exp_take_stacks():
    x, y, *_ = _grassmann_case(3, 8, seed=2)
    d = gr_log(x, y)
    assert d.shape == (3, 8, 2)
    assert np.all(gr_distance(gr_exp(x, d), y) < 1e-12)


def test_spd_distance_and_transport_take_stacks():
    p, d, s, _ = _spd_case(3, seed=3)
    assert spd_distance(p, d).shape == (3,)
    moved = spd_transport(p, d, s)
    assert moved.shape == (3, 2, 2)
    _close(spd_transport(d, p, moved), s, scale=10.0)


def test_embed_takes_the_stack_the_model_was_fitted_on(models):
    reps, preps, scales = _airfoils(14, seed=5)
    for kind, point in (("grassmann", GrassmannPoint(reps)),
                        ("product", ProductPoint(preps, scales))):
        model = models[kind]
        np.testing.assert_allclose(embed(model, point), model.coords, atol=1e-10)
        rows = _rows(model, 5, 1.0, seed=8)
        np.testing.assert_allclose(embed(model, generate(model, rows)), rows, atol=1e-10)
        assert embed(model, point[0]).shape == (model.r,)


def test_reprs_show_a_stack_and_name_it_in_a_refusal(models):
    reps, preps, scales = _airfoils(3, seed=6, n_c=31)
    assert repr(GrassmannPoint(reps[0])) == f"GrassmannPoint(n={reps.shape[1]})"
    assert repr(GrassmannPoint(reps)) == f"GrassmannPoint(n={reps.shape[1]}, shape=(3,))"
    assert repr(ProductPoint(preps, scales)).endswith("shape=(3,))")
    with pytest.raises(ContractError, match=r"GrassmannPoint\(n=31, shape=\(3,\)\) does not lie"):
        embed(models["grassmann"], GrassmannPoint(reps))


# ------------------------------------------- refused members of the maps

@pytest.mark.parametrize("k", [0, 2, 4])
def test_grassmann_maps_name_the_refused_tangent(k):
    x, y, d, g, _ = _grassmann_case(5, 7, seed=k)
    tilted = d.copy()
    tilted[k] += 1e-6 * x.rep[k]
    with pytest.raises(ContractError, match="^tangent is not horizontal at base") as err:
        gr_exp(x, tilted)
    assert err.value.index == (k,)
    broken = d.copy()
    broken[k, 3, 1] = np.nan
    with pytest.raises(ContractError, match="^tangent has non-finite entries") as err:
        gr_exp(x, broken)
    assert err.value.index == (k,)
    for name, args in (("gamma_dir", (tilted, g)), ("payload", (d, tilted))):
        with pytest.raises(ContractError,
                           match=f"^{name} is not horizontal at gamma_base") as err:
            gr_transport(x, args[0], 0.5, args[1])
        assert err.value.index == (k,)
    with pytest.raises(ContractError, match="^payload has non-finite entries") as err:
        gr_transport(x, d, 0.5, broken)
    assert err.value.index == (k,)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_spd_maps_name_the_refused_tangent(k):
    p, d, s, _ = _spd_case(5, seed=k)
    skew = s.copy()
    skew[k, 0, 1] += 1e-6
    for call in (lambda t: spd_exp(p, t), lambda t: spd_transport(p, d, t)):
        with pytest.raises(ContractError, match="^tangent is not symmetric") as err:
            call(skew)
        assert err.value.index == (k,)
    broken = s.copy()
    broken[k, 1, 1] = np.inf
    with pytest.raises(ContractError, match="non-finite entries") as err:
        spd_exp(p, broken)
    assert err.value.index == (k,)


def test_maps_refuse_stacks_that_do_not_match():
    x, y, d, g, _ = _grassmann_case(3, 6, seed=7)
    other = GrassmannPoint(np.linalg.qr(np.ones((4, 5, 2)) + np.eye(5, 2))[0])
    for call in (lambda: gr_exp(x, d[:2]), lambda: gr_exp(x, d[..., :1]),
                 lambda: gr_log(x, y[:2]), lambda: gr_log(x, other),
                 lambda: gr_distance(x, other), lambda: gr_transport(x[0], d, 1.0, g[:2])):
        with pytest.raises(ContractError, match="do not match"):
            call()
    p, q, s, _ = _spd_case(3, seed=7)
    for call in (lambda: spd_exp(p, s[:2]), lambda: spd_log(p, q[:2]),
                 lambda: spd_distance(p[:2], q), lambda: spd_transport(p[0], q, s[:2])):
        with pytest.raises(ContractError, match="do not match"):
            call()
