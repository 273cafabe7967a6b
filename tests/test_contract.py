"""The library's input contract under property tests.

Every callable in ``shapetensors.__all__`` that takes arrays or points
has a case here, and a test checks that the table and the list of
callables that take neither (``NO_ARRAYS``) cover ``__all__`` between
them.  A case builds its array arguments with a given leading shape --
(), (0,), (1,), (k,) or (2, k) -- and calls the library on them, with
every warning an error.  The tests then corrupt the arguments: a member
with a non-finite entry, a trailing shape that does not match, and
complex, integer, bool, object and string dtypes.  Each call must either
equal its per-member calls (bit for bit where the docstring promises
it), or raise a ShapeTensorError whose ``index`` names a member that its
own call refuses too.  Maps over members accept zero of them and return
zero results; reductions refuse zero members.
"""

import functools
import tempfile
import types
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapetensors as lib
from shapetensors import (AffineFactor, BladeModel, GrassmannPoint, LandmarkShape,
                          MeanScale, PgaModel, ProductPoint, SampleDomain,
                          ShapeTensorError, SpdMatrix)
from shapetensors.blade import build_blade
from shapetensors.cst import cst_airfoils
from shapetensors.errors import ContractError

N = 7  # landmarks of a Grassmann representative
LEADS = [(), (0,), (1,), (3,), (2, 3)]


def _orthonormal(rng, lead, n=N):
    return np.linalg.qr(rng.standard_normal(lead + (n, 2)))[0]


def _near(rng, x, scale):
    """Representatives within ``scale`` of x: targets for Log."""
    d = rng.standard_normal(x.shape)
    d -= x @ (np.swapaxes(x, -1, -2) @ d)
    d *= scale / np.linalg.norm(d, axis=(-2, -1), keepdims=True)
    return np.linalg.qr(x + d)[0]


def _horizontal(rng, x, scale=0.5):
    d = rng.standard_normal(x.shape)
    return scale * (d - x @ (np.swapaxes(x, -1, -2) @ d))


def _spd(rng, lead):
    a = rng.standard_normal(lead + (2, 2))
    return a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(2)


def _sym(rng, lead):
    a = rng.standard_normal(lead + (2, 2))
    return a + np.swapaxes(a, -1, -2)


def _coeffs(rng, lead):
    return rng.uniform(0.05, 0.45, lead + (9,))


def _airfoil(rng, lead, n_c=21):
    return cst_airfoils(_coeffs(rng, lead), _coeffs(rng, lead), n_c=n_c)


@functools.cache
def _fixtures():
    """A rank-2 Grassmann PGA model of 8 airfoils and a 4-station blade."""
    from shapetensors.shapes import _standardize_raw
    from shapetensors.stats import pga_fit
    rng = np.random.default_rng(11)
    pts = _airfoil(rng, (8,), n_c=N)
    model = pga_fit(GrassmannPoint(_standardize_raw(pts, "gl2")[0]), r=2)
    shapes = [LandmarkShape(p, closed=True) for p in _airfoil(rng, (4,), n_c=N)]
    blade = build_blade(list(zip((0.0, 0.3, 0.6, 1.0), shapes)))
    return model, blade


def _model():
    return _fixtures()[0]


def _blade():
    return _fixtures()[1]


def _pool(items, lead):
    """A stack of shape ``lead`` taken in turn from a fixed pool of arrays."""
    pool = np.asarray(items)
    return pool[np.arange(int(np.prod(lead))).reshape(lead) % len(pool)]


class _NoDraws:
    """A generator whose uniform draws are all zero, so perturbation
    factors are 1 and a stack's members do not depend on draw order."""

    def uniform(self, low, high, size):
        return np.zeros(size)


@dataclass
class Case:
    """build(rng, lead) -> the array arguments with leading shape lead;
    call(*arrays) -> the result as an array (or a tuple of them).
    ``ranks`` are the leading ranks accepted (None: any); ``least`` the
    members a reduction needs (None: a map over members, compared with
    its per-member calls); ``exact`` asks for equal bits."""
    build: object
    call: object
    ranks: tuple = None
    least: int = None
    exact: bool = False
    free_last: bool = False  # the last axis takes any positive length


def _gr(x):
    return GrassmannPoint(x)


def _spdp(p):
    return SpdMatrix(p)


CASES = {
    # maps over members
    "GrassmannPoint": Case(lambda r, l: [_orthonormal(r, l)],
                           lambda x: GrassmannPoint(x).rep, exact=True),
    "SpdMatrix": Case(lambda r, l: [_spd(r, l)], lambda p: SpdMatrix(p).mat, exact=True),
    "ProductPoint": Case(lambda r, l: [_orthonormal(r, l), _spd(r, l)],
                         lambda x, p: (lambda q: (q.grass.rep, q.scale.mat))(
                             ProductPoint(x, p)), exact=True),
    "gr_exp": Case(lambda r, l: (lambda x: [x, _horizontal(r, x)])(_orthonormal(r, l)),
                   lambda x, d: lib.gr_exp(_gr(x), d).rep),
    "gr_log": Case(lambda r, l: (lambda x: [x, _near(r, x, 0.5)])(_orthonormal(r, l)),
                   lambda x, y: lib.gr_log(_gr(x), _gr(y))),
    "gr_distance": Case(lambda r, l: [_orthonormal(r, l), _orthonormal(r, l)],
                        lambda x, y: np.asarray(lib.gr_distance(_gr(x), _gr(y)))),
    "gr_transport": Case(
        lambda r, l: (lambda x: [x, _horizontal(r, x), _horizontal(r, x)])(
            _orthonormal(r, l)),
        lambda x, d, g: lib.gr_transport(_gr(x), d, 0.5, g)),
    "principal_angles": Case(lambda r, l: [_orthonormal(r, l), _orthonormal(r, l)],
                             lib.principal_angles),
    "procrustes_rotation": Case(lambda r, l: [_orthonormal(r, l), _orthonormal(r, l)],
                                lib.procrustes_rotation),
    "spd_exp": Case(lambda r, l: [_spd(r, l), _sym(r, l)],
                    lambda p, s: lib.spd_exp(_spdp(p), s).mat),
    "spd_log": Case(lambda r, l: [_spd(r, l), _spd(r, l)],
                    lambda p, d: lib.spd_log(_spdp(p), _spdp(d))),
    "spd_distance": Case(lambda r, l: [_spd(r, l), _spd(r, l)],
                         lambda p, d: np.asarray(lib.spd_distance(_spdp(p), _spdp(d)))),
    "spd_transport": Case(lambda r, l: [_spd(r, l), _spd(r, l), _sym(r, l)],
                          lambda p, d, s: lib.spd_transport(_spdp(p), _spdp(d), s)),
    "landmark_gauge": Case(lambda r, l: [_airfoil(r, l)],
                           lambda p: np.asarray(lib.landmark_gauge(p)), exact=True),
    "cst_airfoils": Case(lambda r, l: [_coeffs(r, l), _coeffs(r, l)],
                         lambda u, lo: lib.cst_airfoils(u, lo, n_c=21), exact=True,
                         free_last=True),
    "bernstein_shape": Case(lambda r, l: [_coeffs(r, l)],
                            lambda c: lib.bernstein_shape(np.linspace(0, 1, 11), c),
                            free_last=True),
    "perturb_coefficients": Case(
        lambda r, l: [_coeffs(r, l), _coeffs(r, l)],
        lambda u, lo: np.concatenate(lib.perturb_coefficients(_NoDraws(), u, lo), axis=-1),
        exact=True, free_last=True),
    "generate": Case(lambda r, l: [r.uniform(-0.02, 0.02, l + (2,))],
                     lambda c: lib.generate(_model(), c).rep),
    "embed": Case(
        lambda r, l: [_near(r, np.broadcast_to(_model().mean.rep, l + (N, 2)), 0.1)],
        lambda x: lib.embed(_model(), _gr(x))),
    "wireframe_sections": Case(
        lambda r, l: [r.uniform(0.0, 1.0, l)],
        lambda e: np.array([p for _, p in lib.wireframe_sections(_blade(), e)]
                           ).reshape(e.shape + (N, 3)), ranks=(1,)),
    # single members
    "LandmarkShape": Case(lambda r, l: [_airfoil(r, l)], lambda p: LandmarkShape(p).x,
                          ranks=(0,), exact=True),
    "AffineFactor": Case(lambda r, l: [_spd(r, l), r.standard_normal(l + (2,))],
                         lambda m, b: (lambda f: (f.m, f.b))(AffineFactor(m, b)),
                         ranks=(0,), exact=True),
    "l4_matrix": Case(lambda r, l: [r.uniform(0.5, 2.0, l + (4,))], lib.l4_matrix,
                      ranks=(0,)),
    "MeanScale": Case(lambda r, l: [_spd(r, l)], lambda m: MeanScale(m).m, ranks=(0,),
                      exact=True),
    "cst_airfoil": Case(lambda r, l: [_coeffs(r, l), _coeffs(r, l)],
                        lambda u, lo: lib.cst_airfoil(u, lo, n_c=21).x, ranks=(0,),
                        exact=True, free_last=True),
    "self_intersects": Case(lambda r, l: [_airfoil(r, l)],
                            lambda p: np.asarray(lib.self_intersects(p)), ranks=(0,)),
    "la_standardize": Case(lambda r, l: [_airfoil(r, l)],
                           lambda p: lib.la_standardize(p).grass.rep, ranks=(0,)),
    "cumulative_lengths": Case(lambda r, l: [_airfoil(r, l)], lib.cumulative_lengths,
                               ranks=(0,)),
    "consistent_deform": Case(
        lambda r, l: [r.uniform(-0.01, 0.01, l + (2,))],
        lambda c: lib.consistent_deform(_blade(), _model(), c).reps, ranks=(0,)),
    "evaluate_blade": Case(lambda r, l: [r.uniform(0.0, 1.0, l)],
                           lambda e: lib.evaluate_blade(_blade(), e).x, ranks=(0,)),
    "evaluate_representative": Case(
        lambda r, l: [r.uniform(0.0, 1.0, l)],
        lambda e: lib.evaluate_representative(_blade(), e).rep, ranks=(0,)),
    "PgaModel": Case(
        lambda r, l: [_pool([_model().basis], l), _pool([_model().eigenvalues], l),
                      _pool([_model().coords], l)],
        lambda b, e, c: PgaModel(_model().mean, b, e, c, 1e-8).coords, ranks=(0,)),
    "SampleDomain": Case(
        lambda r, l: [r.uniform(-2, -1, l + (2,)), r.uniform(1, 2, l + (2,))],
        lambda lo, hi: SampleDomain(lo, hi, 3.0).hi, ranks=(0,)),
    "generate_airfoils": Case(
        lambda r, l: [_coeffs(r, l), _coeffs(r, l)],
        lambda u, lo: lib.generate_airfoils(np.random.default_rng(0), 2, n_c=21,
                                               nominal=(u, lo))[1], ranks=(0,),
        free_last=True),
    # reductions over members
    "karcher_mean": Case(lambda r, l: [_near(r, _pool([_orthonormal(r, ())], l), 0.2)],
                         lambda x: lib.karcher_mean(_gr(x)).rep, ranks=(1,), least=1),
    "pga_fit": Case(lambda r, l: [_near(r, _pool([_orthonormal(r, ())], l), 0.2)],
                    lambda x: lib.pga_fit(_gr(x), r=1).coords, ranks=(1,), least=2),
    "mean_scale": Case(lambda r, l: [_spd(r, l)], lambda m: lib.mean_scale(m).m,
                       ranks=(1,), least=1),
    "cluster_representatives": Case(
        lambda r, l: [_orthonormal(r, l)],
        lambda x: lib.cluster_representatives(x)[0], ranks=(1,), least=1),
    "build_blade": Case(
        lambda r, l: [_etas(r, l), _pool([s.x for _, s in _stations()], l)],
        lambda e, p: build_blade([(eta, LandmarkShape(x, closed=True))
                                  for eta, x in (zip(e, p) if e.ndim else [(e, p)])]).reps,
        ranks=(1,), least=2),
    "BladeModel": Case(
        lambda r, l: [_etas(r, l), _pool(_blade().reps, l),
                      _pool(_blade().affine_m, l), _pool(_blade().affine_b, l)],
        lambda e, x, m, b: BladeModel("gl2-schedule", e, x, m, b).ts, ranks=(1,), least=2),
    "write_obj": Case(lambda r, l: [r.standard_normal(l + (4, 3))],
                      lambda s: _written(lambda p: lib.write_obj(p, s)),
                      ranks=(1,), least=2),
    "write_wireframe": Case(
        lambda r, l: [_etas(r, l)],
        lambda e: _written(lambda p: lib.write_wireframe(p, _blade(), e), "blade.obj"),
        ranks=(1,), least=2),
}


def _etas(rng, lead):
    return np.sort(rng.uniform(0.0, 1.0, lead), axis=None).reshape(lead)


def _stations():
    b = _blade()
    return [(e, LandmarkShape(x @ m + o, closed=True))
            for e, x, m, o in zip(b.etas, b.reps, b.affine_m, b.affine_b)]


def _written(write, *inside):
    """The bytes write(path) puts at path (or at path/inside)."""
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp) / "out")
        return np.frombuffer(Path(tmp, "out", *inside).read_bytes(), np.uint8)


# Callables of ``__all__`` that take neither arrays nor points: exception
# types, files, configurations, counts, and objects checked when they were
# built (a blade definition's etas, scales and bend are checked by the
# build_blade it feeds).
NO_ARRAYS = {
    "ContractError", "ConvergenceError", "DegenerateGeometryError",
    "ExtrapolationError", "NormalNeighborhoodError", "ShapeTensorError",
    "PreprocessConfig", "ConvergenceReport", "run_convergence",
    "write_convergence_csv", "write_convergence_svg",
    "read_landmarks", "read_coefficients", "read_blade_definition", "load_blade",
    "load_model", "save_blade", "save_model", "write_landmarks",
    "BladeDefinition", "build_blade_from_definition",
    "SeparableShape", "reconstruct", "refine", "sample_domain",
}


def test_the_cases_cover_every_callable_that_takes_arrays():
    public = {name for name in lib.__all__ if callable(getattr(lib, name))}
    assert public == set(CASES) | NO_ARRAYS and not set(CASES) & NO_ARRAYS


def test_all_lists_no_module():
    assert not [name for name in lib.__all__
                if isinstance(getattr(lib, name), types.ModuleType)]


# ------------------------------------------------------------- the runner

def _run(case, arrays):
    """The case's result on these arrays, every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return case.call(*arrays)


def _outcome(case, arrays):
    try:
        return _run(case, arrays)
    except ShapeTensorError as err:
        return err


def _parts(out):
    return out if isinstance(out, tuple) else (out,)


def _same(a, b, exact):
    for x, y in zip(_parts(a), _parts(b), strict=True):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape
        if exact:
            assert np.array_equal(x, y)
        else:
            np.testing.assert_allclose(x, y, rtol=1e-9, atol=1e-12)


def _accepts(case, lead):
    rank_ok = case.ranks is None or len(lead) in case.ranks
    return rank_ok and (case.least is None or lead[0] >= case.least)


def _member(case, arrays, idx):
    """The arguments of member idx alone: indexed for a map over any
    leading axes, a slice one long for a map over one axis."""
    if case.ranks == (1,):
        idx = (slice(idx[0], idx[0] + 1),)
    return tuple(a[idx] for a in arrays)


def _check(case, arrays, lead):
    """The contract: a map equals its members or names a refused one; an
    input the case does not accept is refused."""
    out = _outcome(case, arrays)
    if not _accepts(case, lead):
        assert isinstance(out, ShapeTensorError), "accepted a shape outside the contract"
        return out
    if case.least is not None or not lead or case.ranks == (0,):
        return out  # a reduction or a single member: success or a refusal
    if isinstance(out, ShapeTensorError):
        assert len(out.index) >= len(lead), f"{out!r} names no member"
        member = _member(case, arrays, out.index[:len(lead)])
        assert isinstance(_outcome(case, member), type(out)), "the member alone passes"
        return out
    for idx in np.ndindex(lead):
        _same(_member(case, _parts(out), idx), _run(case, _member(case, arrays, idx)),
              case.exact)
    assert all(p.shape[:len(lead)] == lead for p in map(np.asarray, _parts(out)))
    return out


NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(lead=st.sampled_from(LEADS), seed=st.integers(0, 2**32 - 1))
def test_a_valid_stack_equals_its_members(name, lead, seed):
    case = CASES[name]
    out = _check(case, case.build(np.random.default_rng(seed), lead), lead)
    if _accepts(case, lead):
        assert not isinstance(out, ShapeTensorError), out


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(lead=st.sampled_from([l for l in LEADS if 0 not in l]),
       seed=st.integers(0, 2**32 - 1), arg=st.integers(0, 3),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_a_non_finite_member_is_refused_by_name(name, lead, seed, arg, bad, data):
    case = CASES[name]
    arrays = case.build(np.random.default_rng(seed), lead)
    arrays = [np.array(a, dtype=float) for a in arrays]
    target = arrays[arg % len(arrays)]
    member = data.draw(st.sampled_from(list(np.ndindex(lead))))
    entry = data.draw(st.integers(0, max(target[member].size - 1, 0)))
    target[member + np.unravel_index(entry, target[member].shape)] = bad
    out = _check(case, arrays, lead)
    assert isinstance(out, ShapeTensorError), "a non-finite member passed"
    if _accepts(case, lead) and case.least is None and case.ranks != (0,):
        assert out.index[:len(lead)] == member


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arg=st.integers(0, 3),
       change=st.sampled_from(["drop", "grow", "extra axis", "flatten"]), data=st.data())
def test_a_wrong_trailing_shape_is_refused(name, seed, arg, change, data):
    case = CASES[name]
    lead = data.draw(st.sampled_from([l for l in LEADS if _accepts(case, l)]))
    arrays = case.build(np.random.default_rng(seed), lead)
    k = arg % len(arrays)
    a = np.asarray(arrays[k])
    if a.ndim == len(lead):  # scalar members: only an extra axis is wrong
        change = "extra axis"
    if case.free_last:  # any coefficient count but none is right
        change = "empty"
    if change == "empty":
        a = a[..., :0]
    elif change == "drop":
        a = a[..., :-1]
    elif change == "grow":
        a = np.concatenate([a, a[..., -1:]], axis=-1)
    elif change == "extra axis":
        a = a[..., None]
    else:
        a = (a.reshape(lead + (int(np.prod(a.shape[len(lead):])),))
             if a.ndim > len(lead) + 1 else a[..., None, None])
    arrays[k] = a
    assert isinstance(_outcome(case, arrays), ShapeTensorError)


DTYPES = ["complex", "int", "bool", "object", "str"]


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(lead=st.sampled_from(LEADS), seed=st.integers(0, 2**32 - 1), arg=st.integers(0, 3),
       dtype=st.sampled_from(DTYPES))
def test_only_real_dtypes_are_taken_and_as_floats(name, lead, seed, arg, dtype):
    case = CASES[name]
    arrays = case.build(np.random.default_rng(seed), lead)
    k = arg % len(arrays)
    a = np.asarray(arrays[k], dtype=float)
    if dtype in ("complex", "str"):
        arrays[k] = a.astype(dtype)
        out = _outcome(case, arrays)
        assert isinstance(out, ContractError), f"took {dtype} input"
        return
    cast = {"int": lambda v: np.rint(4 * v).astype(int),
            "bool": lambda v: v > 0.2,
            "object": lambda v: v.astype(object)}[dtype](a)
    got = _outcome(case, arrays[:k] + [cast] + arrays[k + 1:])
    want = _outcome(case, arrays[:k] + [cast.astype(float)] + arrays[k + 1:])
    assert type(got) is type(want) or not isinstance(got, ShapeTensorError) and not \
        isinstance(want, ShapeTensorError), (got, want)
    if isinstance(want, ShapeTensorError):
        assert got.index == want.index
    else:
        _same(got, want, exact=True)


@pytest.mark.parametrize("name", [n for n in NAMES if CASES[n].least])
def test_a_reduction_refuses_zero_members(name):
    case = CASES[name]
    with pytest.raises(ContractError):
        _run(case, case.build(np.random.default_rng(0), (0,)))


@pytest.mark.parametrize("name", [n for n in NAMES
                                  if CASES[n].least is None and CASES[n].ranks != (0,)])
def test_a_map_over_zero_members_returns_zero_results(name):
    case = CASES[name]
    out = _run(case, case.build(np.random.default_rng(0), (0,)))
    assert all(np.asarray(p).shape[:1] == (0,) for p in _parts(out))


# ------------------------------------------ scalar options, huge values

def _option(name, value):
    """The scalar option ``name`` set to ``value``, as the object stores it."""
    model, blade = _fixtures()
    return {
        "PgaModel epsilon": lambda: PgaModel(model.mean, model.basis, model.eigenvalues,
                                             model.coords, value).epsilon,
        "SampleDomain radius": lambda: SampleDomain([-1.0], [1.0], value).radius,
        "BladeModel span_length": lambda: BladeModel(
            "gl2-schedule", blade.etas, blade.reps, blade.affine_m, blade.affine_b,
            span_length=value).span_length,
        "BladeDefinition span_length": lambda: lib.BladeDefinition(
            [(0.0, "a", None, None), (1.0, "b", None, None)],
            span_length=value).span_length,
    }[name]()


OPTIONS = ["PgaModel epsilon", "SampleDomain radius", "BladeModel span_length",
           "BladeDefinition span_length"]


@pytest.mark.parametrize("name", OPTIONS)
@pytest.mark.parametrize("value", [np.complex128(2), 2j, "2.0", None, np.ones(2), [2.0]])
def test_a_scalar_option_takes_one_real_number(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError):
            _option(name, value)
        for fine in (2, np.int64(2), np.float32(2.0), np.array(2.0)):
            got = _option(name, fine)
            assert type(got) is float and got == 2.0


@pytest.mark.parametrize("name", OPTIONS)
def test_a_scalar_option_is_finite_but_a_radius_may_have_overflowed(name):
    if name == "SampleDomain radius":  # sample_domain's norm overflows to inf
        assert _option(name, np.inf) == np.inf
        return
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError):
            _option(name, value)


@pytest.mark.parametrize("factors", [5, 2.5, np.float64(1.0), np.array(1.0)])
def test_mean_scale_refuses_what_is_not_a_stack(factors):
    with pytest.raises(ContractError):
        lib.mean_scale(factors)


@pytest.mark.parametrize("l,error", [
    ([1e200, 1e200, 1e200, 0.0], ContractError),  # the matrix overflows
    ([1e200, -1e200, 1e200, 0.3], ContractError),
    ([1e200, 1e200, 0.0, 0.0], lib.DegenerateGeometryError),
    ([1e-200, 1e-200, 1.0, 0.0], lib.DegenerateGeometryError),  # a row underflows
])
def test_l4_matrix_refuses_huge_and_vanishing_scales_without_warning(l, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            lib.l4_matrix(l)


def _overflowing_gap(rng):
    pts = _airfoil(rng, ())
    pts[2:4] = [[1e308, 0.0], [-1e308, 0.0]]
    return [pts]


# name -> (a fine member's arguments, arguments of a member that overflows)
NEAR_OVERFLOW = {
    "landmark_gauge": (lambda r: [_airfoil(r, ())], _overflowing_gap),
    "principal_angles": (lambda r: [_orthonormal(r, ()), _orthonormal(r, ())],
                         lambda r: [1e200 * _orthonormal(r, ()), _orthonormal(r, ())]),
    "procrustes_rotation": (lambda r: [_orthonormal(r, ()), _orthonormal(r, ())],
                            lambda r: [1e200 * _orthonormal(r, ()),
                                       1e200 * _orthonormal(r, ())]),
}


@pytest.mark.parametrize("name", sorted(NEAR_OVERFLOW))
def test_near_overflow_members_are_refused_by_index_without_warning(name):
    rng = np.random.default_rng(5)
    fine, bad = NEAR_OVERFLOW[name]
    f = getattr(lib, name)
    members = [fine(rng), bad(rng), fine(rng)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError) as err:
            f(*members[1])
        assert err.value.index == ()
        stacks = [np.stack(args) for args in zip(*members)]
        with pytest.raises(ContractError) as err:
            f(*stacks)
        assert err.value.index == (1,)
        # the members that do not overflow keep the bits of their own calls
        got = f(*[a[::2] for a in stacks])
        for k, args in enumerate(members[::2]):
            np.testing.assert_array_equal(got[k], f(*args))


@pytest.mark.parametrize("pts,verdict", [
    ([[-1e308, 0.0], [1e308, 0.0], [1e308, 1.0]], False),
    ([[-1e308, 0.0], [1e308, 0.0], [0.0, 0.0]], True),  # folds back
    ([[-1e308, -1e308], [1e308, 1e308], [1e308, -1e308], [-1e308, 1e308]], True),
    ([[-1e308, 0.0], [1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]], False),
])
def test_self_intersects_is_exact_near_overflow_without_warning(pts, verdict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lib.self_intersects(np.array(pts)) is verdict
