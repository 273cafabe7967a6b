import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shapetensors import cst
from shapetensors.cst import (
    cst_airfoil,
    cst_airfoils,
    generate_airfoils,
    perturb_coefficients,
)
from shapetensors.errors import ContractError, DegenerateGeometryError
from shapetensors.intersect import self_intersects
from shapetensors.shapes import MAX_LANDMARKS

PROPERTY = settings(max_examples=40, deadline=None)
SAMPLINGS = ("cosine", "uniform")
LANDMARK_COUNTS = (5, 6, 7, 61, 200, 401)


def test_traversal_and_te_closure():
    shape = cst_airfoil(np.full(9, 0.25), np.full(9, 0.25), n_c=201)
    assert shape.closed
    np.testing.assert_allclose(shape.x[0], [1.0, 0.0])
    np.testing.assert_allclose(shape.x[-1], [1.0, 0.0])
    mid = shape.x[100]  # odd count puts the leading edge at the middle
    np.testing.assert_allclose(mid, [0.0, 0.0], atol=1e-12)
    # upper surface first (positive y), lower second
    assert np.all(shape.x[1:100, 1] > 0)
    assert np.all(shape.x[101:-1, 1] < 0)


def test_all_quarter_coefficients_is_valid():
    quarter = (np.full(9, 0.25), np.full(9, 0.25))
    shapes, rows, rejected = generate_airfoils(np.random.default_rng(0), 1, n_c=201,
                                               nominal=quarter, percent=0.0)
    assert rejected == 0
    assert rows.tobytes() == np.full((1, 18), 0.25).tobytes()
    assert shapes[0].x.tobytes() == cst_airfoil(*quarter, n_c=201).x.tobytes()
    assert not self_intersects(shapes[0])


def test_equal_coefficients_symmetric_about_chord():
    # equal thickness vectors: upper surface is the mirror of the lower
    shape = cst_airfoil(np.full(9, 0.2), np.full(9, 0.2), n_c=201)
    np.testing.assert_allclose(shape.x[:, 0], shape.x[::-1, 0], atol=1e-12)
    np.testing.assert_allclose(shape.x[:, 1], -shape.x[::-1, 1], atol=1e-12)


def test_zero_coefficients_degenerate():
    with pytest.raises(DegenerateGeometryError):
        cst_airfoil(np.zeros(9), np.zeros(9))


def test_random_draws_mostly_valid():
    shapes, _, rejected = generate_airfoils(np.random.default_rng(77), 100, n_c=201)
    assert len(shapes) == 100
    assert rejected <= 1


def test_uniform_sampling_variant():
    shape = cst_airfoil(np.full(9, 0.3), np.full(9, 0.15), n_c=101, sampling="uniform")
    x = shape.x[:, 0]
    steps = np.abs(np.diff(x[1:51]))
    np.testing.assert_allclose(steps, steps[0], atol=1e-12)


def test_unknown_sampling_rejected():
    with pytest.raises(ContractError):
        cst_airfoil(np.full(9, 0.2), np.full(9, 0.2), sampling="chebyshev")


def test_perturb_zero_percent_is_identity():
    rng = np.random.default_rng(3)
    u = np.linspace(0.1, 0.4, 9)
    l = np.linspace(0.05, 0.3, 9)
    pu, pl = perturb_coefficients(rng, u, l, percent=0.0)
    np.testing.assert_allclose(pu, u, atol=1e-15)
    np.testing.assert_allclose(pl, l, atol=1e-15)


def test_perturb_stays_in_box():
    rng = np.random.default_rng(4)
    u = np.full(9, 0.2)
    l = np.full(9, 0.3)
    for _ in range(50):
        pu, pl = perturb_coefficients(rng, u, l, percent=20.0)
        assert np.all(pu >= 0.8 * u) and np.all(pu <= 1.2 * u)
        assert np.all(pl >= 0.8 * l) and np.all(pl <= 1.2 * l)


def test_generator_reports_resamples():
    rng = np.random.default_rng(11)
    shapes, rows, rejected = generate_airfoils(rng, 10, n_c=201)
    assert len(shapes) == 10
    assert rows.shape == (10, 18)
    assert rejected >= 0
    assert all(s.closed for s in shapes)


def _coefficients(rng, lead, k, case):
    """Coefficients of shape lead + (k,): uniform thicknesses, signed
    values, or a surface left at zero."""
    if case == "zero":
        return np.zeros(lead + (k,))
    if case == "signed":
        return rng.uniform(-0.5, 0.5, size=lead + (k,))
    return rng.uniform(0.0, 0.45, size=lead + (k,))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), ku=st.integers(1, 14), kl=st.integers(1, 14),
       n_c=st.sampled_from(LANDMARK_COUNTS), sampling=st.sampled_from(SAMPLINGS),
       case=st.sampled_from(("thickness", "signed", "zero")))
def test_cst_airfoil_matches_the_per_airfoil_oracle_bit_for_bit(seed, ku, kl, n_c,
                                                                  sampling, case):
    rng = np.random.default_rng(seed)
    upper = _coefficients(rng, (), ku, "thickness")
    lower = _coefficients(rng, (), kl, case)
    got = cst_airfoil(upper, lower, n_c=n_c, sampling=sampling)
    want = oracles.cst_airfoil(upper, lower, n_c=n_c, sampling=sampling)
    assert got.closed and got.x.tobytes() == want.x.tobytes()
    # the stack kernel's batch of one is the same call
    assert cst_airfoils(upper, lower, n_c, sampling).tobytes() == want.x.tobytes()


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from(((1,), (4,), (2, 3))),
       ku=st.integers(1, 14), kl=st.integers(1, 14),
       n_c=st.sampled_from(LANDMARK_COUNTS), sampling=st.sampled_from(SAMPLINGS))
def test_cst_airfoils_members_match_the_per_airfoil_oracle(seed, lead, ku, kl, n_c,
                                                           sampling):
    rng = np.random.default_rng(seed)
    upper = _coefficients(rng, lead, ku, "signed")
    lower = _coefficients(rng, lead, kl, "thickness")
    got = cst_airfoils(upper, lower, n_c=n_c, sampling=sampling)
    assert got.shape == lead + (n_c, 2)
    for k in np.ndindex(lead):
        want = oracles.cst_airfoil(upper[k], lower[k], n_c=n_c, sampling=sampling)
        assert got[k].tobytes() == want.x.tobytes()


@pytest.mark.parametrize("lead, member", [((5,), (3,)), ((5,), (0,)), ((2, 3), (1, 2))])
def test_cst_airfoils_names_an_all_zero_member(lead, member):
    upper = np.full(lead + (9,), 0.2)
    lower = np.full(lead + (9,), 0.1)
    upper[member] = lower[member] = 0.0
    with pytest.raises(DegenerateGeometryError, match="all-zero") as err:
        cst_airfoils(upper, lower)
    assert err.value.index == member
    with pytest.raises(DegenerateGeometryError) as err:
        cst_airfoil(upper[member], lower[member])
    assert err.value.index == ()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cst_airfoils_refuses_non_finite_coefficients(bad):
    upper = np.full((3, 9), 0.2)
    upper[1, 4] = bad
    with pytest.raises(ContractError, match="coefficients must be finite"):
        cst_airfoils(upper, np.full((3, 9), 0.1))
    with pytest.raises(ContractError, match="coefficients must be finite"):
        cst_airfoil(np.full(9, 0.1), upper[1])


@pytest.mark.parametrize("upper_shape, lower_shape", [
    ((3, 9), (4, 9)), ((3, 9), (9,)), ((2, 3, 9), (3, 2, 9)), ((3, 9), (1, 3, 9)),
])
def test_cst_airfoils_refuses_mismatched_leading_shapes(upper_shape, lower_shape):
    with pytest.raises(ContractError, match="differ in leading shape"):
        cst_airfoils(np.full(upper_shape, 0.2), np.full(lower_shape, 0.1))


@pytest.mark.parametrize("upper, lower", [
    (0.2, np.full(9, 0.1)), (np.zeros((3, 0)), np.full((3, 9), 0.1)),
])
def test_cst_airfoils_refuses_an_empty_coefficient_axis(upper, lower):
    with pytest.raises(ContractError, match="non-empty last axis"):
        cst_airfoils(upper, lower)


@pytest.mark.parametrize("n_c", [-1, 0, 4, MAX_LANDMARKS + 1])
def test_cst_airfoils_refuses_landmark_counts_out_of_range(n_c):
    with pytest.raises(ContractError, match="landmarks, got"):
        cst_airfoils(np.full((2, 9), 0.2), np.full((2, 9), 0.1), n_c=n_c)
    with pytest.raises(ContractError, match="landmarks, got"):
        cst_airfoil(np.full(9, 0.2), np.full(9, 0.1), n_c=n_c)


def test_cst_airfoils_of_an_empty_stack_is_empty():
    assert cst_airfoils(np.zeros((0, 9)), np.zeros((0, 9)), n_c=11).shape == (0, 11, 2)


NOMINAL = (np.array([0.20, 0.18, 0.22, 0.17, 0.21, 0.19, 0.20, 0.18, 0.17]),
           np.array([0.12, 0.10, 0.13, 0.09, 0.11, 0.10, 0.12, 0.11, 0.10]))
BOXES = ((0.0, 0.45), (-0.3, 0.45))


def _generated(generate, seed, count, **kwargs):
    """generate's shapes, rows and resample count, and the state its rng
    was left in."""
    rng = np.random.default_rng(seed)
    return generate(rng, count, **kwargs), rng.bit_generator.state


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 60),
       n_c=st.sampled_from((61, 201)), sampling=st.sampled_from(SAMPLINGS),
       box=st.sampled_from(BOXES), nominal=st.sampled_from((None, NOMINAL)),
       percent=st.sampled_from((20.0, 150.0)))
def test_generate_airfoils_matches_the_per_draw_oracle_bit_for_bit(
        seed, count, n_c, sampling, box, nominal, percent):
    kwargs = dict(n_c=n_c, sampling=sampling, nominal=nominal, percent=percent,
                  lo=box[0], hi=box[1])
    (shapes, rows, rejected), state = _generated(generate_airfoils, seed, count,
                                                 **kwargs)
    (want, want_rows, want_rejected), want_state = _generated(
        oracles.generate_airfoils, seed, count, **kwargs)
    assert [s.x.tobytes() for s in shapes] == [s.x.tobytes() for s in want]
    assert all(s.closed for s in shapes)
    assert rows.shape == (count, 18)
    assert rows.tobytes() == want_rows.tobytes()
    assert rejected == want_rejected
    assert state == want_state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("nominal", [None, NOMINAL])
def test_generate_airfoils_keeps_the_resample_limit(monkeypatch, seed, nominal):
    # in the wide box, 40 airfoils take 27 or more redraws at these seeds
    monkeypatch.setattr(cst, "MAX_RESAMPLES", 3)
    for generate in (generate_airfoils, oracles.generate_airfoils):
        with pytest.raises(DegenerateGeometryError,
                           match="^exceeded 3 resamples while drawing valid shapes$"):
            generate(np.random.default_rng(seed), 40, n_c=61, nominal=nominal,
                     percent=300.0, lo=-0.3, hi=0.45)


def test_generate_airfoils_refuses_an_all_zero_nominal():
    """The refusal names no member: the rows of a pass are not the
    caller's."""
    zero = (np.zeros(9), np.zeros(9))
    for generate in (generate_airfoils, oracles.generate_airfoils):
        with pytest.raises(DegenerateGeometryError,
                           match="^all-zero coefficients give a rank-deficient") as err:
            generate(np.random.default_rng(0), 5, n_c=61, nominal=zero)
    with pytest.raises(DegenerateGeometryError) as err:
        generate_airfoils(np.random.default_rng(0), 5, n_c=61, nominal=zero)
    assert (err.value.index, err.value.refused) == ((), ())


@pytest.mark.parametrize("count", [2.5, -1, 3.0, "3", None, np.nan])
def test_generate_airfoils_refuses_a_count_that_is_not_a_non_negative_integer(count):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ContractError, match="count must be an integer >= 0"):
        generate_airfoils(rng, count)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("nominal, width", [(None, 18), (NOMINAL, 18),
                                            ((np.full(5, 0.2), np.full(3, 0.1)), 8)])
def test_generate_airfoils_of_no_airfoils_draws_nothing(nominal, width):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    shapes, rows, rejected = generate_airfoils(rng, np.int64(0), nominal=nominal)
    assert shapes == [] and rejected == 0
    assert rows.shape == (0, width)
    assert rng.bit_generator.state == state


def test_generate_airfoils_checks_each_pass_as_one_stack(monkeypatch):
    """One cst_airfoils call per pass and at most two _standardize_raw
    calls, and no point object on the way: every third member of a pass,
    from the second on, is flattened and so refused by the rank check."""
    from shapetensors import shapes

    def unbuilt(*args, **kwargs):
        raise AssertionError("generation built a point object")

    for name in ("SeparableShape", "AffineFactor", "GrassmannPoint"):
        monkeypatch.setattr(shapes, name, unbuilt)
    passes, sample, standardize = [], cst.cst_airfoils, cst._standardize_raw

    def flattening(*args):
        pts = sample(*args)
        pts[1::3, :, 1] = 0.0
        passes.append([len(pts), 0])
        return pts

    def counted(pts, variant):
        passes[-1][1] += 1
        return standardize(pts, variant)

    monkeypatch.setattr(cst, "cst_airfoils", flattening)
    monkeypatch.setattr(cst, "_standardize_raw", counted)
    airfoils, rows, rejected = generate_airfoils(np.random.default_rng(5), 12, n_c=61)
    assert passes == [[12, 2], [4, 2], [1, 1]]
    assert (len(airfoils), rows.shape, rejected) == (12, (12, 18), 5)
