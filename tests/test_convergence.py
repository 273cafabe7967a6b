import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shapetensors import convergence
from shapetensors.convergence import (
    CSV_COLUMNS,
    fit_loglog_slope,
    run_convergence,
    write_convergence_csv,
    write_convergence_svg,
)
from shapetensors.cst import COEFF_HI, COEFF_LO, N_COEFF, cst_airfoils
from shapetensors.errors import ContractError, DegenerateGeometryError
from shapetensors.shapes import PreprocessConfig, _refine_stack


@pytest.fixture(scope="module")
def small_report():
    return run_convergence(n_trials=15, seed=0)


def test_slope_on_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert abs(fit_loglog_slope(x, 3.0 * x**2) - 2.0) < 1e-12
    assert abs(fit_loglog_slope(x, 0.5 * x**0.5) - 0.5) < 1e-12


def test_grassmann_slope_is_roughly_quadratic(small_report):
    assert 1.5 <= small_report.slopes["grassmann-mean"] <= 2.5


def test_medians_monotone_nonincreasing(small_report):
    for attr in ("grassmann_median", "euclidean_median"):
        values = [getattr(r, attr) for r in small_report.rows]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_rows_track_nc_and_positivity(small_report):
    ncs = [r.n_c for r in small_report.rows]
    assert ncs == sorted(ncs)
    for r in small_report.rows:
        assert r.gauge_mean > 0.0
        assert 0.0 < r.grassmann_mean <= r.grassmann_max
        assert 0.0 < r.euclidean_mean <= r.euclidean_max


def test_gauge_shrinks_with_nc(small_report):
    gauges = [r.gauge_mean for r in small_report.rows]
    assert all(b < a for a, b in zip(gauges, gauges[1:]))


def test_needs_two_levels():
    with pytest.raises(ValueError):
        run_convergence(n_trials=2, nc_list=(40,))


def test_needs_a_trial():
    with pytest.raises(ContractError, match="at least one trial, got 0"):
        run_convergence(n_trials=0)


@pytest.mark.parametrize("nc_list", [(40, 40), ("20", "x"), ("20", "40.5"),
                                     (20, 40.5)])
def test_counts_must_be_two_distinct_integers(nc_list):
    with pytest.raises(ContractError):
        run_convergence(n_trials=2, nc_list=nc_list)


@pytest.mark.parametrize("n_trials", [2.5, 3.0, "3", None, -1])
def test_trials_must_be_a_positive_integer(n_trials):
    with pytest.raises(ContractError, match="at least one trial"):
        run_convergence(n_trials=n_trials, n_ref=300, nc_list=(20, 40))


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ContractError, match="seed must be an integer >= 0"):
        run_convergence(n_trials=2, n_ref=300, nc_list=(20, 40), seed=seed)


@pytest.mark.parametrize("nc_list", [(20, 300), (20, 400), (300, 20)])
def test_coarse_counts_must_be_below_the_reference_count(nc_list):
    """A count at n_ref refines to the truth itself: its zero error would
    give the slope fit log(0)."""
    with pytest.raises(ContractError, match="below n_ref=300"):
        run_convergence(n_trials=2, n_ref=300, nc_list=nc_list)


def _draws(count):
    """The coefficient rows run_convergence(count, seed=2) draws."""
    return np.random.default_rng(2).uniform(COEFF_LO, COEFF_HI,
                                            size=(count, 2 * N_COEFF))


def _report(draws):
    return convergence._report(draws, 300, (20, 40), 0)


def test_a_degenerate_draw_drops_its_trial_whole():
    """A flat draw is skipped: the report is that of the other draws."""
    draws = _draws(3)
    skipping = _report(np.insert(draws, 1, 0.0, axis=0))
    reference = _report(draws)
    assert (skipping.skipped, reference.skipped) == (1, 0)
    assert skipping.rows == reference.rows
    assert skipping.slopes == reference.slopes


@pytest.mark.parametrize("step", ["_standardize_raw", "cst_airfoils",
                                  "_refine_stack"])
def test_a_degenerate_level_drops_its_trial_whole(monkeypatch, step):
    """The truth is valid but coarse level 20 of one draw fails in ``step``,
    which samples, refines or standardizes each level as one stack of
    trials: that trial alone is skipped."""
    draws = _draws(4)
    bad = draws[1]
    coarse = cst_airfoils(bad[:N_COEFF], bad[N_COEFF:], n_c=20)
    dense = _refine_stack(coarse, True, PreprocessConfig(n=300))
    # where the call holds the bad draw's level 20: its index, else None
    find = {
        "cst_airfoils": lambda args, kwargs: next(
            ((i,) for i, upper in enumerate(args[0])
             if kwargs["n_c"] == 20 and np.array_equal(upper, bad[:N_COEFF])),
            None),
        "_refine_stack": lambda args, kwargs: next(
            ((i,) for i, pts in enumerate(args[0])
             if np.array_equal(pts, coarse)), None),
        "_standardize_raw": lambda args, kwargs: next(
            ((i, 1) for i, trial in enumerate(args[0])
             if np.array_equal(trial[1], dense)), None),
    }[step]
    raised = []
    original = getattr(convergence, step)

    def failing(*args, **kwargs):
        index = find(args, kwargs)
        if index is not None:
            raised.append(step)
            err = DegenerateGeometryError(f"{step} refused level 20")
            err.index = index
            raise err
        return original(*args, **kwargs)

    monkeypatch.setattr(convergence, step, failing)
    skipping = _report(draws)
    reference = _report(draws[[0, 2, 3]])
    assert raised == [step]
    assert (skipping.skipped, reference.skipped) == (1, 0)
    assert skipping.rows == reference.rows
    assert skipping.slopes == reference.slopes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trials=st.integers(1, 25),
       n_ref=st.integers(130, 300),  # above every coarse count: no zero error
       nc_list=st.lists(st.integers(5, 120), min_size=2, max_size=4, unique=True),
       flat=st.lists(st.integers(0, 25), max_size=3))
def test_matches_the_per_trial_experiment(seed, n_trials, n_ref, nc_list, flat):
    """Drawn, sampled and refined as stacks, the report equals the one
    drawn and sampled one trial at a time, with flat draws at ``flat``."""
    rng = np.random.default_rng(seed)
    draws = [oracles.random_coefficients(rng) for _ in range(n_trials)]
    if flat:
        for k in flat:
            draws.insert(min(k, len(draws)), (np.zeros(N_COEFF), np.zeros(N_COEFF)))
        got = convergence._report(np.array([np.concatenate(d) for d in draws]),
                                  n_ref, nc_list, seed)
    else:
        got = run_convergence(n_trials, n_ref, nc_list, seed)
    want = oracles.run_convergence(draws, n_ref, nc_list, seed)
    assert got.rows == want.rows
    assert got.slopes == want.slopes
    assert (got.skipped, got.n_trials) == (want.skipped, want.n_trials)


def test_csv_round_trip(tmp_path, small_report):
    path = tmp_path / "report.csv"
    write_convergence_csv(path, small_report)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == CSV_COLUMNS.split(",")
    assert header == list(type(small_report.rows[0])._fields)
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert len(body) == len(small_report.rows)
    first = body[0].split(",")
    assert int(first[0]) == small_report.rows[0].n_c
    # repr floats parse back exactly
    assert tuple(map(float, first[1:])) == small_report.rows[0][1:]
    footers = [l for l in lines if l.startswith("# slope")]
    assert len(footers) == 4


def test_outputs_deterministic(tmp_path):
    a = run_convergence(n_trials=5, seed=11)
    b = run_convergence(n_trials=5, seed=11)
    for name, writer in (("csv", write_convergence_csv),
                         ("svg", write_convergence_svg)):
        pa, pb = tmp_path / f"a.{name}", tmp_path / f"b.{name}"
        writer(pa, a)
        writer(pb, b)
        assert pa.read_bytes() == pb.read_bytes()


def test_svg_is_selfcontained(tmp_path, small_report):
    path = tmp_path / "plot.svg"
    write_convergence_svg(path, small_report)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text and "circle" in text
