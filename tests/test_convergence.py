import numpy as np
import pytest

from shapetensors import convergence
from shapetensors.convergence import (
    CSV_COLUMNS,
    fit_loglog_slope,
    run_convergence,
    write_convergence_csv,
    write_convergence_svg,
)
from shapetensors.errors import ContractError, DegenerateGeometryError


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


@pytest.mark.parametrize("nc_list", [(40, 40), ("20", "x"), ("20", "40.5"),
                                     (20, 40.5)])
def test_counts_must_be_two_distinct_integers(nc_list):
    with pytest.raises(ContractError):
        run_convergence(n_trials=2, nc_list=nc_list)


def test_a_degenerate_draw_drops_its_trial_whole(monkeypatch):
    """A flat draw is skipped: the report is that of the other draws."""
    rng = np.random.default_rng(2)
    draws = [convergence.random_coefficients(rng) for _ in range(3)]
    flat = (np.zeros(9), np.zeros(9))

    def report(sequence):
        feed = iter(sequence)
        monkeypatch.setattr(convergence, "random_coefficients",
                            lambda rng: next(feed))
        return run_convergence(n_trials=len(sequence), n_ref=300,
                               nc_list=(20, 40))

    skipping = report([draws[0], flat, draws[1], draws[2]])
    reference = report(draws)
    assert (skipping.skipped, reference.skipped) == (1, 0)
    assert skipping.rows == reference.rows
    assert skipping.slopes == reference.slopes


# Which coarse level each step is working on when it is called.
LEVEL_OF_CALL = {
    "cst_airfoil": lambda args, kwargs: kwargs["n_c"],
    "refine": lambda args, kwargs: args[0].n,
    "_standardize_raw": lambda args, kwargs: 20,  # one call for every level
}


@pytest.mark.parametrize("step", sorted(LEVEL_OF_CALL))
def test_a_degenerate_level_drops_its_trial_whole(monkeypatch, step):
    """The truth is valid but coarse level 20 fails: the trial is skipped."""
    rng = np.random.default_rng(2)
    draws = [convergence.random_coefficients(rng) for _ in range(4)]
    bad = draws[1]
    current, raised = [], []
    original = getattr(convergence, step)

    def failing(*args, **kwargs):
        if current[-1] is bad and LEVEL_OF_CALL[step](args, kwargs) == 20:
            raised.append(step)
            raise DegenerateGeometryError(f"{step} refused level 20")
        return original(*args, **kwargs)

    def report(sequence):
        feed = iter(sequence)

        def draw(rng):
            current.append(next(feed))
            return current[-1]

        monkeypatch.setattr(convergence, "random_coefficients", draw)
        return run_convergence(n_trials=len(sequence), n_ref=300,
                               nc_list=(20, 40))

    monkeypatch.setattr(convergence, step, failing)
    skipping = report(draws)
    reference = report([draws[0], draws[2], draws[3]])
    assert raised == [step]
    assert (skipping.skipped, reference.skipped) == (1, 0)
    assert skipping.rows == reference.rows
    assert skipping.slopes == reference.slopes


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
