"""Refinement convergence experiment.

For a family of random CST airfoils, measure how far a coarse sampling
(after spline refinement back to a dense common landmark count) sits
from the densely sampled truth, both as a max landmark deviation and as
a Grassmann angle-sum distance between the standardized undulation
components.  Against the landmark gauge of the coarse polygon the
errors should shrink at roughly second order: the trailing-edge corner
limits the interior O(h^4) spline rate.
"""

from collections import namedtuple

import numpy as np

from .cst import cst_airfoil, random_coefficients
from .errors import ContractError, DegenerateGeometryError, without_refused
from .grassmann import principal_angles
from .shapes import PreprocessConfig, _standardize_raw, landmark_gauge, refine
from .textio import atomic_write_text, fmt

DEFAULT_NC = (20, 40, 80, 160, 320)

CSV_COLUMNS = (
    "n_c,gauge_mean,gauge_max,"
    "euclidean_mean,euclidean_median,euclidean_max,"
    "grassmann_mean,grassmann_median,grassmann_max"
)
# One coarse count's row: every column after n_c is the <statistic> over
# the kept trials of a <measure>, the index into a trial's measurements.
ConvergenceRow = namedtuple("ConvergenceRow", CSV_COLUMNS)
MEASURES = {"gauge": 0, "euclidean": 1, "grassmann": 2}
STATISTICS = {"mean": np.mean, "median": np.median, "max": np.max}
# (gauge column, error column) of each slope, keyed by the error column;
# the plot draws the first three against the mean gauge.
SLOPES = (
    ("gauge_mean", "grassmann_mean"),
    ("gauge_max", "grassmann_max"),
    ("gauge_mean", "euclidean_mean"),
    ("gauge_max", "euclidean_max"),
)


def _column(rows, name):
    return [getattr(r, name) for r in rows]


class ConvergenceReport:
    __slots__ = ("rows", "n_trials", "n_ref", "seed", "slopes", "skipped")

    def __init__(self, rows, n_trials, n_ref, seed, skipped=0):
        self.rows = rows
        self.n_trials = int(n_trials)
        self.n_ref = int(n_ref)
        self.seed = int(seed)
        self.skipped = int(skipped)
        self.slopes = {
            error.replace("_", "-"): fit_loglog_slope(
                _column(rows, gauge), _column(rows, error)
            )
            for gauge, error in SLOPES
        }


def fit_loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])


def run_convergence(n_trials=100, n_ref=2000, nc_list=DEFAULT_NC, seed=0):
    """Run the experiment and return a ConvergenceReport.

    Every trial draws one coefficient pair, takes the n_ref-point
    sampling as truth, and for each coarse count refines the coarse
    polygon back to n_ref landmarks at uniform arclength.  Refining the
    truth through the same resampler keeps the landmark correspondence
    honest: both sides are compared at matched arclength fractions.  A
    trial whose truth or any coarse sampling is degenerate is dropped.
    """
    if n_trials < 1:
        raise ContractError(f"need at least one trial, got {n_trials}")
    try:  # through str, so that 40.5 is refused rather than truncated
        nc_list = tuple(int(str(n)) for n in nc_list)
    except (TypeError, ValueError) as err:
        raise ContractError(f"coarse landmark counts must be integers: {err}") from err
    if len(set(nc_list)) < 2:
        raise ContractError("need at least two distinct coarse landmark counts")
    rng = np.random.default_rng(seed)
    cfg = PreprocessConfig(n=n_ref, sampling="uniform-arclength")
    shapes = []  # each kept trial's truth, then its coarse samplings
    for _ in range(n_trials):
        upper, lower = random_coefficients(rng)
        try:
            shapes.append([cst_airfoil(upper, lower, n_c=n_c)
                           for n_c in (n_ref,) + nc_list])
        except DegenerateGeometryError:
            continue
    dense = [[] for _ in shapes]
    for level in range(len(nc_list) + 1):  # one refine call per level
        kept, refined, _ = without_refused(lambda group: refine(group, cfg),
                                           [trial[level] for trial in shapes])
        shapes = [shapes[i] for i in kept]
        dense = [dense[i] + [r.x] for i, r in zip(kept, refined)]
    kept, rep, _ = without_refused(
        lambda trials: _standardize_raw(np.stack(trials), "gl2")[0], dense)
    if not kept:
        raise DegenerateGeometryError("every convergence trial was degenerate")
    shapes, dense = [shapes[i] for i in kept], np.stack([dense[i] for i in kept])
    table = np.stack([
        [[landmark_gauge(shape) for shape in trial[1:]] for trial in shapes],
        np.linalg.norm(dense[:, 1:] - dense[:, :1], axis=-1).max(axis=-1),
        principal_angles(rep[:, 1:], rep[:, :1]).sum(axis=-1),
    ], axis=-1)  # (kept trials, levels, MEASURES)
    rows = []
    for j, n_c in enumerate(nc_list):
        values = []
        for column in ConvergenceRow._fields[1:]:
            measure, statistic = column.split("_")
            trials = table[:, j, MEASURES[measure]]
            values.append(float(STATISTICS[statistic](trials)))
        rows.append(ConvergenceRow(n_c, *values))
    return ConvergenceReport(rows, n_trials, n_ref, seed,
                             skipped=n_trials - len(table))


def write_convergence_csv(path, report):
    """One row per coarse count; fitted slopes in '#' footer lines."""
    lines = [CSV_COLUMNS]
    for r in report.rows:
        lines.append(",".join([str(r.n_c)] + [fmt(v) for v in r[1:]]))
    lines.append(f"# trials {report.n_trials} n_ref {report.n_ref} "
                 f"seed {report.seed} skipped {report.skipped}")
    for key in sorted(report.slopes):
        lines.append(f"# slope {key} {fmt(report.slopes[key])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _log_ticks(lo, hi):
    start = int(np.floor(np.log10(lo)))
    stop = int(np.ceil(np.log10(hi)))
    return [10.0 ** e for e in range(start, stop + 1)]


def write_convergence_svg(path, report):
    """Log-log error-vs-gauge plot as a small standalone SVG.

    Hand-assembled so the output is a pure function of the report
    (plotting libraries tend to embed run metadata).
    """
    width, height = 640, 480
    rows = report.rows
    xs = _column(rows, "gauge_mean")
    series = [(error, color, _column(rows, error)) for (_, error), color
              in zip(SLOPES, ("#1f77b4", "#17becf", "#d62728"))]
    all_y = [v for _, _, ys in series for v in ys]
    x_ticks = _log_ticks(min(xs), max(xs))
    y_ticks = _log_ticks(min(all_y), max(all_y))
    x0, x1 = np.log10(x_ticks[0]), np.log10(x_ticks[-1])
    y0, y1 = np.log10(y_ticks[0]), np.log10(y_ticks[-1])
    left, right, top, bottom = 70, 20, 20, 50

    def px(v):
        return left + (np.log10(v) - x0) / (x1 - x0) * (width - left - right)

    def py(v):
        return height - bottom - (np.log10(v) - y0) / (y1 - y0) * (
            height - top - bottom
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{left}" y="{top}" width="{width - left - right}" '
        f'height="{height - top - bottom}" fill="none" stroke="black"/>',
    ]
    for t in x_ticks:
        x = fmt(px(t))
        parts.append(
            f'<line x1="{x}" y1="{height - bottom}" x2="{x}" '
            f'y2="{top}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x}" y="{height - bottom + 18}" font-size="12" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in y_ticks:
        y = fmt(py(t))
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{width - right}" '
            f'y2="{y}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y}" font-size="12" '
            f'text-anchor="end">{t:g}</text>'
        )
    for i, (error, color, ys) in enumerate(series):
        pts = " ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{fmt(px(x))}" cy="{fmt(py(y))}" r="3" '
                f'fill="{color}"/>'
            )
        parts.append(
            f'<text x="{left + 10}" y="{top + 16 + 14 * i}" font-size="12" '
            f'fill="{color}">{error.replace("_", " ")} (slope '
            f'{report.slopes[error.replace("_", "-")]:.2f})</text>'
        )
    # slope-2 guide anchored at the coarsest grassmann-mean point
    gx, gy = xs[0], series[0][2][0]
    guide = [(gx, gy), (xs[-1], gy * (xs[-1] / gx) ** 2)]
    parts.append(
        '<polyline points="'
        + " ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in guide)
        + '" fill="none" stroke="#888888" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{width / 2:g}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">landmark gauge (coarse polygon)</text>'
    )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
