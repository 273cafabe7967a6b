"""Class-shape transformation (CST) airfoil synthesis.

An airfoil is the product of the class function C(x) = x^0.5 (1 - x)^1.0
and a Bernstein-polynomial shape function per surface.  Coefficients are
stored as thicknesses: the lower surface is drawn at -C(x) S_lower(x), so
equal upper and lower coefficient vectors give a chord-symmetric section
and all-positive draws give valid (non-self-intersecting) shapes.

The traversal runs trailing edge -> upper surface -> leading edge ->
lower surface -> trailing edge as a single closed polyline with zero
trailing-edge thickness; the first and last landmarks coincide at (1, 0).
"""

from math import comb

import numpy as np

from .errors import ContractError, DegenerateGeometryError
from .intersect import self_intersects
from .shapes import MAX_LANDMARKS, LandmarkShape, la_standardize

CLASS_N1 = 0.5
CLASS_N2 = 1.0
# Random draws put each of the 9 + 9 coefficients in this box.
COEFF_LO = 0.0
COEFF_HI = 0.45
N_COEFF = 9
# Invalid draws tolerated by one generate_airfoils call.
MAX_RESAMPLES = 1000


def bernstein_shape(x, coeff):
    """Shape function: sum_i w_i C(deg, i) x^i (1 - x)^(deg - i)."""
    coeff = np.asarray(coeff, dtype=float)
    deg = coeff.size - 1
    i = np.arange(coeff.size)
    binom = np.array([comb(deg, k) for k in range(coeff.size)], dtype=float)
    basis = binom[:, None] * x[None, :] ** i[:, None] * (1.0 - x[None, :]) ** (
        deg - i
    )[:, None]
    return coeff @ basis


def cst_airfoil(upper, lower, n_c=401, sampling="cosine"):
    """Sample a CST airfoil as a closed LandmarkShape.

    ``upper`` and ``lower`` are the Bernstein coefficient vectors
    (conventionally 9 each); ``sampling`` is "cosine" (clustered at the
    edges, the aerodynamic default) or "uniform" in chordwise x.
    """
    upper = np.asarray(upper, dtype=float)
    lower = np.asarray(lower, dtype=float)
    if upper.ndim != 1 or lower.ndim != 1 or upper.size < 1 or lower.size < 1:
        raise ContractError("coefficient vectors must be non-empty 1-d arrays")
    if not (np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
        raise ContractError("coefficients must be finite")
    if np.all(upper == 0.0) and np.all(lower == 0.0):
        raise DegenerateGeometryError(
            "all-zero coefficients give a rank-deficient (flat) shape"
        )
    if not 5 <= n_c <= MAX_LANDMARKS:
        raise ContractError(f"an airfoil needs between 5 and {MAX_LANDMARKS} "
                            f"landmarks, got {n_c}")

    zeta = np.linspace(0.0, 2.0 * np.pi, int(n_c))
    if sampling == "cosine":
        x = 0.5 * (np.cos(zeta) + 1.0)
    elif sampling == "uniform":
        x = np.abs(1.0 - zeta / np.pi)
    else:
        raise ContractError(f"sampling must be 'cosine' or 'uniform', got {sampling!r}")
    x = np.clip(x, 0.0, 1.0)

    cls = x**CLASS_N1 * (1.0 - x) ** CLASS_N2
    y = np.where(
        zeta <= np.pi,
        cls * bernstein_shape(x, upper),
        -cls * bernstein_shape(x, lower),
    )
    pts = np.column_stack([x, y])
    pts[0] = pts[-1] = (1.0, 0.0)  # zero trailing-edge thickness, exactly
    return LandmarkShape(pts, closed=True)


def is_valid_airfoil(shape):
    """Validity guard used by the generator: full rank and simple."""
    try:
        la_standardize(shape)
    except DegenerateGeometryError:
        return False
    return not self_intersects(shape)


def random_coefficients(rng, lo=COEFF_LO, hi=COEFF_HI):
    """One (upper, lower) draw, each coefficient uniform over [lo, hi]."""
    return rng.uniform(lo, hi, size=N_COEFF), rng.uniform(lo, hi, size=N_COEFF)


def perturb_coefficients(rng, upper, lower, percent=20.0):
    """Multiplicative perturbation by up to +-percent of each nominal value."""
    if not 0.0 <= percent < np.inf:
        raise ContractError(f"perturbation percentage must be finite and "
                            f"non-negative, got {percent}")
    frac = percent / 100.0
    fu = 1.0 + rng.uniform(-frac, frac, size=np.shape(upper))
    fl = 1.0 + rng.uniform(-frac, frac, size=np.shape(lower))
    return np.asarray(upper) * fu, np.asarray(lower) * fl


def generate_airfoils(rng, count, n_c=401, sampling="cosine", nominal=None,
                      percent=20.0, lo=COEFF_LO, hi=COEFF_HI):
    """Draw ``count`` valid airfoils, resampling invalid draws.

    With ``nominal`` (an (upper, lower) pair) the draws perturb the
    nominal coefficients by up to +-percent and, unlike earlier versions,
    are always clamped into [lo, hi]; otherwise coefficients are uniform
    over [lo, hi].  Returns (shapes, coefficient_rows, resample_count);
    coefficient_rows holds the 18 accepted coefficients per shape.
    """
    shapes = []
    rows = []
    rejected = 0
    while len(shapes) < count:
        if nominal is None:
            upper, lower = random_coefficients(rng, lo=lo, hi=hi)
        else:
            upper, lower = perturb_coefficients(rng, nominal[0], nominal[1], percent)
            upper, lower = np.clip(upper, lo, hi), np.clip(lower, lo, hi)
        shape = cst_airfoil(upper, lower, n_c=n_c, sampling=sampling)
        if is_valid_airfoil(shape):
            shapes.append(shape)
            rows.append(np.concatenate([upper, lower]))
        else:
            rejected += 1
            if rejected > MAX_RESAMPLES:
                raise DegenerateGeometryError(
                    f"exceeded {MAX_RESAMPLES} resamples while drawing valid shapes"
                )
    return shapes, np.array(rows), rejected


def read_coefficients(path):
    """Read an (upper, lower) coefficient pair from a text file.

    Accepts all 18 values on one line or upper and lower on separate
    lines; '#' comments and blank lines are skipped.
    """
    from .textio import data_lines

    values = []
    for lineno, line in data_lines(path):
        try:
            values.extend(float(t) for t in line.split())
        except ValueError as err:
            raise ContractError(f"{path}:{lineno}: {err}") from err
    if len(values) != 2 * N_COEFF:
        raise ContractError(
            f"{path}: expected {2 * N_COEFF} coefficients, got {len(values)}"
        )
    arr = np.asarray(values)
    return arr[:N_COEFF], arr[N_COEFF:]
