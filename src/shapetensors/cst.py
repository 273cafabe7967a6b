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

import numbers
from math import comb

import numpy as np

from .errors import (ContractError, DegenerateGeometryError, _entry, refuse,
                     without_refused)
from .intersect import self_intersects
from .shapes import MAX_LANDMARKS, LandmarkShape, _standardize_raw

CLASS_N1 = 0.5
CLASS_N2 = 1.0
# Random draws put each of the 9 + 9 coefficients in this box.
COEFF_LO = 0.0
COEFF_HI = 0.45
N_COEFF = 9
# Invalid draws tolerated by one generate_airfoils call.
MAX_RESAMPLES = 1000


def _bernstein_basis(x, k):
    """The k Bernstein polynomials of degree k - 1 at the points x, as a
    (k, x.size) table: row i is C(k - 1, i) x^i (1 - x)^(k - 1 - i)."""
    deg = k - 1
    i = np.arange(k)
    binom = np.array([comb(deg, j) for j in range(k)], dtype=float)
    return binom[:, None] * x[None, :] ** i[:, None] * (1.0 - x[None, :]) ** (
        deg - i
    )[:, None]


def bernstein_shape(x, coeff):
    """Shape function: sum_i w_i C(deg, i) x^i (1 - x)^(deg - i) at the
    points x (m,), for a coefficient vector w (k,) or an (..., k) stack."""
    coeff = _entry(coeff, ("...", "k >= 1"), "coefficients")
    return coeff @ _bernstein_basis(_entry(x, ("m",), "x"), coeff.shape[-1])


def cst_airfoils(upper, lower, n_c=401, sampling="cosine"):
    """Sample CST airfoils as an (..., n_c, 2) array of closed traversals.

    ``upper`` (..., k) and ``lower`` (..., k') are stacks of Bernstein
    coefficient vectors with the same leading shape; ``sampling`` is
    "cosine" (clustered at the edges, the aerodynamic default) or
    "uniform" in chordwise x.  The x grid, the class function and the
    Bernstein basis are formed once per call, and the surfaces share the
    basis when k = k'.  A member whose coefficients are all zero is
    refused, and the error's ``index`` names it.  Each surface of each
    member is one vector-matrix product, so a member has the bits of its
    batch-of-one call.
    """
    what = "coefficients, vectors along a non-empty last axis,"
    upper = _entry(upper, ("...", "k >= 1"), f"upper {what}", "coefficients must be finite")
    lower = _entry(lower, ("...", "k >= 1"), f"lower {what}", "coefficients must be finite")
    if upper.shape[:-1] != lower.shape[:-1]:
        raise ContractError(
            f"upper and lower coefficient stacks differ in leading shape: "
            f"{upper.shape[:-1]} and {lower.shape[:-1]}")
    refuse(~(upper.any(axis=-1) | lower.any(axis=-1)),
           lambda i: DegenerateGeometryError(
               "all-zero coefficients give a rank-deficient (flat) shape"))
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
    basis = _bernstein_basis(x, upper.shape[-1])
    lower_basis = (basis if lower.shape[-1] == upper.shape[-1]
                   else _bernstein_basis(x, lower.shape[-1]))
    y = np.where(zeta <= np.pi, cls * (upper[..., None, :] @ basis)[..., 0, :],
                 -cls * (lower[..., None, :] @ lower_basis)[..., 0, :])
    pts = np.empty(y.shape + (2,))
    pts[..., 0] = x
    pts[..., 1] = y
    pts[..., 0, :] = pts[..., -1, :] = (1.0, 0.0)  # zero trailing-edge thickness
    return pts


def cst_airfoil(upper, lower, n_c=401, sampling="cosine"):
    """Sample a CST airfoil as a closed LandmarkShape: ``cst_airfoils``
    of one pair of 1-d coefficient vectors (conventionally 9 each), not a stack."""
    return LandmarkShape(cst_airfoils(upper, lower, n_c, sampling), closed=True)


def perturb_coefficients(rng, upper, lower, percent=20.0):
    """Multiplicative perturbation by up to +-percent of each nominal value.
    The factors of upper (..., k) and lower (..., k') are one (..., k + k')
    draw, so a stack draws what one call per member, in turn, would."""
    if not 0.0 <= percent < np.inf:
        raise ContractError(f"perturbation percentage must be finite and "
                            f"non-negative, got {percent}")
    upper = _entry(upper, ("...", "k >= 1"), "upper coefficients")
    lower = _entry(lower, ("...", "k >= 1"), "lower coefficients")
    frac = percent / 100.0
    lead = np.broadcast_shapes(upper.shape[:-1], lower.shape[:-1])
    f = 1.0 + rng.uniform(-frac, frac, size=lead + (upper.shape[-1] + lower.shape[-1],))
    return upper * f[..., :upper.shape[-1]], lower * f[..., upper.shape[-1]:]


def generate_airfoils(rng, count, n_c=401, sampling="cosine", nominal=None,
                      percent=20.0, lo=COEFF_LO, hi=COEFF_HI):
    """Draw ``count`` valid (full-rank, simple) airfoils, resampling invalid draws.

    With ``nominal`` (an (upper, lower) pair) the draws perturb the
    nominal coefficients by up to +-percent and, unlike earlier versions,
    are always clamped into [lo, hi]; otherwise coefficients are uniform
    over [lo, hi].  Returns (shapes, coefficient_rows, resample_count);
    coefficient_rows holds the 18 accepted coefficients per shape.  Each
    pass draws the rows still missing in one call, the same numbers as
    that many single draws, and samples them in one ``cst_airfoils`` call.
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise ContractError(f"count must be an integer >= 0, got {count!r}")
    if nominal is not None:
        nominal = [_entry(c, ("k >= 1",), "nominal coefficients") for c in nominal]
    k_u, k_l = (N_COEFF, N_COEFF) if nominal is None else map(np.size, nominal)
    shapes, rows, drawn = [], [], 0
    while len(shapes) < count:
        m = count - len(shapes)
        drawn += m
        if nominal is None:
            coeffs = rng.uniform(lo, hi, size=(m, k_u + k_l))
        else:
            stack = [np.broadcast_to(c, (m, np.size(c))) for c in nominal]
            coeffs = np.clip(np.concatenate(
                perturb_coefficients(rng, *stack, percent), axis=1), lo, hi)
        try:
            pts = cst_airfoils(coeffs[:, :k_u], coeffs[:, k_u:], n_c, sampling)
        except DegenerateGeometryError as err:
            err.index = err.refused = ()  # this pass's rows are not the caller's
            raise
        full_rank, _, _ = without_refused(
            lambda group: _standardize_raw(np.stack(group), "gl2"), pts)
        for i in full_rank:
            shape = LandmarkShape(pts[i], closed=True)
            if not self_intersects(shape):
                shapes.append(shape)
                rows.append(coeffs[i])
        if drawn - len(shapes) > MAX_RESAMPLES:
            raise DegenerateGeometryError(f"exceeded {MAX_RESAMPLES} resamples "
                                          "while drawing valid shapes")
    return shapes, np.reshape(rows, (count, k_u + k_l)), drawn - count


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
