"""Piecewise cubic Hermite interpolation over stacks of curves.

A curve is given by strictly increasing knots x_0 < ... < x_{n-1}, its
values there and its slopes (first derivatives) there.  On [x_i, x_{i+1}]
it is the cubic Hermite piece in t = s - x_i, kept in the power basis
c_0 t^3 + c_1 t^2 + c_2 t + c_3 (de Boor, *A Practical Guide to Splines*,
ch. IV); outside the knots the end pieces continue, and a periodic
curve repeats.  The knots carry
leading stack axes, (..., n), and each member has its own; the values
are (..., n, *value_shape).

The slopes come from one of four rules:

- ``spline(x, y, "natural")``: a C^2 cubic with zero second derivative
  at both ends;
- ``spline(x, y, "not-a-knot")``: a C^2 cubic whose third derivative is
  also continuous at x_1 and x_{n-2}; with 2 knots it is the line, with
  3 the parabola through them;
- ``spline(x, y, "periodic")``: a C^2 cubic whose slope and curvature
  match at the two ends (the values must match already);
- ``pchip(x, y)``: Fritsch & Carlson's (1980) shape-preserving slopes,
  the weighted harmonic mean of the adjacent secants where they agree in
  sign and 0 elsewhere, with the three-point end rule of Moler,
  *Numerical Computing with MATLAB*, ch. 3.

The splines solve the tridiagonal C^2 system in slope form by Thomas's
algorithm: one Python step per knot, vectorized over the stack and the
value columns.  The periodic
system is cyclic; its last unknown is eliminated (the bordered form of
Sherman-Morrison), which leaves one tridiagonal solve with two right-hand
sides.  Input whose slopes or coefficients are not finite is refused
with ContractError; its ``index`` is the first such member of the stack.
"""

import numpy as np

from .errors import ContractError, _entry, refuse

SPLINE_ENDS = ("natural", "not-a-knot", "periodic")


class Cubic:
    """A stack of piecewise cubic Hermite curves; call it at positions s
    for values (``nu=0``) or first derivatives (``nu=1``).  A periodic
    curve first maps s into [x_0, x_{n-1}) modulo its period, so it reads
    exactly y_0 at x_{n-1}."""

    __slots__ = ("x", "c", "batch", "values", "periodic")

    def __init__(self, x, y, slopes, batch, values, periodic=False):
        """x (B, n); y and slopes knot-major, (n, B, d)."""
        dx = np.diff(x, axis=-1).T[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            secant = np.diff(y, axis=0) / dx
            t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / dx
            c = np.stack([t / dx, (secant - slopes[:-1]) / dx - t,
                          slopes[:-1], y[:-1]], axis=-2)
        refuse(~np.isfinite(c).all(axis=(0, 2, 3)).reshape(batch),
               lambda _: ContractError(
                   "spline slopes are not finite: the values are too large"))
        # (4, B (n - 1), d): one row per interval of the stack
        self.c = c.transpose(2, 1, 0, 3).reshape(4, -1, c.shape[-1])
        self.x = x
        self.batch = batch
        self.values = values
        self.periodic = periodic

    def __call__(self, s, nu=0):
        s = np.asarray(s, dtype=float)
        x = self.x
        q = np.broadcast_to(s.ravel(), (len(x), s.size))
        if self.periodic:
            q = x[:, :1] + (q - x[:, :1]) % (x[:, -1:] - x[:, :1])
        # the interval of each s: end pieces continue past the ends
        k = np.stack([np.searchsorted(row[1:-1], qb, side="right")
                      for row, qb in zip(x, q)])
        k += (x.shape[-1] - 1) * np.arange(len(x))[:, None]  # into the stack
        c0, c1, c2, c3 = self.c.take(k, axis=1)
        t = (q - x[:, :-1].take(k))[..., None]
        # power sums from the constant term up
        with np.errstate(over="ignore", invalid="ignore"):
            if nu == 0:
                out = c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)
            elif nu == 1:
                out = c2 + (2.0 * c1) * t + (3.0 * c0) * (t * t)
            else:
                raise ContractError(f"derivative order must be 0 or 1, got {nu}")
        return out.reshape(self.batch + s.shape + self.values)


def _stack(x, y):
    """Checked (B, n) knots, knot-major (n, B, d) values, stack and value
    shapes."""
    x = _entry(x, ("...", "n >= 2"), "spline knots", finite=False)
    y = _entry(y, ("...",), "spline values", finite=False)
    if y.shape[:x.ndim] != x.shape:
        raise ContractError(f"spline values {y.shape} must lead with knots {x.shape}")
    n = x.shape[-1]
    batch, values = x.shape[:-1], y.shape[x.ndim:]
    xb = x.reshape(-1, n)
    yt = np.moveaxis(y.reshape(xb.shape[0], n, int(np.prod(values))), 1, 0)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(xb).all(axis=-1) & (np.diff(xb, axis=-1) > 0.0).all(axis=-1)
    refuse(~ok.reshape(batch), lambda _: ContractError(
        "spline knots must be finite and strictly increasing"))
    refuse(~np.isfinite(yt).all(axis=(0, 2)).reshape(batch),
           lambda _: ContractError("spline values must be finite"))
    return xb, yt, batch, values


def _thomas(lower, diag, upper, rhs):
    """Solve the tridiagonal systems lower[i] s[i-1] + diag[i] s[i] +
    upper[i] s[i+1] = rhs[i], knot axis first: (n, B, 1) coefficients,
    (n, B, k) right-hand sides."""
    lower, diag, upper, rhs = map(list, (lower, diag, upper, rhs))
    for i in range(1, len(diag)):
        w = lower[i] / diag[i - 1]
        diag[i] = diag[i] - w * upper[i - 1]
        rhs[i] = rhs[i] - w * rhs[i - 1]
    s = rhs  # back substitution, in place
    s[-1] = rhs[-1] / diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return np.stack(s)


def _spline_slopes(x, dx, dy, ends):
    """Slopes (n, B, d) of the C^2 cubic with the given ends; x is (n, B, 1),
    dx = diff(x), dy = diff(y)."""
    n = x.shape[0]
    secant = dy / dx
    if n == 2 and ends != "natural":  # a line
        return np.concatenate([secant, secant])
    if n == 3 and ends == "periodic":
        t = (secant / dx).sum(axis=0) / (1.0 / dx).sum(axis=0)
        return np.broadcast_to(t, (3,) + t.shape)
    lower, upper = np.zeros_like(x), np.zeros_like(x)
    diag = np.empty_like(x)
    rhs = np.empty((n,) + secant.shape[1:])
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * secant[:-1] + dx[:-1] * secant[1:])
    if ends == "periodic":
        # unknowns s_0..s_{n-2} (s_{n-1} = s_0); rows 0..n-3 without the
        # last column form a tridiagonal system solved for two right-hand
        # sides, and the last row then gives s_{n-2}
        diag[0], upper[0] = 2.0 * (dx[-1] + dx[0]), dx[-1]
        rhs[0] = 3.0 * (dx[0] * secant[-1] + dx[-1] * secant[0])
        border = np.zeros((n - 2,) + rhs.shape[1:2] + (1,))
        border[0], border[-1] = -dx[0], -dx[-3]
        both = _thomas(lower[:-2], diag[:-2], upper[:-2],
                       np.concatenate([rhs[:-2], border], axis=-1))
        s1, s2 = both[..., :-1], both[..., -1:]
        last = ((rhs[-2] - dx[-2] * s1[0] - dx[-1] * s1[-1])
                / (diag[-2] + dx[-2] * s2[0] + dx[-1] * s2[-1]))
        return np.concatenate([s1 + last * s2, [last], s1[:1] + last * s2[:1]])
    if ends == "natural":
        diag[0], upper[0], rhs[0] = 2.0 * dx[0], dx[0], 3.0 * dy[0]
        diag[-1], lower[-1], rhs[-1] = 2.0 * dx[-1], dx[-1], 3.0 * dy[-1]
    elif n == 3:  # not-a-knot at both ends: the parabola
        diag[0], upper[0], rhs[0] = 1.0, 1.0, 2.0 * secant[0]
        diag[-1], lower[-1], rhs[-1] = 1.0, 1.0, 2.0 * secant[1]
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag[0], upper[0] = dx[1], d0
        rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * secant[0]
                  + dx[0] ** 2 * secant[1]) / d0
        diag[-1], lower[-1] = dx[-2], d1
        rhs[-1] = (dx[-1] ** 2 * secant[-2]
                   + (2.0 * d1 + dx[-1]) * dx[-2] * secant[-1]) / d1
    return _thomas(lower, diag, upper, rhs)


def spline(x, y, ends="natural"):
    """The C^2 cubic spline through (x, y) with ``ends`` one of
    SPLINE_ENDS; a periodic spline needs y[..., 0] == y[..., -1]."""
    if ends not in SPLINE_ENDS:
        raise ContractError(f"spline ends must be one of {SPLINE_ENDS}, got {ends!r}")
    xb, yt, batch, values = _stack(x, y)
    if ends == "periodic":
        refuse((yt[0] != yt[-1]).any(axis=-1).reshape(batch),
               lambda _: ContractError(
                   "a periodic spline needs equal first and last values"))
    xt = xb.T[..., None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slopes = _spline_slopes(xt, np.diff(xt, axis=0), np.diff(yt, axis=0), ends)
    return Cubic(xb, yt, slopes, batch, values, periodic=ends == "periodic")


def _pchip_end(h0, h1, m0, m1):
    """The three-point end slope, zeroed or capped to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    cap = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(cap, 3.0 * m0, d))


def pchip(x, y):
    """The monotonicity-preserving piecewise cubic through (x, y)."""
    xb, yt, batch, values = _stack(x, y)
    h = np.diff(xb.T[..., None], axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = np.diff(yt, axis=0) / h
        if len(h) == 1:
            return Cubic(xb, yt, np.concatenate([m, m]), batch, values)
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        harmonic = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        inner = np.where(flat, 0.0, 1.0 / harmonic)
        slopes = np.concatenate([_pchip_end(h[0], h[1], m[0], m[1])[None], inner,
                                 _pchip_end(h[-1], h[-2], m[-1], m[-2])[None]])
    return Cubic(xb, yt, slopes, batch, values)
