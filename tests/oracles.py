"""Independent numerical oracles used to pin down the manifold maps.

The geodesic and parallel-transport equations on the Stiefel representative
of G(n, 2) are integrated with a generic ODE solver; none of the closed-form
SVD identities under test appear there.

    geodesic:   X'' + X (X'.T X') = 0
    transport:  V'   = -X (X'.T V)   along the geodesic X(t)

Below them are earlier forms of the code, kept as references: the scalar
kernels, the per-shape standardization, the per-station clustering loop,
the SVD form of Procrustes and the square-root form of the polar split,
the per-section wireframe writer, the full-SVD PGA decomposition, the
Gram probe of the rank-r thin SVD, the all-pairs self-intersection guard, the per-element row writer, the
broadcasting SVD forms of the Grassmann Exp and Log, the SVD form of the
principal angles, the per-line
text readers and per-row writers of landmark, block and OBJ files,
the per-shape refinement through scipy's splines and the CST Bernstein
basis through scipy's binomials, the one-airfoil CST sampler and the
searching SVD sign fix as they stood before CST took stacks, the
per-row PGA generation as it stood before generate took coefficient
matrices, the airfoil generator that drew, sampled and guarded one
airfoil at a time, the convergence experiment that drew and sampled
one trial at a time, the Karcher mean and PGA fit whose sweeps took
the logs of the whole ensemble at once, and the Grassmann Log that took
its Gram from the (n, 2) lift.
"""

import numpy as np
from scipy.integrate import solve_ivp

from shapetensors.errors import ContractError, NormalNeighborhoodError
from shapetensors.linalg import inv2 as inv2_stacked
from shapetensors.linalg import mT
from shapetensors.linalg import polar_orthonormalize as polar_stacked
from shapetensors.linalg import thin_svd
from shapetensors.shapes import LandmarkShape
from shapetensors.textio import atomic_write_text, data_lines, fmt


def integrate_geodesic(x0, d0, t=1.0):
    """Integrate the Grassmann geodesic ODE; returns X(t) (not re-orthonormalized)."""
    n = x0.shape[0]

    def rhs(_, y):
        x = y[: 2 * n].reshape(n, 2)
        xd = y[2 * n :].reshape(n, 2)
        xdd = -x @ (xd.T @ xd)
        return np.concatenate([xd.ravel(), xdd.ravel()])

    y0 = np.concatenate([x0.ravel(), d0.ravel()])
    sol = solve_ivp(rhs, (0.0, t), y0, rtol=1e-11, atol=1e-12, dense_output=False)
    return sol.y[: 2 * n, -1].reshape(n, 2)


def integrate_transport(x0, d0, v0, t=1.0):
    """Jointly integrate geodesic + parallel transport; returns V(t)."""
    n = x0.shape[0]

    def rhs(_, y):
        x = y[: 2 * n].reshape(n, 2)
        xd = y[2 * n : 4 * n].reshape(n, 2)
        v = y[4 * n :].reshape(n, 2)
        xdd = -x @ (xd.T @ xd)
        vd = -x @ (xd.T @ v)
        return np.concatenate([xd.ravel(), xdd.ravel(), vd.ravel()])

    y0 = np.concatenate([x0.ravel(), d0.ravel(), v0.ravel()])
    sol = solve_ivp(rhs, (0.0, t), y0, rtol=1e-11, atol=1e-12, dense_output=False)
    return sol.y[4 * n :, -1].reshape(n, 2)


def subspace_gap(a, b):
    """Sine of the largest principal angle between the column spans of a, b.

    Computed from the projection residual, so it resolves gaps all the way
    down to machine precision (an arccos of cosines bottoms out near 1e-8).
    """
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    r = qb - qa @ (qa.T @ qb)
    return float(np.linalg.svd(r, compute_uv=False).max())


# ---------------------------------------------------------------------------
# Scalar kernels as they stood before the manifold maps were made to
# broadcast over leading axes.  They take one 2x2 matrix or one (n, 2)
# representative at a time and are the per-item reference for the stacked
# calls in test_broadcast.py.

SIGN_TOL = 1e-12
NEIGHBORHOOD_COND_MAX = 1e12


def eigh2(a):
    p, b = a[0, 0], 0.5 * (a[0, 1] + a[1, 0])
    c = a[1, 1]
    mid = 0.5 * (p + c)
    h = np.hypot(0.5 * (p - c), b)
    w = np.array([mid + h, mid - h])
    if h <= SIGN_TOL * max(1.0, abs(mid)):
        # read as a double eigenvalue: the off-diagonal is dropped and each
        # diagonal entry stays in its place
        return np.array([p, c]), np.eye(2)
    if p - c >= 0.0:
        v1 = np.array([w[0] - c, b])
    else:
        v1 = np.array([b, w[0] - p])
    v1 /= np.hypot(v1[0], v1[1])
    if v1[0] < 0.0 or (v1[0] == 0.0 and v1[1] < 0.0):
        v1 = -v1
    q = np.array([[v1[0], -v1[1]], [v1[1], v1[0]]])
    return w, q


def sym2_apply(fn, a):
    w, q = eigh2(a)
    return (q * fn(w)) @ q.T


def sym2_sqrt(a):
    return sym2_apply(np.sqrt, a)


def sym2_inv_sqrt(a):
    return sym2_apply(lambda w: 1.0 / np.sqrt(w), a)


def sym2_exp(a):
    return sym2_apply(np.exp, a)


def sym2_log(a):
    return sym2_apply(np.log, a)


def inv2(a):
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det


def cond2(a):
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return s[0] / s[-1]


def polar_orthonormalize(y):
    g = y.T @ y
    return y @ sym2_inv_sqrt(0.5 * (g + g.T))


def gr_exp_raw(x, d):
    u, s, vt = thin_svd(d)
    v = vt.T
    y = (x @ v) @ (np.cos(s)[:, None] * vt) + u @ (np.sin(s)[:, None] * vt)
    return polar_orthonormalize(y)


def gr_log_raw(x, y):
    """Returns None where the scalar kernel raised NormalNeighborhoodError."""
    q = x.T @ y
    if cond2(q) > NEIGHBORHOOD_COND_MAX:
        return None
    w = y @ inv2(q)
    l = w - x @ (x.T @ w)
    u, s, vt = thin_svd(l)
    return u @ (np.arctan(s)[:, None] * vt)


def gr_transport_raw(x, d, t, g):
    u, s, vt = thin_svd(d)
    ug = u.T @ g
    ts = t * s
    out = g - u @ ug
    out += (x @ vt.T) @ (-np.sin(ts)[:, None] * ug)
    out += u @ (np.cos(ts)[:, None] * ug)
    return out


def spd_exp_raw(p, s):
    rp = sym2_sqrt(p)
    rpi = sym2_inv_sqrt(p)
    out = rp @ sym2_exp(rpi @ s @ rpi) @ rp
    return 0.5 * (out + out.T)


def spd_log_raw(p, d):
    rp = sym2_sqrt(p)
    rpi = sym2_inv_sqrt(p)
    out = rp @ sym2_log(rpi @ d @ rpi) @ rp
    return 0.5 * (out + out.T)


def spd_transport_factor(p, d):
    rp = sym2_sqrt(p)
    rpi = sym2_inv_sqrt(p)
    mid = rpi @ d @ rpi
    return rp @ sym2_sqrt(0.5 * (mid + mid.T)) @ rpi


def spd_transport_raw(p, d, s):
    e = spd_transport_factor(p, d)
    out = e @ s @ e.T
    return 0.5 * (out + out.T)


def spd_distance_raw(p, d):
    rpi = sym2_inv_sqrt(p)
    mid = rpi @ d @ rpi
    return float(np.linalg.norm(sym2_log(0.5 * (mid + mid.T))))


# ---------------------------------------------------------------------------
# The wireframe writer as it stood before sections were evaluated in one
# batch: one evaluate_blade call per section for the placed points, and a
# second one per section for the section files.


def _axis_frame(tangent):
    z = np.array([0.0, 0.0, 1.0])
    c = np.cross(z, tangent)
    s = np.linalg.norm(c)
    d = float(np.dot(z, tangent))
    if s < 1e-12:
        if d > 0.0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])
    axis = c / s
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    angle = np.arctan2(s, d)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def wireframe_sections(model, etas=None, count=25):
    from scipy.interpolate import CubicSpline

    from shapetensors.blade import evaluate_blade

    if etas is None:
        etas = np.linspace(model.etas[0], model.etas[-1], count)
    etas = np.asarray(etas, dtype=float)
    if model.bend is not None:
        bc = "natural" if model.bend.shape[0] >= 4 else "not-a-knot"
        curve = CubicSpline(model.bend[:, 0], model.bend[:, 1:4], bc_type=bc)
        velocity = curve.derivative()
    out = []
    for eta in etas:
        sec = evaluate_blade(model, float(eta))
        flat = np.column_stack([sec.x, np.zeros(sec.n)])
        if model.bend is None:
            pts = flat + np.array([0.0, 0.0, float(eta) * model.span_length])
        else:
            tan = velocity(float(eta))
            frame = _axis_frame(tan / np.linalg.norm(tan))
            pts = flat @ frame.T + curve(float(eta))
        out.append((float(eta), pts))
    return out


def write_wireframe(out_dir, model, etas=None, count=25, prefix="section"):
    import os

    from shapetensors.blade import evaluate_blade

    os.makedirs(out_dir, exist_ok=True)
    placed = wireframe_sections(model, etas=etas, count=count)
    manifest_lines = ["# file,eta"]
    for i, (eta, _) in enumerate(placed):
        sec = evaluate_blade(model, eta)
        fname = f"{prefix}_{i:03d}.txt"
        write_landmarks(
            os.path.join(out_dir, fname), sec,
            header=f"blade section at eta {fmt(eta)}",
        )
        manifest_lines.append(f"{fname},{fmt(eta)}")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    write_obj(os.path.join(out_dir, "blade.obj"), [p for _, p in placed])
    return manifest_path


# ---------------------------------------------------------------------------
# Standardization and chain alignment as they stood before they took
# stacks: one thin SVD per shape, and one Procrustes per station.


def la_standardize(pts, variant="gl2"):
    from shapetensors.errors import DegenerateGeometryError
    from shapetensors.grassmann import GrassmannPoint
    from shapetensors.shapes import RANK_TOL, AffineFactor, SeparableShape

    b = pts.mean(axis=0)
    centered = pts - b
    w, s, zt = thin_svd(centered)
    if s[1] <= RANK_TOL * s[0]:
        raise DegenerateGeometryError("landmarks are collinear after centering")
    if variant == "gl2":
        rep = w
        m = s[:, None] * zt
    else:
        rep = w @ zt
        m = zt.T @ (s[:, None] * zt)
        m = 0.5 * (m + m.T)
    return SeparableShape(GrassmannPoint(rep), AffineFactor(m, b))


def cluster_representatives(reps, direction="tip-to-root", allow_reflection=True):
    from shapetensors.grassmann import GrassmannPoint

    mats = [np.asarray(r, float) for r in reps]
    n = len(mats)
    rotations = [np.eye(2) for _ in range(n)]
    if direction == "tip-to-root":
        order = range(n - 1, 0, -1)
        pair = lambda k: (k, k - 1)
    else:
        order = range(0, n - 1)
        pair = lambda k: (k, k + 1)
    for k in order:
        anchor, movable = pair(k)
        r = procrustes_rotation(mats[anchor], mats[movable], allow_reflection)
        mats[movable] = mats[movable] @ r
        rotations[movable] = rotations[movable] @ r
    return [GrassmannPoint(m) for m in mats], rotations


# ---------------------------------------------------------------------------
# Procrustes and the product-spd polar split as they stood before the
# closed-form 2x2 orthogonal factor: the SVD of b^T a, with the smallest
# singular direction flipped when SO(2) is required and det would be -1;
# and m = P R with P = (m m^T)^(1/2), R = P^-1 m.


def procrustes_rotation(a, b, allow_reflection=True):
    u, _, vt = thin_svd(mT(b) @ a)
    if not allow_reflection:
        flip = np.linalg.det(u @ vt) < 0.0
        u[..., 1] *= np.where(flip, -1.0, 1.0)[..., None]
    return u @ vt


def polar_split(m):
    """(P, angle) with m = P rotation2(angle), for m of positive det."""
    from shapetensors.linalg import sym2_roots

    p, p_inv = sym2_roots(m @ mT(m))
    r = p_inv @ m
    return p, np.arctan2(r[..., 0, 1], r[..., 0, 0])


# ---------------------------------------------------------------------------
# The PGA decomposition as it stood before thin_svd took a rank: the full
# thin SVD of the scaled logs, truncated to the leading r triplets.


def truncated_svd(a, r):
    u, s, vt = thin_svd(a)
    return u[..., :r], s[..., :r], vt[..., :r, :]


def gram_thin_svd(a, r):
    """The rank-r thin SVD as it stood before the block Krylov probe: the
    top-r eigenvectors of the smaller Gram matrix seed the range basis of
    the Rayleigh-Ritz step.  The probe falls back to these bytes."""
    from shapetensors.linalg import fix_svd_signs

    at = mT(a)
    if a.shape[-2] <= a.shape[-1]:
        probe = at @ np.linalg.eigh(a @ at)[1][..., -r:]
    else:
        probe = np.linalg.eigh(at @ a)[1][..., -r:]
    q = np.linalg.qr(a @ probe)[0]
    w, s, vt = np.linalg.svd(mT(q) @ a, full_matrices=False)
    u = q @ w
    fix_svd_signs(u, vt)
    return u, s, vt


# ---------------------------------------------------------------------------
# The self-intersection guard as it stood before the sort-and-sweep: all
# n^2/2 segment pairs from triu_indices, then the bounding-box prefilter,
# then a per-pair touch loop.


def _orient_signs(a, b, c):
    from shapetensors.intersect import _ERRBOUND, orient_exact

    left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = left - right
    bound = _ERRBOUND * (np.abs(left) + np.abs(right))
    signs = np.sign(det).astype(int)
    unsure = np.abs(det) <= bound
    for k in np.flatnonzero(unsure):
        signs[k] = orient_exact(
            a[k, 0], a[k, 1], b[k, 0], b[k, 1], c[k, 0], c[k, 1]
        )
    return signs


def _on_segment(p, q, r):
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def self_intersects(shape):
    from shapetensors.shapes import LandmarkShape, _as_points

    pts = _as_points(shape)
    closed = isinstance(shape, LandmarkShape) and shape.closed
    if closed and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    m = pts.shape[0]
    if closed:
        starts = pts
        ends = np.roll(pts, -1, axis=0)
        nseg = m
    else:
        starts = pts[:-1]
        ends = pts[1:]
        nseg = m - 1
    if nseg < 2:
        return False

    i, j = np.triu_indices(nseg, k=1)
    adjacent = j - i == 1
    if closed:
        adjacent |= (i == 0) & (j == nseg - 1)

    # adjacent pairs: only a collinear fold-back counts
    ai, aj = i[adjacent], j[adjacent]
    if ai.size:
        # shared vertex is ends[ai] (== starts[aj]), except the wrap pair
        shared = ends[ai].copy()
        first = starts[ai].copy()
        other = ends[aj].copy()
        if closed:
            wrap = (ai == 0) & (aj == nseg - 1)
            # for the wrap pair the shared vertex is starts[0] == ends[-1]
            shared[wrap] = starts[0]
            first[wrap] = ends[0]
            other[wrap] = starts[nseg - 1]
        folded = _orient_signs(first, shared, other) == 0
        for k in np.flatnonzero(folded):
            d = (first[k] - shared[k]) @ (other[k] - shared[k])
            if d > 0.0 or np.all(first[k] == other[k]):
                return True

    i, j = i[~adjacent], j[~adjacent]
    if i.size == 0:
        return False

    # bounding-box prefilter
    p1, p2 = starts[i], ends[i]
    p3, p4 = starts[j], ends[j]
    lo_a = np.minimum(p1, p2)
    hi_a = np.maximum(p1, p2)
    lo_b = np.minimum(p3, p4)
    hi_b = np.maximum(p3, p4)
    overlap = np.all((lo_a <= hi_b) & (lo_b <= hi_a), axis=1)
    if not np.any(overlap):
        return False
    p1, p2, p3, p4 = p1[overlap], p2[overlap], p3[overlap], p4[overlap]

    d1 = _orient_signs(p3, p4, p1)
    d2 = _orient_signs(p3, p4, p2)
    d3 = _orient_signs(p1, p2, p3)
    d4 = _orient_signs(p1, p2, p4)

    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    if np.any(proper):
        return True

    # touches and collinear overlaps: some orientation is zero
    for k in np.flatnonzero((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)):
        if d1[k] == 0 and _on_segment(p3[k], p4[k], p1[k]):
            return True
        if d2[k] == 0 and _on_segment(p3[k], p4[k], p2[k]):
            return True
        if d3[k] == 0 and _on_segment(p1[k], p2[k], p3[k]):
            return True
        if d4[k] == 0 and _on_segment(p1[k], p2[k], p4[k]):
            return True
    return False


# ---------------------------------------------------------------------------
# The guard in exact rational arithmetic throughout: every segment pair,
# each orientation, fold-back and touch test on Fractions, no float filter.


def self_intersects_exact(shape):
    from fractions import Fraction

    from shapetensors.shapes import LandmarkShape, _as_points

    pts = _as_points(shape)
    closed = isinstance(shape, LandmarkShape) and shape.closed
    if closed and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    q = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    segs = list(zip(q, q[1:] + q[:1])) if closed else list(zip(q, q[1:]))
    m = len(segs)

    def orient(a, b, c):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (det > 0) - (det < 0)

    def on_segment(p, r, x):
        return (min(p[0], r[0]) <= x[0] <= max(p[0], r[0])
                and min(p[1], r[1]) <= x[1] <= max(p[1], r[1]))

    for i in range(m):
        for j in range(i + 1, m):
            (p1, p2), (p3, p4) = segs[i], segs[j]
            if j == i + 1 or (closed and m > 2 and (i, j) == (0, m - 1)):
                # adjacent: only a collinear fold-back at the shared vertex
                first, shared, other = (p1, p2, p4) if j == i + 1 else (p2, p1, p3)
                dot = ((first[0] - shared[0]) * (other[0] - shared[0])
                       + (first[1] - shared[1]) * (other[1] - shared[1]))
                if orient(first, shared, other) == 0 and (dot > 0 or first == other):
                    return True
                continue
            d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
            d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
            if d1 * d2 < 0 and d3 * d4 < 0:
                return True
            if ((d1 == 0 and on_segment(p3, p4, p1))
                    or (d2 == 0 and on_segment(p3, p4, p2))
                    or (d3 == 0 and on_segment(p1, p2, p3))
                    or (d4 == 0 and on_segment(p1, p2, p4))):
                return True
    return False


# ---------------------------------------------------------------------------
# The row writer as it stood before it went through tolist(): one
# repr(float(v)) per element.


def fmt_row(values):
    return " ".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# The broadcasting Grassmann Exp and Log as they stood before the 2x2 Gram
# closed forms: a LAPACK SVD of every (n, 2) tangent or lift; and the
# principal angles before the closed-form 2x2 singular values.


def gr_exp_svd(x, d):
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    y = (x @ mT(vt)) @ (np.cos(s)[..., None] * vt) + u @ (np.sin(s)[..., None] * vt)
    return polar_stacked(y)


def gr_log_svd(x, y):
    q = mT(x) @ y
    sv = np.linalg.svd(q, compute_uv=False)
    outside = sv[..., 1] <= sv[..., 0] / NEIGHBORHOOD_COND_MAX
    if np.any(outside):
        index = tuple(int(i) for i in np.argwhere(outside)[0])
        where = f"point {', '.join(map(str, index))}" if index else "target subspace"
        err = NormalNeighborhoodError(
            f"{where} lies outside the normal neighborhood of the base (a "
            "principal angle is at or near pi/2); Log is undefined"
        )
        err.index = index
        raise err
    w = y @ inv2_stacked(q)
    w -= x @ (mT(x) @ w)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return u @ (np.arctan(s)[..., None] * vt)


# ---------------------------------------------------------------------------
# The Grassmann Log as it stood before its Gram came from q^-1: the
# batched Gram W.T W of the lift W = Y q^-1 - X, which reads Y.T Y as it
# is, so it is the log of span(Y) for a drifted representative too.


def gr_log_gram(x, y):
    from shapetensors import grassmann as gr
    from shapetensors.errors import refuse
    from shapetensors.linalg import sv2, sym2_split

    def gram(a):
        mid, h, e = sym2_split(mT(a) @ a)
        return np.stack([mid + h, np.maximum(mid - h, 0.0)], axis=-1), e

    q = mT(x) @ y
    sq = sv2(q)
    refuse(sq[..., 1] <= sq[..., 0] / gr.NEIGHBORHOOD_COND_MAX,
           lambda i: NormalNeighborhoodError(
               f"{'point ' + ', '.join(map(str, i)) if i else 'target subspace'} "
               "lies outside the normal neighborhood of the base (a principal "
               "angle is at or near pi/2); Log is undefined"))
    w = y @ inv2_stacked(q)
    w -= x
    lam, e = gram(w)
    out = w @ gr._gram_fn(e, gr._arctan_ratio(lam))
    far = lam[..., 0] > gr.GRAM_S1_MAX**2
    if np.any(far):
        wv, v, s = gr._right_frame(w[far], e[far])
        out[far] = (wv * gr._arctan_ratio(s * s)[..., None, :]) @ mT(v)
    return out


def principal_angles_svd(x, y):
    """Principal angles from LAPACK singular values of X.T Y (cosines) and
    of the projection residual Y - X X.T Y (sines)."""
    q = x.T @ y
    cos = np.clip(np.linalg.svd(q, compute_uv=False), 0.0, 1.0)
    sin = np.clip(np.linalg.svd(y - x @ q, compute_uv=False), 0.0, 1.0)
    return np.arctan2(sin[::-1], cos)


# ---------------------------------------------------------------------------
# The text readers and writers as they stood before one format call and
# one parse per file: a line-by-line landmark reader, per-row block
# parsing, and per-row landmark and per-vertex OBJ writers.


def read_landmarks(path):
    name = None
    rows = []
    for lineno, line in data_lines(path):
        parts = line.split()
        if len(parts) == 2:
            try:
                rows.append((float(parts[0]), float(parts[1])))
                continue
            except ValueError:
                pass
        if name is None and not rows:
            name = line
            continue
        raise ContractError(
            f"{path}:{lineno}: expected 'x y', got {line!r}"
        )
    if len(rows) < 3:
        raise ContractError(f"{path}: need at least 3 landmarks, found {len(rows)}")
    pts = np.array(rows)
    if not np.all(np.isfinite(pts)):
        raise ContractError(f"{path}: landmarks contain non-finite values")
    closed = bool(np.all(pts[0] == pts[-1]))
    return LandmarkShape(pts, closed=closed, name=name)


def write_landmarks(path, shape, header=None):
    lines = []
    if header:
        lines.append(f"# {header}")
    if shape.name:
        lines.append(str(shape.name))
    lines.extend(fmt_row(row) for row in shape.x)
    atomic_write_text(path, "\n".join(lines) + "\n")


def matrix_block(name, mat):
    mat = np.atleast_2d(mat)
    lines = [f"{name} {mat.shape[0]} {mat.shape[1]}"]
    lines.extend(fmt_row(row) for row in mat)
    return lines


def vector_block(name, values):
    return [f"{name} {len(values)}", fmt_row(values)]


class BlockReader:
    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def next(self):
        if self.pos >= len(self.lines):
            raise ContractError(f"{self.path}: truncated file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def head(self, name):
        line = self.next()
        head = line.split()
        if not head or head[0] != name:
            raise ContractError(
                f"{self.path}: expected block {name!r}, found {line!r}"
            )
        return head

    def vector(self, name):
        size = int(self.head(name)[1])
        data = np.array([float(t) for t in self.next().split()])
        if data.size != size:
            raise ContractError(f"{self.path}: block {name!r} has wrong size")
        return data

    def block(self, name, optional=False):
        head = self.head(name)
        if optional and head[1] == "none":
            return None
        rows, cols = int(head[1]), int(head[2])
        data = np.array(
            [[float(t) for t in self.next().split()] for _ in range(rows)]
        )
        if data.shape != (rows, cols):
            raise ContractError(f"{self.path}: block {name!r} has wrong shape")
        return data


def write_obj(path, sections3d):
    counts = {s.shape[0] for s in sections3d}
    if len(sections3d) < 2 or len(counts) != 1:
        raise ContractError(
            "an OBJ loft needs at least two sections of equal size"
        )
    n = counts.pop()
    lines = []
    for pts in sections3d:
        for p in pts:
            lines.append(f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}")
    for j in range(len(sections3d) - 1):
        base = j * n
        for i in range(n - 1):
            a = base + i + 1  # OBJ indices are 1-based
            b = base + i + 2
            c = base + n + i + 2
            d = base + n + i + 1
            lines.append(f"f {a} {b} {c} {d}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Refinement and the CST basis as they stood while the library used scipy:
# one CubicSpline or PchipInterpolator per shape, and scipy's float
# binomials.


def refine(shape, cfg):
    from scipy.interpolate import CubicSpline, PchipInterpolator

    from shapetensors.shapes import cumulative_lengths, sampling_positions

    pts = shape.x
    if shape.closed and not np.array_equal(pts[0], pts[-1]):
        pts = np.vstack([pts, pts[0]])
    s = cumulative_lengths(pts)
    if cfg.spline == "pchip":
        path = PchipInterpolator(s, pts, axis=0)
    else:
        path = CubicSpline(s, pts, axis=0,
                           bc_type="periodic" if shape.closed else "natural")
    xi = sampling_positions(cfg.n, cfg.sampling)
    return LandmarkShape(path(xi), closed=shape.closed, name=shape.name)


def bernstein_shape(x, coeff):
    from scipy.special import comb

    coeff = np.asarray(coeff, dtype=float)
    deg = coeff.size - 1
    i = np.arange(coeff.size)
    basis = comb(deg, i)[:, None] * x[None, :] ** i[:, None] * (1.0 - x[None, :]) ** (
        deg - i
    )[:, None]
    return coeff @ basis


# ---------------------------------------------------------------------------
# CST sampling and the SVD sign convention as they stood before CST took
# stacks: one airfoil per call, a Bernstein table per surface, and a search
# for every sign anchor.


def cst_airfoil(upper, lower, n_c=401, sampling="cosine"):
    from math import comb

    from shapetensors.cst import CLASS_N1, CLASS_N2

    def bernstein(x, coeff):
        deg = coeff.size - 1
        i = np.arange(coeff.size)
        binom = np.array([comb(deg, k) for k in range(coeff.size)], dtype=float)
        return coeff @ (binom[:, None] * x[None, :] ** i[:, None]
                        * (1.0 - x[None, :]) ** (deg - i)[:, None])

    upper = np.asarray(upper, dtype=float)
    lower = np.asarray(lower, dtype=float)
    zeta = np.linspace(0.0, 2.0 * np.pi, int(n_c))
    if sampling == "cosine":
        x = 0.5 * (np.cos(zeta) + 1.0)
    else:
        x = np.abs(1.0 - zeta / np.pi)
    x = np.clip(x, 0.0, 1.0)
    cls = x**CLASS_N1 * (1.0 - x) ** CLASS_N2
    y = np.where(zeta <= np.pi, cls * bernstein(x, upper), -cls * bernstein(x, lower))
    pts = np.column_stack([x, y])
    pts[0] = pts[-1] = (1.0, 0.0)
    return LandmarkShape(pts, closed=True)



def is_valid_airfoil(shape):
    from shapetensors.errors import DegenerateGeometryError
    from shapetensors.intersect import self_intersects
    from shapetensors.shapes import la_standardize

    try:
        la_standardize(shape)
    except DegenerateGeometryError:
        return False
    return not self_intersects(shape)


def generate_airfoils(rng, count, n_c=401, sampling="cosine", nominal=None,
                      percent=20.0, lo=0.0, hi=0.45):
    """One draw, one sampled airfoil and one guard call at a time; the
    resample limit is read from ``shapetensors.cst`` when it is called."""
    from shapetensors import cst
    from shapetensors.errors import DegenerateGeometryError

    shapes = []
    rows = []
    rejected = 0
    while len(shapes) < count:
        if nominal is None:
            upper, lower = rng.uniform(lo, hi, size=9), rng.uniform(lo, hi, size=9)
        else:
            frac = percent / 100.0
            upper = np.asarray(nominal[0]) * (
                1.0 + rng.uniform(-frac, frac, size=np.shape(nominal[0])))
            lower = np.asarray(nominal[1]) * (
                1.0 + rng.uniform(-frac, frac, size=np.shape(nominal[1])))
            upper, lower = np.clip(upper, lo, hi), np.clip(lower, lo, hi)
        shape = cst.cst_airfoil(upper, lower, n_c=n_c, sampling=sampling)
        if is_valid_airfoil(shape):
            shapes.append(shape)
            rows.append(np.concatenate([upper, lower]))
        else:
            rejected += 1
            if rejected > cst.MAX_RESAMPLES:
                raise DegenerateGeometryError(
                    f"exceeded {cst.MAX_RESAMPLES} resamples while drawing valid shapes"
                )
    return shapes, np.array(rows), rejected

def fix_svd_signs(u, vt):
    from shapetensors.linalg import SIGN_TOL

    au = np.abs(u)
    anchor = (au > SIGN_TOL).argmax(axis=-2)
    anchored = np.take_along_axis(u, anchor[..., None, :], axis=-2)[..., 0, :]
    flip = np.where(anchored < 0.0, -1.0, 1.0)
    u *= flip[..., None, :]
    vt *= flip[..., :, None]
    return u, vt


def pga_tangent(model, coeffs):
    """({component: tangent at the mean}, its Exp at the mean) of one PGA
    coefficient vector: one matrix-vector product and one Exp per row."""
    from shapetensors.grassmann import GrassmannPoint
    from shapetensors.grassmann import _exp_raw as gr_exp
    from shapetensors.product import ProductPoint
    from shapetensors.spd import SpdMatrix
    from shapetensors.spd import _exp_raw as spd_exp

    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (model.r,):
        raise ContractError(
            f"coefficient vector must have length r={model.r}, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ContractError(f"coefficient vector has non-finite entries: {coeffs}")
    mean = model.mean
    base = {"grassmann": getattr(mean, "grass", mean).rep} if model.kind != "spd" else {}
    if model.kind != "grassmann":
        base["spd"] = getattr(mean, "scale", mean).mat
    sizes = [base[c].size if c == "grassmann" else 3 for c in base]
    r2 = np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = np.split(model.basis @ coeffs, np.cumsum(sizes)[:-1])
        tangent = {
            c: v.reshape(2, -1).T if c == "grassmann"
            else np.array([[v[0], v[1] / r2], [v[1] / r2, v[2]]])
            for c, v in zip(base, parts)}
        end = {c: (gr_exp if c == "grassmann" else spd_exp)(base[c], t)
               for c, t in tangent.items()}
    try:
        if len(end) == 2:
            return tangent, ProductPoint(end["grassmann"], end["spd"])
        return tangent, (GrassmannPoint if "grassmann" in end else SpdMatrix)(
            *end.values())
    except ContractError as err:
        raise ContractError(f"coefficient vector is too large: {err}") from err


def generate(model, coeffs):
    return pga_tangent(model, coeffs)[1]


# ---------------------------------------------------------------------------
# The convergence experiment as it stood before it took stacks: two draws,
# one cst_airfoil call per level and a LandmarkShape per sampling of each
# trial, a try/except per trial, and one refine call per level over the
# trials still kept.


def random_coefficients(rng):
    """One trial's (upper, lower) draw."""
    from shapetensors.cst import COEFF_HI, COEFF_LO, N_COEFF

    return (rng.uniform(COEFF_LO, COEFF_HI, size=N_COEFF),
            rng.uniform(COEFF_LO, COEFF_HI, size=N_COEFF))


def run_convergence(draws, n_ref, nc_list, seed):
    """The ConvergenceReport of the (upper, lower) pairs ``draws``, one
    trial each; ``nc_list`` holds two or more distinct integers."""
    from shapetensors.convergence import (MEASURES, STATISTICS,
                                          ConvergenceReport, ConvergenceRow)
    from shapetensors.cst import cst_airfoil
    from shapetensors.errors import DegenerateGeometryError, without_refused
    from shapetensors.grassmann import GrassmannPoint, gr_distance
    from shapetensors.shapes import (PreprocessConfig, _standardize_raw,
                                     landmark_gauge, refine)

    nc_list = tuple(nc_list)
    cfg = PreprocessConfig(n=n_ref, sampling="uniform-arclength")
    shapes = []  # each kept trial's truth, then its coarse samplings
    for upper, lower in draws:
        try:
            shapes.append([cst_airfoil(upper, lower, n_c=n_c)
                           for n_c in (n_ref,) + nc_list])
        except DegenerateGeometryError:
            continue
    dense = [[] for _ in shapes]
    for level in range(len(nc_list) + 1):
        kept, refined, _ = without_refused(lambda group: refine(group, cfg),
                                           [trial[level] for trial in shapes])
        shapes = [shapes[i] for i in kept]
        dense = [dense[i] + [r.x] for i, r in zip(kept, refined)]
    kept, rep, _ = without_refused(
        lambda trials: _standardize_raw(np.stack(trials), "gl2")[0], dense)
    if not kept:
        raise DegenerateGeometryError("every convergence trial was degenerate")
    shapes, dense = [shapes[i] for i in kept], np.stack([dense[i] for i in kept])
    planes = GrassmannPoint(rep)
    table = np.stack([
        [[landmark_gauge(shape) for shape in trial[1:]] for trial in shapes],
        np.linalg.norm(dense[:, 1:] - dense[:, :1], axis=-1).max(axis=-1),
        gr_distance(planes[:, 1:], planes[:, :1], metric="angle-sum"),
    ], axis=-1)
    rows = []
    for j, n_c in enumerate(nc_list):
        values = []
        for column in ConvergenceRow._fields[1:]:
            measure, statistic = column.split("_")
            values.append(float(STATISTICS[statistic](table[:, j, MEASURES[measure]])))
        rows.append(ConvergenceRow(n_c, *values))
    return ConvergenceReport(rows, len(draws), n_ref, seed,
                             skipped=len(draws) - len(table))


# ---------------------------------------------------------------------------
# The Karcher mean and PGA fit as they stood before the sweeps ran in
# blocks: each sweep takes the logs of the whole stack at once and
# averages them, and the fit vectorizes the last sweep's logs, scales a
# copy by 1/sqrt(N-1) and decomposes that.


def karcher(points, stacks, epsilon, max_iter):
    """(mean, {component: (N, ...) logs at the mean}) of N points, given
    with their ``whole_stacks``."""
    import math

    from shapetensors import stats
    from shapetensors.errors import ConvergenceError

    if not len(points):
        raise ContractError("karcher_mean needs at least one point")
    if not 0.0 < epsilon < math.inf:
        raise ContractError(f"epsilon must be finite and positive, got {epsilon}")
    if len(points) == 1:
        mean, base = points[0], {c: a[0] for c, a in stacks.items()}
    else:
        base = {c: stats._COMPONENTS[c].start(a) for c, a in stacks.items()}
        mean = stats._point(base)
    trajectory, accepted, halvings = [], math.inf, 0
    for _ in range(max_iter):
        logs = {c: stats._COMPONENTS[c].log(base[c], stacks[c]) for c in stacks}
        grad = {c: l.mean(axis=0) for c, l in logs.items()}
        gnorm = math.hypot(*(np.linalg.norm(v) for v in grad.values()))
        trajectory.append(gnorm)
        if gnorm < epsilon:
            return mean, logs
        del logs
        if gnorm < accepted:
            accepted, prev, step, halvings = gnorm, base, grad, 0
        else:
            halvings += 1
            if halvings > stats.KARCHER_MAX_HALVINGS:
                raise ConvergenceError(
                    f"Karcher mean stalled: the step and {stats.KARCHER_MAX_HALVINGS} "
                    f"halvings of it did not reduce the gradient norm "
                    f"{accepted:.3e}",
                    gradient_norm=gnorm, trajectory=trajectory,
                )
            step = {c: 0.5 * v for c, v in step.items()}
        base = {c: stats._COMPONENTS[c].exp(prev[c], step[c]) for c in stacks}
        mean = stats._point(base)
    raise ConvergenceError(
        f"Karcher mean did not converge in {max_iter} iterations "
        f"(last gradient norm {gnorm:.3e})",
        gradient_norm=gnorm, trajectory=trajectory,
    )


def whole_stacks(points):
    """``stats._members`` of a stacked point or a list of points, a
    list's components stacked whole with np.stack."""
    from shapetensors import stats

    stacks = stats._members(points)
    if isinstance(points, list):
        stacks = {c: np.stack([stats._arrays(p)[c] for p in points]) for c in stacks}
    return stacks


def karcher_mean(points, epsilon=1e-8, max_iter=200):
    return karcher(points, whole_stacks(points), epsilon, max_iter)[0]


def pga_fit(points, r, epsilon=1e-8):
    from shapetensors import stats
    from shapetensors.errors import DegenerateGeometryError

    stacks = whole_stacks(points)
    n = len(points)
    if n < 2:
        raise ContractError("PGA needs at least two points")
    limit = min(n - 1, sum(stats._COMPONENTS[c].dim(a) for c, a in stacks.items()))
    if int(r) != r or not 1 <= r <= limit:
        raise ContractError(
            f"rank r={r} must be an integer in [1, {limit}] "
            f"(N-1 and the manifold dimension both cap it)"
        )
    mean, logs = karcher(points, stacks, epsilon, stats.KARCHER_MAX_ITER)
    del stacks
    parts = [stats._COMPONENTS[c].vec(logs.pop(c)) for c in list(logs)]
    data = parts[0] if len(parts) == 1 else np.hstack(parts)
    del parts
    scaled = data.T / np.sqrt(n - 1.0)
    basis, s, _ = stats.thin_svd(scaled, r)
    if s[0] <= stats.ZERO_VARIANCE_TOL:
        raise DegenerateGeometryError(
            "ensemble has zero variance: all points coincide with the mean"
        )
    return stats.PgaModel(mean, basis, s**2, data @ basis, epsilon)
