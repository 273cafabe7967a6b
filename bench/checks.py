"""Reference computations and correctness checks for the benchmark.

Everything here is written from the textbook definitions with numpy
alone and imports nothing from shapetensors, so a check never compares
the program against itself:

* CST airfoil points (class function times Bernstein shape function),
* centring plus thin-SVD standardization,
* the Grassmann logarithm through the 2x2 Gram matrix of the horizontal
  lift, Log = L V diag(arctan(s)/s) V^T (the program uses a thin SVD of L),
* principal angles and the geodesic distance on G(n, 2),
* the affine-invariant SPD logarithm through a general eigh,
* a floating-point segment-crossing test that answers None when an
  orientation is too close to zero to call.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

import os
from math import comb

import numpy as np

# Relative size of an orientation determinant below which the crossing
# test refuses to decide (the program's guard is exact there).
CROSS_UNSURE = 1e-9


# ------------------------------------------------------------ geometry


def cst_points(upper, lower, n):
    """Closed CST airfoil, cosine-spaced, trailing edge -> upper -> lower."""
    zeta = np.linspace(0.0, 2.0 * np.pi, n)
    x = np.clip(0.5 * (np.cos(zeta) + 1.0), 0.0, 1.0)
    deg = len(upper) - 1
    basis = np.array([comb(deg, i) * x**i * (1.0 - x) ** (deg - i)
                      for i in range(deg + 1)])
    cls = np.sqrt(x) * (1.0 - x)
    y = np.where(zeta <= np.pi, cls * (np.asarray(upper) @ basis),
                 -cls * (np.asarray(lower) @ basis))
    pts = np.column_stack([x, y])
    pts[0] = pts[-1] = (1.0, 0.0)
    return pts


def standardize(pts):
    """Centre and split: pts = rep @ m + b with rep orthonormal."""
    b = pts.mean(axis=0)
    w, s, zt = np.linalg.svd(pts - b, full_matrices=False)
    return w, s[:, None] * zt, b


def grassmann_log(x, ys):
    """Log_x(y) for a stack ys of shape (N, n, 2) (or one (n, 2))."""
    ys = np.asarray(ys)
    one = ys.ndim == 2
    ys = ys[None] if one else ys
    w = ys @ np.linalg.inv(np.matmul(x.T, ys))
    lift = w - x @ np.matmul(x.T, w)
    lam, v = np.linalg.eigh(np.matmul(lift.transpose(0, 2, 1), lift))
    s = np.sqrt(np.clip(lam, 0.0, None))
    safe = np.where(s > 0.0, s, 1.0)
    f = np.where(s > 1e-8, np.arctan(s) / safe, 1.0 - s * s / 3.0)
    out = lift @ ((v * f[:, None, :]) @ v.transpose(0, 2, 1))
    return out[0] if one else out


def principal_angles(x, ys):
    """Ascending principal angles between span(x) and each span(ys[k])."""
    ys = np.asarray(ys)
    one = ys.ndim == 2
    ys = ys[None] if one else ys
    q = np.matmul(x.T, ys)
    cos = np.clip(np.linalg.svd(q, compute_uv=False), 0.0, 1.0)
    sin = np.clip(np.linalg.svd(ys - x @ q, compute_uv=False), 0.0, 1.0)
    ang = np.arctan2(sin[:, ::-1], cos)
    return ang[0] if one else ang


def gr_distance(x, ys):
    return np.sqrt(np.sum(principal_angles(x, ys) ** 2, axis=-1))


def _sym_fn(mats, fn):
    lam, v = np.linalg.eigh(mats)
    return (v * fn(lam)[..., None, :]) @ np.swapaxes(v, -1, -2)


def spd_log(p, ds):
    """Affine-invariant Log_p(d) for a stack ds of SPD 2x2 matrices."""
    root = _sym_fn(p, np.sqrt)
    inv_root = _sym_fn(p, lambda w: 1.0 / np.sqrt(w))
    mid = inv_root @ ds @ inv_root
    out = root @ _sym_fn(0.5 * (mid + np.swapaxes(mid, -1, -2)), np.log) @ root
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def crosses(pts, closed):
    """Does any pair of non-adjacent segments touch or cross?

    True or False when every orientation that matters is clear of zero
    by CROSS_UNSURE relative; None when a near-zero one could decide it.
    """
    pts = np.asarray(pts, dtype=float)
    if closed and np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    a = pts if closed else pts[:-1]
    b = np.roll(pts, -1, axis=0) if closed else pts[1:]
    m = len(a)
    i, j = np.triu_indices(m, k=2)
    if closed:
        keep = ~((i == 0) & (j == m - 1))
        i, j = i[keep], j[keep]
    lo_i, hi_i = np.minimum(a[i], b[i]), np.maximum(a[i], b[i])
    lo_j, hi_j = np.minimum(a[j], b[j]), np.maximum(a[j], b[j])
    near = np.all((lo_i <= hi_j) & (lo_j <= hi_i), axis=1)
    i, j = i[near], j[near]

    def orient(p, q, r):
        left = (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
        right = (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])
        det = left - right
        unsure = np.abs(det) <= CROSS_UNSURE * (np.abs(left) + np.abs(right))
        return np.sign(det), unsure

    d1, u1 = orient(a[j], b[j], a[i])
    d2, u2 = orient(a[j], b[j], b[i])
    d3, u3 = orient(a[i], b[i], a[j])
    d4, u4 = orient(a[i], b[i], b[j])
    unsure = u1 | u2 | u3 | u4
    proper = (d1 * d2 < 0) & (d3 * d4 < 0) & ~unsure
    if np.any(proper):
        return True
    if np.any(unsure):
        return None
    # adjacent segments share a vertex; only a collinear fold-back touches
    if closed:
        first, shared, other = a, b, np.roll(b, -1, axis=0)
    else:
        first, shared, other = a[:-1], b[:-1], b[1:]
    _, flat = orient(first, shared, other)
    back = np.sum((first - shared) * (other - shared), axis=1) > 0.0
    return None if np.any(flat & back) else False


# ------------------------------------------------------------ file reading


def read_landmarks(path):
    """(header comments, name line or None, (n, 2) points) of a landmark file."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh.read().splitlines()]
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    name = None
    if data and len(data[0].split()) != 2:
        name, data = data[0], data[1:]
    pts = np.array(" ".join(data).split(), dtype=float).reshape(-1, 2)
    return comments, name, pts


def read_model(path):
    """The blocks of a model file that the checks use."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    out = {"kind": lines[1].split()[1]}
    k = 3
    while k < len(lines):
        head = lines[k].split()
        if head[0] in ("mean-grassmann", "mean-spd", "basis", "coords"):
            rows = int(head[1])
            out[head[0]] = np.array(" ".join(lines[k + 1:k + 1 + rows]).split(),
                                    dtype=float).reshape(rows, int(head[2]))
            k += 1 + rows
        elif head[0] == "eigenvalues":
            out["eigenvalues"] = np.array(lines[k + 1].split(), dtype=float)
            k += 2
        else:
            k += 1
    return out


def read_coords_csv(path):
    with open(path) as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()[1:] if ln]
    return np.array([[float(v) for v in row[2:]] for row in rows])


# ------------------------------------------------------------ checks


def _vec_grassmann(raws):
    return raws.transpose(0, 2, 1).reshape(raws.shape[0], -1)


# Points per chunk when a fit is checked, so that the check's arrays stay
# far smaller than the fit's and do not set the process's peak size.
CHUNK = 1000


def _check_fit(logs_of, count, basis, eigenvalues, coords, epsilon, r, label):
    """First-order condition and PGA laws, accumulated over chunks.

    ``logs_of(i0, i1)`` returns ({part: raw logs}, vectorized logs) for
    points i0..i1.
    """
    if basis.shape[1] != r or coords.shape != (count, r):
        return [f"{label}: basis {basis.shape} / coords {coords.shape} do not "
                f"match N={count}, r={r}"]
    sums, total, gram, coord_err = {}, 0.0, 0.0, 0.0
    for i0 in range(0, count, CHUNK):
        i1 = min(i0 + CHUNK, count)
        parts, data = logs_of(i0, i1)
        if data.shape[1] != basis.shape[0]:
            return [f"{label}: basis has {basis.shape[0]} rows, the logs "
                    f"{data.shape[1]} entries"]
        for part, logs in parts.items():
            sums[part] = sums.get(part, 0.0) + logs.sum(axis=0)
        total = total + data.sum(axis=0)
        gram = gram + data.T @ data
        coord_err = max(coord_err, float(np.abs(coords[i0:i1] - data @ basis).max()))
    bad = []
    for part, s in sums.items():
        gnorm = float(np.linalg.norm(s / count))
        if not gnorm < epsilon:
            bad.append(f"{label}: {part} mean log at the returned mean has "
                       f"norm {gnorm:.3e} >= epsilon {epsilon:.0e}")
    ortho = np.abs(basis.T @ basis - np.eye(r)).max()
    if ortho > 1e-10:
        bad.append(f"{label}: basis is not orthonormal ({ortho:.1e})")
    if np.any(np.diff(eigenvalues) > 0.0):
        bad.append(f"{label}: eigenvalues do not descend {eigenvalues}")
    mean_row = total / count
    cov = (gram - count * np.outer(mean_row, mean_row)) / (count - 1.0)
    lead = np.linalg.eigvalsh(cov)[::-1][:r]
    err = np.max(np.abs(lead - eigenvalues) / lead)
    if err > 1e-8:
        bad.append(f"{label}: eigenvalues differ from the covariance's by "
                   f"{err:.1e} relative (tol 1e-8)")
    err = coord_err / max(float(np.abs(coords).max()), 1e-300)
    if err > 1e-8:
        bad.append(f"{label}: coords differ from the log projections by "
                   f"{err:.1e} relative (tol 1e-8)")
    return bad


def check_grassmann_fit(reps, mean, basis, eigenvalues, coords, epsilon, r,
                        label="grassmann fit"):
    """First-order condition, horizontal orthonormal basis, PGA laws.

    ``reps`` is a sequence of the fitted (n, 2) representatives.
    """
    def logs_of(i0, i1):
        logs = grassmann_log(mean, np.stack(reps[i0:i1]))
        return {"Grassmann": logs}, _vec_grassmann(logs)

    n = mean.shape[0]
    horiz = max(np.abs(mean.T @ basis[:, j].reshape(2, n).T).max()
                for j in range(basis.shape[1]))
    bad = []
    if horiz > 1e-10:
        bad.append(f"{label}: basis is not horizontal at the mean ({horiz:.1e})")
    return bad + _check_fit(logs_of, len(reps), basis, eigenvalues, coords,
                            epsilon, r, label)


def check_product_fit(reps, spds, mean_rep, mean_spd, basis, eigenvalues,
                      coords, epsilon, r, label="product fit"):
    """Both parts meet the first-order condition; PGA laws on the product."""
    def logs_of(i0, i1):
        glogs = grassmann_log(mean_rep, np.stack(reps[i0:i1]))
        slogs = spd_log(mean_spd, np.stack(spds[i0:i1]))
        svec = np.column_stack([slogs[:, 0, 0], np.sqrt(2.0) * slogs[:, 0, 1],
                                slogs[:, 1, 1]])
        return ({"Grassmann": glogs, "SPD": slogs},
                np.hstack([_vec_grassmann(glogs), svec]))

    return _check_fit(logs_of, len(reps), basis, eigenvalues, coords, epsilon,
                      r, label)


def check_standardized(pts, rep, m, b, label):
    """The program's split spans the same plane and reconstructs pts."""
    w, _, _ = standardize(pts)
    bad = []
    dist = float(gr_distance(w, rep))
    if dist > 1e-9:
        bad.append(f"{label}: representative is {dist:.1e} from the centred SVD span")
    err = float(np.abs(rep @ m + b - pts).max() / np.abs(pts).max())
    if err > 1e-10:
        bad.append(f"{label}: rep @ m + b misses the landmarks by {err:.1e}")
    return bad


def check_cst(pts, upper, lower, label):
    err = float(np.abs(pts - cst_points(upper, lower, len(pts))).max())
    return [] if err <= 1e-12 else [f"{label}: CST points off by {err:.1e}"]


def check_landmark_files(directory, names, n, label):
    """Every named file exists and holds n finite landmarks."""
    bad = []
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            bad.append(f"{label}: {name} is missing")
            continue
        _, _, pts = read_landmarks(path)
        if pts.shape != (n, 2) or not np.all(np.isfinite(pts)):
            bad.append(f"{label}: {name} holds {pts.shape} landmarks, want ({n}, 2)")
    return bad


def check_guard_verdict(pts, verdict, label):
    """'pass'/'fail' from the program against the float crossing test."""
    mine = crosses(pts, closed=bool(np.array_equal(pts[0], pts[-1])))
    if mine is None or mine == (verdict == "fail"):
        return []
    return [f"{label}: guard says {verdict}, crossing test says "
            f"{'crossing' if mine else 'simple'}"]


def check_sample(path, mean_rep):
    """Distance from the model mean equals the header coefficient norm."""
    comments, _, pts = read_landmarks(path)
    coeffs = [c for c in comments if c.startswith("coeffs ")]
    if len(coeffs) != 1:
        return [f"{path}: no coefficient header"]
    c = np.array(coeffs[0].split()[1:], dtype=float)
    w, _, _ = standardize(pts)
    dist = float(gr_distance(mean_rep, w))
    want = float(np.linalg.norm(c))
    if abs(dist - want) > 1e-9 * max(1.0, want):
        return [f"{os.path.basename(path)}: Grassmann distance {dist:.12g} from "
                f"the mean, coefficient norm {want:.12g}"]
    return []


def check_eigen_coords(eigenvalues, coords, label):
    var = np.var(coords, axis=0, ddof=1)
    err = float(np.max(np.abs(var - eigenvalues) / eigenvalues))
    if err > 1e-9:
        return [f"{label}: eigenvalues differ from the coordinate variances "
                f"by {err:.1e} relative (tol 1e-9)"]
    return []


def check_deformed(old_reps, new_reps, cnorm, label):
    """Each deformed station sits at distance |c| from its original."""
    dist = np.array([gr_distance(o, nw) for o, nw in zip(old_reps, new_reps)])
    err = float(np.abs(dist - cnorm).max())
    if err > 1e-9:
        return [f"{label}: station distances {dist.min():.12g}..{dist.max():.12g} "
                f"differ from |c| = {cnorm:.12g} by {err:.1e}"]
    return []


def check_obj(path, sections, n):
    with open(path) as fh:
        kinds = [ln[:2] for ln in fh]
    nv, nf = kinds.count("v "), kinds.count("f ")
    if (nv, nf) != (sections * n, (sections - 1) * (n - 1)):
        return [f"{path}: {nv} vertices and {nf} faces, want "
                f"{sections * n} and {(sections - 1) * (n - 1)}"]
    return []
