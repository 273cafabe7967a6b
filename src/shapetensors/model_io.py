"""Structured-text serialization of fitted PGA models.

The format is the line-block format of ``textio``: a header, then named
blocks whose first line carries the dimensions.  Floats use
shortest-exact decimals, so save -> load -> save reproduces the file
byte for byte.
"""

import numpy as np

from .errors import ContractError
from .grassmann import GrassmannPoint
from .product import ProductPoint
from .spd import SpdMatrix
from .stats import MeanScale, PgaModel, SampleDomain
from .textio import (
    BlockReader,
    atomic_write_text,
    fmt,
    fmt_row,
    matrix_block,
    vector_block,
)

_MAGIC = "shapetensors model 1"


def save_model(path, model):
    lines = [_MAGIC, f"kind {model.kind}", f"epsilon {fmt(model.epsilon)}"]
    if model.kind in ("grassmann", "product"):
        rep = model.mean.rep if model.kind == "grassmann" else model.mean.grass.rep
        lines.extend(matrix_block("mean-grassmann", rep))
    if model.kind in ("spd", "product"):
        mat = model.mean.mat if model.kind == "spd" else model.mean.scale.mat
        lines.extend(matrix_block("mean-spd", mat))
    lines.extend(matrix_block("basis", model.basis))
    lines.extend(vector_block("eigenvalues", model.eigenvalues))
    lines.extend(matrix_block("coords", model.coords))
    if model.mean_scale is None:
        lines.append("mean-scale none")
    else:
        lines.append(f"mean-scale {model.mean_scale.kind}")
        lines.extend(fmt_row(row) for row in model.mean_scale.m)
    if model.domain is None:
        lines.append("domain none")
    else:
        lines.append(f"domain {model.domain.lo.size}")
        lines.append(fmt_row(model.domain.lo))
        lines.append(fmt_row(model.domain.hi))
        lines.append(fmt(model.domain.radius))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path):
    r = BlockReader(path)
    if r.next() != _MAGIC:
        raise ContractError(f"{path}: not a shapetensors model file")
    kind = r.next().split()[1]
    if kind not in ("grassmann", "spd", "product"):
        raise ContractError(f"{path}: unknown manifold kind {kind!r}")
    epsilon = float(r.next().split()[1])
    grass = spd = None
    if kind in ("grassmann", "product"):
        grass = GrassmannPoint(r.block("mean-grassmann"))
    if kind in ("spd", "product"):
        spd = SpdMatrix(r.block("mean-spd"))
    if kind == "grassmann":
        mean = grass
    elif kind == "spd":
        mean = spd
    else:
        mean = ProductPoint(grass, spd)
    basis = r.block("basis")
    eigenvalues = r.vector("eigenvalues")
    coords = r.block("coords")
    mean_scale = None
    tag = r.head("mean-scale")
    if tag[1] != "none":
        m = np.array([[float(t) for t in r.next().split()] for _ in range(2)])
        mean_scale = MeanScale(m, tag[1])
    domain = None
    if r.head("domain")[1] != "none":
        lo = np.array([float(t) for t in r.next().split()])
        hi = np.array([float(t) for t in r.next().split()])
        radius = float(r.next())
        domain = SampleDomain(lo, hi, radius)
    return PgaModel(
        kind, mean, basis, eigenvalues, coords, epsilon,
        mean_scale=mean_scale, domain=domain,
    )
