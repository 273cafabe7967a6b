"""Structured-text serialization of fitted PGA models.

The format is the line-block format of ``textio``: a header, then named
blocks whose first line carries the dimensions.  Floats use
shortest-exact decimals, so save -> load -> save reproduces the file
byte for byte.
"""

import numpy as np

from .errors import ContractError
from .stats import KINDS, MeanScale, PgaModel, SampleDomain, _arrays, _point
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
    for c, a in _arrays(model.mean).items():
        lines.extend(matrix_block(f"mean-{c}", a))
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
    if kind not in KINDS:
        raise ContractError(f"{path}: unknown manifold kind {kind!r}")
    epsilon = float(r.next().split()[1])
    mean = _point({c: r.block(f"mean-{c}") for c in KINDS[kind]})
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
