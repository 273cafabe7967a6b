"""Structured-text serialization of fitted PGA models.

The format is the line-block format of ``textio``: a header, then named
blocks whose first line carries the dimensions.  Floats use
shortest-exact decimals, so save -> load -> save reproduces the file
byte for byte.
"""

from .errors import ContractError
from .stats import (
    _COMPONENTS,
    KINDS,
    MEAN_SCALE_KINDS,
    MeanScale,
    PgaModel,
    SampleDomain,
    _arrays,
    _point,
)
from .textio import (
    BlockReader,
    atomic_write_text,
    fmt,
    fmt_rows,
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
        lines.append(fmt_rows(model.mean_scale.m))
    if model.domain is None:
        lines.append("domain none")
    else:
        lines.append(f"domain {model.domain.lo.size}")
        lines.append(fmt_rows([model.domain.lo, model.domain.hi]))
        lines.append(fmt(model.domain.radius))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path):
    r = BlockReader(path)
    if r.next() != _MAGIC:
        raise ContractError(f"{path}: not a shapetensors model file")
    kind = r.value("kind")
    if kind not in KINDS:
        raise r.error(f"unknown manifold kind {kind!r}")
    epsilon = r.value("epsilon", float)
    mean = _point({c: r.block(f"mean-{c}") for c in KINDS[kind]})
    # one basis row per entry of a vectorized tangent at the mean
    width = sum(_COMPONENTS[c].vec(a).size for c, a in _arrays(mean).items())
    basis = r.block("basis", rows=width)
    rank = basis.shape[1]
    eigenvalues = r.vector("eigenvalues", size=rank)
    coords = r.block("coords", cols=rank)
    mean_scale = None
    tag = r.value("mean-scale")
    if tag != "none":
        if tag not in MEAN_SCALE_KINDS:
            raise r.error(f"unknown mean-scale kind {tag!r}")
        mean_scale = MeanScale(r.rows(2, 2, "mean-scale"), tag)
    domain = None
    size = r.value("domain")
    if size != "none":
        lo, hi = r.rows(2, r.dim(size, "domain", rank), "domain")
        domain = SampleDomain(lo, hi, r.rows(1, 1, "domain")[0, 0])
    return PgaModel(mean, basis, eigenvalues, coords, epsilon,
                    mean_scale=mean_scale, domain=domain)
