"""Structured-text serialization of fitted PGA models.

The format is the line-block format of ``textio``: a header, then named
blocks whose first line carries the dimensions.  Floats use
shortest-exact decimals, so save -> load -> save reproduces the file
byte for byte.  The file ends at ``mean-scale``; the domain is derived.
"""

from .errors import ContractError, named
from .grassmann import check_orthonormal
from .stats import (
    _COMPONENTS,
    KINDS,
    MeanScale,
    PgaModel,
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
# The tag of a mean-scale block: the entrywise (gl2) average of the scales.
_MEAN_SCALE = "extrinsic"


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
        lines.append(f"mean-scale {_MEAN_SCALE}")
        lines.append(fmt_rows(model.mean_scale.m))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path):
    r = BlockReader(path)
    if r.next() != _MAGIC:
        raise ContractError(f"{path}: not a shapetensors model file")
    kind = r.value("kind")
    if kind not in KINDS:
        raise r.error(f"unknown manifold kind {kind!r}")
    epsilon = r.value("epsilon", float)
    blocks = {c: r.block(f"mean-{c}") for c in KINDS[kind]}
    with named(path):
        mean = _point(blocks)
    # one basis row per entry of a vectorized tangent at the mean
    width = sum(_COMPONENTS[c].vec(a).size for c, a in _arrays(mean).items())
    basis = r.block("basis", rows=width)
    with named(path):
        check_orthonormal(basis, "basis columns")
    rank = basis.shape[1]
    eigenvalues = r.vector("eigenvalues", size=rank)
    coords = r.block("coords", cols=rank)
    if len(coords) < 2:
        raise r.error(f"block 'coords' has {len(coords)} rows, expected at least 2")
    mean_scale = None
    tag = r.value("mean-scale")
    if tag == _MEAN_SCALE:
        mean_scale = MeanScale(r.rows(2, 2, "mean-scale"))
    elif tag != "none":
        raise r.error(f"unknown mean-scale kind {tag!r}; "
                      f"expected none or {_MEAN_SCALE}")
    if r.pos < len(r.lines):
        raise r.error(f"expected the end of the file, found {r.next()!r}")
    return PgaModel(mean, basis, eigenvalues, coords, epsilon,
                    mean_scale=mean_scale)
