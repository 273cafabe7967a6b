"""Product manifold G(n, 2) x SPD(2): the full separable representation.

A product point pairs an undulation subspace with a symmetric positive
definite scale.  Statistics act on it componentwise, through the maps of
each factor in ``stats._COMPONENTS``.
"""

from .errors import ContractError
from .grassmann import GrassmannPoint, StackedPoint
from .spd import SpdMatrix


class ProductPoint(StackedPoint):
    """A point (grass, scale) on G(n, 2) x SPD(2), or a stack of them:
    factors of the same leading shape."""

    __slots__ = ("grass", "scale")

    def __init__(self, grass, scale):
        if not isinstance(grass, GrassmannPoint):
            grass = GrassmannPoint(grass)
        if not isinstance(scale, SpdMatrix):
            scale = SpdMatrix(scale)
        if grass.shape != scale.shape:
            raise ContractError(f"product factors must share their leading "
                                f"shape, got {grass.shape} and {scale.shape}")
        self.grass = grass
        self.scale = scale

    def __repr__(self):
        stack = f", shape={self.shape}" if self.shape else ""
        return f"ProductPoint(n={self.grass.n}{stack})"
