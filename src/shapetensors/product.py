"""Product manifold G(n, 2) x SPD(2): the full separable representation.

A product point pairs an undulation subspace with a symmetric positive
definite scale.  Statistics act on it componentwise, through the maps of
each factor in ``stats._COMPONENTS``.
"""

from .grassmann import GrassmannPoint
from .spd import SpdMatrix


class ProductPoint:
    """A point (grass, scale) on G(n, 2) x SPD(2)."""

    __slots__ = ("grass", "scale")

    def __init__(self, grass, scale):
        if not isinstance(grass, GrassmannPoint):
            grass = GrassmannPoint(grass)
        if not isinstance(scale, SpdMatrix):
            scale = SpdMatrix(scale)
        self.grass = grass
        self.scale = scale

    def __repr__(self):
        return f"ProductPoint(n={self.grass.n})"
