"""Product manifold G(n, 2) x SPD(2): the full separable representation.

A product point pairs an undulation subspace with a symmetric positive
definite scale.  Exp, Log and parallel transport act componentwise; the
product distance is the L2 combination of the factor distances.
"""

import numpy as np

from .grassmann import (
    GrassmannPoint,
    GrassmannTangent,
    gr_distance,
    gr_exp,
    gr_log,
    gr_transport,
)
from .spd import SpdMatrix, SpdTangent, spd_distance, spd_exp, spd_log, spd_transport


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


class ProductTangent:
    """A tangent (grassmann lift, symmetric 2x2) at a ProductPoint."""

    __slots__ = ("grass", "scale")

    def __init__(self, grass, scale):
        if not isinstance(grass, GrassmannTangent):
            raise TypeError("grass component must be a GrassmannTangent")
        if not isinstance(scale, SpdTangent):
            scale = SpdTangent(scale)
        self.grass = grass
        self.scale = scale

    def norm(self):
        return float(np.hypot(self.grass.norm(), self.scale.norm()))


def product_exp(base, tangent):
    return ProductPoint(
        gr_exp(base.grass, tangent.grass),
        spd_exp(base.scale, tangent.scale),
    )


def product_log(base, target):
    return ProductTangent(
        gr_log(base.grass, target.grass),
        spd_log(base.scale, target.scale),
    )


def product_transport(base, target, tangent):
    """Transport componentwise along the product geodesic base -> target."""
    gdir = gr_log(base.grass, target.grass)
    return ProductTangent(
        gr_transport(base.grass, gdir, 1.0, tangent.grass),
        spd_transport(base.scale, target.scale, tangent.scale),
    )


def product_distance(a, b):
    """sqrt(d_G^2 + d_SPD^2) with the Frobenius Grassmann metric."""
    return float(
        np.hypot(gr_distance(a.grass, b.grass), spd_distance(a.scale, b.scale))
    )
