import numpy as np
import pytest

from shapetensors.grassmann import GrassmannPoint
from shapetensors.spd import SpdMatrix


def random_grassmann_point(rng, n=10):
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    return GrassmannPoint(q)


def random_horizontal(rng, base, scale=1.0):
    """A horizontal tangent at base with Frobenius norm ``scale``."""
    x = base.rep
    d = rng.standard_normal(x.shape)
    d -= x @ (x.T @ d)
    d *= scale / np.linalg.norm(d)
    return d


def random_spd(rng, spread=1.0):
    a = rng.standard_normal((2, 2)) * spread
    return SpdMatrix(a @ a.T + 0.2 * np.eye(2))


def random_sym(rng, scale=1.0):
    a = rng.standard_normal((2, 2)) * scale
    return 0.5 * (a + a.T)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
