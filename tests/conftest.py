import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from crhomotopy import geometry


@pytest.fixture(scope="session")
def primary():
    return geometry.load_bundled_model("sig22_n5")


@pytest.fixture(scope="session")
def secondary():
    return geometry.load_bundled_model("sig22_n6m2")


@pytest.fixture(scope="session")
def repeated():
    """Certified n = 6, m = 2, q = 2 quadric whose theta . H has eigenvalues
    +-1, each twice, in every direction: the kept frame eigenvalues repeat,
    so no eigenvector basis of the kept space is smooth in theta."""
    sz, sx, i2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), \
        np.eye(2)
    return geometry.ManifoldModel(
        n=6, m=2, q=2, hermitian=[np.kron(sz, i2), np.kron(sx, i2)],
        name="repeated_n6m2")


@pytest.fixture(scope="session")
def small_n3():
    """Uncertifiable helper quadric (q = 1) used for closedness stencils."""
    return geometry.ManifoldModel(
        n=3, m=1, q=1, hermitian=[np.diag([1.0, -1.0])], radius=1.0,
        name="n3_helper")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
