import numpy as np
import pytest

from gsample import design, graphs, spectral
from gsample.design import Criterion, SampleAllocation


def sampling(nodes, n):
    """The allocation that samples each entry of `nodes` once (a node listed
    twice gets quota 2) on an n-node graph; its `indices` are `nodes` sorted."""
    nodes = np.asarray(nodes)
    return SampleAllocation(np.bincount(nodes, minlength=n), len(nodes))


def score(A, crit):
    """The criterion `crit` of the information matrix A, as the library
    scores it: `design._eigenvalues`' checks, then `design._scalarized`."""
    return design._scalarized(design._eigenvalues(A)[0], Criterion(crit))


def random_orthonormal_rows(n, k, rng):
    """N x K matrix with orthonormal columns, a stand-in for V_K."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def ring_graph():
    return graphs.watts_strogatz(10, 2, 0.0, seed=0)


@pytest.fixture(scope="session")
def small_world():
    return graphs.watts_strogatz(40, 3, 0.2, seed=5)


@pytest.fixture(scope="session")
def geometric_graph():
    return graphs.random_geometric(60, 0.4, 0.2, seed=11)


@pytest.fixture(scope="session")
def small_world_basis(small_world):
    return spectral.eigendecompose(graphs.laplacian(small_world))


@pytest.fixture(scope="session")
def geometric_basis(geometric_graph):
    return spectral.eigendecompose(graphs.laplacian(geometric_graph))
