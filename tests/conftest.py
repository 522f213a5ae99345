import numpy as np
import pytest
from hypothesis import settings

from strongprops.patterns import Graph, SignPattern

# Property-based tests draw the same examples on every run, with no time
# limit per example and no example database on disk.
settings.register_profile("strongprops", deadline=None, derandomize=True, database=None)
settings.load_profile("strongprops")


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_in_graph_class(rng, g: Graph) -> np.ndarray:
    """Random symmetric matrix in S(G): normal diagonal, edge entries
    bounded away from zero."""
    a = np.diag(rng.normal(size=g.n))
    for i, j in g.edges:
        v = rng.normal()
        v = np.sign(v) * (0.2 + abs(v))
        a[i, j] = a[j, i] = v
    return a


def random_square_with_zeros(rng, n: int, zero_prob: float = 0.4) -> np.ndarray:
    a = rng.normal(size=(n, n))
    mask = rng.random(size=(n, n)) < zero_prob
    a[mask] = 0.0
    return a


@pytest.fixture
def example15():
    """Rank-1 nilpotent 3x3 matrix in a full sign pattern."""
    return np.array([[-1.0, 1.0, -1.0], [-2.0, 2.0, -2.0], [-1.0, 1.0, -1.0]])


@pytest.fixture
def example15_pattern():
    return SignPattern.from_text_lines(
        [(1, "-+-"), (2, "-+-"), (3, "-+-")], source="<fixture>"
    )


@pytest.fixture
def c4():
    return Graph.cycle(4)


@pytest.fixture
def twisted_c4(c4):
    """Cycle adjacency with one negative edge: spectrum (+-sqrt(2))^2, so
    the ordered multiplicity list is (2, 2); has the SSP (hence SMP)."""
    a = adjacency(c4)
    a[0, 3] = a[3, 0] = -1.0
    return a
