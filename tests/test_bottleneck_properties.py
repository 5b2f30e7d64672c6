"""Property test: ``bottleneck_split`` on sparse graphs with tied weights.

``white_check`` passes it the candidate pairs of its upper-bound tree, not a
complete graph of distinct distances, so the graphs here are sparse and
connected, with weights from {1, ..., 4}.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from conftest import white_bruteforce_oracle
from curvebound.criteria import bottleneck_split


@st.composite
def sparse_graphs(draw):
    """(n, i, j, w): a random spanning tree plus a few extra edges, in any order."""
    n = draw(st.integers(2, 9))
    label = draw(st.permutations(range(n)))
    edges = {frozenset((label[v], label[draw(st.integers(0, v - 1))])) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {frozenset(p) for p in draw(st.lists(pairs, min_size=1, max_size=2 * n))
              if p[0] != p[1]}
    edges = [sorted(e, reverse=draw(st.booleans())) for e in sorted(map(sorted, edges))]
    edges = draw(st.permutations(edges))
    w = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    i, j = np.array(edges, dtype=np.int64).T
    return n, i, j, np.array(w, dtype=float)


@given(graph=sparse_graphs())
def test_value_and_split_match_exhaustive_search(graph):
    n, i, j, w = graph
    value, (side, other) = bottleneck_split(n, i, j, w)
    assert value == white_bruteforce_oracle(graph)
    assert side and other and sorted(side + other) == list(range(n))
    d = np.full((n, n), np.inf)
    d[i, j] = d[j, i] = w
    assert d[np.ix_(side, other)].min() == value  # the split attains it
