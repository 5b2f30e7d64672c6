"""Property tests: the kd pair search and the union-find labels against brute force and scipy."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from curvebound.mesh import component_labels, pairs_within


def brute_force_pairs(p, r):
    """Pairs i < j whose squared differences, accumulated in dimension order, are <= r * r."""
    acc = np.zeros((len(p), len(p)))
    for k in range(p.shape[1]):
        diff = p[:, None, k] - p[None, :, k]
        acc += diff * diff
    return np.nonzero(np.triu(acc <= r * r, 1))


@settings(max_examples=80)
@given(n=st.integers(0, 150), dim=st.sampled_from([3, 4]), span=st.integers(0, 6),
       r=st.integers(0, 9), exponent=st.integers(-40, 40), seed=st.integers(0, 2**16))
def test_pairs_within_matches_brute_force(n, dim, span, r, exponent, seed):
    # integer coordinates and radii scaled by a power of two: every entry is
    # exact, so many pairs lie at exactly r, and repeated points at 0
    rng = np.random.default_rng(seed)
    p = rng.integers(-span, span + 1, size=(n, dim)) * 2.0**exponent
    i, j = pairs_within(p, r * 2.0**exponent)
    oi, oj = brute_force_pairs(p, r * 2.0**exponent)
    assert np.array_equal(i, oi) and np.array_equal(j, oj)


@settings(max_examples=60)
@given(n=st.integers(2, 120), seed=st.integers(0, 2**16), pick=st.integers(0, 10**6))
def test_pairs_within_a_pair_distance(n, seed, pick):
    # real coordinates, with r the distance of one of the pairs
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, 3))
    a, b = pick % n, (pick // n) % n
    r = float(np.sqrt(((p[a] - p[b]) ** 2).sum()))
    i, j = pairs_within(p, r)
    oi, oj = brute_force_pairs(p, r)
    assert np.array_equal(i, oi) and np.array_equal(j, oj)


@settings(max_examples=80)
@given(n=st.integers(1, 60), m=st.integers(0, 120), seed=st.integers(0, 2**16))
def test_component_labels_are_least_vertices(n, m, seed):
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=(2, m))
    labels = component_labels(n, i, j)
    _, parts = csgraph.connected_components(
        csr_matrix((np.ones(m), (i, j)), shape=(n, n)), directed=False)
    least = np.full(n, n)
    np.minimum.at(least, parts, np.arange(n))
    assert np.array_equal(labels, least[parts])
