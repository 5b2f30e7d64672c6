"""Property test: the cone search's dual simplex ends at the full polygon LP's optimum."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from conftest import polygon_lp, polygon_lp_optimum
from curvebound import criteria

unit = st.floats(-1.0, 1.0)
point = st.tuples(unit, unit, unit)
group = st.lists(st.lists(point, min_size=1, max_size=5), min_size=1, max_size=3)


@given(upper=group, lower=group, axis=point)
def test_apex_matches_linprog_on_random_point_sets(upper, lower, axis):
    u = np.asarray(axis)
    if np.linalg.norm(u) < 1e-3:
        u = np.array([0.0, 0.0, 1.0])
    u = u / np.linalg.norm(u)
    comps = upper + lower
    counts = np.array([len(comp) for comp in comps])
    pts = np.array([p for comp in comps for p in comp]) / np.sqrt(3.0)  # into the unit ball
    search = criteria._ConeSearch(pts, counts, np.sqrt(criteria.tau_root().sinh_sq), 10_000)
    up = np.arange(len(upper))
    seed = np.cumsum(counts) - counts  # the first point of every component

    solves = []
    simplex = criteria._dual_simplex

    def recording_simplex(*args):
        solves.append(simplex(*args))
        return solves[-1]

    with mock.patch.object(criteria, "_dual_simplex", recording_simplex):
        assert search.apex(u, up, seed) is not None
    assert solves[-1] is not None  # the last round finished
    x = solves[-1][0]
    a, b = polygon_lp(search, u, up)
    assert (b - a @ x).min() >= -1e-9  # no row of any point violated
    t = polygon_lp_optimum(search, u, up)
    assert abs(x[3] - t) <= 1e-9 * (1.0 + abs(t))
