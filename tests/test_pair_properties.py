"""Property tests: the pruned pair kernel equals the all-pairs minimum, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_pair_distance, random_rotation
from curvebound.contour import Contour, component_pair_distances

counts = st.integers(3, 150)
unit = st.floats(-1.0, 1.0)


def ring(n, radius=1.0, z=0.0, phase=0.0, shift=(0.0, 0.0)):
    """n-gon of the given radius in the plane at height z, about (shift, z)."""
    t = phase + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([shift[0] + radius * np.cos(t), shift[1] + radius * np.sin(t),
                            np.full(n, z)])


def moved(comps, seed, scale, shift):
    """The components under a seeded rotation, a scaling and a translation."""
    rot = random_rotation(seed)
    return Contour([scale * a @ rot.T + np.asarray(shift) for a in comps])


def assert_matches_brute_force(c):
    n = c.n_components
    first, second = np.nonzero(~np.eye(n, dtype=bool))
    first, second = np.append(first, 0), np.append(second, 1)  # a repeated pair
    got = component_pair_distances(c, first, second)
    want = [brute_force_pair_distance(c, i, j) for i, j in zip(first, second)]
    assert got.tolist() == want


motions = dict(seed=st.integers(0, 2**16), log_scale=st.floats(-3.0, 3.0),
               shift=st.tuples(*3 * [st.floats(-10.0, 10.0)]))


@settings(max_examples=30)
@given(ns=st.tuples(counts, counts, counts), radii=st.tuples(*3 * [st.floats(0.05, 2.0)]),
       centers=st.tuples(*9 * [st.floats(-3.0, 3.0)]),
       normals=st.tuples(*9 * [unit]).filter(
           lambda v: np.linalg.norm(np.reshape(v, (3, 3)), axis=1).min() > 0.1),
       **motions)
def test_random_circles_under_rigid_motion_and_scaling(ns, radii, centers, normals, seed,
                                                       log_scale, shift):
    comps = []
    for n, r, center, normal in zip(ns, radii, np.reshape(centers, (3, 3)),
                                    np.reshape(normals, (3, 3))):
        normal = normal / np.linalg.norm(normal)
        u = np.linalg.svd(normal[None])[2][1:]  # orthonormal basis of the circle's plane
        comps.append(center + r * ring(n)[:, :2] @ u)
    assert_matches_brute_force(moved(comps, seed, 10.0 ** log_scale, shift))


@settings(max_examples=30)
@given(n1=counts, n2=counts, half_gap=st.floats(1e-3, 2.0), offset=st.floats(0.0, 1.5),
       phase=st.floats(0.0, 2.0 * np.pi), same=st.booleans(), **motions)
def test_coaxial_and_parallel_circles(n1, n2, half_gap, offset, phase, same, seed,
                                      log_scale, shift):
    # same: equal coaxial n-gons, whose facing segment pairs all tie for the minimum
    if same:
        comps = [ring(n1, z=half_gap), ring(n1, z=-half_gap)]
    else:
        comps = [ring(n1, z=half_gap), ring(n2, 0.8, -half_gap, phase, (offset, 0.0))]
    assert_matches_brute_force(Contour(comps))
    assert_matches_brute_force(moved(comps, seed, 10.0 ** log_scale, shift))


@settings(max_examples=30)
@given(small=st.lists(st.integers(3, 31), min_size=1, max_size=3),
       large=st.lists(st.integers(33, 140).filter(lambda m: m % 32), max_size=2),
       seed=st.integers(0, 2**16))
def test_uneven_counts_and_padded_leaves(small, large, seed):
    # leaves shorter than 32 segments (and than a multiple of 4) repeat their
    # last segment; components of very different counts share one pass
    rng = np.random.default_rng(seed)
    comps = [rng.uniform(0.2, 0.6) * ring(m, phase=rng.uniform(0, 1))
             + rng.uniform(-4.0, 4.0, 3) for m in small + large]
    comps.append(ring(7, 0.3, 9.0))  # keeps two components when the lists are short
    assert_matches_brute_force(Contour(comps))


@settings(max_examples=30)
@given(half_gap=st.sampled_from([0.01, 0.1, 0.3]), log_far=st.floats(5.0, 9.0),
       seed=st.integers(0, 2**16), rotate=st.booleans())
def test_near_ties_far_from_the_centroid(half_gap, log_far, seed, rotate):
    # coaxial 64-gons jittered by 1e-12, so that their facing segment pairs
    # tie only nearly, and a ring far out on their axis. That axis is the
    # principal frame's first, and its rotated coordinates round at about
    # u * 10^log_far, far above the 1e-12 relative slack of the best entry
    rng = np.random.default_rng(seed)
    comps = [ring(64, z=half_gap), ring(64, z=-half_gap), ring(16, z=10.0**log_far)]
    comps = [a + 1e-12 * rng.uniform(-1.0, 1.0, a.shape) for a in comps]
    assert_matches_brute_force(moved(comps, seed, 1.0, (0.0, 0.0, 0.0)) if rotate
                               else Contour(comps))
