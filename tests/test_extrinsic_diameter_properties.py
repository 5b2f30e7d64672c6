"""Property tests: the pruned extrinsic diameter equals the all-pairs loop, bit for bit.

Besides the box bound, which is formed like the entries, the kernel prunes by
a ball prefilter and an antipodal node bound about the seed pair's midpoint,
which are not and carry a rounding slack. Spheres and rings put many points at
nearly the diameter, where those bounds are tight; discs and random clouds put
most points inside, where the prefilter drops them. Rotations, scalings and
translations move every coordinate's rounding.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_diameter, random_rotation
from curvebound import mesh
from curvebound.mesh import extrinsic_diameter

KINDS = ["sphere", "rings", "disc", "random"]


def shape(kind, n, dim, rng):
    """n points of one kind in R^dim, of unit size about the origin."""
    out = np.zeros((n, dim))
    if kind == "sphere":
        x = rng.normal(size=(n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    if kind == "rings":  # vertices of coaxial regular 64-gons, with many tied pairs
        t = 2.0 * np.pi * rng.integers(0, 64, n) / 64
        out[:, 0], out[:, 1], out[:, 2] = np.cos(t), np.sin(t), 0.25 * rng.integers(-2, 3, n)
        return out
    if kind == "disc":
        r, t = np.sqrt(rng.uniform(size=n)), rng.uniform(0.0, 2.0 * np.pi, n)
        out[:, 0], out[:, 1] = r * np.cos(t), r * np.sin(t)
        return out
    return rng.uniform(-1.0, 1.0, (n, dim))


def moved(pts, seed, log_scale, shift):
    """pts under a seeded rotation, a scaling and a translation of length up to shift."""
    rng = np.random.default_rng(seed)
    dim = pts.shape[1]
    return 10.0**log_scale * pts @ random_rotation(seed, dim).T + shift * rng.uniform(-1, 1, dim)


motions = dict(seed=st.integers(0, 2**16), log_scale=st.floats(-3.0, 3.0),
               shift=st.sampled_from([0.0, 1.0, 1e3, 1e6]), dim=st.sampled_from([3, 4, 6]))


@settings(max_examples=80)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 1200), duplicates=st.integers(0, 200),
       **motions)
def test_matches_all_pairs(kind, n, duplicates, seed, log_scale, shift, dim):
    rng = np.random.default_rng(seed)
    pts = shape(kind, n, dim, rng)
    pts = np.vstack([pts, pts[rng.integers(0, n, duplicates)]])
    pts = moved(pts, seed, log_scale, shift)
    assert extrinsic_diameter(pts) == brute_force_diameter(pts)


@pytest.mark.parametrize("seed", [2, 84, 629, 841])
def test_centrally_symmetric_near_ties(seed):
    # x and -x for 40 points x on the unit sphere (rotated for odd seeds): the
    # 40 diametral entries tie but for their last bits. On these seeds the
    # largest lies above the seed entry by less than the rounding of rho and of
    # the node bounds, so only their slack keeps its pair
    rng = np.random.default_rng(seed)
    x = shape("sphere", 40, 3, rng)
    pts = np.vstack([x, -x])
    if seed % 2:
        pts = moved(pts, seed, 0.0, 0.0)
    assert extrinsic_diameter(pts) == brute_force_diameter(pts)


@settings(max_examples=30)
@given(n=st.integers(0, 600), **motions)
def test_prefilter_keeping_only_the_seed_pair(n, seed, log_scale, shift, dim):
    # two ends at distance 2 and a cloud within 0.4 of their midpoint: the
    # sweep finds the ends, and 2 rho + 2 max rho is at most 2.32 < 4 elsewhere
    rng = np.random.default_rng(seed)
    end = shape("sphere", 1, dim, rng)
    cloud = 0.4 * rng.uniform(size=(n, 1)) ** (1.0 / dim) * shape("sphere", n, dim, rng)
    pts = moved(np.vstack([cloud[: n // 2], end, cloud[n // 2:], -end]), seed, log_scale, shift)
    kept, kd_leaves = [], mesh._kd_leaves

    def recording(p):
        kept.append(len(p))
        return kd_leaves(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh, "_kd_leaves", recording)
        got = extrinsic_diameter(pts)
    assert kept == [2]
    assert got == brute_force_diameter(pts)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scale", [1e150, 1e154, 1e160, 1e-160, 1e-200])
def test_squares_that_overflow_or_underflow(scale, kind):
    # 1e154 and 1e160: the largest entries overflow to inf, and so do rho and
    # the slack, whose inf - inf in the node bound must not drop a pair;
    # 1e-160: the entries are subnormal; 1e-200: they all underflow to 0
    pts = scale * shape(kind, 300, 3, np.random.default_rng(4))
    with np.errstate(over="ignore"):
        want = brute_force_diameter(pts)
        got = extrinsic_diameter(pts)
    assert got == want
    if scale == 1e150:
        assert 1e150 < want < np.inf
    elif scale > 1.0:
        assert want == np.inf
    elif scale == 1e-160:
        assert 0.0 < want < 1e-150
    else:
        assert want == 0.0
