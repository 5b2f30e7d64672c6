"""Property tests: the contour file format and the segment kernel against their
whole-array references, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import reference_load_contour, reference_save_contour, reference_segment_distance
from curvebound.contour import (Contour, ContourError, load_contour, save_contour,
                                segment_segment_distance)
from curvebound.mesh import COORDINATE_LIMIT

# every finite float a contour accepts: -0.0, subnormals and the limit included
coordinate = st.floats(-COORDINATE_LIMIT, COORDINATE_LIMIT, allow_nan=False)
component = st.lists(st.tuples(coordinate, coordinate, coordinate),
                     min_size=3, max_size=40, unique=True)


def contour_or_skip(comps):
    try:
        return Contour(comps)
    except ContourError:  # points equal as floats, such as 0.0 and -0.0
        assume(False)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60)
@given(comps=st.lists(component, min_size=1, max_size=4))
@example(comps=[[(-0.0, 0.0, 1.0), (5e-324, -0.0, 2.0), (1.0, -2.2250738585072014e-308, -0.0)]])
@example(comps=[[(2.0**240, -(2.0**240), 1e-300), (0.1, 0.2, 0.3), (-1.5, 2.5, 1e300)]] * 2)
def test_writer_bytes_and_exact_round_trip(tmp_path_factory, comps):
    c = contour_or_skip(comps)
    folder = tmp_path_factory.mktemp("io")
    save_contour(c, folder / "new.json")
    reference_save_contour(c, folder / "old.json")
    assert (folder / "new.json").read_bytes() == (folder / "old.json").read_bytes()
    back, old = load_contour(folder / "new.json"), reference_load_contour(folder / "new.json")
    assert back.n_components == c.n_components
    for a, b, o in zip(c.components, back.components, old.components):
        assert_same_bits(a, b)  # every coordinate, the sign of zero included
        assert_same_bits(o, b)


def broadcast_shapes(draw, full):
    """A shape that broadcasts to ``full``: some leading axes dropped, some axes 1."""
    start = draw(st.integers(0, len(full)))
    return tuple(draw(st.sampled_from([1, n])) for n in full[start:])


# small integers make parallel, degenerate and touching segments common
value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))


@st.composite
def segment_arguments(draw):
    full = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))  # () is one segment pair
    args = []
    for _ in range(4):
        shape = broadcast_shapes(draw, full) + (3,)
        flat = draw(st.lists(value, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        args.append(np.reshape(np.array(flat, dtype=float), shape))
    return args


@settings(max_examples=200)
@given(args=segment_arguments())
@example(args=[np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)])
@example(args=[np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
               np.array([[0.0, 0, 2], [3.0, 0, 0]]), np.array([1.0, 0, 0])])
def test_segment_kernel_matches_reference_bits(args):
    got, want = segment_segment_distance(*args), reference_segment_distance(*args)
    assert type(got) is type(want)
    assert_same_bits(np.asarray(got), np.asarray(want))
