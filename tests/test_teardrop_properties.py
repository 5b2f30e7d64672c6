"""Property test: the swept teardrop profile turns by exactly pi + 4*atan(s_max/k)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import teardrop_turning_closed_form
from curvebound.teardrop import K_MAX, build_sweep_profile


@given(k=st.integers(1, K_MAX))
@example(k=1)
@example(k=K_MAX)
def test_turning_equals_closed_form(k):
    assert abs(build_sweep_profile(k).turning() - teardrop_turning_closed_form(k)) <= 1e-12
