"""Property checks on random inputs (hypothesis, derandomized so runs repeat).

Each tolerance sits next to the worst case measured for it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subplanck import PureState, make_number
from subplanck.phasespace import husimi_values, squasi_values

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def pure_states(draw, max_dim=80):
    """Random normalized coefficients on dims 1..max_dim, then optional zero padding."""
    dim = draw(st.integers(1, max_dim))
    pad = draw(st.sampled_from([0, 0, 1, 7, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.zeros(dim + pad, dtype=complex)
    c[:dim] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(c)


coordinates = st.floats(-10.0, 10.0, allow_nan=False)
points = st.lists(st.builds(complex, coordinates, coordinates), min_size=1, max_size=24).map(np.array)


@PROPERTY_SETTINGS
@given(pure_states(), points)
def test_husimi_bounded(state, alpha):
    q = husimi_values(state, alpha)
    assert np.all(q >= 0.0)  # |.|^2/pi by construction
    assert np.all(q <= 1 / np.pi + 1e-15)  # measured max(Q - 1/pi): 1.1e-16 over 1500 draws


@PROPERTY_SETTINGS
@given(pure_states(), points)
def test_husimi_equals_antinormal_kernel(state, alpha):
    # measured worst |Q - W^(-1)|: 6.1e-16 over 1500 draws of these strategies,
    # 6.7e-16 on the test catalog's 256^2 default grids
    got = husimi_values(state, alpha)
    assert np.max(np.abs(got - squasi_values(state, -1.0, alpha))) <= 1e-15


@PROPERTY_SETTINGS
@given(st.integers(1, 120), st.integers(0, 40))
def test_number_state_husimi_vanishes_at_origin(n, pad):
    assert husimi_values(make_number(n, n + 1 + pad), np.array(0j)) == 0.0
