"""Property checks on random inputs (hypothesis, derandomized so runs repeat).

Each tolerance sits next to the worst case measured for it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import padded_state

from subplanck import DensityOp, PureState, make_number
from subplanck.phasespace import husimi_values, overlap, squasi_purity, squasi_values

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


@st.composite
def mixed_states(draw, max_dim=40, max_rank=4):
    """Random rank-r density matrices (r <= max_rank) on dims 1..max_dim, then optional zero padding."""
    dim = draw(st.integers(1, max_dim))
    rank = draw(st.integers(1, max_rank))
    pad = draw(st.sampled_from([0, 0, 1, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = np.zeros((dim + pad, dim + pad), dtype=complex)
    m[:dim, :dim] = z @ z.conj().T
    return DensityOp(m / np.real(np.trace(m)))


states = st.one_of(pure_states(), mixed_states())


def trace_product(rho1, rho2):
    """tr rho1 rho2 as the Frobenius product of the density matrices."""
    return float(np.vdot(rho1.density().matrix, rho2.density().matrix).real)


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


@PROPERTY_SETTINGS
@given(states, states)
def test_overlap_routes_equal_trace_product(rho1, rho2):
    # measured worst: matrix route 5.6e-17, phase-space route 1.2e-15 over
    # 300 pairs of these strategies
    dim = max(rho1.dim, rho2.dim)
    rho1, rho2 = padded_state(rho1, dim), padded_state(rho2, dim)
    want = trace_product(rho1, rho2)
    res = overlap(rho1, rho2)
    assert abs(res.matrix_value - want) <= 1e-14
    assert abs(res.grid_value - want) <= 1e-14


@PROPERTY_SETTINGS
@given(states)
def test_wigner_purity_is_trace_square(rho):
    # measured worst |pi int W^2 - tr rho^2|: 2.4e-15 over 300 draws of these strategies
    assert abs(squasi_purity(rho, 0.0) - trace_product(rho, rho)) <= 1e-14
