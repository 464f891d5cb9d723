"""Property checks on random inputs (hypothesis, derandomized so runs repeat).

Each tolerance sits next to the worst case measured for it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import density_at, padded_state, ref_mc_average

from subplanck import (
    DensityOp,
    PureState,
    entanglement_fidelity,
    fidelity_quadrature,
    make_number,
    make_rng,
    protocol,
    scale_report,
)
from subplanck.mixedstate import entanglement_fidelity_direct
from subplanck.phasespace import (
    husimi_values,
    overlap,
    squasi_purity,
    squasi_values,
    wigner_values,
)
from subplanck.protocol import ConditionalKernel, OutcomeSampler, mc_average

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


# log-uniform squeezing parameter over the paper's range and past it
t_values = st.floats(np.log10(1e-3), np.log10(200.0)).map(lambda e: 10.0**e)
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


@pytest.mark.filterwarnings("ignore::subplanck.TruncationWarning")  # random states fill the top level
@settings(PROPERTY_SETTINGS, max_examples=20)
@given(states, st.sampled_from([0.5, 1.0, 2.0]), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_mc_average_matches_per_sample_loop(rho, t, samples, seed):
    # the contraction through N's numerical rank (10 of these 20 draws are
    # factored) against the per-outcome L @ N @ R.T: measured worst 2.1e-15
    # here, 6.4e-14 over 300 draws (5e-16 with N itself)
    sampler = OutcomeSampler(rho, t, resolution=128)
    res = mc_average(rho, t, samples, make_rng(seed), sampler=sampler)
    ref = ref_mc_average(ConditionalKernel(rho, t), res.xi1, res.xi2,
                         density_at(sampler, res.xi1, res.xi2))
    assert np.max(np.abs(res.grid.values - ref)) <= 1e-12


@pytest.mark.filterwarnings("ignore::subplanck.TruncationWarning")  # random states fill the top level
@PROPERTY_SETTINGS
@given(states, st.sampled_from([0.5, 1.0, 2.0]))
def test_contraction_pair_within_rank_tolerance(rho, t):
    # N's leading j <= K orders, rank-truncated, zero-padded back to K x K.
    # The dropped border (Frobenius) and the dropped singular values each cost
    # <= tol = s_0 K eps.  The SVD's own reconstruction roundoff comes on top:
    # the untruncated U S V^T of the block is up to 3.7 tol off it at K = 7-11
    # on random draws of these strategies, so it is measured and added here;
    # measured worst: 0.60 of this bound over 1400 draws (trimmed pairs <= 1.0 tol)
    n = ConditionalKernel(rho, t).coeffs
    k = n.shape[0]
    a_t, b_t = protocol._contraction_pair(n, 128, 128)
    j = a_t.shape[1]
    assert j <= k
    tol = np.linalg.norm(n, 2) * k * np.finfo(float).eps
    ring = np.maximum.outer(np.arange(k), np.arange(k))  # max(row, col)
    assert np.linalg.norm(n[ring >= j]) <= tol
    assert np.linalg.norm(n[ring >= j - 1]) > tol  # and j is the fewest such orders
    padded = np.zeros_like(n)
    padded[:j, :j] = a_t.T if b_t is None else a_t.T @ b_t
    u, sv, vt = np.linalg.svd(n[:j, :j])
    roundoff = np.linalg.norm((u * sv) @ vt - n[:j, :j], 2)
    assert np.linalg.norm(padded - n, 2) <= 2.0 * tol + roundoff


# The paper's identities on random pure states; the worst cases quoted were
# measured over 1000 draws of these strategies (dims 1-120, t in [1e-3, 200]).


@PROPERTY_SETTINGS
@given(pure_states(), t_values)
def test_forms_1_and_4_agree(state, t):
    # measured worst |F1 - F4|: 1.8e-14
    assert abs(fidelity_quadrature(state, t, 1) - fidelity_quadrature(state, t, 4)) <= 5e-14


@PROPERTY_SETTINGS
@given(pure_states(), t_values)
def test_duality_t_over_2(state, t):
    # t F(t)/2 = F(4/t); measured worst deviation: 6.1e-15
    lhs = t * fidelity_quadrature(state, t, 4) / 2.0
    assert abs(lhs - fidelity_quadrature(state, 4.0 / t, 4)) <= 2e-14


@PROPERTY_SETTINGS
@given(pure_states(), t_values)
def test_coherent_bound(state, t):
    # coherent states reach 1/(1 + t/2); measured worst excess: 1.0e-15 (the vacuum itself)
    assert fidelity_quadrature(state, t, 4) <= 1.0 / (1.0 + t / 2.0) + 2e-15


@PROPERTY_SETTINGS
@given(pure_states(), t_values)
def test_entanglement_fidelity_of_pure_density_is_form_4(state, t):
    # measured worst |difference|: 5.6e-16
    got = entanglement_fidelity(state.density(), t)
    assert abs(got - fidelity_quadrature(state, t, 4)) <= 2e-15


@PROPERTY_SETTINGS
@given(pure_states(), t_values)
def test_noise_side_fidelity_of_pure_density_is_form_4(state, t):
    # form 1 on rho, int P(nu) |Phi|^2 (`test_forms_1_and_4_agree` takes it on
    # the state vector); measured worst |difference|: 5.4e-15 on these 60
    # draws, 2.5e-14 over 400 (dim 119, t = 3.5e-3)
    got = entanglement_fidelity_direct(state.density(), t)
    assert abs(got - fidelity_quadrature(state, t, 4)) <= 5e-14


@pytest.mark.filterwarnings("ignore::subplanck.TruncationWarning")  # random states fill the top level
@PROPERTY_SETTINGS
@given(pure_states())
def test_fine_scale_times_extent_is_two(state):
    # measured worst |fine_scale * extent - 2|: 4.4e-16
    report = scale_report(state)
    assert abs(report.fine_scale * report.extent - 2.0) <= 2e-15


@PROPERTY_SETTINGS
@given(pure_states(), t_values)
def test_forms_2_and_3_agree_with_form_4(state, t):
    # forms 2 and 3 are s-ordered purities on Gauss-Hermite grids, form 4 the
    # polar Parseval mean; measured worst |F2 - F4| or |F3 - F4|: 6.9e-14
    # (dim 83, t = 6.6e-3)
    f4 = fidelity_quadrature(state, t, 4)
    for form in (2, 3):
        assert abs(fidelity_quadrature(state, t, form) - f4) <= 2e-13


@PROPERTY_SETTINGS
@given(states, t_values, points)
def test_conditional_fidelity_is_a_fidelity(rho, t, xi):
    # f(xi) = |tr rho T(xi)|^2 / p(xi) <= 1 by Cauchy-Schwarz, at outcomes
    # that can be conditioned on.  Measured worst f - 1: 8.9e-16 over 1000
    # draws; the worst found by a radial scan of number, coherent, compass,
    # random and thermal inputs is 2.7e-12, for |5> at xi = 0 and t = 1,
    # where f = 1 exactly and p = 4.8e-6 is a sum with that much cancellation
    xi = xi[squasi_values(rho, protocol._outcome_order(t), xi) > 1e-12]
    if xi.size:
        f = protocol.conditional_fidelity(rho, t, xi)
        assert np.all(f >= 0.0)
        assert np.all(f <= 1.0 + 1e-11)


@PROPERTY_SETTINGS
@given(st.one_of(pure_states(max_dim=30), mixed_states(max_dim=20)),
       st.floats(np.log10(1e-3), np.log10(2.0)).map(lambda e: 10.0**e), points)
def test_average_channel_wigner_is_input_at_minus_t(rho, t, xi):
    # Phi_out = e^{-t|mu|^2/2} Phi_in, so W_out = W_in^(-t).  The output is
    # sized to hold all but 1e-15 of its trace, which grows with t and the
    # input dim, and its C~ is a mixed state's: dims <= 30 (+ padding up to 40)
    # and t <= 2 keep outputs within 94 levels and a draw near 25 ms.
    # Measured worst |W_out - W_in^(-t)|: 4.6e-15 over 1000 draws (6.2e-15
    # over 400 draws at dims up to 120)
    out = protocol.average_channel(rho, t)
    assert np.max(np.abs(wigner_values(out, xi) - squasi_values(rho, -t, xi))) <= 2e-14


@PROPERTY_SETTINGS
@given(mixed_states(), t_values)
def test_entanglement_fidelity_routes_agree(rho, t):
    # PHI(mu, mu) on the Ptilde side against |Phi|^2 on the P side; measured
    # worst difference: 1.0e-14 over 1000 draws
    assert abs(entanglement_fidelity(rho, t) - entanglement_fidelity_direct(rho, t)) <= 5e-14
