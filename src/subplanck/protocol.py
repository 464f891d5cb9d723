"""The squeezed-resource teleportation protocol at the Wigner level.

The average channel multiplies the characteristic function by
e^{-t |mu|^2 / 2}: additive Gaussian noise, which is pure loss followed
by a quantum-limited amplifier.  Both stages have closed binomial forms,
so the output density matrix is built exactly, two matrix-vector
products per diagonal offset, in the smallest truncation (at least the
input's) that holds all but 1e-15 of its trace.  Alice's outcome density is the input
Wigner function smoothed by her reduced resource mode, which is exactly
the s-ordered quasidistribution W^(s_t) with s_t = -(1 + t^2/4)/t, so
both pointwise values and the sampler's grid come from the closed
s-ordered kernel.  Conditional outputs are Wigner grids (never
matrices), in closed form from the same kernel: p(xi) W(beta | xi) is a
Gaussian in beta - xi times W^(s) at s = -4t/(4 + t^2), separable per
quadrature (`ConditionalKernel`), so no input grid is sampled.  An
outcome's grid is L N R^T with N the K x K matrix of W^(s).  The Monte
Carlo mean contracts over N's leading j Hermite orders only, the fewest
whose dropped border has Frobenius norm within numpy's rank tolerance
s_0 K eps (the smoothing to W^(s) leaves the trailing orders below
roundoff: j = 23-24 of K = 57 for coherent (1, 0.5) and 45-47 of 89
for compass 2, both at dim 48 and t = 0.5-1), and through the j x j
block's SVD truncated at the same tolerance, A B^T, when its rank r
makes that cheaper (r (2j + n) < j (j + n) for n nodes per axis):
r = 1 for Gaussian inputs and 4 for compass states; random states
(r near K) keep the block.  Border and dropped singular values
(Eckart-Young) each cost at most s_0 K eps, the roundoff bound of the
product with N, and the Hermite tables of each chunk of outcomes hold
only the j orders.
Per-sample fidelities come from the closed form
f(xi) = (2 pi/t) W^(-2/t)(xi)^2 / W^(s_t)(xi) of the unity-gain output
T(xi) rho T(xi)+ / p(xi) (Hofmann et al., Phys. Rev. A 62, 062304
(2000)), not from grids.  It is the entanglement fidelity
|tr rho T(xi)|^2 / p(xi) of the one-Kraus-operator conditional map
(Schumacher, Phys. Rev. A 54, 2614 (1996)); tr rho T(xi) is linear in
rho, so pure and mixed inputs share it, and its outcome average is the
entanglement fidelity of `mixedstate`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from . import phasespace
from .errors import ConditioningError, SamplingError
from .fidelity import as_t
from .fock import (
    ComplexAmplitude,
    DensityOp,
    _as_complex,
    _noise_kernel,
    hermite_functions,
    quad_moments,
)
from .phasespace import (
    CHUNK_ELEMENTS,
    PhaseGrid,
    _floored,
    _smoothed_matrix,
    _squasi_from,
    fftconvolve,  # not called here; bench/tracer.py wraps protocol.fftconvolve
    squasi_grid,
    squasi_values,
    state_diagonals,
)

# Half-width of the sampler grid in standard deviations of p(xi).
DENSITY_GRID_SIGMAS = 6.0
# Largest probability the averaged channel's output truncation may cut off.
_CHANNEL_TAIL = 1e-15
# Smallest outcome probability the sampler's grid must capture.
SAMPLER_MIN_MASS = 0.999
# Values per row block when scaling and flooring a factor table (cache-sized).
_BLOCK_ELEMENTS = 2**15


def _positive_t(t, what) -> float:
    """as_t(t), refusing t = 0 (infinite squeezing) with "<what> needs t > 0"."""
    t = as_t(t)
    if t <= 0:
        raise ValueError(f"{what} needs t > 0")
    return t


def epr_wigner(t, alpha, beta) -> float:
    """Joint Wigner function of the two-mode squeezed vacuum resource."""
    t = _positive_t(t, "epr_wigner")
    a = _as_complex(alpha)
    b = _as_complex(beta)
    return float(
        4.0 / np.pi**2
        * np.exp(-2.0 * abs(b + np.conj(a)) ** 2 / t - t * abs(b - np.conj(a)) ** 2 / 2.0)
    )


def p_dist(t, nu) -> float:
    """Noise distribution P(nu) = (2/pi t) e^{-2 |nu|^2 / t}."""
    t = _positive_t(t, "p_dist")
    return float(2.0 / (np.pi * t) * np.exp(-2.0 * abs(_as_complex(nu)) ** 2 / t))


def p_tilde(t, mu) -> float:
    """Fourier transform of P: (1/pi) e^{-t |mu|^2 / 2}; pi Ptilde(0) = 1."""
    t = as_t(t)
    return float(np.exp(-t * abs(_as_complex(mu)) ** 2 / 2.0) / np.pi)


# ---------------------------------------------------------------------------
# average channel
# ---------------------------------------------------------------------------

def average_channel(state, t) -> DensityOp:
    """Outcome-averaged output state: Phi_out(mu) = e^{-t|mu|^2/2} Phi_in(mu).

    That multiplication is additive Gaussian noise of t/2 quanta, which
    is pure loss of transmissivity eta = 1/(1 + t/2) followed by a
    quantum-limited amplifier of gain 1/eta; `_reconstruct_damped` applies
    both stages exactly by their binomial matrices and sizes the output
    from the amplifier's negative-binomial tail, and the result is
    divided by its trace (1 minus that tail, at most 1e-15 short).
    """
    t = as_t(t)
    if t == 0:
        return state.density()
    rho = _reconstruct_damped(state, t)
    # exactly Hermitian, and positive because both stages are CPTP: no eigvalsh check
    return DensityOp(rho / np.real(np.trace(rho)), validate=False)


def _reconstruct_damped(state, t):
    """Output matrix of the averaged channel, before normalization.

    Each offset-d diagonal w[n] = rho_{n+d, n} of the trimmed input goes
    through two matrix-vector products, loss w -> B_d^T w and gain
    w -> eta B_d w (`_noise_kernel`).  The gain sends |m> to m + k with
    k ~ NegBin(m + 1, eta), so the mass it moves past n_out is
    sum_m p_m I_{1-eta}(n_out - m, m + 1) for the populations p after
    loss; n_out is the smallest size, and no smaller than the input's,
    for which that mass is at most _CHANNEL_TAIL.
    """
    nbar = t / 2.0
    eta = 1.0 / (1.0 + nbar)
    diags = state_diagonals(state)
    w0 = np.real(diags[0][1])
    pops = _noise_kernel(nbar, 0, w0.size, w0.size).T @ w0
    m = np.arange(pops.size)
    n_out = state.dim
    while pops @ betainc(n_out - m, m + 1, nbar * eta) > _CHANNEL_TAIL:
        n_out += 1
    rho = np.zeros((n_out, n_out), dtype=complex)
    for d, w in diags:
        kern = _noise_kernel(nbar, d, n_out - d, w.size)
        out = eta * (kern @ (kern[: w.size].T @ w))
        n = np.arange(out.size)
        rho[n + d, n] = out
        rho[n, n + d] = np.conj(out)
    np.fill_diagonal(rho.imag, 0.0)  # populations are real; drop their complex products' roundoff
    return rho


# ---------------------------------------------------------------------------
# Alice's outcome distribution
# ---------------------------------------------------------------------------

def _outcome_order(t) -> float:
    """Order s_t = -(1 + t^2/4)/t with p(xi) = W^(s_t)(xi) (Cahill-Glauber).

    Alice's outcome density is the input Wigner function smoothed by her
    reduced resource mode, a Gaussian of per-quadrature variance
    (1 + t^2/4)/(2t), i.e. -s_t/2.
    """
    return -(1.0 + t * t / 4.0) / t


def _density_grid(state, t, resolution):
    """p(xi) = W^(s_t) on a grid sized for the input state plus channel noise."""
    s = _outcome_order(t)
    mx, mp, vx, vp = quad_moments(state)
    hw = DENSITY_GRID_SIGMAS * np.sqrt(max(vx, vp) - s / 2.0)
    grid = PhaseGrid(ComplexAmplitude(mx, mp), (hw, hw), (resolution, resolution))
    return squasi_grid(state, s, grid)


def alice_outcome_density(state, t, xi) -> float:
    """Probability density p(xi) = W^(s_t)(xi) of Alice's joint measurement outcome."""
    t = _positive_t(t, "alice_outcome_density")
    return float(squasi_values(state, _outcome_order(t), np.array(_as_complex(xi))))


class OutcomeSampler:
    """Inverse-CDF sampler over a grid of p(xi) = W^(s_t)(xi) (default 512 x 512).

    The grid is `squasi_grid` (no point mesh); the CDF is built in place in
    one array: negative roundoff clipped to 0, cell-weighted, summed, normalized.
    """

    def __init__(self, state, t, resolution=512):
        self.t = t = _positive_t(t, "OutcomeSampler")
        self.grid = _density_grid(state, t, resolution=resolution)
        p = np.maximum(self.grid.values, 0.0)
        mass = float(np.sum(p) * self.grid.cell_measure)
        if mass < SAMPLER_MIN_MASS:
            raise SamplingError(f"density grid captures mass {mass:.6f} < {SAMPLER_MIN_MASS}")
        self.mass = mass
        p *= self.grid.cell_measure
        self._cdf = np.cumsum(p.ravel(), out=p.ravel())
        self._cdf /= self._cdf[-1]

    def sample(self, rng, size=1):
        """Draw xi as (xi1, xi2, density) arrays; uniform jitter within cells."""
        idx = np.searchsorted(self._cdf, rng.random(size), side="right")
        n1, n2 = self.grid.resolution
        i, j = np.unravel_index(idx, (n1, n2))
        h1, h2 = self.grid.spacing
        xi1 = self.grid.axis1[i] + (rng.random(size) - 0.5) * h1
        xi2 = self.grid.axis2[j] + (rng.random(size) - 0.5) * h2
        return xi1, xi2, np.maximum(self.grid.values.ravel()[idx], 0.0)


# ---------------------------------------------------------------------------
# conditional outputs and Monte Carlo averaging
# ---------------------------------------------------------------------------

def _check_conditioning(p):
    """Refuse to condition on outcome densities at or below 1e-12."""
    low = float(np.min(p))
    if low <= 1e-12:
        raise ConditioningError(f"outcome density {low:.3e} too small to condition on")


class ConditionalKernel:
    """Evaluates output Wigner grids W(beta | xi) for a fixed input and t.

    In quadrature units b = sqrt2 beta and x = sqrt2 xi, integrating the
    double-Gaussian integrand against W_in is a Gaussian smoothing:

        p(xi) W(b | xi) = (-2s/pi) e^{s |b - x|^2} W^(s)((x + kappa (b - x))/sqrt2),

    with s = -4t/(4 + t^2) and kappa = (4 - t^2)/(4 + t^2).  Both factors
    separate per quadrature, so with the K x K matrix N of W^(s) (`coeffs`,
    smoothed from the input's C~, `ctilde`, which is built once per kernel
    and also gives p(xi) and the conditional fidelities) an outcome's grid
    is L @ N @ R.T times -2s/(pi p(xi)), where L and R hold Hermite
    functions at sqrt(2/(1 - s)) (x + kappa (b - x)) on each output axis
    times e^{s (b - x)^2} (`factors`).  Factor entries below 1e-100 are
    stored as exact zeros: they move no grid value by more than ~1e-100,
    and left in place they underflow to subnormal floats, on which matrix
    products run many times slower.
    """

    def __init__(self, state, t):
        t = _positive_t(t, "ConditionalKernel")
        self.order = -4.0 * t / (4.0 + t * t)
        self.kappa = (4.0 - t * t) / (4.0 + t * t)
        self.ctilde = phasespace._coefficient_matrix(state)
        self.coeffs = _smoothed_matrix(self.ctilde, self.order)
        mx, mp, vx, vp = quad_moments(state)
        hw = (1.2 * 2.0 * np.sqrt(vx + vp) + 3.0 / np.sqrt(2.0)
              + 4.0 * np.sqrt(max(vx, vp) + (1.0 + t * t / 4.0) / (2.0 * t)))
        self.out_grid = PhaseGrid(ComplexAmplitude(mx, mp), (hw, hw), (128, 128))

    def factors(self, xi1, xi2, orders=None):
        """Floored (left, right) for outcomes (xi1[m], xi2[m]), m < b.

        Both are column blocks of one (q, b (n1 + n2)) table built by one
        `hermite_functions` pass over the leading q = `orders` Hermite
        orders (default all K), left of shape (q, b n1) and right of
        shape (q, b n2): left[:, m n1 + i] = L_m[i] and right[:, m n2 + j]
        = R_m[j], where p(xi_m) W(b | xi_m) = (-2s/pi) L_m @ coeffs @ R_m.T
        at q = K; a smaller q gives the same leading rows (`mc_average`
        contracts them with N's leading q x q block).  Entries below
        1e-100 are exactly 0, all others normal.  The Gaussians and the
        floor are applied in row blocks, so no temporary the size of the
        table is made.
        """
        s, kappa = self.order, self.kappa
        k = self.coeffs.shape[0] if orders is None else orders
        scale = np.sqrt(2.0 / (1.0 - s))
        nodes, gauss = [], []
        for b, xs in ((self.out_grid.axis1, xi1), (self.out_grid.axis2, xi2)):
            xs = np.reshape(xs, (-1, 1))
            d = b - xs
            nodes.append((scale * (xs + kappa * d)).ravel())
            gauss.append(np.exp(s * d * d).ravel())
        table = hermite_functions(np.concatenate(nodes), k)
        gauss = np.concatenate(gauss)
        rows = max(1, _BLOCK_ELEMENTS // gauss.size)
        for r in range(0, k, rows):
            block = table[r : r + rows]
            block *= gauss
            _floored(block)
        return table[:, : nodes[0].size], table[:, nodes[0].size :]

    def evaluate(self, xi1, xi2, p_xi) -> np.ndarray:
        """Output grid for one outcome."""
        _check_conditioning(p_xi)
        left, right = self.factors(xi1, xi2)
        return (left.T @ self.coeffs @ right) * (-2.0 * self.order / (np.pi * p_xi))


def conditional_output(state, t, xi) -> PhaseGrid:
    """Wigner grid of the output state conditioned on outcome xi."""
    kern = ConditionalKernel(state, t)
    xi_c = _as_complex(xi)
    xi1, xi2 = np.sqrt(2.0) * xi_c.real, np.sqrt(2.0) * xi_c.imag
    p_xi = float(_squasi_from(kern.ctilde, _outcome_order(as_t(t)), np.array(xi_c)))
    return kern.out_grid.with_values(kern.evaluate(xi1, xi2, p_xi))


@dataclass
class MCResult:
    """Empirical mean of conditional outputs plus per-sample trajectories.

    `fidelities[k]` is `conditional_fidelity` at outcome (xi1[k], xi2[k]),
    for pure and mixed inputs alike.  `orders` is the number j of leading
    Hermite orders of the K x K matrix N (K = `kernel_size`) that the mean
    grid was contracted over, and `rank` the inner dimension: the
    numerical rank r of N's leading j x j block when its factored pair is
    cheaper, else j.
    """

    grid: PhaseGrid
    xi1: np.ndarray
    xi2: np.ndarray
    fidelities: np.ndarray
    rank: int
    kernel_size: int
    orders: int


def conditional_fidelity(state, t, xi) -> np.ndarray:
    """Fidelity of the output conditioned on outcome xi, for a pure or mixed input.

    The unity-gain output for outcome xi is T(xi) rho T(xi)+ / p(xi) with
    T(xi) = sqrt((1 - q^2)/pi) D(xi) q^n D+(xi), q = tanh r (Hofmann, Ide,
    Kobayashi & Furusawa, Phys. Rev. A 62, 062304 (2000)), so
    f(xi) = |tr rho T(xi)|^2 / p(xi) = (2 pi/t) W^(-2/t)(xi)^2 / W^(s_t)(xi):
    the fidelity <psi|out|psi> for rho = |psi><psi|, and in general the
    entanglement fidelity of the one-Kraus-operator map rho -> T rho T+ / p
    (Schumacher, Phys. Rev. A 54, 2614 (1996)), whose average over p(xi) is
    `mixedstate.entanglement_fidelity`.  At t = 2 and a pure input this is
    |<xi|psi>|^2.  `xi` holds complex amplitudes.
    """
    t = _positive_t(t, "conditional_fidelity")
    return _fidelity_from(phasespace._coefficient_matrix(state), t, xi)


def _fidelity_from(ctilde, t, xi):
    """conditional_fidelity from the input's C~ (t > 0)."""
    p = _squasi_from(ctilde, _outcome_order(t), xi)
    _check_conditioning(p)
    return 2.0 * np.pi / t * _squasi_from(ctilde, -2.0 / t, xi) ** 2 / p


def _contraction_pair(coeffs, n1, n2):
    """(A^T, B^T) with N ~ A B^T on N's leading j orders, B^T None for the identity; floored.

    With tol = s_0 K eps (s_0 the largest singular value of N, numpy's
    `matrix_rank` tolerance), j is the fewest leading orders whose dropped
    border of N (the entries with max(row, col) >= j) has Frobenius norm at
    most tol.  The border is summed from the outermost order inward, as a
    reversed cumulative sum of ring masses, so no difference of large sums
    cancels.  A = U_r S_r and B = V_r then keep the r singular values of
    the j x j block above the same tol; by Eckart-Young the dropped part
    has spectral norm at most tol, and with the border (Frobenius bounds
    spectral) the zero-padded A B^T is within 2 s_0 K eps of N, twice the
    bound on the roundoff of the direct product with N, plus the SVD's own
    reconstruction roundoff (up to 3.7 s_0 K eps at K = 7-11).  The j x j
    block is factored again only when j < K.  Per outcome the factored
    contraction costs 2 r (j (n1 + n2) + n1 n2) flops against
    2 j (j n1 + n1 n2) with the block itself, so the pair is (block,
    identity) unless it is cheaper.
    """
    k = coeffs.shape[0]
    u, sv, vt = np.linalg.svd(coeffs)
    tol = sv[0] * k * np.finfo(float).eps
    sq = coeffs * coeffs
    ring = np.tril(sq).sum(axis=1) + np.triu(sq, 1).sum(axis=0)  # max(row, col) == i
    border = np.cumsum(ring[::-1])[::-1]  # border[i]: entries with max(row, col) >= i
    j = int(np.count_nonzero(border > tol * tol))
    block = coeffs[:j, :j]
    if j < k:
        u, sv, vt = np.linalg.svd(block)
    r = int(np.count_nonzero(sv > tol))
    if r * (j * (n1 + n2) + n1 * n2) >= j * (j * n1 + n1 * n2):
        return block.T, None
    return _floored((u[:, :r] * sv[:r]).T), _floored(vt[:r])


def mc_average(state, t, samples, rng, sampler) -> MCResult:
    """Monte Carlo average over measurement outcomes of conditional outputs.

    Outcomes are drawn from `sampler`, an `OutcomeSampler(state, t)` that
    the caller builds once and may reuse across calls (its grid costs a C~
    build of its own); a sampler built for another t is refused, as its
    outcomes follow that t's p(xi).  Each outcome's grid is weighted by
    1/q(xi), q the sampler's cell density, so the mean is an unbiased
    importance-sampling estimate of the averaged channel's output.  The kernel's K x K matrix
    N is trimmed and factored once per call (`_contraction_pair`): the
    mean contracts over N's leading j orders, with the dropped border and
    the dropped singular values each within s_0 K eps, as N_j ~ A B^T
    through the block's numerical rank r (A = N_j and B = I when that is
    not cheaper, as for random states).  Each chunk of b outcomes, with b
    factor matrices per component within CHUNK_ELEMENTS values of the j
    orders, has one floored (j, b (n1 + n2)) table from
    `ConditionalKernel.factors` and costs matrix products on views, each
    into a buffer reused across chunks: A.T @ left, B.T @ right (skipped
    when B = I), and the sum over the chunk as one product over the
    stacked (r, outcome) index.  No factor is copied or transposed.  Chunk
    sums are added with compensated summation.  Per-sample fidelities are
    the closed form `conditional_fidelity` at the drawn outcomes, for pure
    and mixed inputs alike; their mean estimates the (entanglement)
    fidelity.  `conditional_output` and `ConditionalKernel.evaluate` keep
    all K orders.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    t = as_t(t)
    if getattr(sampler, "t", t) != t:  # its outcomes would follow another t's p(xi)
        raise ValueError(f"sampler was built for t = {sampler.t}, not t = {t}")
    kern = ConditionalKernel(state, t)
    xi1s, xi2s, dens = sampler.sample(rng, samples)
    _check_conditioning(dens)
    fids = _fidelity_from(kern.ctilde, t, (xi1s + 1j * xi2s) / np.sqrt(2.0))
    n1, n2 = kern.out_grid.resolution
    a_t, b_t = _contraction_pair(kern.coeffs, n1, n2)
    r, j = a_t.shape
    chunk = max(1, CHUNK_ELEMENTS // (max(n1, n2) * j))
    weights = -2.0 * kern.order / (np.pi * dens)
    lhs_buf, rhs_buf = np.empty(r * chunk * n1), np.empty(r * chunk * n2)
    vals = np.empty((n1, n2))
    acc = np.zeros((n1, n2))
    comp = np.zeros_like(acc)  # compensated (Kahan) accumulation
    for lo in range(0, samples, chunk):
        part = slice(lo, lo + chunk)
        left, right = kern.factors(xi1s[part], xi2s[part], j)
        b = left.shape[1] // n1
        # lhs[c, (m, i)] = (L_m @ A)[i, c] and rhs[c, m, l] = w_m (R_m @ B)[l, c]
        lhs = np.matmul(a_t, left, out=lhs_buf[: r * b * n1].reshape(r, b * n1))
        rhs = rhs_buf[: r * b * n2].reshape(r, b, n2)
        if b_t is not None:
            right = np.matmul(b_t, right, out=rhs.reshape(r, b * n2))
        np.multiply(right.reshape(r, b, n2), weights[part, None], out=rhs)
        # sum_m (L_m @ A) @ (w_m R_m @ B).T as one product over the index (c, m)
        np.matmul(lhs.reshape(r * b, n1).T, rhs.reshape(r * b, n2), out=vals)
        del left, right  # free this chunk's table before the next one is built
        vals -= comp
        new = acc + vals
        np.subtract(new, acc, out=comp)
        comp -= vals
        acc = new
    mean = acc / samples
    return MCResult(kern.out_grid.with_values(mean), xi1s, xi2s, fids, r,
                    kern.coeffs.shape[0], j)
