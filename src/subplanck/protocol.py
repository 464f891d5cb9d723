"""The squeezed-resource teleportation protocol at the Wigner level.

The average channel is applied in characteristic-function space, where
it is an exact multiplication by e^{-t |mu|^2 / 2}, and the output
density matrix is reconstructed by radial-angular quadrature that is
exact for truncated states; the displaced-state quadrature route is
kept alongside as an oracle.  Conditional outputs are Wigner grids
(never matrices), evaluated from the double-Gaussian integrand as two
small matrix products per measurement outcome.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, SamplingError, TruncationError
from .fidelity import as_t
from .fock import (
    ComplexAmplitude,
    DensityOp,
    PureState,
    _as_complex,
    _m_seq,
    displacement_matrix,
    quad_moments,
)
from .phasespace import PhaseGrid, char_on_polar, fftconvolve, wigner_values
from .quadrature import gauss_hermite, radial_rule


@dataclass(frozen=True)
class EPRResource:
    """Two-mode squeezed resource parametrized by t = 2 e^{-2r}."""

    t: float

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")


@dataclass(frozen=True)
class OutcomeSample:
    """One measurement outcome xi with its probability density."""

    xi: ComplexAmplitude
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be >= 0")


def epr_wigner(t, alpha, beta) -> float:
    """Joint Wigner function of the two-mode squeezed vacuum resource."""
    t = as_t(t)
    if t <= 0:
        raise ValueError("epr_wigner needs t > 0")
    a = _as_complex(alpha)
    b = _as_complex(beta)
    return float(
        4.0 / np.pi**2
        * np.exp(-2.0 * abs(b + np.conj(a)) ** 2 / t - t * abs(b - np.conj(a)) ** 2 / 2.0)
    )


def p_dist(t, nu) -> float:
    """Noise distribution P(nu) = (2/pi t) e^{-2 |nu|^2 / t}."""
    t = as_t(t)
    if t <= 0:
        raise ValueError("p_dist needs t > 0")
    return float(2.0 / (np.pi * t) * np.exp(-2.0 * abs(_as_complex(nu)) ** 2 / t))


def p_tilde(t, mu) -> float:
    """Fourier transform of P: (1/pi) e^{-t |mu|^2 / 2}; pi Ptilde(0) = 1."""
    t = as_t(t)
    return float(np.exp(-t * abs(_as_complex(mu)) ** 2 / 2.0) / np.pi)


def marginal_wigner_a(t, alpha) -> float:
    """Wigner function of Alice's reduced resource mode."""
    t = as_t(t)
    if t <= 0:
        raise ValueError("needs t > 0")
    g = 1.0 + t * t / 4.0
    return float(2.0 * t / (np.pi * g) * np.exp(-2.0 * t * abs(_as_complex(alpha)) ** 2 / g))


# ---------------------------------------------------------------------------
# average channel
# ---------------------------------------------------------------------------

def _channel_pad(dim, t):
    return int(np.ceil(8.0 * np.sqrt(0.5 * t * (dim + 1)) + 4.0 * t + 24.0))


def _effective_dim(state) -> int:
    if isinstance(state, PureState):
        alive = np.nonzero(np.abs(state.coeffs) > 1e-14)[0]
    else:
        alive = np.nonzero(np.real(np.diagonal(state.matrix)) > 1e-27)[0]
    return int(alive[-1]) + 1 if alive.size else 1


def average_channel(state, t, out_dim=None) -> DensityOp:
    """Outcome-averaged output state: Phi_out(mu) = e^{-t|mu|^2/2} Phi_in(mu).

    The multiplication law is exact; the matrix is rebuilt from the
    damped characteristic function by quadrature that is exact for the
    truncated input, in an enlarged truncation sized for the added
    thermal noise.  A nonnegligible top-level occupation means the
    chosen truncation cannot hold the output and raises; the trace is
    allowed quadrature-roundoff slack before renormalization.
    """
    t = as_t(t)
    rho_in = state.density() if isinstance(state, PureState) else state
    if t == 0:
        return rho_in
    n_in = _effective_dim(state)
    attempts = 0
    n_out = out_dim if out_dim is not None else n_in + _channel_pad(n_in, t)
    while True:
        rho = _reconstruct_damped(state, t, n_in, n_out)
        tr = float(np.real(np.trace(rho)))
        tail = float(np.real(rho[-1, -1]))
        if abs(tr - 1.0) <= 1e-8 and tail <= 1e-12:
            rho /= tr
            return DensityOp(rho)
        attempts += 1
        if out_dim is not None or attempts > 1:
            raise TruncationError(
                f"average_channel output leaks past dim {n_out} "
                f"(trace deficit {1 - tr:.3e}, top level {tail:.3e})",
                tail=max(1.0 - tr, tail),
            )
        n_out = int(1.5 * n_out) + 8


def _reconstruct_damped(state, t, n_in, n_out):
    c = 1.0 + t / 2.0
    # radial polynomial degree <= n_in + n_out, angular harmonics likewise
    n_rad = (n_in + n_out) // 2 + 4
    n_ang = 2 * (n_in + n_out) + 4
    x, wx = radial_rule(c, n_rad)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    damped = np.exp(-t * x / 2.0)[:, None] * char_on_polar(state, x, theta)
    ghat = np.fft.fft(damped, axis=1) / n_ang  # ghat[:, q] = (1/2pi) int G e^{-iq theta}
    ds = np.arange(n_out)
    # rho[n+d, n] = (-1)^d sum_j wx_j M_n^(d)(x_j) ghat[j, -d]
    g = (wx[:, None] * ghat[:, (-ds) % n_ang]).T * ((-1.0) ** ds)[:, None]
    rho = np.zeros((n_out, n_out), dtype=complex)
    for n, slab in enumerate(_m_seq(ds, n_out - ds, x)):
        k = slab.shape[0]
        vals = np.einsum("dj,dj->d", g[:k], slab)
        rho[n + ds[:k], n] = vals
        rho[n, n + ds[1:k]] = np.conj(vals[1:])
    return rho


def average_channel_displaced(state, t, nodes=32, out_dim=None) -> np.ndarray:
    """Oracle route: Gauss-Hermite average of D(nu) rho D+(nu) over P(nu)."""
    t = as_t(t)
    rho_in = state.density() if isinstance(state, PureState) else state
    n_in = rho_in.dim
    if out_dim is None:
        out_dim = n_in + _channel_pad(n_in, t)
    z, w = gauss_hermite(nodes)
    scale = np.sqrt(t) / np.sqrt(2.0)
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i, zi in enumerate(z):
        for j, zj in enumerate(z):
            nu = scale * (zi + 1j * zj)
            dmat = displacement_matrix(n_in, nu, rows=out_dim)
            out += (w[i] * w[j]) * (dmat @ rho_in.matrix @ dmat.conj().T)
    return out / np.pi


def channel_fidelity(state: PureState, rho_out: DensityOp) -> float:
    """<psi| rho |psi> with automatic padding to the larger truncation."""
    dim = max(state.dim, rho_out.dim)
    c = state.padded(dim).coeffs
    m = rho_out.padded(dim).matrix
    return float(np.real(np.vdot(c, m @ c)))


# ---------------------------------------------------------------------------
# Alice's outcome distribution
# ---------------------------------------------------------------------------

def _wa_kernel(t, d1, d2):
    g = 1.0 + t * t / 4.0
    return 2.0 * t / (np.pi * g) * np.exp(-t * (d1**2 + d2**2) / g)


def _density_grid(state, t, resolution=512, n_sigma=6.0):
    """p(xi) sampled on a grid sized for the input state plus channel noise."""
    mx, mp, vx, vp = quad_moments(state)
    var_a = (1.0 + t * t / 4.0) / (2.0 * t)  # per-quadrature variance of W_A
    hw = n_sigma * np.sqrt(max(vx, vp) + var_a)
    grid = PhaseGrid(ComplexAmplitude(mx, mp), (hw, hw), (resolution, resolution))
    w = wigner_values(state, grid.points())
    n1, n2 = w.shape
    h1, h2 = grid.spacing
    d1 = (np.arange(2 * n1 - 1) - (n1 - 1)) * h1
    d2 = (np.arange(2 * n2 - 1) - (n2 - 1)) * h2
    kern = _wa_kernel(t, d1[:, None], d2[None, :])
    p = fftconvolve(w, kern) * grid.cell_measure
    return grid.with_values(p)


def alice_outcome_density(state, t, xi, resolution=384) -> float:
    """Probability density p(xi) of Alice's joint measurement outcome."""
    from .phasespace import cached_default_wigner

    t = as_t(t)
    if t <= 0:
        raise ValueError("alice_outcome_density needs t > 0")
    xi_c = _as_complex(xi)
    grid = cached_default_wigner(state, resolution=resolution)
    w = grid.values
    a1, a2 = grid.mesh()
    # W_A evaluated at xi* - nu*: components (xi1 - nu1, -(xi2 - nu2))
    xi1 = np.sqrt(2.0) * xi_c.real
    xi2 = np.sqrt(2.0) * xi_c.imag
    kern = _wa_kernel(t, xi1 - a1, -(xi2 - a2))
    return float(np.sum(w * kern) * grid.cell_measure)


class OutcomeSampler:
    """Inverse-CDF sampler over a p(xi) grid (default 512 x 512)."""

    def __init__(self, state, t, resolution=512, min_mass=0.999):
        t = as_t(t)
        if t <= 0:
            raise ValueError("sampling requires t > 0")
        self.t = t
        self.grid = _density_grid(state, t, resolution=resolution)
        p = np.clip(self.grid.values, 0.0, None)
        mass = float(np.sum(p) * self.grid.cell_measure)
        if mass < min_mass:
            raise SamplingError(f"density grid captures mass {mass:.6f} < {min_mass}")
        self.mass = mass
        cell_prob = (p * self.grid.cell_measure).ravel()
        self._cdf = np.cumsum(cell_prob)
        self._cdf /= self._cdf[-1]
        self._p_flat = p.ravel()

    def sample(self, rng, size=1):
        """Draw xi as (xi1, xi2, density) arrays; uniform jitter within cells."""
        idx = np.searchsorted(self._cdf, rng.random(size), side="right")
        n1, n2 = self.grid.resolution
        i, j = np.unravel_index(idx, (n1, n2))
        h1, h2 = self.grid.spacing
        xi1 = self.grid.axis1[i] + (rng.random(size) - 0.5) * h1
        xi2 = self.grid.axis2[j] + (rng.random(size) - 0.5) * h2
        return xi1, xi2, self._p_flat[idx]

    def density_at(self, xi1, xi2):
        i = np.clip(np.round((xi1 - self.grid.axis1[0]) / self.grid.spacing[0]), 0, None).astype(int)
        j = np.clip(np.round((xi2 - self.grid.axis2[0]) / self.grid.spacing[1]), 0, None).astype(int)
        n1, n2 = self.grid.resolution
        i = np.minimum(i, n1 - 1)
        j = np.minimum(j, n2 - 1)
        return self.grid.values[i, j]


def sample_outcome(state, t, rng, sampler=None) -> OutcomeSample:
    """Draw one measurement outcome distributed as p(xi)."""
    if sampler is None:
        sampler = OutcomeSampler(state, t)
    xi1, xi2, dens = sampler.sample(rng, 1)
    return OutcomeSample(ComplexAmplitude(float(xi1[0]), float(xi2[0])), float(dens[0]))


# ---------------------------------------------------------------------------
# conditional outputs and Monte Carlo averaging
# ---------------------------------------------------------------------------

class ConditionalKernel:
    """Evaluates output Wigner grids W(beta | xi) for a fixed input and t.

    The double-Gaussian integrand separates per quadrature component, so
    each outcome costs two dense matrix products against the cached
    input Wigner samples.
    """

    def __init__(self, state, t, out_grid=None, in_resolution=None):
        t = as_t(t)
        if t <= 0:
            raise ValueError("conditional outputs require t > 0")
        self.t = t
        mx, mp, vx, vp = quad_moments(state)
        hw_in = 1.2 * 2.0 * np.sqrt(vx + vp) + 3.0 / np.sqrt(2.0)
        if in_resolution is None:
            # resolve the P kernel width sqrt(t/2) with >= 4 samples
            target = np.sqrt(t / 2.0) / 4.0
            in_resolution = int(min(1024, max(256, np.ceil(2 * hw_in / target))))
        self.in_grid = PhaseGrid(
            ComplexAmplitude(mx, mp), (hw_in, hw_in), (in_resolution, in_resolution)
        )
        self.w_in = wigner_values(state, self.in_grid.points())
        if out_grid is None:
            var_xi = max(vx, vp) + (1.0 + t * t / 4.0) / (2.0 * t)
            hw_out = hw_in + 4.0 * np.sqrt(var_xi)
            out_grid = PhaseGrid(
                ComplexAmplitude(mx, mp), (hw_out, hw_out), (128, 128)
            )
        self.out_grid = out_grid

    def evaluate(self, xi1, xi2, p_xi) -> np.ndarray:
        t = self.t
        if p_xi <= 1e-12:
            raise ConditioningError(f"outcome density {p_xi:.3e} too small to condition on")
        b1 = self.out_grid.axis1
        b2 = self.out_grid.axis2
        n1 = self.in_grid.axis1
        n2 = self.in_grid.axis2
        a1 = np.exp(
            -((b1[:, None] - n1[None, :]) ** 2) / t
            - t / 4.0 * ((b1[:, None] - xi1) + (n1[None, :] - xi1)) ** 2
        )
        a2 = np.exp(
            -((b2[:, None] - n2[None, :]) ** 2) / t
            - t / 4.0 * ((b2[:, None] - xi2) + (n2[None, :] - xi2)) ** 2
        )
        h1, h2 = self.in_grid.spacing
        vals = a1 @ self.w_in @ a2.T
        return vals * (2.0 / (np.pi**2 * p_xi) * h1 * h2)


def conditional_output(state, t, xi, out_grid=None, in_resolution=None) -> PhaseGrid:
    """Wigner grid of the output state conditioned on outcome xi."""
    kern = ConditionalKernel(state, t, out_grid=out_grid, in_resolution=in_resolution)
    xi_c = _as_complex(xi)
    xi1, xi2 = np.sqrt(2.0) * xi_c.real, np.sqrt(2.0) * xi_c.imag
    p_xi = alice_outcome_density(state, t, xi)
    vals = kern.evaluate(xi1, xi2, p_xi)
    return kern.out_grid.with_values(vals)


@dataclass
class MCResult:
    """Empirical mean of conditional outputs plus per-sample trajectories."""

    grid: PhaseGrid
    xi1: np.ndarray
    xi2: np.ndarray
    fidelities: np.ndarray
    seed_info: str = ""


def mc_average(state, t, samples, rng, out_grid=None, sampler=None,
               in_resolution=None) -> MCResult:
    """Monte Carlo average over measurement outcomes of conditional outputs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    t = as_t(t)
    if sampler is None:
        sampler = OutcomeSampler(state, t)
    kern = ConditionalKernel(state, t, out_grid=out_grid, in_resolution=in_resolution)
    xi1s, xi2s, dens = sampler.sample(rng, samples)
    acc = np.zeros(tuple(kern.out_grid.resolution))
    comp = np.zeros_like(acc)  # compensated (Kahan) accumulation
    fids = np.empty(samples)
    if isinstance(state, PureState):
        w_target = wigner_values(state, kern.out_grid.points())
    else:
        w_target = None
    dmeas = kern.out_grid.cell_measure
    for k in range(samples):
        vals = kern.evaluate(xi1s[k], xi2s[k], dens[k])
        y = vals - comp
        new = acc + y
        comp = (new - acc) - y
        acc = new
        if w_target is not None:
            fids[k] = float(np.pi * np.sum(vals * w_target) * dmeas)
        else:
            fids[k] = np.nan
    mean = acc / samples
    return MCResult(kern.out_grid.with_values(mean), xi1s, xi2s, fids)
