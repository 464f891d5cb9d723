"""Split-operator propagation of the driven double-well and Fock projection.

Units follow a = (x + i p)/sqrt(2) with [x, p] = i; the Hamiltonian of
the chaotic run is

    H = 5 p^2 - 8 x^2 + 0.05 x^4 + 65 x cos(2 pi tau),

taken literally in these units.  Strang splitting (Strang, SIAM J.
Numer. Anal. 5, 506 (1968)) applies the kinetic factor in wavenumber
space (p maps to k under psi(x) ~ e^{i k x}) between two half-kicks of
the potential sampled at the step midpoint, which is second order in dt.
Adjacent half-kicks of consecutive steps are fused into one kick, so a
call applies one kick per step plus a closing half-kick.  The grid is
sized so no absorbing boundaries are needed; mass reaching an edge
raises instead of silently wrapping.

For the double well the kick needs no potential evaluation per step.
The static part V0 = -8 x^2 + 0.05 x^4 gives two phase arrays computed
once per call, exp(-i dt V0) and exp(-i dt V0/2).  The drive is linear
in x, so its kick exp(-i a x_j) on the uniform grid x_j = x_min + dx j
factors over j = m P + q (P = ceil(sqrt(n))) into an outer product of
two length-P exponentials; a step then costs 2P complex exponentials
instead of n.  The drive coefficient a of a fused kick is
(dt/2) 65 (cos 2 pi tau_n + cos 2 pi tau_{n+1}) at the midpoints
tau_n = t0 + (n + 1/2) dt.  Any other potential is sampled once per
step and adjacent half-kicks are fused into one exponential of the
summed samples.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from . import fock
from .errors import BoundaryLeakError, GridExtentError, LeakageError
from .fock import PureState

KINETIC_COEFF = 5.0
DRIVE_AMPLITUDE = 65.0
QUADRATIC_COEFF = -8.0
QUARTIC_COEFF = 0.05
DRIVE_FREQ = 2.0 * np.pi

# wavefunction_to_fock: largest norm lost to the truncation, and its size cap.
LEAK_TOL, MAX_FOCK_DIM = 1e-3, 1024


@dataclass(frozen=True)
class SpatialGrid:
    """n_points >= 2 samples x_min + dx j, dx = (x_max - x_min)/n_points, finite x_min < x_max."""

    x_min: float = -30.0
    x_max: float = 30.0
    n_points: int = 4096

    def __post_init__(self):
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ValueError("grid bounds must be finite with x_min < x_max")
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class EvolutionConfig:
    """A run of t_final / dt steps (a whole number) of size dt: dt finite > 0, t_final finite >= 0."""

    dt: float = 2.5e-4
    t_final: float = 5.0
    grid: SpatialGrid = SpatialGrid()

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0 <= self.t_final < np.inf:
            raise ValueError("t_final must be finite and >= 0")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("t_final must be an integer number of steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class WaveFunction:
    samples: np.ndarray
    x_min: float
    dx: float

    @property
    def n_points(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def norm2(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dx)

    @property
    def edge_density(self) -> float:
        return float(max(abs(self.samples[0]) ** 2, abs(self.samples[-1]) ** 2))

    def moments(self):
        """(mean x, mean p, <x^2>, <p^2>) by grid and spectral sums."""
        psi = self.samples
        prob = np.abs(psi) ** 2 * self.dx
        mx = float(np.sum(self.x * prob))
        mx2 = float(np.sum(self.x**2 * prob))
        phat2 = np.abs(np.fft.fft(psi)) ** 2
        phat2 /= np.sum(phat2)
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        mp = float(np.sum(k * phat2))
        mp2 = float(np.sum(k**2 * phat2))
        return mx, mp, mx2, mp2


def coherent_wavefunction(x0, p0, grid: SpatialGrid = SpatialGrid()) -> WaveFunction:
    """Coherent state pi^{-1/4} exp(-(x - x0)^2/2 + i p0 x) on the grid (finite x0, p0)."""
    if not (np.isfinite(x0) and np.isfinite(p0)):
        raise ValueError("x0 and p0 must be finite")
    width = 1.0 / np.sqrt(2.0)
    if x0 - 5 * width < grid.x_min or x0 + 5 * width > grid.x_max:
        raise GridExtentError(
            f"grid [{grid.x_min}, {grid.x_max}] does not contain x0 = {x0} +- 5 widths"
        )
    x = grid.x
    psi = np.pi**-0.25 * np.exp(-((x - x0) ** 2) / 2.0 + 1j * p0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WaveFunction(psi, grid.x_min, grid.dx)


def split_step_evolve(psi: WaveFunction, kinetic_coeff, potential_fn,
                      config: EvolutionConfig, t0=0.0) -> WaveFunction:
    """Strang-split evolution under kinetic_coeff * p^2 + potential_fn(x, tau).

    An edge sample's density above 1e-10 after any step raises BoundaryLeakError.
    """
    grid = SpatialGrid(psi.x_min, psi.x_min + psi.dx * psi.n_points, psi.n_points)
    dt, n_steps = config.dt, config.n_steps
    cur = psi.samples.astype(complex)
    if n_steps == 0:
        return WaveFunction(cur, psi.x_min, psi.dx)
    kin = np.exp(-1j * kinetic_coeff * grid.k**2 * dt)
    midpoints = t0 + (np.arange(n_steps) + 0.5) * dt
    # unwrapped on both sides: a wrapper (functools.wraps) rebound in another
    # module's namespace is a different object for the same potential
    if inspect.unwrap(potential_fn) is inspect.unwrap(double_well_potential):
        kicks = _double_well_kicks(grid, dt, midpoints)
    else:
        kicks = _sampled_kicks(potential_fn, grid.x, dt, midpoints)
    cur *= next(kicks)
    for n, kick in enumerate(kicks):
        spectrum = fft(cur)
        spectrum *= kin
        cur = ifft(spectrum, overwrite_x=True)
        cur *= kick
        edge = max(abs(cur[0]) ** 2, abs(cur[-1]) ** 2)
        if edge > 1e-10:
            raise BoundaryLeakError(
                f"edge density {edge:.3e} at tau = {t0 + (n + 1) * dt:.4f}; enlarge the grid"
            )
    return WaveFunction(cur, psi.x_min, psi.dx)


def _sampled_kicks(potential_fn, x, dt, midpoints):
    """Opening half-kick, one fused kick between steps, closing half-kick."""
    v = potential_fn(x, midpoints[0])
    yield np.exp(-0.5j * dt * v)
    for tau in midpoints[1:]:
        v_next = potential_fn(x, tau)
        yield np.exp(-0.5j * dt * (v + v_next))
        v = v_next
    yield np.exp(-0.5j * dt * v)


def _double_well_kicks(grid: SpatialGrid, dt, midpoints):
    """The kicks of `_sampled_kicks` for double_well_potential, from static phases and a ramp."""
    static = _static_potential(grid.x)
    full, half = np.exp(-1j * dt * static), np.exp(-0.5j * dt * static)
    drive = _drive_coeff(midpoints)
    yield half * _linear_phase(0.5 * dt * drive[0], grid)
    for a in 0.5 * dt * (drive[:-1] + drive[1:]):
        yield full * _linear_phase(a, grid)
    yield half * _linear_phase(0.5 * dt * drive[-1], grid)


def _linear_phase(a, grid: SpatialGrid):
    """exp(-i a x) on the grid as the outer product of two length-ceil(sqrt n) exponentials."""
    n = grid.n_points
    p = math.isqrt(n - 1) + 1
    steps = grid.dx * np.arange(p)
    coarse = np.exp(-1j * a * (grid.x_min + p * steps))
    fine = np.exp(-1j * a * steps)
    return np.outer(coarse, fine).ravel()[:n]


def _static_potential(x):
    """-8 x^2 + 0.05 x^4, the drive-free part of the double well."""
    x2 = x * x
    return x2 * (QUADRATIC_COEFF + QUARTIC_COEFF * x2)


def _drive_coeff(tau):
    """65 cos(2 pi tau), the coefficient of x in the double well's drive."""
    return DRIVE_AMPLITUDE * np.cos(DRIVE_FREQ * tau)


def double_well_potential(x, tau):
    return _static_potential(x) + _drive_coeff(tau) * x


def evolve_chaotic(psi: WaveFunction, config: EvolutionConfig = EvolutionConfig()) -> WaveFunction:
    """Evolve under the driven double-well Hamiltonian from tau = 0."""
    return split_step_evolve(psi, KINETIC_COEFF, double_well_potential, config)


# ---------------------------------------------------------------------------
# oscillator-basis projection
# ---------------------------------------------------------------------------

def hermite_functions(x, n_max):
    """Orthonormal oscillator eigenfunctions phi_0..phi_{n_max-1} on x (`fock.hermite_functions`)."""
    return fock.hermite_functions(x, n_max)


def suggest_fock_dim(psi: WaveFunction) -> int:
    mx, mp, mx2, mp2 = psi.moments()
    mean_n = max(0.0, (mx2 + mp2 - 1.0) / 2.0)
    return int(np.ceil(mean_n + 6.0 * np.sqrt(mean_n + 1.0) + 10))


def wavefunction_to_fock(psi: WaveFunction, dim=None):
    """Project onto number states; returns (state, leakage).

    Leakage is the squared norm lost to levels >= dim; exceeding
    LEAK_TOL raises instead of silently renormalizing it away.  With
    dim=None the truncation grows (moment-based start, at most
    MAX_FOCK_DIM) until leakage is within tolerance: far-from-Gaussian
    states occupy number levels well past their mean occupation.
    """
    auto = dim is None
    if not auto and dim < 1:
        raise ValueError(f"Fock dimension must be >= 1, got {dim}")
    if auto:
        dim = suggest_fock_dim(psi)
    while True:
        basis = hermite_functions(psi.x, dim)
        # two real products: basis @ complex samples would first copy the
        # (dim, n) basis to complex, twice its size (19 MB at dim 296, n 4096)
        samples = psi.samples
        coeffs = (basis @ samples.real + 1j * (basis @ samples.imag)) * psi.dx
        captured = float(np.sum(np.abs(coeffs) ** 2)) / psi.norm2
        leakage = 1.0 - captured
        if leakage <= LEAK_TOL:
            return PureState(coeffs), leakage
        if not auto or dim >= MAX_FOCK_DIM:
            raise LeakageError(
                f"projection onto {dim} levels leaks {leakage:.3e} > {LEAK_TOL:.0e}",
                leakage=leakage,
            )
        dim = min(MAX_FOCK_DIM, int(1.4 * dim) + 16)


def fock_to_wavefunction(state: PureState, grid: SpatialGrid) -> WaveFunction:
    basis = hermite_functions(grid.x, state.dim)
    c = state.coeffs  # two real products, as in wavefunction_to_fock
    psi = c.real @ basis + 1j * (c.imag @ basis)
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WaveFunction(psi / nrm, grid.x_min, grid.dx)
