"""Characteristic functions and s-ordered quasiprobability distributions.

Pointwise evaluation is organized by diagonals of the density matrix:
both the characteristic function and every s <= 0 quasidistribution are
sums over offsets d of radial functions (scaled generalized-Laguerre
recurrences, bounded by construction) times angular phases e^{i d phi}.
The radial functions come from the single vectorized kernel of `fock`,
one slab over all offsets and points per step n, so an evaluation costs
as many Python steps as the state's longest kept diagonal; arbitrary
point sets are processed in chunks of at most CHUNK_ELEMENTS slab
values, and each offset's phase is applied once, after its n-sum, by
Horner's rule.  The Wigner function is the s = 0 member, evaluated
through the parity form of the quasiprobability operator
(2 D(2 alpha) (-1)^n), so no grid Fourier transforms enter the primary
path.
"""

import weakref
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .errors import GridResolutionError, QuadratureError
from .fock import (
    ComplexAmplitude,
    DensityOp,
    PureState,
    _as_complex,
    _log_start,
    _m_seq,
    _radial_slabs,
    _unit_powers,
    quad_moments,
)
from .quadrature import gauss_hermite

VACUUM_WIDTH = 1.0 / np.sqrt(2.0)
# Largest kernel slab (offsets x points) held at once by pointwise kernels.
CHUNK_ELEMENTS = 2**18


@dataclass(frozen=True)
class OrderParam:
    """Ordering parameter s of the quasidistribution family (s <= 0)."""

    s: float

    def __post_init__(self):
        if self.s > 0:
            raise ValueError("s > 0 distributions are singular and rejected")


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular grid in the quadrature plane (nu1, nu2).

    values[i, j] corresponds to (axis1[i], axis2[j]) — row-major in nu1.
    """

    center: ComplexAmplitude
    extent: tuple
    resolution: tuple
    values: np.ndarray | None = None

    def __post_init__(self):
        n1, n2 = self.resolution
        if n1 < 2 or n2 < 2:
            raise ValueError("grid needs at least 2 samples per axis")

    @property
    def axis1(self):
        x1, _ = self.extent
        n1, _ = self.resolution
        return self.center.q1 + np.linspace(-x1, x1, n1)

    @property
    def axis2(self):
        _, x2 = self.extent
        _, n2 = self.resolution
        return self.center.q2 + np.linspace(-x2, x2, n2)

    @property
    def spacing(self):
        (x1, x2), (n1, n2) = self.extent, self.resolution
        return 2 * x1 / (n1 - 1), 2 * x2 / (n2 - 1)

    @property
    def cell_measure(self):
        """Phase-space measure d2alpha per sample (= dq1 dq2 / 2)."""
        h1, h2 = self.spacing
        return h1 * h2 / 2

    def mesh(self):
        return np.meshgrid(self.axis1, self.axis2, indexing="ij")

    def points(self):
        """Complex values (q1 + i q2)/sqrt(2) at every node."""
        a1, a2 = self.mesh()
        return (a1 + 1j * a2) / np.sqrt(2.0)

    def with_values(self, values):
        values = np.asarray(values)
        if values.shape != tuple(self.resolution):
            raise ValueError("values shape does not match grid resolution")
        return replace(self, values=values)

    def integrate(self):
        if self.values is None:
            raise ValueError("grid holds no values")
        return float(np.sum(self.values).real) * self.cell_measure


def square_grid(halfwidth, resolution=256, center=ComplexAmplitude(0.0, 0.0)):
    return PhaseGrid(center, (halfwidth, halfwidth), (resolution, resolution))


def default_grid(state, resolution=256, pad_widths=3.0):
    """Grid sized from the state's second moments: 1.2 L + padding widths.

    The padding multiplies the state's own per-axis quadrature width
    (with the vacuum width as a floor), so strongly squeezed states keep
    their anti-squeezed tails on the grid.
    """
    mx, mp, vx, vp = quad_moments(state)
    big_l = 2.0 * np.sqrt(vx + vp)
    hw1 = 1.2 * big_l + pad_widths * max(np.sqrt(vx), VACUUM_WIDTH)
    hw2 = 1.2 * big_l + pad_widths * max(np.sqrt(vp), VACUUM_WIDTH)
    return PhaseGrid(ComplexAmplitude(mx, mp), (hw1, hw2), (resolution, resolution))


# ---------------------------------------------------------------------------
# diagonal data and radial kernels
# ---------------------------------------------------------------------------

def state_diagonals(state, noise_floor=1e-18):
    """[(d, w_d)] with w_d[n] = rho_{n+d, n}, dropping sub-noise diagonals.

    Entries below the noise floor (absolute; states are unit-normalized)
    contribute less than double-precision roundoff to any kernel sum, so
    they and trailing runs of them are trimmed.  Over-padded states then
    cost what their actual support costs.
    """
    if isinstance(state, PureState):
        c = state.coeffs
        dim = c.size
        gen = lambda d: c[d:] * np.conj(c[: dim - d])
    elif isinstance(state, DensityOp):
        dim = state.dim
        gen = lambda d: np.diagonal(state.matrix, offset=-d).copy()
    else:
        raise TypeError("expected PureState or DensityOp")
    out = []
    for d in range(dim):
        w = np.ascontiguousarray(gen(d))
        alive = np.nonzero(np.abs(w) > noise_floor)[0]
        if alive.size:
            out.append((d, w[: alive[-1] + 1]))
    return out


def _radial_sums(diags, slabs, npts):
    """A[i] = sum_n w_i[n] R_n[d_i] for diags [(d_i, w_i)], from one kernel pass.

    `slabs(ds, counts)` runs the radial kernel on the caller's npts points;
    rows are handed to it by decreasing length and returned in diags order.
    """
    counts = np.array([w.size for _, w in diags])
    order = np.argsort(-counts, kind="stable")
    ds = np.array([diags[i][0] for i in order])
    weights = np.zeros((len(diags), counts.max()), dtype=complex)
    for row, i in enumerate(order):
        weights[row, : counts[i]] = diags[i][1]
    acc = np.zeros((len(diags), npts), dtype=complex)
    for n, slab in enumerate(slabs(ds, counts[order])):
        acc[: slab.shape[0]] += weights[: slab.shape[0], n, None] * slab
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _phase_series(coef, ds, z):
    """sum_i coef[i] z^ds[i] (ds ascending) by Horner's rule over the gaps."""
    gaps = np.diff(ds, prepend=0)
    power = _unit_powers(z, gaps.max() + 1)
    acc = coef[-1]
    for i in range(len(ds) - 2, -1, -1):
        acc = acc * power[gaps[i + 1]] + coef[i]
    return acc * power[gaps[0]] if ds[0] else acc


def _angular_accumulate(diags, points, slabs, combine):
    """Offset sums of a radial kernel on arbitrary complex points.

    Points are processed in chunks small enough that neither a kernel slab
    (offsets x points) nor a phase-power table (largest offset gap + 1
    powers per point) exceeds CHUNK_ELEMENTS values.  For each chunk,
    combine(A, ds, unit) turns the per-offset radial sums A (rows in diags
    order, offsets ds) and the unit phasors unit = e^{i phi} into values.
    """
    pts = np.asarray(points, dtype=complex)
    flat = pts.ravel()
    ds = np.array([d for d, _ in diags])
    out = np.empty(flat.shape, dtype=complex)
    width = max(len(diags), int(np.diff(ds, prepend=0).max()) + 1)
    chunk = max(1, CHUNK_ELEMENTS // width)
    for lo in range(0, flat.size, chunk):
        p = flat[lo : lo + chunk]
        mag = np.abs(p)
        with np.errstate(invalid="ignore"):
            unit = np.where(mag > 0, p / np.where(mag > 0, mag, 1.0), 1.0)
        sums = _radial_sums(diags, lambda ds, counts: slabs(ds, counts, mag * mag), p.size)
        out[lo : lo + chunk] = combine(sums, ds, unit)
    return out.reshape(pts.shape)


def _t_slabs(s, ds, counts, r2):
    """Radial parts of <n+d| T^(s)(alpha) |n> (phase e^{i d phi} removed).

    T^(s) is the operator whose trace against rho gives pi W^(s); the
    iterates stay bounded by 2/(1-s) for all s <= 0, including the
    endpoint s = -1 where they collapse onto coherent-state overlaps.
    """
    one_minus = 1.0 - s
    sig = (s + 1.0) / (s - 1.0)
    sig_y = -4.0 * r2 / one_minus**2  # sigma * y, finite for every s < 1
    with np.errstate(divide="ignore"):
        log_y = np.where(r2 > 0, np.log(r2), -np.inf) + 2 * np.log(2.0 / one_minus)
    start = (2.0 / one_minus) * _log_start(ds, log_y, 2.0 * r2 / one_minus)
    return _radial_slabs(ds, counts, start, sig, sig_y)


def squasi_values(state, s, points):
    """W^(s) at complex points, by the closed offset-diagonal kernel."""

    def combine(sums, ds, unit):
        # pairs (n+d, n) and (n, n+d) give 2 Re(A_d e^{-i d phi}); d = 0 once
        total = 2.0 * _phase_series(sums, ds, np.conj(unit)).real
        return total - sums[0].real if ds[0] == 0 else total

    acc = _angular_accumulate(
        state_diagonals(state), points, lambda ds, counts, r2: _t_slabs(s, ds, counts, r2), combine
    )
    return acc.real / np.pi


def wigner_values(state, points):
    return squasi_values(state, 0.0, points)


def char_values(state, points):
    """Characteristic function tr[rho D(mu)] at complex points mu."""

    def combine(sums, ds, unit):
        # <n|D|n+d> carries (-1)^d e^{-id phi}, <n+d|D|n> carries e^{+id phi}
        total = _phase_series(sums, ds, -np.conj(unit)) + _phase_series(np.conj(sums), ds, unit)
        return total - sums[0] if ds[0] == 0 else total

    return _angular_accumulate(state_diagonals(state), points, _m_seq, combine)


def char_on_polar(state, x, theta):
    """Characteristic function at mu = sqrt(x) e^{i theta} (outer grid).

    Returns a (len(x), len(theta)) complex array; the radial and angular
    structures separate, so this costs one kernel pass over the radial
    nodes and one small matrix product.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    diags = state_diagonals(state)
    ds = np.array([d for d, _ in diags])
    q = np.zeros((ds[-1] + 1, x.size), dtype=complex)
    q[ds] = _radial_sums(diags, lambda ds, counts: _m_seq(ds, counts, x), x.size)
    ds = np.arange(q.shape[0])
    e_plus = np.exp(1j * np.outer(theta, ds))  # (M, D)
    signs = (-1.0) ** ds
    out = (np.conj(e_plus) * signs) @ q + e_plus @ np.conj(q)
    out -= q[0][None, :]  # d = 0 was added twice with weight 1 each
    return out.T


def husimi_amplitudes(state, points):
    """<alpha|psi> (pure) or <alpha|rho|alpha> (mixed) via coherent overlaps."""
    pts = np.asarray(points, dtype=complex)
    dim = state.dim
    # g_n = <n|alpha> by the bounded recurrence g_{n+1} = g_n alpha / sqrt(n+1)
    g = np.exp(-np.abs(pts) ** 2 / 2).astype(complex)
    if isinstance(state, PureState):
        acc = np.zeros(pts.shape, dtype=complex)
        for n in range(dim):
            acc += state.coeffs[n] * np.conj(g)
            if n + 1 < dim:
                g = g * pts / np.sqrt(n + 1)
        return acc
    # mixed: sum_{mn} conj(g_m) rho_{mn} g_n
    gs = np.empty((dim,) + pts.shape, dtype=complex)
    for n in range(dim):
        gs[n] = g
        if n + 1 < dim:
            g = g * pts / np.sqrt(n + 1)
    return np.einsum("m...,mn,n...->...", np.conj(gs), state.matrix, gs)


def husimi_values(state, points):
    if isinstance(state, PureState):
        return np.abs(husimi_amplitudes(state, points)) ** 2 / np.pi
    return husimi_amplitudes(state, points).real / np.pi


# ---------------------------------------------------------------------------
# public pointwise operations
# ---------------------------------------------------------------------------

def char_fn(state, mu) -> complex:
    """Symmetrically ordered characteristic function tr[rho D(mu)]."""
    return complex(char_values(state, np.array(_as_complex(mu))))


def s_ordered_char(state, order, mu) -> complex:
    """Phi^(s)(mu) = e^{s |mu|^2 / 2} Phi(mu)."""
    s = order.s if isinstance(order, OrderParam) else float(order)
    muc = _as_complex(mu)
    return np.exp(s * abs(muc) ** 2 / 2) * char_fn(state, muc)


def wigner(state, alpha) -> float:
    """Wigner function at alpha; real, bounded by 2/pi."""
    return float(wigner_values(state, np.array(_as_complex(alpha))))


def husimi(state, alpha) -> float:
    """Husimi function <alpha|rho|alpha>/pi, in [0, 1/pi]."""
    return float(husimi_values(state, np.array(_as_complex(alpha))))


def s_quasidist(state, order, alpha, start_nodes=16, max_nodes=256) -> float:
    """W^(s)(alpha) as a Gaussian smoothing of the Wigner function.

    For s = -t < 0 uses adaptive tensor Gauss-Hermite on
    (2/t) int (d2nu/pi) e^{-2|alpha-nu|^2/t} W(nu), doubling until two
    successive node counts agree to 1e-9.
    """
    s = order.s if isinstance(order, OrderParam) else float(order)
    if s > 0:
        raise ValueError("s > 0 rejected")
    alpha_c = _as_complex(alpha)
    if s == 0:
        return wigner(state, alpha_c)
    t = -s
    scale = np.sqrt(t) / np.sqrt(2.0)  # shift per unit GH node, complex plane
    prev = None
    n = start_nodes
    while n <= max_nodes:
        z, w = gauss_hermite(n)
        shifts = (z[:, None] + 1j * z[None, :]) * scale
        vals = wigner_values(state, alpha_c + shifts)
        est = float(np.einsum("i,j,ij->", w, w, vals)) / np.pi
        if prev is not None and abs(est - prev) < 1e-9 * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    raise QuadratureError("s_quasidist smoothing did not converge")


def grid_eval(fn, grid: PhaseGrid) -> PhaseGrid:
    """Fill a grid from a pointwise evaluator fn(q1, q2) (broadcastable)."""
    a1, a2 = grid.mesh()
    try:
        vals = np.asarray(fn(a1, a2))
        if vals.shape != a1.shape:
            raise TypeError
    except TypeError:
        vals = np.vectorize(lambda u, v: fn(u, v))(a1, a2)
    return grid.with_values(vals)


def wigner_grid(state, grid: PhaseGrid) -> PhaseGrid:
    return grid.with_values(wigner_values(state, grid.points()))


_default_wigner_cache = weakref.WeakKeyDictionary()


def cached_default_wigner(state, resolution=256) -> PhaseGrid:
    """Wigner samples on the state's default grid, memoized per state.

    Keyed weakly on the state object, so repeated fidelity/overlap calls
    on one state reuse the grid instead of re-evaluating the kernel.
    """
    per_state = _default_wigner_cache.setdefault(state, {})
    if resolution not in per_state:
        per_state[resolution] = wigner_grid(state, default_grid(state, resolution=resolution))
    return per_state[resolution]


def husimi_grid(state, grid: PhaseGrid) -> PhaseGrid:
    return grid.with_values(husimi_values(state, grid.points()))


def char_grid(state, grid: PhaseGrid) -> PhaseGrid:
    return grid.with_values(char_values(state, grid.points()))


@dataclass(frozen=True)
class OverlapResult:
    """tr(rho1 rho2) by the matrix route (primary) and grid quadrature."""

    matrix_value: float
    grid_value: float

    def __float__(self):
        return self.matrix_value


def overlap(rho1, rho2, resolution=256, mismatch_tol=1e-3) -> OverlapResult:
    """Overlap tr(rho1 rho2), cross-checked against pi int d2a W1 W2."""
    m1 = rho1.density().matrix if isinstance(rho1, PureState) else rho1.matrix
    m2 = rho2.density().matrix if isinstance(rho2, PureState) else rho2.matrix
    if m1.shape != m2.shape:
        raise ValueError("operators must share a truncation dimension")
    matrix_value = float(np.real(np.trace(m1 @ m2)))

    g1 = default_grid(rho1, resolution=resolution)
    g2 = default_grid(rho2, resolution=resolution)
    hw = max(
        abs(g1.center.q1) + g1.extent[0], abs(g2.center.q1) + g2.extent[0],
        abs(g1.center.q2) + g1.extent[1], abs(g2.center.q2) + g2.extent[1],
    )
    grid = square_grid(hw, resolution)
    w1 = wigner_values(rho1, grid.points())
    w2 = wigner_values(rho2, grid.points())
    grid_value = float(np.pi * np.sum(w1 * w2) * grid.cell_measure)
    if abs(grid_value - matrix_value) > mismatch_tol:
        raise GridResolutionError(
            f"overlap routes disagree: matrix {matrix_value:.6e} vs grid {grid_value:.6e}"
        )
    return OverlapResult(matrix_value, grid_value)


# ---------------------------------------------------------------------------
# grid kernels shared with the fidelity/protocol modules
# ---------------------------------------------------------------------------

def fftconvolve(in1, in2):
    """Linear convolution of real arrays, cropped to in1's shape and centre.

    Real FFTs at fast lengths of the full output shape; the same
    arithmetic as scipy.signal.fftconvolve(in1, in2, mode="same"), without
    importing scipy.signal.
    """
    full = [a + b - 1 for a, b in zip(in1.shape, in2.shape)]
    fshape = [next_fast_len(n, True) for n in full]
    ret = irfftn(rfftn(in1, fshape) * rfftn(in2, fshape), fshape)
    start = [(n - a) // 2 for n, a in zip(full, in1.shape)]
    return ret[tuple(slice(b, b + a) for b, a in zip(start, in1.shape))].copy()


def gaussian_pair_integral(wgrid: PhaseGrid, kernel_fn) -> float:
    """int d2b d2n K(b - n) W(b) W(n) on a sampled Wigner grid.

    kernel_fn(d1, d2) takes quadrature-component differences; the double
    sum is evaluated as an FFT convolution with the full difference
    kernel, so no kernel tails are clipped.
    """
    w = wgrid.values
    n1, n2 = w.shape
    h1, h2 = wgrid.spacing
    d1 = (np.arange(2 * n1 - 1) - (n1 - 1)) * h1
    d2 = (np.arange(2 * n2 - 1) - (n2 - 1)) * h2
    kern = kernel_fn(d1[:, None], d2[None, :])
    smoothed = fftconvolve(w, kern)
    return float(np.sum(w * smoothed) * wgrid.cell_measure**2)
