"""Independent reference implementations used to derive expected values.

Everything here deliberately avoids the package's evaluation machinery:
displacement matrices come from scipy's generalized Laguerre polynomials
or matrix exponentials, quadratures from numpy's laggauss/hermgauss (or
mpmath where digits beyond double precision are needed), and fidelities
from those pieces.  Tests freeze or compare against these.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, roots_hermite

from subplanck import BoundaryLeakError, DensityOp, PureState, SubplanckError
from subplanck.dynamics import SpatialGrid, WaveFunction


def ref_displacement_element(m, n, mu):
    """<m|D(mu)|n> straight from the two-branch Laguerre closed form."""
    x = abs(mu) ** 2
    if m >= n:
        return (
            math.sqrt(math.factorial(n) / math.factorial(m))
            * mu ** (m - n)
            * np.exp(-x / 2)
            * eval_genlaguerre(n, m - n, x)
        )
    return (
        math.sqrt(math.factorial(m) / math.factorial(n))
        * (-np.conj(mu)) ** (n - m)
        * np.exp(-x / 2)
        * eval_genlaguerre(m, n - m, x)
    )


def ref_displacement_expm(dim, mu):
    """D(mu) block via the matrix exponential on a padded space."""
    pad = int(np.ceil((np.sqrt(dim) + abs(mu)) ** 2 + 8 * (np.sqrt(dim) + abs(mu)) + 16))
    ad = np.diag(np.sqrt(np.arange(1, pad)), -1)
    full = expm(mu * ad - np.conj(mu) * ad.T)
    return full[:dim, :dim], full[:, :dim]


def ref_char(coeffs, mu):
    dim = len(coeffs)
    mat = np.array(
        [[ref_displacement_element(m, n, mu) for n in range(dim)] for m in range(dim)]
    )
    return np.conj(coeffs) @ mat @ coeffs


def ref_wigner_parity(coeffs, alpha):
    """Parity-sum Wigner oracle: (2/pi) sum_k (-1)^k |<k|D(-alpha)psi>|^2."""
    dim = len(coeffs)
    _, tall = ref_displacement_expm(dim, -alpha)
    displaced = tall @ coeffs
    signs = (-1.0) ** np.arange(len(displaced))
    return 2.0 / np.pi * float(np.sum(signs * np.abs(displaced) ** 2))


def ref_fidelity_form4(coeffs, t, n_radial=48, n_angular=64):
    """Average fidelity via numpy laggauss + uniform angles, fully separate.

    Each radial node evaluates the closed-form elements at all angles at
    once (`ref_displacement_element` is elementwise in mu).
    """
    if t == 0:
        return 1.0
    x, w = laggauss(n_radial)
    c = 1.0 + t / 2.0
    thetas = np.linspace(0, 2 * np.pi, n_angular, endpoint=False)
    dim = len(coeffs)
    total = 0.0
    for wi, xi in zip(w, x):
        mus = np.sqrt(xi / c) * np.exp(1j * thetas)
        mats = np.array(
            [[ref_displacement_element(m, n, mus) for n in range(dim)] for m in range(dim)]
        )  # [m, n, angle]
        vals = np.abs(np.einsum("m,mna,n->a", np.conj(coeffs), mats, coeffs)) ** 2
        # rule: int_0^inf h(x) dx = (1/c) sum w e^{x} h(x/c), h includes e^{-cx}
        total += wi * np.exp(xi) / c * np.exp(-t * (xi / c) / 2) * np.mean(vals)
    return total


def ref_quad_moments(state):
    """(mean x, mean p, var x, var p) from dense x and p on a space two levels taller.

    The padding keeps the couplings of x^2 and p^2 through the top stored
    level, so the moments are exact for the stored entries.
    """
    if isinstance(state, PureState):
        stored = np.outer(state.coeffs, np.conj(state.coeffs))
    else:
        stored = state.matrix
    dim = stored.shape[0] + 2
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:-2, :-2] = stored
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    expect = lambda op: float(np.real(np.trace(rho @ op)))
    mx, mp = expect(x), expect(p)
    return mx, mp, expect(x @ x) - mx * mx, expect(p @ p) - mp * mp


def ref_gauss_laguerre_scaled(n, dps=40):
    """Nodes and scaled weights W_j = w_j e^{x_j} of the n-point Laguerre rule.

    Each of numpy's laggauss nodes is Newton-polished on L_n in `dps`-digit
    mpmath arithmetic (three-term recurrence, L_n' = n (L_n - L_{n-1}) / x),
    and W_j = x_j e^{x_j} / ((n+1) L_{n+1}(x_j))^2.  Returned as mpf lists.
    """

    def laguerre(k, x):  # (L_k(x), L_{k-1}(x)) for k >= 1
        prev, cur = mpmath.mpf(1), 1 - x
        for j in range(1, k):
            prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
        return cur, prev

    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (5 - dps)
        nodes, weights = [], []
        for x0 in laggauss(n)[0]:
            x = mpmath.mpf(float(x0))
            for _ in range(100):
                ln, lm = laguerre(n, x)
                step = ln * x / (n * (ln - lm))
                x -= step
                if abs(step) <= tol * x:
                    break
            else:
                raise ArithmeticError(f"Newton polish of node {x0!r} did not converge")
            ln1 = laguerre(n + 1, x)[0]
            nodes.append(+x)
            weights.append(x * mpmath.exp(x) / ((n + 1) * ln1) ** 2)
    return nodes, weights


def number_fidelity_mp(n, t, dps=50) -> float:
    """F(|n>, t) = sum_k C(n,k)^2 (t^2/4)^{n-k} / (1+t/2)^{2n+1} in `dps`-digit arithmetic."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        total = mpmath.fsum(mpmath.binomial(n, k) ** 2 * (t * t / 4) ** (n - k)
                            for k in range(n + 1))
        return float(total / (1 + t / 2) ** (2 * n + 1))


def two_level_fidelity(c0, c1, t):
    """Exact fidelity of c0|0> + c1|1> (radial/angular integrals done by hand)."""
    c = 1.0 + t / 2.0
    b = np.abs(c1) ** 2
    rho2 = np.abs(c1 * np.conj(c0)) ** 2
    return 1 / c - 2 * b / c**2 + 2 * b**2 / c**3 + 2 * rho2 / c**2


def gauss_hermite_2d(fn, n=80, scale=1.0):
    """int dq1 dq2 e^{-(q1^2+q2^2)/scale^2} fn(q1, q2) via tensor rule."""
    from numpy.polynomial.hermite import hermgauss

    z, w = hermgauss(n)
    q1 = scale * z[:, None]
    q2 = scale * z[None, :]
    vals = fn(q1, q2)
    return scale**2 * float(np.einsum("i,j,ij->", w, w, vals))


def marginal_wigner_a(t, alpha):
    """Wigner function of Alice's reduced resource mode at a ComplexAmplitude."""
    if t <= 0:
        raise ValueError("needs t > 0")
    g = 1.0 + t * t / 4.0
    return float(2.0 * t / (np.pi * g) * np.exp(-2.0 * t * alpha.abs2 / g))


def average_channel_displaced(state, t, nodes, out_dim):
    """Averaged channel as the Gauss-Hermite average of D(nu) rho D+(nu) over P(nu).

    A route independent of the characteristic-function damping the
    package uses; the displacement matrices are the package's
    (checked against `ref_displacement_expm` in test_fock).
    """
    from subplanck.fock import displacement_matrix

    rho_in = state.density().matrix
    z, w = roots_hermite(nodes)
    scale = np.sqrt(t) / np.sqrt(2.0)
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i, zi in enumerate(z):
        for j, zj in enumerate(z):
            dmat = displacement_matrix(out_dim, scale * (zi + 1j * zj))[:, : len(rho_in)]
            out += (w[i] * w[j]) * (dmat @ rho_in @ dmat.conj().T)
    return out / np.pi


def channel_fidelity(state, rho_out):
    """<psi| rho |psi> with automatic padding to the larger truncation."""
    dim = max(state.dim, rho_out.dim)
    c = padded_state(state, dim).coeffs
    m = padded_state(rho_out, dim).matrix
    return float(np.real(np.vdot(c, m @ c)))


def ref_m_seq(d, x):
    """Yield M_n^(d)(x) = sqrt(n!/(n+d)!) x^(d/2) e^(-x/2) L_n^(d)(x), n = 0, 1, ...

    The one-offset-at-a-time generator the package used before its radial
    kernel was vectorized; kept as the reference the kernel must match.
    """
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    if d == 0:
        m = np.exp(-x / 2)
    else:
        with np.errstate(divide="ignore"):
            logx = np.where(x > 0, np.log(x), -np.inf)
        m = np.exp(0.5 * d * logx - 0.5 * gammaln(d + 1) - x / 2)
    m_prev = 0.0
    n = 0
    while True:
        yield m
        m, m_prev = (
            ((2 * n + 1 + d - x) * m - np.sqrt(n * (n + d)) * m_prev)
            / np.sqrt((n + 1) * (n + 1 + d)),
            m,
        )
        n += 1


def ref_state_diagonals(state):
    """[(d, w_d)] by the per-offset loop: w_d = state.diagonal(d) up to its last |entry| > 1e-18."""
    out = []
    for d in range(state.dim):
        w = state.diagonal(d)
        alive = np.nonzero(np.abs(w) > 1e-18)[0]
        if alive.size:
            out.append((d, w[: alive[-1] + 1]))
    return out


def ref_char_on_polar(diags, x, theta):
    """Characteristic function on a polar grid by the per-(d, n) loop over ref_m_seq."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dim = max(d for d, _ in diags) + 1
    q = np.zeros((dim, x.size), dtype=complex)
    for d, w in diags:
        seq = ref_m_seq(d, x)
        row = np.zeros(x.size, dtype=complex)
        for n in range(w.size):
            row += w[n] * next(seq)
        q[d] = row
    ds = np.arange(dim)
    e_plus = np.exp(1j * np.outer(theta, ds))
    signs = (-1.0) ** ds
    out = (np.conj(e_plus) * signs) @ q + e_plus @ np.conj(q)
    out -= q[0][None, :]
    return out.T


def ref_husimi(coeffs, alpha, dps=40):
    """|<alpha|psi>|^2/pi by the Bargmann sum e^{-|alpha|^2/2} sum_n c_n conj(alpha)^n/sqrt(n!), in mpmath."""
    with mpmath.workdps(dps):
        a = mpmath.mpc(complex(alpha))
        z = mpmath.conj(a)
        total = mpmath.mpc(0)
        term = mpmath.mpf(1)  # conj(alpha)^n / sqrt(n!)
        for n, c in enumerate(coeffs):
            if n:
                term = term * z / mpmath.sqrt(n)
            total += mpmath.mpc(complex(c)) * term
        return float(abs(total * mpmath.exp(-abs(a) ** 2 / 2)) ** 2 / mpmath.pi)


def ref_m_element(n, d, x, dps=40):
    """M_n^(d)(x) in `dps`-digit mpmath arithmetic, as a float."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        lag = mpmath.laguerre(n, d, x)
        logpre = (mpmath.loggamma(n + 1) - mpmath.loggamma(n + d + 1)) / 2 - x / 2
        if d:
            if x == 0:
                return 0.0
            logpre += d * mpmath.log(x) / 2
        return float(mpmath.exp(logpre) * lag)


def ref_hermite_functions(x, n_max, dps=40):
    """phi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), n < n_max, in mpmath, as floats."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(float(x))
        gauss = mpmath.exp(-x * x / 2) / mpmath.sqrt(mpmath.sqrt(mpmath.pi))
        return np.array([
            float(gauss * mpmath.hermite(n, x) / mpmath.sqrt(2**n * mpmath.factorial(n)))
            for n in range(n_max)
        ])


def density_at(sampler, xi1, xi2):
    """The sampler's grid density at the cell nearest each outcome (xi1, xi2)."""
    grid = sampler.grid
    n1, n2 = grid.resolution
    i = np.clip(np.round((xi1 - grid.axis1[0]) / grid.spacing[0]), 0, n1 - 1).astype(int)
    j = np.clip(np.round((xi2 - grid.axis2[0]) / grid.spacing[1]), 0, n2 - 1).astype(int)
    return grid.values[i, j]


def ref_conditional_values(kern, xi1, xi2, p_xi):
    """One outcome's output grid as the unfloored closed-form product L @ N @ R.T.

    The factors of `ConditionalKernel.factors` without their 1e-100 floor;
    only the kernel's matrix N, order s, kappa and output grid are taken
    from it.
    """
    from subplanck.fock import hermite_functions

    s, kappa, k = kern.order, kern.kappa, kern.coeffs.shape[0]
    scale = np.sqrt(2.0 / (1.0 - s))
    left, right = (
        np.ascontiguousarray((hermite_functions(scale * (x + kappa * d), k) * np.exp(s * d * d)).T)
        for x, d in ((xi1, kern.out_grid.axis1 - xi1), (xi2, kern.out_grid.axis2 - xi2))
    )
    return (left @ kern.coeffs @ right.T) * (-2.0 * s / (np.pi * p_xi))


def ref_mc_average(kern, xi1s, xi2s, dens):
    """Mean of the per-outcome grids ref_conditional_values / dens, one outcome at a time."""
    acc = np.zeros(tuple(kern.out_grid.resolution))
    for x1, x2, p in zip(xi1s, xi2s, dens):
        acc += ref_conditional_values(kern, x1, x2, p)
    return acc / len(dens)


def ref_conditional_grid(state, t, xi1, xi2, p_xi, out_grid):
    """One outcome's output grid by quadrature over a sampled input Wigner grid.

    The double-Gaussian integrand summed against W_in on a square grid
    around the input's mean, half-width 1.2 L + 3/sqrt2 and 256 to 1024
    nodes per axis with at least 4 samples per width sqrt(t/2) of the noise
    kernel: a1 @ w_in @ a2.T with dense, unfloored Gaussian factors.  Its
    error is the grid's: ~1e-10 for pure inputs at t = 0.02, where the
    input grid is cut to 1024 nodes.
    """
    from subplanck.fock import quad_moments
    from subplanck.phasespace import wigner_values

    mx, mp, vx, vp = quad_moments(state)
    hw = 1.2 * 2.0 * np.sqrt(vx + vp) + 3.0 / np.sqrt(2.0)
    res = int(min(1024, max(256, np.ceil(2 * hw / (np.sqrt(t / 2.0) / 4.0)))))
    n1 = mx + np.linspace(-hw, hw, res)
    n2 = mp + np.linspace(-hw, hw, res)
    w_in = wigner_values(state, (n1[:, None] + 1j * n2[None, :]) / np.sqrt(2.0))
    b1, b2 = out_grid.axis1, out_grid.axis2
    a1 = np.exp(-((b1[:, None] - n1) ** 2) / t - t / 4.0 * ((b1[:, None] - xi1) + (n1 - xi1)) ** 2)
    a2 = np.exp(-((b2[:, None] - n2) ** 2) / t - t / 4.0 * ((b2[:, None] - xi2) + (n2 - xi2)) ** 2)
    h = 2.0 * hw / (res - 1)
    return (a1 @ w_in @ a2.T) * (2.0 / (np.pi**2 * p_xi) * h * h)


def ref_double_well_potential(x, tau):
    """The driven double well -8 x^2 + 0.05 x^4 + 65 x cos(2 pi tau), written out."""
    return -8.0 * x**2 + 0.05 * x**4 + 65.0 * x * np.cos(2.0 * np.pi * tau)


def ref_split_step_evolve(psi, kinetic_coeff, potential_fn, config, t0=0.0, check_edges=True):
    """Strang splitting with two half-kicks per step, the potential sampled per half-step pair."""
    grid = SpatialGrid(psi.x_min, psi.x_min + psi.dx * psi.n_points, psi.n_points)
    x, k = grid.x, grid.k
    dt = config.dt
    kin = np.exp(-1j * kinetic_coeff * k**2 * dt)
    cur = psi.samples.astype(complex)
    tau = t0
    for _ in range(config.n_steps):
        half = np.exp(-0.5j * dt * potential_fn(x, tau + dt / 2.0))
        cur = half * cur
        cur = np.fft.ifft(kin * np.fft.fft(cur))
        cur = half * cur
        tau += dt
        if check_edges:
            edge = max(abs(cur[0]) ** 2, abs(cur[-1]) ** 2)
            if edge > 1e-10:
                raise BoundaryLeakError(
                    f"edge density {edge:.3e} at tau = {tau:.4f}; enlarge the grid"
                )
    return WaveFunction(cur, psi.x_min, psi.dx)


# ---------------------------------------------------------------------------
# radial-kernel W^(s) and characteristic function (per-point offset sums)
# ---------------------------------------------------------------------------

# Largest kernel slab (offsets x points) held at once by the radial oracles.
REF_CHUNK_ELEMENTS = 2**18


def _ref_phase_series(coef, ds, z):
    """sum_i coef[i] z^ds[i] (ds ascending) by Horner's rule over the gaps."""
    from subplanck.fock import _unit_powers

    gaps = np.diff(ds, prepend=0)
    power = _unit_powers(z, gaps.max() + 1)
    acc = coef[-1]
    for i in range(len(ds) - 2, -1, -1):
        acc = acc * power[gaps[i + 1]] + coef[i]
    return acc * power[gaps[0]] if ds[0] else acc


def _ref_angular_accumulate(diags, points, slabs, combine):
    """Offset sums of a radial kernel on arbitrary complex points, chunked.

    sums[i] = sum_n w_i[n] R_n[d_i] for diags [(d_i, w_i)], from one pass of
    `slabs(ds, counts, r2)` per chunk with rows by decreasing length.
    """
    pts = np.asarray(points, dtype=complex)
    flat = pts.ravel()
    ds = np.array([d for d, _ in diags])
    counts = np.array([w.size for _, w in diags])
    order = np.argsort(-counts, kind="stable")
    weights = np.zeros((len(diags), counts.max()), dtype=complex)
    for row, i in enumerate(order):
        weights[row, : counts[i]] = diags[i][1]
    out = np.empty(flat.shape, dtype=complex)
    width = max(len(diags), int(np.diff(ds, prepend=0).max()) + 1)
    chunk = max(1, REF_CHUNK_ELEMENTS // width)
    for lo in range(0, flat.size, chunk):
        p = flat[lo : lo + chunk]
        mag = np.abs(p)
        with np.errstate(invalid="ignore"):
            unit = np.where(mag > 0, p / np.where(mag > 0, mag, 1.0), 1.0)
        acc = np.zeros((len(diags), p.size), dtype=complex)
        for n, slab in enumerate(slabs(ds[order], counts[order], mag * mag)):
            acc[: slab.shape[0]] += weights[: slab.shape[0], n, None] * slab
        sums = np.empty_like(acc)
        sums[order] = acc
        out[lo : lo + chunk] = combine(sums, ds, unit)
    return out.reshape(pts.shape)


def _ref_log_start(ds, log_y, decay):
    """Rows exp(d log(y) / 2 - log(d!) / 2 - decay), one per offset in ds.

    The first iterate of the radial kernel, formed in the log domain so
    large offsets and far points underflow cleanly to 0; row d = 0 is
    exp(-decay) also where y = 0 (log_y = -inf).
    """
    from scipy.special import gammaln

    ds = np.asarray(ds)[:, None]
    with np.errstate(invalid="ignore"):
        power = np.where(ds > 0, 0.5 * ds * log_y, 0.0)
    return np.exp(power - 0.5 * gammaln(ds + 1) - decay)


def _ref_radial_slabs(ds, counts, start, sig, sig_y):
    """Scaled generalized-Laguerre recurrence along n, vectorized over offsets and points.

    Yields the slabs R_n, n = 0 .. counts[0] - 1, where row i of R_n is the
    n-th iterate for offset d = ds[i] over the 1-D point array sig_y:

        R_{n+1} = ((sig (2n+1+d) - sig_y) R_n - sig^2 sqrt(n (n+d)) R_{n-1})
                  / sqrt((n+1) (n+1+d)),     R_0 = start, R_{-1} = 0.

    With sig = 1 and sig_y = x the iterates are the displacement elements
    M_n^(d)(x) of the package's `fock._m_seq`; the s-ordered oracle below
    drives it with sig = (s+1)/(s-1).  `counts` (iterates wanted per row)
    must be nonincreasing: R_n holds only the leading rows with counts > n.
    """
    counts = np.asarray(counts)
    steps = int(counts[0]) if counts.size else 0
    active = np.count_nonzero(counts[:, None] > np.arange(steps), axis=0)
    d = np.asarray(ds, dtype=float)[:, None]
    sig2 = sig * sig
    cur, prev = start, np.zeros_like(start)
    for n in range(steps):
        k = active[n]
        cur, prev = cur[:k], prev[:k]
        if n:
            m, dk = n - 1, d[:k]
            nxt = np.subtract(sig * (2 * m + 1 + dk), sig_y)
            nxt *= cur
            nxt -= sig2 * np.sqrt(m * (m + dk)) * prev
            nxt /= np.sqrt((m + 1) * (m + 1 + dk))
            cur, prev = nxt, cur
        yield cur


def _ref_t_slabs(s, ds, counts, r2):
    """Radial parts of <n+d| T^(s)(alpha) |n> (phase e^{i d phi} removed)."""
    one_minus = 1.0 - s
    sig = (s + 1.0) / (s - 1.0)
    sig_y = -4.0 * r2 / one_minus**2  # sigma * y, finite for every s < 1
    with np.errstate(divide="ignore"):
        log_y = np.where(r2 > 0, np.log(r2), -np.inf) + 2 * np.log(2.0 / one_minus)
    start = (2.0 / one_minus) * _ref_log_start(ds, log_y, 2.0 * r2 / one_minus)
    return _ref_radial_slabs(ds, counts, start, sig, sig_y)


def ref_squasi_values(state, s, points):
    """W^(s) at complex points by the offset-diagonal radial kernel.

    The pointwise evaluation the package used before its separable
    Hermite-basis kernel: for each point, the scaled Laguerre recurrence
    over every kept diagonal, then the angular phases by Horner's rule.
    """
    from subplanck.phasespace import state_diagonals

    def combine(sums, ds, unit):
        # pairs (n+d, n) and (n, n+d) give 2 Re(A_d e^{-i d phi}); d = 0 once
        total = 2.0 * _ref_phase_series(sums, ds, np.conj(unit)).real
        return total - sums[0].real if ds[0] == 0 else total

    acc = _ref_angular_accumulate(
        state_diagonals(state), points, lambda ds, counts, r2: _ref_t_slabs(s, ds, counts, r2),
        combine,
    )
    return acc.real / np.pi


def ref_char_values(state, points):
    """Characteristic function tr[rho D(mu)] by the offset-diagonal radial kernel."""
    from subplanck.fock import _m_seq
    from subplanck.phasespace import state_diagonals

    def combine(sums, ds, unit):
        # <n|D|n+d> carries (-1)^d e^{-id phi}, <n+d|D|n> carries e^{+id phi}
        total = _ref_phase_series(sums, ds, -np.conj(unit)) + _ref_phase_series(
            np.conj(sums), ds, unit
        )
        return total - sums[0] if ds[0] == 0 else total

    return _ref_angular_accumulate(state_diagonals(state), points, _m_seq, combine)


# ---------------------------------------------------------------------------
# grid quadratures of the phase-space integrals
# ---------------------------------------------------------------------------
# The sums the package used before its Hermite-basis traces: forms 2 and 3,
# pi int Q^2 and the Wigner-gradient slope on sampled default grids, with
# their resolution cross-checks.

class GridResolutionError(SubplanckError):
    """Grid-based evaluation failed its resolution/consistency check."""


def ref_grid_pair_form(state, t, form):
    """Form 2 or 3 on the 256^2 default Wigner grid, cross-checked at 512^2 to 2e-5."""
    from subplanck.phasespace import cached_default_wigner, gaussian_pair_integral

    if form == 2:
        kern = lambda d1, d2: np.exp(-t * (d1**2 + d2**2) / 4.0)
    else:
        kern = lambda d1, d2: (2.0 / t) * np.exp(-(d1**2 + d2**2) / t)
    coarse, fine = (
        gaussian_pair_integral(cached_default_wigner(state, resolution=res), kern)
        for res in (256, 512)
    )
    if abs(fine - coarse) > 2e-5 * max(1.0, abs(fine)):
        raise GridResolutionError(f"form-{form} grid estimates disagree: {coarse!r} vs {fine!r}")
    return fine


def ref_grid_classical(state):
    """pi int d2xi Q^2 summed on the 256^2 default grid."""
    from subplanck.phasespace import default_grid, husimi_grid

    q = husimi_grid(state, default_grid(state))
    return float(np.pi * np.sum(q.values**2) * q.cell_measure)


def _ref_grid_slope(state, resolution):
    from subplanck.phasespace import cached_default_wigner

    grid = cached_default_wigner(state, resolution=resolution)
    w = grid.values
    h1, h2 = grid.spacing
    gx = np.zeros_like(w)
    gy = np.zeros_like(w)
    # fourth-order central differences in the interior; the padded border
    # carries negligible Wigner mass
    gx[2:-2, :] = (8 * (w[3:-1, :] - w[1:-3, :]) - (w[4:, :] - w[:-4, :])) / (12 * h1)
    gy[:, 2:-2] = (8 * (w[:, 3:-1] - w[:, 1:-3]) - (w[:, 4:] - w[:, :-4])) / (12 * h2)
    return -np.pi / 8.0 * float(np.sum(gx**2 + gy**2)) * h1 * h2


def ref_grid_slope(state):
    """-(pi/8) int |grad W|^2 by finite differences at 512^2, then 1024^2,
    returning the first within 1e-3 (relative) of the variance route."""
    from subplanck import quad_moments

    _, _, vx, vp = quad_moments(state)
    variance_value = -(vx + vp) / 2.0
    for resolution in (512, 1024):
        est = _ref_grid_slope(state, resolution)
        if abs(est - variance_value) <= 1e-3 * abs(variance_value):
            return est
    raise GridResolutionError(
        f"gradient-route slope {est!r} disagrees with variance route {variance_value!r}"
    )


# ---------------------------------------------------------------------------
# closed forms and helpers only the tests use
# ---------------------------------------------------------------------------

def compass_slope_factor(a) -> float:
    """(Delta x)^2 + (Delta p)^2 of the compass state, closed form."""
    big_a = float(a) * float(a)
    if big_a > 700.0:
        return 1.0 + 2.0 * big_a
    sh = 0.5 * (1.0 - np.exp(-2.0 * big_a))  # sinh(A) e^{-A}
    ch = 0.5 * (1.0 + np.exp(-2.0 * big_a))
    sn = np.sin(big_a) * np.exp(-big_a)
    cn = np.cos(big_a) * np.exp(-big_a)
    return 1.0 + 2.0 * big_a * (sh - sn) / (ch + cn)


def random_avg_fidelity_series(dim, t) -> float:
    """Literal terminating-hypergeometric double sum (log-domain terms).

    Kept as a cross-check; accurate only for small dim because the series
    alternates with large terms.
    """
    from scipy.special import gammaln

    from subplanck.fidelity import as_t

    t = as_t(t)
    if t == 0:
        return 1.0

    def signed_pow(base, k):
        if k == 0:
            return 1.0
        if base == 0.0:
            return 0.0
        return math.copysign(math.exp(k * math.log(abs(base))), base if k % 2 else 1.0)

    x1 = 1.0 - t * t / 4.0
    x2 = 4.0 - t * t
    log_c = math.log1p(t / 2.0)
    terms = []
    for m in range(dim):
        for n in range(dim):
            for k in range(min(m, n) + 1):
                logt = (
                    gammaln(m + n - k + 1)
                    - gammaln(m - k + 1)
                    - gammaln(n - k + 1)
                    - gammaln(k + 1)
                    - (m + n + 1) * log_c
                )
                sign = -1.0 if k % 2 else 1.0
                first = sign * signed_pow(x1, k)
                # the sign alternation cancels against (1 - 4/t^2)^k < 0
                second = signed_pow(x2, k) * math.exp(
                    (m + n - 2 * k) * math.log(t) - (m + n) * math.log(2.0)
                )
                terms.append(math.exp(logt) * (first + second))
    return math.fsum(terms) / (dim * (dim + 1))


def random_avg_fidelity_mp(dim, t, digits=40) -> float:
    """The terminating double series of random_avg_fidelity_series in mpmath.

    At 40 digits the alternating terms cancel without loss at the double
    precision the result is rounded to.
    """
    with mpmath.workdps(digits):
        t = mpmath.mpf(t)
        x1 = 1 - t * t / 4
        x2 = 4 - t * t
        base = 1 + t / 2
        total = mpmath.mpf(0)
        for m in range(dim):
            for n in range(dim):
                for k in range(min(m, n) + 1):
                    coeff = math.comb(m + n - k, k) * math.comb(m + n - 2 * k, m - k)
                    term = (-x1) ** k + x2**k * t ** (m + n - 2 * k) / mpmath.mpf(2) ** (m + n)
                    total += coeff * term / base ** (m + n + 1)
        return float(total / (dim * (dim + 1)))


def quadrature_curve(state, ts, form=4):
    """FidelityCurve of fidelity_quadrature(state, t, form) over ts."""
    from subplanck.fidelity import FidelityCurve, fidelity_quadrature

    f = np.array([fidelity_quadrature(state, t, form) for t in ts])
    return FidelityCurve(np.asarray(ts, float), f)


def padded_state(state, dim):
    """The same state on a truncation of size dim >= state.dim (zero padding)."""
    if isinstance(state, PureState):
        return PureState(np.pad(state.coeffs, (0, dim - state.dim)), normalize=False, fix_phase=False)
    return DensityOp(np.pad(state.matrix, (0, dim - state.dim)))


def partial_trace_ancilla(joint, dim) -> np.ndarray:
    """Trace out the (major-index) ancilla of a flattened joint pure state."""
    psi = joint.coeffs.reshape(dim, dim)
    return np.einsum("uv,uw->vw", psi, np.conj(psi))


# Largest input dimension `purify` accepts: the joint state has dim^2 coefficients.
DOUBLED_SPACE_LIMIT = 32


def sqrt_density(rho) -> np.ndarray:
    """Positive square root of a density matrix by eigendecomposition."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    if np.min(evals) < -1e-10:
        raise SubplanckError(f"density operator has eigenvalue {np.min(evals):.3e}")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T


def purify(rho) -> PureState:
    """Canonical purification sum_n |n> (x) sqrt(rho)|n> on the doubled space.

    Coefficients are flattened with the ancilla index major: the joint
    amplitude of |u> (x) |v> sits at u * dim + v.  Partial trace over the
    ancilla returns rho.
    """
    rho = rho.density()
    if rho.dim > DOUBLED_SPACE_LIMIT:
        raise SubplanckError(f"purification limited to dim <= {DOUBLED_SPACE_LIMIT}")
    root = sqrt_density(rho)
    psi = root.T.reshape(-1)  # psi[u * dim + v] = root[v, u]
    return PureState(psi, normalize=True, fix_phase=False)


def read_state_csv(path) -> PureState:
    """Inverse of `subplanck.cli.write_state_csv`: rows (n, re_c, im_c) after '#' headers."""
    with open(path) as fh:
        rows = [[float(v) for v in line.split(",")]
                for line in fh if line.strip() and not line.startswith("#")]
    arr = np.array(rows)
    return PureState(arr[:, 1] + 1j * arr[:, 2], normalize=False, fix_phase=False)
