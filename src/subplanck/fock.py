"""Truncated Fock-basis states and displacement-operator machinery.

Conventions (used throughout the package):

* annihilation operator a = (x + i p) / sqrt(2), [x, p] = i, so the
  vacuum has Delta x = Delta p = 1/sqrt(2);
* complex amplitudes decompose as alpha = (alpha1 + i alpha2)/sqrt(2),
  with alpha1, alpha2 the dimensionless position/momentum variables, so
  |alpha|^2 = (alpha1^2 + alpha2^2)/2;
* the phase-space measure is d2alpha = d alpha1 d alpha2 / 2.

Displacement matrix elements <m|D(mu)|n> are evaluated through scaled
generalized-Laguerre recurrences whose iterates are the matrix elements
themselves (magnitude <= 1), so they neither overflow nor underflow for
any truncation or displacement used here: factorial ratios enter only
through log-gammas, and points whose start e^{-x/2} would underflow
(x > 1400) run scaled.
One private kernel, `_m_seq`, runs that recurrence along n for all
requested offsets d and all points at once, yielding one slab
M_n[d, point] per step.  It is the package's only Laguerre recurrence:
every radial sum (square displacement matrices, the characteristic function
on polar nodes, the entanglement fidelities) and the Gauss-Laguerre weights
of `quadrature` contract its slabs, so a call costs as many Python steps
as the longest diagonal it needs; the recurrence coefficients are
tabulated once per call (per block of steps), so a step costs five
in-place array operations.  Likewise `_hermite_rows` is the only
Hermite recurrence (scaled past x^2/2 = 700), for the position-space
projection and the separable phase-space kernel of `phasespace`.  The
teleportation noise channel needs no radial sums: `_noise_kernel` gives
the closed binomial matrices of its loss and gain stages, on which the
averaged channel and the random-state ensemble average are finite sums.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import TruncationError, TruncationWarning

DEFAULT_DIM = 64
TAIL_TOL = 1e-10
EDGE_MASS_TOL = 1e-8


def make_rng(seed):
    """Seedable counter-based generator (Philox) used for all sampling."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ComplexAmplitude:
    """Phase-space point with quadrature components (q1, q2).

    The complex value is (q1 + i q2)/sqrt(2).
    """

    q1: float
    q2: float = 0.0

    @property
    def value(self) -> complex:
        return (self.q1 + 1j * self.q2) / np.sqrt(2.0)

    @property
    def abs2(self) -> float:
        return (self.q1 * self.q1 + self.q2 * self.q2) / 2.0

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        return cls(np.sqrt(2.0) * z.real, np.sqrt(2.0) * z.imag)

    def __complex__(self):
        return self.value


def _as_complex(point) -> complex:
    if isinstance(point, ComplexAmplitude):
        return point.value
    return complex(point)


def _canonical_phase(c):
    k = int(np.argmax(np.abs(c)))
    pivot = c[k]
    if abs(pivot) > 0:
        c = c * (abs(pivot) / pivot)
        c[k] = abs(c[k])  # exactly real
    return c


class PureState:
    """Normalized coefficient vector over the lowest `dim` number states.

    The global phase is fixed by making the largest-magnitude coefficient
    real and positive, so constructions are reproducible bit for bit.
    """

    def __init__(self, coeffs, normalize=True, fix_phase=True):
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1-D vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if normalize:
            nrm = np.linalg.norm(c)
            if nrm == 0:
                raise ValueError("zero vector is not a state")
            c /= nrm
        if fix_phase:
            c = _canonical_phase(c)
        nrm2 = float(np.sum(np.abs(c) ** 2))
        if abs(nrm2 - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 deviates from 1 by {nrm2 - 1.0:.3e}")
        c.setflags(write=False)
        self.coeffs = c

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def density(self) -> "DensityOp":
        return DensityOp(np.outer(self.coeffs, self.coeffs.conj()), validate=False)

    def diagonal(self, d) -> np.ndarray:
        """w_d[n] = rho_{n+d, n} = c_{n+d} conj(c_n) for offset d >= 0 (a fresh array)."""
        c = self.coeffs
        return c[d:] * np.conj(c[: c.size - d])


class DensityOp:
    """Hermitian, unit-trace, positive matrix on the truncated space."""

    def __init__(self, matrix, validate=True):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if validate:
            if not np.all(np.isfinite(m)):
                raise ValueError("matrix entries must be finite")
            herm = np.max(np.abs(m - m.conj().T))
            if herm > 1e-12:
                raise ValueError(f"matrix not Hermitian (deviation {herm:.3e})")
            m = (m + m.conj().T) / 2
            tr = float(np.real(np.trace(m)))
            if abs(tr - 1.0) > 1e-10:
                raise ValueError(f"trace deviates from 1 by {tr - 1.0:.3e}")
            lo = float(np.min(np.linalg.eigvalsh(m)))
            if lo < -1e-10:
                raise ValueError(f"negative eigenvalue {lo:.3e}")
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> "DensityOp":
        return self

    def diagonal(self, d) -> np.ndarray:
        """w_d[n] = rho_{n+d, n} for offset d >= 0 (a fresh array)."""
        return np.diagonal(self.matrix, offset=-d).copy()

# ---------------------------------------------------------------------------
# displacement matrix elements
# ---------------------------------------------------------------------------

def _m_seq(ds, counts, x):
    """Slabs M_n[d, point] of M_n^(d)(x) = sqrt(n!/(n+d)!) x^(d/2) e^(-x/2) L_n^(d)(x).

    These are the magnitudes of <n|D(mu)|n+d> at x = |mu|^2, bounded by 1
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), by the scaled
    generalized-Laguerre recurrence along n, vectorized over offsets ds
    and the 1-D points x:

        M_{n+1} = ((2n+1+d - x) M_n - sqrt(n (n+d)) M_{n-1}) / sqrt((n+1) (n+1+d)).

    Yields M_n, n = 0 .. counts[0] - 1.  `counts` (iterates wanted per
    offset) must be nonincreasing: M_n holds only the leading rows with
    counts > n, so a call costs counts[0] Python steps.  The coefficients
    2n+1+d and sqrt(n(n+d)) are tabulated for all offsets once per block of
    max(x.size, 16) steps (so a table holds no more values than a slab, or
    than 16 rows of offsets), and each step reads its rows.  The slabs are
    read-only views of three buffers that the call reuses, and each is
    overwritten two steps after it is yielded: a caller that keeps slabs
    must copy them.  Far-point slabs are fresh copies.

    Far points (x > 1400, near where the start e^(-x/2) underflows)
    would read 0 although M_n grows back to O(1) by n ~ x/4, so their
    columns of the one run carry M = cur e^scale: they start at cur = 1,
    scale = ln M_0, and cur is divided by 1e120 (scale raised by ln 1e120)
    wherever it passes 1e120; the slab holds them unscaled.  Every other
    point runs unscaled, and a call with no far point does no extra work.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(ds, dtype=float)[:, None]
    counts = np.asarray(counts)
    steps = int(counts[0]) if counts.size else 0
    active = np.count_nonzero(counts[:, None] > np.arange(steps), axis=0).tolist()
    block = max(16, x.size)  # steps per coefficient table
    # M_0 = x^(d/2) e^(-x/2) / sqrt(d!) in the log domain, so large offsets
    # underflow cleanly to 0; row d = 0 is e^(-x/2) also at x = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(d > 0, 0.5 * d * np.where(x > 0, np.log(x), -np.inf), 0.0)
    log_m0 = power - 0.5 * gammaln(d + 1) - x / 2
    far = np.flatnonzero(x > 1400.0)
    scale = log_m0[:, far]
    cur = np.exp(log_m0)
    cur[:, far] = 1.0
    prev = np.zeros_like(cur)
    spare = np.empty_like(cur)
    for n in range(steps):
        k = active[n]
        cur, prev, spare = cur[:k], prev[:k], spare[:k]
        if n:
            i = (n - 1) % block
            if not i:  # coefficient rows m = n - 1 .. n - 2 + block
                m = np.arange(n - 1, min(n + block, steps))[:, None, None]
                diag, root = 2 * m[:-1] + 1 + d, np.sqrt(m * (m + d))  # root[i + 1]: m + 1
            nxt = np.subtract(diag[i, :k], x, out=spare)
            nxt *= cur
            prev *= root[i, :k]  # M_{n-2} is spent: scale it in place
            nxt -= prev
            nxt /= root[i + 1, :k]
            cur, prev, spare = nxt, cur, prev
        if not far.size:
            yield cur
            continue
        scale = scale[:k]
        big = np.abs(cur[:, far]) > 1e120
        if big.any():
            rows, cols = np.nonzero(big)
            cur[rows, far[cols]] *= 1e-120
            prev[rows, far[cols]] *= 1e-120
            scale[big] += np.log(1e120)
        out = cur.copy()
        out[:, far] *= np.exp(scale)
        yield out


def _noise_kernel(nbar, d, rows, cols):
    """B_d[a, b] = sqrt(C(a+d, a-b) C(a, a-b)) eta^(b+d/2) (1-eta)^(a-b), a >= b, else 0.

    Rows a < rows, columns b < cols <= rows, eta = 1/(1 + nbar).  On the
    diagonal w[n] = rho_{n+d, n}, loss of transmissivity eta is
    w -> B_d^T w and the quantum-limited amplifier of gain 1/eta is
    w -> eta B_d w; together they add Gaussian noise of nbar quanta
    (Caruso, Giovannetti & Holevo, New J. Phys. 8, 310 (2006)).  Formed
    in the log domain from one log-factorial table (entries are positive).
    """
    a = np.arange(rows)[:, None]
    b = np.arange(cols)[None, :]
    j = np.maximum(a - b, 0)
    lf = gammaln(np.arange(rows + d) + 1.0)
    log_eta = -np.log1p(nbar)
    log_b = (
        0.5 * (lf[a + d] + lf[a] - lf[b + d] - lf[b])
        - lf[j]
        + (b + d / 2.0) * log_eta
        + j * (np.log(nbar) + log_eta)
    )
    return np.where(a >= b, np.exp(log_b), 0.0)


def _unit_powers(z, count):
    """z^0 .. z^(count-1) stacked on a new first axis, by repeated multiplication."""
    out = np.empty((count,) + np.shape(z), dtype=complex)
    out[0] = 1.0
    for k in range(1, count):
        np.multiply(out[k - 1], z, out=out[k])
    return out


def _hermite_rows(x, n_max, buf):
    """Yield phi_n(x), n < n_max, each row written in place into buf[n % len(buf)].

    The orthonormal oscillator eigenfunctions by their three-term recurrence
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1} from
    phi_0 = pi^(-1/4) e^(-x^2/2), on 1-D x.  buf has rows of x.size values,
    three at least (or n_max), and a yielded row is overwritten len(buf)
    steps later.  Far points (x^2/2 > 700, near where phi_0 underflows)
    would read 0 although phi_n grows back to O(1) by n ~ x^2/2, so they
    also run the recurrence as phi = cur e^scale: cur starts at 1, scale at
    ln phi_0, and cur is divided by 1e120 (scale raised by ln 1e120, and
    the kept e^scale refreshed) wherever it passes 1e120; the rows hold
    them unscaled.  A call with no far point does no extra work.
    """
    half = x**2 / 2.0
    far = np.flatnonzero(half > 700.0)
    xf, scale = x[far], np.log(np.pi**-0.25) - half[far]
    cur, prev, unscale = np.ones(far.size), np.zeros(far.size), np.exp(scale)
    for n in range(n_max):
        row = buf[n % len(buf)]
        if n == 0:
            np.multiply(np.pi**-0.25, np.exp(-half), out=row)
        elif n == 1:
            np.multiply(np.sqrt(2.0) * x, buf[0], out=row)
        else:
            m = n - 1  # row = sqrt(2/(m+1)) x phi_m - sqrt(m/(m+1)) phi_{m-1}
            np.multiply(np.sqrt(2.0 / (m + 1)), x, out=row)
            row *= buf[m % len(buf)]
            row -= np.sqrt(m / (m + 1)) * buf[(m - 1) % len(buf)]
        if far.size:
            if n:
                cur, prev = np.sqrt(2.0 / n) * xf * cur - np.sqrt((n - 1) / n) * prev, cur
                big = np.abs(cur) > 1e120
                if big.any():
                    cur[big] *= 1e-120
                    prev[big] *= 1e-120
                    scale[big] += np.log(1e120)
                    unscale[big] = np.exp(scale[big])
            row[far] = cur * unscale
        yield row


def hermite_functions(x, n_max):
    """Orthonormal oscillator eigenfunctions phi_0..phi_{n_max-1} on x, shape (n_max, x.size)."""
    x = np.ravel(x)
    out = np.empty((n_max, x.size))
    for _ in _hermite_rows(x, n_max, out):
        pass
    return out


def displacement_element(m, n, mu) -> complex:
    """Matrix element <m|D(mu)|n> of the displacement operator."""
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be nonnegative")
    muc = _as_complex(mu)
    x = abs(muc) ** 2
    d = abs(m - n)
    *_, last = _m_seq([d], [min(m, n) + 1], np.array([x]))
    mag = float(last[0, 0])
    if not np.isfinite(mag):
        raise OverflowError("displacement element lost finiteness")
    if x == 0:
        return 1.0 + 0j if m == n else 0.0 + 0j
    phase = (muc / abs(muc)) ** d
    if m >= n:
        return complex(mag * phase)
    return complex(mag * np.conj(phase) * (-1) ** d)


def displacement_matrices(dim, mus) -> np.ndarray:
    """Stack of matrices <m|D(mu)|n>, m, n < dim.

    Shape (len(mus), dim, dim).  One radial-kernel pass fills every
    offset: <n+d|D|n> = e^{+i d phi} M_n^(d) and <n|D|n+d> =
    (-1)^d e^{-i d phi} M_n^(d), mu = |mu| e^{i phi}.  A slice of a larger
    one, `displacement_matrix(R, mu)[:, :dim]`, displaces dim levels into R.
    """
    mus = np.asarray(mus, dtype=complex).ravel()
    x = np.abs(mus) ** 2
    with np.errstate(invalid="ignore"):
        unit = np.where(x > 0, mus / np.where(x > 0, np.abs(mus), 1.0), 1.0)
    ds = np.arange(dim)
    mags = np.zeros((mus.size, dim, dim))
    for n, slab in enumerate(_m_seq(ds, dim - ds, x)):
        mags[:, n, n:] = slab.T  # <n|D|n+d>, d >= 0
        mags[:, n + 1 :, n] = slab[1:].T  # <n+d|D|n>, d >= 1
    offset = ds[:, None] - ds[None, :]
    below = _unit_powers(unit, dim).T[:, np.clip(offset, 0, None)]
    above = _unit_powers(-np.conj(unit), dim).T[:, np.clip(-offset, 0, None)]
    return mags * np.where(offset >= 0, below, above)


def displacement_matrix(dim, mu) -> np.ndarray:
    """Dense matrix <m|D(mu)|n> for m, n < dim."""
    return displacement_matrices(dim, [_as_complex(mu)])[0]


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def _check_tail(probs, what):
    """Raise TruncationError when the dropped tail max(0, 1 - sum(probs)) exceeds TAIL_TOL."""
    tail = max(0.0, 1.0 - float(np.sum(probs)))
    if tail > TAIL_TOL:
        raise TruncationError(
            f"{what}: truncated tail mass {tail:.3e} exceeds {TAIL_TOL:.0e}; "
            "increase the dimension",
            tail=tail,
        )


def make_coherent(nu, dim=DEFAULT_DIM) -> PureState:
    """Coherent state |nu>: c_n = e^{-|nu|^2/2} nu^n / sqrt(n!)."""
    nuc = _as_complex(nu)
    x = abs(nuc) ** 2
    if x == 0:
        return make_number(0, dim)
    n = np.arange(dim)
    logmag = 0.5 * n * np.log(x) - 0.5 * gammaln(n + 1) - x / 2
    phase = (nuc / abs(nuc)) ** n
    c = np.exp(logmag) * phase
    _check_tail(np.abs(c) ** 2, "make_coherent")
    return PureState(c)


def make_number(n, dim=DEFAULT_DIM) -> PureState:
    """Number state |n>."""
    if n < 0:
        raise ValueError(f"number-state index {n} < 0")
    if n >= dim:
        raise IndexError(f"number-state index {n} >= dim {dim}")
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return PureState(c, normalize=False)


def make_squeezed(u, dim=DEFAULT_DIM) -> PureState:
    """Squeezed vacuum exp(u (b^2 - b+^2)/2)|0>; x-quadrature squeezed for u>0.

    Only even coefficients are populated:
    c_{2k} = (cosh u)^{-1/2} (-tanh u)^k sqrt((2k)!) / (2^k k!).
    """
    u = float(u)
    th = np.tanh(u)
    if th == 0:
        return make_number(0, dim)
    c = np.zeros(dim, dtype=complex)
    k = np.arange((dim + 1) // 2)
    logmag = (
        k * np.log(abs(th))
        + 0.5 * gammaln(2 * k + 1)
        - k * np.log(2.0)
        - gammaln(k + 1)
        - 0.5 * np.log(np.cosh(u))
    )
    vals = np.exp(logmag) * np.where(th > 0, (-1.0) ** k, 1.0)
    c[2 * k] = vals
    _check_tail(np.abs(c) ** 2, "make_squeezed")
    return PureState(c)


def make_compass(a, dim=DEFAULT_DIM) -> PureState:
    """Four-lobe superposition of |a>, |-a>, |ia>, |-ia| (a real >= 0).

    Coefficients live on n = 0 mod 4:
    c_n = 2 a^n / (sqrt(n!) sqrt(2 (cosh a^2 + cos a^2))).
    """
    a = float(a)
    if a < 0:
        raise ValueError("a must be >= 0")
    if a == 0:
        return make_number(0, dim)
    c = np.zeros(dim, dtype=complex)
    big_a = a * a
    n = np.arange(0, dim, 4)
    # log of sqrt(2 (cosh A + cos A)) without overflowing cosh
    lognorm = 0.5 * (big_a + np.log1p(np.exp(-2 * big_a) + 2 * np.exp(-big_a) * np.cos(big_a)))
    logmag = np.log(2.0) + n * np.log(a) - 0.5 * gammaln(n + 1) - lognorm
    c[n] = np.exp(logmag)
    _check_tail(np.abs(c) ** 2, "make_compass")
    return PureState(c)


def make_random(dim, seed=None, rng=None) -> PureState:
    """Haar-uniform random unit vector in `dim` dimensions.

    Components are iid standard complex Gaussians, normalized.  Pass
    either a seed (Philox stream) or an explicit generator.
    """
    if rng is None:
        rng = make_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z)


def make_thermal(nbar, dim=DEFAULT_DIM) -> DensityOp:
    """Thermal state, diagonal (1 - q) q^n with q = nbar/(nbar + 1), renormalized; nbar finite, >= 0."""
    nbar = float(nbar)
    if not 0 <= nbar < np.inf:
        raise ValueError("nbar must be finite and >= 0")
    if nbar == 0:
        return make_number(0, dim).density()
    q = np.exp(-np.log1p(1.0 / nbar))
    p = (1 - q) * q ** np.arange(dim)
    _check_tail(p, "make_thermal")
    p /= np.sum(p)
    return DensityOp(np.diag(p.astype(complex)), validate=False)


# ---------------------------------------------------------------------------
# quadrature moments
# ---------------------------------------------------------------------------

def quad_moments(state):
    """(mean x, mean p, var x, var p) of a PureState or DensityOp.

    Read off the offset diagonals w_d[n] = rho_{n+d, n} for d = 0, 1, 2:
    <N> = sum n w_0[n], <a> = sum sqrt(n+1) w_1[n] and <a^2> =
    sum sqrt((n+1)(n+2)) w_2[n], so <x> + i<p> = sqrt2 <a>,
    <x^2> = <N> + 1/2 + Re<a^2> and <p^2> = <N> + 1/2 - Re<a^2>.  These are
    exact for the stored entries.  A warning still fires when the top
    level carries mass > 1e-8: such a state is a poor stand-in for
    whatever it truncates.
    """
    w0, w1, w2 = (state.diagonal(d) for d in range(3))
    edge = float(np.real(w0[-1]))
    if edge > EDGE_MASS_TOL:
        warnings.warn(
            f"top Fock level holds mass {edge:.2e}; moments may be unreliable",
            TruncationWarning,
        )
    n = np.arange(w0.size)
    num = float(np.real(w0) @ n)
    mean = complex(np.sqrt(2.0) * (w1 @ np.sqrt(n[1:])))  # <x> + i <p>
    a2 = float(np.real(w2) @ np.sqrt(n[1:-1] * n[2:]))
    mx, mp = mean.real, mean.imag
    return mx, mp, num + 0.5 + a2 - mx * mx, num + 0.5 - a2 - mp * mp
