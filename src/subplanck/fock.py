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
any truncation or displacement used here; factorial ratios enter only
through log-gammas.  One private kernel, `_m_seq`, runs that
recurrence along n for all requested offsets d and all points at once,
yielding one slab M_n[d, point] per step; every radial sum in the
package (displacement matrices, the characteristic function on polar
nodes and the entanglement fidelities) contracts those slabs, so a call
costs as many Python steps as the longest diagonal it needs.  The Hermite functions (`hermite_rows`,
`hermite_functions`) serve the position-space projection and the
separable phase-space kernel of `phasespace`.  The teleportation noise
channel needs no radial sums: `_noise_kernel` gives the closed binomial
matrices of its loss and gain stages, on which the averaged channel and
the random-state ensemble average are finite sums.
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

    def padded(self, dim) -> "PureState":
        if dim < self.dim:
            raise ValueError("cannot shrink a state")
        c = np.zeros(dim, dtype=complex)
        c[: self.dim] = self.coeffs
        return PureState(c, normalize=False, fix_phase=False)

    def overlap(self, other) -> complex:
        n = min(self.dim, other.dim)  # tails beyond the common dim do not overlap
        return complex(np.vdot(self.coeffs[:n], other.coeffs[:n]))


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

    def padded(self, dim) -> "DensityOp":
        if dim < self.dim:
            raise ValueError("cannot shrink an operator")
        m = np.zeros((dim, dim), dtype=complex)
        m[: self.dim, : self.dim] = self.matrix
        return DensityOp(m, validate=False)


@dataclass(frozen=True)
class ThermalParams:
    """Mean occupation nbar and inverse temperature lam, nbar=(e^lam-1)^-1."""

    nbar: float
    lam: float

    def __post_init__(self):
        if not 0 <= self.nbar < np.inf:
            raise ValueError("nbar must be finite and >= 0")
        if np.isfinite(self.lam):
            implied = 1.0 / np.expm1(self.lam)
            if abs(implied - self.nbar) > 1e-12 * max(1.0, self.nbar):
                raise ValueError("nbar and lam are inconsistent")
        elif self.nbar != 0:
            raise ValueError("lam = inf requires nbar = 0")

    @classmethod
    def from_nbar(cls, nbar):
        nbar = float(nbar)
        lam = np.inf if nbar == 0 else np.log1p(1.0 / nbar)
        return cls(nbar, lam)

    @classmethod
    def from_lambda(cls, lam):
        lam = float(lam)
        if lam <= 0:
            raise ValueError("lam must be > 0")
        return cls(1.0 / np.expm1(lam), lam)


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
    counts > n, so a call costs counts[0] Python steps.  The slabs are
    read-only and each is a fresh array, so a caller may keep them.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(ds, dtype=float)[:, None]
    counts = np.asarray(counts)
    steps = int(counts[0]) if counts.size else 0
    active = np.count_nonzero(counts[:, None] > np.arange(steps), axis=0)
    # M_0 = x^(d/2) e^(-x/2) / sqrt(d!) in the log domain, so large offsets and
    # far points underflow cleanly to 0; row d = 0 is e^(-x/2) also at x = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(d > 0, 0.5 * d * np.where(x > 0, np.log(x), -np.inf), 0.0)
    cur = np.exp(power - 0.5 * gammaln(d + 1) - x / 2)
    prev = np.zeros_like(cur)
    for n in range(steps):
        k = active[n]
        cur, prev = cur[:k], prev[:k]
        if n:
            m, dk = n - 1, d[:k]
            nxt = np.subtract(2 * m + 1 + dk, x)
            nxt *= cur
            nxt -= np.sqrt(m * (m + dk)) * prev
            nxt /= np.sqrt((m + 1) * (m + 1 + dk))
            cur, prev = nxt, cur
        yield cur


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


def hermite_rows(x, n_max):
    """Yield the oscillator eigenfunctions phi_0(x) .. phi_{n_max-1}(x) (read-only rows).

    The orthonormal Hermite functions by their three-term recurrence,
    holding two rows at a time.
    """
    if n_max < 1:
        return
    prev = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    yield prev
    if n_max > 1:
        cur = np.sqrt(2.0) * x * prev
        yield cur
        for n in range(1, n_max - 1):
            prev, cur = cur, np.sqrt(2.0 / (n + 1)) * x * cur - np.sqrt(n / (n + 1)) * prev
            yield cur


def hermite_functions(x, n_max):
    """Orthonormal oscillator eigenfunctions phi_0..phi_{n_max-1} on x, shape (n_max, x.size).

    The recurrence of `hermite_rows`, filled in place with one scratch
    row: the same arithmetic in the same order, so bit-identical to
    stacking its rows.
    """
    x = np.ravel(x)
    out = np.empty((n_max, x.size))
    if n_max < 1:
        return out
    out[0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    if n_max > 1:
        np.multiply(np.sqrt(2.0) * x, out[0], out=out[1])
        scratch = np.empty(x.size)
        for n in range(1, n_max - 1):
            # out[n+1] = sqrt(2/(n+1)) x out[n] - sqrt(n/(n+1)) out[n-1]
            np.multiply(np.sqrt(2.0 / (n + 1)), x, out=out[n + 1])
            out[n + 1] *= out[n]
            np.multiply(np.sqrt(n / (n + 1)), out[n - 1], out=scratch)
            out[n + 1] -= scratch
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


def displacement_matrices(dim, mus, rows=None) -> np.ndarray:
    """Stack of matrices <m|D(mu)|n>, m < rows (default dim), n < dim.

    Shape (len(mus), rows, dim).  One radial-kernel pass fills every
    offset: <n+d|D|n> = e^{+i d phi} M_n^(d) and <n|D|n+d> =
    (-1)^d e^{-i d phi} M_n^(d), mu = |mu| e^{i phi}.
    """
    if rows is None:
        rows = dim
    mus = np.asarray(mus, dtype=complex).ravel()
    x = np.abs(mus) ** 2
    with np.errstate(invalid="ignore"):
        unit = np.where(x > 0, mus / np.where(x > 0, np.abs(mus), 1.0), 1.0)
    ds = np.arange(max(rows, dim))
    counts = np.maximum(np.minimum(rows, dim - ds), np.minimum(rows - ds, dim))
    mags = np.zeros((mus.size, rows, dim))
    for n, slab in enumerate(_m_seq(ds, counts, x)):
        if n < rows:  # <n|D|n+d>, d >= 0
            hi = min(slab.shape[0], dim - n)
            mags[:, n, n : n + hi] = slab[:hi].T
        if n < dim:  # <n+d|D|n>, d >= 1
            lo = min(slab.shape[0], rows - n)
            mags[:, n + 1 : n + lo, n] = slab[1:lo].T
    offset = np.arange(rows)[:, None] - np.arange(dim)[None, :]
    below = _unit_powers(unit, rows).T[:, np.clip(offset, 0, None)]
    above = _unit_powers(-np.conj(unit), dim).T[:, np.clip(-offset, 0, None)]
    return mags * np.where(offset >= 0, below, above)


def displacement_matrix(dim, mu, rows=None) -> np.ndarray:
    """Dense matrix <m|D(mu)|n> for m < rows (default dim), n < dim."""
    return displacement_matrices(dim, [_as_complex(mu)], rows)[0]


def displace_state(state: PureState, mu) -> np.ndarray:
    """Coefficients of D(mu)|state> in an enlarged truncation.

    With r = sqrt(dim - 1) + |mu|, the output keeps ceil(r^2 + 8 r + 16)
    levels.  The result is not renormalized; its norm deficit measures leakage.
    """
    muc = _as_complex(mu)
    root = np.sqrt(state.dim - 1) + abs(muc)
    mat = displacement_matrix(state.dim, muc, rows=int(np.ceil(root * root + 8 * root + 16)))
    return mat @ state.coeffs


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def _check_tail(probs_beyond, what, override=False):
    if probs_beyond > TAIL_TOL and not override:
        raise TruncationError(
            f"{what}: truncated tail mass {probs_beyond:.3e} exceeds {TAIL_TOL:.0e}; "
            "increase the dimension or pass allow_truncation=True",
            tail=probs_beyond,
        )


def make_coherent(nu, dim=DEFAULT_DIM, allow_truncation=False) -> PureState:
    """Coherent state |nu>: c_n = e^{-|nu|^2/2} nu^n / sqrt(n!)."""
    nuc = _as_complex(nu)
    x = abs(nuc) ** 2
    n = np.arange(dim)
    if x == 0:
        c = np.zeros(dim, dtype=complex)
        c[0] = 1.0
        return PureState(c, normalize=False)
    logmag = 0.5 * n * np.log(x) - 0.5 * gammaln(n + 1) - x / 2
    phase = (nuc / abs(nuc)) ** n
    c = np.exp(logmag) * phase
    tail = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    _check_tail(tail, "make_coherent", allow_truncation)
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


def make_squeezed(u, dim=DEFAULT_DIM, allow_truncation=False) -> PureState:
    """Squeezed vacuum exp(u (b^2 - b+^2)/2)|0>; x-quadrature squeezed for u>0.

    Only even coefficients are populated:
    c_{2k} = (cosh u)^{-1/2} (-tanh u)^k sqrt((2k)!) / (2^k k!).
    """
    u = float(u)
    c = np.zeros(dim, dtype=complex)
    k = np.arange((dim + 1) // 2)
    th = np.tanh(u)
    if th == 0:
        c[0] = 1.0
        return PureState(c, normalize=False)
    logmag = (
        k * np.log(abs(th))
        + 0.5 * gammaln(2 * k + 1)
        - k * np.log(2.0)
        - gammaln(k + 1)
        - 0.5 * np.log(np.cosh(u))
    )
    vals = np.exp(logmag) * np.where(th > 0, (-1.0) ** k, 1.0)
    c[2 * k] = vals
    tail = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    _check_tail(tail, "make_squeezed", allow_truncation)
    return PureState(c)


def make_compass(a, dim=DEFAULT_DIM, allow_truncation=False) -> PureState:
    """Four-lobe superposition of |a>, |-a>, |ia>, |-ia| (a real >= 0).

    Coefficients live on n = 0 mod 4:
    c_n = 2 a^n / (sqrt(n!) sqrt(2 (cosh a^2 + cos a^2))).
    """
    a = float(a)
    if a < 0:
        raise ValueError("a must be >= 0")
    c = np.zeros(dim, dtype=complex)
    if a == 0:
        c[0] = 1.0
        return PureState(c, normalize=False)
    big_a = a * a
    n = np.arange(0, dim, 4)
    # log of sqrt(2 (cosh A + cos A)) without overflowing cosh
    lognorm = 0.5 * (big_a + np.log1p(np.exp(-2 * big_a) + 2 * np.exp(-big_a) * np.cos(big_a)))
    logmag = np.log(2.0) + n * np.log(a) - 0.5 * gammaln(n + 1) - lognorm
    c[n] = np.exp(logmag)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    _check_tail(tail, "make_compass", allow_truncation)
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


def make_thermal(params, dim=DEFAULT_DIM, allow_truncation=False) -> DensityOp:
    """Thermal state, diagonal (1 - e^-lam) e^{-lam n}, renormalized."""
    if not isinstance(params, ThermalParams):
        params = ThermalParams.from_nbar(params)
    if params.nbar == 0:
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return DensityOp(m, validate=False)
    q = np.exp(-params.lam)
    p = (1 - q) * q ** np.arange(dim)
    tail = max(0.0, 1.0 - float(np.sum(p)))
    _check_tail(tail, "make_thermal", allow_truncation)
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
