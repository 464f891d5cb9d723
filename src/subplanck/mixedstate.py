"""Entanglement fidelity for mixed inputs and the two-variable functions.

The two-variable characteristic function PHI(mu, alpha) =
tr[rho D+(mu) rho D(alpha)] and its Fourier partner WW(beta, nu) =
tr[rho Dtilde(beta) rho Dtilde(nu)] / pi^2 replace |Phi|^2 and the
Wigner product when the teleported state is mixed; for pure rho they
factorize.  The outcome-averaged entanglement fidelity is evaluated two
ways (the single-variable noise integral and the PHI(mu, mu) integral),
whose agreement exercises the displacement-group orthogonality
numerically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SubplanckError
from .fidelity import ScaleReport, _char_sq_quadrature, _sized_polar_quadrature, as_t
from .fock import (
    DensityOp,
    PureState,
    _as_complex,
    _m_seq,
    displacement_matrices,
    displacement_matrix,
    quad_moments,
)
from .phasespace import trimmed_support

DOUBLED_SPACE_LIMIT = 32


def _as_density(rho) -> DensityOp:
    return rho.density() if isinstance(rho, PureState) else rho


@dataclass(frozen=True)
class BoldEval:
    """One evaluation of the two-variable characteristic function.

    At equal arguments the value is real and nonnegative; at the origin
    it equals the purity tr rho^2.
    """

    mu: object
    alpha: object
    value: complex

    @classmethod
    def evaluate(cls, rho, mu, alpha):
        return cls(mu, alpha, bold_phi(rho, mu, alpha))


def bold_phi(rho, mu, alpha) -> complex:
    """Two-variable characteristic function tr[rho D+(mu) rho D(alpha)]."""
    rho = _as_density(rho)
    dmu = displacement_matrix(rho.dim, _as_complex(mu))
    dal = displacement_matrix(rho.dim, _as_complex(alpha))
    return complex(np.trace(rho.matrix @ dmu.conj().T @ rho.matrix @ dal))


def _parity_kernel(dim, point):
    signs = (-1.0) ** np.arange(dim)
    return 2.0 * displacement_matrix(dim, 2.0 * _as_complex(point)) * signs[None, :]


def bold_w(rho, beta, nu) -> float:
    """Two-variable Wigner-like function tr[rho Dt(beta) rho Dt(nu)]/pi^2."""
    rho = _as_density(rho)
    d1 = _parity_kernel(rho.dim, beta)
    d2 = _parity_kernel(rho.dim, nu)
    val = np.trace(rho.matrix @ d1 @ rho.matrix @ d2) / np.pi**2
    return float(val.real)


# ---------------------------------------------------------------------------
# PHI(mu, mu) on quadrature nodes
# ---------------------------------------------------------------------------

def _bold_phi_diag_radial(probs, x):
    """PHI(mu, mu) for diagonal rho: sum over |<m|D|n>|^2, radial only."""
    dim = probs.size
    ds = np.arange(dim)
    pairs = np.where(ds > 0, 2.0, 1.0)  # (n+d, n) and (n, n+d) for d > 0
    out = np.zeros_like(x)
    for n, slab in enumerate(_m_seq(ds, dim - ds, x)):
        k = slab.shape[0]
        out += (pairs[:k] * probs[n : n + k] * probs[n]) @ (slab * slab)
    return out


def _bold_phi_equal_batch(evals, evecs, mus):
    """PHI(mu, mu) = sum_ij lam_i lam_j |<v_i|D(mu)|v_j>|^2 for many mu."""
    dim, chunk = evals.size, 256  # chunk: displacement matrices built at once
    mus = np.asarray(mus, complex).ravel()
    out = np.empty(mus.size)
    for lo in range(0, mus.size, chunk):
        batch = mus[lo : lo + chunk]
        dmats = displacement_matrices(dim, batch)
        x = np.einsum("ai,kab,bj->kij", np.conj(evecs), dmats, evecs, optimize=True)
        out[lo : lo + chunk] = np.einsum(
            "i,j,kij->k", evals, evals, np.abs(x) ** 2, optimize=True
        ).real
    return out


def entanglement_fidelity(rho, t) -> float:
    """Outcome-averaged entanglement fidelity, int d2mu Ptilde(mu) PHI(mu, mu).

    Radial-angular quadrature exact for the truncated state, sized from
    its trimmed Fock support like the pure-state forms; reduces to the
    ordinary average fidelity when rho is pure.
    """
    rho = _as_density(rho)
    t = as_t(t)
    if t == 0:
        return 1.0
    support = trimmed_support(rho)
    mat = rho.matrix[:support, :support]
    off_diag = np.max(np.abs(mat - np.diag(np.diagonal(mat))))
    if off_diag < 1e-14:
        probs = np.real(np.diagonal(mat))

        def angular_mean(x, theta, wt):
            return _bold_phi_diag_radial(probs, x)

    else:
        if rho.dim > DOUBLED_SPACE_LIMIT:
            raise SubplanckError(
                f"general mixed-state quadrature limited to dim <= {DOUBLED_SPACE_LIMIT}"
            )
        evals, evecs = np.linalg.eigh(mat)
        evals = np.clip(evals, 0.0, None)

        def angular_mean(x, theta, wt):
            mus = np.sqrt(x)[:, None] * np.exp(1j * theta)[None, :]
            return _bold_phi_equal_batch(evals, evecs, mus).reshape(mus.shape) @ wt

    return _sized_polar_quadrature(rho, 1.0 + t / 2.0, lambda x: np.exp(-t * x / 2.0), 1.0,
                                   angular_mean)


def entanglement_fidelity_direct(rho, t) -> float:
    """Same quantity from the noise-distribution side: int d2nu P(nu)|Phi|^2.

    This is fidelity form 1 applied to rho, with its support-sized rule.
    """
    rho = _as_density(rho)
    t = as_t(t)
    if t == 0:
        return 1.0
    return _char_sq_quadrature(rho, 1.0 + 2.0 / t, lambda x: np.exp(-2.0 * x / t), 2.0 / t)


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def sqrt_density(rho: DensityOp) -> np.ndarray:
    evals, evecs = np.linalg.eigh(rho.matrix)
    if np.min(evals) < -1e-10:
        raise SubplanckError(f"density operator has eigenvalue {np.min(evals):.3e}")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T


def purify(rho: DensityOp) -> PureState:
    """Canonical purification sum_n |n> (x) sqrt(rho)|n> on the doubled space.

    Coefficients are flattened with the ancilla index major: the joint
    amplitude of |u> (x) |v> sits at u * dim + v.  Partial trace over the
    ancilla returns rho.
    """
    rho = _as_density(rho)
    if rho.dim > DOUBLED_SPACE_LIMIT:
        raise SubplanckError(f"purification limited to dim <= {DOUBLED_SPACE_LIMIT}")
    root = sqrt_density(rho)
    psi = root.T.reshape(-1)  # psi[u * dim + v] = root[v, u]
    return PureState(psi, normalize=True, fix_phase=False)


def mixed_scale_report(rho, label="") -> ScaleReport:
    """Scale measures for a mixed state, from its quadrature variances."""
    rho = _as_density(rho)
    _, _, vx, vp = quad_moments(rho)
    total = vx + vp
    slope0 = -total / 2.0
    return ScaleReport(
        slope0=slope0,
        t_crit=1.0 / abs(slope0),
        fine_scale=1.0 / np.sqrt(total),
        extent=2.0 * np.sqrt(total),
        state=label,
    )
