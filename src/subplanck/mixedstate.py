"""Entanglement fidelity for mixed inputs and the two-variable functions.

The two-variable characteristic function PHI(mu, alpha) =
tr[rho D+(mu) rho D(alpha)] and its Fourier partner WW(beta, nu) =
tr[rho Dtilde(beta) rho Dtilde(nu)] / pi^2 replace |Phi|^2 and the
Wigner product when the teleported state is mixed; for pure rho they
factorize.  The outcome-averaged entanglement fidelity is evaluated two
ways (the single-variable noise integral and the PHI(mu, mu) integral),
whose agreement exercises the displacement-group orthogonality
numerically.  PHI(mu, mu) is averaged over angle in closed form, so neither
route has a dimension limit.
"""

import numpy as np

from .fidelity import _sized_polar_quadrature, as_t
from .fock import _as_complex, _m_seq, displacement_matrix
from .phasespace import CHUNK_ELEMENTS, _char_sq_radial, trimmed_support


def bold_phi(rho, mu, alpha) -> complex:
    """Two-variable characteristic function tr[rho D+(mu) rho D(alpha)].

    At equal arguments the value is real and nonnegative; at the origin
    it equals the purity tr rho^2.
    """
    rho = rho.density()
    dmu = displacement_matrix(rho.dim, _as_complex(mu))
    dal = displacement_matrix(rho.dim, _as_complex(alpha))
    return complex(np.trace(rho.matrix @ dmu.conj().T @ rho.matrix @ dal))


def _parity_kernel(dim, point):
    signs = (-1.0) ** np.arange(dim)
    return 2.0 * displacement_matrix(dim, 2.0 * _as_complex(point)) * signs[None, :]


def bold_w(rho, beta, nu) -> float:
    """Two-variable Wigner-like function tr[rho Dt(beta) rho Dt(nu)]/pi^2."""
    rho = rho.density()
    d1 = _parity_kernel(rho.dim, beta)
    d2 = _parity_kernel(rho.dim, nu)
    val = np.trace(rho.matrix @ d1 @ rho.matrix @ d2) / np.pi**2
    return float(val.real)


# ---------------------------------------------------------------------------
# PHI(mu, mu) on quadrature nodes
# ---------------------------------------------------------------------------

def _bold_phi_radial(diags, x):
    """Angular mean of PHI(mu, mu) on radial nodes x = |mu|^2, in closed form.

    <m|D(mu)|n> = e^{i(m-n)phi} R_mn(x) with R real and |R| = M_n^(k)(x)
    for the pair (n, n+k) in either order (`fock._m_seq`), so the mean
    over phi keeps the terms of tr[rho D+ rho D] pairing equal offsets:

        <PHI>(x) = sum_{d,k>=0} c_d c_k sum_n Re(w_d[n] conj(w_d[n+k])) M_n^(k)(x) M_{n+d}^(k)(x),

    c_0 = 1, c_{>0} = 2, over the trimmed diagonals [(d, w_d)] in
    increasing d, w_d[n] = rho_{n+d,n}; a diagonal rho keeps only d = 0.
    The pairing reaches back d_max slabs at most, so the last d_max slabs
    are copied into a ring (a diagonal rho copies none), and the d_max + 1
    slabs held per node block hold at most CHUNK_ELEMENTS values.
    """
    dim = trimmed_support(diags)
    ks = np.arange(dim)
    c_k = np.where(ks[None, :] > ks[:, None], 2.0, 1.0)  # at (n, n + k)
    grams = [(2.0 if d else 1.0) * c_k[: w.size, : w.size] * np.real(np.outer(w, np.conj(w)))
             for d, w in diags]  # G_d[n, n + k] = c_d c_k Re(w_d[n] conj(w_d[n + k]))
    span = diags[-1][0]  # d_max
    held = (span + 1) * dim - span * (span + 1) // 2  # rows of slabs 0 .. d_max, the most at once
    out = np.zeros(x.size)
    block = max(1, CHUNK_ELEMENTS // held)  # nodes per block
    for lo in range(0, x.size, block):
        acc = out[lo : lo + block]
        ring = [np.empty((dim - j, acc.size)) for j in range(span)]  # slab m in ring[m % span]
        for m, slab in enumerate(_m_seq(ks, dim - ks, x[lo : lo + block])):
            for (d, w), g in zip(diags, grams):
                n = m - d  # M_n pairs with M_{n+d} over k < w_d.size - n
                if n < 0:
                    break
                if n < w.size:
                    k = w.size - n
                    acc += g[n, n:] @ ((ring[n % span] if d else slab)[:k] * slab[:k])
            if span:
                ring[m % span][: slab.shape[0]] = slab  # after use: it frees slab m - span
    return out


def entanglement_fidelity(rho, t) -> float:
    """Outcome-averaged entanglement fidelity, int d2mu Ptilde(mu) PHI(mu, mu).

    The angle is averaged in closed form (`_bold_phi_radial`); the radial
    rule is sized from the trimmed Fock support, with the cross-check of
    the pure-state forms, and there is no dimension limit.  Reduces to the
    ordinary average fidelity when rho is pure.
    """
    t = as_t(t)
    if t == 0:
        return 1.0
    return _sized_polar_quadrature(rho, t / 2.0, 1.0, _bold_phi_radial)


def entanglement_fidelity_direct(rho, t) -> float:
    """Same quantity from the noise-distribution side: int d2nu P(nu)|Phi|^2.

    This is fidelity form 1 applied to rho, with its support-sized rule.
    """
    t = as_t(t)
    if t == 0:
        return 1.0
    return _sized_polar_quadrature(rho, 2.0 / t, 2.0 / t, _char_sq_radial)
