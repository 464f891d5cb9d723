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
    """Average fidelity via numpy laggauss + uniform angles, fully separate."""
    if t == 0:
        return 1.0
    x, w = laggauss(n_radial)
    c = 1.0 + t / 2.0
    thetas = np.linspace(0, 2 * np.pi, n_angular, endpoint=False)
    dim = len(coeffs)
    total = 0.0
    for wi, xi in zip(w, x):
        vals = []
        for th in thetas:
            mu = np.sqrt(xi / c) * np.exp(1j * th)
            mat = np.array(
                [[ref_displacement_element(m, n, mu) for n in range(dim)] for m in range(dim)]
            )
            vals.append(abs(np.conj(coeffs) @ mat @ coeffs) ** 2)
        # rule: int_0^inf h(x) dx = (1/c) sum w e^{x} h(x/c), h includes e^{-cx}
        total += wi * np.exp(xi) / c * np.exp(-t * (xi / c) / 2) * np.mean(vals)
    return total


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
            dmat = displacement_matrix(len(rho_in), scale * (zi + 1j * zj), rows=out_dim)
            out += (w[i] * w[j]) * (dmat @ rho_in @ dmat.conj().T)
    return out / np.pi


def channel_fidelity(state, rho_out):
    """<psi| rho |psi> with automatic padding to the larger truncation."""
    dim = max(state.dim, rho_out.dim)
    c = state.padded(dim).coeffs
    m = rho_out.padded(dim).matrix
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
