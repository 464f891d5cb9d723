"""Reference values computed without the package's evaluation machinery.

Displacements come from scipy's sparse matrix exponential on a padded
number basis (not the package's Laguerre recurrences), quasidistributions
from the Cahill-Glauber displaced-state sum, and the random-state
ensemble average from its terminating series in 40-digit arithmetic.
"""

import math

import mpmath
import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply


def _padded_dim(dim, radius):
    root = math.sqrt(dim) + radius
    return int(math.ceil(root * root + 8 * root + 16))


def displaced_columns(columns, mu):
    """D(mu) applied to the columns of `columns` (dim x k), on a padded basis.

    Returns the padded (n x k) result; the padding makes the truncation
    error far below double precision for the states used here.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim == 1:
        columns = columns[:, None]
    dim = columns.shape[0]
    n = _padded_dim(dim, abs(mu))
    lower = np.sqrt(np.arange(1, n))  # a^dagger on the first subdiagonal
    generator = diags([mu * lower, -np.conj(mu) * lower], [-1, 1], format="csr")
    padded = np.zeros((n, columns.shape[1]), dtype=complex)
    padded[:dim] = columns
    return expm_multiply(generator, padded)


def s_ordered(coeffs, alpha, s):
    """W^(s)(alpha) = 2/(pi (1-s)) sum_n r^n |<n|D(-alpha) psi>|^2, r = (s+1)/(s-1).

    s = 0 is the Wigner function, s = -1 the Husimi function.
    """
    amps = displaced_columns(coeffs, -complex(alpha))[:, 0]
    weights = np.abs(amps) ** 2
    r = (s + 1.0) / (s - 1.0)
    powers = r ** np.arange(weights.size) if r != 0 else (np.arange(weights.size) == 0)
    return 2.0 / (np.pi * (1.0 - s)) * float(np.sum(powers * weights))


def char_pure(coeffs, mu):
    """<psi|D(mu)|psi>."""
    coeffs = np.asarray(coeffs, dtype=complex)
    moved = displaced_columns(coeffs, complex(mu))[:, 0]
    return complex(np.vdot(coeffs, moved[: coeffs.size]))


def char_density(matrix, mu):
    """tr[rho D(mu)] for a density matrix on the truncated space."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    block = displaced_columns(np.eye(dim), complex(mu))[:dim]
    return complex(np.sum(matrix.T * block))


def random_avg_fidelity(dim, t, digits=40):
    """Haar-ensemble average fidelity from the terminating double series."""
    with mpmath.workdps(digits):
        t = mpmath.mpf(t)
        x1 = 1 - t * t / 4
        x2 = 4 - t * t
        base = 1 + t / 2
        total = mpmath.mpf(0)
        for m in range(dim):
            for n in range(dim):
                for k in range(min(m, n) + 1):
                    coeff = (
                        math.comb(m + n - k, k)
                        * math.comb(m + n - 2 * k, m - k)
                    )
                    term = (-x1) ** k + x2**k * t ** (m + n - 2 * k) / mpmath.mpf(2) ** (m + n)
                    total += coeff * term / base ** (m + n + 1)
        return float(total / (dim * (dim + 1)))
