"""Quadrature rules tuned to Gaussian-damped phase-space integrands.

Phase-space integrals here take the radial-angular form: integral of
d2mu/pi f(mu) = (1/2pi) int dtheta int_0^inf dx f(sqrt(x) e^{i theta})
with x = |mu|^2, handled by Gauss-Laguerre in x times a uniform angular
rule.

The Gauss-Laguerre weights are stored with the e^{+x} factor folded in
(``w_scaled = w * exp(x)``) so rules can be applied to the *full*
integrand, exponential decay included, without overflow at high node
counts.  ``w_scaled`` is the Christoffel sum 1 / sum_k M_k^(0)(x)^2 over
the Laguerre functions of `fock._m_seq`, rather than ``w * exp(x)``
directly, which survives node counts where the bare weights underflow.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fock import _m_seq


@lru_cache(maxsize=64)
def gauss_laguerre_scaled(n):
    """Nodes x_j and scaled weights W_j = w_j e^{x_j} of the n-point rule.

    Sum_j W_j g(x_j) integrates int_0^inf g(x) dx exactly when
    g(x) = e^{-x} p(x) with p a polynomial of degree <= 2n-1, up to a
    roundoff that grows with n: Sum_j W_j e^{-x_j} - 1 is 4e-16 at n = 8,
    3.6e-15 at n = 64, 1.3e-14 at n = 128 and 2.7e-14 at n = 512, and the
    weights are within 3.5e-14 (n = 64) and 2.1e-13 (n = 128) of 40-digit
    values, the latter set by the node error, so callers should size rules
    from exactness rather than pad them.  Nodes come from the Golub-Welsch
    tridiagonal eigenproblem, which stays stable at orders where
    polynomial root refinement overflows.
    """
    x = eigh_tridiagonal(2.0 * np.arange(n) + 1.0, np.arange(1.0, n), eigvals_only=True)
    # Christoffel form W_j = 1 / sum_{k<n} lam_k(x_j)^2 of the orthonormal Laguerre
    # functions lam_k = L_k(x) e^{-x/2} = M_k^(0)(x): a sum of positive terms, so node
    # errors are not magnified as in x / ((n+1) L_{n+1}(x))^2
    total = np.zeros_like(x)
    for lam in _m_seq([0], [n], x):
        total += lam[0] * lam[0]
    w = 1.0 / total
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def radial_rule(c, n):
    """Nodes/weights integrating int_0^inf h(x) dx for h = e^{-c x} * poly.

    Exact for polynomial degree <= 2n-1.  Evaluate h itself at the nodes;
    its own exponential decay is part of the integrand.
    """
    if c <= 0:
        raise ValueError("decay rate c must be positive")
    x, w = gauss_laguerre_scaled(n)
    return x / c, w / c


def polar_rule(c, n_radial, n_angular):
    """Rule for int (d2mu/pi) h(mu) with h ~ e^{-c |mu|^2} * polynomial.

    Returns (x, theta, wx, wtheta): evaluate h at mu = sqrt(x) e^{i theta}
    and contract with the outer product of the weights.  Exact when the
    radial polynomial degree is <= 2 n_radial - 1 and angular harmonics
    stay below n_angular.
    """
    x, wx = radial_rule(c, n_radial)
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    wtheta = np.full(n_angular, 1.0 / n_angular)
    return x, theta, wx, wtheta
