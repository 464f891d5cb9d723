"""Average teleportation fidelity, closed forms, and scale measures.

The primary quadrature route (form 4) integrates the Gaussian-damped
squared characteristic function in radial-angular form.  The angle is
done exactly by Parseval (`phasespace._char_sq_radial`), and the radial
Gauss-Laguerre rule is exact (up to roundoff) for any Fock-truncated state
once its node count reaches the truncation, so it is sized from the
state's support; both the rule and its one-node-larger cross-check run in
one pass of the radial recurrence.  Form 1 shares that path with a
different damping, as does the entanglement fidelity of `mixedstate`;
forms 2 and 3, pi int Q^2 and the gradient slope are exact Hermite-basis
traces (`phasespace.squasi_purity`).
"""

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaln

from .errors import QuadratureError
from .fock import PureState, _noise_kernel, quad_moments
from .phasespace import (
    _char_sq_radial,
    squasi_purity,
    state_diagonals,
    trimmed_support,
    wigner_gradient_norm,
)
from .quadrature import polar_rule


def as_t(t) -> float:
    """The squeezing t = 2 e^{-2r} as a float, checked finite and >= 0; t = 0 teleports perfectly."""
    t = float(t)
    if not 0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    return t


@dataclass(frozen=True)
class FidelityCurve:
    """Sampled fidelity-vs-t curve."""

    t: np.ndarray
    f: np.ndarray

    def validate(self):
        t, f = np.asarray(self.t, float), np.asarray(self.f, float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("t samples must be strictly increasing")
        if np.any(f <= 0) or np.any(f > 1 + 1e-12):
            raise ValueError("fidelities must lie in (0, 1]")
        if np.any(np.diff(f) >= 1e-14):
            raise ValueError("curve is not strictly decreasing")
        if t.size >= 3:
            h = np.diff(t)
            second = np.diff(np.diff(f) / h) / ((h[:-1] + h[1:]) / 2)
            if np.any(second < -1e-8):
                raise ValueError("curve violates convexity")
        return self


@dataclass(frozen=True)
class ScaleReport:
    """Slope at t = 0 and the derived fine/large phase-space scales."""

    slope0: float
    t_crit: float
    fine_scale: float
    extent: float
    state: str = ""

    def as_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# quadrature forms
# ---------------------------------------------------------------------------

def _sized_polar_quadrature(state, a, prefactor, radial_mean):
    """prefactor * int (d2mu/pi) e^{-a x} f(mu), x = |mu|^2, sized from the support.

    `radial_mean(diags, x)` returns the exact angular mean of f on radial
    nodes x from the state's trimmed diagonals (`state_diagonals`).  f
    carries e^{-x} as a quadratic form in displacement elements of the
    state, so with the damping e^{-a x} the Gauss-Laguerre rule of decay
    rate 1 + a sees e^{-(1 + a) x} times a polynomial.  With D = 1 + the
    highest Fock index the trimmed diagonals keep, that polynomial has,
    after the angular mean, degree <= 2(D-1) in x, so D radial nodes
    integrate it exactly, and the estimate comes from that rule.  The rule
    one node larger cross-checks it: if the two differ by more than 1e-8
    (relative, floored at 1), QuadratureError is raised.  Both rules' nodes
    go through one `radial_mean` call, on one extraction of the diagonals.
    """
    diags = state_diagonals(state)
    support = trimmed_support(diags)
    # only the rules' radial parts: radial_mean takes the angle exactly
    rules = [polar_rule(1.0 + a, n, 2 * n - 1) for n in (support, support + 1)]
    x = np.concatenate([rule[0] for rule in rules])
    wx = np.concatenate([rule[2] for rule in rules])
    terms = wx * np.exp(-a * x) * radial_mean(diags, x)
    est = [prefactor * float(np.sum(part)) for part in np.split(terms, [support])]
    if abs(est[1] - est[0]) > 1e-8 * max(1.0, abs(est[0])):
        raise QuadratureError(
            f"polar quadrature estimates disagree: {est[0]!r} vs {est[1]!r}"
        )
    return est[0]


def fidelity_quadrature(state, t, form=4):
    """Average fidelity of a pure state by one of the four integral forms."""
    if not isinstance(state, PureState):
        raise TypeError("fidelity_quadrature expects a pure state")
    if form not in (1, 2, 3, 4):
        raise ValueError("form must be 1, 2, 3 or 4")
    t = as_t(t)
    if t == 0:
        return 1.0
    if form == 4:
        return _sized_polar_quadrature(state, t / 2.0, 1.0, _char_sq_radial)
    if form == 1:
        return _sized_polar_quadrature(state, 2.0 / t, 2.0 / t, _char_sq_radial)
    if form == 3:  # pi int W W^(-t) = pi int (W^(-t/2))^2
        return squasi_purity(state, -t / 2.0)
    # form 2: t F(t) / 2 = F(4/t), term by term
    return (2.0 / t) * squasi_purity(state, -2.0 / t)


def classical_fidelity(state) -> float:
    """t = 2 fidelity as pi int d2xi Q^2 (heterodyne + coherent resend), Q = W^(-1)."""
    return squasi_purity(state, -1.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def coherent_fidelity(t) -> float:
    """1/(1 + t/2); also the maximum over all pure input states."""
    return 1.0 / (1.0 + as_t(t) / 2.0)


def max_fidelity_bound(t) -> float:
    """Supremum of the average fidelity over pure states; coherent states
    saturate it (uniquely for t > 0)."""
    return coherent_fidelity(t)


def squeezed_fidelity(u, t) -> float:
    """Closed form for squeezing u (u = +-inf gives the limit 0 at t > 0; NaN is refused)."""
    t = as_t(t)
    if np.isnan(u):
        raise ValueError("u must not be NaN")
    if t == 0:
        return 1.0
    return 1.0 / np.sqrt(1.0 + t * np.cosh(2.0 * u) + t * t / 4.0)


def number_fidelity(n, t) -> float:
    """Fidelity of |n>: sum_k C(n,k)^2 (t^2/4)^{n-k} / (1+t/2)^{2n+1}.

    Every term is positive, so the sum has no cancellation at any t (the
    t = 2 point included); the terms are formed in the log domain.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t = as_t(t)
    if t == 0:
        return 1.0
    if n == 0:
        return coherent_fidelity(t)
    k = np.arange(n + 1)
    logbinom2 = 2 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # t^2/4 may underflow to 0
        logpow = np.where(k < n, (n - k) * np.log(t * t / 4.0), 0.0)
    terms = np.exp(logbinom2 + logpow - (2 * n + 1) * np.log1p(t / 2.0))
    return float(np.sum(terms))


def compass_fidelity(a, t) -> float:
    """Closed form for the four-lobe compass state (a real >= 0).

    Written with every exponential scaled by e^{-a^2}, so large a never
    overflows; beyond a^2 = 700 the asymptote 1/(4(1+t/2)) is exact to
    double precision.
    """
    t = as_t(t)
    a = float(a)
    if not a >= 0:  # NaN fails too
        raise ValueError("a must be >= 0")
    big_a = a * a
    base = 1.0 / (4.0 * (1.0 + t / 2.0))
    if big_a > 700.0:
        return base
    w = (2.0 - t) / (2.0 + t)
    # cosh(w A) e^{-A} etc.; |w| <= 1 keeps all exponents nonpositive
    ch_w = 0.5 * (np.exp((w - 1.0) * big_a) + np.exp(-(w + 1.0) * big_a))
    ch_1 = 0.5 * (1.0 + np.exp(-2.0 * big_a))
    cs_w = np.cos(w * big_a) * np.exp(-big_a)
    cs_1 = np.cos(big_a) * np.exp(-big_a)
    num = (ch_w + cs_w) ** 2 + 2.0 * (ch_1 + cs_w) * (cs_1 + ch_w)
    den = (ch_1 + cs_1) ** 2
    return base * (1.0 + num / den)


# ---------------------------------------------------------------------------
# random-state ensemble averages
# ---------------------------------------------------------------------------

def random_avg_fidelity(dim, t) -> float:
    """Ensemble-average fidelity for Haar-random states on `dim` levels.

    The averaged channel is loss of transmissivity eta = 1/(1 + t/2)
    followed by gain 1/eta, with populations mapped by eta B B^T for the
    binomial matrix B = B_0 (`fock._noise_kernel`) on the `dim` levels.
    The Haar average of <psi|channel(psi)|psi> (Nielsen, Phys. Lett. A
    303, 249 (2002)) then reduces to eta (sum_j D_j^2 + sum_m S_m^2) /
    (dim (dim + 1)), with D_j the sum of B's j-th subdiagonal and S_m the
    sum of its m-th column: a finite sum of positive terms, with no cancellation.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    t = as_t(t)
    if t == 0:
        return 1.0
    kern = _noise_kernel(t / 2.0, 0, dim, dim)
    sub = np.array([np.sum(np.diagonal(kern, -j)) for j in range(dim)])
    cols = np.sum(kern, axis=0)
    return float(sub @ sub + cols @ cols) / (1.0 + t / 2.0) / (dim * (dim + 1))


def random_slope_avg(dim) -> float:
    """Ensemble-average dF/dt at t = 0: -(dim^2 + 1) / (2 (dim + 1))."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return -(dim * dim + 1.0) / (2.0 * (dim + 1.0))


def matched_random_dim(variance_sum) -> int:
    """The dim >= 1 whose ensemble slope -(dim^2 + 1)/(2 (dim + 1)) is nearest -v/2.

    v = Var x + Var p gives a state's dF/dt = -v/2 at t = 0.  (d^2 + 1)/(d + 1)
    grows for d >= 1, so the nearest d is the floor or the ceiling of the root
    (v + sqrt(v^2 + 4v - 4))/2; a tie goes to the smaller d.
    """
    v = float(variance_sum)
    root = (v + np.sqrt(max(v * v + 4.0 * v - 4.0, 0.0))) / 2.0
    cand = np.array([max(1.0, np.floor(root)), max(1.0, np.ceil(root))])
    return int(cand[np.argmin(np.abs((cand**2 + 1.0) / (cand + 1.0) - v))])


# ---------------------------------------------------------------------------
# slope at t = 0 and scale measures
# ---------------------------------------------------------------------------

def slope_at_zero(state, route="variance") -> float:
    """dF/dt at t = 0, by quadrature variances or the Wigner-gradient integral.

    The gradient route is the pure-state identity dF/dt = -(pi/8) int |grad W|^2,
    so it takes only a PureState; the variance route takes either kind.
    The gradient route raises QuadratureError if it differs from the variance
    route by over 1e-12 (relative).
    """
    _, _, vx, vp = quad_moments(state)
    variance_value = -(vx + vp) / 2.0
    if route == "variance":
        return variance_value
    if route != "gradient":
        raise ValueError("route must be 'variance' or 'gradient'")
    if not isinstance(state, PureState):
        raise TypeError("the gradient-route slope expects a pure state; use route='variance'")
    est = -wigner_gradient_norm(state)
    if not abs(est - variance_value) <= 1e-12 * abs(variance_value):  # NaN fails too
        raise QuadratureError(
            f"gradient-route slope {est!r} disagrees with variance route {variance_value!r}"
        )
    return est


def scale_report(state, label="") -> ScaleReport:
    """Critical squeezing and the reciprocal fine/large scales of a state of either kind.

    All four follow from the quadrature variances: the slope dF/dt at
    t = 0 is -(var x + var p)/2 for pure inputs and for the entanglement
    fidelity of mixed ones, t_crit = 1/|slope|, fine scale sqrt(t_crit/2)
    and extent 2 sqrt(var x + var p), so fine scale * extent = 2.
    """
    _, _, vx, vp = quad_moments(state)
    slope0 = -(vx + vp) / 2.0
    t_crit = 1.0 / abs(slope0)
    fine = np.sqrt(t_crit / 2.0)
    extent = 2.0 * np.sqrt(vx + vp)
    if abs(fine * extent - 2.0) > 1e-8:
        raise AssertionError("fine/large scale reciprocity violated")
    return ScaleReport(slope0, t_crit, fine, extent, state=label)
