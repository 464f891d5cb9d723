"""Characteristic functions and s-ordered quasiprobability distributions.

Pointwise W^(s) (s <= 0), the Wigner function (s = 0) and the
characteristic function share one separable kernel in the Hermite-function
basis h_j.  Take the trimmed Fock support D and K = 2D - 1.  Rotating the
density matrix by 45 degrees, rho(x1, x2) with u = (x1 + x2)/sqrt 2 and
v = (x2 - x1)/sqrt 2, and expanding it in h_j(u) h_k(v) with column k
scaled by i^k gives a real K x K matrix C~, and then

    W^(s)(a) = (2/sqrt pi) sum_ik (T^T C~ T)_ik h_i(2 sqrt(eta) Re a) h_k(2 sqrt(eta) Im a),
    Phi(mu)  = sqrt(pi) sum_jk C~_jk i^{j-k} h_j(Im mu) h_k(Re mu),

with eta = 1/(1 - s) and T the exact Gaussian smoothing of each h_j
(`_smoothing`; T = I at s = 0).  C~ is exact from K-node Gauss-Hermite
quadrature, because every coefficient's integrand is e^{-u^2-v^2} times a
polynomial of degree <= 4D - 4 per axis (Cahill & Glauber, Phys. Rev. 177,
1882 (1969) for the s-ordered family).  An evaluation builds Hermite tables
on the points' real and imaginary coordinates and contracts them with the
K x K matrix.  A PhaseGrid (`*_grid`) hands its two axes straight to the
tensor-product form, which costs K^2 n_y + K n_x n_y and builds no point
mesh.  Point arrays pick the form by layout: one laid out as a grid (a mesh
or a row block) takes the same tensor product, and any other set, 0-d and
1-d points included, is scattered and costs K^2 + K per point.  Tables hold
at most CHUNK_ELEMENTS values, products run on fixed coordinate tiles (so
values do not depend on chunking), and product operands hold no magnitudes
below 1e-100.  C~ costs O(D K^2) plus three K^3 products to build and is
rebuilt on every public call; for a few points on a large-support state
(about 0.7 s at D = 296) that is dearer than a per-point radial kernel, for
grids it is far cheaper.

The same matrices give pi int (W^(s))^2 and int |grad W|^2 exactly, as
Frobenius norms (`squasi_purity`, `wigner_gradient_norm`), and the overlap
pi int W1 W2 = tr rho1 rho2 as the Frobenius product sum_jk C~1_jk C~2_jk
(`overlap`).

The characteristic function on polar quadrature nodes (`char_on_polar`)
keeps the offset-diagonal form: a sum over offsets d of scaled Laguerre
recurrences from `fock`, one slab over all offsets and nodes per step,
times angular phases e^{i d phi}.  Those radial rows also give the exact
angular mean of |Phi|^2 by Parseval (`_char_sq_radial`), which is all that
fidelity forms 1 and 4 need: one kernel pass over radial nodes only.
"""

import weakref
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import gammaln, roots_hermite

from .errors import QuadratureError
from .fock import (
    ComplexAmplitude,
    PureState,
    _as_complex,
    _hermite_rows,
    _m_seq,
    hermite_functions,
    quad_moments,
)

VACUUM_WIDTH = 1.0 / np.sqrt(2.0)
# default_grid pads 1.2 L by this many of the state's per-axis widths.
GRID_PAD_WIDTHS = 3.0
# Largest per-point table (points x Hermite orders, or kernel slabs) held at once.
CHUNK_ELEMENTS = 2**18


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular grid in the quadrature plane (nu1, nu2).

    Axis k spans center_k +- extent[k] in resolution[k] samples; each
    half-width must be finite and > 0, and each axis needs >= 2 samples.
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
        if not all(0 < x < np.inf for x in self.extent):
            raise ValueError("grid extent must be finite and > 0")

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


def square_grid(halfwidth, resolution=256):
    return PhaseGrid(ComplexAmplitude(0.0, 0.0), (halfwidth, halfwidth), (resolution, resolution))


def default_grid(state, resolution=256):
    """Grid sized from the state's second moments: 1.2 L + GRID_PAD_WIDTHS widths.

    The padding multiplies the state's own per-axis quadrature width
    (with the vacuum width as a floor), so strongly squeezed states keep
    their anti-squeezed tails on the grid.
    """
    mx, mp, vx, vp = quad_moments(state)
    big_l = 2.0 * np.sqrt(vx + vp)
    hw1 = 1.2 * big_l + GRID_PAD_WIDTHS * max(np.sqrt(vx), VACUUM_WIDTH)
    hw2 = 1.2 * big_l + GRID_PAD_WIDTHS * max(np.sqrt(vp), VACUUM_WIDTH)
    return PhaseGrid(ComplexAmplitude(mx, mp), (hw1, hw2), (resolution, resolution))


# ---------------------------------------------------------------------------
# diagonal data and radial kernels
# ---------------------------------------------------------------------------

def state_diagonals(state):
    """[(d, w_d)] with w_d[n] = rho_{n+d, n}, dropping sub-noise diagonals.

    Entries at or below 1e-18 (absolute; states are unit-normalized)
    contribute less than double-precision roundoff to any kernel sum, so
    they and trailing runs of them are trimmed.  Over-padded states then
    cost what their actual support costs.  All offsets come from one
    extraction: row d of w[d, n] = rho_{n+d, n} (c_{n+d} conj(c_n) for a pure
    state, zero past n + d = dim - 1) is indexed from the zero-padded state,
    and each w_d is a view of its row up to the last live entry.
    """
    dim = state.dim
    n = np.arange(dim)
    rows = n[:, None] + n  # [d, n] -> n + d
    if isinstance(state, PureState):
        c = state.coeffs
        w = np.concatenate([c, np.zeros(dim, dtype=complex)])[rows] * np.conj(c)
    else:
        w = np.concatenate([state.matrix, np.zeros_like(state.matrix)])[rows, n]
    alive = np.abs(w) > 1e-18
    ends = dim - np.argmax(alive[:, ::-1], axis=1)  # one past the last live entry
    return [(d, w[d, : ends[d]]) for d in np.flatnonzero(alive.any(axis=1)).tolist()]


def trimmed_support(diags) -> int:
    """D = 1 + the highest Fock index that the trimmed diagonals [(d, w_d)] keep."""
    return max(d + w.size for d, w in diags)


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


def _offset_rows(diags, x):
    """q[i](x) = sum_n w_i[n] M_n^(d_i)(x): Phi = q_0 + sum_{d>0} ((-1)^d e^{-id phi} q_d + c.c.)."""
    return _radial_sums(diags, lambda ds, counts: _m_seq(ds, counts, x), x.size)


def _char_sq_radial(diags, x):
    """Angular mean of |Phi|^2 on radial nodes x = |mu|^2, by Parseval.

    <m|D(mu)|n> = e^{i(m-n)phi} R_mn(x) with R real (Cahill & Glauber 1969),
    so Phi(sqrt(x) e^{i phi}) has harmonics e^{-i d phi} (-1)^d q_d and
    e^{i d phi} conj(q_d) (`_offset_rows`), and the mean over phi is
    |q_0|^2 + 2 sum_{d>0} |q_d|^2: one kernel pass and no angular nodes.
    It equals the mean over any 2D - 1 or more equally spaced angles,
    because |Phi|^2 has harmonics |k| <= 2(D - 1) only.
    """
    q = _offset_rows(diags, x)
    c_d = np.array([2.0 if d else 1.0 for d, _ in diags])
    return c_d @ (q.real**2 + q.imag**2)


# ---------------------------------------------------------------------------
# separable Hermite-basis kernel
# ---------------------------------------------------------------------------

# Matrix products over point coordinates run on fixed tiles (rows of first-axis
# coordinates x columns of second-axis ones), aligned to the padded coordinate
# lists, so a value's arithmetic does not depend on how tables are chunked.
_TILE_ROWS, _TILE_COLS = 16, 128
# Operands of matrix products hold no magnitudes below this: no subnormal arithmetic.
_FLOOR = 1e-100


def _floored(a):
    a[np.abs(a) < _FLOOR] = 0.0
    return a


def _padded(x, tile):
    return np.concatenate([x, np.zeros(-x.size % tile)])


def _table_passes(x, count, tile):
    """(lo, h) for passes over x (a whole number of tiles long), h[p, j] = h_j(x[lo + p]).

    Each pass holds as many whole tiles as fit in CHUNK_ELEMENTS table
    values, one at least; tables are floored and contiguous per point.
    """
    width = max(1, CHUNK_ELEMENTS // (count * tile)) * tile
    for lo in range(0, x.size, width):
        yield lo, _floored(hermite_functions(x[lo : lo + width], count).T.copy())


def _tensor_values(mats, xs, ys):
    """out[r, i, j] = sum_ab mats[r, a, b] h_a(xs[i]) h_b(ys[j])."""
    count = mats.shape[-1]
    rows, cols = _TILE_ROWS, _TILE_COLS
    xs, ys = _padded(xs, rows), _padded(ys, cols)
    out = np.empty((len(mats), xs.size, ys.size))
    for c0, hy in _table_passes(ys, count, cols):
        # g[r][p, a] = sum_b mats[r, a, b] h_b(y_p), one tile of columns at a time
        g = [[hy[j : j + cols] @ m.T for m in mats] for j in range(0, hy.shape[0], cols)]
        for r0, hx in _table_passes(xs, count, rows):
            for i in range(0, hx.shape[0], rows):
                a = hx[i : i + rows]
                for j, gj in enumerate(g):
                    lo = c0 + j * cols
                    for r, gr in enumerate(gj):
                        out[r, r0 + i : r0 + i + rows, lo : lo + cols] = a @ gr.T
    return out


def _grid_axes(grid):
    """Re grid.points() down axis 1 and Im along axis 2, bit-equal (axis / sqrt 2 is not)."""
    a1, a2 = grid.axis1, grid.axis2
    return ((a1 + 1j * a2[0]) / np.sqrt(2.0)).real, ((a1[0] + 1j * a2) / np.sqrt(2.0)).imag


def _grid_values(mats, grid, scale=1.0):
    """_separable_values at scale * grid.points(), from the grid's two axes: no mesh."""
    x, y = _grid_axes(grid)
    n1, n2 = grid.resolution
    return np.ascontiguousarray(_tensor_values(mats, scale * x, scale * y)[:, :n1, :n2])


def _scattered_values(mats, x, y):
    """out[r, p] = sum_ab mats[r, a, b] h_a(x[p]) h_b(y[p]), per-point dot products."""
    count, cols = mats.shape[-1], _TILE_COLS
    x, y = _padded(x, cols), _padded(y, cols)
    out = np.empty((len(mats), x.size))
    for (lo, hx), (_, hy) in zip(_table_passes(x, count, cols), _table_passes(y, count, cols)):
        for j in range(0, hx.shape[0], cols):
            a, b = hx[j : j + cols], hy[j : j + cols]
            for r, m in enumerate(mats):
                out[r, lo + j : lo + j + cols] = np.sum(a * (b @ m.T), axis=1)
    return out


def _separable_values(mats, x, y):
    """sum_ab mats[r, a, b] h_a(x) h_b(y) at every point, stacked over r.

    The layout picks the evaluation.  A 2-D array whose rows share a first
    coordinate and whose columns share a second (a mesh or row block) is a
    tensor product of its axes and costs K^2 n_y + K n_x n_y;
    any other point set costs one K^2 product row and a dot product per
    point.
    """
    shape = x.shape
    if x.size == 0:
        return np.zeros((len(mats),) + shape)
    if x.ndim == 2 and (x == x[:, :1]).all() and (y == y[:1]).all():
        return _tensor_values(mats, x[:, 0].copy(), y[0].copy())[:, : shape[0], : shape[1]].copy()
    vals = _scattered_values(mats, x.ravel(), y.ravel())
    return vals[:, : x.size].reshape((len(mats),) + shape)


def _rotated_density(state, dim, u):
    """F[a, b] = rho(x1, x2) at x1 = (u_a - u_b)/sqrt2, x2 = (u_a + u_b)/sqrt2.

    u must be exactly antisymmetric, so x1[a, b] = x2[a, K-1-b].  A pure
    state's psi is accumulated along the Hermite recurrence at every x2
    (elementwise, O(D K^2)); a density matrix is the scattered evaluation
    of its trimmed matrix at the points (x1, x2).
    """
    k = u.size
    x2 = ((u[:, None] + u[None, :]) / np.sqrt(2.0)).ravel()
    if isinstance(state, PureState):
        c = state.coeffs[:dim]
        psi = np.empty(x2.size, dtype=complex)
        for lo in range(0, x2.size, CHUNK_ELEMENTS):
            x = x2[lo : lo + CHUNK_ELEMENTS]
            re, im = np.zeros((2, x.size))
            for n, h in enumerate(_hermite_rows(x, dim, np.empty((3, x.size)))):
                re += c.real[n] * h
                im += c.imag[n] * h
            psi.real[lo : lo + x.size], psi.imag[lo : lo + x.size] = re, im
        psi = psi.reshape(k, k)
        return psi[:, ::-1] * np.conj(psi)
    rho = state.matrix[:dim, :dim]
    x1 = x2.reshape(k, k)[:, ::-1].ravel()
    re, im = _scattered_values(np.stack([rho.real, rho.imag]), x1, x2)[:, : k * k]
    return (re + 1j * im).reshape(k, k)


def _coefficient_matrix(state):
    """C~ with rho(x1, x2) = sum_jk C~_jk (-i)^k h_j(u) h_k(v), u, v = (x1 +- x2)/sqrt2.

    The integrand of each coefficient is e^{-u^2-v^2} times a polynomial of
    degree <= 4D - 4 per axis (D the trimmed support), so K = 2D - 1 Gauss-
    Hermite nodes per axis give C~ exactly: C = (H w) F (H w)^T with F the
    density at the rotated nodes and w_a = 1 / sum_j h_j(u_a)^2.  Returns a
    real K x K matrix.
    """
    dim = trimmed_support(state_diagonals(state))
    k = 2 * dim - 1
    u = roots_hermite(k)[0]
    u = (u - u[::-1]) / 2.0  # exactly antisymmetric
    h = hermite_functions(u, k)
    hw = _floored(h / np.sum(h * h, axis=0))
    f = _rotated_density(state, dim, u)
    x_re, x_im = _floored(hw @ _floored(f.real.copy())), _floored(hw @ _floored(f.imag.copy()))
    # C~_jk = Re(C_jk i^k): columns k = 0, 1, 2, 3 mod 4 take Re C, -Im C, -Re C, Im C
    out = np.empty((k, k))
    sign = (-1.0) ** (np.arange(k) // 2)
    out[:, 0::2] = (x_re @ hw[0::2].T) * sign[0::2]
    out[:, 1::2] = -(x_im @ hw[1::2].T) * sign[1::2]
    return _floored(out)


def _smoothing(s, k):
    """T: the s-ordering Gaussian smoothing of h_j(z) is sum_i T_ji h_i(sqrt(eta) z).

    T_ji = sqrt(j!/i!) eta^{(1+i)/2} beta^{(j-i)/2} / ((j-i)/2)! for j - i even
    and >= 0, with eta = 1/(1 - s) and beta = (1 - eta)/2, formed in the log
    domain (all entries are positive).  The smoothing has variance -s in z.
    """
    eta = 1.0 / (1.0 - s)
    j, i = np.arange(k)[:, None], np.arange(k)[None, :]
    half = np.maximum(j - i, 0) // 2
    with np.errstate(divide="ignore", invalid="ignore"):  # beta = 0 (s -> 0): T = I
        log_beta = np.where(half > 0, half * np.log((1.0 - eta) / 2.0), 0.0)
    log_t = (
        0.5 * (gammaln(j + 1) - gammaln(i + 1))
        + 0.5 * (1 + i) * np.log(eta)
        + log_beta
        - gammaln(half + 1)
    )
    return _floored(np.where((j >= i) & ((j - i) % 2 == 0), np.exp(log_t), 0.0))


def _smoothed_matrix(c, s):
    """(2/sqrt pi) T^T C~ T from C~, the K x K matrix of W^(s) (see squasi_values)."""
    if s != 0:
        t = _smoothing(s, c.shape[0])
        c = _floored(t.T @ c) @ t
    return _floored((2.0 / np.sqrt(np.pi)) * c)


def squasi_purity(state, s) -> float:
    """pi int d2a W^(s)(a)^2 = (1 - s) ||T^T C~ T||_F^2, exact as the h_j are orthonormal."""
    m = _smoothed_matrix(_coefficient_matrix(state), s)
    return (1.0 - s) * (np.pi / 4.0) * float(np.sum(m * m))


def wigner_gradient_norm(state) -> float:
    """(pi/8) int dq1 dq2 |grad W|^2 = (||Delta C~||_F^2 + ||C~ Delta^T||_F^2) / 2, exact.

    Column j of Delta expands h_j' = r_{j-1} h_{j-1} - r_j h_{j+1}, r_j = sqrt((j+1)/2).
    """
    c = _smoothed_matrix(_coefficient_matrix(state), 0.0) * (np.sqrt(np.pi) / 2.0)
    r = np.sqrt(np.arange(1, c.shape[0] + 1) / 2.0)
    delta = (np.diag(r, 1) - np.diag(r, -1))[:, :-1]
    return (float(np.sum((delta @ c) ** 2)) + float(np.sum((c @ delta.T) ** 2))) / 2.0


def _check_order(s):
    """Refuse an order s that is not finite or is > 0 (singular distributions)."""
    if not -np.inf < s <= 0:  # NaN fails too
        raise ValueError("s must be finite and <= 0; s > 0 distributions are singular")


def squasi_values(state, s, points):
    """W^(s) (s <= 0) at complex points, by the separable Hermite kernel.

    W^(s)(a) = (2/sqrt pi) sum_ik (T^T C~ T)_ik h_i(2 sqrt(eta) Re a) h_k(2 sqrt(eta) Im a).
    """
    _check_order(s)
    return _squasi_from(_coefficient_matrix(state), s, points)


def squasi_grid(state, s, grid: PhaseGrid) -> PhaseGrid:
    """W^(s) (s <= 0) on a grid: squasi_values at grid.points(), bit for bit, without the mesh."""
    _check_order(s)
    mat = _smoothed_matrix(_coefficient_matrix(state), s)
    return grid.with_values(_grid_values(mat[None], grid, 2.0 / np.sqrt(1.0 - s))[0])


def _squasi_from(c, s, points):
    """W^(s) at complex points from a state's C~, for callers that reuse one C~."""
    mat = _smoothed_matrix(c, s)
    pts = np.asarray(points, dtype=complex)
    scale = 2.0 / np.sqrt(1.0 - s)
    return _separable_values(mat[None], scale * pts.real, scale * pts.imag)[0]


def wigner_values(state, points):
    return squasi_values(state, 0.0, points)


def _char_matrices(state):
    """The real and imaginary parts of sqrt(pi) C~_jk i^{j-k}, each transposed to [k, j]."""
    c = np.sqrt(np.pi) * _coefficient_matrix(state)
    k = c.shape[0]
    d = (np.arange(k)[:, None] - np.arange(k)[None, :]) % 4  # i^{j-k} = 1, i, -1, -i
    mats = np.stack([np.choose(d, [1.0, 0.0, -1.0, 0.0]) * c, np.choose(d, [0.0, 1.0, 0.0, -1.0]) * c])
    # transposed to [k, j], so the first coordinate is Re mu
    return _floored(np.swapaxes(mats, 1, 2).copy())


def char_values(state, points):
    """Characteristic function tr[rho D(mu)] = sqrt(pi) sum_jk C~_jk i^{j-k} h_j(Im mu) h_k(Re mu)."""
    pts = np.asarray(points, dtype=complex)
    vals = _separable_values(_char_matrices(state), pts.real, pts.imag)
    return vals[0] + 1j * vals[1]


def char_on_polar(state, x, theta):
    """Characteristic function at mu = sqrt(x) e^{i theta} (outer grid).

    Returns a (len(x), len(theta)) complex array; the radial and angular
    structures separate, so this costs one kernel pass over the radial
    nodes and one small matrix product.  The fidelity forms need only the
    angular mean of |Phi|^2, which `_char_sq_radial` takes from the same
    radial rows without the angles; this is its reference.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    diags = state_diagonals(state)
    ds = np.array([d for d, _ in diags])
    q = np.zeros((ds[-1] + 1, x.size), dtype=complex)
    q[ds] = _offset_rows(diags, x)
    ds = np.arange(q.shape[0])
    e_plus = np.exp(1j * np.outer(theta, ds))  # (M, D)
    signs = (-1.0) ** ds
    out = (np.conj(e_plus) * signs) @ q + e_plus @ np.conj(q)
    out -= q[0][None, :]  # d = 0 was added twice with weight 1 each
    return out.T


# Fock levels per Horner block of the pure-state Husimi kernel.
_HORNER_BLOCK = 32


def husimi_values(state, points):
    """Q = <alpha|rho|alpha>/pi: |<alpha|psi>|^2/pi for a pure state, W^(-1) for a mixed one.

    A pure state's overlap is a Gaussian times a polynomial in z = conj(alpha)
    (Bargmann): with g_n = e^{-|alpha|^2/2} z^n / sqrt(n!) and blocks of
    L = _HORNER_BLOCK levels from n0 = 0, L, 2L, ...,
    <alpha|psi> = sum_n0 g_n0 sum_j beta_j z^j,  beta_j = c_{n0+j} sqrt(n0!/(n0+j)!),
    so |beta_j| <= |c_{n0+j}|.  Each block is one Horner pass in z (two
    in-place passes per level), and g moves to the next block by one product
    with z^L and one running product of 1/sqrt(k).  Levels above the last
    nonzero coefficient are not visited.  Q = |.|^2/pi is >= 0, and exactly 0
    at alpha = 0 when c_0 = 0.  Only points where e^{-|alpha|^2/2} is nonzero
    (|alpha|^2 below about 1490, where |z|^L < 1e51) are evaluated; farther
    ones read exactly 0.
    A mixed state takes the s = -1 kernel.
    """
    if not isinstance(state, PureState):
        return squasi_values(state, -1.0, points)
    pts = np.asarray(points, dtype=complex)
    top = np.flatnonzero(state.coeffs)[-1] + 1  # a state has a nonzero coefficient
    g0 = np.exp(-(pts.real**2 + pts.imag**2) / 2)
    live = g0 != 0  # NaN points stay live and read NaN
    z = np.conj(pts[live])
    g = g0[live].astype(complex)
    acc = np.zeros(z.shape, dtype=complex)
    s = np.empty(z.shape, dtype=complex)
    z_block = None
    for n0 in range(0, top, _HORNER_BLOCK):
        # ratio[j] = sqrt(n0! / (n0 + j + 1)!) as a running product
        ratio = np.cumprod(1.0 / np.sqrt(np.arange(n0 + 1, n0 + _HORNER_BLOCK + 1)))
        beta = state.coeffs[n0 : min(n0 + _HORNER_BLOCK, top)].copy()
        beta[1:] *= ratio[: beta.size - 1]
        s.fill(beta[-1])
        for b in beta[-2::-1]:
            s *= z
            if b != 0:
                s += b
        s *= g
        acc += s
        if n0 + _HORNER_BLOCK < top:
            if z_block is None:
                z_block = z**_HORNER_BLOCK
            g *= z_block
            g *= ratio[-1]
    out = np.zeros(pts.shape)
    out[live] = np.abs(acc) ** 2 / np.pi
    return out


# ---------------------------------------------------------------------------
# public pointwise operations
# ---------------------------------------------------------------------------

def char_fn(state, mu) -> complex:
    """Symmetrically ordered characteristic function tr[rho D(mu)]."""
    return complex(char_values(state, np.array(_as_complex(mu))))


def wigner(state, alpha) -> float:
    """Wigner function at alpha; real, bounded by 2/pi."""
    return float(wigner_values(state, np.array(_as_complex(alpha))))


def husimi(state, alpha) -> float:
    """Husimi function <alpha|rho|alpha>/pi, in [0, 1/pi]."""
    return float(husimi_values(state, np.array(_as_complex(alpha))))


def s_quasidist(state, s, alpha) -> float:
    """W^(s)(alpha) for a float s <= 0 (0: Wigner, -1: Husimi): the scalar form of squasi_values."""
    return float(squasi_values(state, float(s), np.array(_as_complex(alpha))))


def wigner_grid(state, grid: PhaseGrid) -> PhaseGrid:
    return squasi_grid(state, 0.0, grid)


_default_wigner_cache = weakref.WeakKeyDictionary()


def cached_default_wigner(state, resolution=256) -> PhaseGrid:
    """Wigner samples on the state's default grid, memoized per state.

    Keyed weakly on the state object, so the tests' repeated grid sums on
    one state reuse the grid instead of re-evaluating the kernel.
    """
    per_state = _default_wigner_cache.setdefault(state, {})
    if resolution not in per_state:
        per_state[resolution] = wigner_grid(state, default_grid(state, resolution=resolution))
    return per_state[resolution]


def husimi_grid(state, grid: PhaseGrid) -> PhaseGrid:
    """husimi_values at grid.points(): Horner for a pure state, else squasi_grid at s = -1."""
    if not isinstance(state, PureState):
        return squasi_grid(state, -1.0, grid)
    return grid.with_values(husimi_values(state, grid.points()))


def char_grid(state, grid: PhaseGrid) -> PhaseGrid:
    vals = _grid_values(_char_matrices(state), grid)
    return grid.with_values(vals[0] + 1j * vals[1])


@dataclass(frozen=True)
class OverlapResult:
    """tr(rho1 rho2) by the matrix route (primary) and, exactly, by pi int d2a W1 W2."""

    matrix_value: float
    grid_value: float

    def __float__(self):
        return self.matrix_value


def overlap(rho1, rho2) -> OverlapResult:
    """Overlap tr(rho1 rho2), cross-checked to 1e-12 against pi int d2a W1 W2.

    The phase-space integral is the Frobenius product of the two states'
    C~ (the smaller zero-padded to the larger K, so the sum runs over the
    common block), because the h_j(u) h_k(v) are orthonormal.
    QuadratureError is raised if the routes disagree.
    """
    m1, m2 = rho1.density().matrix, rho2.density().matrix
    if m1.shape != m2.shape:
        raise ValueError("operators must share a truncation dimension")
    matrix_value = float(np.real(np.trace(m1 @ m2)))

    c1, c2 = _coefficient_matrix(rho1), _coefficient_matrix(rho2)
    k = min(c1.shape[0], c2.shape[0])
    grid_value = float(np.sum(c1[:k, :k] * c2[:k, :k]))
    if not abs(grid_value - matrix_value) <= 1e-12:  # NaN fails too
        raise QuadratureError(
            f"overlap routes disagree: matrix {matrix_value:.17g} vs phase space {grid_value:.17g}"
        )
    return OverlapResult(matrix_value, grid_value)


# ---------------------------------------------------------------------------
# grid kernels of the tests' grid oracles; the library does not call them
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
