import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import roots_hermite

from oracles import (
    gauss_hermite_2d,
    padded_state,
    ref_char,
    ref_char_on_polar,
    ref_char_values,
    ref_hermite_functions,
    ref_husimi,
    ref_squasi_values,
    ref_state_diagonals,
    ref_wigner_parity,
)

import subplanck
import subplanck.phasespace as phasespace_module

from subplanck import (
    ComplexAmplitude,
    DensityOp,
    PureState,
    QuadratureError,
    char_fn,
    char_grid,
    default_grid,
    husimi,
    husimi_grid,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_squeezed,
    make_thermal,
    overlap,
    s_quasidist,
    square_grid,
    wigner,
    wigner_grid,
)
from subplanck.fidelity import slope_at_zero
from subplanck.phasespace import (
    PhaseGrid,
    char_on_polar,
    char_values,
    fftconvolve,
    husimi_values,
    squasi_grid,
    squasi_purity,
    squasi_values,
    state_diagonals,
    trimmed_support,
    wigner_values,
)
from subplanck.fock import hermite_functions
from subplanck.protocol import _outcome_order, average_channel
from subplanck.quadrature import polar_rule


class TestCharFn:
    def test_vacuum_gaussian(self):
        mu = ComplexAmplitude(0.9, 0.4)
        assert char_fn(make_number(0, 8), mu) == pytest.approx(np.exp(-mu.abs2 / 2))

    def test_number_laguerre(self):
        from scipy.special import eval_laguerre

        mu = ComplexAmplitude(1.1, -0.6)
        for n in (1, 2, 5):
            got = char_fn(make_number(n, 12), mu)
            assert got == pytest.approx(np.exp(-mu.abs2 / 2) * eval_laguerre(n, mu.abs2))

    def test_trace_normalization(self, catalog):
        for st in catalog.values():
            assert char_fn(st, ComplexAmplitude(0, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_and_matches_oracle(self, catalog, rng):
        st = catalog["random20"]
        for _ in range(12):
            mu = complex(rng.normal(), rng.normal())
            got = char_fn(st, ComplexAmplitude.from_complex(mu))
            assert abs(got) <= 1 + 1e-10
            assert got == pytest.approx(complex(ref_char(st.coeffs, mu)), abs=1e-10)

    @pytest.mark.parametrize("name", ["coherent64", "compass3.5355", "random20", "random100"])
    def test_polar_matches_per_offset_loop(self, name):
        st = {
            "coherent64": lambda: make_coherent(ComplexAmplitude(2.0, 1.0), 64),
            "compass3.5355": lambda: make_compass(3.5355, 96),
            "random20": lambda: make_random(20, seed=3),
            "random100": lambda: make_random(100, seed=5),
        }[name]()
        support = trimmed_support(state_diagonals(st))
        x, theta, _, _ = polar_rule(1.5, support, 2 * support - 1)
        want = ref_char_on_polar(state_diagonals(st), x, theta)
        assert np.array_equal(char_on_polar(st, x, theta), want)

    @pytest.mark.parametrize("name", ["random20", "compass2", "squeezed0.8", "rank3"])
    def test_parseval_mean_is_angular_mean(self, name):
        # 2D - 1 equally spaced angles average every harmonic |k| <= 2(D - 1) of |Phi|^2 exactly
        if name == "rank3":
            rng = make_rng(13)
            z = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
            st = DensityOp(z @ z.conj().T / np.sum(np.abs(z) ** 2))
        else:
            st = {"random20": lambda: make_random(20, seed=17),
                  "compass2": lambda: make_compass(2.0, 48),
                  "squeezed0.8": lambda: make_squeezed(0.8, 64)}[name]()
        diags = state_diagonals(st)
        support = trimmed_support(diags)
        theta = 2 * np.pi * np.arange(2 * support - 1) / (2 * support - 1)
        x = np.array([0.3, 1.7, 6.0])
        want = np.mean(np.abs(char_on_polar(st, x, theta)) ** 2, axis=1)
        got = phasespace_module._char_sq_radial(diags, x)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestStateDiagonals:
    def test_one_extraction_equals_per_offset_loop(self, catalog):
        rng = make_rng(13)
        z = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        states = dict(
            catalog,
            overpadded=padded_state(make_random(20, seed=3), 60),
            compass35=make_compass(3.5355, 96),  # offsets d != 0 mod 4 are all skipped
            thermal=make_thermal(1.0, 64),
            rank3=DensityOp(z @ z.conj().T / np.sum(np.abs(z) ** 2)),
        )
        for name, st in states.items():
            got, want = state_diagonals(st), ref_state_diagonals(st)
            assert [d for d, _ in got] == [d for d, _ in want], name
            for (_, g), (_, w) in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), name
        assert {d % 4 for d, _ in state_diagonals(states["compass35"])} == {0}
        assert trimmed_support(state_diagonals(states["overpadded"])) == 20


class TestSOrderedChar:
    def test_positive_order_rejected(self):
        with pytest.raises(ValueError):
            s_quasidist(make_number(0, 8), 0.5, ComplexAmplitude(0, 0))


class TestWigner:
    def test_vacuum_peak(self):
        assert wigner(make_number(0, 8), ComplexAmplitude(0, 0)) == pytest.approx(2 / np.pi)

    def test_number_one_negative_peak(self):
        assert wigner(make_number(1, 8), ComplexAmplitude(0, 0)) == pytest.approx(-2 / np.pi)

    def test_coherent_displacement_covariance(self):
        nu = ComplexAmplitude(1.5, -0.8)
        assert wigner(make_coherent(nu, 48), nu) == pytest.approx(2 / np.pi, abs=1e-10)

    def test_parity_sum_oracle(self, catalog, rng):
        for name in ("number3", "compass"):
            st = catalog[name]
            for _ in range(4):
                a = complex(rng.normal(scale=0.8), rng.normal(scale=0.8))
                got = wigner(st, ComplexAmplitude.from_complex(a))
                assert got == pytest.approx(ref_wigner_parity(st.coeffs, a), abs=1e-9)

    def test_bound(self, catalog):
        for st in catalog.values():
            w = wigner_grid(st, default_grid(st, resolution=128))
            assert np.max(np.abs(w.values)) <= 2 / np.pi + 1e-8


class TestHusimi:
    def test_vacuum_values(self):
        vac = make_number(0, 8)
        assert husimi(vac, ComplexAmplitude(0, 0)) == pytest.approx(1 / np.pi)
        a = ComplexAmplitude(0.7, 0.3)
        assert husimi(vac, a) == pytest.approx(np.exp(-a.abs2) / np.pi)

    def test_number_zero_at_origin(self):
        for n in (1, 2, 4):
            assert husimi(make_number(n, 8), ComplexAmplitude(0, 0)) == 0.0

    def test_thermal_closed_form(self):
        nbar = 1.0
        grid = square_grid(6.0, 64)
        q = husimi_grid(make_thermal(nbar, 64), grid).values
        want = np.exp(-np.abs(grid.points()) ** 2 / (1 + nbar)) / (np.pi * (1 + nbar))
        assert np.max(np.abs(q - want)) <= 1e-15

    def test_bounds(self, catalog):
        for st in catalog.values():
            q = husimi_grid(st, default_grid(st, resolution=96))
            assert np.all(q.values >= -1e-15)
            assert np.max(q.values) <= 1 / np.pi + 1e-10

    @pytest.mark.filterwarnings("ignore::subplanck.TruncationWarning")
    @pytest.mark.parametrize("make", [
        lambda: make_compass(3.5355, 64),
        lambda: make_random(100, seed=2),
        lambda: make_number(60, 64),
        lambda: make_coherent(ComplexAmplitude(5.0, 3.0), 128),
    ], ids=["compass3.5355", "random100", "number60", "coherent53"])
    def test_matches_mpmath(self, make):
        # worst |Q - ref| measured: 1.7e-17, 3.4e-17, 1.0e-17 and 2.8e-16 in this order
        st = make()
        pts = default_grid(st).points().ravel()
        pts = pts[np.random.default_rng(0).choice(pts.size, 40, replace=False)]
        want = np.array([ref_husimi(st.coeffs, a) for a in pts])
        assert np.max(np.abs(husimi_values(st, pts) - want)) <= 2e-15

    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, "2L"])
    def test_block_edges(self, shift):
        block = phasespace_module._HORNER_BLOCK
        top = 2 * block if shift == "2L" else block + shift
        rng = np.random.default_rng(top)
        c = np.zeros(top + 9, dtype=complex)  # zero padding above the last nonzero level
        c[1 : top + 1] = rng.normal(size=top) + 1j * rng.normal(size=top)
        c /= np.linalg.norm(c)
        padded = PureState(c, normalize=False, fix_phase=False)
        trimmed = PureState(c[: top + 1], normalize=False, fix_phase=False)
        pts = np.concatenate([[0.0], np.sqrt(top) * np.exp(1j * np.linspace(0.3, 6.0, 7)),
                              np.linspace(0.5, 9.0, 6) * np.exp(0.7j)])
        q = husimi_values(padded, pts)
        assert q[0] == 0.0  # c_0 = 0: Horner leaves beta_0 = 0 exactly at alpha = 0
        want = np.array([ref_husimi(c, a) for a in pts])
        assert np.max(np.abs(q - want)) <= 2e-15  # worst measured over the five: 6.6e-17
        # levels above the last nonzero coefficient are never visited
        assert np.array_equal(q, husimi_values(trimmed, pts))

    def test_far_points_read_zero(self):
        st = make_compass(3.5355, 64)
        pts = square_grid(60.0, 64).points()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = husimi_values(st, pts)
        gone = np.exp(-np.abs(pts) ** 2 / 2) == 0
        assert gone.any() and np.all(np.isfinite(q))
        assert np.all(q[gone] == 0.0)

    def test_zero_d_points(self, catalog):
        st = catalog["compass"]
        a = 0.4 - 1.1j
        got = husimi_values(st, np.array(a))
        assert got.shape == ()
        assert got == husimi_values(st, np.array([a]))[0]
        assert husimi(st, a) == float(got)


class TestSQuasidist:
    def test_s_zero_is_wigner(self, catalog):
        st = catalog["number1"]
        a = ComplexAmplitude(0.4, 0.6)
        assert s_quasidist(st, 0.0, a) == pytest.approx(wigner(st, a))

    def test_antinormal_matches_husimi(self, catalog):
        a = ComplexAmplitude(0.3, 0.7)
        for name in ("vacuum", "coherent", "compass"):
            st = catalog[name]
            got = s_quasidist(st, -1.0, a)
            assert got == pytest.approx(husimi(st, a), abs=1e-6)

    def test_vacuum_gaussian_convolution(self):
        # analytic smoothing of the vacuum Wigner function:
        # (2/pi) (1+t)^{-1} exp(-2|a|^2/(1+t)), thermal with nbar = t/2
        vac = make_number(0, 8)
        a = ComplexAmplitude(0.5, -0.4)
        for t in (0.3, 0.7, 1.0):
            want = 2 / np.pi / (1 + t) * np.exp(-2 * a.abs2 / (1 + t))
            assert s_quasidist(vac, -t, a) == pytest.approx(want, abs=1e-9)

    def test_closed_kernel_agrees_with_smoothing(self, catalog):
        st = catalog["compass"]
        a = ComplexAmplitude(0.2, 0.5)
        for t in (0.4, 1.0):
            # W^(-t)(a) = (1/(pi t)) int dq1 dq2 e^{-|q|^2/t} W(a + (q1 + i q2)/sqrt 2)
            smooth = lambda q1, q2: wigner_values(st, a.value + (q1 + 1j * q2) / np.sqrt(2.0))
            via_quad = gauss_hermite_2d(smooth, scale=np.sqrt(t)) / (np.pi * t)
            via_kernel = float(squasi_values(st, -t, np.array(a.value)))
            assert via_quad == pytest.approx(via_kernel, abs=1e-8)

    @pytest.mark.parametrize("s", [np.nan, -np.inf, np.inf, 0.5])
    def test_bad_order_rejected(self, s):
        # no NaN values and no RuntimeWarning: a ValueError from every entry point
        st, grid = make_number(1, 8), square_grid(2.0, 9)
        calls = [
            lambda: s_quasidist(st, s, ComplexAmplitude(0.1, 0.2)),
            lambda: squasi_values(st, s, np.zeros(3, dtype=complex)),
            lambda: squasi_grid(st, s, grid),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="finite and <= 0"):
                    call()

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    def test_chunking_does_not_change_values(self, catalog, monkeypatch, s):
        q = np.linspace(-3.0, 3.0, 31)
        points = (q[:, None] + 1j * q[None, ::-1]) / np.sqrt(2.0)  # holds the origin
        points = np.concatenate([points, np.zeros((1, 31))])  # and a row of origins
        for name in ("compass", "random20"):
            st = catalog[name]
            # one chunk at the default size, many at 64 slab values
            assert points.size * len(state_diagonals(st)) <= phasespace_module.CHUNK_ELEMENTS
            whole = squasi_values(st, s, points)
            monkeypatch.setattr(phasespace_module, "CHUNK_ELEMENTS", 64)
            chunked = squasi_values(st, s, points)
            monkeypatch.undo()
            assert np.array_equal(whole, chunked)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_hermite_tables_within_chunk_bound(self, monkeypatch, mixed):
        # (|0> + |40>)/sqrt 2: support D = 41, so K = 81 Hermite orders on
        # every coordinate and 41 on each rotated node
        coeffs = np.zeros(41)
        coeffs[[0, 40]] = 1.0
        st = subplanck.PureState(coeffs)
        st = st.density() if mixed else st
        q = np.linspace(-3.0, 3.0, 200)
        grid = (q[:, None] + 1j * q[None, :]) / np.sqrt(2.0)
        scattered = np.random.default_rng(5).normal(size=1000) * (1.0 + 1.0j)
        evals = [
            lambda: squasi_values(st, -0.5, grid),
            lambda: squasi_values(st, -0.5, scattered),
            lambda: char_values(st, grid),
        ]
        whole = [f() for f in evals]
        tables, functions, rows = [], phasespace_module.hermite_functions, phasespace_module._hermite_rows

        def recording_functions(x, count):
            tables.append(x.size * count)
            return functions(x, count)

        def recording_rows(x, count, buf):
            tables.append(x.size)
            return rows(x, count, buf)

        monkeypatch.setattr(phasespace_module, "hermite_functions", recording_functions)
        monkeypatch.setattr(phasespace_module, "_hermite_rows", recording_rows)
        monkeypatch.setattr(phasespace_module, "CHUNK_ELEMENTS", 81 * 128)
        chunked = [f() for f in evals]
        assert len(tables) > 3 * len(evals)  # tables were built in several passes
        assert max(tables) <= 81 * 128
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)


class TestHermiteKernel:
    """The separable Hermite-basis kernel against the radial offset-diagonal oracle."""

    @pytest.fixture(scope="class")
    def states(self, catalog):
        out = dict(catalog)
        out["thermal"] = make_thermal(0.7, 40)
        out["channel"] = average_channel(catalog["random20"], 0.5)
        return out

    @staticmethod
    def points():
        q = np.linspace(-4.0, 4.0, 41)
        grid = (q[:, None] + 1j * q[None, :]) / np.sqrt(2.0)
        scattered = np.random.default_rng(11).normal(scale=1.5, size=(7, 18)).view(complex)
        return grid, scattered

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0, -2.125, -50.0])
    def test_squasi_matches_radial_oracle(self, states, s):
        for pts in self.points():
            for name, st in states.items():
                got, want = squasi_values(st, s, pts), ref_squasi_values(st, s, pts)
                assert got.shape == pts.shape
                assert np.max(np.abs(got - want)) <= 1e-13, name

    def test_char_matches_radial_oracle(self, states):
        for pts in self.points():
            for name, st in states.items():
                got, want = char_values(st, pts), ref_char_values(st, pts)
                assert np.max(np.abs(got - want)) <= 1e-13, name

    def test_large_support(self):
        st = make_random(296, seed=5)
        pts = np.random.default_rng(2).normal(scale=6.0, size=(20, 2)).view(complex)[:, 0]
        for s in (0.0, -0.5, -2.125, -50.0):
            assert np.max(np.abs(squasi_values(st, s, pts) - ref_squasi_values(st, s, pts))) <= 1e-12
        assert np.max(np.abs(char_values(st, pts) - ref_char_values(st, pts))) <= 1e-12

    @pytest.mark.parametrize("s", [0.0, -0.5, -2.125])
    def test_tensor_and_scattered_agree(self, states, s, monkeypatch):
        grid, _ = self.points()
        order = np.random.default_rng(4).permutation(grid.size)
        calls, scattered_values = [], phasespace_module._scattered_values

        def counting(*args):
            if args[1].size == grid.size:  # the evaluation's, not a mixed state's C~
                calls.append(args)
            return scattered_values(*args)

        monkeypatch.setattr(phasespace_module, "_scattered_values", counting)
        for name, st in states.items():
            tensor = squasi_values(st, s, grid).ravel()[order]
            assert not calls, name  # a grid layout takes the tensor form
            scattered = squasi_values(st, s, grid.ravel()[order])
            assert calls, name  # the same points, permuted, take the scattered form
            calls.clear()
            assert np.max(np.abs(tensor - scattered)) <= 1e-15, name

    def test_zero_d_and_empty_points(self, catalog):
        st = catalog["compass"]
        a = np.array(0.3 + 0.2j)
        assert squasi_values(st, -0.5, a).shape == ()
        assert squasi_values(st, -0.5, a) == pytest.approx(ref_squasi_values(st, -0.5, a), abs=1e-14)
        assert char_values(st, np.zeros((0, 3), dtype=complex)).shape == (0, 3)

    @pytest.mark.parametrize("s", [-0.5, -1.0, -2.125])
    def test_smoothing_matrix_is_gaussian_smoothing(self, s):
        # per axis, h_j smoothed by a Gaussian of variance -s is sum_i T_ji h_i(sqrt(eta) z)
        eta, order = 1.0 / (1.0 - s), 24
        t_mat = phasespace_module._smoothing(s, order)
        z1, z2 = 0.7, -1.3
        scale = np.sqrt(-2.0 * s)
        h1 = hermite_functions(np.array([np.sqrt(eta) * z1]), order)[:, 0]
        h2 = hermite_functions(np.array([np.sqrt(eta) * z2]), order)[:, 0]
        for j, k in ((0, 0), (3, 5), (10, 2), (23, 22)):

            def product(q1, q2):
                q1, q2 = np.broadcast_arrays(q1, q2)
                a = hermite_functions((z1 - q1).ravel(), order)[j]
                b = hermite_functions((z2 - q2).ravel(), order)[k]
                return (a * b).reshape(q1.shape)

            quad = gauss_hermite_2d(product, scale=scale) / (np.pi * scale**2)
            assert quad == pytest.approx((t_mat[j] @ h1) * (t_mat[k] @ h2), abs=1e-13)

    def test_smoothing_is_identity_at_s_zero_limit(self):
        for s in (-0.0, -1e-300):
            assert np.array_equal(phasespace_module._smoothing(s, 9), np.eye(9))

    def test_positive_s_rejected(self, catalog):
        with pytest.raises(ValueError):
            squasi_values(catalog["vacuum"], 0.5, np.array(0.0j))

    def test_purity_past_the_recurrence_underflow(self):
        # from trimmed support 384 the outer nodes' h_0 underflows, but their
        # high orders are O(1); C~ keeps Parseval (measured 1.1e-15 off)
        assert squasi_purity(make_random(400, seed=1), 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::subplanck.TruncationWarning")
    def test_gradient_slope_past_the_recurrence_underflow(self):
        # the gradient route raises unless it meets the variance route to 1e-12
        # (relative); measured 2.0e-15 off
        st = make_random(383, seed=1)
        assert slope_at_zero(st, route="gradient") == pytest.approx(slope_at_zero(st), rel=1e-12)

    @pytest.mark.parametrize("x, orders", [(roots_hermite(799)[0][-1], 799), (45.0, 1100)],
                             ids=["outer-node-799", "x45"])
    def test_hermite_functions_at_far_points(self, x, orders):
        # the outermost node of the 799-node rule (|x| = 39.44) and x = 45, where
        # phi_0 underflows to 0 but the top orders are O(1); measured <= 4.6e-15
        got = hermite_functions(np.array([x]), orders)[:, 0]
        want = ref_hermite_functions(x, orders)
        assert np.max(np.abs(want)) > 0.3
        assert np.max(np.abs(got - want)) <= 5e-14


class TestGrids:
    def test_grid_eval_char_vacuum(self):
        # Phi(mu) = e^{-|mu|^2/2} with mu = (q1 + i q2)/sqrt2
        grid = PhaseGrid(ComplexAmplitude(0.3, -0.2), (3.0, 2.0), (16, 12))
        q1, q2 = grid.mesh()
        got = char_grid(make_number(0, 8), grid).values
        assert np.max(np.abs(got - np.exp(-(q1**2 + q2**2) / 4))) < 1e-12

    def test_normalization_and_purity(self, catalog):
        for name, st in catalog.items():
            w = wigner_grid(st, default_grid(st))
            assert w.integrate() == pytest.approx(1.0, abs=1e-4), name
            purity = np.pi * np.sum(w.values**2) * w.cell_measure
            assert purity == pytest.approx(1.0, abs=1e-4), name

    def test_resolution_minimum(self):
        with pytest.raises(ValueError):
            PhaseGrid(ComplexAmplitude(0, 0), (1, 1), (1, 4))

    def test_fourier_consistency(self):
        # DFT of a sampled characteristic function reproduces the Wigner grid:
        # W(a) = (1/2pi^2) int dm1 dm2 Phi(m) e^{i(a2 m1 - a1 m2)}
        for st in (make_number(0, 8), make_number(2, 8), make_compass(2.0, 48)):
            n, half = 129, 12.0
            g = PhaseGrid(ComplexAmplitude(0, 0), (half, half), (n, n))
            phi = char_grid(st, g).values
            m = g.axis1
            h = g.spacing[0]
            rng = np.random.default_rng(0)
            for a1, a2 in rng.uniform(-3, 3, size=(6, 2)):
                kernel = np.exp(1j * (a2 * m[:, None] - a1 * m[None, :]))
                west = np.real(np.sum(phi * kernel)) * h * h / (2 * np.pi**2)
                assert west == pytest.approx(
                    wigner(st, ComplexAmplitude(a1, a2)), abs=1e-3
                )


# tile-aligned (256^2, 512^2), ragged (9^2, 37 x 130) and off-centre rectangular grids
PARITY_GRIDS = [
    square_grid(5.0, 256),
    square_grid(6.0, 512),
    square_grid(2.0, 9),
    PhaseGrid(ComplexAmplitude(0.0, 0.0), (3.0, 4.5), (37, 130)),
    PhaseGrid(ComplexAmplitude(0.7, -1.3), (2.5, 3.5), (40, 77)),
]


@pytest.fixture(scope="module", params=["pure", "density"])
def parity_state(request):
    st = make_compass(1.5, 32)
    return st if request.param == "pure" else _rank3(12, 4)


class TestGridPointParity:
    """Each *_grid, from the grid's two axes, equals *_values on grid.points() bit for bit."""

    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=lambda g: "x".join(map(str, g.resolution)))
    def test_grids_match_points(self, parity_state, grid):
        st, pts = parity_state, grid.points()
        assert np.array_equal(wigner_grid(st, grid).values, wigner_values(st, pts))
        assert np.array_equal(char_grid(st, grid).values, char_values(st, pts))
        assert np.array_equal(husimi_grid(st, grid).values, husimi_values(st, pts))
        for s in (0.0, -0.5, _outcome_order(1.0)):
            got = squasi_grid(st, s, grid)
            assert got.resolution == grid.resolution and got.values.flags.c_contiguous
            assert np.array_equal(got.values, squasi_values(st, s, pts)), s


def _rank3(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    return DensityOp(z @ z.conj().T / np.sum(np.abs(z) ** 2))


class TestOverlap:
    def _assert_exact(self, rho1, rho2, want):
        # both routes within 1e-14 of tr rho1 rho2; measured worst over this class's
        # cases: 1.6e-15 (catalog pairs), 2.2e-16 (rank-3 and compass), 1.7e-16 (thermal)
        res = overlap(rho1, rho2)
        assert abs(res.matrix_value - want) <= 1e-14
        assert abs(res.grid_value - want) <= 1e-14

    def test_pure_self_overlap(self, catalog):
        st = catalog["compass"]
        res = overlap(st, st)
        assert float(res) == pytest.approx(1.0, abs=1e-10)
        assert res.grid_value == pytest.approx(1.0, abs=1e-4)

    def test_catalog_pairs_exact(self, catalog):
        # each catalog state against itself and the next one, padded to a shared dim
        states = [padded_state(st, 64) for st in catalog.values()]
        for a, b in zip(states, states[1:] + states[:1]):
            for other in (a, b):
                self._assert_exact(a, other, abs(np.vdot(a.coeffs, other.coeffs)) ** 2)

    def test_mixed_pairs_exact(self):
        rank3 = _rank3(40, 5)
        compass = make_compass(2.0, 40)
        coherent = make_coherent(ComplexAmplitude(1.0, -0.5), 40)
        self._assert_exact(compass, coherent, abs(np.vdot(compass.coeffs, coherent.coeffs)) ** 2)
        for other in (rank3, compass.density()):
            self._assert_exact(rank3, other, float(np.vdot(rank3.matrix, other.matrix).real))

    def test_orthogonal_states(self):
        res = overlap(make_number(0, 16), make_number(1, 16))
        assert float(res) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_self_geometric(self):
        rho = make_thermal(1.0, 64)
        res = overlap(rho, rho)
        assert float(res) == pytest.approx(1 / 3, abs=1e-10)
        assert res.grid_value == pytest.approx(1 / 3, abs=1e-4)
        self._assert_exact(rho, rho, 1 / 3)

    def test_no_warning_on_ordinary_states(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overlap(make_random(20, seed=1), make_random(20, seed=2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap(make_number(0, 16), make_number(0, 17))

    def test_route_disagreement_raises(self, monkeypatch):
        # one C~ off by 1e-9 (relative) moves pi int W1 W2 past the 1e-12 cross-check
        real = phasespace_module._coefficient_matrix
        scale = iter([1 + 1e-9, 1.0])
        monkeypatch.setattr(phasespace_module, "_coefficient_matrix",
                            lambda state: real(state) * next(scale))
        st = make_compass(2.0, 48)
        with pytest.raises(QuadratureError):
            overlap(st, st)

    def test_nan_route_raises(self, monkeypatch):
        real = phasespace_module._coefficient_matrix
        monkeypatch.setattr(phasespace_module, "_coefficient_matrix",
                            lambda state: real(state) * np.nan)
        with pytest.raises(QuadratureError):
            overlap(make_number(1, 8), make_number(1, 8))


class TestFFTConvolve:
    def test_matches_scipy_signal(self):
        from scipy.signal import fftconvolve as scipy_fftconvolve

        h = 0.05
        d = (np.arange(511) - 255) * h
        w = np.exp(-((d[128:384, None] - 0.3) ** 2) - (d[None, 128:384] + 0.2) ** 2 / 2)
        kern = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / 0.7)
        assert np.array_equal(fftconvolve(w, kern),
                              scipy_fftconvolve(w, kern, mode="same"))

    def test_import_skips_scipy_signal_and_stats(self):
        src = os.path.dirname(os.path.dirname(subplanck.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, subplanck, subplanck.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"
