import warnings

import numpy as np
import pytest

from oracles import (
    compass_slope_factor,
    number_fidelity_mp,
    padded_state,
    quadrature_curve,
    random_avg_fidelity_mp,
    random_avg_fidelity_series,
    ref_fidelity_form4,
    ref_gauss_laguerre_scaled,
    ref_grid_classical,
    ref_grid_pair_form,
    ref_grid_slope,
    two_level_fidelity,
)

from subplanck import (
    ComplexAmplitude,
    FidelityCurve,
    PureState,
    QuadratureError,
    average_channel,
    classical_fidelity,
    coherent_fidelity,
    compass_fidelity,
    fidelity_quadrature,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_squeezed,
    make_thermal,
    matched_random_dim,
    max_fidelity_bound,
    number_fidelity,
    random_avg_fidelity,
    random_slope_avg,
    scale_report,
    slope_at_zero,
    squeezed_fidelity,
)
import subplanck.fidelity as fidelity_module
from subplanck.fidelity import as_t
from subplanck.phasespace import state_diagonals, trimmed_support
from subplanck.quadrature import gauss_laguerre_scaled


class TestSqueezeParam:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_t(-0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, t):
        with pytest.raises(ValueError):
            as_t(t)
        with pytest.raises(ValueError):
            fidelity_quadrature(make_number(1, 4), t)


class TestQuadratureForms:
    def test_vacuum_classical_point(self):
        assert fidelity_quadrature(make_number(0, 8), 2.0, 4) == pytest.approx(0.5, abs=1e-10)

    def test_perfect_at_zero(self, catalog):
        for st in catalog.values():
            if isinstance(st, PureState):
                assert fidelity_quadrature(st, 0.0, 4) == 1.0

    def test_number1_classical_quarter(self):
        # derived via the independent quadrature oracle, and symbolically
        # (1 + t^2/4)/(1 + t/2)^3 at t = 2 gives exactly 1/4
        st = make_number(1, 8)
        assert ref_fidelity_form4(st.coeffs, 2.0) == pytest.approx(0.25, abs=1e-9)
        assert fidelity_quadrature(st, 2.0, 4) == pytest.approx(0.25, abs=1e-12)

    def test_form_one_equals_form_four(self, catalog):
        for name in ("vacuum", "squeezed"):
            st = catalog[name]
            for t in (0.3, 1.0, 2.0):
                f1 = fidelity_quadrature(st, t, 1)
                f4 = fidelity_quadrature(st, t, 4)
                assert abs(f1 - f4) < 1e-8

    def test_grid_forms_agree(self, catalog):
        for name, ts in (("vacuum", (0.3, 1.0)), ("squeezed", (1.0, 2.0))):
            st = catalog[name]
            for t in ts:
                f4 = fidelity_quadrature(st, t, 4)
                assert fidelity_quadrature(st, t, 2) == pytest.approx(f4, abs=1e-4)
                assert fidelity_quadrature(st, t, 3) == pytest.approx(f4, abs=1e-4)

    def test_grid_forms_match_grid_oracle(self, catalog):
        for name in ("compass", "random20"):
            st = catalog[name]
            for t in (0.5, 1.3):
                for form in (2, 3):
                    assert fidelity_quadrature(st, t, form) == pytest.approx(
                        ref_grid_pair_form(st, t, form), abs=2e-5
                    )

    def test_scale_relation_term_by_term(self, catalog):
        # forms 2 and 3 share one trace, so t F2(t)/2 = F3(4/t) to roundoff
        for name in ("number3", "compass", "random20"):
            st = catalog[name]
            for t in (0.1, 0.7, 2.0, 9.0):
                f2, f3 = fidelity_quadrature(st, t, 2), fidelity_quadrature(st, 4.0 / t, 3)
                assert abs(t * f2 / 2.0 - f3) <= 1e-14

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 5.0])
    def test_grid_forms_on_random60(self, t):
        # the 256^2/512^2 grid sums disagreed beyond 2e-5 for form 3 at t <= 1, form 2 at t = 5
        st = make_random(60, seed=3)
        f4 = fidelity_quadrature(st, t, 4)
        for form in (2, 3):
            assert abs(fidelity_quadrature(st, t, form) - f4) <= 1e-11

    def test_oracle_spot_checks(self, catalog, rng):
        st = catalog["random20"]
        for t in (0.5, 1.3):
            assert fidelity_quadrature(st, t, 4) == pytest.approx(
                ref_fidelity_form4(st.coeffs, t), abs=1e-7
            )

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_bad_form(self, t):
        with pytest.raises(ValueError):
            fidelity_quadrature(make_number(0, 4), t, 5)

    @pytest.mark.parametrize("form", [1, 4])
    def test_disagreeing_cross_check_raises(self, monkeypatch, form):
        # one kernel call takes both rules' nodes; only the cross-check rule's
        # slice is corrupted, and the first estimate must not be returned unchecked
        real = fidelity_module._char_sq_radial
        calls = []

        def corrupted(diags, x):
            calls.append(len(x))
            out = real(diags, x)
            out[2:] *= 1.01  # the D = 2 estimate's nodes come first
            return out

        monkeypatch.setattr(fidelity_module, "_char_sq_radial", corrupted)
        with pytest.raises(QuadratureError):
            fidelity_quadrature(make_number(1, 8), 1.0, form)
        assert calls == [2 + 3]  # D = 2 from the support of |1>, then the D + 1 rule

    def test_form4_with_rule_nodes_past_the_underflow(self):
        # the D = 420 rules reach x ~ 1680, where the radial start e^(-x/2) underflows
        st = make_random(420, seed=1)
        rho = average_channel(st, 0.02)
        psi = padded_state(st, rho.dim).coeffs
        exact = float(np.real(np.vdot(psi, rho.matrix @ psi)))
        assert abs(fidelity_quadrature(st, 0.02, 4) - exact) <= 1e-13

    @pytest.mark.parametrize("form", [1, 4])
    @pytest.mark.parametrize("name", ["number3", "coherent", "squeezed", "compass", "random20"])
    def test_one_diagonal_and_one_radial_pass(self, catalog, count_calls, name, form):
        # the rules are built first: building one runs the radial kernel too
        support = trimmed_support(state_diagonals(catalog[name]))
        gauss_laguerre_scaled(support), gauss_laguerre_scaled(support + 1)
        diagonals, radial = count_calls("state_diagonals"), count_calls("_m_seq")
        fidelity_quadrature(catalog[name], 0.7, form)
        assert (len(diagonals), len(radial)) == (1, 1)


class TestLaguerreRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 33, 64])
    def test_scaled_rule_matches_mpmath(self, n):
        # the node counts the fidelity path uses; roundoff grows with n
        x, w = gauss_laguerre_scaled(n)
        xr, wr = (np.array([float(v) for v in col]) for col in ref_gauss_laguerre_scaled(n))
        tol = 1e-13 if n <= 8 else 1e-11
        assert np.max(np.abs(x - xr) / xr) <= tol
        assert np.max(np.abs(w - wr) / wr) <= tol

    @pytest.mark.parametrize("n,tol", [(64, 1e-13), (128, 5e-13)])
    def test_christoffel_weights_near_node_limit(self, n, tol):
        # the weights' error stays at the nodes' (~1e-13 at n = 128), not magnified by L_{n+1}
        x, w = gauss_laguerre_scaled(n)
        wr = np.array([float(v) for v in ref_gauss_laguerre_scaled(n)[1]])
        assert np.max(np.abs(w - wr) / wr) <= tol

    def test_zeroth_moment_at_512_nodes(self):
        # the far nodes (x up to ~2040) take their weights from the rescaled recurrence
        x, w = gauss_laguerre_scaled(512)
        assert np.all(np.isfinite(w)) and np.all(w > 0)
        assert abs(float(np.sum(w * np.exp(-x))) - 1.0) <= 5e-14


class TestClosedForms:
    def test_coherent_values(self):
        assert coherent_fidelity(0.0) == 1.0
        assert coherent_fidelity(2.0) == 0.5
        assert coherent_fidelity(1.0) == pytest.approx(2 / 3)

    def test_squeezed_reduces_to_coherent(self):
        for t in (0.2, 1.0, 2.0):
            assert squeezed_fidelity(0.0, t) == pytest.approx(coherent_fidelity(t))

    def test_squeezed_value_and_quadrature(self):
        assert squeezed_fidelity(1.0, 1.0) == pytest.approx(
            (1 + np.cosh(2.0) + 0.25) ** -0.5
        )
        st = make_squeezed(1.0, 96)
        for t in (0.4, 1.7):
            assert fidelity_quadrature(st, t, 4) == pytest.approx(
                squeezed_fidelity(1.0, t), abs=1e-6
            )

    def test_number_reduces_to_coherent(self):
        for t in (0.3, 1.9):
            assert number_fidelity(0, t) == pytest.approx(coherent_fidelity(t))

    def test_number_one_symbolic(self):
        for t in (0.1, 0.9, 2.0, 3.1):
            assert number_fidelity(1, t) == pytest.approx(
                (1 + t * t / 4) / (1 + t / 2) ** 3, rel=1e-13
            )

    def test_number_five_oracle(self):
        st = make_number(5, 8)
        assert number_fidelity(5, 0.5) == pytest.approx(
            ref_fidelity_form4(st.coeffs, 0.5), abs=1e-6
        )

    def test_number_matches_mp_series(self):
        # one positive-term sum at every t, across t = 2 and at large n
        for n in (1, 4, 9, 60, 100):
            for t in (1.8, 1.94, 1.99, 2.0, 2.01, 2.06):
                got = number_fidelity(n, t)
                assert np.isfinite(got)
                assert got == pytest.approx(number_fidelity_mp(n, t), rel=1e-12), (n, t)

    def test_compass_limits(self):
        for t in (0.5, 1.0, 2.0):
            assert compass_fidelity(0.0, t) == pytest.approx(coherent_fidelity(t))
        assert compass_fidelity(1e6, 2.0) == pytest.approx(1 / 8)
        assert compass_fidelity(40.0, 2.0) == pytest.approx(1 / 8, abs=1e-12)

    def test_nan_parameter_rejected(self):
        with pytest.raises(ValueError):
            compass_fidelity(np.nan, 1.0)
        with pytest.raises(ValueError):
            squeezed_fidelity(np.nan, 1.0)

    def test_infinite_parameter_limits(self):
        for t in (0.5, 1.0, 2.0):
            assert compass_fidelity(np.inf, t) == 1.0 / (4.0 * (1.0 + t / 2.0))
            assert squeezed_fidelity(np.inf, t) == 0.0
            assert squeezed_fidelity(-np.inf, t) == 0.0

    def test_squeezed_at_zero_t_for_large_u(self):
        # cosh(2u) overflows past |u| ~ 355; t = 0 teleports perfectly for every u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (400.0, -400.0):
                assert squeezed_fidelity(u, 0.0) == 1.0

    def test_compass_quadrature_cross_check(self):
        st = make_compass(2.0, 48)
        assert fidelity_quadrature(st, 1.0, 4) == pytest.approx(
            compass_fidelity(2.0, 1.0), abs=1e-6
        )

    def test_scaling_relation(self):
        fns = [
            coherent_fidelity,
            lambda t: squeezed_fidelity(0.8, t),
            lambda t: number_fidelity(3, t),
            lambda t: compass_fidelity(1.7, t),
        ]
        for t in (0.5, 1.0, 1.5):
            for fn in fns:
                assert t * fn(t) / 2 == pytest.approx(fn(4 / t), abs=1e-10)

    def test_bound_is_coherent(self):
        for t in (0.0, 0.7, 2.0):
            assert max_fidelity_bound(t) == coherent_fidelity(t)


class TestRandomEnsemble:
    def test_dim_one_is_coherent_exactly(self):
        for t in (0.2, 0.5, 1.0, 2.0):
            assert abs(random_avg_fidelity(1, t) - coherent_fidelity(t)) < 1e-12

    def test_perfect_at_zero(self):
        assert random_avg_fidelity(37, 0.0) == 1.0

    def test_two_level_monte_carlo(self):
        # oracle: exact closed form for 2-level states, averaged over
        # 10^5 Haar draws from an independent generator
        rng = np.random.default_rng(424242)
        z = rng.standard_normal((100_000, 2)) + 1j * rng.standard_normal((100_000, 2))
        z /= np.linalg.norm(z, axis=1)[:, None]
        t = 2.0
        vals = two_level_fidelity(z[:, 0], z[:, 1], t)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - random_avg_fidelity(2, t)) < 3 * se

    def test_series_route_small_dims(self):
        # the literal alternating series already sheds digits by dim ~ 10
        for dim, tol in ((2, 1e-12), (5, 1e-11), (10, 1e-8), (15, 1e-7)):
            for t in (0.2, 1.0, 2.0):
                assert random_avg_fidelity(dim, t) == pytest.approx(
                    random_avg_fidelity_series(dim, t), abs=tol
                )

    def test_binomial_form_matches_mpmath_series(self):
        for dim in (1, 2, 5, 20):
            for t in (0.2, 1.0, 2.0):
                assert abs(random_avg_fidelity(dim, t) - random_avg_fidelity_mp(dim, t)) <= 1e-15

    def test_slope_values(self):
        assert random_slope_avg(1) == -0.5
        assert random_slope_avg(100) == pytest.approx(-10001 / 202)

    def test_slope_monte_carlo(self):
        rng = make_rng(31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random states own their top level
            slopes = [slope_at_zero(make_random(20, rng=rng)) for _ in range(500)]
        se = np.std(slopes) / np.sqrt(len(slopes))
        assert abs(np.mean(slopes) - random_slope_avg(20)) < 3 * se

    def test_matched_dim_against_argmin(self):
        # the nearest (d^2 + 1)/(d + 1) by exhaustive argmin over d < 400, ties to the smaller d
        cand = np.arange(1, 400)
        f = (cand**2 + 1.0) / (cand + 1.0)
        vs = np.concatenate([np.linspace(0.0, 398.0, 39801), (f[:-1] + f[1:]) / 2])
        for lo in range(0, vs.size, 2000):
            v = vs[lo : lo + 2000]
            want = cand[np.argmin(np.abs(f - v[:, None]), axis=1)]
            assert [matched_random_dim(x) for x in v] == want.tolist()

    def test_matched_dim_past_399(self):
        # (451^2 + 1)/452 = 450.004; the old argmin over d < 400 stopped at 399
        assert matched_random_dim(450.0) == 451
        assert matched_random_dim(600.0) == 601


class TestSlopeAndScales:
    def test_vacuum_slope(self):
        assert slope_at_zero(make_number(0, 8)) == pytest.approx(-0.5, abs=1e-12)
        assert slope_at_zero(make_number(0, 8), "gradient") == pytest.approx(-0.5, rel=1e-3)

    def test_number_slope(self):
        for n in (1, 4):
            assert slope_at_zero(make_number(n, 12)) == pytest.approx(-(2 * n + 1) / 2)

    def test_compass_slope_closed_form(self):
        for a in (0.8, 2.0):
            st = make_compass(a, 64)
            assert slope_at_zero(st) == pytest.approx(-compass_slope_factor(a) / 2, abs=1e-9)

    def test_gradient_route(self, catalog):
        for name in ("number3", "compass"):
            st = catalog[name]
            grad = slope_at_zero(st, "gradient")
            assert grad == pytest.approx(slope_at_zero(st), rel=1e-3)
            assert grad == pytest.approx(ref_grid_slope(st), rel=1e-3)

    def test_gradient_route_on_quick_start_state(self):
        # the finite-difference sum stayed 1.6e-3 off the variance route at 1024^2
        st = make_compass(5 / np.sqrt(2), 64)
        assert slope_at_zero(st, "gradient") == pytest.approx(slope_at_zero(st), rel=1e-12)

    def test_gradient_route_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(fidelity_module, "wigner_gradient_norm", lambda st: 0.6)
        with pytest.raises(QuadratureError):
            slope_at_zero(make_number(0, 8), "gradient")

    @pytest.mark.parametrize("off", [1 + 1e-9, np.nan])
    def test_gradient_route_small_disagreement_raises(self, monkeypatch, off):
        # the two routes agree to ~1e-14, so a norm 1e-9 off (or NaN) must not pass the cross-check
        real = fidelity_module.wigner_gradient_norm
        monkeypatch.setattr(fidelity_module, "wigner_gradient_norm", lambda st: real(st) * off)
        with pytest.raises(QuadratureError):
            slope_at_zero(make_compass(2.0, 64), "gradient")

    def test_gradient_route_rejects_mixed_input(self):
        # the gradient identity holds for pure states only: a wrong type, not a numerical failure
        rho = make_thermal(1.0, 64)
        with pytest.raises(TypeError):
            slope_at_zero(rho, "gradient")
        assert slope_at_zero(rho) == pytest.approx(-1.5, abs=1e-12)

    def test_scale_reports(self):
        rep = scale_report(make_number(0, 8))
        assert (rep.fine_scale, rep.extent) == pytest.approx((1.0, 2.0))
        for n in (2, 7):
            rep = scale_report(make_number(n, 16))
            assert rep.fine_scale == pytest.approx(1 / np.sqrt(2 * n + 1), abs=1e-12)
        for u in (0.4, 1.1):
            rep = scale_report(make_squeezed(u, 128))
            assert rep.fine_scale == pytest.approx(1 / np.sqrt(np.cosh(2 * u)), abs=1e-9)
        assert rep.fine_scale * rep.extent == pytest.approx(2.0, abs=1e-12)
        assert rep.t_crit == pytest.approx(1 / abs(rep.slope0))


class TestInvariances:
    def test_displacement_invariance(self):
        f_vac = fidelity_quadrature(make_number(0, 8), 1.0, 4)
        f_coh = fidelity_quadrature(make_coherent(ComplexAmplitude(1.5, -0.8), 48), 1.0, 4)
        assert f_coh == pytest.approx(f_vac, abs=1e-8)

    def test_rotation_invariance(self):
        st = make_compass(2.0, 48)
        theta = 0.73
        rotated = PureState(st.coeffs * np.exp(1j * theta * np.arange(st.dim)))
        for t in (0.6, 1.4):
            assert fidelity_quadrature(rotated, t, 4) == pytest.approx(
                fidelity_quadrature(st, t, 4), abs=1e-6
            )

    def test_bound_battery(self, rng):
        states = [make_random(int(d), seed=int(s)) for d, s in
                  zip(rng.integers(2, 30, 10), rng.integers(0, 1000, 10))]
        for t in (0.5, 1.0, 2.0):
            cap = max_fidelity_bound(t) + 1e-9
            for st in states:
                assert fidelity_quadrature(st, t, 4) <= cap

    def test_curve_monotone_convex(self, catalog):
        ts = np.linspace(0.0, 2.0, 9)
        curve = quadrature_curve(catalog["compass"], ts, form=4)
        curve.validate()

    def test_curve_validation_rejects(self):
        with pytest.raises(ValueError):
            FidelityCurve(np.array([0.0, 1.0]), np.array([0.5, 0.6])).validate()
        with pytest.raises(ValueError):
            FidelityCurve(np.array([0.0, 1.0]), np.array([1.5, 0.5])).validate()


class TestClassicalFidelity:
    def test_vacuum_half(self):
        # Gaussian integral oracle: pi int Q^2 = pi int e^{-2x}/pi^2 d2xi = 1/2
        assert classical_fidelity(make_number(0, 8)) == pytest.approx(0.5, abs=1e-6)

    def test_number_one_quarter(self):
        assert classical_fidelity(make_number(1, 8)) == pytest.approx(0.25, abs=1e-6)

    def test_matches_form4_at_two(self, catalog):
        for name in ("compass", "squeezed"):
            st = catalog[name]
            assert classical_fidelity(st) == pytest.approx(
                fidelity_quadrature(st, 2.0, 4), abs=1e-4
            )

    def test_matches_grid_oracle(self, catalog):
        for st in (catalog["compass"], catalog["squeezed"], make_thermal(1.0, 64)):
            assert classical_fidelity(st) == pytest.approx(ref_grid_classical(st), abs=1e-4)

    def test_thermal_closed_form(self):
        # Q of a thermal state is e^{-|a|^2/(nbar+1)} / (pi (nbar+1)): pi int Q^2 = 1/(2(nbar+1))
        assert classical_fidelity(make_thermal(1.0, 64)) == pytest.approx(0.25, abs=1e-12)
