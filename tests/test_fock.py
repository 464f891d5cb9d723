import numpy as np
import pytest

from oracles import (
    _ref_log_start,
    _ref_radial_slabs,
    ref_displacement_element,
    ref_displacement_expm,
    ref_m_element,
    ref_quad_moments,
)

from subplanck import (
    ComplexAmplitude,
    DensityOp,
    PureState,
    TruncationError,
    TruncationWarning,
    displacement_element,
    displacement_matrix,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_squeezed,
    make_thermal,
    quad_moments,
)
from subplanck.fock import _m_seq, displacement_matrices
from subplanck.quadrature import polar_rule


class TestComplexAmplitude:
    def test_value_decomposition(self):
        a = ComplexAmplitude(3.0, -1.0)
        assert a.value == pytest.approx((3.0 - 1.0j) / np.sqrt(2))
        assert a.abs2 == pytest.approx((9 + 1) / 2)

    def test_roundtrip(self):
        z = 0.7 - 0.2j
        assert ComplexAmplitude.from_complex(z).value == pytest.approx(z)


class TestDisplacementElement:
    def test_vacuum_gaussian(self):
        mu = ComplexAmplitude(0.7, -1.3)
        assert displacement_element(0, 0, mu) == pytest.approx(np.exp(-mu.abs2 / 2))

    def test_identity_at_zero(self):
        for n in (0, 3, 11):
            assert displacement_element(n, n, 0) == 1.0
        assert displacement_element(2, 5, 0) == 0.0

    def test_raising_element(self):
        mu = ComplexAmplitude(0.4, 0.9)
        assert displacement_element(1, 0, mu) == pytest.approx(
            mu.value * np.exp(-mu.abs2 / 2)
        )

    def test_adjoint_symmetry(self, rng):
        for _ in range(60):
            m, n = rng.integers(0, 50, 2)
            mu = complex(rng.normal(scale=2), rng.normal(scale=2))
            lhs = displacement_element(m, n, mu)
            rhs = np.conj(displacement_element(n, m, -mu))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_against_laguerre_closed_form(self, rng):
        for _ in range(80):
            m, n = rng.integers(0, 40, 2)
            mu = complex(rng.normal(scale=1.5), rng.normal(scale=1.5))
            assert displacement_element(m, n, mu) == pytest.approx(
                ref_displacement_element(m, n, mu), abs=1e-12
            )

    def test_matrix_against_expm(self):
        mu = 0.9 - 0.6j
        ref, _ = ref_displacement_expm(14, mu)
        got = displacement_matrix(14, mu)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_batched_matrices(self, rng):
        mus = rng.normal(size=3) + 1j * rng.normal(size=3)
        stack = displacement_matrices(10, mus)
        for k, mu in enumerate(mus):
            assert np.max(np.abs(stack[k] - displacement_matrix(10, mu))) < 1e-13

    def test_rectangular_blocks(self):
        mu = 0.7 + 1.1j
        square, tall = ref_displacement_expm(10, mu)
        assert np.max(np.abs(displacement_matrix(16, mu)[:, :10] - tall[:16])) < 1e-12
        assert np.max(np.abs(displacement_matrix(10, mu)[:6] - square[:6])) < 1e-12

    def test_unitarity_on_contained_state(self):
        psi = make_coherent(ComplexAmplitude(1.0, 1.0), 40)
        mu = 0.8 - 0.3j
        r = np.sqrt(psi.dim - 1) + abs(mu)  # D(mu)|psi> stays within ceil(r^2 + 8r + 16) levels
        rows = int(np.ceil(r * r + 8 * r + 16))
        out = displacement_matrix(rows, mu)[:, : psi.dim] @ psi.coeffs
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-8)

    def test_completeness_schur_face(self):
        # int (d2nu/pi) |<k|D(nu)|m>|^2 = 1 for k, m <= 6
        for k in range(7):
            for m in range(7):
                x, theta, wx, wt = polar_rule(1.0, 40, 8)
                vals = np.array(
                    [abs(displacement_element(k, m, np.sqrt(xi))) ** 2 for xi in x]
                )
                total = float(np.sum(wx * vals))  # angular integrand is radial
                assert total == pytest.approx(1.0, abs=1e-6)


class TestRadialKernel:
    def test_matches_mpmath(self):
        # all offsets in one pass: rows drop out as their counts run out
        ds = np.array([0, 1, 7, 60, 150, 295])
        xs = np.array([0.0, 0.3, 5.0, 80.0, 300.0, 900.0])
        counts = 300 - ds  # d + n <= 299
        got = [[] for _ in ds]
        for slab in _m_seq(ds, counts, xs):
            for i in range(slab.shape[0]):
                got[i].append(slab[i].copy())
        worst = 0.0
        for i, d in enumerate(ds):
            assert len(got[i]) == counts[i]
            want = np.array([[ref_m_element(n, d, x) for x in xs] for n in range(counts[i])])
            worst = max(worst, float(np.max(np.abs(np.array(got[i]) - want))))
        assert worst <= 1e-12

    def test_equals_general_recurrence_at_sig_one(self):
        # _m_seq is the sig = 1 case of the oracles' general recurrence, bit for bit
        ds = np.array([0, 1, 2, 9, 40])
        xs = np.array([0.0, 1e-300, 0.3, 5.0, 80.0, 900.0])
        counts = 60 - ds
        with np.errstate(divide="ignore"):
            start = _ref_log_start(ds, np.where(xs > 0, np.log(xs), -np.inf), xs / 2)
        want = _ref_radial_slabs(ds, counts, start, 1.0, xs)
        for got, ref in zip(_m_seq(ds, counts, xs), want, strict=True):
            assert np.array_equal(got, ref)

    def test_far_points_match_mpmath(self):
        # past x ~ 1490 the start e^(-x/2) underflows, yet M_n^(d) is back to ~1e-2
        # by n ~ x/4; x = 0 and 1e-300 ride in the same call on the plain path
        ds, counts = np.array([10, 3, 0]), np.array([601, 421, 401])
        xs = np.array([0.0, 1e-300, 1500.0, 1700.0, 2300.0])
        slabs = list(_m_seq(ds, counts, xs))
        for row, (n, d, x) in enumerate([(600, 10, 2300.0), (420, 3, 1700.0), (400, 0, 1500.0)]):
            want = np.array([ref_m_element(n, d, v) for v in xs])
            assert abs(ref_m_element(n, d, x)) > 1e-3
            assert np.max(np.abs(slabs[n][row] - want)) <= 1e-14


class TestCoherent:
    def test_zero_is_vacuum(self):
        st = make_coherent(ComplexAmplitude(0, 0), 8)
        assert st.coeffs[0] == 1.0 and np.all(st.coeffs[1:] == 0)

    def test_moments_via_independent_tridiagonal(self):
        # oracle: expectation through explicitly built quadrature matrices
        st = make_coherent(ComplexAmplitude(2.0, 0.0), 64)
        a = np.diag(np.sqrt(np.arange(1, 64)), 1)
        x = (a + a.T) / np.sqrt(2)
        p = (a - a.T) / (1j * np.sqrt(2))
        mean_x = np.real(np.vdot(st.coeffs, x @ st.coeffs))
        mean_p = np.real(np.vdot(st.coeffs, p @ st.coeffs))
        assert mean_x == pytest.approx(2.0, abs=1e-10)
        assert mean_p == pytest.approx(0.0, abs=1e-12)

    def test_poisson_norm_before_renormalization(self):
        nu = ComplexAmplitude(1.2, 0.4)
        n = np.arange(64)
        from scipy.special import gammaln

        raw = np.exp(0.5 * n * np.log(nu.abs2) - 0.5 * gammaln(n + 1) - nu.abs2 / 2)
        assert np.sum(raw**2) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_error_raised(self):
        with pytest.raises(TruncationError) as err:
            make_coherent(ComplexAmplitude(6.0, 0.0), 12)
        assert err.value.tail > 1e-10


class TestNumber:
    def test_basis_vectors(self):
        assert np.all(make_number(0, 8).coeffs == make_coherent(ComplexAmplitude(0, 0), 8).coeffs)
        st = make_number(3, 8)
        assert st.coeffs[3] == 1.0 and np.sum(np.abs(st.coeffs)) == 1.0

    def test_index_error(self):
        with pytest.raises(IndexError):
            make_number(8, 8)

    def test_negative_index_rejected(self):
        # not |dim - 1> through negative indexing
        with pytest.raises(ValueError):
            make_number(-1, 64)

    def test_variances(self):
        for n in (0, 2, 5):
            _, _, vx, vp = quad_moments(make_number(n, 16))
            assert vx == pytest.approx(n + 0.5, abs=1e-12)
            assert vp == pytest.approx(n + 0.5, abs=1e-12)


class TestSqueezed:
    def test_zero_is_vacuum(self):
        st = make_squeezed(0.0, 16)
        assert st.coeffs[0] == 1.0

    def test_char_fn_closed_form(self):
        from subplanck import char_fn

        u = 0.5
        st = make_squeezed(u, 64)
        rng = np.random.default_rng(3)
        for _ in range(10):
            m1, m2 = rng.normal(scale=1.2, size=2)
            got = char_fn(st, ComplexAmplitude(m1, m2))
            want = np.exp(-(np.exp(2 * u) * m1**2 + np.exp(-2 * u) * m2**2) / 4)
            assert got == pytest.approx(want, abs=1e-8)

    def test_variances(self):
        u = 0.5
        _, _, vx, vp = quad_moments(make_squeezed(u, 64))
        assert vx == pytest.approx(np.exp(-2 * u) / 2, abs=1e-10)
        assert vp == pytest.approx(np.exp(2 * u) / 2, abs=1e-10)

    def test_even_support_only(self):
        st = make_squeezed(0.7, 64)
        assert np.all(st.coeffs[1::2] == 0)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            make_squeezed(2.5, 16)


class TestCompass:
    def test_zero_is_vacuum(self):
        assert make_compass(0.0, 8).coeffs[0] == 1.0

    def test_figure_scale_values(self):
        st = make_compass(5 / np.sqrt(2), 64)
        _, _, vx, vp = quad_moments(st)
        assert vx + vp == pytest.approx(26.0, abs=2e-4)
        assert 2 * np.sqrt(vx + vp) == pytest.approx(10.2, abs=0.005)

    def test_normalized(self):
        for a in (0.3, 1.0, 2.7):
            st = make_compass(a, 64)
            assert np.sum(np.abs(st.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_support_mod_four(self):
        st = make_compass(1.5, 32)
        idx = np.nonzero(st.coeffs)[0]
        assert np.all(idx % 4 == 0)


class TestRandom:
    def test_dim_one_is_vacuum(self):
        st = make_random(1, seed=5)
        assert st.coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert st.coeffs[0].imag == 0.0

    def test_uniform_level_occupation(self):
        dim, draws = 100, 10_000
        rng = make_rng(123)
        mean_p0 = np.mean(
            [np.abs(make_random(dim, rng=rng).coeffs[0]) ** 2 for _ in range(draws)]
        )
        # E|c_0|^2 = 1/dim, Var|c_0|^2 ~ 1/dim^2 per draw
        se = 1.0 / (dim * np.sqrt(draws))
        assert abs(mean_p0 - 1.0 / dim) < 3 * se

    def test_seed_reproducible(self):
        a = make_random(50, seed=99).coeffs
        b = make_random(50, seed=99).coeffs
        assert np.array_equal(a, b)


class TestThermal:
    def test_zero_temperature(self):
        rho = make_thermal(0.0, 8)
        assert rho.matrix[0, 0] == 1.0 and np.sum(np.abs(rho.matrix)) == 1.0

    def test_mean_occupation_diagonal_sum(self):
        rho = make_thermal(1.0, 64)
        n = np.arange(64)
        assert float(np.real(np.sum(n * np.diagonal(rho.matrix)))) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_purity_geometric_series(self):
        for nbar in (0.5, 1.0, 2.0):
            rho = make_thermal(nbar, 96)
            purity = float(np.real(np.trace(rho.matrix @ rho.matrix)))
            assert purity == pytest.approx(1.0 / (2 * nbar + 1), abs=1e-8)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            make_thermal(2.0, 16)

    @pytest.mark.parametrize("nbar", [np.nan, np.inf, -1.0])
    def test_non_finite_nbar_rejected(self, nbar):
        with pytest.raises(ValueError, match="finite"):
            make_thermal(nbar)


class TestQuadMoments:
    def test_vacuum(self):
        assert quad_moments(make_number(0, 8)) == pytest.approx((0, 0, 0.5, 0.5))

    def test_coherent(self):
        mx, mp, vx, vp = quad_moments(make_coherent(ComplexAmplitude(1.1, -0.7), 48))
        assert (mx, mp) == pytest.approx((1.1, -0.7), abs=1e-9)
        assert (vx, vp) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_edge_mass_warning(self):
        c = np.zeros(6)
        c[5] = 1.0
        with pytest.warns(TruncationWarning):
            quad_moments(PureState(c))
        with pytest.warns(TruncationWarning):
            quad_moments(DensityOp(np.diag([0.5, 0.0, 0.5])))

    @pytest.mark.filterwarnings("ignore::subplanck.errors.TruncationWarning")
    def test_matches_dense_operators(self, catalog):
        rng = make_rng(12)
        z = rng.standard_normal((296, 5)) + 1j * rng.standard_normal((296, 5))
        cases = dict(catalog)
        cases.update({
            "random296": make_random(296, seed=3),
            "thermal0.5": make_thermal(0.5, 64),
            "thermal2": make_thermal(2.0, 96),
            "rank5_296": DensityOp(z @ z.conj().T / np.sum(np.abs(z) ** 2)),
        })
        for name, state in cases.items():
            got = np.array(quad_moments(state))
            want = np.array(ref_quad_moments(state))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), normalize=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            PureState([bad, 1.0])
        with pytest.raises(ValueError):
            DensityOp(np.array([[0.5, bad], [bad, 0.5]]))

    def test_density_validation(self):
        bad = np.array([[0.6, 0.2], [0.1, 0.4]])
        with pytest.raises(ValueError):
            DensityOp(bad)
        with pytest.raises(ValueError):
            DensityOp(np.diag([0.7, 0.7]))

    def test_canonical_phase(self):
        st = PureState(np.array([1j, 0.5j]))
        peak = st.coeffs[np.argmax(np.abs(st.coeffs))]
        assert peak.imag == 0 and peak.real > 0
