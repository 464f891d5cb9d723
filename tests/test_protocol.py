import numpy as np
import pytest
from scipy.stats import chi2

from oracles import (
    average_channel_displaced,
    channel_fidelity,
    density_at,
    marginal_wigner_a,
    ref_conditional_grid,
    ref_conditional_values,
    ref_mc_average,
)

from subplanck import (
    ComplexAmplitude,
    ConditioningError,
    DensityOp,
    alice_outcome_density,
    average_channel,
    char_fn,
    compass_fidelity,
    conditional_output,
    entanglement_fidelity,
    epr_wigner,
    fidelity_quadrature,
    husimi,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_thermal,
    mc_average,
    p_dist,
    p_tilde,
    quad_moments,
)
from subplanck import phasespace, protocol
from subplanck.phasespace import squasi_values, wigner_values
from subplanck.protocol import (
    ConditionalKernel,
    OutcomeSampler,
    _outcome_order,
    conditional_fidelity,
)


@pytest.fixture(scope="module")
def coh():
    return make_coherent(ComplexAmplitude(1.0, 0.5), 48)


class TestResourceFunctions:
    def test_epr_origin(self):
        assert epr_wigner(0.8, 0, 0) == pytest.approx(4 / np.pi**2)

    def test_epr_factorizes(self, rng):
        t = 0.65
        for _ in range(5):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            lhs = epr_wigner(t, a, b)
            rhs = 2 * t * p_dist(t, b + np.conj(a)) * p_tilde(t, b - np.conj(a))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_epr_classical_point_is_product_of_vacua(self, rng):
        for _ in range(5):
            a = complex(rng.normal(scale=0.5), rng.normal(scale=0.5))
            b = complex(rng.normal(scale=0.5), rng.normal(scale=0.5))
            lhs = epr_wigner(2.0, a, b)
            vac = lambda z: 2 / np.pi * np.exp(-2 * abs(z) ** 2)
            assert lhs == pytest.approx(vac(a) * vac(b), abs=1e-12)

    def test_noise_distribution_normalized_and_variance(self):
        # Gaussian-moment oracle in the d2nu = dnu1 dnu2 / 2 convention
        from numpy.polynomial.hermite import hermgauss

        t = 0.7
        z, w = hermgauss(60)
        sigma = np.sqrt(t / 2)
        pts1 = sigma * z
        norm = 0.0
        var1 = 0.0
        for i, z1 in enumerate(pts1):
            for j, z2 in enumerate(pts1):
                nu = ComplexAmplitude(z1, z2)
                f = p_dist(t, nu) * np.exp(z[i] ** 2 + z[j] ** 2)
                norm += w[i] * w[j] * f * sigma**2 / 2
                var1 += w[i] * w[j] * f * z1**2 * sigma**2 / 2
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert var1 == pytest.approx(t / 2, abs=1e-10)

    def test_p_tilde_bounds(self, rng):
        t = 1.3
        assert np.pi * p_tilde(t, 0) == pytest.approx(1.0)
        for _ in range(10):
            mu = ComplexAmplitude(rng.normal(scale=2), rng.normal(scale=2))
            assert np.pi * p_tilde(t, mu) <= 1.0 + 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            p_dist(0.0, 0)
        with pytest.raises(ValueError):
            epr_wigner(0.0, 0, 0)


class TestAverageChannel:
    def test_identity_at_zero(self, coh):
        rho = average_channel(coh, 0.0)
        assert np.max(np.abs(rho.matrix - coh.density().matrix)) < 1e-14

    def test_vacuum_becomes_thermal(self):
        # characteristic-function product: Phi_out = e^{-(1+t)|mu|^2/2},
        # a thermal state with nbar = t/2
        t = 1.0
        rho = average_channel(make_number(0, 8), t)
        ref = make_thermal(t / 2, rho.dim)
        assert np.max(np.abs(rho.matrix - ref.matrix)) < 1e-10

    def test_multiplication_law(self, coh, rng):
        t = 1.0
        rho = average_channel(coh, t)
        for _ in range(20):
            mu = ComplexAmplitude(rng.normal(), rng.normal())
            lhs = char_fn(rho, mu)
            rhs = np.exp(-t * mu.abs2 / 2) * char_fn(coh, mu)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_channel_overlap_is_fidelity(self, coh):
        for t in (0.5, 1.5):
            rho = average_channel(coh, t)
            assert channel_fidelity(coh, rho) == pytest.approx(
                fidelity_quadrature(coh, t, 4), abs=1e-6
            )

    def test_channel_matches_closed_forms_across_catalog(self):
        from subplanck import (
            compass_fidelity,
            make_compass,
            make_squeezed,
            number_fidelity,
            squeezed_fidelity,
        )

        t = 0.8
        cases = [
            (make_number(3, 8), number_fidelity(3, t)),
            (make_squeezed(0.6, 64), squeezed_fidelity(0.6, t)),
            (make_compass(1.5, 48), compass_fidelity(1.5, t)),
        ]
        for state, closed in cases:
            rho = average_channel(state, t)
            assert channel_fidelity(state, rho) == pytest.approx(closed, abs=1e-5)

    @pytest.mark.parametrize("t", [0.02, 0.5, 1.0, 2.0, 5.0])
    def test_exact_against_closed_forms(self, t):
        from subplanck import make_squeezed, number_fidelity, squeezed_fidelity
        from subplanck.fidelity import coherent_fidelity

        cases = [
            (make_coherent(ComplexAmplitude(1.0, 0.5), 48), coherent_fidelity(t)),
            (make_compass(2.0, 48), compass_fidelity(2.0, t)),
            (make_number(3, 8), number_fidelity(3, t)),
            (make_squeezed(0.6, 64), squeezed_fidelity(0.6, t)),
        ]
        for state, closed in cases:
            rho = average_channel(state, t)
            assert abs(channel_fidelity(state, rho) - closed) <= 1e-13
            assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-15
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)  # built Hermitian, unchecked

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_thermal_stays_thermal(self, t):
        rho = average_channel(make_thermal(0.5, 64), t)
        ref = make_thermal(0.5 + t / 2, rho.dim)
        assert np.max(np.abs(rho.matrix - ref.matrix)) <= 1e-14

    @pytest.mark.parametrize("t", [12.0, 20.0])
    def test_strong_noise_is_sized_not_refused(self, t):
        from subplanck import number_fidelity

        state = make_number(3, 8)
        rho = average_channel(state, t)
        assert abs(channel_fidelity(state, rho) - number_fidelity(3, t)) <= 1e-12

    def test_output_size_is_the_smallest_exact_bound(self):
        # vacuum in, thermal nbar = t/2 out: the mass at and above level n is q^n
        for t in (0.5, 2.0, 20.0):
            q = (t / 2) / (1 + t / 2)
            rho = average_channel(make_number(0, 1), t)
            assert q**rho.dim <= 1e-15 < q ** (rho.dim - 1)

    def test_one_build_per_channel(self, coh, monkeypatch):
        calls = []
        build = protocol._reconstruct_damped

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(protocol, "_reconstruct_damped", counting)
        for t in (0.02, 1.0, 20.0):
            average_channel(coh, t)
        assert len(calls) == 3

    def test_displaced_quadrature_oracle(self):
        st = make_number(2, 8)
        rho = average_channel(st, 0.7)
        oracle = average_channel_displaced(st, 0.7, nodes=40, out_dim=rho.dim)
        assert np.max(np.abs(rho.matrix - oracle)) < 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_output_wigner_is_input_squasi(self, catalog, t):
        # Phi_out = e^{-t|mu|^2/2} Phi_in = Phi_in^(-t), so W_out = W_in^(-t) (Cahill & Glauber)
        kets = [make_coherent(ComplexAmplitude(1.0, 0.5), 40), make_number(1, 40),
                make_number(4, 40)]
        mixture = DensityOp(sum(w * k.density().matrix for w, k in zip((0.5, 0.3, 0.2), kets)))
        states = dict(catalog, thermal=make_thermal(0.7, 40), mixture3=mixture)
        q = np.linspace(-4.0, 4.0, 33)
        grid = (q[:, None] + 1j * q[None, :]) / np.sqrt(2.0)
        scattered = np.random.default_rng(3).normal(scale=1.5, size=(40, 2)).view(complex)[:, 0]
        for name, st in states.items():
            rho = average_channel(st, t)
            for pts in (grid, scattered):
                got, want = wigner_values(rho, pts), squasi_values(st, -t, pts)
                assert np.max(np.abs(got - want)) <= 1e-13, name

    def test_convolution_law_on_grids(self, coh):
        # Wigner of the averaged output equals P smeared over the input
        from subplanck.phasespace import default_grid

        t = 0.9
        rho = average_channel(coh, t)
        grid = default_grid(coh, resolution=48)
        pts = grid.points()
        w_out = wigner_values(rho, pts)
        z, wts = np.polynomial.hermite.hermgauss(16)
        sigma = np.sqrt(t) / np.sqrt(2.0)
        shifts = sigma * (z[:, None] + 1j * z[None, :])
        stacked = wigner_values(coh, pts[None, None] - shifts[..., None, None])
        acc = np.einsum("i,j,ijab->ab", wts, wts, stacked)
        assert np.max(np.abs(acc / np.pi - w_out)) < 1e-3


class TestOutcomeDensity:
    def test_normalization(self, coh):
        sampler = OutcomeSampler(coh, 1.0, resolution=256)
        assert sampler.mass == pytest.approx(1.0, abs=1e-3)

    def test_heterodyne_limit(self, coh):
        for q in ((0.3, -0.5), (1.0, 0.2), (2.0, 1.0)):
            xi = ComplexAmplitude(*q)
            assert alice_outcome_density(coh, 2.0, xi) == pytest.approx(
                husimi(coh, xi), abs=1e-6
            )

    def test_small_t_gaussian_approximation(self, coh):
        # p(xi) ~ (2t/pi) e^{-2t|xi - <v>|^2} within 5% near the peak
        t = 0.02
        for offset in (0.0, 0.5, 1.0):
            xi = ComplexAmplitude(1.0 + offset, 0.5)
            approx = 2 * t / np.pi * np.exp(-t * offset**2)  # components: e^{-t dq^2}
            got = alice_outcome_density(coh, t, xi)
            assert got == pytest.approx(approx, rel=0.05)

    @staticmethod
    def coherent_density(t, xi):
        # W^(s_t) of |1.0, 0.5>: 1 - s_t = (1 + t/2)^2 / t
        g = (1.0 + t / 2.0) ** 2
        d2 = np.abs(xi - ComplexAmplitude(1.0, 0.5).value) ** 2
        return 2 * t / (np.pi * g) * np.exp(-2 * t * d2 / g)

    def test_coherent_closed_form(self, coh):
        for t in (0.02, 0.3, 1.0, 2.0, 5.0):
            for q in ((1.0, 0.5), (0.3, -0.5), (2.0, 1.0), (-1.5, 2.5)):
                xi = ComplexAmplitude(*q)
                want = self.coherent_density(t, xi.value)
                assert alice_outcome_density(coh, t, xi) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [0.02, 1.0])
    def test_sampler_grid_closed_form(self, coh, t):
        grid = OutcomeSampler(coh, t).grid
        want = self.coherent_density(t, grid.points())
        assert np.max(np.abs(grid.values - want)) <= 1e-12

    def test_marginal_wigner_shape(self):
        t = 2.0
        a = ComplexAmplitude(0.6, -0.2)
        assert marginal_wigner_a(t, a) == pytest.approx(
            2 / np.pi * np.exp(-2 * a.abs2)
        )


class TestSampling:
    def test_chi_square_against_density(self, coh):
        t = 1.0
        sampler = OutcomeSampler(coh, t, resolution=256)
        rng = make_rng(7)
        x1, x2, _ = sampler.sample(rng, 10_000)
        bins = np.linspace(-3.5, 5.5, 10)
        h, _, _ = np.histogram2d(x1 + 0 * x2, x2 + 0 * x1, bins=(bins, bins - 2.0))
        counts = h.ravel()
        p = sampler.grid.values
        a1 = sampler.grid.axis1
        a2 = sampler.grid.axis2
        cell = sampler.grid.cell_measure
        expected = np.zeros_like(counts)
        k = 0
        for i in range(9):
            for j in range(9):
                m1 = (a1 >= bins[i]) & (a1 < bins[i + 1])
                m2 = (a2 >= bins[j] - 2.0) & (a2 < bins[j + 1] - 2.0)
                expected[k] = np.sum(p[np.ix_(m1, m2)]) * cell * 10_000
                k += 1
        keep = expected > 20
        stat = np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
        dof = int(np.sum(keep)) - 1
        assert chi2.sf(stat, dof) > 0.01

    def test_heterodyne_mean(self, coh):
        t = 2.0
        rng = make_rng(12)
        sampler = OutcomeSampler(coh, t, resolution=256)
        x1, x2, _ = sampler.sample(rng, 10_000)
        # heterodyne statistics: per-component variance 1 around the mean
        for mean, got in ((1.0, x1.mean()), (0.5, x2.mean())):
            assert abs(got - mean) < 3 / np.sqrt(10_000)

    def test_seeded_reproducibility(self, coh):
        shared = OutcomeSampler(coh, 1.0, resolution=256)
        draws = [shared.sample(make_rng(3), 5) for _ in range(2)]
        for a, b in zip(*draws):
            assert np.array_equal(a, b)

    def test_degenerate_t_rejected(self, coh):
        with pytest.raises(ValueError):
            OutcomeSampler(coh, 0.0)


class TestConditionalOutput:
    def test_normalized(self, coh):
        out = conditional_output(coh, 1.0, ComplexAmplitude(1.2, 0.1))
        assert out.integrate() == pytest.approx(1.0, abs=1e-3)

    def test_classical_output_is_coherent_at_xi(self, coh):
        # at t = 2 Bob holds |xi>; the conditional Wigner peaks there
        xi = ComplexAmplitude(1.6, 0.9)
        out = conditional_output(coh, 2.0, xi)
        w_ref = wigner_values(make_coherent(xi, 48), out.points())
        assert np.max(np.abs(out.values - w_ref)) < 1e-6

    def test_small_t_xi_independent_limit(self, coh):
        t = 0.02
        rho = average_channel(coh, t)
        out = conditional_output(coh, t, ComplexAmplitude(1.0, 0.5))
        w_avg = wigner_values(rho, out.points())
        tv = 0.5 * np.sum(np.abs(out.values - w_avg)) * out.cell_measure
        assert tv < 0.01

    def test_conditioning_error(self, coh):
        with pytest.raises(ConditioningError):
            conditional_output(coh, 0.5, ComplexAmplitude(30.0, 30.0))

    def test_one_coefficient_build_per_kernel(self, monkeypatch):
        # the kernel builds its W^(s) matrix once; outcomes only add factors
        state = make_compass(2.0, 48)
        calls = []
        build = phasespace._coefficient_matrix

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(phasespace, "_coefficient_matrix", counting)
        kern = ConditionalKernel(state, 0.02)
        for q in ((0.3, -0.2), (-1.0, 0.4)):
            kern.evaluate(*q, 0.1)
        assert len(calls) == 1
        assert np.array_equal(kern.coeffs, phasespace._smoothed_matrix(build(state), kern.order))

    @pytest.mark.parametrize("call", ["mc_average", "conditional_output"])
    def test_one_coefficient_build_per_protocol_call(self, monkeypatch, call):
        # C~ serves the kernel matrix, p(xi) and both fidelity orders
        state, t = make_compass(2.0, 48), 0.5
        sampler = OutcomeSampler(state, t)
        calls = []
        build = phasespace._coefficient_matrix

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(phasespace, "_coefficient_matrix", counting)
        if call == "mc_average":
            mc_average(state, t, 20, make_rng(2), sampler=sampler)
        else:
            conditional_output(state, t, ComplexAmplitude(0.3, -0.2))
        assert len(calls) == 1

    @pytest.mark.parametrize("t", [0.02, 0.5, 1.0])
    def test_coherent_input_gives_coherent_output(self, coh, t):
        # the output conditioned on xi is |xi + q (alpha - xi)>, q = (2 - t)/(2 + t)
        xi = ComplexAmplitude(0.3, -0.2)
        out = conditional_output(coh, t, xi)
        q = (2.0 - t) / (2.0 + t)
        center = xi.value + q * (ComplexAmplitude(1.0, 0.5).value - xi.value)
        want = 2.0 / np.pi * np.exp(-2.0 * np.abs(out.points() - center) ** 2)
        assert np.max(np.abs(out.values - want)) <= 1e-12

    # the grid reference cuts its input grid at 1.2 L + 3/sqrt2, which costs the
    # thermal input 1.3e-8 at t = 0.02; the cases stay where its quadrature is exact
    @pytest.mark.parametrize("name,t", [
        ("coherent", 0.02), ("compass2", 0.02), ("compass2", 0.5), ("random12", 1.0),
        ("thermal", 0.5), ("thermal", 2.0),
    ])
    def test_matches_grid_quadrature(self, name, t):
        state = make_thermal(0.5, 40) if name == "thermal" else MC_STATES[name]()
        xi = ComplexAmplitude(0.3, -0.2)
        out = conditional_output(state, t, xi)
        p_xi = alice_outcome_density(state, t, xi)
        ref = ref_conditional_grid(state, t, xi.q1, xi.q2, p_xi, out)
        assert np.max(np.abs(out.values - ref)) <= 1e-9


class TestMonteCarlo:
    def test_single_sample_equals_conditional(self, coh):
        t = 1.0
        sampler = OutcomeSampler(coh, t, resolution=256)
        res = mc_average(coh, t, 1, make_rng(5), sampler=sampler)
        kern = ConditionalKernel(coh, t)
        dens = density_at(sampler, res.xi1, res.xi2)
        ref = kern.evaluate(float(res.xi1[0]), float(res.xi2[0]), float(dens[0]))
        assert np.max(np.abs(res.grid.values - ref)) < 1e-12

    def test_seed_reproducible(self, coh):
        t = 1.0
        sampler = OutcomeSampler(coh, t, resolution=256)
        a = mc_average(coh, t, 5, make_rng(8), sampler=sampler)
        b = mc_average(coh, t, 5, make_rng(8), sampler=sampler)
        assert np.array_equal(a.grid.values, b.grid.values)
        assert np.array_equal(a.fidelities, b.fidelities)

    def test_mean_fidelity_near_closed_form(self, coh):
        t = 1.0
        sampler = OutcomeSampler(coh, t, resolution=256)
        res = mc_average(coh, t, 400, make_rng(21), sampler=sampler)
        se = res.fidelities.std() / np.sqrt(res.fidelities.size)
        assert abs(res.fidelities.mean() - 2 / 3) < 3 * se

    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize("name", ["thermal", "mixture3"])
    def test_mixed_mean_fidelity_is_entanglement_fidelity(self, name, t):
        # f(xi) = |tr rho T(xi)|^2 / p(xi) averages to F_e over p(xi)
        if name == "thermal":
            state = make_thermal(0.5, 40)
        else:
            kets = [make_coherent(ComplexAmplitude(1.0, 0.5), 40), make_number(1, 40),
                    make_number(4, 40)]
            state = DensityOp(sum(w * k.density().matrix for w, k in zip((0.5, 0.3, 0.2), kets)))
        sampler = OutcomeSampler(state, t, resolution=256)
        res = mc_average(state, t, 1000, make_rng(0), sampler=sampler)
        se = res.fidelities.std(ddof=1) / np.sqrt(res.fidelities.size)
        assert abs(res.fidelities.mean() - entanglement_fidelity(state, t)) < 3 * se

    def test_conditioning_error_on_sampled_density(self, coh):
        sampler = OutcomeSampler(coh, 1.0, resolution=256)

        class TinyLast:
            def sample(self, rng, size):
                xi1, xi2, dens = sampler.sample(rng, size)
                dens[-1] = 1e-13
                return xi1, xi2, dens

        with pytest.raises(ConditioningError):
            mc_average(coh, 1.0, 5, make_rng(1), sampler=TinyLast())

    def test_sampler_for_another_t_rejected(self, coh):
        # the 1/q weights keep the mean grid unbiased, but the per-sample
        # fidelities would be drawn from p(xi) at the sampler's t
        sampler = OutcomeSampler(coh, 0.25, resolution=128)
        with pytest.raises(ValueError, match="t = 0.25"):
            mc_average(coh, 1.0, 5, make_rng(1), sampler=sampler)


MC_STATES = {
    "coherent": lambda: make_coherent(ComplexAmplitude(1.0, 0.5), 48),
    "compass2": lambda: make_compass(2.0, 48),
    "random12": lambda: make_random(12, seed=4),
}


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize("name", sorted(MC_STATES))
    def test_matches_per_sample_loop(self, name, t):
        state = MC_STATES[name]()
        sampler = OutcomeSampler(state, t, resolution=256)
        res = mc_average(state, t, 40, make_rng(9), sampler=sampler)
        kern = ConditionalKernel(state, t)
        ref = ref_mc_average(kern, res.xi1, res.xi2, density_at(sampler, res.xi1, res.xi2))
        assert np.max(np.abs(res.grid.values - ref)) <= 1e-12

    @pytest.mark.parametrize("count", ["1", "c-1", "c", "c+1", "2c+3"])
    @pytest.mark.parametrize("name,k", [("coherent", 57), ("compass2", 89)])
    def test_matches_reference_across_chunk_boundaries(self, name, k, count):
        # c outcomes per chunk: full, partial and single-outcome last chunks;
        # chunks are sized from the j <= K Hermite orders the mean contracts over
        state, t = MC_STATES[name](), 1.0
        kern = ConditionalKernel(state, t)
        assert kern.coeffs.shape[0] == k
        sampler = OutcomeSampler(state, t, resolution=256)
        orders = mc_average(state, t, 1, make_rng(13), sampler=sampler).orders
        c = protocol.CHUNK_ELEMENTS // (max(kern.out_grid.resolution) * orders)
        samples = {"1": 1, "c-1": c - 1, "c": c, "c+1": c + 1, "2c+3": 2 * c + 3}[count]
        res = mc_average(state, t, samples, make_rng(13), sampler=sampler)
        ref = ref_mc_average(kern, res.xi1, res.xi2, density_at(sampler, res.xi1, res.xi2))
        assert np.max(np.abs(res.grid.values - ref)) <= 1e-12
        xi = (res.xi1 + 1j * res.xi2) / np.sqrt(2.0)
        assert np.array_equal(res.fidelities, conditional_fidelity(state, t, xi))

    def test_chunk_size_does_not_change_mean(self, monkeypatch):
        state, t = make_compass(2.0, 48), 0.5
        sampler = OutcomeSampler(state, t, resolution=256)
        default = mc_average(state, t, 30, make_rng(4), sampler=sampler)
        monkeypatch.setattr(protocol, "CHUNK_ELEMENTS", 1)  # one outcome per chunk
        single = mc_average(state, t, 30, make_rng(4), sampler=sampler)
        assert np.max(np.abs(default.grid.values - single.grid.values)) <= 1e-13


class TestLowRankContraction:
    """mc_average contracts through N's leading j orders and their numerical rank r."""

    @pytest.mark.parametrize("name,t,rank,k", [
        ("coherent", 0.5, 1, 57), ("coherent", 1.0, 1, 57), ("thermal", 1.0, 1, 117),
        ("compass2", 0.5, 4, 89), ("compass2", 1.0, 4, 89), ("random20", 0.5, 39, 39),
    ])
    @pytest.mark.filterwarnings("ignore::subplanck.TruncationWarning")  # random-20's top level
    def test_recorded_rank(self, name, t, rank, k):
        # Gaussian inputs have separable W^(s): r = 1; random-20 stays unfactored (r = K);
        # the smoothing to W^(s) leaves N's trailing orders below roundoff (j < K)
        orders = {("coherent", 0.5): 24, ("coherent", 1.0): 23, ("thermal", 1.0): 59,
                  ("compass2", 0.5): 47, ("compass2", 1.0): 45, ("random20", 0.5): 39}[name, t]
        state = {"thermal": lambda: make_thermal(1.0, 64),
                 "random20": lambda: make_random(20, seed=1), **MC_STATES}[name]()
        sampler = OutcomeSampler(state, t, resolution=128)
        res = mc_average(state, t, 2, make_rng(3), sampler=sampler)
        assert (res.rank, res.orders, res.kernel_size) == (rank, orders, k)

    @pytest.mark.parametrize("name", ["coherent", "compass2"])
    def test_pair_reproduces_n_within_rank_tolerance(self, name):
        n = ConditionalKernel(MC_STATES[name](), 0.5).coeffs
        k = n.shape[0]
        a_t, b_t = protocol._contraction_pair(n, 128, 128)
        r, j = a_t.shape
        assert r < j < k
        padded = np.zeros_like(n)
        padded[:j, :j] = a_t.T @ b_t
        # border (Frobenius) plus Eckart-Young, each <= s_0 K eps; the SVD's roundoff is as large
        tol = np.linalg.norm(n, 2) * k * np.finfo(float).eps
        assert np.linalg.norm(padded - n, 2) <= 2.0 * tol
        for f in (a_t, b_t):  # zero or normal, as the factor tables are
            assert np.all(np.abs(f[f != 0.0]) >= np.finfo(float).tiny)


class TestConditionalFidelity:
    def test_heterodyne_limit(self, coh):
        # at t = 2 Bob holds |xi>, so f(xi) = |<xi|psi>|^2 = pi Q(xi)
        for state in (coh, make_compass(2.0, 48)):
            xis = [ComplexAmplitude(*q) for q in ((0.3, -0.5), (1.0, 0.2), (-2.0, 1.0))]
            got = conditional_fidelity(state, 2.0, np.array([xi.value for xi in xis]))
            want = [np.pi * husimi(state, xi) for xi in xis]
            assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("name,t,tol", [
        ("coherent", 1.0, 1e-10), ("compass2", 1.0, 1e-10), ("compass2", 0.5, 1e-8),
    ])
    def test_matches_grid_overlap(self, name, t, tol):
        state = MC_STATES[name]()
        kern = ConditionalKernel(state, t)
        w_target = wigner_values(state, kern.out_grid.points())
        for q in ((1.2, 0.3), (-0.4, 0.9), (0.1, -1.5)):
            xi = ComplexAmplitude(*q)
            vals = kern.evaluate(xi.q1, xi.q2, alice_outcome_density(state, t, xi))
            grid_f = np.pi * np.sum(vals * w_target) * kern.out_grid.cell_measure
            assert abs(conditional_fidelity(state, t, np.array(xi.value)) - grid_f) <= tol

    @pytest.mark.parametrize("name,t", [("coherent", 1.0), ("compass2", 0.5)])
    def test_sampled_mean_is_average_fidelity(self, name, t):
        state = MC_STATES[name]()
        want = 1 / (1 + t / 2) if name == "coherent" else compass_fidelity(2.0, t)
        xi1, xi2, _ = OutcomeSampler(state, t).sample(make_rng(31), 20_000)
        f = conditional_fidelity(state, t, (xi1 + 1j * xi2) / np.sqrt(2.0))
        se = f.std(ddof=1) / np.sqrt(f.size)
        assert abs(f.mean() - want) < 3 * se


class TestSubnormalFloor:
    @pytest.mark.parametrize("t", [0.5, 0.02])
    def test_factors_zero_or_normal(self, t):
        # products on subnormal operands run far slower; the floor keeps them
        # out of every entry of a chunk's table, also for outcomes 6 sigma out
        state = make_compass(2.0, 48)
        kern = ConditionalKernel(state, t)
        n1, n2 = kern.out_grid.resolution
        k = kern.coeffs.shape[0]
        batch1, batch2, _ = OutcomeSampler(state, t, resolution=256).sample(make_rng(17), 40)
        mx, mp, vx, vp = quad_moments(state)
        sigma = np.sqrt(max(vx, vp) - _outcome_order(t) / 2.0)  # of p(xi), per quadrature
        batch1[:8] = mx + 6.0 * sigma * np.array([1, -1, 0, 0, 1, -1, 1, -1])
        batch2[:8] = mp + 6.0 * sigma * np.array([0, 0, 1, -1, 1, 1, -1, -1])
        for xi1, xi2 in ((np.array([0.3, -1.1]), np.array([-0.2, 0.8])), (batch1, batch2)):
            left, right = kern.factors(xi1, xi2)
            b = xi1.size
            assert left.shape == (k, b * n1) and right.shape == (k, b * n2)
            assert left.base is right.base is not None  # one table
            for a in (left, right):
                assert np.any(a == 0.0)
                assert np.all(np.abs(a[a != 0.0]) >= np.finfo(float).tiny)
            # block m is outcome m's floored closed-form factor pair
            for m in range(b):
                ref = ref_conditional_values(kern, xi1[m], xi2[m], 1.0)
                lm, rm = left[:, m * n1 : (m + 1) * n1], right[:, m * n2 : (m + 1) * n2]
                got = (lm.T @ kern.coeffs @ rm) * (-2.0 * kern.order / np.pi)
                assert np.max(np.abs(got - ref)) <= 1e-90

    @pytest.mark.parametrize("t", [0.5, 0.02])
    def test_floor_moves_values_below_1e_90(self, t):
        state = make_compass(2.0, 48)
        xi = ComplexAmplitude(0.3, -0.2)
        out = conditional_output(state, t, xi)
        ref = ref_conditional_values(
            ConditionalKernel(state, t), xi.q1, xi.q2, alice_outcome_density(state, t, xi)
        )
        assert np.max(np.abs(out.values - ref)) <= 1e-90
