import functools

import numpy as np
import pytest
from oracles import ref_double_well_potential, ref_split_step_evolve

from subplanck import (
    BoundaryLeakError,
    ComplexAmplitude,
    EvolutionConfig,
    GridExtentError,
    LeakageError,
    SpatialGrid,
    coherent_wavefunction,
    evolve_chaotic,
    fock_to_wavefunction,
    make_coherent,
    wavefunction_to_fock,
)
from subplanck.dynamics import (
    KINETIC_COEFF,
    _linear_phase,
    double_well_potential,
    hermite_functions,
    split_step_evolve,
)
from subplanck.fock import _hermite_rows


SMALL = SpatialGrid(-20.0, 20.0, 1024)


class TestWavefunctionConstruction:
    def test_vacuum_width(self):
        w = coherent_wavefunction(0.0, 0.0, SMALL)
        mx, mp, mx2, mp2 = w.moments()
        assert (mx, mp) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert np.sqrt(mx2) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert w.norm2 == pytest.approx(1.0, abs=1e-12)

    def test_displaced_moments(self):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        mx, mp, mx2, mp2 = w.moments()
        assert mx == pytest.approx(-8.0, abs=1e-9)
        assert mp == pytest.approx(4.0, abs=1e-9)
        assert mx2 - mx**2 == pytest.approx(0.5, abs=1e-9)
        assert mp2 - mp**2 == pytest.approx(0.5, abs=1e-9)

    def test_grid_extent_guard(self):
        with pytest.raises(GridExtentError):
            coherent_wavefunction(-19.0, 0.0, SMALL)


class TestEvolution:
    def test_zero_duration_identity(self):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        cfg = EvolutionConfig(dt=1e-3, t_final=0.0)
        out = evolve_chaotic(w, cfg)
        assert np.array_equal(out.samples, w.samples)

    def test_harmonic_period_return(self):
        # integrator validation: H = p^2/2 + x^2/2, coherent state returns
        # after one 2 pi period
        cfg = EvolutionConfig(dt=np.pi / 4000, t_final=2 * np.pi, grid=SMALL)
        w = coherent_wavefunction(3.0, 0.0, SMALL)
        out = split_step_evolve(w, 0.5, lambda x, tau: x**2 / 2, cfg)
        overlap = abs(np.sum(np.conj(w.samples) * out.samples) * w.dx) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_norm_conservation_short_run(self):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        out = evolve_chaotic(w, EvolutionConfig(dt=5e-4, t_final=0.5))
        assert abs(out.norm2 - 1.0) < 1e-8
        assert out.edge_density < 1e-12

    def test_second_order_convergence_short(self):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        runs = [
            evolve_chaotic(w, EvolutionConfig(dt=dt, t_final=0.5))
            for dt in (2e-3, 1e-3, 5e-4)
        ]
        d1 = np.linalg.norm(runs[0].samples - runs[1].samples)
        d2 = np.linalg.norm(runs[1].samples - runs[2].samples)
        assert 3.0 <= d1 / d2 <= 5.0

    def test_boundary_leak_raises(self):
        grid = SpatialGrid(-14.0, 14.0, 1024)
        w = coherent_wavefunction(-8.0, 4.0, grid)
        with pytest.raises(BoundaryLeakError):
            evolve_chaotic(w, EvolutionConfig(dt=5e-4, t_final=1.0, grid=grid))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=-1e-3)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=3e-4, t_final=1.0)  # non-integer step count


class TestFusedKicks:
    """The fused-kick loop against the two-half-kicks-per-step reference."""

    CHUNK = EvolutionConfig(dt=2.5e-4, t_final=0.25)

    @pytest.mark.parametrize("t0", [0.0, 0.25])
    def test_double_well_matches_reference(self, t0):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        out = split_step_evolve(w, KINETIC_COEFF, double_well_potential, self.CHUNK, t0=t0)
        ref = ref_split_step_evolve(w, KINETIC_COEFF, ref_double_well_potential, self.CHUNK, t0=t0)
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-10

    def test_chained_calls_match_one_call(self):
        # each call opens and closes with a half-kick; chaining must not change the result
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        whole = split_step_evolve(w, KINETIC_COEFF, double_well_potential, self.CHUNK)
        quarter = EvolutionConfig(dt=2.5e-4, t_final=0.0625)
        cur = w
        for k in range(4):
            cur = split_step_evolve(cur, KINETIC_COEFF, double_well_potential, quarter,
                                    t0=k * 0.0625)
        assert np.max(np.abs(cur.samples - whole.samples)) <= 1e-10

    def test_wrapped_double_well_keeps_static_kicks(self):
        calls = []

        @functools.wraps(double_well_potential)
        def wrapped(x, tau):
            calls.append(tau)
            return double_well_potential(x, tau)

        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        cfg = EvolutionConfig(dt=2.5e-4, t_final=0.0125)
        out = split_step_evolve(w, KINETIC_COEFF, wrapped, cfg, t0=0.5)
        ref = split_step_evolve(w, KINETIC_COEFF, double_well_potential, cfg, t0=0.5)
        assert calls == []
        assert np.array_equal(out.samples, ref.samples)

    def test_sampled_potential_matches_reference(self):
        def potential(x, tau):
            return 0.5 * x**2 + 0.02 * x**4 + 3.0 * x * np.sin(4.0 * tau)

        w = coherent_wavefunction(2.0, -1.0, SMALL)
        cfg = EvolutionConfig(dt=1e-3, t_final=0.4, grid=SMALL)
        out = split_step_evolve(w, 0.5, potential, cfg, t0=0.1)
        ref = ref_split_step_evolve(w, 0.5, potential, cfg, t0=0.1)
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-12

    def test_potential_matches_written_out_form(self):
        x = SpatialGrid().x
        for tau in (0.0, 0.13, 0.25, 0.9):
            ref = ref_double_well_potential(x, tau)
            assert np.max(np.abs(double_well_potential(x, tau) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [SpatialGrid(), SpatialGrid(-24.0, 24.0, 512)])
    def test_linear_phase_ramp(self, grid):
        for a in (0.0, 1.7e-3, -8.1e-3, 1.625e-2):
            ramp = _linear_phase(a, grid)
            assert ramp.shape == (grid.n_points,)
            assert np.max(np.abs(ramp - np.exp(-1j * a * grid.x))) <= 1e-15


class TestFockProjection:
    def test_vacuum_projects_cleanly(self):
        w = coherent_wavefunction(0.0, 0.0, SMALL)
        st, leak = wavefunction_to_fock(w, 8)
        assert leak <= 1e-10
        assert abs(st.coeffs[0]) == pytest.approx(1.0, abs=1e-10)

    def test_matches_fock_construction(self):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        st, _ = wavefunction_to_fock(w, 160)
        ref = make_coherent(ComplexAmplitude(-8.0, 4.0), 160)
        assert abs(np.vdot(st.coeffs, ref.coeffs)) ** 2 >= 1 - 1e-6

    def test_hermite_eigenfunction_roundtrip(self):
        basis = hermite_functions(SMALL.x, 12)
        psi2 = basis[2].astype(complex)
        from subplanck.dynamics import WaveFunction

        w = WaveFunction(psi2 / np.sqrt(np.sum(np.abs(psi2) ** 2) * SMALL.dx),
                         SMALL.x_min, SMALL.dx)
        st, leak = wavefunction_to_fock(w, 8)
        assert leak < 1e-12
        assert abs(st.coeffs[2]) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormal_basis(self):
        basis = hermite_functions(SMALL.x, 30)
        gram = basis @ basis.T * SMALL.dx
        assert np.max(np.abs(gram - np.eye(30))) < 1e-12

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5])
    def test_hermite_rows_yield_n_max_rows(self, n_max):
        rows = list(_hermite_rows(SMALL.x, n_max, np.empty((3, SMALL.x.size))))
        assert len(rows) == n_max
        assert hermite_functions(SMALL.x, n_max).shape == (n_max, SMALL.x.size)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 89])
    def test_hermite_functions_equal_stacked_rows(self, n_max):
        # a 3-row rolling buffer yields the table's rows bit for bit, also out
        # at |x| = 40, where phi_0 underflows to 0 and the points run scaled
        x = np.concatenate([np.linspace(-40.0, 40.0, 801), [-0.0, 37.5, 38.6]])
        assert np.any(np.exp(-(x**2) / 2.0) == 0.0)
        table = hermite_functions(x, n_max)
        assert table.shape == (n_max, x.size)
        rows = [row.copy() for row in _hermite_rows(x, n_max, np.empty((3, x.size)))]
        assert np.array_equal(np.array(rows).reshape(n_max, x.size), table)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_nonpositive_dim_rejected(self, dim):
        with pytest.raises(ValueError):
            wavefunction_to_fock(coherent_wavefunction(0.0, 0.0, SMALL), dim)

    def test_leakage_error_with_explicit_dim(self):
        w = coherent_wavefunction(-8.0, 4.0, SpatialGrid())
        with pytest.raises(LeakageError) as err:
            wavefunction_to_fock(w, 20)
        assert err.value.leakage > 1e-3

    def test_far_coherent_state_projects(self):
        # the top levels' turning points pass |x| = 37.4, where phi_0 underflows
        w = coherent_wavefunction(40.0, 0.0, SpatialGrid(-60.0, 60.0, 8192))
        _, leak = wavefunction_to_fock(w)
        assert leak <= 1e-9

    def test_roundtrip_overlap(self):
        w = coherent_wavefunction(-6.0, 2.0, SpatialGrid())
        st, leak = wavefunction_to_fock(w, 120)
        back = fock_to_wavefunction(st, SpatialGrid())
        overlap = abs(np.sum(np.conj(w.samples) * back.samples) * w.dx) ** 2
        assert overlap >= 1 - 2 * max(leak, 1e-12)
