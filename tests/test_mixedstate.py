import numpy as np
import pytest

from oracles import partial_trace_ancilla, purify, sqrt_density

import subplanck.mixedstate as mixedstate_module
from subplanck import (
    ComplexAmplitude,
    DensityOp,
    QuadratureError,
    char_fn,
    bold_phi,
    bold_w,
    coherent_fidelity,
    entanglement_fidelity,
    entanglement_fidelity_direct,
    fidelity_quadrature,
    make_coherent,
    make_number,
    make_rng,
    make_thermal,
    number_fidelity,
    scale_report,
    wigner,
)
from subplanck.phasespace import state_diagonals, trimmed_support
from subplanck.quadrature import gauss_laguerre_scaled


def random_mixed(dim, seed, rank=None):
    rng = make_rng(seed)
    shape = (dim, rank or dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = z @ z.conj().T
    return DensityOp(m / np.real(np.trace(m)))


class TestBoldPhi:
    def test_pure_factorization(self):
        st = make_coherent(ComplexAmplitude(0.8, -0.4), 24)
        mu = ComplexAmplitude(0.5, 0.3)
        al = ComplexAmplitude(-0.2, 0.9)
        got = bold_phi(st, mu, al)
        want = np.conj(char_fn(st, mu)) * char_fn(st, al)
        assert got == pytest.approx(want, abs=1e-12)

    def test_origin_is_purity(self):
        rho = random_mixed(12, 4)
        want = float(np.real(np.trace(rho.matrix @ rho.matrix)))
        assert bold_phi(rho, 0, 0) == pytest.approx(want, abs=1e-12)

    def test_thermal_equal_arguments(self):
        nbar = 1.3
        rho = make_thermal(nbar, 64)
        mu = ComplexAmplitude(0.5, 0.3)
        k = 2 * nbar + 1
        assert bold_phi(rho, mu, mu) == pytest.approx(np.exp(-mu.abs2 / k) / k, abs=1e-10)

    def test_thermal_general_closed_form(self):
        nbar = 0.8
        rho = make_thermal(nbar, 64)
        mu = ComplexAmplitude(0.5, 0.3)
        al = ComplexAmplitude(-0.4, 0.7)
        k = 2 * nbar + 1
        m, a = mu.value, al.value
        want = (1 / k) * np.exp(
            -(2 * nbar**2 + 2 * nbar + 1) / (2 * k) * (abs(m) ** 2 + abs(a) ** 2)
            + nbar * (nbar + 1) / k * (m * np.conj(a) + np.conj(m) * a)
        )
        assert bold_phi(rho, mu, al) == pytest.approx(want, abs=1e-10)

    def test_equal_argument_positivity(self, rng):
        rho = random_mixed(10, 9)
        for _ in range(6):
            mu = ComplexAmplitude(rng.normal(), rng.normal())
            val = bold_phi(rho, mu, mu)
            assert val.real >= -1e-10
            assert abs(val.imag) < 1e-12

    def test_bold_eval_record(self):
        # PHI(0, 0) = tr rho^2
        rho = random_mixed(8, 1)
        assert bold_phi(rho, 0, 0).real == pytest.approx(
            float(np.real(np.trace(rho.matrix @ rho.matrix))), abs=1e-12
        )


class TestBoldW:
    def test_pure_factorization(self, rng):
        st = make_coherent(ComplexAmplitude(0.8, -0.4), 24)
        for _ in range(5):
            b = ComplexAmplitude(rng.normal(scale=0.7), rng.normal(scale=0.7))
            nu = ComplexAmplitude(rng.normal(scale=0.7), rng.normal(scale=0.7))
            assert bold_w(st, b, nu) == pytest.approx(
                wigner(st, b) * wigner(st, nu), abs=1e-8
            )

    def test_vacuum_peak(self):
        vac = make_number(0, 8)
        assert bold_w(vac, 0, 0) == pytest.approx((2 / np.pi) ** 2)

    def test_real_valued(self, rng):
        rho = random_mixed(8, 2)
        d1 = ComplexAmplitude(0.3, -0.2)
        d2 = ComplexAmplitude(-0.5, 0.1)
        # realness is enforced structurally; check Hermitian symmetry instead
        assert bold_w(rho, d1, d2) == pytest.approx(bold_w(rho, d2, d1), abs=1e-10)

    def test_fourier_pairing_small_grid(self):
        # Riemann Fourier transform of the two-variable Wigner function
        # against the two-variable characteristic function at dim = 8
        rho = random_mixed(8, 31)
        n, half = 41, 4.5
        axis = np.linspace(-half, half, n)
        h = axis[1] - axis[0]
        ww = np.empty((n, n, n, n))
        bgrid = [(b1, b2) for b1 in axis for b2 in axis]
        # evaluate bold W on the 4-d lattice (vectorized over one pair)
        from subplanck.fock import displacement_matrices

        signs = (-1.0) ** np.arange(8)
        pts = np.array([(b1 + 1j * b2) / np.sqrt(2) for b1, b2 in bgrid])
        dmats = 2.0 * displacement_matrices(8, 2.0 * pts) * signs[None, None, :]
        left = np.einsum("ab,kbc->kac", rho.matrix, dmats)
        ww = np.einsum("kab,lba->kl", left @ rho.matrix, dmats).real / np.pi**2
        mu = ComplexAmplitude(0.4, -0.3)
        al = ComplexAmplitude(0.2, 0.5)
        # PHI(mu, al) = int d2b d2n WW(b, n) D*(b, mu) D(n, al)
        def dkernel(points, arg):
            return np.exp(arg.value * np.conj(points) - np.conj(arg.value) * points)

        kb = np.conj(dkernel(pts, mu))
        kn = dkernel(pts, al)
        got = np.einsum("k,kl,l->", kb, ww, kn) * (h * h / 2) ** 2
        want = bold_phi(rho, mu, al)
        assert got == pytest.approx(want, abs=1e-3)


class TestEntanglementFidelity:
    def test_thermal_closed_form(self):
        for nbar in (0.0, 0.5, 2.0):
            rho = make_thermal(nbar, 64)
            for t in (0.5, 1.0, 2.0):
                want = 1.0 / (1.0 + (2 * nbar + 1) * t / 2)
                assert entanglement_fidelity(rho, t) == pytest.approx(want, abs=1e-6)

    def test_zero_temperature_is_coherent(self):
        rho = make_thermal(0.0, 32)
        for t in (0.4, 1.7):
            assert entanglement_fidelity(rho, t) == pytest.approx(
                coherent_fidelity(t), abs=1e-10
            )

    def test_pure_reduction(self):
        st = make_number(2, 20)
        for t in (0.6, 1.2):
            assert entanglement_fidelity(st.density(), t) == pytest.approx(
                number_fidelity(2, t), abs=1e-6
            )
        coh = make_coherent(ComplexAmplitude(1.2, 0.3), 24)
        assert entanglement_fidelity(coh.density(), 1.0) == pytest.approx(
            fidelity_quadrature(coh, 1.0, 4), abs=1e-6
        )

    def test_two_route_equality(self):
        cases = [make_thermal(n, 64) for n in (0.0, 0.5, 2.0)]
        cases += [random_mixed(16, s) for s in (5, 6, 7)]
        for rho in cases:
            for t in (0.5, 1.0):
                a = entanglement_fidelity(rho, t)
                b = entanglement_fidelity_direct(rho, t)
                assert a == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("state", ["pure", "density"])
    def test_coherent_beyond_dim_32(self, state):
        st = make_coherent(ComplexAmplitude(1.0, -0.5), 64)
        rho = st if state == "pure" else st.density()
        for t in (0.5, 1.0, 2.0):
            assert abs(entanglement_fidelity(rho, t) - coherent_fidelity(t)) <= 1e-12

    def test_rank5_dim100_two_routes(self):
        rho = random_mixed(100, 8, rank=5)
        for t in (0.5, 1.0):
            a = entanglement_fidelity(rho, t)
            assert abs(a - entanglement_fidelity_direct(rho, t)) <= 1e-12

    def test_radial_mean_is_angular_average_of_bold_phi(self):
        # 2D - 1 equally spaced angles average every harmonic |k| <= 2(D - 1) exactly
        rho = random_mixed(12, 13, rank=3)
        diags = state_diagonals(rho)
        support = trimmed_support(diags)
        xs = np.array([0.3, 1.7, 6.0])
        got = mixedstate_module._bold_phi_radial(diags, xs)
        angles = 2 * np.pi * np.arange(2 * support - 1) / (2 * support - 1)
        for x, g in zip(xs, got):
            mus = np.sqrt(x) * np.exp(1j * angles)
            want = np.mean([bold_phi(rho, mu, mu).real for mu in mus])
            assert abs(g - want) <= 1e-13

    def test_node_blocks_do_not_change_values(self, monkeypatch):
        cases = [make_thermal(1.0, 64), random_mixed(20, 3, rank=4),
                 make_coherent(ComplexAmplitude(1.0, -0.5), 40)]
        want = [entanglement_fidelity(rho, 0.7) for rho in cases]
        monkeypatch.setattr(mixedstate_module, "CHUNK_ELEMENTS", 1)  # one node per block
        for rho, w in zip(cases, want):
            assert abs(entanglement_fidelity(rho, 0.7) - w) <= 1e-15

    @pytest.mark.parametrize(
        "route, module, name, rho, support",
        [
            ("diagonal", mixedstate_module, "_bold_phi_radial", make_thermal(2.0, 64), 64),
            ("general", mixedstate_module, "_bold_phi_radial",
             make_coherent(ComplexAmplitude(0.3, 0.2), 24).density(), 18),
            ("direct", mixedstate_module, "_char_sq_radial", make_thermal(2.0, 64), 64),
        ],
    )
    def test_sized_from_support_with_cross_check(self, monkeypatch, route, module, name, rho,
                                                 support):
        # D radial nodes from the trimmed support, then a raising D+1 cross-check,
        # both in one kernel call whose cross-check slice alone is corrupted
        real = getattr(module, name)
        calls = []

        def corrupted(diags, x):
            out = real(diags, x)
            calls.append(out.shape[0])
            out[support:] *= 1.01
            return out

        monkeypatch.setattr(module, name, corrupted)
        fn = entanglement_fidelity_direct if route == "direct" else entanglement_fidelity
        with pytest.raises(QuadratureError):
            fn(rho, 1.0)
        assert calls == [2 * support + 1]

    @pytest.mark.parametrize("fn", [entanglement_fidelity, entanglement_fidelity_direct])
    def test_one_diagonal_and_one_radial_pass(self, count_calls, fn):
        # thermal nbar = 1 keeps D = 59 at dim 64, so all 2D + 1 nodes fit one node block
        for rho in (make_thermal(1.0, 64), random_mixed(20, 3, rank=4),
                    make_coherent(ComplexAmplitude(1.0, -0.5), 40).density()):
            # the rules are built first: building one runs the radial kernel too
            support = trimmed_support(state_diagonals(rho))
            gauss_laguerre_scaled(support), gauss_laguerre_scaled(support + 1)
            diagonals, radial = count_calls("state_diagonals"), count_calls("_m_seq")
            fn(rho, 0.7)
            assert (len(diagonals), len(radial)) == (1, 1)

    def test_diagonal_state_runs_one_radial_pass(self, count_calls):
        # a diagonal rho pairs each slab with itself only (d_max = 0): one node block
        diagonal = DensityOp(np.diag(np.arange(1.0, 33.0) / 528.0))
        for rho in (make_thermal(1.0, 64), make_number(5, 16).density(), diagonal):
            assert [d for d, _ in state_diagonals(rho)] == [0]
            support = trimmed_support(state_diagonals(rho))
            gauss_laguerre_scaled(support), gauss_laguerre_scaled(support + 1)
            radial = count_calls("_m_seq")
            entanglement_fidelity(rho, 0.7)
            assert len(radial) == 1
            assert radial[0][2].size == 2 * support + 1  # both rules' nodes in one call

    def test_perfect_at_zero(self):
        assert entanglement_fidelity(make_thermal(1.0, 64), 0.0) == 1.0


class TestPurification:
    def test_pure_state_gives_product(self):
        st = make_number(2, 8)
        joint = purify(st.density())
        psi = joint.coeffs.reshape(8, 8)
        # rank-one coefficient matrix -> product state
        s = np.linalg.svd(psi, compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s[1:] < 1e-12)

    def test_partial_trace_roundtrip(self):
        rho = make_thermal(0.5, 32)
        joint = purify(rho)
        back = partial_trace_ancilla(joint, 32)
        assert np.max(np.abs(back - rho.matrix)) < 1e-10
        assert np.linalg.norm(joint.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_purification_independence(self):
        # two purifications (canonical and a unitarily rotated root) give
        # the same reduced state and hence the same entanglement fidelity
        rho = make_thermal(0.2, 16)
        rng = make_rng(11)
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        q, _ = np.linalg.qr(z)
        root2 = sqrt_density(rho) @ q
        from subplanck import PureState

        joint2 = PureState(root2.T.reshape(-1), fix_phase=False)
        r1 = partial_trace_ancilla(purify(rho), 16)
        r2 = partial_trace_ancilla(joint2, 16)
        f1 = entanglement_fidelity(DensityOp(r1), 0.8)
        f2 = entanglement_fidelity(DensityOp(r2), 0.8)
        assert abs(f1 - f2) < 1e-8

    def test_dimension_guard(self):
        with pytest.raises(Exception):
            purify(make_thermal(1.0, 64))


class TestMixedScales:
    def test_thermal_fine_scale(self):
        for nbar in (0.0, 1.0, 2.5):
            rho = make_thermal(nbar, 128)
            rep = scale_report(rho)
            assert rep.fine_scale == pytest.approx(1 / np.sqrt(2 * nbar + 1), abs=1e-8)
        assert scale_report(make_thermal(0.0, 16)).fine_scale == pytest.approx(1.0)

    def test_slope_matches_finite_difference(self):
        # one-sided second-order difference of the entanglement fidelity
        rho = make_thermal(0.5, 64)
        rep = scale_report(rho)
        h = 1e-3
        fd = (
            -3 * entanglement_fidelity(rho, 0.0)
            + 4 * entanglement_fidelity(rho, h)
            - entanglement_fidelity(rho, 2 * h)
        ) / (2 * h)
        assert fd == pytest.approx(rep.slope0, rel=1e-3)

    def test_reciprocity_definitional(self):
        rep = scale_report(random_mixed(12, 3))
        assert rep.fine_scale * rep.extent == pytest.approx(2.0, abs=1e-12)
