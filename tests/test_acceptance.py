"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Run them alone with `pytest tests/test_acceptance.py -v`; each criterion
prints its verdict and headline numbers through the capture (visible in
any mode).
"""

import time
import warnings

import numpy as np

from conftest import record_acceptance

from subplanck import (
    ComplexAmplitude,
    EvolutionConfig,
    SpatialGrid,
    classical_fidelity,
    coherent_fidelity,
    coherent_wavefunction,
    entanglement_fidelity,
    entanglement_fidelity_direct,
    evolve_chaotic,
    fidelity_quadrature,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_squeezed,
    make_thermal,
    mc_average,
    number_fidelity,
    quad_moments,
    random_avg_fidelity,
    random_slope_avg,
    scale_report,
    slope_at_zero,
    squeezed_fidelity,
    wavefunction_to_fock,
)
from subplanck.phasespace import char_fn, wigner_values
from subplanck.protocol import OutcomeSampler, average_channel, conditional_output


def report(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def pure_catalog():
    return {
        "vacuum": make_number(0, 16),
        "coherent": make_coherent(ComplexAmplitude(1.5, -0.8), 48),
        "squeezed": make_squeezed(0.8, 64),
        "number1": make_number(1, 16),
        "number3": make_number(3, 16),
        "compass": make_compass(2.0, 48),
        "random20": make_random(20, seed=17),
    }


def test_01_coherent_baseline():
    start = time.perf_counter()
    state = make_coherent(ComplexAmplitude(1.0, -0.5), 64)
    ts = np.linspace(0.0, 2.0, 21)
    err = max(
        abs(fidelity_quadrature(state, t, 4) - coherent_fidelity(t)) for t in ts
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        err <= 1e-6 and elapsed < 1.0,
        f"form-4 vs closed form: max err {err:.2e} (<=1e-6), {elapsed:.2f}s (<1s)",
    )


def test_02_four_form_equality():
    start = time.perf_counter()
    states = {"number3": make_number(3, 16), "compass2": make_compass(2.0, 48)}
    worst14, worst_grid = 0.0, 0.0
    for state in states.values():
        for t in (0.3, 1.0, 2.0):
            f4 = fidelity_quadrature(state, t, 4)
            worst14 = max(worst14, abs(fidelity_quadrature(state, t, 1) - f4))
            worst_grid = max(worst_grid, abs(fidelity_quadrature(state, t, 2) - f4))
            worst_grid = max(worst_grid, abs(fidelity_quadrature(state, t, 3) - f4))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst14 <= 1e-8 and worst_grid <= 1e-4 and elapsed < 30.0,
        f"|F1-F4| {worst14:.2e} (<=1e-8), forms 2/3 {worst_grid:.2e} (<=1e-4), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_03_scaling_relation():
    fns = [coherent_fidelity, lambda t: squeezed_fidelity(0.8, t)]
    fns += [
        (lambda n: (lambda t: number_fidelity(n, t)))(n) for n in range(6)
    ]
    worst = 0.0
    for fn in fns:
        for t in (0.5, 1.0, 1.5):
            worst = max(worst, abs(t * fn(t) / 2 - fn(4 / t)))
    report(3, worst <= 1e-10, f"t F(t)/2 = F(4/t): max dev {worst:.2e} (<=1e-10)")


def test_04_scale_reciprocity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        worst_var = 0.0
        for name, state in pure_catalog().items():
            rep = scale_report(state, name)
            worst_var = max(worst_var, abs(rep.fine_scale * rep.extent - 2.0))
        worst_grad = 0.0
        for name in ("vacuum", "number3", "compass"):
            state = pure_catalog()[name]
            grad = slope_at_zero(state, "gradient")
            var = slope_at_zero(state, "variance")
            worst_grad = max(worst_grad, abs(grad - var) / abs(var))
    report(
        4,
        worst_var <= 1e-8 and worst_grad <= 1e-3,
        f"fine*extent-2: {worst_var:.2e} (<=1e-8); gradient-route rel dev "
        f"{worst_grad:.2e} (<=1e-3)",
    )


def test_05_headline_scale_values():
    worst_number = max(
        abs(scale_report(make_number(n, n + 4)).fine_scale - 1 / np.sqrt(2 * n + 1))
        for n in range(11)
    )
    compass_fine = scale_report(make_compass(5 / np.sqrt(2), 64)).fine_scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        random_fine = np.mean(
            [scale_report(make_random(100, seed=s)).fine_scale for s in range(20)]
        )
    ok = (
        worst_number <= 1e-8
        and 0.19 <= compass_fine <= 0.21
        and 0.09 <= random_fine <= 0.11
    )
    report(
        5,
        ok,
        f"number fine-scale err {worst_number:.1e} (<=1e-8); compass {compass_fine:.4f} "
        f"(in [0.19,0.21]); random mean {random_fine:.4f} (in [0.09,0.11])",
    )


def test_06_random_state_average():
    start = time.perf_counter()
    dim = 20
    rng = make_rng(2718)
    states = [make_random(dim, rng=rng) for _ in range(500)]
    ok = True
    details = []
    for t in (0.2, 0.5, 1.0, 2.0):
        vals = np.array([fidelity_quadrature(s, t, 4) for s in states])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        dev = abs(vals.mean() - random_avg_fidelity(dim, t))
        ok &= dev < 3 * se
        details.append(f"t={t}: {dev / se:.2f} SE")
    exact = max(
        abs(random_avg_fidelity(1, t) - coherent_fidelity(t))
        for t in (0.2, 0.5, 1.0, 2.0)
    )
    ok &= exact <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        slopes = np.array([slope_at_zero(s) for s in states])
    slope_se = slopes.std(ddof=1) / np.sqrt(len(slopes))
    slope_dev = abs(slopes.mean() - random_slope_avg(dim))
    ok &= slope_dev < 3 * slope_se
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report(
        6,
        ok,
        f"formula vs 500-state MC: {', '.join(details)} (<3); dim=1 dev {exact:.1e} "
        f"(<=1e-12); slope dev {slope_dev / slope_se:.2f} SE (<3); {elapsed:.0f}s (<300s)",
    )


def test_07_coherent_optimality():
    rng = make_rng(99)
    states = list(pure_catalog().values())
    states += [
        make_random(int(d), rng=rng) for d in rng.integers(2, 31, size=50)
    ]
    worst = -np.inf
    for t in (0.5, 1.0, 2.0):
        cap = 1.0 / (1.0 + t / 2.0)
        for state in states:
            worst = max(worst, fidelity_quadrature(state, t, 4) - cap)
    report(
        7,
        worst <= 1e-9,
        f"max excess over coherent bound {worst:.2e} (<=1e-9) across "
        f"{len(states)} states x 3 squeezings",
    )


def test_08_classical_limit():
    states = {
        "vacuum": make_number(0, 16),
        "number1": make_number(1, 16),
        "compass2": make_compass(2.0, 48),
    }
    worst = max(
        abs(classical_fidelity(s) - fidelity_quadrature(s, 2.0, 4))
        for s in states.values()
    )
    n1 = classical_fidelity(states["number1"])
    ok = worst <= 1e-4 and abs(n1 - 0.25) <= 1e-4
    report(
        8,
        ok,
        f"pi int Q^2 vs F(2): max dev {worst:.2e} (<=1e-4); number-1 value "
        f"{n1:.6f} (=0.25)",
    )


def test_09_protocol_consistency():
    state = make_coherent(ComplexAmplitude(1.0, 0.5), 48)
    rng_pts = make_rng(5)
    t = 1.0
    rho = average_channel(state, t)
    mult = max(
        abs(
            char_fn(rho, ComplexAmplitude(q1, q2))
            - np.exp(-t * (q1 * q1 + q2 * q2) / 4) * char_fn(state, ComplexAmplitude(q1, q2))
        )
        for q1, q2 in rng_pts.normal(size=(20, 2))
    )
    sampler = OutcomeSampler(state, t)
    res = mc_average(state, t, 10_000, make_rng(77), sampler=sampler)
    w_avg = wigner_values(rho, res.grid.points())
    l1 = float(np.sum(np.abs(res.grid.values - w_avg)) * res.grid.cell_measure)

    t_small = 0.02
    rho_small = average_channel(state, t_small)
    worst_tv = 0.0
    for xi in (ComplexAmplitude(1.0, 0.5), ComplexAmplitude(1.0 + 0.35, 0.5)):
        cond = conditional_output(state, t_small, xi)
        w_ref = wigner_values(rho_small, cond.points())
        tv = 0.5 * float(np.sum(np.abs(cond.values - w_ref)) * cond.cell_measure)
        worst_tv = max(worst_tv, tv)
    ok = mult <= 1e-6 and l1 <= 0.02 and worst_tv <= 0.01
    report(
        9,
        ok,
        f"char mult law {mult:.2e} (<=1e-6); MC 1e4 L1 {l1:.4f} (<=0.02); "
        f"t=0.02 conditional TV {worst_tv:.4f} (<=0.01)",
    )


def test_10_mixed_states():
    worst_closed = 0.0
    worst_routes = 0.0
    for nbar in (0.0, 0.5, 2.0):
        rho = make_thermal(nbar, 64)
        for t in (0.5, 1.0, 2.0):
            got = entanglement_fidelity(rho, t)
            worst_closed = max(
                worst_closed, abs(got - 1.0 / (1.0 + (2 * nbar + 1) * t / 2))
            )
            worst_routes = max(
                worst_routes, abs(got - entanglement_fidelity_direct(rho, t))
            )
    worst_pure = 0.0
    for state, closed in (
        (make_number(2, 20), lambda t: number_fidelity(2, t)),
        (make_coherent(ComplexAmplitude(1.2, 0.3), 24), coherent_fidelity),
    ):
        for t in (0.5, 1.5):
            worst_pure = max(
                worst_pure, abs(entanglement_fidelity(state.density(), t) - closed(t))
            )
    ok = worst_closed <= 1e-6 and worst_routes <= 1e-6 and worst_pure <= 1e-6
    report(
        10,
        ok,
        f"thermal closed-form dev {worst_closed:.2e}; two-route dev "
        f"{worst_routes:.2e}; pure reduction {worst_pure:.2e} (all <=1e-6)",
    )


def test_11_chaotic_pipeline():
    start = time.perf_counter()
    grid = SpatialGrid()
    psi0 = coherent_wavefunction(-8.0, 4.0, grid)
    final = evolve_chaotic(psi0, EvolutionConfig(dt=2.5e-4, t_final=5.0))
    drift = abs(final.norm2 - 1.0)

    runs = [
        evolve_chaotic(psi0, EvolutionConfig(dt=dt, t_final=5.0))
        for dt in (2e-3, 1e-3, 5e-4)
    ]
    d1 = np.linalg.norm(runs[0].samples - runs[1].samples)
    d2 = np.linalg.norm(runs[1].samples - runs[2].samples)
    ratio = d1 / d2

    state, leakage = wavefunction_to_fock(final)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, _, vx, vp = quad_moments(state)
    target = vx + vp
    cand = np.arange(1, 400)
    matched = int(cand[np.argmin(np.abs((cand**2 + 1.0) / (cand + 1.0) - target))])

    ts = np.linspace(0.2, 2.0, 10)
    f_chaos = np.array([fidelity_quadrature(state, t, 4) for t in ts])
    dev_matched = float(
        np.max(np.abs(f_chaos - [random_avg_fidelity(matched, t) for t in ts]))
    )
    dev_100 = float(
        np.max(np.abs(f_chaos - [random_avg_fidelity(100, t) for t in ts]))
    )
    elapsed = time.perf_counter() - start
    ok = (
        drift <= 1e-8
        and 3.0 <= ratio <= 5.0
        and leakage <= 1e-3
        and dev_matched <= 0.05
        and elapsed < 600.0
    )
    report(
        11,
        ok,
        f"norm drift {drift:.1e} (<=1e-8); dt-halving ratio {ratio:.2f} (in [3,5]); "
        f"leakage {leakage:.1e} (<=1e-3) at dim {state.dim}; curve vs matched "
        f"dim={matched}: {dev_matched:.4f} (<=0.05); vs dim=100 (reported): "
        f"{dev_100:.4f}; {elapsed:.0f}s (<600s)",
    )
