"""The benchmark's four closed-loop workloads.

A workload turns a seed into inputs (`inputs`) and lists the ops of one
round (`round_ops`).  Each op is one call into a public subplanck
function, or one in-process `subplanck.cli.main` invocation; package
functions are looked up on their module at call time, so the tracer's
rebindings apply.  An op's `check` runs after the round, outside the
timed region, and returns `Check`s against references that do not use
the code path being timed.  Checks marked `ref` have seed-independent
inputs; their errors give `accuracy_digits`.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import reference

# (name, why): the `why` sentences are repeated in BENCHMARK.json.
WHY = {
    "curves": "F(state, t) by the polar-node path (fidelity -> char_on_polar -> "
              "radial recurrence -> quadrature rules): few nodes, many diagonals; "
              "no grids, protocol or dynamics",
    "grids": "256^2 Wigner/Husimi/|Phi|^2/s=-0.5 grids, grid-form fidelities, "
             "overlap and CLI CSV export: the radial kernel with 65k points and few "
             "diagonals, FFT kernels, the Wigner cache",
    "teleport": "the only protocol traffic: exact averaged channel, 512^2 outcome "
                "sampler, 1000-sample mc_average conditional contractions, and "
                "t=0.02 conditional outputs",
    "chaos": "the only dynamics traffic: the paper's 20000-step driven double-well "
             "run, Fock projection to dim ~296, and F at ~44k diagonal entries",
}

T_REF = (0.5, 1.0, 2.0)  # seed-independent t values of reference ops


@dataclass
class Check:
    name: str
    err: float
    tol: float
    ref: bool = False

    @property
    def ok(self):
        return bool(np.isfinite(self.err)) and self.err <= self.tol


@dataclass
class Op:
    label: str
    call: object  # call(ctx) -> result
    check: object = None  # check(ctx, result) -> [Check]
    kind: str = ""  # work kind counted by the throughput metrics
    work: int = 0
    digest: object = None  # digest(ctx, result) -> str; default hashes the result


@dataclass
class Inputs:
    values: dict
    cache: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def cached(self, key, fn):
        """Reference values are computed once per run."""
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]


def seeds_for(seed, purpose, count):
    """Independent non-negative int32 seeds for one purpose."""
    return [int(s) for s in np.random.SeedSequence([seed, purpose]).generate_state(count)]


def pad(coeffs, dim):
    out = np.zeros(dim, dtype=complex)
    out[: len(coeffs)] = coeffs
    return out


def bound_check(t, f):
    """Coherent-state bound F(t) <= 1/(1 + t/2) (acceptance tolerance 1e-9)."""
    return Check("coherent_bound", max(0.0, f - 1.0 / (1.0 + t / 2.0)), 1e-9)


def curve_check(sp, ts, fs, ref=False):
    """FidelityCurve.validate: positive, strictly decreasing, convex."""
    try:
        sp.fidelity.FidelityCurve(np.asarray(ts), np.asarray(fs)).validate()
        err = 0.0
    except ValueError:
        err = float("inf")
    return Check("curve_validate", err, 0.0, ref)


def copy_state(sp, state):
    """A distinct state object with the same coefficients (defeats per-object caches)."""
    return sp.fock.PureState(state.coeffs, normalize=False, fix_phase=False)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class Curves:
    name = "curves"
    work_kind = "fidelity"

    def inputs(self, sp, seed, outdir):
        f, fid = sp.fock, sp.fidelity
        rng = np.random.default_rng(seeds_for(seed, 1, 1))
        ts = tuple(float(t) for t in np.sort(rng.uniform(0.05, 2.0, 3)))
        # fixed |alpha| with a seeded phase: the cost depends on |alpha|, the seed only moves it
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        q1, q2 = 1.5 * np.cos(phase), 1.5 * np.sin(phase)
        s20, s100 = seeds_for(seed, 2, 2)
        states = {
            "coherent": (f.make_coherent(f.ComplexAmplitude(q1, q2), 64), fid.coherent_fidelity),
            "squeezed": (f.make_squeezed(0.8, 64), lambda t: fid.squeezed_fidelity(0.8, t)),
            "number1": (f.make_number(1, 16), lambda t: fid.number_fidelity(1, t)),
            "number3": (f.make_number(3, 16), lambda t: fid.number_fidelity(3, t)),
            "compass2": (f.make_compass(2.0, 48), lambda t: fid.compass_fidelity(2.0, t)),
            "compass3.5355": (f.make_compass(3.5355, 64),
                              lambda t: fid.compass_fidelity(3.5355, t)),
            "random20": (f.make_random(20, seed=s20), None),
            "random100": (f.make_random(100, seed=s100), None),
        }
        refs = {name: states[name] for name in
                ("number1", "number3", "compass2", "compass3.5355", "squeezed")}
        refs["coherent-fixed"] = (f.make_coherent(f.ComplexAmplitude(1.0, -0.5), 64),
                                  fid.coherent_fidelity)
        return Inputs({"ts": ts, "states": states, "refs": refs,
                       "thermal": f.make_thermal(1.0, 64)})

    def round_ops(self, sp, inp):
        ts = inp["ts"]
        ops = []
        for name, (state, closed) in inp["states"].items():
            ops += _f4_series(sp, f"F4/{name}", state, ts, closed, ref=False)
            if name in ("coherent", "number3", "compass2", "random20"):
                ops.append(_form1_op(sp, name, state, ts[1]))
        for name, (state, closed) in inp["refs"].items():
            ops += _f4_series(sp, f"REF/{name}", state, T_REF, closed, ref=True)
        thermal = inp["thermal"]
        for i, t in enumerate(ts):
            ops.append(Op(
                f"ENT/thermal1/{i}",
                lambda ctx, t=t: sp.mixedstate.entanglement_fidelity(thermal, t),
                lambda ctx, f, t=t: [Check("closed_form", abs(f - 1.0 / (1.0 + 1.5 * t)), 1e-6)],
                "fidelity", 1,
            ))
        for i, t in enumerate(ts):
            ops.append(Op(
                f"RAVG/20/{i}",
                lambda ctx, t=t: sp.fidelity.random_avg_fidelity(20, t),
                lambda ctx, f, t=t: [Check("series_40_digits", abs(f - inp.cached(
                    ("ravg", 20, t), lambda: reference.random_avg_fidelity(20, t))), 1e-6)],
                "fidelity", 1,
            ))
        return ops


def _f4_series(sp, prefix, state, ts, closed, ref):
    ops = []
    for i, t in enumerate(ts):
        def check(ctx, f, t=t, i=i):
            out = [bound_check(t, f)]
            if closed is not None:
                out.append(Check("closed_form", abs(f - closed(t)), 1e-6, ref))
            if i == len(ts) - 1:
                fs = [ctx[f"{prefix}/{j}"] for j in range(len(ts))]
                out.append(curve_check(sp, ts, fs, ref))
            return out

        ops.append(Op(
            f"{prefix}/{i}",
            lambda ctx, t=t: sp.fidelity.fidelity_quadrature(state, t, 4),
            check, "fidelity", 1,
        ))
    return ops


def _form1_op(sp, name, state, t):
    def check(ctx, f):
        return [Check("form1_vs_form4", abs(f - ctx[f"F4/{name}/1"]), 1e-8), bound_check(t, f)]

    return Op(f"F1/{name}", lambda ctx: sp.fidelity.fidelity_quadrature(state, t, 1),
              check, "fidelity", 1)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

GRID_RES = 256
PROBE_AT = ((0.5, 0.5), (0.42, 0.61))  # fractional grid positions of pointwise checks


class Grids:
    name = "grids"
    work_kind = "grid"

    def inputs(self, sp, seed, outdir):
        f, fid, ps = sp.fock, sp.fidelity, sp.phasespace
        rng = np.random.default_rng(seeds_for(seed, 1, 1))
        s20, s20b = seeds_for(seed, 2, 2)
        states = {
            "compass3.5355": (f.make_compass(3.5355, 64),
                              lambda t: fid.compass_fidelity(3.5355, t), True),
            "squeezed": (f.make_squeezed(0.8, 64),
                         lambda t: fid.squeezed_fidelity(0.8, t), True),
            "random20": (f.make_random(20, seed=s20), None, False),
        }
        grids = {name: ps.default_grid(s, resolution=GRID_RES) for name, (s, _, _) in states.items()}
        return Inputs({
            "states": states,
            "grids": grids,
            "points": {name: g.points() for name, g in grids.items()},
            "t": float(rng.uniform(0.3, 2.0)),
            "other20": f.make_random(20, seed=s20b),
            "cli": {
                "wigner_compass.csv": ["grid", "--state", "compass:a=3.5355",
                                       "--function", "wigner"],
                "husimi_random20.csv": ["grid", "--state", f"random:dim=20,seed={s20}",
                                        "--function", "husimi"],
            },
            "outdir": outdir,
        })

    def round_ops(self, sp, inp):
        ops = []
        for name, (state, closed, fixed) in inp["states"].items():
            ops += _grid_ops(sp, inp, name, state, fixed)
        ops += _grid_form_ops(sp, inp)
        for name, (state, closed, fixed) in inp["states"].items():
            ops.append(_classical_op(sp, inp, name, state, closed, fixed))
        ops.append(_overlap_op(sp, inp))
        for out, argv in inp["cli"].items():
            ops.append(_cli_op(sp, inp, out, argv))
        return ops


def _probe_indices(shape):
    return [tuple(int(round(fr * (n - 1))) for fr, n in zip(frac, shape)) for frac in PROBE_AT]


def _grid_ops(sp, inp, name, state, fixed):
    grid, pts = inp["grids"][name], inp["points"][name]
    measure = grid.cell_measure
    coeffs = state.coeffs
    n_pts = int(np.size(pts))

    def pointwise(values, fn, key):
        worst = 0.0
        for idx in _probe_indices(values.shape):
            want = inp.cached((name, key, idx), lambda: fn(coeffs, pts[idx]))
            worst = max(worst, abs(values[idx] - want))
        return Check(f"pointwise_{key}", worst, 1e-6, fixed)

    def quasi_check(s, key):
        def check(ctx, result):
            values = getattr(result, "values", result)
            return [
                pointwise(values, lambda c, a: reference.s_ordered(c, a, s), key),
                Check("normalization", abs(float(np.sum(values)) * measure - 1.0), 1e-4, fixed),
            ]
        return check

    def char_check(ctx, result):
        mod = np.abs(result.values)
        return [pointwise(result.values, reference.char_pure, "char"),
                Check("modulus_le_1", max(0.0, float(mod.max()) - 1.0), 1e-12)]

    return [
        Op(f"W/{name}", lambda ctx: sp.phasespace.wigner_grid(state, grid),
           quasi_check(0.0, "wigner"), "grid", n_pts),
        Op(f"Q/{name}", lambda ctx: sp.phasespace.husimi_grid(state, grid),
           quasi_check(-1.0, "husimi"), "grid", n_pts),
        Op(f"C/{name}", lambda ctx: sp.phasespace.char_grid(state, grid),
           char_check, "grid", n_pts),
        Op(f"S-0.5/{name}", lambda ctx: sp.phasespace.squasi_values(state, -0.5, pts),
           quasi_check(-0.5, "s-0.5"), "grid", n_pts),
    ]


def _grid_form_ops(sp, inp):
    # a new state object each round, so every round fills the Wigner cache anew
    state = copy_state(sp, inp["states"]["random20"][0])
    t = inp["t"]

    def check(ctx, f):
        f4 = inp.cached(("f4", "random20", t), lambda: sp.fidelity.fidelity_quadrature(state, t, 4))
        return [Check("grid_form_vs_form4", abs(f - f4), 1e-4), bound_check(t, f)]

    return [
        Op(f"F{form}/random20",
           lambda ctx, form=form: sp.fidelity.fidelity_quadrature(state, t, form),
           check, "fidelity", 1)
        for form in (2, 3)
    ]


def _classical_op(sp, inp, name, state, closed, fixed):
    def check(ctx, f):
        want = closed(2.0) if closed else inp.cached(
            ("f4", name, 2.0), lambda: sp.fidelity.fidelity_quadrature(state, 2.0, 4))
        return [Check("classical_vs_t2", abs(f - want), 1e-4, fixed)]

    return Op(f"CL/{name}", lambda ctx: sp.fidelity.classical_fidelity(state), check, "fidelity", 1)


def _overlap_op(sp, inp):
    a, b = inp["states"]["random20"][0], inp["other20"]

    def check(ctx, res):
        want = abs(np.vdot(a.coeffs, b.coeffs)) ** 2
        return [Check("overlap_matrix", abs(res.matrix_value - want), 1e-10),
                Check("overlap_grid", abs(res.grid_value - want), 1e-4)]

    return Op("OV/random20", lambda ctx: sp.phasespace.overlap(a, b), check)


def _cli_op(sp, inp, out, argv):
    outdir = inp["outdir"]
    argv = argv + ["--out", out]
    paths = {"csv": out, "plot": out + ".plot.py", "manifest": out + ".manifest.json"}

    def call(ctx):
        here = os.getcwd()
        os.chdir(outdir)  # relative --out keeps the plot script identical across checkouts
        try:
            return sp.cli.main(argv)
        finally:
            os.chdir(here)

    def hashes(ctx, rc):
        out_hashes = {}
        for key, rel in paths.items():
            with open(os.path.join(outdir, rel), "rb") as fh:
                data = fh.read()
            if key == "manifest":  # the manifest's creation time is its one varying field
                doc = json.loads(data)
                doc.pop("created", None)
                data = json.dumps(doc, sort_keys=True).encode()
            out_hashes[rel] = hashlib.sha256(data).hexdigest()
        return out_hashes

    def check(ctx, rc):
        if rc != 0:
            return [Check("exit_code", float(rc), 0.0)]
        table = np.loadtxt(os.path.join(outdir, out), delimiter=",", comments="#")
        if "wigner" in argv:
            api = (np.pi / 2.0) * ctx["W/compass3.5355"].values
        else:
            api = np.pi * ctx["Q/random20"].values
        err = float(np.max(np.abs(table[:, 2] - api.ravel()))) if table.shape[0] == api.size else np.inf
        return [Check("exit_code", 0.0, 0.0), Check("csv_vs_api", err, 1e-12)]

    return Op(f"CLI/{out}", call, check, digest=lambda ctx, rc: json.dumps(hashes(ctx, rc), sort_keys=True))


# ---------------------------------------------------------------------------
# teleport
# ---------------------------------------------------------------------------

TELEPORT_TS = (0.5, 1.0)
T_CONDITIONAL = 0.02
MC_SAMPLES = 1000  # the CLI default
MU_REF = (0.3 + 0.2j, -0.5 + 0.4j, 1.0 - 0.7j)


class Teleport:
    name = "teleport"
    work_kind = "mc"

    def inputs(self, sp, seed, outdir):
        f, fid = sp.fock, sp.fidelity
        rng = np.random.default_rng(seeds_for(seed, 1, 1))
        (a1, a2), (b1, b2) = rng.uniform(-0.35, 0.35, (2, 2))
        amp = f.ComplexAmplitude
        states = {
            "coherent": (f.make_coherent(amp(1.0, 0.5), 48), fid.coherent_fidelity),
            "compass2": (f.make_compass(2.0, 48), lambda t: fid.compass_fidelity(2.0, t)),
        }
        # outcomes for conditional_output: at and near each input's mean amplitude
        xis = [("coherent", amp(1.0, 0.5)), ("coherent", amp(1.0 + a1, 0.5 + a2)),
               ("compass2", amp(b1, b2))]
        return Inputs({"states": states, "xi": xis,
                       "mc_seeds": seeds_for(seed, 3, len(states) * len(TELEPORT_TS))})

    def round_ops(self, sp, inp):
        ops = []
        mc_labels = []
        k = 0
        for name, (state, closed) in inp["states"].items():
            for t in TELEPORT_TS:
                ops.append(_channel_op(sp, inp, name, state, closed, t))
                ops.append(Op(
                    f"SAMP/{name}/{t}",
                    lambda ctx, s=state, t=t: sp.protocol.OutcomeSampler(s, t),
                    lambda ctx, smp: [Check("sampler_mass", abs(smp.mass - 1.0), 1e-3)],
                ))
                mc_labels.append((f"MC/{name}/{t}", closed(t)))
                ops.append(Op(
                    f"MC/{name}/{t}",
                    lambda ctx, s=state, t=t, name=name, seed=inp["mc_seeds"][k]:
                        sp.protocol.mc_average(s, t, MC_SAMPLES, sp.fock.make_rng(seed),
                                               sampler=ctx[f"SAMP/{name}/{t}"]),
                    None, "mc", MC_SAMPLES,
                ))
                k += 1
        ops[-1].check = lambda ctx, res: [_pooled_mc_check(ctx, mc_labels)]
        for i, (name, xi) in enumerate(inp["xi"]):
            ops.append(_conditional_op(sp, inp, i, name, inp["states"][name][0], xi))
        return ops


def _channel_op(sp, inp, name, state, closed, t):
    def check(ctx, rho):
        c = pad(state.coeffs, rho.dim)
        f = float(np.real(np.vdot(c, rho.matrix @ c)))
        worst = 0.0
        for mu in MU_REF:
            phi_in = inp.cached((name, "char", mu), lambda: reference.char_pure(state.coeffs, mu))
            phi_out = reference.char_density(rho.matrix, mu)
            worst = max(worst, abs(phi_out - np.exp(-t * abs(mu) ** 2 / 2.0) * phi_in))
        return [Check("channel_fidelity_closed_form", abs(f - closed(t)), 1e-6, True),
                Check("multiplication_law", worst, 1e-6, True)]

    return Op(f"CH/{name}/{t}", lambda ctx: sp.protocol.average_channel(state, t), check)


def _pooled_mc_check(ctx, labels):
    """One 3-SE test of the round's mc_average means against their closed forms.

    Each op draws an independent stream, so the pooled deviation has
    standard error sqrt(sum SE_i^2); one test per round keeps the false
    alarm rate at the nominal 0.27%.
    """
    dev, var = 0.0, 0.0
    for label, want in labels:
        if label not in ctx:  # op left out of a partial round
            continue
        fids = ctx[label].fidelities
        dev += float(np.mean(fids)) - want
        var += float(np.var(fids, ddof=1)) / fids.size
    return Check("mc_mean_within_3se", abs(dev) / np.sqrt(var), 3.0)


def _conditional_op(sp, inp, index, name, state, xi):
    """conditional_output at t = 0.02: normalized, and for the coherent input
    within total variation 0.01 of the averaged channel's output.  A compass
    input's conditional output legitimately depends on the outcome (the
    outcome weights its lobes), so only normalization is checked there."""

    def check(ctx, cond):
        out = [Check("normalization", abs(float(np.sum(cond.values)) * cond.cell_measure - 1.0),
                     1e-4)]
        if name == "coherent":
            def ref_grid():
                rho = sp.protocol.average_channel(state, T_CONDITIONAL)
                return sp.phasespace.wigner_values(rho, cond.points())

            ref = inp.cached((name, "cond_ref", cond.resolution, cond.extent), ref_grid)
            tv = 0.5 * float(np.sum(np.abs(cond.values - ref)) * cond.cell_measure)
            out.append(Check("tv_to_average_channel", tv, 0.01))
        return out

    return Op(f"COND/{name}/{index}",
              lambda ctx: sp.protocol.conditional_output(state, T_CONDITIONAL, xi), check)


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------

CHUNK_STEPS = 1000
DT = 2.5e-4
T_FINAL = 5.0


class Chaos:
    name = "chaos"
    work_kind = "split"

    def inputs(self, sp, seed, outdir):
        dy = sp.dynamics
        rng = np.random.default_rng(seeds_for(seed, 1, 1))
        grid = dy.SpatialGrid()
        return Inputs({
            "psi0": dy.coherent_wavefunction(-8.0, 4.0, grid),
            "chunk": dy.EvolutionConfig(dt=DT, t_final=CHUNK_STEPS * DT, grid=grid),
            "ts": tuple(float(t) for t in np.sort(rng.uniform(0.2, 2.0, 3))),
        })

    def round_ops(self, sp, inp):
        n_chunks = int(round(T_FINAL / (CHUNK_STEPS * DT)))
        ops = []
        for k in range(n_chunks):
            prev = f"EVOLVE/{k - 1}" if k else None

            def call(ctx, k=k, prev=prev):
                dy = sp.dynamics
                psi = ctx[prev] if prev else inp["psi0"]
                return dy.split_step_evolve(psi, dy.KINETIC_COEFF, dy.double_well_potential,
                                            inp["chunk"], t0=k * CHUNK_STEPS * DT)

            ops.append(Op(f"EVOLVE/{k}", call, None, "split", CHUNK_STEPS))
        last = f"EVOLVE/{n_chunks - 1}"
        ops[-1].check = lambda ctx, psi: [Check("norm_drift", abs(psi.norm2 - 1.0), 1e-8, True)]
        ops.append(Op(
            "FOCK", lambda ctx: sp.dynamics.wavefunction_to_fock(ctx[last]),
            lambda ctx, res: [Check("leakage", res[1], 1e-3)],
        ))
        ops.append(Op("MOMENTS", lambda ctx: sp.fock.quad_moments(ctx["FOCK"][0])))
        ts = inp["ts"]
        for i, t in enumerate(ts):
            def check(ctx, f, t=t, i=i):
                out = [bound_check(t, f)]
                if i == len(ts) - 1:
                    out.append(curve_check(sp, ts, [ctx[f"F4/{j}"] for j in range(len(ts))]))
                return out

            ops.append(Op(f"F4/{i}",
                          lambda ctx, t=t: sp.fidelity.fidelity_quadrature(ctx["FOCK"][0], t, 4),
                          check, "fidelity", 1))
        for i, t in enumerate(ts):
            def check(ctx, f, t=t, i=i):
                # the paper's claim: the chaotic state tracks the matched-dim ensemble
                return [bound_check(t, f), Check("matched_random_vs_chaotic",
                                                 abs(f - ctx[f"F4/{i}"]), 0.05)]

            ops.append(Op(f"RAVG/matched/{i}",
                          lambda ctx, t=t: sp.fidelity.random_avg_fidelity(
                              matched_dim(ctx["MOMENTS"]), t),
                          check, "fidelity", 1))
        return ops


def matched_dim(moments):
    """Random-state dimension whose ensemble variance sum (d^2+1)/(d+1) is closest."""
    _, _, vx, vp = moments
    cand = np.arange(1, 400)
    return int(cand[np.argmin(np.abs((cand**2 + 1.0) / (cand + 1.0) - (vx + vp)))])


WORKLOADS = {w.name: w for w in (Curves(), Grids(), Teleport(), Chaos())}
