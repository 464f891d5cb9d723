"""Command-line interface: curves, scale reports, grids, Monte Carlo runs.

Each command writes its own outputs and returns its manifest seed; `main`
then writes the run manifest (JSON) capturing the resolved configuration,
seed, tool version, and BLAS library and thread settings.  The manifest
goes to --manifest if given, else to <out-prefix>_manifest.json for
`evolve` and to <out>.manifest.json for the others; `scales` printing to
stdout writes one only with --manifest.  Re-running with the same
configuration (`--config <manifest>`, in any spelling argparse takes, such
as --config=PATH or --conf PATH, replays every flag but the output paths),
library versions and BLAS thread count reproduces output files byte for
byte (timestamps live only in the manifest).  --trunc sets the Fock
truncation of built states, except `random:` states, whose size is their
`dim` (with --trunc they exit 2).  CSV files carry
'#'-prefixed key=value header lines followed by comma-separated numeric
rows printed with 17 significant digits.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence.
"""

import argparse
import itertools
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    QuadratureError,
    SamplingError,
    SubplanckError,
)
from .fidelity import (
    FidelityCurve,
    coherent_fidelity,
    compass_fidelity,
    fidelity_quadrature,
    matched_random_dim,
    number_fidelity,
    random_avg_fidelity,
    scale_report,
    squeezed_fidelity,
)
from .fock import (
    ComplexAmplitude,
    DensityOp,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_squeezed,
    make_thermal,
    quad_moments,
)
from .mixedstate import entanglement_fidelity
from .phasespace import (
    PhaseGrid,
    char_grid,
    default_grid,
    husimi_grid,
    squasi_grid,
    wigner_grid,
)
from .protocol import OutcomeSampler, mc_average
from .dynamics import (
    KINETIC_COEFF,
    EvolutionConfig,
    SpatialGrid,
    coherent_wavefunction,
    double_well_potential,
    evolve_chaotic,
    split_step_evolve,
    wavefunction_to_fock,
)


# ---------------------------------------------------------------------------
# state specification
# ---------------------------------------------------------------------------

def _chaotic_state(p, trunc):
    cfg = EvolutionConfig(dt=p["dt"], t_final=p["t_final"])
    psi = coherent_wavefunction(p["x0"], p["p0"], cfg.grid)
    state, _ = wavefunction_to_fock(evolve_chaotic(psi, cfg), dim=trunc)
    return state


# kind -> (parameter defaults, builder(params, trunc), closed-form F(params, t) or None);
# trunc is the --trunc override or None.  The random kind's closed form is the ensemble mean.
STATE_KINDS = {
    "coherent": ({"nu1": 0.0, "nu2": 0.0},
                 lambda p, n: make_coherent(ComplexAmplitude(p["nu1"], p["nu2"]), n or 64),
                 lambda p, t: coherent_fidelity(t)),
    "number": ({"n": 0},
               lambda p, n: make_number(p["n"], max(n or 64, p["n"] + 1)),
               lambda p, t: number_fidelity(p["n"], t)),
    "squeezed": ({"u": 0.0},
                 lambda p, n: make_squeezed(p["u"], n or 64),
                 lambda p, t: squeezed_fidelity(p["u"], t)),
    "compass": ({"a": 1.0},
                lambda p, n: make_compass(p["a"], n or 64),
                lambda p, t: compass_fidelity(p["a"], t)),
    "random": ({"dim": 16, "seed": 0},
               lambda p, n: make_random(p["dim"], seed=p["seed"]),
               lambda p, t: random_avg_fidelity(p["dim"], t)),
    "thermal": ({"nbar": 1.0},
                lambda p, n: make_thermal(p["nbar"], n or 64),
                lambda p, t: 1.0 / (1.0 + (2.0 * p["nbar"] + 1.0) * t / 2.0)),
    "chaotic": ({"x0": -8.0, "p0": 4.0, "t_final": 5.0, "dt": 2.5e-4}, _chaotic_state, None),
}


@dataclass
class StateSpec:
    kind: str
    params: dict = field(default_factory=dict)
    trunc: int | None = None

    @classmethod
    def parse(cls, text, trunc=None):
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind not in STATE_KINDS:
            raise ValueError(
                f"unknown state kind {kind!r}; choose from {sorted(STATE_KINDS)}"
            )
        if kind == "random" and trunc is not None:
            raise ValueError("--trunc does not apply to random: states (their size is dim)")
        params = dict(STATE_KINDS[kind][0])
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if key not in params:
                    raise ValueError(f"unknown parameter {key!r} for {kind}")
                try:
                    num = float(val)
                except ValueError:
                    raise ValueError(f"{kind}:{key} needs a number, got {val!r}") from None
                if not np.isfinite(num):
                    raise ValueError(f"{kind}:{key} must be finite, got {val!r}")
                if isinstance(params[key], int):
                    if not num.is_integer():
                        raise ValueError(f"{kind}:{key} must be an integer, got {val!r}")
                    num = int(num)
                params[key] = num
        return cls(kind, params, trunc)

    @property
    def descriptor(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{inner}"

    def build(self):
        return STATE_KINDS[self.kind][1](self.params, self.trunc)

    def closed_form(self):
        fn = STATE_KINDS[self.kind][2]
        return None if fn is None else lambda t: fn(self.params, t)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _row_format(types):
    """A %-template writing a row of these field types as _fmt does: %d for ints, else %.17g."""
    return ",".join("%d" if issubclass(t, (int, np.integer)) else "%.17g" for t in types)


def write_csv(path, header, columns, rows):
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append("# columns=" + ",".join(columns))
    formats = {}
    for row in rows:
        if isinstance(row, str):  # lines already formatted as below (cmd_grid)
            lines.append(row)
            continue
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = _row_format(types)
        lines.append(formats[types] % row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_state_csv(path, state, header=None):
    """Serialize a Fock coefficient vector as rows (n, re_c, im_c)."""
    doc = dict(header or {})
    doc["dim"] = state.dim
    rows = [(n, c.real, c.imag) for n, c in enumerate(state.coeffs)]
    write_csv(path, doc, ["n", "re_c", "im_c"], rows)


def _blas_record():
    """BLAS library and thread settings: output bytes depend on the thread count."""
    doc = {"name": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        doc[var] = os.environ.get(var)
    return doc


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _manifest_path(args):
    """Where the run's manifest goes; None for `scales` printing to stdout."""
    if args.manifest:
        return args.manifest
    if args.command == "evolve":
        return args.out_prefix + "_manifest.json"
    return args.out and args.out + ".manifest.json"


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render {csv} (auto-generated companion script).\"\"\"
import numpy as np
import matplotlib.pyplot as plt

data = np.loadtxt({csv!r}, delimiter=",", comments="#")
n1, n2 = {res1}, {res2}
v = data[:, 2].reshape(n1, n2)
extent = [data[:, 1].min(), data[:, 1].max(), data[:, 0].min(), data[:, 0].max()]
lim = np.max(np.abs(v))
plt.imshow(v.T[::-1], extent=extent, cmap="RdBu_r", vmin=-lim, vmax=lim)
plt.colorbar(label={label!r})
plt.xlabel("position quadrature")
plt.ylabel("momentum quadrature")
plt.title({title!r})
plt.savefig({png!r}, dpi=160, bbox_inches="tight")
print("wrote", {png!r})
"""


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _t_samples(args):
    """The --t-steps values from --t-min to --t-max, checked before any work or output."""
    if args.t_steps < 1:
        raise ValueError("--t-steps must be >= 1")
    if not (np.isfinite(args.t_min) and np.isfinite(args.t_max)):
        raise ValueError("t-min and t-max must be finite")
    if not (0 <= args.t_min < args.t_max or (args.t_steps == 1 and args.t_min >= 0)):
        raise ValueError("need 0 <= t-min < t-max")
    return np.linspace(args.t_min, args.t_max, args.t_steps)


def cmd_fidelity_curve(args):
    spec = StateSpec.parse(args.state, args.trunc)
    ts = _t_samples(args)
    state = spec.build()
    closed = spec.closed_form()
    if isinstance(state, DensityOp):
        fq = np.array([entanglement_fidelity(state, t) for t in ts])
        method = "entanglement"
    else:
        fq = np.array([fidelity_quadrature(state, t, args.form) for t in ts])
        method = f"form{args.form}"
    try:
        FidelityCurve(ts, fq).validate()
    except ValueError as exc:
        raise ValueError(f"curve validation failed: {exc}") from exc
    header = {
        "state": spec.descriptor,
        "method": method,
        "trunc": args.trunc or "default",
    }
    if closed is None:
        cols = ["t", "F_quadrature"]
        rows = [(t, f) for t, f in zip(ts, fq)]
    else:
        fc = np.array([closed(t) for t in ts])
        cols = ["t", "F_closed", "F_quadrature", "abs_diff"]
        rows = [(t, a, b, abs(a - b)) for t, a, b in zip(ts, fc, fq)]
    write_csv(args.out, header, cols, rows)
    return spec.params.get("seed")


def cmd_scales(args):
    spec = StateSpec.parse(args.state, args.trunc)
    text = _json_text(scale_report(spec.build(), label=spec.descriptor).as_dict())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return spec.params.get("seed")


def cmd_grid(args):
    spec = StateSpec.parse(args.state, args.trunc)
    state = spec.build()
    res = args.grid_res
    if args.grid_extent is not None:
        grid = PhaseGrid(ComplexAmplitude(0.0, 0.0), (args.grid_extent, args.grid_extent),
                         (res, res))
    else:
        grid = default_grid(state, resolution=res)
    if args.function == "wigner":
        vals = (np.pi / 2.0) * wigner_grid(state, grid).values
        label, title = "(pi/2) W", f"Wigner, {spec.descriptor}"
    elif args.function == "husimi":
        vals = np.pi * husimi_grid(state, grid).values
        label, title = "pi Q", f"Husimi, {spec.descriptor}"
    else:  # charsq (argparse choices)
        vals = np.abs(char_grid(state, grid).values) ** 2
        label, title = "|Phi|^2", f"characteristic (squared), {spec.descriptor}"
    header = {
        "state": spec.descriptor,
        "function": args.function,
        "scaling": label,
        "center1": _fmt(grid.center.q1),
        "center2": _fmt(grid.center.q2),
        "extent1": _fmt(grid.extent[0]),
        "extent2": _fmt(grid.extent[1]),
        "res1": res,
        "res2": res,
        "measure": "d2alpha = dq1 dq2 / 2",
    }
    # the tuple rows' text: each axis value formatted once, the values in one % pass
    nu1 = ["%.17g," % x for x in grid.axis1]
    nu2 = ["%.17g,%%.17g" % y for y in grid.axis2]
    template = "\n".join(a + b for a, b in itertools.product(nu1, nu2))
    write_csv(args.out, header, ["nu1", "nu2", "value"], [template % tuple(vals.ravel().tolist())])
    script = PLOT_SCRIPT.format(csv=args.out, res1=res, res2=res, label=label,
                                title=title, png=args.out + ".png")
    with open(args.out + ".plot.py", "w") as fh:
        fh.write(script)
    return spec.params.get("seed")


def cmd_teleport_mc(args):
    spec = StateSpec.parse(args.state, args.trunc)
    state = spec.build()
    rng = make_rng(args.seed)
    sampler = OutcomeSampler(state, args.t)
    result = mc_average(state, args.t, args.samples, rng, sampler=sampler)
    # the averaged output's Wigner function: Phi_out = e^{-t|mu|^2/2} Phi_in, so W_out = W_in^(-t)
    w_avg = squasi_grid(state, -args.t, result.grid).values
    l1 = float(np.sum(np.abs(result.grid.values - w_avg)) * result.grid.cell_measure)
    rows = [
        (k, x1, x2, f)
        for k, (x1, x2, f) in enumerate(zip(result.xi1, result.xi2, result.fidelities))
    ]
    write_csv(args.out, {"state": spec.descriptor, "t": _fmt(args.t),
                         "samples": args.samples, "seed": args.seed},
              ["sample", "xi1", "xi2", "conditional_fidelity"], rows)
    closed = spec.closed_form()
    summary = {
        "mean_conditional_fidelity": float(np.mean(result.fidelities)),
        "stderr": (float(np.std(result.fidelities, ddof=1) / np.sqrt(args.samples))
                   if args.samples > 1 else None),
        "closed_form": None if closed is None else float(closed(args.t)),
        "l1_distance_to_average_channel": l1,
        "contraction_orders": result.orders,
        "contraction_rank": result.rank,
        "kernel_size": result.kernel_size,
        "samples": args.samples,
        "seed": args.seed,
    }
    with open(args.out + ".summary.json", "w") as fh:
        fh.write(_json_text(summary))
    return args.seed


def cmd_random_average(args):
    if args.samples < 2:
        raise ValueError("need --samples >= 2 (for a standard error)")
    ts = _t_samples(args)
    rng = make_rng(args.seed)
    states = [make_random(args.dim, rng=rng) for _ in range(args.samples)]
    rows = []
    for t in ts:
        formula = random_avg_fidelity(args.dim, t)
        vals = np.array([fidelity_quadrature(s, t, 4) for s in states])
        rows.append((t, formula, vals.mean(), vals.std(ddof=1) / np.sqrt(args.samples)))
    write_csv(args.out, {"dim": args.dim, "samples": args.samples, "seed": args.seed},
              ["t", "F_formula", "F_mc_mean", "F_mc_stderr"], rows)
    return args.seed


def cmd_evolve(args):
    if args.snapshot_stride < 0:
        raise ValueError("need --snapshot-stride >= 0")
    ts = _t_samples(args)
    grid = SpatialGrid(args.grid_min, args.grid_max, args.grid_points)
    cfg = EvolutionConfig(dt=args.dt, t_final=args.t_final, grid=grid)
    if args.convergence:
        if args.t_final <= 0:  # all three runs would be the initial state: no ratio
            raise ValueError("--convergence needs --t-final > 0")
        base = args.dt * 4
        coarse = [EvolutionConfig(dt=dt_, t_final=args.t_final, grid=grid) for dt_ in (base, base / 2)]
    psi0 = coherent_wavefunction(args.x0, args.p0, grid)
    # march in stride-sized chunks (one chunk without a stride), logging
    # (tau, x, psi) after each when a stride was given
    final, tau, done, snap_rows = psi0, 0.0, 0, []
    while done < cfg.n_steps:
        steps = min(args.snapshot_stride or cfg.n_steps, cfg.n_steps - done)
        part = EvolutionConfig(dt=args.dt, t_final=steps * args.dt, grid=grid)
        final = split_step_evolve(final, KINETIC_COEFF, double_well_potential, part, t0=tau)
        tau += steps * args.dt
        done += steps
        if args.snapshot_stride:
            snap_rows.extend((tau, xv, sv.real, sv.imag) for xv, sv in zip(final.x, final.samples))
    if snap_rows:
        write_csv(args.out_prefix + "_snapshots.csv",
                  {"dt": _fmt(args.dt), "stride": args.snapshot_stride},
                  ["tau", "x", "re_psi", "im_psi"], snap_rows)
    write_csv(args.out_prefix + "_final_wavefunction.csv",
              {"t_final": _fmt(args.t_final), "dt": _fmt(args.dt),
               "x_min": _fmt(grid.x_min), "dx": _fmt(grid.dx),
               "norm_drift": _fmt(final.norm2 - 1.0)},
              ["x", "re_psi", "im_psi"],
              zip(final.x, final.samples.real, final.samples.imag))
    state, leakage = wavefunction_to_fock(final, dim=args.trunc)
    write_state_csv(args.out_prefix + "_fock_state.csv", state,
                    header={"leakage": _fmt(leakage)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, _, vx, vp = quad_moments(state)
    target = vx + vp
    matched = matched_random_dim(target)
    rows = []
    for t in ts:
        rows.append((
            t,
            fidelity_quadrature(state, t, 4),
            random_avg_fidelity(matched, t),
            random_avg_fidelity(100, t),
        ))
    write_csv(args.out_prefix + "_fidelity.csv",
              {"matched_dim": matched, "fock_dim": state.dim,
               "leakage": _fmt(leakage), "variance_sum": _fmt(target)},
              ["t", "F_chaotic", "F_random_matched", "F_random_100"], rows)
    summary = {
        "fock_dim": state.dim,
        "leakage": leakage,
        "norm_drift": final.norm2 - 1.0,
        "variance_sum": target,
        "matched_dim": matched,
        "max_dev_matched": float(max(abs(r[1] - r[2]) for r in rows)),
        "max_dev_dim100": float(max(abs(r[1] - r[3]) for r in rows)),
    }
    if args.convergence:
        runs = [evolve_chaotic(psi0, c) for c in coarse]
        # base / 4 is args.dt exactly, so the finest run is the one-chunk march
        runs.append(evolve_chaotic(psi0, cfg) if snap_rows else final)
        d1 = float(np.linalg.norm(runs[0].samples - runs[1].samples))
        d2 = float(np.linalg.norm(runs[1].samples - runs[2].samples))
        summary["convergence_ratio"] = d1 / d2
        summary["convergence_base_dt"] = base
    with open(args.out_prefix + "_summary.json", "w") as fh:
        fh.write(_json_text(summary))
    return None


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _config_dict(args):
    skip = {"func", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _add_common(p):
    p.add_argument("--manifest", default=None, help="manifest path (default: <out>.manifest.json, or "
                   "<out-prefix>_manifest.json for evolve)")
    p.add_argument("--config", default=None, help="JSON file of flag defaults (flags win)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="subplanck",
        description="Teleportation fidelities and phase-space structure measures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity-curve", help="fidelity vs squeezing parameter")
    p.add_argument("--state", required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-steps", type=int, default=21)
    p.add_argument("--form", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fidelity_curve)

    p = sub.add_parser("scales", help="slope, critical squeezing, scale lengths")
    p.add_argument("--state", required=True)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_scales)

    p = sub.add_parser("grid", help="quasidistribution on a grid (plus plot script)")
    p.add_argument("--state", required=True)
    p.add_argument("--function", default="wigner", choices=("wigner", "husimi", "charsq"))
    p.add_argument("--grid-extent", type=float, default=None)
    p.add_argument("--grid-res", type=int, default=256)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("teleport-mc", help="Monte Carlo teleportation trajectories")
    p.add_argument("--state", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_teleport_mc)

    p = sub.add_parser("random-average", help="ensemble formula vs sampled states")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--t-min", type=float, default=0.2)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-steps", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_random_average)

    p = sub.add_parser("evolve", help="driven double-well run and fidelity overlay")
    p.add_argument("--x0", type=float, default=-8.0)
    p.add_argument("--p0", type=float, default=4.0)
    p.add_argument("--t-final", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=2.5e-4)
    p.add_argument("--grid-min", type=float, default=-30.0)
    p.add_argument("--grid-max", type=float, default=30.0)
    p.add_argument("--grid-points", type=int, default=4096)
    p.add_argument("--t-min", type=float, default=0.2)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-steps", type=int, default=10)
    p.add_argument("--snapshot-stride", type=int, default=0,
                   help="write (tau, x, psi) rows every this many steps")
    p.add_argument("--convergence", action="store_true")
    p.add_argument("--out-prefix", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evolve)
    for name in ("fidelity-curve", "scales", "grid", "teleport-mc", "evolve"):  # they build states
        sub.choices[name].add_argument("--trunc", type=int, default=None,
                                       help="Fock truncation override")
    return ap


def _config_flags(path):
    """Flags from a --config JSON file of flag values (or a run manifest's config)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read --config {path!r}: {exc}") from None
    cfg = doc.get("config", doc) if isinstance(doc, dict) else None
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {path!r} holds no JSON object of flags")
    pre = []
    for key, val in cfg.items():
        flag = "--" + key.replace("_", "-")
        if key in ("command", "func", "out", "out_prefix", "manifest") or val is None:
            continue
        if isinstance(val, bool):
            if val:
                pre.append(flag)
            continue
        pre.extend([flag, str(val)])
    return pre


def _config_path(argv):
    """The file that --config names in argv (None if absent), in every spelling argparse takes."""
    ap = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    ap.add_argument("--config")
    try:
        return ap.parse_known_args(argv)[0].config
    except argparse.ArgumentError as exc:
        raise ValueError(str(exc)) from None


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _config_path(argv)
        if config is not None:  # the file's flags are defaults; explicit flags win
            argv = argv[:1] + _config_flags(config) + argv[1:]
        args = ap.parse_args(argv)
        if getattr(args, "trunc", None) is not None and args.trunc < 1:
            raise ValueError("--trunc must be >= 1")
        seed = args.func(args)  # each command writes its outputs and returns its manifest seed
        path = _manifest_path(args)
        if path:
            manifest = {
                "blas": _blas_record(),
                "command": args.command,
                "config": _config_dict(args),
                "seed": seed,
                "version": __version__,
                "generator": "philox",
                "created": datetime.now(timezone.utc).isoformat(),
            }
            with open(path, "w") as fh:
                fh.write(_json_text(manifest))
        return 0
    except (QuadratureError, SamplingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SubplanckError, ValueError) as exc:
        # the library raises ValueError for out-of-range arguments, here from flag values
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
