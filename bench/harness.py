"""Closed-loop execution of a workload's rounds, checks and metrics.

One caller runs the ops of a round back to back, each timed from
outside with `time.perf_counter`; checks and output digests run after
the round, outside the timed region.  Rounds repeat while another
round of median length still fits in the run's `seconds`, so every run
holds whole rounds only and the op mix is the same in every run.  A
traced run alternates untraced and traced rounds (at least one of each):
per-layer numbers come from the traced rounds, the overhead from
comparing the two kinds.
"""

import hashlib
import math
import statistics
import struct
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from tracer import LAYERS, Tracer

# name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_digits": ("digits", "higher"),
    "work_per_s": ("1/s", "higher"),
}

# Work kinds counted by ops, and the name each rate is reported under.
RATE_NAMES = {
    "fidelity": "fidelity_evals_per_s",
    "grid": "grid_points_per_s",
    "mc": "mc_samples_per_s",
    "split": "split_steps_per_s",
}

# Units of the numbers reported beside the metrics (not compared across runs).
EXTRA_UNITS = {
    **{name: "1/s" for name in RATE_NAMES.values()},
    "failed_frac": "-",
    "op_tail_level_pct": "%",
    "op_tail_ops_beyond": "count",
    "op_labels": "count",
    "rounds": "count",
    "median_round_s": "s",
    "work_per_s_is": "",
}

# Per-layer metric -> (unit, better, wrapped names it needs).  Values are
# per traced round.
PER_LAYER = {
    **{f"layer.{layer}.self_s": ("s", "lower", ()) for layer in LAYERS},
    "trace.wall_s": ("s", "lower", ()),
    "trace.unspanned_s": ("s", "lower", ()),
    "trace.overhead_frac": ("ratio", "lower", ()),
    "trace.spans": ("count", "lower", ()),
    "fock.radial_steps": ("count", "lower", ("fock._m_seq",)),
    "phasespace.char_on_polar.calls": ("count", "lower", ("phasespace.char_on_polar",)),
    "phasespace.char_on_polar.self_s": ("s", "lower", ("phasespace.char_on_polar",)),
    "phasespace.char_on_polar.nodes": ("count", "lower", ("phasespace.char_on_polar",)),
    "fidelity.quadrature_rounds":
        ("count", "lower", ("fidelity.fidelity_quadrature", "quadrature.polar_rule")),
    "fidelity.useful_round_ratio":
        ("ratio", "higher", ("fidelity.fidelity_quadrature", "quadrature.polar_rule")),
    "fidelity.fidelity_quadrature.self_s": ("s", "lower", ("fidelity.fidelity_quadrature",)),
    "quadrature.rule_misses": ("count", "lower", ("quadrature.gauss_laguerre_scaled",)),
    "quadrature.rule_hit_ratio": ("ratio", "higher", ("quadrature.gauss_laguerre_scaled",)),
    "quadrature.radial_nodes": ("count", "lower", ("quadrature.gauss_laguerre_scaled",)),
    "quadrature.gauss_laguerre_scaled.self_s": ("s", "lower", ("quadrature.gauss_laguerre_scaled",)),
    "phasespace.squasi_values.self_s": ("s", "lower", ("phasespace.squasi_values",)),
    "phasespace.squasi_values.points": ("count", "lower", ("phasespace.squasi_values",)),
    "phasespace.husimi_values.self_s": ("s", "lower", ("phasespace.husimi_values",)),
    "phasespace.husimi_values.points": ("count", "lower", ("phasespace.husimi_values",)),
    "phasespace.char_values.self_s": ("s", "lower", ("phasespace.char_values",)),
    "phasespace.char_values.points": ("count", "lower", ("phasespace.char_values",)),
    "phasespace.state_diagonals.self_s": ("s", "lower", ("phasespace.state_diagonals",)),
    "phasespace.diag_keep_ratio": ("ratio", "lower", ("phasespace.state_diagonals",)),
    "phasespace.wigner_cache_hit_ratio": ("ratio", "higher", ("phasespace.cached_default_wigner",)),
    "phasespace.gaussian_pair_integral.self_s": ("s", "lower", ("phasespace.gaussian_pair_integral",)),
    "phasespace.fftconvolve.bytes": ("B", "lower", ("phasespace.fftconvolve",)),
    "fock.quad_moments.calls": ("count", "lower", ("fock.quad_moments",)),
    "fock.quad_moments.self_s": ("s", "lower", ("fock.quad_moments",)),
    "fock.displacement_matrix.self_s": ("s", "lower", ("fock.displacement_matrix",)),
    "fock.displacement_matrices.self_s": ("s", "lower", ("fock.displacement_matrices",)),
    "mixedstate.entanglement_fidelity.self_s": ("s", "lower", ("mixedstate.entanglement_fidelity",)),
    "mixedstate.entanglement_fidelity_direct.self_s":
        ("s", "lower", ("mixedstate.entanglement_fidelity_direct",)),
    "protocol.average_channel.self_s": ("s", "lower", ("protocol.average_channel",)),
    "protocol.average_channel.retries":
        ("count", "lower", ("protocol.average_channel", "protocol._reconstruct_damped")),
    "protocol.OutcomeSampler.init_s": ("s", "lower", ("protocol.OutcomeSampler.__init__",)),
    "protocol.sampler_mass": ("ratio", "higher", ("protocol.OutcomeSampler.__init__",)),
    "protocol.fftconvolve.self_s": ("s", "lower", ("protocol.fftconvolve",)),
    "protocol.fftconvolve.bytes": ("B", "lower", ("protocol.fftconvolve",)),
    "protocol.ConditionalKernel.init_s": ("s", "lower", ("protocol.ConditionalKernel.__init__",)),
    "protocol.conditional_evaluate.calls": ("count", "lower", ("protocol.ConditionalKernel.evaluate",)),
    "protocol.conditional_evaluate.self_s": ("s", "lower", ("protocol.ConditionalKernel.evaluate",)),
    "protocol.conditional_evaluate.p50_us": ("us", "lower", ("protocol.ConditionalKernel.evaluate",)),
    "protocol.mc_average.self_s": ("s", "lower", ("protocol.mc_average",)),
    "dynamics.split_step_evolve.self_s": ("s", "lower", ("dynamics.split_step_evolve",)),
    "dynamics.steps": ("count", "lower", ("dynamics.split_step_evolve",)),
    "dynamics.step_us": ("us", "lower", ("dynamics.split_step_evolve",)),
    "dynamics.double_well_potential.calls": ("count", "lower", ("dynamics.double_well_potential",)),
    "dynamics.double_well_potential.self_s": ("s", "lower", ("dynamics.double_well_potential",)),
    "dynamics.wavefunction_to_fock.self_s": ("s", "lower", ("dynamics.wavefunction_to_fock",)),
    "dynamics.projection_rounds":
        ("count", "lower", ("dynamics.wavefunction_to_fock", "dynamics.hermite_functions")),
    "fidelity.random_avg_fidelity.self_s": ("s", "lower", ("fidelity.random_avg_fidelity",)),
    "cli.main.calls": ("count", "lower", ("cli.main",)),
    "cli.main.self_s": ("s", "lower", ("cli.main",)),
    "cli.write_csv.self_s": ("s", "lower", ("cli.write_csv",)),
    "cli.bytes_written": ("B", "lower", ("cli.write_csv",)),
}

# Which end-to-end metric each group of layer metrics should move, on
# which workload (the benchmark's layer -> end-to-end map).
LAYER_MAP = (
    ("fock.radial_steps, phasespace.char_on_polar.*", "fidelity_evals_per_s on curves and chaos"),
    ("fidelity.quadrature_rounds, fidelity.useful_round_ratio, fidelity.fidelity_quadrature.self_s",
     "fidelity_evals_per_s, op_tail_ms on curves"),
    ("quadrature.*", "op_tail_ms on curves"),
    ("phasespace.{squasi,husimi,char}_values.*, phasespace.state_diagonals.self_s, "
     "phasespace.diag_keep_ratio", "grid_points_per_s, peak_rss_mb on grids; wall_s on teleport"),
    ("phasespace.wigner_cache_hit_ratio, phasespace.gaussian_pair_integral.self_s, "
     "phasespace.fftconvolve.bytes", "op_p50_ms, peak_rss_mb on grids"),
    ("fock.quad_moments.*, fock.displacement_matrix{,s}.self_s, mixedstate.*",
     "wall_s on teleport and grids; op_tail_ms on curves"),
    ("protocol.average_channel.*, protocol.OutcomeSampler.init_s, protocol.sampler_mass, "
     "protocol.fftconvolve.*", "wall_s, peak_rss_mb on teleport"),
    ("protocol.ConditionalKernel.init_s, protocol.conditional_evaluate.*, "
     "protocol.mc_average.self_s", "mc_samples_per_s on teleport"),
    ("dynamics.split_step_evolve.self_s, dynamics.steps, dynamics.step_us, "
     "dynamics.double_well_potential.*", "split_steps_per_s on chaos"),
    ("dynamics.wavefunction_to_fock.self_s, dynamics.projection_rounds, "
     "fidelity.random_avg_fidelity.self_s", "wall_s on chaos"),
    ("cli.*", "wall_s, op_tail_ms on grids"),
    ("trace.overhead_frac", "(diagnostic)"),
)


@dataclass
class OpRecord:
    label: str
    kind: str
    work: int
    seconds: float
    traced: bool
    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)


@dataclass
class RunResult:
    rounds: list  # (traced, wall seconds)
    ops: list  # OpRecord
    warnings: dict
    digests: dict  # label -> digest of the first round
    tracer: Tracer = None


def digest(obj):
    """sha256 over the exact bits of an op's output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, complex):
        h.update(struct.pack("<dd", obj.real, obj.imag))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


def run_round(ops, tracer=None):
    """Execute ops back to back.

    Returns (wall seconds, ctx of results by label,
    [(op, result, seconds, error, caught warnings)]).
    """
    ctx = {}
    out = []
    start = time.perf_counter()
    for op in ops:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call(ctx)
                else:
                    result, _ = tracer.timed("bench.op", op.call, ctx)
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                result, error = None, exc
            seconds = time.perf_counter() - t0
        ctx[op.label] = result
        out.append((op, result, seconds, error, list(caught)))
    return time.perf_counter() - start, ctx, out


def run_workload(sp, workload, inp, seconds, traced, op_filter=None):
    """Run whole rounds for about `seconds`; traced runs alternate U, T, U, T..."""
    tracer = Tracer(sp) if traced else None
    result = RunResult([], [], {"TruncationWarning": 0, "other": 0}, {}, tracer)
    truncation = sp.errors.TruncationWarning
    spent = 0.0
    while True:
        ops = workload.round_ops(sp, inp)
        if op_filter is not None:
            ops = [op for op in ops if op_filter(op.label)]
        use_tracer = traced and len(result.rounds) % 2 == 1
        if use_tracer:
            tracer.install()
        try:
            wall, ctx, done = run_round(ops, tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        result.rounds.append((use_tracer, wall))
        spent += wall
        for op, value, secs, error, caught in done:
            rec = OpRecord(op.label, op.kind, op.work, secs, use_tracer)
            for w in caught:
                key = "TruncationWarning" if issubclass(w.category, truncation) else "other"
                result.warnings[key] += 1
            if error is not None:
                rec.failures.append(f"raised {type(error).__name__}: {error}")
            else:
                try:
                    rec.checks = list(op.check(ctx, value)) if op.check else []
                    code = op.digest(ctx, value) if op.digest else digest(value)
                except Exception as exc:  # a check that cannot run fails the op
                    rec.failures.append(f"check raised {type(exc).__name__}: {exc}")
                else:
                    rec.failures += [f"{c.name}: err {c.err:.3e} > {c.tol:.1e}"
                                     for c in rec.checks if not c.ok]
                    first = result.digests.setdefault(op.label, code)
                    if code != first:
                        rec.failures.append("output differs from the first round")
            result.ops.append(rec)
        walls = [w for _, w in result.rounds]
        need_traced = traced and len(result.rounds) < 2
        if not need_traced and spent + statistics.median(walls) > seconds:
            return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """(value, percentile level, ops beyond): the highest percentile with >= 10 ops beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def rates(ops):
    """Work per second of op time, by work kind."""
    work, secs = {}, {}
    for rec in ops:
        if rec.kind:
            work[rec.kind] = work.get(rec.kind, 0) + rec.work
            secs[rec.kind] = secs.get(rec.kind, 0.0) + rec.seconds
    return {kind: work[kind] / secs[kind] for kind in work if secs[kind] > 0}


def accuracy_digits(ops):
    errs = [c.err for rec in ops for c in rec.checks if c.ref]
    if not errs:
        return float("nan")
    worst = max(errs)
    return 16.0 if worst <= 1e-16 else min(16.0, -math.log10(worst))


def best_per_op(records):
    """One record per op label: its fastest untraced latency in the run."""
    best = {}
    for rec in records:
        if not rec.traced and (rec.label not in best or rec.seconds < best[rec.label].seconds):
            best[rec.label] = rec
    return list(best.values())


def end_to_end(result, workload, setup_s, peak_rss_mb):
    """End-to-end metrics from the untraced rounds.

    The host's speed drifts by tens of percent over seconds, so latencies
    are each op's best over the run's rounds, and wall_s is the fastest
    round; with one round per run they are that round's values.
    """
    best = best_per_op(result.ops)
    lat = [rec.seconds for rec in best]
    walls = [w for traced, w in result.rounds if not traced]
    value, level, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": min(walls),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * value,
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": accuracy_digits(result.ops),
        "work_per_s": rates(best).get(workload.work_kind, float("nan")),
    }
    extra = {
        "op_tail_level_pct": level,
        "op_tail_ops_beyond": beyond,
        "op_labels": len(lat),
        "rounds": len(result.rounds),
        "median_round_s": statistics.median(walls),
        "failed_frac": sum(1 for rec in result.ops if rec.failures) / len(result.ops),
        "work_per_s_is": RATE_NAMES[workload.work_kind],
    }
    extra.update({RATE_NAMES[k]: v for k, v in rates(best).items()})
    return metrics, extra


def per_layer(result):
    """Per-layer metrics per traced round, plus the names reported absent."""
    tracer = result.tracer
    traced_walls = [w for traced, w in result.rounds if traced]
    plain_walls = [w for traced, w in result.rounds if not traced]
    n = len(traced_walls)
    s = tracer.summary()
    counts, values = tracer.counts, tracer.values

    def self_s(name):
        return s["self"].get(name, 0.0) / n

    def calls(name):
        return s["calls"].get(name, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    wall = sum(traced_walls) / n
    m = {f"layer.{layer}.self_s": s["layer_self"][layer] / n for layer in LAYERS}
    m["trace.wall_s"] = wall
    m["trace.unspanned_s"] = wall - s["roots"] / n
    m["trace.overhead_frac"] = min(traced_walls) / min(plain_walls) - 1
    m["trace.spans"] = len(tracer.spans) / n
    m["fock.radial_steps"] = counts["fock._m_seq.iterates"] / n
    for name in ("char_on_polar", "squasi_values", "husimi_values", "char_values",
                 "state_diagonals", "gaussian_pair_integral"):
        m[f"phasespace.{name}.self_s"] = self_s(f"phasespace.{name}")
    m["phasespace.char_on_polar.calls"] = calls("phasespace.char_on_polar")
    m["phasespace.char_on_polar.nodes"] = counts["phasespace.char_on_polar.nodes"] / n
    for name in ("squasi_values", "husimi_values", "char_values"):
        m[f"phasespace.{name}.points"] = counts[f"phasespace.{name}.points"] / n
    rounds, evals = tracer.child_counts("fidelity.fidelity_quadrature", "quadrature.polar_rule")
    m["fidelity.quadrature_rounds"] = ratio(rounds, evals)
    m["fidelity.useful_round_ratio"] = ratio(evals, rounds)
    m["fidelity.fidelity_quadrature.self_s"] = self_s("fidelity.fidelity_quadrature")
    m["quadrature.rule_misses"] = counts["quadrature.rule_misses"] / n
    m["quadrature.rule_hit_ratio"] = 1.0 - ratio(counts["quadrature.rule_misses"],
                                                 counts["quadrature.rule_calls"])
    m["quadrature.radial_nodes"] = counts["quadrature.radial_nodes"] / n
    m["quadrature.gauss_laguerre_scaled.self_s"] = self_s("quadrature.gauss_laguerre_scaled")
    m["phasespace.diag_keep_ratio"] = ratio(counts["phasespace.diag_entries_kept"],
                                            counts["phasespace.diag_entries_full"])
    hits, misses = counts["phasespace.wigner_cache_hits"], counts["phasespace.wigner_cache_misses"]
    m["phasespace.wigner_cache_hit_ratio"] = ratio(hits, hits + misses)
    m["phasespace.fftconvolve.bytes"] = counts["phasespace.fftconvolve.bytes"] / n
    m["fock.quad_moments.calls"] = calls("fock.quad_moments")
    for name in ("fock.quad_moments", "fock.displacement_matrix", "fock.displacement_matrices",
                 "mixedstate.entanglement_fidelity", "mixedstate.entanglement_fidelity_direct",
                 "protocol.average_channel", "protocol.fftconvolve", "protocol.mc_average",
                 "dynamics.split_step_evolve", "dynamics.double_well_potential",
                 "dynamics.wavefunction_to_fock", "fidelity.random_avg_fidelity",
                 "cli.main", "cli.write_csv"):
        m[f"{name}.self_s"] = self_s(name)
    recon, channels = tracer.child_counts("protocol.average_channel", "protocol._reconstruct_damped")
    m["protocol.average_channel.retries"] = (recon - channels) / n
    m["protocol.OutcomeSampler.init_s"] = s["total"].get("protocol.OutcomeSampler.__init__", 0.0) / n
    masses = values["protocol.sampler_mass"]
    m["protocol.sampler_mass"] = statistics.fmean(masses) if masses else 0.0
    m["protocol.fftconvolve.bytes"] = counts["protocol.fftconvolve.bytes"] / n
    m["protocol.ConditionalKernel.init_s"] = (
        s["total"].get("protocol.ConditionalKernel.__init__", 0.0) / n)
    evals_s = values["protocol.conditional_evaluate.seconds"]
    m["protocol.conditional_evaluate.calls"] = calls("protocol.ConditionalKernel.evaluate")
    m["protocol.conditional_evaluate.self_s"] = self_s("protocol.ConditionalKernel.evaluate")
    m["protocol.conditional_evaluate.p50_us"] = 1e6 * statistics.median(evals_s) if evals_s else 0.0
    steps = counts["dynamics.steps"]
    m["dynamics.steps"] = steps / n
    m["dynamics.step_us"] = 1e6 * ratio(s["total"].get("dynamics.split_step_evolve", 0.0), steps)
    m["dynamics.double_well_potential.calls"] = calls("dynamics.double_well_potential")
    hermite, projections = tracer.child_counts("dynamics.wavefunction_to_fock",
                                               "dynamics.hermite_functions")
    m["dynamics.projection_rounds"] = ratio(hermite, projections)
    m["cli.main.calls"] = calls("cli.main")
    m["cli.bytes_written"] = counts["cli.bytes_written"] / n
    absent = sorted(name for name, (_, _, needs) in PER_LAYER.items()
                    if any(dep in tracer.absent for dep in needs))
    for name in absent:
        m[name] = 0.0
    missing = set(PER_LAYER) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metric table out of sync: {sorted(missing)}")
    return m, absent
