"""Boundary tracing of the subplanck modules, installed from outside `src/`.

`Tracer.install` rebinds, in each package module's namespace, every
function that module imports from a neighbouring package module, plus a
fixed list of the module's own functions whose per-layer numbers the
benchmark reports (intra-module calls go through module globals, so
rebinding the global is enough).  Each rebinding records a span
(name, start, end, parent) per call; generator functions (the scaled
Laguerre radial recurrence) get a counting wrapper instead of spans.
`Tracer.uninstall` puts every original object back.

A name in the fixed list that the package no longer defines is recorded
in `Tracer.absent` and skipped, so a later refactor that merges or
deletes it does not break the benchmark; metrics that need it are
reported as absent.
"""

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = (
    "fock",
    "quadrature",
    "phasespace",
    "fidelity",
    "mixedstate",
    "protocol",
    "dynamics",
    "cli",
)
# "bench" is the benchmark's own op span around each call into the package.
LAYERS = ("bench",) + MODULES

# The module's own names wrapped in its own namespace ("Class.method" for
# methods), on top of the names it imports from its neighbours.
OWN = {
    "fock": ("_m_seq", "displacement_matrix", "displacement_matrices", "quad_moments"),
    "quadrature": ("gauss_laguerre_scaled", "radial_rule", "polar_rule"),
    "phasespace": (
        "state_diagonals", "char_on_polar", "char_values", "squasi_values",
        "wigner_values", "husimi_values", "cached_default_wigner",
        "gaussian_pair_integral", "wigner_grid", "husimi_grid", "char_grid",
        "overlap",
    ),
    "fidelity": ("fidelity_quadrature", "classical_fidelity", "random_avg_fidelity"),
    "mixedstate": ("entanglement_fidelity", "entanglement_fidelity_direct"),
    "protocol": (
        "average_channel", "_reconstruct_damped", "_density_grid",
        "OutcomeSampler.__init__", "ConditionalKernel.__init__",
        "ConditionalKernel.evaluate", "mc_average", "conditional_output",
        "alice_outcome_density",
    ),
    "dynamics": (
        "split_step_evolve", "double_well_potential", "wavefunction_to_fock",
        "hermite_functions", "evolve_chaotic",
    ),
    "cli": ("main", "write_csv"),
}
# Third-party names a module imports whose cost and traffic are reported
# under that module.
FOREIGN = {"phasespace": ("fftconvolve",), "protocol": ("fftconvolve",)}


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Spans and counters at the package's module boundaries."""

    def __init__(self, package):
        self.package = package
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.absent = []
        self._patches = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.values = defaultdict(list)

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        prefix = self.package.__name__ + "."
        for mod_name, module in self.modules.items():
            for name, value in list(vars(module).items()):
                origin = getattr(value, "__module__", None) or ""
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and origin.startswith(prefix)
                    and origin != module.__name__
                ):
                    self._patch(module, name, value, origin[len(prefix):] + "." + name)
            for name in OWN.get(mod_name, ()) + FOREIGN.get(mod_name, ()):
                owner, attr = module, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name, None)
                if owner is None or attr not in vars(owner):
                    self.absent.append(f"{mod_name}.{name}")
                    continue
                self._patch(owner, attr, vars(owner)[attr], f"{mod_name}.{name}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, span):
        if inspect.isgeneratorfunction(original):
            wrapper = self._counting_generator(original, span)
        else:
            wrapper = self._spanning_call(original, span, HOOKS.get(span))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _counting_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".iterates"] += 1
                yield item

        return wrapper

    def _spanning_call(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = hook.before(fn, args, kwargs) if hook and hook.before else None
            result, seconds = tracer.timed(name, fn, *args, **kwargs)
            if hook and hook.after:
                hook.after(tracer, fn, token, args, kwargs, result, seconds)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def timed(self, name, fn, *args, **kwargs):
        """Run fn as a span under the innermost open span; (result, seconds)."""
        stack = self.stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent)
        return result, end - start

    # -- derived numbers ----------------------------------------------------

    def summary(self):
        """Per-name calls, total and self time; per-layer self time; roots."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_time = end - start - child_time[i]
            calls[name] += 1
            total[name] += end - start
            own[name] += self_time
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_time
            if parent < 0:
                roots += end - start
        return {"calls": calls, "total": total, "self": own,
                "layer_self": layer_self, "roots": roots}

    def child_counts(self, parent_name, child_name):
        """(child spans under `parent_name` spans, parents having such a child)."""
        spans = self.spans
        parents = [s[3] for s in spans
                   if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name]
        return len(parents), len(set(parents))


class Hook:
    """Callbacks run around a traced call: before(fn, args, kwargs) -> token,
    after(tracer, fn, token, args, kwargs, result, seconds)."""

    def __init__(self, before=None, after=None):
        self.before = before
        self.after = after


def _count_points(name, pos, key):
    def after(tracer, fn, token, args, kwargs, result, seconds):
        tracer.counts[name + ".points"] += int(np.size(_arg(args, kwargs, pos, key)))

    return Hook(after=after)


def _char_on_polar_after(tracer, fn, token, args, kwargs, result, seconds):
    x = _arg(args, kwargs, 1, "x")
    theta = _arg(args, kwargs, 2, "theta")
    tracer.counts["phasespace.char_on_polar.nodes"] += int(np.size(x) * np.size(theta))


def _diagonals_after(tracer, fn, token, args, kwargs, result, seconds):
    dim = _arg(args, kwargs, 0, "state").dim
    tracer.counts["phasespace.diag_entries_kept"] += sum(int(w.size) for _, w in result)
    tracer.counts["phasespace.diag_entries_full"] += dim * (dim + 1) // 2


def _wigner_cache_before(fn, args, kwargs):
    cache = fn.__globals__.get("_default_wigner_cache")
    if cache is None:
        return None
    resolution = _arg(args, kwargs, 1, "resolution", 256)
    return resolution in cache.get(_arg(args, kwargs, 0, "state"), {})


def _wigner_cache_after(tracer, fn, hit, args, kwargs, result, seconds):
    if hit is not None:
        tracer.counts["phasespace.wigner_cache_" + ("hits" if hit else "misses")] += 1


def _fft_bytes(name):
    def after(tracer, fn, token, args, kwargs, result, seconds):
        tracer.counts[name + ".bytes"] += int(args[0].nbytes + args[1].nbytes + result.nbytes)

    return Hook(after=after)


def _rule_before(fn, args, kwargs):
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _rule_after(tracer, fn, misses_before, args, kwargs, result, seconds):
    tracer.counts["quadrature.radial_nodes"] += int(_arg(args, kwargs, 0, "n"))
    tracer.counts["quadrature.rule_calls"] += 1
    if misses_before is None:  # uncached rule: every call builds it
        tracer.counts["quadrature.rule_misses"] += 1
    else:
        tracer.counts["quadrature.rule_misses"] += fn.cache_info().misses - misses_before


def _sampler_after(tracer, fn, token, args, kwargs, result, seconds):
    mass = getattr(args[0], "mass", None)
    if mass is not None:
        tracer.values["protocol.sampler_mass"].append(float(mass))


def _evaluate_after(tracer, fn, token, args, kwargs, result, seconds):
    tracer.values["protocol.conditional_evaluate.seconds"].append(seconds)


def _split_after(tracer, fn, token, args, kwargs, result, seconds):
    tracer.counts["dynamics.steps"] += int(_arg(args, kwargs, 3, "config").n_steps)


def _write_csv_after(tracer, fn, token, args, kwargs, result, seconds):
    tracer.counts["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "phasespace.char_on_polar": Hook(after=_char_on_polar_after),
    "phasespace.state_diagonals": Hook(after=_diagonals_after),
    "phasespace.squasi_values": _count_points("phasespace.squasi_values", 2, "points"),
    "phasespace.husimi_values": _count_points("phasespace.husimi_values", 1, "points"),
    "phasespace.char_values": _count_points("phasespace.char_values", 1, "points"),
    "phasespace.cached_default_wigner": Hook(_wigner_cache_before, _wigner_cache_after),
    "phasespace.fftconvolve": _fft_bytes("phasespace.fftconvolve"),
    "protocol.fftconvolve": _fft_bytes("protocol.fftconvolve"),
    "quadrature.gauss_laguerre_scaled": Hook(_rule_before, _rule_after),
    "protocol.OutcomeSampler.__init__": Hook(after=_sampler_after),
    "protocol.ConditionalKernel.evaluate": Hook(after=_evaluate_after),
    "dynamics.split_step_evolve": Hook(after=_split_after),
    "cli.write_csv": Hook(after=_write_csv_after),
}
