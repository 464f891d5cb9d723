"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload {curves,grids,teleport,chaos} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  The BLAS thread count is pinned to 1 in this process's
environment before numpy loads.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  The lines before it
are a readable table and a `report` JSON line (environment, host-noise
probe, named rates, failed ops, CLI output hashes, absent names).
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # extra processes timing set-up; the median includes this process
WORKLOAD_NAMES = ("curves", "grids", "teleport", "chaos")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time import + input generation and print it")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def set_up(workload_name, seed, outdir):
    """Import the package, then build the workload's inputs; (seconds, sp, workload, inputs).

    Only the package import and the input generation are timed; the
    benchmark's own modules load in between, untimed.
    """
    t0 = time.perf_counter()
    sp = importlib.import_module("subplanck")
    importlib.import_module("subplanck.cli")
    t1 = time.perf_counter()
    import warnings

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    t2 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation warnings of seeded random inputs
        inputs = workload.inputs(sp, seed, outdir)
    t3 = time.perf_counter()
    if Path(sp.__file__).resolve().parent != SRC / "subplanck":
        raise RuntimeError(f"imported subplanck from {sp.__file__}, not from {SRC}")
    return (t1 - t0) + (t3 - t2), sp, workload, inputs


def setup_probe(workload_name, seed):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def calibration_ms():
    """Host-noise probe: a fixed pure-numpy op, median of 5 (ms)."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 1 << 20)
    m = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        float(np.sum(np.sin(a) * np.cos(a)))
        float(np.sum(m @ m))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(seed):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


def print_table(workload, metrics, table, extra, extra_units):
    for name, value in metrics.items():
        print(f"{workload:9s} {name:48s} {value:16.6g} {table[name][0]}")
    for name, value in extra.items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{workload:9s} {name:48s} {shown:>16s} {extra_units[name]}")


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "subplanck" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'subplanck'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    if args.setup_probe:
        seconds, *_ = set_up(args.workload, args.seed, None)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    outdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        own, sp, workload, inputs = set_up(args.workload, args.seed, str(outdir))
        setups.append(own)
        import harness

        probe_before = calibration_ms()
        result = harness.run_workload(sp, workload, inputs, args.seconds, bool(args.trace))
        probe_after = calibration_ms()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, extra = harness.end_to_end(result, workload, statistics.median(setups), peak_rss_mb)
    failed_ops = [(rec.label, rec.failures) for rec in result.ops if rec.failures]
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "env": environment(args.seed),
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "setup_samples_s": setups,
        "round_walls_s": [[int(traced), wall] for traced, wall in result.rounds],
        "warnings": result.warnings,
        "failed_ops": failed_ops[:20],
        "cli_sha256": {label: code for label, code in result.digests.items()
                       if label.startswith("CLI/")},
        **extra,
    }
    if args.trace:
        metrics, absent = harness.per_layer(result)
        report["absent"] = absent
        table = harness.PER_LAYER
    else:
        metrics, table = e2e, harness.END_TO_END
    print_table(workload.name, metrics, table, extra, harness.EXTRA_UNITS)
    print(json.dumps({"report": report}, default=str))
    attempted = len(result.ops)
    failed = len(failed_ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
