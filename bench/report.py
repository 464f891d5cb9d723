"""Run the benchmark over workloads and seeds and print every metric with its unit.

    python3 bench/report.py                      # all workloads, seeds 1-3
    python3 bench/report.py --workloads chaos --seeds 1-10 --out runs.json
    python3 bench/report.py --trace 1 --seeds 1  # per-layer metrics

Each run is a separate `bench/run.py` process, one after another.  For
each metric the table shows the median over the runs, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median next to the bound from BENCHMARK.json; runs that
share a seed must write CLI files with equal sha256 hashes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402  (tables only; the runs are subprocesses)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run's result and report as JSON")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    runs = []
    healthy = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, report = run_once(workload, seed, args.seconds, args.trace)
            results.append((seed, result, report))
            runs.append({"workload": workload, "seed": seed, "result": result, "report": report})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"probe_ms={report['host_probe_ms']}", flush=True)
            healthy &= result["correct"]
        hashes = {}
        for seed, _, report in results:
            if report["cli_sha256"] and hashes.setdefault(seed, report["cli_sha256"]) != report["cli_sha256"]:
                print(f"# {workload} seed {seed}: CLI output hashes differ between runs")
                healthy = False
        print(f"{'workload':9s} {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} unit")
        for name in results[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r, _ in results]
            unit = results[0][1]["metrics"][name]["unit"]
            bound = bounds.get(name)
            if len(values) >= 2:
                med, q1, q3, rel = spread(values)
            else:
                med = q1 = q3 = values[0]
                rel = 0.0
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  spread > bound/3"
            print(f"{workload:9s} {name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
                  f"{'' if bound is None else bound:>6} {unit}{flag}")
        for key, unit in harness.EXTRA_UNITS.items():
            vals = [rep[key] for _, _, rep in results if key in rep]
            if vals:
                shown = vals[0] if isinstance(vals[0], str) else f"{statistics.median(vals):.6g}"
                print(f"{workload:9s} {key:48s} {shown:>12s} {unit}")
        if args.trace:
            absent = sorted({n for _, _, rep in results for n in rep.get("absent", [])})
            print(f"{workload:9s} {'absent':48s} {', '.join(absent) or '-'}")
        print(flush=True)
    if args.trace:
        print("layer metrics -> the end-to-end metric they should move")
        for layer, moves in harness.LAYER_MAP:
            print(f"  {layer}\n      -> {moves}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
