"""Self-checks of the benchmark's tracing and reproducibility.

    python3 -m pytest -q bench/check_trace.py

Named outside pytest's default `test_*.py` pattern so the package's own
test run does not collect it; pass the path explicitly.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def sp():
    package = importlib.import_module("subplanck")
    importlib.import_module("subplanck.cli")
    return package


def run(sp, name, seed, traced, outdir=None, keep=None):
    workload = workloads.WORKLOADS[name]
    inp = workload.inputs(sp, seed, str(outdir) if outdir else None)
    flt = (lambda label: label.startswith(keep)) if keep else None
    return harness.run_workload(sp, workload, inp, 0, traced, op_filter=flt)


def snapshot(sp):
    state = {}
    for mod in MODULES:
        module = getattr(sp, mod)
        for owner in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == module.__name__]:
            state.update({(owner.__name__, k): id(v) for k, v in vars(owner).items()})
    return state


@pytest.mark.parametrize("name, keep", [
    ("curves", None),
    ("grids", ("W/random20", "F2/", "F3/", "Q/random20", "CLI/husimi")),
    ("teleport", ("CH/coherent/1.0", "SAMP/coherent/1.0", "MC/coherent/1.0")),
    ("chaos", ("EVOLVE/0",)),
])
def test_traced_round_reproduces_untraced_outputs(sp, tmp_path, name, keep):
    result = run(sp, name, 3, traced=True, outdir=tmp_path, keep=keep)
    assert [traced for traced, _ in result.rounds] == [False, True]
    labels = {rec.label for rec in result.ops}
    assert len(result.ops) == 2 * len(labels)
    # every op of the traced round was compared bit for bit with the untraced one
    assert [(rec.label, rec.failures) for rec in result.ops if rec.failures] == []
    assert result.tracer.spans


def test_layer_self_times_add_up_to_traced_wall(sp):
    result = run(sp, "curves", 4, traced=True)
    metrics, absent = harness.per_layer(result)
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert absent == []
    assert layers + metrics["trace.unspanned_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["fidelity.quadrature_rounds"] >= 1
    assert metrics["fock.radial_steps"] > 0


def test_every_rebinding_restored(sp):
    before = snapshot(sp)
    tracer = Tracer(sp)
    tracer.install()
    try:
        during = snapshot(sp)
        assert sum(during[key] != before[key] for key in before) > 50
    finally:
        tracer.uninstall()
    assert snapshot(sp) == before


def test_deleted_names_reported_absent(sp, monkeypatch):
    gone = ["fock._m_seq", "fock.displacement_matrices", "protocol._density_grid"]
    for name in gone:
        mod, attr = name.split(".")
        monkeypatch.delattr(getattr(sp, mod), attr)
    result = run(sp, "curves", 5, traced=True, keep="F4/")
    assert [rec.failures for rec in result.ops if rec.failures] == []
    assert sorted(result.tracer.absent) == sorted(gone)
    metrics, absent = harness.per_layer(result)
    assert {"fock.radial_steps", "fock.displacement_matrices.self_s"} <= set(absent)
    assert metrics["fock.radial_steps"] == 0.0


def test_cli_hashes_repeat_for_a_seed(sp, tmp_path):
    keep = ("W/compass", "Q/random20", "CLI/")

    def hashes(seed, sub):
        (tmp_path / sub).mkdir()
        result = run(sp, "grids", seed, traced=False, outdir=tmp_path / sub, keep=keep)
        assert [rec.failures for rec in result.ops if rec.failures] == []
        return {k: v for k, v in result.digests.items() if k.startswith("CLI/")}

    first, again, other = hashes(6, "a"), hashes(6, "b"), hashes(7, "c")
    assert len(first) == 2 and first == again
    assert first["CLI/wigner_compass.csv"] == other["CLI/wigner_compass.csv"]
    assert first["CLI/husimi_random20.csv"] != other["CLI/husimi_random20.csv"]


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in harness.PER_LAYER.items()}


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
