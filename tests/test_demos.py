"""The demos run end to end, and values they print are checked.

chaotic_double_well.py is not run here: acceptance 11 runs its path.

matplotlib is optional: without it a demo writes its data, prints a notice
to stderr and still exits 0.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_mixed_state_demo_runs():
    # both entanglement routes
    out = run_demo("mixed_state_teleportation.py")
    assert "thermal_entanglement_fidelity.csv" in out
    table = [line.split() for line in out.splitlines()[1:5]]
    assert [row[0] for row in table] == ["0.0", "0.5", "1.0", "2.0"]
    for _, _, quad, closed, gap in table:
        assert abs(float(quad) - float(closed)) <= 1e-6  # the printed digits
        assert float(gap) <= 1e-12  # entanglement_fidelity against entanglement_fidelity_direct


def test_fidelity_curves_demo_runs():
    # form 4 against the closed forms at t = 1
    out = run_demo("fidelity_curves.py")
    assert "fidelity_curves.csv" in out
    rows = [line.split() for line in out.splitlines()[1:6]]
    checked = 0
    for *_, closed, quad, _fine in rows:
        if quad != "nan":  # the coherent and ensemble rows have no state to integrate
            assert abs(float(quad) - float(closed)) <= 1e-6  # the printed digits
            checked += 1
    assert checked == 3


def test_teleportation_monte_carlo_demo_runs():
    # the L1 reference grid is the input's W^(-t), the averaged output's Wigner function
    out = run_demo("teleportation_monte_carlo.py")
    assert "trajectories.csv" in out
    rows = [line for line in out.splitlines() if "samples: L1 distance" in line]
    assert [int(line.split()[0]) for line in rows] == [100, 1000, 5000]
    l1 = [float(line.split("averaged channel ")[1].split(",")[0]) for line in rows]
    assert l1[-1] < l1[0]  # the sampled mean converges on the averaged channel


def test_compass_phase_space_demo_runs():
    # the extent against 2 sqrt(26), and fine scale x extent = 2, to the printed digits
    out = run_demo("compass_phase_space.py")
    assert "wrote compass_*.npy arrays" in out
    lines = {line.split()[0]: line for line in out.splitlines()}
    fine = float(lines["fine"].split()[2])
    extent, closed = (float(v.rstrip(")")) for v in lines["extent"].split()[1::4])
    assert abs(extent - closed) <= 1e-4
    assert abs(fine * extent - 2.0) <= 5e-5 * (fine + extent)  # half a printed unit on each


def test_random_state_scales_demo_runs():
    # the sampled ensemble mean against the random-state formula, within 3 printed SEs
    out = run_demo("random_state_scales.py")
    rows = [line.split() for line in out.splitlines() if "formula" in line and "sampled" in line]
    assert [row[0] for row in rows] == ["t=0.3:", "t=1.0:", "t=2.0:"]
    for row in rows:
        formula, sampled, se = float(row[2].rstrip(",")), float(row[4]), float(row[6])
        assert abs(sampled - formula) <= 3 * se
