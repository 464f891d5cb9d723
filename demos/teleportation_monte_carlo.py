#!/usr/bin/env python3
"""Trajectory-level walk through the squeezed-resource protocol at t = 1.

Samples Alice's measurement outcomes, builds the conditional output
Wigner function for each, and shows the empirical average converging to
the analytic averaged channel while per-outcome fidelities scatter
around the closed form 2/3.
"""

import os
import sys

import numpy as np

from subplanck import (
    ComplexAmplitude,
    coherent_fidelity,
    make_coherent,
    make_rng,
    mc_average,
)
from subplanck.phasespace import squasi_values
from subplanck.protocol import OutcomeSampler

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

t = 1.0
state = make_coherent(ComplexAmplitude(1.0, 0.5), 48)
sampler = OutcomeSampler(state, t)
rng = make_rng(1234)

for n in (100, 1000, 5000):
    res = mc_average(state, t, n, rng, sampler=sampler)
    w_ref = squasi_values(state, -t, res.grid.points())  # the averaged output's Wigner function
    l1 = np.sum(np.abs(res.grid.values - w_ref)) * res.grid.cell_measure
    print(
        f"{n:5d} samples: L1 distance to averaged channel {l1:.4f}, "
        f"mean conditional fidelity {res.fidelities.mean():.4f} "
        f"(closed form {coherent_fidelity(t):.4f})"
    )

np.savetxt(
    os.path.join(OUT, "trajectories.csv"),
    np.column_stack([res.xi1, res.xi2, res.fidelities]),
    delimiter=",",
    header="xi1,xi2,conditional_fidelity",
    comments="# ",
)
print("wrote", os.path.join(OUT, "trajectories.csv"))

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("install matplotlib to render the figure", file=sys.stderr)
    raise SystemExit(0)  # the data work is done; the figure is optional

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.6))
sc = ax1.scatter(res.xi1, res.xi2, c=res.fidelities, s=4, cmap="viridis")
ax1.set_xlabel("outcome q1")
ax1.set_ylabel("outcome q2")
ax1.set_title("outcomes colored by conditional fidelity")
fig.colorbar(sc, ax=ax1)
ax2.hist(res.fidelities, bins=40, color="steelblue")
ax2.axvline(coherent_fidelity(t), color="k", ls="--", label="closed form")
ax2.set_xlabel("conditional fidelity")
ax2.legend()
fig.tight_layout()
fig.savefig(os.path.join(OUT, "teleport_mc.png"), dpi=150)
print("wrote", os.path.join(OUT, "teleport_mc.png"))
