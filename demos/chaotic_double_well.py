#!/usr/bin/env python3
"""Driven double-well run: chaos manufactures sub-Planck structure.

Evolves a coherent state from (x, p) = (-8, 4) to tau = 5 under
H = 5 p^2 - 8 x^2 + 0.05 x^4 + 65 x cos(2 pi tau), projects the result
onto the oscillator basis, and overlays its teleportation-fidelity curve
on the random-state ensemble average at the variance-matched dimension
and at dimension 100.
"""

import os
import sys
import warnings

import numpy as np

from subplanck import (
    EvolutionConfig,
    SpatialGrid,
    coherent_wavefunction,
    evolve_chaotic,
    fidelity_quadrature,
    quad_moments,
    random_avg_fidelity,
    wavefunction_to_fock,
)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

grid = SpatialGrid()
psi = coherent_wavefunction(-8.0, 4.0, grid)
print("evolving to tau = 5 (about ten seconds)...")
final = evolve_chaotic(psi, EvolutionConfig(dt=2.5e-4, t_final=5.0))
print(f"norm drift {final.norm2 - 1:.2e}, edge density {final.edge_density:.1e}")

state, leakage = wavefunction_to_fock(final)
print(f"projected onto {state.dim} levels, leakage {leakage:.2e}")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    _, _, vx, vp = quad_moments(state)
cand = np.arange(1, 400)
matched = int(cand[np.argmin(np.abs((cand**2 + 1) / (cand + 1) - (vx + vp)))])
print(f"variance sum {vx + vp:.1f} -> matched random dimension {matched}")

ts = np.linspace(0.2, 2.0, 13)
f_chaos = np.array([fidelity_quadrature(state, t, 4) for t in ts])
f_match = np.array([random_avg_fidelity(matched, t) for t in ts])
f_100 = np.array([random_avg_fidelity(100, t) for t in ts])
print(f"max |chaotic - matched ensemble| = {np.max(np.abs(f_chaos - f_match)):.4f}")
print(f"max |chaotic - dim-100 ensemble| = {np.max(np.abs(f_chaos - f_100)):.4f}")

np.savetxt(
    os.path.join(OUT, "chaotic_fidelity.csv"),
    np.column_stack([ts, f_chaos, f_match, f_100]),
    delimiter=",",
    header="t,F_chaotic,F_matched,F_dim100",
    comments="# ",
)
print("wrote", os.path.join(OUT, "chaotic_fidelity.csv"))

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("install matplotlib to render the figures", file=sys.stderr)
    raise SystemExit(0)  # the data work is done; the figure is optional

from subplanck import square_grid
from subplanck.phasespace import wigner_grid

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.8))
ax1.plot(final.x, np.abs(final.samples) ** 2, lw=0.7)
ax1.set_xlabel("x")
ax1.set_ylabel("|psi|^2")
ax1.set_title("final wavefunction")
ax2.plot(ts, f_chaos, "o-", label="chaotic state", ms=3)
ax2.plot(ts, f_match, "--", label=f"random ensemble dim={matched}")
ax2.plot(ts, f_100, ":", label="random ensemble dim=100")
ax2.set_xlabel("squeezing parameter t")
ax2.set_ylabel("average fidelity")
ax2.legend(fontsize=8)
fig.tight_layout()
fig.savefig(os.path.join(OUT, "chaotic_overlay.png"), dpi=150)
print("wrote", os.path.join(OUT, "chaotic_overlay.png"))

g = square_grid(16.0, 256)
w = np.pi / 2 * wigner_grid(state, g).values
plt.figure(figsize=(4.6, 4))
lim = np.max(np.abs(w))
plt.imshow(w.T[::-1], extent=[-16, 16, -16, 16], cmap="RdBu_r", vmin=-lim, vmax=lim)
plt.xlabel("position quadrature")
plt.ylabel("momentum quadrature")
plt.title("(pi/2) Wigner of the chaotic state")
plt.tight_layout()
plt.savefig(os.path.join(OUT, "chaotic_wigner.png"), dpi=150)
print("wrote", os.path.join(OUT, "chaotic_wigner.png"))
