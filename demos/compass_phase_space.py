#!/usr/bin/env python3
"""Phase-space portraits of the four-lobe compass state at a = 5/sqrt(2).

Renders |Phi|^2, (pi/2) W and pi Q side by side: the Wigner panel shows
the central checkerboard whose tile size (fine scale 0.2) is the
reciprocal of the state's overall extent (10), while the Husimi panel
smooths the structure away entirely.
"""

import os
import sys

import numpy as np

from subplanck import make_compass, scale_report, square_grid
from subplanck.phasespace import char_grid, husimi_grid, wigner_grid

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

a = 5 / np.sqrt(2)
state = make_compass(a, 64)
rep = scale_report(state, "compass")
print(f"fine scale {rep.fine_scale:.4f} (1/(sqrt2 a) = {1/(np.sqrt(2)*a):.4f})")
print(f"extent     {rep.extent:.4f} (2 sqrt(26) = {2*np.sqrt(26):.4f})")
print(f"t_crit     {rep.t_crit:.5f}")

wide = square_grid(8.0, 384)
tight = square_grid(1.2, 192)

panels = {
    "char_sq": np.abs(char_grid(state, square_grid(18.0, 384)).values) ** 2,
    "wigner": np.pi / 2 * wigner_grid(state, wide).values,
    "wigner_zoom": np.pi / 2 * wigner_grid(state, tight).values,
    "husimi": np.pi * husimi_grid(state, wide).values,
}
for name, vals in panels.items():
    np.save(os.path.join(OUT, f"compass_{name}.npy"), vals)
print("wrote compass_*.npy arrays")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("install matplotlib to render the figure", file=sys.stderr)
    raise SystemExit(0)  # the data work is done; the figure is optional

fig, axes = plt.subplots(1, 4, figsize=(13, 3.4))
extents = [18.0, 8.0, 1.2, 8.0]
titles = ["|characteristic|$^2$", "(pi/2) Wigner", "central checkerboard", "pi Husimi"]
for ax, (name, vals), hw, title in zip(
    axes, panels.items(), extents, titles
):
    lim = np.max(np.abs(vals))
    ax.imshow(vals.T[::-1], extent=[-hw, hw, -hw, hw], cmap="RdBu_r",
              vmin=-lim, vmax=lim)
    ax.set_title(title, fontsize=9)
    ax.set_xlabel("position quadrature")
axes[0].set_ylabel("momentum quadrature")
fig.tight_layout()
fig.savefig(os.path.join(OUT, "compass_panels.png"), dpi=150)
print("wrote", os.path.join(OUT, "compass_panels.png"))
