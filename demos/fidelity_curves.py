#!/usr/bin/env python3
"""Fidelity-versus-squeezing curves for the state catalog.

Walks the closed forms (coherent, squeezed, number, compass, random
ensemble) against the form-4 quadrature, showing that every curve stays
under the coherent-state bound and decays faster the more phase-space
structure the state carries.
"""

import os
import sys

import numpy as np

from subplanck import (
    coherent_fidelity,
    compass_fidelity,
    fidelity_quadrature,
    make_compass,
    make_number,
    make_squeezed,
    number_fidelity,
    random_avg_fidelity,
    scale_report,
    squeezed_fidelity,
)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

ts = np.linspace(0.0, 2.0, 41)

curves = {
    "coherent": ([coherent_fidelity(t) for t in ts], None),
    "squeezed u=0.8": (
        [squeezed_fidelity(0.8, t) for t in ts],
        make_squeezed(0.8, 64),
    ),
    "number n=3": ([number_fidelity(3, t) for t in ts], make_number(3, 8)),
    "compass a=2": ([compass_fidelity(2.0, t) for t in ts], make_compass(2.0, 48)),
    "random dim=25 (ensemble)": ([random_avg_fidelity(25, t) for t in ts], None),
}

print(f"{'state':28s}  {'F(t=1) closed':>14s}  {'F(t=1) quad':>12s}  {'fine scale':>10s}")
rows = [ts]
for name, (closed, state) in curves.items():
    closed = np.asarray(closed)
    rows.append(closed)
    quad = fidelity_quadrature(state, 1.0, 4) if state is not None else float("nan")
    fine = scale_report(state).fine_scale if state is not None else float("nan")
    idx = np.searchsorted(ts, 1.0)
    print(f"{name:28s}  {closed[idx]:14.8f}  {quad:12.8f}  {fine:10.4f}")

data = np.column_stack(rows)
header = "t," + ",".join(curves)
np.savetxt(os.path.join(OUT, "fidelity_curves.csv"), data, delimiter=",",
           header=header, comments="# ")
print("wrote", os.path.join(OUT, "fidelity_curves.csv"))

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("install matplotlib to render the figure", file=sys.stderr)
    raise SystemExit(0)  # the data work is done; the figure is optional

plt.figure(figsize=(6, 4))
for name, (closed, _) in curves.items():
    plt.plot(ts, closed, label=name)
plt.plot(ts, [coherent_fidelity(t) for t in ts], "k--", lw=0.8,
         label="coherent bound")
plt.xlabel("squeezing parameter t")
plt.ylabel("average fidelity")
plt.legend(fontsize=8)
plt.tight_layout()
plt.savefig(os.path.join(OUT, "fidelity_curves.png"), dpi=150)
print("wrote", os.path.join(OUT, "fidelity_curves.png"))
