#!/usr/bin/env python3
"""Entanglement fidelity for mixed inputs, thermal states as the worked case.

For a thermal input the outcome-averaged entanglement fidelity has the
closed form 1/(1 + (2 nbar + 1) t / 2); the demo checks it against both
quadrature routes and shows how the two-variable characteristic function
collapses to |Phi|^2 for a pure state.
"""

import os
import sys

import numpy as np

from subplanck import (
    ComplexAmplitude,
    bold_phi,
    char_fn,
    entanglement_fidelity,
    entanglement_fidelity_direct,
    make_coherent,
    make_thermal,
    scale_report,
)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

ts = np.linspace(0.05, 2.0, 25)
print(f"{'nbar':>5s} {'fine scale':>11s} {'F(1) quad':>10s} {'F(1) closed':>11s} {'route gap':>10s}")
rows = [ts]
for nbar in (0.0, 0.5, 1.0, 2.0):
    rho = make_thermal(nbar, 64)
    curve = np.array([entanglement_fidelity(rho, t) for t in ts])
    rows.append(curve)
    closed = 1 / (1 + (2 * nbar + 1) * 1.0 / 2)
    gap = abs(entanglement_fidelity(rho, 1.0) - entanglement_fidelity_direct(rho, 1.0))
    rep = scale_report(rho)
    print(f"{nbar:5.1f} {rep.fine_scale:11.4f} "
          f"{entanglement_fidelity(rho, 1.0):10.6f} {closed:11.6f} {gap:10.1e}")

np.savetxt(os.path.join(OUT, "thermal_entanglement_fidelity.csv"),
           np.column_stack(rows), delimiter=",",
           header="t,nbar0,nbar0.5,nbar1,nbar2", comments="# ")
print("wrote", os.path.join(OUT, "thermal_entanglement_fidelity.csv"))

# pure-state factorization of the two-variable characteristic function
st = make_coherent(ComplexAmplitude(0.9, -0.3), 24)
mu = ComplexAmplitude(0.4, 0.2)
al = ComplexAmplitude(-0.1, 0.6)
lhs = bold_phi(st, mu, al)
rhs = np.conj(char_fn(st, mu)) * char_fn(st, al)
print(f"pure-state factorization: |PHI(mu,alpha) - Phi*(mu)Phi(alpha)| = {abs(lhs-rhs):.2e}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("install matplotlib to render the figure", file=sys.stderr)
    raise SystemExit(0)  # the data work is done; the figure is optional

plt.figure(figsize=(5.5, 3.8))
for nbar, curve in zip((0.0, 0.5, 1.0, 2.0), rows[1:]):
    plt.plot(ts, curve, label=f"nbar = {nbar}")
plt.xlabel("squeezing parameter t")
plt.ylabel("entanglement fidelity")
plt.legend()
plt.tight_layout()
plt.savefig(os.path.join(OUT, "thermal_entanglement.png"), dpi=150)
print("wrote", os.path.join(OUT, "thermal_entanglement.png"))
