"""Simulating the non-linear gate with an enlarged linear system.

The gate site is routed through a gadget carrying k extra photons; detecting
one photon on every ancilla output heralds success.  With k equal to the
photon number the heralded statistics reproduce the non-linear evolution
exactly; with fewer ancillas they only approximate it, and rejection
sampling converges to that approximate (post-selected) distribution.
"""

import math

import numpy as np

import nlboson as nb
from nlboson.linear import Distribution

m, n, x, phi = 5, 3, 3, math.pi / 2
rng = np.random.default_rng(42)
w, v = nb.haar_unitary(m, rng), nb.haar_unitary(m, rng)
s = (1, 1, 1, 0, 0)

# one experiment: its photon-number components are computed once and shared
# by the exact distribution and every heralded one below
exp = nb.NonlinearExperiment(w, v, nb.SingleModePhase(x, phi), s)
exact = nb.nonlinear_distribution(exp)

print(f"system: {n} photons in {m} modes, gate on mode {x}, phi = pi/2\n")

# ----------------------------------------------------------------------
# Heralded distributions for k = 1, 2, 3 ancilla photons
# ----------------------------------------------------------------------
gadgets = {
    1: nb.optimize_gadget(1, phi),
    2: nb.optimize_gadget(2, phi, 0.15, starts=100, rng=np.random.default_rng(11)),
    3: nb.optimize_gadget(3, phi, 0.02, starts=100, rng=np.random.default_rng(23)),
}
setups = {k: nb.SimulationSetup(exp, g) for k, g in gadgets.items()}

print("ancillas  heralding mass  TVD to exact")
for k, setup in setups.items():
    dist, p_ps = nb.postselected_distribution(setup)
    print(f"   k={k}       {p_ps:.4f}        {nb.tvd(dist, exact):.2e}")
print("\nk = n is exact; smaller k leaves a bunching-induced error.")

# ----------------------------------------------------------------------
# Rejection sampling: draw from the enlarged linear system, keep heralded
# events, and watch the empirical error saturate at the heralded floor
# ----------------------------------------------------------------------
setup2 = setups[2]
ps2, _ = nb.postselected_distribution(setup2)
floor = nb.tvd(ps2, exact)
print(f"\nrejection sampling with k=2 (floor = {floor:.4f}):")
print("samples  empirical TVD to exact  acceptance rate")
for size in (100, 1000, 10000):
    samples, stats = nb.run_rejection_sampling(setup2, size, np.random.default_rng(size))
    freq = np.zeros(len(exact.space))
    for state in samples:
        freq[exact.space.rank(state)] += 1
    emp = Distribution(exact.space, freq / size)
    print(f"{size:7d}  {nb.tvd(emp, exact):21.4f}  {stats.acceptance_rate:.4f}")
