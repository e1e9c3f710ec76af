"""A single-mode non-linear phase gate between two random networks.

The gate multiplies every intermediate state by exp(-i * r_x^2 * phi); only
components with two or more photons at the gate site feel the difference from
an ordinary (linear) phase shifter.  This script compares the exact evolution
against its best linear stand-in across the whole phase range.
"""

import math

import numpy as np

import nlboson as nb

m, n, x = 9, 3, 5
rng = np.random.default_rng(7)
w, v = nb.haar_unitary(m, rng), nb.haar_unitary(m, rng)
s = (1, 1, 1) + (0,) * (m - n)

# ----------------------------------------------------------------------
# Three equivalent amplitude formulas
# ----------------------------------------------------------------------
phi = math.pi / 2
t = (0, 1, 0, 0, 2, 0, 0, 0, 0)
exp = nb.NonlinearExperiment(w, v, nb.SingleModePhase(x, phi), s)
a_pathsum = nb.nonlinear_amplitude(exp, t)
a_fourier = nb.phase_gate_amplitude(w, x, phi, v, s, t)
a_split = nb.phase_gate_amplitude_split(w, x, phi, v, s, t)
print("one amplitude, three routes:")
print(f"  general path sum   {a_pathsum:+.12f}")
print(f"  Fourier form       {a_fourier:+.12f}")
print(f"  split form         {a_split:+.12f}")

# ----------------------------------------------------------------------
# How far is the non-linear evolution from any linear one?  The natural
# benchmark replaces the gate with a linear phase shifter of the same angle.
# ----------------------------------------------------------------------
print("\nTVD between the non-linear evolution and its linearized benchmark:")
print("phi/pi   TVD      site bunching")
for frac in (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0):
    phi = frac * math.pi
    exp = nb.NonlinearExperiment(w, v, nb.SingleModePhase(x, phi), s)
    ubar = nb.linearized_evolution(w, x, phi, v)
    gap = nb.tvd(nb.nonlinear_distribution(exp), nb.output_distribution(ubar, s))
    bunch = nb.bunching_at_site(w, s, x, 1)
    print(f"{frac:5.3f}   {gap:.5f}  {bunch:.5f}")

print(
    "\nAt phi = 0 and phi = pi the quadratic and linear phases coincide"
    " (n^2 has the parity of n), so the distance vanishes; it peaks near pi/2."
)

# ----------------------------------------------------------------------
# Is the linearized benchmark actually a good stand-in?  Compare with a
# brute-force random search over Haar unitaries.
# ----------------------------------------------------------------------
phi = math.pi / 2
exp = nb.NonlinearExperiment(w, v, nb.SingleModePhase(x, phi), s)
result = nb.random_unitary_search(exp, 3000, np.random.default_rng(8))
ubar = nb.linearized_evolution(w, x, phi, v)
benchmark = nb.tvd(nb.output_distribution(ubar, s), nb.nonlinear_distribution(exp))
print(f"\nbest TVD over 3000 random unitaries: {result.best_tvd:.4f}")
print(f"TVD of the linearized benchmark:     {benchmark:.4f}")
