"""Regenerate the phi = pi/2 gadget inputs the benchmark loads.

Run from the repository root:

    python3 perfbench/make_gadgets.py

The settings match the test suite's session fixtures (``gadget_k2`` and
``gadget_k3`` in ``tests/conftest.py``), so the files hold the same gadgets
the tests synthesize.  The benchmark never synthesizes these at set-up: the
k = 3 search alone takes several seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from nlboson import optimize_gadget, save_gadget, verify_gadget  # noqa: E402
from workloads import PHI, gadget_path  # noqa: E402

# k -> (p_th, rng seed, budget); starts = 100 for both
SETTINGS = {2: (0.15, 11, 1500), 3: (0.02, 23, 2500)}


def main() -> int:
    for k, (p_th, seed, budget) in SETTINGS.items():
        spec = optimize_gadget(k, PHI, p_th, starts=100,
                               rng=np.random.default_rng(seed), budget=budget)
        report = verify_gadget(spec, tol=1e-8)
        if not report["ok"]:
            print(f"k={k}: synthesized gadget fails verify_gadget: {report}", file=sys.stderr)
            return 1
        save_gadget(gadget_path(k), spec)
        print(f"k={k}: success probability {spec.success_prob:.6f}, "
              f"objective {spec.residual:.3e} -> {gadget_path(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
