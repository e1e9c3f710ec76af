import math
import sys

import numpy as np
import pytest

from nlboson import optimize_gadget

# Synthesized gadgets are shared session-wide: the search is deterministic
# for a fixed seed, and several test modules (and the acceptance gate) need
# the same ones.


@pytest.fixture(scope="session")
def gadget_k1():
    return optimize_gadget(1, math.pi / 2)


@pytest.fixture(scope="session")
def gadget_k2():
    return optimize_gadget(
        2, math.pi / 2, 0.15, starts=100, rng=np.random.default_rng(11), budget=1500
    )


@pytest.fixture(scope="session")
def gadget_k2_pi4():
    return optimize_gadget(
        2, math.pi / 4, 0.1, starts=100, rng=np.random.default_rng(17), budget=1500
    )


@pytest.fixture(scope="session")
def gadget_k3():
    return optimize_gadget(
        3, math.pi / 2, 0.02, starts=100, rng=np.random.default_rng(23), budget=2500
    )


@pytest.fixture(scope="session")
def phi_grid_gadgets():
    grid = [(i + 1) / 8 * math.pi / 2 for i in range(8)]
    return {
        phi: optimize_gadget(
            2, phi, 0.1, starts=100, rng=np.random.default_rng(17), budget=1500
        )
        for phi in grid
    }


# Counting tests spy on a function through every nlboson module that binds it.


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` records the arguments of every call to
    `module.name`, through whichever nlboson module binds it, and returns the
    list it appends them to."""

    def install(module, name) -> list:
        original, calls = getattr(module, name), []

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        for owner in list(sys.modules.values()):
            if owner.__name__.startswith("nlboson") and getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, recorder)
        return calls

    return install


def check_contexts(calls) -> list[str]:
    """The sorted `context` arguments of recorded ``linalg._unitarity_gate`` calls."""
    return sorted(kwargs.get("context", args[2] if len(args) > 2 else "") for args, kwargs in calls)


def network_checks(calls) -> list[str]:
    """The checks of a sandwich's W and V among recorded unitarity-gate calls."""
    return [c for c in check_contexts(calls) if c in ("W", "V")]
