"""Simulating the non-linear phase gate with an enlarged linear system.

The gate on mode x is replaced by a (k+1)-port gadget: signal port 1 attaches
to mode x, ancilla ports attach to k fresh modes (m+1..m+k) carrying one
photon each.  The whole (m+k)-mode circuit is linear; keeping only outcomes
with exactly one photon per ancilla mode reproduces the non-linear evolution
on the first m modes -- exactly when k matches the photon number, and up to
bunching corrections when k is smaller.

Rejection sampling draws from the enlarged system, as the experiment does;
the post-selected distribution is computed without it, as a single-mode
diagonal layer on the photon-number components of :mod:`nlboson.nonlinear`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    PostselectionError,
    SamplingBudgetError,
    StateSpaceTooLargeError,
)
from .fock import (
    FockState,
    StateSpace,
    as_state,
    concat_states,
    enumerate_states,
    normalization_product,
    occupation_indices,
    photon_count,
    space_size,
)
from .gadget import GadgetSpec, heralded_factors
from .linalg import direct_sum, gathered_permanents, unitarity_deviation
from .linear import SAMPLING_SPACE_GUARD, Distribution, _inverse_sample
from .nonlinear import photon_number_components

__all__ = [
    "SimulationSetup",
    "AcceptanceStats",
    "build_setup",
    "postselected_distribution",
    "run_rejection_sampling",
]


@dataclass(frozen=True, eq=False)
class SimulationSetup:
    """The enlarged linear system standing in for one non-linear experiment."""

    w: np.ndarray
    v: np.ndarray
    mode_x: int
    input_state: FockState
    gadget: GadgetSpec
    enlarged_unitary: np.ndarray
    enlarged_input: FockState

    @property
    def m(self) -> int:
        return len(self.input_state)

    @property
    def n(self) -> int:
        return photon_count(self.input_state)

    @property
    def k(self) -> int:
        return self.gadget.k


def build_setup(w, v, mode_x: int, input_state, gadget: GadgetSpec) -> SimulationSetup:
    """Compose (W + id on ancillas), the embedded gadget, then (V + id).

    Gadget port 1 attaches to mode `mode_x` (1-based); ancilla ports attach to
    modes m+1..m+k in ascending order.  The enlarged input appends one photon
    per ancilla mode.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    s = as_state(input_state)
    m = len(s)
    k = gadget.k
    if k < 1:
        raise DimensionError("simulation needs at least one ancilla photon")
    if w.shape != (m, m) or v.shape != (m, m):
        raise DimensionError(
            f"networks must be {m}x{m} for a {m}-mode input, got {w.shape} and {v.shape}"
        )
    if not 1 <= mode_x <= m:
        raise DimensionError(f"gate mode {mode_x} out of range [1, {m}]")
    ports = [mode_x - 1] + list(range(m, m + k))
    embedded = np.eye(m + k, dtype=complex)
    embedded[np.ix_(ports, ports)] = gadget.u_eff
    eye_k = np.eye(k, dtype=complex)
    enlarged = direct_sum(w, eye_k) @ embedded @ direct_sum(v, eye_k)
    # exact inputs give ~1e-15; rounded bundled gadgets pass through their own slack
    parts_dev = max(unitarity_deviation(w), unitarity_deviation(v),
                    unitarity_deviation(gadget.u_eff))
    tol = max(1e-10, 10 * parts_dev)
    dev = unitarity_deviation(enlarged)
    if dev > tol:
        raise DimensionError(
            f"enlarged unitary deviates from unitarity by {dev:.2e} (tolerance {tol:.1e})"
        )
    return SimulationSetup(
        w=w,
        v=v,
        mode_x=int(mode_x),
        input_state=s,
        gadget=gadget,
        enlarged_unitary=enlarged,
        enlarged_input=concat_states(s, (1,) * k),
    )


def postselected_distribution(setup: SimulationSetup) -> tuple[Distribution, float]:
    """Distribution over the first m modes given one photon per ancilla mode.

    Returns (renormalized distribution, kept probability mass).  The heralded
    amplitude of output T (with 1..1 on the ancillas) is sum_j g_j A_j(T):
    the photon-number components A of W -> (mode x) -> V
    (:func:`~nlboson.nonlinear.photon_number_components`) weighted by the
    gadget's heralded factors g_j = per(U^{j,1..1}) / j! for j = 0..n
    (:func:`~nlboson.gadget.heralded_factors`).  That equals the enlarged
    unitary's amplitude for every k, below, at and above n, without
    materializing the enlarged system; the kept mass is the sum of the
    squared moduli.
    """
    space, components = photon_number_components(
        setup.w, setup.v, setup.mode_x, setup.input_state
    )
    return _heralded_distribution(space, components, setup.gadget.u_eff)


def _heralded_distribution(space: StateSpace, components: np.ndarray,
                           u_eff) -> tuple[Distribution, float]:
    """(renormalized distribution, kept mass) from photon-number components."""
    factors = heralded_factors(u_eff, components.shape[0] - 1)
    raw = np.abs(factors @ components) ** 2
    p_ps = float(raw.sum())
    if p_ps <= 0.0:
        raise PostselectionError(
            "the heralding pattern has zero probability for this setup"
        )
    return Distribution(space, raw / p_ps), p_ps


@dataclass(frozen=True, eq=False)
class AcceptanceStats:
    """Bookkeeping of the rejection loop."""

    accepted: int
    trials: int
    trial_counts: np.ndarray  # raw draws consumed per accepted sample

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials if self.trials else 0.0


def run_rejection_sampling(
    setup: SimulationSetup,
    n_samples: int,
    rng: np.random.Generator,
    *,
    trial_budget: int | None = None,
) -> tuple[list[FockState], AcceptanceStats]:
    """Sample the enlarged linear system, keeping heralded events only.

    Draws from the full enlarged output distribution by inversion, discards
    events without one photon per ancilla mode, and repeats until `n_samples`
    are accepted.  Deterministic for a given generator (draws happen in fixed
    chunks of 4096).  Aborts with SamplingBudgetError when the budget is
    exhausted, which at the default budget corresponds to acceptance rates
    around 1e-6 and below.
    """
    m, n, k = setup.m, setup.n, setup.k
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    enlarged_size = space_size(m + k, n + k)
    if enlarged_size > SAMPLING_SPACE_GUARD:
        raise StateSpaceTooLargeError(
            f"enlarged space for m+k={m + k}, n+k={n + k} has {enlarged_size} states "
            f"(guard {SAMPLING_SPACE_GUARD})"
        )
    if trial_budget is None:
        trial_budget = max(1_000_000, 100 * n_samples)
    space = enumerate_states(m + k, n + k)
    probs = _enlarged_output_probs(setup, space)
    anc_pattern = (1,) * k
    accept_mask = np.array([st[m:] == anc_pattern for st in space.states], dtype=bool)

    chunk = 4096
    accepted: list[FockState] = []
    counts: list[int] = []
    trials = 0
    since_last = 0
    while len(accepted) < n_samples and trials < trial_budget:
        idx = _inverse_sample(probs, chunk, rng)
        for i in idx:
            trials += 1
            since_last += 1
            if accept_mask[i]:
                accepted.append(space.states[i][:m])
                counts.append(since_last)
                since_last = 0
                if len(accepted) == n_samples:
                    break
            if trials >= trial_budget:
                break
    if len(accepted) < n_samples:
        raise SamplingBudgetError(len(accepted), trials, n_samples)
    stats = AcceptanceStats(
        accepted=len(accepted), trials=trials, trial_counts=np.array(counts, dtype=int)
    )
    return accepted, stats


def _enlarged_output_probs(setup: SimulationSetup, space) -> np.ndarray:
    rows = np.array(occupation_indices(setup.enlarged_input), dtype=np.intp)
    cols = np.array([occupation_indices(t) for t in space.states], dtype=np.intp)
    pers = gathered_permanents(setup.enlarged_unitary, rows, cols)
    norm_in = math.sqrt(normalization_product(setup.enlarged_input))
    norms_out = np.sqrt(
        np.array([normalization_product(t) for t in space.states], dtype=float)
    )
    return np.abs(pers / (norm_in * norms_out)) ** 2
