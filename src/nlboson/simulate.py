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

A :class:`SimulationSetup` checks itself when it is built: the sandwich as
every entry of :mod:`nlboson.nonlinear` does, and the gadget against the one
gadget gate, :data:`nlboson.gadget.MAX_GADGET_DEVIATION`.  A non-unitary W, V
or gadget is refused before any sampling, and the enlarged system is derived
from the checked parts rather than stored beside them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PostselectionError, SamplingBudgetError
from .fock import (
    FockState,
    StateSpace,
    concat_states,
    enumerate_states,
    photon_count,
)
from .gadget import GadgetSpec, _require_usable_gadget, heralded_factors
from .linalg import direct_sum
from .linear import Distribution, _amplitudes_to_all, _guard_space, _inverse_sample
from .nonlinear import _checked_sandwich, _components

__all__ = [
    "SimulationSetup",
    "AcceptanceStats",
    "build_setup",
    "postselected_distribution",
    "run_rejection_sampling",
]

# A kept mass below this is roundoff, not probability: an impossible heralding
# pattern leaves ~1e-33, and rejection sampling cannot use anything near it.
MIN_HERALDING_MASS = 1e-20


@dataclass(frozen=True, eq=False)
class SimulationSetup:
    """The enlarged linear system standing in for one non-linear experiment.

    Checked on construction: the W -> (mode x) -> V sandwich as every entry of
    :mod:`nlboson.nonlinear` checks it, and the gadget gate of
    :mod:`nlboson.gadget`.  The enlarged unitary and input are derived from
    the five fields, so they cannot disagree with them.

    Gadget port 1 attaches to mode `mode_x` (1-based); ancilla ports attach to
    modes m+1..m+k in ascending order.
    """

    w: np.ndarray
    v: np.ndarray
    mode_x: int
    input_state: FockState
    gadget: GadgetSpec

    def __post_init__(self):
        w, v, x, s = _checked_sandwich(self.w, self.v, self.mode_x, self.input_state)
        _require_usable_gadget(self.gadget.u_eff, f"gadget k={self.gadget.k}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "mode_x", x)
        object.__setattr__(self, "input_state", s)

    @property
    def m(self) -> int:
        return len(self.input_state)

    @property
    def n(self) -> int:
        return photon_count(self.input_state)

    @property
    def k(self) -> int:
        return self.gadget.k

    @property
    def enlarged_unitary(self) -> np.ndarray:
        """(W + id on ancillas), the embedded gadget, then (V + id)."""
        m, k = self.m, self.k
        ports = [self.mode_x - 1] + list(range(m, m + k))
        embedded = np.eye(m + k, dtype=complex)
        embedded[np.ix_(ports, ports)] = self.gadget.u_eff
        eye_k = np.eye(k, dtype=complex)
        return direct_sum(self.w, eye_k) @ embedded @ direct_sum(self.v, eye_k)

    @property
    def enlarged_input(self) -> FockState:
        """The input state with one photon appended per ancilla mode."""
        return concat_states(self.input_state, (1,) * self.k)


def build_setup(w, v, mode_x: int, input_state, gadget: GadgetSpec) -> SimulationSetup:
    """The checked :class:`SimulationSetup` of one heralded simulation.

    Raises DimensionError for mismatched shapes or a gate mode that is not an
    integer in 1..m, and NotUnitaryError for a non-unitary W or V or a gadget
    beyond :data:`nlboson.gadget.MAX_GADGET_DEVIATION`.
    """
    return SimulationSetup(w, v, mode_x, input_state, gadget)


def postselected_distribution(setup: SimulationSetup) -> tuple[Distribution, float]:
    """Distribution over the first m modes given one photon per ancilla mode.

    Returns (renormalized distribution, kept probability mass); a kept mass
    below MIN_HERALDING_MASS counts as zero and raises PostselectionError.
    The heralded amplitude of output T (with 1..1 on the ancillas) is
    sum_j g_j A_j(T): the photon-number components A of W -> (mode x) -> V
    (:func:`~nlboson.nonlinear.photon_number_components`) weighted by the
    gadget's heralded factors g_j = per(U^{j,1..1}) / j! for j = 0..n
    (:func:`~nlboson.gadget.heralded_factors`).  That equals the enlarged
    unitary's amplitude for every k, below, at and above n, without
    materializing the enlarged system; the kept mass is the sum of the
    squared moduli.
    """
    space, components = _components(setup.w, setup.v, setup.mode_x, setup.input_state)
    return _heralded_distribution(space, components, setup.gadget.u_eff)


def _heralded_distribution(space: StateSpace, components: np.ndarray,
                           u_eff) -> tuple[Distribution, float]:
    """(renormalized distribution, kept mass) from photon-number components."""
    factors = heralded_factors(u_eff, components.shape[0] - 1)
    raw = np.abs(factors @ components) ** 2
    p_ps = float(raw.sum())
    if p_ps < MIN_HERALDING_MASS:
        raise PostselectionError(
            f"the heralding pattern has zero probability for this setup "
            f"(kept mass {p_ps:.3g} < {MIN_HERALDING_MASS:g})"
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
    _guard_space(m + k, n + k, "enlarged space")
    if trial_budget is None:
        trial_budget = max(1_000_000, 100 * n_samples)
    space = enumerate_states(m + k, n + k)
    probs = _enlarged_output_probs(setup, space)
    accept_mask = (space.occupations[:, m:] == 1).all(axis=1)

    chunk = 4096
    drawn: list[np.ndarray] = []  # enlarged-space ranks of the accepted draws
    hits: list[np.ndarray] = []  # their 1-based positions in the raw stream
    accepted = 0
    trials = 0
    while accepted < n_samples and trials < trial_budget:
        idx = _inverse_sample(probs, chunk, rng)
        take = int(min(chunk, trial_budget - trials))
        pos = np.flatnonzero(accept_mask[idx[:take]])[:n_samples - accepted]
        accepted += len(pos)
        if accepted == n_samples:
            take = int(pos[-1]) + 1  # the stream stops at the last sample
        drawn.append(idx[pos])
        hits.append(trials + 1 + pos)
        trials += take
    if accepted < n_samples:
        raise SamplingBudgetError(accepted, trials, n_samples)
    samples = list(map(tuple, space.occupations[np.concatenate(drawn), :m].tolist()))
    stats = AcceptanceStats(
        accepted=accepted, trials=trials,
        trial_counts=np.diff(np.concatenate(hits), prepend=0),
    )
    return samples, stats


def _enlarged_output_probs(setup: SimulationSetup, space) -> np.ndarray:
    amps = _amplitudes_to_all(setup.enlarged_unitary, setup.enlarged_input, space)
    return np.abs(amps) ** 2
