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

A :class:`SimulationSetup` is a checked :class:`~nlboson.nonlinear.NonlinearExperiment`
plus a gadget that may stand in for its gate: one within the gadget gate,
:data:`nlboson.gadget.MAX_GADGET_DEVIATION`, that realises the gate's phase.
A non-unitary W, V or gadget is refused before any sampling, and the enlarged
system is derived from the checked parts rather than stored beside them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PostselectionError, SamplingBudgetError
from .fock import FockState, StateSpace, concat_states, enumerate_states
from .gadget import GadgetSpec, _require_gadget_for, heralded_factors
from .linalg import _checked_count, direct_sum
from .linear import Distribution, _amplitudes_to_all, _guard_space
from .nonlinear import NonlinearExperiment, SingleModePhase

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
    """A non-linear experiment and the gadget standing in for its gate.

    Each field must have its declared type (TypeError).  The experiment
    checked its sandwich when it was built; the gadget is checked on
    construction, first against the gadget gate of
    :mod:`nlboson.gadget` (NotUnitaryError), then for realising the gate's
    phase exactly (ValueError).  The enlarged unitary and input are derived
    from the two fields, so they cannot disagree with them.

    Gadget port 1 attaches to the gate mode (1-based); ancilla ports attach to
    modes m+1..m+k in ascending order.
    """

    experiment: NonlinearExperiment
    gadget: GadgetSpec

    def __post_init__(self):
        for name, cls in (("experiment", NonlinearExperiment), ("gadget", GadgetSpec)):
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
        _require_gadget_for(self.gadget, self.experiment.gate.phi, "the gadget")

    @property
    def m(self) -> int:
        return self.experiment.m

    @property
    def n(self) -> int:
        return self.experiment.n

    @property
    def k(self) -> int:
        return self.gadget.k

    @property
    def enlarged_unitary(self) -> np.ndarray:
        """(W + id on ancillas), the embedded gadget, then (V + id)."""
        exp, m, k = self.experiment, self.m, self.k
        ports = [exp.gate.mode - 1] + list(range(m, m + k))
        embedded = np.eye(m + k, dtype=complex)
        embedded[np.ix_(ports, ports)] = self.gadget.u_eff
        eye_k = np.eye(k, dtype=complex)
        return direct_sum(exp.w, eye_k) @ embedded @ direct_sum(exp.v, eye_k)

    @property
    def enlarged_input(self) -> FockState:
        """The input state with one photon appended per ancilla mode."""
        return concat_states(self.experiment.input_state, (1,) * self.k)


def build_setup(w, v, mode_x: int, input_state, gadget: GadgetSpec) -> SimulationSetup:
    """The checked :class:`SimulationSetup` of one heralded simulation, its
    gate at mode `mode_x` with the gadget's phase.

    Raises DimensionError for mismatched shapes or a gate mode that is not an
    integer in 1..m, and NotUnitaryError for a non-unitary W or V or a gadget
    beyond :data:`nlboson.gadget.MAX_GADGET_DEVIATION`.
    """
    gate = SingleModePhase(mode_x, gadget.phi)
    return SimulationSetup(NonlinearExperiment(w, v, gate, input_state), gadget)


def postselected_distribution(setup: SimulationSetup) -> tuple[Distribution, float]:
    """Distribution over the first m modes given one photon per ancilla mode.

    Returns (renormalized distribution, kept probability mass); a kept mass
    below MIN_HERALDING_MASS counts as zero and raises PostselectionError.
    The heralded amplitude of output T (with 1..1 on the ancillas) is
    sum_j g_j A_j(T): the experiment's photon-number components A
    (:attr:`~nlboson.nonlinear.NonlinearExperiment.components`) weighted by the
    gadget's heralded factors g_j = per(U^{j,1..1}) / j! for j = 0..n
    (:func:`~nlboson.gadget.heralded_factors`).  That equals the enlarged
    unitary's amplitude for every k, below, at and above n, without
    materializing the enlarged system; the kept mass is the sum of the
    squared moduli.
    """
    space, components = setup.experiment.components
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
    around 1e-6 and below.  `n_samples` and `trial_budget` must be positive
    integers (ValueError).

    A uniform draw u in [0, 1) lands on enlarged state r when
    cdf[r-1] <= u < cdf[r], with the CDF normalised as in inverse sampling;
    only the heralded states' intervals matter.  A table of G + 1 buckets (G
    a power of two, at least 4x the space) marks every bucket from
    floor(lo*G) to floor(hi*G) of each heralded interval [lo, hi).  Scaling
    by a power of two is exact and flooring is monotone, so a draw whose
    bucket floor(u*G) is unmarked lies in no heralded interval and is
    rejected by that one lookup; the rest (a few percent at a 2% heralding
    rate) are searched among the sorted heralded interval bounds, where an
    odd count of bounds at or below u means u lies inside an interval.
    Every draw gets the state ``searchsorted(cdf, u, side="right")`` gives
    it, so samples and ``trial_counts`` are those of testing each draw of
    the full inverse sampler against the heralding.
    """
    m, n, k = setup.m, setup.n, setup.k
    n_samples = _checked_count(n_samples, "n_samples", 1)
    if trial_budget is None:
        trial_budget = max(1_000_000, 100 * n_samples)
    trial_budget = _checked_count(trial_budget, "trial_budget", 1)
    _guard_space(m + k, n + k, "enlarged space")
    space = enumerate_states(m + k, n + k)
    probs = _enlarged_output_probs(setup, space)
    classify = _heralded_classifier(probs, (space.occupations[:, m:] == 1).all(axis=1))

    chunk = 4096
    drawn: list[np.ndarray] = []  # enlarged-space ranks of the accepted draws
    hits: list[np.ndarray] = []  # their 1-based positions in the raw stream
    accepted = 0
    trials = 0
    while accepted < n_samples and trials < trial_budget:
        take = min(chunk, trial_budget - trials)
        pos, ranks = classify(rng.random(chunk))
        keep = min(int(np.searchsorted(pos, take)), n_samples - accepted)
        accepted += keep
        if accepted == n_samples:
            take = int(pos[keep - 1]) + 1  # the stream stops at the last sample
        drawn.append(ranks[:keep])
        hits.append(trials + 1 + pos[:keep])
        trials += take
    if accepted < n_samples:
        raise SamplingBudgetError(accepted, trials, n_samples)
    samples = list(map(tuple, space.occupations[np.concatenate(drawn), :m].tolist()))
    stats = AcceptanceStats(
        accepted=accepted, trials=trials,
        trial_counts=np.diff(np.concatenate(hits), prepend=0),
    )
    return samples, stats


def _heralded_classifier(probs: np.ndarray, accept_mask: np.ndarray):
    """``classify(u) -> (positions, ranks)``: the positions in `u` of the
    draws that inverse sampling of `probs` sends to a state in `accept_mask`,
    ascending, and those states' ranks (see :func:`run_rejection_sampling`).
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    acc = np.flatnonzero(accept_mask)
    bounds = np.empty(2 * len(acc))  # [lo_0, hi_0, lo_1, hi_1, ...], sorted
    bounds[0::2] = np.where(acc > 0, cdf[acc - 1], 0.0)
    bounds[1::2] = cdf[acc]
    grid = 1 << (4 * len(probs) - 1).bit_length()
    cells = (bounds * grid).astype(np.intp)
    edges = (np.bincount(cells[0::2], minlength=grid + 2)
             - np.bincount(cells[1::2] + 1, minlength=grid + 2))
    marked = np.cumsum(edges[:-1]) > 0

    def classify(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cand = np.flatnonzero(marked[(u * grid).astype(np.intp)])
        j = np.searchsorted(bounds, u[cand], side="right")
        inside = (j & 1).astype(bool)  # odd: past a lo, not yet past its hi
        return cand[inside], acc[j[inside] >> 1]

    return classify


def _enlarged_output_probs(setup: SimulationSetup, space) -> np.ndarray:
    amps = _amplitudes_to_all(setup.enlarged_unitary, setup.enlarged_input, space)
    return np.abs(amps) ** 2
