"""Linear photonic sampling: amplitudes, full output distributions, exact
sampling by inversion, and the permanent composition identity.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, StateSpaceTooLargeError
from .fock import (
    _ROW_CHUNK,
    FockState,
    StateSpace,
    _checked_state,
    as_state,
    enumerate_states,
    normalization_product,
    occupation_indices,
    parse_state,
    photon_count,
    space_size,
)
from .linalg import (
    _UNITARITY_TOL,
    _checked_count,
    _checked_matrix,
    _checked_pair,
    _unitarity_gate,
    gathered_permanents,
    matrix_from_states,
    permanent,
    require_unitary,
)

__all__ = [
    "Distribution",
    "amplitude",
    "output_distribution",
    "sample_exact",
    "verify_composition",
    "write_distribution_csv",
    "read_distribution_csv",
]

SAMPLING_SPACE_GUARD = 1_000_000


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over the states of one StateSpace, in its canonical order."""

    space: StateSpace
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.space),):
            raise DimensionError(
                f"expected {len(self.space)} probabilities, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities contain non-finite values")
        if p.size and p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def prob_of(self, state: Sequence[int]) -> float:
        return float(self.probs[self.space.rank(state)])

    def as_dict(self) -> dict[FockState, float]:
        return dict(zip(map(tuple, self.space.occupations.tolist()), self.probs.tolist()))

    def total(self) -> float:
        return float(self.probs.sum())


def amplitude(U, input_state, output_state) -> complex:
    """Transition amplitude through the mode unitary U.

    per(U_{S,T}) / sqrt(prod s_i! * prod t_j!), with rows of U selected by the
    input occupations and columns by the output occupations.
    """
    u = require_unitary(U, context="amplitude")
    sub = matrix_from_states(u, input_state, output_state)  # checks both states
    norm = math.sqrt(normalization_product(input_state) * normalization_product(output_state))
    return permanent(sub) / norm


def _guard_space(m: int, n: int, what: str) -> None:
    """Refuse to materialize more than SAMPLING_SPACE_GUARD states for `what`."""
    size = space_size(m, n)
    if size > SAMPLING_SPACE_GUARD:
        raise StateSpaceTooLargeError(
            f"{what}: n={n} photons in m={m} modes span {size} states "
            f"(guard {SAMPLING_SPACE_GUARD}); reduce m or n"
        )


def _amplitudes_to_all(U, input_state, space: StateSpace) -> np.ndarray:
    """Amplitudes from one input to every state of `space`, batched.

    Reads the space's ``labels`` and ``norms``.  No unitarity or state
    re-check; callers validate once.
    """
    rows = np.array(occupation_indices(input_state), dtype=np.intp)
    pers = gathered_permanents(U, rows, space.labels)
    norm_in = math.sqrt(normalization_product(input_state))
    return pers / (norm_in * np.sqrt(space.norms))


def _unit_sum_distribution(space: StateSpace, amps, dev: float) -> Distribution:
    """|amps|^2 over `space`, gated by :func:`_require_unit_sum` on summing to
    one as a unitary evolution must; `dev` is the worst unitarity deviation of
    the evolution's networks."""
    probs = np.abs(amps) ** 2
    _require_unit_sum(probs.sum(), space.m, dev)
    return Distribution(space, probs)


def _require_unit_sum(total, m: int, dev: float) -> None:
    """ValueError unless `total`, the probability of every outcome over `m`
    modes, is one within a tolerance that scales with `dev`."""
    tol = max(1e-9, 20 * m * dev)
    if abs(total - 1.0) > tol:
        raise ValueError(
            f"output distribution sums to {total!r}, expected 1 within {tol:.1e}"
        )


def output_distribution(U, input_state) -> Distribution:
    """|amplitude|^2 over the full output space; sums to one for a unitary U."""
    u = _checked_matrix(U, "U")
    dev = _unitarity_gate(u, _UNITARITY_TOL, "output_distribution")
    s = _checked_state(input_state, u.shape[0], None, "input state")
    space = enumerate_states(len(s), photon_count(s))
    return _unit_sum_distribution(space, _amplitudes_to_all(u, s, space), dev)


def _normalised_cdf(probs: np.ndarray) -> np.ndarray:
    """Running sums of `probs` divided by their total, so the last is 1.0.

    Inversion sampling and the rejection sampler's classifier both read this
    one array, so a draw goes to the same state in either."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def _inverse_sample(probs: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    cdf = _normalised_cdf(probs)
    draws = rng.random(count)
    idx = np.searchsorted(cdf, draws, side="right")
    return np.minimum(idx, len(probs) - 1)


def sample_exact(U, input_state, count: int, rng: np.random.Generator) -> list[FockState]:
    """i.i.d. draws from the exact output distribution (inversion sampling).

    `count` must be a non-negative integer (ValueError); 0 gives no draws.
    """
    count = _checked_count(count, "count", 0)
    s = as_state(input_state)
    _guard_space(len(s), photon_count(s), "sample_exact")
    dist = output_distribution(U, s)
    idx = _inverse_sample(dist.probs, count, rng)
    return list(map(tuple, dist.space.occupations[idx].tolist()))


def verify_composition(W, V, input_state, output_state) -> float:
    """Residual of the permanent composition identity for 'W then V'.

    |per((W@V)_{S,T}) - sum_R per(W_{S,R}) per(V_{R,T}) / prod r_i!|, which is
    zero (to rounding) under the package's composition convention.
    """
    w, v = _checked_pair(W, V)
    _unitarity_gate(w, _UNITARITY_TOL, "verify_composition: first factor")
    _unitarity_gate(v, _UNITARITY_TOL, "verify_composition: second factor")
    s = as_state(input_state)
    _guard_space(len(w), photon_count(s), "verify_composition")
    # checks the input's modes and the output against it, before any space
    lhs = permanent(matrix_from_states(w @ v, s, output_state))
    rhs = 0j
    for r in enumerate_states(len(w), photon_count(s)):
        rhs += (
            permanent(matrix_from_states(w, s, r))
            * permanent(matrix_from_states(v, r, output_state))
            / normalization_product(r)
        )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# CSV wire format: state (comma-separated occupations, quoted), probability
# printed with 17 significant digits for lossless round-trips
# ---------------------------------------------------------------------------

def write_distribution_csv(dist: Distribution, path) -> None:
    occ, probs = dist.space.occupations, dist.probs
    with open(path, "w", newline="") as fh:
        fh.write("state,probability\n")
        for start in range(0, len(probs), _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            fh.writelines(f'"{",".join(map(str, state))}",{p:.17g}\n'
                          for state, p in zip(occ[rows].tolist(), probs[rows].tolist()))


def read_distribution_csv(path) -> Distribution:
    states: list[FockState] = []
    probs: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty distribution CSV: no header")
        if header[:2] != ["state", "probability"]:
            raise ValueError(f"unexpected distribution CSV header: {header}")
        for row in reader:
            if len(row) < 2:
                raise ValueError(f"distribution CSV row {row} has no probability")
            states.append(parse_state(row[0]))
            probs.append(float(row[1]))
    if not states:
        raise ValueError("empty distribution CSV")
    space = enumerate_states(len(states[0]), photon_count(states[0]))
    if not np.array_equal(states, space.occupations):  # False for ragged or missing rows
        raise ValueError("distribution CSV rows are not the canonical state ordering")
    return Distribution(space, np.array(probs))
