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
    as_state,
    enumerate_states,
    normalization_product,
    occupation_indices,
    parse_state,
    photon_count,
    space_size,
)
from .linalg import (
    _checked_count,
    gathered_permanents,
    matrix_from_states,
    permanent,
    require_unitary,
    unitarity_deviation,
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
    s = as_state(input_state)
    t = as_state(output_state)
    sub = matrix_from_states(u, s, t)
    norm = math.sqrt(normalization_product(s) * normalization_product(t))
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

    Reads the space's ``labels`` and ``norms``.  No unitarity re-check;
    callers validate once.
    """
    s = as_state(input_state)
    rows = np.array(occupation_indices(s), dtype=np.intp)
    pers = gathered_permanents(U, rows, space.labels)
    norm_in = math.sqrt(normalization_product(s))
    return pers / (norm_in * np.sqrt(space.norms))


def _unit_sum_distribution(space: StateSpace, amps, *unitaries) -> Distribution:
    """|amps|^2 over `space`, gated on summing to one as a unitary evolution must.

    The tolerance scales with the worst unitarity deviation of `unitaries`.
    """
    probs = np.abs(amps) ** 2
    total = probs.sum()
    dev = max(unitarity_deviation(u) for u in unitaries)
    tol = max(1e-9, 20 * space.m * dev)
    if abs(total - 1.0) > tol:
        raise ValueError(
            f"output distribution sums to {total!r}, expected 1 within {tol:.1e}"
        )
    return Distribution(space, probs)


def output_distribution(U, input_state) -> Distribution:
    """|amplitude|^2 over the full output space; sums to one for a unitary U."""
    u = require_unitary(U, context="output_distribution")
    s = as_state(input_state)
    if len(s) != u.shape[0]:
        raise DimensionError(f"state has {len(s)} modes, matrix has {u.shape[0]}")
    space = enumerate_states(len(s), photon_count(s))
    return _unit_sum_distribution(space, _amplitudes_to_all(u, s, space), u)


def _inverse_sample(probs: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
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
    w = require_unitary(W, context="verify_composition: first factor")
    v = require_unitary(V, context="verify_composition: second factor")
    if w.shape != v.shape:
        raise DimensionError(f"factor shapes differ: {w.shape} vs {v.shape}")
    s = as_state(input_state)
    t = as_state(output_state)
    n = photon_count(s)
    if photon_count(t) != n:
        raise DimensionError("input and output photon numbers differ")
    _guard_space(len(s), n, "verify_composition")
    space = enumerate_states(len(s), n)
    lhs = permanent(matrix_from_states(w @ v, s, t))
    rhs = 0j
    for r in space:
        rhs += (
            permanent(matrix_from_states(w, s, r))
            * permanent(matrix_from_states(v, r, t))
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
    m = len(states[0])
    n = photon_count(states[0])
    space = enumerate_states(m, n)
    if (len(states) != len(space) or any(len(s) != m for s in states)
            or not np.array_equal(states, space.occupations)):
        raise ValueError("distribution CSV rows are not the canonical state ordering")
    return Distribution(space, np.array(probs))
