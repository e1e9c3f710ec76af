"""Fock states and the space of n photons in m modes.

A Fock state is a plain tuple of non-negative occupation numbers, one per
optical mode.  ``StateSpace`` materializes every such tuple for fixed photon
number and mode count in descending lexicographic order, which fixes a total,
reproducible ordering for distributions, CSV output and rank lookup.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, StateSpaceTooLargeError

FockState = tuple[int, ...]

# Hard cap on materialized spaces; sampling, non-linear and simulation paths
# apply the tighter 10**6 guard of nlboson.linear._guard_space.
MAX_SPACE_SIZE = 5_000_000


def as_state(occupations: Iterable[int]) -> FockState:
    """Validate and normalize a sequence of occupations into a FockState."""
    state = tuple(int(c) for c in occupations)
    if any(c < 0 for c in state):
        raise ValueError(f"occupations must be non-negative, got {state}")
    return state


def mode_count(state: Sequence[int]) -> int:
    return len(state)


def photon_count(state: Sequence[int]) -> int:
    return int(sum(state))


def normalization_product(state: Sequence[int]) -> int:
    """Product of factorials of the occupations, the ∏ s_i! weight."""
    out = 1
    for c in state:
        out *= math.factorial(int(c))
    return out


def concat_states(a: Sequence[int], b: Sequence[int]) -> FockState:
    """Occupations of `a` followed by `b`; photon numbers add."""
    return as_state(a) + as_state(b)


def occupation_indices(state: Sequence[int]) -> list[int]:
    """Flatten occupations into one mode index per photon.

    (1, 0, 2) -> [0, 2, 2].  Used to select (repeated) rows and columns of a
    mode unitary.
    """
    idx: list[int] = []
    for mode, count in enumerate(state):
        idx.extend([mode] * int(count))
    return idx


def format_state(state: Sequence[int]) -> str:
    """Text form used by CLI flags and CSV columns, e.g. ``"1,1,0"``."""
    return ",".join(str(int(c)) for c in state)


def parse_state(text: str) -> FockState:
    """Inverse of :func:`format_state`."""
    parts = text.split(",")
    try:
        return as_state(int(p.strip()) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse Fock state from {text!r}: {exc}") from None


def space_size(m: int, n: int) -> int:
    """Number of ways to place n photons in m modes: C(n+m-1, n)."""
    if m < 1:
        raise DimensionError(f"mode count must be >= 1, got {m}")
    if n < 0:
        raise DimensionError(f"photon count must be >= 0, got {n}")
    return math.comb(n + m - 1, n)


def _compositions_desc(m: int, n: int) -> Iterator[FockState]:
    """Weak compositions of n into m parts, descending lexicographic."""
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions_desc(m - 1, n - first):
            yield (first,) + rest


class StateSpace:
    """All Fock states of n photons in m modes, in a fixed total order.

    The ordering is descending lexicographic on the occupation tuple, so
    ``(2,0) < (1,1) < (0,2)`` by rank.  Instances are immutable after
    construction and safe to share between threads.
    """

    __slots__ = ("m", "n", "states", "_rank")

    def __init__(self, m: int, n: int):
        size = space_size(m, n)
        if size > MAX_SPACE_SIZE:
            raise StateSpaceTooLargeError(
                f"state space for m={m}, n={n} has {size} elements "
                f"(cap {MAX_SPACE_SIZE})"
            )
        self.m = int(m)
        self.n = int(n)
        self.states: tuple[FockState, ...] = tuple(_compositions_desc(self.m, self.n))
        self._rank: dict[FockState, int] = {s: i for i, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[FockState]:
        return iter(self.states)

    def __getitem__(self, rank: int) -> FockState:
        return self.states[rank]

    def __eq__(self, other) -> bool:
        return isinstance(other, StateSpace) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self) -> int:
        return hash((self.m, self.n))

    def __repr__(self) -> str:
        return f"StateSpace(m={self.m}, n={self.n}, size={len(self)})"

    def rank(self, state: Sequence[int]) -> int:
        """Position of `state` in the canonical ordering."""
        key = as_state(state)
        if len(key) != self.m:
            raise DimensionError(
                f"state has {len(key)} modes, space expects {self.m}"
            )
        if sum(key) != self.n:
            raise DimensionError(
                f"state has {sum(key)} photons, space expects {self.n}"
            )
        return self._rank[key]

    def unrank(self, rank: int) -> FockState:
        """Inverse of :meth:`rank`."""
        return self.states[rank]


def enumerate_states(m: int, n: int) -> StateSpace:
    """Materialize the space of n photons in m modes."""
    return StateSpace(m, n)


def _index_arrays(space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Every state's occupation indices and normalization product, as arrays.

    Returns ``(indices, norms)``: row i of the (len(space), n) integer array
    is ``occupation_indices(space.states[i])`` and ``norms[i]`` is
    ``float(normalization_product(space.states[i]))``, without a per-state
    Python call.
    """
    m, n, size = space.m, space.n, len(space)
    occ = np.array(space.states, dtype=np.intp).reshape(size, m)
    # each row of `occ` sums to n, so repeating the mode labels by occupation
    # yields one row of n indices per state
    indices = np.repeat(np.tile(np.arange(m), size), occ.ravel()).reshape(size, n)
    # exact integer products (every product divides n!), rounded once to float
    # as float(normalization_product(state)) is
    dtype = np.int64 if n <= 20 else object
    factorials = np.array([math.factorial(j) for j in range(n + 1)], dtype=dtype)
    norms = factorials[occ].prod(axis=1).astype(float)
    return indices, norms
