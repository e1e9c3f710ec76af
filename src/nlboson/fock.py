"""Fock states and the space of n photons in m modes.

A Fock state is a plain tuple of non-negative occupation numbers, one per
optical mode.  ``StateSpace`` holds every such state for fixed photon number
and mode count as the rows of a read-only integer array, in descending
lexicographic order, which fixes a total, reproducible ordering for
distributions, CSV output and rank lookup.  :func:`enumerate_states` hands
out one shared space per (m, n) from a cache bounded in bytes.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from itertools import accumulate
from operator import getitem, index
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, StateSpaceTooLargeError

FockState = tuple[int, ...]

# Hard cap on materialized spaces; sampling, non-linear and simulation paths
# apply the tighter 10**6 guard of nlboson.linear._guard_space.
MAX_SPACE_SIZE = 5_000_000

# Bytes of spaces enumerate_states keeps for reuse, least recently used
# first out; each space is charged for its occupation array and for the
# index arrays and tuple view once built (see StateSpace._nbytes).
CACHE_MAX_BYTES = 64 * 2**20


def as_state(occupations: Iterable[int]) -> FockState:
    """Validate and normalize a sequence of occupations into a FockState."""
    state = tuple(map(int, occupations))
    if state and min(state) < 0:
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


def _occupation_dtype(n: int) -> type:
    """Smallest signed integer type holding occupations up to n."""
    for dtype in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _stack_blocks(m: int, n: int, below: Sequence[np.ndarray]) -> np.ndarray:
    """Occupations of space(m, n) from those of space(m-1, k), k = 0..n.

    Descending-lex order is the concatenation, over the first occupation
    f = n..0, of the rows [f, space(m-1, n-f)].
    """
    occ = np.empty((space_size(m, n), m), dtype=_occupation_dtype(n))
    start = 0
    for f in range(n, -1, -1):
        block = below[n - f]
        stop = start + len(block)
        occ[start:stop, 0] = f
        occ[start:stop, 1:] = block
        start = stop
    return _read_only(occ)


class StateSpace:
    """All Fock states of n photons in m modes, in a fixed total order.

    The ordering is descending lexicographic on the occupation tuple, so
    ``(2,0) < (1,1) < (0,2)`` by rank.  ``occupations`` holds the states as
    the rows of a read-only (size, m) integer array; ``states`` is the same
    list as a tuple of tuples of Python ints, built on first use.  Instances
    are immutable and safe to share between threads.
    """

    __slots__ = ("m", "n", "occupations", "_rank_rows", "_states", "_index")

    def __init__(self, m: int, n: int):
        size = space_size(m, n)
        if size > MAX_SPACE_SIZE:
            raise StateSpaceTooLargeError(
                f"state space for m={m}, n={n} has {size} elements "
                f"(cap {MAX_SPACE_SIZE})"
            )
        self._init(int(m), int(n), _build_occupations(int(m), int(n)))

    @classmethod
    def _of(cls, m: int, n: int, occupations: np.ndarray) -> "StateSpace":
        space = object.__new__(cls)
        space._init(m, n, occupations)
        return space

    def _init(self, m: int, n: int, occupations: np.ndarray) -> None:
        for name, value in (("m", m), ("n", n), ("occupations", occupations),
                            ("_rank_rows", None), ("_states", None), ("_index", None)):
            object.__setattr__(self, name, value)

    def _set_view(self, name: str, value) -> None:
        # a lazily built view is set once; the cache is charged for its bytes
        before = self._nbytes
        object.__setattr__(self, name, value)
        _charge_cache(self, self._nbytes - before)

    def __setattr__(self, name, value):
        raise AttributeError(f"StateSpace is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"StateSpace is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return enumerate_states, (self.m, self.n)

    @property
    def states(self) -> tuple[FockState, ...]:
        """Every state as a tuple of Python ints, in rank order."""
        states = self._states
        if states is None:
            states = tuple(map(tuple, self.occupations.tolist()))
            self._set_view("_states", states)
        return states

    @property
    def _nbytes(self) -> int:
        """Memory held by the occupation array and by the views built so far.

        The tuple view counts one tuple per state, one slot per state in the
        outer tuple, and an int object per occupation above 256 (smaller ones
        are shared by the interpreter).  The rank tables, m(n+1) entries, are
        not counted.
        """
        total = self.occupations.nbytes
        if self._index is not None:
            total += sum(a.nbytes for a in self._index)
        if self._states is not None:
            per_state = sys.getsizeof((0,) * self.m) + 8
            large = int(np.count_nonzero(self.occupations > 256))
            total += (sys.getsizeof(()) + len(self) * per_state
                      + large * sys.getsizeof(257))
        return total

    def __len__(self) -> int:
        return len(self.occupations)

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

    def _rank_offsets(self) -> list[list[int]]:
        # row c, entry R: space_size(c+2, R-1), the number of states of c+2
        # modes that hold more photons in their first mode than a state whose
        # other c+1 modes hold R photons (0 for R = 0)
        rows = self._rank_rows
        if rows is None:
            rows = [[0] + [math.comb(r + c, r - 1) for r in range(1, self.n + 1)]
                    for c in range(self.m - 1)]
            object.__setattr__(self, "_rank_rows", rows)
        return rows

    def rank(self, state: Sequence[int]) -> int:
        """Position of `state` in the canonical ordering.

        Counts the states before it: for each mode i < m-1, those that agree
        with it on modes 0..i-1 and hold more photons in mode i.  That count
        depends only on the m-i modes left and the photons in modes i+1..,
        so it is one table entry; O(m) per state.
        """
        key = as_state(state)
        if len(key) != self.m:
            raise DimensionError(
                f"state has {len(key)} modes, space expects {self.m}"
            )
        if sum(key) != self.n:
            raise DimensionError(
                f"state has {sum(key)} photons, space expects {self.n}"
            )
        # the photons in modes i+1.. for i = m-2..0 pick one entry of each
        # row; map stops at the last row, before the sum over all m modes
        rows = self._rank_rows or self._rank_offsets()
        return sum(map(getitem, rows, accumulate(reversed(key))))

    def ranks(self, occupations) -> np.ndarray:
        """Positions of many states at once, one per row of `occupations`.

        Checks every row as :meth:`rank` checks one state.
        """
        occ = np.asarray(occupations, dtype=np.int64)
        if occ.ndim == 1 and occ.size == 0:  # no states at all
            occ = occ.reshape(0, self.m)
        if occ.ndim != 2 or occ.shape[1] != self.m:
            raise DimensionError(
                f"states have shape {occ.shape}, space expects rows of {self.m} modes"
            )
        negative = np.flatnonzero((occ < 0).any(axis=1))
        if negative.size:
            raise ValueError(
                f"occupations must be non-negative, got {tuple(occ[negative[0]].tolist())}"
            )
        photons = occ.sum(axis=1)
        wrong = np.flatnonzero(photons != self.n)
        if wrong.size:
            raise DimensionError(
                f"state has {int(photons[wrong[0]])} photons, space expects {self.n}"
            )
        table = np.array(self._rank_offsets(), dtype=np.int64).reshape(self.m - 1, self.n + 1)
        suffix = np.cumsum(occ[:, :0:-1], axis=1)
        return table[np.arange(self.m - 1), suffix].sum(axis=1)

    def unrank(self, rank: int) -> FockState:
        """Inverse of :meth:`rank`."""
        return tuple(self.occupations[index(rank)].tolist())


# ---------------------------------------------------------------------------
# the shared spaces
# ---------------------------------------------------------------------------

_cache: OrderedDict[tuple[int, int], list] = OrderedDict()  # key -> [space, charged bytes]
_cache_nbytes = 0
_cache_lock = threading.Lock()


def _cache_get(m: int, n: int) -> StateSpace | None:
    with _cache_lock:
        entry = _cache.get((m, n))
        if entry is None:
            return None
        _cache.move_to_end((m, n))
        return entry[0]


def _cache_put(space: StateSpace) -> StateSpace:
    """Keep `space` unless it alone exceeds the bound; return the shared one."""
    global _cache_nbytes
    key = (space.m, space.n)
    with _cache_lock:
        entry = _cache.get(key)
        if entry is not None:
            return entry[0]
        nbytes = space._nbytes
        if nbytes <= CACHE_MAX_BYTES:
            _cache[key] = [space, nbytes]
            _cache_nbytes += nbytes
            _trim_cache()
    return space


def _charge_cache(space: StateSpace, nbytes: int) -> None:
    """Charge a cached `space` for a view it has just built."""
    global _cache_nbytes
    with _cache_lock:
        entry = _cache.get((space.m, space.n))
        if entry is None or entry[0] is not space:
            return
        entry[1] += nbytes
        _cache_nbytes += nbytes
        if entry[1] > CACHE_MAX_BYTES:
            del _cache[(space.m, space.n)]
            _cache_nbytes -= entry[1]
        _trim_cache()


def _trim_cache() -> None:
    global _cache_nbytes
    while _cache_nbytes > CACHE_MAX_BYTES:
        _, (_, nbytes) = _cache.popitem(last=False)
        _cache_nbytes -= nbytes


def _cached_level(j: int, n: int) -> list[np.ndarray] | None:
    """Occupations of space(j, k) for k = 0..n if all are cached, else None."""
    level = []
    for k in range(n + 1):
        space = _cache_get(j, k)
        if space is None:
            return None
        level.append(space.occupations)
    return level


def _build_occupations(m: int, n: int) -> np.ndarray:
    """Occupations of space(m, n), built blockwise from the spaces below.

    Starts at the highest level j < m whose spaces (j, k <= n) are all
    cached, or at one mode, and builds every level above it in turn, caching
    each new space; no level is built twice and nothing recurses.
    """
    if m == 1:
        return _read_only(np.full((1, 1), n, dtype=_occupation_dtype(n)))
    j = m - 1
    below = _cached_level(j, n)
    while below is None and j > 1:
        j -= 1
        below = _cached_level(j, n)
    if below is None:
        below = [_read_only(np.full((1, 1), k, dtype=_occupation_dtype(k)))
                 for k in range(n + 1)]
    for level in range(j + 1, m):
        spaces = [_cache_get(level, k) for k in range(n + 1)]
        below = [(space if space is not None
                  else _cache_put(StateSpace._of(level, k, _stack_blocks(level, k, below))))
                 .occupations for k, space in enumerate(spaces)]
    return _stack_blocks(m, n, below)


def enumerate_states(m: int, n: int) -> StateSpace:
    """The space of n photons in m modes, shared between calls.

    Spaces stay in a least-recently-used cache of at most CACHE_MAX_BYTES;
    a space larger than that is built on every call.
    """
    space = _cache_get(m, n)
    if space is None:
        space = _cache_put(StateSpace(m, n))
    return space


def _index_arrays(space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Every state's occupation indices and normalization product, as arrays.

    Returns ``(indices, norms)``: row i of the (len(space), n) integer array
    is ``occupation_indices(space.states[i])`` and ``norms[i]`` is
    ``float(normalization_product(space.states[i]))``, without a per-state
    Python call.  Built once per space; both arrays are read-only.
    """
    if space._index is None:
        m, n, size = space.m, space.n, len(space)
        occ = space.occupations
        # each row of `occ` sums to n, so repeating the mode labels by
        # occupation yields one row of n indices per state
        indices = np.repeat(np.tile(np.arange(m), size), occ.ravel()).reshape(size, n)
        # exact integer products (every product divides n!), rounded once to
        # float as float(normalization_product(state)) is
        dtype = np.int64 if n <= 20 else object
        factorials = np.array([math.factorial(j) for j in range(n + 1)], dtype=dtype)
        norms = factorials[occ].prod(axis=1).astype(float)
        space._set_view("_index", (_read_only(indices), _read_only(norms)))
    return space._index
