"""Fock states and the space of n photons in m modes.

A Fock state is a plain tuple of non-negative occupation numbers, one per
optical mode.  ``StateSpace`` holds every such state for fixed photon number
and mode count as four read-only arrays (occupations, mode labels, factorial
norms and predecessor ranks, one row per state), in descending lexicographic
order, which fixes a total, reproducible ordering for distributions, CSV
output and rank lookup.  :func:`enumerate_states` hands out one shared space
per (m, n) from a cache bounded in bytes.
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

# Bytes of arrays one space may hold, predicted before it is built (see
# _space_nbytes); the same figure as linalg.MAX_PERMANENTS_BYTES.  The
# build's temporaries add about half as much again at their peak.
MAX_SPACE_BYTES = 1 << 30

# Bytes of spaces enumerate_states keeps for reuse, least recently used
# first out; each space is charged _space_nbytes, all that it holds.
CACHE_MAX_BYTES = 64 * 2**20

# Rows converted to Python values at a time (iterating a space, writing a CSV)
_ROW_CHUNK = 1 << 16


def as_state(occupations: Iterable[int]) -> FockState:
    """`occupations` as a tuple of Python ints, by the one occupation rule: each
    a non-negative integer of any int type (numpy's too), never a bool, a
    float or a string, which are refused rather than cast."""
    raw = tuple(occupations)
    try:
        if bool in map(type, raw):
            raise TypeError
        state = tuple(map(index, raw))
    except TypeError:
        raise ValueError(f"occupations must be integers, got {occupations!r}") from None
    if state and min(state) < 0:
        raise ValueError(f"occupations must be non-negative, got {state}")
    return state


def _checked_state(state, m: int | None, n: int | None, name: str) -> FockState:
    """:func:`as_state` of `state`, which must hold m modes and n photons (a
    None is not checked), else DimensionError naming it `name`."""
    s = as_state(state)
    if m is not None and len(s) != m:
        raise DimensionError(f"{name} has {len(s)} modes, expected {m}")
    if n is not None and sum(s) != n:
        raise DimensionError(f"{name} has {sum(s)} photons, expected {n}")
    return s


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
    """Inverse of :func:`format_state`: each comma-separated field is ASCII
    digits, with spaces around it allowed, so no sign, underscore or other
    script's digit reads as a count."""
    fields = text.split(",")
    if not (text.isascii() and all(field.strip().isdigit() for field in fields)):
        bad = next(f for f in fields if not (f.isascii() and f.strip().isdigit()))
        raise ValueError(f"cannot parse Fock state from {text!r}: "
                         f"field {bad!r} is not a count in ASCII digits")
    return tuple(map(int, fields))


def _is_integer(value) -> bool:
    """The one integer rule of modes, counts and dimensions: any integer type
    passes (numpy's too); a bool, a float or a string does not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_dimension(value, name: str, minimum: int) -> int:
    """A mode count, photon number or ancilla count as an int, or DimensionError
    naming it `name`, worded as `linalg._checked_count` words a count."""
    if not _is_integer(value):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DimensionError(f"{name} must be at least {minimum}, got {name}={value}")
    return int(value)


def space_size(m: int, n: int) -> int:
    """Number of ways to place n photons in m modes: C(n+m-1, n)."""
    m, n = _checked_dimension(m, "m", 1), _checked_dimension(n, "n", 0)
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


def _space_nbytes(m: int, n: int) -> int:
    """Bytes of the arrays a space of n photons in m modes holds.

    Per state: m occupations, n intp labels, one float norm and n int32
    predecessor ranks.
    """
    itemsize = np.dtype(_occupation_dtype(n)).itemsize
    return space_size(m, n) * (m * itemsize + (np.dtype(np.intp).itemsize + 4) * n + 8)


def _build(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Labels, occupations, normalization products and predecessors of space(m, n).

    Row i of the (size, n) `labels` array is the occupation indices of state
    i, its photons' modes in ascending order; descending-lex order on the
    occupations is ascending-lex order on these rows.  The rows whose first
    label is f are f followed by the rows of one photon fewer whose labels
    are all >= f, so the array grows one photon at a time.  Every array is
    read-only.
    """
    modes = np.arange(m)
    labels = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        # the rows of one photon fewer whose first label is >= f start at start[f]
        start = (np.searchsorted(labels[:, 0], modes) if k > 1
                 else np.zeros(m, dtype=np.intp))
        counts = len(labels) - start
        shift = np.repeat(start - (np.cumsum(counts) - counts), counts)
        grown = np.empty((len(shift), k), dtype=np.intp)
        grown[:, 0] = np.repeat(modes, counts)
        grown[:, 1:] = labels[np.arange(len(shift)) + shift]
        labels = grown
    size = len(labels)
    rows = np.arange(size)
    occupations = np.zeros((size, m), dtype=_occupation_dtype(n))
    for column in labels.T:  # one photon per row and column: no repeated index
        occupations[rows, column] += 1
    # prod s_i! is the product of the running run lengths along each sorted
    # row; exact integers (every product divides n!), rounded once to float
    # as float(normalization_product(state)) is
    dtype = np.int64 if n <= 20 else object
    norms = np.ones(size, dtype=dtype)
    run = np.ones(size, dtype=dtype)
    for c in range(1, n):
        run = np.where(labels[:, c] == labels[:, c - 1], run + 1, 1)
        norms *= run
    if dtype is object:  # a product too large for a float (n > 170) reads as inf
        norms[norms > sys.float_info.max] = math.inf
    return (_read_only(labels), _read_only(occupations), _read_only(norms.astype(float)),
            _read_only(_predecessors(m, labels)))


def _predecessors(m: int, labels: np.ndarray) -> np.ndarray:
    """(size, n) int32: entry [i, p] is the rank in space(m, n-1) of state i
    with one photon taken from mode ``labels[i, p]``.

    :meth:`StateSpace.rank` sums, for each mode q >= 1, an offset fixed by
    the photons in modes q..; taking a photon from mode t lowers that count
    by one for every q <= t.  Between the sorted labels l_{p-1} < q <= l_p
    the count is n - p, and the offsets lost over that run telescope to
    G(n-p, l_{p-1}) - G(n-p, l_p), where G(r, q) = C(r+m-2-q, r) counts the
    states of r photons in modes q+1..m-1.  So one running sum over the
    photons in label order gives every predecessor, with no work per mode.
    """
    size, n = labels.shape
    # every G and every rank is at most the size of the space, below
    # MAX_SPACE_SIZE, so int32 holds them; column-major, so that each
    # photon's column is one contiguous run for the recursion to read
    out = np.empty((size, n), dtype=np.int32, order="F")
    rank = np.arange(size, dtype=np.int32)
    previous = np.zeros(size, dtype=np.intp)  # l_{-1} = 0
    for p in range(n):
        r = n - p
        g = np.array([math.comb(r + m - 2 - q, r) for q in range(m)], dtype=np.int32)
        label = labels[:, p]
        rank -= g[previous]
        rank += g[label]
        out[:, p] = rank
        previous = label
    return out


class StateSpace:
    """All Fock states of n photons in m modes, in a fixed total order.

    The ordering is descending lexicographic on the occupation tuple, so
    ``(2,0) < (1,1) < (0,2)`` by rank.  A space is four read-only arrays,
    built together photon by photon: ``occupations`` holds the states as the
    rows of a (size, m) integer array; row i of the (size, n) ``labels``
    array is ``occupation_indices`` of state i; ``norms[i]`` is
    ``float(normalization_product(state i))``; ``predecessors[i, p]`` is the
    rank in the space of n-1 photons of state i less one photon of mode
    ``labels[i, p]`` (int32).  Iterating or indexing the space converts rows
    to tuples of Python ints on demand, and ``states`` is the space itself.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("m", "n", "occupations", "labels", "norms", "predecessors", "_rank_rows")

    def __init__(self, m: int, n: int):
        size = space_size(m, n)
        m, n = index(m), index(n)
        if size > MAX_SPACE_SIZE:
            raise StateSpaceTooLargeError(
                f"state space for m={m}, n={n} has {size} elements "
                f"(cap {MAX_SPACE_SIZE})"
            )
        nbytes = _space_nbytes(m, n)
        if nbytes > MAX_SPACE_BYTES:
            raise StateSpaceTooLargeError(
                f"state space for m={m}, n={n} would hold {nbytes / 2**30:.1f} GiB "
                f"of arrays (cap {MAX_SPACE_BYTES / 2**30:g} GiB)"
            )
        labels, occupations, norms, predecessors = _build(m, n)
        for name, value in (("m", m), ("n", n), ("occupations", occupations),
                            ("labels", labels), ("norms", norms),
                            ("predecessors", predecessors), ("_rank_rows", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"StateSpace is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"StateSpace is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return enumerate_states, (self.m, self.n)

    @property
    def states(self) -> StateSpace:
        """The space itself, as a sequence of tuples of Python ints in rank order."""
        return self

    def __len__(self) -> int:
        return len(self.occupations)

    def __iter__(self) -> Iterator[FockState]:
        for start in range(0, len(self.occupations), _ROW_CHUNK):
            yield from map(tuple, self.occupations[start:start + _ROW_CHUNK].tolist())

    def __getitem__(self, key):
        """The state of rank `key`, or a tuple of the states in a slice."""
        if isinstance(key, slice):
            return tuple(map(tuple, self.occupations[key].tolist()))
        return self.unrank(key)

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
        key = _checked_state(state, self.m, self.n, "state")
        # the photons in modes i+1.. for i = m-2..0 pick one entry of each
        # row; map stops at the last row, before the sum over all m modes
        rows = self._rank_rows or self._rank_offsets()
        return sum(map(getitem, rows, accumulate(reversed(key))))

    def unrank(self, rank: int) -> FockState:
        """Inverse of :meth:`rank`."""
        return tuple(self.occupations[index(rank)].tolist())


# ---------------------------------------------------------------------------
# the shared spaces
# ---------------------------------------------------------------------------

_cache: OrderedDict[tuple[int, int], tuple] = OrderedDict()  # key -> (space, charged bytes)
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
        nbytes = _space_nbytes(space.m, space.n)
        if nbytes <= CACHE_MAX_BYTES:
            _cache[key] = (space, nbytes)
            _cache_nbytes += nbytes
            _trim_cache()
    return space


def _trim_cache() -> None:
    global _cache_nbytes
    while _cache_nbytes > CACHE_MAX_BYTES:
        _, (_, nbytes) = _cache.popitem(last=False)
        _cache_nbytes -= nbytes


def enumerate_states(m: int, n: int) -> StateSpace:
    """The space of n photons in m modes, shared between calls.

    Spaces stay in a least-recently-used cache of at most CACHE_MAX_BYTES;
    a space larger than that is built on every call.
    """
    space_size(m, n)  # checks m and n before the cache sees them
    space = _cache_get(m, n)
    if space is None:
        space = _cache_put(StateSpace(m, n))
    return space

