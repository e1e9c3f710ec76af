import math
import pickle
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from nlboson import fock

from nlboson import (
    DimensionError,
    StateSpaceTooLargeError,
    as_state,
    concat_states,
    enumerate_states,
    format_state,
    normalization_product,
    parse_state,
    photon_count,
    space_size,
)
from nlboson.fock import StateSpace, _index_arrays, occupation_indices

from .oracles import compositions_desc, count_occupations

ORACLE_SPACES = [(m, n) for m in range(1, 11) for n in range(7)] + [(16, 4), (27, 3)]
# many modes, few photons: the direct build does no work per mode
LARGE_M_SPACES = [(200, 2), (1000, 1)]


@pytest.fixture
def empty_cache(monkeypatch):
    """A fresh, empty space cache for one test; the shared one comes back after."""
    monkeypatch.setattr(fock, "_cache", OrderedDict())
    monkeypatch.setattr(fock, "_cache_nbytes", 0)


def test_enumerate_two_modes_two_photons():
    space = enumerate_states(2, 2)
    assert list(space) == [(2, 0), (1, 1), (0, 2)]
    assert len(space) == 3


def test_enumerate_vacuum():
    space = enumerate_states(3, 0)
    assert list(space) == [(0, 0, 0)]


def test_enumerate_size_against_counting_oracle():
    space = enumerate_states(9, 3)
    assert len(space) == 165
    assert len(space) == count_occupations(9, 3)


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("n", range(0, 7))
def test_space_sizes_are_binomial(m, n):
    space = enumerate_states(m, n)
    assert len(space) == math.comb(n + m - 1, n)
    assert len(set(space.states)) == len(space)
    assert all(sum(s) == n and len(s) == m for s in space)


def test_ordering_is_descending_lexicographic():
    space = enumerate_states(4, 3)
    assert list(space.states) == sorted(space.states, reverse=True)
    assert space.states[0] == (3, 0, 0, 0)
    assert space.states[-1] == (0, 0, 0, 3)


def test_rank_examples():
    space = enumerate_states(2, 2)
    assert space.rank((2, 0)) == 0
    assert space.rank((0, 2)) == 2
    assert space.unrank(1) == (1, 1)


def test_rank_unrank_round_trip():
    space = enumerate_states(4, 3)
    for r, state in enumerate(space):
        assert space.rank(state) == r
        assert space.unrank(space.rank(state)) == state


def test_rank_rejects_mismatched_states():
    space = enumerate_states(3, 2)
    with pytest.raises(DimensionError):
        space.rank((1, 1))  # wrong mode count
    with pytest.raises(DimensionError):
        space.rank((1, 1, 1))  # wrong photon count


def test_zero_modes_rejected():
    with pytest.raises(DimensionError):
        enumerate_states(0, 2)
    with pytest.raises(DimensionError):
        space_size(0, 1)


def test_space_guard():
    with pytest.raises(StateSpaceTooLargeError):
        enumerate_states(100, 10)  # ~4.3e13 states


def test_normalization_product():
    assert normalization_product((1, 1, 1, 0)) == 1
    assert normalization_product((2, 0)) == 2
    assert normalization_product((3, 2, 0, 1)) == 12


def test_concat_states():
    assert concat_states((1, 1, 0), (1, 1)) == (1, 1, 0, 1, 1)
    assert concat_states((1, 0, 2), ()) == (1, 0, 2)
    joined = concat_states((0, 0), (2, 1))
    assert joined == (0, 0, 2, 1)
    assert photon_count(joined) == 3


def test_as_state_rejects_negative():
    with pytest.raises(ValueError):
        as_state((1, -1))


def test_text_round_trip():
    assert format_state((1, 1, 1, 0, 0)) == "1,1,1,0,0"
    assert parse_state("1,1,1,0,0") == (1, 1, 1, 0, 0)
    assert parse_state(" 2 , 0 ") == (2, 0)
    with pytest.raises(ValueError):
        parse_state("1,x,0")


def test_occupation_indices():
    assert occupation_indices((1, 0, 2)) == [0, 2, 2]
    assert occupation_indices((0, 0)) == []


@pytest.mark.parametrize("m, n", [(1, 0), (3, 0), (1, 4), (4, 3), (5, 5), (2, 19), (2, 21), (3, 22),
                                  (200, 2)])
def test_index_arrays_equal_the_per_state_helpers(m, n):
    # bit-identical, including products above 2^53 (n >= 19) where a float
    # product of factorials could round differently
    space = enumerate_states(m, n)
    indices, norms = _index_arrays(space)
    assert indices.shape == (len(space), n)
    assert indices.dtype == np.intp
    assert np.array_equal(indices, np.array([occupation_indices(s) for s in space],
                                            dtype=np.intp).reshape(len(space), n))
    want = np.array([float(normalization_product(s)) for s in space])
    assert norms.dtype == float
    assert np.array_equal(norms, want)


# ---------------------------------------------------------------------------
# the array-backed, shared space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, n", ORACLE_SPACES + LARGE_M_SPACES)
def test_blockwise_order_equals_the_generator(m, n):
    want = list(compositions_desc(m, n))
    space = enumerate_states(m, n)
    assert list(space.states) == want
    assert space.occupations.shape == (len(want), m)
    assert np.array_equal(space.occupations, np.array(want).reshape(len(want), m))
    labels, _ = _index_arrays(space)
    assert np.array_equal(labels, np.array([occupation_indices(s) for s in want],
                                           dtype=np.intp).reshape(len(want), n))


def test_blockwise_order_from_any_cache_state(empty_cache):
    # cold, from a partly filled cache, and bypassing the cache altogether
    order = [(27, 3), (9, 6), (10, 6), (3, 6), (12, 2), (5, 5)]
    for m, n in order:
        want = list(compositions_desc(m, n))
        assert list(enumerate_states(m, n).states) == want
        assert list(StateSpace(m, n).states) == want


@pytest.mark.parametrize("m, n", ORACLE_SPACES)
def test_ranks_equal_rank_and_position(m, n):
    space = enumerate_states(m, n)
    ranks = space.ranks(space.occupations)
    assert ranks.tolist() == list(range(len(space)))
    assert [space.rank(s) for s in space.states] == list(range(len(space)))
    assert space.ranks(list(space.states)[::-1]).tolist() == list(range(len(space)))[::-1]
    assert all(space.unrank(r) == s for r, s in enumerate(space.states))


def test_ranks_reject_mismatched_states():
    space = enumerate_states(3, 2)
    with pytest.raises(DimensionError, match="3 modes"):
        space.ranks([(1, 1)])  # wrong mode count
    with pytest.raises(DimensionError, match="3 photons"):
        space.ranks([(2, 0, 0), (1, 1, 1)])  # wrong photon count in one row
    with pytest.raises(ValueError, match="non-negative"):
        space.ranks([(2, 0, 0), (3, -1, 0)])
    assert space.ranks([]).shape == (0,)


def test_enumerate_states_shares_one_instance():
    assert enumerate_states(6, 3) is enumerate_states(6, 3)
    space = enumerate_states(4, 2)
    assert pickle.loads(pickle.dumps(space)) is space
    assert StateSpace(4, 2) == space and hash(StateSpace(4, 2)) == hash(space)
    assert repr(space) == "StateSpace(m=4, n=2, size=10)"


def test_shared_space_is_read_only():
    space = enumerate_states(5, 3)
    indices, norms = _index_arrays(space)
    assert _index_arrays(space)[0] is indices
    for array in (space.occupations, indices, norms):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    for name in ("m", "occupations", "states", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(space, name, None)
    with pytest.raises(AttributeError):
        del space.n


def test_cache_stays_within_its_byte_bound(empty_cache, monkeypatch):
    bound = 200_000
    monkeypatch.setattr(fock, "CACHE_MAX_BYTES", bound)
    # spaces with their views from a few KB up to ~2 MB, i.e. past the bound
    for m, n in [(4, 2), (8, 4), (12, 5), (14, 6), (5, 3), (16, 4), (27, 3), (3, 40)]:
        space = enumerate_states(m, n)
        assert list(space.states[:3]) == list(compositions_desc(m, n))[:3]
        _index_arrays(space)
        charged = [nbytes for _, nbytes in fock._cache.values()]
        assert fock._cache_nbytes == sum(charged) <= bound
        assert all(s._nbytes == b for s, b in fock._cache.values())
        assert (space._nbytes <= bound) == ((m, n) in fock._cache)
    # a space whose tuple view outgrows the bound leaves alone, not with the
    # others: (12, 4) holds 71 KB of arrays and 267 KB with its view
    big = StateSpace(12, 4)
    small = enumerate_states(3, 2)
    assert fock._cache_put(big) is big and fock._cache[(12, 4)][0] is big
    big.states
    assert (12, 4) not in fock._cache and fock._cache[(3, 2)][0] is small


def test_norms_beyond_the_float_range_read_as_inf():
    space = enumerate_states(2, 171)
    _, norms = _index_arrays(space)
    assert norms[space.rank((171, 0))] == math.inf
    assert norms[space.rank((170, 1))] == float(math.factorial(170))
    assert norms[space.rank((86, 85))] == float(normalization_product((86, 85)))


def test_cold_build_caches_one_space(empty_cache):
    space = enumerate_states(16, 4)
    assert list(fock._cache) == [(16, 4)]
    assert fock._cache_nbytes == space._nbytes == fock._space_nbytes(16, 4)


@pytest.mark.parametrize("m, n", [(1, 0), (3, 2), (16, 4), (2, 200), (200, 2)])
def test_predicted_bytes_equal_the_arrays(m, n):
    space = StateSpace(m, n)
    labels, norms = _index_arrays(space)
    assert fock._space_nbytes(m, n) == space.occupations.nbytes + labels.nbytes + norms.nbytes


def test_space_bytes_guard_refuses_before_allocating():
    # 2,001,000 states pass the state cap but would hold 4.0 GB of arrays
    assert space_size(2000, 2) <= fock.MAX_SPACE_SIZE
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLargeError, match="3.8 GiB"):
            enumerate_states(2000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(StateSpaceTooLargeError, match="GiB"):
        StateSpace(300, 3)
