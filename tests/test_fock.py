import math

import numpy as np
import pytest

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
from nlboson.fock import _index_arrays, occupation_indices

from .oracles import count_occupations


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


@pytest.mark.parametrize("m, n", [(1, 0), (3, 0), (1, 4), (4, 3), (5, 5), (2, 19), (2, 21), (3, 22)])
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
