import math
import tracemalloc
from collections import Counter, OrderedDict

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    NotUnitaryError,
    StateSpaceTooLargeError,
    amplitude,
    enumerate_states,
    haar_unitary,
    output_distribution,
    permanent,
    read_distribution_csv,
    sample_exact,
    tvd,
    verify_composition,
    write_distribution_csv,
)
from nlboson import fock, linear
from nlboson.fock import StateSpace
from nlboson.linear import Distribution

from .oracles import operator_expansion_amplitude

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

def test_identity_amplitudes():
    assert amplitude(np.eye(3), (1, 0, 1), (1, 0, 1)) == pytest.approx(1.0)
    assert amplitude(np.eye(3), (1, 0, 1), (0, 1, 1)) == pytest.approx(0.0)


def test_balanced_beamsplitter_coincidence_cancels():
    assert amplitude(BS, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-15)


def test_balanced_beamsplitter_bunching_amplitude():
    # |1,1> -> (|2,0> - |0,2>)/sqrt(2)
    assert abs(amplitude(BS, (1, 1), (2, 0))) == pytest.approx(1 / math.sqrt(2))
    assert abs(amplitude(BS, (1, 1), (0, 2))) == pytest.approx(1 / math.sqrt(2))


def test_amplitudes_match_operator_expansion_oracle():
    rng = np.random.default_rng(20)
    for m, n in [(2, 2), (3, 2), (3, 3)]:
        u = haar_unitary(m, rng)
        space = enumerate_states(m, n)
        for s in space:
            for t in space:
                assert amplitude(u, s, t) == pytest.approx(
                    operator_expansion_amplitude(u, s, t), abs=1e-11
                )


def test_single_occupancy_amplitude_is_plain_permanent():
    rng = np.random.default_rng(21)
    u = haar_unitary(4, rng)
    s, t = (1, 1, 0, 0), (0, 1, 0, 1)
    sub = u[np.ix_([0, 1], [1, 3])]
    assert amplitude(u, s, t) == pytest.approx(complex(permanent(sub)))


def test_amplitude_rejects_non_unitary():
    with pytest.raises(NotUnitaryError) as err:
        amplitude(np.eye(2) * 1.5, (1, 0), (1, 0))
    assert err.value.deviation > 1.0


def test_amplitude_rejects_photon_mismatch():
    with pytest.raises(DimensionError):
        amplitude(np.eye(2), (1, 1), (1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: output_distribution(np.eye(3), (1, 1)), "input state has 2 modes, expected 3"),
    (lambda: verify_composition(np.eye(2), np.eye(3), (1, 0), (1, 0)),
     r"W and V must have equal shapes, got \(2, 2\) and \(3, 3\)"),
    (lambda: verify_composition(np.eye(2), np.eye(2), (1, 1), (1, 0)),
     "output state has 1 photons, expected 2"),
], ids=["output_distribution modes", "verify_composition shapes",
        "verify_composition photons"])
def test_linear_entries_refuse_mismatched_dimensions(call, message):
    with pytest.raises(DimensionError, match=message):
        call()


@pytest.mark.parametrize("probs, message", [
    ([0.5, 0.5], r"expected 3 probabilities, got shape \(2,\)"),
    ([0.5, math.nan, 0.5], "probabilities contain non-finite values"),
    ([0.5, math.inf, 0.5], "probabilities contain non-finite values"),
    ([0.6, -0.1, 0.5], "negative probability -1.000e-01"),
], ids=["wrong length", "nan", "inf", "negative"])
def test_distribution_refuses_probabilities_it_cannot_hold(probs, message):
    with pytest.raises(ValueError, match=message):
        Distribution(enumerate_states(2, 2), probs)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_identity_distribution_is_point_mass():
    dist = output_distribution(np.eye(3), (1, 1, 0))
    assert dist.prob_of((1, 1, 0)) == pytest.approx(1.0)
    assert dist.total() == pytest.approx(1.0)


def test_balanced_beamsplitter_distribution():
    dist = output_distribution(BS, (1, 1))
    assert dist.prob_of((2, 0)) == pytest.approx(0.5)
    assert dist.prob_of((1, 1)) == pytest.approx(0.0, abs=1e-15)
    assert dist.prob_of((0, 2)) == pytest.approx(0.5)


@pytest.mark.parametrize("m", range(1, 9))
def test_distribution_normalization_for_haar(m):
    rng = np.random.default_rng(22 + m)
    for n in range(0, 5):
        u = haar_unitary(m, rng)
        s = tuple(n // m + (1 if i < n % m else 0) for i in range(m))
        dist = output_distribution(u, s)
        assert abs(dist.total() - 1.0) < 1e-9


def test_vacuum_distribution():
    dist = output_distribution(haar_unitary(3, np.random.default_rng(1)), (0, 0, 0))
    assert dist.probs.tolist() == [1.0]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_point_mass():
    samples = sample_exact(np.eye(3), (0, 1, 1), 50, np.random.default_rng(2))
    assert all(s == (0, 1, 1) for s in samples)


def test_sampling_reproducible():
    u = haar_unitary(4, np.random.default_rng(3))
    a = sample_exact(u, (1, 1, 0, 0), 100, np.random.default_rng(4))
    b = sample_exact(u, (1, 1, 0, 0), 100, np.random.default_rng(4))
    assert a == b


def test_sampling_hong_ou_mandel_frequencies():
    samples = sample_exact(BS, (1, 1), 10_000, np.random.default_rng(5))
    counts = Counter(samples)
    assert counts[(1, 1)] == 0
    assert abs(counts[(2, 0)] / 10_000 - 0.5) < 0.02
    assert abs(counts[(0, 2)] / 10_000 - 0.5) < 0.02


def test_sampling_tvd_decreases_with_sample_size():
    u = haar_unitary(5, np.random.default_rng(6))
    s = (1, 1, 1, 0, 0)
    exact = output_distribution(u, s)
    tvds = []
    for count in (100, 1_000, 10_000, 100_000):
        samples = sample_exact(u, s, count, np.random.default_rng(7))
        freq = np.zeros(len(exact.space))
        for state in samples:
            freq[exact.space.rank(state)] += 1
        tvds.append(tvd(Distribution(exact.space, freq / count), exact))
    assert tvds == sorted(tvds, reverse=True)


@pytest.mark.parametrize("count, message", [
    (2.7, "count must be an integer, got 2.7"),
    (-1, "count must be at least 0, got count=-1"),
], ids=["float", "negative"])
def test_sampling_refuses_a_count_that_is_not_a_non_negative_integer(count, message):
    with pytest.raises(ValueError, match=message):
        sample_exact(np.eye(2), (1, 0), count, np.random.default_rng(9))


def test_sampling_takes_any_non_negative_integer_count():
    assert sample_exact(np.eye(2), (1, 0), 0, np.random.default_rng(9)) == []
    assert sample_exact(np.eye(2), (1, 0), np.int64(2), np.random.default_rng(9)) == [(1, 0)] * 2


def test_sampling_space_guard():
    u = np.eye(50, dtype=complex)
    with pytest.raises(StateSpaceTooLargeError, match=r"sample_exact: n=5 photons in m=50 modes"):
        sample_exact(u, (1,) * 5 + (0,) * 45, 10, np.random.default_rng(8))


# ---------------------------------------------------------------------------
# composition identity
# ---------------------------------------------------------------------------

def test_composition_guard_refuses_before_allocating():
    # (45, 5) spans 1,906,884 intermediate states, two scalar permanents each
    u = np.eye(45, dtype=complex)
    s = (1,) * 5 + (0,) * 40
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLargeError,
                           match=r"verify_composition: n=5 photons in m=45 modes"):
            verify_composition(u, u, s, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_composition_identity_for_identity_factors():
    assert verify_composition(np.eye(3), np.eye(3), (1, 1, 0), (1, 1, 0)) < 1e-14


def test_composition_identity_random_haar_all_pairs():
    rng = np.random.default_rng(9)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    space = enumerate_states(3, 2)
    for s in space:
        for t in space:
            assert verify_composition(w, v, s, t) < 1e-9


def test_composition_with_inverse_recovers_identity_evolution():
    rng = np.random.default_rng(10)
    w = haar_unitary(4, rng)
    s = (1, 0, 1, 0)
    assert verify_composition(w, w.conj().T, s, s) < 1e-10
    # and the composed evolution really is the identity map on amplitudes
    assert amplitude(w @ w.conj().T, s, s) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def test_distribution_csv_round_trip(tmp_path):
    u = haar_unitary(3, np.random.default_rng(11))
    dist = output_distribution(u, (1, 1, 0))
    path = tmp_path / "dist.csv"
    write_distribution_csv(dist, path)
    body = path.read_text().splitlines()
    assert body[0] == "state,probability"
    assert body[1].startswith('"2,0,0",')
    loaded = read_distribution_csv(path)
    assert loaded.space == dist.space
    assert np.abs(loaded.probs - dist.probs).max() < 1e-16


def test_csv_and_samples_leave_the_tuple_view_unbuilt(tmp_path, monkeypatch):
    # rows come from the occupation array, several chunks of it here
    monkeypatch.setattr(fock, "_cache", OrderedDict())
    monkeypatch.setattr(fock, "_cache_nbytes", 0)
    monkeypatch.setattr(linear, "_ROW_CHUNK", 7)
    space = StateSpace(4, 3)
    probs = np.arange(1.0, len(space) + 1) / 3
    dist = Distribution(space, probs / probs.sum())
    path = tmp_path / "dist.csv"
    write_distribution_csv(dist, path)
    as_dict = dist.as_dict()
    loaded = read_distribution_csv(path)
    samples = sample_exact(np.eye(4), (1, 0, 2, 0), 3, np.random.default_rng(1))
    for kept in (space, loaded.space):  # its size and its four arrays, nothing more
        assert {name for name in StateSpace.__slots__ if getattr(kept, name) is not None} == {
            "m", "n", "occupations", "labels", "norms", "predecessors"}
    assert path.read_text().splitlines()[1:] == [
        f'"{",".join(map(str, s))}",{p:.17g}' for s, p in zip(space.states, dist.probs)
    ]
    assert as_dict == {s: float(p) for s, p in zip(space.states, dist.probs)}
    assert np.array_equal(loaded.probs, dist.probs)
    assert samples == [(1, 0, 2, 0)] * 3


def test_csv_reader_rejects_rows_out_of_canonical_order(tmp_path):
    dist = output_distribution(haar_unitary(3, np.random.default_rng(12)), (1, 1, 0))
    path = tmp_path / "dist.csv"
    write_distribution_csv(dist, path)
    header, *rows = path.read_text().splitlines()
    ragged = rows[:-1] + ['"0,2",0']
    for body in (rows[1:] + rows[:1], rows[:-1], ragged):
        path.write_text("\n".join([header, *body]) + "\n")
        with pytest.raises(ValueError, match="canonical state ordering"):
            read_distribution_csv(path)


@pytest.mark.parametrize("text, message", [
    ("", "empty distribution CSV: no header"),
    ("state,prob\n\"1,0\",1.0\n", "unexpected distribution CSV header"),
    ("state,probability\n", "empty distribution CSV"),
    ("state,probability\n\"1,0\"\n\"0,1\",0.0\n", r"row \['1,0'\] has no probability"),
    ("state,probability\n\n", r"row \[\] has no probability"),
], ids=["empty file", "bad header", "header only", "row without probability", "blank row"])
def test_csv_reader_refuses_a_file_that_is_not_a_distribution(tmp_path, text, message):
    path = tmp_path / "dist.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_distribution_csv(path)
