import json
import math
import tracemalloc

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    StateSpaceTooLargeError,
    direct_sum,
    gathered_permanents,
    haar_unitary,
    matrix_from_json,
    matrix_from_states,
    matrix_to_json,
    output_distribution,
    permanent,
    permanent_naive,
    permanents,
    phase_shifter,
    unitarity_deviation,
)
from nlboson.linalg import (
    MAX_PERMANENTS_BYTES,
    _mesh_unitary,
    _mesh_unitary_derivatives,
    _permanents_bytes,
)

from .oracles import (
    central_difference_jacobian,
    mesh_unitary_product,
    operator_expansion_amplitude,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------

def test_permanent_identity():
    assert permanent(np.eye(3)) == pytest.approx(1.0)


def test_permanent_all_ones_is_factorial():
    assert permanent(np.ones((4, 4))) == pytest.approx(24.0)


def test_permanent_two_by_two_by_definition():
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)


def test_permanent_empty_matrix_is_one():
    assert permanent(np.zeros((0, 0))) == 1
    assert permanent_naive(np.zeros((0, 0))) == 1


def test_permanent_balanced_beamsplitter_cancels():
    b = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert permanent(b) == pytest.approx(0.0, abs=1e-15)


def test_permanent_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for size in range(1, 8):
        for _ in range(8):
            mat = random_complex(rng, (size, size))
            assert permanent(mat) == pytest.approx(permanent_naive(mat), abs=1e-10)


def test_permanent_row_and_column_permutation_invariant():
    rng = np.random.default_rng(8)
    mat = random_complex(rng, (5, 5))
    base = permanent(mat)
    for _ in range(5):
        rows = rng.permutation(5)
        cols = rng.permutation(5)
        assert permanent(mat[rows][:, cols]) == pytest.approx(base, abs=1e-10)


def test_permanent_linear_in_each_row():
    rng = np.random.default_rng(9)
    for _ in range(5):
        mat = random_complex(rng, (4, 4))
        row = int(rng.integers(4))
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = mat.copy()
        scaled[row] *= c
        assert permanent(scaled) == pytest.approx(c * permanent(mat), abs=1e-10)


def test_permanent_rejects_non_square():
    with pytest.raises(DimensionError):
        permanent(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        permanent_naive(np.ones((2, 3)))


def test_naive_oracle_guard():
    with pytest.raises(DimensionError):
        permanent_naive(np.eye(10))


def test_permanent_rejects_non_finite():
    mat = np.eye(3, dtype=complex)
    mat[0, 0] = np.nan
    with pytest.raises(ValueError):
        permanent(mat)


def test_batch_permanents_match_scalar_kernel():
    rng = np.random.default_rng(10)
    for size in (1, 2, 4, 6):
        mats = random_complex(rng, (12, size, size))
        batch = permanents(mats)
        ref = np.array([permanent(mm) for mm in mats])
        assert np.abs(batch - ref).max() < 1e-10


def test_batch_permanents_refuse_before_allocating():
    # s = 25 would need (2^25 - 1) x 25 masks and row sums, about 20 GiB
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLargeError, match="MiB"):
            permanents(np.zeros((1, 25, 25), dtype=complex))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_batch_permanents_guard_boundary():
    # the prediction alone, so nothing near the cap is allocated: one 20 x 20
    # chunk fits, one 21 x 21 chunk does not
    assert _permanents_bytes(1, 20) <= MAX_PERMANENTS_BYTES < _permanents_bytes(1, 21)


def test_distribution_of_many_photons_hits_the_permanent_guard():
    with pytest.raises(StateSpaceTooLargeError):
        output_distribution(haar_unitary(2, np.random.default_rng(71)), (25, 0))


def test_gathered_permanents():
    rng = np.random.default_rng(11)
    u = random_complex(rng, (5, 5))
    rows = np.array([[0, 1, 1], [2, 3, 4]])
    cols = np.array([[1, 1, 2], [0, 2, 2]])
    got = gathered_permanents(u, rows, cols)
    want = [permanent(u[np.ix_(r, c)]) for r, c in zip(rows, cols)]
    assert np.abs(got - np.array(want)).max() < 1e-12
    # a shared row vector broadcasts across the batch
    shared = gathered_permanents(u, np.array([0, 1, 2]), cols)
    want = [permanent(u[np.ix_([0, 1, 2], c)]) for c in cols]
    assert np.abs(shared - np.array(want)).max() < 1e-12


# ---------------------------------------------------------------------------
# submatrix construction
# ---------------------------------------------------------------------------

def test_matrix_from_states_identity_selection():
    assert np.allclose(matrix_from_states(np.eye(2), (1, 1), (1, 1)), np.eye(2))


def test_matrix_from_states_repeats_rows_and_columns():
    u = np.arange(4).reshape(2, 2) + 1.0
    sub = matrix_from_states(u, (2, 0), (1, 1))
    assert np.allclose(sub, [[u[0, 0], u[0, 1]], [u[0, 0], u[0, 1]]])


def test_matrix_from_states_reproduces_operator_oracle():
    # two-photon amplitudes on two modes, checked against the expansion oracle
    rng = np.random.default_rng(12)
    u = haar_unitary(2, rng)
    for s in [(2, 0), (1, 1), (0, 2)]:
        for t in [(2, 0), (1, 1), (0, 2)]:
            sub = matrix_from_states(u, s, t)
            norm = math.sqrt(
                math.prod(math.factorial(c) for c in s)
                * math.prod(math.factorial(c) for c in t)
            )
            amp = permanent(sub) / norm
            assert amp == pytest.approx(operator_expansion_amplitude(u, s, t), abs=1e-12)


def test_matrix_from_states_rejects_photon_mismatch():
    with pytest.raises(DimensionError):
        matrix_from_states(np.eye(2), (2, 0), (1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_from_states(np.ones((2, 3)), (1, 0), (1, 0)),
     r"U must be square, got shape \(2, 3\)"),
    (lambda: matrix_from_states(np.eye(2), (1, 0, 0), (1, 0)),
     "input state has 3 modes, expected 2"),
    (lambda: permanents(np.ones((2, 2, 3))), r"expected a \(B, s, s\) stack"),
    (lambda: permanents(np.ones((2, 2))), r"expected a \(B, s, s\) stack"),
    (lambda: gathered_permanents(np.eye(3), np.zeros((2, 2), int), np.zeros((3, 2), int)),
     "row and column index shapes differ"),
    (lambda: matrix_to_json(np.ones(3)), r"matrix must be a 2-D matrix, got shape \(3,\)"),
    (lambda: direct_sum(np.ones(3), np.eye(2)), r"a must be a 2-D matrix, got shape \(3,\)"),
    (lambda: direct_sum(np.eye(2), np.ones((1, 2, 2))),
     r"b must be a 2-D matrix, got shape \(1, 2, 2\)"),
    (lambda: haar_unitary(0, np.random.default_rng(0)), "m must be at least 1, got m=0"),
], ids=["matrix_from_states non-square", "matrix_from_states modes", "permanents 3-D",
        "permanents 2-D", "gathered_permanents", "matrix_to_json", "direct_sum first",
        "direct_sum second", "haar_unitary"])
def test_linalg_entries_refuse_a_shape_they_cannot_use(call, message):
    with pytest.raises(DimensionError, match=message):
        call()


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(13)
    for m in (1, 2, 5, 9):
        assert unitarity_deviation(haar_unitary(m, rng)) < 1e-12


def test_haar_single_mode_is_a_phase():
    u = haar_unitary(1, np.random.default_rng(14))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_deterministic_given_seed():
    a = haar_unitary(4, np.random.default_rng(15))
    b = haar_unitary(4, np.random.default_rng(15))
    assert np.array_equal(a, b)


def test_haar_first_column_moments():
    # each |U_{i1}|^2 averages to 1/m over the ensemble
    rng = np.random.default_rng(16)
    m, draws = 4, 1000
    samples = np.empty((draws, m))
    for i in range(draws):
        samples[i] = np.abs(haar_unitary(m, rng)[:, 0]) ** 2
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean - 1 / m) <= 3 * stderr)


# ---------------------------------------------------------------------------
# mesh parametrization
# ---------------------------------------------------------------------------

def _random_angles(m, rng):
    # uniformly random in-range mesh angles (not Haar-weighted)
    n_pairs = m * (m - 1) // 2
    return (rng.uniform(0.0, math.pi / 2, n_pairs), rng.uniform(0.0, 2 * math.pi, n_pairs),
            rng.uniform(0.0, 2 * math.pi, m))


def test_mesh_identity_at_zero_angles():
    assert np.allclose(_mesh_unitary(3, np.zeros(3), np.zeros(3), np.zeros(3)), np.eye(3))


def test_mesh_balanced_beamsplitter():
    u = _mesh_unitary(2, np.array([math.pi / 4]), np.zeros(1), np.zeros(2))
    assert unitarity_deviation(u) < 1e-12
    assert np.allclose(np.abs(u), np.full((2, 2), 1 / math.sqrt(2)))


def test_mesh_random_params_unitary():
    rng = np.random.default_rng(17)
    for m in (2, 3, 5):
        for _ in range(5):
            u = _mesh_unitary(m, *_random_angles(m, rng))
            assert unitarity_deviation(u) < 1e-12


def test_mesh_matches_the_literal_element_product():
    rng = np.random.default_rng(72)
    for m in range(1, 7):
        for _ in range(3):
            angles = _random_angles(m, rng)
            got = _mesh_unitary(m, *angles)
            want = mesh_unitary_product(m, *angles)
            assert got.shape == (m, m)
            assert np.abs(got - want).max() <= 1e-15


def test_mesh_derivatives_match_the_mesh_and_central_differences():
    rng = np.random.default_rng(73)
    for m in range(1, 7):
        n_pairs = m * (m - 1) // 2
        for _ in range(3):
            angles = _random_angles(m, rng)
            u, du = _mesh_unitary_derivatives(m, *angles)
            assert du.shape == (2 * n_pairs + m, m, m)
            assert np.abs(u - _mesh_unitary(m, *angles)).max() <= 1e-15

            def mesh(x):
                return _mesh_unitary(m, x[:n_pairs], x[n_pairs : 2 * n_pairs], x[2 * n_pairs :])

            want = np.moveaxis(central_difference_jacobian(mesh, np.concatenate(angles)), -1, 0)
            assert np.abs(du - want).max() <= 1e-6 * np.abs(want).max()


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------

def test_direct_sum():
    assert np.allclose(direct_sum(np.eye(2), np.eye(3)), np.eye(5))


def test_phase_shifter():
    f = phase_shifter(3, 2, math.pi)
    assert np.allclose(f, np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(phase_shifter(4, 1, 0.0), np.eye(4))
    with pytest.raises(DimensionError):
        phase_shifter(3, 4, 0.1)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def test_matrix_json_round_trip():
    rng = np.random.default_rng(18)
    mat = random_complex(rng, (3, 2))
    obj = matrix_to_json(mat)
    assert obj["rows"] == 3 and obj["cols"] == 2 and len(obj["data"]) == 6
    assert np.allclose(matrix_from_json(obj), mat)
    # survives a JSON text round trip as well
    assert np.allclose(matrix_from_json(json.loads(json.dumps(obj))), mat)


def test_matrix_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "data": []})
    # a JSON NaN parses as a float; the matrix is refused as non-finite
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        matrix_from_json(json.loads('{"rows": 1, "cols": 1, "data": [[NaN, 0]]}'))


@pytest.mark.parametrize("data", [[5], [[1, "x"]], [[1]], [[1, 2, 3]], [None], [[True, 0]],
                                  "ab", 5])
def test_matrix_json_rejects_an_entry_that_is_not_a_number_pair(data):
    with pytest.raises(ValueError, match="malformed matrix JSON"):
        matrix_from_json({"rows": 1, "cols": 1, "data": data})
