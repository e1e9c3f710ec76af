"""Every matrix a caller passes goes through one check, `linalg._checked_matrix`:
a 2-D array of numbers (a numpy int, unsigned, float or complex dtype of any
width), square where the entry needs it, and finite.  It comes back as a
complex128 array, never cast from anything else, and a bad one is refused
with the rule's message, naming the parameter, before any permanent, Haar
draw, synthesis or unitarity gate.  test_states checks that every public
matrix parameter is in the table below."""

import json
import math
import os

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    GadgetSpec,
    NonlinearExperiment,
    SingleModePhase,
    amplitude,
    apply_gadget,
    build_setup,
    bunching_at_site,
    bunching_global,
    direct_sum,
    gadget_residuals,
    heralded_factors,
    linearized_evolution,
    matrix_from_states,
    matrix_to_json,
    output_distribution,
    permanent,
    permanent_naive,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    photon_number_components,
    reference_gadget,
    require_unitary,
    sample_exact,
    save_matrix,
    success_probability,
    unitarity_deviation,
    verify_composition,
)
from nlboson import analysis, gadget, linalg, linear, nonlinear
from nlboson.linalg import _checked_matrix

EYE = np.eye(3)
GOOD = (1, 1, 0)
GADGET = reference_gadget(2)
PERM = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # unitary, exact in every dtype
INTS = np.array([[1, 2, 0], [0, 1, 3], [2, 0, 1]])  # not unitary, exact in every dtype


def _untouched(*args, **kwargs):
    raise AssertionError("did work before checking its matrices")


# what an entry may not reach before its matrices are checked: the
# permanents, the photon-number recursion, synthesis, the Haar draw and the
# unitarity gate
UNTOUCHED = [(linalg, "permanents"), (linalg, "_ryser_gray"), (linalg, "_deviation"),
             (linear, "permanent"), (nonlinear, "permanent"),
             (nonlinear, "_tagged_components"), (gadget, "_expanded_permanents"),
             (gadget, "_ryser_gray"), (gadget, "_random_raw"), (analysis, "haar_unitary")]

# (entry, parameter, the name its messages give it, square, minimum size,
# whether it needs a unitary, call(matrix))
MATRICES = [
    ("permanent", "mat", "matrix", True, 0, False, permanent),
    ("permanent_naive", "mat", "matrix", True, 0, False, permanent_naive),
    ("matrix_from_states", "U", "U", True, 0, False, lambda u: matrix_from_states(u, GOOD, GOOD)),
    ("unitarity_deviation", "U", "U", True, 0, False, unitarity_deviation),
    ("require_unitary", "U", "U", True, 0, True, require_unitary),
    ("direct_sum", "a", "a", False, 0, False, lambda a: direct_sum(a, EYE)),
    ("direct_sum", "b", "b", False, 0, False, lambda b: direct_sum(EYE, b)),
    ("matrix_to_json", "mat", "matrix", False, 0, False, matrix_to_json),
    ("save_matrix", "mat", "matrix", False, 0, False, lambda m: save_matrix(os.devnull, m)),
    ("amplitude", "U", "U", True, 0, True, lambda u: amplitude(u, GOOD, GOOD)),
    ("output_distribution", "U", "U", True, 0, True, lambda u: output_distribution(u, GOOD)),
    ("sample_exact", "U", "U", True, 0, True,
     lambda u: sample_exact(u, GOOD, 5, np.random.default_rng(0))),
    ("verify_composition", "W", "W", True, 0, True,
     lambda w: verify_composition(w, EYE, GOOD, GOOD)),
    ("verify_composition", "V", "V", True, 0, True,
     lambda v: verify_composition(EYE, v, GOOD, GOOD)),
    ("NonlinearExperiment", "w", "W", True, 0, True,
     lambda w: NonlinearExperiment(w, EYE, SingleModePhase(2, 0.3), GOOD)),
    ("NonlinearExperiment", "v", "V", True, 0, True,
     lambda v: NonlinearExperiment(EYE, v, SingleModePhase(2, 0.3), GOOD)),
    ("photon_number_components", "w", "W", True, 0, True,
     lambda w: photon_number_components(w, EYE, 2, GOOD)),
    ("photon_number_components", "v", "V", True, 0, True,
     lambda v: photon_number_components(EYE, v, 2, GOOD)),
    ("phase_gate_amplitude", "w", "W", True, 0, True,
     lambda w: phase_gate_amplitude(w, 2, 0.3, EYE, GOOD, GOOD)),
    ("phase_gate_amplitude", "v", "V", True, 0, True,
     lambda v: phase_gate_amplitude(EYE, 2, 0.3, v, GOOD, GOOD)),
    ("phase_gate_amplitude_split", "w", "W", True, 0, True,
     lambda w: phase_gate_amplitude_split(w, 2, 0.3, EYE, GOOD, GOOD)),
    ("phase_gate_amplitude_split", "v", "V", True, 0, True,
     lambda v: phase_gate_amplitude_split(EYE, 2, 0.3, v, GOOD, GOOD)),
    ("linearized_evolution", "w", "W", True, 0, False,
     lambda w: linearized_evolution(w, 2, 0.3, EYE)),
    ("linearized_evolution", "v", "V", True, 0, False,
     lambda v: linearized_evolution(EYE, 2, 0.3, v)),
    ("build_setup", "w", "W", True, 0, True, lambda w: build_setup(w, EYE, 2, GOOD, GADGET)),
    ("build_setup", "v", "V", True, 0, True, lambda v: build_setup(EYE, v, 2, GOOD, GADGET)),
    ("bunching_at_site", "w", "W", True, 0, True, lambda w: bunching_at_site(w, GOOD, 2, 1)),
    ("bunching_global", "w", "W", True, 0, True, lambda w: bunching_global(w, GOOD, 1)),
    ("GadgetSpec", "u_eff", "u_eff", True, 2, False, lambda u: GadgetSpec(0.3, u)),
    ("heralded_factors", "u_eff", "u_eff", True, 2, False, lambda u: heralded_factors(u, 2)),
    ("success_probability", "u_eff", "u_eff", True, 2, False, success_probability),
    ("gadget_residuals", "u_eff", "u_eff", True, 2, False, lambda u: gadget_residuals(u, 0.3)),
    ("apply_gadget", "u_eff", "u_eff", True, 2, False, lambda u: apply_gadget(u, [1, 0, 0])),
]
MATRIX_IDS = [f"{entry} {param}" for entry, param, *_ in MATRICES]

NAN = np.eye(3)
NAN[2, 2] = math.nan

# (kind, matrix, exception, message template)
BAD = [
    ("bool", np.eye(3, dtype=bool), ValueError,
     "{name} must be a matrix of numbers, got dtype bool"),
    ("string", np.array([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), ValueError,
     "{name} must be a matrix of numbers, got dtype <U1"),
    ("none", [[1, 0, 0], [0, 1, 0], [0, 0, None]], ValueError,
     "{name} must be a matrix of numbers, got dtype object"),
    ("dict", [[1, 0, 0], [0, 1, 0], [0, 0, {}]], ValueError,
     "{name} must be a matrix of numbers, got dtype object"),
    ("ragged", [[1, 0, 0], [0, 1], [0, 0, 1]], ValueError,
     "{name} must be a matrix of numbers, got a ragged sequence"),
    ("bool entry", [[1, 0, 0], [0, 1, 0], [0, 0, True]], ValueError,
     "{name} must be a matrix of numbers, got a bool entry"),
    ("numpy bool row", [np.array([True, False, False]), [0, 1, 0], [0, 0, 1]], ValueError,
     "{name} must be a matrix of numbers, got a bool entry"),
    ("3-D", np.ones((1, 3, 3)), DimensionError,
     "{name} must be a 2-D matrix, got shape (1, 3, 3)"),
    ("non-square", np.ones((3, 2)), DimensionError, "{name} must be square, got shape (3, 2)"),
    ("too small", np.eye(1), DimensionError, "{name} must be at least 2x2, got shape (1, 1)"),
    ("nan", NAN, ValueError, "{name} contains non-finite entries"),
]


def _applies(kind, square, min_size) -> bool:
    if kind == "non-square":
        return square
    if kind == "too small":
        return min_size > 1
    return True


CASES = [pytest.param(call, value, error, template.format(name=name), id=f"{row_id}-{kind}")
         for (_, _, name, square, min_size, _, call), row_id in zip(MATRICES, MATRIX_IDS)
         for kind, value, error, template in BAD if _applies(kind, square, min_size)]


@pytest.mark.parametrize("call, value, error, message", CASES)
def test_every_matrix_is_refused_by_one_rule_before_any_work(monkeypatch, call, value, error,
                                                             message):
    for module, attribute in UNTOUCHED:
        monkeypatch.setattr(module, attribute, _untouched)
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert str(err.value) == message


def _computed(result) -> bytes:
    """The bytes of every number an entry computed, to compare results exactly."""
    if result is None:  # save_matrix
        return b""
    if isinstance(result, dict):  # matrix_to_json
        return json.dumps(result).encode()
    if isinstance(result, (list, tuple)) and result and isinstance(result[0], tuple):
        return repr(result).encode()  # sample_exact's states
    if isinstance(result, tuple):  # photon_number_components' (space, A)
        return result[1].tobytes()
    if isinstance(result, GadgetSpec):
        return _computed(result.u_eff) + _computed([result.residual, result.success_prob])
    if isinstance(result, NonlinearExperiment):
        return _computed(result.w) + _computed(result.v) + _computed(result.components)
    if hasattr(result, "experiment"):  # a SimulationSetup
        return _computed(result.experiment) + _computed(result.enlarged_unitary)
    if hasattr(result, "probs"):  # a Distribution
        return result.probs.tobytes()
    return np.asarray(result, dtype=complex).tobytes()


WIDTHS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
          np.float16, np.float32, np.float64, np.longdouble, np.complex64, np.complex128,
          np.clongdouble]


@pytest.mark.parametrize("row", MATRICES, ids=MATRIX_IDS)
def test_every_matrix_may_be_any_numeric_dtype_or_a_list_of_numbers(row):
    *_, unitary, call = row
    base = PERM if unitary else INTS
    expected = _computed(call(base.astype(complex)))
    inputs = [base.astype(dtype) for dtype in WIDTHS]
    inputs += [base.tolist(), base.astype(float).tolist(), base.astype(complex).tolist()]
    for value in inputs:
        assert _computed(call(value)) == expected, getattr(value, "dtype", type(value))


@pytest.mark.parametrize("value", [np.eye(2), np.eye(2, dtype=np.int8), [[1, 0], [0, 1]],
                                   np.eye(2, dtype=np.complex64), np.eye(2, dtype=np.float16)])
def test_a_matrix_comes_back_as_complex128_and_a_complex128_one_as_itself(value):
    checked = _checked_matrix(value, "U")
    assert checked.dtype == np.complex128 and np.array_equal(checked, np.eye(2))
    same = np.eye(2, dtype=complex)
    assert _checked_matrix(same, "U") is same


@pytest.mark.parametrize("call", [
    lambda: NonlinearExperiment(np.eye(2), EYE, SingleModePhase(1, 0.3), (1, 0)),
    lambda: linearized_evolution(np.eye(2), 1, 0.3, EYE),
    lambda: verify_composition(np.eye(2), EYE, (1, 0), (1, 0)),
], ids=["NonlinearExperiment", "linearized_evolution", "verify_composition"])
def test_w_and_v_of_unequal_shapes_get_one_message_before_any_gate(monkeypatch, call):
    monkeypatch.setattr(linalg, "_deviation", _untouched)
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == "W and V must have equal shapes, got (2, 2) and (3, 3)"


def test_save_matrix_refuses_what_load_matrix_refuses_and_writes_no_file(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        save_matrix(path, NAN)
    assert not path.exists()
