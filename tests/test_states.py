"""Every entry that takes a Fock state checks it by one rule: `fock.as_state`
for its occupations (integers of any int type, never a bool, a float or a
string, and never cast) and `fock._checked_state` for its modes and photons.
Each entry refuses a bad state with one of three messages before it builds a
state space or takes a permanent.  The last four tests read the signatures
of the public names, so a new entry that takes a state, a count, a real or a
matrix must join this table, the count table of test_counts, the real table
of test_reals or the matrix table of test_matrices."""

import inspect

import numpy as np
import pytest

import nlboson
from nlboson import (
    DimensionError,
    NonlinearExperiment,
    SingleModePhase,
    amplitude,
    as_state,
    build_setup,
    bunching_at_site,
    bunching_global,
    concat_states,
    enumerate_states,
    matrix_from_states,
    nonlinear_amplitude,
    output_distribution,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    photon_number_components,
    reference_gadget,
    sample_exact,
    save_matrix,
    verify_composition,
)
from nlboson import cli, fock, linalg, linear, nonlinear, simulate
from tests.test_counts import COUNTS
from tests.test_matrices import MATRICES
from tests.test_reals import REALS

EYE = np.eye(3)
GOOD = (1, 1, 0)  # two photons in three modes
SPACE = enumerate_states(3, 2)
DIST = output_distribution(EYE, GOOD)
EXP = NonlinearExperiment(EYE, EYE, SingleModePhase(2, 0.3), GOOD)
GADGET = reference_gadget(2)


def _untouched(*args, **kwargs):
    raise AssertionError("built a space or took a permanent before checking its state")


# what an entry may not reach before its state is checked
UNTOUCHED = [(linear, "enumerate_states"), (nonlinear, "enumerate_states"),
             (simulate, "enumerate_states"), (fock, "StateSpace"),
             (linalg, "permanents"), (linalg, "_ryser_gray")]

# (entry and slot, the name its messages give the state, whether its photon
# number is fixed, call(state))
STATES = [
    ("as_state", None, False, as_state),
    ("concat_states first", None, False, lambda s: concat_states(s, (1,))),
    ("concat_states second", None, False, lambda s: concat_states((1,), s)),
    ("StateSpace.rank", "state", True, SPACE.rank),
    ("Distribution.prob_of", "state", True, DIST.prob_of),
    ("matrix_from_states input", "input state", False,
     lambda s: matrix_from_states(EYE, s, GOOD)),
    ("matrix_from_states output", "output state", True,
     lambda s: matrix_from_states(EYE, GOOD, s)),
    ("amplitude input", "input state", False, lambda s: amplitude(EYE, s, GOOD)),
    ("amplitude output", "output state", True, lambda s: amplitude(EYE, GOOD, s)),
    ("output_distribution", "input state", False, lambda s: output_distribution(EYE, s)),
    ("sample_exact", "input state", False,
     lambda s: sample_exact(EYE, s, 5, np.random.default_rng(0))),
    ("verify_composition input", "input state", False,
     lambda s: verify_composition(EYE, EYE, s, GOOD)),
    ("verify_composition output", "output state", True,
     lambda s: verify_composition(EYE, EYE, GOOD, s)),
    ("NonlinearExperiment", "input state", False,
     lambda s: NonlinearExperiment(EYE, EYE, SingleModePhase(2, 0.3), s)),
    ("nonlinear_amplitude", "output state", True, lambda s: nonlinear_amplitude(EXP, s)),
    ("phase_gate_amplitude input", "input state", False,
     lambda s: phase_gate_amplitude(EYE, 2, 0.3, EYE, s, GOOD)),
    ("phase_gate_amplitude output", "output state", True,
     lambda s: phase_gate_amplitude(EYE, 2, 0.3, EYE, GOOD, s)),
    ("phase_gate_amplitude_split input", "input state", False,
     lambda s: phase_gate_amplitude_split(EYE, 2, 0.3, EYE, s, GOOD)),
    ("phase_gate_amplitude_split output", "output state", True,
     lambda s: phase_gate_amplitude_split(EYE, 2, 0.3, EYE, GOOD, s)),
    ("photon_number_components", "input state", False,
     lambda s: photon_number_components(EYE, EYE, 2, s)),
    ("build_setup", "input state", False, lambda s: build_setup(EYE, EYE, 2, s, GADGET)),
    ("bunching_at_site", "input state", False, lambda s: bunching_at_site(EYE, s, 2, 1)),
    ("bunching_global", "input state", False, lambda s: bunching_global(EYE, s, 1)),
]
STATE_IDS = [row[0] for row in STATES]


def _bad_states(name, photons):
    """(kind, state, exception type, message or None for as_state's own)."""
    rows = [("fraction", (1.5, 0.5, 0), ValueError, None),
            ("bool", (True, 1, 0), ValueError, None),
            ("text", "110", ValueError, None),
            ("negative", (1, -1, 2), ValueError,
             "occupations must be non-negative, got (1, -1, 2)")]
    if name is not None:
        rows.append(("modes", (1, 1), DimensionError, f"{name} has 2 modes, expected 3"))
    if photons:
        rows.append(("photons", (1, 1, 1), DimensionError, f"{name} has 3 photons, expected 2"))
    return rows


CASES = [pytest.param(row[3], *bad, id=f"{row[0]}-{bad[0]}")
         for row in STATES for bad in _bad_states(row[1], row[2])]


@pytest.mark.parametrize("call, kind, state, error, message", CASES)
def test_every_state_entry_refuses_a_bad_state_by_one_rule_before_any_work(
        monkeypatch, call, kind, state, error, message):
    if message is None:
        message = f"occupations must be integers, got {state!r}"
    for module, attribute in UNTOUCHED:
        monkeypatch.setattr(module, attribute, _untouched)
    with pytest.raises(error) as err:
        call(state)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("row", STATES, ids=STATE_IDS)
def test_every_state_entry_takes_numpy_integer_states(row):
    _, name, _, call = row
    space_row = SPACE.occupations[SPACE.rank(GOOD)]  # int8
    for state in (space_row, np.array(GOOD), np.array(GOOD, dtype=np.uint16)):
        result = call(state)
        if name is None:  # as_state and concat_states hand back Python ints
            assert result == call(GOOD)
            assert all(type(c) is int for c in result)


@pytest.mark.parametrize("text, message", [
    ("1.5,0.5,0", "cannot parse Fock state from '1.5,0.5,0': "
                  "field '1.5' is not a count in ASCII digits"),
    ("True,1,0", "cannot parse Fock state from 'True,1,0': "
                 "field 'True' is not a count in ASCII digits"),
    ("110", "input state has 1 modes, expected 3"),  # one mode holding 110 photons
    ("1,-1,2", "cannot parse Fock state from '1,-1,2': "
               "field '-1' is not a count in ASCII digits"),
    ("1,1", "input state has 2 modes, expected 3"),
], ids=["fraction", "bool", "text", "negative", "modes"])
def test_cli_distribution_input_meets_the_state_rule(tmp_path, capsys, monkeypatch, text,
                                                     message):
    unitary = tmp_path / "u.json"
    save_matrix(unitary, EYE)
    monkeypatch.setattr(linear, "enumerate_states", _untouched)
    out = tmp_path / "d.csv"
    assert cli.main(["distribution", "--unitary", str(unitary), "--input", text,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the public names, read from their signatures
# ---------------------------------------------------------------------------

STATE_PARAMETERS = {"input_state", "output_state", "state", "occupations"}
COUNT_PARAMETERS = {"trials", "iterations", "n_unit", "n_max", "starts", "budget", "n_samples",
                    "trial_budget", "count", "workers", "seed", "threshold"}
# per-state helpers: they read states that an entry has already checked
STATE_EXEMPT = {"occupation_indices", "normalization_product", "photon_count", "format_state"}
# a result record and an error that report a count rather than take one
COUNT_EXEMPT = {"AcceptanceStats", "ExperimentRecord", "SamplingBudgetError"}
REAL_PARAMETERS = {"phi", "p", "p_th", "tol", "tolerance"}
# a record and an error that report a real, and tvd, whose p is a distribution
REAL_EXEMPT = {"ExperimentRecord", "NotUnitaryError", "tvd"}
MATRIX_PARAMETERS = {"U", "W", "V", "w", "v", "u_eff", "mat", "mats", "a", "b"}
# the batched permanent kernels read arrays their callers checked, and
# concat_states' a and b are states
MATRIX_EXEMPT = {"permanents", "gathered_permanents", "concat_states"}


def _public_parameters():
    """{public name or Class.method: its parameter names} over nlboson."""
    out = {}
    for name in dir(nlboson):
        obj = getattr(nlboson, name)
        if name.startswith("_") or not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(member)]
        for qualified, member in members:
            try:
                out[qualified] = set(inspect.signature(member).parameters)
            except (TypeError, ValueError):  # no signature to read
                pass
    return out


def test_every_public_entry_that_takes_a_state_is_in_the_state_table():
    takes = {name for name, params in _public_parameters().items() if params & STATE_PARAMETERS}
    tabled = {entry.split()[0] for entry in STATE_IDS}
    assert sorted(takes - STATE_EXEMPT - tabled) == []
    assert sorted(STATE_EXEMPT - takes) == []  # the exemptions name real helpers
    assert not STATE_EXEMPT & tabled


def test_every_public_count_is_in_the_count_table():
    takes = {(name, param) for name, params in _public_parameters().items()
             if name not in COUNT_EXEMPT for param in params & COUNT_PARAMETERS}
    tabled = {(entry, name) for name, _, entry, *_ in COUNTS}
    assert sorted(takes - tabled) == []
    assert {name for name, *_ in COUNTS} <= COUNT_PARAMETERS | {"units"}
    assert len(takes) >= 12  # the scan found the public names


def test_every_public_real_is_in_the_real_table():
    takes = {(name, param) for name, params in _public_parameters().items()
             for param in params & REAL_PARAMETERS}
    tabled = {(entry, param) for param, _, entry, _ in REALS}
    assert sorted({t for t in takes if t[0] not in REAL_EXEMPT} - tabled) == []
    assert sorted(tabled - takes) == []  # every row names a real parameter
    assert sorted(REAL_EXEMPT - {name for name, _ in takes}) == []
    assert len(tabled) == len(REALS) >= 15  # the scan found the public names


def test_every_public_matrix_is_in_the_matrix_table():
    takes = {(name, param) for name, params in _public_parameters().items()
             for param in params & MATRIX_PARAMETERS}
    tabled = {(entry, param) for entry, param, *_ in MATRICES}
    assert sorted({t for t in takes if t[0] not in MATRIX_EXEMPT} - tabled) == []
    assert sorted(tabled - takes) == []  # every row names a matrix parameter
    assert sorted(MATRIX_EXEMPT - {name for name, _ in takes}) == []
    assert len(tabled) == len(MATRICES) >= 30  # the scan found the public names
