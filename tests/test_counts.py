"""Every count a caller passes goes through one check, `linalg._checked_count`:
an integer (numpy's included, a bool not) of at least its minimum, refused with
one of two messages before any Haar draw, synthesis or sampling."""

import argparse
import math

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    build_setup,
    enumerate_states,
    haar_unitary,
    optimize_gadget,
    random_unitary_search,
    run_rejection_sampling,
    sample_exact,
    space_size,
    synthesize_gadgets,
    truncated_mass_study,
    tvd_bunching_experiment,
)
from nlboson import NonlinearExperiment, SingleModePhase, analysis, cli, gadget, linear, simulate
from nlboson.linalg import _checked_count

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _untouched(*args, **kwargs):
    raise AssertionError("did work before checking its counts")


def _setup():
    return build_setup(np.eye(3), np.eye(3), 2, (1, 1, 0), optimize_gadget(1, 0.7))


def _tvd_study(**counts):
    return tvd_bunching_experiment(2, [3], [1, 2], 1.0, **{"trials": 1, "seed": 0, **counts})


def _cumulative(units, tmp_path):
    args = argparse.Namespace(n=2, m=3, units=units, thresholds="0.9", seed=0,
                              out=str(tmp_path / "cum.csv"))
    return cli._cmd_analyze_cumulative(args)


# (name, minimum, call(value, tmp_path), (module, attribute) pairs that must stay unused)
COUNTS = [
    ("n_unit", 1, lambda v, _: truncated_mass_study(2, 3, 1, v, np.random.default_rng(0)),
     [(analysis, "haar_unitary")]),
    ("n_max", 0, lambda v, _: truncated_mass_study(2, 3, v, 2, np.random.default_rng(0)),
     [(analysis, "haar_unitary")]),
    ("iterations", 1,
     lambda v, _: random_unitary_search(NonlinearExperiment(BS, BS, SingleModePhase(1, 0.7),
                                                            (1, 1)), v, np.random.default_rng(0)),
     [(analysis, "haar_unitary"), (analysis, "nonlinear_distribution")]),
    ("trials", 1, lambda v, _: _tvd_study(trials=v),
     [(analysis, "haar_unitary"), (analysis, "optimize_gadget")]),
    ("workers", 1, lambda v, _: _tvd_study(workers=v),
     [(analysis, "haar_unitary"), (analysis, "optimize_gadget")]),
    ("seed", 0, lambda v, _: _tvd_study(seed=v),
     [(analysis, "haar_unitary"), (analysis, "optimize_gadget")]),
    ("starts", 1, lambda v, _: optimize_gadget(2, 1.0, 0.1, starts=v, rng=np.random.default_rng(0)),
     [(gadget, "_random_raw")]),
    ("budget", 1, lambda v, _: optimize_gadget(2, 1.0, 0.1, budget=v, rng=np.random.default_rng(0)),
     [(gadget, "_random_raw")]),
    ("units", 1, lambda v, tmp_path: _cumulative(v, tmp_path), [(cli, "haar_unitary")]),
    ("n_samples", 1, lambda v, _: run_rejection_sampling(_setup(), v, np.random.default_rng(0)),
     [(simulate, "_enlarged_output_probs")]),
    ("trial_budget", 1,
     lambda v, _: run_rejection_sampling(_setup(), 5, np.random.default_rng(0), trial_budget=v),
     [(simulate, "_enlarged_output_probs")]),
    ("count", 0, lambda v, _: sample_exact(np.eye(2), (1, 0), v, np.random.default_rng(0)),
     [(linear, "output_distribution")]),
]


@pytest.mark.parametrize("name, minimum, call, unused", COUNTS, ids=[c[0] for c in COUNTS])
@pytest.mark.parametrize("kind", ["fraction", "bool", "string", "below-minimum"])
def test_every_count_is_refused_by_one_rule_before_any_work(monkeypatch, tmp_path, name,
                                                            minimum, call, unused, kind):
    value, message = {
        "fraction": (2.5, f"{name} must be an integer, got 2.5"),
        "bool": (True, f"{name} must be an integer, got True"),
        "string": ("3", f"{name} must be an integer, got '3'"),
        "below-minimum": (minimum - 1,
                          f"{name} must be at least {minimum}, got {name}={minimum - 1}"),
    }[kind]
    for module, attribute in unused:
        monkeypatch.setattr(module, attribute, _untouched)
    with pytest.raises(ValueError) as err:
        call(value, tmp_path)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_a_count_may_be_any_integer_type():
    for value in (3, np.int64(3), np.uint8(3), np.int32(3)):
        checked = _checked_count(value, "count", 0)
        assert checked == 3 and type(checked) is int
    assert optimize_gadget(np.int64(1), 0.7, starts=np.int32(1), budget=np.int64(1)).k == 1


# Dimensions -- mode counts, photon numbers, ancilla counts -- follow the same
# integer rule and wording, and raise DimensionError as their range checks do.

@pytest.mark.parametrize("call, message", [
    (lambda: space_size(2.5, 1), "m must be an integer, got 2.5"),
    (lambda: space_size(3, 2.0), "n must be an integer, got 2.0"),
    (lambda: space_size(True, 1), "m must be an integer, got True"),
    (lambda: haar_unitary(2.5, np.random.default_rng(0)), "m must be an integer, got 2.5"),
    (lambda: truncated_mass_study(2.5, 3, 1, 2, np.random.default_rng(0)),
     "n must be an integer, got 2.5"),
    (lambda: truncated_mass_study(2, 3.0, 1, 2, np.random.default_rng(0)),
     "m must be an integer, got 3.0"),
], ids=["space m", "space n", "space bool", "haar m", "truncation n", "truncation m"])
def test_a_dimension_must_be_an_integer(call, message):
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 2.9}, "n must be an integer, got 2.9"),
    ({"n": True}, "n must be an integer, got True"),
    ({"m_list": [5, 3.7]}, "m must be an integer, got 3.7"),
    ({"k_list": [1, 1.5]}, "k must be an integer, got 1.5"),
    ({"k_list": [1.0]}, "k must be an integer, got 1.0"),
    ({"n": -1}, "n must be at least 0, got n=-1"),
    ({"k_list": [0]}, "k must be at least 1, got k=0"),
], ids=["fractional n", "bool n", "fractional m", "fractional k", "float k", "negative n",
        "zero k"])
def test_the_study_refuses_a_dimension_that_is_not_an_integer_first(monkeypatch, kwargs,
                                                                    message):
    monkeypatch.setattr(analysis, "haar_unitary", _untouched)
    monkeypatch.setattr(analysis, "optimize_gadget", _untouched)
    args = {"n": 2, "m_list": [5, 3], "k_list": [1, 2], "phi": 1.0, "trials": 1, "seed": 0}
    args.update(kwargs)
    with pytest.raises(DimensionError) as err:
        tvd_bunching_experiment(**args)
    assert str(err.value) == message


@pytest.mark.parametrize("k, message", [
    (2.0, "k must be an integer, got 2.0"),
    (1.0, "k must be an integer, got 1.0"),
    (True, "k must be an integer, got True"),
    (0, "k must be at least 1, got k=0"),
    (5, "gadget synthesis supports ancilla counts 1..4, got k=5"),
])
def test_synthesis_checks_its_ancilla_count_one_way(monkeypatch, k, message):
    monkeypatch.setattr(gadget, "_random_raw", _untouched)
    with pytest.raises(DimensionError) as err:
        optimize_gadget(k, 1.0)
    assert str(err.value) == message
    monkeypatch.setattr(analysis, "optimize_gadget", _untouched)
    with pytest.raises(DimensionError) as err:
        synthesize_gadgets([2, k], 1.0, seed=0)
    assert str(err.value) == message


def test_a_numpy_integer_dimension_reads_as_a_plain_int():
    assert enumerate_states(np.int64(3), np.int32(2)) is enumerate_states(3, 2)
    records = tvd_bunching_experiment(np.int64(2), [np.int64(3)], [np.int64(1)], 1.0, trials=1,
                                      seed=np.int64(0), reference="pathsum")
    assert all(type(getattr(r, f)) is int for r in records for f in ("n", "m", "k", "seed"))
