"""Every real a caller passes -- a phase, a probability threshold, a tolerance
-- goes through one check, `linalg._checked_real`: an int or float of any type
(numpy's included), never a bool, a string, a complex, None or an array, and
finite.  It comes back as a Python float, refused with one of two messages
before any Haar draw, synthesis or permanent.  test_states checks that every
public real is in the table below."""

import builtins
import json
import math

import numpy as np
import pytest

from nlboson import (
    GadgetSpec,
    GadgetSynthesisError,
    SingleModePhase,
    fraction_for_threshold,
    gadget_from_json,
    gadget_residuals,
    gadget_to_json,
    linearized_evolution,
    load_gadget,
    matrix_to_json,
    optimize_gadget,
    output_distribution,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    phase_shifter,
    reference_gadget,
    require_unitary,
    save_gadget,
    success_bound,
    synthesize_gadgets,
    tvd_bunching_experiment,
    verify_gadget,
)
from nlboson import analysis, gadget, linalg, nonlinear
from nlboson.linalg import _checked_real

EYE = np.eye(3)
GOOD = (1, 1, 0)
DIST = output_distribution(EYE, GOOD)
GADGET = reference_gadget(2)


def _untouched(*args, **kwargs):
    raise AssertionError("did work before checking its reals")


# what an entry may not reach before its reals are checked: the Haar draw,
# synthesis, the start of a search, the permanents and the unitarity gate
UNTOUCHED = [(analysis, "haar_unitary"), (analysis, "optimize_gadget"),
             (analysis, "sorted_cumulative"), (gadget, "_random_raw"),
             (gadget, "_expanded_permanents"), (gadget, "_ryser_gray"),
             (linalg, "permanents"), (linalg, "_ryser_gray"), (linalg, "_deviation"),
             (nonlinear, "permanent")]


def _no_scipy(real_import):
    def guarded(name, *args, **kwargs):
        if name.split(".")[0] == "scipy":
            raise AssertionError("imported scipy before checking its reals")
        return real_import(name, *args, **kwargs)

    return guarded


def _search(**reals):
    args = {"phi": 1.0, "p_th": 0.1, **reals}
    return optimize_gadget(2, args["phi"], args["p_th"], starts=1, budget=1,
                           rng=np.random.default_rng(0))


# (parameter, the name its messages give it, the entry, call(value))
REALS = [
    ("phi", "phi", "SingleModePhase", lambda v: SingleModePhase(1, v)),
    ("phi", "phi", "GadgetSpec", lambda v: GadgetSpec(v, np.eye(3))),
    ("phi", "phi", "gadget_residuals", lambda v: gadget_residuals(GADGET.u_eff, v)),
    ("phi", "phi", "phase_shifter", lambda v: phase_shifter(3, 2, v)),
    ("phi", "phi", "linearized_evolution", lambda v: linearized_evolution(EYE, 2, v, EYE)),
    ("phi", "phi", "phase_gate_amplitude",
     lambda v: phase_gate_amplitude(EYE, 2, v, EYE, GOOD, GOOD)),
    ("phi", "phi", "phase_gate_amplitude_split",
     lambda v: phase_gate_amplitude_split(EYE, 2, v, EYE, GOOD, GOOD)),
    ("phi", "phi", "success_bound", success_bound),
    ("phi", "phi", "optimize_gadget", lambda v: _search(phi=v)),
    ("p_th", "p_th", "optimize_gadget", lambda v: _search(p_th=v)),
    ("phi", "phi", "synthesize_gadgets", lambda v: synthesize_gadgets([1], v, 0)),
    ("phi", "phi", "tvd_bunching_experiment",
     lambda v: tvd_bunching_experiment(1, [2], [1], v, trials=1, seed=0, reference="pathsum")),
    ("p", "threshold", "fraction_for_threshold", lambda v: fraction_for_threshold(DIST, v)),
    ("tol", "tol", "verify_gadget", lambda v: verify_gadget(GADGET, tol=v)),
    ("tol", "tol", "require_unitary", lambda v: require_unitary(EYE, tol=v)),
]
REAL_IDS = [f"{entry} {param}" for param, _, entry, _ in REALS]

BAD = [
    ("bool", True, "{name} must be a real number, got True"),
    ("string", "0.5", "{name} must be a real number, got '0.5'"),
    ("complex", 0.5 + 0j, "{name} must be a real number, got (0.5+0j)"),
    ("none", None, "{name} must be a real number, got None"),
    ("array", np.array([0.5]), "{name} must be a real number, got array([0.5])"),
    ("nan", math.nan, "{name} must be finite, got {name}=nan"),
    ("inf", math.inf, "{name} must be finite, got {name}=inf"),
]


# p_th=None asks for the default threshold of k, so None is no bad p_th
CASES = [pytest.param(name, call, value, template, id=f"{row_id}-{kind}")
         for (param, name, _, call), row_id in zip(REALS, REAL_IDS)
         for kind, value, template in BAD if not (param == "p_th" and value is None)]


@pytest.mark.parametrize("name, call, value, template", CASES)
def test_every_real_is_refused_by_one_rule_before_any_work(monkeypatch, name, call, value,
                                                           template):
    for module, attribute in UNTOUCHED:
        monkeypatch.setattr(module, attribute, _untouched)
    monkeypatch.setattr(builtins, "__import__", _no_scipy(builtins.__import__))
    with pytest.raises(ValueError) as err:
        call(value)
    assert type(err.value) is ValueError
    assert str(err.value) == template.format(name=name)


@pytest.mark.parametrize("param, name, entry, call", REALS, ids=REAL_IDS)
def test_every_real_may_be_a_numpy_float_or_integer(param, name, entry, call):
    values = [np.float32(0.5), np.float64(0.5)]
    if param != "p_th":  # p_th lies in (0, 1), so no integer is one
        values.append(np.int64(1))
    for value in values:
        try:
            call(value)
        except GadgetSynthesisError:  # the capped search found no gadget: the rule passed
            pass


@pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5), np.float64(0.5), np.int64(1),
                                   np.uint8(1), -2])
def test_a_real_comes_back_as_a_python_float(value):
    checked = _checked_real(value, "x")
    assert type(checked) is float and checked == float(value)


def test_an_integer_beyond_the_float_range_is_not_finite():
    with pytest.raises(ValueError, match="^x must be finite, got x=1000"):
        _checked_real(10**400, "x")


@pytest.mark.parametrize("value", [np.float32(1.25), np.int64(1), 1])
def test_every_phase_is_stored_as_a_python_float(value):
    stored = [
        SingleModePhase(1, value).phi,
        GadgetSpec(value, np.eye(3)).phi,
        optimize_gadget(1, value).phi,
        verify_gadget(GadgetSpec(value, np.eye(2)))["phi"],
        synthesize_gadgets([1], value, 0)[1].phi,
        tvd_bunching_experiment(1, [2], [1], value, trials=1, seed=0,
                                reference="pathsum")[0].phi,
    ]
    assert all(type(phi) is float and phi == float(value) for phi in stored)


# ---------------------------------------------------------------------------
# regressions: reals that were read through float() or not checked at all
# ---------------------------------------------------------------------------

def test_a_nan_tolerance_does_not_switch_the_unitarity_gate_off():
    with pytest.raises(ValueError) as err:
        require_unitary(2 * np.eye(2), tol=math.nan)
    assert str(err.value) == "tol must be finite, got tol=nan"
    with pytest.raises(ValueError) as err:
        require_unitary(np.eye(2), tol=0)
    assert str(err.value) == "tolerance must be positive and finite, got tol=0.0"


def test_a_bool_phase_never_reaches_a_gadget_file(tmp_path):
    with pytest.raises(ValueError, match="^phi must be a real number, got True$"):
        optimize_gadget(1, True)
    path = tmp_path / "g.json"
    obj = gadget_to_json(optimize_gadget(1, 1))
    assert obj["phi"] == 1.0 and type(obj["phi"]) is float
    path.write_text(json.dumps({**obj, "phi": True}))
    with pytest.raises(ValueError, match="^phi must be a real number, got True$"):
        load_gadget(path)


@pytest.mark.parametrize("phi", [np.float32(1.57), np.int64(1)])
def test_a_numpy_phase_saves_and_loads_as_its_float(tmp_path, phi):
    path = tmp_path / "g.json"
    spec = GadgetSpec(phi, GADGET.u_eff)
    save_gadget(path, spec)
    back = load_gadget(path)
    assert back.phi == float(phi) and type(back.phi) is float
    assert back.residual == spec.residual


@pytest.mark.parametrize("phi", ["1.5707963267948966", True, None, [1.5]])
def test_a_gadget_file_phase_must_be_a_json_number(phi):
    obj = {"k": 1, "phi": phi, "u_eff": matrix_to_json(np.eye(2))}
    with pytest.raises(ValueError) as err:
        gadget_from_json(json.loads(json.dumps(obj)))
    assert str(err.value) == f"phi must be a real number, got {phi!r}"


def test_a_study_refuses_a_nan_phase_before_comparing_gadgets(monkeypatch):
    monkeypatch.setattr(analysis, "haar_unitary", _untouched)
    with pytest.raises(ValueError) as err:
        tvd_bunching_experiment(1, [2], [1], math.nan, 1, 0,
                                gadgets={1: optimize_gadget(1, 1.0)})
    assert str(err.value) == "phi must be finite, got phi=nan"


def _computed(result) -> np.ndarray:
    """The numbers an entry computed from its phase, not the phase it stores."""
    if isinstance(result, SingleModePhase):
        parts = [result.number_factors(3), result.linearized_factors(3)]
    elif isinstance(result, GadgetSpec):
        parts = [result.u_eff, [result.residual, result.success_prob]]
    elif isinstance(result, dict):  # synthesized gadgets by ancilla count
        parts = [_computed(spec) for spec in result.values()]
    elif isinstance(result, list):  # study records
        parts = [[r.tvd, r.p_bunch_site, r.p_bunch_global, r.p_postselect] for r in result]
    else:
        parts = [result]
    return np.concatenate([np.ravel(np.asarray(p, dtype=complex)) for p in parts])


def _phase_result(call, phi):
    try:
        return call(phi)
    except GadgetSynthesisError as err:  # the one-step search: its best attempt
        return err.best


PHASE_ROWS = [row for row in REALS if row[0] == "phi"]


def _residue(phi: float) -> float:
    """phi mod 2 pi in [-pi, pi], from libm's exactly reduced sine and cosine."""
    return math.atan2(math.sin(phi), math.cos(phi))


HUGE = [1e10, 1e15, 1e308, -1e308]


@pytest.mark.parametrize("phi", HUGE)
@pytest.mark.parametrize("call", [row[3] for row in PHASE_ROWS],
                         ids=[row[2] for row in PHASE_ROWS])
def test_a_huge_phase_computes_as_its_residue_mod_two_pi(call, phi):
    # a multiple j^2 phi of 1e308 would overflow to inf, and the float 2*pi is
    # no period: fmod(phi, 2*pi) misses the residue by 2e-6 rad at 1e10
    huge = _computed(_phase_result(call, phi))
    assert np.isfinite(huge).all()
    assert np.allclose(huge, _computed(_phase_result(call, _residue(phi))), rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", HUGE)
def test_a_huge_phase_gate_factor_is_the_power_of_its_unit_factor(phi):
    # exp(-i j^2 phi) = exp(-i phi)^(j^2), with exp(-i phi) from libm's cos and sin
    unit = complex(math.cos(phi), -math.sin(phi))
    gate = SingleModePhase(1, phi)
    assert np.allclose(gate.number_factors(4), [unit ** (j * j) for j in range(5)],
                       rtol=0, atol=1e-13)
    assert np.allclose(gate.linearized_factors(4), [unit ** j for j in range(5)],
                       rtol=0, atol=1e-13)
    assert phase_shifter(2, 1, phi)[0, 0] == unit


def test_a_range_check_runs_after_the_rule_and_keeps_its_wording():
    with pytest.raises(ValueError, match=r"^success threshold must be in \(0, 1\), got 1.0$"):
        _search(p_th=np.int64(1))
    with pytest.raises(ValueError, match=r"^threshold must be in \(0, 1\], got 2.0$"):
        fraction_for_threshold(DIST, np.float32(2))

