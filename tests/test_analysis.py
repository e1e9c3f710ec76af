import math

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    GadgetSpec,
    NonlinearExperiment,
    NotUnitaryError,
    SingleModePhase,
    bunching_at_site,
    bunching_global,
    default_gate_mode,
    enumerate_states,
    fraction_for_threshold,
    haar_unitary,
    nonlinear_distribution,
    optimize_gadget,
    output_distribution,
    random_unitary_search,
    reference_gadget,
    sorted_cumulative,
    summarize_records,
    truncated_mass_study,
    tvd,
    tvd_bunching_experiment,
    write_records_csv,
)
from nlboson import analysis, linalg
from nlboson.linear import Distribution

from .conftest import check_contexts

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def point_mass(space, state):
    probs = np.zeros(len(space))
    probs[space.rank(state)] = 1.0
    return Distribution(space, probs)


# ---------------------------------------------------------------------------
# total variation distance
# ---------------------------------------------------------------------------

def test_tvd_zero_on_equal():
    dist = output_distribution(BS, (1, 1))
    assert tvd(dist, dist) == 0.0


def test_tvd_disjoint_point_masses():
    space = enumerate_states(2, 2)
    assert tvd(point_mass(space, (2, 0)), point_mass(space, (0, 2))) == 1.0


def test_tvd_metric_properties():
    rng = np.random.default_rng(80)
    space = enumerate_states(3, 2)
    dists = []
    for _ in range(3):
        p = rng.random(len(space))
        dists.append(Distribution(space, p / p.sum()))
    a, b, c = dists
    assert tvd(a, b) == pytest.approx(tvd(b, a))
    assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-12
    assert tvd(a, a) < 1e-12


def test_tvd_space_mismatch():
    p = output_distribution(BS, (1, 1))
    q = output_distribution(np.eye(3), (1, 1, 0))
    with pytest.raises(DimensionError):
        tvd(p, q)


# ---------------------------------------------------------------------------
# bunching
# ---------------------------------------------------------------------------

def test_bunching_vanishes_above_photon_number():
    rng = np.random.default_rng(81)
    w = haar_unitary(3, rng)
    assert bunching_at_site(w, (1, 1, 0), 1, 2) == 0.0
    assert bunching_global(w, (1, 1, 0), 2) == 0.0


def test_bunching_hong_ou_mandel():
    assert bunching_at_site(BS, (1, 1), 1, 1) == pytest.approx(0.5)
    assert bunching_global(BS, (1, 1), 1) == pytest.approx(1.0)


def test_no_bunching_without_mixing():
    assert bunching_at_site(np.eye(4), (1, 1, 0, 0), 1, 1) == 0.0


def test_global_bunching_dominates_site_bunching():
    rng = np.random.default_rng(82)
    for _ in range(5):
        w = haar_unitary(4, rng)
        s = (1, 1, 1, 0)
        site = bunching_at_site(w, s, 2, 1)
        assert bunching_global(w, s, 1) >= site - 1e-12


def test_site_bunching_complement():
    rng = np.random.default_rng(83)
    w = haar_unitary(4, rng)
    s = (1, 1, 1, 0)
    dist = output_distribution(w, s)
    below = sum(p for state, p in dist.as_dict().items() if state[1] <= 1)
    assert below + bunching_at_site(w, s, 2, 1) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# cumulative fractions
# ---------------------------------------------------------------------------

def test_fraction_uniform_distribution():
    space = enumerate_states(4, 2)  # 10 outcomes
    uniform = Distribution(space, np.full(10, 0.1))
    assert fraction_for_threshold(uniform, 0.9) == pytest.approx(0.9)


def test_fraction_point_mass():
    space = enumerate_states(4, 2)
    pm = point_mass(space, (1, 1, 0, 0))
    for p in (0.1, 0.5, 0.99, 1.0):
        assert fraction_for_threshold(pm, p) == pytest.approx(1 / 10)


def test_fraction_monotone_in_threshold():
    rng = np.random.default_rng(84)
    dist = output_distribution(haar_unitary(5, rng), (1, 1, 1, 0, 0))
    fractions = [fraction_for_threshold(dist, p) for p in (0.5, 0.7, 0.9, 0.99)]
    assert fractions == sorted(fractions)


def test_sorted_cumulative_shapes():
    dist = output_distribution(BS, (1, 1))
    ordered, cum = sorted_cumulative(dist)
    assert list(ordered) == sorted(dist.probs, reverse=True)
    assert cum[-1] == pytest.approx(1.0)


def test_fraction_threshold_validation():
    dist = output_distribution(BS, (1, 1))
    with pytest.raises(ValueError):
        fraction_for_threshold(dist, 0.0)


# ---------------------------------------------------------------------------
# truncation study
# ---------------------------------------------------------------------------

def test_truncation_full_cap_keeps_everything():
    result = truncated_mass_study(2, 4, 2, 5, np.random.default_rng(85))
    assert result.mean == pytest.approx(1.0, abs=1e-12)


def test_truncation_study_shape_and_range():
    result = truncated_mass_study(2, 4, 1, 10, np.random.default_rng(86))
    assert len(result.samples) == 10
    assert 0.0 < result.mean < 1.0
    assert result.stddev >= 0.0


def test_truncation_requires_a_unit():
    with pytest.raises(ValueError, match="n_unit=0"):
        truncated_mass_study(2, 4, 1, 0, np.random.default_rng(88))


def test_truncation_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="n_max=-1"):
        truncated_mass_study(2, 4, -1, 2, np.random.default_rng(89))


def test_truncation_requires_enough_modes():
    with pytest.raises(DimensionError):
        truncated_mass_study(5, 3, 2, 2, np.random.default_rng(87))


# ---------------------------------------------------------------------------
# random search for a linear stand-in
# ---------------------------------------------------------------------------

def test_search_trace_non_increasing():
    rng = np.random.default_rng(88)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    exp = NonlinearExperiment(w, v, SingleModePhase(2, math.pi / 2), (1, 1, 0))
    result = random_unitary_search(exp, 200, np.random.default_rng(89))
    assert np.all(np.diff(result.trace) <= 0)
    assert result.best_tvd == result.trace[-1]


def test_search_reports_the_target_it_measured_against():
    rng = np.random.default_rng(95)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    exp = NonlinearExperiment(w, v, SingleModePhase(2, 0.9), (1, 1, 0))
    result = random_unitary_search(exp, 20, np.random.default_rng(96))
    assert np.array_equal(result.target.probs, nonlinear_distribution(exp).probs)
    best = output_distribution(result.best_unitary, exp.input_state)
    assert tvd(best, result.target) == result.best_tvd


def test_search_zero_phase_target_is_reachable():
    # at phi = 0 the target is itself a linear evolution, so on a tiny system
    # random draws get close quickly
    rng = np.random.default_rng(90)
    w, v = haar_unitary(2, rng), haar_unitary(2, rng)
    exp = NonlinearExperiment(w, v, SingleModePhase(1, 0.0), (1, 1))
    result = random_unitary_search(exp, 400, np.random.default_rng(91))
    assert result.best_tvd < 0.05


@pytest.mark.parametrize("iterations", [0, -5])
def test_search_refuses_too_few_iterations_before_any_work(monkeypatch, iterations):
    def untouched(*args, **kwargs):
        raise AssertionError("computed the target before checking iterations")

    monkeypatch.setattr(analysis, "nonlinear_distribution", untouched)
    exp = NonlinearExperiment(BS, BS, SingleModePhase(1, 0.7), (1, 1))
    with pytest.raises(ValueError, match=f"iterations={iterations}"):
        random_unitary_search(exp, iterations, np.random.default_rng(94))


def test_search_deterministic():
    rng = np.random.default_rng(92)
    w, v = haar_unitary(2, rng), haar_unitary(2, rng)
    exp = NonlinearExperiment(w, v, SingleModePhase(1, 0.7), (1, 1))
    a = random_unitary_search(exp, 50, np.random.default_rng(93))
    b = random_unitary_search(exp, 50, np.random.default_rng(93))
    assert np.array_equal(a.trace, b.trace)


# ---------------------------------------------------------------------------
# TVD-vs-bunching driver
# ---------------------------------------------------------------------------

def test_default_gate_mode_is_central():
    assert default_gate_mode(9) == 5
    assert default_gate_mode(16) == 9
    assert default_gate_mode(5) == 3
    assert default_gate_mode(27) == 14


def test_experiment_records_structure(gadget_k1, gadget_k2):
    records = tvd_bunching_experiment(
        2, [3, 4], [1], math.pi / 2, trials=3, seed=7,
        gadgets={1: gadget_k1, 2: gadget_k2},
    )
    assert len(records) == 6
    assert {r.m for r in records} == {3, 4}
    assert all(r.k == 1 and r.n == 2 and r.seed == 7 for r in records)
    assert all(0 <= r.tvd <= 1 and 0 <= r.p_bunch_site <= 1 for r in records)
    assert all(r.p_bunch_global >= r.p_bunch_site - 1e-12 for r in records)


def test_experiment_exactness_row(gadget_k2):
    # k = n rows sit within the gadget's residual of the ideal-gate reference
    records = tvd_bunching_experiment(
        2, [3], [2], math.pi / 2, trials=2, seed=8, gadgets={2: gadget_k2}
    )
    assert all(r.tvd < 1e-8 for r in records)


def test_experiment_reference_pathsum_matches_gadget(gadget_k1, gadget_k2):
    shared = dict(gadgets={1: gadget_k1, 2: gadget_k2}, mode_x=2)
    via_gadget = tvd_bunching_experiment(
        2, [3], [1], math.pi / 2, trials=3, seed=9, reference="gadget", **shared
    )
    via_pathsum = tvd_bunching_experiment(
        2, [3], [1], math.pi / 2, trials=3, seed=9, reference="pathsum", **shared
    )
    for a, b in zip(via_gadget, via_pathsum):
        assert a.tvd == pytest.approx(b.tvd, abs=1e-8)


def test_experiment_deterministic_and_worker_independent(gadget_k1, gadget_k2):
    kwargs = dict(gadgets={1: gadget_k1, 2: gadget_k2})
    a = tvd_bunching_experiment(2, [3, 4], [1, 2], math.pi / 2, trials=2, seed=10, **kwargs)
    b = tvd_bunching_experiment(2, [3, 4], [1, 2], math.pi / 2, trials=2, seed=10, **kwargs)
    assert a == b
    c = tvd_bunching_experiment(
        2, [3, 4], [1, 2], math.pi / 2, trials=2, seed=10, workers=2, **kwargs
    )
    assert a == c


def test_more_ancillas_rarely_hurt(gadget_k1, gadget_k2):
    # paired over 50 Haar draws: the two-ancilla simulation should beat the
    # one-ancilla simulation at least 90% of the time
    records = tvd_bunching_experiment(
        3, [6], [1, 2], math.pi / 2, trials=50, seed=13,
        gadgets={1: gadget_k1, 2: gadget_k2},
    )
    by_trial = {}
    for r in records:
        by_trial.setdefault(r.trial, {})[r.k] = r.tvd
    wins = sum(1 for pair in by_trial.values() if pair[2] <= pair[1])
    assert wins >= 0.9 * len(by_trial)


def test_experiment_rejects_more_photons_than_modes():
    # no gadget map: the check must fire before any synthesis or Haar draw
    with pytest.raises(DimensionError, match="n=3, m=2"):
        tvd_bunching_experiment(3, [4, 2], [1], 1.0, trials=1, seed=0)


@pytest.mark.parametrize("k_list", [[0], [1, -2], [5], [2, 7]])
def test_experiment_rejects_bad_ancilla_counts_first(k_list, monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("drew or synthesized before validating k")

    monkeypatch.setattr(analysis, "optimize_gadget", untouched)
    monkeypatch.setattr(analysis, "haar_unitary", untouched)
    bad = next(k for k in k_list if not 1 <= k <= 4)
    with pytest.raises(DimensionError, match=f"k={bad}"):
        tvd_bunching_experiment(2, [3], k_list, 1.0, trials=1, seed=0)


def test_experiment_rejects_no_trials_first(monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("drew or synthesized before validating trials")

    monkeypatch.setattr(analysis, "optimize_gadget", untouched)
    monkeypatch.setattr(analysis, "haar_unitary", untouched)
    with pytest.raises(ValueError, match="trials=0"):
        tvd_bunching_experiment(2, [3], [1, 2], 1.0, trials=0, seed=0)


def test_single_photons_reject_a_negative_photon_number():
    with pytest.raises(DimensionError, match="n=-1"):
        analysis._single_photons(-1, 3)


@pytest.mark.parametrize("kwargs, error, message", [
    ({"n": -1}, DimensionError, "n=-1"),
    ({"reference": "path"}, ValueError, "'path'"),
    ({"mode_x": 9}, DimensionError, "mode_x=9 out of range \\[1, 5\\]"),
    ({"mode_x": 0}, DimensionError, "mode_x=0 out of range \\[1, 5\\]"),
    ({"workers": 0}, ValueError, "workers=0"),
    ({"workers": -2}, ValueError, "workers=-2"),
    ({"k_list": [1, 2, 1]}, ValueError, r"each k may be listed once, got k=\[1, 2, 1\]"),
    ({"m_list": [5, 9, 5]}, ValueError, r"each m may be listed once, got m=\[5, 9, 5\]"),
])
def test_experiment_rejects_bad_arguments_first(kwargs, error, message, monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("drew or synthesized before validating the arguments")

    monkeypatch.setattr(analysis, "synthesize_gadgets", untouched)
    monkeypatch.setattr(analysis, "haar_unitary", untouched)
    args = {"n": 3, "m_list": [9, 5], "k_list": [1], "phi": 1.0, "trials": 1, "seed": 0}
    args.update(kwargs)
    with pytest.raises(error, match=message):
        tvd_bunching_experiment(**args)


def test_experiment_rejects_nonpositive_k_with_a_gadget_map(gadget_k1, gadget_k2):
    with pytest.raises(DimensionError, match="k=0"):
        tvd_bunching_experiment(2, [3], [0, 1], 1.0, trials=1, seed=0,
                                gadgets={0: gadget_k1, 1: gadget_k1, 2: gadget_k2})


def test_experiment_missing_gadget_detected(gadget_k1):
    with pytest.raises(ValueError, match=r"missing ancilla counts \[2\]"):
        tvd_bunching_experiment(
            2, [3], [1], math.pi / 2, trials=1, seed=1, gadgets={1: gadget_k1},
            reference="gadget",
        )


def test_default_reference_needs_only_the_listed_gadgets(gadget_k1, gadget_k2):
    # the ideal gate is the default reference, so no k = n = 3 gadget is needed
    args = (3, [5], [1, 2], math.pi / 2)
    kwargs = dict(trials=2, seed=14, gadgets={1: gadget_k1, 2: gadget_k2})
    records = tvd_bunching_experiment(*args, **kwargs)
    assert [(r.k, r.trial) for r in records] == [(1, 0), (2, 0), (1, 1), (2, 1)]
    assert records == tvd_bunching_experiment(*args, reference="pathsum", **kwargs)
    with pytest.raises(ValueError, match=r"gadget map is missing ancilla counts \[3\]"):
        tvd_bunching_experiment(*args, reference="gadget", **kwargs)


def _refuses_before_drawing(monkeypatch, error, message, **kwargs):
    def untouched(*args, **kwargs):
        raise AssertionError("drew a trial before checking the gadget map")

    monkeypatch.setattr(analysis, "haar_unitary", untouched)
    with pytest.raises(error, match=message):
        tvd_bunching_experiment(2, [3], [1, 2], math.pi / 2, trials=1, seed=1, **kwargs)


def test_experiment_refuses_a_gadget_filed_under_another_k(gadget_k1, monkeypatch):
    _refuses_before_drawing(monkeypatch, DimensionError,
                            r"gadget map entry k=2 holds a k=3 gadget",
                            gadgets={1: gadget_k1, 2: reference_gadget(3)})


def test_experiment_refuses_a_gadget_of_another_phase(gadget_k2, monkeypatch):
    _refuses_before_drawing(monkeypatch, ValueError,
                            r"gadget map entry k=1 realises phi=0.3, not the experiment's",
                            gadgets={1: optimize_gadget(1, 0.3), 2: gadget_k2})
    # pi/2 gadgets in a phi = 0.3 study: the reference gadget (k = n) is checked too
    with pytest.raises(ValueError, match=r"gadget map entry k=2 realises phi=1.5707963267948966"):
        tvd_bunching_experiment(2, [3], [1], 0.3, trials=1, seed=1, reference="gadget",
                                gadgets={1: optimize_gadget(1, 0.3), 2: gadget_k2})


def test_experiment_refuses_a_gadget_beyond_the_gate(gadget_k1, monkeypatch):
    ref = reference_gadget(2)
    bad = GadgetSpec(ref.phi, 2 * ref.u_eff)
    _refuses_before_drawing(monkeypatch, NotUnitaryError, "gadget k=2",
                            gadgets={1: gadget_k1, 2: bad})
    # the reference gadget (k = n) is gated too, with k = n absent from k_list
    with pytest.raises(NotUnitaryError, match="gadget k=2"):
        tvd_bunching_experiment(2, [3], [1], math.pi / 2, trials=1, seed=1,
                                reference="gadget", gadgets={1: gadget_k1, 2: bad})
    # an entry that also targets another phase is refused by the gate first
    with pytest.raises(NotUnitaryError, match="gadget k=2"):
        tvd_bunching_experiment(2, [3], [1], math.pi / 2, trials=1, seed=1,
                                reference="gadget",
                                gadgets={1: gadget_k1, 2: GadgetSpec(0.3, bad.u_eff)})


def test_each_trial_checks_its_networks_once(gadget_k1, gadget_k2, spy):
    checks = spy(linalg, "_unitarity_gate")
    tvd_bunching_experiment(2, [3], [1, 2], math.pi / 2, trials=3, seed=11,
                            gadgets={1: gadget_k1, 2: gadget_k2})
    # W and V once per trial; the bunching masses reuse the checked W
    networks = [c for c in check_contexts(checks) if not c.startswith("gadget")]
    assert networks == ["V"] * 3 + ["W"] * 3


def test_each_trial_computes_the_deviations_of_its_networks_once(gadget_k1, gadget_k2, spy):
    deviations = spy(linalg, "_deviation")
    tvd_bunching_experiment(2, [3], [1, 2], math.pi / 2, trials=3, seed=11,
                            gadgets={1: gadget_k1, 2: gadget_k2})
    # one per gadget per study; W's and V's per trial, read by every gate after
    assert len(deviations) == 2 + 2 * 3


def test_summary_and_csv(tmp_path, gadget_k1, gadget_k2):
    records = tvd_bunching_experiment(
        2, [3], [1, 2], math.pi / 2, trials=3, seed=11,
        gadgets={1: gadget_k1, 2: gadget_k2},
    )
    summary = summarize_records(records)
    assert set(summary) == {"m=3,k=1", "m=3,k=2"}
    assert summary["m=3,k=1"]["trials"] == 3
    assert summary["m=3,k=2"]["tvd_mean"] < 1e-8
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,m,k,phi,trial,seed,tvd,p_bunch_site,p_bunch_global,p_postselect"
    assert len(lines) == 1 + len(records)
