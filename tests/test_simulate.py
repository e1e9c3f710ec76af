import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    GadgetSpec,
    NonlinearExperiment,
    NotUnitaryError,
    PostselectionError,
    SamplingBudgetError,
    SimulationSetup,
    SingleModePhase,
    StateSpaceTooLargeError,
    build_setup,
    default_gate_mode,
    haar_unitary,
    nonlinear_distribution,
    output_distribution,
    postselected_distribution,
    reference_gadget,
    run_rejection_sampling,
    tvd,
    unitarity_deviation,
)
from nlboson.fock import enumerate_states
from nlboson.gadget import MAX_GADGET_DEVIATION, gadget_from_json
from nlboson.linear import Distribution, _inverse_sample
from nlboson.simulate import _enlarged_output_probs, _heralded_classifier

from .oracles import operator_expansion_amplitude, rejection_loop

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def transparent_gadget(k: int) -> GadgetSpec:
    u = np.eye(k + 1, dtype=complex)
    return GadgetSpec(0.0, u)


# ---------------------------------------------------------------------------
# setup construction
# ---------------------------------------------------------------------------

def test_enlarged_input_appends_ancilla_photons(gadget_k2):
    w = np.eye(3, dtype=complex)
    setup = build_setup(w, w, 1, (1, 1, 0), gadget_k2)
    assert setup.enlarged_input == (1, 1, 0, 1, 1)
    assert setup.enlarged_unitary.shape == (5, 5)


def test_enlarged_unitary_is_unitary(gadget_k2):
    rng = np.random.default_rng(60)
    w, v = haar_unitary(4, rng), haar_unitary(4, rng)
    setup = build_setup(w, v, 2, (1, 1, 0, 0), gadget_k2)
    assert unitarity_deviation(setup.enlarged_unitary) <= 1e-10


def test_transparent_gadget_reduces_to_linear_composite():
    rng = np.random.default_rng(61)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    s = (1, 1, 0)
    setup = build_setup(w, v, 2, s, transparent_gadget(2))
    dist, p_ps = postselected_distribution(setup)
    assert p_ps == pytest.approx(1.0, abs=1e-12)
    assert tvd(dist, output_distribution(w @ v, s)) < 1e-10


def test_setup_validation():
    with pytest.raises(DimensionError):
        build_setup(np.eye(3), np.eye(3), 4, (1, 0, 0), transparent_gadget(2))
    with pytest.raises(DimensionError):
        build_setup(np.eye(3), np.eye(2), 1, (1, 0, 0), transparent_gadget(2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_setup_accepts_the_rounded_reference_gadgets(k):
    # MAX_GADGET_DEVIATION covers every rounded table; W and V keep the 1e-8 gate
    rng = np.random.default_rng(63)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    setup = build_setup(w, v, 2, (1, 1, 0), reference_gadget(k))
    assert setup.k == k


def _scaled(spec: GadgetSpec, factor: float) -> GadgetSpec:
    return GadgetSpec(spec.phi, factor * spec.u_eff)


def test_setup_holds_an_experiment_and_a_gadget_and_derives_the_rest(gadget_k2):
    assert [f.name for f in dataclasses.fields(SimulationSetup)] == ["experiment", "gadget"]
    w = np.eye(3, dtype=complex)
    setup = build_setup(w, w, 1, (1, 1, 0), gadget_k2)
    exp = setup.experiment
    assert (exp.gate.mode, exp.gate.phi, exp.input_state) == (1, gadget_k2.phi, (1, 1, 0))
    assert (setup.m, setup.n, setup.k) == (3, 2, 2)
    with pytest.raises(TypeError):
        dataclasses.replace(setup, enlarged_unitary=2 * setup.enlarged_unitary)
    # a replaced experiment reaches the derived system
    moved = dataclasses.replace(setup, experiment=dataclasses.replace(exp, input_state=[0, 1, 1]))
    assert moved.enlarged_input == (0, 1, 1, 1, 1)
    assert SimulationSetup(exp, gadget_k2).enlarged_input == (1, 1, 0, 1, 1)


def test_setup_refuses_a_gadget_of_another_phase(gadget_k2, gadget_k2_pi4):
    w = np.eye(3, dtype=complex)
    exp = NonlinearExperiment(w, w, SingleModePhase(1, gadget_k2.phi), (1, 1, 0))
    message = (f"the gadget realises phi={gadget_k2_pi4.phi!r}, "
               f"not the experiment's phi={gadget_k2.phi!r}")
    with pytest.raises(ValueError, match=message):
        SimulationSetup(exp, gadget_k2_pi4)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(SimulationSetup(exp, gadget_k2), gadget=gadget_k2_pi4)


def test_setup_refuses_a_gadget_beyond_the_gate():
    bad = _scaled(reference_gadget(2), 2.0)
    w = np.eye(3, dtype=complex)
    with pytest.raises(NotUnitaryError, match="gadget k=2") as err:
        build_setup(w, w, 1, (1, 1, 0), bad)
    assert err.value.tolerance == MAX_GADGET_DEVIATION
    # the gate comes before the phase rule
    exp = NonlinearExperiment(w, w, SingleModePhase(1, 0.3), (1, 1, 0))
    with pytest.raises(NotUnitaryError, match="gadget k=2"):
        SimulationSetup(exp, bad)
    # a small excess is refused too: deviation 0.0404
    with pytest.raises(NotUnitaryError):
        build_setup(w, w, 1, (1, 1, 0), _scaled(transparent_gadget(2), 1.02))


def test_setup_refuses_fields_of_the_wrong_type(gadget_k2):
    w = np.eye(3, dtype=complex)
    exp = NonlinearExperiment(w, w, SingleModePhase(1, gadget_k2.phi), (1, 1, 0))
    with pytest.raises(TypeError, match="experiment must be a NonlinearExperiment, got ndarray"):
        SimulationSetup(np.eye(2), reference_gadget(2))
    with pytest.raises(TypeError, match="gadget must be a GadgetSpec, got ndarray"):
        SimulationSetup(exp, np.eye(3))
    with pytest.raises(TypeError, match="experiment must be a NonlinearExperiment"):
        dataclasses.replace(SimulationSetup(exp, gadget_k2), experiment=exp.gate)


def test_checked_values_keep_their_arrays_when_the_caller_edits_its_own(gadget_k2):
    rng = np.random.default_rng(64)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    s = (1, 1, 0)
    exp = NonlinearExperiment(w, v, SingleModePhase(2, gadget_k2.phi), s)
    setup = build_setup(w, v, 2, s, gadget_k2)
    before = nonlinear_distribution(exp).probs.copy()
    before_kept = postselected_distribution(setup)[1]
    w *= 2  # unchecked, this would give a "distribution" of total mass 16
    np.testing.assert_array_equal(nonlinear_distribution(exp).probs, before)
    assert postselected_distribution(setup)[1] == before_kept
    # fresh values recompute from the stored matrices, not from a cache
    again = NonlinearExperiment(exp.w, exp.v, exp.gate, s)
    np.testing.assert_array_equal(nonlinear_distribution(again).probs, before)
    fresh = SimulationSetup(dataclasses.replace(setup.experiment), gadget_k2)
    assert postselected_distribution(fresh)[1] == before_kept
    assert not (exp.w.flags.writeable or exp.v.flags.writeable)
    assert not setup.experiment.w.flags.writeable


# ---------------------------------------------------------------------------
# postselection
# ---------------------------------------------------------------------------

def test_vacuum_at_gate_site_heralds_at_success_probability(gadget_k2):
    # identity W keeps the gate mode empty, so only the vacuum branch of the
    # gadget contributes and the kept mass is exactly the success probability
    rng = np.random.default_rng(62)
    w = np.eye(3, dtype=complex)
    v = haar_unitary(3, rng)
    setup = build_setup(w, v, 3, (1, 1, 0), gadget_k2)
    _, p_ps = postselected_distribution(setup)
    assert p_ps == pytest.approx(gadget_k2.success_prob, abs=1e-13)


def test_a_heralding_mass_at_roundoff_level_counts_as_zero():
    # the swap gadget sends the signal photon to the ancilla output, so no
    # event heralds; roundoff leaves a kept mass of ~4e-33, not zero
    swap = GadgetSpec(math.pi / 2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    setup = build_setup(np.eye(2), np.eye(2), 2, (1, 0), swap)
    with pytest.raises(PostselectionError, match="zero probability"):
        postselected_distribution(setup)


def test_kept_plus_discarded_mass_is_one(gadget_k2):
    rng = np.random.default_rng(63)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    s = (1, 1, 0)
    setup = build_setup(w, v, 2, s, gadget_k2)
    _, p_ps = postselected_distribution(setup)
    enlarged = output_distribution(setup.enlarged_unitary, setup.enlarged_input)
    heralded_mass = sum(
        p for state, p in enlarged.as_dict().items() if state[3:] == (1, 1)
    )
    assert heralded_mass == pytest.approx(p_ps, abs=1e-12)
    assert enlarged.total() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,k,seed", [(3, 1, 80), (3, 2, 81), (2, 2, 82), (2, 3, 83)])
def test_postselection_matches_enlarged_unitary_oracle(n, k, seed):
    # k < n, k = n and k > n, with a generic (not gate-realizing) gadget
    rng = np.random.default_rng(seed)
    m = 3
    w, v = haar_unitary(m, rng), haar_unitary(m, rng)
    gadget = GadgetSpec(0.0, haar_unitary(k + 1, rng))
    s = (1,) * n + (0,) * (m - n)
    setup = build_setup(w, v, int(rng.integers(1, m + 1)), s, gadget)
    dist, p_ps = postselected_distribution(setup)
    raw = np.array([
        abs(operator_expansion_amplitude(
            setup.enlarged_unitary, setup.enlarged_input, t + (1,) * k)) ** 2
        for t in dist.space
    ])
    assert abs(p_ps - raw.sum()) <= 1e-12
    assert np.abs(dist.probs - raw / raw.sum()).max() <= 1e-12


def test_heralded_hong_ou_mandel(gadget_k2_pi4):
    setup = build_setup(BS, BS, 1, (1, 1), gadget_k2_pi4)
    dist, _ = postselected_distribution(setup)
    assert np.abs(dist.probs - np.array([0.5, 0.0, 0.5])).max() < 1e-8


def test_matching_ancilla_count_is_exact(gadget_k2, gadget_k3):
    rng = np.random.default_rng(64)
    w, v = haar_unitary(4, rng), haar_unitary(4, rng)
    s = (1, 1, 0, 0)
    exact = nonlinear_distribution(
        NonlinearExperiment(w, v, SingleModePhase(2, math.pi / 2), s)
    )
    dist2, _ = postselected_distribution(build_setup(w, v, 2, s, gadget_k2))
    assert tvd(dist2, exact) < 1e-8
    # one extra ancilla photon is harmless
    dist3, _ = postselected_distribution(build_setup(w, v, 2, s, gadget_k3))
    assert tvd(dist3, exact) < 1e-8


def test_postselection_guard():
    big = np.eye(300, dtype=complex)
    setup_like = transparent_gadget(1)
    with pytest.raises(StateSpaceTooLargeError, match=r"n=5 photons in m=300 modes"):
        postselected_distribution(
            build_setup(big, big, 1, (1,) * 5 + (0,) * 295, setup_like)
        )


# ---------------------------------------------------------------------------
# rejection sampling
# ---------------------------------------------------------------------------

def test_rejection_sampling_deterministic(gadget_k2):
    rng = np.random.default_rng(65)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    setup = build_setup(w, v, 2, (1, 1, 0), gadget_k2)
    a, stats_a = run_rejection_sampling(setup, 200, np.random.default_rng(66))
    b, stats_b = run_rejection_sampling(setup, 200, np.random.default_rng(66))
    assert a == b
    assert stats_a.trials == stats_b.trials
    assert np.array_equal(stats_a.trial_counts, stats_b.trial_counts)


def test_rejection_sampling_acceptance_rate_consistent(gadget_k2):
    rng = np.random.default_rng(67)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    setup = build_setup(w, v, 2, (1, 1, 0), gadget_k2)
    _, p_ps = postselected_distribution(setup)
    samples, stats = run_rejection_sampling(setup, 2000, np.random.default_rng(68))
    assert len(samples) == 2000
    stderr = math.sqrt(p_ps * (1 - p_ps) / stats.trials)
    assert abs(stats.acceptance_rate - p_ps) <= 3 * stderr + 1e-3
    assert stats.trial_counts.sum() == stats.trials


def test_rejection_samples_follow_postselected_distribution(gadget_k2):
    rng = np.random.default_rng(69)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    setup = build_setup(w, v, 2, (1, 1, 0), gadget_k2)
    dist, _ = postselected_distribution(setup)
    samples, _ = run_rejection_sampling(setup, 5000, np.random.default_rng(70))
    freq = np.zeros(len(dist.space))
    for state in samples:
        freq[dist.space.rank(state)] += 1
    assert tvd(Distribution(dist.space, freq / len(samples)), dist) < 0.03


def test_rejection_sampling_budget_abort(gadget_k2):
    rng = np.random.default_rng(71)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    setup = build_setup(w, v, 2, (1, 1, 0), gadget_k2)
    with pytest.raises(SamplingBudgetError) as err:
        run_rejection_sampling(setup, 10_000, np.random.default_rng(72), trial_budget=500)
    assert err.value.trials == 500


@pytest.mark.parametrize("n_samples", [0, -1])
def test_rejection_sampling_needs_a_positive_sample_count(gadget_k2, n_samples):
    setup = build_setup(np.eye(3), np.eye(3), 2, (1, 1, 0), gadget_k2)
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, got n_samples={n_samples}"):
        run_rejection_sampling(setup, n_samples, np.random.default_rng(0))


@pytest.mark.parametrize("n_samples, budget, message", [
    (2.7, None, "n_samples must be an integer, got 2.7"),
    ("5", None, "n_samples must be an integer, got '5'"),
    # a fractional budget once left the loop spinning: past the integer part
    # a chunk took int(0.5) = 0 draws and the trial count stopped growing
    (5, 2.5, "trial_budget must be an integer, got 2.5"),
    (5, 0, "trial_budget must be at least 1, got trial_budget=0"),
    (5, -5, "trial_budget must be at least 1, got trial_budget=-5"),
], ids=["float-samples", "str-samples", "fractional-budget", "zero-budget", "negative-budget"])
def test_rejection_sampling_refuses_a_count_that_is_not_a_positive_integer(
        gadget_k2, n_samples, budget, message):
    setup = build_setup(np.eye(3), np.eye(3), 2, (1, 1, 0), gadget_k2)
    with pytest.raises(ValueError, match=message):
        run_rejection_sampling(setup, n_samples, np.random.default_rng(0), trial_budget=budget)


def _rejection_case(gadget, seed, m=3, state=(1, 1, 0)):
    """A setup, its enlarged space, raw probabilities and accept mask."""
    rng = np.random.default_rng(seed)
    w, v = haar_unitary(m, rng), haar_unitary(m, rng)
    setup = build_setup(w, v, default_gate_mode(m), state, gadget)
    space = enumerate_states(setup.m + setup.k, setup.n + setup.k)
    anc = (1,) * setup.k
    mask = np.array([st[setup.m:] == anc for st in space.states])
    return setup, space, _enlarged_output_probs(setup, space), mask


def _assert_matches_per_draw_loop(setup, space, probs, mask, n_samples, seed, budget):
    rng = np.random.default_rng(seed)
    ranks, counts, trials = rejection_loop(lambda: _inverse_sample(probs, 4096, rng),
                                           mask, n_samples, budget)
    if len(ranks) < n_samples:
        with pytest.raises(SamplingBudgetError) as err:
            run_rejection_sampling(setup, n_samples, np.random.default_rng(seed),
                                   trial_budget=budget)
        assert (err.value.accepted, err.value.trials) == (len(ranks), trials)
        return trials
    samples, stats = run_rejection_sampling(setup, n_samples, np.random.default_rng(seed),
                                            trial_budget=budget)
    assert samples == [space.states[i][:setup.m] for i in ranks]
    assert stats.trials == trials
    assert stats.trial_counts.tolist() == counts
    return trials


def _first_chunk_hits(probs, mask, seed):
    return np.flatnonzero(mask[_inverse_sample(probs, 4096, np.random.default_rng(seed))])


def test_rejection_chunks_match_per_draw_loop_when_budget_ends_mid_chunk(gadget_k2):
    case = _rejection_case(gadget_k2, 73)
    for budget in (1, 2500, 4096 + 1234):
        trials = _assert_matches_per_draw_loop(*case, 10_000, 74, budget)
        assert trials == budget


def test_rejection_chunks_match_per_draw_loop_when_samples_end_mid_chunk(gadget_k2):
    setup, space, probs, mask = case = _rejection_case(gadget_k2, 75)
    in_first = len(_first_chunk_hits(probs, mask, 76))
    assert in_first > 10
    for n_samples in (1, in_first // 2, in_first + 7, 3 * in_first):
        trials = _assert_matches_per_draw_loop(*case, n_samples, 76, 10**6)
        assert trials % 4096 != 0


def test_rejection_chunks_match_per_draw_loop_on_a_chunks_last_draw(gadget_k2):
    setup, space, probs, mask = case = _rejection_case(gadget_k2, 77)
    seed = next(s for s in range(1000) if _first_chunk_hits(probs, mask, s)[-1] == 4095)
    in_first = len(_first_chunk_hits(probs, mask, seed))
    # the last sample is the chunk's last draw, with and without the budget ending there
    for budget in (10**6, 4096):
        assert _assert_matches_per_draw_loop(*case, in_first, seed, budget) == 4096
    # one more sample: the stream runs on into the next chunk
    assert _assert_matches_per_draw_loop(*case, in_first + 1, seed, 10**6) > 4096


def test_rejection_chunks_match_per_draw_loop_at_the_benchmark_shape():
    # n = 3, m = 5 with the committed exact k = 3 gadget and 5000 samples:
    # about 250,000 raw draws at a ~2% heralding rate
    path = Path(__file__).parent.parent / "perfbench" / "inputs" / "gadget_k3_pi2.json"
    gadget = gadget_from_json(json.loads(path.read_text()))
    case = _rejection_case(gadget, 79, m=5, state=(1, 1, 1, 0, 0))
    assert _assert_matches_per_draw_loop(*case, 5000, 80, 10**6) > 100_000


class _FixedDraws:
    """A generator stand-in whose ``random`` returns the given draws."""

    def __init__(self, u):
        self.u = u

    def random(self, count):
        assert count == len(self.u)
        return self.u


def _edge_draws(probs):
    """0, 1 - 2^-53, every CDF boundary and the floats on either side of it."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], cdf, np.nextafter(cdf, 0.0),
                        np.nextafter(cdf, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_classifier_matches_inversion(probs, mask, u) -> int:
    """The classifier keeps exactly the draws whose inverse-sampled state is
    heralded, with that state's rank; returns how many it kept."""
    idx = _inverse_sample(probs, len(u), _FixedDraws(u))
    pos, ranks = _heralded_classifier(probs, mask)(u)
    want = np.flatnonzero(mask[idx])
    assert pos.tolist() == want.tolist()
    assert ranks.tolist() == idx[want].tolist()
    return len(want)


# (probabilities, heralded states); every zero-probability heralded state
# owns an empty interval that no draw may land in
_CLASSIFIER_CASES = {
    "zero-probability-heralded-first-last-and-between": (
        [0.0, 0.1, 0.2, 0.0, 0.3, 0.4, 0.0], [1, 0, 1, 1, 1, 0, 1]),
    "adjacent-heralded-last-ends-cdf": (
        [0.25, 0.125, 0.125, 0.5], [0, 1, 1, 1]),
    "tiny-intervals-sharing-buckets": (
        [1e-310, 1e-17, 3e-17, 0.5, 1e-300, 2e-16, 0.5, 1e-20], [1, 1, 0, 0, 1, 1, 0, 1]),
    "none-heralded": ([0.2, 0.3, 0.5], [0, 0, 0]),
    "all-heralded": ([0.2, 0.0, 0.3, 0.5], [1, 1, 1, 1]),
    "one-state": ([1.0], [1]),
}


@pytest.mark.parametrize("probs, heralded", _CLASSIFIER_CASES.values(), ids=_CLASSIFIER_CASES)
def test_heralded_classifier_matches_inversion_on_edge_draws(probs, heralded):
    probs, mask = np.array(probs), np.array(heralded, dtype=bool)
    u = np.concatenate([_edge_draws(probs), np.random.default_rng(81).random(4096)])
    _assert_classifier_matches_inversion(probs, mask, u)


def test_heralded_classifier_matches_inversion_on_an_enlarged_cdf(gadget_k2):
    _, _, probs, mask = _rejection_case(gadget_k2, 82)
    u = np.concatenate([_edge_draws(probs), np.random.default_rng(83).random(300 * 4096)])
    assert _assert_classifier_matches_inversion(probs, mask, u) > 1000


def test_rejection_sampling_enlarged_space_guard():
    w = np.eye(80, dtype=complex)
    setup = build_setup(w, w, 1, (1, 1) + (0,) * 78, transparent_gadget(2))
    # the kept space is fine ...
    postselected_distribution(setup)
    # ... but materializing the full enlarged space is refused
    with pytest.raises(StateSpaceTooLargeError, match=r"enlarged space: n=4 photons in m=82"):
        run_rejection_sampling(setup, 10, np.random.default_rng(73))


def test_saturation_for_too_few_ancillas(gadget_k1, gadget_k2):
    # with k < n the sampler converges to the postselected distribution,
    # which keeps a finite distance from the exact non-linear one
    rng = np.random.default_rng(74)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    s = (1, 1, 0)
    exact = nonlinear_distribution(NonlinearExperiment(w, v, SingleModePhase(2, math.pi / 2), s))
    ps1, _ = postselected_distribution(build_setup(w, v, 2, s, gadget_k1))
    floor = tvd(ps1, exact)
    assert floor > 1e-3
    samples, _ = run_rejection_sampling(
        build_setup(w, v, 2, s, gadget_k1), 20_000, np.random.default_rng(75)
    )
    freq = np.zeros(len(exact.space))
    for state in samples:
        freq[exact.space.rank(state)] += 1
    emp = Distribution(exact.space, freq / len(samples))
    assert abs(tvd(emp, exact) - floor) < 0.02
