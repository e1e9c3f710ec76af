import math

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    GadgetSpec,
    NonlinearExperiment,
    SamplingBudgetError,
    SingleModePhase,
    StateSpaceTooLargeError,
    build_setup,
    haar_unitary,
    nonlinear_distribution,
    output_distribution,
    postselected_distribution,
    run_rejection_sampling,
    tvd,
    unitarity_deviation,
)
from nlboson.linear import Distribution

from .oracles import operator_expansion_amplitude

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def transparent_gadget(k: int) -> GadgetSpec:
    u = np.eye(k + 1, dtype=complex)
    return GadgetSpec(k, 0.0, u, 1.0, 0.0)


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
    gadget = GadgetSpec(k, 0.0, haar_unitary(k + 1, rng), 0.0, 0.0)
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
    with pytest.raises(StateSpaceTooLargeError):
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


def test_rejection_sampling_enlarged_space_guard():
    w = np.eye(80, dtype=complex)
    setup = build_setup(w, w, 1, (1, 1) + (0,) * 78, transparent_gadget(2))
    # the kept space is fine ...
    postselected_distribution(setup)
    # ... but materializing the full enlarged space is refused
    with pytest.raises(StateSpaceTooLargeError):
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
