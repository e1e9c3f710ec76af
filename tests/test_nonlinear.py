import math

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    NonlinearExperiment,
    NotUnitaryError,
    SingleModePhase,
    amplitude,
    bunching_at_site,
    build_setup,
    enumerate_states,
    haar_unitary,
    linearized_evolution,
    nonlinear_amplitude,
    nonlinear_distribution,
    optimize_gadget,
    output_distribution,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    phase_shifter,
    photon_number_components,
    reference_gadget,
    tvd,
    tvd_bunching_experiment,
    unitarity_deviation,
)

from .oracles import three_step_amplitude

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def haar_pair(m, seed):
    rng = np.random.default_rng(seed)
    return haar_unitary(m, rng), haar_unitary(m, rng)


# ---------------------------------------------------------------------------
# single amplitudes
# ---------------------------------------------------------------------------

def test_zero_phase_reduces_to_linear_composite():
    w, v = haar_pair(4, 30)
    s = (1, 1, 0, 0)
    composite = w @ v
    for t in enumerate_states(4, 2):
        got = phase_gate_amplitude(w, 2, 0.0, v, s, t)
        assert got == pytest.approx(amplitude(composite, s, t), abs=1e-12)


def test_hong_ou_mandel_with_quarter_pi_gate():
    # intermediate state (|2,0> - |0,2>)/sqrt(2); the gate flips the sign of
    # the doubly-occupied branch, so the final beamsplitter cannot unmix
    exp = NonlinearExperiment(BS, BS, SingleModePhase(1, math.pi / 4), (1, 1))
    dist = nonlinear_distribution(exp)
    assert dist.prob_of((2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob_of((1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert dist.prob_of((0, 2)) == pytest.approx(0.5, abs=1e-12)


def test_hong_ou_mandel_with_half_pi_gate_is_transparent():
    # exp(-i 4 phi) = 1 at phi = pi/2, so the two beamsplitters compose to
    # the identity and the photons end up back in coincidence
    exp = NonlinearExperiment(BS, BS, SingleModePhase(1, math.pi / 2), (1, 1))
    dist = nonlinear_distribution(exp)
    assert dist.prob_of((1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_matches_operator_path_sum_oracle():
    w, v = haar_pair(3, 31)
    phi, x = 0.9, 2
    s = (1, 1, 1)

    def gate_factor(r):
        a = -(r[x - 1] ** 2) * phi
        return complex(math.cos(a), math.sin(a))

    exp = NonlinearExperiment(w, v, SingleModePhase(x, phi), s)
    for t in [(3, 0, 0), (1, 1, 1), (0, 2, 1)]:
        want = three_step_amplitude(w, gate_factor, v, s, t)
        assert phase_gate_amplitude(w, x, phi, v, s, t) == pytest.approx(want, abs=1e-11)
        assert nonlinear_amplitude(exp, t) == pytest.approx(want, abs=1e-11)
    # the vacuum passes through with amplitude one on every route
    vacuum = (0, 0, 0)
    exp = NonlinearExperiment(w, v, SingleModePhase(x, phi), vacuum)
    assert three_step_amplitude(w, gate_factor, v, vacuum, vacuum) == pytest.approx(1.0, abs=1e-15)
    assert nonlinear_amplitude(exp, vacuum) == pytest.approx(1.0, abs=1e-15)
    assert phase_gate_amplitude(w, x, phi, v, vacuum, vacuum) == pytest.approx(1.0, abs=1e-15)


def test_single_photon_gate_is_linear():
    w, v = haar_pair(4, 32)
    phi, x = 1.3, 3
    s = (0, 1, 0, 0)
    composite = w @ phase_shifter(4, x, phi) @ v
    for t in enumerate_states(4, 1):
        got = phase_gate_amplitude(w, x, phi, v, s, t)
        assert got == pytest.approx(amplitude(composite, s, t), abs=1e-12)


@pytest.mark.parametrize("m,n,seed", [(3, 2, 33), (5, 3, 34), (6, 2, 35), (4, 3, 36)])
def test_three_forms_agree(m, n, seed):
    w, v = haar_pair(m, seed)
    rng = np.random.default_rng(seed + 100)
    space = enumerate_states(m, n)
    s = space.states[int(rng.integers(len(space)))]
    x = int(rng.integers(1, m + 1))
    phi = float(rng.uniform(0, 2 * math.pi))
    exp = NonlinearExperiment(w, v, SingleModePhase(x, phi), s)
    for _ in range(6):
        t = space.states[int(rng.integers(len(space)))]
        a_general = nonlinear_amplitude(exp, t)
        a_fourier = phase_gate_amplitude(w, x, phi, v, s, t)
        a_split = phase_gate_amplitude_split(w, x, phi, v, s, t)
        assert abs(a_general - a_fourier) < 1e-12
        assert abs(a_fourier - a_split) < 1e-12


def test_split_form_has_no_corrections_for_single_photon():
    w, v = haar_pair(3, 37)
    got = phase_gate_amplitude_split(w, 1, 0.7, v, (1, 0, 0), (0, 0, 1))
    ubar = linearized_evolution(w, 1, 0.7, v)
    assert got == pytest.approx(amplitude(ubar, (1, 0, 0), (0, 0, 1)), abs=1e-12)


def test_phase_pi_equals_linearized_evolution():
    # n^2 and n have the same parity, so the quadratic and linear phases
    # agree at phi = pi for every occupation
    w, v = haar_pair(4, 38)
    s = (1, 1, 1, 0)
    ubar = linearized_evolution(w, 2, math.pi, v)
    for t in [(3, 0, 0, 0), (1, 1, 1, 0), (0, 2, 0, 1)]:
        got = phase_gate_amplitude(w, 2, math.pi, v, s, t)
        assert got == pytest.approx(amplitude(ubar, s, t), abs=1e-11)


# ---------------------------------------------------------------------------
# photon-number components
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,seed", [(2, 2, 50), (3, 2, 51), (3, 3, 52), (4, 2, 53)])
def test_components_match_operator_path_sum_oracle(m, n, seed):
    w, v = haar_pair(m, seed)
    rng = np.random.default_rng(seed + 100)
    space = enumerate_states(m, n)
    s = space.states[int(rng.integers(len(space)))]
    x = int(rng.integers(1, m + 1))
    phi = float(rng.uniform(0, 2 * math.pi))
    got_space, comps = photon_number_components(w, v, x, s)
    assert got_space == space and comps.shape == (n + 1, len(space))
    dist = nonlinear_distribution(NonlinearExperiment(w, v, SingleModePhase(x, phi), s))
    for i, t in enumerate(space.states):
        # each component is the path sum restricted to j photons at the site
        for j in range(n + 1):
            want = three_step_amplitude(w, lambda r: float(r[x - 1] == j), v, s, t)
            assert abs(comps[j, i] - want) <= 1e-12
        want = three_step_amplitude(
            w, lambda r: complex(math.cos(r[x - 1] ** 2 * phi), -math.sin(r[x - 1] ** 2 * phi)),
            v, s, t,
        )
        assert abs(dist.probs[i] - abs(want) ** 2) <= 1e-12


def test_components_sum_to_the_linear_composite():
    # all-ones factors make the layer the identity
    w, v = haar_pair(4, 54)
    s = (1, 0, 2, 0)
    space, comps = photon_number_components(w, v, 3, s)
    want = [amplitude(w @ v, s, t) for t in space]
    assert np.abs(comps.sum(axis=0) - want).max() <= 1e-12


def test_components_vacuum_input():
    w, v = haar_pair(3, 55)
    space, comps = photon_number_components(w, v, 2, (0, 0, 0))
    assert len(space) == 1 and comps.shape == (1, 1)
    assert comps[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_components_validation():
    w, v = haar_pair(3, 56)
    with pytest.raises(DimensionError):
        photon_number_components(w, v, 4, (1, 1, 0))
    with pytest.raises(DimensionError):
        photon_number_components(w, v, 1, (1, 1))
    with pytest.raises(ValueError):
        photon_number_components(2 * w, v, 1, (1, 1, 0))


# ---------------------------------------------------------------------------
# linearized benchmark
# ---------------------------------------------------------------------------

def test_linearized_evolution_zero_phase():
    w, v = haar_pair(3, 39)
    assert np.allclose(linearized_evolution(w, 2, 0.0, v), w @ v)


def test_linearized_evolution_identity_networks():
    f = linearized_evolution(np.eye(3), 2, 0.8, np.eye(3))
    assert np.allclose(f, phase_shifter(3, 2, 0.8))


def test_linearized_evolution_unitary():
    w, v = haar_pair(5, 40)
    assert unitarity_deviation(linearized_evolution(w, 3, 1.1, v)) < 1e-12


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_distribution_zero_phase_equals_linear():
    w, v = haar_pair(4, 41)
    s = (1, 1, 0, 0)
    exp = NonlinearExperiment(w, v, SingleModePhase(2, 0.0), s)
    assert tvd(nonlinear_distribution(exp), output_distribution(w @ v, s)) < 1e-12


def test_distribution_phase_pi_equals_linearized():
    w, v = haar_pair(4, 42)
    s = (1, 1, 1, 0)
    exp = NonlinearExperiment(w, v, SingleModePhase(2, math.pi), s)
    ubar_dist = output_distribution(linearized_evolution(w, 2, math.pi, v), s)
    assert tvd(nonlinear_distribution(exp), ubar_dist) < 1e-10


def test_hom_tvd_against_linearized_benchmark():
    exp = NonlinearExperiment(BS, BS, SingleModePhase(1, math.pi / 4), (1, 1))
    ubar_dist = output_distribution(linearized_evolution(BS, 1, math.pi / 4, BS), (1, 1))
    assert np.allclose(ubar_dist.probs, [0.25, 0.5, 0.25])
    assert tvd(nonlinear_distribution(exp), ubar_dist) == pytest.approx(0.5, abs=1e-12)


def test_distribution_normalization():
    w, v = haar_pair(5, 43)
    exp = NonlinearExperiment(w, v, SingleModePhase(3, 1.3), (1, 1, 1, 0, 0))
    assert abs(nonlinear_distribution(exp).total() - 1.0) < 1e-9


def test_phase_periodicity():
    w, v = haar_pair(3, 44)
    s, t = (1, 1, 0), (0, 1, 1)
    a = phase_gate_amplitude(w, 2, 0.4, v, s, t)
    b = phase_gate_amplitude(w, 2, 0.4 + 2 * math.pi, v, s, t)
    assert a == pytest.approx(b, abs=1e-12)


def test_tvd_is_continuous_in_phase():
    w, v = haar_pair(4, 45)
    s = (1, 1, 0, 0)
    grid = np.linspace(0, math.pi, 21)
    values = []
    for phi in grid:
        exp = NonlinearExperiment(w, v, SingleModePhase(2, float(phi)), s)
        ubar_dist = output_distribution(linearized_evolution(w, 2, float(phi), v), s)
        values.append(tvd(nonlinear_distribution(exp), ubar_dist))
    assert values[0] < 1e-10 and values[-1] < 1e-10
    step = grid[1] - grid[0]
    assert max(abs(values[i + 1] - values[i]) for i in range(len(values) - 1)) <= 10 * step


# ---------------------------------------------------------------------------
# experiment validation
# ---------------------------------------------------------------------------

def test_gate_mode_out_of_range():
    with pytest.raises(DimensionError):
        NonlinearExperiment(np.eye(2), np.eye(2), SingleModePhase(3, 0.1), (1, 1))


def test_experiment_rejects_other_gate_kinds():
    # the single-mode phase gate is the only gate; other diagonal layers are
    # factor vectors on photon_number_components
    with pytest.raises(TypeError):
        NonlinearExperiment(np.eye(2), np.eye(2), np.diag([1, -1, 1]), (1, 1))


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_gate_rejects_a_non_finite_phase(phi):
    w, v = haar_pair(3, 60)
    s, t = (1, 1, 0), (0, 1, 1)
    for call in (lambda: SingleModePhase(1, phi),
                 lambda: phase_shifter(3, 2, phi),
                 lambda: linearized_evolution(w, 2, phi, v),
                 lambda: phase_gate_amplitude(w, 2, phi, v, s, t),
                 lambda: phase_gate_amplitude_split(w, 2, phi, v, s, t)):
        with pytest.raises(ValueError, match=f"phase phi must be finite, got phi={phi}"):
            call()


@pytest.mark.parametrize("t", [(1, 1), (1, 1, 1), (0, 2, 0, 0)],
                         ids=["too few modes", "too many photons", "too many modes"])
@pytest.mark.parametrize("entry", ["nonlinear_amplitude", "phase_gate_amplitude",
                                   "phase_gate_amplitude_split"])
def test_amplitude_entries_refuse_an_output_outside_the_space(entry, t):
    w, v = haar_pair(3, 61)
    s = (1, 1, 0)
    calls = {
        "nonlinear_amplitude": lambda: nonlinear_amplitude(_experiment(w, v, 2, s), t),
        "phase_gate_amplitude": lambda: phase_gate_amplitude(w, 2, 0.3, v, s, t),
        "phase_gate_amplitude_split": lambda: phase_gate_amplitude_split(w, 2, 0.3, v, s, t),
    }
    with pytest.raises(DimensionError, match="does not live in the 2-photon 3-mode space"):
        calls[entry]()


def test_linearized_evolution_refuses_unequal_networks():
    with pytest.raises(DimensionError, match="W and V must be equal square matrices"):
        linearized_evolution(np.eye(2), 1, 0.3, np.eye(3))


# ---------------------------------------------------------------------------
# one input contract for every entry to the sandwich
# ---------------------------------------------------------------------------

def _experiment(w, v, x, s):
    return NonlinearExperiment(w, v, SingleModePhase(x, 0.3), s)


SANDWICH_ENTRIES = {
    "NonlinearExperiment": _experiment,
    "nonlinear_amplitude": lambda w, v, x, s: nonlinear_amplitude(
        _experiment(w, v, x, s), (0,) * (len(s) - 2) + (1, 1)),
    "phase_gate_amplitude": lambda w, v, x, s: phase_gate_amplitude(
        w, x, 0.3, v, s, (0,) * (len(s) - 2) + (1, 1)),
    "phase_gate_amplitude_split": lambda w, v, x, s: phase_gate_amplitude_split(
        w, x, 0.3, v, s, (0,) * (len(s) - 2) + (1, 1)),
    "photon_number_components": photon_number_components,
    "nonlinear_distribution": lambda w, v, x, s: nonlinear_distribution(
        _experiment(w, v, x, s)),
    "build_setup": lambda w, v, x, s: build_setup(w, v, x, s, reference_gadget(2)),
}


def _bad_sandwiches():
    w, v = haar_pair(3, 57)
    s = (1, 1, 0)
    return {
        "gate mode 0": ((w, v, 0, s), DimensionError),
        "gate mode m+1": ((w, v, 4, s), DimensionError),
        "W/V shape mismatch": ((w, haar_pair(4, 58)[0], 1, s), DimensionError),
        "input of the wrong length": ((w, v, 1, (1, 1, 0, 0)), DimensionError),
        "2W": ((2 * w, v, 1, s), NotUnitaryError),
        "2V": ((w, 2 * v, 1, s), NotUnitaryError),
        "W off by 1e-3": (((1 + 1e-3) * w, v, 1, s), NotUnitaryError),
    }


@pytest.mark.parametrize("case", list(_bad_sandwiches()))
@pytest.mark.parametrize("entry", list(SANDWICH_ENTRIES))
def test_every_entry_refuses_a_bad_sandwich_alike(entry, case):
    args, expected = _bad_sandwiches()[case]
    with pytest.raises((DimensionError, NotUnitaryError)) as err:
        SANDWICH_ENTRIES[entry](*args)
    assert err.type is expected


# ---------------------------------------------------------------------------
# one gate-mode check: an integer in 1..m
# ---------------------------------------------------------------------------

def _mode_entries():
    w, v = haar_pair(3, 59)
    s = (1, 1, 0)
    t = (0, 1, 1)
    return {
        "SingleModePhase": lambda x: SingleModePhase(x, 0.3),
        "nonlinear_distribution": lambda x: nonlinear_distribution(_experiment(w, v, x, s)),
        "photon_number_components": lambda x: photon_number_components(w, v, x, s),
        "phase_gate_amplitude": lambda x: phase_gate_amplitude(w, x, 0.3, v, s, t),
        "phase_gate_amplitude_split": lambda x: phase_gate_amplitude_split(w, x, 0.3, v, s, t),
        "phase_shifter": lambda x: phase_shifter(3, x, 0.3),
        "linearized_evolution": lambda x: linearized_evolution(w, x, 0.3, v),
        "bunching_at_site": lambda x: bunching_at_site(w, s, x, 1),
        "tvd_bunching_experiment": lambda x: tvd_bunching_experiment(
            2, [3], [1], 0.3, trials=1, seed=0, mode_x=x, reference="pathsum",
            gadgets={1: optimize_gadget(1, 0.3)}),
        "build_setup": lambda x: build_setup(w, v, x, s, reference_gadget(2)).mode_x,
    }


@pytest.mark.parametrize("entry", list(_mode_entries()))
def test_every_gate_mode_entry_takes_integers_only(entry):
    call = _mode_entries()[entry]
    for mode in (1.5, 2.0, "2"):
        with pytest.raises(DimensionError, match="must be an integer"):
            call(mode)
    out = call(np.int64(2))
    if entry == "build_setup":
        assert type(out) is int and out == 2
