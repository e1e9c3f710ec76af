import math

import numpy as np
import pytest

from nlboson import (
    DiagonalGate,
    DimensionError,
    MatrixGate,
    NonlinearExperiment,
    SingleModePhase,
    amplitude,
    enumerate_states,
    haar_unitary,
    linearized_evolution,
    nonlinear_amplitude,
    nonlinear_distribution,
    output_distribution,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    phase_shifter,
    photon_number_components,
    tvd,
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

    for t in [(3, 0, 0), (1, 1, 1), (0, 2, 1)]:
        got = phase_gate_amplitude(w, x, phi, v, s, t)
        assert got == pytest.approx(three_step_amplitude(w, gate_factor, v, s, t), abs=1e-11)


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
# other gate kinds
# ---------------------------------------------------------------------------

def test_diagonal_gate_matches_single_mode_phase():
    w, v = haar_pair(3, 46)
    s = (1, 1, 0)
    phi = 0.9

    def factor(state):
        a = -(state[1] ** 2) * phi
        return complex(math.cos(a), math.sin(a))

    via_diag = nonlinear_distribution(NonlinearExperiment(w, v, DiagonalGate(factor), s))
    via_phase = nonlinear_distribution(NonlinearExperiment(w, v, SingleModePhase(2, phi), s))
    assert tvd(via_diag, via_phase) < 1e-12


def test_diagonal_gate_rejects_non_unit_modulus():
    gate = DiagonalGate(lambda state: 0.5 + 0j)
    with pytest.raises(ValueError):
        gate.factor((1, 0))


def test_matrix_gate_double_sum_matches_diagonal_collapse():
    w, v = haar_pair(2, 47)
    s = (1, 1)
    phi = 0.6
    space = enumerate_states(2, 2)
    diag = np.diag(
        [np.exp(-1j * (r[0] ** 2) * phi) for r in space.states]
    )
    gate = MatrixGate(space, diag)
    via_matrix = [nonlinear_amplitude(NonlinearExperiment(w, v, gate, s), t) for t in space]
    for got, t in zip(via_matrix, space):
        want = phase_gate_amplitude(w, 1, phi, v, s, t)
        assert got == pytest.approx(want, abs=1e-12)


def test_matrix_gate_with_generic_fock_unitary():
    # any unitary on the fixed-photon-number space is a legal gate; the
    # three-step evolution stays normalized
    w, v = haar_pair(2, 48)
    space = enumerate_states(2, 2)
    gate = MatrixGate(space, haar_unitary(len(space), np.random.default_rng(49)))
    exp = NonlinearExperiment(w, v, gate, (2, 0))
    dist = nonlinear_distribution(exp)
    assert abs(dist.total() - 1.0) < 1e-9


def test_matrix_gate_rejects_non_unitary():
    space = enumerate_states(2, 2)
    with pytest.raises(ValueError):
        MatrixGate(space, np.ones((3, 3)))


def test_gate_mode_out_of_range():
    with pytest.raises(DimensionError):
        NonlinearExperiment(np.eye(2), np.eye(2), SingleModePhase(3, 0.1), (1, 1))
