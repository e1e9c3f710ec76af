"""Three-step evolutions with a photon-number-diagonal middle layer.

The sandwich is: linear network W, then a non-linear layer, then linear
network V.  The one gate class is the single-mode phase gate
exp(-i * n_x^2 * phi) (:class:`SingleModePhase`), which multiplies each
intermediate Fock state by exp(-i * r_x^2 * phi).

Any layer that multiplies an intermediate state by a factor g_j depending
only on the photon number j at one site x is fixed by n+1 photon-number
components: A_j(T) sums the W -> V paths from the input to output T with
exactly j photons at x, so the layer's amplitude is sum_j g_j A_j(T).
Replacing the layer by a linear phase shifter exp(-i * n_x * theta) gives
L_theta(T) = sum_j exp(-i j theta) A_j(T), so :func:`photon_number_components`
evaluates L at the n+1 roots of unity -- n+1 linear passes through
W F_theta V -- and inverts that discrete Fourier transform.  The ideal gate
has g_j = exp(-i j^2 phi), a heralded gadget g_j = per(U^{j,1..1}) / j!
(:func:`nlboson.gadget.heralded_factors`, used by :mod:`nlboson.simulate`),
the linearized benchmark g_j = exp(-i j phi); any other single-mode
diagonal layer is likewise ``g @ A``.

Three routes to one amplitude are kept for cross-validation: the Feynman
path sum over the intermediate basis (:func:`nonlinear_amplitude`, two
batched linear passes), the Fourier form (:func:`phase_gate_amplitude`),
and the split form, which separates the linearizable part (the same circuit
with a plain phase shifter in place of the gate) from bunching corrections
with more than one photon at the gate site (:func:`phase_gate_amplitude_split`).

Every entry to the sandwich, :class:`nlboson.simulate.SimulationSetup` included,
checks it once with ``_checked_sandwich``: W and V m x m and unitary, the gate
mode an integer in 1..m.  A :class:`NonlinearExperiment` is a checked sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .fock import (
    FockState,
    StateSpace,
    as_state,
    enumerate_states,
    normalization_product,
    photon_count,
)
from .linalg import (
    _checked_mode,
    _require_finite_phase,
    matrix_from_states,
    permanent,
    phase_shifter,
    require_unitary,
)
from .linear import Distribution, _amplitudes_to_all, _guard_space, _unit_sum_distribution

__all__ = [
    "SingleModePhase",
    "NonlinearExperiment",
    "photon_number_components",
    "nonlinear_amplitude",
    "phase_gate_amplitude",
    "phase_gate_amplitude_split",
    "linearized_evolution",
    "nonlinear_distribution",
]


@dataclass(frozen=True)
class SingleModePhase:
    """exp(-i * n^2 * phi) on one mode; `mode` is 1-based."""

    mode: int
    phi: float

    def __post_init__(self):
        _checked_mode(self.mode, None, f"gate mode {self.mode}")
        _require_finite_phase(self.phi)

    def number_factors(self, n: int) -> np.ndarray:
        """Factors g_j = exp(-i j^2 phi) for j = 0..n photons at the gate site."""
        return np.array([self._number_factor(j) for j in range(n + 1)], dtype=complex)

    def _number_factor(self, r: int) -> complex:
        a = -(r * r) * self.phi
        return complex(math.cos(a), math.sin(a))


def _checked_sandwich(w, v, mode_x, input_state) -> tuple[np.ndarray, np.ndarray, int, FockState]:
    """(W, V, mode x, input state) of a W -> (mode x) -> V sandwich, or the error refusing it."""
    s = as_state(input_state)
    m = len(s)
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if w.shape != (m, m) or v.shape != (m, m):
        raise DimensionError(
            f"networks must be {m}x{m} for a {m}-mode input, got {w.shape} and {v.shape}"
        )
    x = _checked_mode(mode_x, m, f"gate mode {mode_x}")
    return require_unitary(w, context="W"), require_unitary(v, context="V"), x, s


def _checked_output(output_state, m: int, n: int) -> FockState:
    t = as_state(output_state)
    if len(t) != m or photon_count(t) != n:
        raise DimensionError(
            f"output state {t} does not live in the {n}-photon {m}-mode space"
        )
    return t


@dataclass(frozen=True, eq=False)
class NonlinearExperiment:
    """Input state plus the W -> gate -> V sandwich, checked on construction."""

    w: np.ndarray
    v: np.ndarray
    gate: SingleModePhase
    input_state: FockState

    def __post_init__(self):
        if not isinstance(self.gate, SingleModePhase):
            raise TypeError(
                f"gate must be a SingleModePhase, got {type(self.gate).__name__}"
            )
        w, v, _, s = _checked_sandwich(self.w, self.v, self.gate.mode, self.input_state)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "input_state", s)

    @property
    def m(self) -> int:
        return len(self.input_state)

    @property
    def n(self) -> int:
        return photon_count(self.input_state)

    def space(self) -> StateSpace:
        _guard_space(self.m, self.n, "intermediate space")
        return enumerate_states(self.m, self.n)


def nonlinear_amplitude(exp: NonlinearExperiment, output_state) -> complex:
    """Path-sum transition amplitude of the three-step evolution.

    sum_R <R|W|S> g(r_x) <T|V|R> over the intermediate basis, with
    g(r) = exp(-i r^2 phi).  The V leg is taken as amplitudes of V^T from T,
    since per(V_{R,T}) = per(V^T_{T,R}), so both legs are one batched pass
    each over the intermediate space.
    """
    t = _checked_output(output_state, exp.m, exp.n)
    space = exp.space()
    first = _amplitudes_to_all(exp.w, exp.input_state, space)
    second = _amplitudes_to_all(exp.v.T, t, space)
    photons_at_x = space.occupations[:, exp.gate.mode - 1]
    factors = exp.gate.number_factors(exp.n)[photons_at_x]
    return complex(np.sum(first * factors * second))


def phase_gate_amplitude(w, mode_x: int, phi: float, v, input_state, output_state) -> complex:
    """Single amplitude for exp(-i n_x^2 phi) from its photon-number components.

    n+1 scalar permanents of (W F_theta V)_{S,T} at theta_q = 2 pi q/(n+1),
    an inverse DFT to A_j(S -> T), then sum_j exp(-i j^2 phi) A_j.  Shares
    no code with the path sum of :func:`nonlinear_amplitude`.
    """
    gate = SingleModePhase(mode_x, phi)
    w, v, mode_x, s = _checked_sandwich(w, v, mode_x, input_state)
    n = photon_count(s)
    t = _checked_output(output_state, len(s), n)
    passes = [
        permanent(matrix_from_states(linearized_evolution(w, mode_x, theta, v), s, t))
        for theta in _fourier_phases(n)
    ]
    norm = math.sqrt(normalization_product(s) * normalization_product(t))
    return complex(gate.number_factors(n) @ _inverse_dft(np.array(passes)) / norm)


def linearized_evolution(w, mode_x: int, phi: float, v) -> np.ndarray:
    """Composite unitary with the gate replaced by a linear phase shifter.

    The sequence W, then exp(-i n_x phi), then V, i.e. W @ F @ V.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if w.shape != v.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"W and V must be equal square matrices, got {w.shape}, {v.shape}")
    return w @ phase_shifter(w.shape[0], mode_x, phi) @ v


def _fourier_phases(n: int) -> list[float]:
    """theta_q = 2 pi q / (n+1): the n+1 phases that resolve j = 0..n photons."""
    return [2 * math.pi * q / (n + 1) for q in range(n + 1)]


def _inverse_dft(passes: np.ndarray) -> np.ndarray:
    """A_j = sum_q exp(i j theta_q) L_q / (n+1) along the first axis.

    A dense (n+1) x (n+1) product: n is a photon number, so this is cheaper
    than loading numpy.fft.
    """
    size = len(passes)
    j = np.arange(size)
    return np.exp(2j * np.pi * np.outer(j, j) / size) @ passes / size


def photon_number_components(w, v, mode_x: int, input_state) -> tuple[StateSpace, np.ndarray]:
    """Photon-number components A_j(T) of the sandwich W -> (mode x) -> V.

    Returns ``(space, A)`` with A of shape (n+1, len(space)): A[j, i] sums the
    normalized paths from `input_state` to ``space.states[i]`` that carry
    exactly j photons at mode `mode_x` (1-based) between W and V.  A
    single-mode diagonal layer with factors g_j has output amplitudes
    ``g @ A``.

    Costs n+1 batched linear passes, one per unitary W F_theta V at
    theta_q = 2 pi q/(n+1), and an inverse DFT over q; every pass reads the
    labels and norms of the one shared space.
    """
    w, v, mode_x, s = _checked_sandwich(w, v, mode_x, input_state)
    return _components(w, v, mode_x, s)


def _components(w: np.ndarray, v: np.ndarray, mode_x: int,
                s: FockState) -> tuple[StateSpace, np.ndarray]:
    """:func:`photon_number_components` of a checked sandwich."""
    m, n = len(s), photon_count(s)
    _guard_space(m, n, "photon_number_components")
    space = enumerate_states(m, n)
    passes = np.array([
        _amplitudes_to_all(linearized_evolution(w, mode_x, theta, v), s, space)
        for theta in _fourier_phases(n)
    ])
    return space, _inverse_dft(passes)


def phase_gate_amplitude_split(w, mode_x: int, phi: float, v, input_state,
                               output_state) -> complex:
    """Split form: linearized term plus bunching corrections.

    per(Ubar_{S,T})/sqrt(prod s! prod t!) plus, for every intermediate state
    with r_x > 1, the path term weighted by exp(-i r_x^2 phi) - exp(-i r_x phi).
    Equal to :func:`phase_gate_amplitude` to rounding.
    """
    w, v, mode_x, s = _checked_sandwich(w, v, mode_x, input_state)
    m, n = len(s), photon_count(s)
    t = _checked_output(output_state, m, n)
    ubar = linearized_evolution(w, mode_x, phi, v)
    norm_s = math.sqrt(normalization_product(s))
    norm_t = math.sqrt(normalization_product(t))
    total = permanent(matrix_from_states(ubar, s, t)) / (norm_s * norm_t)
    _guard_space(m, n, "phase_gate_amplitude_split")
    for r in enumerate_states(m, n):
        rx = r[mode_x - 1]
        if rx <= 1:
            continue
        phase_nl = complex(math.cos(rx * rx * phi), -math.sin(rx * rx * phi))
        phase_lin = complex(math.cos(rx * phi), -math.sin(rx * phi))
        total += (
            permanent(matrix_from_states(w, s, r))
            * (phase_nl - phase_lin)
            * permanent(matrix_from_states(v, r, t))
            / (norm_s * normalization_product(r) * norm_t)
        )
    return complex(total)


def nonlinear_distribution(exp: NonlinearExperiment) -> Distribution:
    """Full output distribution of the three-step evolution.

    The gate's factors on the photon-number components (n+1 linear passes).
    The number-preserving gate keeps the evolution unitary, so the
    probabilities sum to one.
    """
    space, components = _components(exp.w, exp.v, exp.gate.mode, exp.input_state)
    return _unit_sum_distribution(space, exp.gate.number_factors(exp.n) @ components,
                                  exp.w, exp.v)
