"""Three-step evolutions with a photon-number-diagonal middle layer.

The sandwich is: linear network W, then a non-linear layer, then linear
network V.  The workhorse non-linearity is the single-mode phase gate
exp(-i * n_x^2 * phi), which multiplies each intermediate Fock state by
exp(-i * r_x^2 * phi).

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
the linearized benchmark g_j = exp(-i j phi).

Three routes to one amplitude are kept for cross-validation: the Feynman
path sum over the intermediate basis (:func:`nonlinear_amplitude`, also the
route for general diagonal and matrix gates), the Fourier form
(:func:`phase_gate_amplitude`), and the split form, which separates the
linearizable part (the same circuit with a plain phase shifter in place of
the gate) from bunching corrections with more than one photon at the gate
site (:func:`phase_gate_amplitude_split`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DimensionError, StateSpaceTooLargeError
from .fock import (
    FockState,
    StateSpace,
    as_state,
    enumerate_states,
    normalization_product,
    occupation_indices,
    photon_count,
    space_size,
)
from .linalg import (
    gathered_permanents,
    matrix_from_states,
    permanent,
    phase_shifter,
    require_unitary,
    unitarity_deviation,
)
from .linear import SAMPLING_SPACE_GUARD, Distribution

__all__ = [
    "SingleModePhase",
    "DiagonalGate",
    "MatrixGate",
    "NonlinearExperiment",
    "photon_number_components",
    "nonlinear_amplitude",
    "phase_gate_amplitude",
    "phase_gate_amplitude_split",
    "linearized_evolution",
    "nonlinear_distribution",
]

_MATRIX_GATE_GUARD = 400  # literal double sums only for tiny spaces


def _guard_path_sum(m: int, n: int) -> None:
    size = space_size(m, n)
    if size > SAMPLING_SPACE_GUARD:
        raise StateSpaceTooLargeError(
            f"n={n} photons in m={m} modes span {size} intermediate states "
            f"(guard {SAMPLING_SPACE_GUARD})"
        )


@dataclass(frozen=True)
class SingleModePhase:
    """exp(-i * n^2 * phi) on one mode; `mode` is 1-based."""

    mode: int
    phi: float

    def factor(self, state: FockState) -> complex:
        return self._number_factor(state[self.mode - 1])

    def number_factors(self, n: int) -> np.ndarray:
        """Factors g_j = exp(-i j^2 phi) for j = 0..n photons at the gate site."""
        return np.array([self._number_factor(j) for j in range(n + 1)], dtype=complex)

    def _number_factor(self, r: int) -> complex:
        a = -(r * r) * self.phi
        return complex(math.cos(a), math.sin(a))


@dataclass(frozen=True)
class DiagonalGate:
    """Photon-number-diagonal gate given by a unit-modulus factor per state."""

    factor_fn: Callable[[FockState], complex] | Mapping[FockState, complex]

    def factor(self, state: FockState) -> complex:
        if callable(self.factor_fn):
            v = complex(self.factor_fn(state))
        else:
            v = complex(self.factor_fn[state])
        if abs(abs(v) - 1.0) > 1e-10:
            raise ValueError(
                f"diagonal gate factor for {state} has modulus {abs(v)!r}, expected 1"
            )
        return v


@dataclass(frozen=True, eq=False)
class MatrixGate:
    """Arbitrary photon-number-preserving gate as a matrix over one StateSpace.

    matrix[i, j] is the transition amplitude from space.states[i] to
    space.states[j].  Only sensible for tiny spaces: the amplitude evaluation
    is a literal double path sum.
    """

    space: StateSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        size = len(self.space)
        if mat.shape != (size, size):
            raise DimensionError(
                f"gate matrix shape {mat.shape} does not match space size {size}"
            )
        if size > _MATRIX_GATE_GUARD:
            raise DimensionError(
                f"matrix gates are guarded to spaces of <= {_MATRIX_GATE_GUARD} states"
            )
        dev = float(np.abs(mat.conj().T @ mat - np.eye(size)).max())
        if dev > 1e-8:
            raise ValueError(f"gate matrix is not unitary on the Fock basis ({dev:.2e})")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class NonlinearExperiment:
    """Input state plus the W -> gate -> V sandwich."""

    w: np.ndarray
    v: np.ndarray
    gate: SingleModePhase | DiagonalGate | MatrixGate
    input_state: FockState

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        s = as_state(self.input_state)
        if w.shape != v.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"W and V must be equal square matrices, got {w.shape}, {v.shape}")
        if len(s) != w.shape[0]:
            raise DimensionError(f"input has {len(s)} modes, networks have {w.shape[0]}")
        if isinstance(self.gate, SingleModePhase) and not 1 <= self.gate.mode <= len(s):
            raise DimensionError(f"gate mode {self.gate.mode} out of range [1, {len(s)}]")
        if isinstance(self.gate, MatrixGate) and (
            self.gate.space.m != len(s) or self.gate.space.n != photon_count(s)
        ):
            raise DimensionError("matrix gate space does not match the experiment")
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
        _guard_path_sum(self.m, self.n)
        return enumerate_states(self.m, self.n)


def _path_weights(w, input_state, space: StateSpace) -> np.ndarray:
    """per(W_{S,R}) / (sqrt(prod s!) * prod r!) for every intermediate R.

    These weights do not depend on the output state, so one evaluation is
    shared across the whole distribution.
    """
    s = as_state(input_state)
    if photon_count(s) == 0:
        return np.ones(len(space), dtype=complex)
    rows = np.array(occupation_indices(s), dtype=np.intp)
    cols = np.array([occupation_indices(r) for r in space.states], dtype=np.intp)
    pers = gathered_permanents(w, rows, cols)
    norm_in = math.sqrt(normalization_product(s))
    norms_r = np.array([normalization_product(r) for r in space.states], dtype=float)
    return pers / (norm_in * norms_r)


def _second_leg_permanents(v, space: StateSpace, output_state) -> np.ndarray:
    """per(V_{R,T}) for every intermediate R at a fixed output T."""
    t = as_state(output_state)
    if photon_count(t) == 0:
        return np.ones(len(space), dtype=complex)
    cols = np.array(occupation_indices(t), dtype=np.intp)
    rows = np.array([occupation_indices(r) for r in space.states], dtype=np.intp)
    return gathered_permanents(v, rows, cols)


def _diagonal_factors(gate, space: StateSpace) -> np.ndarray:
    return np.array([gate.factor(r) for r in space.states], dtype=complex)


def nonlinear_amplitude(exp: NonlinearExperiment, output_state,
                        *, unitarity_tol: float = 1e-8) -> complex:
    """Path-sum transition amplitude of the three-step evolution.

    Diagonal gates collapse the double sum over intermediate states to a
    single one; matrix gates are evaluated by the literal double sum.
    """
    require_unitary(exp.w, unitarity_tol, "nonlinear_amplitude: W")
    require_unitary(exp.v, unitarity_tol, "nonlinear_amplitude: V")
    t = as_state(output_state)
    if len(t) != exp.m or photon_count(t) != exp.n:
        raise DimensionError(
            f"output state {t} does not live in the {exp.n}-photon {exp.m}-mode space"
        )
    space = exp.space()
    if isinstance(exp.gate, MatrixGate):
        gamma_w = _path_weights(exp.w, exp.input_state, space)  # includes 1/prod r!
        norms = np.array([normalization_product(r) for r in space.states], dtype=float)
        # restore single-sided normalization: gamma^W_{S,R} = weight * sqrt(prod r!)
        gamma_w = gamma_w * np.sqrt(norms)
        pers_v = _second_leg_permanents(exp.v, space, t)
        norm_t = math.sqrt(normalization_product(t))
        gamma_v = pers_v / (np.sqrt(norms) * norm_t)
        return complex(gamma_w @ exp.gate.matrix @ gamma_v)
    weights = _path_weights(exp.w, exp.input_state, space)
    factors = _diagonal_factors(exp.gate, space)
    pers_v = _second_leg_permanents(exp.v, space, t)
    norm_t = math.sqrt(normalization_product(t))
    return complex(np.sum(weights * factors * pers_v) / norm_t)


def phase_gate_amplitude(w, mode_x: int, phi: float, v, input_state, output_state,
                         *, unitarity_tol: float = 1e-8) -> complex:
    """Single amplitude for exp(-i n_x^2 phi) from its photon-number components.

    n+1 scalar permanents of (W F_theta V)_{S,T} at theta_q = 2 pi q/(n+1),
    an inverse DFT to A_j(S -> T), then sum_j exp(-i j^2 phi) A_j.  Shares
    no code with the path sum of :func:`nonlinear_amplitude`.
    """
    gate = SingleModePhase(mode_x, phi)
    exp = NonlinearExperiment(w, v, gate, as_state(input_state))
    w_u = require_unitary(exp.w, unitarity_tol, "phase_gate_amplitude: W")
    v_u = require_unitary(exp.v, unitarity_tol, "phase_gate_amplitude: V")
    s, n = exp.input_state, exp.n
    t = as_state(output_state)
    if len(t) != exp.m or photon_count(t) != n:
        raise DimensionError(
            f"output state {t} does not live in the {n}-photon {exp.m}-mode space"
        )
    passes = [
        permanent(matrix_from_states(linearized_evolution(w_u, mode_x, theta, v_u), s, t))
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


def photon_number_components(w, v, mode_x: int, input_state,
                             *, unitarity_tol: float = 1e-8) -> tuple[StateSpace, np.ndarray]:
    """Photon-number components A_j(T) of the sandwich W -> (mode x) -> V.

    Returns ``(space, A)`` with A of shape (n+1, len(space)): A[j, i] sums the
    normalized paths from `input_state` to ``space.states[i]`` that carry
    exactly j photons at mode `mode_x` (1-based) between W and V.  A
    single-mode diagonal layer with factors g_j has output amplitudes
    ``g @ A``.

    Costs n+1 batched linear passes, one per unitary W F_theta V at
    theta_q = 2 pi q/(n+1), and an inverse DFT over q; the column-index and
    normalization arrays are built once and shared by every pass.
    """
    w_u = require_unitary(w, unitarity_tol, "photon_number_components: W")
    v_u = require_unitary(v, unitarity_tol, "photon_number_components: V")
    s = as_state(input_state)
    m, n = len(s), photon_count(s)
    if w_u.shape != (m, m) or v_u.shape != (m, m):
        raise DimensionError(
            f"networks must be {m}x{m} for a {m}-mode input, got {w_u.shape} and {v_u.shape}"
        )
    if not 1 <= mode_x <= m:
        raise DimensionError(f"gate mode {mode_x} out of range [1, {m}]")
    _guard_path_sum(m, n)
    space = enumerate_states(m, n)
    occ = np.array(space.states, dtype=np.intp).reshape(len(space), m)
    # each row of `occ` sums to n, so repeating mode labels by occupation
    # yields one row of n column indices per output state
    cols = np.repeat(np.tile(np.arange(m), len(space)), occ.ravel()).reshape(len(space), n)
    rows = np.array(occupation_indices(s), dtype=np.intp)
    factorials = np.array([math.factorial(j) for j in range(n + 1)], dtype=float)
    norms = math.sqrt(normalization_product(s)) * np.sqrt(factorials[occ].prod(axis=1))
    passes = np.array([
        gathered_permanents(linearized_evolution(w_u, mode_x, theta, v_u), rows, cols)
        for theta in _fourier_phases(n)
    ])
    return space, _inverse_dft(passes / norms)


def phase_gate_amplitude_split(w, mode_x: int, phi: float, v, input_state, output_state,
                               *, unitarity_tol: float = 1e-8) -> complex:
    """Split form: linearized term plus bunching corrections.

    per(Ubar_{S,T})/sqrt(prod s! prod t!) plus, for every intermediate state
    with r_x > 1, the path term weighted by exp(-i r_x^2 phi) - exp(-i r_x phi).
    Equal to :func:`phase_gate_amplitude` to rounding.
    """
    w_u = require_unitary(w, unitarity_tol, "phase_gate_amplitude_split: W")
    v_u = require_unitary(v, unitarity_tol, "phase_gate_amplitude_split: V")
    s = as_state(input_state)
    t = as_state(output_state)
    n = photon_count(s)
    if photon_count(t) != n:
        raise DimensionError("input and output photon numbers differ")
    ubar = linearized_evolution(w_u, mode_x, phi, v_u)
    norm_st = math.sqrt(normalization_product(s) * normalization_product(t))
    total = permanent(matrix_from_states(ubar, s, t)) / norm_st
    _guard_path_sum(len(s), n)
    space = enumerate_states(len(s), n)
    norm_s = math.sqrt(normalization_product(s))
    norm_t = math.sqrt(normalization_product(t))
    for r in space:
        rx = r[mode_x - 1]
        if rx <= 1:
            continue
        phase_nl = complex(math.cos(rx * rx * phi), -math.sin(rx * rx * phi))
        phase_lin = complex(math.cos(rx * phi), -math.sin(rx * phi))
        total += (
            permanent(matrix_from_states(w_u, s, r))
            * (phase_nl - phase_lin)
            * permanent(matrix_from_states(v_u, r, t))
            / (norm_s * normalization_product(r) * norm_t)
        )
    return complex(total)


def nonlinear_distribution(exp: NonlinearExperiment,
                           *, unitarity_tol: float = 1e-8) -> Distribution:
    """Full output distribution of the three-step evolution.

    The single-mode phase gate takes the photon-number components
    (n+1 linear passes); general diagonal and matrix gates take the path sum.
    The number-preserving gate keeps the evolution unitary, so the
    probabilities sum to one.
    """
    if isinstance(exp.gate, SingleModePhase):
        space, components = photon_number_components(
            exp.w, exp.v, exp.gate.mode, exp.input_state, unitarity_tol=unitarity_tol
        )
        return _unit_sum_distribution(space, exp.gate.number_factors(exp.n) @ components,
                                      exp.w, exp.v)
    require_unitary(exp.w, unitarity_tol, "nonlinear_distribution: W")
    require_unitary(exp.v, unitarity_tol, "nonlinear_distribution: V")
    space = exp.space()
    if isinstance(exp.gate, MatrixGate):
        amps = np.array(
            [nonlinear_amplitude(exp, t, unitarity_tol=unitarity_tol) for t in space],
            dtype=complex,
        )
    else:
        weights = _path_weights(exp.w, exp.input_state, space) * _diagonal_factors(
            exp.gate, space
        )
        amps = np.empty(len(space), dtype=complex)
        for j, t in enumerate(space.states):
            pers_v = _second_leg_permanents(exp.v, space, t)
            amps[j] = np.sum(weights * pers_v) / math.sqrt(normalization_product(t))
    return _unit_sum_distribution(space, amps, exp.w, exp.v)


def _unit_sum_distribution(space: StateSpace, amps, w, v) -> Distribution:
    """|amps|^2 over `space`, gated on summing to one as a unitary layer must."""
    probs = np.abs(amps) ** 2
    total = probs.sum()
    dev = max(unitarity_deviation(w), unitarity_deviation(v))
    tol = max(1e-9, 20 * space.m * dev)
    if abs(total - 1.0) > tol:
        raise ValueError(
            f"non-linear distribution sums to {total!r}, expected 1 within {tol:.1e}"
        )
    return Distribution(space, probs)
