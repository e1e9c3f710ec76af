"""Three-step evolutions with a photon-number-diagonal middle layer.

The sandwich is: linear network W, then a non-linear layer, then linear
network V.  The one gate class is the single-mode phase gate
exp(-i * n_x^2 * phi) (:class:`SingleModePhase`), which multiplies each
intermediate Fock state by exp(-i * r_x^2 * phi).

Any layer that multiplies an intermediate state by a factor g_j depending
only on the photon number j at one site x is fixed by n+1 photon-number
components: A_j(T) sums the W -> V paths from the input to output T with
exactly j photons at x, so the layer's amplitude is sum_j g_j A_j(T).
Splitting W V at x into the rank-one C = W[:, x] V[x, :] and B = W V - C,
A_j(T) is the z^j coefficient of the amplitude through B + z C, and
:func:`photon_number_components` computes every coefficient in one pass: a
recursion over the input photons, tagged with the photons sent through x
(:func:`_tagged_components`).  The ideal gate has g_j = exp(-i j^2 phi), a
heralded gadget g_j = per(U^{j,1..1}) / j!
(:func:`nlboson.gadget.heralded_factors`, used by :mod:`nlboson.simulate`),
the linearized benchmark g_j = exp(-i j phi); any other single-mode
diagonal layer is likewise ``g @ A``.

Three more routes to one amplitude are kept for cross-validation: the
Feynman path sum over the intermediate basis (:func:`nonlinear_amplitude`,
two batched linear passes), the Fourier form (:func:`phase_gate_amplitude`,
which evaluates the linearized circuit W F_theta V at the n+1 roots of unity
by scalar permanents and inverts that discrete Fourier transform), and the
split form, which separates the linearizable part (the same circuit with a
plain phase shifter in place of the gate) from bunching corrections with
more than one photon at the gate site (:func:`phase_gate_amplitude_split`).

Every entry to the sandwich builds one :class:`NonlinearExperiment`, which
checks it on construction: W and V m x m and unitary, the gate mode an
integer in 1..m.  The experiment holds read-only copies of W and V, guards its
intermediate space, and computes its photon-number components once, on first
use; a :class:`nlboson.simulate.SimulationSetup` is one experiment plus a gadget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    FockState,
    StateSpace,
    _checked_state,
    enumerate_states,
    normalization_product,
    occupation_indices,
    photon_count,
)
from .linalg import (
    _UNITARITY_TOL,
    _checked_mode,
    _checked_pair,
    _checked_real,
    _phase_factors,
    _read_only_copy,
    _require_type,
    _unitarity_gate,
    matrix_from_states,
    permanent,
    phase_shifter,
)
from .linear import (Distribution, _amplitudes_to_all, _guard_space, _require_unit_sum,
                     _unit_sum_distribution)

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
    """exp(-i * n^2 * phi) on one mode; `mode` is 1-based, stored as an int,
    and `phi` is stored as a float."""

    mode: int
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "mode", _checked_mode(self.mode, None, f"gate mode {self.mode}"))
        object.__setattr__(self, "phi", _checked_real(self.phi, "phi"))

    def number_factors(self, n: int) -> np.ndarray:
        """Factors g_j = exp(-i j^2 phi) for j = 0..n photons at the gate site."""
        return _phase_factors(self.phi, [j * j for j in range(n + 1)])

    def linearized_factors(self, n: int) -> np.ndarray:
        """Factors g_j = exp(-i j phi) of the phase shifter exp(-i n_x phi) that
        stands in for the gate in the linearized benchmark."""
        return _phase_factors(self.phi, range(n + 1))


@dataclass(frozen=True, eq=False)
class NonlinearExperiment:
    """Input state plus the W -> gate -> V sandwich, checked on construction;
    W and V are kept as read-only copies, so a caller editing its arrays changes nothing.
    The unitarity deviations of W and V, found by that check, are kept for every
    gate of the experiment whose tolerance scales with them."""

    w: np.ndarray
    v: np.ndarray
    gate: SingleModePhase
    input_state: FockState
    _deviations: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        _require_type(self.gate, SingleModePhase, "gate")
        w, v = _checked_pair(self.w, self.v)
        deviations = (_unitarity_gate(w, _UNITARITY_TOL, "W"),
                      _unitarity_gate(v, _UNITARITY_TOL, "V"))
        s = _checked_state(self.input_state, len(w), None, "input state")
        _checked_mode(self.gate.mode, len(s), f"gate mode {self.gate.mode}")
        object.__setattr__(self, "w", _read_only_copy(w))
        object.__setattr__(self, "v", _read_only_copy(v))
        object.__setattr__(self, "input_state", s)
        object.__setattr__(self, "_deviations", deviations)

    @property
    def m(self) -> int:
        return len(self.input_state)

    @property
    def n(self) -> int:
        return photon_count(self.input_state)

    def space(self) -> StateSpace:
        _guard_space(self.m, self.n, "intermediate space")
        return enumerate_states(self.m, self.n)

    @functools.cached_property
    def components(self) -> tuple[StateSpace, np.ndarray]:
        """``(space, A)`` of :func:`photon_number_components`, computed on first use
        and kept read-only for the experiment's lifetime: (n+1) * len(space) * 16 B.

        V is unitary, so sum_T |A_j(T)|^2 is the probability of j photons at the
        gate mode after W, and the whole of A sums to one in squared modulus; it
        is gated on that as a distribution of the sandwich is
        (:func:`nlboson.linear._require_unit_sum`)."""
        space = self.space()
        a = _tagged_components(self.w, self.v, self.gate.mode, self.input_state, space)
        _require_unit_sum(np.vdot(a, a).real, space.m, max(self._deviations))
        a.setflags(write=False)
        return space, a


def _tagged_components(w: np.ndarray, v: np.ndarray, mode_x: int, input_state: FockState,
                       space: StateSpace) -> np.ndarray:
    """A of shape (n+1, len(space)), by one recursion over the input photons
    (the strong-simulation recursion of Heurtel et al., arXiv:2206.10549,
    with each amplitude split by the photons it sends through x).

    With C = W[:, x] V[x, :] and B = W V - C, send the input photons in one
    at a time.  After k of them, psi_k[j, T] over the states T of k photons
    is the part of per((B + z C)_{S_k, T}), S_k the first k photons, that
    goes with z^j: j of its rows went through x.  Expanding the permanent
    along the k-th photon's row i gives one term per photon of T, so

        psi_k[j, T] = sum_p B[i, l_p] psi_{k-1}[j, T - e_{l_p}]
                          + C[i, l_p] psi_{k-1}[j-1, T - e_{l_p}]

    over the modes l_p of T's photons (``labels``), with the rank of
    T - e_{l_p} read from each space's ``predecessors``.  Then
    A = psi_n / sqrt(prod s_i! prod t_i!).  Each step gathers one (j, state)
    block per photon of T, never one per mode; no Fourier passes and no
    permanents.
    """
    m, n = space.m, space.n
    c_all = np.outer(w[:, mode_x - 1], v[mode_x - 1])
    b_all = w @ v - c_all
    psi = np.ones((1, 1), dtype=complex)
    for k, i in enumerate(occupation_indices(input_state), start=1):
        # the caller's own space last: one above the cache bound is not rebuilt
        level = space if k == n else enumerate_states(m, k)
        b, c = b_all[i], c_all[i]
        grown = np.zeros((k + 1, len(level)), dtype=complex)
        for labels, ranks in zip(level.labels.T, level.predecessors.T):
            before = psi[:, ranks]
            grown[:k] += b[labels] * before
            grown[1:] += c[labels] * before
        psi = grown
    return psi / np.sqrt(normalization_product(input_state) * space.norms)


def nonlinear_amplitude(exp: NonlinearExperiment, output_state) -> complex:
    """Path-sum transition amplitude of the three-step evolution.

    sum_R <R|W|S> g(r_x) <T|V|R> over the intermediate basis, with
    g(r) = exp(-i r^2 phi).  The V leg is taken as amplitudes of V^T from T,
    since per(V_{R,T}) = per(V^T_{T,R}), so both legs are one batched pass
    each over the intermediate space.
    """
    t = _checked_state(output_state, exp.m, exp.n, "output state")
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
    exp = NonlinearExperiment(w, v, SingleModePhase(mode_x, phi), input_state)
    s, n, x = exp.input_state, exp.n, exp.gate.mode
    t = _checked_state(output_state, exp.m, n, "output state")
    passes = [
        permanent(matrix_from_states(linearized_evolution(exp.w, x, theta, exp.v), s, t))
        for theta in _fourier_phases(n)
    ]
    norm = math.sqrt(normalization_product(s) * normalization_product(t))
    return complex(exp.gate.number_factors(n) @ _inverse_dft(np.array(passes)) / norm)


def linearized_evolution(w, mode_x: int, phi: float, v) -> np.ndarray:
    """Composite unitary with the gate replaced by a linear phase shifter.

    The sequence W, then exp(-i n_x phi), then V, i.e. W @ F @ V.
    """
    w, v = _checked_pair(w, v)
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
    ``g @ A``.  The pair is the :attr:`NonlinearExperiment.components` of the
    phi = 0 experiment, so A is read-only.

    Costs one photon-number-tagged recursion over the input photons
    (:func:`_tagged_components`): O(n^2 * len(space)) work, reading the
    labels, norms and predecessor ranks of the shared spaces of 1..n photons.
    """
    # A does not depend on phi, and phi = 0 makes the gate the identity layer
    return NonlinearExperiment(w, v, SingleModePhase(mode_x, 0.0), input_state).components


def phase_gate_amplitude_split(w, mode_x: int, phi: float, v, input_state,
                               output_state) -> complex:
    """Split form: linearized term plus bunching corrections.

    per(Ubar_{S,T})/sqrt(prod s! prod t!) plus, for every intermediate state
    with r_x > 1, the path term weighted by exp(-i r_x^2 phi) - exp(-i r_x phi).
    Equal to :func:`phase_gate_amplitude` to rounding.
    """
    exp = NonlinearExperiment(w, v, SingleModePhase(mode_x, phi), input_state)
    s, x = exp.input_state, exp.gate.mode
    t = _checked_state(output_state, exp.m, exp.n, "output state")
    ubar = linearized_evolution(exp.w, x, exp.gate.phi, exp.v)
    corrections = exp.gate.number_factors(exp.n) - exp.gate.linearized_factors(exp.n)
    norm_s = math.sqrt(normalization_product(s))
    norm_t = math.sqrt(normalization_product(t))
    total = permanent(matrix_from_states(ubar, s, t)) / (norm_s * norm_t)
    for r in exp.space():
        rx = r[x - 1]
        if rx <= 1:
            continue
        total += (
            permanent(matrix_from_states(exp.w, s, r))
            * complex(corrections[rx])
            * permanent(matrix_from_states(exp.v, r, t))
            / (norm_s * normalization_product(r) * norm_t)
        )
    return complex(total)


def nonlinear_distribution(exp: NonlinearExperiment) -> Distribution:
    """Full output distribution of the three-step evolution.

    The gate's factors on the experiment's photon-number components
    (:attr:`NonlinearExperiment.components`).  The number-preserving gate
    keeps the evolution unitary, so the probabilities sum to one.
    """
    return _layer_distribution(exp, exp.gate.number_factors(exp.n))


def _layer_distribution(exp: NonlinearExperiment, factors: np.ndarray) -> Distribution:
    """|factors @ A|^2 over the experiment's space, for a layer of unit-modulus
    factors g_j, which keeps the evolution unitary."""
    space, components = exp.components
    return _unit_sum_distribution(space, factors @ components, max(exp._deviations))
