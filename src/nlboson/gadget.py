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

A :class:`GadgetSpec` is its phase and its matrix; the ancilla count k, the
success probability and the objective are derived from them.  The gadget
file writes all five and reads back only the phase and the matrix, with the
file's k checked against the matrix.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .errors import DimensionError, GadgetSynthesisError
from .fock import _checked_dimension
from .linalg import (
    _checked_count,
    _mesh_unitary,
    _mesh_unitary_derivatives,
    _read_only_copy,
    _require_finite_phase,
    _ryser_gray,
    matrix_from_json,
    matrix_to_json,
    require_unitary,
    unitarity_deviation,
)

__all__ = [
    "GadgetSpec",
    "heralded_factors",
    "success_probability",
    "gadget_residuals",
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

# The one gate a gadget passes before a circuit uses it: the slack of the
# bundled four-decimal tables, of which the k=3 one is furthest off (1.77e-2).
MAX_GADGET_DEVIATION = 2.5e-2


@dataclass(frozen=True, eq=False)
class GadgetSpec:
    """A gadget: the finite phase ``phi`` it targets and a finite square
    matrix ``u_eff`` of size >= 2, both checked on construction and the
    matrix copied read-only.  Everything else is derived from them: ``k``
    (the ancilla count, the matrix size minus one), ``success_prob`` (the
    heralding probability) and ``residual`` (the synthesis objective, the
    summed squared condition residuals at ``phi``).
    """

    phi: float
    u_eff: np.ndarray

    def __post_init__(self):
        _require_finite_phase(self.phi)
        object.__setattr__(self, "u_eff", _read_only_copy(_checked_gadget_matrix(self.u_eff)))

    @property
    def k(self) -> int:
        return self.u_eff.shape[0] - 1

    @property
    def success_prob(self) -> float:
        return success_probability(self.u_eff)

    @property
    def residual(self) -> float:
        res = gadget_residuals(self.u_eff, self.phi)
        return float(np.sum(res.real**2 + res.imag**2))


def _checked_gadget_matrix(u_eff) -> np.ndarray:
    u = np.asarray(u_eff, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
        raise DimensionError(f"expected a square matrix of size >= 2, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix contains non-finite entries")
    return u


def _checked_ancillas(k) -> int:
    """The ancilla count of a synthesis: an integer in 1..MAX_ANCILLAS (DimensionError)."""
    k = _checked_dimension(k, "k", 1)
    if k > MAX_ANCILLAS:
        raise DimensionError(
            f"gadget synthesis supports ancilla counts 1..{MAX_ANCILLAS}, got k={k}"
        )
    return k


def _require_usable_gadget(u_eff, context: str) -> None:
    """NotUnitaryError if `u_eff` deviates from unitarity by more than
    MAX_GADGET_DEVIATION, the gate of every circuit that embeds a gadget."""
    require_unitary(u_eff, MAX_GADGET_DEVIATION, context)


def _require_gadget_for(spec: GadgetSpec, phi: float, context: str) -> None:
    """Whether `spec` may stand in for the gate at `phi`: NotUnitaryError past
    the gadget gate, then ValueError unless it realises `phi` exactly; `context`
    names the gadget in the phase message."""
    _require_usable_gadget(spec.u_eff, f"gadget k={spec.k}")
    if spec.phi != phi:
        raise ValueError(f"{context} realises phi={spec.phi!r}, not the experiment's phi={phi!r}")


def heralded_factors(u_eff, n: int) -> np.ndarray:
    """Heralded signal factors per(u_eff^{l,1,...,1}) / l! for l = 0..n.

    The signal's l-photon component is multiplied by the l-th factor when
    every ancilla output holds one photon; photon conservation in the gadget
    makes this hold for every l, including l > k.
    """
    u = _checked_gadget_matrix(u_eff)
    n = _checked_dimension(n, "n", 0)
    return _expanded_permanents(u, n) / _glynn_tables(u.shape[0] - 1, n).factorials


def success_probability(u_eff) -> float:
    """Heralding probability |per(u_eff with row/column 1 removed)|^2."""
    return _heralding_probability(_checked_gadget_matrix(u_eff))


def gadget_residuals(u_eff, phi: float) -> np.ndarray:
    """Condition residuals per(u^{l,..}) - l! * per(u^{0,..}) * e^{-i l^2 phi}."""
    u = _checked_gadget_matrix(u_eff)
    k = u.shape[0] - 1
    pers = _expanded_permanents(u, k)
    return pers[1:] - pers[0] * _phase_targets(k, float(phi))


class _GlynnTables(NamedTuple):
    counts: np.ndarray  # (P, k+1) column coefficients (c, delta_1..delta_k) per term
    weights: np.ndarray  # (P, n+1) the term's weight in per_l, zero where it has none
    exponents: np.ndarray  # (n+1,) l = 0..n
    factorials: np.ndarray  # (n+1,) l!
    others: np.ndarray  # (k, k-1) row i lists the ancilla rows other than i (0-based)


@functools.lru_cache(maxsize=None)
def _glynn_tables(k: int, n: int) -> _GlynnTables:
    """Terms of the multiplicity-aware Glynn sum for k ancillas and l <= n.

    One term per (c, delta): c = -n..n is the signed count of the copies of
    column 0 and delta in {+1, -1}^k, with delta_k = +1, signs the ancilla
    columns.  For a given l the term enters with weight
    2^(1-l-k) (-1)^mu C(l, mu) prod(delta), mu = (l - c)/2, when |c| <= l and
    l - c is even.
    """
    deltas = 1 - 2 * ((np.arange(1 << (k - 1))[:, None] >> np.arange(k)) & 1)  # delta_k = +1
    c = np.repeat(np.arange(-n, n + 1), len(deltas))
    signs = np.tile(deltas, (2 * n + 1, 1))
    sign_products = signs.prod(axis=1)
    weights = np.zeros((len(c), n + 1))
    for l in range(n + 1):
        mu, odd = np.divmod(l - c, 2)
        ok = (np.abs(c) <= l) & (odd == 0)
        binom = np.array([math.comb(l, int(v)) for v in mu[ok]], dtype=float)
        weights[ok, l] = (-1.0) ** mu[ok] * binom * sign_products[ok] * 2.0 ** (1 - l - k)
    tables = _GlynnTables(
        counts=np.column_stack([c, signs]).astype(complex),
        weights=weights,
        exponents=np.arange(n + 1),
        factorials=np.array([math.factorial(l) for l in range(n + 1)], dtype=float),
        others=np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=np.intp)
        .reshape(k, k - 1),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _expanded_permanents(u: np.ndarray, n: int) -> np.ndarray:
    """per(u^{l,1,...,1}) for l = 0..n in one pass; `u` is a checked gadget matrix.

    Glynn's formula on the expanded matrix, per(A) = 2^(1-N) times the sum
    over sign vectors d (one entry fixed to +1) of
    prod(d) prod_i (sum_j d_j A_ij), with the l copies of column 0 grouped
    by how many of them carry -1 (mu of them, C(l, mu) ways; the Walrus
    evaluates permanents with repeated rows the same way).  Row 0's l copies
    share one row sum, so with c = l - 2 mu

        per_l = 2^(1-l-k) sum_{mu=0..l} sum_{delta, delta_k=+1} (-1)^mu C(l, mu)
                prod(delta) r_0^l prod_{i>=1} r_i,
        r_i = c u[i, 0] + sum_{j=1..k} delta_j u[i, j].

    The terms for every l come from one (2n+1) 2^(k-1) table of row sums,
    instead of one 2^(l+k)-term sum per l.  The signed sums keep the row sums
    small, which makes this about a hundred times more accurate than the
    subset (Ryser) form of the same grouping at k = 4, l = 5.
    """
    tables = _glynn_tables(u.shape[0] - 1, n)
    sums = tables.counts @ u.T  # sums[p, i] = r_i of term p
    terms = sums[:, :1] ** tables.exponents * tables.weights
    return sums[:, 1:].prod(axis=1) @ terms


def _expanded_permanent_gradients(u: np.ndarray, n: int):
    """per(u^{l,1,...,1}) and its gradient in u for l = 0..n, shapes (n+1,)
    and (n+1, k+1, k+1).

    The permanent is a polynomial in the entries of u, so the gradient is
    holomorphic: d per_l = sum_ij grads[l, i, j] du[i, j].  It comes from
    `_expanded_permanents`' row sums, since r_i is linear in row i of u with
    the term's column coefficients counts[p, j]:

        d per_l / d u[0, j] = sum_p w_pl counts[p, j] l r_0^(l-1) prod_{i>=1} r_i,
        d per_l / d u[i, j] = sum_p w_pl counts[p, j] r_0^l prod_{i'>=1, i'!=i} r_i'.
    """
    k = u.shape[0] - 1
    tables = _glynn_tables(k, n)
    sums = tables.counts @ u.T
    powers = sums[:, :1] ** tables.exponents  # r_0^l
    terms = powers * tables.weights
    rest = sums[:, 1:]
    products = rest.prod(axis=1)
    leave_one_out = rest[:, tables.others].prod(axis=2)
    grads = np.zeros((n + 1, k + 1, k + 1), dtype=complex)
    row0 = powers[:, :-1] * products[:, None] * (tables.weights[:, 1:] * tables.exponents[1:])
    grads[1:, 0] = row0.T @ tables.counts
    per_row = (leave_one_out[:, :, None] * tables.counts[:, None, :]).reshape(len(sums), -1)
    grads[:, 1:] = (terms.T @ per_row).reshape(n + 1, k, k + 1)
    return products @ terms, grads


@functools.lru_cache(maxsize=64)
def _phase_targets(k: int, phi: float) -> np.ndarray:
    """l! e^{-i l^2 phi} for l = 1..k, the condition targets per unit per_0."""
    targets = np.array(
        [math.factorial(l) * complex(math.cos(l * l * phi), -math.sin(l * l * phi))
         for l in range(1, k + 1)],
        dtype=complex,
    )
    targets.setflags(write=False)
    return targets


def _heralding_probability(u: np.ndarray) -> float:
    """|per(u[1:, 1:])|^2 for a checked gadget matrix (scalar Ryser on the minor)."""
    return abs(_ryser_gray(u[1:, 1:].T.tolist())) ** 2


def success_bound(phi: float) -> float:
    """Upper bound on the heralding probability of any exact k=2 realization:
    [3 - cos(pi + 2*phi)]^2 / 16."""
    return (3.0 - math.cos(math.pi + 2.0 * phi)) ** 2 / 16.0


def apply_gadget(u_eff, coefficients) -> np.ndarray:
    """Heralded (unnormalized) action on signal coefficients c_0..c_k.

    c_l -> c_l * per(u_eff^{l,1,...,1}) / l!.  For a unitary `u_eff`,
    post-selection never amplifies: each factor is then a transition
    amplitude, so |factor| <= 1.  A non-unitary matrix has no such bound, and
    this function does not check for one.
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
    """Real and imaginary parts of every condition residual, interleaved,
    then the weighted success shortfall sqrt(lam) * max(0, p_th - p)."""
    u = _matrix_from_raw(x, m)
    res = gadget_residuals(u, phi)
    shortfall = max(0.0, p_th - _heralding_probability(u))
    return np.append(res.view(float), math.sqrt(lam) * shortfall)


def _residual_jacobian(x, m, phi, p_th, lam) -> np.ndarray:
    """Jacobian of `_residual_vector` in the raw angles, row for row.

    Each residual per_l - t_l per_0 is holomorphic in u, so its derivative
    in angle p is sum_ij (d per_l/du_ij - t_l d per_0/du_ij) du_ij/dx_p;
    the shortfall row differentiates -sqrt(lam) |per_0|^2 while p_th exceeds
    the success probability |per_0|^2, and is zero once it does not.
    """
    u, du = _mesh_unitary_derivatives(m, *_split_raw(x, m))
    pers, grads = _expanded_permanent_gradients(u, m - 1)
    dpers = grads.reshape(m, -1) @ du.reshape(len(du), -1).T  # (k+1, angles)
    dres = dpers[1:] - _phase_targets(m - 1, float(phi))[:, None] * dpers[0]
    jac = np.zeros((2 * m - 1, len(du)))
    jac[0:-1:2] = dres.real
    jac[1:-1:2] = dres.imag
    per0 = pers[0]
    if p_th > abs(per0) ** 2:
        jac[-1] = -2.0 * math.sqrt(lam) * (per0.conjugate() * dpers[0]).real
    return jac


def _penalized_objective(x, m, phi, p_th, lam) -> float:
    parts = _residual_vector(x, m, phi, p_th, lam)
    return float(parts @ parts)


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
    start refined by a least-squares pass with the analytic Jacobian of the
    residuals in the angles; the success-probability constraint enters as an
    exterior quadratic penalty whose weight escalates tenfold while violated.
    Starts are compared by (feasible, objective, -success probability) with
    the start index as tie-break, and the search stops early once a start
    reaches numerical zero.  Deterministic for a given generator.

    Raises GadgetSynthesisError (carrying the best attempt) if no start
    reaches objective <= 1e-8 with the constraint satisfied; the search is
    sensitive to p_th, so lowering it is the first thing to try.
    """
    k = _checked_ancillas(k)
    _require_finite_phase(phi)
    if p_th is None:
        p_th = DEFAULT_SUCCESS_THRESHOLDS[k]
    if not 0.0 < p_th < 1.0:
        raise ValueError(f"success threshold must be in (0, 1), got {p_th}")
    starts = _checked_count(starts, "starts", 1)
    budget = _checked_count(budget, "budget", 1)
    if k == 1:
        # A one-photon "non-linearity" is a plain phase: diag(e^{-i phi}, 1)
        # satisfies the single condition exactly with unit success probability.
        return GadgetSpec(phi, np.diag([complex(math.cos(phi), -math.sin(phi)), 1.0 + 0j]))
    if rng is None:
        rng = np.random.default_rng()
    m = k + 1

    best_key = best = None
    for start in range(starts):
        x = _random_raw(m, rng)
        lam = 10.0
        nm = optimize.minimize(
            _penalized_objective,
            x,
            args=(m, phi, p_th, lam),
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-14, "adaptive": True},
        )
        x = nm.x
        for _ in range(4):
            ls = optimize.least_squares(
                _residual_vector,
                x,
                args=(m, phi, p_th, lam),
                jac=_residual_jacobian,
                method="trf",
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
                max_nfev=budget,
            )
            x = ls.x
            if ls.fun[-1] == 0.0:  # no success shortfall at x
                break
            lam *= 10.0
        spec = GadgetSpec(float(phi), _matrix_from_raw(x, m))
        obj, prob = spec.residual, spec.success_prob
        feasible = obj <= CONVERGENCE_OBJECTIVE and prob >= p_th - 1e-12
        key = (not feasible, obj, -prob, start)
        if best_key is None or key < best_key:
            best_key, best = key, spec
        if feasible and obj <= 1e-20:
            break

    if best_key[0]:  # not feasible
        raise GadgetSynthesisError(
            f"no feasible gadget found for k={k}, phi={phi:.6g}, p_th={p_th} after {starts} "
            f"starts (best objective {best_key[1]:.3e}, success {best.success_prob:.4f}); "
            f"the search is sensitive to p_th",
            best=best,
        )
    return best


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


def reference_gadget(k: int) -> GadgetSpec:
    """Bundled phi = pi/2 gadget for k in {2, 3, 4} (4-decimal entries).

    The rounded tables are not exactly unitary; each must pass the gadget
    gate, MAX_GADGET_DEVIATION.
    """
    if k not in _REFERENCE_MATRICES:
        raise ValueError(f"reference gadgets exist for k in {sorted(_REFERENCE_MATRICES)}, got {k}")
    u = _REFERENCE_MATRICES[k]
    _require_usable_gadget(u, f"reference gadget k={k}")
    return GadgetSpec(math.pi / 2, u)


def verify_gadget(spec: GadgetSpec, tol: float = 1e-6) -> dict:
    """Recompute a gadget's figures of merit and gate them against `tol`.

    Returns a report dict with 'ok' plus the recomputed values; `ok` requires
    the max residual modulus and the unitarity deviation to stay within tol,
    which must be positive and finite.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got tol={tol}")
    max_res = float(np.abs(gadget_residuals(spec.u_eff, spec.phi)).max())
    dev = unitarity_deviation(spec.u_eff)
    return {
        "k": spec.k,
        "phi": spec.phi,
        "success_prob": spec.success_prob,
        "objective": spec.residual,
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
    """The gadget a JSON object describes.  Its ``k`` must be the JSON integer
    its ``u_eff`` gives; ``success_prob`` and ``residual`` are not read."""
    try:
        k = obj["k"]
        spec = GadgetSpec(float(obj["phi"]), matrix_from_json(obj["u_eff"]))
    except KeyError as exc:
        raise ValueError(f"malformed gadget JSON: missing {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed gadget JSON: {exc}") from None
    if type(k) is not int or k != spec.k:
        raise ValueError(f"malformed gadget JSON: k={k!r}, but its matrix gives k={spec.k}")
    return spec


def save_gadget(path, spec: GadgetSpec) -> None:
    Path(path).write_text(json.dumps(gadget_to_json(spec), indent=2) + "\n")


def load_gadget(path) -> GadgetSpec:
    return gadget_from_json(json.loads(Path(path).read_text()))
