"""Metrics and parametric studies: total variation distance, bunching
probabilities, sorted cumulative distributions, Haar truncation and
random-search baselines, and the TVD-vs-bunching experiment driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionError
from .fock import FockState, _checked_dimension, as_state
from .gadget import GadgetSpec, _checked_ancillas, _require_gadget_for, optimize_gadget
from .linalg import _checked_count, _checked_matrix, _checked_mode, _checked_real, haar_unitary
from .linear import Distribution, _amplitudes_to_all, _unit_sum_distribution, output_distribution
from .nonlinear import NonlinearExperiment, SingleModePhase, nonlinear_distribution
from .simulate import _heralded_distribution

__all__ = [
    "ExperimentRecord",
    "TruncationResult",
    "SearchResult",
    "tvd",
    "bunching_at_site",
    "bunching_global",
    "sorted_cumulative",
    "fraction_for_threshold",
    "truncated_mass_study",
    "random_unitary_search",
    "tvd_bunching_experiment",
    "default_gate_mode",
    "synthesize_gadgets",
    "summarize_records",
    "write_records_csv",
]


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the L1 distance."""
    if p.space != q.space:
        raise DimensionError(
            f"distributions live on different spaces: {p.space} vs {q.space}"
        )
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def _site_bunching_mass(dist: Distribution, mode_x: int, threshold: int) -> float:
    mask = dist.space.occupations[:, mode_x - 1] > threshold
    return float(dist.probs[mask].sum())


def _global_bunching_mass(dist: Distribution, threshold: int) -> float:
    mask = dist.space.occupations.max(axis=1) > threshold
    return float(dist.probs[mask].sum())


def bunching_at_site(w, input_state, mode_x: int, threshold: int) -> float:
    """Probability of more than `threshold` photons at one mode after `w`;
    `threshold` is a count, at least 0 (ValueError)."""
    s = as_state(input_state)
    mode_x = _checked_mode(mode_x, len(s), f"mode {mode_x}")
    threshold = _checked_count(threshold, "threshold", 0)
    dist = output_distribution(_checked_matrix(w, "W"), s)
    return _site_bunching_mass(dist, mode_x, threshold)


def bunching_global(w, input_state, threshold: int) -> float:
    """Probability that any mode holds more than `threshold` photons after `w`;
    `threshold` is a count, at least 0 (ValueError)."""
    threshold = _checked_count(threshold, "threshold", 0)
    dist = output_distribution(_checked_matrix(w, "W"), input_state)
    return _global_bunching_mass(dist, threshold)


def sorted_cumulative(dist: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities sorted in decreasing order, with their running sums."""
    ordered = np.sort(dist.probs)[::-1]
    return ordered, np.cumsum(ordered)


def fraction_for_threshold(dist: Distribution, p: float) -> float:
    """Smallest fraction of outcomes (taken by decreasing probability) whose
    cumulative mass reaches `p`."""
    p = _checked_threshold(p)
    _, cum = sorted_cumulative(dist)
    idx = int(np.searchsorted(cum, p - 1e-12, side="left"))
    idx = min(idx, len(cum) - 1)
    return (idx + 1) / len(cum)


def _checked_threshold(p) -> float:
    """`p` as a float if it is a mass threshold in (0, 1], else ValueError."""
    p = _checked_real(p, "threshold")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {p}")
    return p


@dataclass(frozen=True, eq=False)
class TruncationResult:
    """Kept probability mass when capping the per-mode occupation."""

    mean: float
    stddev: float
    samples: np.ndarray


def _single_photons(n: int, m: int) -> FockState:
    """One photon in each of the first n of m modes."""
    n, m = _checked_dimension(n, "n", 0), _checked_dimension(m, "m", 1)
    if n > m:
        raise DimensionError(f"need m >= n to inject single photons, got n={n}, m={m}")
    return (1,) * n + (0,) * (m - n)


def truncated_mass_study(n: int, m: int, n_max: int, n_unit: int,
                         rng: np.random.Generator) -> TruncationResult:
    """Average mass of outcomes with at most `n_max` photons per mode.

    Single photons enter the first n modes of `n_unit` Haar-random unitaries.
    """
    s = _single_photons(n, m)
    n_unit = _checked_count(n_unit, "n_unit", 1)
    n_max = _checked_count(n_max, "n_max", 0)
    dists = (output_distribution(haar_unitary(m, rng), s) for _ in range(n_unit))
    samples = np.array([1.0 - _global_bunching_mass(dist, n_max) for dist in dists])
    dof = 1 if len(samples) > 1 else 0
    return TruncationResult(float(samples.mean()), float(samples.std(ddof=dof)), samples)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best linear stand-in found by random search, and the non-linear
    distribution it was measured against."""

    best_tvd: float
    best_unitary: np.ndarray
    trace: np.ndarray  # running best after each draw
    target: Distribution


def random_unitary_search(exp: NonlinearExperiment, iterations: int,
                          rng: np.random.Generator) -> SearchResult:
    """Haar-sample linear unitaries, tracking the one whose output
    distribution is closest (in TVD) to the non-linear evolution."""
    iterations = _checked_count(iterations, "iterations", 1)
    target = nonlinear_distribution(exp)
    best, best_u = math.inf, None
    trace = np.empty(iterations)
    for i in range(iterations):
        u = haar_unitary(exp.m, rng)
        d = tvd(output_distribution(u, exp.input_state), target)
        if d < best:
            best, best_u = d, u
        trace[i] = best
    return SearchResult(best, best_u, trace, target)


# ---------------------------------------------------------------------------
# TVD-vs-bunching experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentRecord:
    """One (modes, ancillas, trial) row of the TVD-vs-bunching study."""

    n: int
    m: int
    k: int
    phi: float
    trial: int
    seed: int
    tvd: float
    p_bunch_site: float
    p_bunch_global: float
    p_postselect: float


def default_gate_mode(m: int) -> int:
    """Central mode, the default non-linearity site (1-based).

    floor(m/2) + 1: mode 5 of 9, mode 9 of 16, mode 14 of 27.
    """
    return m // 2 + 1


def synthesize_gadgets(ks: Sequence[int], phi: float, seed: int, *,
                       starts: int = 60) -> dict[int, GadgetSpec]:
    """One gadget per ancilla count, each from its own derived random stream."""
    ks = sorted(set(map(_checked_ancillas, ks)))
    phi = _checked_real(phi, "phi")
    seed = _checked_count(seed, "seed", 0)
    out: dict[int, GadgetSpec] = {}
    for k in ks:
        rng = np.random.default_rng([seed, 1_000_003, k])
        out[k] = optimize_gadget(k, phi, starts=starts, rng=rng)
    return out


def _experiment_trial(args) -> list[ExperimentRecord]:
    (n, m, k_list, phi, trial, seed, mode_x, gadgets, reference) = args
    rng = np.random.default_rng([seed, m, trial])
    w = haar_unitary(m, rng)
    v = haar_unitary(m, rng)
    x = mode_x if mode_x is not None else default_gate_mode(m)
    s = _single_photons(n, m)
    exp = NonlinearExperiment(w, v, SingleModePhase(x, phi), s)
    # one set of photon-number components serves the reference and every k
    space, components = exp.components
    if reference == "gadget":
        exact, _ = _heralded_distribution(space, components, gadgets[n].u_eff)
    else:  # "pathsum", checked by tvd_bunching_experiment
        exact = nonlinear_distribution(exp)
    # the bunching masses read the distribution after W, from the checked exp.w
    # and the deviation its check found
    intermediate = _unit_sum_distribution(space, _amplitudes_to_all(exp.w, s, space),
                                          exp._deviations[0])
    records = []
    for k in k_list:
        dist_k, p_ps = _heralded_distribution(space, components, gadgets[k].u_eff)
        records.append(
            ExperimentRecord(
                n=n,
                m=m,
                k=k,
                phi=phi,
                trial=trial,
                seed=seed,
                tvd=tvd(dist_k, exact),
                p_bunch_site=_site_bunching_mass(intermediate, x, k),
                p_bunch_global=_global_bunching_mass(intermediate, k),
                p_postselect=p_ps,
            )
        )
    return records


def tvd_bunching_experiment(
    n: int,
    m_list: Sequence[int],
    k_list: Sequence[int],
    phi: float,
    trials: int,
    seed: int,
    *,
    gadgets: Mapping[int, GadgetSpec] | None = None,
    mode_x: int | None = None,
    starts: int = 60,
    reference: str = "pathsum",
    workers: int = 1,
) -> list[ExperimentRecord]:
    """TVD of the k-ancilla simulation against the exact evolution, next to
    the bunching probability at the gate site, over Haar draws of (W, V).

    One (W, V) pair is drawn per (m, trial) and evaluated at every k, so the
    per-k comparison is paired.  Each trial derives its stream from
    (seed, m, trial); results do not depend on `workers`.  The exact
    reference is the ideal gate exp(-i n^2 phi) by default ('pathsum'), or,
    opt-in, the heralded k=n simulation ('gadget'), which reproduces it up
    to that gadget's residual.  Each trial computes the photon-number
    components of (W, V) once; the reference and every k are factor vectors
    applied to them.

    The gadgets it uses are one per k in `k_list`, plus k=n under
    'gadget'; only those are synthesised when `gadgets` is None.  Each must
    sit under its own ancilla count in `gadgets`, pass the gadget gate,
    :data:`nlboson.gadget.MAX_GADGET_DEVIATION`, and target the
    experiment's `phi` exactly.
    """
    n = _checked_dimension(n, "n", 0)
    m_list = [_checked_dimension(m, "m", 1) for m in m_list]
    k_list = [_checked_dimension(k, "k", 1) for k in k_list]
    phi = _checked_real(phi, "phi")
    if reference not in ("gadget", "pathsum"):
        raise ValueError(f"unknown reference {reference!r} (use 'gadget' or 'pathsum')")
    for m in m_list:
        _single_photons(n, m)  # m >= n
    for name, values in (("m", m_list), ("k", k_list)):
        if len(set(values)) < len(values):
            raise ValueError(f"each {name} may be listed once, got {name}={values}")
    trials = _checked_count(trials, "trials", 1)
    workers = _checked_count(workers, "workers", 1)
    seed = _checked_count(seed, "seed", 0)
    starts = _checked_count(starts, "starts", 1)
    if mode_x is not None:
        mode_x = _checked_mode(mode_x, min(m_list), f"gate mode mode_x={mode_x}")
    needed = set(k_list) | ({n} if reference == "gadget" else set())
    if gadgets is None:
        gadgets = synthesize_gadgets(sorted(needed), phi, seed, starts=starts)
    missing = needed - set(gadgets)
    if missing:
        raise ValueError(f"gadget map is missing ancilla counts {sorted(missing)}")
    for k in sorted(needed):
        if gadgets[k].k != k:
            raise DimensionError(
                f"gadget map entry k={k} holds a k={gadgets[k].k} gadget"
            )
        _require_gadget_for(gadgets[k], phi, f"gadget map entry k={k}")
    tasks = [
        (n, m, k_list, phi, trial, seed, mode_x, dict(gadgets), reference)
        for m in m_list
        for trial in range(trials)
    ]
    records: list[ExperimentRecord] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares one-worker runs its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_experiment_trial, tasks, chunksize=4):
                records.extend(chunk)
    else:
        for task in tasks:
            records.extend(_experiment_trial(task))
    return records


def summarize_records(records: Sequence[ExperimentRecord]) -> dict:
    """Per-(m, k) means and standard deviations of TVD and bunching."""
    groups: dict[tuple[int, int], list[ExperimentRecord]] = {}
    for rec in records:
        groups.setdefault((rec.m, rec.k), []).append(rec)
    summary = {}
    for (m, k), recs in sorted(groups.items()):
        tvds = np.array([r.tvd for r in recs])
        site = np.array([r.p_bunch_site for r in recs])
        glob = np.array([r.p_bunch_global for r in recs])
        pps = np.array([r.p_postselect for r in recs])
        dof = 1 if len(recs) > 1 else 0
        summary[f"m={m},k={k}"] = {
            "trials": len(recs),
            "tvd_mean": float(tvds.mean()),
            "tvd_std": float(tvds.std(ddof=dof)),
            "p_bunch_site_mean": float(site.mean()),
            "p_bunch_site_std": float(site.std(ddof=dof)),
            "p_bunch_global_mean": float(glob.mean()),
            "p_postselect_mean": float(pps.mean()),
        }
    return summary


def write_records_csv(records: Sequence[ExperimentRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("n,m,k,phi,trial,seed,tvd,p_bunch_site,p_bunch_global,p_postselect\n")
        for r in records:
            fh.write(
                f"{r.n},{r.m},{r.k},{r.phi:.17g},{r.trial},{r.seed},"
                f"{r.tvd:.17g},{r.p_bunch_site:.17g},{r.p_bunch_global:.17g},"
                f"{r.p_postselect:.17g}\n"
            )
