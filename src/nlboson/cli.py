"""Command-line interface.

Every command is reproducible from its own outputs: results land at --out,
and a ``<out>.meta.json`` sidecar records the full configuration, the seed
and the package version.  Exit codes: 0 success, 1 domain failure, 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    default_gate_mode,
    fraction_for_threshold,
    random_unitary_search,
    summarize_records,
    truncated_mass_study,
    tvd,
    tvd_bunching_experiment,
    write_records_csv,
)
from .errors import BosonError
from .fock import as_state, format_state, parse_state
from .gadget import (
    load_gadget,
    optimize_gadget,
    reference_gadget,
    save_gadget,
    verify_gadget,
)
from .linalg import haar_unitary, load_matrix, permanent, permanent_naive
from .linear import Distribution, output_distribution, write_distribution_csv
from .nonlinear import (
    NonlinearExperiment,
    SingleModePhase,
    linearized_evolution,
    nonlinear_distribution,
)
from .simulate import build_setup, postselected_distribution, run_rejection_sampling

DEFAULT_PHI = math.pi / 2


def _write_sidecar(out: Path, command: str, config: dict) -> None:
    meta = {"command": command, "version": __version__, "config": config}
    Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _summary_path(out: Path) -> Path:
    return out.with_name(out.stem + "_summary.json")


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# accepted JSON types of every experiment-config key; input_state is required
_CONFIG_TYPES = {
    "input_state": (str, list),
    "m": (int,),
    "seed": (int,),
    "phi": (int, float),
    "mode_x": (int,),
    "w_matrix": (str, dict),
    "v_matrix": (str, dict),
    "gadget": (str, type(None)),
}
_JSON_TYPE_NAMES = {str: "a string", list: "an array", int: "an integer", float: "a number",
                    dict: "an object", type(None): "null"}


def _is_json_type(value, types) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, types) and not isinstance(value, bool)


def _validate_config(cfg, path: str) -> None:
    """Raise ValueError unless `cfg` is an experiment config the loader can use."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: experiment config must be a JSON object")
    if "input_state" not in cfg:
        raise ValueError(f"{path}: experiment config lacks the required key 'input_state'")
    for key, types in _CONFIG_TYPES.items():
        if key in cfg and not _is_json_type(cfg[key], types):
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
            raise ValueError(
                f"{path}: config key {key!r} must be {expected}, got {cfg[key]!r}"
            )
    state = cfg["input_state"]
    if isinstance(state, list) and not all(_is_json_type(c, int) for c in state):
        raise ValueError(f"{path}: input_state must list integer occupations, got {state!r}")
    for key in ("w_matrix", "v_matrix"):
        if isinstance(cfg.get(key), str) and cfg[key] != "haar":
            raise ValueError(
                f"{path}: config key {key!r} must be matrix JSON or \"haar\", got {cfg[key]!r}"
            )


def _load_experiment(path: str, phi_override: float | None = None):
    """Experiment config JSON -> (w, v, mode_x, phi, input_state, gadget_path).

    w_matrix / v_matrix are either inline matrix JSON or the string "haar",
    in which case they derive deterministically from the config's seed.
    """
    cfg = json.loads(Path(path).read_text())
    _validate_config(cfg, path)
    state = cfg["input_state"]
    s = parse_state(state) if isinstance(state, str) else as_state(state)
    m = int(cfg.get("m", len(s)))
    if m != len(s):
        raise ValueError(f"config m={m} but input_state has {len(s)} modes")
    seed = cfg.get("seed", 0)

    def realize(key: str, stream: int) -> np.ndarray:
        value = cfg.get(key, "haar")
        if value == "haar":
            return haar_unitary(m, np.random.default_rng([seed, stream]))
        from .linalg import matrix_from_json

        return matrix_from_json(value)

    w = realize("w_matrix", 0)
    v = realize("v_matrix", 1)
    phi = float(cfg.get("phi", DEFAULT_PHI)) if phi_override is None else phi_override
    mode_x = int(cfg.get("mode_x", default_gate_mode(m)))
    return w, v, mode_x, phi, s, cfg.get("gadget")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_permanent(args) -> int:
    mat = load_matrix(args.matrix)
    value = permanent_naive(mat) if args.naive else permanent(mat)
    print(f"permanent: {value.real:.17g} {value.imag:+.17g}i")
    if args.out:
        out = Path(args.out)
        out.write_text(
            json.dumps({"size": mat.shape[0], "permanent": [value.real, value.imag]}) + "\n"
        )
        _write_sidecar(out, "permanent", _config_dict(args))
    return 0


def _cmd_distribution(args) -> int:
    u = load_matrix(args.unitary)
    dist = output_distribution(u, parse_state(args.input))
    out = Path(args.out)
    write_distribution_csv(dist, out)
    _write_sidecar(out, "distribution", _config_dict(args))
    print(f"wrote {len(dist.probs)} outcomes to {out}")
    return 0


def _cmd_nonlinear_distribution(args) -> int:
    w, v, mode_x, phi, s, _ = _load_experiment(args.config, args.phi)
    exp = NonlinearExperiment(w, v, SingleModePhase(mode_x, phi), s)
    dist = nonlinear_distribution(exp)
    out = Path(args.out)
    write_distribution_csv(dist, out)
    _write_sidecar(out, "nonlinear-distribution", _config_dict(args))
    print(f"wrote {len(dist.probs)} outcomes to {out}")
    return 0


def _cmd_gadget_optimize(args) -> int:
    rng = np.random.default_rng(args.seed)
    spec = optimize_gadget(
        args.k, args.phi, args.p_th, starts=args.starts, rng=rng, budget=args.budget
    )
    out = Path(args.out)
    save_gadget(out, spec)
    _write_sidecar(out, "gadget optimize", _config_dict(args))
    print(
        f"k={spec.k} phi={spec.phi:.6g}: success probability {spec.success_prob:.6f}, "
        f"objective {spec.residual:.3e} -> {out}"
    )
    return 0


def _cmd_gadget_verify(args) -> int:
    spec = load_gadget(args.gadget)
    if args.phi is not None:
        spec = dataclasses.replace(spec, phi=args.phi)
    report = verify_gadget(spec, tol=args.tol)
    for key in ("k", "phi", "success_prob", "objective", "max_residual",
                "unitarity_deviation", "success_bound"):
        print(f"{key}: {report[key]}")
    print("ok" if report["ok"] else f"FAILED at tolerance {args.tol}")
    return 0 if report["ok"] else 1


def _cmd_simulate(args) -> int:
    w, v, mode_x, phi, s, gadget_ref = _load_experiment(args.config)
    gadget_path = args.gadget or gadget_ref
    if gadget_path is None:
        raise ValueError("no gadget given: pass --gadget or a 'gadget' config field")
    spec = load_gadget(gadget_path)
    setup = build_setup(w, v, mode_x, s, spec)
    _, p_ps = postselected_distribution(setup)
    rng = np.random.default_rng([args.seed, 2])
    samples, stats = run_rejection_sampling(setup, args.samples, rng)

    exact = nonlinear_distribution(NonlinearExperiment(w, v, SingleModePhase(mode_x, phi), s))
    counts = np.zeros(len(exact.space))
    for state in samples:
        counts[exact.space.rank(state)] += 1
    empirical = Distribution(exact.space, counts / counts.sum())

    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write("index,state,accepted_trial_count\n")
        for i, (state, trials) in enumerate(zip(samples, stats.trial_counts)):
            fh.write(f'{i},"{format_state(state)}",{trials}\n')
    summary = {
        "p_postselect": p_ps,
        "tvd_vs_exact": tvd(empirical, exact),
        "n_samples": stats.accepted,
        "acceptance_rate": stats.acceptance_rate,
    }
    _summary_path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_sidecar(out, "simulate", _config_dict(args))
    print(
        f"accepted {stats.accepted} samples in {stats.trials} trials "
        f"(rate {stats.acceptance_rate:.4f}, heralding mass {p_ps:.4f}); "
        f"TVD vs exact {summary['tvd_vs_exact']:.4f}"
    )
    return 0


def _cmd_experiment_tvd_bunching(args) -> int:
    modes = [int(x) for x in args.modes.split(",")]
    ks = [int(x) for x in args.k.split(",")]
    records = tvd_bunching_experiment(
        args.n,
        modes,
        ks,
        args.phi,
        args.trials,
        args.seed,
        mode_x=args.mode_x,
        starts=args.starts,
        reference=args.reference,
        workers=args.workers,
    )
    out = Path(args.out)
    write_records_csv(records, out)
    summary = summarize_records(records)
    _summary_path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_sidecar(out, "experiment tvd-bunching", _config_dict(args))
    for key, row in summary.items():
        print(f"{key}: mean TVD {row['tvd_mean']:.4f} (+/- {row['tvd_std']:.4f}), "
              f"site bunching {row['p_bunch_site_mean']:.4f}")
    return 0


def _cmd_analyze_cumulative(args) -> int:
    thresholds = [float(x) for x in args.thresholds.split(",")]
    s = (1,) * args.n + (0,) * (args.m - args.n)
    rows = []
    for unit in range(args.units):
        rng = np.random.default_rng([args.seed, unit])
        dist = output_distribution(haar_unitary(args.m, rng), s)
        rows.append([fraction_for_threshold(dist, p) for p in thresholds])
    fractions = np.array(rows)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write("unit,threshold,fraction\n")
        for unit in range(args.units):
            for j, p in enumerate(thresholds):
                fh.write(f"{unit},{p:.17g},{fractions[unit, j]:.17g}\n")
    summary = {
        f"p={p:g}": {
            "fraction_mean": float(fractions[:, j].mean()),
            "fraction_std": float(fractions[:, j].std(ddof=1 if args.units > 1 else 0)),
        }
        for j, p in enumerate(thresholds)
    }
    _summary_path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_sidecar(out, "analyze cumulative", _config_dict(args))
    for key, row in summary.items():
        print(f"{key}: mean fraction {row['fraction_mean']:.3f}")
    return 0


def _cmd_analyze_truncation(args) -> int:
    rng = np.random.default_rng(args.seed)
    result = truncated_mass_study(args.n, args.m, args.n_max, args.units, rng)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write("unit,truncated_mass\n")
        for unit, value in enumerate(result.samples):
            fh.write(f"{unit},{value:.17g}\n")
    summary = {"mean": result.mean, "stddev": result.stddev, "units": args.units}
    _summary_path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_sidecar(out, "analyze truncation", _config_dict(args))
    print(f"truncated mass: {result.mean:.4f} +/- {result.stddev:.4f}")
    return 0


def _cmd_analyze_linear_search(args) -> int:
    w, v, mode_x, phi, s, _ = _load_experiment(args.config)
    exp = NonlinearExperiment(w, v, SingleModePhase(mode_x, phi), s)
    rng = np.random.default_rng([args.seed, 3])
    result = random_unitary_search(exp, args.iterations, rng)
    target = nonlinear_distribution(exp)
    benchmark = tvd(output_distribution(linearized_evolution(w, mode_x, phi, v), s), target)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write("iteration,best_tvd\n")
        for i, value in enumerate(result.trace):
            fh.write(f"{i + 1},{value:.17g}\n")
    summary = {"best_tvd": result.best_tvd, "tvd_linearized": benchmark,
               "iterations": args.iterations}
    _summary_path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_sidecar(out, "analyze linear-search", _config_dict(args))
    print(f"best random-search TVD {result.best_tvd:.4f}; "
          f"linearized benchmark TVD {benchmark:.4f}")
    return 0


def _cmd_gadget_reference(args) -> int:
    spec = reference_gadget(args.k)
    out = Path(args.out)
    save_gadget(out, spec)
    _write_sidecar(out, "gadget reference", _config_dict(args))
    print(f"k={spec.k}: success probability {spec.success_prob:.4f} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlboson",
        description="Photonic sampling with single-mode non-linear phase gates.",
    )
    parser.add_argument("--version", action="version", version=f"nlboson {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("permanent", help="permanent of a matrix JSON file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--naive", action="store_true", help="use the permutation-sum oracle")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_permanent)

    p = sub.add_parser("distribution", help="exact linear output distribution")
    p.add_argument("--unitary", required=True)
    p.add_argument("--input", required=True, help='Fock state, e.g. "1,1,0"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("nonlinear-distribution",
                       help="exact distribution with the non-linear phase gate")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--phi", type=float, default=None, help="override the config phase")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_nonlinear_distribution)

    gadget = sub.add_parser("gadget", help="post-selected gadget synthesis and checks")
    gsub = gadget.add_subparsers(dest="gadget_command", required=True)

    p = gsub.add_parser("optimize", help="synthesize a gadget")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--phi", type=float, default=DEFAULT_PHI)
    p.add_argument("--p-th", dest="p_th", type=float, default=None,
                   help="success-probability threshold (default depends on k)")
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gadget_optimize)

    p = gsub.add_parser("verify", help="recompute and gate a gadget's figures of merit")
    p.add_argument("--gadget", required=True)
    p.add_argument("--phi", type=float, default=None, help="override the stored phase")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_gadget_verify)

    p = gsub.add_parser("reference", help="export a bundled reference gadget (phi = pi/2)")
    p.add_argument("--k", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gadget_reference)

    p = sub.add_parser("simulate", help="heralded simulation of one experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--gadget", default=None, help="gadget JSON (overrides config)")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    experiment = sub.add_parser("experiment", help="parametric studies")
    esub = experiment.add_subparsers(dest="experiment_command", required=True)

    p = esub.add_parser("tvd-bunching", help="TVD vs bunching over Haar draws")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modes", required=True, help="comma list, e.g. 5,9,16,27")
    p.add_argument("--k", required=True, help="comma list of ancilla counts")
    p.add_argument("--phi", type=float, default=DEFAULT_PHI)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mode-x", dest="mode_x", type=int, default=None)
    p.add_argument("--starts", type=int, default=60)
    p.add_argument("--reference", choices=("gadget", "pathsum"), default="gadget")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment_tvd_bunching)

    analyze = sub.add_parser("analyze", help="distribution-level studies")
    asub = analyze.add_subparsers(dest="analyze_command", required=True)

    p = asub.add_parser("cumulative", help="sorted cumulative mass fractions")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=9)
    p.add_argument("--units", type=int, default=1000)
    p.add_argument("--thresholds", default="0.9,0.95,0.99")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze_cumulative)

    p = asub.add_parser("truncation", help="mass with capped per-mode occupation")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=9)
    p.add_argument("--n-max", dest="n_max", type=int, default=2)
    p.add_argument("--units", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze_truncation)

    p = asub.add_parser("linear-search", help="random search for a linear stand-in")
    p.add_argument("--config", required=True)
    p.add_argument("--iterations", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze_linear_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BosonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
