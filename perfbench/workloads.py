"""The benchmark's four workloads.

Each workload derives every input from the run's seed, defines one op as the
call (or, for haar-linear, the loop body) a user's study repeats, and checks
every op's result outside the timed region.  Ops call the package through
module attributes (``nb.linear.output_distribution``), so a tracer that
swaps those attributes sees every layer boundary.

Why these four, and which per-layer metric should move which end-to-end
metric on which workload, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

INPUTS = Path(__file__).resolve().parent / "inputs"
PHI = math.pi / 2


def gadget_path(k: int) -> Path:
    return INPUTS / f"gadget_k{k}_pi2.json"


class Workload:
    """One named workload; subclasses define set-up, inputs, op and check."""

    name = ""
    # ops in the fixed list that a traced pass replays
    trace_ops = 4

    def __init__(self, nb, seed: int, workdir: Path):
        self.nb = nb
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        """Load and verify fixed inputs; may run several times."""

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when the op's result is correct, else the reason it is not."""
        raise NotImplementedError

    def report(self, op_seconds: float, ok_ops: int) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed next to the end-to-end metrics."""
        return {}

    def layer_counts(self, inp, out) -> dict[str, float]:
        """Per-layer counts read from an op's outputs rather than its calls."""
        return {}

    def _load_verified_gadget(self, k: int):
        spec = self.nb.load_gadget(gadget_path(k))
        report = self.nb.verify_gadget(spec, tol=1e-8)
        if not report["ok"]:
            raise ValueError(f"{gadget_path(k).name} fails verify_gadget at tol 1e-8: {report}")
        return spec


class HaarLinear(Workload):
    """Loop body of ``analyze cumulative`` at n = 4, m = 16 (3876 outcomes)."""

    name = "haar-linear"
    trace_ops = 8
    STATE = (1,) * 4 + (0,) * 12
    THRESHOLDS = (0.9, 0.95, 0.99)

    def make_input(self, i):
        return i, self.nb.haar_unitary(16, np.random.default_rng([self.seed, i]))

    def op(self, inp):
        _, u = inp
        nb = self.nb
        dist = nb.linear.output_distribution(u, self.STATE)
        return dist, [nb.analysis.fraction_for_threshold(dist, p) for p in self.THRESHOLDS]

    def check(self, inp, out):
        i, u = inp
        dist, fractions = out
        if len(dist.probs) != 3876 or abs(dist.total() - 1.0) > 1e-9:
            return f"distribution has {len(dist.probs)} outcomes summing to {dist.total()!r}"
        if not all(0.0 < f <= 1.0 for f in fractions) or fractions != sorted(fractions):
            return f"cumulative fractions {fractions} are not increasing in (0, 1]"
        # single amplitudes take the scalar Ryser route, independent of the batch
        rng = np.random.default_rng([self.seed, i, 1])
        picks = [int(np.argmax(dist.probs))] + list(rng.integers(0, len(dist.probs), 2))
        for r in picks:
            t = dist.space.states[r]
            p = abs(self.nb.amplitude(u, self.STATE, t)) ** 2
            if abs(p - dist.probs[r]) > 1e-12:
                return f"outcome {t}: |amplitude|^2 {p!r} vs probability {dist.probs[r]!r}"
        return None


class TvdBunching(Workload):
    """One trial of the TVD-vs-bunching study at n = 3, m = 9, k = 1, 2, 3."""

    name = "tvd-bunching"

    def setup(self):
        nb = self.nb
        self.gadgets = {1: nb.optimize_gadget(1, PHI)}  # closed form, no search
        for k in (2, 3):
            self.gadgets[k] = self._load_verified_gadget(k)
        self.p_k3 = nb.success_probability(self.gadgets[3].u_eff)

    def make_input(self, i):
        return self.seed * 1_000_000 + i

    def op(self, inp):
        return self.nb.analysis.tvd_bunching_experiment(
            3, [9], [1, 2, 3], PHI, trials=1, seed=inp, gadgets=self.gadgets,
            reference="pathsum",
        )

    def check(self, inp, out):
        if [r.k for r in out] != [1, 2, 3]:
            return f"expected records for k = 1, 2, 3, got {[r.k for r in out]}"
        for r in out:
            if not (0.0 <= r.tvd <= 1.0 and 0.0 <= r.p_bunch_site <= 1.0
                    and 0.0 < r.p_postselect <= 1.0 + 1e-12):
                return f"k={r.k} record out of range: {r}"
        exact = out[2]
        if exact.tvd > 1e-9:
            return f"k=3 (exact gadget) TVD {exact.tvd!r} against the path sum exceeds 1e-9"
        if abs(exact.p_postselect - self.p_k3) > 1e-9:
            return (f"k=3 heralding mass {exact.p_postselect!r} differs from the "
                    f"gadget's success probability {self.p_k3!r}")
        return None


class GadgetSynthesis(Workload):
    """Capped k = 2 synthesis starts asked for a success probability above the
    heralding ceiling, on the suite's 8-point phase grid.

    Full-budget searches stop at the first start that converges, so their
    cost is geometric in the number of restarts (0.4 s to 38 s per op at the
    suite's settings).  With one start, a 10-evaluation budget and a
    threshold no exact k = 2 gadget can reach, every op runs the whole
    search path -- Nelder-Mead, four penalty escalations of the
    finite-difference least-squares pass, the infeasibility report -- on a
    nearly fixed number of residual evaluations.
    """

    name = "gadget-synthesis"
    trace_ops = 8
    P_TH = 0.99
    BUDGET = 10
    GRID = [(i + 1) * math.pi / 16 for i in range(8)]

    def setup(self):
        ceiling = max(self.nb.success_bound(phi) for phi in self.GRID)
        if ceiling >= self.P_TH:
            raise ValueError(f"p_th {self.P_TH} is reachable: the ceiling is {ceiling}")

    def make_input(self, i):
        return self.GRID[i % len(self.GRID)], np.random.default_rng([self.seed, i])

    def op(self, inp):
        phi, rng = inp
        nb = self.nb
        try:
            return nb.gadget.optimize_gadget(2, phi, self.P_TH, starts=1, rng=rng,
                                             budget=self.BUDGET)
        except nb.GadgetSynthesisError as exc:
            return exc

    def check(self, inp, out):
        nb = self.nb
        phi, _ = inp
        if not isinstance(out, nb.GadgetSynthesisError):
            return f"returned a gadget above the heralding ceiling at phi={phi!r}"
        best = out.best
        if not isinstance(best, nb.GadgetSpec) or best.k != 2 or best.phi != phi:
            return f"infeasibility report carries no k=2 attempt at phi={phi!r}: {best!r}"
        report = nb.verify_gadget(best)
        if abs(report["objective"] - best.residual) > 1e-12 + 1e-9 * best.residual:
            return f"reported objective {best.residual!r}, recomputed {report['objective']!r}"
        if abs(report["success_prob"] - best.success_prob) > 1e-12:
            return (f"reported success {best.success_prob!r}, "
                    f"recomputed {report['success_prob']!r}")
        if report["unitarity_deviation"] > 1e-10:
            return f"best attempt is not unitary ({report['unitarity_deviation']:.2e})"
        return None


class Simulate(Workload):
    """In-process ``nlboson simulate`` at n = 3, m = 5 with the exact k = 3 gadget."""

    name = "simulate"
    SAMPLES = 5000
    STATE = (1, 1, 1, 0, 0)

    def setup(self):
        self.p_herald = self.nb.success_probability(self._load_verified_gadget(3).u_eff)
        self.config = self.workdir / "config.json"
        self.out = self.workdir / "samples.csv"

    def make_input(self, i):
        run_seed = self.seed * 1_000_000 + i
        self.config.write_text(json.dumps({
            "input_state": list(self.STATE),
            "seed": run_seed,
            "phi": PHI,
            "gadget": str(gadget_path(3)),
        }))
        return run_seed, ["simulate", "--config", str(self.config), "--samples",
                          str(self.SAMPLES), "--seed", str(run_seed), "--out", str(self.out)]

    def op(self, inp):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.nb.cli.main(inp[1])

    def _read_samples(self):
        with open(self.out, newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    def check(self, inp, out):
        nb = self.nb
        if out != 0:
            return f"exit code {out}"
        header, rows = self._read_samples()
        if header != ["index", "state", "accepted_trial_count"] or len(rows) != self.SAMPLES:
            return f"CSV has header {header} and {len(rows)} rows, expected {self.SAMPLES}"
        # every raw draw up to the last acceptance is counted in some row
        draws = sum(int(r[2]) for r in rows)
        p = self.p_herald
        z = (self.SAMPLES - p * draws) / math.sqrt(p * (1.0 - p) * draws)
        if abs(z) > 5.0:
            return f"acceptance {self.SAMPLES}/{draws} is {z:.2f} sigma from p = {p:.6f}"
        # the CLI draws a "haar" W and V from streams 0 and 1 of the config seed
        run_seed = inp[0]
        w = nb.haar_unitary(5, np.random.default_rng([run_seed, 0]))
        v = nb.haar_unitary(5, np.random.default_rng([run_seed, 1]))
        exact = nb.nonlinear_distribution(nb.NonlinearExperiment(
            w, v, nb.SingleModePhase(nb.default_gate_mode(5), PHI), self.STATE))
        counts = np.zeros(len(exact.space))
        for r in rows:
            counts[exact.space.rank(nb.parse_state(r[1]))] += 1
        tvd = 0.5 * float(np.abs(counts / self.SAMPLES - exact.probs).sum())
        # E[TVD] <= sqrt(K/N)/2 for K outcomes; a 0.04 excess has probability
        # below exp(-2 N 0.04^2) ~ 1e-7 by McDiarmid's inequality
        bound = 0.5 * math.sqrt(len(exact.space) / self.SAMPLES) + 0.04
        if tvd > bound:
            return f"sample TVD {tvd:.4f} against the exact distribution exceeds {bound:.4f}"
        return None

    def report(self, op_seconds, ok_ops):
        return {"samples_per_s": (self.SAMPLES * ok_ops / op_seconds, "1/s")}

    def layer_counts(self, inp, out):
        written = self.out, self.out.with_name(self.out.stem + "_summary.json"), \
            Path(str(self.out) + ".meta.json")
        return {"cli.bytes_written": float(sum(p.stat().st_size for p in written))}


WORKLOADS = {cls.name: cls for cls in (HaarLinear, TvdBunching, GadgetSynthesis, Simulate)}
