"""Spans and counters at nlboson's layer boundaries, recorded from outside.

The tracer wraps public functions of the package under every name a module
looks them up by (``nlboson.linear.occupation_indices``,
``nlboson.gadget.permanent``, ...), records one span per call -- name, start,
end and the enclosing span -- and restores the originals when the traced
call returns.  Nothing in the package is edited, and with no tracer active
the package runs unwrapped.

Self time is derived from the spans: a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
from array import array
from collections import defaultdict

import numpy as np

SUBMODULES = ("fock", "linalg", "linear", "nonlinear", "simulate", "gadget",
              "analysis", "cli")

# (defining module, function) pairs that get a span named "<module>.<function>"
SPANNED = (
    ("fock", "occupation_indices"),
    ("fock", "normalization_product"),
    ("fock", "enumerate_states"),
    ("linalg", "permanents"),
    ("linalg", "gathered_permanents"),
    ("linalg", "permanent"),
    ("linear", "output_distribution"),
    ("nonlinear", "nonlinear_distribution"),
    ("simulate", "postselected_distribution"),
    ("simulate", "run_rejection_sampling"),
    ("gadget", "optimize_gadget"),
    ("analysis", "tvd_bunching_experiment"),
    ("analysis", "fraction_for_threshold"),
    ("cli", "main"),
)


class Tracer:
    """Collects spans and counters while :meth:`active` is entered."""

    def __init__(self, nlboson):
        self._modules = [nlboson] + [getattr(nlboson, name) for name in SUBMODULES]
        self._nb = nlboson
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and counter."""
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._heralding: dict[int, tuple[object, float]] = {}

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn, probe=None):
        nid = self._name_id(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- probes: counts taken where the work happens ---------------------------

    def _on_enumerate(self, args, space) -> None:
        self.counts["fock.states_materialised"] += len(space)

    def _on_permanents(self, args, result) -> None:
        batch, size = np.shape(args[0])[:2]
        self.counts["linalg.permanents.matrices"] += batch
        # Ryser work: every non-empty column subset, a product over `size` rows
        self.counts["linalg.ryser_terms"] += batch * ((1 << size) - 1) * size

    def _on_postselected(self, args, result) -> None:
        setup = args[0]
        self._heralding[id(setup)] = (setup, result[1])

    def _on_rejection(self, args, result) -> None:
        stats = result[1]
        self.counts["simulate.raw_draws"] += stats.trials
        self.counts["simulate.accepted"] += stats.accepted
        seen = self._heralding.get(id(args[0]))
        if seen is not None:
            p = seen[1]
            self.counts["simulate.expected_accepted"] += p * stats.trials
            self.counts["simulate.accept_variance"] += p * (1.0 - p) * stats.trials

    def _on_gadget(self, args, result) -> None:
        self.counts["gadget.feasible"] += 1

    def _replacements(self):
        nb = self._nb
        probes = {
            "enumerate_states": self._on_enumerate,
            "permanents": self._on_permanents,
            "postselected_distribution": self._on_postselected,
            "run_rejection_sampling": self._on_rejection,
            "optimize_gadget": self._on_gadget,
        }
        out = []
        for module, func in SPANNED:
            original = getattr(getattr(nb, module), func)
            wrapped = self._spanned(f"{module}.{func}", original, probes.get(func))
            for owner in self._modules:
                if getattr(owner, func, None) is original:
                    out.append((owner, func, wrapped))
        residuals = nb.gadget.gadget_residuals
        out.append((nb.gadget, "gadget_residuals",
                    self._counted("gadget.objective_evals", residuals)))
        # every synthesis start opens with one Nelder-Mead search
        scipy_optimize = nb.gadget.optimize
        out.append((scipy_optimize, "minimize",
                    self._counted("gadget.starts", scipy_optimize.minimize)))
        rank = nb.fock.StateSpace.rank
        out.append((nb.fock.StateSpace, "rank", self._spanned("fock.rank", rank)))
        return out

    @contextlib.contextmanager
    def active(self):
        """Wrap the layer functions for the duration of the block."""
        patched = []
        try:
            for owner, attr, wrapped in self._replacements():
                patched.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        n = len(self.span_start)
        if n == 0:
            return {}
        index = np.dtype(f"i{self.span_name.itemsize}")
        names = np.frombuffer(self.span_name, dtype=index, count=n)
        parents = np.frombuffer(self.span_parent, dtype=index, count=n)
        dur = (np.frombuffer(self.span_end, count=n)
               - np.frombuffer(self.span_start, count=n))
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        calls = np.bincount(names, minlength=len(self._names))
        self_s = np.bincount(names, weights=dur - child, minlength=len(self._names))
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self._names) if calls[i]}

    def layer_totals(self) -> dict[str, float]:
        """Per-layer metrics for everything recorded since the last reset."""
        spans = self.span_totals()

        def calls(name):
            return spans.get(name, (0, 0.0))[0]

        def self_s(*names):
            return sum(spans.get(name, (0, 0.0))[1] for name in names)

        c = self.counts
        draws = c["simulate.raw_draws"]
        var = c["simulate.accept_variance"]
        starts = c["gadget.starts"]
        return {
            "fock.per_state.calls": calls("fock.occupation_indices")
            + calls("fock.normalization_product"),
            "fock.per_state.self_s": self_s("fock.occupation_indices",
                                            "fock.normalization_product"),
            "fock.enumerate_states.calls": calls("fock.enumerate_states"),
            "fock.enumerate_states.self_s": self_s("fock.enumerate_states"),
            "fock.states_materialised": c["fock.states_materialised"],
            "fock.rank.calls": calls("fock.rank"),
            "fock.rank.self_s": self_s("fock.rank"),
            "linalg.permanents.calls": calls("linalg.permanents"),
            "linalg.permanents.matrices": c["linalg.permanents.matrices"],
            "linalg.permanents.self_s": self_s("linalg.permanents"),
            "linalg.gathered_permanents.self_s": self_s("linalg.gathered_permanents"),
            "linalg.ryser_terms": c["linalg.ryser_terms"],
            "linalg.permanent.calls": calls("linalg.permanent"),
            "linalg.permanent.self_s": self_s("linalg.permanent"),
            "nonlinear.nonlinear_distribution.calls": calls("nonlinear.nonlinear_distribution"),
            "nonlinear.nonlinear_distribution.self_s": self_s("nonlinear.nonlinear_distribution"),
            "simulate.postselected_distribution.calls": calls("simulate.postselected_distribution"),
            "simulate.postselected_distribution.self_s": self_s("simulate.postselected_distribution"),
            "simulate.run_rejection_sampling.self_s": self_s("simulate.run_rejection_sampling"),
            "simulate.raw_draws": draws,
            "simulate.accept_ratio": c["simulate.accepted"] / draws if draws else 0.0,
            "simulate.accept_z": ((c["simulate.accepted"] - c["simulate.expected_accepted"])
                                  / math.sqrt(var) if var else 0.0),
            "gadget.optimize_gadget.calls": calls("gadget.optimize_gadget"),
            "gadget.optimize_gadget.self_s": self_s("gadget.optimize_gadget"),
            "gadget.objective_evals": c["gadget.objective_evals"],
            "gadget.starts": starts,
            "gadget.feasible_ratio": c["gadget.feasible"] / starts if starts else 0.0,
            "linear.output_distribution.calls": calls("linear.output_distribution"),
            "linear.output_distribution.self_s": self_s("linear.output_distribution"),
            "analysis.tvd_bunching_experiment.self_s": self_s("analysis.tvd_bunching_experiment"),
            "analysis.fraction_for_threshold.self_s": self_s("analysis.fraction_for_threshold"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def export_spans(self) -> dict:
        """The recorded spans as plain lists, parents as span indices (-1: root)."""
        return {
            "names": list(self._names),
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }


def write_spans(path, spans: dict) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump(spans, fh)
