"""The benchmark's tracer wraps package functions by name; a refactor that
renames or moves one of them must fail here, not only in the benchmark."""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

import nlboson
import nlboson.cli  # noqa: F401  (the tracer wraps cli.main)

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_wraps_and_restores_every_traced_function():
    tracing = _load_tracing()
    originals = {(module, func): getattr(getattr(nlboson, module), func)
                 for module, func in tracing.SPANNED}
    rank = nlboson.fock.StateSpace.rank
    tracer = tracing.Tracer(nlboson)
    with tracer.active():
        for (module, func), original in originals.items():
            assert getattr(getattr(nlboson, module), func) is not original, f"{module}.{func}"
        nlboson.output_distribution(np.eye(2), (1, 1))
    for (module, func), original in originals.items():
        assert getattr(getattr(nlboson, module), func) is original, f"{module}.{func}"
    assert nlboson.fock.StateSpace.rank is rank
    assert tracer.span_totals()["linear.output_distribution"][0] == 1


def test_an_in_process_simulate_reports_its_rejection_loop(tmp_path):
    # the benchmark's rejection metrics come from the public sampler's span
    gadget = TRACING.parent / "inputs" / "gadget_k3_pi2.json"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"input_state": [1, 1, 1, 0, 0], "seed": 3, "phi": math.pi / 2,
                               "gadget": str(gadget)}))
    tracer = _load_tracing().Tracer(nlboson)
    with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
        assert nlboson.cli.main(["simulate", "--config", str(cfg), "--samples", "200",
                                 "--seed", "4", "--out", str(tmp_path / "s.csv")]) == 0
    assert tracer.span_totals()["simulate.run_rejection_sampling"][0] == 1
    assert tracer.counts["simulate.raw_draws"] > 0
