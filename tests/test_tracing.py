"""The benchmark's tracer wraps package functions by name; a refactor that
renames or moves one of them must fail here, not only in the benchmark."""

import importlib.util
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
