"""Only gadget synthesis loads scipy.optimize, and only a multi-process study
loads the process pool: the other commands run on numpy alone.  Each check
needs a fresh interpreter, so one subprocess walks through the stages and
reports which of the two modules were loaded after each."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

import nlboson

SRC = Path(nlboson.__file__).resolve().parent.parent

STAGES = r"""
import contextlib, io, json, math, sys
from pathlib import Path

HEAVY = ("scipy.optimize", "concurrent.futures.process")
tmp = Path(sys.argv[1])
seen = {}

def stage(name):
    seen[name] = [m for m in HEAVY if m in sys.modules]

import nlboson, nlboson.cli
stage("import")

import numpy as np
from nlboson import GadgetSynthesisError, cli, optimize_gadget, save_matrix

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

save_matrix(tmp / "u.json", np.eye(3, dtype=complex))
run("distribution", "--unitary", str(tmp / "u.json"), "--input", "1,1,0",
    "--out", str(tmp / "dist.csv"))
stage("distribution")

run("gadget", "reference", "--k", "2", "--out", str(tmp / "ref2.json"))
(tmp / "exp.json").write_text(json.dumps({
    "m": 3, "input_state": "1,1,0", "phi": math.pi / 2, "seed": 2,
    "gadget": str(tmp / "ref2.json")}))
run("simulate", "--config", str(tmp / "exp.json"), "--samples", "20", "--seed", "1",
    "--out", str(tmp / "samples.csv"))
stage("simulate")

# k = 1 is the closed-form gadget, which needs no search
run("experiment", "tvd-bunching", "--n", "1", "--modes", "2", "--k", "1", "--trials", "1",
    "--out", str(tmp / "records.csv"))
stage("tvd-bunching k=1")

# the default reference is the ideal gate, so an n = 3 study needs no k = 3 gadget
run("experiment", "tvd-bunching", "--n", "3", "--modes", "5", "--k", "1", "--trials", "1",
    "--out", str(tmp / "records3.csv"))
stage("tvd-bunching n=3 k=1")

try:
    optimize_gadget(2, math.pi / 2, starts=1, budget=5, rng=np.random.default_rng(0))
except GadgetSynthesisError:
    pass
stage("optimize_gadget k=2")
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Per stage, the heavy modules loaded once it had run."""
    tmp = tmp_path_factory.mktemp("imports")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STAGES, str(tmp)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", ["import", "distribution", "simulate", "tvd-bunching k=1",
                                   "tvd-bunching n=3 k=1"])
def test_commands_that_do_not_synthesise_load_neither_scipy_optimize_nor_the_pool(loaded,
                                                                                 stage):
    assert loaded[stage] == []


def test_synthesis_loads_scipy_optimize(loaded):
    assert loaded["optimize_gadget k=2"] == ["scipy.optimize"]


def test_the_gadget_module_names_scipy_optimize_and_nothing_else():
    assert nlboson.gadget.optimize is scipy.optimize
    with pytest.raises(AttributeError, match="no_such_name"):
        nlboson.gadget.no_such_name  # noqa: B018
