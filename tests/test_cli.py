import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import nlboson
from nlboson import GadgetSpec, __version__, analysis, optimize_gadget, reference_gadget
from nlboson import save_gadget, save_matrix
from nlboson import (
    NonlinearExperiment,
    SingleModePhase,
    haar_unitary,
    linearized_evolution,
    matrix_to_json,
    nonlinear_distribution,
    output_distribution,
    tvd,
    write_distribution_csv,
)
from nlboson.cli import _load_experiment, build_parser, main

from .conftest import network_checks


def write_identity(path, m=3):
    save_matrix(path, np.eye(m, dtype=complex))


def test_permanent_command(tmp_path, capsys):
    mat = tmp_path / "m.json"
    save_matrix(mat, np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = tmp_path / "per.json"
    assert main(["permanent", "--matrix", str(mat), "--out", str(out)]) == 0
    assert "permanent: 10" in capsys.readouterr().out
    assert json.loads(out.read_text())["permanent"] == [10.0, 0.0]
    assert (tmp_path / "per.json.meta.json").exists()
    assert main(["permanent", "--matrix", str(mat), "--naive"]) == 0


def test_distribution_command_point_mass(tmp_path):
    mat = tmp_path / "id.json"
    write_identity(mat)
    out = tmp_path / "dist.csv"
    assert main(["distribution", "--unitary", str(mat), "--input", "1,0,0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "state,probability"
    assert '"1,0,0",1' in lines[1] or '"1,0,0",0.99999' in lines[1]
    meta = json.loads((tmp_path / "dist.csv.meta.json").read_text())
    assert meta["command"] == "distribution"
    assert meta["config"]["input"] == "1,0,0"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["distribution", "--no-such-flag"])
    assert err.value.code == 2


def test_domain_error_exits_one(tmp_path, capsys):
    mat = tmp_path / "bad.json"
    save_matrix(mat, np.eye(3) * 2.0)  # not unitary
    out = tmp_path / "dist.csv"
    code = main(["distribution", "--unitary", str(mat), "--input", "1,0,0", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gadget_optimize_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "g1.json"
    assert main(["gadget", "optimize", "--k", "1", "--phi", "0.7", "--out", str(out)]) == 0
    assert main(["gadget", "verify", "--gadget", str(out), "--tol", "1e-8"]) == 0
    assert "success_prob: 1.0" in capsys.readouterr().out


def test_gadget_reference_export_and_verify(tmp_path):
    out = tmp_path / "ref2.json"
    assert main(["gadget", "reference", "--k", "2", "--out", str(out)]) == 0
    # rounded entries pass at the bundled-constant tolerance ...
    assert main(["gadget", "verify", "--gadget", str(out), "--tol", "5e-3"]) == 0
    # ... and fail a strict gate
    assert main(["gadget", "verify", "--gadget", str(out), "--tol", "1e-8"]) == 1


def _write_experiment_config(path, phi=math.pi / 4, gadget=None):
    cfg = {
        "m": 2,
        "input_state": "1,1",
        "mode_x": 1,
        "phi": phi,
        "w_matrix": "haar",
        "v_matrix": "haar",
        "seed": 3,
    }
    if gadget is not None:
        cfg["gadget"] = str(gadget)
    path.write_text(json.dumps(cfg))


def test_nonlinear_distribution_command(tmp_path):
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "nl.csv"
    assert main(["nonlinear-distribution", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "state,probability"
    assert len(lines) == 4  # three two-photon states on two modes


@pytest.mark.parametrize("cfg,fragment", [
    ({"seed": 3}, "'input_state'"),
    ([1, 1], "JSON object"),
    ({"input_state": "1,1", "m": "2"}, "'m' must be an integer"),
    ({"input_state": [1, 0.5]}, "occupations must be integers"),
    ({"input_state": "1,1", "w_matrix": "identity"}, "'w_matrix'"),
])
def test_malformed_config_is_an_error_line(tmp_path, capsys, cfg, fragment):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert main(["nonlinear-distribution", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err and not out.exists()


def test_simulate_command(tmp_path, gadget_k2_pi4, capsys):
    gadget_path = tmp_path / "g2.json"
    save_gadget(gadget_path, gadget_k2_pi4)
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg, gadget=gadget_path)
    out = tmp_path / "samples.csv"
    code = main([
        "simulate", "--config", str(cfg), "--samples", "300",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,state,accepted_trial_count"
    assert len(lines) == 301
    summary = json.loads((tmp_path / "samples_summary.json").read_text())
    assert set(summary) == {"p_postselect", "tvd_vs_exact", "n_samples", "acceptance_rate"}
    assert summary["n_samples"] == 300
    assert 0 < summary["p_postselect"] < 1


def test_simulate_requires_gadget(tmp_path):
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(cfg), "--samples", "10", "--out", str(out)]) == 1


def test_simulate_refuses_a_gadget_beyond_the_gate_and_writes_nothing(tmp_path, capsys):
    ref = reference_gadget(2)
    gadget = tmp_path / "bad.json"
    save_gadget(gadget, GadgetSpec(ref.phi, 2 * ref.u_eff))
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg, gadget=gadget)
    out = tmp_path / "samples.csv"
    code = main(["simulate", "--config", str(cfg), "--samples", "10", "--out", str(out)])
    _assert_error_line(capsys, code, "gadget k=2: matrix is not unitary")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "exp.json"]


def test_simulate_runs_on_an_exported_rounded_reference_gadget(tmp_path):
    gadget = tmp_path / "ref3.json"
    assert main(["gadget", "reference", "--k", "3", "--out", str(gadget)]) == 0
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg, phi=math.pi / 2, gadget=gadget)
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(cfg), "--samples", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 21


@pytest.mark.parametrize("tol, message", [
    ("nan", "tol must be finite, got tol=nan"),
    ("-1", "tolerance must be positive and finite, got tol=-1.0"),
    ("0", "tolerance must be positive and finite, got tol=0.0"),
    ("inf", "tol must be finite, got tol=inf"),
])
def test_gadget_verify_bad_tolerance_is_an_error_line(tmp_path, capsys, tol, message):
    gadget = tmp_path / "ref2.json"
    assert main(["gadget", "reference", "--k", "2", "--out", str(gadget)]) == 0
    capsys.readouterr()
    code = main(["gadget", "verify", "--gadget", str(gadget), f"--tol={tol}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "FAILED" not in captured.out and "Traceback" not in captured.err


def test_experiment_command_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "experiment", "tvd-bunching", "--n", "2", "--modes", "3,4", "--k", "1",
        "--trials", "2", "--seed", "12", "--reference", "pathsum",
        "--workers", "1",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    summary = json.loads((tmp_path / "a_summary.json").read_text())
    assert "m=3,k=1" in summary and "m=4,k=1" in summary


def test_experiment_reference_defaults_to_the_ideal_gate_in_the_sidecar(tmp_path):
    out = tmp_path / "records.csv"
    argv = ["experiment", "tvd-bunching", "--n", "1", "--modes", "2", "--k", "1",
            "--trials", "1", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "records.csv.meta.json").read_text())
    assert meta["config"]["reference"] == "pathsum"


def test_simulate_command_byte_identical_reruns_at_the_benchmark_shape(tmp_path):
    # n = 3, m = 5 with the committed exact k = 3 gadget and 5000 samples
    gadget = Path(__file__).parent.parent / "perfbench" / "inputs" / "gadget_k3_pi2.json"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"input_state": [1, 1, 1, 0, 0], "seed": 7, "phi": math.pi / 2,
                               "gadget": str(gadget)}))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", str(cfg), "--samples", "5000", "--seed", "8",
                     "--out", str(out)]) == 0
        runs.append((out.read_bytes(), (tmp_path / f"{name}_summary.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].count(b"\n") == 5001


def test_a_huge_phase_runs_as_its_residue_mod_two_pi(tmp_path, capsys):
    residue = math.atan2(math.sin(1e308), math.cos(1e308))  # libm's exact reduction
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    texts = []
    for phi in (1e308, residue):
        out = tmp_path / "nl.csv"
        assert main(["nonlinear-distribution", "--config", str(cfg), f"--phi={phi!r}",
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    # a gadget synthesised at the huge phase verifies at it
    gadget = tmp_path / "g.json"
    assert main(["gadget", "optimize", "--k", "1", "--phi=1e308", "--out", str(gadget)]) == 0
    assert json.loads(gadget.read_text())["phi"] == 1e308
    assert main(["gadget", "verify", "--gadget", str(gadget)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"


def test_analyze_cumulative_command(tmp_path):
    out = tmp_path / "cum.csv"
    code = main([
        "analyze", "cumulative", "--n", "2", "--m", "4", "--units", "5",
        "--thresholds", "0.9,0.99", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "unit,threshold,fraction"
    assert len(lines) == 1 + 5 * 2
    summary = json.loads((tmp_path / "cum_summary.json").read_text())
    assert set(summary) == {"p=0.9", "p=0.99"}


def test_analyze_truncation_command(tmp_path):
    out = tmp_path / "trunc.csv"
    code = main([
        "analyze", "truncation", "--n", "2", "--m", "4", "--n-max", "1",
        "--units", "6", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "trunc_summary.json").read_text())
    assert 0 < summary["mean"] < 1


@pytest.mark.parametrize("command", ["cumulative", "truncation"])
def test_analyze_zero_units_is_an_error_line(tmp_path, capsys, command):
    out = tmp_path / "a.csv"
    code = main(["analyze", command, "--n", "2", "--m", "4", "--units", "0",
                 "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "5", "1,5"])
def test_experiment_bad_ancilla_count_is_an_error_line(tmp_path, capsys, k):
    out = tmp_path / "rec.csv"
    code = main(["experiment", "tvd-bunching", "--n", "2", "--modes", "3", "--k", k,
                 "--trials", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"k={k.split(',')[-1]}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--starts", "--budget"])
def test_gadget_optimize_empty_search_is_an_error_line(tmp_path, capsys, flag):
    out = tmp_path / "g.json"
    code = main(["gadget", "optimize", "--k", "2", flag, "0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"{flag[2:]} must be at least 1" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [("--starts", "starts must be at least 1"),
                                           ("--trials", "trials=0")])
def test_experiment_empty_study_is_an_error_line(tmp_path, capsys, flag, message):
    out = tmp_path / "rec.csv"
    code = main(["experiment", "tvd-bunching", "--n", "2", "--modes", "3", "--k", "1",
                 flag, "0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not out.exists()


def test_analyze_cumulative_more_photons_than_modes_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "cum.csv"
    code = main(["analyze", "cumulative", "--n", "5", "--m", "3", "--units", "2",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: need m >= n" in err and "n=5, m=3" in err
    assert not out.exists()


def test_analyze_linear_search_command(tmp_path):
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "search.csv"
    code = main([
        "analyze", "linear-search", "--config", str(cfg), "--iterations", "50",
        "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,best_tvd"
    assert len(lines) == 51
    summary = json.loads((tmp_path / "search_summary.json").read_text())
    assert summary["iterations"] == 50
    assert 0 <= summary["best_tvd"] <= 1
    assert 0 <= summary["tvd_linearized"] <= 1


def test_linear_search_benchmark_is_the_linearized_circuit(tmp_path):
    # the phase shifter's factors on the components against the circuit
    # W F_phi V run as a linear network
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"m": 4, "input_state": "2,1,0,1", "mode_x": 2, "phi": 1.1,
                               "w_matrix": "haar", "v_matrix": "haar", "seed": 5}))
    out = tmp_path / "search.csv"
    argv = ["analyze", "linear-search", "--config", str(cfg), "--iterations", "2",
            "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "search_summary.json").read_text())
    exp, _ = _load_experiment(str(cfg))
    ubar = linearized_evolution(exp.w, exp.gate.mode, exp.gate.phi, exp.v)
    want = tvd(output_distribution(ubar, exp.input_state), nonlinear_distribution(exp))
    assert want > 0.01
    assert abs(summary["tvd_linearized"] - want) <= 1e-12


def test_linear_search_builds_its_target_once(tmp_path, spy):
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    builds = spy(nlboson.nonlinear, "nonlinear_distribution")
    argv = ["analyze", "linear-search", "--config", str(cfg), "--iterations", "3",
            "--out", str(tmp_path / "search.csv")]
    assert main(argv) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("argv, fragment", [
    (["experiment", "tvd-bunching", "--n", "-1", "--modes", "3", "--k", "1"], "n=-1"),
    (["experiment", "tvd-bunching", "--n", "3", "--modes", "5", "--k", "1", "--mode-x", "9"],
     "mode_x=9"),
    (["analyze", "cumulative", "--n", "-1", "--m", "3", "--units", "2"], "n=-1"),
])
def test_bad_photon_number_or_gate_mode_is_an_error_line(tmp_path, capsys, monkeypatch,
                                                         argv, fragment):
    def untouched(*args, **kwargs):
        raise AssertionError("synthesized before validating the arguments")

    monkeypatch.setattr(analysis, "synthesize_gadgets", untouched)
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_non_finite_phase_is_an_error_line(tmp_path, capsys, phi):
    out = tmp_path / "g.json"
    assert main(["gadget", "optimize", "--k", "2", f"--phi={phi}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"phi={float(phi)}" in err
    assert not out.exists()

    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "nl.csv"
    assert main(["nonlinear-distribution", "--config", str(cfg), f"--phi={phi}",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"phi={float(phi)}" in err
    _write_experiment_config(cfg, phi=float(phi))  # the config's own NaN or Infinity
    assert main(["nonlinear-distribution", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"phi={float(phi)}" in err
    assert not out.exists()

    gadget = tmp_path / "g.json"  # a gadget file's own NaN or Infinity
    gadget.write_text(json.dumps({"k": 1, "phi": float(phi), "u_eff": matrix_to_json(np.eye(2))}))
    code = main(["gadget", "verify", "--gadget", str(gadget)])
    _assert_error_line(capsys, code, f"phi must be finite, got phi={float(phi)}")


def _assert_error_line(capsys, code, fragment):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [[5], [[1, "x"]]])
def test_malformed_matrix_entry_is_an_error_line(tmp_path, capsys, data):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"rows": 1, "cols": 1, "data": data}))
    out = tmp_path / "per.json"
    code = main(["permanent", "--matrix", str(mat), "--out", str(out)])
    _assert_error_line(capsys, code, "malformed matrix JSON")
    assert not out.exists()

    gadget = tmp_path / "g.json"
    gadget.write_text(json.dumps({"k": 0, "phi": 0.0, "success_prob": 1.0, "residual": 0.0,
                                  "u_eff": {"rows": 1, "cols": 1, "data": data}}))
    code = main(["gadget", "verify", "--gadget", str(gadget)])
    _assert_error_line(capsys, code, "malformed matrix JSON")


@pytest.mark.parametrize("command, flag, kind", [
    ("permanent", "--matrix", "matrix"), ("gadget verify", "--gadget", "gadget"),
], ids=["matrix", "gadget"])
def test_a_json_file_that_is_not_an_object_names_what_it_holds(tmp_path, capsys, command,
                                                               flag, kind):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    assert main([*command.split(), flag, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: malformed {kind} JSON: expected an object, got list\n")


def test_gadget_file_holding_an_array_is_an_error_line(tmp_path, capsys):
    gadget = tmp_path / "list.json"
    gadget.write_text("[1, 2]\n")
    _assert_error_line(capsys, main(["gadget", "verify", "--gadget", str(gadget)]),
                       "malformed gadget JSON")
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "samples.csv"
    code = main(["simulate", "--config", str(cfg), "--gadget", str(gadget), "--samples", "10",
                 "--out", str(out)])
    _assert_error_line(capsys, code, "malformed gadget JSON")
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_without_workers_is_an_error_line(tmp_path, capsys, monkeypatch, workers):
    def untouched(*args, **kwargs):
        raise AssertionError("synthesized before validating the arguments")

    monkeypatch.setattr(analysis, "synthesize_gadgets", untouched)
    out = tmp_path / "rec.csv"
    code = main(["experiment", "tvd-bunching", "--n", "2", "--modes", "3", "--k", "1",
                 "--trials", "1", "--workers", workers, "--out", str(out)])
    _assert_error_line(capsys, code, f"workers={workers}")
    assert not out.exists()


def test_analyze_negative_occupation_cap_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "trunc.csv"
    code = main(["analyze", "truncation", "--n", "2", "--m", "4", "--n-max", "-1",
                 "--units", "2", "--out", str(out)])
    _assert_error_line(capsys, code, "n_max=-1")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, fragment", [
    ("--k", "2,2", "each k may be listed once, got k=[2, 2]"),
    ("--modes", "3,3", "each m may be listed once, got m=[3, 3]"),
])
def test_experiment_repeated_count_is_an_error_line(tmp_path, capsys, monkeypatch, flag, value,
                                                    fragment):
    def untouched(*args, **kwargs):
        raise AssertionError("synthesized before validating the arguments")

    monkeypatch.setattr(analysis, "synthesize_gadgets", untouched)
    argv = {"--n": "2", "--modes": "3", "--k": "2", "--trials": "2"}
    argv[flag] = value
    out = tmp_path / "rec.csv"
    code = main(["experiment", "tvd-bunching", *[a for kv in argv.items() for a in kv],
                 "--out", str(out)])
    _assert_error_line(capsys, code, fragment)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("iterations", ["0", "-5"])
def test_linear_search_without_iterations_is_an_error_line(tmp_path, capsys, monkeypatch,
                                                           iterations):
    def untouched(*args, **kwargs):
        raise AssertionError("computed the target before checking iterations")

    monkeypatch.setattr(analysis, "nonlinear_distribution", untouched)
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "search.csv"
    code = main(["analyze", "linear-search", "--config", str(cfg), "--iterations", iterations,
                 "--out", str(out)])
    _assert_error_line(capsys, code, f"iterations={iterations}")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]


# Every seed, comma list and matrix header is refused by its own rule, naming
# it, with exit 1 and before any random draw; nothing is written.
@pytest.mark.parametrize("argv, message", [
    (["gadget", "optimize", "--k", "2", "--seed", "-1"], "seed must be at least 0, got seed=-1"),
    (["simulate", "--config", "{cfg}", "--seed", "-1"], "seed must be at least 0, got seed=-1"),
    (["experiment", "tvd-bunching", "--n", "2", "--modes", "3", "--k", "1", "--seed", "-1"],
     "seed must be at least 0, got seed=-1"),
    (["analyze", "cumulative", "--n", "2", "--m", "3", "--units", "2", "--seed", "-1"],
     "seed must be at least 0, got seed=-1"),
    (["analyze", "truncation", "--n", "2", "--m", "3", "--units", "2", "--seed", "-1"],
     "seed must be at least 0, got seed=-1"),
    (["analyze", "linear-search", "--config", "{cfg}", "--iterations", "2", "--seed", "-1"],
     "seed must be at least 0, got seed=-1"),
    (["nonlinear-distribution", "--config", "{cfg:-1}"],
     "config seed must be at least 0, got config seed=-1"),
    (["nonlinear-distribution", "--config", "{cfg:1.5}"],
     "config seed must be an integer, got 1.5"),
    (["experiment", "tvd-bunching", "--n", "2", "--modes", "3,a", "--k", "1"],
     "--modes must list int values, got '3,a'"),
    (["experiment", "tvd-bunching", "--n", "2", "--modes", "3", "--k", "1,"],
     "--k must list int values, got '1,'"),
    (["analyze", "cumulative", "--n", "2", "--m", "3", "--thresholds", "0.9,x"],
     "--thresholds must list float values, got '0.9,x'"),
    (["analyze", "cumulative", "--n", "2", "--m", "3", "--thresholds", "0.9,1.5"],
     "threshold must be in (0, 1], got 1.5"),
    (["analyze", "cumulative", "--n", "2", "--m", "3", "--thresholds", "nan"],
     "threshold must be finite, got threshold=nan"),
    (["permanent", "--matrix", "{matrix}"],
     "malformed matrix JSON: rows must be an integer >= 0, got 1.9"),
], ids=["gadget optimize seed", "simulate seed", "tvd-bunching seed", "cumulative seed",
        "truncation seed", "linear-search seed", "config seed", "config fractional seed",
        "modes list", "k list", "thresholds list", "threshold range", "threshold nan",
        "matrix rows"])
def test_bad_seed_list_or_header_is_an_error_line_before_any_draw(tmp_path, capsys,
                                                                   monkeypatch, argv, message):
    def untouched(*args, **kwargs):
        raise AssertionError("drew from a random stream before checking its arguments")

    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    configs = {"{cfg}": cfg}
    for seed in (-1, 1.5):
        configs[f"{{cfg:{seed}}}"] = tmp_path / f"seed{seed}.json"
        configs[f"{{cfg:{seed}}}"].write_text(json.dumps({"input_state": "1,1", "seed": seed}))
    configs["{matrix}"] = tmp_path / "m.json"
    configs["{matrix}"].write_text(json.dumps({"rows": 1.9, "cols": 1, "data": [[1, 0]]}))
    inputs = set(tmp_path.iterdir())
    monkeypatch.setattr(np.random, "default_rng", untouched)
    out = tmp_path / "out.csv"
    code = main([str(configs.get(a, a)) for a in argv] + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert set(tmp_path.iterdir()) == inputs


def _write_inline_config(path, w, v, input_state="1,1,0", **extra):
    cfg = {"input_state": input_state, "mode_x": 2, "phi": 0.9,
           "w_matrix": matrix_to_json(w), "v_matrix": matrix_to_json(v), **extra}
    path.write_text(json.dumps(cfg))


def test_inline_matrices_give_the_api_distribution(tmp_path):
    rng = np.random.default_rng(95)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    cfg = tmp_path / "exp.json"
    _write_inline_config(cfg, w, v)
    out = tmp_path / "nl.csv"
    assert main(["nonlinear-distribution", "--config", str(cfg), "--out", str(out)]) == 0
    expected = tmp_path / "api.csv"
    exp = NonlinearExperiment(w, v, SingleModePhase(2, 0.9), (1, 1, 0))
    write_distribution_csv(nonlinear_distribution(exp), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("case, fragment", [
    ("2W", "W: matrix is not unitary"),
    ("2x2 for 3 modes", "input state has 3 modes, expected 2"),
    ("m disagrees", "input_state has 3 modes, expected 4"),
])
def test_bad_inline_config_is_an_error_line(tmp_path, capsys, case, fragment):
    rng = np.random.default_rng(96)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    cfg = tmp_path / "exp.json"
    if case == "2W":
        _write_inline_config(cfg, 2 * w, v)
    elif case == "2x2 for 3 modes":
        _write_inline_config(cfg, np.eye(2), np.eye(2))
    else:
        _write_inline_config(cfg, w, v, m=4)
    out = tmp_path / "nl.csv"
    code = main(["nonlinear-distribution", "--config", str(cfg), "--out", str(out)])
    _assert_error_line(capsys, code, fragment)
    assert not out.exists()


def test_gadget_verify_checks_the_phase_it_is_given(tmp_path, gadget_k2, capsys):
    path = tmp_path / "g2.json"
    save_gadget(path, gadget_k2)
    assert main(["gadget", "verify", "--gadget", str(path), "--phi", "0.7"]) == 1
    assert "FAILED" in capsys.readouterr().out
    assert main(["gadget", "verify", "--gadget", str(path), "--phi", repr(math.pi / 2)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"


def test_gadget_without_ancillas_is_an_error_line(tmp_path, capsys):
    gadget = tmp_path / "g0.json"
    gadget.write_text(json.dumps({"k": 0, "phi": 0.0, "u_eff": matrix_to_json(np.eye(1))}))
    _assert_error_line(capsys, main(["gadget", "verify", "--gadget", str(gadget)]),
                       "u_eff must be at least 2x2, got shape (1, 1)")
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg)
    out = tmp_path / "samples.csv"
    code = main(["simulate", "--config", str(cfg), "--gadget", str(gadget), "--samples", "10",
                 "--out", str(out)])
    _assert_error_line(capsys, code, "u_eff must be at least 2x2, got shape (1, 1)")
    assert not out.exists()


def test_simulate_refuses_a_gadget_of_another_phase_and_writes_nothing(tmp_path, capsys):
    gadget = tmp_path / "g1.json"
    save_gadget(gadget, optimize_gadget(1, 0.4))
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg, gadget=gadget)  # phi = pi/4
    out = tmp_path / "samples.csv"
    argv = ["simulate", "--config", str(cfg), "--samples", "10", "--out", str(out)]
    _assert_error_line(capsys, main(argv), "the gadget realises phi=0.4, not the experiment's "
                                           f"phi={math.pi / 4!r}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "g1.json"]
    _write_experiment_config(cfg, phi=0.4, gadget=gadget)
    assert main(argv) == 0


def test_simulate_refuses_a_heralding_mass_at_roundoff_level_and_writes_nothing(tmp_path,
                                                                                capsys):
    # the swap gadget never heralds; roundoff leaves a kept mass of ~4e-33
    gadget = tmp_path / "swap.json"
    save_gadget(gadget, GadgetSpec(math.pi / 2, np.array([[0.0, 1.0], [1.0, 0.0]])))
    cfg = tmp_path / "exp.json"
    _write_inline_config(cfg, np.eye(2), np.eye(2), input_state="1,0", phi=math.pi / 2,
                         gadget=str(gadget))
    out = tmp_path / "samples.csv"
    code = main(["simulate", "--config", str(cfg), "--samples", "10", "--out", str(out)])
    _assert_error_line(capsys, code, "the heralding pattern has zero probability")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "swap.json"]


def _sidecar_inputs(tmp_path):
    """Input files for one cheap run of every command that takes --out."""
    save_matrix(tmp_path / "u.json", np.eye(2, dtype=complex))
    _write_experiment_config(tmp_path / "exp.json", phi=math.pi / 2)
    save_gadget(tmp_path / "ref2.json", reference_gadget(2))


SIDECAR_RUNS = {
    "permanent": ["permanent", "--matrix", "u.json"],
    "distribution": ["distribution", "--unitary", "u.json", "--input", "1,1"],
    "nonlinear-distribution": ["nonlinear-distribution", "--config", "exp.json"],
    "gadget optimize": ["gadget", "optimize", "--k", "1"],
    "gadget reference": ["gadget", "reference", "--k", "2"],
    "simulate": ["simulate", "--config", "exp.json", "--gadget", "ref2.json",
                 "--samples", "5"],
    "experiment tvd-bunching": ["experiment", "tvd-bunching", "--n", "1", "--modes", "2",
                                "--k", "1", "--trials", "1", "--reference", "pathsum"],
    "analyze cumulative": ["analyze", "cumulative", "--n", "1", "--m", "2", "--units", "2"],
    "analyze truncation": ["analyze", "truncation", "--n", "2", "--m", "2", "--units", "2"],
    "analyze linear-search": ["analyze", "linear-search", "--config", "exp.json",
                              "--iterations", "2"],
}


@pytest.mark.parametrize("command", list(SIDECAR_RUNS))
def test_every_command_writes_one_sidecar_named_from_the_parser(tmp_path, monkeypatch,
                                                                command):
    monkeypatch.chdir(tmp_path)
    _sidecar_inputs(tmp_path)
    argv = SIDECAR_RUNS[command] + ["--out", "result.out"]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "result.out.meta.json").read_text())
    options = vars(build_parser().parse_args(argv))
    expected = {k: v for k, v in options.items() if k not in ("func", "command")}
    assert meta == {"command": command, "version": __version__, "config": expected}
    assert list(meta["config"]) == sorted(expected)


def test_no_sidecar_without_an_out_or_a_success(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _sidecar_inputs(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["permanent", "--matrix", "u.json"]) == 0
    assert main(["gadget", "verify", "--gadget", "ref2.json", "--tol", "1e-9"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_each_network_is_checked_once_and_each_sandwich_decomposed_once(tmp_path, spy):
    save_gadget(tmp_path / "ref2.json", reference_gadget(2))
    cfg = tmp_path / "exp.json"
    _write_experiment_config(cfg, phi=math.pi / 2, gadget=tmp_path / "ref2.json")
    checks = spy(nlboson.linalg, "_unitarity_gate")
    # one tagged recursion per photon-number decomposition
    passes = spy(nlboson.nonlinear, "_tagged_components")
    out = str(tmp_path / "samples.csv")
    assert main(["simulate", "--config", str(cfg), "--samples", "5", "--out", out]) == 0
    # the heralded mass and the exact reference share one components pass
    assert (network_checks(checks), len(passes)) == (["V", "W"], 1)
    checks.clear()
    passes.clear()
    out = str(tmp_path / "search.csv")
    argv = ["analyze", "linear-search", "--config", str(cfg), "--iterations", "3", "--out", out]
    assert main(argv) == 0
    assert (network_checks(checks), len(passes)) == (["V", "W"], 1)


def test_every_readme_cli_example_parses():
    # the documented flags are part of the interface
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines() if line.startswith("nlboson ")]
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_quick_start_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md quick start", "exec"), scope)
    assert len(scope["samples"]) == 1000
    assert scope["stats"].accepted == 1000
