import json
import math

import numpy as np
import pytest

from nlboson import save_gadget, save_matrix
from nlboson.cli import main


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
    ({"input_state": [1, 0.5]}, "integer occupations"),
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
