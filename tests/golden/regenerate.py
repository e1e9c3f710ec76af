"""Golden outputs of the `nlboson` CLI at reduced scale.

Each case in CASES is one command line.  Its golden files sit in
``tests/golden/<case>/``: every file the command writes (its ``--out`` is
named ``out.*``), plus its stdout as ``stdout.txt`` where the case keeps it.
``tests/test_golden.py`` reruns every case and compares with `differences`:

* CSV columns in FLOAT_COLUMNS and JSON floats at an absolute TOL, because
  another numpy or BLAS build may round differently;
* every other CSV cell, JSON value and stdout token exactly: states, counts,
  seeds, phases, thresholds;
* sidecars byte for byte, once the output directory and the repository root
  are written as ``$OUT`` and ``$REPO``.

No case synthesises a gadget with k >= 2, whose result can differ across
BLAS builds; `simulate` reads the two committed benchmark gadgets.  The
files under ``inputs/`` are Haar unitaries drawn once (``haar_unitary`` on
``default_rng`` seeds 301, 302, 401 and 402) and are not rewritten here.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

It reruns every case, prints the largest change per file against the
committed golden file, and rewrites the golden files; ``git diff
tests/golden`` then shows what moved.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from nlboson import cli

GOLDEN = Path(__file__).resolve().parent
REPO = GOLDEN.parent.parent
TOL = 1e-13
FLOAT_COLUMNS = {"probability", "tvd", "p_bunch_site", "p_bunch_global", "p_postselect",
                 "fraction", "truncated_mass", "best_tvd"}

_IN = "{in}/"
_GADGET = "{repo}/perfbench/inputs/gadget_k%d_pi2.json"

# case -> (argv with {in}, {repo} and {out} placeholders, keep stdout)
CASES: dict[str, tuple[list[str], bool]] = {
    "distribution_u3": (["distribution", "--unitary", _IN + "u3.json", "--input", "1,1,0",
                         "--out", "{out}/out.csv"], False),
    "distribution_u4_bunched": (["distribution", "--unitary", _IN + "u4.json",
                                 "--input", "2,0,1,0", "--out", "{out}/out.csv"], False),
    "nonlinear_exp3": (["nonlinear-distribution", "--config", _IN + "exp3.json",
                        "--out", "{out}/out.csv"], False),
    "nonlinear_exp4_bunched": (["nonlinear-distribution", "--config", _IN + "exp4_bunched.json",
                                "--out", "{out}/out.csv"], False),
    **{
        f"simulate_k{k}_seed{seed}": (["simulate", "--config", _IN + "exp3.json",
                                       "--gadget", _GADGET % k,
                                       "--samples", "200", "--seed", str(seed),
                                       "--out", "{out}/out.csv"], False)
        for k in (2, 3)
        for seed in (1, 2, 3)
    },
    "simulate_bunched_k3": (["simulate", "--config", _IN + "exp4_bunched.json",
                             "--gadget", _GADGET % 3, "--samples", "200",
                             "--seed", "1", "--out", "{out}/out.csv"], False),
    **{
        f"gadget_reference_k{k}": (["gadget", "reference", "--k", str(k),
                                    "--out", "{out}/out.json"], False)
        for k in (2, 3)
    },
    **{
        f"gadget_verify_k{k}": (["gadget", "verify", "--gadget", _GADGET % k],
                                True)
        for k in (2, 3)
    },
    "tvd_bunching_n3": (["experiment", "tvd-bunching", "--n", "3", "--modes", "5,9",
                         "--k", "1", "--trials", "3", "--seed", "1",
                         "--out", "{out}/out.csv"], False),
    "tvd_bunching_n1_gadget": (["experiment", "tvd-bunching", "--n", "1", "--modes", "5,9",
                                "--k", "1", "--trials", "3", "--seed", "1",
                                "--reference", "gadget", "--out", "{out}/out.csv"], False),
    "analyze_cumulative": (["analyze", "cumulative", "--units", "5", "--seed", "1",
                            "--out", "{out}/out.csv"], False),
    "analyze_truncation": (["analyze", "truncation", "--units", "5", "--seed", "1",
                            "--out", "{out}/out.csv"], False),
    "analyze_linear_search": (["analyze", "linear-search", "--config", _IN + "exp3.json",
                               "--iterations", "50", "--seed", "1",
                               "--out", "{out}/out.csv"], False),
}


def run_case(case: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case with its outputs in the empty directory `out_dir`:
    every file it wrote, by name, with sidecars normalised."""
    template, keep_stdout = CASES[case]
    places = {"{in}": str(GOLDEN / "inputs"), "{repo}": str(REPO), "{out}": str(out_dir)}
    argv = []
    for word in template:
        for key, value in places.items():
            word = word.replace(key, value)
        argv.append(word)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{case}: exit code {code} for {argv}")
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    for name in files:
        if name.endswith(".meta.json"):
            text = files[name].decode().replace(str(out_dir), "$OUT").replace(str(REPO), "$REPO")
            files[name] = text.encode()
    if keep_stdout:
        files["stdout.txt"] = stdout.getvalue().encode()
    return files


def read_golden(case: str) -> dict[str, bytes]:
    """The committed golden files of one case, by name."""
    return {path.name: path.read_bytes() for path in sorted((GOLDEN / case).iterdir())}


def differences(name: str, old: bytes, new: bytes) -> tuple[float, list[str]]:
    """(largest change of a value compared at TOL, every mismatch) between two
    versions of the golden file `name`; a change above TOL is a mismatch."""
    if old == new:
        return 0.0, []
    if name.endswith(".meta.json"):
        return 0.0, ["sidecar differs"]
    if name.endswith(".csv"):
        values = _csv_values(old.decode(), new.decode())
    elif name.endswith(".json"):
        values = _json_values("", json.loads(old), json.loads(new))
    else:
        values = _token_values(old.decode(), new.decode())
    largest, mismatches = 0.0, []
    for where, a, b in values:
        if type(a) is float and type(b) is float:
            change = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)
            change = math.inf if math.isnan(change) else change
            largest = max(largest, change)
            if change <= TOL:
                continue
        elif a == b and type(a) is type(b):
            continue
        mismatches.append(f"{where}: {a!r} -> {b!r}")
    return largest, mismatches


def _csv_values(old: str, new: str):
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    yield "header", old_rows[0], new_rows[0]
    yield "rows", len(old_rows), len(new_rows)
    for i, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        for column, a, b in zip(old_rows[0], a_row, b_row):
            if column in FLOAT_COLUMNS:
                a, b = float(a), float(b)
            yield f"row {i} {column}", a, b


def _json_values(where: str, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        yield f"{where} keys", sorted(a), sorted(b)
        for key in sorted(set(a) & set(b)):
            yield from _json_values(f"{where}.{key}", a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        yield f"{where} length", len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_values(f"{where}[{i}]", x, y)
    else:
        yield where, a, b


def _token_values(old: str, new: str):
    """Stdout, token by token: a decimal or exponent literal is a float."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    yield "lines", len(old_lines), len(new_lines)
    for i, (a_line, b_line) in enumerate(zip(old_lines, new_lines), start=1):
        yield f"line {i} tokens", len(a_line.split()), len(b_line.split())
        for a, b in zip(a_line.split(), b_line.split()):
            yield f"line {i}", _float_or_text(a), _float_or_text(b)


def _float_or_text(token: str):
    try:
        return token if token.isdigit() else float(token)
    except ValueError:
        return token


def main() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(case, Path(tmp))
        target = GOLDEN / case
        committed = read_golden(case) if target.is_dir() else {}
        for name in sorted(set(files) | set(committed)):
            if name not in committed:
                status = "new file"
            elif name not in files:
                status = "no longer written"
            elif committed[name] == files[name]:
                status = "identical"
            else:
                largest, mismatches = differences(name, committed[name], files[name])
                status = f"largest change {largest:.3g}"
                if mismatches:
                    status += f"; {len(mismatches)} beyond the rules, first {mismatches[0]}"
            print(f"{case}/{name}: {status}")
        target.mkdir(exist_ok=True)
        for stale in set(committed) - set(files):
            (target / stale).unlink()
        for name, data in files.items():
            (target / name).write_bytes(data)


if __name__ == "__main__":
    main()
