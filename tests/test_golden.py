"""Every golden case reruns and matches its committed outputs: the cases and
the comparison rules are in tests/golden/regenerate.py."""

import pytest

from .golden import regenerate as golden


@pytest.mark.parametrize("case", list(golden.CASES))
def test_command_matches_its_golden_outputs(case, tmp_path):
    produced = golden.run_case(case, tmp_path)
    expected = golden.read_golden(case)
    assert sorted(produced) == sorted(expected)
    for name, data in produced.items():
        _, mismatches = golden.differences(name, expected[name], data)
        assert not mismatches, f"{case}/{name}: {mismatches[:5]}"


def test_the_comparison_holds_floats_to_the_tolerance_and_the_rest_exactly():
    header = b"n,m,k,phi,trial,seed,tvd,p_bunch_site,p_bunch_global,p_postselect\n"
    row = b"3,5,1,1.5,0,1,0.25,0.5,0.5,1\n"
    assert golden.differences("out.csv", header + row, header + row) == (0.0, [])
    moved = header + b"3,5,1,1.5,0,1,0.25000000000001,0.5,0.5,1\n"
    largest, mismatches = golden.differences("out.csv", header + row, moved)
    assert 0 < largest < golden.TOL and mismatches == []
    _, mismatches = golden.differences("out.csv", header + row,
                                       header + b"3,5,1,1.5,0,1,0.2500000000002,0.5,0.5,1\n")
    assert mismatches == ["row 1 tvd: 0.25 -> 0.2500000000002"]
    _, mismatches = golden.differences("out.csv", header + row,
                                       header + b"3,5,1,1.5,1,1,0.25,0.5,0.5,1\n")
    assert mismatches == ["row 1 trial: '0' -> '1'"]
    _, mismatches = golden.differences("out_summary.json", b'{"n_samples": 200, "p": 0.5}',
                                       b'{"n_samples": 201, "p": 0.5}')
    assert mismatches == [".n_samples: 200 -> 201"]
    assert golden.differences("out.csv.meta.json", b"{}", b"{ }")[1] == ["sidecar differs"]
