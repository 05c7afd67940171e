import json

import pytest

from road_bench import catalog, compare


def _result(path, values, *, smoke=False, workload="bulk_sparse", metric="queries_per_s"):
    unit = catalog.BY_NAME[metric].unit
    path.write_text(
        json.dumps(
            {
                "smoke": smoke,
                "runs": [
                    {
                        "workload": workload,
                        "traced": False,
                        "metrics": {metric: {"value": value, "unit": unit}},
                    }
                    for value in values
                ],
            }
        )
    )
    return path


def test_same_numbers_are_unchanged_and_exit_zero(tmp_path, capsys):
    a = _result(tmp_path / "a.json", [1200.0, 1210.0, 1190.0])
    b = _result(tmp_path / "b.json", [1195.0, 1205.0, 1215.0])
    assert compare.compare(a, b) == 0
    assert "unchanged" in capsys.readouterr().out


def test_a_drop_beyond_the_bound_is_worse_and_exits_non_zero(tmp_path, capsys):
    a = _result(tmp_path / "a.json", [1200.0, 1210.0, 1190.0])
    b = _result(tmp_path / "b.json", [800.0, 810.0, 790.0])
    assert compare.compare(a, b) == 1
    assert "worse" in capsys.readouterr().out


def test_higher_is_better_gain_is_not_a_regression(tmp_path):
    a = _result(tmp_path / "a.json", [1000.0, 1010.0, 990.0])
    b = _result(tmp_path / "b.json", [1500.0, 1510.0, 1490.0])
    assert compare.compare(a, b) == 0


def test_wide_spread_is_unresolved_not_unchanged():
    metric = catalog.BY_NAME["request_p50_ms"]
    noisy = [3.0, 3.6, 4.4, 3.1, 4.0]
    outcome, _ = compare.verdict(metric, noisy, [3.2, 3.9, 4.3, 3.0, 4.1])
    assert outcome == "unresolved"
    # ...unless every run of one side beats every run of the other.
    outcome, _ = compare.verdict(metric, noisy, [2.0, 2.4, 2.9, 2.1, 2.6])
    assert outcome == "better"
    outcome, _ = compare.verdict(metric, noisy, [5.0, 6.0, 7.5, 5.2, 6.6])
    assert outcome == "worse"


def test_any_increase_of_error_share_is_worse():
    metric = catalog.BY_NAME["error_share"]
    assert compare.verdict(metric, [0.0, 0.0], [0.0, 0.0])[0] == "unchanged"
    assert compare.verdict(metric, [0.0, 0.0], [0.001, 0.001])[0] == "worse"


def test_smoke_results_are_refused(tmp_path):
    a = _result(tmp_path / "a.json", [1.0], smoke=True)
    b = _result(tmp_path / "b.json", [1.0])
    with pytest.raises(SystemExit):
        compare.compare(a, b)
