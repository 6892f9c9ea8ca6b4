"""The verdicts of the same-runner A/B gate (``benchmarks/ab.py``).

``ab.compare`` is fed synthetic per-pair ``run.py --json`` summaries, so
no benchmark runs here.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import ab  # noqa: E402

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
RATE = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}


def docs(values, failed=None, metric="wall_s"):
    """One ``run.py`` summary per pair for workload ``w``."""
    failed = failed or [0] * len(values)
    return [
        {"workloads": {"w": {"metrics": {metric: {"value": value}},
                             "failed": fails, "attempted": 10}}}
        for value, fails in zip(values, failed)
    ]


def rows_by_metric(parent, change, metrics=(WALL,)):
    rows, failures = ab.compare(parent, change, list(metrics))
    return {row["metric"]: row for row in rows}, failures


def test_median_past_bound_regresses():
    rows, failures = rows_by_metric(docs([1.0, 1.01, 0.99, 1.0]),
                                    docs([1.3, 1.31, 1.29, 1.3]))
    assert rows["wall_s"]["verdict"] == "REGRESSED"
    assert round(rows["wall_s"]["delta"], 9) == 0.3
    assert failures == ["w wall_s +30.0% (bound 20%)"]


def test_median_within_bound_is_ok():
    rows, failures = rows_by_metric(docs([1.0, 1.01, 0.99, 1.0]),
                                    docs([1.15, 1.16, 1.14, 1.15]))
    assert rows["wall_s"]["verdict"] == "ok"
    assert rows["failed_frac"]["verdict"] == "ok"
    assert failures == []


def test_parent_spread_over_bound_is_unresolved():
    # Parent quartiles [0.7, 1.3] around a median of 1.0: a 60% spread.
    rows, failures = rows_by_metric(docs([0.5, 0.9, 1.1, 1.5]),
                                    docs([0.6, 1.0, 1.1, 1.4]))
    assert rows["wall_s"]["verdict"] == "unresolved"
    assert failures == []


def test_higher_is_better_metric_regresses_on_a_drop():
    rows, failures = rows_by_metric(docs([100, 100, 100], metric="rate"),
                                    docs([85, 85, 85], metric="rate"), metrics=(RATE,))
    assert rows["rate"]["verdict"] == "REGRESSED"
    assert rows["rate"]["wins"] == 0
    rows, failures = rows_by_metric(docs([100, 100, 100], metric="rate"),
                                    docs([150, 150, 150], metric="rate"), metrics=(RATE,))
    assert rows["rate"]["verdict"] == "ok" and failures == []
    assert rows["rate"]["wins"] == 3


def test_higher_failed_share_on_change_fails():
    values = [1.0, 1.0, 1.0, 1.0]
    rows, failures = rows_by_metric(docs(values), docs(values, failed=[0, 1, 0, 0]))
    assert rows["wall_s"]["verdict"] == "ok"
    assert rows["failed_frac"]["verdict"] == "REGRESSED"
    assert (rows["failed_frac"]["parent"], rows["failed_frac"]["change"]) == (0.0, 1 / 40)
    assert failures == ["w failed_frac 0 -> 0.025"]
    # An equal or lower share on the change side passes.
    for change_failed in ([0, 1, 0, 0], [0, 0, 0, 0]):
        _, failures = rows_by_metric(docs(values, failed=[1, 0, 0, 0]),
                                     docs(values, failed=change_failed))
        assert failures == []


def test_win_counts_are_exact():
    # Strictly lower wins; a tie is not a win.
    rows, _ = rows_by_metric(docs([1.0, 1.0, 1.0, 1.0, 1.0]),
                             docs([0.9, 1.1, 0.9, 1.0, 0.8]))
    assert rows["wall_s"]["wins"] == 3
    assert rows["wall_s"]["pairs"] == 5
    assert ab.format_row(rows["wall_s"]).split()[-2:] == ["3/5", "ok"]
    assert ab.format_row(rows["failed_frac"]).split()[-1] == "ok"
