"""The paired summary counts wins, losses and run order and gives each
metric its verdict, as documented.

    python3 -m pytest bench/test_pair.py
"""

import pair


def _pairs(base, change):
    """Pairs of one metric ``m``; the first side alternates."""
    return [{"seed": i, "first": pair.SIDES[i % 2],
             "base": {"metrics": {"m": b}},
             "change": {"metrics": {"m": c}}}
            for i, (b, c) in enumerate(zip(base, change))]


def test_wins_losses_and_ties_follow_the_better_direction():
    pairs = _pairs([10, 10, 10, 10], [8, 9, 10, 12])
    low = pair.summarize(pairs, "m", "lower", 0.25)
    assert (low["change_wins"], low["change_losses"]) == (2, 1)
    high = pair.summarize(pairs, "m", "higher", 0.25)
    assert (high["change_wins"], high["change_losses"]) == (1, 2)
    assert low["median_worse_by"] == -0.05
    assert high["median_worse_by"] == 0.05


def test_spread_and_order_split():
    pairs = _pairs([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
    s = pair.summarize(pairs, "m", "lower", 0.25)
    assert s["base"] == {"median": 3, "q1": 2, "q3": 4, "n": 5}
    assert s["base_iqr"] == 2
    # pairs 0, 2, 4 ran the base first; pairs 1, 3 the change
    assert s["by_order"] == {"base_first": {"base": 3, "change": 30},
                             "change_first": {"base": 3, "change": 30}}


def test_failed_runs_drop_their_pair():
    pairs = _pairs([1, 2, 3], [1, 1, 1])
    pairs[1]["change"] = {"error": "exit 1"}
    s = pair.summarize(pairs, "m", "lower", 0.25)
    assert s["pairs"] == 2 and s["change_wins"] == 1
    assert s["base"]["median"] == 2


def _verdict(base, change, better="lower", bound=0.25):
    return pair.summarize(_pairs(base, change), "m", better, bound)["verdict"]


def test_gain_needs_nine_tenths_of_the_pairs_and_the_base_spread():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert _verdict(base, [8.0] * 9 + [10.5]) == "gain"
    assert _verdict(base, [8.0] * 8 + [10.5] * 2) == "no_regression"
    # 10 of 10 wins, but by less than the base's interquartile range
    assert _verdict(base, [v - 0.1 for v in base]) == "no_regression"
    higher = [1.0 / v for v in base]
    assert _verdict(higher, [0.2] * 10, better="higher") == "gain"


def test_failed_pairs_count_against_a_gain():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    pairs = _pairs(base, [8.0] * 10)
    pairs[0]["change"] = {"error": "exit 1"}
    assert pair.summarize(pairs, "m", "lower", 0.25)["verdict"] == "gain"
    pairs[1]["change"] = {"error": "exit 1"}
    s = pair.summarize(pairs, "m", "lower", 0.25)
    assert s["change_wins"] == 8 and s["verdict"] == "no_regression"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    base = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert _verdict(base, [12.6] * 5) == "regression"
    assert _verdict(base, [12.4] * 5) == "no_regression"
    assert _verdict(base, [10.0] * 5, better="higher",
                    bound=0.1) == "no_regression"
    assert _verdict(base, [8.9] * 5, better="higher",
                    bound=0.1) == "regression"


def test_wide_base_spread_is_unresolved_unless_the_runs_separate():
    # base quartiles 1.075 and 1.425: 28 % of the 1.25 median
    base = [1.0, 1.1, 1.4, 1.5]
    assert _verdict(base, [1.2, 1.0, 1.3, 1.4]) == "unresolved"
    # every change run beats every base run, by less than the spread
    assert _verdict(base, [0.99] * 4) == "no_regression"
    assert _verdict(base, [1.2, 1.0, 1.3, 1.4], bound=0.3) == "no_regression"


def test_no_pairs_are_unresolved():
    pairs = _pairs([1.0], [1.0])
    pairs[0]["base"] = {"error": "exit 1"}
    assert pair.summarize(pairs, "m", "lower", 0.25)["verdict"] == "unresolved"


def test_ops_count_attempts_failures_and_incorrect_runs():
    runs = [{"correct": True, "attempted": 6, "failed": 0},
            {"correct": False, "attempted": 5, "failed": 2},
            {"error": "exit 1: worker exited 1"}]
    assert pair._ops(runs) == {"attempted": 11, "failed": 2,
                               "incorrect_runs": 2}


def test_op_kind_medians_pool_the_runs_of_a_side(tmp_path):
    runs = [[["hankel", 0.002], ["whittaker", 0.003], ["hankel", 0.004]],
            [["whittaker", 0.001], ["hankel", 0.006]], []]
    assert pair.op_kind_medians(runs) == {"hankel": 4.0, "whittaker": 2.0}
    assert pair.op_kind_medians([]) == {}
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "w-seed7-trace0.json").write_text(
        '{"correct": true, "op_times": [["a", 0.5]]}\n')
    assert pair._op_times(tmp_path, "w", 7) == [["a", 0.5]]
    assert pair._op_times(tmp_path, "w", 8) == []
