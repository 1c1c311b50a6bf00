"""The paired summary counts wins, losses and run order as documented.

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
    low = pair.summarize(pairs, "m", "lower")
    assert (low["change_wins"], low["change_losses"]) == (2, 1)
    high = pair.summarize(pairs, "m", "higher")
    assert (high["change_wins"], high["change_losses"]) == (1, 2)
    assert low["median_worse_by"] == -0.05
    assert high["median_worse_by"] == 0.05


def test_spread_and_order_split():
    pairs = _pairs([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
    s = pair.summarize(pairs, "m", "lower")
    assert s["base"] == {"median": 3, "q1": 2, "q3": 4, "n": 5}
    assert s["base_iqr"] == 2
    # pairs 0, 2, 4 ran the base first; pairs 1, 3 the change
    assert s["by_order"] == {"base_first": {"base": 3, "change": 30},
                             "change_first": {"base": 3, "change": 30}}


def test_failed_runs_drop_their_pair():
    pairs = _pairs([1, 2, 3], [1, 1, 1])
    pairs[1]["change"] = {"error": "exit 1"}
    s = pair.summarize(pairs, "m", "lower")
    assert s["pairs"] == 2 and s["change_wins"] == 1
    assert s["base"]["median"] == 2
