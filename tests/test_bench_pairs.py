"""The acceptance rules `scripts/bench_pairs.py` computes, on hand-made runs."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RATE = {"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}


def runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def compare(spec, parent, change):
    return bench_pairs.compare(runs(spec["name"], parent), runs(spec["name"], change),
                               [spec])[spec["name"]]


def test_a_gain_in_every_pair_beyond_the_parent_spread_meets_the_claim():
    parent = [17.0, 17.2, 17.4, 17.6, 17.8, 17.1, 17.3, 17.5, 17.7, 17.9]
    got = compare(RATE, parent, [v + 3.0 for v in parent])
    assert got["pairs_won"] == 10
    assert got["gain_exceeds_parent_iqr"] and got["claim_met"] and got["within_bound"]


def test_eight_pairs_of_ten_do_not_meet_the_claim():
    parent = [17.0] * 10
    change = [20.0] * 8 + [16.0] * 2
    got = compare(RATE, parent, change)
    assert got["pairs_won"] == 8 and got["gain_exceeds_parent_iqr"]
    assert not got["claim_met"]
    # nine of ten is enough
    assert compare(RATE, parent, [20.0] * 9 + [16.0])["claim_met"]


def test_a_gain_inside_the_parent_spread_does_not_meet_the_claim():
    parent = [10.0, 12.0, 14.0, 16.0, 18.0]
    got = compare(RATE, parent, [v + 1.0 for v in parent])
    assert got["pairs_won"] == 5 and not got["gain_exceeds_parent_iqr"]
    assert not got["claim_met"]


@pytest.mark.parametrize("spec, change, within", [
    # higher is better: a 24% fall is the limit
    (RATE, 76.0, True),
    (RATE, 75.9, False),
    (RATE, 130.0, True),
    # lower is better: a 5% rise is the limit
    (RSS, 105.0, True),
    (RSS, 105.1, False),
    (RSS, 90.0, True),
])
def test_within_bound_is_relative_to_the_parent_median(spec, change, within):
    got = compare(spec, [100.0] * 4, [change] * 4)
    assert got["within_bound"] is within
