"""The acceptance rules `scripts/bench_pairs.py` computes, on hand-made runs."""
import importlib.util
import json
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


def fake_main(monkeypatch, tmp_path, *flags):
    """`main` on two empty checkouts, with `run_bench` stubbed, and the
    repository root moved to tmp_path/root; returns that root."""
    root = tmp_path / "root"
    root.mkdir(exist_ok=True)
    change = tmp_path / "change"
    change.mkdir(exist_ok=True)
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [RATE]}))

    def run_bench(checkout, workload, seed, seconds):
        rate = 20.0 if checkout == change else 10.0
        return {"metrics": {"verdicts_per_s": {"value": rate}}, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    assert bench_pairs.main([str(tmp_path), str(change), "--workload", "w", "--pairs", "2",
                             *flags]) == 0
    return root


def test_a_run_merges_into_out_and_leaves_the_default_report_alone(monkeypatch, tmp_path):
    out = tmp_path / "scratch.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}))
    root = fake_main(monkeypatch, tmp_path, "--out", str(out))
    report = json.loads(out.read_text())
    assert report["workloads"]["other"] == {"kept": True}
    assert report["workloads"]["w"]["metrics"]["verdicts_per_s"]["pairs_won"] == 2
    assert not (root / "BENCH_pipeline.json").exists()
    # without --out the entry goes to BENCH_pipeline.json at the root
    fake_main(monkeypatch, tmp_path)
    assert list(json.loads((root / "BENCH_pipeline.json").read_text())["workloads"]) == ["w"]
